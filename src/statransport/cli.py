"""Command line entry points.

Four subcommands: design (synthesize and save a protocol), evaluate
(excitation spectra and band averages for a saved protocol), reproduce
(canned parameter studies with CSV + JSON output), qverify (split-operator
cross-check of a protocol).  Every run drops a manifest JSON next to its
outputs recording the exact parameters, so a run can be replayed from the
manifest alone.

Exit codes: 0 on success, 1 when a verification tolerance fails, 2 for
invalid inputs or internal consistency errors.
"""

from __future__ import annotations

import argparse
import json
import math
import platform
import sys
import time
from pathlib import Path

import numpy as np
import scipy
from scipy import constants

from . import __version__
from .designer import (
    PhysicalUnits,
    TransportSpec,
    build_trajectory,
    load_protocol,
    rescaled,
    save_protocol,
)
from .errors import BoundaryLeakError, ConsistencyError, GridError, SpecError
from .evaluator import classical_simulate, excitation_curve, final_excitation, lambda_metric
from .optimizer import optimize_epsilon, sweep_epsilon
from .qsim import verification_report

_TWO_PI = 2.0 * math.pi


def _parse_freqs(text: str) -> tuple:
    try:
        freqs = tuple(float(tok) for tok in text.split(",") if tok.strip())
    except ValueError as err:
        raise SpecError(f"could not parse --freqs {text!r}: {err}")
    if not freqs:
        raise SpecError("--freqs must list at least one frequency")
    return freqs


def _jsonable(value):
    if isinstance(value, Path):
        return str(value)
    if isinstance(value, tuple):
        return list(value)
    return value


def _write_manifest(directory: Path, command: str, args: argparse.Namespace, outputs,
                    run=None) -> Path:
    params = {k: _jsonable(v) for k, v in sorted(vars(args).items()) if k != "func"}
    manifest = {
        "command": command,
        "package": "statransport",
        "version": __version__,
        "params": params,
        "outputs": sorted(str(p) for p in outputs),
    }
    if run is not None:
        manifest["run"] = run
    path = directory / f"{command}_manifest.json"
    path.write_text(json.dumps(manifest, indent=2, sort_keys=True) + "\n")
    return path


def _write_trajectory_csv(protocol, path: Path, samples: int) -> None:
    t, x0, v0, a0 = protocol.sample(samples)
    lines = ["t,x0,v0,a0"]
    lines += [
        f"{float(ti)!r},{float(xi)!r},{float(vi)!r},{float(ai)!r}"
        for ti, xi, vi, ai in zip(t, x0, v0, a0)
    ]
    path.write_text("\n".join(lines) + "\n")


# -- design -------------------------------------------------------------------


def cmd_design(args) -> int:
    units = None
    if args.units == "physical":
        if args.mass_amu is None or args.omega_hz is None:
            raise SpecError("physical mode needs --mass-amu and --omega-hz")
        units = PhysicalUnits(
            mass_kg=args.mass_amu * constants.atomic_mass,
            omega_ref=_TWO_PI * args.omega_hz,
        )
        freqs = tuple(w * units.omega_ref for w in _parse_freqs(args.freqs))
    else:
        freqs = _parse_freqs(args.freqs)
    spec = TransportSpec(d=args.d, t_f=args.tf, freqs=freqs, units=units)
    protocol = build_trajectory(spec)

    out = Path(args.out)
    out.parent.mkdir(parents=True, exist_ok=True)
    save_protocol(protocol, out)
    traj = Path(args.traj_out) if args.traj_out else out.with_name(out.stem + "_trajectory.csv")
    _write_trajectory_csv(protocol, traj, args.samples)
    manifest = _write_manifest(out.parent, "design", args, [out, traj])

    print(f"protocol: {out}")
    print(f"trajectory: {traj} ({args.samples} samples)")
    print(f"manifest: {manifest}")
    n = protocol.aux.n_points
    print(f"design: {n} frequencies, t_f = {spec.t_f!r}, d = {spec.d!r} [{spec.unit_mode}]")
    return 0


# -- evaluate -----------------------------------------------------------------


def cmd_evaluate(args) -> int:
    protocol = load_protocol(args.protocol)
    if not (0.0 < args.omega_min < args.omega_max):
        raise SpecError("need 0 < --omega-min < --omega-max")
    if args.points < 2:
        raise SpecError("--points must be at least 2")
    omegas = np.linspace(args.omega_min, args.omega_max, args.points)
    curve = excitation_curve(protocol, omegas)
    out = Path(args.out)
    out.parent.mkdir(parents=True, exist_ok=True)
    curve.to_csv(out)
    outputs = [out]
    print(f"spectrum: {out} ({args.points} points in [{args.omega_min}, {args.omega_max}])")

    if args.eta is not None:
        lam = lambda_metric(protocol, args.omega0, args.eta)
        print(f"lambda(omega0={args.omega0!r}, eta={args.eta!r}) = {lam!r}")

    if args.transient:
        result = classical_simulate(protocol, args.omega, n_steps=args.transient_steps)
        tpath = (
            Path(args.transient_out)
            if args.transient_out
            else out.with_name(out.stem + "_transient.csv")
        )
        result.to_csv(tpath)
        outputs.append(tpath)
        print(f"transient: {tpath} (omega={args.omega!r}, final = {result.final_quanta!r} quanta)")

    manifest = _write_manifest(out.parent, "evaluate", args, outputs)
    print(f"manifest: {manifest}")
    return 0


# -- reproduce ----------------------------------------------------------------


def _spec(d: float, tf: float, freqs) -> TransportSpec:
    return TransportSpec(d=d, t_f=tf, freqs=freqs)


def _reproduce_fig1a(args, outdir: Path):
    """Trap trajectories: overshoot of the 3-frequency design and its cure."""
    tf0 = _TWO_PI * 1.25
    cases = [
        ("one_point_tf1p25", _spec(args.d, tf0, (1.0,))),
        ("three_point_tf1p25", _spec(args.d, tf0, (1.0, 1.0, 1.0))),
        ("three_point_tf1p5625", _spec(args.d, _TWO_PI * 1.5625, (1.0, 1.0, 1.0))),
        ("one_point_tf5", _spec(args.d, _TWO_PI * 5.0, (1.0,))),
    ]
    outputs, summary = [], {}
    for label, spec in cases:
        protocol = build_trajectory(spec)
        path = outdir / f"trajectory_{label}.csv"
        _write_trajectory_csv(protocol, path, 2001)
        outputs.append(path)
        _, x0, _, _ = protocol.sample(2001)
        rel = x0 / spec.d
        summary[label] = {
            "t_f": spec.t_f,
            "max_x0_over_d": float(np.max(rel)),
            "min_x0_over_d": float(np.min(rel)),
            "monotone": bool(np.all(np.diff(rel) >= -1e-12)),
        }
    return outputs, summary


def _reproduce_fig1b(args, outdir: Path):
    """Transient excitation during transport for 1, 2, 3 stacked frequencies."""
    tf0 = _TWO_PI * 1.25
    outputs, summary = [], {}
    for n in (1, 2, 3):
        protocol = build_trajectory(_spec(args.d, tf0, (1.0,) * n))
        result = classical_simulate(protocol, args.omega0)
        path = outdir / f"transient_{n}pt_tf1p25.csv"
        result.to_csv(path)
        outputs.append(path)
        q = result.quanta
        i = int(np.argmax(q))
        summary[f"{n}pt"] = {
            "peak_quanta": float(q[i]),
            "peak_time_over_tf": float(result.times[i] / protocol.dspec.t_f),
            "final_quanta": result.final_quanta,
        }
    return outputs, summary


def _reproduce_fig2(args, outdir: Path):
    """Band-averaged excitation vs frequency spacing, two transport times."""
    outputs = []
    summary = {"d": args.d, "eta": args.eta, "omega0": args.omega0}
    for tf_label, tf in (("tf1p25", _TWO_PI * 1.25), ("tf2p5", _TWO_PI * 2.5)):
        spec_base = _spec(args.d, tf, (1.0,))
        one_pt = lambda_metric(build_trajectory(spec_base), args.omega0, args.eta)
        block = {"lambda_one_point": one_pt}
        for kind in ("two_point", "three_point"):
            sweep = sweep_epsilon(kind, spec_base, args.omega0, args.eta)
            path = outdir / f"sweep_{kind}_{tf_label}.csv"
            sweep.to_csv(path)
            outputs.append(path)
            opt = optimize_epsilon(kind, spec_base, args.omega0, args.eta)
            block[kind] = opt.to_dict()
        from .optimizer import PlacementPattern
        from dataclasses import replace as _replace

        probe = PlacementPattern(kind="three_point", epsilon=0.03)
        lam_003 = lambda_metric(
            build_trajectory(_replace(spec_base, freqs=probe.frequencies(args.omega0))),
            args.omega0,
            args.eta,
        )
        block["lambda_three_point_at_eps_0p03"] = lam_003
        three = block["three_point"]
        block["headline"] = {
            "ratio_one_point_over_three_point_opt": one_pt / three["lambda_star"],
            "ratio_three_point_eps0_over_0p03": three["lambda_at_zero"] / lam_003,
            "ratio_three_point_0p03_over_eps0": lam_003 / three["lambda_at_zero"],
            "ratio_two_over_three_at_opt": block["two_point"]["lambda_star"]
            / three["lambda_star"],
        }
        summary[tf_label] = block
    longer = summary["tf2p5"]
    shorter = summary["tf1p25"]
    # entry-by-entry: each placement at the longer duration beats the same
    # placement at the shorter one
    pairs = [
        (longer["lambda_one_point"], shorter["lambda_one_point"]),
        (longer["lambda_three_point_at_eps_0p03"],
         shorter["lambda_three_point_at_eps_0p03"]),
    ]
    for kind in ("two_point", "three_point"):
        for field in ("lambda_at_zero", "lambda_star"):
            pairs.append((longer[kind][field], shorter[kind][field]))
    summary["longer_tf_always_better"] = bool(all(lo < hi for lo, hi in pairs))
    return outputs, summary


def cmd_reproduce(args) -> int:
    outdir = Path(args.outdir)
    outdir.mkdir(parents=True, exist_ok=True)
    runner = {
        "fig1a": _reproduce_fig1a,
        "fig1b": _reproduce_fig1b,
        "fig2": _reproduce_fig2,
    }[args.figure]
    outputs, summary = runner(args, outdir)
    spath = outdir / f"{args.figure}_summary.json"
    spath.write_text(json.dumps(summary, indent=2, sort_keys=True) + "\n")
    outputs.append(spath)
    manifest = _write_manifest(outdir, f"reproduce_{args.figure}", args, outputs)
    for p in outputs:
        print(f"wrote: {p}")
    print(f"manifest: {manifest}")
    return 0


# -- qverify ------------------------------------------------------------------


def cmd_qverify(args) -> int:
    t0 = time.perf_counter()
    protocol = load_protocol(args.protocol)
    d_stored = protocol.dspec.d
    if args.d_scale is not None:
        scale = 1.0 if protocol.spec.units is None else protocol.spec.units.length_scale
        protocol = rescaled(protocol, d=args.d_scale * scale)
    report = verification_report(protocol, args.omega, n_points=args.n, dt=args.dt)
    d_sim = report["d"]
    # the residual excitation scales exactly as d^2
    lift = (d_stored / d_sim) ** 2 if d_sim != 0.0 else None
    report["d_stored"] = d_stored
    report["d_lift"] = lift

    ok = report["fidelity_vs_analytic"] >= 1.0 - 1e-5
    rel = report["quantum_classical_rel_err"]
    if rel is not None and rel > 1e-3:
        ok = False
    report["pass"] = bool(ok)

    out = Path(args.out)
    out.parent.mkdir(parents=True, exist_ok=True)
    out.write_text(json.dumps(report, indent=2, sort_keys=True) + "\n")
    run = {
        "wall_s": time.perf_counter() - t0,
        "fft_pairs": report["fft_pairs"],
        "n_points": report["n_points"],
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
    }
    manifest = _write_manifest(out.parent, "qverify", args, [out], run=run)

    print(f"report: {out}")
    print(f"manifest: {manifest}")
    print(f"distance: simulated d = {d_sim!r}, stored d = {d_stored!r}, "
          f"lift (d_stored/d_sim)^2 = {lift!r}")
    print(f"grid: {report['n_points']} points, {report['fft_pairs']} FFT pairs at dt = {report['dt']!r}")
    print(f"final energy: {report['final_energy_quanta']!r} quanta at omega = {args.omega!r}")
    print(f"excitation: {report['delta_e_quanta']!r} quanta (classical {report['classical_delta_e_quanta']!r})")
    print(f"fidelity vs analytic: {report['fidelity_vs_analytic']!r}")
    print("PASS" if ok else "FAIL")
    return 0 if ok else 1


# -- parser -------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="sta-transport",
        description="Design and verify excitation-free harmonic transport protocols.",
    )
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("design", help="synthesize a protocol and write JSON + CSV")
    p.add_argument("--freqs", required=True, help="comma-separated design frequencies (units of omega_ref)")
    p.add_argument("--tf", type=float, required=True, help="transport duration")
    p.add_argument("--d", type=float, required=True, help="transport distance")
    p.add_argument("--units", choices=["dimensionless", "physical"], default="dimensionless")
    p.add_argument("--mass-amu", type=float, help="particle mass in atomic mass units (physical)")
    p.add_argument("--omega-hz", type=float, help="reference trap frequency in Hz (physical)")
    p.add_argument("--out", required=True, help="protocol JSON path")
    p.add_argument("--traj-out", help="trajectory CSV path (default: alongside --out)")
    p.add_argument("--samples", type=int, default=2001)
    p.set_defaults(func=cmd_design)

    p = sub.add_parser("evaluate", help="excitation spectrum and band average")
    p.add_argument("--protocol", required=True)
    p.add_argument("--omega-min", type=float, default=0.9)
    p.add_argument("--omega-max", type=float, default=1.1)
    p.add_argument("--points", type=int, default=401)
    p.add_argument("--out", required=True, help="spectrum CSV path")
    p.add_argument("--eta", type=float, help="print the band average at this half-width")
    p.add_argument("--omega0", type=float, default=1.0)
    p.add_argument("--transient", action="store_true", help="also integrate the classical transient")
    p.add_argument("--omega", type=float, default=1.0, help="probe frequency for --transient")
    p.add_argument("--transient-out")
    p.add_argument("--transient-steps", type=int)
    p.set_defaults(func=cmd_evaluate)

    p = sub.add_parser("reproduce", help="canned parameter studies")
    p.add_argument("figure", choices=["fig1a", "fig1b", "fig2"])
    p.add_argument("--outdir", required=True)
    p.add_argument("--d", type=float, default=30000.0)
    p.add_argument("--eta", type=float, default=0.02)
    p.add_argument("--omega0", type=float, default=1.0)
    p.set_defaults(func=cmd_reproduce)

    p = sub.add_parser("qverify", help="split-operator cross-check of a protocol")
    p.add_argument("--protocol", required=True)
    p.add_argument("--omega", type=float, default=1.0)
    p.add_argument("--d-scale", type=float, default=20.0,
                   help="rebuild at this distance in oscillator lengths before simulating")
    p.add_argument("--n", type=int, help="grid points, a power of two (default: sized from "
                   "the classical path)")
    p.add_argument("--dt", type=float, help="split-operator step (default: min(0.02, 0.02/omega), "
                   "shorter for fast transports)")
    p.add_argument("--out", required=True, help="report JSON path")
    p.set_defaults(func=cmd_qverify)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (SpecError, ConsistencyError, GridError, BoundaryLeakError) as err:
        print(f"error: {err}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
