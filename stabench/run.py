"""Benchmark command for statransport.

    python3 stabench/run.py --workload robust_design --seed 1 --seconds 25 --trace 0

Runs one workload closed-loop from a single client: each operation starts
when the previous one has returned and has been checked.  Operations come
in whole seeded rounds (see workloads.py) until their summed wall time
reaches --seconds.  Checks run outside the timed region.

--trace 0 prints the end-to-end metrics: setup_s, the median over fresh
interpreters of start to ready (imports, inputs, one warm-up operation);
ops_per_s; op_p50_ms, the median wall time per operation; op_cpu_ms, the
median process CPU time per operation; op_tail_ms, the highest percentile
of that CPU time with at least ten samples beyond it; and peak_rss_mb.
Times are scaled to a reference machine speed (see Speed).

--trace 1 runs each operation twice on the same inputs, untraced and with
spans around every public function of the package, in alternating order,
then traces one `sta-transport` run each of design, evaluate, qverify and
reproduce fig2.  It prints the per-layer metrics of layertrace.py (raw
times), the cli wall times and trace.overhead_ratio (traced over untraced
operation time), and writes calls and time per traced function to
stabench/results/trace_<workload>_seed<seed>.json.

The last line of standard output is one JSON object: correct, attempted,
failed and metrics.  The package is imported from src/ next to this
directory; without it the command exits 1 and prints no result.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import resource
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
SRC = BENCH_DIR.parent / "src"
SETUP_PROBES = 3
TAIL_BEYOND = 10
CALIBRATE_EVERY_S = 0.25
WORKLOAD_NAMES = ("robust_design", "design_scan", "oracle_verify")


def _import_package():
    """Import statransport from this checkout's src/, and nowhere else."""
    if not (SRC / "statransport" / "__init__.py").is_file():
        sys.exit(f"run.py: no statransport sources in {SRC}; run from a checkout of the repository")
    sys.path.insert(0, str(SRC))
    import statransport

    if Path(statransport.__file__).resolve().parent != (SRC / "statransport").resolve():
        sys.exit(f"run.py: statransport was imported from {statransport.__file__}, not {SRC}")
    import workloads

    return workloads


def _setup_probe(workload: str, seed: int) -> None:
    """Child side of setup_s: get ready for the first timed operation, then say so."""
    workloads = _import_package()
    next(workloads.rounds(workload, seed))
    workloads.fill_moment_tables()
    with tempfile.TemporaryDirectory(dir=BENCH_DIR, prefix="work-") as work:
        workloads.WORKLOADS[workload].op(workloads.warmup_input(workload), Path(work))
    print("ready", flush=True)


class Speed:
    """Wall and CPU time of a workload's calibration loop, sampled through a run.

    The host's speed drifts: within minutes the median operation time of one
    workload moved by a fifth, and the loop's time moved with it.  Every time
    metric is therefore scaled to the loop's reference time, time *
    reference / median(loop time), and reads as the time at the reference
    speed.
    """

    def __init__(self, wl):
        self.loop, self.reference = wl.calibration_loop, wl.reference_loop_s
        self.wall: list[float] = []
        self.cpu: list[float] = []

    def sample(self) -> None:
        c0 = time.process_time()
        t0 = time.perf_counter()
        self.loop()
        self.wall.append(time.perf_counter() - t0)
        self.cpu.append(time.process_time() - c0)

    def wall_scale(self) -> float:
        return statistics.median(self.wall) / self.reference

    def cpu_scale(self) -> float:
        return statistics.median(self.cpu) / self.reference


def measure_setup(wl, seed: int) -> float:
    times, speed = [], Speed(wl)
    for _ in range(SETUP_PROBES):
        for _ in range(5):
            speed.sample()
        cmd = [sys.executable, str(BENCH_DIR / "run.py"), "--setup-probe",
               "--workload", wl.name, "--seed", str(seed)]
        t0 = time.perf_counter()
        with subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True) as child:
            line = child.stdout.readline()
            times.append(time.perf_counter() - t0)
            child.stdout.read()
            code = child.wait(timeout=120)
        if line.strip() != "ready" or code != 0:
            sys.exit(f"run.py: setup probe exited with {code} before it was ready")
    return statistics.median(times) / speed.wall_scale()


class Tally:
    """Per-operation wall and CPU times, the outcome of each check, and the
    host's speed, sampled between operations every CALIBRATE_EVERY_S."""

    def __init__(self, wl):
        self.wall: list[float] = []
        self.cpu: list[float] = []
        self.failed = 0
        self.wrong: list[str] = []
        self.speed = Speed(wl)
        self._since_speed = CALIBRATE_EVERY_S

    def before_op(self) -> None:
        if self._since_speed >= CALIBRATE_EVERY_S:
            self.speed.sample()
            self._since_speed = 0.0

    def add(self, wall: float, cpu: float, status: str, why: str) -> None:
        self._since_speed += wall
        self.wall.append(wall)
        self.cpu.append(cpu)
        if status == "failed":
            self.failed += 1
        elif status != "ok":
            self.wrong.append(why)


def run_ops(wl, inputs, workdir: Path, tally: Tally) -> None:
    for inp in inputs:
        tally.before_op()
        c0 = time.process_time()
        t0 = time.perf_counter()
        try:
            out = wl.op(inp, workdir)
        except Exception as err:  # an operation that raises is a wrong result
            out, error = None, f"{type(err).__name__}: {err}"
        else:
            error = None
        t1 = time.perf_counter()
        c1 = time.process_time()
        status, why = ("wrong", error) if error else wl.check(inp, out)
        tally.add(t1 - t0, c1 - c0, status, f"{inp}: {why}")


def timed_rounds(wl, rounds, seconds: float, workdir: Path, tally: Tally) -> list:
    """Whole rounds until the operations' summed wall time reaches seconds."""
    done = []
    while sum(tally.wall) < seconds:
        batch = next(rounds)
        run_ops(wl, batch, workdir, tally)
        done.append(batch)
    return done


def end_to_end(tally: Tally, setup_s: float) -> dict:
    """The --trace 0 metrics; times are scaled to the reference speed (see Speed)."""
    wall_ms = 1e3 / tally.speed.wall_scale()
    cpu_ms = 1e3 / tally.speed.cpu_scale()
    # The tail is taken over CPU time: the host of a small VM steals CPU in
    # 10-40 ms bursts, which lands on the top 2% of wall times at random.
    cpu = sorted(tally.cpu)
    tail = len(cpu) - 1 - TAIL_BEYOND  # a run too short for a tail reports its maximum
    return {
        "setup_s": (setup_s, "s"),
        "ops_per_s": (1e3 * len(tally.wall) / sum(tally.wall) / wall_ms, "ops/s"),
        "op_p50_ms": (wall_ms * statistics.median(tally.wall), "ms"),
        "op_tail_ms": (cpu_ms * cpu[tail if tail >= 0 else -1], "ms"),
        "op_cpu_ms": (cpu_ms * statistics.median(cpu), "ms"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
    }


CLI_RUNS = (
    ("cli.design_s", ["design", "--freqs", "1,1,1", "--tf", "7.853981633974483", "--d", "30000",
                      "--out", "{out}/proto.json"]),
    ("cli.evaluate_s", ["evaluate", "--protocol", "{out}/proto.json", "--eta", "0.02",
                        "--out", "{out}/curve.csv"]),
    ("cli.qverify_s", ["qverify", "--protocol", "{out}/proto.json", "--omega", "1.02",
                       "--out", "{out}/report.json"]),
    ("cli.reproduce_fig2_s", ["reproduce", "fig2", "--outdir", "{out}/fig2"]),
)


def traced_run(wl, rounds, seconds: float, workdir: Path, summary_path: Path) -> tuple:
    """Each operation runs untraced and traced, in alternating order, until the
    untraced copies reach seconds / 2; then the cli runs, traced."""
    from layertrace import LayerTrace, layer_metrics, span_summary
    from statransport import cli

    plain, traced = Tally(wl), Tally(wl)
    trace = LayerTrace()
    while sum(plain.wall) < seconds / 2:
        for i, inp in enumerate(next(rounds)):
            for tracing in ((False, True) if i % 2 == 0 else (True, False)):
                with trace if tracing else contextlib.nullcontext():
                    run_ops(wl, [inp], workdir, traced if tracing else plain)
    n_op_spans = len(trace.spans)
    cli_times = {}
    with trace:
        for name, argv in CLI_RUNS:
            args = [a.format(out=workdir) for a in argv]
            t0 = time.perf_counter()
            with contextlib.redirect_stdout(io.StringIO()):
                code = cli.main(args)
            cli_times[name] = (time.perf_counter() - t0, "s")
            if code != 0:
                traced.wrong.append(f"sta-transport {' '.join(args)} exited with {code}")
    op_spans, cli_spans = trace.spans[:n_op_spans], trace.spans[n_op_spans:]
    metrics = layer_metrics(op_spans, len(traced.wall), cli_spans)
    metrics.update(cli_times)
    metrics["trace.overhead_ratio"] = (sum(traced.wall) / sum(plain.wall), "ratio")
    summary_path.parent.mkdir(exist_ok=True)
    summary_path.write_text(json.dumps({
        "operations": len(traced.wall),
        "operation_spans": span_summary(op_spans),
        "cli_spans": span_summary(cli_spans),
    }, indent=1, sort_keys=True) + "\n")
    return metrics, [plain, traced]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    if args.setup_probe:
        _setup_probe(args.workload, args.seed)
        return 0

    workloads = _import_package()
    wl = workloads.WORKLOADS[args.workload]
    setup_s = None if args.trace else measure_setup(wl, args.seed)
    rounds = workloads.rounds(args.workload, args.seed)
    with tempfile.TemporaryDirectory(dir=BENCH_DIR, prefix="work-") as work:
        workdir = Path(work)
        workloads.fill_moment_tables()
        wl.op(workloads.warmup_input(args.workload), workdir)
        if args.trace:
            summary = BENCH_DIR / "results" / f"trace_{args.workload}_seed{args.seed}.json"
            metrics, tallies = traced_run(wl, rounds, args.seconds, workdir, summary)
        else:
            tally = Tally(wl)
            timed_rounds(wl, rounds, args.seconds, workdir, tally)
            metrics, tallies = end_to_end(tally, setup_s), [tally]

    wrong = [w for t in tallies for w in t.wrong]
    for why in wrong[:20]:
        print(f"wrong: {why}", file=sys.stderr)
    result = {
        "correct": not wrong,
        "attempted": sum(len(t.wall) for t in tallies),
        "failed": sum(t.failed for t in tallies),
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
