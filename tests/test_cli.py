import json

import numpy as np
import pytest

from statransport.cli import main
from statransport.designer import load_protocol


def _design(tmp_path, extra=()):
    out = tmp_path / "protocol.json"
    argv = [
        "design", "--freqs", "0.98,1.02", "--tf", "3.0", "--d", "1.0",
        "--out", str(out),
    ] + list(extra)
    assert main(argv) == 0
    return out


def test_design_writes_protocol_csv_and_manifest(tmp_path, capsys):
    out = _design(tmp_path, extra=["--samples", "101"])
    captured = capsys.readouterr().out
    assert "protocol:" in captured

    p = load_protocol(out)
    assert p.spec.freqs == (0.98, 1.02)

    traj = tmp_path / "protocol_trajectory.csv"
    rows = np.loadtxt(traj, delimiter=",", skiprows=1)
    assert rows.shape == (101, 4)
    assert rows[0, 1] == pytest.approx(0.0, abs=1e-12)
    assert rows[-1, 1] == pytest.approx(1.0, rel=1e-9)

    manifest = json.loads((tmp_path / "design_manifest.json").read_text())
    assert manifest["command"] == "design"
    assert "protocol.json" in " ".join(manifest["outputs"])


def test_design_physical_units(tmp_path):
    out = tmp_path / "ion.json"
    argv = [
        "design", "--freqs", "1.0", "--tf", "8.87e-7", "--d", "4.02e-4",
        "--units", "physical", "--mass-amu", "39.9626", "--omega-hz", "1.41e6",
        "--out", str(out),
    ]
    assert main(argv) == 0
    data = json.loads(out.read_text())
    assert data["unit_mode"] == "physical"
    p = load_protocol(out)
    assert p.dspec.d == pytest.approx(30000.0, rel=0.01)


def test_design_physical_requires_mass_and_frequency(tmp_path):
    argv = [
        "design", "--freqs", "1.0", "--tf", "1.0", "--d", "1.0",
        "--units", "physical", "--out", str(tmp_path / "x.json"),
    ]
    assert main(argv) == 2


def test_design_rejects_bad_freqs(tmp_path):
    argv = [
        "design", "--freqs", "1.0,-2.0", "--tf", "3.0", "--d", "1.0",
        "--out", str(tmp_path / "x.json"),
    ]
    assert main(argv) == 2


def test_evaluate_spectrum_and_band_average(tmp_path, capsys):
    proto = _design(tmp_path)
    spec_csv = tmp_path / "spectrum.csv"
    argv = [
        "evaluate", "--protocol", str(proto), "--out", str(spec_csv),
        "--points", "21", "--eta", "0.02", "--transient",
    ]
    assert main(argv) == 0
    captured = capsys.readouterr().out
    assert "lambda(" in captured

    rows = np.loadtxt(spec_csv, delimiter=",", skiprows=1)
    assert rows.shape == (21, 2)
    assert np.all(rows[:, 1] >= 0.0)

    transient = np.loadtxt(tmp_path / "spectrum_transient.csv", delimiter=",", skiprows=1)
    assert transient[0, 1] == 0.0

    manifest = json.loads((tmp_path / "evaluate_manifest.json").read_text())
    assert len(manifest["outputs"]) == 2


def test_evaluate_validates_band(tmp_path):
    proto = _design(tmp_path)
    argv = [
        "evaluate", "--protocol", str(proto), "--out", str(tmp_path / "s.csv"),
        "--omega-min", "1.5", "--omega-max", "0.5",
    ]
    assert main(argv) == 2


def test_reproduce_trajectory_study(tmp_path):
    outdir = tmp_path / "fig1a"
    assert main(["reproduce", "fig1a", "--outdir", str(outdir), "--d", "1.0"]) == 0
    summary = json.loads((outdir / "fig1a_summary.json").read_text())
    three = summary["three_point_tf1p25"]
    assert three["max_x0_over_d"] > 1.0
    assert three["monotone"] is False
    slow = summary["one_point_tf5"]
    assert slow["max_x0_over_d"] <= 1.0 + 1e-9
    # every advertised output really exists
    manifest = json.loads((outdir / "reproduce_fig1a_manifest.json").read_text())
    for name in manifest["outputs"]:
        assert (outdir / name).exists()


def test_qverify_roundtrip(tmp_path, capsys):
    proto = _design(tmp_path)
    report_path = tmp_path / "report.json"
    argv = [
        "qverify", "--protocol", str(proto), "--omega", "1.05",
        "--d-scale", "8.0", "--n", "1024", "--out", str(report_path),
    ]
    assert main(argv) == 0
    captured = capsys.readouterr().out
    assert "PASS" in captured
    report = json.loads(report_path.read_text())
    assert report["pass"] is True
    assert report["fidelity_vs_analytic"] >= 1.0 - 1e-5


def test_qverify_defaults_report_distance_and_run(tmp_path, capsys):
    proto = _design(tmp_path)
    report_path = tmp_path / "report.json"
    argv = [
        "qverify", "--protocol", str(proto), "--omega", "1.05",
        "--d-scale", "8.0", "--out", str(report_path),
    ]
    assert main(argv) == 0
    captured = capsys.readouterr().out
    assert "simulated d = 8.0, stored d = 1.0" in captured
    report = json.loads(report_path.read_text())
    assert report["d"] == 8.0
    assert report["d_stored"] == 1.0
    assert report["d_lift"] == pytest.approx(1.0 / 64.0)
    assert report["dt"] <= 0.02 / 1.05
    manifest = json.loads((tmp_path / "qverify_manifest.json").read_text())
    assert manifest["params"]["n"] is None and manifest["params"]["dt"] is None
    run = manifest["run"]
    assert run["fft_pairs"] == report["fft_pairs"] > 0
    assert run["n_points"] == report["n_points"]
    assert run["wall_s"] > 0.0
    assert {"python", "numpy", "scipy"} <= set(run)


def test_version_flag():
    with pytest.raises(SystemExit) as exc:
        main(["--version"])
    assert exc.value.code == 0
