"""The example scripts under scripts/ run end to end."""

import importlib.util
from pathlib import Path

SCRIPTS = Path(__file__).resolve().parents[1] / "scripts"


def _load(name: str):
    spec = importlib.util.spec_from_file_location(name, SCRIPTS / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_spectrum_study_writes_curves(tmp_path, capsys):
    _load("spectrum_study").main(tmp_path)
    for n in (1, 2, 3):
        assert (tmp_path / f"spectrum_n{n}.csv").is_file()
        assert (tmp_path / f"trajectory_n{n}.csv").is_file()
    assert "(expect 6)" in capsys.readouterr().out


def test_ion_transport_si_runs(capsys):
    _load("ion_transport_si").main()
    out = capsys.readouterr().out
    assert "split-operator check at d = 30" in out
    assert "lifted to full distance" in out
