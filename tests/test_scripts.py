"""Smoke runs of the scripts under scripts/, with small arguments, and of the
library calls the benchmark's worker makes."""

import importlib.util
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]


def _script(name, folder="scripts"):
    spec = importlib.util.spec_from_file_location(name, ROOT / folder / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.mark.parametrize("name, argv, rc", [
    ("compare_closed_form",
     ["--config", str(ROOT / "configs/tiny.json"), "--paths", "512", "--steps", "5", "10"], 0),
    ("contraction_sweep", ["--config", str(ROOT / "configs/mf_small.json"), "--scales", "1"], 0),
])
def test_script_runs(name, argv, rc, capsys):
    assert _script(name).main(argv) == rc
    out = capsys.readouterr().out
    assert out.startswith("scenario ")


def test_size_report_prints_three_counts(capsys):
    assert _script("size_report").main([]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert len(lines) == 3
    assert all(line.rsplit(": ", 1)[1].isdigit() for line in lines)


def test_benchmark_worker_builds_its_library_objects(tmp_path):
    """bench/worker.py's audit builds its markets (with d=1 and declared
    bounds), specs, grids, basis and perturbations up to its first solve,
    where a probe stops; its CLI job patches cli._STAGE_FN, one entry per
    stage.  A signature change in any of these fails here, not only in a
    benchmark run."""
    from mfequil import cli

    worker = _script("worker", folder="bench")
    with pytest.raises(worker.SetupDone):
        worker._audit_job({"seed": 0, "probe": True, "dump": str(tmp_path / "dW0.npy")}, {})
    assert set(cli._STAGE_FN) == set(cli.STAGES)
