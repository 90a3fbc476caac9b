"""Smoke runs of the scripts under scripts/, with small arguments, and of the
library calls the benchmark's worker makes."""

import importlib.util
from pathlib import Path

import numpy as np
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


def test_output_diff_reads_each_numeric_column(tmp_path, capsys):
    """output_diff.py names each changed numeric column of the files that
    differ, with its largest change over the column's max |base value|: a
    CSV column by its header, a JSON column by its key path with list
    indices dropped, an all-zero column by its absolute change.  Unchanged
    files and columns, and text columns, print nothing; a file in one tree
    only, and one that is neither CSV nor JSON, are named."""
    base, head = tmp_path / "base", tmp_path / "head"
    for tree in (base, head):
        (tree / "run").mkdir(parents=True)
        (tree / "same.csv").write_text("a,b\n1,2\n")
    (base / "run" / "eps.csv").write_text("N,eps,label\n10,4.0,x\n100,0.5,y\n")
    (head / "run" / "eps.csv").write_text("N,eps,label\n10,4.0,x\n100,0.5000001,z\n")
    (base / "run" / "report.json").write_text(
        '{"eps": [2.0, 1.0], "stage": {"y0": 0.0, "ok": true}, "tag": "a"}')
    (head / "run" / "report.json").write_text(
        '{"eps": [2.0, 1.5], "stage": {"y0": 1e-20, "ok": false}, "tag": "b"}')
    (base / "exit_code").write_text("0\n")
    (head / "exit_code").write_text("1\n")
    (base / "gone.csv").write_text("a\n1\n")
    assert _script("output_diff").main([str(base), str(head)]) == 0
    assert capsys.readouterr().out.splitlines() == [
        "gone.csv: only in BASE",
        "exit_code: differs, no column-wise comparison",
        "run/eps.csv\teps\t2.5e-08 relative",
        "run/report.json\teps[]\t0.25 relative",
        "run/report.json\tstage.y0\t1e-20 absolute",
    ]


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


def test_benchmark_audit_job_passes_its_checks(tmp_path):
    """bench/worker.py's full audit job, every library solve and the strategy
    audit, then bench/run.py's checks of it on its dump of the common
    increments: every operation succeeds and every gating check passes, so
    a broken benchmark contract fails here, not only in a benchmark run."""
    worker = _script("worker", folder="bench")
    run_py = _script("run", folder="bench")
    dump = tmp_path / "dW0.npy"
    result = worker._audit_job({"seed": 0, "probe": False, "dump": str(dump)}, {})
    ops = result["ops"]
    assert set(ops) == {"p_theta0", "p_theta", "q_theta", "p_2f", "verify"}
    assert all(op["ok"] for op in ops.values()), ops

    class Checks:
        def __init__(self):
            self.checks, self.notes = [], []

        def check(self, label, outcome):
            self.checks.append((label, bool(outcome[0]), outcome[1]))

        def note(self, label, outcome):
            self.notes.append((label, bool(outcome[0]), outcome[1]))

    run = Checks()
    run_py._check_audit(run, ops, np.load(dump))
    assert [label for label, _, _ in run.checks] == [
        "agent_audit/p_theta0", "agent_audit/p_theta", "agent_audit/q_theta", "agent_audit/verify"]
    assert all(ok for _, ok, _ in run.checks), run.checks
