"""Smoke runs of the scripts under scripts/, with small arguments."""

import importlib.util
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]


def _script(name):
    spec = importlib.util.spec_from_file_location(name, ROOT / "scripts" / f"{name}.py")
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


def test_size_report_prints_two_counts(capsys):
    assert _script("size_report").main([]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert len(lines) == 2
    assert all(line.rsplit(": ", 1)[1].isdigit() for line in lines)
