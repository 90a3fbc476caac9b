"""How run.py counts a CLI stage as a passed or failed operation.

    python3 -m pytest bench/test_run.py
"""

import json

import pytest

import run


def _mf_diag(out, smallness_ok=True, ratios=(0.0, 0.5, 0.4)):
    (out / "mf_diagnostics.json").write_text(
        json.dumps({"smallness_ok": smallness_ok, "ratios": list(ratios)}))


@pytest.mark.parametrize("additive", [True, False])
@pytest.mark.parametrize("stage", run.STAGES)
def test_missing_or_raising_stage_fails(tmp_path, stage, additive):
    _mf_diag(tmp_path)
    assert not run._stage_ok(stage, {}, additive, tmp_path)
    error = {"status": "fail", "error": "MfequilError: boom"}
    assert not run._stage_ok(stage, error, additive, tmp_path)


def test_status_decides_outside_the_seed_dependent_gates(tmp_path):
    for stage in ("riccati", "equilibrium", "invariance"):
        assert run._stage_ok(stage, {"status": "pass"}, True, tmp_path)
        assert not run._stage_ok(stage, {"status": "fail"}, True, tmp_path)
    for stage in ("bsde", "mf-solve", "clearing"):
        ok = {"status": "pass", "converged": True, "clip_count": 0, "eps": [1e-7]}
        assert run._stage_ok(stage, ok, False, tmp_path)
        assert not run._stage_ok(stage, ok | {"status": "fail"}, False, tmp_path)


def test_additive_bsde_fails_on_divergence_or_clipping_only(tmp_path):
    y0_miss = {"status": "fail", "converged": True, "clip_count": 0, "y0_rel_err": 0.06}
    assert run._stage_ok("bsde", y0_miss, True, tmp_path)
    assert not run._stage_ok("bsde", y0_miss | {"converged": False}, True, tmp_path)
    assert not run._stage_ok("bsde", y0_miss | {"clip_count": 3}, True, tmp_path)


def test_additive_mf_solve_fails_on_divergence_or_growing_ratio(tmp_path):
    y0_miss = {"status": "fail", "converged": True}
    assert not run._stage_ok("mf-solve", y0_miss, True, tmp_path)  # no diagnostics file
    _mf_diag(tmp_path)
    assert run._stage_ok("mf-solve", y0_miss, True, tmp_path)
    assert not run._stage_ok("mf-solve", y0_miss | {"converged": False}, True, tmp_path)
    _mf_diag(tmp_path, ratios=(0.0, 0.5, 1.0))
    assert not run._stage_ok("mf-solve", y0_miss, True, tmp_path)
    _mf_diag(tmp_path, smallness_ok=False, ratios=(0.0, 0.5, 1.0))
    assert run._stage_ok("mf-solve", y0_miss, True, tmp_path)


def test_additive_clearing_fails_on_non_finite_eps_only(tmp_path):
    floor_miss = {"status": "fail", "slope": float("nan"), "eps": [6.7e-7, 1.9e-7, 7.1e-8]}
    assert run._stage_ok("clearing", floor_miss, True, tmp_path)
    assert not run._stage_ok("clearing", floor_miss | {"eps": [6.7e-7, float("nan")]},
                             True, tmp_path)
    assert not run._stage_ok("clearing", floor_miss | {"eps": []}, True, tmp_path)
