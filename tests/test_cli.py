"""Config document handling and the stage runner's file/exit-code contract."""

import io
import json
import os
import tempfile
import warnings
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mfequil import (
    ConfigError,
    ScenarioConfig,
    apply_overrides,
    config_from_dict,
    config_sha256,
    config_to_dict,
    load_config,
)
from mfequil import cli
from mfequil.cli import StageWriter, emit_plot_series, run
from mfequil.paths import format_float

CONFIGS = Path(__file__).resolve().parents[1] / "configs"
TINY = str(CONFIGS / "tiny.json")


# ------------------------------------------------------------- config model

@settings(max_examples=40, deadline=None)
@given(
    steps=st.integers(1, 40),
    alpha=st.floats(-3.0, 0.0, allow_nan=False),
    ridge=st.floats(1e-12, 1e-3, allow_nan=False),
    Ns=st.lists(st.integers(2, 1000), min_size=1, max_size=5, unique=True),
)
def test_config_roundtrips_through_json(steps, alpha, ridge, Ns):
    d = config_to_dict(ScenarioConfig())
    d["grid"]["steps"] = steps
    d["eqg"]["alpha"] = alpha
    d["bsde"]["ridge"] = ridge
    d["clearing"]["Ns"] = sorted(Ns)
    cfg = config_from_dict(d)
    assert config_to_dict(cfg) == d
    assert config_from_dict(json.loads(json.dumps(config_to_dict(cfg)))) == cfg
    assert config_sha256(cfg) == config_sha256(config_from_dict(config_to_dict(cfg)))


def test_sha_distinguishes_configs():
    base = config_from_dict(config_to_dict(ScenarioConfig()))
    d = config_to_dict(ScenarioConfig())
    d["eqg"]["b"] = d["eqg"]["b"] + 1e-9
    assert config_sha256(base) != config_sha256(config_from_dict(d))
    assert len(config_sha256(base)) == 64


def test_unknown_keys_are_rejected():
    d = config_to_dict(ScenarioConfig())
    d["typo_block"] = 1
    with pytest.raises(ConfigError):
        config_from_dict(d)
    d = config_to_dict(ScenarioConfig())
    d["mf"]["n_sweeps"] = 3
    with pytest.raises(ConfigError):
        config_from_dict(d)
    with pytest.raises(ConfigError):
        config_from_dict({"seed": {"nested": 1}})


def test_apply_overrides_dotted_paths():
    d = config_to_dict(ScenarioConfig())
    apply_overrides(d, ["mf.iters=3", "eqg.alpha=-1.5", "name=alt",
                        "bsde.include_idio=false", "clearing.Ns=[4,8]"])
    assert d["mf"]["iters"] == 3
    assert d["eqg"]["alpha"] == -1.5
    assert d["name"] == "alt"
    assert d["bsde"]["include_idio"] is False
    assert d["clearing"]["Ns"] == [4, 8]
    cfg = config_from_dict(d)
    assert cfg.clearing.Ns == (4, 8)


def test_apply_overrides_rejects_bad_paths():
    d = config_to_dict(ScenarioConfig())
    with pytest.raises(ConfigError):
        apply_overrides(d, ["mf.itters=3"])
    with pytest.raises(ConfigError):
        apply_overrides(d, ["nope.deep.key=1"])
    with pytest.raises(ConfigError):
        apply_overrides(d, ["justakey"])


def test_load_config_errors(tmp_path):
    with pytest.raises(ConfigError):
        load_config(str(tmp_path / "absent.json"))
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    with pytest.raises(ConfigError):
        load_config(str(bad))


def test_format_float_roundtrips():
    for v in (0.1, 1.0 / 3.0, 2.0**-40, -1.7976931348623157e308, 0.0):
        assert float(format_float(v)) == v


# ------------------------------------------------------------ stage writer

def test_stage_writer_csv_is_deterministic(tmp_path):
    w = StageWriter(str(tmp_path))
    w.csv("t.csv", ["a", "b"], [(1, 0.1), (2, 1.0 / 3.0)])
    text = (tmp_path / "t.csv").read_bytes().decode()
    assert text == "a,b\n1,0.10000000000000001\n2,0.33333333333333331\n"
    assert w.files == ["t.csv"]


def test_emit_plot_series_writes_sidecar(tmp_path):
    w = StageWriter(str(tmp_path))
    emit_plot_series(w, "demo", "N", "eps", ["N", "eps"], [(1, 0.5)],
                     extra={"slope": -1.0})
    side = json.loads((tmp_path / "plots" / "demo.json").read_text())
    assert side == {"x_label": "N", "y_label": "eps",
                    "columns": ["N", "eps"], "slope": -1.0}


def test_plain_writes_non_finite_floats_as_null():
    nan, inf = float("nan"), float("inf")
    got = cli._plain({"a": nan, "b": [inf, (np.float64(-inf), np.float32(nan))],
                      "c": np.array([[1.5, np.nan], [-np.inf, 2.0]]), "d": np.float64(0.25)})
    assert got == {"a": None, "b": [None, [None, None]], "c": [[1.5, None], [None, 2.0]],
                   "d": 0.25}


# --------------------------------------------------------------- runner

def _tree(root: Path) -> dict:
    out = {}
    for dirpath, _dirs, files in os.walk(root):
        for f in files:
            p = Path(dirpath) / f
            out[str(p.relative_to(root))] = p.read_bytes()
    return out


@pytest.fixture(scope="module")
def tiny_run(tmp_path_factory):
    out = tmp_path_factory.mktemp("tiny_all")
    rc = run(["all", "--config", TINY, "--out", str(out)])
    assert rc == 0
    return out


def test_manifest_lists_every_file(tiny_run):
    manifest = json.loads((tiny_run / "manifest.json").read_text())
    assert set(manifest["stages"]) == {
        "riccati", "equilibrium", "bsde", "mf-solve", "clearing", "invariance"
    }
    assert all(s["status"] == "pass" for s in manifest["stages"].values())
    assert manifest["files"] == sorted(_tree(tiny_run))
    assert manifest["config_sha256"] == config_sha256(load_config(TINY))
    assert "wall_clock_s" not in manifest
    assert manifest["overrides"] == []


def test_json_outputs_are_standard_json(tiny_run):
    """No NaN or Infinity token: a rate fit left undefined (tiny's Ns span
    less than 1.5 decades) is written as null."""
    def reject(token):
        raise ValueError(f"non-standard JSON constant {token}")

    for path in sorted(tiny_run.rglob("*.json")):
        json.loads(path.read_text(), parse_constant=reject)
    report = json.loads((tiny_run / "clearing.json").read_text())
    assert report["slope"] is None and report["bound_const"] is None


def test_mf_diagnostics_keys(tiny_run):
    """mf_diagnostics.json holds the smallness gates, the cloud's gamma
    statistics, the run's facts and, for tiny's additive liability, the
    closed-form y0 errors: these 20 keys and no other."""
    diag = json.loads((tiny_run / "mf_diagnostics.json").read_text())
    assert sorted(diag) == [
        "c_gamma", "c_gamma_spread", "changes", "converged", "f_cross_inf", "f_inf",
        "gamma_hat", "gamma_hi", "gamma_lo", "iterations", "radius", "ratios",
        "smallness_ok", "stability_ok", "status", "y0", "y0_closed", "y0_rel_err",
        "y_inf", "z_bmo",
    ]


def test_rerun_is_byte_identical(tiny_run, tmp_path):
    rc = run(["all", "--config", TINY, "--out", str(tmp_path)])
    assert rc == 0
    assert _tree(tiny_run) == _tree(tmp_path)


def test_bsde_clip_reaches_mean_field_and_clearing_solves(tiny_run, tmp_path):
    """bsde.clip bounds |z| in the driver of every solve, so at 1e-6 the
    mean-field premium and the clearing residuals both move."""
    for stage, name in (("mf-solve", "theta_mfg.csv"), ("clearing", "clearing.csv")):
        out = tmp_path / stage
        run([stage, "--config", TINY, "--out", str(out), "--set", "bsde.clip=1e-6"])
        assert (out / name).read_bytes() != (tiny_run / name).read_bytes()


def test_stage_prints_status_line(tmp_path, capsys):
    rc = run(["riccati", "--config", TINY, "--out", str(tmp_path)])
    assert rc == 0
    assert "riccati: pass" in capsys.readouterr().out


def test_seed_override_recorded_in_manifest(tmp_path):
    rc = run(["riccati", "--config", TINY, "--out", str(tmp_path), "--seed", "9"])
    assert rc == 0
    manifest = json.loads((tmp_path / "manifest.json").read_text())
    assert manifest["overrides"] == ["seed=9"]
    assert manifest["config_sha256"] != config_sha256(load_config(TINY))


def test_invalid_invocations_exit_2(tmp_path, capsys):
    assert run(["riccati", "--config", str(tmp_path / "none.json")]) == 2
    assert run(["riccati", "--config", TINY, "--set", "mf.bogus=1",
                "--out", str(tmp_path)]) == 2
    err = capsys.readouterr().err
    assert "config error" in err
    # a config file that still sets the idiosyncratic dimension names the key
    with_d = json.loads(Path(TINY).read_text())
    with_d["market"]["d"] = 1
    (tmp_path / "with_d.json").write_text(json.dumps(with_d))
    assert run(["riccati", "--config", str(tmp_path / "with_d.json"), "--out", str(tmp_path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error") and err.count("\n") == 1 and "['d']" in err, err
    # a block given a non-object value names the block
    no_grid = json.loads(Path(TINY).read_text()) | {"grid": None}
    (tmp_path / "no_grid.json").write_text(json.dumps(no_grid))
    assert run(["riccati", "--config", str(tmp_path / "no_grid.json"),
                "--out", str(tmp_path)]) == 2
    err = capsys.readouterr().err
    assert err == "config error: grid must be an object, got None\n", err
    # the fixed-point loops need a sweep, and finite positive tolerances and clip
    for bad in ["mf.iters=0", "bsde.picard_max=0", "bsde.picard_max=2.5", "mf.iters=true",
                "mf.tol=-1", "mf.tol=NaN", "bsde.picard_tol=0", "bsde.picard_tol=Infinity",
                "bsde.clip=-1", 'bsde.clip="50"',
                # ranges the engine constructors check, through build_scenario
                "grid.steps=0", "grid.horizon=-1", "bsde.degree=0", "bsde.ridge=-1",
                "market.sigma=[[1,0],[1,0]]", "market.sigma=[[1,2],[3]]",
                "population.gamma_probs=[0.5,0.6,0]",
                # ranges only the config layer checks
                "bsde.n_paths=0", "clearing.n_common=1", "clearing.Ns=[30,10]",
                "mf.n_equilibrium=-3", "mf.n_equilibrium=0", "mf.n_particles=0",
                "mf.c_gamma_override=-1",
                # standard errors need two common paths and two batches
                "mf.n_common=1", "clearing.n_batches=1",
                # there is one idiosyncratic coordinate, so no key sets it
                "market.d=1",
                # a block is an object and the name a string
                "population=5", "name=null",
                # sigma sigma^T overflows: one line, and no numpy warning
                "market.sigma=[[1e308,1e308],[1,1]]",
                # exp(G0) is integrable, and rho_pm real, only for a <= 0
                "eqg.a=0.1"]:
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert run(["riccati", "--config", TINY, "--set", bad,
                        "--out", str(tmp_path)]) == 2, bad
        err = capsys.readouterr().err
        assert err.startswith("config error") and err.count("\n") == 1, (bad, err)
        assert "Traceback" not in err


# every scalar number of tiny.json, and every block
NUMERIC_KEYS = [
    "grid", "market", "eqg", "population", "bsde", "mf", "clearing",
    "seed", "grid.horizon", "grid.steps",
    *(f"eqg.{k}" for k in ("alpha", "beta", "x0", "a", "b", "kappa", "cross_eps")),
    *(f"bsde.{k}" for k in ("n_paths", "degree", "ridge", "picard_max", "picard_tol", "clip")),
    *(f"mf.{k}" for k in ("n_common", "n_particles", "iters", "tol")),
    *(f"clearing.{k}" for k in ("n_common", "n_equilibrium", "n_batches", "slack",
                                "n_invariance_draws", "cond_cap")),
]


@settings(max_examples=200, deadline=None)
@given(
    key=st.sampled_from(NUMERIC_KEYS),
    value=st.one_of(st.integers(-3, 40), st.floats(), st.none(), st.booleans()),
)
def test_random_numeric_value_exits_cleanly(key, value):
    """Any value for any numeric key or block: exit 0, 1 or 2, no exception
    escapes, and a manifest whenever a stage ran.  The scenario is built
    before the first stage, so the cheap riccati stage exercises the whole
    config."""
    err = io.StringIO()
    with tempfile.TemporaryDirectory() as out, redirect_stderr(err), redirect_stdout(io.StringIO()):
        rc = run(["riccati", "--config", TINY, "--out", out,
                  "--set", f"{key}={json.dumps(value)}"])
        wrote_manifest = os.path.exists(os.path.join(out, "manifest.json"))
    assert rc in (0, 1, 2), (key, value, err.getvalue())
    assert "Traceback" not in err.getvalue(), (key, value, err.getvalue())
    assert wrote_manifest or rc == 2, (key, value)


def test_zero_standard_error_is_a_finite_gap(tmp_path, capsys):
    """At one step every path's exponent is the same, so the martingale
    check's standard error is 0: the run ends with a manifest of all six
    stages and a finite gap, and no traceback."""
    rc = run(["all", "--config", TINY, "--out", str(tmp_path), "--set", "grid.steps=1"])
    assert rc in (0, 1)
    assert "Traceback" not in capsys.readouterr().err
    manifest = json.loads((tmp_path / "manifest.json").read_text())
    assert set(manifest["stages"]) == set(cli.STAGES)
    eq = manifest["stages"]["equilibrium"]
    assert eq["martingale_se"] == 0.0 and np.isfinite(eq["martingale_gap"])


@pytest.mark.parametrize("override", ["eqg.alpha=1e3", "eqg.a=-1e6"])
def test_underflowed_growth_fails_the_martingale_gate(tmp_path, capsys, override):
    """Every path's growth exp(y0_T - y0_0) underflows to 0, so the gap is 1
    while the band, which grows with the exponent, is far above it: the
    stage fails on the mean growth, exits 1 and still writes its manifest."""
    rc = run(["equilibrium", "--config", TINY, "--out", str(tmp_path), "--set", override])
    assert rc == 1
    assert "Traceback" not in capsys.readouterr().err
    eq = json.loads((tmp_path / "manifest.json").read_text())["stages"]["equilibrium"]
    assert eq["status"] == "fail" and eq["martingale_gap"] == 1.0


def test_non_finite_riccati_coefficients_fail_the_stage(tmp_path):
    """eqg.b = 1e308 overflows B and C to inf in the closed form and the ODE
    oracle alike, so their difference is NaN: the sup-difference gate fails
    on it, and the manifest writes it as null.  The same overflow gives the
    invariance stage a non-finite mu and a NaN theta discrepancy, which its
    gate must not drop."""
    for stage_name, key in (("riccati", "sup_diff_vs_ode"), ("invariance", "max_theta_disc")):
        out = tmp_path / stage_name
        with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
            rc = run([stage_name, "--config", TINY, "--out", str(out), "--set", "eqg.b=1e308"])
        assert rc == 1, stage_name
        stage = json.loads((out / "manifest.json").read_text())["stages"][stage_name]
        assert stage["status"] == "fail" and stage[key] is None, stage_name


def test_value_error_in_stage_is_a_failed_stage(tmp_path, capsys, monkeypatch):
    def broken(sc, writer):
        raise ValueError("bad shape")

    monkeypatch.setitem(cli._STAGE_FN, "equilibrium", broken)
    rc = run(["all", "--config", TINY, "--out", str(tmp_path)])
    assert rc == 1
    assert "equilibrium: fail" in capsys.readouterr().out
    manifest = json.loads((tmp_path / "manifest.json").read_text())
    assert manifest["stages"]["equilibrium"] == {"status": "fail",
                                                 "error": "ValueError: bad shape"}
    assert manifest["stages"]["bsde"]["status"] == "pass"


def test_failed_stage_exits_1(tmp_path, capsys):
    rc = run(["mf-solve", "--config", TINY, "--out", str(tmp_path),
              "--set", "mf.iters=1", "--set", "mf.tol=1e-15"])
    assert rc == 1
    assert "mf-solve: fail" in capsys.readouterr().out
    manifest = json.loads((tmp_path / "manifest.json").read_text())
    assert manifest["stages"]["mf-solve"]["status"] == "fail"
    assert manifest["stages"]["mf-solve"]["converged"] is False
