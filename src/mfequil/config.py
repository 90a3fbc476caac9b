"""Scenario configuration: one JSON-compatible document per run.

Every knob of a run lives in a single nested dataclass that round-trips
through JSON exactly (parse -> serialize -> parse is the identity), so a
run is reproducible from its config hash alone.  Dotted-path overrides
(``--set mf.iters=20``) are applied to the parsed document before
validation; values are JSON literals with a bare-string fallback.  A run
builds its engine objects once, with `build_scenario`.
"""

from __future__ import annotations

import hashlib
import json
import math
import sys
from dataclasses import dataclass, fields, is_dataclass
from operator import attrgetter

import numpy as np

from .clearing import DiscreteDist
from .errors import ConfigError, MfequilError
from .liabilities import LiabilitySpec
from .market import MarketSpec, TimeGrid
from .regression import RegressionBasis
from .riccati import EqgSpec


@dataclass(frozen=True)
class GridConfig:
    horizon: float = 0.5
    steps: int = 20


@dataclass(frozen=True)
class MarketConfig:
    """Constant volatility matrix, one row per security."""

    sigma: tuple = ((1.0, 0.2), (0.3, 0.9))


@dataclass(frozen=True)
class EqgConfig:
    """Factor dynamics and liability coefficients.

    cross_eps > 0 adds the common-idiosyncratic interaction that makes
    individual positions nonzero; kappa adds the additive idiosyncratic leg.
    """

    alpha: float = -0.5
    beta: float = 0.1
    delta: tuple = (0.4, 0.1)
    x0: float = 0.3
    a: float = -0.2
    b: float = 0.1
    kappa: float = 0.0
    cross_eps: float = 0.0


@dataclass(frozen=True)
class PopulationConfig:
    gamma_values: tuple = (1.0, 2.0, 4.0)
    gamma_probs: tuple | None = None


@dataclass(frozen=True)
class BsdeConfig:
    n_paths: int = 4096
    degree: int = 2
    ridge: float = 1e-8
    include_idio: bool = True
    picard_max: int = 20
    picard_tol: float = 1e-4
    clip: float = 50.0


@dataclass(frozen=True)
class MfConfig:
    n_common: int = 128
    iters: int = 10
    tol: float = 1e-4


@dataclass(frozen=True)
class ClearingConfig:
    Ns: tuple = (10, 30, 100, 300, 1000)
    n_common: int = 200
    n_batches: int = 20
    slack: float = 0.25
    n_invariance_draws: int = 100
    cond_cap: float = 50.0


@dataclass(frozen=True)
class ScenarioConfig:
    name: str = "scenario"
    seed: int = 12345
    grid: GridConfig = GridConfig()
    market: MarketConfig = MarketConfig()
    eqg: EqgConfig = EqgConfig()
    population: PopulationConfig = PopulationConfig()
    bsde: BsdeConfig = BsdeConfig()
    mf: MfConfig = MfConfig()
    clearing: ClearingConfig = ClearingConfig()


_TUPLE_FIELDS = {"sigma", "delta", "gamma_values", "gamma_probs", "Ns"}


def config_to_dict(obj):
    """The plain JSON document of a config, or of any value in one."""
    if is_dataclass(obj):
        return {f.name: config_to_dict(getattr(obj, f.name)) for f in fields(obj)}
    if isinstance(obj, (tuple, list)):
        return [config_to_dict(v) for v in obj]
    return obj


def _coerce(cls, data: dict):
    if not isinstance(data, dict):
        raise ConfigError(f"expected an object for {cls.__name__}, got {type(data).__name__}")
    known = {f.name: f for f in fields(cls)}
    unknown = set(data) - set(known)
    if unknown:
        raise ConfigError(f"unknown key(s) {sorted(unknown)} in {cls.__name__}")
    kwargs = {}
    for name, value in data.items():
        block = known[name].default
        if is_dataclass(block):
            if not isinstance(value, dict):
                raise ConfigError(f"{name} must be an object, got {value!r}")
            kwargs[name] = _coerce(type(block), value)
        elif isinstance(value, dict):
            raise ConfigError(f"unexpected object for scalar key {name!r}")
        elif isinstance(value, list):
            if name == "sigma":
                if not all(isinstance(row, list) and all(map(_real, row)) for row in value):
                    raise ConfigError(f"market.sigma must be rows of finite numbers, got {value!r}")
                kwargs[name] = tuple(tuple(float(x) for x in row) for row in value)
            elif name in _TUPLE_FIELDS:
                kwargs[name] = tuple(value)
            else:
                raise ConfigError(f"unexpected list for key {name!r}")
        else:
            kwargs[name] = value
    try:
        return cls(**kwargs)
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"invalid {cls.__name__}: {exc}") from exc


def _int(v, lo=-math.inf) -> bool:
    return isinstance(v, int) and not isinstance(v, bool) and v >= lo


def _real(v) -> bool:
    """A finite number a float can hold (not a bool)."""
    return isinstance(v, (int, float)) and not isinstance(v, bool) and abs(v) <= sys.float_info.max


def _reals(v) -> bool:
    return isinstance(v, tuple) and all(map(_real, v))


# (keys, test of (value, cfg), what the value must be) for the ranges that no
# engine constructor checks; build_scenario triggers those (TimeGrid, MarketSpec
# and its eigenvalue bounds, EqgSpec, RegressionBasis and DiscreteDist).
_RANGES = (
    (("name",), lambda v, c: isinstance(v, str), "a string"),
    (("seed", "grid.steps", "bsde.degree"), lambda v, c: _int(v), "an integer"),
    (("bsde.n_paths", "bsde.picard_max", "mf.iters", "clearing.n_invariance_draws"),
     lambda v, c: _int(v, 1), "an integer >= 1"),
    # standard errors need two common paths and two batches
    (("mf.n_common", "clearing.n_common", "clearing.n_batches"), lambda v, c: _int(v, 2),
     "an integer >= 2"),
    (("clearing.Ns",), lambda v, c: isinstance(v, tuple) and len(v) >= 1 and _int(v[0], 1)
     and all(_int(b) and a < b for a, b in zip(v, v[1:])),
     "a non-empty strictly increasing list of positive integers"),
    (("grid.horizon", "eqg.alpha", "eqg.beta", "eqg.x0", "eqg.a", "eqg.b", "eqg.kappa",
      "eqg.cross_eps", "bsde.ridge", "clearing.slack"), lambda v, c: _real(v), "a finite number"),
    (("bsde.picard_tol", "bsde.clip", "mf.tol"), lambda v, c: _real(v) and v > 0,
     "finite and > 0"),
    (("clearing.cond_cap",), lambda v, c: _real(v) and v >= 1, "finite and >= 1"),
    (("bsde.include_idio",), lambda v, c: isinstance(v, bool), "true or false"),
    (("market.sigma",), lambda v, c: isinstance(v, tuple) and len(v) >= 1, "a non-empty list"),
    (("eqg.delta",), lambda v, c: _reals(v) and len(v) == len(c.market.sigma[0]),
     "one finite number per column of market.sigma"),
    (("population.gamma_values",), lambda v, c: _reals(v) and len(v) >= 1 and min(v) > 0,
     "a non-empty list of finite numbers > 0"),
    (("population.gamma_probs",), lambda v, c: v is None or _reals(v),
     "null or a list of finite numbers"),
)


def config_from_dict(data: dict) -> ScenarioConfig:
    cfg = _coerce(ScenarioConfig, data)
    for keys, ok, what in _RANGES:
        for key in keys:
            v = attrgetter(key)(cfg)
            if not ok(v, cfg):
                raise ConfigError(f"{key} must be {what}, got {v!r}")
    return cfg


def load_config(path: str) -> ScenarioConfig:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            data = json.load(fh)
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config {path} is not valid JSON: {exc}") from exc
    return config_from_dict(data)


def apply_overrides(data: dict, overrides: list[str]) -> dict:
    """Apply dotted key=value pairs to a plain config dict (in place)."""
    for item in overrides:
        if "=" not in item:
            raise ConfigError(f"override {item!r} is not of the form key=value")
        key, raw = item.split("=", 1)
        try:
            value = json.loads(raw)
        except json.JSONDecodeError:
            value = raw
        *path, last = key.split(".")
        node = data
        for part in path:
            node = node.get(part) if isinstance(node, dict) else None
        if not isinstance(node, dict) or last not in node:
            raise ConfigError(f"override path {key!r} does not exist")
        node[last] = value
    return data


def config_sha256(cfg: ScenarioConfig) -> str:
    payload = json.dumps(config_to_dict(cfg), sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(payload.encode("utf-8")).hexdigest()


# ---------------------------------------------------------------------------
# the scenario: config blocks -> engine objects, built and checked once per run


@dataclass(frozen=True)
class Scenario:
    """A config and the engine objects of its run."""

    cfg: ScenarioConfig
    grid: TimeGrid
    market: MarketSpec
    eqg: EqgSpec
    liability: LiabilitySpec
    basis: RegressionBasis
    gamma_dist: DiscreteDist


def build_scenario(cfg: ScenarioConfig) -> Scenario:
    """Build the engine objects of cfg.

    The market's bounds are the eigenvalue range of sigma sigma^T widened by
    0.1%, so they hold.  A range error from any constructor, or a singular or
    overflowing sigma sigma^T, raises one ConfigError.
    """
    try:
        grid = TimeGrid(cfg.grid.horizon, cfg.grid.steps)
        sigma = np.asarray(cfg.market.sigma, dtype=float)
        with np.errstate(over="ignore", invalid="ignore"):
            cov = sigma @ sigma.T
        if not np.all(np.isfinite(cov)):
            raise ValueError(f"market.sigma overflows sigma sigma^T, got {cfg.market.sigma!r}")
        eig = np.linalg.eigvalsh(cov)
        market = MarketSpec(
            n=sigma.shape[0], d0=sigma.shape[1], sigma=sigma,
            lambda_lo=float(eig.min()) * 0.999, lambda_hi=float(eig.max()) * 1.001,
        )
        e = cfg.eqg
        eqg = EqgSpec(alpha=e.alpha, beta=e.beta, delta=e.delta, x0=e.x0, a=e.a, b=e.b,
                      kappa=e.kappa)
        liability = LiabilitySpec.from_eqg(eqg, eps=e.cross_eps)
        basis = RegressionBasis(degree=cfg.bsde.degree, ridge=cfg.bsde.ridge,
                                include_idio=cfg.bsde.include_idio)
        gamma_dist = DiscreteDist(cfg.population.gamma_values, cfg.population.gamma_probs)
    except (ValueError, MfequilError) as exc:
        raise ConfigError(f"{type(exc).__name__}: {exc}") from exc
    return Scenario(cfg, grid, market, eqg, liability, basis, gamma_dist)
