"""Scenario configuration: one JSON-compatible document per run.

Every knob of a run lives in a single nested dataclass that round-trips
through JSON exactly (parse -> serialize -> parse is the identity), so a
run is reproducible from its config hash alone.  Dotted-path overrides
(``--set mf.iters=20``) are applied to the parsed document before
validation; values are JSON literals with a bare-string fallback.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, fields, is_dataclass

import numpy as np

from .clearing import DiscreteDist
from .errors import ConfigError
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
    d: int = 1

    @property
    def n(self) -> int:
        return len(self.sigma)

    @property
    def d0(self) -> int:
        return len(self.sigma[0])


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
    n_particles: int = 64
    n_equilibrium: int | None = None
    iters: int = 10
    tol: float = 1e-4
    c_gamma_override: float | None = None


@dataclass(frozen=True)
class ClearingConfig:
    Ns: tuple = (10, 30, 100, 300, 1000)
    n_common: int = 200
    n_equilibrium: int = 2500
    n_batches: int = 20
    slack: float = 0.25
    n_invariance_draws: int = 100
    cond_cap: float = 50.0


@dataclass(frozen=True)
class ScenarioConfig:
    name: str = "scenario"
    seed: int = 12345
    out_dir: str | None = None
    grid: GridConfig = GridConfig()
    market: MarketConfig = MarketConfig()
    eqg: EqgConfig = EqgConfig()
    population: PopulationConfig = PopulationConfig()
    bsde: BsdeConfig = BsdeConfig()
    mf: MfConfig = MfConfig()
    clearing: ClearingConfig = ClearingConfig()


_TUPLE_FIELDS = {"sigma", "delta", "gamma_values", "gamma_probs", "Ns"}


def _to_jsonable(obj):
    if is_dataclass(obj):
        return {f.name: _to_jsonable(getattr(obj, f.name)) for f in fields(obj)}
    if isinstance(obj, (tuple, list)):
        return [_to_jsonable(v) for v in obj]
    return obj


def config_to_dict(cfg: ScenarioConfig) -> dict:
    return _to_jsonable(cfg)


def _coerce(cls, data: dict):
    if not isinstance(data, dict):
        raise ConfigError(f"expected an object for {cls.__name__}, got {type(data).__name__}")
    known = {f.name: f for f in fields(cls)}
    unknown = set(data) - set(known)
    if unknown:
        raise ConfigError(f"unknown key(s) {sorted(unknown)} in {cls.__name__}")
    kwargs = {}
    for name, value in data.items():
        if isinstance(value, dict):
            sub = _SUBBLOCKS.get(name)
            if sub is None:
                raise ConfigError(f"unexpected object for scalar key {name!r}")
            kwargs[name] = _coerce(sub, value)
        elif isinstance(value, list):
            if name == "sigma":
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


_SUBBLOCKS = {
    "grid": GridConfig,
    "market": MarketConfig,
    "eqg": EqgConfig,
    "population": PopulationConfig,
    "bsde": BsdeConfig,
    "mf": MfConfig,
    "clearing": ClearingConfig,
}


def _check_fixed_point(cfg: ScenarioConfig) -> None:
    """The Picard loops need at least one sweep, and tolerances and the clip
    level that are finite and positive."""
    for key, v in (("bsde.picard_max", cfg.bsde.picard_max), ("mf.iters", cfg.mf.iters)):
        if isinstance(v, bool) or not isinstance(v, int) or v < 1:
            raise ConfigError(f"{key} must be an integer >= 1, got {v!r}")
    for key, v in (("bsde.picard_tol", cfg.bsde.picard_tol), ("mf.tol", cfg.mf.tol),
                   ("bsde.clip", cfg.bsde.clip)):
        if isinstance(v, bool) or not isinstance(v, (int, float)) or not 0 < v < np.inf:
            raise ConfigError(f"{key} must be finite and > 0, got {v!r}")


def config_from_dict(data: dict) -> ScenarioConfig:
    cfg = _coerce(ScenarioConfig, data)
    _check_fixed_point(cfg)
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
        node = data
        parts = key.split(".")
        for part in parts[:-1]:
            if part not in node or not isinstance(node[part], dict):
                raise ConfigError(f"override path {key!r} does not exist")
            node = node[part]
        if parts[-1] not in node:
            raise ConfigError(f"override path {key!r} does not exist")
        node[parts[-1]] = value
    return data


def config_sha256(cfg: ScenarioConfig) -> str:
    payload = json.dumps(config_to_dict(cfg), sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(payload.encode("utf-8")).hexdigest()


# ---------------------------------------------------------------------------
# builders: config blocks -> engine objects


def build_grid(cfg: ScenarioConfig) -> TimeGrid:
    return TimeGrid(cfg.grid.horizon, cfg.grid.steps)


def build_market(cfg: ScenarioConfig) -> MarketSpec:
    sigma = np.asarray(cfg.market.sigma, dtype=float)
    eig = np.linalg.eigvalsh(sigma @ sigma.T)
    return MarketSpec(
        n=cfg.market.n, d0=cfg.market.d0, d=cfg.market.d, sigma=sigma,
        lambda_lo=float(eig.min()) * 0.999, lambda_hi=float(eig.max()) * 1.001,
    )


def build_eqg(cfg: ScenarioConfig) -> EqgSpec:
    e = cfg.eqg
    return EqgSpec(alpha=e.alpha, beta=e.beta, delta=tuple(e.delta),
                   x0=e.x0, a=e.a, b=e.b, kappa=e.kappa)


def build_liability(cfg: ScenarioConfig) -> LiabilitySpec:
    return LiabilitySpec.from_eqg(build_eqg(cfg), eps=cfg.eqg.cross_eps)


def build_basis(cfg: ScenarioConfig) -> RegressionBasis:
    b = cfg.bsde
    return RegressionBasis(degree=b.degree, ridge=b.ridge, include_idio=b.include_idio)


def build_gamma_dist(cfg: ScenarioConfig) -> DiscreteDist:
    p = cfg.population
    probs = tuple(p.gamma_probs) if p.gamma_probs is not None else None
    return DiscreteDist(tuple(p.gamma_values), probs)
