"""Flat key-value run configuration with a strict schema.

The format is one ``key = value`` pair per line, ``#`` comments, no
nesting.  Unknown keys are rejected, duplicates are rejected, and every
numeric constraint of the owning modules is re-validated at parse time.
"""

import math
from dataclasses import dataclass, fields

from .errors import ConfigError
from .semigroup import INITIAL_STATES
from .spde import (
    COEFFICIENT_FAMILIES,
    MAX_BLOCK_NOISE_BYTES,
    PATH_BLOCK,
    block_noise_fits,
)
from .spectral import SCAN_MARGIN, BoundaryParams, characteristic_regularized

_CONTROL_PROBLEMS = ("benchmark",)
# the smallest admissible ball radius: below about 3e-308 the projection
# -p r/|p| keeps few significant bits and the KKT multiplier |p|/r - 1
# overflows, so validate's Hamiltonian certificate fails where control
# runs; 1e-300 leaves margin above that
MIN_BALL_RADIUS = 1e-300


@dataclass(frozen=True)
class RunConfig:
    b0: float = 1.0
    b1: float = 1.0
    n_modes: int = 16
    m_noise: int = None
    dt: float = 5e-3
    T: float = 0.5
    t0: float = 0.0
    seed: int = 12345
    n_paths: int = 1000
    panels: int = 64
    nodes_per_panel: int = 8
    coefficients: str = "additive"
    g_scale: float = 0.2
    h0: float = 1.0
    h1: float = 1.0
    f_scale: float = 1.0
    initial: str = "one"
    control_problem: str = "benchmark"
    ball_radius: float = 1.0
    policies: str = "zero, feedback:terminal_proxy"
    record_paths: int = 4
    fd_n: int = 2000
    hs_modes: int = 200

    def __post_init__(self):
        # the noise truncation defaults to the full basis
        if self.m_noise is None:
            object.__setattr__(self, "m_noise", self.n_modes)

    def policy_specs(self) -> list[str]:
        return [p.strip() for p in self.policies.split(",") if p.strip()]

    def as_dict(self) -> dict:
        return {f.name: getattr(self, f.name) for f in fields(self)}


_FIELD_TYPES = {f.name: f.type for f in fields(RunConfig)}
_INT_KEYS = {key for key, kind in _FIELD_TYPES.items() if kind is int}
_STR_KEYS = {key for key, kind in _FIELD_TYPES.items() if kind is str}


def _coerce(key: str, raw: str):
    if key in _STR_KEYS:
        return raw
    try:
        if key in _INT_KEYS:
            return int(raw)
        return float(raw)
    except ValueError as exc:
        raise ConfigError(f"invalid value for {key}: {raw!r}") from exc


def _validate(cfg: RunConfig):
    for key, kind in _FIELD_TYPES.items():
        if kind is float and not math.isfinite(getattr(cfg, key)):
            raise ConfigError(f"{key} must be finite")
    checks = [
        (cfg.b0 > 0.0, "b0 must be positive"),
        (cfg.b1 > 0.0, "b1 must be positive"),
        (cfg.n_modes >= 1, "n_modes must be >= 1"),
        (1 <= cfg.m_noise <= cfg.n_modes, "need 1 <= m_noise <= n_modes"),
        (cfg.dt > 0.0, "dt must be positive"),
        (0.0 <= cfg.t0 < cfg.T, "need 0 <= t0 < T"),
        (0 <= cfg.seed < 2**64, "seed must fit in 64 bits"),
        (cfg.n_paths >= 2, "n_paths must be >= 2"),
        (cfg.panels >= 1, "panels must be >= 1"),
        # numpy's leggauss is tested only up to degree 100
        (2 <= cfg.nodes_per_panel <= 100, "nodes_per_panel must be in [2, 100]"),
        (cfg.record_paths >= 0, "record_paths must be >= 0"),
        (8 <= cfg.fd_n <= 4001, "fd_n must be in [8, 4001]"),
        (cfg.n_modes <= cfg.fd_n, "n_modes must be <= fd_n"),
        (1 <= cfg.hs_modes <= 4001, "hs_modes must be in [1, 4001]"),
        (
            cfg.ball_radius >= MIN_BALL_RADIUS,
            f"ball_radius must be >= {MIN_BALL_RADIUS}",
        ),
        (
            cfg.coefficients in COEFFICIENT_FAMILIES,
            f"coefficients must be one of {COEFFICIENT_FAMILIES}",
        ),
        (
            cfg.initial in INITIAL_STATES,
            f"initial must be one of {INITIAL_STATES}",
        ),
        (
            cfg.control_problem in _CONTROL_PROBLEMS,
            f"control_problem must be one of {_CONTROL_PROBLEMS}",
        ),
        (len(cfg.policy_specs()) >= 1, "policies must name at least one policy"),
    ]
    for ok, message in checks:
        if not ok:
            raise ConfigError(message)
    # after the checks above, so that b0, b1, dt > 0 and t0 < T.  The root
    # scan brackets the lowest root, about -(b0 + b1 + b0 b1) / 3, only at
    # or below its top sample, where the characteristic function is >= 0
    if characteristic_regularized(-SCAN_MARGIN, BoundaryParams(cfg.b0, cfg.b1)) < 0:
        raise ConfigError(
            "b0 + b1 + b0 b1 must be above about 3e-9: the lowest eigenvalue "
            f"lies above the root scan's top sample {-SCAN_MARGIN!r}"
        )
    if not block_noise_fits(cfg.T - cfg.t0, cfg.dt, cfg.m_noise):
        raise ConfigError(
            f"dt = {cfg.dt!r} takes too many steps: one block of {PATH_BLOCK} "
            f"paths would draw more than {MAX_BLOCK_NOISE_BYTES} bytes of noise"
        )
    if cfg.n_paths * cfg.n_modes * 8 > MAX_BLOCK_NOISE_BYTES:
        raise ConfigError(
            f"n_paths = {cfg.n_paths} is too many: the terminal states would "
            f"take more than {MAX_BLOCK_NOISE_BYTES} bytes"
        )
    # the basis samples and a PATH_BLOCK-row block's nodal field, one row
    # per node; a wider block's field takes at most MAX_NODAL_FIELD_BYTES
    nodes = cfg.panels * cfg.nodes_per_panel
    if nodes * max(cfg.n_modes, PATH_BLOCK) * 8 > MAX_BLOCK_NOISE_BYTES:
        raise ConfigError(
            f"panels x nodes_per_panel = {nodes} quadrature nodes is too many: "
            f"the basis samples would take more than {MAX_BLOCK_NOISE_BYTES} bytes"
        )


def parse_config(text: str) -> RunConfig:
    values = {}
    for lineno, raw_line in enumerate(text.splitlines(), start=1):
        line = raw_line.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"line {lineno}: expected 'key = value'")
        key, raw = (part.strip() for part in line.split("=", 1))
        if key not in _FIELD_TYPES:
            raise ConfigError(f"line {lineno}: unknown key {key!r}")
        if key in values:
            raise ConfigError(f"line {lineno}: duplicate key {key!r}")
        values[key] = _coerce(key, raw)
    cfg = RunConfig(**values)
    _validate(cfg)
    return cfg


def load_config(path) -> RunConfig:
    try:
        with open(path) as fh:
            text = fh.read()
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    return parse_config(text)


def default_config() -> RunConfig:
    cfg = RunConfig()
    _validate(cfg)
    return cfg


def with_overrides(cfg: RunConfig, **overrides) -> RunConfig:
    """``cfg`` with the keys ``overrides`` names replaced and re-validated.
    An ``n_modes`` override without an ``m_noise`` one re-derives m_noise
    from the new n_modes, as a config file naming only n_modes would."""
    values = cfg.as_dict()
    if "n_modes" in overrides:
        values["m_noise"] = None
    values.update(overrides)
    new = RunConfig(**values)
    _validate(new)
    return new
