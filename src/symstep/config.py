"""Experiment configuration: flat ``key = value`` text with ``#`` comments.

Vectors are comma-separated (``q0 = 0.7, 0``).  Required keys: model,
scheme, h, t_end.  Defaults: record_stride=1, tolerance=1e-13,
max_iterations=50, fd_step=1e-5, fd_eps=1e-6; the ExperimentConfig dataclass
itself defaults scheme to s3-corrected for programmatic construction, but
the text format requires the key spelled out.
"""

import math
from dataclasses import dataclass, fields
from typing import Optional

import numpy as np

from .integrators import SchemeVariant, as_variant
from .models import MODEL_NAMES, PhaseState, make_model
from .solvers import SolverConfig


class ConfigError(ValueError):
    def __init__(self, message, line=None):
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)
        self.line = line


_REQUIRED = ("model", "scheme", "h", "t_end")


@dataclass(frozen=True)
class ExperimentConfig:
    model: str
    h: float
    t_end: float
    scheme: SchemeVariant = SchemeVariant.S3_CORRECTED
    q0: Optional[tuple] = None
    p0: Optional[tuple] = None
    ecc: Optional[float] = None
    record_stride: int = 1
    tolerance: float = 1e-13
    max_iterations: int = 50
    output: Optional[str] = None
    steps: Optional[tuple] = None
    omega: Optional[float] = None
    epsilon: Optional[float] = None
    sigma: Optional[float] = None
    mass: Optional[tuple] = None
    fd_step: float = 1e-5
    fd_eps: float = 1e-6


# every config key, required ones first; each is also a CLI flag
KEYS = _REQUIRED + tuple(f.name for f in fields(ExperimentConfig)
                         if f.name not in _REQUIRED)


def parse_lines(text):
    """Parse config text into an ordered {key: (raw_value, line_number)} map."""
    mapping = {}
    for no, line in enumerate(text.splitlines(), 1):
        body = line.split("#", 1)[0].strip()
        if not body:
            continue
        if "=" not in body:
            raise ConfigError(f"expected 'key = value', got {body!r}", no)
        key, _, raw = body.partition("=")
        key = key.strip()
        raw = raw.strip()
        if key not in KEYS:
            raise ConfigError(f"unknown key {key!r}", no)
        if key in mapping:
            raise ConfigError(f"duplicate key {key!r}", no)
        if not raw:
            raise ConfigError(f"empty value for {key!r}", no)
        mapping[key] = (raw, no)
    return mapping


def _float(key, raw, line):
    try:
        v = float(raw)
    except ValueError:
        raise ConfigError(f"{key}: malformed number {raw!r}", line) from None
    if not math.isfinite(v):
        raise ConfigError(f"{key}: non-finite number {raw!r}", line)
    return v


def _int(key, raw, line):
    try:
        return int(raw)
    except ValueError:
        raise ConfigError(f"{key}: malformed integer {raw!r}", line) from None


def _vector(key, raw, line):
    try:
        v = tuple(float(part) for part in raw.split(","))
    except ValueError:
        raise ConfigError(f"{key}: malformed vector {raw!r} "
                          "(expected comma-separated numbers)", line) from None
    if not all(map(math.isfinite, v)):
        raise ConfigError(f"{key}: non-finite entry in {raw!r}", line)
    return v


def build_config(mapping) -> ExperimentConfig:
    """Validate a {key: (raw, line)} map into an ExperimentConfig."""
    missing = [k for k in _REQUIRED if k not in mapping]
    if missing:
        raise ConfigError("missing required keys: " + ", ".join(missing))
    kw = {}
    for key, (raw, line) in mapping.items():
        if key == "model":
            kw["model"] = raw
        elif key == "scheme":
            try:
                kw["scheme"] = as_variant(raw)
            except ValueError as err:
                raise ConfigError(str(err), line) from None
        elif key in ("h", "t_end", "tolerance", "fd_step", "fd_eps"):
            v = _float(key, raw, line)
            if not v > 0:
                raise ConfigError(f"{key} must be > 0, got {raw}", line)
            kw[key] = v
        elif key in ("omega", "epsilon", "sigma"):
            kw[key] = _float(key, raw, line)
        elif key == "ecc":
            v = _float(key, raw, line)
            if not (0.0 <= v < 1.0):
                raise ConfigError(f"ecc must lie in [0, 1), got {raw}", line)
            kw["ecc"] = v
        elif key in ("record_stride", "max_iterations"):
            v = _int(key, raw, line)
            if v < 1:
                raise ConfigError(f"{key} must be >= 1, got {raw}", line)
            kw[key] = v
        elif key in ("q0", "p0", "mass"):
            kw[key] = _vector(key, raw, line)
        elif key == "steps":
            v = _vector(key, raw, line)
            if any(x <= 0 for x in v):
                raise ConfigError("steps must all be > 0", line)
            kw["steps"] = v
        elif key == "output":
            kw["output"] = raw
    q0, p0, ecc = kw.get("q0"), kw.get("p0"), kw.get("ecc")
    if (q0 is None) != (p0 is None):
        raise ConfigError("q0 and p0 must be given together")
    if q0 is not None and len(q0) != len(p0):
        raise ConfigError(f"q0 has length {len(q0)} but p0 has length {len(p0)}")
    if ecc is not None and q0 is not None:
        raise ConfigError("ecc and explicit q0/p0 are mutually exclusive")
    return ExperimentConfig(**kw)


def parse_config(text) -> ExperimentConfig:
    return build_config(parse_lines(text))


def kepler_start(ecc):
    """Perihelion start of the eccentric-orbit benchmark: q = (1-e, 0),
    p = (0, sqrt((1+e)/(1-e))); energy -1/2, period 2*pi, L = sqrt(1-e^2)."""
    return (1.0 - ecc, 0.0), (0.0, float(np.sqrt((1.0 + ecc) / (1.0 - ecc))))


def resolve_model(cfg: ExperimentConfig):
    params = {}
    for key in ("omega", "epsilon", "sigma"):
        v = getattr(cfg, key)
        if v is not None:
            params[key] = v
    name = cfg.model.strip().lower()
    if name not in MODEL_NAMES:
        raise ConfigError(f"unknown model {cfg.model!r} "
                          f"(choose from {', '.join(sorted(MODEL_NAMES))})")
    if name == "kepler":
        dimension = 2
    elif cfg.q0 is not None:
        dimension = len(cfg.q0)
    else:
        raise ConfigError(f"model {cfg.model!r} needs explicit q0/p0 vectors")
    try:
        return make_model(name, dimension=dimension, mass=cfg.mass, **params)
    except ValueError as err:
        raise ConfigError(str(err)) from None


def resolve_initial_state(cfg: ExperimentConfig, model) -> PhaseState:
    if cfg.q0 is not None:
        if len(cfg.q0) != model.dimension:
            raise ConfigError(f"q0 has length {len(cfg.q0)}, "
                              f"model dimension is {model.dimension}")
        return PhaseState(cfg.q0, cfg.p0)
    if model.name == "kepler":
        q0, p0 = kepler_start(0.3 if cfg.ecc is None else cfg.ecc)
        return PhaseState(q0, p0)
    raise ConfigError(f"model {cfg.model!r} needs explicit q0/p0 vectors")


def resolve_start(cfg: ExperimentConfig):
    """(model, initial state, SolverConfig) for a validated config: all that
    converge, which takes its step sizes from ``steps``, needs."""
    model = resolve_model(cfg)
    return model, resolve_initial_state(cfg, model), SolverConfig(
        tolerance=cfg.tolerance, max_iterations=cfg.max_iterations)


def resolve(cfg: ExperimentConfig):
    """(model, initial state, n_steps, SolverConfig) for a validated config.

    The step count rounds t_end/h to the nearest integer and must be a
    positive multiple of record_stride.
    """
    model, s0, solver = resolve_start(cfg)
    span = cfg.t_end / cfg.h
    if not math.isfinite(span):
        raise ConfigError(f"t_end={cfg.t_end} spans too many steps to count "
                          f"at h={cfg.h}")
    n_steps = int(np.floor(span + 0.5))
    if n_steps < 1:
        raise ConfigError(f"t_end={cfg.t_end} spans no steps at h={cfg.h}")
    if n_steps % cfg.record_stride != 0:
        raise ConfigError(f"record_stride={cfg.record_stride} does not divide "
                          f"the step count {n_steps}")
    return model, s0, n_steps, solver
