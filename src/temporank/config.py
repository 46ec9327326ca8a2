"""Run configuration: sectioned key=value files, flags, and environment.

A run is described by a small ini-style file::

    [network]
    preset = paper-synthetic    ; or: file = net.txt

    [kernel]
    rate = 1.0                  ; exponential decay rate

    [damping]
    kind = constant             ; or: linear (with start/end)
    value = 0.85

    [personalization]
    kind = uniform              ; uniform | input | inverse-input | file

    [solver]
    method = auto               ; auto | direct | power
    tol = 1e-12
    max-iter = 100000
    threads = 1

    [quadrature]
    tol = 1e-10
    max-subdiv = 65536

    [grid]
    count = 101                 ; uniform over the network interval;
                                ; add start/step for an explicit grid

    [output]
    format = csv                ; csv | json
    path = -                    ; - is stdout
    header = yes

Every key can be overridden by the matching CLI flag; the thread count
additionally honors the ``TEMPORANK_THREADS`` environment variable, which
sits below the flag and above the file.  Unknown sections or keys are
rejected so typos surface instead of silently running defaults.  Custom
decay kernels and callable schedules are library-level features and have
no file syntax.
"""

from __future__ import annotations

import configparser
import io
import math
import os
from dataclasses import dataclass, fields, replace
from functools import partial

import numpy as np

from . import netfile, presets
from .errors import InvalidInputError, not_utf8
from .graph import ContinuousTemporalNetwork, DiscreteTemporalNetwork
from .quadrature import QuadratureConfig
from .schedules import (ConstantDamping, ExponentialDecay, InputPersonalization,
                        InverseInputPersonalization, LinearDamping,
                        TabulatedPersonalization, UniformPersonalization)

__all__ = ["RunConfig", "read_config", "resolve_config", "dump_config",
           "build_network", "build_kernel", "build_damping",
           "build_personalization", "build_quadrature", "build_grid"]

THREADS_ENV = "TEMPORANK_THREADS"


@dataclass(frozen=True)
class RunConfig:
    """One run, fully resolved (file < environment < flags)."""

    network_file: str | None = None
    network_preset: str | None = None
    kernel_rate: float = 1.0
    damping_kind: str = "constant"
    damping_value: float = 0.85
    damping_start: float = 0.85
    damping_end: float = 0.85
    personalization_kind: str = "uniform"
    personalization_file: str | None = None
    solver_method: str = "auto"
    solver_tol: float = 1e-12
    solver_max_iter: int = 100_000
    threads: int = 1
    quad_tol: float = 1e-10
    quad_max_subdiv: int = 2 ** 16
    grid_count: int = 101
    grid_start: float | None = None
    grid_step: float | None = None
    output_format: str = "csv"
    output_path: str = "-"
    output_header: bool = True


# (section, key) -> (RunConfig field, parser)
_BOOL = {"yes": True, "no": False, "true": True, "false": False,
         "1": True, "0": False, "on": True, "off": False}


def _parse_bool(text: str) -> bool:
    try:
        return _BOOL[text.strip().lower()]
    except KeyError:
        raise InvalidInputError(f"expected yes/no, got {text!r}") from None


_SCHEMA = {
    ("network", "file"): ("network_file", str),
    ("network", "preset"): ("network_preset", str),
    ("kernel", "rate"): ("kernel_rate", float),
    ("damping", "kind"): ("damping_kind", str),
    ("damping", "value"): ("damping_value", float),
    ("damping", "start"): ("damping_start", float),
    ("damping", "end"): ("damping_end", float),
    ("personalization", "kind"): ("personalization_kind", str),
    ("personalization", "file"): ("personalization_file", str),
    ("solver", "method"): ("solver_method", str),
    ("solver", "tol"): ("solver_tol", float),
    ("solver", "max-iter"): ("solver_max_iter", int),
    ("solver", "threads"): ("threads", int),
    ("quadrature", "tol"): ("quad_tol", float),
    ("quadrature", "max-subdiv"): ("quad_max_subdiv", int),
    ("grid", "count"): ("grid_count", int),
    ("grid", "start"): ("grid_start", float),
    ("grid", "step"): ("grid_step", float),
    ("output", "format"): ("output_format", str),
    ("output", "path"): ("output_path", str),
    ("output", "header"): ("output_header", _parse_bool),
}


def read_config(path: str) -> RunConfig:
    """Load a config file on top of the defaults."""
    parser = configparser.ConfigParser(interpolation=None,
                                       inline_comment_prefixes=(";", "#"))
    try:
        with open(path, "r", encoding="utf-8") as handle:
            parser.read_file(handle, source=path)
    except UnicodeDecodeError:
        raise not_utf8(path, partial(_config_error, path)) from None
    except configparser.Error as err:
        raise _config_error(path, str(err).splitlines()[0],
                            getattr(err, "lineno", None)) from None
    values = {}
    for section in parser.sections():
        for key, raw in parser.items(section):
            try:
                field_name, convert = _SCHEMA[(section, key)]
            except KeyError:
                raise InvalidInputError(
                    f"{path}: unknown config key [{section}] {key}") from None
            try:
                values[field_name] = convert(raw.strip())
            except InvalidInputError:
                raise
            except ValueError:
                raise InvalidInputError(
                    f"{path}: bad value for [{section}] {key}: {raw!r}") from None
    return RunConfig(**values)


def _config_error(path: str, message: str,
                  line_number: int | None = None) -> InvalidInputError:
    where = path if line_number is None else f"{path}: line {line_number}"
    return InvalidInputError(f"{where}: {message}")


def resolve_config(base: RunConfig | None = None, env=os.environ,
                   **overrides) -> RunConfig:
    """Apply the environment, then keyword overrides, to ``base``.

    Overrides use RunConfig field names; ``None`` values mean "not given"
    and leave the underlying setting alone.
    """
    cfg = base if base is not None else RunConfig()
    if env is not None and THREADS_ENV in env:
        text = env[THREADS_ENV]
        try:
            cfg = replace(cfg, threads=int(text))
        except ValueError:
            raise InvalidInputError(
                f"{THREADS_ENV} must be an integer, got {text!r}") from None
    known = {f.name for f in fields(RunConfig)}
    given = {name: value for name, value in overrides.items() if value is not None}
    unknown = set(given) - known
    if unknown:
        raise InvalidInputError(f"unknown config fields: {sorted(unknown)}")
    cfg = replace(cfg, **given)
    _check(cfg)
    return cfg


def _check(cfg: RunConfig):
    if cfg.network_file is not None and cfg.network_preset is not None:
        raise InvalidInputError("give a network file or a preset, not both")
    if cfg.damping_kind not in ("constant", "linear"):
        raise InvalidInputError(f"unknown damping kind {cfg.damping_kind!r}")
    if cfg.personalization_kind not in ("uniform", "input", "inverse-input", "file"):
        raise InvalidInputError(
            f"unknown personalization kind {cfg.personalization_kind!r}")
    if cfg.personalization_kind == "file" and cfg.personalization_file is None:
        raise InvalidInputError("personalization kind `file` needs a file")
    if cfg.solver_method not in ("auto", "direct", "power"):
        raise InvalidInputError(f"unknown solver method {cfg.solver_method!r}")
    if cfg.output_format not in ("csv", "json"):
        raise InvalidInputError(f"unknown output format {cfg.output_format!r}")
    for name, tol in (("solver tol", cfg.solver_tol), ("quadrature tol", cfg.quad_tol)):
        if not (math.isfinite(tol) and tol > 0):
            raise InvalidInputError(f"{name} must be positive and finite, got {tol!r}")
    if cfg.threads < 1:
        raise InvalidInputError(f"threads must be >= 1, got {cfg.threads}")
    if (cfg.grid_start is None) != (cfg.grid_step is None):
        raise InvalidInputError("grid start and step must be given together")
    if cfg.grid_count < 1:
        raise InvalidInputError(f"grid count must be >= 1, got {cfg.grid_count}")


def dump_config(cfg: RunConfig) -> str:
    """Render a config file that reproduces this run exactly."""
    parser = configparser.ConfigParser(interpolation=None)
    for (section, key), (field_name, _) in _SCHEMA.items():
        value = getattr(cfg, field_name)
        if value is None:
            continue
        if isinstance(value, bool):
            text = "yes" if value else "no"
        elif isinstance(value, float):
            text = repr(value)
        else:
            text = str(value)
        if not parser.has_section(section):
            parser.add_section(section)
        parser.set(section, key, text)
    out = io.StringIO()
    parser.write(out)
    return out.getvalue()


def build_network(cfg: RunConfig):
    if cfg.network_preset is not None:
        return presets.preset(cfg.network_preset)
    if cfg.network_file is None:
        raise InvalidInputError("no network source configured")
    if not os.path.exists(cfg.network_file):
        raise FileNotFoundError(f"network source not found: {cfg.network_file}")
    return netfile.load_network(cfg.network_file)


def build_kernel(cfg: RunConfig) -> ExponentialDecay:
    return ExponentialDecay(cfg.kernel_rate)


def build_damping(cfg: RunConfig):
    if cfg.damping_kind == "linear":
        return LinearDamping(cfg.damping_start, cfg.damping_end)
    return ConstantDamping(cfg.damping_value)


def build_personalization(cfg: RunConfig):
    kind = cfg.personalization_kind
    if kind == "uniform":
        return UniformPersonalization()
    if kind == "input":
        return InputPersonalization()
    if kind == "inverse-input":
        return InverseInputPersonalization()
    path = cfg.personalization_file
    if not os.path.exists(path):
        raise FileNotFoundError(f"personalization file not found: {path}")
    try:
        with open(path, encoding="utf-8") as handle:
            lines = handle.read().splitlines()
    except UnicodeDecodeError:
        raise not_utf8(path, partial(_config_error, path)) from None
    if not any(line.split("#", 1)[0].strip() for line in lines):
        raise _config_error(path, "no rows of numbers")
    try:
        table = np.loadtxt(lines, ndmin=2)
    except ValueError as err:
        raise _config_error(path, f"not a table of numbers: {err}") from None
    return TabulatedPersonalization(tuple(np.asarray(row) for row in table))


def build_quadrature(cfg: RunConfig) -> QuadratureConfig:
    return QuadratureConfig(tol=cfg.quad_tol, max_subdivisions=cfg.quad_max_subdiv)


def build_grid(cfg: RunConfig, network) -> np.ndarray | None:
    """Evaluation instants: explicit progression, or uniform over the interval.

    Discrete networks carry their own instants, so the grid is None there.
    """
    if isinstance(network, DiscreteTemporalNetwork):
        return None
    if not isinstance(network, ContinuousTemporalNetwork):
        raise InvalidInputError(f"not a temporal network: {type(network).__name__}")
    if cfg.grid_start is not None:
        from .ingest import sample_grid
        return sample_grid(cfg.grid_start, cfg.grid_step, cfg.grid_count)
    count = cfg.grid_count
    if count == 1:
        return np.array([network.t0])
    span = network.t1 - network.t0
    return network.t0 + span * np.arange(count) / (count - 1)
