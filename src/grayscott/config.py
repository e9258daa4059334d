"""Run configuration: parsing, validation, normalized dumps and initial
data construction.

Configs are JSON documents with four sections (space, model, noise,
run).  Unknown keys are rejected, every default is filled in, and the
normalized dump round-trips losslessly through the parser.
"""

from __future__ import annotations

import dataclasses
import json
import math
import sys
from dataclasses import dataclass, field

import numpy as np

from .errors import ParseError, ValidationError
from .integrate import ModelParams, schedule_violations, step_count
from .noise import NoiseConfig
from .spectral import SpaceConfig, SpectralField

_INITIAL_KINDS = ("constant", "bump")
# values in the largest arrays a run plans, with M = space.dealias_points(q) points per
# axis: 2 * paths * M**d grid values, max(M, grid_points_per_axis) * modes_per_axis per
# axis, and paths * (T/dt + 1) per norm series
MAX_GRID_VALUES = 2**26


@dataclass(frozen=True)
class InitialData:
    """Initial field profile: a constant, optionally plus one eigenmode."""

    kind: str = "constant"
    value: float = 1.0
    amplitude: float = 0.0
    mode: int = 1

    def __post_init__(self):
        v = []
        if self.kind not in _INITIAL_KINDS:
            v.append(f"initial kind must be one of {_INITIAL_KINDS}, got {self.kind!r}")
        if self.kind == "bump" and self.mode < 1:
            v.append(f"bump mode must be >= 1, got {self.mode}")
        if v:
            raise ValidationError(v)

    def build(self, space: SpaceConfig) -> SpectralField:
        coeffs = np.zeros(space.total_modes)
        coeffs[0] = self.value
        if self.kind == "bump":
            if self.mode >= space.total_modes:
                raise ValidationError(
                    [f"bump mode {self.mode} out of range for "
                     f"{space.total_modes} modes"]
                )
            coeffs[self.mode] = self.amplitude
        return SpectralField(coeffs, space)


@dataclass(frozen=True)
class RunConfig:
    """Everything one invocation needs, serializable and hashable."""

    space: SpaceConfig = field(default_factory=SpaceConfig)
    model: ModelParams = field(default_factory=ModelParams)
    noise: NoiseConfig = field(default_factory=NoiseConfig)
    paths: int = 100
    T: float = 0.5
    dt: float = 1e-3
    kappa: float = 1e6
    kappa_schedule: tuple[float, ...] = (1.0, 2.0, 3.0, 4.0)
    u0: InitialData = field(default_factory=lambda: InitialData("constant", 1.0))
    v0: InitialData = field(default_factory=lambda: InitialData("constant", 1.0))
    tol: float = 1e-8
    max_iter: int = 20
    m_power: int = 1
    field_dumps: bool = False

    def __post_init__(self):
        v = []
        if self.paths < 1:
            v.append(f"paths must be >= 1, got {self.paths}")
        try:
            values = self.paths * (step_count(self.T, self.dt) + 1)  # in one norm series
            if values > MAX_GRID_VALUES:
                v.append(f"T={self.T:g}, dt={self.dt:g} and paths={self.paths} plan norm series "
                         f"of paths * (T/dt + 1) = {values} values, above 2**26")
        except ValidationError as err:
            v.extend(err.violations)
        if not (math.isfinite(self.kappa) and self.kappa > 0):
            v.append(f"kappa must be finite and > 0, got {self.kappa}")
        v.extend(schedule_violations(self.kappa_schedule))
        if not self.tol > 0:  # also rejects NaN
            v.append(f"tol must be > 0, got {self.tol}")
        if self.max_iter < 1:
            v.append(f"max_iter must be >= 1, got {self.max_iter}")
        if self.m_power < 1:
            v.append(f"m_power must be >= 1, got {self.m_power}")
        q, sp, paths = self.model.q, self.space, self.paths
        m = sp.dealias_points(q) if math.isfinite(q) else math.inf
        axis = max(m, sp.grid_points_per_axis) * sp.modes_per_axis
        if max(2 * paths * m**sp.d, axis) > MAX_GRID_VALUES:
            v.append(f"model.q={q:g}, space.modes_per_axis={sp.modes_per_axis}, "
                     f"space.grid_points_per_axis={sp.grid_points_per_axis} and paths={paths} "
                     f"plan M={m} dealiased points per axis, 2 * paths * M**d = "
                     f"{2 * paths * m**sp.d} grid values and an axis matrix of {axis} values; "
                     f"each must be at most 2**26")
        if v:
            raise ValidationError(v)


_SECTIONS = {
    "space": SpaceConfig,
    "model": ModelParams,
    "noise": NoiseConfig,
    "u0": InitialData,
    "v0": InitialData,
}
_RUN_KEYS = {
    f.name: f for f in dataclasses.fields(RunConfig)
    if f.name not in _SECTIONS
}


def _number_violations(cls, data: dict) -> dict[str, str]:
    """Per offending key: integer fields take integers, float fields
    finite numbers (an integer only if float() keeps it exact) and boolean
    fields booleans; a JSON boolean is not a number."""
    bad = {}
    for f in dataclasses.fields(cls):
        value = data.get(f.name)
        if f.name not in data or value is None and f.type == "int | None":
            continue
        if f.type in ("int", "int | None") and type(value) is not int:
            bad[f.name] = f"{f.name} must be an integer, got {value!r}"
        elif f.type == "float" and type(value) not in (int, float):
            bad[f.name] = f"{f.name} must be a number, got {value!r}"
        elif f.type == "float" and not abs(value) <= sys.float_info.max:
            # NaN, an infinity, or an integer past the float range
            bad[f.name] = f"{f.name} must be finite, got {value!r}"
        elif f.type == "float" and type(value) is int and float(value) != value:
            bad[f.name] = f"{f.name} must be exact as a float, got {value!r}"
        elif f.type == "bool" and type(value) is not bool:
            bad[f.name] = f"{f.name} must be true or false, got {value!r}"
    return bad


def _build_section(cls, data: dict, where: str, violations: list[str]):
    allowed = {f.name for f in dataclasses.fields(cls)}
    unknown = set(data) - allowed
    if unknown:
        violations.append(f"unknown keys in {where}: {', '.join(sorted(unknown))}")
    bad = _number_violations(cls, data)
    violations.extend(f"{where}: {msg}" for msg in bad.values())
    data = {k: v for k, v in data.items() if k in allowed and k not in bad}
    try:
        return cls(**data)
    except ValidationError as err:
        violations.extend(f"{where}: {msg}" for msg in err.violations)
    except TypeError as err:
        violations.append(f"{where}: {err}")
    return None


def config_from_dict(doc: dict) -> RunConfig:
    if not isinstance(doc, dict):
        raise ParseError("configuration document must be a JSON object")
    violations: list[str] = []
    known = set(_SECTIONS) | set(_RUN_KEYS)
    unknown = set(doc) - known
    if unknown:
        violations.append(f"unknown top-level keys: {', '.join(sorted(unknown))}")
    kwargs = {}
    for name, cls in _SECTIONS.items():
        section = doc.get(name, {})
        if not isinstance(section, dict):
            violations.append(f"section {name!r} must be an object")
            continue
        built = _build_section(cls, section, name, violations)
        if built is not None:
            kwargs[name] = built
    bad = _number_violations(RunConfig, doc)
    violations.extend(bad.values())
    for name in _RUN_KEYS:
        if name in doc and name not in bad:
            value = doc[name]
            if name == "kappa_schedule":
                if not (isinstance(value, (list, tuple))
                        and all(type(x) in (int, float) for x in value)):
                    violations.append(f"kappa_schedule must be a list of numbers, got {value!r}")
                    continue
                try:
                    rounded = [x for x in value if type(x) is int and float(x) != x]
                except OverflowError:  # an integer past the float range
                    violations.append(f"kappa_schedule entries must be finite, got {value!r}")
                    continue
                if rounded:
                    violations.append(f"kappa_schedule entries must be exact as floats, "
                                      f"got {rounded[0]!r}")
                    continue
                value = tuple(float(x) for x in value)
            kwargs[name] = value
    # validate run-level constraints even when a section failed, so the
    # error lists every violation at once
    try:
        built = RunConfig(**kwargs)
        if not violations:
            return built
    except ValidationError as err:
        violations.extend(err.violations)
    except TypeError as err:
        violations.append(str(err))
    raise ValidationError(violations)


def parse_document(text: str, source: str = "") -> dict:
    """JSON text to a raw document; ParseError with line context when malformed."""
    try:
        return json.loads(text)
    except json.JSONDecodeError as err:
        where = f"{source}: " if source else ""
        raise ParseError(f"{where}line {err.lineno}, column {err.colno}: {err.msg}") from err


def parse_config(text: str) -> RunConfig:
    """Parse and validate a JSON configuration document.

    Raises ParseError with line context for malformed JSON and
    ValidationError listing every violated constraint otherwise.
    """
    return config_from_dict(parse_document(text))


config_to_dict = dataclasses.asdict  # the normalized dump; JSON writes the tuple as a list


def apply_overrides(doc: dict, overrides: list[str]) -> dict:
    """Apply repeatable ``section.key=value`` overrides to a raw document."""
    out = json.loads(json.dumps(doc))
    for item in overrides:
        if "=" not in item:
            raise ParseError(f"override {item!r} is not of the form key=value")
        path, raw = item.split("=", 1)
        try:
            value = json.loads(raw)
        except json.JSONDecodeError:
            value = raw
        keys = path.strip().split(".")
        target = out
        for k in keys[:-1]:
            target = target.setdefault(k, {})
            if not isinstance(target, dict):
                raise ParseError(f"override path {path!r} crosses a non-object value")
        target[keys[-1]] = value
    return out
