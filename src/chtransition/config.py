"""Run configuration: a flat key = value file with sections.

The format is deliberately minimal so runs diff cleanly:

    [physical]
    R = 1.0
    gamma = 1.0
    alpha = 1.0
    ubar = 0.5
    T = 0.24

    [mobility]
    H0 = 1.0
    H1 = 0.0
    H2 = 0.0

or, in place of H0-H2, which it then defines (setting both is an error):

    [mobility]
    profile = poly 1.0 0.5          # coefficients in powers of s
    # profile = table 0:1 0.4:1.2 1:1 (piecewise linear; no knot at ubar)

    [domain]
    L1 = 3.141592653589793
    L2 = 2.0
    L3 = 1.0

The degeneracy case of the box follows from L1-L3 (equal under
``tie_tolerance``); there is no ``case`` key.  Each section is one
settings dataclass whose fields carry each key's converter and, unless the
key is required, its default; one reader serves them all.  A missing
required key is refused by name at its section's header line (with no
line when the section is absent), an unknown section at its header line,
and an unknown key or a value out of range at its line:

- positive: ``R``, ``gamma``, ``alpha``, ``T``, ``H0``, ``L1``-``L3``,
  ``dt`` (in [simulate] and [reduce]), ``t_end``, ``relaxation_times``;
- at least 1: ``record_every`` (in [simulate] and [reduce]), ``steps``,
  ``workers``, ``band_limit``;
- at least 6: each ``grid`` size;
- nonnegative: ``stabilization``, ``seed_amplitude``, ``tie_tolerance``,
  ``seed``;
- inside (0, 1): ``ubar`` and each of ``epsilons``;
- ``L2``, ``L3``: not longer than the length before them;
- ``profile``: no table knot at ``ubar``, and none of ``H0``-``H2`` beside it;
- ``seed_modes``: distinct modes, each three nonnegative integers, not all
  zero, below the ``grid`` size along each axis;
- ``y0`` (in [reduce] and [validate]): one amplitude per critical mode.
"""

from __future__ import annotations

import math
from dataclasses import MISSING, dataclass, field, fields

from .params import (
    DomainSpec,
    MobilityProfile,
    MobilitySpec,
    PhysicalParams,
)
from .simulator import StepConfig
from .spectral import Mode, field_from_modes

__all__ = ["ConfigError", "RunConfig", "load_config", "parse_kv_file"]


class ConfigError(ValueError):
    """Invalid configuration; message carries file and line when known."""

    def __init__(self, message: str, path=None, line: int | None = None):
        loc = ""
        if path is not None:
            loc = f"{path}:"
            if line is not None:
                loc += f"{line}:"
            loc += " "
        super().__init__(loc + message)


def parse_kv_file(path) -> dict[str, tuple[int, dict[str, tuple[str, int]]]]:
    """Parse ``[section]`` / ``key = value`` lines, keeping line numbers:
    each section maps to the line of its (first) header and its keys, each
    key to its value and line."""
    sections: dict[str, tuple[int, dict[str, tuple[str, int]]]] = {}
    current: str | None = None
    with open(path) as fh:
        for lineno, raw in enumerate(fh, start=1):
            line = raw.split("#", 1)[0].split(";", 1)[0].strip()
            if not line:
                continue
            if line.startswith("[") and line.endswith("]"):
                current = line[1:-1].strip().lower()
                if not current:
                    raise ConfigError("empty section name", path, lineno)
                sections.setdefault(current, (lineno, {}))
                continue
            if "=" not in line:
                raise ConfigError(f"expected 'key = value', got {line!r}", path, lineno)
            if current is None:
                raise ConfigError("key outside any [section]", path, lineno)
            key, value = (part.strip() for part in line.split("=", 1))
            if not key:
                raise ConfigError("empty key", path, lineno)
            keys = sections[current][1]
            if key in keys:
                raise ConfigError(f"duplicate key {key!r}", path, lineno)
            keys[key] = (value, lineno)
    return sections


def _as_float(s: str) -> float:
    v = float(s)
    if not math.isfinite(v):
        raise ValueError("must be finite")
    return v


def _at_least(conv, lo, strict: bool = False):
    """``conv`` with a range rule: the value must reach ``lo``, or exceed it
    when ``strict``."""

    def checked(s: str):
        v = conv(s)
        if v < lo or (strict and v == lo):
            raise ValueError(f"must be {'>' if strict else '>='} {lo:g}")
        return v

    return checked


_positive = _at_least(_as_float, 0.0, strict=True)
_nonnegative = _at_least(_as_float, 0.0)
_count = _at_least(int, 1)


def _as_bool(s: str) -> bool:
    v = s.strip().lower()
    if v in ("true", "yes", "on", "1"):
        return True
    if v in ("false", "no", "off", "0"):
        return False
    raise ValueError(f"expected a boolean, got {s!r}")


def _fraction(s: str) -> float:
    v = _as_float(s)
    if not 0.0 < v < 1.0:
        raise ValueError("must lie in (0, 1)")
    return v


def _as_floats(s: str, conv=_as_float) -> tuple[float, ...]:
    parts = s.replace(",", " ").split()
    if not parts:
        raise ValueError("expected at least one number")
    return tuple(conv(p) for p in parts)


def _as_epsilons(s: str) -> tuple[float, ...]:
    return _as_floats(s, _fraction)


def _as_grid(s: str) -> tuple[int, int, int]:
    parts = s.replace(",", " ").split()
    if len(parts) not in (1, 3):
        raise ValueError("expected one or three grid sizes")
    # the smallest grid a StepConfig accepts
    sizes = tuple(_at_least(int, 6)(p) for p in parts)
    return sizes * 3 if len(sizes) == 1 else sizes  # type: ignore[return-value]


def _as_choice(*choices: str):
    def conv(s: str) -> str:
        v = s.strip().lower()
        if v not in choices:
            raise ValueError(f"expected one of {choices}, got {s!r}")
        return v

    return conv


def _as_profile(s: str) -> MobilityProfile:
    parts = s.split()
    if not parts:
        raise ValueError("empty profile")
    kind = parts[0].lower()
    if kind in ("poly", "polynomial"):
        coeffs = tuple(_as_float(p) for p in parts[1:])
        if not coeffs:
            raise ValueError("polynomial profile needs coefficients")
        return MobilityProfile(kind="polynomial", data=coeffs)
    if kind == "table":
        ss, hs = [], []
        for item in parts[1:]:
            if ":" not in item:
                raise ValueError(f"table entries are s:H pairs, got {item!r}")
            a, b = item.split(":", 1)
            ss.append(_as_float(a))
            hs.append(_as_float(b))
        return MobilityProfile(kind="table", data=(tuple(ss), tuple(hs)))
    raise ValueError(f"profile must start with 'poly' or 'table', got {parts[0]!r}")


def _as_modes(s: str) -> dict[Mode, float]:
    # "1 0 0 : 0.05, 0 1 0 : 0.02"
    out: dict[Mode, float] = {}
    for chunk in s.split(","):
        chunk = chunk.strip()
        if not chunk:
            continue
        if ":" not in chunk:
            raise ValueError(f"mode entries are 'k1 k2 k3 : amplitude', got {chunk!r}")
        idx, amp = chunk.rsplit(":", 1)
        k = tuple(int(v) for v in idx.split())
        if len(k) != 3:
            raise ValueError(f"mode index needs three integers, got {idx!r}")
        if k in out:
            raise ValueError(f"mode {k} given twice")
        out[k] = _as_float(amp)
    if not out:
        raise ValueError("expected at least one mode")
    return out


def _setting(conv, default=MISSING):
    """A settings field: the converter of its config value and its default;
    a field without a default is a required key."""
    return field(default=default, metadata={"conv": conv})


@dataclass(frozen=True)
class _PhysicalSettings:
    R: float = _setting(_positive)
    gamma: float = _setting(_positive)
    alpha: float = _setting(_positive)
    ubar: float = _setting(_fraction)
    T: float = _setting(_positive)


@dataclass(frozen=True)
class _MobilitySettings:
    profile: MobilityProfile | None = _setting(_as_profile, None)
    H0: float = _setting(_positive, 1.0)
    H1: float = _setting(_as_float, 0.0)
    H2: float = _setting(_as_float, 0.0)


@dataclass(frozen=True)
class _DomainSettings:
    L1: float = _setting(_positive)
    L2: float = _setting(_positive)
    L3: float = _setting(_positive)
    tie_tolerance: float = _setting(_nonnegative, 1e-12)


# the stepping settings a StepConfig shares take its defaults
_STEP = {f.name: f.default for f in fields(StepConfig)}


@dataclass(frozen=True)
class SimulateSettings:
    grid: tuple[int, int, int] = _setting(_as_grid, _STEP["grid"])
    dt: float = _setting(_positive, 0.05)
    t_end: float = _setting(_positive, 200.0)
    record_every: int = _setting(_count, 10)
    scheme: str = _setting(_as_choice(*StepConfig.SCHEMES), _STEP["scheme"])
    rhs: str = _setting(_as_choice(*StepConfig.RHS_FORMS), _STEP["rhs"])
    stabilization: float = _setting(_nonnegative, _STEP["stabilization"])
    seed_amplitude: float = _setting(_nonnegative, 1e-3)
    band_limit: int = _setting(_count, 4)
    seed_modes: dict[Mode, float] | None = _setting(_as_modes, None)
    save_final_field: bool = _setting(_as_bool, False)


@dataclass(frozen=True)
class ReduceSettings:
    y0: tuple[float, ...] = _setting(_as_floats, (0.01,))
    dt: float = _setting(_positive, 0.01)
    steps: int = _setting(_count, 20000)
    record_every: int = _setting(_count, 10)
    sigma_at: str = _setting(_as_choice("ambient", "critical"), "ambient")


@dataclass(frozen=True)
class SweepSettings:
    epsilons: tuple[float, ...] = _setting(_as_epsilons, (0.01, 0.02, 0.04, 0.06, 0.08))
    workers: int = _setting(_count, 2)


@dataclass(frozen=True)
class ValidateSettings:
    y0: tuple[float, ...] = _setting(_as_floats, (0.02,))
    relaxation_times: float = _setting(_positive, 1.0)


@dataclass(frozen=True)
class _RunSettings:
    seed: int = _setting(_at_least(int, 0), 0)


@dataclass(frozen=True)
class RunConfig:
    physical: PhysicalParams
    domain: DomainSpec
    T: float
    simulate: SimulateSettings
    reduce: ReduceSettings
    sweep: SweepSettings
    validate: ValidateSettings
    seed: int


_SECTIONS = {
    "physical": _PhysicalSettings,
    "mobility": _MobilitySettings,
    "domain": _DomainSettings,
    "simulate": SimulateSettings,
    "reduce": ReduceSettings,
    "sweep": SweepSettings,
    "validate": ValidateSettings,
    "run": _RunSettings,
}


def _read(cls, header: int | None, raw: dict[str, tuple[str, int]], path, name: str):
    """The settings ``cls`` of section ``[name]``, whose header is on line
    ``header`` (``None`` when the file has no such section): each key
    converted in field order by its field's converter, an absent one at the
    field's default; a missing required key (at the header), a bad value
    and then an unknown key are refused."""
    values = {}
    for f in fields(cls):
        if f.name not in raw:
            if f.default is MISSING:
                raise ConfigError(
                    f"missing key {f.name!r} in section [{name}]", path, header
                )
            continue
        value, lineno = raw[f.name]
        try:
            values[f.name] = f.metadata["conv"](value)
        except ValueError as exc:
            raise ConfigError(f"bad value for {f.name!r}: {exc}", path, lineno)
    for key, (_, lineno) in raw.items():
        if key not in values:
            raise ConfigError(f"unknown key {key!r} in section [{name}]", path, lineno)
    return cls(**values)


def load_config(path) -> RunConfig:
    parsed = parse_kv_file(path)
    for name, (header, _) in parsed.items():
        if name not in _SECTIONS:
            raise ConfigError(f"unknown section [{name}]", path, header)
    raw = {name: keys for name, (_, keys) in parsed.items()}
    read = {
        name: _read(cls, *parsed.get(name, (None, {})), path, name)
        for name, cls in _SECTIONS.items()
    }

    def error_at(name: str, key: str, message: str) -> ConfigError:
        return ConfigError(message, path, raw[name][key][1])

    phys, mob, dom, simulate = (read[n] for n in ("physical", "mobility", "domain", "simulate"))
    if mob.profile is None:
        mobility = MobilitySpec(mob.H0, mob.H1, mob.H2)
    else:
        try:
            mobility = MobilitySpec.from_profile(mob.profile, phys.ubar)
        except ValueError as exc:
            raise error_at("mobility", "profile", f"bad value for 'profile': {exc}")
        for key in ("H0", "H1", "H2"):
            if key in raw["mobility"]:
                raise error_at("mobility", key, f"{key!r} is set by 'profile'")
    physical = PhysicalParams(
        R=phys.R, gamma=phys.gamma, alpha=phys.alpha, ubar=phys.ubar, mobility=mobility
    )
    try:
        domain = DomainSpec(lengths=(dom.L1, dom.L2, dom.L3), tie_tolerance=dom.tie_tolerance)
    except ValueError as exc:
        # the converters leave DomainSpec one rule, L1 >= L2 >= L3: name the
        # first length that exceeds the one before it
        raise error_at("domain", "L2" if dom.L2 > dom.L1 else "L3", str(exc))

    if simulate.seed_modes is not None:
        try:
            field_from_modes(simulate.seed_modes, simulate.grid, domain)
        except ValueError as exc:
            raise error_at("simulate", "seed_modes", f"bad value for 'seed_modes': {exc}")
    # a given y0 carries one amplitude per critical mode (the domain's
    # multiplicity); the command that uses the one-component default checks it
    m = domain.multiplicity
    for name in ("reduce", "validate"):
        if "y0" in raw.get(name, {}) and len(read[name].y0) != m:
            raise error_at(
                name,
                "y0",
                f"bad value for 'y0': {len(read[name].y0)} components but the domain "
                f"carries {m} critical modes",
            )

    return RunConfig(
        physical=physical,
        domain=domain,
        T=phys.T,
        simulate=simulate,
        reduce=read["reduce"],
        sweep=read["sweep"],
        validate=read["validate"],
        seed=read["run"].seed,
    )
