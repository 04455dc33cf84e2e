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
``tie_tolerance``); there is no ``case`` key.  Each of the sections
[simulate], [reduce], [sweep] and [validate] is one settings dataclass
whose fields carry each key's default and converter.  Unknown keys and
sections are rejected with the offending line number, and so are values
out of range:

- positive: ``dt`` (in [simulate] and [reduce]), ``t_end``,
  ``relaxation_times``;
- at least 1: ``record_every`` (in [simulate] and [reduce]), ``steps``,
  ``workers``, ``band_limit``;
- at least 6: each ``grid`` size;
- nonnegative: ``stabilization``, ``seed_amplitude``, ``tie_tolerance``,
  ``seed``;
- inside (0, 1): each of ``epsilons``;
- ``seed_modes``: distinct modes, each three nonnegative integers, not all
  zero, below the ``grid`` size along each axis;
- ``y0`` (in [reduce] and [validate]): one amplitude per critical mode.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, fields

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


def parse_kv_file(path) -> dict[str, dict[str, tuple[str, int]]]:
    """Parse ``[section]`` / ``key = value`` lines, keeping line numbers."""
    sections: dict[str, dict[str, tuple[str, int]]] = {}
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
                sections.setdefault(current, {})
                continue
            if "=" not in line:
                raise ConfigError(f"expected 'key = value', got {line!r}", path, lineno)
            if current is None:
                raise ConfigError("key outside any [section]", path, lineno)
            key, value = (part.strip() for part in line.split("=", 1))
            if not key:
                raise ConfigError("empty key", path, lineno)
            if key in sections[current]:
                raise ConfigError(f"duplicate key {key!r}", path, lineno)
            sections[current][key] = (value, lineno)
    return sections


class _Section:
    def __init__(self, path, name: str, raw: dict[str, tuple[str, int]]):
        self.path = path
        self.name = name
        self.raw = dict(raw)
        self.seen: set[str] = set()

    def _take(self, key: str):
        self.seen.add(key)
        return self.raw.get(key)

    def require(self, key: str, conv):
        item = self._take(key)
        if item is None:
            raise ConfigError(f"missing key {key!r} in section [{self.name}]", self.path)
        return self._convert(key, item, conv)

    def optional(self, key: str, conv, default):
        item = self._take(key)
        if item is None:
            return default
        return self._convert(key, item, conv)

    def _convert(self, key: str, item: tuple[str, int], conv):
        value, lineno = item
        try:
            return conv(value)
        except ConfigError:
            raise
        except Exception as exc:
            raise ConfigError(f"bad value for {key!r}: {exc}", self.path, lineno)

    def reject_unknown(self) -> None:
        for key, (_, lineno) in self.raw.items():
            if key not in self.seen:
                raise ConfigError(
                    f"unknown key {key!r} in section [{self.name}]", self.path, lineno
                )


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


def _as_floats(s: str) -> tuple[float, ...]:
    parts = s.replace(",", " ").split()
    if not parts:
        raise ValueError("expected at least one number")
    return tuple(_as_float(p) for p in parts)


def _as_epsilons(s: str) -> tuple[float, ...]:
    eps = _as_floats(s)
    if not all(0.0 < e < 1.0 for e in eps):
        raise ValueError("each must lie in (0, 1)")
    return eps


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


def _setting(conv, default):
    """A settings field: its default and the converter of its config value."""
    return field(default=default, metadata={"conv": conv})


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
class RunConfig:
    physical: PhysicalParams
    domain: DomainSpec
    T: float
    simulate: SimulateSettings
    reduce: ReduceSettings
    sweep: SweepSettings
    validate: ValidateSettings
    seed: int


_KNOWN_SECTIONS = {
    "physical", "mobility", "domain", "simulate", "reduce", "sweep", "validate", "run",
}


def _settings(cls, sec: _Section):
    """The settings ``cls`` from ``sec``: each key read in field order by its
    field's converter, an absent one at the field's default."""
    values = {f.name: sec.optional(f.name, f.metadata["conv"], f.default) for f in fields(cls)}
    sec.reject_unknown()
    return cls(**values)


def load_config(path) -> RunConfig:
    raw = parse_kv_file(path)
    for name in raw:
        if name not in _KNOWN_SECTIONS:
            raise ConfigError(f"unknown section [{name}]", path)

    def section(name: str) -> _Section:
        return _Section(path, name, raw.get(name, {}))

    phys = section("physical")
    r = phys.require("R", _as_float)
    gamma = phys.require("gamma", _as_float)
    alpha = phys.require("alpha", _as_float)
    ubar = phys.require("ubar", _as_float)
    temp = phys.require("T", _as_float)
    phys.reject_unknown()

    mob = section("mobility")
    mobility = mob.optional(
        "profile", lambda s: MobilitySpec.from_profile(_as_profile(s), ubar), None
    )
    taylor = {"H0": 1.0, "H1": 0.0, "H2": 0.0}
    for key, default in taylor.items():
        if mobility is not None and key in mob.raw:
            raise ConfigError(f"{key!r} is set by 'profile'", path, mob.raw[key][1])
        taylor[key] = mob.optional(key, _as_float, default)
    mob.reject_unknown()

    dom = section("domain")
    l1 = dom.require("L1", _as_float)
    l2 = dom.require("L2", _as_float)
    l3 = dom.require("L3", _as_float)
    tie_tol = dom.optional("tie_tolerance", _nonnegative, 1e-12)
    dom.reject_unknown()

    try:
        if mobility is None:
            mobility = MobilitySpec(*taylor.values())
        physical = PhysicalParams(R=r, gamma=gamma, alpha=alpha, ubar=ubar, mobility=mobility)
        domain = DomainSpec(lengths=(l1, l2, l3), tie_tolerance=tie_tol)
    except ValueError as exc:
        raise ConfigError(str(exc), path)

    sim = section("simulate")
    simulate = _settings(SimulateSettings, sim)
    if simulate.seed_modes is not None:
        try:
            field_from_modes(simulate.seed_modes, simulate.grid, domain)
        except ValueError as exc:
            raise ConfigError(
                f"bad value for 'seed_modes': {exc}", path, sim.raw["seed_modes"][1]
            )
    red = section("reduce")
    reduce_ = _settings(ReduceSettings, red)
    sweep = _settings(SweepSettings, section("sweep"))
    val = section("validate")
    validate = _settings(ValidateSettings, val)
    # a given y0 carries one amplitude per critical mode (the domain's
    # multiplicity); the command that uses the one-component default checks it
    m = domain.multiplicity
    for sec, settings in ((red, reduce_), (val, validate)):
        if "y0" in sec.raw and len(settings.y0) != m:
            raise ConfigError(
                f"bad value for 'y0': {len(settings.y0)} components but the domain "
                f"carries {m} critical modes",
                path,
                sec.raw["y0"][1],
            )

    run = section("run")
    seed = run.optional("seed", _at_least(int, 0), 0)
    run.reject_unknown()

    return RunConfig(
        physical=physical,
        domain=domain,
        T=temp,
        simulate=simulate,
        reduce=reduce_,
        sweep=sweep,
        validate=validate,
        seed=seed,
    )
