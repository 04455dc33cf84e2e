"""Physical inputs of the binary-mixture model and its derived coefficients.

The free energy of the mixture is quartic in the deviation ``u`` from the
homogeneous molar fraction ``ubar``, with coefficients ``b1, b2, b3``
depending on temperature via the entropy-of-mixing terms.  The instability
threshold of the homogeneous state and the cubic discriminants ``B1, B2, B3``
that decide the transition scenario are all closed-form expressions in the
physical inputs; this module computes them.

All types are immutable after construction and safe to share across threads.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from enum import Enum
from typing import Literal

import numpy as np

__all__ = [
    "MobilityProfile",
    "MobilitySpec",
    "PhysicalParams",
    "DomainCase",
    "DomainSpec",
    "Coefficients",
    "Discriminants",
    "NoSupercriticalRegimeError",
    "derive_coefficients",
    "critical_temperature",
    "transition_discriminants",
]


class NoSupercriticalRegimeError(ValueError):
    """Raised when the repulsion is too weak for any positive transition
    temperature to exist (``2*gamma <= alpha*pi**2/L1**2``)."""


@dataclass(frozen=True)
class MobilityProfile:
    """Full mobility curve ``s -> H(s)`` over the molar-fraction range.

    ``polynomial`` profiles store coefficients in increasing powers of ``s``;
    ``table`` profiles store ``(s_samples, H_samples)`` and are evaluated by
    linear interpolation.  ``lower_bound`` is the declared strictly positive
    floor of ``H``; it is verified on a dense sample of ``sample_range``.
    """

    kind: Literal["polynomial", "table"]
    data: tuple
    lower_bound: float = 1e-8
    sample_range: tuple[float, float] = (0.0, 1.0)

    def __post_init__(self) -> None:
        if self.lower_bound <= 0.0:
            raise ValueError("mobility lower bound must be strictly positive")
        if self.kind not in ("polynomial", "table"):
            raise ValueError(f"unknown mobility profile kind {self.kind!r}")
        if self.kind == "polynomial":
            object.__setattr__(self, "data", tuple(float(c) for c in self.data))
            if not self.data:
                raise ValueError("polynomial profile needs at least one coefficient")
        else:
            s, h = self.data
            s = tuple(float(v) for v in s)
            h = tuple(float(v) for v in h)
            if len(s) != len(h) or len(s) < 2:
                raise ValueError("table profile needs matching s/H samples, at least two")
            if any(b <= a for a, b in zip(s, s[1:])):
                raise ValueError("table abscissae must be strictly increasing")
            object.__setattr__(self, "data", (s, h))
        lo, hi = self.sample_range
        samples = self(np.linspace(lo, hi, 2001))
        if samples.min() < self.lower_bound:
            raise ValueError(
                f"mobility profile drops to {samples.min():.3g}, below the declared "
                f"lower bound {self.lower_bound:.3g} on {self.sample_range}"
            )

    def __call__(self, s, out=None):
        """``H(s)``, written into ``out`` (shaped like ``s``) when given.  A
        polynomial is evaluated in place by Horner's rule, rounded as numpy's
        ``polyval``."""
        s = np.asarray(s, dtype=float)
        if self.kind == "polynomial":
            out = np.multiply(s, 0.0, out=out)
            out += self.data[-1]
            for c in reversed(self.data[:-1]):
                out *= s
                out += c
            return out
        xs, hs = self.data
        h = np.interp(s, xs, hs)
        if out is None:
            return h
        out[...] = h
        return out

    def taylor_data(self, ubar: float) -> tuple[float, float, float]:
        """``(H(ubar), H'(ubar), H''(ubar))``, exact for both kinds.  A table
        is linear inside each segment (constant beyond its ends); at a knot
        ``H'`` is undefined and ``ValueError`` is raised."""
        if self.kind == "polynomial":
            poly = np.polynomial.Polynomial(self.data)
            d1 = poly.deriv(1)
            d2 = poly.deriv(2) if len(self.data) > 2 else None
            return (
                float(poly(ubar)),
                float(d1(ubar)),
                float(d2(ubar)) if d2 is not None else 0.0,
            )
        xs, hs = self.data
        i = int(np.searchsorted(xs, ubar))
        if i < len(xs) and xs[i] == ubar:
            raise ValueError(
                f"ubar = {ubar:g} sits on the table knot s = {xs[i]:g}, where the "
                "mobility has no derivative; move the knot off ubar"
            )
        slope = 0.0 if i in (0, len(xs)) else (hs[i] - hs[i - 1]) / (xs[i] - xs[i - 1])
        return float(self(ubar)), slope, 0.0


@dataclass(frozen=True)
class MobilitySpec:
    """Onsager mobility description.

    ``h0, h1, h2`` are the value and first two derivatives of ``H`` at the
    mean fraction; the truncated evolution model and the reduced dynamics use
    only these.  ``profile`` optionally carries the full curve ``H(s)`` for
    the divergence-form simulator; with a profile, build the spec with
    `from_profile`, which derives ``h0, h1, h2`` from it (`PhysicalParams`
    rejects Taylor data that disagree with the profile at its ``ubar``).
    """

    h0: float
    h1: float = 0.0
    h2: float = 0.0
    profile: MobilityProfile | None = None

    def __post_init__(self) -> None:
        if self.h0 <= 0.0:
            raise ValueError("mobility at the mean fraction must be positive")

    @classmethod
    def from_profile(cls, profile: MobilityProfile, ubar: float) -> "MobilitySpec":
        h0, h1, h2 = profile.taylor_data(ubar)
        return cls(h0=h0, h1=h1, h2=h2, profile=profile)

    def taylor_value(self, s, out=None):
        """Quadratic Taylor truncation of ``H`` about the mean fraction,
        as a function of the deviation ``s - ubar`` folded in by the caller
        (argument is the deviation ``u`` itself), written into ``out``
        (shaped like ``u``) when given."""
        u = np.asarray(s, dtype=float)
        # h0 + h1*u + h2/2*u^2, rounded as that expression
        h = np.multiply(0.5 * self.h2, u, out=out)
        h *= u
        h += self.h1 * u + self.h0
        return h


@dataclass(frozen=True)
class PhysicalParams:
    """Physical inputs: gas constant ``R``, repulsion ``gamma``, gradient
    energy ``alpha``, mean molar fraction ``ubar`` and the mobility."""

    R: float
    gamma: float
    alpha: float
    ubar: float
    mobility: MobilitySpec = field(default_factory=lambda: MobilitySpec(h0=1.0))

    def __post_init__(self) -> None:
        if self.R <= 0.0:
            raise ValueError("R must be positive")
        if self.gamma <= 0.0:
            raise ValueError("gamma must be positive")
        if self.alpha <= 0.0:
            raise ValueError("alpha must be positive")
        if not 0.0 < self.ubar < 1.0:
            raise ValueError("ubar must lie strictly between 0 and 1")
        mob = self.mobility
        if mob.profile is not None and not all(
            math.isclose(a, b, rel_tol=1e-12, abs_tol=1e-12)
            for a, b in zip((mob.h0, mob.h1, mob.h2), mob.profile.taylor_data(self.ubar))
        ):
            raise ValueError(
                f"mobility h0, h1, h2 = {mob.h0:g}, {mob.h1:g}, {mob.h2:g} disagree with "
                f"the profile at ubar = {self.ubar:g}; build it with MobilitySpec.from_profile"
            )


class DomainCase(Enum):
    """Degeneracy pattern of the box edge lengths (sorted descending)."""

    DISTINCT = "distinct"
    TWO_EQUAL = "two_equal"
    ALL_EQUAL = "all_equal"

    @property
    def multiplicity(self) -> int:
        return {"distinct": 1, "two_equal": 2, "all_equal": 3}[self.value]


def _relatively_equal(a: float, b: float, tol: float) -> bool:
    return abs(a - b) <= tol * max(abs(a), abs(b))


@dataclass(frozen=True)
class DomainSpec:
    """Rectangular box ``(0, L1) x (0, L2) x (0, L3)`` with ``L1 >= L2 >= L3``.

    The degeneracy case is detected from the lengths under ``tie_tolerance``
    (relative) unless set explicitly.
    """

    lengths: tuple[float, float, float]
    case: DomainCase | None = None
    tie_tolerance: float = 1e-12

    def __post_init__(self) -> None:
        lengths = tuple(float(v) for v in self.lengths)
        if len(lengths) != 3 or any(v <= 0 for v in lengths):
            raise ValueError("domain needs three positive edge lengths")
        if not (lengths[0] >= lengths[1] >= lengths[2]):
            raise ValueError("edge lengths must be sorted: L1 >= L2 >= L3")
        object.__setattr__(self, "lengths", lengths)
        if self.case is None:
            object.__setattr__(self, "case", self._detect_case())

    def _detect_case(self) -> DomainCase:
        l1, l2, l3 = self.lengths
        if _relatively_equal(l1, l2, self.tie_tolerance):
            if _relatively_equal(l2, l3, self.tie_tolerance):
                return DomainCase.ALL_EQUAL
            return DomainCase.TWO_EQUAL
        return DomainCase.DISTINCT

    @property
    def L(self) -> float:
        """Longest edge, the one that sets the instability threshold."""
        return self.lengths[0]

    @property
    def volume(self) -> float:
        l1, l2, l3 = self.lengths
        return l1 * l2 * l3

    @property
    def multiplicity(self) -> int:
        """Number of simultaneously critical modes (1, 2 or 3)."""
        return self.case.multiplicity


@dataclass(frozen=True)
class Coefficients:
    """Polynomial coefficients of the expanded free-energy derivative.

    ``b3`` is a sum of positive cubes and is positive for every admissible
    temperature and mean fraction.
    """

    b1: float
    b2: float
    b3: float


@dataclass(frozen=True)
class Discriminants:
    """Transition discriminants at the critical temperature plus the cubic
    coefficient pair of the reduced dynamics.

    ``B1 >= B2 >= B3`` always, and at the critical temperature
    ``sigma1 = 1.5*B1``, ``sigma1 + sigma2 = 4.5*B2`` and
    ``sigma1 + 2*sigma2 = 7.5*B3``.  ``sigma_T`` records the temperature at
    which the sigma pair was evaluated.
    """

    B1: float
    B2: float
    B3: float
    sigma1: float
    sigma2: float
    sigma_T: float


def derive_coefficients(p: PhysicalParams, T: float) -> Coefficients:
    """Free-energy expansion coefficients at temperature ``T``.

    Raises ``ValueError`` for non-positive temperatures.
    """
    if T <= 0.0:
        raise ValueError("temperature must be positive")
    u = p.ubar
    v = 1.0 - u
    b1 = p.R * T / (u * v) - 2.0 * p.gamma
    b2 = 0.5 * p.R * T * (1.0 / v**2 - 1.0 / u**2)
    b3 = p.R * T / 3.0 * (1.0 / v**3 + 1.0 / u**3)
    return Coefficients(b1=b1, b2=b2, b3=b3)


def critical_temperature(p: PhysicalParams, d: DomainSpec) -> float:
    """Temperature at which the homogeneous state loses stability.

    Requires ``2*gamma > alpha*pi**2/L1**2``; otherwise there is no
    supercritical regime and ``NoSupercriticalRegimeError`` is raised.
    """
    L = d.L
    gap = 2.0 * p.gamma - p.alpha * math.pi**2 / L**2
    if gap <= 0.0:
        raise NoSupercriticalRegimeError(
            "no supercritical regime: 2*gamma must exceed alpha*pi^2/L1^2 "
            f"(got 2*gamma={2 * p.gamma:.6g}, alpha*pi^2/L1^2={p.alpha * math.pi**2 / L**2:.6g})"
        )
    return p.ubar * (1.0 - p.ubar) * gap / p.R


def transition_discriminants(
    p: PhysicalParams, d: DomainSpec, T: float | None = None
) -> Discriminants:
    """Discriminants ``B1, B2, B3`` (always at the critical temperature) and
    the cubic pair ``sigma1, sigma2`` evaluated at ``T`` (critical
    temperature by default)."""
    tc = critical_temperature(p, d)
    cb = derive_coefficients(p, tc)
    L = d.L
    q = L**2 * cb.b2**2 / (p.alpha * math.pi**2)
    b_1 = cb.b3 - 2.0 / 9.0 * q
    b_2 = cb.b3 - 26.0 / 27.0 * q
    b_3 = cb.b3 - 10.0 / 9.0 * q
    t_sigma = tc if T is None else float(T)
    cs = derive_coefficients(p, t_sigma)
    qs = L**2 * cs.b2**2 / (p.alpha * math.pi**2)
    sigma1 = 1.5 * cs.b3 - qs / 3.0
    sigma2 = 3.0 * cs.b3 - 4.0 * qs
    return Discriminants(
        B1=b_1, B2=b_2, B3=b_3, sigma1=sigma1, sigma2=sigma2, sigma_T=t_sigma
    )
