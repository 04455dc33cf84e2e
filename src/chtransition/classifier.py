"""Transition classification: type, bifurcation side, equilibrium census.

The decision rests solely on the discriminants ``B1, B2, B3`` at the
critical temperature; the discriminant indexed by the critical-mode count
``m`` decides the type, and the sign of ``B_s`` puts the states supported
on ``s`` critical modes below (``B_s > 0``) or above the critical
temperature.  The mobility cancels out of every decision quantity, so the
classification is identical for any admissible mobility.

Continuous (Type I) transitions bifurcate below the critical temperature to
a local attractor carrying ``3^m - 1`` steady states; discontinuous
(Type II) ones produce the same number of saddles on, or split across, the
two sides.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass, field
from enum import Enum

from .manifold import (
    DegenerateCubicError,
    Equilibrium,
    EquilibriumKind,
    cubic_coefficients,
    enumerate_equilibria,
    equal_cubic_coefficients,
    vanishing_cubic_denominator,
)
from .params import (
    DomainSpec,
    PhysicalParams,
    critical_temperature,
    transition_discriminants,
)

__all__ = [
    "TransitionType",
    "Side",
    "SideCensus",
    "TransitionReport",
    "CensusCheck",
    "MarginalTransitionError",
    "classify_transition",
    "bifurcated_amplitude",
    "census_check",
]

SCHEMA_VERSION = 1

_CONTINUUM_NOTE = (
    "equal cubic coefficients: the bifurcated attractor is a "
    "continuum of steady states, census not enumerated"
)


class MarginalTransitionError(ValueError):
    """The deciding discriminant is numerically zero; the cubic truncation
    cannot determine the transition."""


class TransitionType(Enum):
    TYPE_I = "I"
    TYPE_II = "II"


class Side(Enum):
    BELOW = "below"
    ABOVE = "above"
    BOTH = "both"


@dataclass(frozen=True)
class SideCensus:
    attractors: int = 0
    saddles: int = 0

    @property
    def total(self) -> int:
        return self.attractors + self.saddles

    def as_dict(self) -> dict:
        return {"attractors": self.attractors, "saddles": self.saddles, "total": self.total}


@dataclass(frozen=True)
class TransitionReport:
    """Complete classification record.

    ``census`` counts equilibria per side in full-system terms: every
    non-attracting bifurcated state is a saddle of the full dynamics (for
    ``m=1`` these appear as repellers of the one-dimensional reduced
    system).  ``amplitude_coefficient`` is the constant ``c`` of the
    square-root law ``|y*| = c*sqrt(|Tc - T|)`` for ``m=1``.
    """

    tc: float
    m: int
    B: tuple[float, float, float]
    transition_type: TransitionType
    side: Side
    census: dict[Side, SideCensus]
    amplitude_coefficient: float | None = None
    attractor_topology: str | None = None
    minimal_attractors: int | None = None
    notes: tuple[str, ...] = ()
    schema_version: int = SCHEMA_VERSION

    def as_dict(self) -> dict:
        return {
            "schema_version": self.schema_version,
            "Tc": self.tc,
            "m": self.m,
            "B": list(self.B),
            "type": self.transition_type.value,
            "side": self.side.value,
            "census": {s.value: c.as_dict() for s, c in self.census.items()},
            "amplitude_coefficient": self.amplitude_coefficient,
            "attractor_topology": self.attractor_topology,
            "minimal_attractors": self.minimal_attractors,
            "notes": list(self.notes),
        }

    def to_text(self) -> str:
        lines = [
            f"critical temperature Tc = {self.tc:.12g}",
            f"critical multiplicity m = {self.m}",
            "discriminants B1, B2, B3 = "
            + ", ".join(f"{b:.12g}" for b in self.B),
            f"transition type: {self.transition_type.value}"
            + (" (continuous)" if self.transition_type is TransitionType.TYPE_I else " (jump)"),
            f"bifurcated states on: T {'<' if self.side is Side.BELOW else '>' if self.side is Side.ABOVE else '<> (both sides of)'} Tc",
        ]
        for side in (Side.BELOW, Side.ABOVE):
            c = self.census.get(side)
            if c is not None and c.total:
                lines.append(
                    f"  {side.value} Tc: {c.total} equilibria "
                    f"({c.attractors} attractors, {c.saddles} saddles)"
                )
        if self.amplitude_coefficient is not None:
            lines.append(
                f"amplitude law: |y*| = {self.amplitude_coefficient:.12g} * sqrt(|Tc - T|)"
            )
        if self.attractor_topology is not None:
            lines.append(f"bifurcated attractor topology: {self.attractor_topology}")
        if self.minimal_attractors is not None:
            lines.append(f"minimal attractors: {self.minimal_attractors}")
        for note in self.notes:
            lines.append(f"note: {note}")
        return "\n".join(lines)


def _marginal_guard(a1: float, a2: float, s: int) -> None:
    """Refuse ``B_s`` when the states on ``s`` modes cannot be placed: the
    test `enumerate_equilibria` applies to their cubic denominator."""
    if vanishing_cubic_denominator(a1, a2, s):
        raise MarginalTransitionError(
            f"B{s} is marginal (|a1 + (s-1)*a2| <= 1e-12 * (|a1| + |a2|) at s = {s}): "
            "undetermined by the cubic truncation"
        )


def _square_root_coefficient(p: PhysicalParams, b1: float, dT: float) -> float:
    """``sqrt(4*R*dT / (3*|B1|*ubar*(1 - ubar)))``: the bifurcated amplitude
    of a single critical mode at distance ``dT`` from the critical
    temperature."""
    return math.sqrt(4.0 * p.R * dT / (3.0 * abs(b1) * p.ubar * (1.0 - p.ubar)))


def classify_transition(p: PhysicalParams, d: DomainSpec) -> TransitionReport:
    """Classify the transition for the given physical setup.

    One rule gives the census for every multiplicity ``m``.  The
    ``n_s = 2^s * C(m, s)`` states supported on ``s`` critical modes carry
    squared amplitudes ``beta / (a1 + (s-1)*a2)`` (``a1, a2`` from
    `cubic_coefficients`), and ``a1 + (s-1)*a2`` is a positive multiple of
    ``B_s`` (see `Discriminants`).  As ``beta > 0`` below the critical
    temperature, they bifurcate below it when ``B_s > 0`` and above it when
    ``B_s < 0``.  Since ``B1 >= B2 >= B3``, ``B_m > 0`` (Type I) puts every
    state below; its attractors are the ``n_m`` states on all modes when
    ``sigma1 > sigma2`` and otherwise the ``n_1`` states on one mode (for
    ``m = 1`` both are the same two states).  When ``sigma1 = sigma2`` to
    rounding (`equal_cubic_coefficients`, which needs ``B_m > 0``) and
    ``m >= 2``, the states below form a sphere instead: the report notes the
    continuum and leaves the census empty.  In Type II every state is a
    saddle of the full dynamics, and the states lie on both sides when any
    lies below.

    Raises ``MarginalTransitionError`` when some ``B_s`` (``s <= m``)
    vanishes to rounding, since the cubic truncation cannot then decide.
    The test is `vanishing_cubic_denominator` on ``a1 + (s-1)*a2``, the one
    `enumerate_equilibria` applies, so the two refuse the same inputs.
    """
    tc = critical_temperature(p, d)
    disc = transition_discriminants(p, d)
    a1, a2 = cubic_coefficients(p, d)
    m = d.multiplicity
    bs = (disc.B1, disc.B2, disc.B3)
    for s in (m, *range(1, m)):
        _marginal_guard(a1, a2, s)
    n = [2**s * math.comb(m, s) for s in range(1, m + 1)]
    below = sum(n_s for n_s, b in zip(n, bs) if b > 0)
    above = 3**m - 1 - below

    notes: list[str] = []
    amplitude = _square_root_coefficient(p, disc.B1, 1.0) if m == 1 else None
    topology = None
    minimal = None
    if bs[m - 1] > 0:
        ttype, side = TransitionType.TYPE_I, Side.BELOW
        attractors = n[m - 1] if disc.sigma1 > disc.sigma2 else n[0]
        census = {
            Side.BELOW: SideCensus(attractors, below - attractors),
            Side.ABOVE: SideCensus(),
        }
        if m > 1:
            topology = f"S^{m - 1}"
            # the test `enumerate_equilibria` applies, on the same coefficients
            if equal_cubic_coefficients(a1, a2):
                census = {Side.BELOW: SideCensus(), Side.ABOVE: SideCensus()}
                notes.append(_CONTINUUM_NOTE)
            elif m == 3:
                # the eight diagonal states attract when the self-coupling
                # dominates, equivalently b3 < 22*L^2*b2^2/(9*alpha*pi^2)
                minimal = attractors
        if m == 3 and p.alpha != 1.0:
            notes.append(
                "the minimal-attractor threshold compares b3 against "
                "22*L^2*b2^2/(9*alpha*pi^2), with the gradient coefficient "
                "in the denominator"
            )
    else:
        ttype = TransitionType.TYPE_II
        side = Side.BOTH if below else Side.ABOVE
        census = {Side.BELOW: SideCensus(saddles=below), Side.ABOVE: SideCensus(saddles=above)}
        if m == 1:
            notes.append(
                "the two bifurcated states are saddles of the full dynamics; "
                "in the one-dimensional reduced system they appear as repellers"
            )

    return TransitionReport(
        tc=tc,
        m=m,
        B=bs,
        transition_type=ttype,
        side=side,
        census=census,
        amplitude_coefficient=amplitude,
        attractor_topology=topology,
        minimal_attractors=minimal,
        notes=tuple(notes),
    )


def bifurcated_amplitude(p: PhysicalParams, d: DomainSpec, T: float) -> float:
    """Amplitude of the two bifurcated states for a single critical mode:
    ``sqrt(4*R*|Tc - T| / (3*|B1|*ubar*(1 - ubar)))``.

    Requires ``m = 1``, a nonzero deciding discriminant and ``T`` on the
    bifurcated side (below the critical temperature for a continuous
    transition, above for a jump).
    """
    if d.multiplicity != 1:
        raise ValueError("the closed-form amplitude law applies to a single critical mode")
    tc = critical_temperature(p, d)
    disc = transition_discriminants(p, d)
    _marginal_guard(*cubic_coefficients(p, d), 1)
    if disc.B1 > 0 and T > tc:
        raise ValueError("continuous transition: bifurcated states exist below Tc only")
    if disc.B1 < 0 and T < tc:
        raise ValueError("jump transition: bifurcated states exist above Tc only")
    return _square_root_coefficient(p, disc.B1, abs(tc - T))


@dataclass(frozen=True)
class CensusCheck:
    """Comparison of the theorem census against direct enumeration."""

    matches: bool
    expected: dict[Side, SideCensus]
    observed: dict[Side, SideCensus]
    mismatches: tuple[str, ...] = ()
    equilibria: dict[Side, tuple[Equilibrium, ...]] = field(default_factory=dict)

    def as_dict(self) -> dict:
        return {
            "matches": self.matches,
            "expected": {s.value: c.as_dict() for s, c in self.expected.items()},
            "observed": {s.value: c.as_dict() for s, c in self.observed.items()},
            "mismatches": list(self.mismatches),
            "equilibria": {
                s.value: [e.as_dict() for e in es] for s, es in self.equilibria.items()
            },
        }


def census_check(
    report: TransitionReport,
    p: PhysicalParams,
    d: DomainSpec,
    offset: float = 0.02,
) -> CensusCheck:
    """Re-derive the equilibrium census by enumeration on both sides of the
    critical temperature (relative ``offset``) and compare with the report.

    A mismatch is recorded, not raised.  An enumeration that finds the
    equal-coefficient continuum is no mismatch when the report declares it.
    """
    observed: dict[Side, SideCensus] = {}
    equilibria: dict[Side, tuple[Equilibrium, ...]] = {}
    mismatches: list[str] = []
    for side, T in (
        (Side.BELOW, report.tc * (1.0 - offset)),
        (Side.ABOVE, report.tc * (1.0 + offset)),
    ):
        try:
            eqs = enumerate_equilibria(p, d, T, sigma_at="critical")
        except DegenerateCubicError as exc:
            # expected where the report declares the continuum
            if _CONTINUUM_NOTE not in report.notes:
                mismatches.append(f"{side.value}: enumeration degenerate ({exc})")
            observed[side] = SideCensus()
            equilibria[side] = ()
            continue
        kinds = Counter(e.kind for e in eqs)
        # a repelling state of the reduced system is a saddle of the full one
        observed[side] = SideCensus(
            attractors=kinds[EquilibriumKind.ATTRACTOR],
            saddles=kinds[EquilibriumKind.SADDLE] + kinds[EquilibriumKind.REPELLER],
        )
        equilibria[side] = tuple(eqs)
        if degenerate := kinds[EquilibriumKind.DEGENERATE]:
            mismatches.append(f"{side.value}: {degenerate} degenerate points")
    for side in (Side.BELOW, Side.ABOVE):
        exp = report.census.get(side, SideCensus())
        obs = observed[side]
        if (exp.attractors, exp.saddles) != (obs.attractors, obs.saddles):
            mismatches.append(
                f"{side.value}: expected {exp.as_dict()}, enumerated {obs.as_dict()}"
            )
    return CensusCheck(
        matches=not mismatches,
        expected=dict(report.census),
        observed=observed,
        mismatches=tuple(mismatches),
        equilibria=equilibria,
    )
