"""Center-manifold reduction near the critical temperature.

Close to the transition the stable-mode amplitudes are slaved to the
critical ones through a quadratic graph, and the dynamics collapses to a
cubic system for the critical amplitudes ``y`` with identical coefficients
in every component:

    dy_J/dt = beta(T)*y_J - (H0*pi^2/(2*L^2)) * y_J * (sigma1*y_J^2
              + sigma2*sum_{L != J} y_L^2)

The system is a gradient flow of a quartic potential, its steady states can
be enumerated in closed form (3^m - 1 nonzero ones in the generic case) and
its critical-parameter version is a homogeneous cubic whose straight-line
orbits organise the local flow.
"""

from __future__ import annotations

import math
import sys
import warnings
from dataclasses import dataclass
from enum import Enum
from functools import lru_cache
from itertools import combinations, combinations_with_replacement, product

import numpy as np

from .linstab import critical_set, growth_rate
from .params import (
    DomainSpec,
    PhysicalParams,
    critical_temperature,
    derive_coefficients,
    transition_discriminants,
)
from .spectral import (
    Mode,
    cancellation_counts,
    counted_triple_product,
    laplacian_eigenvalue,
    mode_l2_norm_sq,
)

__all__ = [
    "ReducedState",
    "ManifoldCoeffs",
    "Equilibrium",
    "EquilibriumKind",
    "ReducedTrajectory",
    "DegenerateCubicError",
    "cm_coefficients",
    "cubic_coefficients",
    "equal_cubic_coefficients",
    "vanishing_cubic_denominator",
    "reduced_vector_field",
    "critical_vector_field",
    "reduced_potential",
    "enumerate_equilibria",
    "straight_line_orbits",
    "integrate_reduced",
]

# Relative size below which the cubic data of the reduced system count as
# degenerate: a gap between the two cubic coefficients, a cubic denominator
# or a Jacobian eigenvalue, each against |a1| + |a2| (times the squared
# amplitude for an eigenvalue).  One tolerance serves all three, so the
# report, which asks only `equal_cubic_coefficients`, and the enumeration
# always agree on the census.
_DEGENERATE_RTOL = 1e-12


class DegenerateCubicError(ValueError):
    """The cubic coefficients are degenerate (equal, or a family denominator
    vanishes); the steady states cannot be enumerated as isolated points."""


@dataclass(frozen=True)
class ReducedState:
    """Critical-mode amplitudes (ordered as the critical set) at temperature
    ``T``."""

    y: tuple[float, ...]
    T: float

    def __post_init__(self) -> None:
        y = tuple(float(v) for v in self.y)
        if len(y) not in (1, 2, 3):
            raise ValueError("reduced state must have 1, 2 or 3 components")
        object.__setattr__(self, "y", y)

    @property
    def m(self) -> int:
        return len(self.y)


@dataclass(frozen=True)
class ManifoldCoeffs:
    """Quadratic-slaving amplitudes of the stable modes, keyed by mode index.

    Supported on sums of pairs of critical modes; every amplitude is
    proportional to the quadratic free-energy coefficient and therefore
    vanishes at the symmetric mean fraction.
    """

    values: dict[Mode, float]

    def __getitem__(self, K: Mode) -> float:
        return self.values.get(tuple(K), 0.0)


def _critical_modes(p: PhysicalParams, d: DomainSpec, m: int) -> tuple[Mode, ...]:
    cset = critical_set(p, d)
    if cset.m != m:
        raise ValueError(
            f"state has {m} components but the domain carries {cset.m} critical modes"
        )
    return cset.modes


def cm_coefficients(
    state: ReducedState,
    p: PhysicalParams,
    d: DomainSpec,
    form: str = "leading",
) -> ManifoldCoeffs:
    """Slaved stable-mode amplitudes for critical amplitudes ``state.y``.

    ``form="leading"`` evaluates the closed-form leading order: the doubled
    mode ``2J`` carries ``-b2*y_J^2 / (6*alpha*rho_J)`` and the mixed mode
    ``J+L`` carries ``-2*b2*y_J*y_L / (alpha*rho_J)``.  ``form="quotient"``
    evaluates the unapproximated projection quotient (quadratic term
    projected on the stable mode, divided by its decay rate), which the
    leading order must reproduce at the critical temperature.  It raises
    ``ValueError`` when a slaved mode is resonant (zero growth rate).
    """
    if form not in ("leading", "quotient"):
        raise ValueError(f"unknown form {form!r}")
    tc = critical_temperature(p, d)
    if abs(state.T - tc) > 0.1 * tc:
        warnings.warn(
            "manifold approximation requested far from the critical temperature "
            f"(T={state.T:.6g}, Tc={tc:.6g})",
            stacklevel=2,
        )
    modes = _critical_modes(p, d, state.m)
    b2 = derive_coefficients(p, state.T).b2

    values: dict[Mode, float] = {}
    if form == "leading":
        y = dict(zip(modes, state.y))
        rho1 = laplacian_eigenvalue(modes[0], d)
        for J, L in combinations_with_replacement(modes, 2):
            K = tuple(a + b for a, b in zip(J, L))
            if J == L:
                values[K] = -b2 * y[J] ** 2 / (6.0 * p.alpha * rho1)
            else:
                values[K] = -2.0 * b2 * y[J] * y[L] / (p.alpha * rho1)
        return ManifoldCoeffs(values=values)

    h0 = p.mobility.h0
    for K, pairs in _quotient_table(modes):
        rho_k = laplacian_eigenvalue(K, d)
        decay = growth_rate(K, state.T, p, d) * mode_l2_norm_sq(K, d)
        if decay == 0.0:
            raise ValueError(
                f"slaved mode {K} is resonant at T={state.T!r}: its growth rate "
                "vanishes, so the projection quotient is undefined"
            )
        acc = 0.0
        for i, j, counts in pairs:
            acc += state.y[i] * state.y[j] * counted_triple_product(counts, d)
        values[K] = h0 * b2 * rho_k * acc / decay
    return ManifoldCoeffs(values=values)


@lru_cache(maxsize=None)
def _quotient_table(modes: tuple[Mode, ...]):
    """The slaved modes of the projection quotient on these critical modes,
    in sorted order, each with the ``m*m`` pairs ``(i, j)`` of critical
    modes in `product` order and their `cancellation_counts`.  The counts do not
    depend on the box, so one table serves every domain with these modes."""
    support = {tuple(a + b for a, b in zip(J, L)) for J, L in product(modes, repeat=2)}
    return tuple(
        (
            K,
            tuple(
                (i, j, cancellation_counts(modes[i], modes[j], K))
                for i, j in product(range(len(modes)), repeat=2)
            ),
        )
        for K in sorted(support)
    )


def cubic_coefficients(
    p: PhysicalParams, d: DomainSpec, T: float | None = None
) -> tuple[float, float]:
    """Coefficients ``(a1, a2)`` of the cubic terms of the reduced system,
    with the sigma pair evaluated at ``T`` (critical temperature when
    ``None``)."""
    disc = transition_discriminants(p, d, T=T)
    pref = p.mobility.h0 * math.pi**2 / (2.0 * d.L**2)
    return pref * disc.sigma1, pref * disc.sigma2


def equal_cubic_coefficients(a1: float, a2: float) -> bool:
    """Whether the two cubic coefficients agree to rounding (relative gap
    at most 1e-12).  Then every direction is alike for ``m >= 2``: the
    steady states on a side form a sphere, not isolated points."""
    scale = abs(a1) + abs(a2)
    return scale == 0.0 or abs(a1 - a2) <= _DEGENERATE_RTOL * scale


def vanishing_cubic_denominator(a1: float, a2: float, s: int) -> bool:
    """Whether the denominator ``a1 + (s-1)*a2`` of the states on ``s``
    critical modes vanishes to rounding (at most 1e-12 of ``|a1| + |a2|``).
    It is a positive multiple of ``B_s``, so the report refuses to place
    those states exactly when the enumeration cannot find them."""
    return abs(a1 + (s - 1) * a2) <= _DEGENERATE_RTOL * (abs(a1) + abs(a2))


def _reduced_coefficients(
    p: PhysicalParams, d: DomainSpec, m: int, T: float, sigma_at: str
) -> tuple[float, float, float]:
    """``(beta, a1, a2)`` of the reduced system on ``m`` critical modes at
    ``T``: the critical growth rate and the cubic coefficients, evaluated
    at ``T`` (``sigma_at="ambient"``) or at the critical temperature
    (``"critical"``)."""
    beta = growth_rate(_critical_modes(p, d, m)[0], T, p, d)
    if sigma_at not in ("ambient", "critical"):
        raise ValueError(f"sigma_at must be 'ambient' or 'critical', got {sigma_at!r}")
    a1, a2 = cubic_coefficients(p, d, T=T if sigma_at == "ambient" else None)
    return beta, a1, a2


def _field(
    x0: float, x1: float, x2: float, beta: float, a1: float, a2: float
) -> tuple[float, float, float]:
    """The reduced vector field at three amplitudes, on Python floats.  Each
    component keeps the operations and their order of the array expression
    ``beta*y - y*(a1*y*y + a2*(s - y*y))`` with ``s`` the sequential sum of
    squares, so the results are numpy's to the bit.  A system on fewer modes
    carries the absent ones as ``+0.0``, whose squares leave ``s`` as it is."""
    s = x0 * x0 + x1 * x1 + x2 * x2
    return (
        beta * x0 - x0 * (a1 * x0 * x0 + a2 * (s - x0 * x0)),
        beta * x1 - x1 * (a1 * x1 * x1 + a2 * (s - x1 * x1)),
        beta * x2 - x2 * (a1 * x2 * x2 + a2 * (s - x2 * x2)),
    )


def _field_at(y, beta: float, a1: float, a2: float) -> np.ndarray:
    """`_field` at 1 to 3 amplitudes ``y``, zero-padded to three, as an
    array of ``len(y)`` components."""
    return np.array(_field(*(*y, 0.0, 0.0)[:3], beta, a1, a2)[: len(y)])


def reduced_vector_field(
    state: ReducedState,
    p: PhysicalParams,
    d: DomainSpec,
    sigma_at: str = "ambient",
) -> np.ndarray:
    """Right-hand side of the reduced cubic system at ``state``.

    ``sigma_at`` selects where the cubic coefficients are evaluated:
    ``"ambient"`` (the state's temperature, the default) or ``"critical"``.
    """
    beta, a1, a2 = _reduced_coefficients(p, d, state.m, state.T, sigma_at)
    return _field_at(state.y, beta, a1, a2)


def critical_vector_field(
    y, p: PhysicalParams, d: DomainSpec
) -> np.ndarray:
    """Reduced field exactly at the transition: the linear term vanishes and
    the cubic coefficients are frozen at the critical temperature."""
    y = np.asarray(y, dtype=float)
    m = d.multiplicity
    if y.shape != (m,):
        raise ValueError(f"expected {m} components for this domain, got {y.shape}")
    a1, a2 = cubic_coefficients(p, d, T=None)
    return _field_at(y.tolist(), 0.0, a1, a2)


def reduced_potential(
    state: ReducedState,
    p: PhysicalParams,
    d: DomainSpec,
    sigma_at: str = "ambient",
) -> float:
    """Quartic potential whose negative gradient is the reduced field; it
    decreases along trajectories."""
    beta, a1, a2 = _reduced_coefficients(p, d, state.m, state.T, sigma_at)
    y = np.asarray(state.y, dtype=float)
    s = float((y * y).sum())
    quartic = float((y**4).sum())
    return -0.5 * beta * s + 0.25 * a1 * quartic + 0.25 * a2 * (s * s - quartic)


class EquilibriumKind(Enum):
    ATTRACTOR = "attractor"
    SADDLE = "saddle"
    REPELLER = "repeller"
    DEGENERATE = "degenerate"


@dataclass(frozen=True)
class Equilibrium:
    """Steady state of the reduced system with its linearisation data.

    ``kind`` classifies the reduced-system Jacobian; because the discarded
    modes are all strongly damped, a non-attracting kind corresponds to a
    saddle of the full dynamics.
    """

    y: tuple[float, ...]
    jacobian_eigs: tuple[float, ...]
    kind: EquilibriumKind
    residual: float

    def as_dict(self) -> dict:
        return {
            "y": list(self.y),
            "jacobian_eigenvalues": list(self.jacobian_eigs),
            "kind": self.kind.value,
            "residual": self.residual,
        }


@lru_cache(maxsize=None)
def _unit_states(m: int, s: int) -> np.ndarray:
    """The states on ``s`` of ``m`` modes with unit amplitudes, one per
    row: supports in lexicographic order, then signs with ``+`` first."""
    rows = []
    for support in combinations(range(m), s):
        for signs in product((1.0, -1.0), repeat=s):
            row = [0.0] * m
            for idx, sg in zip(support, signs):
                row[idx] = sg
            rows.append(row)
    out = np.array(rows)
    out.flags.writeable = False
    return out


def enumerate_equilibria(
    p: PhysicalParams,
    d: DomainSpec,
    T: float,
    sigma_at: str = "critical",
) -> list[Equilibrium]:
    """All nonzero steady states of the reduced system at temperature ``T``.

    Solutions are found in closed form by case analysis over which
    components vanish: on a support of size ``s`` every active component
    squares to ``beta / (a1 + (s-1)*a2)``.  Generic parameters give
    ``3^m - 1`` solutions in total across the two sides of the transition.

    The cubic coefficients are frozen at the critical temperature by default
    (``sigma_at="critical"``), matching the classification theory;
    ``sigma_at="ambient"`` uses the requested temperature instead.
    Degenerate cubic coefficients raise ``DegenerateCubicError``.

    All states are linearised at once: one stacked ``eigvalsh`` over their
    Jacobians, which runs the same LAPACK routine on each matrix.
    """
    m = d.multiplicity
    beta, a1, a2 = _reduced_coefficients(p, d, m, T, sigma_at)
    scale = abs(a1) + abs(a2)
    if equal_cubic_coefficients(a1, a2):
        raise DegenerateCubicError(
            "equal cubic coefficients: the steady states form a continuum "
            "and cannot be enumerated as isolated points"
        )

    states, tols = [], []
    for support_size in range(1, m + 1):
        if vanishing_cubic_denominator(a1, a2, support_size):
            raise DegenerateCubicError(
                f"vanishing cubic denominator for support size {support_size}"
            )
        q = beta / (a1 + (support_size - 1) * a2)
        if q <= 0.0:
            continue
        block = _unit_states(m, support_size) * math.sqrt(q)
        states.append(block)
        # a state on `support_size` modes has the eigenvalues -2*q*denom,
        # -2*q*(a1 - a2) and q*(a1 - a2): past the guards each exceeds
        # _DEGENERATE_RTOL*q*scale, and the half of it below leaves room for
        # the rounding of eigvalsh
        tols += [_DEGENERATE_RTOL * (0.5 * q * scale)] * len(block)
    if not states:
        return []

    # the amplitudes on a support are all equal in size, so every order of
    # summing their squares rounds alike
    y = np.concatenate(states)
    yy = y * y
    s = yy.sum(axis=1)[:, None]
    jac = -2.0 * a2 * (y[:, :, None] * y[:, None, :])
    diag = np.arange(m)
    jac[:, diag, diag] = beta - 3.0 * a1 * y * y - a2 * (s - yy)
    eigs = np.linalg.eigvalsh(jac).tolist()
    field = beta * y - y * (a1 * y * y + a2 * (s - yy))
    residual = np.abs(field).max(axis=1)
    return [
        Equilibrium(y=tuple(yi), jacobian_eigs=tuple(ei), kind=_kind(ei, tol), residual=r)
        for yi, ei, tol, r in zip(y.tolist(), eigs, tols, residual.tolist())
    ]


def _kind(eigs: list[float], tol: float) -> EquilibriumKind:
    """The kind of a state from its Jacobian eigenvalues: degenerate when
    one is within ``tol`` of zero, else by their signs (a NaN is neither
    sign, so it makes a saddle)."""
    negative = positive = True
    for e in eigs:
        if abs(e) <= tol:
            return EquilibriumKind.DEGENERATE
        negative = negative and e < 0.0
        positive = positive and e > 0.0
    if negative:
        return EquilibriumKind.ATTRACTOR
    if positive:
        return EquilibriumKind.REPELLER
    return EquilibriumKind.SADDLE


def straight_line_orbits(m: int) -> list[np.ndarray]:
    """Invariant line directions of the critical cubic system.

    Each line runs through a pair of ``±`` equilibria: one unit direction
    for each row of the equilibrium sign table (``_unit_states``) whose
    first nonzero entry is positive, support sizes ascending.  One line for
    ``m=1``; the two axes plus the two diagonals for ``m=2`` (four lines,
    eight orbits); the three axes, six in-plane diagonals and four space
    diagonals for ``m=3`` (thirteen lines, 26 orbits).  The counts are exact
    whenever the two cubic coefficients differ.
    """
    if m not in (1, 2, 3):
        raise ValueError("m must be 1, 2 or 3")
    return [
        row / np.linalg.norm(row)
        for s in range(1, m + 1)
        for row in _unit_states(m, s)
        if row[np.flatnonzero(row)[0]] > 0.0
    ]


@dataclass(frozen=True)
class ReducedTrajectory:
    """Fixed-step integration record; ``escaped`` flags a blow-up stop."""

    times: np.ndarray
    states: np.ndarray  # shape (n_records, m)
    escaped: bool

    @property
    def final(self) -> np.ndarray:
        return self.states[-1]


def _rk4_2(y, beta, a1, a2, dt, steps, record_every, bound):
    """The RK4 loop of `integrate_reduced` on two amplitudes, the field
    written out at each stage: calls cost more than the arithmetic.  Each
    stage keeps the operations of `_field` in their order and ``s`` sums the
    squares of the amplitudes carried (the ``+0.0`` square of a mode absent
    from the kernel or from the system leaves its bits as they are), so the
    states are `_field`'s and numpy's to the bit.  The range test fails on NaN, on infinities and beyond
    ``bound``."""
    half, sixth, low = 0.5 * dt, dt / 6.0, -bound
    u, v = y
    times, states = [0.0], [y]
    for n in range(1, steps + 1):
        s = (p := u * u) + (q := v * v)
        k1, l1 = (beta * u - u * (a1 * u * u + a2 * (s - p)),
                  beta * v - v * (a1 * v * v + a2 * (s - q)))
        x, z = u + half * k1, v + half * l1
        s = (p := x * x) + (q := z * z)
        k2, l2 = (beta * x - x * (a1 * x * x + a2 * (s - p)),
                  beta * z - z * (a1 * z * z + a2 * (s - q)))
        x, z = u + half * k2, v + half * l2
        s = (p := x * x) + (q := z * z)
        k3, l3 = (beta * x - x * (a1 * x * x + a2 * (s - p)),
                  beta * z - z * (a1 * z * z + a2 * (s - q)))
        x, z = u + dt * k3, v + dt * l3
        s = (p := x * x) + (q := z * z)
        k4, l4 = (beta * x - x * (a1 * x * x + a2 * (s - p)),
                  beta * z - z * (a1 * z * z + a2 * (s - q)))
        u = u + sixth * (((k1 + 2.0 * k2) + 2.0 * k3) + k4)
        v = v + sixth * (((l1 + 2.0 * l2) + 2.0 * l3) + l4)
        if not (low <= u <= bound and low <= v <= bound):
            return times, states, True
        if n % record_every == 0 or n == steps:
            times.append(n * dt)
            states.append((u, v))
    return times, states, False


def _rk4_3(y, beta, a1, a2, dt, steps, record_every, bound):
    """`_rk4_2` on three amplitudes."""
    half, sixth, low = 0.5 * dt, dt / 6.0, -bound
    u, v, w = y
    times, states = [0.0], [y]
    for n in range(1, steps + 1):
        s = (p := u * u) + (q := v * v) + (r := w * w)
        k1, l1, j1 = (beta * u - u * (a1 * u * u + a2 * (s - p)),
                      beta * v - v * (a1 * v * v + a2 * (s - q)),
                      beta * w - w * (a1 * w * w + a2 * (s - r)))
        x, z, t = u + half * k1, v + half * l1, w + half * j1
        s = (p := x * x) + (q := z * z) + (r := t * t)
        k2, l2, j2 = (beta * x - x * (a1 * x * x + a2 * (s - p)),
                      beta * z - z * (a1 * z * z + a2 * (s - q)),
                      beta * t - t * (a1 * t * t + a2 * (s - r)))
        x, z, t = u + half * k2, v + half * l2, w + half * j2
        s = (p := x * x) + (q := z * z) + (r := t * t)
        k3, l3, j3 = (beta * x - x * (a1 * x * x + a2 * (s - p)),
                      beta * z - z * (a1 * z * z + a2 * (s - q)),
                      beta * t - t * (a1 * t * t + a2 * (s - r)))
        x, z, t = u + dt * k3, v + dt * l3, w + dt * j3
        s = (p := x * x) + (q := z * z) + (r := t * t)
        k4, l4, j4 = (beta * x - x * (a1 * x * x + a2 * (s - p)),
                      beta * z - z * (a1 * z * z + a2 * (s - q)),
                      beta * t - t * (a1 * t * t + a2 * (s - r)))
        u = u + sixth * (((k1 + 2.0 * k2) + 2.0 * k3) + k4)
        v = v + sixth * (((l1 + 2.0 * l2) + 2.0 * l3) + l4)
        w = w + sixth * (((j1 + 2.0 * j2) + 2.0 * j3) + j4)
        if not (low <= u <= bound and low <= v <= bound and low <= w <= bound):
            return times, states, True
        if n % record_every == 0 or n == steps:
            times.append(n * dt)
            states.append((u, v, w))
    return times, states, False


def integrate_reduced(
    y0: ReducedState,
    p: PhysicalParams,
    d: DomainSpec,
    dt: float,
    steps: int,
    sigma_at: str = "ambient",
    record_every: int = 1,
    blowup_norm: float = 1e6,
) -> ReducedTrajectory:
    """Classical fourth-order Runge-Kutta integration of the reduced system.

    Escape beyond ``blowup_norm`` stops the integration and is reported via
    the trajectory flag rather than raised: on the discontinuous-transition
    side orbits legitimately leave the local neighbourhood.  Raises
    ``ValueError`` for a zero ``dt``, negative ``steps``, ``record_every``
    below 1, or a ``blowup_norm`` that is NaN or not positive.
    """
    if dt == 0.0:
        raise ValueError("dt must be nonzero (negative integrates backward)")
    if steps < 0:
        raise ValueError(f"steps must be nonnegative, got {steps}")
    if record_every < 1:
        raise ValueError(f"record_every must be at least 1, got {record_every}")
    if not blowup_norm > 0:
        raise ValueError(f"blowup_norm must be positive, got {blowup_norm}")
    beta, a1, a2 = _reduced_coefficients(p, d, y0.m, y0.T, sigma_at)
    if abs(dt) * abs(beta) > 0.1:
        warnings.warn(
            f"dt*|beta| = {dt * abs(beta):.3g} exceeds the stability heuristic 0.1",
            stacklevel=2,
        )
    # a finite bound, so that the range test refuses an RK4 sum that
    # overflows to an infinity from finite stages
    bound = min(float(blowup_norm), sys.float_info.max)
    # one mode runs on two, the absent one at +0.0 (see `_field`)
    m, y = y0.m, (y0.y if y0.m > 1 else (*y0.y, 0.0))
    times, states, escaped = (_rk4_3 if m == 3 else _rk4_2)(
        y, float(beta), float(a1), float(a2), float(dt), steps, record_every, bound
    )
    return ReducedTrajectory(
        times=np.asarray(times), states=np.asarray(states)[:, :m], escaped=escaped
    )
