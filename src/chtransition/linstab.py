"""Linearised spectrum around the homogeneous state.

The growth rate of mode ``K`` at temperature ``T`` is

    beta_K(T) = H(ubar) * rho_K * (2*gamma - R*T/(ubar*(1-ubar)) - alpha*rho_K)

with ``rho_K`` the Neumann-Laplacian eigenvalue.  The modes whose growth
rate vanishes exactly at the critical temperature form the critical set;
its size (1, 2 or 3) follows the degeneracy of the box edges.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from itertools import product

import numpy as np

from .params import DomainSpec, PhysicalParams, critical_temperature
from .spectral import Mode, laplacian_eigenvalue

__all__ = [
    "CriticalSet",
    "PESReport",
    "DegeneracyAmbiguityError",
    "growth_rate",
    "critical_set",
    "verify_pes",
    "critical_temperature_bisect",
]


class DegeneracyAmbiguityError(ValueError):
    """Edge lengths are nearly tied but not within the declared tolerance, so
    the critical set cannot be trusted."""


def _growth_rates(rho, T: float, p: PhysicalParams):
    """Growth rates at eigenvalue(s) ``rho``: a float or an array."""
    u = p.ubar
    return p.mobility.h0 * rho * (2.0 * p.gamma - p.R * T / (u * (1.0 - u)) - p.alpha * rho)


def growth_rate(K: Mode, T: float, p: PhysicalParams, d: DomainSpec) -> float:
    """Linear growth rate of mode ``K`` at temperature ``T``."""
    if T <= 0.0:
        raise ValueError("temperature must be positive")
    return _growth_rates(laplacian_eigenvalue(K, d), T, p)


@lru_cache(maxsize=None)
def _scan_modes(k_max: int) -> tuple[Mode, ...]:
    """All modes with indices up to ``k_max``, zero mode excluded, in
    lexicographic order."""
    return tuple(product(range(k_max + 1), repeat=3))[1:]


def _scan(d: DomainSpec, k_max: int) -> tuple[tuple[Mode, ...], np.ndarray]:
    """The scanned modes and their eigenvalues ``rho``, in the same order:
    the sums of the squared wavenumbers ``j*pi/L`` along the three axes.
    Raises ``ValueError`` for ``k_max`` below 1, which scans no mode."""
    if k_max < 1:
        raise ValueError(f"k_max must be at least 1, got {k_max!r}")
    k = np.arange(k_max + 1, dtype=float) * math.pi
    sq0, sq1, sq2 = ((k / length) ** 2 for length in d.lengths)
    return _scan_modes(k_max), np.add.outer(np.add.outer(sq0, sq1), sq2).ravel()[1:]


@dataclass(frozen=True)
class CriticalSet:
    """Ordered critical modes and their count ``m``."""

    modes: tuple[Mode, ...]

    @property
    def m(self) -> int:
        return len(self.modes)


def critical_set(p: PhysicalParams, d: DomainSpec) -> CriticalSet:
    """Modes with vanishing growth rate at the critical temperature.

    Raises ``DegeneracyAmbiguityError`` when edge lengths are suspiciously
    close (within 1000x the tie tolerance) without being tied, since the
    critical set then depends on digits below the declared accuracy.
    """
    critical_temperature(p, d)  # ensure the regime exists
    l1, l2, l3 = d.lengths
    tol = d.tie_tolerance
    for a, b in ((l1, l2), (l2, l3)):
        gap = abs(a - b) / max(a, b)
        if tol < gap <= 1e3 * tol:
            raise DegeneracyAmbiguityError(
                f"edge lengths {a!r} and {b!r} differ by relative {gap:.3g}, "
                f"too close to the tie tolerance {tol:.3g} to classify reliably"
            )
    modes = ((1, 0, 0), (0, 1, 0), (0, 0, 1))[: d.multiplicity]
    return CriticalSet(modes=modes)


@dataclass(frozen=True)
class PESReport:
    """Outcome of the exchange-of-stabilities verification.

    ``margin`` is the smallest ``|beta_K|`` at the critical temperature over
    the scanned non-critical modes; it quantifies the spectral gap.
    """

    tc: float
    critical_modes: tuple[Mode, ...]
    margin: float
    violations: tuple[str, ...]
    k_max: int
    scanned_temperatures: tuple[float, ...]

    @property
    def passed(self) -> bool:
        return not self.violations

    def as_dict(self) -> dict:
        return {
            "Tc": self.tc,
            "critical_modes": [list(m) for m in self.critical_modes],
            "margin": self.margin,
            "violations": list(self.violations),
            "k_max": self.k_max,
            "scanned_temperatures": list(self.scanned_temperatures),
        }


def verify_pes(
    p: PhysicalParams,
    d: DomainSpec,
    k_max: int = 8,
    t_grid: tuple[float, ...] | None = None,
) -> PESReport:
    """Check the sign pattern of the spectrum around the critical temperature.

    At the critical temperature the critical modes must have zero growth rate
    and every other scanned mode a strictly negative one; across the
    temperature grid the critical rates must be positive below and negative
    above.  The scan covers every mode with indices up to ``k_max``, which
    must be at least 1.
    """
    tc = critical_temperature(p, d)
    cset = critical_set(p, d)
    if t_grid is None:
        t_grid = tuple(tc * (1.0 + r) for r in (-0.04, -0.01, 0.01, 0.04))
    if not (min(t_grid) < tc < max(t_grid)):
        raise ValueError("temperature grid must bracket the critical temperature")

    modes, rho = _scan(d, k_max)
    beta_c = _growth_rates(rho, tc, p)
    scale = float(np.abs(beta_c).max())
    n = k_max + 1
    crit = np.zeros(len(modes), dtype=bool)
    crit[[i * n * n + j * n + k - 1 for i, j, k in cset.modes]] = True
    bad = np.where(crit, np.abs(beta_c) > 1e-10 * scale, beta_c >= 0.0)
    violations = [
        f"beta{modes[i]} = {beta_c[i]:.3e} does not vanish at Tc"
        if crit[i]
        else f"beta{modes[i]} = {beta_c[i]:.3e} >= 0 at Tc"
        for i in np.flatnonzero(bad).tolist()
    ]
    margin = float(np.abs(beta_c[~crit]).min())
    for T in t_grid:
        for K in cset.modes:
            b = growth_rate(K, T, p, d)
            if T < tc and b <= 0.0:
                violations.append(f"beta{K}({T:.6g}) = {b:.3e} <= 0 below Tc")
            if T > tc and b >= 0.0:
                violations.append(f"beta{K}({T:.6g}) = {b:.3e} >= 0 above Tc")
    return PESReport(
        tc=tc,
        critical_modes=cset.modes,
        margin=margin,
        violations=tuple(violations),
        k_max=k_max,
        scanned_temperatures=tuple(float(t) for t in t_grid),
    )


def critical_temperature_bisect(
    p: PhysicalParams,
    d: DomainSpec,
    bracket: tuple[float, float] | None = None,
    k_max: int = 8,
    tol: float = 0.0,
) -> float:
    """Locate the root of ``max_K beta_K(T)`` by bisection.

    Serves as an independent check of the closed-form critical temperature:
    it scans every mode with indices up to ``k_max`` (at least 1) and never
    asks which of them is critical.  Each step evaluates the rate at the
    smallest scanned eigenvalue ``rho_min`` only: ``beta_K/rho_K =
    h0*(A(T) - alpha*rho_K)`` falls as ``rho_K`` grows, and the rounded
    ``alpha*rho`` never decreases as ``rho`` grows, so the largest scanned
    rate is positive, zero or negative exactly when the rate at ``rho_min``
    is.  ``tol`` is an absolute bracket width; the default 0 bisects to
    float resolution, so the relative error stays at rounding level however
    small the critical temperature is.  Raises ``ValueError`` for a bracket
    that is not finite with ``0 < lo < hi``, and when the bracket contains
    no sign change (in particular when no supercritical regime exists).
    """
    if bracket is None:
        u = p.ubar
        hi = 2.0 * p.gamma * u * (1.0 - u) / p.R  # all rates negative beyond this
        bracket = (1e-12 * hi, 1.01 * hi)
    lo, hi = bracket
    if not (0.0 < lo < hi < math.inf):
        raise ValueError(f"bracket must be finite with 0 < lo < hi, got {bracket!r}")
    rho_min = float(_scan(d, k_max)[1].min())

    def rate(T: float) -> float:
        return _growth_rates(rho_min, T, p)

    f_lo, f_hi = rate(lo), rate(hi)
    if f_lo == 0.0:
        return lo
    if f_hi == 0.0:
        return hi
    if f_lo * f_hi > 0.0:
        raise ValueError(
            f"no sign change of the leading growth rate on [{lo:.6g}, {hi:.6g}]"
        )
    while hi - lo > tol:
        mid = 0.5 * (lo + hi)
        if mid in (lo, hi):  # float resolution reached
            break
        if f_lo * rate(mid) <= 0.0:
            hi = mid
        else:
            lo = mid
    return 0.5 * (lo + hi)
