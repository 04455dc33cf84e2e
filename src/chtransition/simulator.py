"""Pseudospectral time integration of the mixture dynamics on the box.

The stiff linear part (fourth-order diffusion plus the linearised potential
term) is diagonal in the cosine basis and treated implicitly; everything
else is evaluated pseudospectrally on a zero-padded grid (factor two, which
removes aliasing of the cubic products from the retained band) and treated
explicitly.  Two right-hand sides are available:

``taylor``
    The evolution model with the mobility expanded to second order about
    the mean fraction, the form used by the reduction analysis.

``divergence``
    The conservative form ``du/dt = div(H(ubar + u) grad(mu))`` with the
    full mobility profile and the quartic free energy.  This is an exact
    gradient flow: the free energy decreases along trajectories.

The zero mode is pinned to zero every step, so total mass is conserved to
rounding by construction.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .linstab import critical_set
from .params import Coefficients, DomainSpec, PhysicalParams, derive_coefficients
from .spectral import Mode, SpectralField, SpectralGrid, integrate_grid

__all__ = [
    "StepConfig",
    "SimState",
    "SimResult",
    "StepRejectedError",
    "Stepper",
    "simulate",
    "free_energy",
    "chemical_potential",
    "dissipation",
    "random_initial_field",
    "field_from_modes",
]


# the steady-state polish: at most this many Newton steps, each solved by
# GMRES to this relative residual within this many Krylov vectors; from a
# rate-test stop a few steps of a few vectors each do
_NEWTON_MAXITER = 20
_NEWTON_FORCING = 1e-3
_KRYLOV_DIM = 20


class StepRejectedError(RuntimeError):
    """A time step produced a non-finite or exploding state."""


@dataclass(frozen=True)
class StepConfig:
    """Time-stepping configuration.

    ``scheme`` is ``imex1`` (implicit Euler on the linear part, explicit
    Euler on the rest) or ``imex2`` (implicit trapezoid plus second-order
    Adams-Bashforth).  ``stabilization`` adds ``s*Laplace^2`` implicitly and
    subtracts it explicitly, useful for stiff mobility profiles.
    """

    dt: float
    grid: tuple[int, int, int] = (32, 32, 32)
    scheme: str = "imex1"
    rhs: str = "taylor"
    stabilization: float = 0.0

    def __post_init__(self) -> None:
        if self.dt <= 0.0:
            raise ValueError("dt must be positive")
        if self.scheme not in ("imex1", "imex2"):
            raise ValueError(f"unknown scheme {self.scheme!r}")
        if self.rhs not in ("taylor", "divergence"):
            raise ValueError(f"unknown rhs form {self.rhs!r}")
        if self.stabilization < 0.0:
            raise ValueError("stabilization must be nonnegative")
        grid = tuple(int(n) for n in self.grid)
        if len(grid) != 3 or any(n < 6 for n in grid):
            raise ValueError("grid needs three sizes of at least 6 (twice the "
                             "largest critical index plus two)")
        object.__setattr__(self, "grid", grid)


@dataclass(frozen=True)
class SimState:
    """Deviation field, time and temperature, with the physical setup."""

    u: SpectralField
    t: float
    T: float
    params: PhysicalParams

    @property
    def domain(self) -> DomainSpec:
        return self.u.domain

    @property
    def mass(self) -> float:
        return float(self.u.coeffs[0, 0, 0])

    def projection(self, K: Mode) -> float:
        return self.u.amplitude(K)


@dataclass(frozen=True)
class SimResult:
    """Recorded diagnostics of a ``simulate`` run and its final state.

    ``converged`` is true when the run stopped at a steady state: for
    ``final_state`` the Newton residual of the stepper map and the last
    Newton correction are both at most ``steady_tol * (1 + |u|)``.  The
    recorded diagnostics end with the time-stepped state it was polished
    from, at the same time.  ``converged`` is false when the run reached
    ``t_end`` without that stop, also after a failed Newton solve.
    """

    times: np.ndarray
    mass: np.ndarray
    energy: np.ndarray
    dissipation: np.ndarray
    amplitudes: dict[Mode, np.ndarray]
    final_state: SimState
    converged: bool
    steps_taken: int


def _mobility_grid(
    p: PhysicalParams, u_grid: np.ndarray, rhs: str, out: np.ndarray | None = None
) -> np.ndarray:
    """``H(ubar + u)`` on the padded grid, written into ``out`` when given:
    the full profile under ``divergence``, else the quadratic Taylor
    truncation about ``ubar``.  The samples ``u_grid`` are overwritten."""
    mob = p.mobility
    if rhs == "divergence" and mob.profile is not None:
        u_grid += p.ubar
        return mob.profile(u_grid, out=out)
    return mob.taylor_value(u_grid, out=out)


class Stepper:
    """Reusable time stepper bound to one trajectory in one thread.

    Precomputes the diagonal implicit symbols; keeps the previous explicit
    term for the second-order scheme (its first step falls back to the
    first-order update).  It holds every padded-grid array its explicit term
    needs, each built on first use and reused by every ``step`` and
    ``advance``, so steady stepping allocates only band-shaped arrays; the
    held arrays are why a stepper serves one trajectory in one thread.
    """

    def __init__(self, state: SimState, cfg: StepConfig) -> None:
        if state.u.grid_shape != cfg.grid:
            raise ValueError(
                f"state grid {state.u.grid_shape} does not match config {cfg.grid}"
            )
        self.cfg = cfg
        self.params = state.params
        self.domain = state.domain
        self.T = state.T
        self.coeffs_b = derive_coefficients(state.params, state.T)
        self.grid = SpectralGrid(cfg.grid, self.domain)
        self.rho = self.grid.rho
        self.beta = -state.params.mobility.h0 * (
            state.params.alpha * self.rho**2 + self.coeffs_b.b1 * self.rho
        )
        lam = self.beta - cfg.stabilization * self.rho**2
        dt = cfg.dt
        self._den1 = 1.0 - dt * lam
        self._den2 = 1.0 - 0.5 * dt * lam
        self._num2 = 1.0 + 0.5 * dt * lam
        self._stab = cfg.stabilization * self.rho**2
        self._prev_g: np.ndarray | None = None
        self._work: dict[str, np.ndarray] = {}

    def _padded(self, *names: str) -> list[np.ndarray]:
        """The held padded-grid arrays of these names, built on first use."""
        for name in names:
            if name not in self._work:
                self._work[name] = np.empty(self.grid.pad_shape)
        return [self._work[name] for name in names]

    # -- explicit part -----------------------------------------------------

    def explicit_term(self, coeffs: np.ndarray) -> np.ndarray:
        """Coefficients of everything treated explicitly (without the
        stabilisation shift)."""
        if self.cfg.rhs == "taylor":
            return self._explicit_taylor(coeffs)
        return self._explicit_divergence(coeffs)

    def _explicit_taylor(self, coeffs: np.ndarray) -> np.ndarray:
        p, b, g = self.params, self.coeffs_b, self.grid
        mob = p.mobility
        u_grid, u2_grid, poly = self._padded("u", "u2", "poly")
        u_grid = g.synthesize(coeffs, out=u_grid)
        u2_grid = np.multiply(u_grid, u_grid, out=u2_grid)
        np.multiply(b.b3, u_grid, out=poly)  # b2*u^2 + b3*u^3, in place
        poly += b.b2
        poly *= u2_grid
        out = -mob.h0 * self.rho * g.analyze(poly)

        if mob.h1 != 0.0 or mob.h2 != 0.0:
            # one flux for both terms: h1 * u * grad(alpha*Lap(u) - b1*u - b2*u^2)
            # + h2/2 * u^2 * grad(alpha*Lap(u) - b1*u), with grad(u^2) = 2*u*grad(u)
            # (exact: u^2 is resolved on the padded grid).  The analysis spent
            # poly and u is not needed again: they take the weight and its h2
            # part, u^2 then takes the weight of the b2 term, and the
            # gradients are weighted in place
            weight = np.multiply(mob.h1, u_grid, out=poly)
            weight += np.multiply(0.5 * mob.h2, u2_grid, out=u_grid)
            flux = g.gradient((-p.alpha * self.rho - b.b1) * coeffs,
                              out=self._padded("flux0", "flux1", "flux2"))
            for f in flux:
                f *= weight
            if mob.h1 != 0.0 and b.b2 != 0.0:
                sq_weight = np.multiply(2.0 * mob.h1 * b.b2, u2_grid, out=u2_grid)
                for f, d in zip(flux, g.gradient(coeffs, out=self._padded("d0", "d1", "d2"))):
                    d *= sq_weight
                    f -= d
            out -= g.divergence(flux)

        out[0, 0, 0] = 0.0
        return out

    def _explicit_divergence(self, coeffs: np.ndarray) -> np.ndarray:
        p, g = self.params, self.grid
        u_grid, poly = self._padded("u", "poly")
        mu_hat, u_grid = _potential(g, coeffs, p.alpha, self.coeffs_b, u_grid, poly)
        # the analysis spent poly, which now holds the mobility
        h_grid = _mobility_grid(p, u_grid, "divergence", out=poly)
        flux = g.gradient(mu_hat, out=self._padded("flux0", "flux1", "flux2"))
        for f in flux:
            f *= h_grid
        rhs = g.divergence(flux)
        rhs[0, 0, 0] = 0.0
        return rhs - self.beta * coeffs

    # -- update ------------------------------------------------------------

    def _imex1(self, c: np.ndarray, g: np.ndarray) -> np.ndarray:
        """Implicit Euler on the linear part, explicit Euler on ``g`` (the
        explicit term plus the stabilisation shift)."""
        return (c + self.cfg.dt * g) / self._den1

    def advance(self, coeffs: np.ndarray) -> np.ndarray:
        """One ``imex1`` step of the coefficients, zero mode pinned.  It
        keeps no history, and its fixed points are the steady states of
        either scheme."""
        new = self._imex1(coeffs, self.explicit_term(coeffs) + self._stab * coeffs)
        new[0, 0, 0] = 0.0
        return new

    def step(self, state: SimState) -> SimState:
        c = state.u.coeffs
        dt = self.cfg.dt
        g = self.explicit_term(c) + self._stab * c
        if self.cfg.scheme == "imex1" or self._prev_g is None:
            new = self._imex1(c, g)
        else:
            new = (self._num2 * c + dt * (1.5 * g - 0.5 * self._prev_g)) / self._den2
        self._prev_g = g
        new[0, 0, 0] = 0.0
        if not np.all(np.isfinite(new)):
            raise StepRejectedError(
                f"non-finite coefficients after step at t={state.t:.6g} "
                f"(dt={dt:.3g}); reduce dt or add stabilization"
            )
        norm = float(np.abs(new).max())
        if norm > 1e6:
            raise StepRejectedError(
                f"coefficient overflow ({norm:.3e}) at t={state.t:.6g}; "
                "reduce dt or add stabilization"
            )
        return SimState(
            u=SpectralField(new, state.domain),
            t=state.t + dt,
            T=state.T,
            params=state.params,
        )


def simulate(
    s0: SimState,
    cfg: StepConfig,
    t_end: float,
    record_every: int = 1,
    steady_tol: float = 1e-10,
    track_modes: tuple[Mode, ...] | None = None,
) -> SimResult:
    """Run to ``t_end``, recording diagnostics every ``record_every`` steps.

    Once the coefficient-space rate of change falls below
    ``tol = steady_tol * (1 + |u|)``, the state is polished by Newton-Krylov
    on the stepper map ``(Stepper.advance(c) - c) / dt`` and the run stops
    with ``converged=True``: the Newton residual and the last Newton
    correction are both at most ``tol`` in the 2-norm, so ``final_state`` is
    a fixed point of the scheme, not just a slow state, at the time of the
    stop.  The records follow the time integration and end with the stopped
    state: the jump to the fixed point is no part of the trajectory (under
    the ``taylor`` form with h1 or h2, which is not a gradient flow, the
    free energy can rise across it).  If Newton fails (no convergence within
    its iteration cap, or a non-finite iterate), the run keeps the
    time-stepped state, tries Newton no more, integrates on to ``t_end`` and
    reports ``converged=False``.  Tracked mode amplitudes default to the
    critical set of the domain.
    """
    if track_modes is None:
        track_modes = critical_set(s0.params, s0.domain).modes
    stepper = Stepper(s0, cfg)
    n_steps = max(1, int(round((t_end - s0.t) / cfg.dt)))
    times: list[float] = []
    mass: list[float] = []
    energy: list[float] = []
    dissip: list[float] = []
    amps: dict[Mode, list[float]] = {K: [] for K in track_modes}

    def record(s: SimState) -> None:
        times.append(s.t)
        mass.append(s.mass)
        energy.append(free_energy(s))
        dissip.append(dissipation(s, rhs=cfg.rhs))
        for K in track_modes:
            amps[K].append(s.projection(K))

    record(s0)
    state = s0
    converged = False
    newton_failed = False
    steps_taken = 0
    for n in range(1, n_steps + 1):
        prev = state.u.coeffs
        state = stepper.step(state)
        steps_taken = n
        if n % record_every == 0 or n == n_steps:
            record(state)
        if newton_failed:
            continue
        delta = float(np.linalg.norm(state.u.coeffs - prev)) / cfg.dt
        tol = steady_tol * (1.0 + float(np.linalg.norm(state.u.coeffs)))
        if delta < tol:
            fixed = _fixed_point(stepper, state.u.coeffs, tol)
            if fixed is None:
                newton_failed = True
                continue
            if times[-1] != state.t:
                record(state)
            fixed[0, 0, 0] = 0.0
            state = SimState(
                u=SpectralField(fixed, state.domain), t=state.t, T=state.T,
                params=state.params,
            )
            converged = True
            break
    return SimResult(
        times=np.asarray(times),
        mass=np.asarray(mass),
        energy=np.asarray(energy),
        dissipation=np.asarray(dissip),
        amplitudes={K: np.asarray(v) for K, v in amps.items()},
        final_state=state,
        converged=converged,
        steps_taken=steps_taken,
    )


def _fixed_point(stepper: Stepper, coeffs: np.ndarray, tol: float) -> np.ndarray | None:
    """Newton-GMRES solve of ``F(c) = (advance(c) - c) / dt = 0`` from
    ``coeffs`` (Newton-Krylov on the time-stepper map: Tuckerman & Barkley,
    2000; Knoll & Keyes, J. Comput. Phys. 193, 2004), with Jacobian products
    by forward differences.  Returns the iterate once the residual and the
    last correction are both at most ``tol`` in the 2-norm; ``None`` when
    that takes more than ``_NEWTON_MAXITER`` steps or an evaluation is not
    finite."""
    dt = stepper.cfg.dt

    def residual(c: np.ndarray) -> np.ndarray:
        r = (stepper.advance(c) - c) / dt
        if not np.all(np.isfinite(r)):
            raise FloatingPointError("non-finite Newton iterate")
        return r

    try:
        c = coeffs
        r = residual(c)
        for _ in range(_NEWTON_MAXITER):
            h = np.sqrt(np.finfo(float).eps) * (1.0 + np.linalg.norm(c))
            dc = _gmres(lambda v: (residual(c + h * v) - r) / h, -r,
                        _NEWTON_FORCING, _KRYLOV_DIM)
            c = c + dc
            r = residual(c)
            if np.linalg.norm(r) <= tol and np.linalg.norm(dc) <= tol:
                return c
    except FloatingPointError:
        pass
    return None


def _gmres(matvec, b: np.ndarray, rtol: float, m: int) -> np.ndarray:
    """Least-squares solution of ``matvec(x) = b`` over the Krylov space of
    ``b`` (modified Gram-Schmidt Arnoldi, dimension at most ``m``), stopped
    once its residual is at most ``rtol * |b|``."""
    beta = np.linalg.norm(b)
    if beta == 0.0:
        return np.zeros_like(b)
    basis = [b / beta]
    hess = np.zeros((m + 1, m))
    rhs = np.zeros(m + 1)
    rhs[0] = beta
    for j in range(m):
        w = matvec(basis[j])
        for i, v in enumerate(basis):
            hess[i, j] = np.vdot(v, w)
            w -= hess[i, j] * v
        hess[j + 1, j] = np.linalg.norm(w)
        H, g = hess[: j + 2, : j + 1], rhs[: j + 2]
        y = np.linalg.lstsq(H, g, rcond=None)[0]
        if hess[j + 1, j] == 0.0 or np.linalg.norm(H @ y - g) <= rtol * beta:
            break
        basis.append(w / hess[j + 1, j])
    return sum(yj * v for yj, v in zip(y, basis))


# ---------------------------------------------------------------------------
# diagnostics
# ---------------------------------------------------------------------------


def free_energy(s: SimState) -> float:
    """Quartic free energy of the deviation field at the state's
    temperature.  The gradient part comes from the coefficients by Parseval
    (`SpectralGrid.gradient_norm_sq`); the potential part is the midpoint
    quadrature of one synthesis on the padded grid, exact for the quartic
    of a band-limited field."""
    b = derive_coefficients(s.params, s.T)
    g = SpectralGrid(s.u.grid_shape, s.domain)
    u_grid = g.synthesize(s.u.coeffs)
    # b1/2*u^2 + b2/3*u^3 + b3/4*u^4 by Horner, in place
    density = 0.25 * b.b3 * u_grid
    density += b.b2 / 3.0
    density *= u_grid
    density += 0.5 * b.b1
    density *= u_grid
    density *= u_grid
    return 0.5 * s.params.alpha * g.gradient_norm_sq(s.u.coeffs) + integrate_grid(
        density, s.domain
    )


def _potential(
    g: SpectralGrid,
    coeffs: np.ndarray,
    alpha: float,
    b: Coefficients,
    u_grid: np.ndarray | None = None,
    poly: np.ndarray | None = None,
) -> tuple[np.ndarray, np.ndarray]:
    """Band coefficients of the chemical potential (zero mode dropped) and
    the padded-grid samples of ``u`` used to form them, written into
    ``u_grid`` when given; ``poly``, when given, is padded scratch."""
    u_grid = g.synthesize(coeffs, out=u_grid)
    poly = np.multiply(b.b3, u_grid, out=poly)  # b2*u^2 + b3*u^3, in place
    poly += b.b2
    poly *= u_grid
    poly *= u_grid
    mu = (alpha * g.rho + b.b1) * coeffs + g.analyze(poly)
    # the polynomial part may carry a mean; the potential is defined up to a
    # constant, so drop it
    mu[0, 0, 0] = 0.0
    return mu, u_grid


def chemical_potential(s: SimState) -> SpectralField:
    """Variational derivative of the free energy, truncated to the field's
    band: ``-alpha*Lap(u) + b1*u + b2*u^2 + b3*u^3``."""
    g = SpectralGrid(s.u.grid_shape, s.domain)
    mu, _ = _potential(g, s.u.coeffs, s.params.alpha, derive_coefficients(s.params, s.T))
    return SpectralField(mu, s.domain)


def dissipation(s: SimState, rhs: str = "taylor") -> float:
    """Free-energy production rate ``-integral(H |grad(mu)|^2)`` (never
    positive); equals the time derivative of the free energy along exact
    dynamics of the matching right-hand side."""
    g = SpectralGrid(s.u.grid_shape, s.domain)
    mu, u_grid = _potential(g, s.u.coeffs, s.params.alpha, derive_coefficients(s.params, s.T))
    density = _mobility_grid(s.params, u_grid, rhs)
    # H * |grad(mu)|^2, summed in place in the order of sum(d * d for d in ...)
    grad_sq, *rest = g.gradient(mu)
    grad_sq *= grad_sq
    for d in rest:
        d *= d
        grad_sq += d
    density *= grad_sq
    return -integrate_grid(density, s.domain)


# ---------------------------------------------------------------------------
# initial data
# ---------------------------------------------------------------------------


def field_from_modes(
    amplitudes: dict[Mode, float], grid: tuple[int, int, int], d: DomainSpec
) -> SpectralField:
    return SpectralField.from_modes(amplitudes, grid, d)


def random_initial_field(
    d: DomainSpec,
    grid: tuple[int, int, int],
    amplitude: float,
    rng: np.random.Generator,
    band_limit: int = 4,
) -> SpectralField:
    """Seeded random coefficients, uniform in ``[-amplitude, amplitude]`` on
    all modes with indices up to ``band_limit``."""
    coeffs = np.zeros(grid)
    band = tuple(min(band_limit, n - 1) for n in grid)
    block = rng.uniform(
        -amplitude, amplitude, size=tuple(b + 1 for b in band)
    )
    coeffs[: band[0] + 1, : band[1] + 1, : band[2] + 1] = block
    coeffs[0, 0, 0] = 0.0
    return SpectralField(coeffs, d)
