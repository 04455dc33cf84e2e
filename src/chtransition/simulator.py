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

import math
from dataclasses import dataclass
from typing import ClassVar

import numpy as np

from .linstab import critical_set
from .params import DomainSpec, PhysicalParams, derive_coefficients
from .spectral import Mode, SpectralField, SpectralGrid, integrate_grid

__all__ = [
    "StepConfig",
    "SimState",
    "SimResult",
    "StepRejectedError",
    "Stepper",
    "simulate",
    "free_energy",
    "dissipation",
    "random_initial_field",
]


# the steady-state polish: at most this many Newton steps, each solved by
# GMRES to this relative residual within this many Krylov vectors; from a
# rate-test stop a few steps of a few vectors each do
_NEWTON_MAXITER = 20
_NEWTON_FORCING = 1e-3
_KRYLOV_DIM = 20


class StepRejectedError(RuntimeError):
    """A time step produced a non-finite or exploding state, or met a
    mobility that is not positive (below a profile's lower bound), where
    the equation is no longer parabolic."""


@dataclass(frozen=True)
class StepConfig:
    """Time-stepping configuration.

    ``scheme`` is ``imex1`` (implicit Euler on the linear part, explicit
    Euler on the rest) or ``imex2`` (implicit trapezoid plus second-order
    Adams-Bashforth).  ``stabilization`` adds ``s*Laplace^2`` implicitly and
    subtracts it explicitly, useful for stiff mobility profiles.  ``SCHEMES``
    and ``RHS_FORMS`` hold the accepted values of ``scheme`` and ``rhs``.
    """

    SCHEMES: ClassVar[tuple[str, ...]] = ("imex1", "imex2")
    RHS_FORMS: ClassVar[tuple[str, ...]] = ("taylor", "divergence")

    dt: float
    grid: tuple[int, int, int] = (32, 32, 32)
    scheme: str = "imex1"
    rhs: str = "taylor"
    stabilization: float = 0.0

    def __post_init__(self) -> None:
        if self.dt <= 0.0:
            raise ValueError("dt must be positive")
        if self.scheme not in self.SCHEMES:
            raise ValueError(f"unknown scheme {self.scheme!r}")
        if self.rhs not in self.RHS_FORMS:
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


def _coeffs_key(coeffs: np.ndarray) -> tuple:
    """Shape, dtype and bytes: equal for bit-equal coefficient arrays only."""
    return coeffs.shape, coeffs.dtype, coeffs.tobytes()


class Stepper:
    """Reusable time stepper bound to one trajectory in one thread.

    Precomputes the diagonal implicit symbols; keeps the previous explicit
    term for the second-order scheme (its first step falls back to the
    first-order update).  It holds every padded-grid array its explicit term
    and the diagnostics (`free_energy`, `dissipation`, `potential`,
    `hessian_product`) need, each built on first use and reused by every
    ``step``, ``advance`` and diagnostic, so steady stepping and recording
    allocate only band-shaped arrays; the held arrays are why a stepper
    serves one trajectory in one thread.

    A diagnostic holds the samples of its coefficients in ``u`` and, once
    worked out, their potential, under a copy of the coefficients as key.
    The next diagnostic, ``step`` or ``advance`` on bit-equal coefficients
    reuses them, so a recorded state is synthesised once for its record and
    its step.  A step compares coefficients only while a key is held, and
    drops it.
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
        h0 = state.params.mobility.h0
        self.beta = -h0 * (state.params.alpha * self.rho**2 + self.coeffs_b.b1 * self.rho)
        # band constants of every step: the linear part alpha*rho + b1 of the
        # potential, its exact negation (the taylor flux input's) and the
        # -h0*rho of the taylor analysis
        self._mu_linear = state.params.alpha * self.rho + self.coeffs_b.b1
        self._neg_mu_linear = -self._mu_linear
        self._neg_h0_rho = -h0 * self.rho
        lam = self.beta - cfg.stabilization * self.rho**2
        dt = cfg.dt
        self._den1 = 1.0 - dt * lam
        self._den2 = 1.0 - 0.5 * dt * lam
        self._num2 = 1.0 + 0.5 * dt * lam
        self._stab = cfg.stabilization * self.rho**2
        # the full mobility profile is used under `divergence` only
        self._profile_in_use = (
            cfg.rhs == "divergence" and state.params.mobility.profile is not None
        )
        self._prev_g: np.ndarray | None = None
        self._work: dict[str, np.ndarray] = {}
        # the held state: the key of the coefficients whose samples the held
        # ``u`` has, and their potential once worked out; neither is used
        # while the key is None
        self._key: tuple | None = None
        self._mu: np.ndarray | None = None

    def _padded(self, *names: str) -> list[np.ndarray]:
        """The held padded-grid arrays of these names, built on first use;
        ``flux`` stacks three components."""
        for name in names:
            if name not in self._work:
                shape = self.grid.pad_shape
                self._work[name] = np.empty((3, *shape) if name == "flux" else shape)
        return [self._work[name] for name in names]

    def _hold(self, coeffs: np.ndarray) -> np.ndarray:
        """The held ``u`` with the samples of ``coeffs``, which become the
        held state: synthesised unless they are already held."""
        key = _coeffs_key(coeffs)
        u_grid, = self._padded("u")
        if key != self._key:
            self._key = self._mu = None
            self.grid.synthesize(coeffs, out=u_grid)
            self._key = key
        return u_grid

    def _potential(self, coeffs: np.ndarray) -> np.ndarray:
        """Band coefficients of the chemical potential (zero mode dropped)
        from the samples of ``coeffs`` in the held ``u``; spends ``poly``."""
        b, g = self.coeffs_b, self.grid
        u_grid, poly = self._padded("u", "poly")
        np.multiply(b.b3, u_grid, out=poly)  # b2*u^2 + b3*u^3, in place
        poly += b.b2
        poly *= u_grid
        poly *= u_grid
        mu = self._mu_linear * coeffs + g.analyze(poly)
        # the polynomial part may carry a mean; the potential is defined up to a
        # constant, so drop it
        mu[0, 0, 0] = 0.0
        return mu

    def _mobility_grid(self) -> np.ndarray:
        """``H(ubar + u)`` of the samples in the held ``u``, written into the
        held ``poly``: the full profile under ``divergence``, else the
        quadratic Taylor truncation about ``ubar``.  ``flux[0]`` takes
        ``ubar + u`` or the truncation's linear part, so ``u`` and the held
        state stay."""
        p = self.params
        mob = p.mobility
        u_grid, out, flux = self._padded("u", "poly", "flux")
        if self._profile_in_use:
            return mob.profile(np.add(u_grid, p.ubar, out=flux[0]), out=out)
        return mob.taylor_value(u_grid, out=out, scratch=flux[0])

    def _require_parabolic(self, h_grid: np.ndarray, offset: float = 0.0) -> None:
        """Refuse the mobility ``offset + h_grid`` when its least value is not
        positive (the Taylor truncation) or below the lower bound of the
        profile in use: the equation is not parabolic there.  One reduction;
        the point is located only on refusal.  A non-finite grid passes, for
        the step's own finiteness check."""
        mob = self.params.mobility
        low = offset + float(h_grid.min())
        if self._profile_in_use:
            bound = mob.profile.lower_bound
            if not low < bound:
                return
            name = f"{mob.profile.kind} mobility profile"
            why = f"below its lower bound {bound:.3g}"
        else:
            if not low <= 0.0:
                return
            name = (f"Taylor mobility h0 + h1*u + h2/2*u^2 "
                    f"(h0={mob.h0:g}, h1={mob.h1:g}, h2={mob.h2:g})")
            why = "not positive"
        at = np.unravel_index(int(np.argmin(h_grid)), h_grid.shape)
        x = ", ".join(f"{(i + 0.5) * length / m:.4g}"
                      for i, length, m in zip(at, self.domain.lengths, h_grid.shape))
        raise StepRejectedError(
            f"{name} reaches {low:.4g} at x = ({x}), {why}: the equation is not parabolic there"
        )

    def potential(self, coeffs: np.ndarray) -> np.ndarray:
        """Band coefficients of the chemical potential, the variational
        derivative of the free energy truncated to the band:
        ``-alpha*Lap(u) + b1*u + b2*u^2 + b3*u^3`` with its zero mode
        dropped.  A fresh array; ``coeffs`` and their potential become the
        held state."""
        self._hold(coeffs)
        if self._mu is None:
            self._mu = self._potential(coeffs)
        return self._mu.copy()

    def hessian_product(self, coeffs: np.ndarray, v: np.ndarray) -> np.ndarray:
        """The second variation of the free energy at ``coeffs`` applied to
        ``v``: ``(alpha*rho + b1)*v + (2*b2*u + 3*b3*u^2)*v`` truncated to
        the band, zero mode dropped.  ``coeffs`` become the held state, so
        products at one state synthesise ``u`` once."""
        b, g = self.coeffs_b, self.grid
        u_grid = self._hold(coeffs)
        weight, v_grid = self._padded("poly", "u2")
        np.multiply(3.0 * b.b3, u_grid, out=weight)  # 2*b2*u + 3*b3*u^2, in place
        weight += 2.0 * b.b2
        weight *= u_grid
        weight *= g.synthesize(v, out=v_grid)
        out = self._mu_linear * v + g.analyze(weight)
        out[0, 0, 0] = 0.0
        return out

    # -- explicit part -----------------------------------------------------

    def explicit_term(self, coeffs: np.ndarray) -> np.ndarray:
        """Coefficients of everything treated explicitly (without the
        stabilisation shift).  It reuses the held state when ``coeffs``
        equal it, and drops it: the ``taylor`` term with h1 or h2 writes over
        ``u``.  Raises `StepRejectedError` where a varying mobility is not
        positive (`_require_parabolic`)."""
        held = self._key is not None and self._key == _coeffs_key(coeffs)
        mu = self._mu if held else None
        self._key = self._mu = None
        if not held:
            self.grid.synthesize(coeffs, out=self._padded("u")[0])
        if self.cfg.rhs == "taylor":
            return self._explicit_taylor(coeffs)
        return self._explicit_divergence(coeffs, mu)

    def _explicit_taylor(self, coeffs: np.ndarray) -> np.ndarray:
        """The ``taylor`` term from the samples of ``coeffs`` in ``u``."""
        p, b, g = self.params, self.coeffs_b, self.grid
        mob = p.mobility
        u_grid, u2_grid, poly = self._padded("u", "u2", "poly")
        u2_grid = np.multiply(u_grid, u_grid, out=u2_grid)
        # b2*u^2 + c3*u^3, in place.  The h1 part of the b2 term,
        # div(2*h1*b2*u^2*grad(u)) = (2/3)*h1*b2*Lap(u^3), joins the cubic
        # weight as (2/3)*(h1/h0)*b2, which is zero at h1 = 0 or b2 = 0
        c3 = b.b3 + (2.0 / 3.0) * (mob.h1 / mob.h0) * b.b2
        np.multiply(c3, u_grid, out=poly)
        poly += b.b2
        poly *= u2_grid
        out = self._neg_h0_rho * g.analyze(poly)

        if mob.h1 != 0.0 or mob.h2 != 0.0:
            # one flux for the rest: h1 * u * grad(alpha*Lap(u) - b1*u)
            # + h2/2 * u^2 * grad(alpha*Lap(u) - b1*u).  The analysis spent
            # poly and u is not needed again: they take the weight and its h2
            # part, and the gradient is weighted in place
            weight = np.multiply(mob.h1, u_grid, out=poly)
            weight += np.multiply(0.5 * mob.h2, u2_grid, out=u_grid)
            self._require_parabolic(weight, mob.h0)
            flux = g.gradient(self._neg_mu_linear * coeffs, out=self._padded("flux")[0])
            flux *= weight
            out -= g.divergence(flux)

        out[0, 0, 0] = 0.0
        return out

    def _explicit_divergence(self, coeffs: np.ndarray, mu_hat: np.ndarray | None) -> np.ndarray:
        """The ``divergence`` term from the samples of ``coeffs`` in ``u`` and
        their potential, worked out here when ``None``."""
        g = self.grid
        if mu_hat is None:
            mu_hat = self._potential(coeffs)
        h_grid = self._mobility_grid()
        self._require_parabolic(h_grid)
        flux = g.gradient(mu_hat, out=self._padded("flux")[0])
        flux *= h_grid
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
        """The state one ``dt`` later.  Raises ``ValueError`` for a state whose
        temperature, parameters or domain differ from the stepper's own."""
        for name in ("T", "params", "domain"):
            mine, theirs = getattr(self, name), getattr(state, name)
            if theirs is not mine and theirs != mine:
                raise ValueError(
                    f"state {name} differs from the stepper's; build a Stepper for this state"
                )
        c = state.u.coeffs
        dt = self.cfg.dt
        try:
            g = self.explicit_term(c) + self._stab * c
        except StepRejectedError as exc:
            raise StepRejectedError(f"{exc} (step from t={state.t:.6g})") from None
        if self.cfg.scheme == "imex1" or self._prev_g is None:
            new = self._imex1(c, g)
        else:
            new = (self._num2 * c + dt * (1.5 * g - 0.5 * self._prev_g)) / self._den2
        self._prev_g = g
        new[0, 0, 0] = 0.0
        norm = float(np.abs(new).max())
        if not math.isfinite(norm):
            raise StepRejectedError(
                f"non-finite coefficients after step at t={state.t:.6g} "
                f"(dt={dt:.3g}); reduce dt or add stabilization"
            )
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
    reports ``converged=False``.  ``steady_tol = 0`` disables the stop: the
    run then always integrates to ``t_end``.  Tracked mode amplitudes
    default to the critical set of the domain.  Raises ``ValueError`` for
    ``record_every`` below 1.
    """
    if record_every < 1:
        raise ValueError(f"record_every must be at least 1, got {record_every}")
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
        energy.append(free_energy(stepper, s.u.coeffs))
        dissip.append(dissipation(stepper, s.u.coeffs))
        for K in track_modes:
            amps[K].append(s.projection(K))

    record(s0)
    state = s0
    converged = False
    # the rate test runs until the stop or a failed Newton solve
    testing = steady_tol > 0.0
    steps_taken = 0
    for n in range(1, n_steps + 1):
        prev = state.u.coeffs
        state = stepper.step(state)
        steps_taken = n
        if n % record_every == 0 or n == n_steps:
            record(state)
        if not testing:
            continue
        delta = float(np.linalg.norm(state.u.coeffs - prev)) / cfg.dt
        tol = steady_tol * (1.0 + float(np.linalg.norm(state.u.coeffs)))
        if delta < tol:
            fixed = _fixed_point(stepper, state.u.coeffs, tol)
            if fixed is None:
                testing = False
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
    except (FloatingPointError, StepRejectedError):
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


def free_energy(stepper: Stepper, coeffs: np.ndarray) -> float:
    """Quartic free energy of the deviation field ``coeffs`` at the
    stepper's temperature.  The gradient part comes from the coefficients by
    Parseval (`SpectralGrid.gradient_norm_sq`); the potential part is the
    midpoint quadrature of the samples the stepper holds of ``coeffs``
    (synthesised unless held), exact for the quartic of a band-limited
    field.  Call it from the stepper's own thread."""
    b, g = stepper.coeffs_b, stepper.grid
    u_grid = stepper._hold(coeffs)
    density, = stepper._padded("poly")
    # b1/2*u^2 + b2/3*u^3 + b3/4*u^4 by Horner, in place
    np.multiply(0.25 * b.b3, u_grid, out=density)
    density += b.b2 / 3.0
    density *= u_grid
    density += 0.5 * b.b1
    density *= u_grid
    density *= u_grid
    return 0.5 * stepper.params.alpha * g.gradient_norm_sq(coeffs) + integrate_grid(
        density, stepper.domain
    )


def dissipation(stepper: Stepper, coeffs: np.ndarray) -> float:
    """Free-energy production rate ``-integral(H |grad(mu)|^2)`` (never
    positive), with the mobility of the stepper's right-hand side.  It is
    the time derivative of the free energy along exact dynamics under
    ``divergence`` and under ``taylor`` with h0 only.  The ``taylor`` form
    with h1 or h2 is not a gradient flow, so there the free energy can rise
    and this is no energy rate.  A constant mobility ``H = h0`` (h1 and h2
    zero, and no profile in use) takes ``integral(|grad(mu)|^2)`` from the
    band coefficients of ``mu`` by Parseval (`SpectralGrid.gradient_norm_sq`,
    exact for the band-limited potential); any other mobility is
    integrated as the midpoint quadrature of ``H |grad(mu)|^2`` on the
    padded grid.  The potential and the samples of ``coeffs`` are the
    stepper's held ones when it holds them.  Call it from the stepper's own
    thread."""
    g = stepper.grid
    mob = stepper.params.mobility
    mu = stepper.potential(coeffs)
    if mob.h1 == 0.0 and mob.h2 == 0.0 and not stepper._profile_in_use:
        return -mob.h0 * g.gradient_norm_sq(mu)
    density = stepper._mobility_grid()
    # H * |grad(mu)|^2, summed in place in the order of sum(d * d for d in ...)
    grad = g.gradient(mu, out=stepper._padded("flux")[0])
    grad *= grad
    grad_sq = grad[0]
    grad_sq += grad[1]
    grad_sq += grad[2]
    density *= grad_sq
    return -integrate_grid(density, stepper.domain)


# ---------------------------------------------------------------------------
# initial data
# ---------------------------------------------------------------------------


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
