import math
import sys
import threading
import tracemalloc

import numpy as np
import pytest

from chtransition import (
    DomainSpec,
    MobilityProfile,
    MobilitySpec,
    PhysicalParams,
    SimState,
    SpectralField,
    StepConfig,
    StepRejectedError,
    Stepper,
    chemical_potential,
    critical_temperature,
    derive_coefficients,
    dissipation,
    field_from_modes,
    forward_transform,
    free_energy,
    growth_rate,
    laplacian_eigenvalue,
    random_initial_field,
    simulate,
)
from chtransition.spectral import (
    SpectralGrid,
    _norm_weights,
    collocation_points,
    integrate_grid,
)

D = DomainSpec((math.pi, 2.0, 1.0))
P = PhysicalParams(R=1.0, gamma=1.0, alpha=1.0, ubar=0.5)
SMALL = (8, 8, 8)


def _state(amplitudes, T=0.24, grid=SMALL, params=P):
    return SimState(
        u=field_from_modes(amplitudes, grid, D), t=0.0, T=T, params=params
    )


class TestFixedPoint:
    @pytest.mark.parametrize("scheme", ["imex1", "imex2"])
    @pytest.mark.parametrize("rhs", ["taylor", "divergence"])
    def test_homogeneous_state_is_exact(self, scheme, rhs):
        s = SimState(u=SpectralField.zeros(SMALL, D), t=0.0, T=0.24, params=P)
        cfg = StepConfig(dt=0.05, grid=SMALL, scheme=scheme, rhs=rhs)
        stepper = Stepper(s, cfg)
        for _ in range(3):
            s = stepper.step(s)
        assert np.abs(s.u.coeffs).max() == 0.0


class TestLinearRegime:
    def test_decay_and_growth_factors(self):
        dt = 1e-4
        cfg = StepConfig(dt=dt, grid=(16, 16, 16))
        modes = [(1, 0, 0), (0, 1, 0), (1, 1, 0), (2, 0, 0)]
        s0 = _state({K: 1e-7 for K in modes}, grid=(16, 16, 16))
        s1 = Stepper(s0, cfg).step(s0)
        for K in modes:
            beta = growth_rate(K, s0.T, P, D)
            factor = s1.u.amplitude(K) / 1e-7
            assert factor == pytest.approx(math.exp(beta * dt), rel=1e-4)

    def test_growth_below_critical_temperature(self):
        beta = growth_rate((1, 0, 0), 0.24, P, D)
        assert beta > 0
        cfg = StepConfig(dt=1e-3, grid=SMALL)
        s = _state({(1, 0, 0): 1e-8})
        stepper = Stepper(s, cfg)
        for _ in range(10):
            s = stepper.step(s)
        assert s.u.amplitude((1, 0, 0)) == pytest.approx(
            1e-8 * math.exp(beta * 10 * 1e-3), rel=1e-4
        )

    def test_decay_above_critical_temperature(self):
        T = 0.26
        beta = growth_rate((1, 0, 0), T, P, D)
        assert beta < 0
        cfg = StepConfig(dt=1e-3, grid=SMALL)
        s = _state({(1, 0, 0): 1e-8}, T=T)
        stepper = Stepper(s, cfg)
        for _ in range(10):
            s = stepper.step(s)
        assert s.u.amplitude((1, 0, 0)) == pytest.approx(
            1e-8 * math.exp(beta * 0.01), rel=1e-4
        )


class TestDiagnostics:
    def test_zero_state(self):
        s = SimState(u=SpectralField.zeros(SMALL, D), t=0.0, T=0.24, params=P)
        assert free_energy(s) == 0.0
        assert np.abs(chemical_potential(s).coeffs).max() == 0.0
        assert dissipation(s) == 0.0

    def test_single_mode_energy_closed_form(self):
        eps = 0.1
        s = _state({(1, 0, 0): eps})
        b = derive_coefficients(P, s.T)
        rho = laplacian_eigenvalue((1, 0, 0), D)
        v = D.volume
        expected = (
            0.5 * P.alpha * rho * eps**2 * (v / 2)
            + 0.5 * b.b1 * eps**2 * (v / 2)
            + 0.25 * b.b3 * eps**4 * (3 * v / 8)
        )
        assert free_energy(s) == pytest.approx(expected, rel=1e-12)

    def test_chemical_potential_eigenrelation(self):
        eps = 1e-9
        s = _state({(2, 1, 0): eps})
        b = derive_coefficients(P, s.T)
        rho = laplacian_eigenvalue((2, 1, 0), D)
        mu = chemical_potential(s)
        assert mu.amplitude((2, 1, 0)) == pytest.approx(
            (P.alpha * rho + b.b1) * eps, rel=1e-9
        )

    def test_chemical_potential_cubic_projections(self):
        eps = 0.1
        s = _state({(1, 0, 0): eps})
        b = derive_coefficients(P, s.T)
        rho = laplacian_eigenvalue((1, 0, 0), D)
        mu = chemical_potential(s)
        # cos^3 projects 3/4 onto the mode and 1/4 onto its third harmonic
        assert mu.amplitude((1, 0, 0)) == pytest.approx(
            (P.alpha * rho + b.b1) * eps + 0.75 * b.b3 * eps**3, rel=1e-12
        )
        assert mu.amplitude((3, 0, 0)) == pytest.approx(0.25 * b.b3 * eps**3, rel=1e-12)

    def test_chemical_potential_is_energy_gradient(self):
        rng = np.random.default_rng(17)
        u = random_initial_field(D, SMALL, 0.05, rng, band_limit=3)
        v = random_initial_field(D, SMALL, 1.0, rng, band_limit=3)
        s = SimState(u=u, t=0.0, T=0.24, params=P)
        mu = chemical_potential(s)
        weights = _norm_weights(SMALL, D)
        inner = float((mu.coeffs * v.coeffs * weights).sum())
        h = 1e-6
        def energy(shift):
            return free_energy(
                SimState(
                    u=SpectralField(u.coeffs + shift * v.coeffs, D),
                    t=0.0, T=0.24, params=P,
                )
            )
        fd = (energy(h) - energy(-h)) / (2 * h)
        assert inner == pytest.approx(fd, rel=1e-6)

    def test_dissipation_scales_linearly_in_mobility(self):
        u = field_from_modes({(1, 0, 0): 0.1, (0, 1, 0): 0.05}, SMALL, D)
        base = PhysicalParams(
            R=1, gamma=1, alpha=1, ubar=0.5, mobility=MobilitySpec(h0=1.0, h1=0.3, h2=0.2)
        )
        doubled = PhysicalParams(
            R=1, gamma=1, alpha=1, ubar=0.5, mobility=MobilitySpec(h0=2.0, h1=0.6, h2=0.4)
        )
        d1 = dissipation(SimState(u=u, t=0.0, T=0.24, params=base))
        d2 = dissipation(SimState(u=u, t=0.0, T=0.24, params=doubled))
        assert d2 == pytest.approx(2.0 * d1, rel=1e-12)
        assert d1 < 0

    def test_dissipation_matches_energy_rate(self):
        # first-order consistency: the mismatch between the discrete energy
        # rate and the midpoint production shrinks linearly with dt
        def mismatch(dt):
            cfg = StepConfig(dt=dt, grid=(16, 16, 16))
            s = _state({(1, 0, 0): 0.1, (2, 0, 0): 0.03}, grid=(16, 16, 16))
            res = simulate(s, cfg, t_end=0.2, record_every=1)
            worst = 0.0
            for i in range(len(res.times) - 1):
                rate = (res.energy[i + 1] - res.energy[i]) / dt
                mid = 0.5 * (res.dissipation[i] + res.dissipation[i + 1])
                worst = max(worst, abs(rate - mid) / abs(mid))
            return worst

        coarse, fine = mismatch(0.008), mismatch(0.002)
        assert coarse < 0.1
        assert fine < 0.35 * coarse


class TestDiagnosticReferences:
    # the direct forms: gradient squares summed on the padded grid and
    # elementwise powers of u
    SHAPE = (10, 12, 8)
    PROFILE = MobilityProfile(kind="polynomial", data=(0.6, 1.2, -1.0))
    CASES = {
        "taylor-h0": (PhysicalParams(R=1, gamma=1, alpha=1, ubar=0.5), "taylor"),
        "taylor-h1-h2": (
            PhysicalParams(
                R=1, gamma=1, alpha=1, ubar=0.4,
                mobility=MobilitySpec(h0=1.0, h1=0.3, h2=0.2),
            ),
            "taylor",
        ),
        "divergence-poly": (
            PhysicalParams(
                R=1, gamma=1, alpha=1, ubar=0.4,
                mobility=MobilitySpec.from_profile(PROFILE, 0.4),
            ),
            "divergence",
        ),
    }

    def _setup(self, case):
        p, rhs = self.CASES[case]
        u = random_initial_field(D, self.SHAPE, 0.1, np.random.default_rng(5))
        s = SimState(u=u, t=0.0, T=0.2, params=p)
        return s, rhs, derive_coefficients(p, s.T), SpectralGrid(self.SHAPE, D)

    @pytest.mark.parametrize("case", list(CASES))
    def test_free_energy(self, case):
        s, _, b, g = self._setup(case)
        c = s.u.coeffs
        u = g.synthesize(c)
        density = 0.5 * s.params.alpha * sum(d * d for d in g.gradient(c))
        density += 0.5 * b.b1 * u**2 + b.b2 / 3.0 * u**3 + 0.25 * b.b3 * u**4
        expect = integrate_grid(density, D)
        assert free_energy(s) == pytest.approx(expect, rel=1e-13, abs=0.0)

    @pytest.mark.parametrize("case", list(CASES))
    def test_dissipation(self, case):
        s, rhs, b, g = self._setup(case)
        p, c = s.params, s.u.coeffs
        u = g.synthesize(c)
        mu = (p.alpha * g.rho + b.b1) * c + g.analyze(b.b2 * u**2 + b.b3 * u**3)
        if rhs == "divergence":
            h = p.mobility.profile(p.ubar + u)
        else:
            h = p.mobility.taylor_value(u)
        expect = -integrate_grid(h * sum(d * d for d in g.gradient(mu)), D)
        assert dissipation(s, rhs=rhs) == pytest.approx(expect, rel=1e-13, abs=0.0)


class TestConservation:
    def test_mass_pinned_exactly(self):
        rng = np.random.default_rng(23)
        u0 = random_initial_field(D, (16, 16, 16), 1e-2, rng)
        s = SimState(u=u0, t=0.0, T=0.24, params=P)
        res = simulate(s, StepConfig(dt=0.02, grid=(16, 16, 16)), t_end=2.0, record_every=5)
        assert np.abs(res.mass).max() <= 1e-12

    def test_energy_monotone_along_transient(self):
        rng = np.random.default_rng(29)
        u0 = random_initial_field(D, (16, 16, 16), 1e-2, rng)
        s = SimState(u=u0, t=0.0, T=0.24, params=P)
        res = simulate(s, StepConfig(dt=0.02, grid=(16, 16, 16)), t_end=10.0, record_every=1)
        increases = np.diff(res.energy)
        tol = 1e-8 * (1.0 + np.abs(res.energy).max())
        assert increases.max() <= tol


class TestSchemes:
    def test_second_order_scheme_is_more_accurate(self):
        s0 = _state({(1, 0, 0): 0.1})
        ref = simulate(
            s0, StepConfig(dt=5e-4, grid=SMALL, scheme="imex2"), t_end=1.0,
            record_every=10**9,
        ).final_state.u.amplitude((1, 0, 0))
        errs = {}
        for scheme in ("imex1", "imex2"):
            out = simulate(
                s0, StepConfig(dt=0.02, grid=SMALL, scheme=scheme), t_end=1.0,
                record_every=10**9,
            ).final_state.u.amplitude((1, 0, 0))
            errs[scheme] = abs(out - ref)
        assert errs["imex2"] < 0.2 * errs["imex1"]

    def test_divergence_matches_taylor_for_constant_mobility(self):
        prof = MobilityProfile(kind="polynomial", data=(1.0,), lower_bound=0.5)
        p = PhysicalParams(
            R=1, gamma=1, alpha=1, ubar=0.5, mobility=MobilitySpec(h0=1.0, profile=prof)
        )
        s = SimState(
            u=field_from_modes({(1, 0, 0): 0.1, (0, 1, 0): 0.05}, SMALL, D),
            t=0.0, T=0.24, params=p,
        )
        out_t, out_d = (
            Stepper(s, StepConfig(dt=0.01, grid=SMALL, rhs=rhs)).step(s)
            for rhs in ("taylor", "divergence")
        )
        assert np.abs(out_t.u.coeffs - out_d.u.coeffs).max() < 1e-13

    def test_stabilization_preserves_fixed_point(self):
        s0 = _state({(1, 0, 0): 0.19}, grid=(16, 16, 16))
        cfg0 = StepConfig(dt=0.1, grid=(16, 16, 16))
        cfg_s = StepConfig(dt=0.1, grid=(16, 16, 16), stabilization=1.0)
        a0 = simulate(
            s0, cfg0, t_end=250.0, record_every=100, steady_tol=1e-10
        ).final_state.u.amplitude((1, 0, 0))
        a_s = simulate(
            s0, cfg_s, t_end=400.0, record_every=100, steady_tol=1e-10
        ).final_state.u.amplitude((1, 0, 0))
        assert a_s == pytest.approx(a0, rel=1e-6)

    def test_step_rejection_on_blowup(self):
        s = _state({(1, 0, 0): 50.0}, grid=SMALL)
        cfg = StepConfig(dt=10.0, grid=SMALL)
        stepper = Stepper(s, cfg)
        with pytest.raises(StepRejectedError):
            for _ in range(50):
                s = stepper.step(s)

    def test_grid_mismatch_rejected(self):
        s = _state({(1, 0, 0): 0.1}, grid=SMALL)
        with pytest.raises(ValueError):
            Stepper(s, StepConfig(dt=0.1, grid=(16, 16, 16)))

    def test_config_validation(self):
        with pytest.raises(ValueError):
            StepConfig(dt=-0.1)
        with pytest.raises(ValueError):
            StepConfig(dt=0.1, scheme="rk4")
        with pytest.raises(ValueError):
            StepConfig(dt=0.1, grid=(4, 4, 4))
        with pytest.raises(ValueError):
            StepConfig(dt=0.1, rhs="weak")


class TestSimulate:
    def test_decay_to_homogeneous_above_tc(self):
        tc = critical_temperature(P, D)
        rng = np.random.default_rng(31)
        u0 = random_initial_field(D, (16, 16, 16), 1e-3, rng)
        s = SimState(u=u0, t=0.0, T=tc + 0.05, params=P)
        res = simulate(
            s, StepConfig(dt=0.05, grid=(16, 16, 16)), t_end=150.0, record_every=100
        )
        assert res.converged
        assert np.abs(res.final_state.u.coeffs).max() < 1e-6

    def test_steady_state_amplitude(self):
        s0 = _state({(1, 0, 0): 0.15}, grid=(16, 16, 16))
        res = simulate(
            s0, StepConfig(dt=0.1, grid=(16, 16, 16)), t_end=300.0,
            record_every=100, steady_tol=1e-9,
        )
        assert res.converged
        # the discrete steady amplitude sits within a few percent of the
        # leading-order law sqrt(4*R*(Tc-T)/(3*B1*ubar*(1-ubar))) = 0.2
        assert res.amplitudes[(1, 0, 0)][-1] == pytest.approx(0.2, rel=0.05)

    def test_steady_stop_lands_on_the_fixed_point(self):
        # the rate test alone stops about rate/slowest-decay away from the
        # fixed point; a converged run must not move by more than the
        # tolerance it promises when it is integrated on
        grid = (16, 16, 16)
        cfg = StepConfig(dt=0.1, grid=grid)
        res = simulate(
            _state({(1, 0, 0): 0.15}, grid=grid), cfg, t_end=300.0,
            record_every=100, steady_tol=1e-7,
        )
        assert res.converged
        final = res.final_state
        amp = final.u.amplitude((1, 0, 0))
        assert res.times[-1] == final.t and np.all(np.diff(res.times) > 0)
        more = simulate(
            final, cfg, t_end=final.t + 3000 * cfg.dt, record_every=3000, steady_tol=0.0
        )
        drift = abs(more.final_state.u.amplitude((1, 0, 0)) - amp)
        assert drift <= 1e-7 * (1.0 + np.linalg.norm(final.u.coeffs))

    @pytest.mark.parametrize("failure", ["iteration cap", "non-finite iterate"])
    def test_newton_failure_runs_on_to_t_end(self, monkeypatch, failure):
        import chtransition.simulator as sim

        solves = []
        fixed_point = sim._fixed_point

        def counted_fixed_point(*args):
            solves.append(args)
            return fixed_point(*args)

        monkeypatch.setattr(sim, "_fixed_point", counted_fixed_point)
        if failure == "iteration cap":
            monkeypatch.setattr(sim, "_NEWTON_MAXITER", 0)
        else:
            monkeypatch.setattr(Stepper, "advance", lambda self, c: np.full_like(c, np.nan))
        cfg = StepConfig(dt=0.1, grid=SMALL)
        res = simulate(
            _state({(1, 0, 0): 0.19}), cfg, t_end=30.0, record_every=50, steady_tol=1e-3
        )
        assert len(solves) == 1
        assert not res.converged
        assert res.steps_taken == 300
        assert res.final_state.t == pytest.approx(30.0)
        assert res.times[-1] == res.final_state.t
        assert np.all(np.isfinite(res.final_state.u.coeffs))

    def test_tracked_modes_default_to_critical_set(self):
        s0 = _state({(1, 0, 0): 0.01})
        res = simulate(s0, StepConfig(dt=0.05, grid=SMALL), t_end=0.5)
        assert set(res.amplitudes) == {(1, 0, 0)}


class TestTaylorFlux:
    def test_h1_h2_term_matches_spectral_square_gradient(self):
        # ubar = 0.4 makes b2 nonzero, so the h1 flux carries -b2*u*grad(u^2);
        # the reference differentiates the padded-grid coefficients of u^2
        p = PhysicalParams(
            R=1, gamma=1, alpha=1, ubar=0.4, mobility=MobilitySpec(h0=1.0, h1=0.3, h2=0.2)
        )
        shape = (6, 7, 8)
        u = random_initial_field(D, shape, 0.1, np.random.default_rng(3))
        s = SimState(u=u, t=0.0, T=0.2, params=p)
        b = derive_coefficients(p, s.T)
        assert b.b2 != 0.0
        got = Stepper(s, StepConfig(dt=0.01, grid=shape)).explicit_term(u.coeffs)

        g = SpectralGrid(shape, D)
        u_grid = g.synthesize(u.coeffs)
        # the mean of u^2 only sets the zero mode, which no term below uses
        sq = forward_transform(u_grid**2 - np.mean(u_grid**2), D).coeffs
        cube = forward_transform(u_grid**3 - np.mean(u_grid**3), D).coeffs
        xs = [collocation_points(n, L) for n, L in zip(g.pad_shape, D.lengths)]
        grad_sq = []
        for ax in range(3):
            mats = []
            for a, (x, k) in enumerate(zip(xs, g.k)):
                arg = np.outer(x, k)
                mats.append(-k * np.sin(arg) if a == ax else np.cos(arg))
            grad_sq.append(np.einsum("ia,jb,kc,abc->ijk", *mats, sq))
        grads = g.gradient((-p.alpha * g.rho - b.b1) * u.coeffs)
        flux1 = [u_grid * (d - b.b2 * e) for d, e in zip(grads, grad_sq)]
        flux2 = [u_grid**2 * d for d in grads]
        band = tuple(slice(0, n) for n in shape)
        expect = -p.mobility.h0 * g.rho * (b.b2 * sq[band] + b.b3 * cube[band])
        expect -= p.mobility.h1 * g.divergence(flux1) + 0.5 * p.mobility.h2 * g.divergence(flux2)
        expect[0, 0, 0] = 0.0
        assert np.abs(got - expect).max() <= 1e-13 * np.abs(expect).max()


class TestHeldArrays:
    """A stepper holds its padded-grid arrays: steady stepping allocates
    none, and reusing them carries no state from one call to the next.  The
    cases are the diagnostic references' (b2 != 0 in both non-h0 cases)."""

    GRID = (10, 12, 14)
    CASES = TestDiagnosticReferences.CASES

    def _stepper(self, case, scheme="imex1", seed=3):
        p, rhs = self.CASES[case]
        u = random_initial_field(D, self.GRID, 0.1, np.random.default_rng(seed))
        s = SimState(u=u, t=0.0, T=0.2, params=p)
        return Stepper(s, StepConfig(dt=2e-3, grid=self.GRID, scheme=scheme, rhs=rhs)), s

    @pytest.mark.parametrize("scheme", ["imex1", "imex2"])
    @pytest.mark.parametrize("case", list(CASES))
    def test_steady_stepping_allocates_no_padded_array(self, case, scheme):
        padded_bytes = np.empty(tuple(2 * n for n in self.GRID)).nbytes
        tracemalloc.start()
        try:
            stepper, s = self._stepper(case, scheme)
            for _ in range(2):
                s = stepper.step(s)
            tracemalloc.reset_peak()
            base = tracemalloc.get_traced_memory()[0]
            for _ in range(5):
                s = stepper.step(s)
            step_peak = tracemalloc.get_traced_memory()[1] - base

            c = s.u.coeffs
            for _ in range(2):
                c = stepper.advance(c)
            tracemalloc.reset_peak()
            base = tracemalloc.get_traced_memory()[0]
            for _ in range(5):
                c = stepper.advance(c)
            advance_peak = tracemalloc.get_traced_memory()[1] - base
        finally:
            tracemalloc.stop()
        assert step_peak < padded_bytes
        assert advance_peak < padded_bytes

    @pytest.mark.parametrize("case", list(CASES))
    def test_reuse_carries_no_state_between_calls(self, case):
        stepper, s = self._stepper(case)
        c1 = s.u.coeffs
        c2 = random_initial_field(D, self.GRID, 0.2, np.random.default_rng(11)).coeffs
        first = stepper.advance(c1)
        stepper.advance(c2)
        assert np.array_equal(stepper.advance(c1), first)

    def test_interleaved_threads_reproduce_sequential_runs(self):
        steps = 15
        cases = [(case, scheme) for case in self.CASES for scheme in ("imex1", "imex2")]

        def run(case, scheme, before_step=lambda: None):
            stepper, s = self._stepper(case, scheme)
            for _ in range(steps):
                before_step()
                s = stepper.step(s)
            return s.u.coeffs

        expect = [run(*c) for c in cases]
        # every thread waits for all the others before each step, so the
        # steps of all steppers interleave
        barrier = threading.Barrier(len(cases), timeout=60)
        got = [None] * len(cases)

        def worker(i):
            got[i] = run(*cases[i], before_step=barrier.wait)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            threads = [threading.Thread(target=worker, args=(i,)) for i in range(len(cases))]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=120)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in threads)
        for g, e in zip(got, expect):
            assert g is not None and np.array_equal(g, e)


class TestSpectralResolution:
    def test_steady_amplitude_stable_under_refinement(self):
        # converge on the coarse grid, lift the state to the doubled grid and
        # keep integrating: a resolved solution must not drift
        s0 = _state({(1, 0, 0): 0.19}, grid=(16, 16, 16))
        cfg = StepConfig(dt=0.1, grid=(16, 16, 16))
        res = simulate(s0, cfg, t_end=400.0, record_every=100, steady_tol=1e-11)
        assert res.converged
        coarse = res.final_state.u
        amp16 = coarse.amplitude((1, 0, 0))

        lifted = SpectralGrid((16, 16, 16), D).padded(coarse.coeffs)
        s32 = SimState(
            u=SpectralField(lifted, D), t=0.0, T=s0.T, params=P
        )
        res32 = simulate(
            s32, StepConfig(dt=0.1, grid=(32, 32, 32)), t_end=50.0,
            record_every=100, steady_tol=1e-11,
        )
        assert abs(res32.final_state.u.amplitude((1, 0, 0)) - amp16) < 1e-6


class TestInitialData:
    def test_random_field_reproducible_and_banded(self):
        a = random_initial_field(D, (16, 16, 16), 1e-3, np.random.default_rng(5), band_limit=3)
        b = random_initial_field(D, (16, 16, 16), 1e-3, np.random.default_rng(5), band_limit=3)
        assert np.array_equal(a.coeffs, b.coeffs)
        assert a.coeffs[0, 0, 0] == 0.0
        assert np.abs(a.coeffs[4:, :, :]).max() == 0.0
        assert np.abs(a.coeffs).max() <= 1e-3

    def test_gradient_grids_match_analytic(self):
        # derivative of a single mode, synthesised on the padded grid
        from chtransition.spectral import collocation_points

        shape = (8, 8, 8)
        pad = (16, 16, 16)
        K = (2, 1, 0)
        f = SpectralField.from_modes({K: 1.0}, shape, D)
        grads = SpectralGrid(shape, D).gradient(f.coeffs)
        xs = [collocation_points(n, L) for n, L in zip(pad, D.lengths)]
        mesh = np.meshgrid(*xs, indexing="ij")
        k1, k2, _ = K
        l1, l2 = D.lengths[0], D.lengths[1]
        expect0 = (
            -(k1 * math.pi / l1)
            * np.sin(k1 * math.pi * mesh[0] / l1)
            * np.cos(k2 * math.pi * mesh[1] / l2)
        )
        assert np.abs(grads[0] - expect0).max() < 1e-12
        expect1 = (
            -(k2 * math.pi / l2)
            * np.cos(k1 * math.pi * mesh[0] / l1)
            * np.sin(k2 * math.pi * mesh[1] / l2)
        )
        assert np.abs(grads[1] - expect1).max() < 1e-12
        assert np.abs(grads[2]).max() < 1e-12
