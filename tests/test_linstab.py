import math

import numpy as np
import pytest

from chtransition import (
    DegeneracyAmbiguityError,
    DomainSpec,
    MobilitySpec,
    PhysicalParams,
    critical_set,
    critical_temperature,
    critical_temperature_bisect,
    growth_rate,
    verify_pes,
)
from chtransition.linstab import _growth_rates, _scan
from conftest import draw_params


class TestGrowthRate:
    def test_critical_mode_vanishes_at_tc(self, canonical):
        p, d = canonical
        tc = critical_temperature(p, d)
        assert growth_rate((1, 0, 0), tc, p, d) == pytest.approx(0.0, abs=1e-14)

    def test_value_below_tc(self, canonical):
        p, d = canonical
        # hand evaluation: 1 * 1 * (2 - 0.96 - 1)
        assert growth_rate((1, 0, 0), 0.24, p, d) == pytest.approx(0.04, rel=1e-12)

    def test_second_harmonic_at_tc(self, canonical):
        p, d = canonical
        tc = critical_temperature(p, d)
        assert growth_rate((2, 0, 0), tc, p, d) == pytest.approx(-12.0, rel=1e-12)

    def test_strictly_decreasing_in_temperature(self):
        rng = np.random.default_rng(21)
        for _ in range(50):
            p, d = draw_params(rng)
            K = tuple(rng.integers(0, 4, 3))
            if K == (0, 0, 0):
                K = (1, 0, 0)
            ts = np.sort(rng.uniform(0.01, 2.0, 4))
            vals = [growth_rate(K, t, p, d) for t in ts]
            assert all(a > b for a, b in zip(vals, vals[1:]))

    def test_scales_with_mobility(self, canonical):
        p, d = canonical
        p2 = PhysicalParams(
            R=p.R, gamma=p.gamma, alpha=p.alpha, ubar=p.ubar,
            mobility=MobilitySpec(h0=2.5),
        )
        assert growth_rate((1, 0, 0), 0.2, p2, d) == pytest.approx(
            2.5 * growth_rate((1, 0, 0), 0.2, p, d), rel=1e-14
        )


class TestCriticalSet:
    def test_distinct(self, canonical):
        p, d = canonical
        cset = critical_set(p, d)
        assert cset.m == 1
        assert cset.modes == ((1, 0, 0),)

    def test_two_equal(self):
        p = PhysicalParams(R=1, gamma=3, alpha=1, ubar=0.5)
        cset = critical_set(p, DomainSpec((2.0, 2.0, 1.0)))
        assert cset.m == 2
        assert cset.modes == ((1, 0, 0), (0, 1, 0))

    def test_all_equal(self):
        p = PhysicalParams(R=1, gamma=3, alpha=1, ubar=0.5)
        cset = critical_set(p, DomainSpec((2.0, 2.0, 2.0)))
        assert cset.m == 3

    def test_near_tie_is_ambiguous(self):
        p = PhysicalParams(R=1, gamma=3, alpha=1, ubar=0.5)
        d = DomainSpec((2.0, 2.0 * (1 - 1e-10), 1.0))  # gap just above tolerance
        with pytest.raises(DegeneracyAmbiguityError):
            critical_set(p, d)


class TestPES:
    def test_canonical_report(self, canonical):
        p, d = canonical
        report = verify_pes(p, d, k_max=8)
        assert report.passed
        assert report.critical_modes == ((1, 0, 0),)
        # smallest gap over non-critical modes, attained at (0,1,0):
        # rho = pi^2/4 and |beta| = rho*(rho - 1)
        rho = math.pi**2 / 4
        assert report.margin == pytest.approx(rho * (rho - 1.0), rel=1e-12)

    def test_all_negative_above_tc(self, canonical):
        p, d = canonical
        tc = critical_temperature(p, d)
        beta = _growth_rates(_scan(d, k_max=8)[1], tc + 0.01, p)
        assert (beta < 0).all()

    def test_exactly_m_positive_below_tc(self, canonical):
        p, d = canonical
        tc = critical_temperature(p, d)
        beta = _growth_rates(_scan(d, k_max=8)[1], tc - 0.01, p)
        assert (beta > 0).sum() == 1

        p2 = PhysicalParams(R=1, gamma=3, alpha=1, ubar=0.5)
        d2 = DomainSpec((2.0, 2.0, 2.0))
        tc2 = critical_temperature(p2, d2)
        beta2 = _growth_rates(_scan(d2, k_max=8)[1], tc2 * 0.99, p2)
        assert (beta2 > 0).sum() == 3

    def test_violations_in_mode_order(self):
        # a loose tie tolerance declares (0,0,1) and (0,1,0) critical on a
        # box where they are not: neither vanishes at Tc
        p = PhysicalParams(R=1, gamma=1, alpha=1, ubar=0.5)
        d = DomainSpec((math.pi, math.pi * (1 - 5e-4), math.pi * (1 - 1e-3)), tie_tolerance=6e-4)
        report = verify_pes(p, d, k_max=2)
        assert report.critical_modes == ((1, 0, 0), (0, 1, 0), (0, 0, 1))
        modes, rho = _scan(d, k_max=2)
        beta = _growth_rates(rho, critical_temperature(p, d), p)
        assert (modes[0], modes[2], modes[8]) == ((0, 0, 1), (0, 1, 0), (1, 0, 0))
        assert report.violations == (
            f"beta(0, 0, 1) = {beta[0]:.3e} does not vanish at Tc",
            f"beta(0, 1, 0) = {beta[2]:.3e} does not vanish at Tc",
        )
        noncritical = np.ones(len(modes), dtype=bool)
        noncritical[[0, 2, 8]] = False
        assert report.margin == np.abs(beta[noncritical]).min()

    def test_report_serialises(self, canonical):
        p, d = canonical
        report = verify_pes(p, d)
        payload = report.as_dict()
        assert set(payload) >= {"Tc", "critical_modes", "margin", "violations"}

    def test_grid_must_bracket(self, canonical):
        p, d = canonical
        with pytest.raises(ValueError):
            verify_pes(p, d, t_grid=(0.3, 0.4))


class TestBisection:
    def test_canonical(self, canonical):
        p, d = canonical
        assert critical_temperature_bisect(p, d) == pytest.approx(0.25, abs=1e-10)

    def test_random_parameters(self):
        rng = np.random.default_rng(13)
        for _ in range(25):
            p, d = draw_params(rng)
            tc = critical_temperature(p, d)
            assert critical_temperature_bisect(p, d) == pytest.approx(tc, rel=1e-10, abs=0.0)

    def test_small_critical_temperature_relative(self):
        # Tc = 1.63e-4: an absolute stopping width of 1e-12 would leave a
        # relative gap near 1e-9
        p = PhysicalParams(R=2, gamma=0.6, alpha=0.5, ubar=5e-4)
        d = DomainSpec((3.0, 2.0, 1.0))
        tc = critical_temperature(p, d)
        assert tc < 1e-3
        assert critical_temperature_bisect(p, d) == pytest.approx(tc, rel=1e-10, abs=0.0)

    def test_no_supercritical(self):
        p = PhysicalParams(R=1, gamma=0.1, alpha=10, ubar=0.5)
        d = DomainSpec((math.pi, 2.0, 1.0))
        with pytest.raises(ValueError):
            critical_temperature_bisect(p, d)

    def test_explicit_bracket_without_root(self, canonical):
        p, d = canonical
        with pytest.raises(ValueError):
            critical_temperature_bisect(p, d, bracket=(0.3, 0.5))
