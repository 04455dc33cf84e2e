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
from chtransition.spectral import SpectralGrid
from conftest import BOX_CASES, draw_case_params, draw_params


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

    @pytest.mark.parametrize("k_max", [0, -1])
    def test_k_max_below_one_is_refused(self, canonical, k_max):
        p, d = canonical
        with pytest.raises(ValueError, match="k_max"):
            verify_pes(p, d, k_max=k_max)

    def test_k_max_one_scans_the_axis_modes(self, canonical):
        p, d = canonical
        report = verify_pes(p, d, k_max=1)
        assert report.passed and report.critical_modes == ((1, 0, 0),)


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

    # reversed, not finite, not positive
    @pytest.mark.parametrize(
        "bracket", [(0.5, 0.1), (0.1, math.nan), (-0.1, 0.5), (0.0, 0.5), (0.1, math.inf)]
    )
    def test_bad_bracket_is_refused(self, canonical, bracket):
        p, d = canonical
        with pytest.raises(ValueError) as exc:
            critical_temperature_bisect(p, d, bracket=bracket)
        assert str(exc.value) == f"bracket must be finite with 0 < lo < hi, got {bracket!r}"


def _full_scan_bisect(p, d, bracket=None, k_max=8, tol=0.0):
    """Reference: the bisection that evaluates every scanned growth rate at
    every step, with the eigenvalues of a `SpectralGrid` band."""
    u = p.ubar
    if bracket is None:
        hi = 2.0 * p.gamma * u * (1.0 - u) / p.R
        bracket = (1e-12 * hi, 1.01 * hi)
    lo, hi = bracket
    rho = SpectralGrid((k_max + 1,) * 3, d).rho.ravel()[1:]

    def worst(T):
        return float(_growth_rates(rho, T, p).max())

    f_lo, f_hi = worst(lo), worst(hi)
    if f_lo == 0.0:
        return lo
    if f_hi == 0.0:
        return hi
    if f_lo * f_hi > 0.0:
        raise ValueError("no sign change")
    while hi - lo > tol:
        mid = 0.5 * (lo + hi)
        if mid in (lo, hi):
            break
        if f_lo * worst(mid) <= 0.0:
            hi = mid
        else:
            lo = mid
    return 0.5 * (lo + hi)


def _outcome(bisect, p, d, kw):
    try:
        return bisect(p, d, **kw)
    except ValueError:
        return "no sign change"


class TestSmallestEigenvalueBisection:
    """The bisection evaluates only the rate at the smallest scanned
    eigenvalue; every decision, and so every result, must be the full
    scan's."""

    @pytest.mark.parametrize("case", BOX_CASES)
    def test_largest_rate_has_the_sign_of_the_smallest_eigenvalue_rate(self, case):
        # from 1e-12*Tc, where A(T) = 2*gamma - R*T/(ubar*(1-ubar)) may put
        # the rate parabola's vertex above rho_min, through Tc to 2*Tc
        rng = np.random.default_rng(BOX_CASES.index(case) + 401)
        vertex_above = 0
        for _ in range(40):
            p, d = draw_case_params(rng, case)
            tc = critical_temperature(p, d)
            ts = list(tc * np.geomspace(1e-12, 2.0, 60)) + [
                tc, math.nextafter(tc, 0.0), math.nextafter(tc, math.inf)
            ]
            for k_max in (1, 8):
                rho = _scan(d, k_max)[1]
                rho_min = float(rho.min())
                for T in ts:
                    a = 2.0 * p.gamma - p.R * T / (p.ubar * (1.0 - p.ubar))
                    vertex_above += a > 2.0 * p.alpha * rho_min
                    assert np.sign(_growth_rates(rho, T, p).max()) == np.sign(
                        _growth_rates(rho_min, T, p)
                    )
        assert vertex_above > 0

    @pytest.mark.parametrize("case", BOX_CASES)
    def test_matches_full_scan_to_the_bit(self, case):
        rng = np.random.default_rng(BOX_CASES.index(case) + 101)
        for _ in range(40):
            p, d = draw_case_params(rng, case)
            tc = critical_temperature(p, d)
            for kw in (
                {},
                {"k_max": 1},
                {"k_max": 3, "tol": 1e-6 * tc},
                {"bracket": (0.5 * tc, 1.5 * tc)},
                {"bracket": (tc, 2.0 * tc)},  # Tc itself may round to either side
                {"bracket": (1.1 * tc, 2.0 * tc)},  # no root
            ):
                assert _outcome(critical_temperature_bisect, p, d, kw) == _outcome(
                    _full_scan_bisect, p, d, kw
                )

    @pytest.mark.parametrize("case", BOX_CASES)
    def test_scan_eigenvalues_are_the_grid_band(self, case):
        p, d = draw_case_params(np.random.default_rng(7), case)
        modes, rho = _scan(d, k_max=5)
        assert len(modes) == 215
        assert rho.tobytes() == SpectralGrid((6, 6, 6), d).rho.ravel()[1:].tobytes()

    @pytest.mark.parametrize("k_max", [0, -3])
    def test_k_max_below_one_is_refused(self, canonical, k_max):
        p, d = canonical
        with pytest.raises(ValueError, match="k_max"):
            critical_temperature_bisect(p, d, k_max=k_max)
