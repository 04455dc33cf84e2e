import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from chtransition import (
    DomainCase,
    DomainSpec,
    MobilityProfile,
    MobilitySpec,
    NoSupercriticalRegimeError,
    PhysicalParams,
    critical_temperature,
    critical_temperature_bisect,
    derive_coefficients,
    transition_discriminants,
)

physical_st = st.builds(
    PhysicalParams,
    R=st.floats(0.5, 2.0),
    gamma=st.floats(0.5, 5.0),
    alpha=st.floats(0.2, 3.0),
    ubar=st.floats(0.05, 0.95),
)


class TestCoefficients:
    def test_b2_vanishes_at_symmetric_fraction(self):
        p = PhysicalParams(R=1, gamma=1, alpha=1, ubar=0.5)
        assert derive_coefficients(p, 0.25).b2 == 0.0

    def test_b1_at_critical_temperature(self, canonical):
        p, d = canonical
        tc = critical_temperature(p, d)
        # at Tc the linear coefficient balances the gradient term on mode one
        assert derive_coefficients(p, tc).b1 == pytest.approx(
            -p.alpha * math.pi**2 / d.L**2, rel=1e-14
        )

    def test_b3_symmetric_value(self):
        p = PhysicalParams(R=1, gamma=1, alpha=1, ubar=0.5)
        assert derive_coefficients(p, 0.25).b3 == pytest.approx(4.0 / 3.0, rel=1e-15)

    def test_rejects_nonpositive_temperature(self, canonical):
        p, _ = canonical
        with pytest.raises(ValueError):
            derive_coefficients(p, 0.0)
        with pytest.raises(ValueError):
            derive_coefficients(p, -1.0)

    @given(p=physical_st, T=st.floats(0.01, 10.0))
    @settings(max_examples=200, deadline=None)
    def test_b3_always_positive(self, p, T):
        assert derive_coefficients(p, T).b3 > 0.0


class TestCriticalTemperature:
    def test_canonical_value(self, canonical):
        p, d = canonical
        assert critical_temperature(p, d) == pytest.approx(0.25, rel=1e-15)

    def test_agrees_with_bisection(self, canonical):
        p, d = canonical
        tc = critical_temperature(p, d)
        assert critical_temperature_bisect(p, d) == pytest.approx(tc, rel=1e-10)

    def test_no_supercritical_regime(self):
        p = PhysicalParams(R=1, gamma=0.1, alpha=10, ubar=0.5)
        d = DomainSpec((math.pi, 2.0, 1.0))
        with pytest.raises(NoSupercriticalRegimeError):
            critical_temperature(p, d)

    def test_mean_fraction_scaling(self):
        d = DomainSpec((math.pi, 2.0, 1.0))
        p5 = PhysicalParams(R=1, gamma=1, alpha=1, ubar=0.5)
        p3 = PhysicalParams(R=1, gamma=1, alpha=1, ubar=0.3)
        ratio = critical_temperature(p3, d) / critical_temperature(p5, d)
        assert ratio == pytest.approx(0.21 / 0.25, rel=1e-14)


class TestDiscriminants:
    def test_symmetric_collapse(self, canonical):
        p, d = canonical
        disc = transition_discriminants(p, d)
        assert disc.B1 == disc.B2 == disc.B3 == pytest.approx(4.0 / 3.0, rel=1e-15)

    def test_ordering(self):
        rng = np.random.default_rng(7)
        from conftest import draw_params

        for _ in range(200):
            p, d = draw_params(rng)
            disc = transition_discriminants(p, d)
            assert disc.B1 >= disc.B2 >= disc.B3

    def test_sigma_identities_at_critical_temperature(self):
        rng = np.random.default_rng(11)
        from conftest import draw_params

        for _ in range(1000):
            p, d = draw_params(rng)
            disc = transition_discriminants(p, d)
            scale = abs(disc.sigma1) + abs(disc.sigma2) + 1e-300
            assert abs(disc.sigma1 - 1.5 * disc.B1) <= 1e-12 * scale
            assert abs(disc.sigma1 + disc.sigma2 - 4.5 * disc.B2) <= 1e-12 * scale
            assert abs(disc.sigma1 + 2 * disc.sigma2 - 7.5 * disc.B3) <= 1e-12 * scale

    def test_sigma_at_requested_temperature(self, asym):
        d = DomainSpec((math.pi, 2.0, 1.0))
        at_tc = transition_discriminants(asym, d)
        at_t = transition_discriminants(asym, d, T=0.9 * at_tc.sigma_T)
        # discriminants stay pinned to Tc, the sigma pair moves
        assert at_t.B1 == at_tc.B1
        assert at_t.sigma1 != at_tc.sigma1


class TestValidation:
    def test_physical_invariants(self):
        with pytest.raises(ValueError):
            PhysicalParams(R=0, gamma=1, alpha=1, ubar=0.5)
        with pytest.raises(ValueError):
            PhysicalParams(R=1, gamma=-1, alpha=1, ubar=0.5)
        with pytest.raises(ValueError):
            PhysicalParams(R=1, gamma=1, alpha=0, ubar=0.5)
        for bad in (0.0, 1.0, -0.2, 1.3):
            with pytest.raises(ValueError):
                PhysicalParams(R=1, gamma=1, alpha=1, ubar=bad)

    def test_mobility_positive(self):
        with pytest.raises(ValueError):
            MobilitySpec(h0=0.0)
        with pytest.raises(ValueError):
            MobilitySpec(h0=-1.0)

    @pytest.mark.parametrize(
        "taylor", [(math.nan, 0.0, 0.0), (math.inf, 0.0, 0.0), (1.0, math.nan, 0.0), (1.0, 0.0, -math.inf)]
    )
    def test_mobility_finite(self, taylor):
        with pytest.raises(ValueError, match="must be finite"):
            MobilitySpec(*taylor)

    def test_taylor_value_leaves_its_input(self):
        mob = MobilitySpec(h0=1.0, h1=0.3, h2=0.8)
        u = np.random.default_rng(2).uniform(-1.0, 1.0, (4, 5, 6))
        keep = u.copy()
        expect = mob.h0 + mob.h1 * u + 0.5 * mob.h2 * u * u
        out, scratch = np.empty_like(u), np.empty_like(u)
        assert mob.taylor_value(u, out=out, scratch=scratch) is out
        for got in (out, mob.taylor_value(u)):
            assert np.array_equal(got, expect)
        assert np.array_equal(u, keep)


class TestMobilityProfile:
    def test_polynomial_taylor_data(self):
        prof = MobilityProfile(kind="polynomial", data=(0.6, 1.2, -1.0), lower_bound=0.1)
        h0, h1, h2 = prof.taylor_data(0.5)
        assert h0 == pytest.approx(0.6 + 0.6 - 0.25)
        assert h1 == pytest.approx(1.2 - 1.0)
        assert h2 == pytest.approx(-2.0)

    def test_table_profile_interpolates(self):
        prof = MobilityProfile(
            kind="table", data=((0.0, 0.5, 1.0), (1.0, 1.4, 1.0)), lower_bound=0.5
        )
        assert prof(0.25) == pytest.approx(1.2)
        # inside a segment the table is linear: exact slope, no curvature
        assert prof.taylor_data(0.75) == pytest.approx((1.2, -0.8, 0.0), rel=1e-15)
        assert prof.taylor_data(0.125) == pytest.approx((1.1, 0.8, 0.0), rel=1e-15)

    @pytest.mark.parametrize("seed", range(5))
    def test_table_profile_matches_interp_to_the_bit(self, seed):
        # the chunked evaluation rounds as np.interp, in any memory layout:
        # inside the segments, at and next to every knot, at both ends and
        # beyond them
        rng = np.random.default_rng(seed)
        xs = np.unique(rng.uniform(-0.5, 1.5, 2 + 3 * seed))
        hs = rng.uniform(0.1, 3.0, xs.size)
        prof = MobilityProfile(kind="table", data=(xs, hs), lower_bound=0.05)
        s = np.concatenate([
            rng.uniform(-1.0, 2.0, 3000), xs,
            np.nextafter(xs, np.inf), np.nextafter(xs, -np.inf),
            [-np.inf, np.inf, -1e300, 1e300, -0.0, 0.0],
        ]).reshape(3, -1)
        expect = np.interp(s, xs, hs)
        out = np.full_like(s, np.nan)
        assert prof(s, out=out) is out
        strided = np.full((s.shape[1], 2 * s.shape[0]), np.nan)[:, ::2].T
        prof(s.T.copy().T, out=strided)
        for got in (out, prof(s), strided):
            assert np.array_equal(got.view(np.int64), expect.view(np.int64))
        assert np.isnan(prof(np.array([np.nan, 0.5]))[0])
        assert prof(float(xs[-1])) == hs[-1]

    def test_table_knot_has_no_taylor_data(self):
        prof = MobilityProfile(
            kind="table", data=((0.0, 0.5, 1.0), (1.0, 1.4, 1.0)), lower_bound=0.5
        )
        with pytest.raises(ValueError, match="knot s = 0.5"):
            prof.taylor_data(0.5)

    def test_lower_bound_enforced(self):
        with pytest.raises(ValueError) as exc:
            MobilityProfile(kind="polynomial", data=(0.05,), lower_bound=0.1)
        assert str(exc.value) == (
            "mobility profile drops to 0.05, below the declared lower bound 0.1 on (0.0, 1.0)"
        )
        with pytest.raises(ValueError):
            # H(s) = 1 - 2 s dips negative on (0, 1)
            MobilityProfile(kind="polynomial", data=(1.0, -2.0), lower_bound=0.01)

    def test_from_profile(self):
        prof = MobilityProfile(kind="polynomial", data=(0.6, 1.2, -1.0), lower_bound=0.1)
        mob = MobilitySpec.from_profile(prof, 0.5)
        assert mob.h0 == pytest.approx(0.95)
        assert mob.profile is prof
        assert PhysicalParams(R=1, gamma=1, alpha=1, ubar=0.5, mobility=mob).mobility is mob

    def test_params_reject_taylor_data_beside_a_disagreeing_profile(self):
        prof = MobilityProfile(kind="polynomial", data=(0.6, 1.2, -1.0), lower_bound=0.1)
        for mob in (
            MobilitySpec(h0=1.0, profile=prof),  # the profile gives 0.95, 0.2, -2
            MobilitySpec(h0=0.95, h1=0.2, h2=-2.0 + 1e-9, profile=prof),
        ):
            with pytest.raises(ValueError, match="MobilitySpec.from_profile"):
                PhysicalParams(R=1, gamma=1, alpha=1, ubar=0.5, mobility=mob)
        # the same profile read at another mean fraction disagrees too
        with pytest.raises(ValueError, match="from_profile"):
            PhysicalParams(
                R=1, gamma=1, alpha=1, ubar=0.4, mobility=MobilitySpec.from_profile(prof, 0.5)
            )


class TestDomainSpec:
    def test_case_detection(self):
        assert DomainSpec((3.0, 2.0, 1.0)).case is DomainCase.DISTINCT
        assert DomainSpec((2.0, 2.0, 1.0)).case is DomainCase.TWO_EQUAL
        assert DomainSpec((2.0, 2.0, 2.0)).case is DomainCase.ALL_EQUAL
        # a tie between the two smaller edges does not raise the multiplicity
        assert DomainSpec((3.0, 1.0, 1.0)).case is DomainCase.DISTINCT

    def test_multiplicity(self):
        assert DomainSpec((3.0, 2.0, 1.0)).multiplicity == 1
        assert DomainSpec((2.0, 2.0, 1.0)).multiplicity == 2
        assert DomainSpec((2.0, 2.0, 2.0)).multiplicity == 3

    def test_case_cannot_be_set(self):
        # the case follows from the lengths: an override gave a wrong census
        with pytest.raises(TypeError):
            DomainSpec((2.0, 2.0, 1.0), case=DomainCase.DISTINCT)

    def test_tie_tolerance(self):
        near = 2.0 * (1.0 - 1e-13)
        assert DomainSpec((2.0, near, 1.0)).case is DomainCase.TWO_EQUAL
        assert DomainSpec((2.0, near, 1.0), tie_tolerance=1e-15).case is DomainCase.DISTINCT
        # a negative tolerance would split even exactly equal edges
        with pytest.raises(ValueError, match="tie_tolerance"):
            DomainSpec((2.0, 2.0, 2.0), tie_tolerance=-1.0)

    def test_rejects_bad_lengths(self):
        with pytest.raises(ValueError):
            DomainSpec((1.0, 2.0, 3.0))  # not sorted
        with pytest.raises(ValueError):
            DomainSpec((1.0, 0.5, 0.0))
        with pytest.raises(ValueError):
            DomainSpec((1.0, -0.5, 0.2))

    def test_volume_and_l(self):
        d = DomainSpec((math.pi, 2.0, 1.0))
        assert d.L == math.pi
        assert d.volume == pytest.approx(2 * math.pi)
