import math

import numpy as np
import pytest
from scipy.optimize import brentq

from chtransition import (
    DegenerateCubicError,
    DomainSpec,
    MarginalTransitionError,
    MobilitySpec,
    PhysicalParams,
    Side,
    TransitionType,
    bifurcated_amplitude,
    census_check,
    classify_transition,
    critical_temperature,
    cubic_coefficients,
    enumerate_equilibria,
    equal_cubic_coefficients,
    transition_discriminants,
    vanishing_cubic_denominator,
)

D1 = DomainSpec((math.pi, 2.0, 1.0))
D2 = DomainSpec((math.pi, math.pi, 1.0))
D3 = DomainSpec((math.pi, math.pi, math.pi))


def _params(ubar, gamma=1.0, alpha=1.0, mobility=None):
    return PhysicalParams(
        R=1.0, gamma=gamma, alpha=alpha, ubar=ubar,
        mobility=mobility or MobilitySpec(h0=1.0),
    )


def _signs(p, d):
    disc = transition_discriminants(p, d)
    return tuple(1 if b > 0 else -1 for b in (disc.B1, disc.B2, disc.B3))


def _equal_sigma_gamma(ubar, d):
    """The gamma at which sigma1 = sigma2 (one root in (1.01, 5))."""

    def gap(gamma):
        disc = transition_discriminants(_params(ubar, gamma), d)
        return disc.sigma1 - disc.sigma2

    return brentq(gap, 1.01, 5.0, xtol=1e-15)


class TestTypeDecision:
    def test_symmetric_always_continuous(self):
        for d in (D1, D2, D3):
            report = classify_transition(_params(0.5), d)
            assert report.transition_type is TransitionType.TYPE_I
            assert report.side is Side.BELOW
            assert report.m == d.multiplicity

    def test_single_mode_jump(self):
        p = _params(0.32, gamma=10.0)
        assert _signs(p, D1) == (-1, -1, -1)
        report = classify_transition(p, D1)
        assert report.transition_type is TransitionType.TYPE_II
        assert report.side is Side.ABOVE
        assert report.census[Side.ABOVE].saddles == 2
        assert any("repeller" in n for n in report.notes)

    def test_two_mode_jump_splits(self):
        # both-sides split when the first discriminant stays positive
        p = _params(0.43, gamma=10.0)
        assert _signs(p, D2) == (1, -1, -1)
        report = classify_transition(p, D2)
        assert report.transition_type is TransitionType.TYPE_II
        assert report.side is Side.BOTH
        assert report.census[Side.BELOW].saddles == 4
        assert report.census[Side.ABOVE].saddles == 4
        # all above when even the first discriminant flips
        p = _params(0.32, gamma=10.0)
        report = classify_transition(p, D2)
        assert report.side is Side.ABOVE
        assert report.census[Side.ABOVE].saddles == 8

    def test_three_mode_saddle_counts(self):
        for ubar, signs, above, below in (
            (0.435, (1, 1, -1), 8, 18),
            (0.43, (1, -1, -1), 20, 6),
            (0.32, (-1, -1, -1), 26, 0),
        ):
            p = _params(ubar, gamma=10.0)
            assert _signs(p, D3) == signs, ubar
            report = classify_transition(p, D3)
            assert report.transition_type is TransitionType.TYPE_II
            assert report.census[Side.ABOVE].saddles == above
            assert report.census[Side.BELOW].saddles == below

    def test_three_mode_minimal_attractor_split(self):
        # weak quadratic coupling: the six axis states attract
        p6 = _params(0.3, gamma=1.0)
        report6 = classify_transition(p6, D3)
        assert report6.transition_type is TransitionType.TYPE_I
        assert report6.minimal_attractors == 6
        assert report6.census[Side.BELOW].as_dict() == {
            "attractors": 6, "saddles": 20, "total": 26,
        }
        # stronger quadratic coupling: the eight diagonal states attract
        p8 = _params(0.3, gamma=1.5)
        report8 = classify_transition(p8, D3)
        assert report8.transition_type is TransitionType.TYPE_I
        assert report8.minimal_attractors == 8
        assert report8.census[Side.BELOW].saddles == 18

    def test_two_mode_continuous_census(self):
        report = classify_transition(_params(0.5), D2)
        assert report.census[Side.BELOW].as_dict() == {
            "attractors": 4, "saddles": 4, "total": 8,
        }
        assert report.attractor_topology == "S^1"

    def test_three_mode_topology_label(self):
        report = classify_transition(_params(0.5), D3)
        assert report.attractor_topology == "S^2"
        assert report.minimal_attractors == 6  # axes attract when b2 = 0

    @pytest.mark.parametrize("d", [D2, D3], ids=["m2", "m3"])
    def test_equal_sigma_is_a_continuum(self, d):
        # sigma1 == sigma2 at the critical temperature: the states below form
        # a sphere, which the report notes and the enumeration confirms
        p = _params(0.3, _equal_sigma_gamma(0.3, d))
        assert equal_cubic_coefficients(*cubic_coefficients(p, d))
        report = classify_transition(p, d)
        assert report.transition_type is TransitionType.TYPE_I
        assert all(c.total == 0 for c in report.census.values())
        assert any("continuum" in n for n in report.notes)
        assert report.minimal_attractors is None
        check = census_check(report, p, d)
        assert check.matches, check.mismatches

    @pytest.mark.parametrize("rel", [1e-12, 1e-11])
    @pytest.mark.parametrize("d", [D2, D3], ids=["m2", "m3"])
    def test_census_agrees_next_to_equal_sigma(self, d, rel):
        # the report and the enumeration apply one degeneracy tolerance, so
        # just off the root they agree on a discrete census or on the
        # continuum, never on neither
        for ubar in (0.3, 0.35, 0.4):
            gamma = _equal_sigma_gamma(ubar, d)
            for g in (gamma * (1.0 - rel), gamma * (1.0 + rel)):
                p = _params(ubar, g)
                check = census_check(classify_transition(p, d), p, d)
                assert check.matches, (ubar, g, check.mismatches)

    @pytest.mark.parametrize(
        "d,s", [(D1, 1), (D2, 1), (D2, 2), (D3, 1), (D3, 2), (D3, 3)],
        ids=["m1-B1", "m2-B1", "m2-B2", "m3-B1", "m3-B2", "m3-B3"],
    )
    def test_census_agrees_next_to_a_B_root(self, d, s):
        # the report refuses B_s by the test the enumeration applies to the
        # cubic denominator, so next to a root of B_s the two both refuse or
        # agree on the census
        def b_s(gamma):
            disc = transition_discriminants(_params(ubar, gamma), d)
            return (disc.B1, disc.B2, disc.B3)[s - 1]

        refused = 0
        for ubar in (0.30, 0.35, 0.40, 0.435):
            root = brentq(b_s, 0.5 + 1e-7, 1e4, xtol=1e-15)
            for rel in (0.0, 1e-12, -1e-12, 1e-11, -1e-11, 1e-10, -1e-10, 1e-9, -1e-9):
                p = _params(ubar, root * (1.0 + rel))
                try:
                    report = classify_transition(p, d)
                except MarginalTransitionError:
                    refused += 1
                    assert vanishing_cubic_denominator(*cubic_coefficients(p, d), s)
                    tc = critical_temperature(p, d)
                    for T in (0.98 * tc, 1.02 * tc):
                        with pytest.raises(DegenerateCubicError):
                            enumerate_equilibria(p, d, T)
                    continue
                check = census_check(report, p, d)
                assert check.matches, (ubar, rel, check.mismatches)
        assert refused  # the scan reaches the window where both refuse

    def test_marginal_discriminant_refused(self):
        def b1_at(gamma):
            return transition_discriminants(_params(0.3, gamma), D1).B1

        gamma_star = brentq(b1_at, 5.0, 10.0, xtol=1e-14)
        with pytest.raises(MarginalTransitionError):
            classify_transition(_params(0.3, gamma_star), D1)

    def test_alpha_threshold_note(self):
        report = classify_transition(_params(0.3, gamma=2.0, alpha=2.0), D3)
        if report.transition_type is TransitionType.TYPE_I:
            assert any("alpha" in n for n in report.notes)


class TestMobilityInvariance:
    def test_reports_identical_across_mobilities(self):
        base = classify_transition(_params(0.3, gamma=1.5), D3).as_dict()
        for h0, h1, h2 in ((0.5, 0.0, 0.0), (1.0, 0.7, 0.0), (3.0, -0.4, 2.0)):
            other = classify_transition(
                _params(0.3, gamma=1.5, mobility=MobilitySpec(h0=h0, h1=h1, h2=h2)), D3
            ).as_dict()
            assert other == base

    def test_amplitude_invariant(self):
        vals = [
            bifurcated_amplitude(
                _params(0.5, mobility=MobilitySpec(h0=h0, h1=h1, h2=h2)), D1, 0.24
            )
            for h0, h1, h2 in ((0.5, 0.0, 0.0), (1.0, 2.0, -1.0), (3.0, 0.1, 0.2))
        ]
        assert vals[0] == vals[1] == vals[2]


class TestAmplitudeLaw:
    def test_canonical_value(self):
        assert bifurcated_amplitude(_params(0.5), D1, 0.24) == pytest.approx(0.2, rel=1e-12)

    def test_vanishes_at_tc(self):
        tc = critical_temperature(_params(0.5), D1)
        assert bifurcated_amplitude(_params(0.5), D1, tc) == 0.0

    def test_wrong_side_rejected(self):
        with pytest.raises(ValueError):
            bifurcated_amplitude(_params(0.5), D1, 0.26)  # continuous, above Tc
        p = _params(0.32, gamma=10.0)
        tc = critical_temperature(p, D1)
        with pytest.raises(ValueError):
            bifurcated_amplitude(p, D1, 0.9 * tc)  # jump, below Tc

    def test_requires_single_mode(self):
        with pytest.raises(ValueError):
            bifurcated_amplitude(_params(0.5), D2, 0.24)

    def test_report_coefficient_consistent(self):
        report = classify_transition(_params(0.5), D1)
        amp = bifurcated_amplitude(_params(0.5), D1, 0.24)
        assert amp == pytest.approx(
            report.amplitude_coefficient * math.sqrt(report.tc - 0.24), rel=1e-12
        )


class TestCensusCheck:
    @pytest.mark.parametrize(
        "p,d",
        [
            (_params(0.5), D1),
            (_params(0.5), D2),
            (_params(0.5), D3),
            (_params(0.3, gamma=1.0), D3),
            (_params(0.3, gamma=1.5), D3),
            (_params(0.435, gamma=10.0), D3),
            (_params(0.43, gamma=10.0), D3),
            (_params(0.43, gamma=10.0), D2),
            (_params(0.32, gamma=10.0), D1),
            (_params(0.32, gamma=10.0), D2),
            (_params(0.32, gamma=10.0), D3),
        ],
    )
    def test_enumeration_agrees_with_theorem_table(self, p, d):
        report = classify_transition(p, d)
        check = census_check(report, p, d)
        assert check.matches, check.mismatches

    def test_mismatch_is_reported_not_raised(self):
        report = classify_transition(_params(0.5), D1)
        doctored = report.census.copy()
        from chtransition.classifier import SideCensus

        doctored[Side.BELOW] = SideCensus(attractors=5)
        from dataclasses import replace

        bad = replace(report, census=doctored)
        check = census_check(bad, _params(0.5), D1)
        assert not check.matches
        assert check.mismatches


class TestSerialisation:
    def test_report_round_trip(self):
        report = classify_transition(_params(0.5), D1)
        payload = report.as_dict()
        assert payload["schema_version"] == 1
        assert payload["type"] == "I"
        assert payload["census"]["below"]["attractors"] == 2
        text = report.to_text()
        assert "Tc" in text and "type" in text
