import math
from itertools import combinations, product

import numpy as np
import pytest
from scipy.optimize import brentq

from chtransition import (
    DegenerateCubicError,
    DomainSpec,
    EquilibriumKind,
    PhysicalParams,
    ReducedState,
    cm_coefficients,
    critical_set,
    critical_temperature,
    critical_vector_field,
    cubic_coefficients,
    derive_coefficients,
    enumerate_equilibria,
    growth_rate,
    integrate_reduced,
    laplacian_eigenvalue,
    mode_l2_norm_sq,
    reduced_potential,
    reduced_vector_field,
    straight_line_orbits,
    transition_discriminants,
    triple_product,
)
from chtransition.manifold import _field_at, _kind
from conftest import BOX_CASES, draw_case_params, draw_params

D1 = DomainSpec((math.pi, 2.0, 1.0))
D2 = DomainSpec((math.pi, math.pi, 1.0))
D3 = DomainSpec((math.pi, math.pi, math.pi))
DOMAINS = {1: D1, 2: D2, 3: D3}


def _params(ubar, gamma=1.0):
    return PhysicalParams(R=1.0, gamma=gamma, alpha=1.0, ubar=ubar)


class TestManifoldCoefficients:
    def test_symmetric_fraction_gives_zero(self):
        p = _params(0.5)
        tc = critical_temperature(p, D1)
        for form in ("leading", "quotient"):
            phi = cm_coefficients(ReducedState(y=(1.0,), T=tc), p, D1, form=form)
            assert all(v == pytest.approx(0.0, abs=1e-15) for v in phi.values.values())

    @pytest.mark.parametrize("m", [1, 2, 3])
    def test_leading_matches_quotient_at_tc(self, m):
        p = _params(0.3)
        d = DOMAINS[m]
        tc = critical_temperature(p, d)
        y = tuple(0.3 + 0.2 * i for i in range(m))
        state = ReducedState(y=y, T=tc)
        lead = cm_coefficients(state, p, d, form="leading")
        quot = cm_coefficients(state, p, d, form="quotient")
        assert set(lead.values) == set(quot.values)
        for K in lead.values:
            assert lead[K] == pytest.approx(quot[K], rel=1e-8)

    def test_doubling_formula_value(self):
        p = _params(0.3)
        tc = critical_temperature(p, D1)
        from chtransition import derive_coefficients, laplacian_eigenvalue

        b2 = derive_coefficients(p, tc).b2
        rho = laplacian_eigenvalue((1, 0, 0), D1)
        phi = cm_coefficients(ReducedState(y=(1.0,), T=tc), p, D1)
        assert phi[(2, 0, 0)] == pytest.approx(-b2 / (6 * p.alpha * rho), rel=1e-14)

    def test_mixed_formula_uses_both_orderings(self):
        p = _params(0.3)
        tc = critical_temperature(p, D2)
        from chtransition import derive_coefficients, laplacian_eigenvalue

        b2 = derive_coefficients(p, tc).b2
        rho = laplacian_eigenvalue((1, 0, 0), D2)
        y = (0.7, 1.3)
        phi = cm_coefficients(ReducedState(y=y, T=tc), p, D2)
        assert phi[(1, 1, 0)] == pytest.approx(
            -2 * b2 * y[0] * y[1] / (p.alpha * rho), rel=1e-14
        )
        quot = cm_coefficients(ReducedState(y=y, T=tc), p, D2, form="quotient")
        assert phi[(1, 1, 0)] == pytest.approx(quot[(1, 1, 0)], rel=1e-8)

    def test_quotient_gap_shrinks_with_distance_to_tc(self):
        # the neglected correction is of the order of the critical growth rate
        p = _params(0.3)
        tc = critical_temperature(p, D1)
        state_far = ReducedState(y=(1.0,), T=tc * 0.95)
        state_near = ReducedState(y=(1.0,), T=tc * 0.995)
        lead = cm_coefficients(ReducedState(y=(1.0,), T=tc), p, D1)[(2, 0, 0)]
        gap_far = abs(cm_coefficients(state_far, p, D1, form="quotient")[(2, 0, 0)] - lead)
        gap_near = abs(cm_coefficients(state_near, p, D1, form="quotient")[(2, 0, 0)] - lead)
        assert gap_near < gap_far
        assert gap_far < 0.1 * abs(lead)

    def test_warns_far_from_tc(self):
        p = _params(0.3)
        tc = critical_temperature(p, D1)
        with pytest.warns(UserWarning):
            cm_coefficients(ReducedState(y=(1.0,), T=0.5 * tc), p, D1)

    def test_mobility_cancels_in_quotient(self):
        from chtransition import MobilitySpec

        tc = critical_temperature(_params(0.3), D1)
        state = ReducedState(y=(0.8,), T=tc)
        vals = []
        for h0 in (0.5, 1.0, 3.0):
            p = PhysicalParams(R=1, gamma=1, alpha=1, ubar=0.3, mobility=MobilitySpec(h0=h0))
            vals.append(cm_coefficients(state, p, D1, form="quotient")[(2, 0, 0)])
        assert vals[0] == pytest.approx(vals[1], rel=1e-14)
        assert vals[1] == pytest.approx(vals[2], rel=1e-14)


def _quotient_by_triple_products(state, p, d):
    """Reference: the projection quotient with one `triple_product` per
    pair of critical modes and slaved mode, summed in `product` order."""
    modes = critical_set(p, d).modes
    y = dict(zip(modes, state.y))
    b2 = derive_coefficients(p, state.T).b2
    values = {}
    for K in sorted({tuple(a + b for a, b in zip(J, L)) for J, L in product(modes, repeat=2)}):
        acc = 0.0
        for J, L in product(modes, repeat=2):
            acc += y[J] * y[L] * triple_product(J, L, K, d)
        values[K] = (
            p.mobility.h0 * b2 * laplacian_eigenvalue(K, d) * acc
            / (growth_rate(K, state.T, p, d) * mode_l2_norm_sq(K, d))
        )
    return values


def _bits(values):
    """Keys in order and the bytes of the values, so NaNs compare too."""
    return list(values), np.array(list(values.values())).tobytes()


class TestQuotientTable:
    """The quotient reads its cancellation counts from a table per critical
    set; its values must be those of the per-pair triple products."""

    @pytest.mark.parametrize("case", BOX_CASES)
    def test_matches_triple_product_loop_to_the_bit(self, case):
        rng = np.random.default_rng(BOX_CASES.index(case) + 201)
        for _ in range(30):
            p, d = draw_case_params(rng, case)
            tc, m = critical_temperature(p, d), d.multiplicity
            for T in (tc, tc * (1.0 - 0.05 * rng.uniform())):
                for y in (rng.normal(size=m), rng.normal(size=m) * 1e-150, [0.0, -0.0, 1e300][:m]):
                    state = ReducedState(y=tuple(y), T=T)
                    got = cm_coefficients(state, p, d, form="quotient").values
                    assert _bits(got) == _bits(_quotient_by_triple_products(state, p, d))

    def test_resonant_slaved_mode_is_named(self):
        # rho(2,0,0) = 4 on D1, so beta(2,0,0) vanishes where
        # 2*gamma - R*T/(ubar*(1-ubar)) = 4, that is near T = 3.96 = 0.842*Tc
        p = _params(0.45, gamma=10.0)
        T = 3.96
        while growth_rate((2, 0, 0), T, p, D1) != 0.0:
            T = math.nextafter(T, math.inf)
            assert T < 3.96 * (1.0 + 1e-14)
        with pytest.warns(UserWarning), pytest.raises(ValueError, match=r"\(2, 0, 0\).*T=3\.96"):
            cm_coefficients(ReducedState(y=(0.5,), T=T), p, D1, form="quotient")
        # one step away the quotient is finite, and still the loop's
        T = math.nextafter(T, 0.0)
        with pytest.warns(UserWarning):
            got = cm_coefficients(ReducedState(y=(0.5,), T=T), p, D1, form="quotient")
        assert _bits(got.values) == _bits(
            _quotient_by_triple_products(ReducedState(y=(0.5,), T=T), p, D1)
        )


class TestVectorFields:
    def test_origin_fixed(self):
        p = _params(0.5)
        f = reduced_vector_field(ReducedState(y=(0.0,), T=0.24), p, D1)
        assert np.abs(f).max() == 0.0

    def test_odd_symmetry(self):
        p = _params(0.3)
        y = np.array([0.2, -0.1])
        plus = reduced_vector_field(ReducedState(y=tuple(y), T=0.2), _params(0.3, 3.0), D2)
        minus = reduced_vector_field(ReducedState(y=tuple(-y), T=0.2), _params(0.3, 3.0), D2)
        assert np.abs(plus + minus).max() < 1e-15

    def test_equilibrium_annihilates_field(self):
        p = _params(0.5)
        T = 0.24
        beta = growth_rate((1, 0, 0), T, p, D1)
        a1, _ = cubic_coefficients(p, D1, T=T)
        y_star = math.sqrt(beta / a1)
        f = reduced_vector_field(ReducedState(y=(y_star,), T=T), p, D1)
        assert abs(f[0]) < 1e-15

    def test_critical_field_cubic_scaling(self):
        p = _params(0.4, 5.0)
        y = np.array([0.3, -0.2, 0.1])
        f1 = critical_vector_field(y, p, D3)
        f2 = critical_vector_field(2.0 * y, p, D3)
        assert np.abs(f2 - 8.0 * f1).max() < 1e-12

    def test_critical_diagonal_is_parallel(self):
        p = _params(0.3, 2.0)
        y = np.array([0.37, 0.37])
        f = critical_vector_field(y, p, D2)
        assert abs(f[0] - f[1]) < 1e-15

    def test_sigma_freeze_flag(self):
        p = _params(0.3)
        state = ReducedState(y=(0.5,), T=0.95 * critical_temperature(p, D1))
        ambient = reduced_vector_field(state, p, D1)
        frozen = reduced_vector_field(state, p, D1, sigma_at="critical")
        assert ambient[0] != frozen[0]


class TestEquilibria:
    def test_single_mode_pitchfork(self):
        p = _params(0.5)
        eqs = enumerate_equilibria(p, D1, 0.24)
        assert len(eqs) == 2
        ys = sorted(e.y[0] for e in eqs)
        assert ys[0] == pytest.approx(-0.2, rel=1e-12)
        assert ys[1] == pytest.approx(0.2, rel=1e-12)
        assert all(e.kind is EquilibriumKind.ATTRACTOR for e in eqs)
        assert all(e.residual < 1e-10 for e in eqs)

    @pytest.mark.parametrize("m,expected", [(1, 2), (2, 8), (3, 26)])
    def test_total_census(self, m, expected):
        p = _params(0.4, gamma=10.0)
        d = DOMAINS[m]
        tc = critical_temperature(p, d)
        below = enumerate_equilibria(p, d, 0.98 * tc)
        above = enumerate_equilibria(p, d, 1.02 * tc)
        assert len(below) + len(above) == expected

    def test_randomised_type_one_census(self):
        rng = np.random.default_rng(31)
        count = 0
        while count < 20:
            p, d = draw_params(rng)
            disc = transition_discriminants(p, d)
            decider = (disc.B1, disc.B2, disc.B3)[d.multiplicity - 1]
            if decider <= 0 or abs(disc.sigma1 - disc.sigma2) < 1e-6:
                continue
            tc = critical_temperature(p, d)
            eqs = enumerate_equilibria(p, d, 0.97 * tc)
            assert len(eqs) == 3**d.multiplicity - 1
            count += 1

    def test_degenerate_coefficients_raise(self):
        # engineer sigma1 == sigma2 at the critical temperature
        def gap(gamma):
            disc = transition_discriminants(_params(0.3, gamma), D1)
            return disc.sigma1 - disc.sigma2

        gamma_star = brentq(gap, 1.01, 2.0, xtol=1e-15)
        p = _params(0.3, gamma_star)
        tc = critical_temperature(p, D1)
        with pytest.raises(DegenerateCubicError):
            enumerate_equilibria(p, D1, 0.99 * tc)

    def test_jacobian_kind_follows_sign(self):
        # jump transition: bifurcated states above Tc repel in the reduced line
        p = _params(0.32, gamma=10.0)
        tc = critical_temperature(p, D1)
        disc = transition_discriminants(p, D1)
        assert disc.B1 < 0
        eqs = enumerate_equilibria(p, D1, 1.02 * tc)
        assert len(eqs) == 2
        assert all(e.kind is EquilibriumKind.REPELLER for e in eqs)


class TestBatchedEnumeration:
    """`enumerate_equilibria` linearises every state in one stacked
    ``eigvalsh``; a per-state oracle with the single-matrix Jacobian must give
    the same bits in the same order."""

    @staticmethod
    def _oracle(p, d, T, sigma_at):
        m = d.multiplicity
        beta = growth_rate((1, 0, 0), T, p, d)
        a1, a2 = cubic_coefficients(p, d, T=T if sigma_at == "ambient" else None)
        scale = abs(a1) + abs(a2)
        out = []
        for k in range(1, m + 1):
            denom = a1 + (k - 1) * a2
            q = beta / denom
            if q <= 0.0:
                continue
            r = math.sqrt(q)
            for support in combinations(range(m), k):
                for signs in product((1.0, -1.0), repeat=k):
                    y = np.zeros(m)
                    for i, sg in zip(support, signs):
                        y[i] = sg * r
                    s = float((y * y).sum())
                    jac = -2.0 * a2 * np.outer(y, y)
                    np.fill_diagonal(jac, beta - 3.0 * a1 * y * y - a2 * (s - y * y))
                    eigs = np.linalg.eigvalsh(jac)
                    if np.any(np.abs(eigs) <= 1e-12 * (0.5 * q * scale)):
                        kind = EquilibriumKind.DEGENERATE
                    elif np.all(eigs < 0.0):
                        kind = EquilibriumKind.ATTRACTOR
                    elif np.all(eigs > 0.0):
                        kind = EquilibriumKind.REPELLER
                    else:
                        kind = EquilibriumKind.SADDLE
                    residual = max(abs(v) for v in _field_at(y.tolist(), beta, a1, a2))
                    closed = [-2.0 * q * denom] + [-2.0 * q * (a1 - a2)] * (k - 1)
                    closed += [q * (a1 - a2)] * (m - k)
                    out.append((tuple(y.tolist()), tuple(eigs.tolist()), kind, residual, closed))
        return out

    @pytest.mark.parametrize("sigma_at", ["critical", "ambient"])
    @pytest.mark.parametrize("side", [-1.0, 1.0], ids=["below", "above"])
    @pytest.mark.parametrize("ubar,gamma", [(0.3, 1.0), (0.32, 10.0)], ids=["typeI", "typeII"])
    @pytest.mark.parametrize("m", [1, 2, 3])
    def test_matches_per_state_oracle_to_the_bit(self, m, ubar, gamma, side, sigma_at):
        p, d = _params(ubar, gamma), DOMAINS[m]
        T = critical_temperature(p, d) * (1.0 + 0.02 * side)
        got = enumerate_equilibria(p, d, T, sigma_at=sigma_at)
        expect = self._oracle(p, d, T, sigma_at)
        assert len(got) == len(expect)
        for e, (y, eigs, kind, residual, closed) in zip(got, expect):
            assert e.y == y
            assert e.jacobian_eigs == eigs
            assert e.kind is kind
            assert e.residual == residual
            assert all(type(v) is float for v in (*e.y, *e.jacobian_eigs, e.residual))
            np.testing.assert_allclose(
                e.jacobian_eigs, sorted(closed), rtol=0.0, atol=1e-12 * max(map(abs, closed))
            )


    @staticmethod
    def _ladder(eigs, tols):
        """Reference: the kinds of stacked eigenvalues by nested np.where, a
        degenerate eigenvalue first, then all negative, all positive."""
        index = np.where(
            (np.abs(eigs) <= np.array(tols)[:, None]).any(axis=1),
            0,
            np.where((eigs < 0.0).all(axis=1), 1, np.where((eigs > 0.0).all(axis=1), 2, 3)),
        )
        kinds = (
            EquilibriumKind.DEGENERATE,
            EquilibriumKind.ATTRACTOR,
            EquilibriumKind.REPELLER,
            EquilibriumKind.SADDLE,
        )
        return [kinds[k] for k in index.tolist()]

    def test_kind_rule_matches_the_ladder_on_edge_values(self):
        nan, inf = math.nan, math.inf
        rows = [
            [-2.0, -1.0, -0.5], [0.5, 1.0, 2.0], [-1.0, 0.5, 2.0], [-1.0, 1e-13, 2.0],
            [-1e-12, -1.0, -2.0], [0.0, 1.0, 2.0], [-0.0, -1.0, -2.0], [nan, -1.0, -2.0],
            [1.0, nan, 2.0], [nan, 1e-13, 1.0], [-inf, -1.0, -2.0], [inf, 1.0, 2.0],
            [-inf, inf, 1.0], [nan, nan, nan],
        ]
        for tol in (1e-12, 0.0):
            got = [_kind(row, tol) for row in rows]
            assert got == self._ladder(np.array(rows), [tol] * len(rows))

    @pytest.mark.parametrize("case", BOX_CASES)
    def test_kinds_match_the_array_ladder(self, case):
        rng = np.random.default_rng(BOX_CASES.index(case) + 301)
        for _ in range(20):
            p, d = draw_case_params(rng, case)
            tc = critical_temperature(p, d)
            for T, sigma_at in product((0.97 * tc, 1.03 * tc), ("critical", "ambient")):
                try:
                    eqs = enumerate_equilibria(p, d, T, sigma_at=sigma_at)
                except DegenerateCubicError:
                    continue
                if not eqs:
                    continue
                beta = growth_rate((1, 0, 0), T, p, d)
                a1, a2 = cubic_coefficients(p, d, T=T if sigma_at == "ambient" else None)
                tols = []
                for e in eqs:
                    q = beta / (a1 + (sum(v != 0.0 for v in e.y) - 1) * a2)
                    tols.append(1e-12 * (0.5 * q * (abs(a1) + abs(a2))))
                eigs = np.array([e.jacobian_eigs for e in eqs])
                assert [e.kind for e in eqs] == self._ladder(eigs, tols)


# the invariant directions written out: axes, then in-plane diagonals, then
# space diagonals
_HAND_DIRECTIONS = {
    1: [(1,)],
    2: [(1, 0), (0, 1), (1, 1), (1, -1)],
    3: [
        (1, 0, 0), (0, 1, 0), (0, 0, 1),
        (1, 1, 0), (1, -1, 0), (1, 0, 1), (1, 0, -1), (0, 1, 1), (0, 1, -1),
        (1, 1, 1), (1, 1, -1), (1, -1, 1), (1, -1, -1),
    ],
}


class TestStraightLines:
    @pytest.mark.parametrize("m", [1, 2, 3])
    def test_directions_match_the_hand_list_to_the_byte(self, m):
        expect = [np.array(v, dtype=float) for v in _HAND_DIRECTIONS[m]]
        expect = [v / np.linalg.norm(v) for v in expect]
        got = straight_line_orbits(m)
        assert len(got) == len(expect)
        for v, w in zip(got, expect):
            assert v.dtype == w.dtype and v.shape == w.shape
            assert v.tobytes() == w.tobytes()

    @pytest.mark.parametrize("m,lines", [(1, 1), (2, 4), (3, 13)])
    def test_counts(self, m, lines):
        dirs = straight_line_orbits(m)
        assert len(dirs) == lines
        # two orbits per line
        assert 2 * len(dirs) == {1: 2, 2: 8, 3: 26}[m]

    def test_rejects_bad_m(self):
        for m in (0, 4):
            with pytest.raises(ValueError, match="m must be 1, 2 or 3"):
                straight_line_orbits(m)

    @pytest.mark.parametrize("m", [1, 2, 3])
    def test_invariance(self, m):
        p = _params(0.35, gamma=4.0)
        d = DOMAINS[m]
        for v in straight_line_orbits(m):
            for c in (0.1, 0.7, -1.3):
                f = critical_vector_field(c * v, p, d)
                resid = f - (f @ v) * v
                assert np.abs(resid).max() < 1e-12


class TestIntegration:
    def test_origin_stays(self):
        p = _params(0.5)
        traj = integrate_reduced(ReducedState(y=(0.0,), T=0.24), p, D1, dt=0.05, steps=100)
        assert np.abs(traj.states).max() == 0.0
        assert not traj.escaped

    def test_converges_to_pitchfork_equilibrium(self):
        p = _params(0.5)
        T = 0.24
        traj = integrate_reduced(
            ReducedState(y=(0.01,), T=T), p, D1, dt=0.1, steps=5000
        )
        beta = growth_rate((1, 0, 0), T, p, D1)
        a1, _ = cubic_coefficients(p, D1, T=T)
        assert traj.final[0] == pytest.approx(math.sqrt(beta / a1), abs=1e-6)
        assert not traj.escaped

    def test_time_reversal_order(self):
        p = _params(0.3, gamma=2.0)
        y0 = ReducedState(y=(0.3,), T=0.9 * critical_temperature(p, D1))
        for dt in (0.02, 0.01):
            fwd = integrate_reduced(y0, p, D1, dt=dt, steps=1)
            back = integrate_reduced(
                ReducedState(y=tuple(fwd.final), T=y0.T), p, D1, dt=-dt, steps=1
            )
            err = abs(back.final[0] - y0.y[0])
            assert err < 50.0 * dt**5

    def test_escape_reported_not_raised(self):
        p = _params(0.32, gamma=10.0)
        tc = critical_temperature(p, D1)
        eqs = enumerate_equilibria(p, D1, 1.02 * tc)
        edge = max(abs(e.y[0]) for e in eqs)
        traj = integrate_reduced(
            ReducedState(y=(2.0 * edge,), T=1.02 * tc), p, D1, dt=0.01, steps=100000,
            blowup_norm=1e3,
        )
        assert traj.escaped

    def test_potential_decreases_along_trajectory(self):
        p = _params(0.4, gamma=10.0)
        d = D2
        T = 0.98 * critical_temperature(p, d)
        traj = integrate_reduced(
            ReducedState(y=(0.05, 0.08), T=T), p, d, dt=0.02, steps=2000, record_every=1
        )
        pots = [
            reduced_potential(ReducedState(y=tuple(s), T=T), p, d)
            for s in traj.states
        ]
        diffs = np.diff(pots)
        assert diffs.max() <= 1e-10

    @pytest.mark.parametrize(
        "kwargs, name",
        [
            ({"steps": 10, "record_every": 0}, "record_every"),
            ({"steps": 10, "record_every": -3}, "record_every"),
            ({"steps": -2}, "steps"),
            ({"steps": 10, "blowup_norm": math.nan}, "blowup_norm"),
            ({"steps": 10, "blowup_norm": 0.0}, "blowup_norm"),
            ({"steps": 10, "blowup_norm": -1.0}, "blowup_norm"),
        ],
    )
    def test_bad_counts_rejected(self, kwargs, name):
        with pytest.raises(ValueError, match=name):
            integrate_reduced(ReducedState(y=(0.01,), T=0.24), _params(0.5), D1, dt=0.05,
                              **kwargs)

    def test_dt_stability_warning(self):
        p = _params(0.5)
        with pytest.warns(UserWarning):
            integrate_reduced(ReducedState(y=(0.01,), T=0.1), p, D1, dt=10.0, steps=1)
