"""Acceptance suite: one test per exit criterion, at the stated tolerance.

Each criterion prints a single PASS/FAIL line (run with ``pytest -s`` to see
them).  The PDE-based criteria share module-scoped runs so the heavy
simulations are paid for once.
"""

import math
import time
from dataclasses import dataclass

import numpy as np
import pytest

from chtransition import (
    DomainSpec,
    EquilibriumKind,
    MobilityProfile,
    MobilitySpec,
    PhysicalParams,
    ReducedState,
    SimState,
    SpectralField,
    StepConfig,
    bifurcated_amplitude,
    census_check,
    classify_transition,
    cm_coefficients,
    critical_set,
    critical_temperature,
    critical_temperature_bisect,
    critical_vector_field,
    enumerate_equilibria,
    field_from_modes,
    growth_rate,
    integrate_reduced,
    random_initial_field,
    simulate,
    straight_line_orbits,
    transition_discriminants,
)
from chtransition.classifier import Side
from conftest import draw_params

D1 = DomainSpec((math.pi, 2.0, 1.0))
D2 = DomainSpec((math.pi, math.pi, 1.0))
D3 = DomainSpec((math.pi, math.pi, math.pi))
P_SYM = PhysicalParams(R=1.0, gamma=1.0, alpha=1.0, ubar=0.5)


def _report(name: str, ok: bool, detail: str) -> None:
    print(f"[{'PASS' if ok else 'FAIL'}] {name}: {detail}")
    assert ok, f"{name}: {detail}"


# ---------------------------------------------------------------------------
# shared simulations
# ---------------------------------------------------------------------------


@dataclass
class PitchforkRuns:
    """Criterion-6 payload: the quench run at eps = 0.04 plus the sweep."""

    run: object
    predicted: float
    sweep_eps: np.ndarray
    sweep_amp: np.ndarray
    slope: float
    elapsed: float


GRID32 = (32, 32, 32)


def _quench_run(params, eps, grid=GRID32, dt=0.1, seed_frac=0.5, steady_tol=1e-7,
                rhs="taylor"):
    # the terminal state is a fixed point of the scheme, so dt only sets how
    # fast we get there; the stopping tolerance is two orders tighter than
    # the loosest acceptance tolerance that consumes the amplitude
    tc = critical_temperature(params, D1)
    T = tc * (1.0 - eps)
    predicted = bifurcated_amplitude(params, D1, T)
    beta = growth_rate((1, 0, 0), T, params, D1)
    rng = np.random.default_rng(1234)
    u0 = random_initial_field(D1, grid, 1e-4, rng, band_limit=3)
    u0.coeffs[1, 0, 0] += seed_frac * predicted
    s0 = SimState(u=SpectralField(u0.coeffs, D1), t=0.0, T=T, params=params)
    cfg = StepConfig(dt=dt, grid=grid, rhs=rhs)
    result = simulate(
        s0, cfg, t_end=14.0 / beta, record_every=25, steady_tol=steady_tol
    )
    return result, predicted


@pytest.fixture(scope="module")
def pitchfork(request):
    t0 = time.perf_counter()
    run, predicted = _quench_run(P_SYM, 0.04)

    eps_grid = np.geomspace(0.01, 0.08, 6)
    from concurrent.futures import ThreadPoolExecutor

    def point(eps):
        res, _ = _quench_run(P_SYM, eps, seed_frac=0.9, steady_tol=1e-6)
        return abs(res.final_state.projection((1, 0, 0)))

    with ThreadPoolExecutor(max_workers=2) as pool:
        amps = np.array(list(pool.map(point, eps_grid)))
    tc = critical_temperature(P_SYM, D1)
    slope = float(np.polyfit(np.log(tc * eps_grid), np.log(amps), 1)[0])
    elapsed = time.perf_counter() - t0
    return PitchforkRuns(
        run=run, predicted=predicted, sweep_eps=eps_grid, sweep_amp=amps,
        slope=slope, elapsed=elapsed,
    )


@pytest.fixture(scope="module")
def mobility_runs(pitchfork):
    """Criteria-7/8 payload: the eps = 0.04 quench repeated per mobility,
    the Taylor ones under the ``taylor`` right-hand side and the genuinely
    nonlinear full profile in conservative (``divergence``) form."""
    from concurrent.futures import ThreadPoolExecutor

    t0 = time.perf_counter()
    full = MobilityProfile(kind="polynomial", data=(0.6, 1.2, -1.0))
    profiles = {
        "constant": MobilitySpec(h0=1.0),
        "linear": MobilitySpec(h0=1.0, h1=0.5),
        "quadratic": MobilitySpec(h0=1.0, h1=0.3, h2=0.8),
        "full profile": MobilitySpec.from_profile(full, 0.5),
    }

    def run_profile(name):
        params = PhysicalParams(
            R=1.0, gamma=1.0, alpha=1.0, ubar=0.5, mobility=profiles[name]
        )
        rhs = "divergence" if name == "full profile" else "taylor"
        return _quench_run(params, 0.04, dt=0.05, seed_frac=0.9, steady_tol=1e-5, rhs=rhs)

    names = [n for n in profiles if n != "constant"]
    with ThreadPoolExecutor(max_workers=2) as pool:
        results = list(pool.map(run_profile, names))
    runs = {"constant": (pitchfork.run, pitchfork.predicted)}
    runs.update(dict(zip(names, results)))
    elapsed = time.perf_counter() - t0
    return {"runs": runs, "profiles": profiles, "elapsed": elapsed}


# ---------------------------------------------------------------------------
# criteria
# ---------------------------------------------------------------------------


def test_criterion_1_critical_temperature_oracle():
    t0 = time.perf_counter()
    rng = np.random.default_rng(42)
    worst = 0.0
    for _ in range(100):
        p, d = draw_params(rng)
        tc = critical_temperature(p, d)
        tc_scan = critical_temperature_bisect(p, d, k_max=8)
        worst = max(worst, abs(tc - tc_scan) / tc)
    elapsed = time.perf_counter() - t0
    _report(
        "criterion 1 (Tc closed form vs bisection oracle)",
        worst <= 1e-10 and elapsed < 1.0,
        f"worst relative gap {worst:.2e} over 100 draws in {elapsed:.2f}s",
    )


def test_criterion_2_sigma_discriminant_identities():
    t0 = time.perf_counter()
    rng = np.random.default_rng(43)
    worst = 0.0
    for _ in range(1000):
        p, d = draw_params(rng)
        disc = transition_discriminants(p, d)
        scale = abs(disc.sigma1) + abs(disc.sigma2) + 1e-300
        worst = max(
            worst,
            abs(disc.sigma1 - 1.5 * disc.B1) / scale,
            abs(disc.sigma1 + disc.sigma2 - 4.5 * disc.B2) / scale,
            abs(disc.sigma1 + 2.0 * disc.sigma2 - 7.5 * disc.B3) / scale,
        )
    elapsed = time.perf_counter() - t0
    _report(
        "criterion 2 (sigma/discriminant identities at Tc)",
        worst <= 1e-12 and elapsed < 1.0,
        f"worst relative defect {worst:.2e} over 1000 draws in {elapsed:.2f}s",
    )


def test_criterion_3_center_manifold_oracle():
    t0 = time.perf_counter()
    worst = 0.0
    for d in (D1, D2, D3):
        p = PhysicalParams(R=1.0, gamma=1.0, alpha=1.0, ubar=0.3)
        tc = critical_temperature(p, d)
        m = d.multiplicity
        state = ReducedState(y=tuple(0.4 + 0.3 * i for i in range(m)), T=tc)
        lead = cm_coefficients(state, p, d, form="leading")
        quot = cm_coefficients(state, p, d, form="quotient")
        assert set(lead.values) == set(quot.values)
        for K in lead.values:
            worst = max(worst, abs(lead[K] - quot[K]) / abs(quot[K]))
    elapsed = time.perf_counter() - t0
    _report(
        "criterion 3 (slaving formulas vs projection-quotient oracle)",
        worst <= 1e-8 and elapsed < 5.0,
        f"worst relative gap {worst:.2e} across all domain cases in {elapsed:.2f}s",
    )


def test_criterion_4_equilibrium_census():
    t0 = time.perf_counter()
    # mean-fraction grid at gamma = 10 spanning every sign regime of the
    # discriminants, including both minimal-attractor branches
    design = [
        # (ubar, gamma, expected sign pattern of (B1, B2, B3))
        (0.5, 10.0, (1, 1, 1)),
        (0.45, 10.0, (1, 1, 1)),
        (0.435, 10.0, (1, 1, -1)),
        (0.43, 10.0, (1, -1, -1)),
        (0.32, 10.0, (-1, -1, -1)),
    ]
    checked = 0
    for ubar, gamma, signs in design:
        p = PhysicalParams(R=1.0, gamma=gamma, alpha=1.0, ubar=ubar)
        for d in (D1, D2, D3):
            disc = transition_discriminants(p, d)
            got = tuple(1 if b > 0 else -1 for b in (disc.B1, disc.B2, disc.B3))
            assert got == signs, (ubar, got, signs)
            report = classify_transition(p, d)
            check = census_check(report, p, d)
            assert check.matches, (ubar, d.multiplicity, check.mismatches)
            total = sum(c.total for c in check.observed.values())
            assert total == 3**d.multiplicity - 1, (ubar, d.multiplicity, total)
            checked += 1
    # minimal-attractor split across the threshold (eight vs six)
    for gamma, minimal in ((1.5, 8), (1.0, 6)):
        p = PhysicalParams(R=1.0, gamma=gamma, alpha=1.0, ubar=0.3)
        report = classify_transition(p, D3)
        assert report.minimal_attractors == minimal
        check = census_check(report, p, D3)
        assert check.matches, check.mismatches
        attract = [
            e for e in check.equilibria[Side.BELOW]
            if e.kind is EquilibriumKind.ATTRACTOR
        ]
        assert len(attract) == minimal
        checked += 1
    # jump-transition saddle splits above Tc: 8 / 20 / 26
    for ubar, above in ((0.435, 8), (0.43, 20), (0.32, 26)):
        p = PhysicalParams(R=1.0, gamma=10.0, alpha=1.0, ubar=ubar)
        tc = critical_temperature(p, D3)
        eqs = enumerate_equilibria(p, D3, 1.02 * tc)
        assert len(eqs) == above, (ubar, len(eqs))
        assert all(e.kind is not EquilibriumKind.ATTRACTOR for e in eqs)
        assert all(e.residual < 1e-10 for e in eqs)
        checked += 1
    elapsed = time.perf_counter() - t0
    _report(
        "criterion 4 (equilibrium census vs theorem tables)",
        elapsed < 10.0,
        f"{checked} regime/domain combinations verified in {elapsed:.2f}s",
    )


def test_criterion_5_straight_line_orbits():
    t0 = time.perf_counter()
    p = PhysicalParams(R=1.0, gamma=4.0, alpha=1.0, ubar=0.35)
    worst = 0.0
    for d, m, n_lines in ((D2, 2, 4), (D3, 3, 13)):
        dirs = straight_line_orbits(m)
        assert len(dirs) == n_lines
        assert 2 * len(dirs) == {2: 8, 3: 26}[m]
        for v in dirs:
            for c in (0.05, 0.4, -0.9):
                f = critical_vector_field(c * v, p, d)
                resid = np.abs(f - (f @ v) * v).max()
                scale = max(np.abs(f).max(), 1e-30)
                worst = max(worst, resid / scale if scale > 1e-30 else resid)
    elapsed = time.perf_counter() - t0
    _report(
        "criterion 5 (straight-line orbit counts and invariance)",
        worst <= 1e-12 and elapsed < 1.0,
        f"4+13 lines, worst relative off-line component {worst:.2e} in {elapsed:.2f}s",
    )


def test_criterion_6_pitchfork_amplitude_law(pitchfork):
    terminal = abs(pitchfork.run.final_state.projection((1, 0, 0)))
    rel_err = abs(terminal - pitchfork.predicted) / pitchfork.predicted
    slope_ok = abs(pitchfork.slope - 0.5) <= 0.02
    _report(
        "criterion 6 (pitchfork amplitude law and sweep slope)",
        rel_err <= 0.10 and slope_ok and pitchfork.elapsed < 300.0,
        f"terminal {terminal:.5f} vs {pitchfork.predicted:.5f} "
        f"({rel_err:.1%}), sweep slope {pitchfork.slope:.4f}, "
        f"{pitchfork.elapsed:.0f}s",
    )


def test_criterion_7_mobility_independence(mobility_runs):
    runs = mobility_runs["runs"]
    profiles = mobility_runs["profiles"]
    # classifier outputs must agree exactly
    reports = {}
    for name, mob in profiles.items():
        p = PhysicalParams(R=1.0, gamma=1.0, alpha=1.0, ubar=0.5, mobility=mob)
        reports[name] = classify_transition(p, D1).as_dict()
    exact = all(reports[n] == reports["constant"] for n in reports)
    amps = {n: abs(r.final_state.projection((1, 0, 0))) for n, (r, _) in runs.items()}
    spread = (max(amps.values()) - min(amps.values())) / amps["constant"]
    elapsed = mobility_runs["elapsed"]
    _report(
        "criterion 7 (transition independent of the mobility nonlinearity)",
        exact and spread <= 0.05 and elapsed < 900.0,
        f"classifier outputs identical: {exact}; amplitudes {amps} "
        f"(spread {spread:.2%}); {elapsed:.0f}s",
    )


def test_criterion_8_conservation_and_dissipation(pitchfork, mobility_runs):
    worst_mass = 0.0
    worst_energy = -np.inf
    stride = 25  # diagnostics cadence of the shared runs; the per-step
    # tolerance is summed over the steps inside one recorded increment
    for result, _ in mobility_runs["runs"].values():
        worst_mass = max(worst_mass, float(np.abs(result.mass).max()))
        tol = stride * 1e-8 * (1.0 + float(np.abs(result.energy).max()))
        worst_energy = max(worst_energy, float(np.diff(result.energy).max()) / tol)
    _report(
        "criterion 8 (mass conservation and energy decay)",
        worst_mass <= 1e-12 and worst_energy <= 1.0,
        f"max |mass| {worst_mass:.1e}; worst recorded energy increase "
        f"{worst_energy:.2f}x the accumulated per-step tolerance",
    )


def test_criterion_9_reduced_system_shadowing():
    t0 = time.perf_counter()
    eps = 0.02
    worst = 0.0
    for d, y0 in ((D1, (0.02,)), (D2, (0.02, 0.012))):
        p = P_SYM
        tc = critical_temperature(p, d)
        T = tc * (1.0 - eps)
        modes = critical_set(p, d).modes
        beta = growth_rate(modes[0], T, p, d)
        horizon = 1.0 / beta
        amplitude = math.sqrt(
            4.0 * p.R * (tc - T)
            / (3.0 * transition_discriminants(p, d).B1 * p.ubar * (1 - p.ubar))
        )
        grid = (16, 16, 16)
        dt = 0.02
        s0 = SimState(
            u=field_from_modes(dict(zip(modes, y0)), grid, d), t=0.0, T=T, params=p
        )
        res = simulate(s0, StepConfig(dt=dt, grid=grid), t_end=horizon, record_every=1)
        n = len(res.times) - 1
        traj = integrate_reduced(
            ReducedState(y=y0, T=T), p, d, dt=dt, steps=n, record_every=1
        )
        for j, K in enumerate(modes):
            dev = np.abs(res.amplitudes[K] - traj.states[: len(res.times), j]).max()
            worst = max(worst, dev / amplitude)
    elapsed = time.perf_counter() - t0
    _report(
        "criterion 9 (reduced dynamics shadows the critical projections)",
        worst <= 0.05 and elapsed < 600.0,
        f"worst deviation {worst:.2%} of the bifurcated amplitude in {elapsed:.0f}s",
    )


def test_criterion_10_linear_regime_spectrum():
    t0 = time.perf_counter()
    p, d = P_SYM, D1
    T = 0.24
    grid = (16, 16, 16)
    # the twenty least-damped modes
    from chtransition.linstab import _growth_rates_scan

    modes, beta = _growth_rates_scan(T, p, d, k_max=4)
    order = np.argsort(-beta)
    chosen = [modes[i] for i in order[:20]]
    amp0 = 1e-7
    s0 = SimState(
        u=field_from_modes({K: amp0 for K in chosen}, grid, d), t=0.0, T=T, params=p
    )
    dt = 1e-4
    n_steps = 3
    cfg = StepConfig(dt=dt, grid=grid)
    res = simulate(s0, cfg, t_end=n_steps * dt, record_every=n_steps,
                   track_modes=tuple(chosen))
    worst = 0.0
    for K in chosen:
        factor = (res.amplitudes[K][-1] / amp0) ** (1.0 / n_steps)
        target = math.exp(growth_rate(K, T, p, d) * dt)
        worst = max(worst, abs(factor - target) / target)
    elapsed = time.perf_counter() - t0
    _report(
        "criterion 10 (per-mode factors match the linear spectrum)",
        worst <= 1e-3 and elapsed < 30.0,
        f"worst relative factor error {worst:.2e} over 20 modes in {elapsed:.1f}s",
    )


def test_spectral_convergence_invariant(pitchfork):
    # steady amplitude must be resolution-independent: lift the converged
    # 32^3 state to 64^3 and keep integrating
    from chtransition.spectral import SpectralGrid

    t0 = time.perf_counter()
    final = pitchfork.run.final_state
    amp32 = final.u.amplitude((1, 0, 0))
    lifted = SpectralField(SpectralGrid((32, 32, 32), D1).padded(final.u.coeffs), D1)
    s64 = SimState(u=lifted, t=0.0, T=final.T, params=final.params)
    res = simulate(
        s64, StepConfig(dt=0.1, grid=(64, 64, 64)), t_end=30.0,
        record_every=100, steady_tol=1e-11,
    )
    drift = abs(res.final_state.u.amplitude((1, 0, 0)) - amp32)
    _report(
        "invariant (steady amplitude stable from N=32 to N=64)",
        drift < 1e-6,
        f"amplitude drift {drift:.2e} in {time.perf_counter() - t0:.0f}s",
    )
