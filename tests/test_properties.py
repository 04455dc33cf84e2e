"""Invariants over random admissible inputs (Hypothesis).

One conservative (``divergence``) step under any admissible quadratic
mobility profile must not raise the free energy beyond criterion 8's
per-step tolerance and keeps the mass at exactly zero; the sigma pair and
the discriminants obey their identities at the critical temperature for
any parameters with a supercritical regime; the classifier's census
rule agrees with direct enumeration of the equilibria on each box case;
and the reduced system's float kernels give numpy's array arithmetic to the
bit.
The examples are drawn deterministically (see the settings profile in
``conftest.py``).
"""

import math

import numpy as np
import pytest
from hypothesis import assume, example, given
from hypothesis import strategies as st

from chtransition import (
    DomainSpec,
    MarginalTransitionError,
    MobilityProfile,
    MobilitySpec,
    PhysicalParams,
    SimState,
    ReducedState,
    StepConfig,
    Stepper,
    census_check,
    classify_transition,
    critical_set,
    critical_temperature,
    cubic_coefficients,
    free_energy,
    growth_rate,
    integrate_reduced,
    random_initial_field,
    reduced_vector_field,
    transition_discriminants,
)

from conftest import array_field, array_rk4

D = DomainSpec((math.pi, 2.0, 1.0))
GRID = (8, 8, 8)


@st.composite
def quadratic_profiles(draw):
    coeffs = (draw(st.floats(0.2, 2.0)), draw(st.floats(-1.0, 1.0)), draw(st.floats(-1.0, 1.0)))
    try:
        return MobilityProfile(kind="polynomial", data=coeffs, lower_bound=0.05)
    except ValueError:  # dips below the declared floor somewhere on [0, 1]
        assume(False)


@given(
    profile=quadratic_profiles(),
    ubar=st.floats(0.3, 0.7),
    quench=st.floats(0.5, 1.2),
    seed=st.integers(0, 2**32 - 1),
)
def test_divergence_step_dissipates_and_pins_mass(profile, ubar, quench, seed):
    p = PhysicalParams(
        R=1.0, gamma=1.0, alpha=1.0, ubar=ubar,
        mobility=MobilitySpec.from_profile(profile, ubar),
    )
    T = quench * critical_temperature(p, D)
    u0 = random_initial_field(D, GRID, 0.05, np.random.default_rng(seed), band_limit=3)
    s0 = SimState(u=u0, t=0.0, T=T, params=p)
    stepper = Stepper(s0, StepConfig(dt=1e-3, grid=GRID, rhs="divergence"))
    s1 = stepper.step(s0)
    e0, e1 = free_energy(stepper, s0.u.coeffs), free_energy(stepper, s1.u.coeffs)
    assert e1 - e0 <= 1e-8 * (1.0 + max(abs(e0), abs(e1)))
    assert s1.mass == 0.0


@given(
    R=st.floats(0.5, 2.0),
    gamma=st.floats(0.5, 5.0),
    alpha=st.floats(0.2, 3.0),
    ubar=st.floats(0.05, 0.95),
    l1=st.floats(2.5, 6.0),
    shape=st.tuples(st.floats(0.5, 0.999), st.floats(0.3, 0.999)),
)
def test_sigma_discriminant_identities(R, gamma, alpha, ubar, l1, shape):
    assume(2.0 * gamma > alpha * math.pi**2 / l1**2)
    d = DomainSpec((l1, l1 * shape[0], l1 * shape[0] * shape[1]))
    disc = transition_discriminants(PhysicalParams(R=R, gamma=gamma, alpha=alpha, ubar=ubar), d)
    scale = abs(disc.sigma1) + abs(disc.sigma2)
    assert abs(disc.sigma1 - 1.5 * disc.B1) <= 1e-12 * scale
    assert abs(disc.sigma1 + disc.sigma2 - 4.5 * disc.B2) <= 1e-12 * scale
    assert abs(disc.sigma1 + 2.0 * disc.sigma2 - 7.5 * disc.B3) <= 1e-12 * scale
    assert disc.B1 >= disc.B2 >= disc.B3


# edge lengths from the longest edge and two ratios, for each box case
BOXES = {
    "distinct": lambda l1, r2, r3: (l1, l1 * r2, l1 * r2 * r3),
    "two_equal": lambda l1, r2, r3: (l1, l1, l1 * r3),
    "all_equal": lambda l1, r2, r3: (l1, l1, l1),
}


@pytest.mark.parametrize("case", list(BOXES))
@given(
    R=st.floats(0.5, 2.0),
    gamma=st.floats(0.5, 20.0),
    alpha=st.floats(0.2, 3.0),
    ubar=st.floats(0.05, 0.95),
    l1=st.floats(2.5, 6.0),
    shape=st.tuples(st.floats(0.5, 0.999), st.floats(0.3, 0.999)),
)
# B1 > 0 > B3 with B2 > 0, a narrow window the draw seldom meets
@example(R=1.0, gamma=10.0, alpha=1.0, ubar=0.435, l1=math.pi, shape=(0.7, 0.5))
def test_census_rule_agrees_with_enumeration(case, R, gamma, alpha, ubar, l1, shape):
    assume(2.0 * gamma > alpha * math.pi**2 / l1**2)
    p = PhysicalParams(R=R, gamma=gamma, alpha=alpha, ubar=ubar)
    d = DomainSpec(BOXES[case](l1, *shape))
    assert d.case.value == case
    try:
        report = classify_transition(p, d)
    except MarginalTransitionError:
        assume(False)
    assert sum(c.total for c in report.census.values()) == 3**d.multiplicity - 1
    check = census_check(report, p, d)
    assert check.matches, check.mismatches


@pytest.mark.parametrize("case", list(BOXES))
@given(
    ubar=st.floats(0.05, 0.95),
    gamma=st.floats(2.0, 20.0),
    shape=st.tuples(st.floats(0.5, 0.999), st.floats(0.3, 0.999)),
    quench=st.floats(0.8, 1.2),
    y0=st.lists(st.floats(-0.5, 0.5), min_size=3, max_size=3),
    dt=st.sampled_from([0.05, 0.01, -0.02]),
    steps=st.integers(0, 300),
    record_every=st.integers(1, 40),
    blowup_norm=st.sampled_from([1e6, 1.0, 0.3]),
    sigma_at=st.sampled_from(["ambient", "critical"]),
)
# a jump transition above Tc: the orbit leaves through blowup_norm
@example(ubar=0.32, gamma=10.0, shape=(0.7, 0.5), quench=1.02, y0=[0.4, 0.4, 0.4],
         dt=0.05, steps=300, record_every=7, blowup_norm=1.0, sigma_at="critical")
# squares overflow: the zeros that pad m < 3 meet inf and NaN
@example(ubar=0.45, gamma=10.0, shape=(0.7, 0.5), quench=0.98, y0=[1e155, 1e155, 1e155],
         dt=0.05, steps=20, record_every=1, blowup_norm=math.inf, sigma_at="ambient")
# the first stage overflows: the square of a negative amplitude (m = 1, 2, 3),
# met by a live zero (m = 3)
@example(ubar=0.45, gamma=10.0, shape=(0.7, 0.5), quench=0.98, y0=[-2e154, 1e154, 0.0],
         dt=0.05, steps=20, record_every=1, blowup_norm=math.inf, sigma_at="ambient")
# finite squares whose sum overflows (m = 2, 3), met by a live zero (m = 3)
@example(ubar=0.45, gamma=10.0, shape=(0.7, 0.5), quench=0.98, y0=[1e154, 1e154, 0.0],
         dt=0.05, steps=20, record_every=1, blowup_norm=math.inf, sigma_at="critical")
# a live zero against an overflowing square (m = 2, 3)
@example(ubar=0.45, gamma=10.0, shape=(0.7, 0.5), quench=0.98, y0=[0.0, 1e155, 0.2],
         dt=0.05, steps=20, record_every=1, blowup_norm=math.inf, sigma_at="ambient")
# finite stages whose RK4 sum overflows to -inf with no NaN: only the range
# test's finite bound tells it from a finite state under blowup_norm = inf
@example(ubar=0.45, gamma=10.0, shape=(0.7, 0.5), quench=0.98, y0=[1.8e102, -9e101, 7.2e101],
         dt=1e-300, steps=3, record_every=1, blowup_norm=math.inf, sigma_at="ambient")
# the cubic term large against the linear one, so the order of a1*y*y shows
@example(ubar=0.493, gamma=11.96, shape=(0.7, 0.5), quench=0.843, y0=[0.364, -0.221, -0.053],
         dt=0.05, steps=300, record_every=1, blowup_norm=1.0, sigma_at="critical")
# an escape below -blowup_norm by the second (m = 2) and by the third (m = 3)
# component alone
@example(ubar=0.318, gamma=2.19, shape=(0.7, 0.5), quench=0.888, y0=[0.1, -0.348, 0.2],
         dt=0.05, steps=300, record_every=1, blowup_norm=0.3, sigma_at="ambient")
@example(ubar=0.318, gamma=2.19, shape=(0.7, 0.5), quench=0.888, y0=[0.1, 0.2, -0.419],
         dt=0.05, steps=300, record_every=1, blowup_norm=0.3, sigma_at="ambient")
# no step, and a record interval past the last step (only the last is kept)
@example(ubar=0.3, gamma=5.0, shape=(0.7, 0.5), quench=0.9, y0=[0.1, -0.2, 0.3],
         dt=0.05, steps=0, record_every=1, blowup_norm=1e6, sigma_at="ambient")
@example(ubar=0.3, gamma=5.0, shape=(0.7, 0.5), quench=0.9, y0=[0.1, -0.2, 0.3],
         dt=-0.02, steps=25, record_every=40, blowup_norm=1e6, sigma_at="critical")
def test_reduced_kernel_matches_array_arithmetic(
    case, ubar, gamma, shape, quench, y0, dt, steps, record_every, blowup_norm, sigma_at
):
    p = PhysicalParams(R=1.0, gamma=gamma, alpha=1.0, ubar=ubar)
    d = DomainSpec(BOXES[case](math.pi, *shape))
    T = quench * critical_temperature(p, d)
    state = ReducedState(y=tuple(y0[: d.multiplicity]), T=T)
    beta = growth_rate(critical_set(p, d).modes[0], T, p, d)
    a1, a2 = cubic_coefficients(p, d, T=T if sigma_at == "ambient" else None)

    field = reduced_vector_field(state, p, d, sigma_at=sigma_at)
    assert field.tobytes() == array_field(np.asarray(state.y), beta, a1, a2).tobytes()

    traj = integrate_reduced(state, p, d, dt, steps, sigma_at=sigma_at,
                             record_every=record_every, blowup_norm=blowup_norm)
    times, states, escaped = array_rk4(state.y, beta, a1, a2, dt, steps, record_every,
                                       blowup_norm)
    assert traj.escaped == escaped
    assert traj.times.tobytes() == times.tobytes()
    assert traj.states.shape == states.shape
    assert traj.states.tobytes() == states.tobytes()
