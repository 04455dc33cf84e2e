"""Invariants over random admissible inputs (Hypothesis).

One conservative (``divergence``) step under any admissible quadratic
mobility profile must not raise the free energy beyond criterion 8's
per-step tolerance and keeps the mass at exactly zero; the sigma pair and
the discriminants obey their identities at the critical temperature for
any parameters with a supercritical regime.  The examples are drawn
deterministically (see the settings profile in ``conftest.py``).
"""

import math

import numpy as np
from hypothesis import assume, given
from hypothesis import strategies as st

from chtransition import (
    DomainSpec,
    MobilityProfile,
    MobilitySpec,
    PhysicalParams,
    SimState,
    StepConfig,
    Stepper,
    critical_temperature,
    free_energy,
    random_initial_field,
    transition_discriminants,
)

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
    s1 = Stepper(s0, StepConfig(dt=1e-3, grid=GRID, rhs="divergence")).step(s0)
    e0, e1 = free_energy(s0), free_energy(s1)
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
