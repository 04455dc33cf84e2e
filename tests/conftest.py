import math

import numpy as np
import pytest
from hypothesis import settings

from chtransition import DomainSpec, MobilitySpec, PhysicalParams

# every property test draws the same examples on every run, so the suite's
# verdict does not depend on the draw
settings.register_profile(
    "deterministic", derandomize=True, deadline=None, max_examples=40, database=None
)
settings.load_profile("deterministic")


@pytest.fixture
def canonical():
    """Symmetric mixture on the reference box; critical temperature 1/4."""
    p = PhysicalParams(R=1.0, gamma=1.0, alpha=1.0, ubar=0.5)
    d = DomainSpec((math.pi, 2.0, 1.0))
    return p, d


@pytest.fixture
def asym():
    """Asymmetric mean fraction (nonzero quadratic coefficient)."""
    return PhysicalParams(R=1.0, gamma=1.0, alpha=1.0, ubar=0.3)


def draw_params(rng: np.random.Generator):
    """One random admissible parameter set with a supercritical regime."""
    while True:
        r = rng.uniform(0.5, 2.0)
        gamma = rng.uniform(0.5, 5.0)
        alpha = rng.uniform(0.2, 3.0)
        ubar = rng.uniform(0.05, 0.95)
        l1 = rng.uniform(2.5, 6.0)
        if 2.0 * gamma > alpha * math.pi**2 / l1**2:
            break
    l2 = rng.uniform(0.5 * l1, l1 * 0.999)
    l3 = rng.uniform(0.3 * l2, l2 * 0.999)
    p = PhysicalParams(
        R=r, gamma=gamma, alpha=alpha, ubar=ubar,
        mobility=MobilitySpec(h0=rng.uniform(0.2, 3.0)),
    )
    return p, DomainSpec((l1, l2, l3))


def draw_case_params(rng: np.random.Generator, case: str):
    """One random admissible parameter set on a box of the given case:
    ``distinct``, ``two_equal`` and ``all_equal`` edges, ``near_tie`` (the
    two longest edges a relative 1e-15 … 1e-4 apart, declared tied), or
    ``tiny_tc`` (gamma 1e-12 … 1 above its threshold, so Tc is as small)."""
    p, d = draw_params(rng)
    l1, l2, l3 = d.lengths
    if case == "two_equal":
        d = DomainSpec((l1, l1, l3))
    elif case == "all_equal":
        d = DomainSpec((l1, l1, l1))
    elif case == "near_tie":
        delta = 10.0 ** rng.uniform(-15.0, -4.0)
        l2 = l1 * (1.0 - delta)
        # the third edge stays clear of the 1000x ambiguity window
        d = DomainSpec((l1, l2, l2 * rng.uniform(0.3, 0.7)), tie_tolerance=2.0 * delta)
    elif case == "tiny_tc":
        threshold = 0.5 * p.alpha * math.pi**2 / l1**2
        gamma = threshold + 10.0 ** rng.uniform(-12.0, 0.0)
        p = PhysicalParams(R=p.R, gamma=gamma, alpha=p.alpha, ubar=p.ubar, mobility=p.mobility)
    elif case != "distinct":
        raise ValueError(f"unknown case {case!r}")
    return p, d


BOX_CASES = ("distinct", "two_equal", "all_equal", "near_tie", "tiny_tc")


def array_field(y, beta, a1, a2):
    s = float((y * y).sum())
    return beta * y - y * (a1 * y * y + a2 * (s - y * y))


def array_rk4(y0, beta, a1, a2, dt, steps, record_every, blowup_norm):
    """RK4 of the reduced system on numpy arrays: the formulation the
    float kernel must reproduce to the bit."""
    y = np.asarray(y0, dtype=float)
    times, states, escaped = [0.0], [y.copy()], False
    for n in range(1, steps + 1):
        k1 = array_field(y, beta, a1, a2)
        k2 = array_field(y + 0.5 * dt * k1, beta, a1, a2)
        k3 = array_field(y + 0.5 * dt * k2, beta, a1, a2)
        k4 = array_field(y + dt * k3, beta, a1, a2)
        y = y + (dt / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
        if not np.all(np.isfinite(y)) or float(np.abs(y).max()) > blowup_norm:
            escaped = True
            break
        if n % record_every == 0 or n == steps:
            times.append(n * dt)
            states.append(y.copy())
    return np.asarray(times), np.asarray(states), escaped
