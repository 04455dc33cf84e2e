"""The four benchmark workloads.

A workload turns the benchmark seed into its inputs (config files and
parameter draws), warms up in-process (``setup``: config parse, state and
``Stepper`` build and the first step, which plans the transforms), and runs
one timed solve that ends in a verified result (``solve``).  A solve returns
an ``Outcome``: the trajectories, validations or cases it attempted, those
that failed a correctness gate or were refused, and a record of terminal
amplitudes and output digests.  The record must repeat exactly from one
solve to the next on the same inputs.

See NOTES.md for why each workload exists and which layer it loads.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import math
import random
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

import chtransition as ch
# layer functions are looked up through their modules at call time, so the
# traced run's wrappers see these calls
from chtransition import cli, config, spectral

P_SYM = ch.PhysicalParams(R=1.0, gamma=1.0, alpha=1.0, ubar=0.5)
BOX1 = (math.pi, 2.0, 1.0)
BOX2 = (math.pi, math.pi, 1.0)
BOX3 = (math.pi, math.pi, math.pi)
LEAD = (1, 0, 0)

# acceptance bounds of the criteria each gate repeats
AMPLITUDE_TOL = 0.10  # criterion 6
SPREAD_TOL = 0.05  # criterion 7
MASS_TOL = 1e-12  # criterion 8
ENERGY_TOL_PER_STEP = 1e-8  # criterion 8, summed over one diagnostics stride
SHADOW_TOL = 0.05  # criterion 9
TC_GAP_TOL = 1e-10  # criterion 1
CM_GAP_TOL = 1e-8  # criterion 3

DRIFT_STEPS = 200  # fixed continuation after the steady-state stop


@dataclass
class Outcome:
    attempted: int = 0
    failed: list[str] = field(default_factory=list)
    refused: list[str] = field(default_factory=list)
    record: dict = field(default_factory=dict)
    # (SimResult, StepConfig) of each stopped trajectory, for the traced run
    trajectories: list = field(default_factory=list)

    def check(self, unit: str, failures: list[str]) -> None:
        self.attempted += 1
        if failures:
            self.failed.append(f"{unit}: " + "; ".join(failures))

    def refuse(self, unit: str, reason: str) -> None:
        self.attempted += 1
        self.refused.append(f"{unit}: {reason}")


def write_config(path: Path, sections: dict[str, dict[str, object]]) -> None:
    lines = []
    for name, items in sections.items():
        lines.append(f"[{name}]")
        lines.extend(f"{k} = {v!r}" if isinstance(v, float) else f"{k} = {v}"
                     for k, v in items.items())
        lines.append("")
    path.write_text("\n".join(lines))


def physical_section(p: ch.PhysicalParams, T: float) -> dict[str, object]:
    return {"R": p.R, "gamma": p.gamma, "alpha": p.alpha, "ubar": p.ubar, "T": T}


def domain_section(lengths) -> dict[str, object]:
    return {"L1": lengths[0], "L2": lengths[1], "L3": lengths[2]}


def digests(directory: Path) -> dict[str, str]:
    return {
        f.name: hashlib.sha256(f.read_bytes()).hexdigest()
        for f in sorted(directory.iterdir()) if f.is_file()
    }


def output_bytes(directory: Path) -> int:
    return sum(f.stat().st_size for f in directory.iterdir() if f.is_file())


# pocketfft workers per transform call, in place of the library default (all
# cores): threaded transforms on these grids swing by up to 2x with the load
# of a shared host, and with one worker the mobility pool of two never runs
# more compute threads than two cores
TRANSFORM_WORKERS = 1


def pin_transform_workers() -> int | None:
    """Apply ``TRANSFORM_WORKERS`` for the rest of the process; returns the
    worker count the library's transforms use, None if it has no such knob."""
    if not hasattr(spectral, "_WORKERS"):
        print("note: chtransition.spectral has no _WORKERS; the workloads run "
              "the library's own transform threading")
        return None
    spectral._WORKERS = TRANSFORM_WORKERS
    return spectral._WORKERS


class Workload:
    name = ""
    padded_shape: tuple[int, int, int] | None = None

    def __init__(self, out: Path, seed: int) -> None:
        self.out = out
        self.seed = seed
        self._first_record: dict | None = None

    def write_inputs(self) -> None:
        raise NotImplementedError

    def setup(self) -> None:
        raise NotImplementedError

    def solve(self) -> Outcome:
        raise NotImplementedError

    def cli_dirs(self) -> list[Path]:
        return []

    def _cli(self, command: str, config_path: Path, out_dir: Path) -> list[str]:
        code = cli.main([command, "--config", str(config_path), "--out", str(out_dir),
                         "--seed", str(self.seed), "--quiet"])
        return [] if code == 0 else [f"chtransition {command} exited with {code}"]

    def _repeatable(self, outcome: Outcome, unit: str) -> None:
        """Gate: the record equals the one of the first solve."""
        if self._first_record is None:
            self._first_record = outcome.record
            return
        outcome.check(unit, [] if outcome.record == self._first_record
                      else ["results differ from the first solve on the same inputs"])


# ---------------------------------------------------------------------------
# quench and mobility: pitchfork quench to the library's steady-state stop
# ---------------------------------------------------------------------------


def quench(cfg, params: ch.PhysicalParams, rhs: str, steady_tol: float, seed_frac: float):
    """Criterion-6 quench: seeded band plus a (1,0,0) seed, run to the
    steady-state stop (or 14 linear growth times)."""
    s = cfg.simulate
    predicted = ch.bifurcated_amplitude(params, cfg.domain, cfg.T)
    rng = np.random.default_rng(cfg.seed)
    u0 = ch.random_initial_field(cfg.domain, s.grid, s.seed_amplitude, rng,
                                 band_limit=s.band_limit)
    u0.coeffs[LEAD] += seed_frac * predicted
    state = ch.SimState(u=u0, t=0.0, T=cfg.T, params=params)
    step_cfg = ch.StepConfig(dt=s.dt, grid=s.grid, scheme=s.scheme, rhs=rhs)
    beta = ch.growth_rate(LEAD, cfg.T, params, cfg.domain)
    result = ch.simulate(state, step_cfg, t_end=14.0 / beta,
                         record_every=s.record_every, steady_tol=steady_tol)
    return result, step_cfg, predicted


def trajectory_failures(result, record_every: int) -> list[str]:
    out = []
    if not result.converged:
        out.append(f"no steady-state stop within {result.steps_taken} steps")
    mass = float(np.abs(result.mass).max())
    if mass > MASS_TOL:
        out.append(f"|mass| {mass:.2e} > {MASS_TOL:g}")
    tol = record_every * ENERGY_TOL_PER_STEP * (1.0 + float(np.abs(result.energy).max()))
    rise = float(np.diff(result.energy).max()) if len(result.energy) > 1 else 0.0
    if rise > tol:
        out.append(f"energy rose by {rise:.2e} > {tol:.2e}")
    return out


def stop_drift(result, step_cfg) -> float:
    """Change of the lead amplitude over a fixed continuation that ignores
    the steady-state stop."""
    final = result.final_state
    more = ch.simulate(final, step_cfg, t_end=final.t + DRIFT_STEPS * step_cfg.dt,
                       record_every=DRIFT_STEPS, steady_tol=0.0)
    return abs(more.final_state.projection(LEAD) - final.projection(LEAD))


def first_step(cfg, params: ch.PhysicalParams, rhs: str):
    """Stepper on the seeded band and the state after its first step (which
    plans the transforms)."""
    s = cfg.simulate
    u0 = ch.random_initial_field(cfg.domain, s.grid, s.seed_amplitude,
                                 np.random.default_rng(cfg.seed), band_limit=s.band_limit)
    state = ch.SimState(u=u0, t=0.0, T=cfg.T, params=params)
    stepper = ch.Stepper(state, ch.StepConfig(dt=s.dt, grid=s.grid, scheme=s.scheme, rhs=rhs))
    return stepper, stepper.step(state)


def quench_config(path: Path, seed: int, eps: float, grid: int, dt: float) -> None:
    tc = ch.critical_temperature(P_SYM, ch.DomainSpec(BOX1))
    write_config(path, {
        "physical": physical_section(P_SYM, tc * (1.0 - eps)),
        "domain": domain_section(BOX1),
        "simulate": {"grid": grid, "dt": dt, "record_every": 25, "scheme": "imex1",
                     "rhs": "taylor", "seed_amplitude": 1e-4, "band_limit": 3},
        "run": {"seed": seed},
    })


class Quench(Workload):
    """One pitchfork quench at 24^3 (padded 48^3) to the steady-state stop."""

    name = "quench"
    EPS, DT, STEADY_TOL, SEED_FRAC = 0.08, 0.2, 1e-6, 0.97

    def __init__(self, out: Path, seed: int, grid: int = 24) -> None:
        super().__init__(out, seed)
        self.grid = grid
        self.padded_shape = (2 * grid,) * 3
        self.config_path = out / "quench.cfg"

    def write_inputs(self) -> None:
        quench_config(self.config_path, self.seed, self.EPS, self.grid, self.DT)

    def setup(self) -> None:
        cfg = config.load_config(self.config_path)
        first_step(cfg, cfg.physical, cfg.simulate.rhs)

    def solve(self) -> Outcome:
        cfg = config.load_config(self.config_path)
        result, step_cfg, predicted = quench(
            cfg, cfg.physical, cfg.simulate.rhs, self.STEADY_TOL, self.SEED_FRAC)
        outcome = Outcome(trajectories=[(result, step_cfg)])
        amp = abs(float(result.amplitudes[LEAD][-1]))
        failures = trajectory_failures(result, cfg.simulate.record_every)
        rel = abs(amp - predicted) / predicted
        if rel > AMPLITUDE_TOL:
            failures.append(f"amplitude {amp:.6g} is {rel:.1%} off {predicted:.6g}")
        outcome.check("quench", failures)
        outcome.record = {"terminal_amplitude": amp, "steps": result.steps_taken}
        self._repeatable(outcome, "quench repeat")
        return outcome


class Mobility(Workload):
    """The quench at 12^3 under three mobilities, run concurrently on a
    two-thread pool as in the criterion-7 fixture and ``chtransition sweep``."""

    name = "mobility"
    EPS, DT, STEADY_TOL, SEED_FRAC = 0.08, 0.1, 1e-4, 0.97
    POOL_WORKERS = 2

    def __init__(self, out: Path, seed: int, grid: int = 12) -> None:
        super().__init__(out, seed)
        self.grid = grid
        self.padded_shape = (2 * grid,) * 3
        self.config_path = out / "mobility.cfg"
        self.pool_wall_s = 0.0

    @staticmethod
    def runs(base: ch.PhysicalParams):
        profile = ch.MobilityProfile(kind="polynomial", data=(0.6, 1.2, -1.0))
        mobilities = {
            "linear": (ch.MobilitySpec(h0=1.0, h1=0.5), "taylor"),
            "quadratic": (ch.MobilitySpec(h0=1.0, h1=0.3, h2=0.8), "taylor"),
            "divergence": (ch.MobilitySpec.from_profile(profile, base.ubar), "divergence"),
        }
        return {name: (dataclasses.replace(base, mobility=mob), rhs)
                for name, (mob, rhs) in mobilities.items()}

    def write_inputs(self) -> None:
        quench_config(self.config_path, self.seed, self.EPS, self.grid, self.DT)

    def setup(self) -> None:
        cfg = config.load_config(self.config_path)
        for params, rhs in self.runs(cfg.physical).values():
            first_step(cfg, params, rhs)

    def solve(self) -> Outcome:
        cfg = config.load_config(self.config_path)
        runs = self.runs(cfg.physical)
        start = time.perf_counter()
        with ThreadPoolExecutor(max_workers=self.POOL_WORKERS) as pool:
            results = list(pool.map(
                lambda run: quench(cfg, *run, self.STEADY_TOL, self.SEED_FRAC),
                runs.values()))
        self.pool_wall_s = time.perf_counter() - start
        outcome = Outcome(trajectories=[(r, c) for r, c, _ in results])
        amps = {}
        for name, (result, _, _) in zip(runs, results):
            amps[name] = abs(float(result.amplitudes[LEAD][-1]))
            outcome.check(name, trajectory_failures(result, cfg.simulate.record_every))
        predicted = results[0][2]
        spread = (max(amps.values()) - min(amps.values())) / predicted
        outcome.check("spread", [] if spread <= SPREAD_TOL else
                      [f"amplitude spread {spread:.2%} > {SPREAD_TOL:.0%}"])
        outcome.record = {"terminal_amplitudes": amps,
                          "steps": {n: r.steps_taken for n, (r, _, _) in zip(runs, results)}}
        self._repeatable(outcome, "mobility repeat")
        return outcome

    def alone_step_ms(self, steps: int = 30) -> list[float]:
        """Step times of each mobility run on its own, outside the pool."""
        cfg = config.load_config(self.config_path)
        times = []
        for params, rhs in self.runs(cfg.physical).values():
            stepper, state = first_step(cfg, params, rhs)
            for _ in range(steps):
                t0 = time.perf_counter()
                state = stepper.step(state)
                times.append(1e3 * (time.perf_counter() - t0))
        return times


# ---------------------------------------------------------------------------
# shadow: `chtransition validate` on two boxes, then `chtransition reduce`
# ---------------------------------------------------------------------------


class Shadow(Workload):
    """Criterion-9 validation through the CLI, every step recorded, and a
    10 000-step RK4 reduced run."""

    name = "shadow"
    EPS, DT = 0.02, 0.02
    RELAXATION_TIMES = 0.01
    REDUCE = {"dt": 0.01, "steps": 10000, "record_every": 10}

    def __init__(self, out: Path, seed: int, grid: int = 16) -> None:
        super().__init__(out, seed)
        self.grid = grid
        self.padded_shape = (2 * grid,) * 3
        rng = random.Random(seed)
        self.boxes = {
            "box1": (BOX1, (0.02 * rng.uniform(0.9, 1.1),)),
            "box2": (BOX2, (0.02 * rng.uniform(0.9, 1.1), 0.012 * rng.uniform(0.9, 1.1))),
        }
        self.config_paths = {name: out / f"shadow-{name}.cfg" for name in self.boxes}

    def write_inputs(self) -> None:
        for name, (lengths, y0) in self.boxes.items():
            tc = ch.critical_temperature(P_SYM, ch.DomainSpec(lengths))
            y0_text = " ".join(repr(v) for v in y0)
            write_config(self.config_paths[name], {
                "physical": physical_section(P_SYM, tc * (1.0 - self.EPS)),
                "domain": domain_section(lengths),
                "simulate": {"grid": self.grid, "dt": self.DT},
                "validate": {"y0": y0_text, "relaxation_times": self.RELAXATION_TIMES},
                "reduce": {"y0": y0_text, **self.REDUCE},
                "run": {"seed": self.seed},
            })

    def setup(self) -> None:
        for path in self.config_paths.values():
            cfg = config.load_config(path)
            s = cfg.simulate
            modes = ch.critical_set(cfg.physical, cfg.domain).modes
            u0 = ch.field_from_modes(dict(zip(modes, cfg.validate.y0)), s.grid, cfg.domain)
            state = ch.SimState(u=u0, t=0.0, T=cfg.T, params=cfg.physical)
            ch.Stepper(state, ch.StepConfig(dt=s.dt, grid=s.grid)).step(state)

    def cli_dirs(self) -> list[Path]:
        return [self.out / f"validate-{n}" for n in self.boxes] + [self.out / "reduce-box2"]

    def solve(self) -> Outcome:
        outcome = Outcome()
        record = {}
        for name in self.boxes:
            out_dir = self.out / f"validate-{name}"
            failures = self._cli("validate", self.config_paths[name], out_dir)
            if not failures:
                report = json.loads((out_dir / "validate.json").read_text())
                dev = report["relative_deviation"]
                if dev > SHADOW_TOL:
                    failures.append(f"relative deviation {dev:.2%} > {SHADOW_TOL:.0%}")
                record[name] = {"relative_deviation": dev, "digests": digests(out_dir)}
            outcome.check(f"validate {name}", failures)
        out_dir = self.out / "reduce-box2"
        failures = self._cli("reduce", self.config_paths["box2"], out_dir)
        if not failures:
            if "# escaped = False" not in (out_dir / "reduced.csv").read_text():
                failures.append("reduced trajectory escaped")
            record["reduce"] = {"digests": digests(out_dir)}
        outcome.check("reduce box2", failures)
        outcome.record = record
        self._repeatable(outcome, "shadow repeat")
        return outcome


# ---------------------------------------------------------------------------
# census: closed-form layers on random admissible parameters
# ---------------------------------------------------------------------------


CENSUS_DESIGN = (0.5, 0.45, 0.435, 0.43, 0.32)  # criterion-4 mean fractions at gamma = 10
CASE_BOXES = {"distinct": BOX1, "two_equal": BOX2, "all_equal": BOX3}


def draw_case(rng: random.Random, case: str):
    """One random admissible parameter set with a supercritical regime, on a
    box of the given degeneracy case."""
    while True:
        r, gamma = rng.uniform(0.5, 2.0), rng.uniform(0.5, 5.0)
        alpha, ubar = rng.uniform(0.2, 3.0), rng.uniform(0.05, 0.95)
        l1 = rng.uniform(2.5, 6.0)
        if 2.0 * gamma > alpha * math.pi**2 / l1**2:
            break
    if case == "distinct":
        l2 = rng.uniform(0.5 * l1, 0.999 * l1)
        lengths = (l1, l2, rng.uniform(0.3 * l2, 0.999 * l2))
    elif case == "two_equal":
        lengths = (l1, l1, rng.uniform(0.3 * l1, 0.999 * l1))
    else:
        lengths = (l1, l1, l1)
    mobility = ch.MobilitySpec(h0=rng.uniform(0.2, 3.0))
    p = ch.PhysicalParams(R=r, gamma=gamma, alpha=alpha, ubar=ubar, mobility=mobility)
    return p, ch.DomainSpec(lengths)


def case_failures(p: ch.PhysicalParams, d: ch.DomainSpec, offset: float = 0.02) -> list[str]:
    out = []
    tc = ch.critical_temperature(p, d)
    ch.transition_discriminants(p, d)
    report = ch.classify_transition(p, d)
    census = ch.census_check(report, p, d, offset=offset)
    if not census.matches:
        out.append("census mismatch: " + "; ".join(census.mismatches))
    if not ch.verify_pes(p, d).passed:
        out.append("exchange of stabilities violated")
    # the oracle's default tolerance is absolute (1e-12), coarser than the
    # relative gate once Tc < 0.01; ask it for a resolution well inside the gate
    gap = abs(tc - ch.critical_temperature_bisect(p, d, tol=1e-2 * TC_GAP_TOL * tc)) / tc
    if gap > TC_GAP_TOL:
        out.append(f"Tc gap {gap:.2e} > {TC_GAP_TOL:g}")
    m = d.multiplicity
    state = ch.ReducedState(y=tuple(0.4 + 0.3 * i for i in range(m)), T=tc)
    lead = ch.cm_coefficients(state, p, d, form="leading")
    quot = ch.cm_coefficients(state, p, d, form="quotient")
    # the slaved amplitudes vanish identically when b2 = 0 (ubar = 1/2)
    cm_gap = max(abs(lead[K] - quot[K]) / abs(quot[K]) if quot[K] else abs(lead[K])
                 for K in lead.values)
    if cm_gap > CM_GAP_TOL:
        out.append(f"slaving gap {cm_gap:.2e} > {CM_GAP_TOL:g}")
    total = sum(len(ch.enumerate_equilibria(p, d, tc * (1.0 + s * offset))) for s in (-1, 1))
    if total != 3**m - 1:
        out.append(f"{total} equilibria across both sides, expected {3**m - 1}")
    return out


class Census(Workload):
    """Random admissible parameters on the three box cases plus the
    criterion-4 design points, and one ``chtransition classify`` per case."""

    name = "census"
    RANDOM_PER_CASE = 40

    def __init__(self, out: Path, seed: int, grid: int | None = None) -> None:
        super().__init__(out, seed)
        rng = random.Random(seed)
        self.cases = [
            (f"{case}-{i}", *draw_case(rng, case))
            for case in CASE_BOXES for i in range(self.RANDOM_PER_CASE)
        ]
        design = ch.PhysicalParams(R=1.0, gamma=10.0, alpha=1.0, ubar=0.5)
        self.cases += [
            (f"design-{ubar}-{case}", dataclasses.replace(design, ubar=ubar),
             ch.DomainSpec(lengths))
            for ubar in CENSUS_DESIGN for case, lengths in CASE_BOXES.items()
        ]
        self.config_paths = {case: out / f"census-{case}.cfg" for case in CASE_BOXES}

    def write_inputs(self) -> None:
        firsts = {}
        for name, p, d in self.cases:
            firsts.setdefault(name.split("-")[0], (p, d))
        for case, path in self.config_paths.items():
            p, d = firsts[case]
            write_config(path, {
                "physical": physical_section(p, 0.98 * ch.critical_temperature(p, d)),
                "mobility": {"H0": p.mobility.h0},
                "domain": domain_section(d.lengths),
                "run": {"seed": self.seed},
            })

    def setup(self) -> None:
        for path in self.config_paths.values():
            config.load_config(path)
        _, p, d = self.cases[0]
        ch.classify_transition(p, d)

    def cli_dirs(self) -> list[Path]:
        return [self.out / f"classify-{case}" for case in CASE_BOXES]

    def solve(self) -> Outcome:
        outcome = Outcome()
        for name, p, d in self.cases:
            try:
                outcome.check(name, case_failures(p, d))
            except (ch.MarginalTransitionError, ch.NoSupercriticalRegimeError) as exc:
                outcome.refuse(name, str(exc))
        record = {}
        for case, path in self.config_paths.items():
            out_dir = self.out / f"classify-{case}"
            outcome.check(f"classify {case}", self._cli("classify", path, out_dir))
            record[case] = digests(out_dir)
        outcome.record = record
        self._repeatable(outcome, "census repeat")
        return outcome


WORKLOADS = {w.name: w for w in (Quench, Mobility, Shadow, Census)}
