"""Command-line front end.

Subcommands: ``classify``, ``simulate``, ``reduce``, ``sweep``,
``validate``.  Each takes ``--config PATH`` plus ``--out DIR``,
``--seed N`` and ``--quiet`` and writes plot-ready CSV/JSON files under the
output directory.  Exit codes: 0 success, 1 numeric failure, 2 bad
configuration or an output directory that cannot be made.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import sys
from concurrent.futures import ThreadPoolExecutor
from dataclasses import fields
from pathlib import Path

import numpy as np

from . import __version__
from .classifier import bifurcated_amplitude, census_check, classify_transition
from .config import ConfigError, RunConfig, load_config
from .linstab import critical_set, growth_rate, verify_pes
from .manifold import ReducedState, cubic_coefficients, integrate_reduced
from .params import critical_temperature
from .simulator import (
    SimState,
    StepConfig,
    StepRejectedError,
    random_initial_field,
    simulate,
)
from .spectral import field_from_modes, inverse_transform, save_grid

# ConfigError is caught first in main(); any other ValueError from the
# numerics (no supercritical regime, marginal discriminant, wrong side,
# degenerate cubic) is a numeric failure, as is a rejected step
_NUMERIC_ERRORS = (ValueError, StepRejectedError)


def _fmt(v) -> str:
    if isinstance(v, float):
        return f"{v:.17g}"
    return str(v)


def _write_csv(path: Path, comments: list[str], header: list[str], rows) -> None:
    # rows of floats (Python's from `ndarray.tolist`, which builds them faster
    # than indexing, or numpy's): `%.17g` gives the text of `_fmt`
    row = ",".join(["%.17g"] * len(header)) + "\n"
    with open(path, "w") as fh:
        for line in comments:
            fh.write(f"# {line}\n")
        fh.write(",".join(header) + "\n")
        fh.write("".join([row % tuple(values) for values in rows]))


def _write_json(path: Path, payload: dict) -> None:
    with open(path, "w") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")


def _say(quiet: bool, message: str) -> None:
    if not quiet:
        print(message)


def _mode_column(K) -> str:
    return "y_" + "_".join(str(k) for k in K)


def _step_config(cfg: RunConfig) -> StepConfig:
    return StepConfig(**{f.name: getattr(cfg.simulate, f.name) for f in fields(StepConfig)})


def _initial_state(cfg: RunConfig, seed: int, T: float) -> SimState:
    s = cfg.simulate
    if s.seed_modes is not None:
        u0 = field_from_modes(s.seed_modes, s.grid, cfg.domain)
    else:
        rng = np.random.default_rng(seed)
        u0 = random_initial_field(
            cfg.domain, s.grid, s.seed_amplitude, rng, band_limit=s.band_limit
        )
    return SimState(u=u0, t=0.0, T=T, params=cfg.physical)


def cmd_classify(cfg: RunConfig, out: Path, seed: int, quiet: bool) -> int:
    report = classify_transition(cfg.physical, cfg.domain)
    check = census_check(report, cfg.physical, cfg.domain)
    pes = verify_pes(cfg.physical, cfg.domain)
    _write_json(out / "report.json", report.as_dict())
    (out / "report.txt").write_text(report.to_text() + "\n")
    _write_json(out / "pes.json", pes.as_dict())
    _write_json(out / "equilibria.json", check.as_dict())
    _say(quiet, report.to_text())
    if not check.matches:
        _say(quiet, "census check mismatches: " + "; ".join(check.mismatches))
        return 1
    if not pes.passed:
        _say(quiet, "exchange-of-stabilities violations: " + "; ".join(pes.violations))
        return 1
    _say(quiet, f"wrote {out / 'report.json'}")
    return 0


def _trajectory_rows(result, modes) -> list[list[float]]:
    return np.column_stack(
        [result.times, result.mass, result.energy, result.dissipation]
        + [result.amplitudes[K] for K in modes]
    ).tolist()


def cmd_simulate(cfg: RunConfig, out: Path, seed: int, quiet: bool) -> int:
    state0 = _initial_state(cfg, seed, cfg.T)
    step_cfg = _step_config(cfg)
    result = simulate(
        state0, step_cfg, t_end=cfg.simulate.t_end, record_every=cfg.simulate.record_every
    )
    modes = critical_set(cfg.physical, cfg.domain).modes
    _write_csv(
        out / "trajectory.csv",
        [f"seed = {seed}", f"T = {_fmt(cfg.T)}", "columns: time, mean of u, free energy, "
         "energy production rate, critical-mode amplitudes"],
        ["t", "mass", "energy", "dissipation"] + [_mode_column(K) for K in modes],
        _trajectory_rows(result, modes),
    )
    terminal = {_mode_column(K): result.final_state.projection(K) for K in modes}
    _write_json(
        out / "run.json",
        {
            "schema_version": 1,
            "seed": seed,
            "T": cfg.T,
            "t_end": cfg.simulate.t_end,
            "steps": result.steps_taken,
            "converged": result.converged,
            "terminal_amplitudes": terminal,
            "max_abs_mass": float(np.abs(result.mass).max()),
        },
    )
    if cfg.simulate.save_final_field:
        save_grid(out / "u_final.bin", inverse_transform(result.final_state.u))
    _say(
        quiet,
        f"simulated to t = {result.final_state.t:.6g} "
        f"({result.steps_taken} steps, converged={result.converged}); "
        f"terminal amplitudes {terminal}",
    )
    return 0


def _y0(cfg: RunConfig, section: str) -> tuple[float, ...]:
    """The ``y0`` of the ``reduce`` or ``validate`` section, refused unless
    it has one component per critical mode."""
    y0 = getattr(cfg, section).y0
    m = cfg.domain.multiplicity
    if len(y0) != m:
        raise ConfigError(
            f"{section}.y0 has {len(y0)} components but the domain carries {m} critical modes"
        )
    return y0


def cmd_reduce(cfg: RunConfig, out: Path, seed: int, quiet: bool) -> int:
    traj = integrate_reduced(
        ReducedState(y=_y0(cfg, "reduce"), T=cfg.T),
        cfg.physical,
        cfg.domain,
        dt=cfg.reduce.dt,
        steps=cfg.reduce.steps,
        sigma_at=cfg.reduce.sigma_at,
        record_every=cfg.reduce.record_every,
    )
    modes = critical_set(cfg.physical, cfg.domain).modes
    _write_csv(
        out / "reduced.csv",
        [f"seed = {seed}", f"T = {_fmt(cfg.T)}", f"escaped = {traj.escaped}"],
        ["t"] + [_mode_column(K) for K in modes],
        np.column_stack([traj.times, traj.states]).tolist(),
    )
    _say(
        quiet,
        f"reduced trajectory: {len(traj.times)} records, escaped={traj.escaped}, "
        f"final y = {tuple(float(v) for v in traj.final)}",
    )
    return 0


def _sweep_point(cfg: RunConfig, eps: float, tc: float):
    T = tc * (1.0 - eps)
    amp_pred = bifurcated_amplitude(cfg.physical, cfg.domain, T)
    s = cfg.simulate
    u0 = field_from_modes({(1, 0, 0): 0.5 * amp_pred}, s.grid, cfg.domain)
    state0 = SimState(u=u0, t=0.0, T=T, params=cfg.physical)
    beta = growth_rate((1, 0, 0), T, cfg.physical, cfg.domain)
    t_end = min(s.t_end, 12.0 / beta)
    result = simulate(
        state0, _step_config(cfg), t_end=t_end,
        record_every=s.record_every, steady_tol=1e-9,
    )
    amp = abs(result.final_state.projection((1, 0, 0)))
    return eps, T, amp, amp_pred


def cmd_sweep(cfg: RunConfig, out: Path, seed: int, quiet: bool) -> int:
    if cfg.domain.multiplicity != 1:
        raise ConfigError("the amplitude sweep applies to a single critical mode (m = 1)")
    tc = critical_temperature(cfg.physical, cfg.domain)
    eps = sorted(cfg.sweep.epsilons)
    with ThreadPoolExecutor(max_workers=cfg.sweep.workers) as pool:
        points = list(pool.map(lambda e: _sweep_point(cfg, e, tc), eps))
    points.sort()
    log_dt = [math.log(tc - T) for _, T, _, _ in points]
    log_amp = [math.log(a) for _, _, a, _ in points]
    slope, intercept = np.polyfit(log_dt, log_amp, 1)
    _write_csv(
        out / "sweep.csv",
        [f"seed = {seed}", f"Tc = {_fmt(tc)}",
         "columns: relative quench, temperature, measured amplitude, predicted amplitude"],
        ["epsilon", "T", "amplitude", "predicted"],
        points,
    )
    _write_json(
        out / "sweep.json",
        {
            "schema_version": 1,
            "seed": seed,
            "Tc": tc,
            "slope": float(slope),
            "intercept": float(intercept),
            "points": [
                {"epsilon": e, "T": T, "amplitude": a, "predicted": pr}
                for e, T, a, pr in points
            ],
        },
    )
    _say(quiet, f"sweep: fitted log-amplitude slope {slope:.4f} (square-root law is 0.5)")
    return 0


def cmd_validate(cfg: RunConfig, out: Path, seed: int, quiet: bool) -> int:
    y0 = _y0(cfg, "validate")
    modes = critical_set(cfg.physical, cfg.domain).modes
    beta = growth_rate(modes[0], cfg.T, cfg.physical, cfg.domain)
    if beta <= 0:
        raise ValueError(
            "validation needs T below the critical temperature (growing critical modes)"
        )
    horizon = cfg.validate.relaxation_times / beta
    s = cfg.simulate
    seeds = {K: a for K, a in zip(modes, y0)}
    state0 = SimState(
        u=field_from_modes(seeds, s.grid, cfg.domain), t=0.0, T=cfg.T, params=cfg.physical
    )
    # no steady stop: the comparison covers the whole horizon it reports
    result = simulate(
        state0, _step_config(cfg), t_end=horizon, record_every=1, steady_tol=0.0
    )
    n_steps = len(result.times) - 1
    traj = integrate_reduced(
        ReducedState(y=y0, T=cfg.T),
        cfg.physical,
        cfg.domain,
        dt=s.dt,
        steps=n_steps,
        record_every=1,
    )
    a1, _ = cubic_coefficients(cfg.physical, cfg.domain)
    scale = math.sqrt(beta / a1) if a1 > 0 else float(np.abs(traj.states).max())
    n = min(len(result.times), len(traj.times))
    devs = np.stack(
        [np.abs(result.amplitudes[K][:n] - traj.states[:n, j]) for j, K in enumerate(modes)]
    )
    max_dev = float(devs.max())
    rows = np.column_stack(
        [result.times[:n]] + [result.amplitudes[K][:n] for K in modes] + [traj.states[:n]]
    ).tolist()
    _write_csv(
        out / "validate.csv",
        [f"seed = {seed}", f"T = {_fmt(cfg.T)}"],
        ["t"]
        + [f"pde_{_mode_column(K)}" for K in modes]
        + [f"reduced_{_mode_column(K)}" for K in modes],
        rows,
    )
    _write_json(
        out / "validate.json",
        {
            "schema_version": 1,
            "seed": seed,
            "T": cfg.T,
            "horizon": horizon,
            "max_deviation": max_dev,
            "amplitude_scale": scale,
            "relative_deviation": max_dev / scale,
        },
    )
    _say(
        quiet,
        f"validate: max |pde - reduced| = {max_dev:.3e} "
        f"({max_dev / scale:.2%} of the bifurcated amplitude)",
    )
    return 0


def _seed(s: str) -> int:
    if not s.isdecimal():
        raise argparse.ArgumentTypeError(f"must be an integer >= 0, got {s!r}")
    return int(s)


_COMMANDS = {
    "classify": cmd_classify,
    "simulate": cmd_simulate,
    "reduce": cmd_reduce,
    "sweep": cmd_sweep,
    "validate": cmd_validate,
}


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    # built once per process: `parse_args` leaves the parser as it is and
    # returns a fresh namespace on every call
    parser = argparse.ArgumentParser(
        prog="chtransition",
        description="Transition analysis and spectral simulation of a "
        "conserved binary mixture with concentration-dependent mobility.",
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)
    for name, func in _COMMANDS.items():
        sp = sub.add_parser(name)
        sp.add_argument("--config", required=True, help="path to the run configuration")
        sp.add_argument("--out", default="out", help="output directory (default: ./out)")
        sp.add_argument("--seed", type=_seed, default=None, help="override the config seed")
        sp.add_argument("--quiet", action="store_true", help="suppress progress output")
        sp.set_defaults(func=func)
    return parser


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        cfg = load_config(args.config)
    except (ConfigError, OSError) as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return 2
    out = Path(args.out)
    try:
        out.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        print(f"output error: {exc}", file=sys.stderr)
        return 2
    seed = args.seed if args.seed is not None else cfg.seed
    try:
        return args.func(cfg, out, seed, args.quiet)
    except ConfigError as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return 2
    except _NUMERIC_ERRORS as exc:
        print(f"numeric failure: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    raise SystemExit(main())
