"""Benchmark of the chtransition library, end to end and layer by layer.

Run from the root of a checkout:

    python3 perfbench/run.py --workload quench --seed 1 --seconds 25 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 25

``--trace 0`` reports the end-to-end metrics: the median time to a verified
solution over the solves that fit in ``--seconds``, the median set-up time of
several fresh processes, and peak memory.  ``--trace 1`` runs one untraced
and one traced solve and reports the per-layer metrics from the spans (see
NOTES.md).  ``--workload all`` runs every workload in its own process and
prints one table.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  Exit code 0 when
every correctness gate passes, 1 when one fails, 2 when the library sources
are missing.  Artifacts (provenance, records, spans) go to ``perfbench/_out``.
"""

import time

_T0 = time.perf_counter()  # set-up probes count from here

import argparse  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import threading  # noqa: E402
from pathlib import Path  # noqa: E402

import tracing  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "_out"
WORKLOAD_NAMES = ("quench", "mobility", "shadow", "census")
SETUP_PROBES = 5
PROBE_TIMEOUT_S = 120

END_TO_END = {"time_to_solution_s": "s", "setup_s": "s", "peak_rss_mb": "MB"}
SELF_TIME_LAYERS = ("params", "spectral", "linstab", "manifold", "classifier",
                    "simulator", "config")
PER_LAYER = {
    "spectral.transforms_per_step": "count",
    "spectral.bytes_per_step": "bytes_computed",
    "spectral.transform_s": "s",
    "spectral.transform_share": "ratio",
    "spectral.forward_ms": "ms",
    "spectral.inverse_ms": "ms",
    "simulator.steps": "count",
    "simulator.stop_drift": "amplitude",
    "simulator.step_ms_p50": "ms",
    "simulator.step_ms_p99": "ms",
    "simulator.step_samples": "count",
    "simulator.diag_ms_p50": "ms",
    "simulator.diag_share": "ratio",
    "simulator.thread_step_inflation": "ratio",
    "simulator.pool_busy_ratio": "ratio",
    "manifold.rk4_steps_per_s": "1/s",
    "manifold.cm_ms": "ms",
    "manifold.enumerate_ms": "ms",
    "linstab.verify_pes_ms": "ms",
    "linstab.bisect_ms": "ms",
    "linstab.critical_set_ms": "ms",
    "classifier.classify_ms": "ms",
    "classifier.census_check_ms": "ms",
    "params.discriminants_us": "us",
    "config.load_ms": "ms",
    "cli.overhead_s": "s",
    "cli.output_bytes": "bytes",
    **{f"{layer}.self_s": "s" for layer in SELF_TIME_LAYERS},
    "trace.overhead_s": "s",
}


def _parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOAD_NAMES + ("all",))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True,
                    help="measuring time; solves stop once another would overrun it")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--grid", type=int, default=None,
                    help="override the PDE grid size (the smoke test uses the smallest, 6)")
    ap.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    return ap


def _child_args(args, workload: str) -> list[str]:
    out = [sys.executable, str(Path(__file__).resolve()), "--workload", workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace)]
    if args.grid is not None:
        out += ["--grid", str(args.grid)]
    return out


# ---------------------------------------------------------------------------
# provenance
# ---------------------------------------------------------------------------


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _caches() -> dict[str, str]:
    base = Path("/sys/devices/system/cpu/cpu0/cache")
    out = {}
    try:
        for index in sorted(base.glob("index*")):
            level = (index / "level").read_text().strip()
            kind = (index / "type").read_text().strip()
            out[f"L{level} {kind}"] = (index / "size").read_text().strip()
    except OSError:
        pass
    return out


def _git_commit() -> str | None:
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if ref.startswith("ref: "):
            return (ROOT / ".git" / ref[5:]).read_text().strip()
        return ref
    except OSError:
        return None


def _loc(directory: Path) -> int:
    return sum(len(f.read_text().splitlines()) for f in sorted(directory.rglob("*.py")))


def provenance(seed: int) -> dict:
    import numpy
    import scipy

    import chtransition

    sources = hashlib.sha256()
    for f in sorted((SRC / "chtransition").rglob("*.py")):
        sources.update(f.read_bytes())
    return {
        "cores": len(os.sched_getaffinity(0)),
        "cpu_model": _cpu_model(),
        "caches": _caches(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "chtransition": chtransition.__version__,
        "git_commit": _git_commit(),
        "source_sha256": sources.hexdigest(),
        "source_loc": _loc(SRC),
        "test_loc": _loc(ROOT / "tests") if (ROOT / "tests").is_dir() else 0,
        "seed": seed,
    }


# ---------------------------------------------------------------------------
# untraced run: end-to-end metrics
# ---------------------------------------------------------------------------


def _setup_probe(args) -> float:
    """Set-up time of one fresh process: import, config parse, state and
    Stepper build, first step."""
    cmd = _child_args(args, args.workload) + ["--setup-probe"]
    done = subprocess.run(cmd, capture_output=True, text=True, timeout=PROBE_TIMEOUT_S,
                          check=True)
    return json.loads(done.stdout.strip().splitlines()[-1])["setup_s"]


def timed_run(wl, args) -> tuple[dict, list]:
    setup = [_setup_probe(args) for _ in range(SETUP_PROBES)]
    wl.setup()
    times, outcomes = [], []
    start = time.perf_counter()
    while True:
        t0 = time.perf_counter()
        outcomes.append(wl.solve())
        times.append(time.perf_counter() - t0)
        if time.perf_counter() - start + statistics.median(times) > args.seconds:
            break
    # the first solve warms caches and plans beyond the first step; it is
    # gated like the others but left out of the median once there are more
    timed = times[1:] or times
    print(f"solves: {len(times)}; times_s: {[round(t, 4) for t in times]}; "
          f"setup probes_s: {[round(t, 4) for t in setup]}")
    values = {
        "time_to_solution_s": statistics.median(timed),
        "setup_s": statistics.median(setup),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    return values, outcomes


# ---------------------------------------------------------------------------
# traced run: per-layer metrics
# ---------------------------------------------------------------------------


def _median(values, scale: float = 1.0) -> float:
    return scale * statistics.median(values) if values else 0.0


def _durations(spans, name: str) -> list[float]:
    return [s.duration for s in spans if s.name == name]


def transform_ms(shape, reps: int = 15) -> tuple[float, float]:
    """Median forward and inverse transform time at one grid shape."""
    import numpy as np

    import chtransition as ch

    d = ch.DomainSpec((3.0, 2.0, 1.0))
    coeffs = np.random.default_rng(0).standard_normal(shape)
    coeffs[0, 0, 0] = 0.0
    field = ch.SpectralField(coeffs, d)
    grid = ch.inverse_transform(field)
    fwd, inv = [], []
    for _ in range(reps):
        t0 = time.perf_counter()
        ch.forward_transform(grid, d)
        t1 = time.perf_counter()
        ch.inverse_transform(field)
        t2 = time.perf_counter()
        fwd.append(t1 - t0)
        inv.append(t2 - t1)
    return _median(fwd, 1e3), _median(inv, 1e3)


def layer_metrics(spans, traced_s: float, untraced_s: float, extra: dict) -> dict:
    selfs = tracing.self_times(spans)
    steps = _durations(spans, "simulator.Stepper.step")
    fft = [s for s in spans if s.layer == tracing.FFT_LAYER]
    fft_in_steps = [s for s in tracing.under(spans, "simulator.Stepper.step")
                    if s.layer == tracing.FFT_LAYER]
    n_steps = len(steps)
    transform_s = sum(s.duration for s in fft)
    # busy time summed over threads: the root spans of every thread
    busy_s = sum(s.duration for s in spans if s.parent is None)

    # one diagnostics record = free_energy + dissipation called by simulate
    simulate_ids = {s.id for s in spans if s.name == "simulator.simulate"}
    per_parent: dict[int, dict[str, list[float]]] = {}
    for s in sorted(spans, key=lambda s: s.start):
        if s.parent in simulate_ids and s.name in ("simulator.free_energy",
                                                   "simulator.dissipation"):
            per_parent.setdefault(s.parent, {}).setdefault(s.name, []).append(s.duration)
    records = [fe + di for group in per_parent.values()
               for fe, di in zip(group.get("simulator.free_energy", []),
                                 group.get("simulator.dissipation", []))]
    simulate_s = sum(s.duration for s in spans if s.name == "simulator.simulate")

    main = threading.get_ident()
    pooled = sum(s.duration for s in spans
                 if s.name == "simulator.simulate" and s.thread != main)
    alone = extra.get("alone_step_ms", [])
    rk4 = [s for s in spans if s.name == "manifold.integrate_reduced"]
    rk4_s = sum(s.duration for s in rk4)

    return {
        "spectral.transforms_per_step": len(fft_in_steps) / n_steps if n_steps else 0.0,
        "spectral.bytes_per_step": sum(s.work for s in fft_in_steps) / n_steps if n_steps else 0.0,
        "spectral.transform_s": transform_s,
        "spectral.transform_share": transform_s / busy_s if busy_s else 0.0,
        "spectral.forward_ms": extra["forward_ms"],
        "spectral.inverse_ms": extra["inverse_ms"],
        "simulator.steps": n_steps,
        "simulator.stop_drift": extra["stop_drift"],
        "simulator.step_ms_p50": _median(steps, 1e3),
        "simulator.step_ms_p99": (1e3 * statistics.quantiles(steps, n=100)[98]
                                  if n_steps > 1 else _median(steps, 1e3)),
        "simulator.step_samples": n_steps,
        "simulator.diag_ms_p50": _median(records, 1e3),
        "simulator.diag_share": sum(records) / simulate_s if simulate_s else 0.0,
        "simulator.thread_step_inflation": (
            _median(steps, 1e3) / statistics.median(alone) if pooled and alone else 0.0),
        "simulator.pool_busy_ratio": (
            pooled / (extra["pool_workers"] * extra["pool_wall_s"]) if pooled else 0.0),
        "manifold.rk4_steps_per_s": sum(s.work for s in rk4) / rk4_s if rk4_s else 0.0,
        "manifold.cm_ms": _median(_durations(spans, "manifold.cm_coefficients"), 1e3),
        "manifold.enumerate_ms": _median(_durations(spans, "manifold.enumerate_equilibria"), 1e3),
        "linstab.verify_pes_ms": _median(_durations(spans, "linstab.verify_pes"), 1e3),
        "linstab.bisect_ms": _median(_durations(spans, "linstab.critical_temperature_bisect"), 1e3),
        "linstab.critical_set_ms": _median(_durations(spans, "linstab.critical_set"), 1e3),
        "classifier.classify_ms": _median(_durations(spans, "classifier.classify_transition"), 1e3),
        "classifier.census_check_ms": _median(_durations(spans, "classifier.census_check"), 1e3),
        "params.discriminants_us": _median(
            _durations(spans, "params.transition_discriminants"), 1e6),
        "config.load_ms": _median(_durations(spans, "config.load_config"), 1e3),
        "cli.overhead_s": selfs.get("cli", 0.0),
        "cli.output_bytes": extra["cli_output_bytes"],
        **{f"{layer}.self_s": selfs.get(layer, 0.0) for layer in SELF_TIME_LAYERS},
        "trace.overhead_s": traced_s - untraced_s,
    }


def traced_run(wl, args, out: Path) -> tuple[dict, list]:
    import workloads

    wl.setup()
    warmup = wl.solve()  # as in the timed run, so the overhead compares warm solves
    t0 = time.perf_counter()
    untraced = wl.solve()
    untraced_s = time.perf_counter() - t0
    tracer = tracing.Tracer(run_id=f"{wl.name}-seed{args.seed}-pid{os.getpid()}")
    with tracer.installed():
        t0 = time.perf_counter()
        traced = wl.solve()
        traced_s = time.perf_counter() - t0
    tracer.write(out / "spans.jsonl")

    extra = {
        "stop_drift": max((workloads.stop_drift(r, c) for r, c in traced.trajectories),
                          default=0.0),
        "cli_output_bytes": sum(workloads.output_bytes(d) for d in wl.cli_dirs()),
        "pool_workers": getattr(wl, "POOL_WORKERS", 1),
        "pool_wall_s": getattr(wl, "pool_wall_s", 0.0),
        "alone_step_ms": wl.alone_step_ms() if hasattr(wl, "alone_step_ms") else [],
    }
    extra["forward_ms"], extra["inverse_ms"] = (
        transform_ms(wl.padded_shape) if wl.padded_shape else (0.0, 0.0))
    print(f"traced solve {traced_s:.4f} s, untraced {untraced_s:.4f} s, "
          f"{len(tracer.spans)} spans written to {out / 'spans.jsonl'}")
    return layer_metrics(tracer.spans, traced_s, untraced_s, extra), [warmup, untraced, traced]


# ---------------------------------------------------------------------------
# entry points
# ---------------------------------------------------------------------------


def run_one(args) -> int:
    import workloads

    out = OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}"
    out.mkdir(parents=True, exist_ok=True)
    kwargs = {"grid": args.grid} if args.grid is not None else {}
    transform_workers = workloads.pin_transform_workers()
    wl = workloads.WORKLOADS[args.workload](out, args.seed, **kwargs)
    if args.setup_probe:
        wl.setup()
        print(json.dumps({"setup_s": time.perf_counter() - _T0}))
        return 0

    wl.write_inputs()
    if args.trace:
        values, outcomes = traced_run(wl, args, out)
        units = PER_LAYER
    else:
        values, outcomes = timed_run(wl, args)
        units = END_TO_END
    attempted = sum(o.attempted for o in outcomes)
    failed = [f for o in outcomes for f in o.failed]
    refused = [r for o in outcomes for r in o.refused]
    metrics = {name: {"value": values[name], "unit": unit} for name, unit in units.items()}

    prov = {**provenance(args.seed), "transform_workers": transform_workers}
    (out / "result.json").write_text(json.dumps({
        "workload": args.workload, "provenance": prov, "metrics": metrics,
        "attempted": attempted, "failed": failed, "refused": refused,
        "records": [o.record for o in outcomes],
    }, indent=2, sort_keys=True) + "\n")
    print("provenance " + json.dumps(prov, sort_keys=True))
    for name, m in metrics.items():
        print(f"{args.workload:9s} {name:34s} {m['value']:>16.6g} {m['unit']}")
    print(f"{args.workload:9s} {'fail_ratio':34s} {len(failed) / attempted:>16.6g} "
          f"({len(failed)} failed of {attempted} attempted; {len(refused)} refused)")
    for f in failed:
        print(f"FAILED {f}")
    correct = not failed
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": len(failed),
                      "metrics": metrics}))
    return 0 if correct else 1


def run_all(args) -> int:
    """Every workload in its own process; one table of every metric."""
    rows, worst = [], 0
    for name in WORKLOAD_NAMES:
        done = subprocess.run(_child_args(args, name), capture_output=True, text=True)
        sys.stdout.write(done.stdout)
        sys.stderr.write(done.stderr)
        worst = max(worst, done.returncode)
        if done.returncode not in (0, 1):  # no result line
            continue
        result = json.loads(done.stdout.strip().splitlines()[-1])
        for metric, m in result["metrics"].items():
            rows.append(f"{name:9s} {metric:34s} {m['value']:>16.6g} {m['unit']}")
        rows.append(f"{name:9s} {'fail_ratio':34s} "
                    f"{result['failed'] / result['attempted']:>16.6g} "
                    f"({result['failed']} of {result['attempted']})")
    print("\n".join(["", "summary:"] + rows))
    return worst


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    if not (SRC / "chtransition" / "__init__.py").is_file():
        print(f"error: library sources not found at {SRC / 'chtransition'}; "
              "run from the root of a checkout", file=sys.stderr)
        return 2
    if args.workload == "all":
        return run_all(args)
    sys.path.insert(0, str(SRC))
    return run_one(args)


if __name__ == "__main__":
    sys.exit(main())
