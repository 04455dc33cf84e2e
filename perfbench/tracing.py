"""In-memory span tracer for the traced benchmark run.

The tracer wraps, from outside the package, the public functions of the
chtransition layer modules, the public methods of ``Stepper`` and the
``scipy.fft`` entry points the spectral layer calls.  Every call records one
span (name, layer, start, end, parent span, run id, thread).  Spans stay in
memory until the run writes them out.  ``installed()`` puts the wrappers in
place for one block and restores every original afterwards.

Modules bind each other's functions at import time (``from .x import f``),
so a wrapper replaces every reference a chtransition module namespace holds
to the original function object, not only the defining module's own.
Private helpers are not wrapped: their time counts toward the public caller.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import inspect
import itertools
import json
import threading
import time
from dataclasses import asdict, dataclass

LAYERS = (
    "params", "spectral", "linstab", "manifold", "classifier", "simulator", "config", "cli",
)
FFT_LAYER = "scipy.fft"
FFT_FUNCTIONS = ("dctn", "idctn", "dst", "idst")
STEPPER_METHODS = ("__init__", "step", "explicit_term")


@dataclass
class Span:
    id: int
    name: str
    layer: str
    start: float
    end: float
    parent: int | None
    run_id: str
    thread: int
    # bytes read plus written for a transform (computed from array sizes);
    # steps requested for a reduced integration; zero otherwise
    work: int = 0

    @property
    def duration(self) -> float:
        return self.end - self.start


def _fft_bytes(args, kwargs, out) -> int:
    return int(getattr(args[0], "nbytes", 0)) + int(getattr(out, "nbytes", 0))


def _rk4_steps(fn):
    sig = inspect.signature(fn)

    def note(args, kwargs, out) -> int:
        return int(sig.bind(*args, **kwargs).arguments["steps"])

    return note


def _public_functions(module) -> list[str]:
    names = getattr(module, "__all__", None)
    if names is None:
        names = [n for n in vars(module) if not n.startswith("_")]
    return [
        n for n in names
        if inspect.isfunction(getattr(module, n, None))
        and getattr(module, n).__module__ == module.__name__
    ]


class Tracer:
    def __init__(self, run_id: str) -> None:
        self.run_id = run_id
        self.spans: list[Span] = []
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._restore: list[tuple[object, str, object]] = []

    def _wrap(self, fn, name: str, layer: str, note=None):
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = getattr(tracer._local, "stack", None)
            if stack is None:
                stack = tracer._local.stack = []
            span_id = next(tracer._ids)
            parent = stack[-1] if stack else None
            stack.append(span_id)
            out = None
            start = time.perf_counter()
            try:
                out = fn(*args, **kwargs)
                return out
            finally:
                end = time.perf_counter()
                stack.pop()
                tracer.spans.append(Span(
                    span_id, name, layer, start, end, parent, tracer.run_id,
                    threading.get_ident(),
                    note(args, kwargs, out) if note is not None and out is not None else 0,
                ))

        return traced

    def _patch(self, owner, attr: str, value) -> None:
        self._restore.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def install(self) -> None:
        import scipy.fft

        import chtransition

        modules = {layer: importlib.import_module(f"chtransition.{layer}") for layer in LAYERS}
        wrappers = {}
        for layer, module in modules.items():
            for name in _public_functions(module):
                fn = getattr(module, name)
                note = _rk4_steps(fn) if name == "integrate_reduced" else None
                wrappers[fn] = self._wrap(fn, f"{layer}.{name}", layer, note)
        for owner in (chtransition, *modules.values()):
            for attr, value in list(vars(owner).items()):
                if inspect.isfunction(value) and value in wrappers:
                    self._patch(owner, attr, wrappers[value])
        stepper = modules["simulator"].Stepper
        for method in STEPPER_METHODS:
            fn = vars(stepper)[method]
            self._patch(stepper, method, self._wrap(fn, f"simulator.Stepper.{method}", "simulator"))
        for name in FFT_FUNCTIONS:
            fn = getattr(scipy.fft, name)
            self._patch(scipy.fft, name, self._wrap(fn, f"{FFT_LAYER}.{name}", FFT_LAYER, _fft_bytes))

    def remove(self) -> None:
        while self._restore:
            owner, attr, original = self._restore.pop()
            setattr(owner, attr, original)

    @contextlib.contextmanager
    def installed(self):
        self.install()
        try:
            yield self
        finally:
            self.remove()

    def write(self, path) -> None:
        with open(path, "w") as fh:
            for span in self.spans:
                fh.write(json.dumps(asdict(span)) + "\n")


# ---------------------------------------------------------------------------
# span analysis
# ---------------------------------------------------------------------------


def self_times(spans: list[Span]) -> dict[str, float]:
    """Seconds spent in each layer's own code: every span's duration minus
    the part its direct child spans cover."""
    child_time: dict[int, float] = {}
    for s in spans:
        if s.parent is not None:
            child_time[s.parent] = child_time.get(s.parent, 0.0) + s.duration
    out: dict[str, float] = {}
    for s in spans:
        out[s.layer] = out.get(s.layer, 0.0) + s.duration - child_time.get(s.id, 0.0)
    return out


def under(spans: list[Span], name: str) -> list[Span]:
    """Spans that run, directly or deeper, inside a span of the given name."""
    by_id = {s.id: s for s in spans}
    inside: dict[int | None, bool] = {None: False}

    def check(span_id: int | None) -> bool:
        if span_id not in inside:
            span = by_id[span_id]
            inside[span_id] = span.name == name or check(span.parent)
        return inside[span_id]

    return [s for s in spans if check(s.parent)]
