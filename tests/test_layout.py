"""Package layout rules."""

import ast
import math
from pathlib import Path

import numpy as np

from chtransition import (
    DomainSpec,
    MobilityProfile,
    MobilitySpec,
    PhysicalParams,
    SimState,
    StepConfig,
    Stepper,
    critical_temperature,
    dissipation,
    enumerate_equilibria,
    forward_transform,
    free_energy,
    inverse_transform,
    random_initial_field,
    spectral,
)

SRC = Path(__file__).resolve().parents[1] / "src" / "chtransition"


def test_no_private_names_imported_across_modules():
    offences = []
    for path in sorted(SRC.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if isinstance(node, ast.ImportFrom) and node.level > 0 and node.module:
                offences.extend(
                    f"{path.name}:{node.lineno}: {alias.name} from .{node.module}"
                    for alias in node.names
                    if alias.name.startswith("_")
                )
    assert not offences, "private names imported across modules:\n" + "\n".join(offences)


def test_no_module_imports_scipy():
    # the library needs numpy alone; scipy is a test dependency
    offences = []
    for path in sorted(SRC.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names = [node.module]
            else:
                continue
            offences.extend(
                f"{path.name}:{node.lineno}: {name}"
                for name in names
                if name.split(".")[0] == "scipy"
            )
    assert not offences, "scipy imported:\n" + "\n".join(offences)


def test_transforms_run_through_the_pass_function(monkeypatch):
    # every one-axis transform pass is one call of spectral._pass, so its
    # count is the transform work of a call
    calls = [0]
    original = spectral._pass

    def counted(*args, **kwargs):
        calls[0] += 1
        return original(*args, **kwargs)

    monkeypatch.setattr(spectral, "_pass", counted)

    d = DomainSpec((math.pi, 2.0, 1.0))
    # ubar = 0.4 makes b2 nonzero, which the h1 flux needs for its last term
    p = PhysicalParams(R=1, gamma=1, alpha=1, ubar=0.4,
                       mobility=MobilitySpec(h0=1.0, h1=0.3, h2=0.2))
    grid = (6, 7, 8)
    u = random_initial_field(d, grid, 0.05, np.random.default_rng(1))
    s = SimState(u=u, t=0.0, T=0.2, params=p)
    steppers = {
        rhs: Stepper(s, StepConfig(dt=0.01, grid=grid, rhs=rhs))
        for rhs in ("taylor", "divergence")
    }
    for stepper in steppers.values():
        stepper.step(s)
        dissipation(stepper, u.coeffs)
    s_h0 = SimState(u=u, t=0.0, T=0.2, params=PhysicalParams(R=1, gamma=1, alpha=1, ubar=0.4))
    steppers["h0"] = Stepper(s_h0, StepConfig(dt=0.01, grid=grid))
    steppers["h0"].step(s_h0)
    profile = MobilitySpec.from_profile(MobilityProfile("polynomial", (0.6, 1.2, -1.0)), 0.4)
    steppers["profile"] = Stepper(
        SimState(u=u, t=0.0, T=0.2, params=PhysicalParams(R=1, gamma=1, alpha=1, ubar=0.4,
                                                          mobility=profile)),
        StepConfig(dt=0.01, grid=grid, rhs="divergence"),
    )
    steppers["profile"].advance(u.coeffs)
    free_energy(steppers["taylor"], u.coeffs)
    assert calls[0]

    g = steppers["taylor"].grid
    for transform, arg, expect in (
        (g.synthesize, u.coeffs, 3),
        (g.analyze, g.synthesize(u.coeffs), 3),
        (g.gradient, u.coeffs, 3),
        (g.divergence, g.gradient(u.coeffs), 3),
        (inverse_transform, u, 3),
        (lambda samples: forward_transform(samples, d), inverse_transform(u), 3),
    ):
        calls[0] = 0
        transform(arg)
        assert calls[0] == expect, transform

    # passes per diagnostic on a state the stepper does not hold (an
    # advance drops it): free_energy synthesises u once (3) and takes its
    # gradient energy from the coefficients; dissipation synthesises u (3),
    # analyses the potential (3) and, for a varying mobility, synthesises its
    # gradient (3, stacked); a constant one takes the gradient energy of the
    # potential from its coefficients
    for diagnostic, stepper, expect in (
        (free_energy, "taylor", 3),
        (dissipation, "taylor", 9),
        (dissipation, "divergence", 9),
        (dissipation, "profile", 9),
        (dissipation, "h0", 6),
    ):
        steppers[stepper].advance(u.coeffs)
        calls[0] = 0
        diagnostic(steppers[stepper], u.coeffs)
        assert calls[0] == expect, (diagnostic, stepper)

    # a record (free_energy, then dissipation) and the step of the same
    # state synthesise u once: the step reuses u, and under divergence the
    # potential too.  A taylor h1/h2 step analyses its polynomial (3) and
    # takes the gradient (3) and divergence (3) of its flux; a divergence
    # step is the gradient (3) and divergence (3) of the held potential
    for stepper, record, step in (
        ("h0", 3 + 3, 3),
        ("taylor", 3 + 6, 9),
        ("divergence", 3 + 6, 6),
        ("profile", 3 + 6, 6),
    ):
        steppers[stepper].advance(u.coeffs)
        calls[0] = 0
        free_energy(steppers[stepper], u.coeffs)
        dissipation(steppers[stepper], u.coeffs)
        assert calls[0] == record, stepper
        calls[0] = 0
        steppers[stepper].advance(u.coeffs)
        assert calls[0] == step, stepper

    # a product of the second variation at a held state synthesises v (3)
    # and analyses the product (3); u is synthesised once for all of them
    steppers["taylor"].advance(u.coeffs)
    calls[0] = 0
    for _ in range(3):
        steppers["taylor"].hessian_product(u.coeffs, u.coeffs)
    assert calls[0] == 3 + 3 * 6


def test_enumeration_linearises_the_states_together(monkeypatch):
    # the Jacobians of all states go to eigvalsh stacked: at most one call
    # per support size, not one per state (26 on an m = 3 box)
    calls = []
    eigvalsh = np.linalg.eigvalsh

    def counting(a, *args, **kwargs):
        calls.append(np.shape(a))
        return eigvalsh(a, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "eigvalsh", counting)
    p = PhysicalParams(R=1.0, gamma=1.0, alpha=1.0, ubar=0.3)
    d = DomainSpec((math.pi, math.pi, math.pi))
    eqs = enumerate_equilibria(p, d, 0.98 * critical_temperature(p, d))
    assert len(eqs) == 26
    assert 1 <= len(calls) <= d.multiplicity, calls


def _stepper_private_names() -> set[str]:
    """The ``_`` methods ``Stepper`` defines and the ``self._x`` attributes
    it assigns (dunder names excluded)."""
    tree = ast.parse((SRC / "simulator.py").read_text())
    cls = next(
        node for node in tree.body if isinstance(node, ast.ClassDef) and node.name == "Stepper"
    )
    names = {node.name for node in cls.body if isinstance(node, ast.FunctionDef)}
    for node in ast.walk(cls):
        targets = (
            node.targets if isinstance(node, ast.Assign)
            else [node.target] if isinstance(node, ast.AnnAssign)
            else []
        )
        names.update(
            target.attr for target in targets
            if isinstance(target, ast.Attribute)
            and isinstance(target.value, ast.Name) and target.value.id == "self"
        )
    return {n for n in names if n.startswith("_") and not n.endswith("__")}


def test_no_private_stepper_attribute_read_outside_simulator():
    # the stepper's held arrays and implicit symbols are its own; callers
    # go through step, advance, explicit_term and the diagnostics
    private = _stepper_private_names()
    assert {"_padded", "_prev_g", "_work"} <= private
    root = SRC.parents[1]
    offences = []
    for folder in ("src", "tests", "perfbench"):
        for path in sorted((root / folder).rglob("*.py")):
            if path == SRC / "simulator.py":
                continue
            for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
                if isinstance(node, ast.Attribute) and node.attr in private:
                    offences.append(f"{path.relative_to(root)}:{node.lineno}: .{node.attr}")
    assert not offences, "private Stepper names read outside simulator.py:\n" + "\n".join(
        offences
    )


def test_no_elementwise_integer_powers_in_grid_code():
    # numpy evaluates u**3 and u**4 with elementwise pow, about 60 times
    # slower than u*u*u on a 48^3 grid of small values
    offences = []
    for name in ("simulator.py", "spectral.py"):
        path = SRC / name
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if isinstance(node, ast.BinOp) and isinstance(node.op, ast.Pow):
                exponent = node.right
            elif isinstance(node, ast.AugAssign) and isinstance(node.op, ast.Pow):
                exponent = node.value
            else:
                continue
            if (
                isinstance(exponent, ast.Constant)
                and isinstance(exponent.value, int)
                and exponent.value >= 3
            ):
                offences.append(f"{name}:{node.lineno}: ** {exponent.value}")
    assert not offences, "integer powers above two:\n" + "\n".join(offences)
