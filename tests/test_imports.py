"""Module boundaries: no module of the package imports a private name from
a sibling; a helper two modules need is public in the one that owns it; a
top-level function or class, public or private, and every method or
property of a class has a caller in the package or the benchmark; scipy
loads only where a sparse matrix is built; memory is charged in
one place; every failure type carries its exit code through its base; only
fock.FockSpace lays out the Fock basis."""

import ast
import importlib
import inspect
import os
import pkgutil
import subprocess
import sys
from pathlib import Path

import numpy as np

import polaronlab
from polaronlab import resolvent
from polaronlab.config import InvariantError, NonConvergenceError

SRC = Path(polaronlab.__file__).parent
BENCH = SRC.parents[1] / "bench"


def test_no_module_imports_a_private_name_from_a_sibling():
    found = []
    for path in sorted(SRC.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if isinstance(node, ast.ImportFrom) and node.level > 0 and node.module:
                found += [
                    f"{path.name}:{node.lineno} from .{node.module} import {a.name}"
                    for a in node.names
                    if a.name.startswith("_") and not a.name.startswith("__")
                ]
    assert not found, "private names imported across modules:\n" + "\n".join(found)


def _outside(tree, inside):
    """Names a syntax tree binds by importing from outside the package and the
    benchmark: numpy, json, scipy, ..."""
    found = set()
    for n in ast.walk(tree):
        if isinstance(n, ast.Import):
            found |= {a.asname or a.name.split(".")[0] for a in n.names
                      if a.name.split(".")[0] not in inside}
        elif isinstance(n, ast.ImportFrom) and n.level == 0 and n.module.split(".")[0] not in inside:
            found |= {a.asname or a.name for a in n.names}
    return found


def _names(node, outside):
    """Every name a syntax tree loads, reads as an attribute or imports.  An
    attribute read off an outside module (json.load, np.linalg.eig) names
    that module's code, not ours, so it does not count."""
    for n in ast.walk(node):
        if isinstance(n, ast.Name):
            yield n.id
        elif isinstance(n, ast.Attribute):
            root = n.value
            while isinstance(root, ast.Attribute):
                root = root.value
            if not (isinstance(root, ast.Name) and root.id in outside):
                yield n.attr
        elif isinstance(n, ast.alias):
            yield n.name.rsplit(".", 1)[-1]


def _trees():
    """Syntax trees of every package and benchmark source, by path, each with
    the names it imports from outside both."""
    assert BENCH.is_dir(), f"no benchmark sources at {BENCH}"
    paths = [*SRC.glob("*.py"), *BENCH.rglob("*.py")]
    inside = {SRC.name, *(p.stem for p in paths)}
    trees = {p: ast.parse(p.read_text(), filename=str(p)) for p in paths}
    return {p: (tree, _outside(tree, inside)) for p, tree in trees.items()}


def test_every_public_function_and_class_has_a_caller():
    # private ones too, so a helper cannot outlive its last caller; tests do
    # not count: code only a test calls is dead in the package
    trees = _trees()
    used = {name for tree, outside in trees.values() for stmt in tree.body
            for name in _names(stmt, outside) if name != getattr(stmt, "name", None)}
    dead = [f"{path.name}:{stmt.lineno} {stmt.name}"
            for path, (tree, _) in trees.items() if path.parent == SRC for stmt in tree.body
            if isinstance(stmt, (ast.FunctionDef, ast.ClassDef)) and stmt.name not in used]
    assert not dead, "definitions nothing in src/ or bench/ refers to:\n" + "\n".join(dead)


def test_every_method_and_property_has_a_caller():
    # a method is called through an attribute, so any reference by name in
    # src/ or bench/ counts; dunders are called by the language
    trees = _trees()
    used = {name for tree, outside in trees.values() for name in _names(tree, outside)}
    dead = [f"{path.name}:{fn.lineno} {cls.name}.{fn.name}"
            for path, (tree, _) in trees.items() if path.parent == SRC
            for cls in tree.body if isinstance(cls, ast.ClassDef)
            for fn in cls.body if isinstance(fn, ast.FunctionDef)
            and not (fn.name.startswith("__") and fn.name.endswith("__"))
            and fn.name not in used]
    assert not dead, "methods nothing in src/ or bench/ refers to:\n" + "\n".join(dead)


def test_memory_is_charged_once_from_the_command_table():
    # the stage estimates live in config.py and cli.main sums the ones a verb
    # names; a preflight_* function or a second require_memory call would let a
    # verb charge its own subset again
    preflights, calls = [], []
    for path in sorted(SRC.glob("*.py")):
        for stmt in ast.parse(path.read_text(), filename=str(path)).body:
            for n in ast.walk(stmt):
                if isinstance(n, ast.FunctionDef) and n.name.startswith("preflight_"):
                    preflights.append(f"{path.name}:{n.lineno} {n.name}")
                elif isinstance(n, ast.Call) and "require_memory" in (
                    getattr(n.func, "id", None), getattr(n.func, "attr", None)
                ):
                    calls.append(f"{path.name} {getattr(stmt, 'name', '<module>')}")
    assert not preflights, "preflight functions:\n" + "\n".join(preflights)
    assert calls == ["cli.py main"]


def test_only_fock_space_lays_out_the_fock_basis():
    # the mixed-radix strides, the ladder weights and the cutoff mask are
    # computed once, in FockSpace; a function elsewhere in fock.py that raises
    # n_max + 1, or a name bound to n_max, to a power lays out the basis again
    def mentions(node, bound):
        return any(isinstance(n, ast.Name) and n.id in bound
                   or isinstance(n, ast.Attribute) and n.attr == "n_max"
                   for n in ast.walk(node))

    found = []
    for stmt in ast.parse((SRC / "fock.py").read_text()).body:
        if getattr(stmt, "name", None) == "FockSpace":
            continue
        for fn in (n for n in ast.walk(stmt) if isinstance(n, ast.FunctionDef)):
            bound, size = {"n_max"}, 0
            while size < len(bound):  # names bound to names bound to n_max
                size = len(bound)
                for n in (n for n in ast.walk(fn) if isinstance(n, ast.Assign)):
                    for t in n.targets:
                        pairs = (zip(t.elts, n.value.elts) if isinstance(t, ast.Tuple)
                                 and isinstance(n.value, ast.Tuple) else [(t, n.value)])
                        bound |= {t.id for t, v in pairs
                                  if isinstance(t, ast.Name) and mentions(v, bound)}
            found += [f"fock.py:{n.lineno} {ast.unparse(n)}" for n in ast.walk(fn)
                      if isinstance(n, ast.BinOp) and isinstance(n.op, ast.Pow)
                      and mentions(n.left, bound)]
    assert not found, "Fock basis laid out outside FockSpace:\n" + "\n".join(found)


def test_every_failure_type_carries_its_exit_code_through_one_base():
    # cli.main maps InvariantError to exit 2 and NonConvergenceError to exit 3
    # and nothing else, so a failure type outside both leaves as a traceback
    # with exit 1, as only the two programming errors below should
    bases = (InvariantError, NonConvergenceError)
    programming = {"NotNormalizedError", "GridMismatchError"}
    stray = []
    for info in pkgutil.iter_modules(polaronlab.__path__):
        module = importlib.import_module(f"polaronlab.{info.name}")
        for name, cls in inspect.getmembers(module, inspect.isclass):
            if (cls.__module__ == module.__name__ and issubclass(cls, BaseException)
                    and cls not in bases and name not in programming
                    and sum(issubclass(cls, b) for b in bases) != 1):
                stray.append(f"{info.name}.{name}")
    assert not stray, "failure types without exactly one exit base:\n" + "\n".join(stray)
    # the CLI catches the two bases, by name, and nothing else
    caught = [ast.unparse(node.type) if node.type else "<bare>"
              for node in ast.walk(ast.parse((SRC / "cli.py").read_text()))
              if isinstance(node, ast.ExceptHandler)]
    assert caught and set(caught) <= {"InvariantError", "NonConvergenceError"}, caught


def test_no_module_loads_scipy_fft_or_special():
    # importing scipy.fft pulls in scipy.special: about 65 ms on every cold start
    script = (
        "import importlib, pkgutil, sys, polaronlab\n"
        "names = [m.name for m in pkgutil.iter_modules(polaronlab.__path__)]\n"
        "for name in names:\n"
        "    importlib.import_module('polaronlab.' + name)\n"
        "print(len(names), *[m for m in ('scipy.fft', 'scipy.special') if m in sys.modules])\n"
    )
    env = {**os.environ, "PYTHONPATH": str(SRC.parent)}
    run = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True, env=env)
    assert run.returncode == 0, run.stderr
    assert run.stdout.split() == [str(len(list(SRC.glob("*.py"))) - 1)]


def test_scipy_loads_only_with_a_sparse_assembly():
    # every module, the desk-small bundle, its Bogoliubov map, the map of a
    # nilpotent generator (A^2 = 0, no eigenbasis) and one resolvent apply run
    # on numpy alone; the sparse quadratic Hamiltonian loads scipy.sparse
    script = (
        "import importlib, pkgutil, sys, numpy as np, polaronlab\n"
        "for m in pkgutil.iter_modules(polaronlab.__path__):\n"
        "    importlib.import_module('polaronlab.' + m.name)\n"
        "from dataclasses import replace\n"
        "from polaronlab import experiments as ex, fock as fk, quasifree as qf\n"
        "from polaronlab.config import load_config\n"
        "from polaronlab.grid import Field\n"
        "b = ex.build_bundle(load_config(preset='desk-small'))\n"
        "qf.propagate_map(b.generator, 1.0, 2.0)\n"
        "K = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)\n"
        "nil = qf.build_generator(replace(b.kernels, K=K, G=0 * K, epsilon=0.0))\n"
        "qf.propagate_map(nil, 50.0, 1.0)\n"
        "v = np.random.default_rng(0).standard_normal(b.grid.shape)\n"
        "b.rh.apply(Field(v, b.grid))\n"
        "print('scipy' in sys.modules)\n"
        "fk.build_quadratic_hamiltonian(b.kernels, fk.FockSpace(b.modes.M, 2))\n"
        "print('scipy.sparse' in sys.modules)\n"
    )
    env = {**os.environ, "PYTHONPATH": str(SRC.parent)}
    run = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True, env=env)
    assert run.returncode == 0, run.stderr
    assert run.stdout.splitlines() == ["False", "True"]


def test_resolvent_cg_forwards_to_scipy():
    # the benchmark's tracer wraps resolvent.cg and counts iterations through
    # callback=, so the forwarder must pass both the system and the callback on
    from scipy.sparse.linalg import cg

    A, b = np.array([[4.0, 1.0], [1.0, 3.0]]), np.array([1.0, 2.0])
    seen, want = [], []
    x, info = resolvent.cg(A, b, rtol=1e-12, callback=seen.append)
    x_ref, info_ref = cg(A, b, rtol=1e-12, callback=want.append)
    assert info == info_ref == 0 and len(seen) == len(want) > 0
    assert np.array_equal(x, x_ref)
    assert np.allclose(A @ x, b, rtol=0, atol=1e-10)
