"""Module boundaries: no module of the package imports a private name from
a sibling; a helper two modules need is public in the one that owns it; a
top-level function or class, public or private, and every method or
property of a class has a caller in the package or the benchmark."""

import ast
import os
import subprocess
import sys
from pathlib import Path

import polaronlab

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


def _names(node):
    """Every name a syntax tree loads, reads as an attribute or imports."""
    for n in ast.walk(node):
        if isinstance(n, ast.Name):
            yield n.id
        elif isinstance(n, ast.Attribute):
            yield n.attr
        elif isinstance(n, ast.alias):
            yield n.name.rsplit(".", 1)[-1]


def _trees():
    """Syntax trees of every package and benchmark source, by path."""
    assert BENCH.is_dir(), f"no benchmark sources at {BENCH}"
    return {p: ast.parse(p.read_text(), filename=str(p))
            for p in [*SRC.glob("*.py"), *BENCH.rglob("*.py")]}


def test_every_public_function_and_class_has_a_caller():
    # private ones too, so a helper cannot outlive its last caller; tests do
    # not count: code only a test calls is dead in the package
    trees = _trees()
    used = {name for tree in trees.values() for stmt in tree.body
            for name in _names(stmt) if name != getattr(stmt, "name", None)}
    dead = [f"{path.name}:{stmt.lineno} {stmt.name}"
            for path, tree in trees.items() if path.parent == SRC for stmt in tree.body
            if isinstance(stmt, (ast.FunctionDef, ast.ClassDef)) and stmt.name not in used]
    assert not dead, "definitions nothing in src/ or bench/ refers to:\n" + "\n".join(dead)


def test_every_method_and_property_has_a_caller():
    # a method is called through an attribute, so any reference by name in
    # src/ or bench/ counts; dunders are called by the language
    trees = _trees()
    used = {name for tree in trees.values() for name in _names(tree)}
    dead = [f"{path.name}:{fn.lineno} {cls.name}.{fn.name}"
            for path, tree in trees.items() if path.parent == SRC
            for cls in tree.body if isinstance(cls, ast.ClassDef)
            for fn in cls.body if isinstance(fn, ast.FunctionDef)
            and not (fn.name.startswith("__") and fn.name.endswith("__"))
            and fn.name not in used]
    assert not dead, "methods nothing in src/ or bench/ refers to:\n" + "\n".join(dead)


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
