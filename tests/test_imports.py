"""Module boundaries: no module of the package imports a private name from
a sibling; a helper two modules need is public in the one that owns it."""

import ast
from pathlib import Path

import polaronlab

SRC = Path(polaronlab.__file__).parent


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
