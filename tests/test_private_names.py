"""Every module-level private name in the package is read somewhere else in it.

A helper that lost its last caller is dead code that still reads as a rule of
the package; this test names it.  A use inside the name's own definition (a
recursive call) does not count, and neither does an import.
"""

import ast
from pathlib import Path

import gammaprod

SOURCES = sorted(Path(gammaprod.__file__).parent.glob("*.py"))


def _defined(statement):
    """The names a module-level statement binds."""
    if isinstance(statement, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
        return [statement.name]
    targets = statement.targets if isinstance(statement, ast.Assign) else [
        getattr(statement, "target", None)]
    return [t.id for t in targets if isinstance(t, ast.Name)]


def _read(statement):
    """The names and attributes a statement reads."""
    for node in ast.walk(statement):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            yield node.id
        elif isinstance(node, ast.Attribute):
            yield node.attr


def unused_private_names(sources):
    statements = [(path.name, s) for path in sources for s in ast.parse(path.read_text()).body]
    unused = []
    for module, statement in statements:
        for name in _defined(statement):
            if (name.startswith("_") and not name.startswith("__")
                    and not any(name in _read(other) for _, other in statements
                                if other is not statement)):
                unused.append(f"{module}: {name}")
    return unused


def test_every_private_name_is_used():
    assert unused_private_names(SOURCES) == []


def test_a_helper_with_no_caller_is_named(tmp_path):
    source = tmp_path / "module.py"
    source.write_text("def _used():\n    return 1\n\n\n"
                      "def _recursive(k):\n    return _recursive(k - 1) if k else _used()\n\n\n"
                      "_LIMIT = 3\n")
    assert unused_private_names([source]) == ["module.py: _recursive", "module.py: _LIMIT"]
