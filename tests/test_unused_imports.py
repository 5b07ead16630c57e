"""Every name an import binds in the package is read in its module or exported.

A routine that moves to another module can leave its old import behind; this
test names it.  A name counts as used when the module reads it, or when the
module lists it in __all__ (the package re-exports that way).  Star imports
bind no name of their own and are skipped.
"""

import ast
from pathlib import Path

import gammaprod

SOURCES = sorted(Path(gammaprod.__file__).parent.glob("*.py"))


def _bound(node):
    """The names an import statement binds: `import a.b` binds a."""
    for alias in node.names:
        if alias.name != "*":
            yield alias.asname or alias.name.split(".")[0]


def _exported(tree):
    """The string constants of a module-level __all__, spread lists included."""
    for statement in tree.body:
        if (isinstance(statement, ast.Assign)
                and any(isinstance(t, ast.Name) and t.id == "__all__" for t in statement.targets)):
            for node in ast.walk(statement.value):
                if isinstance(node, ast.Constant) and isinstance(node.value, str):
                    yield node.value


def unused_imports(sources):
    unused = []
    for path in sources:
        tree = ast.parse(path.read_text())
        read = {node.id for node in ast.walk(tree)
                if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}
        used = read | set(_exported(tree))
        for node in ast.walk(tree):
            if isinstance(node, (ast.Import, ast.ImportFrom)):
                unused += [f"{path.name}: {name}" for name in _bound(node) if name not in used]
    return unused


def test_every_imported_name_is_used():
    assert unused_imports(SOURCES) == []


def test_an_unused_import_is_named(tmp_path):
    source = tmp_path / "module.py"
    source.write_text("import os.path\nimport sys as system\n"
                      "from math import gcd, inf\nfrom itertools import *\n\n"
                      "__all__ = ['inf']\n\n\n"
                      "def f():\n    from operator import index\n    return os.sep\n")
    assert unused_imports([source]) == ["module.py: system", "module.py: gcd",
                                        "module.py: index"]
