"""The package imports nothing outside the standard library.

numpy, mpmath, sympy and hypothesis may be installed, and the tests use them,
but the runtime stays stdlib-only; this test names any module that imports
something else.  Relative imports within the package do not count.
"""

import ast
import sys
from pathlib import Path

import gammaprod

SOURCES = sorted(Path(gammaprod.__file__).parent.glob("*.py"))


def non_stdlib_imports(sources):
    found = []
    for path in sources:
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names = [node.module]
            else:
                continue
            found += [f"{path.name}: {name}" for name in names
                      if name.partition(".")[0] not in sys.stdlib_module_names]
    return found


def test_every_import_is_stdlib():
    assert non_stdlib_imports(SOURCES) == []


def test_a_third_party_import_is_named(tmp_path):
    source = tmp_path / "module.py"
    source.write_text("import math\nfrom . import errors\nfrom os.path import join\n\n\n"
                      "def f():\n    import numpy.linalg\n    from mpmath import mp\n")
    assert non_stdlib_imports([source]) == ["module.py: numpy.linalg", "module.py: mpmath"]
