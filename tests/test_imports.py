"""Every name a module imports is used in that module, and importing the CLI
loads no scipy, which only the tests depend on.

No linter ships with the project, so this parses each module of the package
(``__init__.py`` re-exports by design and is skipped) and fails on an
imported name that never appears as a name in the module body.
"""

import ast
import os
import pathlib
import subprocess
import sys

import pytest

import anchormc

PACKAGE = pathlib.Path(anchormc.__file__).parent
MODULES = sorted(p for p in PACKAGE.glob("*.py") if p.name != "__init__.py")


def unused_imports(source: str) -> list[str]:
    tree = ast.parse(source)
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [f"line {line}: {name}" for name, line in imported.items() if name not in used]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_unused_imports(path):
    assert unused_imports(path.read_text()) == []


def test_checker_flags_unused_and_accepts_used():
    source = "import os\nimport numpy as np\nfrom a import b, c as d\nnp.zeros(1)\nd()\n"
    assert unused_imports(source) == ["line 1: os", "line 3: b"]


def test_cli_import_loads_no_scipy():
    # a fresh interpreter, so modules the test run itself imported do not count
    probe = "import sys, anchormc.cli; print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))"
    env = dict(os.environ, PYTHONPATH=str(PACKAGE.parent))
    out = subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True, check=True, env=env)
    assert out.stdout.strip() == "[]"
