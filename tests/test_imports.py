"""Every name a module imports is used in that module, no module uses
another module's private (``_``-prefixed) names, and importing the CLI
loads no scipy, which only the tests depend on, and that running islands in
forked children loads no process-pool module.

No linter ships with the project, so this parses each module of the package
(``__init__.py`` re-exports by design and is skipped) and fails on an
imported name that never appears as a name in the module body, and on a
private name imported from, or read as an attribute of, a sibling module.
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


def private_names_of_siblings(source: str) -> list[str]:
    """The private names a module takes from its sibling modules: ``from .m
    import _x``, and ``m._x`` where ``from . import m`` bound ``m``."""
    tree = ast.parse(source)
    siblings, found = set(), []
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.level > 0:
            for alias in node.names:
                if node.module is None:
                    siblings.add(alias.asname or alias.name)
                elif alias.name.startswith("_"):
                    found.append(f"line {node.lineno}: {node.module}.{alias.name}")
    for node in ast.walk(tree):
        if (
            isinstance(node, ast.Attribute)
            and isinstance(node.value, ast.Name)
            and node.value.id in siblings
            and node.attr.startswith("_")
        ):
            found.append(f"line {node.lineno}: {node.value.id}.{node.attr}")
    return found


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_private_names_of_sibling_modules(path):
    assert private_names_of_siblings(path.read_text()) == []


def test_private_checker_flags_imports_and_attributes():
    source = (
        "from .nets import forward, _pass\n"
        "from . import data as d, kernels\n"
        "import numpy as np\n"
        "d._rows\nkernels.sweep\nnp._x\nself._y\n"
    )
    assert private_names_of_siblings(source) == ["line 1: nets._pass", "line 4: d._rows"]


def test_cli_import_loads_no_scipy():
    # a fresh interpreter, so modules the test run itself imported do not count
    probe = "import sys, anchormc.cli; print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))"
    env = dict(os.environ, PYTHONPATH=str(PACKAGE.parent))
    out = subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True, check=True, env=env)
    assert out.stdout.strip() == "[]"


def test_cli_import_loads_no_pool_modules():
    # nor do islands on two workers: they fork and pipe without a pool
    probe = (
        "import sys, anchormc.cli; from anchormc import parallel, smc, targets; "
        "target = targets.TargetDensity(lambda th: -th[:, 0] ** 2, None, targets.GaussianPrior(1.0, 1)); "
        "cfg = smc.McmcConfig(n_chains=2, n_steps=2, kernel='pcn'); "
        "assert not any(r.failed for r in parallel.run_parallel(target, cfg, 2, 0, workers=2)); "
        "print(sorted(m for m in sys.modules if m.split('.')[0] in ('multiprocessing', 'concurrent')))"
    )
    env = dict(os.environ, PYTHONPATH=str(PACKAGE.parent))
    out = subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True, check=True, env=env)
    assert out.stdout.strip() == "[]"
