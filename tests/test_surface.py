"""The package's size: its settable surface and its lines.

Settable values are the values a caller can set but need not, counted as
dataclass fields with a default plus function parameters with a default,
over the modules of ``src/anchormc``; lines are the lines of those modules.
Either count may only rise by raising its ceiling here, so every new option
and all growth of the code is a declared change."""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "anchormc"
CEILING = 62
LINE_CEILING = 2785


def _is_dataclass(cls: ast.ClassDef) -> bool:
    for decorator in cls.decorator_list:
        f = decorator.func if isinstance(decorator, ast.Call) else decorator
        if (f.attr if isinstance(f, ast.Attribute) else getattr(f, "id", None)) == "dataclass":
            return True
    return False


def settable_values(source: str) -> int:
    count = 0
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.ClassDef) and _is_dataclass(node):
            count += sum(isinstance(s, ast.AnnAssign) and s.value is not None for s in node.body)
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
            count += len(node.args.defaults) + sum(d is not None for d in node.args.kw_defaults)
    return count


def test_counting_rule():
    source = '''
from dataclasses import dataclass, field

@dataclass(frozen=True)
class A:
    x: int
    y: int = 1
    z: list = field(default_factory=list)
    W = 3

class B:
    u: int = 2

def f(a, b=1, *args, c, d=2, **kw):
    return lambda e=3: e
'''
    assert settable_values(source) == 2 + 3


def test_settable_values_within_ceiling():
    count = sum(settable_values(p.read_text()) for p in sorted(SRC.glob("*.py")))
    assert count <= CEILING, f"{count} settable values with a default, ceiling {CEILING}"


def test_source_lines_within_ceiling():
    lines = sum(len(p.read_text().splitlines()) for p in sorted(SRC.glob("*.py")))
    assert lines <= LINE_CEILING, f"{lines} lines in src/anchormc, ceiling {LINE_CEILING}"
