"""No floats in any compute path: every module of the library is parsed
and checked for the constructs that would bring one in."""

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src" / "knotforms"
MATH_ALLOWED = {"gcd", "isqrt", "lcm", "prod"}


def float_hazards(path: Path) -> list[str]:
    source = path.read_text(encoding="utf-8")
    found = []

    def flag(node, what):
        found.append(f"{path.name}:{node.lineno}: {what}")

    for node in ast.walk(ast.parse(source, filename=str(path))):
        if isinstance(node, ast.Constant) and isinstance(node.value, (float, complex)):
            flag(node, f"float literal {node.value!r}")
        elif (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
              and node.func.id in ("float", "round")):
            flag(node, f"call to {node.func.id}")
        elif isinstance(node, ast.Import) and any(a.name == "math" for a in node.names):
            flag(node, "import math")
        elif isinstance(node, ast.ImportFrom) and node.module == "math":
            for alias in node.names:
                if alias.name not in MATH_ALLOWED:
                    flag(node, f"from math import {alias.name}")
        elif isinstance(node, (ast.BinOp, ast.AugAssign)) and isinstance(node.op, ast.Div):
            flag(node, f"true division {ast.get_source_segment(source, node)}")
    return found


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.name)
def test_no_float_hazards(path):
    assert float_hazards(path) == []


@pytest.mark.parametrize("snippet", ["x = 0.5", "y = float(3)", "z = round(a)",
                                     "import math", "from math import sqrt",
                                     "w = a / b", "w /= b", "c = 1j"])
def test_detects_each_hazard(snippet, tmp_path):
    path = tmp_path / "mod.py"
    path.write_text(snippet + "\n")
    assert len(float_hazards(path)) == 1
