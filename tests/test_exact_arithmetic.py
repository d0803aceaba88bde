"""No float shortcuts in the package: every certified path stays exact.

A float literal, a float(...) call or a true division / anywhere under
src/entriv fails the scan; exact code uses int, Fraction and //.
"""

import ast
import pathlib

import pytest

SRC = pathlib.Path(__file__).resolve().parents[1] / "src" / "entriv"


def float_shortcuts(tree) -> list:
    """Sorted (line, what) of every float shortcut in a parsed module."""
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Constant) and isinstance(node.value, float):
            found.append((node.lineno, f"float literal {node.value!r}"))
        elif isinstance(node, ast.Call) and isinstance(node.func, ast.Name) \
                and node.func.id == "float":
            found.append((node.lineno, "float(...) call"))
        elif isinstance(node, (ast.BinOp, ast.AugAssign)) and isinstance(node.op, ast.Div):
            found.append((node.lineno, "true division /"))
    return sorted(found)


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda path: path.name)
def test_no_float_shortcuts(path):
    assert float_shortcuts(ast.parse(path.read_text(), str(path))) == []


def test_the_scan_sees_every_shortcut():
    source = "a = 0.5\nb = float(3)\nc = 1 / 2\nc /= 2\nd = 7 // 2\n"
    assert [line for line, _ in float_shortcuts(ast.parse(source))] == [1, 2, 3, 4]
