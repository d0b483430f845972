"""Every import of one `cbv` module by another sits at module level.

An import inside a function hides an import cycle instead of removing it,
and delays an import error to the first call.  Third-party imports inside
functions stay allowed: scipy is loaded only when GMRES or clearing runs.
"""

import ast
from pathlib import Path

import pytest

import cbv

MODULES = sorted(Path(cbv.__file__).parent.glob("*.py"))


def imports_cbv(node: ast.AST) -> bool:
    if isinstance(node, ast.ImportFrom):
        return node.level > 0 or (node.module or "").split(".")[0] == "cbv"
    if isinstance(node, ast.Import):
        return any(alias.name.split(".")[0] == "cbv" for alias in node.names)
    return False


def function_level_cbv_imports(source: str) -> list[int]:
    """Line numbers of the `cbv` imports inside a function body."""
    lines = set()
    for func in ast.walk(ast.parse(source)):
        if isinstance(func, (ast.FunctionDef, ast.AsyncFunctionDef)):
            lines.update(node.lineno for node in ast.walk(func) if imports_cbv(node))
    return sorted(lines)


@pytest.mark.parametrize("path", MODULES, ids=[p.name for p in MODULES])
def test_no_cbv_import_inside_a_function(path):
    assert function_level_cbv_imports(path.read_text(encoding="utf-8")) == []


def test_the_scan_sees_function_level_imports():
    source = (
        "import numpy as np\n"
        "from .errors import DomainError\n"
        "def solve():\n"
        "    from scipy.sparse import csr_array\n"
        "    from .engine import _solve_shifted\n"
        "    def inner():\n"
        "        import cbv.network\n"
    )
    assert function_level_cbv_imports(source) == [5, 7]
    assert MODULES and {p.name for p in MODULES} >= {"engine.py", "control.py", "clearing.py"}
