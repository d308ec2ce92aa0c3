"""Every name a package module or a test module imports is used in that
module.

No linter ships with the project, so this stdlib check stands in for
one. The package's `__init__.py` is exempt: its imports are the
package's re-exports.
"""

import ast
from pathlib import Path

import pytest

TESTS = Path(__file__).resolve().parent
PACKAGE = TESTS.parent / "src" / "gossipcover"


def unused_imports(source: str) -> list[str]:
    """Names bound by import statements that the module never reads."""
    tree = ast.parse(source)
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                imported[name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted(f"line {line}: {name}" for name, line in imported.items() if name not in used)


def test_checker_flags_an_unused_import():
    source = "import os\nimport sys\nfrom typing import Optional, Sequence\nx: Optional[int] = sys.maxsize\n"
    assert unused_imports(source) == ["line 1: os", "line 3: Sequence"]


@pytest.mark.parametrize(
    "module", sorted(p.name for p in PACKAGE.glob("*.py") if p.name != "__init__.py")
)
def test_package_module_has_no_unused_imports(module):
    assert unused_imports((PACKAGE / module).read_text(encoding="utf-8")) == []


@pytest.mark.parametrize("module", sorted(p.name for p in TESTS.glob("*.py")))
def test_test_module_has_no_unused_imports(module):
    assert unused_imports((TESTS / module).read_text(encoding="utf-8")) == []
