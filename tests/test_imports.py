"""Every module of the package imports at its top level only, uses each
name it imports, and catches no exception wider than the toolkit's own.

`__init__.py` is exempt from the second rule: its imports are the
package's public names.
"""

import ast
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "shiftforge"
MODULES = sorted(p for p in PACKAGE.glob("*.py") if p.name != "__init__.py")


def unused_imports(source: str) -> list[str]:
    tree = ast.parse(source)
    imported = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported += [a.asname or a.name.split(".")[0] for a in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported += [a.asname or a.name for a in node.names]
    used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    return [name for name in imported if name not in used]


def nested_imports(source: str) -> list[int]:
    """Line numbers of imports that are not statements of the module body."""
    tree = ast.parse(source)
    return [node.lineno for node in ast.walk(tree)
            if isinstance(node, (ast.Import, ast.ImportFrom)) and node not in tree.body]


def test_check_sees_an_unused_import():
    assert unused_imports("import os\nfrom a import b, c as d\nd()\n") == ["os", "b"]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_module_uses_every_import(path):
    assert unused_imports(path.read_text()) == []


def test_check_sees_a_nested_import():
    source = "import os\ndef f():\n    import sys\nclass C:\n    from a import b\n"
    assert nested_imports(source) == [3, 5]


@pytest.mark.parametrize("path", sorted(PACKAGE.glob("*.py")), ids=lambda p: p.name)
def test_module_imports_at_top_level(path):
    assert nested_imports(path.read_text()) == []


def broad_handlers(source: str) -> list[int]:
    """Line numbers of bare `except:` clauses and of handlers that catch
    Exception or BaseException, alone or in a tuple: they would turn a
    programming error into a user-facing one."""
    broad = {"Exception", "BaseException"}
    lines = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.ExceptHandler):
            caught = node.type.elts if isinstance(node.type, ast.Tuple) else [node.type]
            if any(t is None or isinstance(t, ast.Name) and t.id in broad for t in caught):
                lines.append(node.lineno)
    return lines


def test_check_sees_a_broad_handler():
    source = ("try:\n    f()\nexcept:\n    pass\n"
              "try:\n    f()\nexcept (ValueError, Exception):\n    pass\n"
              "try:\n    f()\nexcept BaseException as e:\n    pass\n"
              "try:\n    f()\nexcept ValueError:\n    pass\n")
    assert broad_handlers(source) == [3, 7, 11]


@pytest.mark.parametrize("path", sorted(PACKAGE.glob("*.py")), ids=lambda p: p.name)
def test_module_catches_no_broad_exception(path):
    assert broad_handlers(path.read_text()) == []
