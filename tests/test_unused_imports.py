"""No module imports a name it never reads.

Covers every module under `src/driverepair`, except the package
`__init__.py` files, whose imports are re-exports, and every module under
`tests/`. An import line that carries `# noqa` is exempt.
"""
import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def _modules():
    for path in sorted((ROOT / "src" / "driverepair").rglob("*.py")):
        if path.name != "__init__.py":
            yield path
    yield from sorted((ROOT / "tests").rglob("*.py"))


def unused_imports(source: str) -> list:
    """(line, name) of each imported name that the module never reads."""
    tree = ast.parse(source)
    lines = source.splitlines()
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                if alias.name == "*" or "# noqa" in lines[alias.lineno - 1]:
                    continue
                name = alias.asname or alias.name.partition(".")[0]
                imported[name] = alias.lineno
    read = {node.id for node in ast.walk(tree)
            if isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Store)}
    return sorted((line, name) for name, line in imported.items()
                  if name not in read)


def test_no_module_imports_a_name_it_never_reads():
    found = [f"{path.relative_to(ROOT)}:{line}: {name}"
             for path in _modules()
             for line, name in unused_imports(path.read_text(encoding="utf-8"))]
    assert found == []


def test_the_check_sees_unread_names_and_honours_noqa():
    source = ("from os import path, sep\n"
              "import json.decoder\n"
              "import re  # noqa: F401\n"
              "from . import grammar as g\n"
              "print(sep)\n")
    assert unused_imports(source) == [(1, "path"), (2, "json"), (4, "g")]
