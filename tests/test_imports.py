"""The package imports nothing outside the standard library, and one first-read
descriptor serves it all."""
import ast
import sys
from pathlib import Path

import kneegp


def test_package_imports_only_the_standard_library():
    roots = set()
    for path in Path(kneegp.__file__).parent.glob("*.py"):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.Import):
                roots.update(a.name.split(".")[0] for a in node.names)
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                roots.add(node.module.split(".")[0])
    assert roots, "no imports found"
    assert roots <= sys.stdlib_module_names, sorted(roots - sys.stdlib_module_names)


def test_no_module_uses_the_functools_cached_property():
    """`model.lazy` builds every attribute on its first read, lock-free."""
    for path in Path(kneegp.__file__).parent.glob("*.py"):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.ImportFrom):
                assert "cached_property" not in [a.name for a in node.names], path.name
            elif isinstance(node, ast.Attribute):
                assert node.attr != "cached_property", path.name
