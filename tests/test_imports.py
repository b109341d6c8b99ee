"""The package imports nothing outside the standard library."""
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
