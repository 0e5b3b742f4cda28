"""Gate: every name that a module of ``src/qautcert``, ``tests`` or
``scripts`` imports is read in it.  A package's ``__init__.py`` imports to
re-export and is exempt, and a name on a module's ``__all__`` counts as
read, as the module re-exports it."""

import ast
import os

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
DIRECTORIES = ("src/qautcert", "tests", "scripts")


def unused_imports(source: str) -> list:
    """'name (line n)' for each name the module imports and never reads,
    in the order of the imports."""
    tree = ast.parse(source)
    imported, read = [], set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported += [(a.asname or a.name.split(".")[0], node.lineno) for a in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported += [(a.asname or a.name, node.lineno) for a in node.names]
        elif isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            read.add(node.id)
        elif (isinstance(node, ast.Assign) and isinstance(node.value, (ast.List, ast.Tuple))
              and any(isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets)):
            read |= {e.value for e in node.value.elts if isinstance(e, ast.Constant)}
    return [f"{name} (line {line})" for name, line in sorted(imported, key=lambda x: x[1])
            if name not in read]


def test_unused_imports_are_found():
    source = ("from qautcert.formal import qsym, usym\nimport numpy as np\nimport os.path\n"
              "__all__ = ['np']\n\ndef f():\n    import math\n    return qsym(1) + os.sep\n")
    assert unused_imports(source) == ["usym (line 1)", "math (line 7)"]


def test_every_import_is_read():
    unused = []
    for directory in DIRECTORIES:
        for name in sorted(os.listdir(os.path.join(ROOT, directory))):
            if name.endswith(".py") and name != "__init__.py":
                with open(os.path.join(ROOT, directory, name)) as fh:
                    unused += [f"{directory}/{name}: {u}" for u in unused_imports(fh.read())]
    assert unused == []
