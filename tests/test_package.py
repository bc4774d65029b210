"""The package's public names and its modules' imports."""

import ast
from pathlib import Path

import cantorslit


def test_star_import_resolves_every_name_in_all():
    # `from cantorslit import *` raises AttributeError on a stale entry
    namespace = {}
    exec("from cantorslit import *", namespace)
    assert set(cantorslit.__all__) <= set(namespace)
    assert len(set(cantorslit.__all__)) == len(cantorslit.__all__)


def test_modules_use_every_name_they_import():
    # no linter ships with the project, so walk each module's syntax tree:
    # an imported name must be read somewhere in the module, or exported
    # through __all__
    src = Path(cantorslit.__file__).parent
    unused = []
    for path in sorted(src.glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        imported = {}
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and node.module == "__future__":
                continue
            if isinstance(node, (ast.Import, ast.ImportFrom)):
                for alias in node.names:
                    name = alias.asname or alias.name.split(".")[0]
                    imported[name] = node.lineno
        used = {node.id for node in ast.walk(tree)
                if isinstance(node, ast.Name)}
        for node in ast.walk(tree):
            if (isinstance(node, ast.Assign)
                    and any(isinstance(t, ast.Name) and t.id == "__all__"
                            for t in node.targets)):
                used |= set(ast.literal_eval(node.value))
        unused += [f"{path.name}:{line}: {name}"
                   for name, line in imported.items() if name not in used]
    assert not unused, unused
