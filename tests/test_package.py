"""The package's public names and its modules' imports."""

import ast
import re
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


# top-level names that only the tests call, kept on purpose
TEST_ONLY = {
    "box_dimension_estimate": "the only check that Omega_2's Cantor set has "
                              "box dimension near 1",
    "d_factor": "the criterion-8 refinement study and the n - p rate use it",
    "two_sided_sample": "the paper's object; the two-sided dimension count "
                        "cross-checks against it",
    "cubes_touch": "scalar reference the array adjacency is checked against",
    "projection_contains": "scalar reference the tent-chain projections are "
                           "checked against",
}


def test_src_defines_no_test_only_names():
    # a top-level def or class must be read somewhere in src/, exported,
    # looked up by the benchmark's tracer, or kept on purpose above
    src = Path(cantorslit.__file__).parent
    bench = "\n".join(p.read_text() for p in sorted(
        (Path(__file__).parents[1] / "perfbench").glob("*.py")))
    read, defined = set(), []
    for path in sorted(src.glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        defined += [(path.name, node.name) for node in tree.body
                    if isinstance(node, (ast.FunctionDef, ast.ClassDef))]
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                read.add(node.id)
            elif (isinstance(node, ast.Attribute)
                    and isinstance(node.ctx, ast.Load)):
                read.add(node.attr)
    unread = [f"{file}: {name}" for file, name in defined
              if name not in read and name not in cantorslit.__all__
              and name not in TEST_ONLY
              and not re.search(rf"\b{name}\b", bench)]
    assert not unread, unread
