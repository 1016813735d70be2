"""Import layering of the package: only the command line depends on ``cli``."""

import ast
from pathlib import Path

import morreybench

PACKAGE = Path(morreybench.__file__).parent


def _imported_modules(tree: ast.AST):
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            yield from (alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            base = ("." * node.level) + (node.module or "")
            yield base
            yield from (f"{base}.{alias.name}" if node.module else base + alias.name
                        for alias in node.names)


def test_no_module_imports_cli():
    offenders = []
    for path in sorted(PACKAGE.glob("*.py")):
        if path.stem == "cli":
            continue
        names = set(_imported_modules(ast.parse(path.read_text())))
        if names & {".cli", "morreybench.cli"}:
            offenders.append(path.name)
    assert offenders == []


def test_relations_imports_only_util():
    # weights and experiments both import relations, so any other package
    # import there could close an import cycle
    tree = ast.parse((PACKAGE / "relations.py").read_text())
    relative = {node.module for node in ast.walk(tree)
                if isinstance(node, ast.ImportFrom) and node.level > 0}
    absolute = {name for name in _imported_modules(tree) if name.startswith("morreybench")}
    assert relative == {"util"} and absolute == set()


# the stacked cores: private functions that take a stack (of pairs, functions or
# weight systems) or build the table of a stacked call, and that another package
# module may call directly; a new one joins this list on purpose
STACKED_CORES = {"_b_values", "_bilinear_maximal", "_vector_maximal", "_morrey_sup",
                 "_pair_stacks", "_correlate", "_dyadic_table", "_i_values"}


def test_only_stacked_cores_cross_modules():
    offenders = []
    for path in sorted(PACKAGE.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.ImportFrom) and (
                    node.level > 0 or (node.module or "").startswith("morreybench")):
                offenders += [f"{path.name}: {alias.name}" for alias in node.names
                              if alias.name.startswith("_") and alias.name not in STACKED_CORES]
    assert offenders == []


def test_every_stacked_core_is_defined_and_crosses_a_module():
    # a stale entry (renamed, deleted or no longer imported) fails here
    defined, imported = {}, set()
    for path in sorted(PACKAGE.glob("*.py")):
        tree = ast.parse(path.read_text())
        for node in tree.body:
            if isinstance(node, ast.FunctionDef):
                defined[node.name] = path.stem
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and node.level > 0:
                imported |= {(path.stem, alias.name) for alias in node.names}
    assert STACKED_CORES <= defined.keys()
    assert all(any(name == core and mod != defined[core] for mod, name in imported)
               for core in STACKED_CORES)
