"""Every public name of the package is used by the package or the benchmark.

A public function, class or method is one whose name does not start with
an underscore, defined at the top level of a module of ``src/racelab`` or
in the body of such a class. It counts as used when a module of
``src/racelab`` or of ``bench/`` names it (as a name, an attribute or an
import) anywhere outside its own definition. A name that only tests
reach moves into the tests or goes.
"""

import ast
import collections
import pathlib

ROOT = pathlib.Path(__file__).resolve().parents[1]

# Used by tests alone, on purpose:
#   autodiff.precision is the float64 mode of the finite-difference tests;
#   the trajectory log stays until the benchmark stops patching
#   racelab.env:save_params, which only the log uses.
EXEMPT = {"autodiff.precision", "env.save_trajectory_log", "env.load_trajectory_log"}


def _definitions(tree):
    """(qualified name, bare name, definition node) of each public function,
    class and method of a module; a private class's methods are its own."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)) and not node.name.startswith("_"):
            yield node.name, node.name, node
            for member in node.body if isinstance(node, ast.ClassDef) else []:
                if isinstance(member, ast.FunctionDef) and not member.name.startswith("_"):
                    yield f"{node.name}.{member.name}", member.name, member


def _references(node):
    """How often each name is referred to under node: as a name, an
    attribute or an import."""
    names = collections.Counter()
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name):
            names[sub.id] += 1
        elif isinstance(sub, ast.Attribute):
            names[sub.attr] += 1
        elif isinstance(sub, ast.ImportFrom):
            names.update(alias.name for alias in sub.names)
    return names


def test_every_public_name_is_referenced_by_the_package_or_the_benchmark():
    package = sorted((ROOT / "src" / "racelab").glob("*.py"))
    trees = {path: ast.parse(path.read_text(encoding="utf-8"))
             for path in package + sorted((ROOT / "bench").glob("*.py"))}
    everywhere = sum((_references(tree) for tree in trees.values()), collections.Counter())
    unused = {f"{path.stem}.{qualified}" for path in package
              for qualified, name, node in _definitions(trees[path])
              if everywhere[name] == _references(node)[name]}
    assert sorted(unused - EXEMPT) == []
    assert sorted(EXEMPT - unused) == []
