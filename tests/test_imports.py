"""Unused-import, function-local-import, stdlib-import, import-order,
unread-private-definition, unchecked-constructor and recursive-closure
checks for the library modules, written on the stdlib `ast`, and one check,
in a fresh interpreter, of what `import posetcones` loads."""

import ast
import subprocess
import sys
from pathlib import Path

import posetcones

PACKAGE = Path(posetcones.__file__).resolve().parent
MODULES = sorted(p for p in PACKAGE.glob("*.py") if p.name != "__init__.py")
SOURCES = {p.name: p.read_text() for p in sorted(PACKAGE.glob("*.py"))}


def unused_imports(source):
    """(line, name) for each imported name that the module never reads.

    A name counts as read when it appears as a bare name anywhere in the
    module, including inside functions and annotations.  `__future__`
    imports and star imports are skipped.
    """
    tree = ast.parse(source)
    bound = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                bound.append((node.lineno, alias.asname or alias.name.split(".")[0]))
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                if alias.name != "*":
                    bound.append((node.lineno, alias.asname or alias.name))
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [(line, name) for line, name in bound if name not in read]


def local_sibling_imports(source):
    """(line, module) for each relative import inside a function or class
    body.  The library imports its sibling modules once, at the top of each
    module, so the import order stays one visible acyclic graph."""
    tree = ast.parse(source)
    scopes = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
    return sorted({
        (node.lineno, "." * node.level + (node.module or ""))
        for scope in ast.walk(tree) if isinstance(scope, scopes)
        for node in ast.walk(scope)
        if isinstance(node, ast.ImportFrom) and node.level
    })


# the only standard-library modules the library imports; each one is paid
# for by every `import posetcones`, so a new one must be added here on purpose
STDLIB_IMPORTS = ["__future__", "argparse", "collections", "itertools", "math",
                  "random", "sys"]


def stdlib_imports(sources):
    """Top-level names of the absolute imports across `sources`, which
    maps module file names to their text; relative imports are skipped."""
    found = set()
    for text in sources.values():
        for node in ast.walk(ast.parse(text)):
            if isinstance(node, ast.Import):
                found.update(alias.name.split(".")[0] for alias in node.names)
            elif isinstance(node, ast.ImportFrom) and not node.level:
                found.add(node.module.split(".")[0])
    return sorted(found)


# the one order of the library modules: each imports only modules before it
ORDER = ["errors", "polynomials", "posets", "partitions", "bijections", "foata",
         "genfun", "whitney", "cli"]


def sibling_imports(source):
    """The sibling modules a module imports relatively, by name:
    `from .x import y` names x, and `from . import x, y` names x and y."""
    found = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.ImportFrom) and node.level:
            if node.module:
                found.add(node.module.split(".")[0])
            else:
                found.update(alias.name for alias in node.names)
    return found


def imports_against_order(sources):
    """(module, sibling) for each relative import of a module that does not
    come before the importer in ORDER.  `sources` maps file names to text;
    `__init__` and `__main__` sit outside the order."""
    return sorted(
        (name[:-3], sib)
        for name, text in sources.items() if name[:-3] in ORDER
        for sib in sibling_imports(text)
        if sib not in ORDER or ORDER.index(sib) >= ORDER.index(name[:-3])
    )


def unread_private_definitions(sources):
    """(module, name) for each module-level `def _x` / `class _X` that no
    module reads as a bare name, an attribute or an imported name.

    `sources` maps module file names to their text.
    """
    trees = {name: ast.parse(text) for name, text in sources.items()}
    read = set()
    for tree in trees.values():
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                read.add(node.id)
            elif isinstance(node, ast.Attribute):
                read.add(node.attr)
            elif isinstance(node, ast.ImportFrom):
                read.update(alias.name for alias in node.names)
    return [
        (name, node.name)
        for name, tree in trees.items()
        for node in tree.body
        if isinstance(node, (ast.FunctionDef, ast.ClassDef))
        and node.name.startswith("_") and not node.name.startswith("__")
        and node.name not in read
    ]


# the only functions that may build without validation; a new caller of
# `_built` must be added here on purpose
BUILT_CALLERS = [("bijections.py", "omega"), ("bijections.py", "psi"),
                 ("bijections.py", "transverse_permutations"),
                 ("foata.py", "foata_phi"), ("foata.py", "multiset_encode"),
                 ("foata.py", "prime_decompose"), ("partitions.py", "enumerate_transverse")]


def built_readers(sources):
    """(module, qualified scope) for each read of a `_built` constructor,
    as an attribute or a bare name; module-level code has scope ''.

    `sources` maps module file names to their text.
    """
    found = set()

    def visit(node, scope, name):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            scope = f"{scope}.{node.name}" if scope else node.name
        elif (isinstance(node, ast.Attribute) and node.attr == "_built"
              or isinstance(node, ast.Name) and node.id == "_built"):
            found.add((name, scope))
        for child in ast.iter_child_nodes(node):
            visit(child, scope, name)

    for name, text in sources.items():
        visit(ast.parse(text), "", name)
    return sorted(found)


def test_modules_are_found():
    names = {p.name for p in MODULES}
    assert {"whitney.py", "partitions.py", "cli.py"} <= names
    assert "__init__.py" not in names


def test_no_unused_imports_in_library_modules():
    found = {p.name: unused_imports(p.read_text()) for p in MODULES}
    assert {name: hits for name, hits in found.items() if hits} == {}


def test_planted_unused_import_is_flagged():
    # negative control: the same check on a real module with one import added
    source = (PACKAGE / "whitney.py").read_text()
    assert unused_imports(source) == []
    planted = "import os\n" + source
    assert unused_imports(planted) == [(1, "os")]
    planted = source + "\nfrom .posets import antichain as _unused  # noqa: F401\n"
    assert [name for _, name in unused_imports(planted)] == ["_unused"]


def test_used_and_future_imports_are_not_flagged():
    source = (
        "from __future__ import annotations\n"
        "import os.path\n"
        "from math import comb as c\n"
        "def f(x: c) -> None:\n"
        "    from .posets import chain\n"
        "    return os.path.join(chain)\n"
    )
    assert unused_imports(source) == []


def test_no_sibling_import_inside_a_function():
    found = {name: local_sibling_imports(text) for name, text in SOURCES.items()}
    assert {name: hits for name, hits in found.items() if hits} == {}


def test_planted_local_sibling_import_is_flagged():
    # negative control: local relative imports are flagged, once each even
    # when nested; top-level and local absolute imports are not
    source = (PACKAGE / "whitney.py").read_text()
    assert local_sibling_imports(source) == []
    top = source.count("\n")
    planted = source + (
        "\nfrom .posets import chain\n"
        "def _late():\n"
        "    import os\n"
        "    def inner():\n"
        "        from .posets import antichain\n"
        "    from . import foata\n"
        "class _Late:\n"
        "    from .genfun import tmmt_rhs\n"
    )
    assert local_sibling_imports(planted) == [
        (top + 6, ".posets"), (top + 7, "."), (top + 9, ".genfun")]


def test_only_the_listed_stdlib_modules_are_imported():
    assert stdlib_imports(SOURCES) == STDLIB_IMPORTS


def test_planted_stdlib_import_is_flagged():
    # negative control: a new module at the top, a dotted one inside a
    # function, and a relative import, which is no stdlib module
    planted = dict(SOURCES)
    planted["posets.py"] = "import dataclasses\n" + SOURCES["posets.py"]
    planted["foata.py"] += "\ndef _late():\n    from os.path import join\n"
    planted["cli.py"] += "\nfrom .whitney import poincare\n"
    assert stdlib_imports(planted) == sorted(STDLIB_IMPORTS + ["dataclasses", "os"])


def test_modules_import_in_one_order():
    assert sorted(ORDER) == sorted(p.name[:-3] for p in MODULES if p.name != "__main__.py")
    assert imports_against_order(SOURCES) == []
    assert sibling_imports(SOURCES["genfun.py"]) == {"errors", "polynomials"}


def test_planted_import_against_the_order_is_flagged():
    # negative control: the series module reaching forward to a route, and
    # a module importing itself or an unknown sibling
    planted = dict(SOURCES)
    planted["genfun.py"] += "\nfrom .whitney import poincare\n"
    planted["posets.py"] += "\nfrom . import posets, scratch\n"
    assert imports_against_order(planted) == [
        ("genfun", "whitney"), ("posets", "posets"), ("posets", "scratch")]
    assert "whitney" in sibling_imports(planted["genfun.py"])


def test_every_private_definition_is_read():
    assert unread_private_definitions(SOURCES) == []


def test_planted_unread_private_definition_is_flagged():
    # negative control: an unread helper, then the same helper read three ways
    planted = dict(SOURCES)
    planted["whitney.py"] += "\n\ndef _unused(P):\n    return P\n"
    assert unread_private_definitions(planted) == [("whitney.py", "_unused")]
    for reader in ("_unused(None)", "whitney._unused", "from .whitney import _unused"):
        planted["cli.py"] = SOURCES["cli.py"] + "\n" + reader + "\n"
        assert unread_private_definitions(planted) == [], reader


def test_only_the_hot_paths_build_without_validation():
    assert built_readers(SOURCES) == BUILT_CALLERS


def test_planted_unchecked_build_is_flagged():
    # negative control: a parser, a module-level alias and a method that
    # reach `_built` are each flagged with their scope
    planted = dict(SOURCES)
    planted["partitions.py"] += (
        "\n\ndef parse_quickly(text):\n"
        "    return SetPartition._built(1, [(1,)])\n"
    )
    planted["cli.py"] += "\nquick = Permutation._built\n"
    planted["foata.py"] += (
        "\n\nclass Quick:\n"
        "    def make(self):\n"
        "        return _built((1,))\n"
    )
    assert built_readers(planted) == sorted(BUILT_CALLERS + [
        ("cli.py", ""), ("foata.py", "Quick.make"), ("partitions.py", "parse_quickly")])


# the only nested functions that call themselves; a memo walk written as a
# recursive closure holds its memo in a reference cycle and is bounded by
# the recursion limit, so a new one must be added here on purpose
RECURSIVE_CLOSURES = [("partitions.py", "transverse_poly_coeffs.rec"),
                      ("posets.py", "_matching_chain_cover.try_augment")]


def recursive_closures(sources):
    """(module, qualified name) for each function defined inside another
    function that reads its own name.

    `sources` maps module file names to their text.
    """
    found = set()
    functions = (ast.FunctionDef, ast.AsyncFunctionDef)

    def visit(node, scope, nested, name):
        if isinstance(node, (*functions, ast.ClassDef)):
            scope = f"{scope}.{node.name}" if scope else node.name
            if nested and isinstance(node, functions) and any(
                    isinstance(sub, ast.Name) and sub.id == node.name
                    for sub in ast.walk(node)):
                found.add((name, scope))
            nested = nested or isinstance(node, functions)
        for child in ast.iter_child_nodes(node):
            visit(child, scope, nested, name)

    for name, text in sources.items():
        visit(ast.parse(text), "", False, name)
    return sorted(found)


def test_only_the_listed_closures_recurse():
    assert recursive_closures(SOURCES) == RECURSIVE_CLOSURES


def test_planted_recursive_closure_is_flagged():
    # negative control: a memo walk written as a recursive closure, and a
    # method and a module-level function that call themselves, which are
    # not closures
    planted = dict(SOURCES)
    planted["posets.py"] += (
        "\n\ndef count_ideals(P):\n"
        "    memo = {}\n"
        "    def rec(placed):\n"
        "        if placed not in memo:\n"
        "            memo[placed] = 1 + sum(rec(placed | 1 << v) for v in range(P.n))\n"
        "        return memo[placed]\n"
        "    return rec(0)\n"
        "\n\nclass Walk:\n"
        "    def go(self, k):\n"
        "        return go(k - 1) if k else 0\n"
        "\n\ndef again(k):\n"
        "    return again(k - 1) if k else 0\n"
    )
    assert recursive_closures(planted) == sorted(
        RECURSIVE_CLOSURES + [("posets.py", "count_ideals.rec")])


def _loads_random(module):
    """Whether importing `module` from the package's source tree, in an
    interpreter started with -S (so `site` loads nothing first), puts
    `random` in sys.modules."""
    code = (f"import sys; sys.path.insert(0, {str(PACKAGE.parent)!r}); "
            f"import {module}; print('random' in sys.modules)")
    proc = subprocess.run([sys.executable, "-S", "-c", code],
                          capture_output=True, text=True, timeout=60, check=True)
    return proc.stdout == "True\n"


def test_import_posetcones_leaves_random_unloaded():
    # `random` is the CLI's, for selfcheck's draws; the library takes an rng
    # from its caller.  Negative control: importing the CLI does load it
    assert not _loads_random("posetcones")
    assert _loads_random("posetcones.cli")
