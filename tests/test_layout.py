"""Module layout: only ``ratlin`` and ``frames`` know the span-table format, and Fractions are made at the boundary."""

import ast
from pathlib import Path

import prframes

# the table step's names: a module that binds one walks span tables
TABLE_NAMES = {"off_table", "extend_table", "extend_residue", "span_table", "span_rows", "Kernel"}


def _bound_names(path):
    """Names a module defines, assigns or imports, at any depth."""
    names = set()
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, (ast.ImportFrom, ast.Import)):
            names.update(alias.asname or alias.name.split(".")[0] for alias in node.names)
        elif isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            names.add(node.name)
        elif isinstance(node, ast.Name) and isinstance(node.ctx, ast.Store):
            names.add(node.id)
    return names


def test_only_ratlin_and_frames_bind_table_steps():
    src = Path(prframes.__file__).parent
    binders = {path.stem for path in src.glob("*.py") if _bound_names(path) & TABLE_NAMES}
    assert binders == {"ratlin", "frames"}


def test_construct_builds_integer_rows():
    # the generators hand Frame integer rows; Fractions appear only when read
    tree = ast.parse((Path(prframes.__file__).parent / "construct.py").read_text())
    imported = {
        alias.name if isinstance(node, ast.Import) else node.module
        for node in ast.walk(tree)
        if isinstance(node, (ast.Import, ast.ImportFrom))
        for alias in node.names
    }
    assert "fractions" not in imported


# where a Fraction may be made outside the modules that read and write input
FRACTION_BOUNDARY = {
    "subspaces.project_frame",
    "lifting.S2Witness.quad",
    "lifting._witness",
    "lifting.pr_redundancy",
    "curated.r3_example_witnesses",
}


def _makes_fraction(node):
    # a call of Fraction, or Fraction handed to a call, as in map(Fraction, row)
    return isinstance(node, ast.Call) and any(
        isinstance(f, (ast.Name, ast.Attribute)) and "Fraction" in _referenced_names(f)
        for f in (node.func, *node.args)
    )


def _statements_with(tree, found, prefix=""):
    """Qualified names of the functions and methods whose bodies hold a node that ``found`` accepts.

    A node inside a nested function counts for the function that encloses
    it, and one in a top-level statement for ``<statement>``.
    """
    for stmt in tree.body:
        if isinstance(stmt, ast.ClassDef):
            yield from _statements_with(stmt, found, f"{stmt.name}.")
        elif any(map(found, ast.walk(stmt))):
            yield prefix + getattr(stmt, "name", "<statement>")


def test_fractions_are_made_only_at_the_boundary():
    # ratlin reads and solves over the rationals, and frameio and cli read
    # and write them; anywhere else a Fraction is made only where a result is one
    src = Path(prframes.__file__).parent
    makers = {
        f"{path.stem}.{name}"
        for path in src.glob("*.py")
        if path.stem not in {"ratlin", "frameio", "cli"}
        for name in _statements_with(ast.parse(path.read_text()), _makes_fraction)
    }
    assert makers <= FRACTION_BOUNDARY, makers - FRACTION_BOUNDARY


def _callers(name):
    """Qualified names of the package's functions and methods that call ``name``."""
    src = Path(prframes.__file__).parent

    def calls(node):
        return isinstance(node, ast.Call) and name in _referenced_names(node.func)

    return {
        f"{path.stem}.{caller}"
        for path in src.glob("*.py")
        for caller in _statements_with(ast.parse(path.read_text()), calls)
    }


def test_only_the_searches_read_the_full_spark_certificate():
    # each search reads the minors mod p in front of itself, so no caller
    # pairs the certificate with a search by hand
    assert _callers("full_spark_residue") == {"frames._partition", "frames._spark"}


def test_only_searches_whose_partition_is_not_read_take_the_support_order():
    # the CP proof's residue search is read only for None, and d(F) only
    # for the rank; a search whose partition is reported keeps the given
    # order, since its class A is a set of indices into it
    assert _callers("_support_order") == {"frames._certified_partition", "frames.Frame._d"}


def _referenced_names(tree):
    """Names a tree reads: each ``ast.Name``, ``ast.Attribute`` attribute and imported name."""
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
        elif isinstance(node, ast.ImportFrom):
            names.update(alias.name for alias in node.names)
    return names


def test_every_private_helper_has_a_caller():
    # a module-level function or class outside __all__ is read somewhere in the
    # package, outside its own definition; strings and docstrings do not count
    statements = [
        (path.stem, stmt)
        for path in sorted(Path(prframes.__file__).parent.glob("*.py"))
        for stmt in ast.parse(path.read_text()).body
    ]
    refs = [(stmt, _referenced_names(stmt)) for _, stmt in statements]
    dead = [
        f"{module}.{stmt.name}"
        for module, stmt in statements
        if isinstance(stmt, (ast.FunctionDef, ast.ClassDef))
        and stmt.name not in prframes.__all__
        and not (stmt.name.startswith("__") and stmt.name.endswith("__"))
        and not any(stmt.name in names for other, names in refs if other is not stmt)
    ]
    assert dead == []
