"""Module layout: only ``ratlin`` and ``frames`` know the span-table format."""

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
