"""Shared fixtures."""

import pytest

import prframes.frames
import prframes.lifting
import prframes.ratlin
import prframes.subspaces


@pytest.fixture
def span_tests(monkeypatch):
    """Count span membership tests across prframes, of both kernels.

    ``span_tests[0]`` counts every test, ``span_tests[1]`` the exact ones
    (``off_span``) and ``span_tests[2]`` the residue ones (``off_residue``).
    The searches in frames, lifting and subspaces and the ranks in ratlin
    all count.  Each of these modules binds the tests by name, so every
    binding is replaced by one counting wrapper around the original.
    """
    calls = [0, 0, 0]

    def counting(inner, slot):
        def test(normals, vec):
            calls[0] += 1
            calls[slot] += 1
            return inner(normals, vec)

        return test

    for name, slot in (("off_span", 1), ("off_residue", 2)):
        wrapper = counting(getattr(prframes.ratlin, name), slot)
        for module in (prframes.ratlin, prframes.frames, prframes.lifting, prframes.subspaces):
            if hasattr(module, name):
                monkeypatch.setattr(module, name, wrapper)
    return calls


@pytest.fixture
def partition_searches(monkeypatch):
    """Record the columns of every partition search (``_partition`` call).

    A residue search records its columns as residues, and a search that
    watches columns (``seen``) records only its own columns.  frames defines
    the search and lifting binds it by name, so both bindings are replaced
    by one recording wrapper around the original; subspaces searches
    through ``frames._certified_partition``.
    """
    searched = []
    inner = prframes.frames._partition

    def recording(cols, t, floor=None, kernel=None, seen=None):
        searched.append(tuple(cols))
        return inner(cols, t, floor, kernel, seen)

    for module in (prframes.frames, prframes.lifting):
        monkeypatch.setattr(module, "_partition", recording)
    return searched
