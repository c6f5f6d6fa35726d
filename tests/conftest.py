"""Shared fixtures."""

import pytest

import prframes.frames
import prframes.lifting
import prframes.ratlin
import prframes.subspaces


@pytest.fixture
def span_tests(monkeypatch):
    """Count span membership tests (``off_span`` calls) across prframes.

    The searches in frames, lifting and subspaces and the ranks in ratlin
    all count.  Each of these modules binds ``off_span`` by name, so every
    binding is replaced by one counting wrapper around the original.
    """
    calls = [0]
    inner = prframes.ratlin.off_span

    def counting(normals, vec):
        calls[0] += 1
        return inner(normals, vec)

    for module in (prframes.ratlin, prframes.frames, prframes.lifting, prframes.subspaces):
        monkeypatch.setattr(module, "off_span", counting)
    return calls


@pytest.fixture
def partition_searches(monkeypatch):
    """Record the columns of every partition search (``_partition`` call).

    frames defines the search, and lifting and subspaces bind it by name, so
    every binding is replaced by one recording wrapper around the original.
    """
    searched = []
    inner = prframes.frames._partition

    def recording(cols, t, floor=None):
        searched.append(tuple(cols))
        return inner(cols, t, floor)

    for module in (prframes.frames, prframes.lifting, prframes.subspaces):
        monkeypatch.setattr(module, "_partition", recording)
    return searched
