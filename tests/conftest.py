"""Shared fixtures."""

import pytest

import prframes.frames
import prframes.ratlin


@pytest.fixture
def echelon_calls(monkeypatch):
    """Count echelon steps taken in prframes.frames and prframes.ratlin.

    The searches in frames and the rank and row reductions in ratlin both
    count.  Both modules bind ``echelon_reduce`` by name, so both bindings are
    replaced by one counting wrapper around the original.
    """
    calls = [0]
    inner = prframes.ratlin.echelon_reduce

    def counting(basis, vec):
        calls[0] += 1
        return inner(basis, vec)

    monkeypatch.setattr(prframes.ratlin, "echelon_reduce", counting)
    monkeypatch.setattr(prframes.frames, "echelon_reduce", counting)
    return calls
