"""Shared fixtures."""

import functools

import pytest

import prframes.frames
import prframes.lifting
import prframes.ratlin


def _count_steps(monkeypatch, *names):
    """Count the calls of ``ratlin`` steps as [all, first name, second name, ...].

    The searches in frames and the ranks in ratlin all count.  Both
    modules bind the steps by name (no other does, see test_layout.py), so
    each binding is replaced by one counting wrapper around the original.
    """
    calls = [0] * (len(names) + 1)

    def counting(inner, slot):
        def step(*args):
            calls[0] += 1
            calls[slot] += 1
            return inner(*args)

        return step

    for slot, name in enumerate(names, 1):
        wrapper = counting(getattr(prframes.ratlin, name), slot)
        for module in (prframes.ratlin, prframes.frames):
            if hasattr(module, name):
                monkeypatch.setattr(module, name, wrapper)
    return calls


@pytest.fixture
def span_tests(monkeypatch):
    """Count span membership tests (``off_table``) across prframes in ``span_tests[0]``.

    The exact and the residue search ask them alike; ``span_extensions``
    tells the two apart.
    """
    return _count_steps(monkeypatch, "off_table")


@pytest.fixture
def span_extensions(monkeypatch):
    """Count span extensions across prframes, of both steps.

    ``span_extensions[0]`` counts every extension, ``[1]`` the exact ones
    (``extend_table``) and ``[2]`` the residue ones (``extend_residue``).
    """
    return _count_steps(monkeypatch, "extend_table", "extend_residue")


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


@pytest.fixture
def record_calls(monkeypatch):
    """Replace ``module.name`` by a recorder and return the list of its calls' arguments.

    ``record_calls(module, name)`` passes each call on to the original;
    ``record_calls(module, name, value)`` returns ``value`` instead, so a
    check can be made to fail every time.  A ``cached_property`` of a class
    (``record_calls(Frame, "_d")``) is replaced by a property that records
    each read, its instance as the one argument.
    """

    def install(module, name, *value):
        calls = []
        inner = getattr(module, name)

        def recorder(*args, **kwargs):
            calls.append(args)
            return value[0] if value else inner(*args, **kwargs)

        if isinstance(inner, functools.cached_property):
            inner, recorder = inner.func, property(recorder)
        monkeypatch.setattr(module, name, recorder)
        return calls

    return install
