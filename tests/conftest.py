"""Shared fixtures."""

import functools
from fractions import Fraction

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
    """Count span membership tests across prframes in ``span_tests[0]``.

    A membership test is one scan of a span table's rows, up to the first
    row nonzero at the column: a call of ``off_table``, or the same scan
    that the searches in frames make in place, which no call wrapper sees.
    So the steps that make tables (``span_table``, ``extend_table``,
    ``extend_residue``), bound by name in frames and ratlin only, are
    wrapped to return tables whose every iteration counts.  Slicing a
    table gives a plain tuple, so an extension's own reads of its input do
    not count, and ``tuple.index``, with which a search recovers a pivot
    row's position, iterates without ``__iter__``.  The one scan of a table
    that tests nothing, ``ratlin`` reading the normals off ``span_rows``,
    gets the rows as a plain tuple.
    The exact and the residue search ask tests alike; ``span_extensions``
    tells the two apart.
    """
    calls = [0]

    class Counted(tuple):
        def __iter__(self):
            calls[0] += 1
            return tuple.__iter__(self)

    def counting(inner):
        return lambda *args: Counted(inner(*args))

    for name in ("span_table", "extend_table", "extend_residue"):
        wrapper = counting(getattr(prframes.ratlin, name))
        for module in (prframes.ratlin, prframes.frames):
            if hasattr(module, name):
                monkeypatch.setattr(module, name, wrapper)
    inner_rows = prframes.ratlin.span_rows

    def span_rows(*args):
        rows, free = inner_rows(*args)
        return rows[:], free

    monkeypatch.setattr(prframes.ratlin, "span_rows", span_rows)
    return calls


@pytest.fixture
def minors(monkeypatch):
    """Count the minors ``ratlin.full_spark_residue`` evaluates, in ``minors[0]``.

    The certificate evaluates the minors on one column set by one pass over
    the Laplace terms of their size, one minor per term.  So
    ``_laplace_terms``, bound by name in ratlin only, is wrapped to return
    terms whose every pass adds their number.
    """
    calls = [0]

    class Counted(tuple):
        def __iter__(self):
            calls[0] += len(self)
            return tuple.__iter__(self)

    inner = prframes.ratlin._laplace_terms
    monkeypatch.setattr(prframes.ratlin, "_laplace_terms", lambda n, k: Counted(inner(n, k)))
    return calls


@pytest.fixture
def fractions_made(monkeypatch):
    """Count calls of ``Fraction.__new__`` in ``fractions_made[0]``.

    Every ``Fraction(...)`` call counts, wherever it is made.  (Results of
    Fraction arithmetic count too on Python versions whose operators build
    them through ``__new__``; they need a Fraction operand, made first.)
    """
    calls = [0]
    inner = Fraction.__new__

    def new(cls, *args, **kwargs):
        calls[0] += 1
        return inner(cls, *args, **kwargs)

    monkeypatch.setattr(Fraction, "__new__", staticmethod(new))
    return calls


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

    def recording(cols, least=False, kernel=None, seen=None):
        searched.append(tuple(cols))
        return inner(cols, least, kernel, seen)

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
