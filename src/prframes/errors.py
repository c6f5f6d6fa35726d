"""Exception types shared across the toolkit."""


class PRFramesError(Exception):
    """Base class for all toolkit errors."""


class NotAFrame(PRFramesError):
    """The given vectors do not span their ambient space (or N < n)."""


class OutOfRange(PRFramesError):
    """A parameter violates the admissible range of a generator."""


class CapExceeded(PRFramesError):
    """An exhaustive enumeration would exceed its configured ceiling."""


class RetriesExhausted(PRFramesError):
    """Sample-verify-retry gave up; signals a pathological seed or range."""


class PatternViolation(PRFramesError):
    """A pattern matrix fails one of its structural checks."""

    def __init__(self, prop: str, detail: str = ""):
        self.prop = prop
        super().__init__(f"pattern violates {prop}" + (f": {detail}" if detail else ""))


class NotABasis(PRFramesError):
    """The operation requires a basis (N = n, invertible column matrix)."""


class NotPRSubspace(PRFramesError):
    """The subspace is not phase-retrievable w.r.t. the given frame."""


class SupportTooLarge(PRFramesError):
    """The support size exceeds [(n+1)/2], so no maximal PR subspace exists."""


class BadInput(PRFramesError):
    """Malformed input, or arguments that do not fit together.

    Covers input read from outside the program (a JSON file, a CLI value)
    and calls whose arguments are each well formed but mismatched, such as
    a subspace of R^m checked against a frame for R^n.
    """
