"""JSON interchange for frames, subspaces and maximality verdicts.

Rationals travel as "p/q" strings (bare integers stay integers); nothing is
ever rendered as floating point, so parse(serialize(x)) round-trips exactly.
Readers check the JSON shape and raise BadInput on anything malformed.
"""

from __future__ import annotations

import json
from fractions import Fraction
from typing import TYPE_CHECKING, List, Optional, Sequence

from .errors import BadInput
from .frames import Frame
from .ratlin import format_rational, parse_rational

if TYPE_CHECKING:
    # hints only, so reading a frame loads neither module
    from .subspaces import MaximalityVerdict, Subspace


def _vec_out(v: Sequence) -> List:
    return [format_rational(x) for x in v]


def _vec_in(v: Sequence) -> List[Fraction]:
    return [parse_rational(x) for x in v]


def frame_to_dict(frame: Frame, meta: Optional[dict] = None) -> dict:
    out = {"n": frame.dim, "vectors": [_vec_out(v) for v in frame.vectors]}
    if meta is not None:
        out["meta"] = meta
    return out


def _field(d, key: str, ok, what: str):
    if not isinstance(d, dict):
        raise BadInput(f"expected a JSON object, got {type(d).__name__}")
    if key not in d:
        raise BadInput(f"missing key {key!r}")
    if not ok(d[key]):
        raise BadInput(f"{key!r} must be {what}")
    return d[key]


def _int_field(d, key: str) -> int:
    return _field(d, key, lambda v: isinstance(v, int) and not isinstance(v, bool), "an integer")


def _rows_field(d, key: str) -> List[List[Fraction]]:
    rows = _field(
        d, key, lambda v: isinstance(v, list) and all(isinstance(r, list) for r in v),
        "a list of lists",
    )
    return [_vec_in(r) for r in rows]


def frame_from_dict(d: dict) -> Frame:
    return Frame.from_vectors(_rows_field(d, "vectors"), dim=_int_field(d, "n"))


def subspace_to_dict(sub: Subspace, meta: Optional[dict] = None) -> dict:
    out = {
        "n": sub.ambient_dim,
        "dim": sub.dim,
        "basis": [_vec_out(row) for row in zip(*sub.basis)],
    }
    if meta is not None:
        out["meta"] = meta
    return out


def subspace_from_dict(d: dict) -> Subspace:
    """The subspace spanned by the columns of ``basis``; a ``dim``, when given, must count them."""
    from .subspaces import Subspace

    n = _int_field(d, "n")
    rows = _rows_field(d, "basis")
    if len(rows) != n or len({len(r) for r in rows}) > 1:
        raise BadInput(f"'basis' must be {n} rows of equal length, one per coordinate")
    k = len(rows[0]) if rows else 0
    if "dim" in d and _int_field(d, "dim") != k:
        raise BadInput(f"'dim' must be {k}, the number of basis columns, got {d['dim']}")
    return Subspace.from_vectors(zip(*rows), ambient_dim=n)


def verdict_to_dict(v: MaximalityVerdict) -> dict:
    out = {"status": v.status}
    if v.reason is not None:
        out["reason"] = v.reason
    if v.witness is not None:
        out["witness"] = subspace_to_dict(v.witness)
    if v.probe_report is not None:
        out["probe_report"] = v.probe_report
    return out


def save_json(obj: dict, path: str) -> None:
    with open(path, "w") as fh:
        json.dump(obj, fh, indent=2, sort_keys=True)
        fh.write("\n")


def load_json(path: str) -> dict:
    """The JSON document in ``path``; nesting too deep for the parser raises BadInput."""
    with open(path) as fh:
        try:
            return json.load(fh)
        except RecursionError:
            raise BadInput(f"{path}: JSON nested too deeply") from None
