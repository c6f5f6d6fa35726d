"""Span tracer that wraps prframes entry points from outside the library.

Every traced function is replaced at each binding site (the defining module,
each module that imported it by name, the package namespace, and the owning
class for methods), so a call is recorded whichever name the caller used.
Spans live in flat arrays while the run is going and are written out once at
the end.
"""

from __future__ import annotations

import functools
import json
import sys
import time
from array import array
from typing import Dict, List, Sequence, Tuple

PACKAGE = "prframes"

# Public entry points of each module, plus the private helpers the partition
# and matching searches run through.  Keys are module names inside PACKAGE.
TRACED: Dict[str, Tuple[str, ...]] = {
    "ratlin": ("int_rank", "int_nullspace", "rank", "nullspace"),
    "frames": ("has_complement_property", "is_exact_pr_frame", "spark", "_cp_failing_partition"),
    "lifting": ("find_s2_element", "find_s2_witness", "has_exact_pr_redundancy", "pr_redundancy"),
    "construct": (
        "plan",
        "build_pattern",
        "instantiate",
        "generate_exact_pr",
        "generate_with_dmax",
        "basis_with_maximal_subspace",
        "PatternMatrix._has_sdr",
        "PatternMatrix.sdr_for_row",
    ),
    "subspaces": (
        "d_max",
        "is_pr_subspace",
        "random_pr_subspace",
        "min_support",
        "is_maximal_pr_subspace",
        "extend_to_maximal",
        "_partition_within",
    ),
    "frameio": (
        "load_json",
        "save_json",
        "frame_from_dict",
        "frame_to_dict",
        "subspace_from_dict",
        "subspace_to_dict",
    ),
    "cli": ("main",),
}

NAMES: List[str] = [f"{mod}.{qual}" for mod, quals in TRACED.items() for qual in quals]


class TraceError(RuntimeError):
    """The tracer could not cover every binding site of a traced function."""


def _package_modules():
    return [
        m
        for name, m in sorted(sys.modules.items())
        if m is not None and (name == PACKAGE or name.startswith(PACKAGE + "."))
    ]


def _namespaces(modules):
    """(mapping, assign) for module dicts, package classes and module-level dicts."""
    seen = set()
    for m in modules:
        found = [(vars(m), vars(m).__setitem__)]
        for v in vars(m).values():
            if isinstance(v, type) and v.__module__.startswith(PACKAGE):
                found.append((vars(v), functools.partial(setattr, v)))
            elif isinstance(v, dict):
                found.append((v, v.__setitem__))
        for ns, assign in found:
            if id(ns) not in seen:
                seen.add(id(ns))
                yield ns, assign


class Tracer:
    """Records one span per call of each traced function.

    A span holds the function, start, end, the enclosing span and the id of
    the benchmark op it ran under.  Self time is the span's duration minus
    the durations of its direct child spans.
    """

    def __init__(self) -> None:
        self.op = -1
        self.absent: List[str] = []
        self._patches: List[Tuple[object, str, object]] = []
        self._originals: Dict[int, object] = {}
        self._stack: List[int] = []
        self.name = array("i")
        self.parent = array("i")
        self.op_id = array("i")
        self.start = array("d")
        self.end = array("d")
        self.child = array("d")

    def _wrap(self, idx: int, fn):
        names, parents, ops = self.name, self.parent, self.op_id
        starts, ends, child, stack = self.start, self.end, self.child, self._stack
        clock = time.perf_counter
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            sid = len(names)
            names.append(idx)
            parents.append(stack[-1] if stack else -1)
            ops.append(tracer.op)
            child.append(0.0)
            ends.append(0.0)
            stack.append(sid)
            t0 = clock()
            starts.append(t0)
            try:
                return fn(*args, **kwargs)
            finally:
                t1 = clock()
                stack.pop()
                ends[sid] = t1
                if stack:
                    child[stack[-1]] += t1 - t0

        return traced

    def install(self) -> None:
        """Wrap every traced function at every binding site, then self-check."""
        modules = _package_modules()
        for idx, key in enumerate(NAMES):
            modname, qual = key.split(".", 1)
            owner = sys.modules.get(f"{PACKAGE}.{modname}")
            *path, attr = qual.split(".")
            for part in path:
                owner = getattr(owner, part, None)
            original = getattr(owner, attr, None) if owner is not None else None
            if not callable(original):
                # removed or renamed by a later commit: report, do not crash
                self.absent.append(key)
                continue
            self._originals[id(original)] = original
            wrapped = self._wrap(idx, original)
            for ns, assign in _namespaces(modules):
                for name, value in list(ns.items()):
                    if value is original:
                        self._patches.append((assign, name, original))
                        assign(name, wrapped)
        self.self_check()

    def self_check(self) -> None:
        """No package namespace may still hold an unwrapped original."""
        left = [
            name
            for ns, _ in _namespaces(_package_modules())
            for name, value in ns.items()
            if id(value) in self._originals and self._originals[id(value)] is value
        ]
        if left:
            raise TraceError(f"unwrapped originals still bound: {sorted(left)}")

    def uninstall(self) -> None:
        for assign, name, original in reversed(self._patches):
            assign(name, original)
        self._patches.clear()

    def totals(self, op_scale: Sequence[float]) -> Dict[str, Tuple[int, float]]:
        """(calls, self seconds) per traced name; absent names read (0, 0.0).

        Self time is multiplied by the scale factor of the op it ran under.
        """
        calls = [0] * len(NAMES)
        self_s = [0.0] * len(NAMES)
        for k, t0, t1, c, op in zip(self.name, self.start, self.end, self.child, self.op_id):
            calls[k] += 1
            self_s[k] += ((t1 - t0) - c) * op_scale[op]
        return {key: (calls[i], self_s[i]) for i, key in enumerate(NAMES)}

    def write(self, path: str, origin: float) -> None:
        """Dump all spans, times in seconds from ``origin``, column-wise."""
        with open(path, "w") as fh:
            json.dump(
                {
                    "names": NAMES,
                    "absent": self.absent,
                    "name": list(self.name),
                    "start": [round(t - origin, 7) for t in self.start],
                    "end": [round(t - origin, 7) for t in self.end],
                    "parent": list(self.parent),
                    "op": list(self.op_id),
                },
                fh,
            )
