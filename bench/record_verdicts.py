"""Record the pass-0 verdict digests that run.py compares every run against.

    python3 bench/record_verdicts.py 0-12

A verdict is what an op decided (PR or not, d(F), redundancy, maximality,
certificates, CLI exit codes and reports), never a timing and never which of
several valid failing subsets was found.  Re-record only when a change of
verdicts is intended, and say so in the change.
"""

from __future__ import annotations

import json
import sys

import run


def main(argv) -> int:
    lo, _, hi = argv[0].partition("-")
    seeds = range(int(lo), int(hi or lo) + 1)
    with open(run.VERDICTS) as fh:
        table = json.load(fh)
    for w in run.WORKLOADS:
        for s in seeds:
            _, r = run._worker("run", w, s, "--passes", "1")
            old = table.setdefault(w, {}).get(str(s))
            if old not in (None, r["verdicts"]):
                print(f"{w} seed {s}: {old} -> {r['verdicts']}")
            table[w][str(s)] = r["verdicts"]
    with open(run.VERDICTS, "w") as fh:
        json.dump(table, fh, indent=1, sort_keys=True)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
