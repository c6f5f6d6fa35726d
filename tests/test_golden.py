"""Byte-identical CLI output for fixed seeds, against the recorded transcript.

``tests/golden/record.py`` lists the commands and re-records the file; see
its docstring for when that is allowed.
"""

import json

import pytest

from golden.record import GOLDEN, transcript


@pytest.fixture(scope="module")
def replayed():
    return transcript()


def test_transcript_matches_recording(replayed):
    recorded = json.loads(GOLDEN.read_text())
    assert len(replayed) == len(recorded)
    for got, want in zip(replayed, recorded):
        assert got == want


def test_transcript_covers_every_command_and_demo(replayed):
    argvs = [e["argv"] for e in replayed if "argv" in e]
    kinds = {a[a.index("--kind") + 1] for a in argvs if a[0] == "gen"}
    actions = {a[a.index("--action") + 1] for a in argvs if a[0] == "subspace"}
    assert kinds == {"exact", "dmax", "basis-subspace"}
    assert actions == {"random", "check", "maximal", "extend"}
    assert {"verify", "analyze", "paper-suite"} <= {a[0] for a in argvs}
    assert len([e for e in replayed if "demo" in e]) == 5
    # every command succeeded or failed on purpose; none hid a traceback
    assert all("Traceback" not in e.get("stderr", "") for e in replayed)
