"""Golden report digests: every preset through every subcommand.

``tests/golden/presets.json`` holds the sha256 of the bytes ``cli.main``
writes for each (preset, subcommand) in JSON form, and of the ``--format
text`` report of each ``nccr`` run.  A refactor that keeps the reports
identical keeps every digest; the test names each pair that moved.

Regenerate only for a change meant to alter the reports:

    PYTHONPATH=src python tests/test_golden.py
"""

from __future__ import annotations

import hashlib
import json
import sys
import tempfile
from pathlib import Path

from sodlab.cli import main
from sodlab.report import SUBCOMMANDS

GOLDEN = Path(__file__).resolve().parent / "golden" / "presets.json"

PRESETS = ("pfaffian:n=1,h=3", "pfaffian:n=1,h=4",
           "pfaffian:n=2,h=5", "pfaffian:n=2,h=6",
           "determinantal:n=1,h=2", "determinantal:n=2,h=3",
           "sl2:3", "sl2:1,2", "toric", "toric:1,1,-1,-1", "toric:1,1")

RUNS = tuple((preset, sub, "json") for preset in PRESETS for sub in SUBCOMMANDS) \
    + tuple((preset, "nccr", "text") for preset in PRESETS)


def digests() -> dict[str, str]:
    """Digest of each run's report, keyed ``preset|subcommand|format``.  The
    exit code is part of the key's value, so a run that starts failing its
    precondition shows even if the report bytes were to agree."""
    out: dict[str, str] = {}
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "report"
        for preset, sub, fmt in RUNS:
            code = main([sub, "--preset", preset, "--format", fmt,
                         "--out", str(path)])
            digest = hashlib.sha256(path.read_bytes()).hexdigest()
            out[f"{preset}|{sub}|{fmt}"] = f"{code}:{digest}"
            path.unlink()
    return out


def test_reports_match_golden_digests():
    expected = json.loads(GOLDEN.read_text())
    actual = digests()
    assert sorted(actual) == sorted(expected), "golden run list changed"
    exits = [key for key in expected
             if actual[key].split(":")[0] != expected[key].split(":")[0]]
    assert not exits, f"exit codes changed for: {', '.join(exits)}"
    moved = [key for key in expected if actual[key] != expected[key]]
    assert not moved, f"reports changed for: {', '.join(moved)}"


if __name__ == "__main__":
    GOLDEN.parent.mkdir(exist_ok=True)
    GOLDEN.write_text(json.dumps(digests(), indent=1, sort_keys=True) + "\n")
    sys.stdout.write(f"wrote {GOLDEN}\n")
