#!/usr/bin/env python
"""Regenerate (or verify) the committed golden traces.

Dry run (the default) re-records every golden scenario at the canonical
seed/size and diffs it against the committed JSONL, exiting non-zero on
any difference — the same check ``tests/integration/test_golden_traces``
performs, usable standalone::

    PYTHONPATH=src python tests/golden/regenerate.py

After an *intentional* behavior change (a record gains a field, the
algorithm's trajectory legitimately moves), bless the new traces and
commit the result alongside the change that caused it::

    PYTHONPATH=src python tests/golden/regenerate.py --bless

``--bless`` refuses to overwrite a golden that already has uncommitted
changes: blessing on top of a dirty file silently merges two separate
edits into one opaque blob, and the diff that review depends on is lost.
Commit or revert the dirty golden first, or pass ``--force`` to bless
anyway. Outside a git checkout the guard degrades to allow-all.

Golden diffs are reviewable: each file is deterministic sorted-key JSONL,
so `git diff` shows exactly which rounds and fields moved.
"""

from __future__ import annotations

import argparse
import subprocess
import sys
from pathlib import Path

GOLDEN_DIR = Path(__file__).resolve().parent

#: Scenario name -> committed file. One golden per scenario; the
#: cross-engine tests replay each protocol scenario on BOTH engines
#: against the same file.
GOLDEN_FILES = {
    "mw": "mw.jsonl",
    "fd": "fd.jsonl",
    "loop": "loop.jsonl",
    "trainer": "trainer.jsonl",
    "serving": "serving.jsonl",
    "fd-tree": "fd_tree.jsonl",
    "fd-tree-f32": "fd_tree_f32.jsonl",
    "fd-ring": "fd_ring.jsonl",
}


def dirty_goldens(filenames: list[str]) -> list[str]:
    """The subset of ``filenames`` with uncommitted changes in git.

    Returns ``[]`` when the goldens live outside a git checkout (or git
    itself is unavailable): there is no committed state to protect, so
    the bless guard degrades to allow-all rather than blocking.
    """
    try:
        proc = subprocess.run(
            ["git", "status", "--porcelain", "--", *filenames],
            cwd=GOLDEN_DIR,
            capture_output=True,
            text=True,
            timeout=30,
        )
    except (OSError, subprocess.TimeoutExpired):
        return []
    if proc.returncode != 0:
        return []
    dirty = []
    for line in proc.stdout.splitlines():
        # Porcelain v1: two status columns, a space, then the path
        # (relative to the repo root; compare by basename since every
        # golden lives flat in GOLDEN_DIR).
        path = line[3:].strip().strip('"')
        name = Path(path).name
        if name in filenames:
            dirty.append(name)
    return sorted(dirty)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--bless",
        action="store_true",
        help="overwrite the committed goldens with freshly recorded traces",
    )
    parser.add_argument(
        "--force",
        action="store_true",
        help="bless even goldens that have uncommitted changes",
    )
    args = parser.parse_args(argv)

    if args.bless and not args.force:
        dirty = dirty_goldens(list(GOLDEN_FILES.values()))
        if dirty:
            print(
                "refusing to bless: uncommitted changes in "
                + ", ".join(dirty)
                + "\ncommit or revert them first (or pass --force)",
                file=sys.stderr,
            )
            return 2

    from repro.io import load_trace, save_trace
    from repro.obs import diff_traces
    from repro.obs.scenarios import build_trace

    failures = 0
    for scenario, filename in GOLDEN_FILES.items():
        trace = build_trace(scenario)
        path = GOLDEN_DIR / filename
        if args.bless:
            save_trace(trace, path)
            print(f"blessed {path} ({len(trace.records)} records)")
            continue
        if not path.exists():
            print(f"MISSING {path} — run with --bless to create it")
            failures += 1
            continue
        diff = diff_traces(load_trace(path), trace, include_header=True)
        if diff.empty:
            print(f"ok      {path}")
        else:
            print(f"DIFFERS {path}")
            print(diff.summary())
            failures += 1
    if failures and not args.bless:
        print(
            f"\n{failures} golden trace(s) out of date; regenerate with "
            "--bless if the change is intentional",
            file=sys.stderr,
        )
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
