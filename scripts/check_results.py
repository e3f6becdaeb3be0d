"""Check a fresh ``gramer experiment`` output against the committed one.

Usage::

    python scripts/check_results.py FRESH COMMITTED

Compares every ``*.txt`` report byte for byte and every ``results.json``
field by value.  Only host-time fields are skipped, as they differ from
run to run: Fig. 8's report (``fig08.txt``) and its ``mining_seconds`` and
``overheads`` fields, and the run's ``wall_seconds``.  Prints one line per
difference and exits 1 if there is any, 0 otherwise.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

#: Reports and ``results.json`` paths that hold host wall-clock time.
HOST_TIME_REPORTS = {"fig08.txt"}
HOST_TIME_FIELDS = {
    ("wall_seconds",),
    ("fig08", "mining_seconds"),
    ("fig08", "overheads"),
}


def json_differences(fresh, committed, path=()) -> list[str]:
    """Paths (``a.b.c``) where two decoded JSON values differ."""
    label = ".".join(path) or "<root>"
    if isinstance(fresh, dict) and isinstance(committed, dict):
        out = []
        for key in sorted(set(fresh) | set(committed)):
            if (*path, key) in HOST_TIME_FIELDS:
                continue
            if key not in fresh or key not in committed:
                side = "fresh" if key not in fresh else "committed"
                out.append(f"{'.'.join((*path, key))}: missing from {side}")
                continue
            out += json_differences(fresh[key], committed[key], (*path, key))
        return out
    if isinstance(fresh, list) and isinstance(committed, list):
        if len(fresh) != len(committed):
            return [f"{label}: {len(fresh)} items vs {len(committed)}"]
        out = []
        for index, (a, b) in enumerate(zip(fresh, committed)):
            out += json_differences(a, b, (*path, str(index)))
        return out
    if fresh != committed or type(fresh) is not type(committed):
        return [f"{label}: {fresh!r} vs {committed!r}"]
    return []


def differences(fresh_dir: Path, committed_dir: Path) -> list[str]:
    """Every difference between two experiment output directories."""
    out = []
    fresh = {p.name for p in fresh_dir.glob("*.txt")}
    committed = {p.name for p in committed_dir.glob("*.txt")}
    for name in sorted(fresh ^ committed):
        side = "fresh" if name not in fresh else "committed"
        out.append(f"{name}: missing from {side}")
    for name in sorted((fresh & committed) - HOST_TIME_REPORTS):
        if (fresh_dir / name).read_bytes() != (committed_dir / name).read_bytes():
            out.append(f"{name}: text differs")
    out += [
        f"results.json {line}"
        for line in json_differences(
            json.loads((fresh_dir / "results.json").read_text("utf-8")),
            json.loads((committed_dir / "results.json").read_text("utf-8")),
        )
    ]
    return out


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("fresh", type=Path)
    parser.add_argument("committed", type=Path)
    args = parser.parse_args(argv)
    found = differences(args.fresh, args.committed)
    for line in found:
        print(line)
    if found:
        print(f"{len(found)} difference(s): {args.fresh} vs {args.committed}")
        return 1
    print(f"{args.fresh} matches {args.committed} (host-time fields skipped)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
