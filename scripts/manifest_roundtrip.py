"""CI gate: the seal -> tamper -> verify -> recover manifest round-trip.

Drives the full distributed-sweep + manifest story end-to-end through
the real CLI (docs/resilience.md §5):

1. ``gramer sweep --jobs 2 --ledger --seal`` shards a tiny grid over two
   claim/lease worker processes and seals a Merkle manifest over the
   artifacts;
2. ``gramer manifest verify`` passes on the intact grid;
3. one byte of one cached artifact is flipped in place — verify must
   fail, name the *exact* spec digest, and quarantine the entry;
4. the victim cell is recomputed and verify passes again against the
   same sealed root (the fingerprint layer absorbs the fresh envelope).

Exits nonzero at the first stage that misbehaves.  The manifest (and
the tamper report) land in ``--out`` for CI artifact upload.
"""

import argparse
import os
import sys
from pathlib import Path

APPS = ["3-CF"]
DATASETS = ["citeseer", "p2p"]
BACKENDS = ["gramer", "fractal"]


def _grid_flags():
    return [
        "--apps", *APPS,
        "--datasets", *DATASETS,
        "--backends", *BACKENDS,
        "--scale", "tiny",
    ]


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--out", default="manifest-roundtrip",
        help="output directory for ledger, manifest, and report",
    )
    args = parser.parse_args(argv)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    # Hermetic cache root: worker subprocesses inherit it, and the
    # deliberate corruption below never touches a developer's real cache.
    os.environ.setdefault("GRAMER_CACHE_DIR", str(out / "cache"))

    from repro.cli import main as cli
    from repro.experiments.harness import cell_jobspec
    from repro.runtime import (
        JOB_KIND,
        default_cache,
        load_manifest,
        run_spec,
        spec_digest,
        verify_manifest,
    )

    ledger = out / "run.jsonl"
    manifest_path = out / "run.manifest.json"

    print("== stage 1: distributed sweep + seal ==")
    cli([
        "sweep", *_grid_flags(),
        "--jobs", "2",
        "--ledger", str(ledger),
        "--seal", str(manifest_path),
    ])

    print("== stage 2: verify the intact grid ==")
    cli(["manifest", "verify", str(manifest_path), *_grid_flags()])

    print("== stage 3: tamper with one artifact ==")
    victim = cell_jobspec("gramer", "3-CF", "citeseer", "tiny")
    cache = default_cache()
    entry = cache.entry_path(JOB_KIND, victim.cache_key())
    data = bytearray(entry.read_bytes())
    data[len(data) // 2] ^= 0xFF
    entry.write_bytes(bytes(data))
    cache.evict_memory(JOB_KIND, victim.cache_key())

    report = verify_manifest(load_manifest(manifest_path), cache)
    (out / "tamper-report.txt").write_text(report.summary() + "\n")
    print(report.summary())
    if report.ok:
        sys.exit("FAIL: verify accepted a tampered artifact")
    if report.corrupt != [spec_digest(victim)]:
        sys.exit(
            "FAIL: verify did not name the tampered digest "
            f"(expected [{spec_digest(victim)}], got {report.corrupt})"
        )
    if entry.exists():
        sys.exit("FAIL: corrupt entry was not quarantined")

    print("== stage 4: recompute and re-verify the same root ==")
    rerun = run_spec(victim, cache=cache)
    if not rerun.ok or rerun.cached:
        sys.exit("FAIL: victim cell did not recompute cleanly")
    cli(["manifest", "verify", str(manifest_path), *_grid_flags()])
    print(f"round-trip ok: root {load_manifest(manifest_path).root}")


if __name__ == "__main__":
    main()
