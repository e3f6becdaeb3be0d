"""Bit-determinism regression: the Table III tiny grid, twice, byte-identical.

This is the contract `gramer check`'s determinism rules (GRM1xx) enforce
statically, asserted dynamically: every modeled result is a pure function
of its JobSpec, so two cold back-to-back runs must serialize to the exact
same bytes — not approximately equal, *identical* — and so must a cold run
on two forked sweep workers.
"""

import json
from dataclasses import asdict

from repro.experiments import table3_runtime
from repro.runtime.cache import ArtifactCache
from repro.runtime.executor import Executor

APPS = ["3-CF", "4-MC"]
GRAPHS = ["citeseer", "p2p"]


def _cold_run_bytes(tmp_path, tag: str, jobs: int = 1) -> bytes:
    """One uncached Table III tiny-grid run, serialized canonically."""
    executor = Executor(
        jobs=jobs,
        use_cache=False,
        cache=ArtifactCache(root=tmp_path / tag, use_disk=False),
    )
    cells = table3_runtime.run(
        "tiny", apps=APPS, graphs=GRAPHS, executor=executor
    )
    payload = []
    for cell in cells:
        record = asdict(cell)
        # Host wall time is the one sanctioned nondeterministic field
        # (JobResult.fingerprint excludes it for the same reason).
        record.pop("wall_seconds")
        payload.append(record)
    return json.dumps(
        payload, sort_keys=True, separators=(",", ":"), default=str
    ).encode("utf-8")


class TestTableIIIByteDeterminism:
    def test_back_to_back_runs_are_byte_identical(self, tmp_path):
        first = _cold_run_bytes(tmp_path, "first")
        second = _cold_run_bytes(tmp_path, "second")
        assert first == second
        assert _cold_run_bytes(tmp_path, "wide", jobs=2) == first

    def test_rendered_table_is_byte_identical(self, tmp_path):
        tables = [
            table3_runtime.main(
                "tiny",
                apps=["3-CF"],
                graphs=["citeseer"],
                verbose=False,
                executor=Executor(
                    jobs=1,
                    use_cache=False,
                    cache=ArtifactCache(
                        root=tmp_path / f"render{i}", use_disk=False
                    ),
                ),
            ).encode("utf-8")
            for i in range(2)
        ]
        assert tables[0] == tables[1]
