"""The benchmark's frozen check corpus must still give its golden findings.

``perfbench``'s ``check-cold`` workload checks a frozen copy of
``src/repro`` and the analysis fixtures, one root at a time, and fails
its correctness check unless the findings equal ``golden.json``'s.  This
test runs the same check, so a change to the checker that breaks the
golden fails here first.  It only reads ``perfbench/``.
"""

import json
import tarfile
from pathlib import Path

from repro.analysis import check_paths
from repro.runtime.cache import ArtifactCache

PERFBENCH = Path(__file__).resolve().parents[2] / "perfbench"


def test_frozen_corpus_findings_match_golden(tmp_path):
    corpus = tmp_path / "corpus"
    with tarfile.open(PERFBENCH / "corpus.tar.gz", "r:gz") as archive:
        archive.extractall(corpus, filter="data")
    fixtures = corpus / "tests" / "analysis" / "fixtures"
    roots = [corpus / "src" / "repro"] + sorted(fixtures.iterdir())
    cache = ArtifactCache(
        root=tmp_path / "unused", use_disk=False, memory_items=1 << 16
    )
    rows = sorted(
        [f.rule_id, Path(f.path).resolve().relative_to(corpus.resolve()).as_posix(), f.line]
        for root in roots
        for f in check_paths([root], cache=cache)
    )
    golden = json.loads((PERFBENCH / "golden.json").read_text())["findings"]
    assert rows == golden
