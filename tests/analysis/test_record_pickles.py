"""A file's check record pickles to the same bytes under any hash seed.

``gramer check`` caches one record per file, content-addressed by the
file's source; a record whose pickle follows the string-hash seed (a
frozenset's order does) differs between two processes that checked the
same file.  Two interpreters with different ``PYTHONHASHSEED`` values
pickle every record of the fixtures and of the package, and the bytes
must match file by file.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[2]

_SCRIPT = """
import hashlib, json, pickle, sys
from repro.analysis.core import all_rules, iter_python_files, module_records
records = module_records(iter_python_files(sys.argv[1:]), all_rules())
json.dump(
    {
        record.path: hashlib.sha256(
            pickle.dumps(record, pickle.HIGHEST_PROTOCOL)
        ).hexdigest()
        for record in records.values()
    },
    sys.stdout,
)
"""


def _record_digests(seed: str) -> dict[str, str]:
    env = dict(os.environ, PYTHONHASHSEED=seed, PYTHONPATH=str(ROOT / "src"))
    out = subprocess.run(
        [sys.executable, "-c", _SCRIPT, "tests/analysis/fixtures", "src/repro"],
        cwd=ROOT,
        env=env,
        check=True,
        capture_output=True,
        text=True,
    ).stdout
    return json.loads(out)


def test_records_pickle_identically_under_two_hash_seeds():
    first = _record_digests("1")
    assert len(first) > 100
    assert _record_digests("2") == first
