"""scripts/check_results.py: reports differ except in host-time fields."""

import importlib.util
import json
from pathlib import Path

_SCRIPT = Path(__file__).resolve().parents[1] / "scripts" / "check_results.py"
_spec = importlib.util.spec_from_file_location("check_results", _SCRIPT)
check_results = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(check_results)


def _write(root: Path, payload: dict, texts: dict) -> Path:
    root.mkdir()
    (root / "results.json").write_text(json.dumps(payload), "utf-8")
    for name, text in texts.items():
        (root / name).write_text(text, "utf-8")
    return root


def _pair(tmp_path, fresh_payload, fresh_texts):
    committed = {
        "scale": "tiny",
        "fig08": {
            "graph": "mico",
            "accuracy": {"1": 0.9},
            "mining_seconds": 1.0,
            "overheads": {"1": 0.1},
        },
        "fig13": {"work_stealing": [{"graph": "mico", "cycles_with": 10}]},
        "wall_seconds": 5.0,
    }
    texts = {"fig08.txt": "host time 1.0\n", "fig13.txt": "Fig. 13\n"}
    fresh = fresh_payload(json.loads(json.dumps(committed)))
    return (
        _write(tmp_path / "fresh", fresh, {**texts, **fresh_texts}),
        _write(tmp_path / "committed", committed, texts),
    )


def test_host_time_fields_are_skipped(tmp_path):
    def retime(payload):
        payload["fig08"]["mining_seconds"] = 2.0
        payload["fig08"]["overheads"]["1"] = 0.2
        payload["wall_seconds"] = 9.0
        return payload

    fresh, committed = _pair(tmp_path, retime, {"fig08.txt": "host time 2.0\n"})
    assert check_results.differences(fresh, committed) == []
    assert check_results.main([str(fresh), str(committed)]) == 0


def test_every_other_difference_is_reported(tmp_path):
    def change(payload):
        payload["fig13"]["work_stealing"][0]["cycles_with"] = 11
        payload["fig08"]["accuracy"]["1"] = 0.8
        del payload["scale"]
        return payload

    fresh, committed = _pair(
        tmp_path, change, {"fig13.txt": "Fig. 13!\n", "extra.txt": ""}
    )
    assert check_results.differences(fresh, committed) == [
        "extra.txt: missing from committed",
        "fig13.txt: text differs",
        "results.json fig08.accuracy.1: 0.8 vs 0.9",
        "results.json fig13.work_stealing.0.cycles_with: 11 vs 10",
        "results.json scale: missing from fresh",
    ]
    assert check_results.main([str(fresh), str(committed)]) == 1
