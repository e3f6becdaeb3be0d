"""Golden tolerance-envelope fixtures for the turbo engine.

Each fixture under ``golden/turbo/`` freezes, for one Table III tiny
cell, the turbo engine's full ``SimStats.as_dict()`` *and* its measured
deviation envelope against the exact engine at freeze time (per
field: reference value, turbo value, relative deviation).  The turbo
engine is deterministic, so the test asserts the current run matches the
frozen turbo stats exactly — any timing-model change shows up as a
field-level diff naming the first divergent key, and the reviewer can
read the committed envelope to see how far from the reference the new
value sits.

The envelope in every fixture must itself respect
``tests.differential.tolerance.TINY_GRID_SPEC`` — regeneration fails
loudly if the engine has drifted out of its declared bands.

Regenerate after an *intentional* timing-model change with::

    GRAMER_REGEN_GOLDEN=1 PYTHONPATH=src python -m pytest \
        tests/experiments/test_golden_turbo.py -q

and commit the updated JSON together with the change that explains it.
"""

import json
import os
from pathlib import Path

import pytest

from repro.accel.config import GramerConfig
from repro.accel.sim import make_simulator
from repro.experiments import datasets
from repro.runtime.backends import build_app
from tests.differential.tolerance import TINY_GRID_SPEC, assert_within_tolerance
from tests.experiments.test_golden_stats import CELLS, diff_golden

GOLDEN_DIR = Path(__file__).parent / "golden" / "turbo"


def _run_cell(app_name: str, graph_name: str, engine: str, scale: str = "tiny"):
    app = build_app(app_name, graph_name, scale)
    loader = datasets.load_labeled if app.needs_labels else datasets.load
    graph = loader(graph_name, scale)
    result = make_simulator(graph, GramerConfig(), engine=engine).run(app)
    return {
        "stats": result.stats.as_dict(),
        "embeddings": result.mining.embeddings_by_size,
        "patterns": result.mining.patterns_by_size,
        "candidates": app.candidates_checked,
    }


def compute_cell(app_name: str, graph_name: str, scale: str = "tiny") -> dict:
    """The turbo side of one cell, golden-comparable (no reference run)."""
    turbo = _run_cell(app_name, graph_name, "turbo", scale)
    return {
        "app": app_name,
        "graph": graph_name,
        "scale": scale,
        "stats": turbo["stats"],
        "embeddings_by_size": {
            str(k): v for k, v in turbo["embeddings"].items()
        },
        "candidates_checked": turbo["candidates"],
    }


def compute_envelope(app_name: str, graph_name: str, scale: str = "tiny"):
    """Golden payload + per-field deviation envelope (runs both engines)."""
    reference = _run_cell(app_name, graph_name, "reference", scale)
    turbo = _run_cell(app_name, graph_name, "turbo", scale)
    assert_within_tolerance(
        TINY_GRID_SPEC, reference, turbo, context=f"{app_name}/{graph_name}"
    )
    envelope = {}
    for key, rv in sorted(reference["stats"].items()):
        tv = turbo["stats"][key]
        if isinstance(rv, list):
            continue  # per-PU arrays: the frozen stats already pin them
        entry = {"reference": rv, "turbo": tv}
        if rv:
            entry["rel_dev"] = round((tv - rv) / rv, 4)
        envelope[key] = entry
    payload = compute_cell(app_name, graph_name, scale)
    payload["envelope_vs_reference"] = envelope
    return payload


def golden_path(app_name: str, graph_name: str) -> Path:
    return GOLDEN_DIR / f"{app_name}_{graph_name}_tiny.json"


@pytest.mark.parametrize(("app_name", "graph_name"), CELLS)
def test_turbo_stats_match_golden(app_name, graph_name):
    path = golden_path(app_name, graph_name)
    if os.environ.get("GRAMER_REGEN_GOLDEN"):
        GOLDEN_DIR.mkdir(parents=True, exist_ok=True)
        payload = compute_envelope(app_name, graph_name)
        path.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")
        pytest.skip(f"regenerated {path.name}")
    assert path.exists(), (
        f"missing golden fixture {path}; regenerate with "
        "GRAMER_REGEN_GOLDEN=1 (see module docstring)"
    )
    actual = compute_cell(app_name, graph_name)
    expected = json.loads(path.read_text())
    divergence = diff_golden(expected, actual)
    assert divergence is None, (
        f"{app_name}/{graph_name}: {divergence} — if the timing-model "
        "change is intentional, regenerate (GRAMER_REGEN_GOLDEN=1) and "
        "review the refreshed envelope_vs_reference block"
    )


@pytest.mark.parametrize(("app_name", "graph_name"), CELLS)
def test_frozen_envelope_within_declared_bands(app_name, graph_name):
    """The committed envelope must sit inside TINY_GRID_SPEC's bands.

    Guards against a regeneration that silently freezes an out-of-band
    engine: the bands and the fixtures can only tighten together.
    """
    path = golden_path(app_name, graph_name)
    if not path.exists():
        pytest.skip("fixture not generated yet")
    envelope = json.loads(path.read_text())["envelope_vs_reference"]
    for key, entry in envelope.items():
        band = TINY_GRID_SPEC.band_for(key)
        if band is None:
            continue
        assert band.allows(entry["reference"], entry["turbo"]), (
            f"{app_name}/{graph_name}: frozen {key} "
            f"(reference={entry['reference']} turbo={entry['turbo']}) "
            f"violates its declared band ({band.describe()})"
        )


def test_no_stale_turbo_fixtures():
    """Every checked-in fixture corresponds to a cell in CELLS."""
    known = {golden_path(a, g).name for a, g in CELLS}
    on_disk = {p.name for p in GOLDEN_DIR.glob("*.json")}
    assert on_disk <= known, f"stale fixtures: {sorted(on_disk - known)}"
