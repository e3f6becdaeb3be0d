"""Fig. 2's stride mix and Fig. 5/8's iteration counts, pinned.

Both figures are computed from the engine's access stream by the decoding
memory models (:class:`StrideClassifier`, :class:`IterationTrace`).  The
values below were recorded with the two-method ``vertex``/``edge`` charge
protocol that the one-int ``access(code)`` stream replaced, so they hold
the decoding to the stream the figures were first drawn from.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import astuple

import pytest

from repro.experiments import datasets
from repro.experiments.harness import build_app
from repro.locality.stride import StrideClassifier
from repro.locality.trace import IterationTrace
from repro.mining.apps import MotifCounting
from repro.mining.engine import run_dfs
from repro.processing import (
    BreadthFirstSearch,
    ConnectedComponents,
    PageRank,
    run_vertex_program,
)

# fig02_patterns.run's workloads on the tiny p2p proxy, as AccessMix
# (sequential vertex, random vertex, sequential edge, random edge).
FIG2_MIX = {
    "BFS": (85, 4730, 3097, 859),
    "CC": (171, 11056, 6761, 2233),
    "PageRank": (122, 6558, 4226, 1227),
    "3-CF": (362, 6320, 12898, 11621),
    "3-MC": (362, 6320, 12898, 11621),
    "4-MC": (591, 100187, 156633, 208445),
}

# SHA-256 of every iteration's sorted vertex and edge counts of a 4-MC run
# (fig05_locality's trace; fig08_heuristic's on p2p).
FIG5_COUNTS = {
    "citeseer": "fc8b5e99eceefb509698d517c76fb488807ae785300403f3c78e52581c568a20",
    "p2p": "19112f0adff75812c1d83bc10126d2d2dc205e9f560b32a4150baab537134a90",
}


def test_fig02_stride_mix_pinned():
    graph = datasets.load("p2p", "tiny")
    mixes = {}
    for program in (
        BreadthFirstSearch(source=0),
        ConnectedComponents(),
        PageRank(tolerance=1e-3),
    ):
        classifier = StrideClassifier(graph)
        run_vertex_program(graph, program, mem=classifier)
        mixes[program.name] = astuple(classifier.mix)
    for name in ("3-CF", "3-MC", "4-MC"):
        classifier = StrideClassifier(graph)
        run_dfs(graph, build_app(name, "p2p", "tiny"), mem=classifier)
        mixes[name] = astuple(classifier.mix)
    assert mixes == FIG2_MIX


@pytest.mark.parametrize("graph_name", sorted(FIG5_COUNTS))
def test_fig05_iteration_counts_pinned(graph_name):
    graph = datasets.load(graph_name, "tiny")
    trace = IterationTrace(graph.num_vertices)
    run_dfs(graph, MotifCounting(4), mem=trace)
    counts = {
        iteration: {
            "vertex": sorted(trace.vertex_counts(iteration).items()),
            "edge": sorted(trace.edge_counts(iteration).items()),
        }
        for iteration in trace.iterations
    }
    blob = json.dumps(counts, sort_keys=True).encode()
    assert hashlib.sha256(blob).hexdigest() == FIG5_COUNTS[graph_name]
