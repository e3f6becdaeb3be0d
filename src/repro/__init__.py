"""GRAMER reproduction: a locality-aware graph mining accelerator (MICRO 2020).

Layout
------
``repro.graph``
    CSR graphs, synthetic generators, IO, statistics, reordering.
``repro.mining``
    Embedding-centric mining engine (Algorithm 1): canonicality, patterns,
    DFS/BFS drivers, the CF / MC / FSM applications.
``repro.locality``
    The extension-locality analyses: ON_k occurrence numbers (Eq. 1),
    memory-trace capture, top-x% access-share studies.
``repro.memory``
    Memory substrate: the locality-aware memory hierarchy's sizing and
    counts, and the disk model.
``repro.accel``
    The GRAMER accelerator: configuration, cycle-level simulator
    (PUs, slots, ancestor buffers, work stealing), energy / clock /
    resource models.
``repro.processing``
    Vertex-centric graph processing (BFS, SSSP, CC, PageRank) — the
    paper's §II-B contrast class, sharing the mining engine's memory
    instrumentation.
``repro.baselines``
    Fractal-model (DFS, CPU cache hierarchy) and RStream-model (BFS, disk)
    baselines.
``repro.experiments``
    One module per paper table/figure plus the dataset registry.
"""

from repro.graph import CSRGraph
from repro.mining import (
    CliqueFinding,
    FrequentSubgraphMining,
    MiningResult,
    MotifCounting,
    make_app,
    run_bfs,
    run_dfs,
)
from repro.mining.apps import SubgraphMatching

__version__ = "1.0.0"

__all__ = [
    "CSRGraph",
    "CliqueFinding",
    "FrequentSubgraphMining",
    "MiningResult",
    "MotifCounting",
    "SubgraphMatching",
    "make_app",
    "run_bfs",
    "run_dfs",
    "__version__",
]
