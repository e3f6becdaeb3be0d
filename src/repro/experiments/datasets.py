"""Dataset registry: synthetic proxies for the paper's seven graphs.

The paper evaluates on SNAP/NBER datasets that are unavailable offline and —
at up to 69M edges — far beyond what a pure-Python cycle simulator can
enumerate.  Each dataset therefore gets a *proxy* with the same qualitative
shape (degree-distribution family and relative density) at a tractable
scale, in three presets:

* ``tiny``   — unit tests and pytest benchmarks (sub-second cells),
* ``small``  — the default experiment scale (the numbers in EXPERIMENTS.md),
* ``full``   — a larger validation scale for spot checks.

Citeseer is near-uniform (a thin citation graph) and maps to Erdős–Rényi;
everything else is heavy-tailed and maps to preferential attachment with
dataset-specific density/clustering.  The proxy hierarchy preserves the
paper's *memory regimes*: with the fixed on-chip budget
(:data:`EXPERIMENT_ONCHIP_ENTRIES`, the stand-in for the U250's 11.8 MB
BRAM), Citeseer/P2P reach the paper's τ = 50% all-on-chip regime, Astro and
Mico land in the partially-resident middle, and Patents/YT/LJ fall to small
τ just as the real graphs exceed BRAM.  Likewise the scaled CPU cache
hierarchy (:func:`scaled_cpu_config`) keeps each proxy's footprint in the
same cache regime as its real counterpart (Citeseer in private caches,
Patents beyond the LLC), which is what Fig. 3's stall trend depends on.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

from repro.baselines.cpu import CPUConfig
from repro.graph.csr import CSRGraph
from repro.graph.generators import erdos_renyi, powerlaw_cluster, random_labels

__all__ = [
    "DatasetSpec",
    "DATASETS",
    "DATASET_ORDER",
    "SMALL_GRAPHS",
    "MEDIUM_GRAPHS",
    "LARGE_GRAPHS",
    "load",
    "load_labeled",
    "scaled_cpu_config",
    "EXPERIMENT_ONCHIP_ENTRIES",
    "fsm_threshold",
]

# Stand-in for the U250's BRAM budget, in graph-data entries.  Chosen so the
# proxies reproduce the paper's τ regimes (see module docstring).
EXPERIMENT_ONCHIP_ENTRIES = 6_000

# Number of distinct vertex labels used for FSM proxies (Mico-style).
FSM_NUM_LABELS = 4


@dataclass(frozen=True)
class DatasetSpec:
    """One evaluation graph: paper identity plus proxy builders."""

    name: str
    paper_vertices: int
    paper_edges: int
    category: str  # 'small' | 'medium' | 'large' (§VI-A grouping)
    builders: dict[str, Callable[[], CSRGraph]]
    paper_fsm_threshold: int

    def build(self, scale: str = "small") -> CSRGraph:
        """Construct the proxy graph at ``scale``."""
        try:
            builder = self.builders[scale]
        except KeyError:
            raise ValueError(
                f"unknown scale {scale!r} for {self.name}; "
                f"choose from {sorted(self.builders)}"
            ) from None
        return builder()


def _spec(
    name: str,
    paper_v: int,
    paper_e: int,
    category: str,
    fsm_threshold: int,
    tiny: Callable[[], CSRGraph],
    small: Callable[[], CSRGraph],
    full: Callable[[], CSRGraph],
) -> DatasetSpec:
    return DatasetSpec(
        name=name,
        paper_vertices=paper_v,
        paper_edges=paper_e,
        category=category,
        builders={"tiny": tiny, "small": small, "full": full},
        paper_fsm_threshold=fsm_threshold,
    )


DATASETS: dict[str, DatasetSpec] = {
    "citeseer": _spec(
        "citeseer", 3_312, 4_732, "small", 2_000,
        tiny=lambda: erdos_renyi(300, 450, seed=111),
        small=lambda: erdos_renyi(800, 1_200, seed=11),
        full=lambda: erdos_renyi(3_312, 4_732, seed=11),
    ),
    "p2p": _spec(
        "p2p", 8_114, 26_013, "small", 2_000,
        tiny=lambda: powerlaw_cluster(400, 2, 0.05, seed=112, max_degree=18),
        small=lambda: powerlaw_cluster(1_200, 2, 0.05, seed=12, max_degree=25),
        full=lambda: powerlaw_cluster(4_000, 3, 0.05, seed=12, max_degree=40),
    ),
    "astro": _spec(
        "astro", 18_772, 200_000, "medium", 2_000,
        tiny=lambda: powerlaw_cluster(300, 3, 0.5, seed=113, max_degree=25),
        small=lambda: powerlaw_cluster(1_100, 3, 0.5, seed=13, max_degree=35),
        full=lambda: powerlaw_cluster(3_000, 5, 0.5, seed=13, max_degree=60),
    ),
    "mico": _spec(
        "mico", 100_000, 1_100_000, "medium", 2_000,
        tiny=lambda: powerlaw_cluster(350, 4, 0.6, seed=114, max_degree=30),
        small=lambda: powerlaw_cluster(1_200, 4, 0.6, seed=14, max_degree=40),
        full=lambda: powerlaw_cluster(3_500, 6, 0.6, seed=14, max_degree=70),
    ),
    "patents": _spec(
        "patents", 2_700_000, 14_000_000, "large", 20_000,
        tiny=lambda: powerlaw_cluster(500, 3, 0.2, seed=115, max_degree=20),
        small=lambda: powerlaw_cluster(2_500, 3, 0.2, seed=15, max_degree=26),
        full=lambda: powerlaw_cluster(8_000, 3, 0.2, seed=15, max_degree=40),
    ),
    "yt": _spec(
        "yt", 4_580_000, 43_960_000, "large", 250_000,
        tiny=lambda: powerlaw_cluster(600, 3, 0.1, seed=116, max_degree=20),
        small=lambda: powerlaw_cluster(3_000, 3, 0.1, seed=16, max_degree=28),
        full=lambda: powerlaw_cluster(10_000, 3, 0.1, seed=16, max_degree=45),
    ),
    "lj": _spec(
        "lj", 4_850_000, 69_000_000, "large", 250_000,
        tiny=lambda: powerlaw_cluster(700, 3, 0.3, seed=117, max_degree=22),
        small=lambda: powerlaw_cluster(3_500, 3, 0.3, seed=17, max_degree=28),
        full=lambda: powerlaw_cluster(12_000, 4, 0.3, seed=17, max_degree=50),
    ),
}

DATASET_ORDER = ["citeseer", "p2p", "astro", "mico", "patents", "yt", "lj"]
SMALL_GRAPHS = ["citeseer", "p2p"]
MEDIUM_GRAPHS = ["astro", "mico"]
LARGE_GRAPHS = ["patents", "yt", "lj"]

# Bump when the generator recipes above change: the graph store addresses
# proxies by (name, scale, salt), not by the builder closures themselves.
_GENERATOR_SALT = 1


def _graph_key(name: str, scale: str, labeled: bool) -> dict:
    return {
        "dataset": name,
        "scale": scale,
        "labeled": labeled,
        "num_labels": FSM_NUM_LABELS if labeled else 0,
        "salt": _GENERATOR_SALT,
    }


def load(name: str, scale: str = "small") -> CSRGraph:
    """Load one proxy graph, materialized through the graph store.

    The generator runs at most once per (name, scale, salt): its CSR
    arrays are written to a content-addressed store artifact, and every
    load — in this process, in executor sweep workers, in later runs —
    opens that artifact as a read-only memory map sharing OS pages.
    Repeated calls in one process return the same object.
    """
    from repro.graph.store import default_graph_store

    spec = DATASETS[name]
    return default_graph_store().load(
        _graph_key(name, scale, False), lambda: spec.build(scale)
    )


def load_labeled(name: str, scale: str = "small") -> CSRGraph:
    """Labeled variant (FSM), with :data:`FSM_NUM_LABELS` uniform labels."""
    from repro.graph.store import default_graph_store

    return default_graph_store().load(
        _graph_key(name, scale, True),
        lambda: random_labels(load(name, scale), FSM_NUM_LABELS, seed=7),
    )


def fsm_threshold(name: str, scale: str = "small") -> int:
    """FSM support threshold with paper-like selectivity.

    Scaling the paper's absolute thresholds (2K / 20K / 250K) by the edge
    ratio lands below every proxy pattern's support (the proxies have far
    fewer label-pair types than edges), which would make the aggregate
    filter a no-op.  What matters behaviourally is *selectivity* — the
    paper picks thresholds that prune a meaningful share of patterns — so
    the proxy threshold is set at the 60th percentile of the labeled
    proxy's size-2 pattern supports: roughly half the edge patterns are
    pruned before extension, as a mid-selectivity FSM run does.
    """
    from repro.runtime.cache import default_cache

    def probe_threshold() -> int:
        import numpy as np

        from repro.mining.apps.fsm import FrequentSubgraphMining

        graph = load_labeled(name, scale)
        probe = FrequentSubgraphMining(threshold=1, max_vertices=3)
        probe.prepare(graph)
        supports = sorted(probe._edge_pattern_support.values())
        if not supports:
            return 2
        return max(2, int(np.percentile(supports, 60)))

    key = dict(_graph_key(name, scale, True), artifact="fsm_threshold")
    return default_cache().get_or_create("fsm_threshold", key, probe_threshold)


def scaled_cpu_config(scale: str = "small") -> CPUConfig:
    """CPU model with caches sized to preserve the proxies' cache regimes.

    The proxies are not uniformly scaled (Citeseer shrinks ~2×, LiveJournal
    ~3000×), so no single divisor of the real 32 KB / 256 KB / 35 MB
    hierarchy keeps every proxy in its real counterpart's regime.  The
    capacities below are chosen so the *regime boundaries* land where the
    paper's do: the Citeseer proxy fits within the private caches, the
    P2P / Astro / Mico proxies fit the LLC but not L2, and the
    Patents / YT / LJ proxies exceed the LLC — which is what drives the
    stall trend of Fig. 3 and the baseline slowdowns of Table III.
    """
    presets = {
        # (l1, l2, l3) bytes per scale preset.
        "tiny": (512, 10 * 1024, 28 * 1024),
        "small": (2 * 1024, 40 * 1024, 110 * 1024),
        "full": (8 * 1024, 128 * 1024, 384 * 1024),
    }
    try:
        l1, l2, l3 = presets[scale]
    except KeyError:
        raise ValueError(f"unknown scale {scale!r}") from None
    return CPUConfig(l1_bytes=l1, l2_bytes=l2, l3_bytes=l3)
