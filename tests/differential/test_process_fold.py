"""The deferred Process stage vs the per-embedding oracle.

:meth:`Application.process` counts each embedding under its raw shape
(the adjacency-column tuple, plus the member labels for labelled apps) and
folds the shapes into ``embeddings_by_size``/``patterns_by_size`` when they
are read.  The oracle below is the per-embedding body it replaced: one
size count and one canonical-pattern count per call, with labels read
through ``graph.label``.  Every test runs one application through a driver
with ``process`` wrapped to feed both, then compares the two, down to the
insertion order of every dict.
"""

from __future__ import annotations

from collections import Counter

from hypothesis import given
from hypothesis import strategies as st

from repro.accel.config import GramerConfig
from repro.accel.sim import make_simulator
from repro.graph.csr import CSRGraph
from repro.mining import engine
from repro.mining.apps import (
    CliqueFinding,
    FrequentSubgraphMining,
    MotifCounting,
    SubgraphMatching,
)
from repro.mining.apps.match import pattern_from_edges
from repro.mining.engine import FrontierOverflowError
from repro.mining.patterns import code_from_columns

from .test_engine_kernel import SETTINGS, graphs

UNLABELLED_PATTERNS = [
    pattern_from_edges([(0, 1), (1, 2)], 3),  # wedge
    pattern_from_edges([(0, 1), (1, 2), (2, 3)], 4),  # 4-path
]
LABELLED_PATTERNS = [
    pattern_from_edges([(0, 1), (1, 2)], 3, (0, 1, 0)),
    pattern_from_edges([(0, 1), (1, 2), (0, 2)], 3, (1, 1, 2)),
]


@st.composite
def app_factories(draw):
    """A zero-argument factory for a fresh CF, MC, FSM or SM application."""
    kind = draw(st.sampled_from(["CF", "MC", "FSM", "SM", "SM-labelled"]))
    size = draw(st.integers(3, 4))
    if kind == "CF":
        return lambda: CliqueFinding(size)
    if kind == "MC":
        return lambda: MotifCounting(size)
    if kind == "FSM":
        threshold = draw(st.integers(1, 3))
        return lambda: FrequentSubgraphMining(threshold, size)
    patterns = LABELLED_PATTERNS if kind == "SM-labelled" else UNLABELLED_PATTERNS
    pattern = draw(st.sampled_from(patterns))
    return lambda: SubgraphMatching(pattern)


class Oracle:
    """The per-embedding ``Process`` body, counting beside the real one."""

    def __init__(self, app, peek_every: int = 0) -> None:
        self.app = app
        self.peek_every = peek_every
        self.calls = 0
        self.embeddings_by_size: Counter[int] = Counter()
        self.patterns_by_size: dict[int, Counter] = {}
        self.process = app.process
        app.process = self  # the drivers look ``process`` up on the instance

    def __call__(self, graph, vertices, columns) -> None:
        app = self.app
        size = len(vertices)
        self.embeddings_by_size[size] += 1
        if app.counts_patterns(size):
            labels = (
                tuple(graph.label(v) for v in vertices)
                if app.needs_labels
                else None
            )
            code = code_from_columns(columns, labels)
            by_size = self.patterns_by_size.get(size)
            if by_size is None:
                by_size = self.patterns_by_size[size] = Counter()
            by_size[code] += 1
        self.process(graph, vertices, columns)
        self.calls += 1
        if self.peek_every and self.calls % self.peek_every == 0:
            app.patterns_by_size  # a mid-run read folds what is pending

    def assert_agrees(self) -> None:
        embeddings = self.app.embeddings_by_size
        patterns = self.app.patterns_by_size
        assert list(embeddings.items()) == list(self.embeddings_by_size.items())
        assert list(patterns) == list(self.patterns_by_size)
        for size, counter in patterns.items():
            assert list(counter.items()) == list(
                self.patterns_by_size[size].items()
            )


def _mine(run, make_app, peek_every: int = 0):
    """Run ``run(app)`` under the oracle; returns the app's result."""
    app = make_app()
    oracle = Oracle(app, peek_every)
    try:
        run(app)
    except FrontierOverflowError:
        pass  # the partial counts must agree too
    oracle.assert_agrees()
    return app.result()


def _simulate(graph):
    return lambda app: make_simulator(graph, GramerConfig()).run(app)


@given(graphs(), app_factories())
@SETTINGS
def test_dfs_fold_matches_oracle(graph, make_app):
    _mine(lambda app: engine.run_dfs(graph, app), make_app)


@given(graphs(), app_factories())
@SETTINGS
def test_bfs_fold_matches_oracle(graph, make_app):
    _mine(lambda app: engine.run_bfs(graph, app), make_app)


@given(graphs(), app_factories(), st.integers(0, 3))
@SETTINGS
def test_frontier_overflow_fold_matches_oracle(graph, make_app, max_frontier):
    _mine(
        lambda app: engine.run_bfs(graph, app, max_frontier=max_frontier),
        make_app,
    )


@given(graphs(), app_factories())
@SETTINGS
def test_simulator_fold_matches_oracle(graph, make_app):
    _mine(_simulate(graph), make_app)


@given(graphs(), app_factories(), st.sampled_from(["dfs", "bfs", "fast"]))
@SETTINGS
def test_mid_run_reads_do_not_change_the_result(graph, make_app, driver):
    run = {
        "dfs": lambda app: engine.run_dfs(graph, app),
        "bfs": lambda app: engine.run_bfs(graph, app),
        "fast": _simulate(graph),
    }[driver]
    # ``_mine`` checks each run against the oracle, dict order included.
    assert _mine(run, make_app, peek_every=7) == _mine(run, make_app)


def test_overflow_leaves_partial_counts():
    """The fold sees exactly what was processed before the overflow."""
    graph = CSRGraph(6, [(0, 1), (1, 2), (2, 3), (3, 4), (4, 5), (0, 5), (0, 2)])
    result = _mine(
        lambda app: engine.run_bfs(graph, app, max_frontier=2),
        lambda: MotifCounting(4),
    )
    assert result.embeddings_by_size == {2: 3}


def test_labelled_shapes_fold_by_label():
    """Two embeddings of one column shape but different labels split."""
    graph = CSRGraph(4, [(0, 1), (2, 3)], labels=[0, 1, 1, 1])
    result = _mine(
        lambda app: engine.run_dfs(graph, app), lambda: FrequentSubgraphMining(1, 2)
    )
    assert sorted(result.patterns_by_size[2].values()) == [1, 1]
