"""The list-backed extend-check kernel vs the step-wise oracle.

:mod:`repro.mining.engine` streams candidates inline over list views of
the CSR arrays and accepts them in one kernel, ``_extend_check``;
:mod:`.engine_oracle` keeps the drivers that step every candidate through
``advance_frame`` + ``check_candidate`` over the numpy arrays.  On random
small graphs, for every application shape, both must give the same
mining result, the same ``candidates_checked`` (also when a frontier
overflows), the same frontier-observer calls and the same
``(depth, kind, id, src)`` memory-access stream: the engine's one-int
access codes, decoded with ``src`` as the slot's CSR owner, equal the
oracle's accesses with their source member spelled out.  The simulators' step,
``slot_step``, must likewise step whole and work-stealing-split frames
like the oracle's ``advance_frame`` + ``check_candidate``.
"""

from __future__ import annotations

from unittest import mock

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.graph.csr import CSRGraph
from repro.mining import engine
from repro.mining.apps import (
    CliqueFinding,
    FrequentSubgraphMining,
    MotifCounting,
    SubgraphMatching,
)
from repro.mining.apps.match import pattern_from_edges
from repro.mining.engine import Frame, FrontierOverflowError, NullMemory

from ..conftest import small_graphs
from . import engine_oracle as oracle

SETTINGS = settings(max_examples=100, deadline=None, derandomize=True)

PATTERNS = [
    pattern_from_edges([(0, 1), (1, 2)], 3),  # wedge
    pattern_from_edges([(0, 1), (1, 2), (0, 2)], 3),  # triangle
    pattern_from_edges([(0, 1), (1, 2), (2, 3)], 4),  # 4-path
    pattern_from_edges([(0, 1), (0, 2), (0, 3), (1, 2)], 4),  # tailed triangle
]


class RecordingMemory:
    """Logs every access with the depth it saw.

    ``access`` is the engine's ``MemoryModel`` side: it decodes a code over
    ``graph``, taking an edge slot's CSR owner as its ``src``.
    ``vertex``/``edge`` are the oracle's ``StepRecorder`` side.
    """

    def __init__(self, graph: CSRGraph) -> None:
        self.depth = 0
        self.events: list[tuple[int, str, int, int | None]] = []
        self._num_vertices = graph.num_vertices
        self._owner = np.repeat(
            np.arange(graph.num_vertices), graph.degrees()
        ).tolist()

    def access(self, code: int) -> None:
        n = self._num_vertices
        if code < n:
            self.vertex(code)
        else:
            self.edge(code - n, self._owner[code - n])

    def vertex(self, vid: int) -> None:
        self.events.append((self.depth, "vertex", vid, None))

    def edge(self, index: int, src: int) -> None:
        self.events.append((self.depth, "edge", index, src))


@st.composite
def graphs(draw) -> CSRGraph:
    """Small graphs, labelled with up to three labels half of the time."""
    graph = draw(small_graphs(max_vertices=10))
    if draw(st.booleans()):
        labels = draw(
            st.lists(
                st.integers(0, 2),
                min_size=graph.num_vertices,
                max_size=graph.num_vertices,
            )
        )
        graph = CSRGraph.from_arrays(graph.offsets, graph.neighbors, labels)
    return graph


@st.composite
def app_factories(draw):
    """A zero-argument factory for a fresh application of a drawn shape."""
    kind = draw(st.sampled_from(["3-CF", "4-CF", "3-MC", "4-MC", "FSM", "SM"]))
    if kind == "FSM":
        threshold = draw(st.integers(1, 3))
        return lambda: FrequentSubgraphMining(threshold)
    if kind == "SM":
        pattern = draw(st.sampled_from(PATTERNS))
        return lambda: SubgraphMatching(pattern)
    size = int(kind[0])
    cls = CliqueFinding if kind.endswith("CF") else MotifCounting
    return lambda: cls(size)


def _run(driver, graph, make_app, **kwargs) -> dict:
    """Everything a driver run leaves behind, as one comparable value."""
    app = make_app()
    mem = RecordingMemory(graph)
    observed: list[tuple[int, int, int]] = []
    if driver in (engine.run_bfs, oracle.run_bfs):
        kwargs["frontier_observer"] = lambda *call: observed.append(call)
    error = None
    try:
        driver(graph, app, mem=mem, **kwargs)
    except FrontierOverflowError as exc:
        error = str(exc)
    return {
        "error": error,
        "result": app.result(),
        "candidates": app.candidates_checked,
        "observed": observed,
        "events": mem.events,
        "final_depth": mem.depth,
    }


@given(graphs(), app_factories())
@SETTINGS
def test_dfs_matches_oracle(graph, make_app):
    assert _run(engine.run_dfs, graph, make_app) == _run(
        oracle.run_dfs, graph, make_app
    )


@given(graphs(), app_factories())
@SETTINGS
def test_bfs_matches_oracle(graph, make_app):
    assert _run(engine.run_bfs, graph, make_app) == _run(
        oracle.run_bfs, graph, make_app
    )


@given(graphs(), app_factories(), st.data())
@SETTINGS
def test_dfs_root_subsets_match_oracle(graph, make_app, data):
    roots = data.draw(
        st.lists(st.integers(0, graph.num_vertices - 1), max_size=6)
    )
    assert _run(engine.run_dfs, graph, make_app, roots=roots) == _run(
        oracle.run_dfs, graph, make_app, roots=roots
    )


@given(graphs(), app_factories(), st.integers(0, 3))
@SETTINGS
def test_frontier_overflow_matches_oracle(graph, make_app, max_frontier):
    fast = _run(engine.run_bfs, graph, make_app, max_frontier=max_frontier)
    slow = _run(oracle.run_bfs, graph, make_app, max_frontier=max_frontier)
    assert fast == slow


def test_frontier_overflow_keeps_candidate_count():
    """The overflow exit folds the candidates checked so far into the app."""
    graph = CSRGraph(5, [(0, 1), (1, 2), (2, 3), (3, 4), (0, 4)])
    fast = _run(engine.run_bfs, graph, lambda: MotifCounting(4), max_frontier=1)
    slow = _run(oracle.run_bfs, graph, lambda: MotifCounting(4), max_frontier=1)
    assert fast["error"] is not None
    assert fast["candidates"] > 0
    assert fast == slow


@given(graphs(), app_factories())
@SETTINGS
def test_uncharged_runs_match_charged(graph, make_app):
    """``mem=None`` and ``NullMemory`` make no calls but mine the same."""
    charged = _run(engine.run_dfs, graph, make_app)
    with mock.patch.object(
        NullMemory, "access", side_effect=AssertionError("access call")
    ):
        for driver in (engine.run_dfs, engine.run_bfs):
            for mem in (None, NullMemory()):
                app = make_app()
                driver(graph, app, mem=mem)
                assert app.result() == charged["result"]
                assert app.candidates_checked == charged["candidates"]


def _step_trace(graph, frame, clique_only, probe, step, first=None):
    """Step ``frame`` to exhaustion: the (candidate, column) verdicts, the
    frame's final cursor state and the memory-access stream.

    ``step(graph, frame, clique_only, probe, mem)`` returns one step's
    ``(candidate, column)``; ``first`` runs on the frame after the first
    candidate, when work stealing could first split it.
    """
    mem = RecordingMemory(graph)
    mem.depth = frame.size
    trace = []
    while True:
        candidate, column = step(graph, frame, clique_only, probe, mem)
        if candidate is None:
            break
        if first is not None:
            first(frame)
            first = None
        trace.append((candidate, column))
    trace.append((frame.member_idx, frame.edge_cursor, frame.member_base))
    return trace, mem.events


def _engine_step(graph, frame, clique_only, probe, mem):
    return engine.slot_step(
        graph.offsets.tolist(), graph.neighbors.tolist(), frame, clique_only,
        probe == "scan", mem.access,
    )


def _oracle_step(graph, frame, clique_only, probe, mem):
    candidate = oracle.advance_frame(graph, frame, mem)
    if candidate is None:
        return None, 0
    _, column = oracle.check_candidate(
        graph, frame.vertices, frame.member_idx, candidate, clique_only, mem,
        probe=probe,
    )
    return candidate, column


def _frame(vertices, member_idx=0, member_limit=None):
    frame = Frame(vertices, (0,) * len(vertices))
    frame.member_idx = member_idx
    if member_limit is not None:
        frame.member_limit = member_limit
    return frame


@given(
    graphs(),
    st.data(),
    st.booleans(),
    st.sampled_from(["binary", "scan"]),
)
@SETTINGS
def test_check_candidate_matches_oracle(graph, data, clique_only, probe):
    """``slot_step`` extend-checks every candidate of a member like the
    oracle's ``advance_frame`` + ``check_candidate``, in both probe modes."""
    n = graph.num_vertices
    vertices = tuple(
        data.draw(
            st.lists(st.integers(0, n - 1), min_size=1, max_size=4, unique=True)
        )
    )
    member_idx = data.draw(st.integers(0, len(vertices) - 1))
    assert _step_trace(
        graph, _frame(vertices, member_idx), clique_only, probe, _engine_step
    ) == _step_trace(
        graph, _frame(vertices, member_idx), clique_only, probe, _oracle_step
    )


@given(graphs(), st.data(), st.booleans(), st.sampled_from(["binary", "scan"]))
@SETTINGS
def test_split_frames_step_like_oracle(graph, data, clique_only, probe):
    """``slot_step`` honours work-stealing limits like the oracle."""
    n = graph.num_vertices
    vertices = tuple(
        data.draw(
            st.lists(st.integers(0, n - 1), min_size=1, max_size=3, unique=True)
        )
    )
    member_limit = data.draw(st.integers(0, len(vertices)))
    cursor_limit = data.draw(st.none() | st.integers(0, 4))

    def split(frame):
        frame.cursor_limit = cursor_limit

    steps = [
        _step_trace(
            graph, _frame(vertices, member_limit=member_limit), clique_only,
            probe, step, first=split,
        )
        for step in (_engine_step, _oracle_step)
    ]
    assert steps[0] == steps[1]
