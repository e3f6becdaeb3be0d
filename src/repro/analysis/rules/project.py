"""Project rules (GRM10xx): cross-file flows over the whole-program pass.

These rules receive a :class:`~repro.analysis.project.ProjectAnalysis`
(built once per checked directory) instead of a single module, and query
the call graph and taint fixpoint from :mod:`repro.analysis.callgraph` /
:mod:`repro.analysis.taint`.  Every finding they report names a fully
resolved chain of project functions — unresolvable calls contribute
nothing, so the family stays silent unless it can spell the flow out.
"""

from __future__ import annotations

from typing import Iterator

from repro.analysis.core import Finding, project_rule
from repro.analysis.project import ProjectAnalysis
from repro.analysis.summary import FunctionSummary, Sink
from repro.analysis.taint import TAINT_KINDS, describe_chain, sink_taint, tainted_returns

__all__ = ["cache_key_completeness", "crossproc_reachability", "determinism_taint"]

_DETERMINISM_KINDS = ("wallclock", "rng", "env")


def _finding(
    analysis: ProjectAnalysis, fn_key: str, line: int, col: int, rule_id: str, message: str
) -> Finding:
    return Finding(
        rule_id=rule_id,
        path=str(analysis.path_of(fn_key)),
        line=line,
        col=col,
        message=message,
    )


def _sink_label(sink: Sink) -> str:
    if sink.kind == "result_field":
        return f"the deterministic JobResult field {sink.detail!r}"
    if sink.kind == "stats_field":
        return f"the SimStats field {sink.detail!r}"
    return f"the cache key passed to {sink.detail}"


@project_rule(
    "GRM1001",
    "project",
    "wall-clock/RNG/env value flows into a deterministic sink",
    explain=(
        "A value that originates at a wall-clock read, an unseeded RNG, or\n"
        "an environment variable reaches a deterministic output — a\n"
        "fingerprinted JobResult field, a SimStats counter, or an\n"
        "ArtifactCache key — possibly laundered through helpers in other\n"
        "modules.  Such a value makes cached results irreproducible: the\n"
        "same JobSpec would hash or fingerprint differently across runs.\n"
        "Derive the value from the spec instead, or keep host-dependent\n"
        "quantities in the sanctioned provenance fields\n"
        "(JobResult.wall_seconds/cached/retries), which are excluded from\n"
        "fingerprints.  The finding message names the exact call chain."
    ),
)
def determinism_taint(analysis: ProjectAnalysis) -> Iterator[Finding]:
    """Interprocedural taint: nondeterministic sources into deterministic sinks."""
    graph = analysis.callgraph()
    tainted = {
        kind: tainted_returns(analysis, graph, kind) for kind in _DETERMINISM_KINDS
    }
    for fn_key, _module, fn in analysis.functions():
        for sink in fn.sinks:
            for kind in _DETERMINISM_KINDS:
                chain = sink_taint(graph, fn_key, sink.atoms, kind, tainted[kind])
                if chain is None:
                    continue
                source = TAINT_KINDS[kind]
                route = (
                    f" via {describe_chain(chain)}" if chain else " in this function"
                )
                yield _finding(
                    analysis,
                    fn_key,
                    sink.line,
                    sink.col,
                    "GRM1001",
                    f"{source} flows into {_sink_label(sink)}{route}; "
                    "deterministic outputs must be pure functions of the spec",
                )


def _param_is_spec(fn: FunctionSummary, param: str, spec_name: str) -> bool:
    for name, annotation in fn.param_annotations:
        if name == param:
            return annotation.rsplit(".", 1)[-1] == spec_name
    return param == "spec"


@project_rule(
    "GRM1002",
    "project",
    "spec field read under a backend's run but absent from its digest",
    explain=(
        "A backend's behavior depends on a JobSpec (or spec params) field\n"
        "that its cache-key digest does not cover: two specs differing\n"
        "only in that field collide on the same cache entry, so one\n"
        "result silently impersonates the other.  The read may sit\n"
        "anywhere along the call graph reachable from the backend's run\n"
        "method.  Fix the spec's cache_key()/fingerprint() to cover the\n"
        "field — serializing the whole object (dataclasses.asdict) makes\n"
        "the digest complete by construction."
    ),
)
def cache_key_completeness(analysis: ProjectAnalysis) -> Iterator[Finding]:
    """Every spec field a backend's call graph reads must be digested."""
    graph = analysis.callgraph()
    for module, backend in analysis.backends():
        run_key = f"{module}:{backend.name}.run"
        if analysis.function(run_key) is None:
            continue
        located = None
        if backend.spec_annotation is not None:
            located = analysis.spec_class(backend.spec_annotation)
        if located is None:
            all_specs = list(analysis.spec_classes())
            if len(all_specs) == 1:
                located = all_specs[0]
        if located is None:
            continue
        _spec_module, spec = located
        if spec.complete:
            continue
        covered = set(spec.covered)
        reached = graph.reachable([run_key])
        for fn_key in reached:
            fn = analysis.function(fn_key)
            if fn is None:
                continue
            route = " -> ".join(
                key.split(":", 1)[1] for key in graph.chain(reached, fn_key)
            )
            for param, attr, line in fn.attr_reads:
                if (
                    attr in spec.fields
                    and attr not in covered
                    and _param_is_spec(fn, param, spec.name)
                ):
                    yield _finding(
                        analysis,
                        fn_key,
                        line,
                        0,
                        "GRM1002",
                        f"{spec.name}.{attr} is read here (reached from "
                        f"{backend.name}.run via {route}) but "
                        f"{spec.name}.{spec.digest_method}() never covers it; "
                        "specs differing only in this field share a cache entry",
                    )
            if "params" in spec.fields and "params" not in covered:
                for key_name, line in fn.param_key_reads:
                    yield _finding(
                        analysis,
                        fn_key,
                        line,
                        0,
                        "GRM1002",
                        f"params key {key_name!r} is read here (reached from "
                        f"{backend.name}.run via {route}) but the params field "
                        f"is absent from {spec.name}.{spec.digest_method}()",
                    )


@project_rule(
    "GRM1003",
    "project",
    "graph-sized or unpicklable payload reaches a pool submission",
    explain=(
        "A process-pool submission ships either an unpicklable callable (a\n"
        "lambda or a function nested inside another function) or an\n"
        "argument holding a whole-graph object — including one produced\n"
        "by a loader in another module and passed along a call chain.\n"
        "Each worker would deserialize a private copy, multiplying memory\n"
        "by the pool width; lambdas/nested functions fail outright under\n"
        "the spawn start method.  Submit a top-level function and pass the\n"
        "graph's content digest, reloading via the shared GraphStore\n"
        "inside the worker (docs/graph-store.md).  Generalizes GRM501\n"
        "beyond literal call sites."
    ),
)
def crossproc_reachability(analysis: ProjectAnalysis) -> Iterator[Finding]:
    """Pool submissions must carry picklable callables and digest-sized args."""
    graph = analysis.callgraph()
    tainted = tainted_returns(analysis, graph, "graph")
    for fn_key, _module, fn in analysis.functions():
        for submit in fn.submits:
            if submit.callee_kind in ("lambda", "nested"):
                label = submit.callee or "a lambda"
                yield _finding(
                    analysis,
                    fn_key,
                    submit.line,
                    submit.col,
                    "GRM1003",
                    f"pool .{submit.method}() receives an unpicklable callable "
                    f"({label}); submit a module-level function instead",
                )
            for index, atoms in enumerate(submit.arg_atoms):
                chain = sink_taint(graph, fn_key, atoms, "graph", tainted)
                if chain is None:
                    continue
                name = (
                    submit.arg_names[index]
                    if index < len(submit.arg_names)
                    else f"argument {index}"
                )
                route = f" (loaded via {describe_chain(chain)})" if chain else ""
                yield _finding(
                    analysis,
                    fn_key,
                    submit.line,
                    submit.col,
                    "GRM1003",
                    f"pool .{submit.method}() argument {name!r} carries a "
                    f"whole-graph object{route}; pass the content digest and "
                    "reload through the GraphStore inside the worker",
                )
