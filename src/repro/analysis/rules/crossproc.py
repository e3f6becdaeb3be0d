"""Cross-process safety rules (GRM5xx).

Pool fan-out pickles every submitted argument into the worker.  Shipping a
whole graph or memory trace by value costs serialization time proportional
to the object, defeats the artifact cache (workers should *reload* shared
inputs from their content address), and — for closures — captures ambient
state the spec never declared.

* ``GRM501`` — a pool submission (``.submit``/``.map``/``.apply_async`` on
  a pool/executor receiver) passing a large-object identifier (``graph``,
  ``trace``, ``csr``, ...) or a lambda.  Pass the *name* of the input
  (dataset key, file path, cache key) and resolve it inside the worker.
"""

from __future__ import annotations

from typing import Iterator

from repro.analysis.core import Finding, ModuleContext, rule

_LARGE_OBJECT_NAMES = {
    "graph",
    "graphs",
    "csr",
    "trace",
    "traces",
    "adjacency",
    "neighbors",
    "offsets",
    "labels",
    "embedding",
    "embeddings",
    "frontier",
    "matrix",
}


@rule(
    "GRM501",
    "crossproc",
    "large object or closure pickled into a pool submission",
)
def large_capture_in_submission(context: ModuleContext) -> Iterator[Finding]:
    for site in context.sites("pool"):
        if site.form == "lambda":
            yield context.finding(
                site,
                "GRM501",
                f"lambda passed to `.{site.via}` — closures capture "
                "ambient objects by value into the worker pickle; "
                "submit a top-level function taking explicit keys",
            )
        elif site.name.lower() in _LARGE_OBJECT_NAMES:
            yield context.finding(
                site,
                "GRM501",
                f"`{site.name}` pickled by value into `.{site.via}` — pass "
                "its content address (dataset name, path, cache key) "
                "and reload inside the worker instead",
            )
