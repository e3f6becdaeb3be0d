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

import ast
from typing import Iterator

from repro.analysis._ast_util import is_pool_submission
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


def _large_name(node: ast.expr) -> str | None:
    if isinstance(node, ast.Name) and node.id.lower() in _LARGE_OBJECT_NAMES:
        return node.id
    if isinstance(node, ast.Attribute) and node.attr.lower() in _LARGE_OBJECT_NAMES:
        return node.attr
    return None


@rule(
    "GRM501",
    "crossproc",
    "large object or closure pickled into a pool submission",
)
def large_capture_in_submission(context: ModuleContext) -> Iterator[Finding]:
    for node in context.nodes:
        if not isinstance(node, ast.Call):
            continue
        func = node.func
        if not is_pool_submission(func):
            continue
        arguments = list(node.args) + [kw.value for kw in node.keywords]
        for arg in arguments:
            if isinstance(arg, ast.Lambda):
                yield context.finding(
                    arg,
                    "GRM501",
                    f"lambda passed to `.{func.attr}` — closures capture "
                    "ambient objects by value into the worker pickle; "
                    "submit a top-level function taking explicit keys",
                )
                continue
            name = _large_name(arg)
            if name is not None:
                yield context.finding(
                    arg,
                    "GRM501",
                    f"`{name}` pickled by value into `.{func.attr}` — pass "
                    "its content address (dataset name, path, cache key) "
                    "and reload inside the worker instead",
                )
