"""AST helpers and source catalogs shared by the rules and the summarizer.

Each catalog here has exactly one definition: a module rule and the
project pass that look for the same thing (a clock read, a pool
submission) consult the same table.
"""

from __future__ import annotations

import ast
from typing import TypeGuard

__all__ = [
    "BANNED_CLOCKS",
    "HOST_CLOCKS",
    "call_name",
    "dotted_name",
    "is_pool_submission",
]

#: Wall-clock reads GRM101 bans outright in modeled code.
BANNED_CLOCKS = frozenset(
    {
        "time.time",
        "time.time_ns",
        "datetime.now",
        "datetime.utcnow",
        "datetime.today",
        "datetime.datetime.now",
        "datetime.datetime.utcnow",
        "datetime.datetime.today",
        "date.today",
        "datetime.date.today",
    }
)

#: Every host-clock read.  GRM101 allows the monotonic timers (they time
#: the host, and ``wall_seconds`` stays out of fingerprints), but any of
#: these reaching a deterministic sink is GRM1001 taint.
HOST_CLOCKS = BANNED_CLOCKS | {
    "time.perf_counter",
    "time.perf_counter_ns",
    "time.monotonic",
    "time.monotonic_ns",
    "time.process_time",
}

# Method names that ship a callable and its arguments to a worker pool.
_SUBMIT_METHODS = frozenset({"submit", "map", "apply_async", "starmap", "imap"})
_POOL_HINTS = ("pool", "executor", "workers")


def dotted_name(node: ast.AST) -> str | None:
    """``a.b.c`` for a Name/Attribute chain, else ``None``.

    This is purely syntactic — ``np.random`` and ``numpy.random`` are
    different strings; rules list the aliases they care about.
    """
    parts: list[str] = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if isinstance(node, ast.Name):
        parts.append(node.id)
        return ".".join(reversed(parts))
    return None


def call_name(call: ast.Call) -> str | None:
    """Dotted name of a call's callee, else ``None``."""
    return dotted_name(call.func)


def _receiver_is_pool(func: ast.Attribute) -> bool:
    base = func.value
    while isinstance(base, ast.Attribute):
        if any(hint in base.attr.lower() for hint in _POOL_HINTS):
            return True
        base = base.value
    return isinstance(base, ast.Name) and any(
        hint in base.id.lower() for hint in _POOL_HINTS
    )


def is_pool_submission(func: ast.expr) -> TypeGuard[ast.Attribute]:
    """Whether a callee is ``<pool-ish receiver>.<submit method>``."""
    return (
        isinstance(func, ast.Attribute)
        and func.attr in _SUBMIT_METHODS
        and _receiver_is_pool(func)
    )
