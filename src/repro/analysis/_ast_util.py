"""AST helpers and the source catalogs shared by the rules and the summarizer.

Each catalog here has exactly one definition, and one classifier,
:func:`source_kind`, names the source kind of a dotted name against all
of them.  The summarizer calls it twice over: to record every source
site of a module (:class:`~repro.analysis.summary.SourceSite`, which the
module rules query) and to seed the taint atoms the project pass
propagates.  A module rule and the project pass that look for the
same thing (a clock read, an RNG draw, an environment read, a graph
producer, a pool submission) therefore consult the same table.
"""

from __future__ import annotations

import ast
from typing import TypeGuard

__all__ = [
    "BANNED_CLOCKS",
    "ENV_GETTER",
    "ENV_MAPPING",
    "ENV_READS",
    "GRAPH_BUILDERS",
    "HOST_CLOCKS",
    "SEEDABLE_RNGS",
    "call_name",
    "dotted_name",
    "is_pool_submission",
    "source_kind",
    "tail_name",
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

#: Every call under these prefixes draws from an RNG (GRM1001 taint).
_RNG_MODULES = ("random.", "np.random.", "numpy.random.")

#: Seedable generator constructors: ``random.Random`` and the numpy.random
#: factories (the sanctioned API; everything else on np.random is the
#: hidden global RNG).  GRM102/GRM103 skip them when seeded; the taint
#: pass still counts them as RNG sources.
SEEDABLE_RNGS = frozenset(
    {
        "random.Random",
        "np.random.default_rng",
        "np.random.Generator",
        "np.random.SeedSequence",
        "np.random.BitGenerator",
        "np.random.PCG64",
        "np.random.PCG64DXSM",
        "np.random.Philox",
        "np.random.MT19937",
        "np.random.SFC64",
        "numpy.random.default_rng",
        "numpy.random.Generator",
        "numpy.random.SeedSequence",
        "numpy.random.BitGenerator",
        "numpy.random.PCG64",
        "numpy.random.PCG64DXSM",
        "numpy.random.Philox",
        "numpy.random.MT19937",
        "numpy.random.SFC64",
    }
)

#: Environment reads: the ``os.environ`` mapping (read by referencing it)
#: and the ``os.getenv`` call.
ENV_MAPPING = "os.environ"
ENV_GETTER = "os.getenv"
ENV_READS = frozenset({ENV_MAPPING, ENV_GETTER})

#: Calls that build a whole graph outside the store's custody (GRM901).
GRAPH_BUILDERS = frozenset(
    {"load_edge_list", "parse_edge_list", "erdos_renyi", "powerlaw_cluster", "rmat"}
)
# Graph-sized producers that are only taint sources (GRM1003): the
# store-routed loaders.  Matched, like the builders, by final component.
_GRAPH_LOADERS = frozenset(
    {"import_edge_list", "load_labeled", "CSRGraph", "resolve_graph"}
)
# ``<store-ish>.open`` / ``<store-ish>.load``: the receiver must look like a
# graph store, because bare ``.open``/``.load`` are far too generic.
_STORE_METHODS = frozenset({"open", "load"})

# Method names that ship a callable and its arguments to a worker pool.
_SUBMIT_METHODS = frozenset({"submit", "map", "apply_async", "starmap", "imap"})
_POOL_HINTS = ("pool", "executor", "workers")


def source_kind(name: str | None) -> str | None:
    """The source kind a dotted name reads, else ``None``.

    One of ``"wallclock"``, ``"rng"``, ``"env"`` or ``"graph"`` — the
    taint kinds of :mod:`repro.analysis.taint`.  Clock, RNG and env names
    match as written; graph producers match by their final component
    (``datasets.load`` by its last two).
    """
    if not name:
        return None
    if name in HOST_CLOCKS:
        return "wallclock"
    if name.startswith(_RNG_MODULES):
        return "rng"
    if name in ENV_READS or name.startswith(ENV_MAPPING + "."):
        return "env"
    receiver, _, tail = name.rpartition(".")
    if (
        tail in GRAPH_BUILDERS
        or tail in _GRAPH_LOADERS
        or name == "datasets.load"
        or name.endswith(".datasets.load")
        or (tail in _STORE_METHODS and "store" in receiver.lower())
    ):
        return "graph"
    return None


def dotted_name(node: ast.AST) -> str | None:
    """``a.b.c`` for a Name/Attribute chain, else ``None``.

    This is purely syntactic — ``np.random`` and ``numpy.random`` are
    different strings; the catalogs above list the aliases they match.
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


def tail_name(node: ast.AST) -> str | None:
    """The last name of a Name/Attribute: ``c`` in ``c``, ``a.b.c``, ``f().c``."""
    if isinstance(node, ast.Attribute):
        return node.attr
    return node.id if isinstance(node, ast.Name) else None


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
