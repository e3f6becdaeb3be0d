"""Determinism rules (GRM1xx).

Every simulation result and cached artifact must be a pure function of its
:class:`~repro.runtime.spec.JobSpec`: two runs of the same spec, in any
process, must be bit-identical.  One stray wall-clock read or unseeded RNG
anywhere in a modeled path silently breaks both the cycle model and the
content-addressed cache, so these rules ban the sources outright:

* ``GRM101`` — wall-clock reads (``time.time``, ``datetime.now``, ...).
  ``time.perf_counter`` is *allowed*: host wall time is an explicitly
  nondeterministic field (``JobResult.wall_seconds``) excluded from result
  fingerprints.
* ``GRM102`` — the stdlib global RNG (``random.random()`` and friends) and
  seedless ``random.Random()``.
* ``GRM103`` — NumPy's legacy global RNG (``np.random.rand`` etc.) and
  seedless ``np.random.default_rng()``.
"""

from __future__ import annotations

import ast
from typing import Iterator

from repro.analysis._ast_util import BANNED_CLOCKS, call_name, dotted_name
from repro.analysis.core import Finding, ModuleContext, rule

# numpy.random attributes that construct explicitly seedable generators (the
# sanctioned API); everything else on np.random is the hidden global RNG.
_NP_GENERATOR_FACTORIES = {
    "default_rng",
    "Generator",
    "SeedSequence",
    "BitGenerator",
    "PCG64",
    "PCG64DXSM",
    "Philox",
    "MT19937",
    "SFC64",
}


def _first_argument_is_seed(call: ast.Call) -> bool:
    """True when the call passes a non-``None`` seed (positionally or by name)."""
    for arg in call.args[:1]:
        if not (isinstance(arg, ast.Constant) and arg.value is None):
            return True
    for keyword in call.keywords:
        if keyword.arg == "seed" and not (
            isinstance(keyword.value, ast.Constant) and keyword.value.value is None
        ):
            return True
    return False


@rule(
    "GRM101",
    "determinism",
    "wall-clock read (time.time / datetime.now) in modeled code",
)
def wall_clock_reads(context: ModuleContext) -> Iterator[Finding]:
    for node in context.nodes:
        if isinstance(node, ast.Attribute):
            name = dotted_name(node)
            if name in BANNED_CLOCKS:
                yield context.finding(
                    node,
                    "GRM101",
                    f"wall-clock read `{name}` — results must be pure "
                    "functions of the JobSpec; use time.perf_counter for "
                    "host wall time (it stays out of fingerprints)",
                )
        elif isinstance(node, ast.ImportFrom):
            if node.module == "time":
                for alias in node.names:
                    if alias.name in ("time", "time_ns"):
                        yield context.finding(
                            node,
                            "GRM101",
                            f"`from time import {alias.name}` imports a "
                            "wall-clock read; use time.perf_counter",
                        )


@rule(
    "GRM102",
    "determinism",
    "stdlib global RNG or seedless random.Random()",
)
def stdlib_global_rng(context: ModuleContext) -> Iterator[Finding]:
    for node in context.nodes:
        if isinstance(node, ast.Call):
            name = call_name(node)
            if name is None or not name.startswith("random."):
                continue
            attr = name.split(".", 1)[1]
            if attr == "Random":
                if not _first_argument_is_seed(node):
                    yield context.finding(
                        node,
                        "GRM102",
                        "`random.Random()` without a seed draws OS entropy; "
                        "pass an explicit seed (e.g. random.Random(spec.seed))",
                    )
            elif "." not in attr:
                yield context.finding(
                    node,
                    "GRM102",
                    f"`{name}` uses the process-global RNG; construct a "
                    "seeded random.Random(seed) instead",
                )
        elif isinstance(node, ast.ImportFrom) and node.module == "random":
            for alias in node.names:
                if alias.name != "Random":
                    yield context.finding(
                        node,
                        "GRM102",
                        f"`from random import {alias.name}` binds the "
                        "process-global RNG; import Random and seed it",
                    )


@rule(
    "GRM103",
    "determinism",
    "numpy legacy global RNG or seedless default_rng()",
)
def numpy_global_rng(context: ModuleContext) -> Iterator[Finding]:
    for call in context.nodes:
        if not isinstance(call, ast.Call):
            continue
        name = call_name(call)
        if name is None:
            continue
        for prefix in ("np.random.", "numpy.random."):
            if name.startswith(prefix):
                attr = name[len(prefix):]
                break
        else:
            continue
        if attr not in _NP_GENERATOR_FACTORIES:
            yield context.finding(
                call,
                "GRM103",
                f"`{name}` uses numpy's hidden global RNG; use "
                "np.random.default_rng(seed)",
            )
        elif attr == "default_rng" and not _first_argument_is_seed(call):
            yield context.finding(
                call,
                "GRM103",
                "`default_rng()` without a seed draws OS entropy; thread "
                "an explicit seed through",
            )
