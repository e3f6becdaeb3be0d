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

from typing import Iterator

from repro.analysis._ast_util import BANNED_CLOCKS
from repro.analysis.core import Finding, ModuleContext, rule


@rule(
    "GRM101",
    "determinism",
    "wall-clock read (time.time / datetime.now) in modeled code",
)
def wall_clock_reads(context: ModuleContext) -> Iterator[Finding]:
    for site in context.sites("wallclock"):
        if site.name not in BANNED_CLOCKS:
            continue
        if site.form == "attribute":
            yield context.finding(
                site,
                "GRM101",
                f"wall-clock read `{site.name}` — results must be pure "
                "functions of the JobSpec; use time.perf_counter for "
                "host wall time (it stays out of fingerprints)",
            )
        elif site.form == "import" and site.name.startswith("time."):
            yield context.finding(
                site,
                "GRM101",
                f"`from time import {site.name[len('time.'):]}` imports a "
                "wall-clock read; use time.perf_counter",
            )


@rule(
    "GRM102",
    "determinism",
    "stdlib global RNG or seedless random.Random()",
)
def stdlib_global_rng(context: ModuleContext) -> Iterator[Finding]:
    for site in context.sites("rng"):
        module, _, attr = site.name.partition(".")
        if module != "random":
            continue
        if site.form == "call":
            if site.seeded is False:
                yield context.finding(
                    site,
                    "GRM102",
                    "`random.Random()` without a seed draws OS entropy; "
                    "pass an explicit seed (e.g. random.Random(spec.seed))",
                )
            elif site.seeded is None and "." not in attr:
                yield context.finding(
                    site,
                    "GRM102",
                    f"`{site.name}` uses the process-global RNG; construct a "
                    "seeded random.Random(seed) instead",
                )
        elif site.form == "import" and "." not in attr and attr != "Random":
            yield context.finding(
                site,
                "GRM102",
                f"`from random import {attr}` binds the "
                "process-global RNG; import Random and seed it",
            )


@rule(
    "GRM103",
    "determinism",
    "numpy legacy global RNG or seedless default_rng()",
)
def numpy_global_rng(context: ModuleContext) -> Iterator[Finding]:
    for site in context.sites("rng"):
        if site.form != "call" or site.name.startswith("random."):
            continue
        if site.seeded is None:
            yield context.finding(
                site,
                "GRM103",
                f"`{site.name}` uses numpy's hidden global RNG; use "
                "np.random.default_rng(seed)",
            )
        elif site.seeded is False and site.name.endswith(".default_rng"):
            yield context.finding(
                site,
                "GRM103",
                "`default_rng()` without a seed draws OS entropy; thread "
                "an explicit seed through",
            )
