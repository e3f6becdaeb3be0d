"""Built-in GRAMER rule families.

Importing this package registers every rule with the engine registry in
:mod:`repro.analysis.core`.  The rules that look for a source — a clock,
an RNG, an environment read, a graph producer, a pool payload — query
the module's source sites (``context.sites(kind)``), whose
catalogs live once in :mod:`repro.analysis._ast_util`; GRM203 tests a
memoized scope's nodes against the same environment catalog, and the
project pass taints from the same catalogs.  The other module rules
iterate ``context.nodes``.  Families and their ID blocks:

* ``determinism`` (GRM1xx) — wall-clock reads and unseeded RNGs;
* ``purity`` (GRM2xx) — environment reads, mutable module globals, and
  filesystem access inside memoized code;
* ``immutability`` (GRM3xx) — non-frozen spec/config dataclasses and
  post-construction mutation of spec objects;
* ``units`` (GRM4xx) — arithmetic mixing unit-suffixed quantities and
  float equality on measured quantities;
* ``crossproc`` (GRM5xx) — large objects or closures shipped through
  process-pool submissions by value;
* ``observability`` (GRM6xx) — bare ``print()`` bypassing the obs layer;
* ``engine_selection`` (GRM7xx) — direct ``GramerSimulator`` construction
  bypassing :func:`repro.accel.sim.make_simulator`, and exact equality
  asserted on timing fields in turbo context (kept only for the
  benchmark's frozen findings);
* ``resilience`` (GRM8xx) — broad exception handlers that swallow errors
  without re-raise or logging;
* ``graph_store`` (GRM9xx) — graphs loaded or generated outside the
  content-addressed :class:`repro.graph.store.GraphStore` path;
* ``meta`` (GRM0xx) — hygiene of the checker's own annotations (unused
  suppressions);
* ``project`` (GRM10xx) — cross-file flows over the whole-program pass:
  interprocedural determinism taint, cache-key completeness along backend
  call graphs, and pool-submission reachability.
"""

from . import (  # noqa: F401  (import-for-registration)
    crossproc,
    determinism,
    engine_selection,
    graph_store,
    immutability,
    meta,
    observability,
    project,
    purity,
    resilience,
    units,
)
