"""Command-line interface.

::

    gramer mine --graph edges.txt --app 3-CF
    gramer mine --dataset mico --app 4-MC --scale small
    gramer simulate --dataset p2p --app 5-CF --slots 16
    gramer experiment --only table3 fig12 --scale small --jobs 4
    gramer sweep --apps 3-CF 4-MC --datasets citeseer p2p --jobs 4
    gramer sweep --apps 3-CF --datasets citeseer --ledger run.jsonl
    gramer sweep --apps 3-CF --datasets citeseer --resume run.jsonl
    gramer sweep --apps 3-CF --datasets citeseer --ledger run.jsonl \\
                 --jobs 3 --seal run.manifest.json
    gramer worker --apps 3-CF --datasets citeseer \\
                  --ledger run.jsonl --claims run.jsonl.claims
    gramer manifest seal run.manifest.json --apps 3-CF --datasets citeseer
    gramer manifest verify run.manifest.json
    gramer trace 3-CF citeseer --out trace.json
    gramer profile --dataset citeseer --app 3-CF --scale tiny
    gramer datasets
    gramer graph build --graph edges.txt
    gramer graph ls
    gramer graph verify

(``gramer`` is the console script; ``python -m repro.cli`` works too.)
"""

from __future__ import annotations

import argparse
import time

from repro.accel.energy import gramer_energy
from repro.accel.sim import make_simulator
from repro.graph.stats import degree_stats
from repro.mining.apps import make_app
from repro.mining.engine import run_dfs
from repro.mining.patterns import pattern_name

__all__ = ["main"]


def _resolve_graph(args, needs_labels: bool):
    from repro.experiments import datasets

    if args.graph:
        # Through the store: the file is parsed at most once per content,
        # then every later run memory-maps the materialized artifact.
        from repro.graph.store import default_graph_store

        store = default_graph_store()
        return store.open(store.import_edge_list(args.graph))
    if args.dataset:
        if needs_labels:
            return datasets.load_labeled(args.dataset, args.scale)
        return datasets.load(args.dataset, args.scale)
    raise SystemExit("specify --graph FILE or --dataset NAME")


def _print_result(result) -> None:
    print("embeddings by size:")
    for size, count in sorted(result.embeddings_by_size.items()):
        print(f"  {size}: {count:,}")
    for size, patterns in sorted(result.patterns_by_size.items()):
        print(f"patterns at size {size}:")
        for code, count in sorted(
            patterns.items(), key=lambda kv: -kv[1]
        )[:12]:
            print(f"  {pattern_name(code):30s} {count:>12,}")
    if result.summary:
        print("summary:", result.summary)


def _cmd_mine(args) -> None:
    app = make_app(args.app)
    graph = _resolve_graph(args, app.needs_labels)
    print(degree_stats(graph).describe())
    start = time.perf_counter()
    run_dfs(graph, app)
    print(f"mined in {time.perf_counter() - start:.2f}s "
          f"({app.candidates_checked:,} candidates checked)")
    _print_result(app.result())


def _cmd_simulate(args) -> None:
    from repro.accel.config import GramerConfig

    app = make_app(args.app)
    graph = _resolve_graph(args, app.needs_labels)
    data_entries = graph.num_vertices + len(graph.neighbors)
    config = GramerConfig(
        num_pus=args.pus,
        slots_per_pu=args.slots,
        onchip_entries=args.onchip_entries or max(64, data_entries // 4),
        work_stealing=not args.no_stealing,
    )
    instrument = None
    if args.trace:
        from repro.obs import SimInstrument

        instrument = SimInstrument(window_cycles=args.trace_window)
    print(degree_stats(graph).describe())
    start = time.perf_counter()
    result = make_simulator(graph, config, instrument=instrument).run(app)
    stats = result.stats
    print(
        f"simulated in {time.perf_counter() - start:.2f}s host time\n"
        f"cycles {result.cycles:,} -> {result.seconds * 1e3:.3f} ms "
        f"@ {config.clock_mhz:.0f} MHz\n"
        f"hit ratios: vertex {stats.vertex_hit_ratio:.3f}, "
        f"edge {stats.edge_hit_ratio:.3f}; "
        f"DRAM {stats.dram_accesses:,}; steals {stats.steals:,}\n"
        f"on-chip energy {gramer_energy(stats, config).total_j * 1e3:.3f} mJ"
    )
    if instrument is not None:
        tracer = instrument.tracer
        path = tracer.write_chrome(args.trace)
        print(
            f"wrote {path} ({len(tracer)} events, "
            f"categories: {', '.join(sorted(tracer.categories()))})"
        )
    _print_result(result.mining)


def _cmd_experiment(args) -> None:
    from repro.experiments.run_all import main as run_all_main

    forwarded = ["--scale", args.scale, "--out", args.out]
    if args.only:
        forwarded += ["--only", *args.only]
    if args.jobs is not None:
        forwarded += ["--jobs", str(args.jobs)]
    if args.no_cache:
        forwarded += ["--no-cache"]
    run_all_main(forwarded)


#: ``gramer sweep`` exit codes (docs/resilience.md): 0 = every cell ok,
#: 3 = partial (some cells failed, some succeeded), 1 = total failure.
EXIT_OK = 0
EXIT_TOTAL_FAILURE = 1
EXIT_PARTIAL = 3
EXIT_INTERRUPTED = 130


def _sweep_specs(args) -> list:
    """Build the apps × datasets × backends grid shared by ``sweep``,
    ``worker``, and ``manifest`` — all three must derive the *same*
    spec list (and therefore the same spec digests) from the same flags.
    """
    from repro.experiments import datasets
    from repro.experiments.harness import cell_jobspec
    from repro.runtime import backend_names

    backends = args.backends or ["gramer", "fractal", "rstream"]
    known = backend_names()
    for backend in backends:
        if backend not in known:
            raise SystemExit(
                f"unknown backend {backend!r}; registered: {known}"
            )
    graphs = args.datasets or list(datasets.DATASET_ORDER)
    for name in graphs:
        if name not in datasets.DATASETS:
            raise SystemExit(
                f"unknown dataset {name!r}; see `gramer datasets`"
            )
    return [
        cell_jobspec(backend, app, graph, args.scale)
        for app in args.apps
        for graph in graphs
        for backend in backends
    ]


def _seal_after_sweep(args, specs) -> None:
    """Handle ``sweep --seal PATH``: manifest the completed grid."""
    from repro.runtime import ManifestError, default_cache, seal_manifest

    try:
        manifest = seal_manifest(args.seal, specs, default_cache())
    except ManifestError as exc:
        raise SystemExit(f"seal failed: {exc}") from None
    print(
        f"sealed {args.seal}: {len(manifest.leaves)} leaves, "
        f"root {manifest.root}"
    )


def _cmd_sweep(args) -> None:
    """Cross-product sweep of apps × datasets × backends via the runtime."""
    from repro.experiments.harness import (
        format_seconds,
        format_table,
        save_results,
    )
    from repro.runtime import Executor, RetryPolicy, RunLedger

    specs = _sweep_specs(args)
    tracer = None
    if args.trace:
        from repro.obs import Tracer

        tracer = Tracer()

    access_traces = None
    if args.access_report:
        if args.resume:
            raise SystemExit(
                "--access-report re-runs every cell traced (inline, cache "
                "bypassed) and cannot be combined with --resume"
            )
        from repro.obs import AccessTraceSet

        access_traces = AccessTraceSet()

    # --resume L is --ledger L: the run boundary decides what re-runs.
    if args.ledger and args.resume and args.ledger != args.resume:
        raise SystemExit("--resume LEDGER appends to LEDGER; drop --ledger")
    ledger_path = args.ledger or args.resume
    ledger = RunLedger(ledger_path) if ledger_path else None
    executor = Executor(
        jobs=args.jobs,
        timeout_s=args.timeout,
        use_cache=not args.no_cache,
        tracer=tracer,
        retry=RetryPolicy(max_attempts=max(1, args.retries)),
        ledger=ledger,
        lease_s=args.lease,
    )
    start = time.perf_counter()
    try:
        results = executor.run(specs, access_traces=access_traces)
    except KeyboardInterrupt:
        wall = time.perf_counter() - start
        print(f"\ninterrupted after {wall:.2f}s; "
              f"completed cells are durable in the artifact cache"
              + (f" and {ledger_path}" if ledger_path else ""))
        if ledger_path:
            print(f"resume with: gramer sweep ... --resume {ledger_path}")
        raise SystemExit(EXIT_INTERRUPTED) from None
    finally:
        if ledger is not None:
            ledger.close()
    wall = time.perf_counter() - start

    rows = []
    for result in results:
        spec = result.spec
        if result.ok:
            if result.detail.get("resumed"):
                status = "resumed"
            else:
                status = "cached" if result.cached else "ok"
            if result.retries:
                status += f" ({result.retries} retries)"
        else:
            status = f"failed: {result.error}"
        rows.append([
            spec.app,
            spec.graph_name,
            result.system,
            format_seconds(result.seconds),
            f"{result.energy_j * 1e3:.3f}mJ" if result.energy_j else "-",
            status,
        ])
    print(format_table(
        ["App", "Graph", "System", "Modeled", "Energy", "Status"], rows
    ))
    cached = sum(1 for r in results if r.cached)
    failed = sum(1 for r in results if not r.ok)
    retried = sum(r.retries for r in results)
    print(
        f"{len(results)} jobs ({cached} cached/resumed, {failed} failed, "
        f"{retried} retries) in {wall:.2f}s with {executor.jobs} worker(s)"
    )
    slowest = sorted(results, key=lambda r: -r.wall_seconds)[:3]
    if slowest and slowest[0].wall_seconds > 0:
        print("slowest jobs:")
        for r in slowest:
            status = "cached" if r.cached else ("ok" if r.ok else "failed")
            print(
                f"  {r.wall_seconds:8.3f}s  {r.spec.label():40s} [{status}]"
            )
    if tracer is not None:
        path = tracer.write_chrome(args.trace)
        print(f"wrote {path} ({len(tracer)} executor events)")
    if access_traces is not None:
        from pathlib import Path

        from repro.obs import (
            aggregate_reports,
            analyze_trace,
            render_access_table_markdown,
        )

        items = [
            (label, analyze_trace(trace))
            for label, trace in access_traces
            if len(trace)  # backends without a traced path stay empty
        ]
        Path(args.access_report).write_text(
            render_access_table_markdown(aggregate_reports(items)),
            encoding="utf-8",
        )
        print(f"wrote {args.access_report} ({len(items)} traced cell(s))")
    if args.out:
        save_results(
            {
                "scale": args.scale,
                "jobs": executor.jobs,
                "results": [
                    {
                        "backend": r.spec.backend,
                        "app": r.spec.app,
                        "graph": r.spec.graph_name,
                        "scale": r.spec.scale,
                        "ok": r.ok,
                        "seconds": r.seconds,
                        "energy_j": r.energy_j,
                        "wall_seconds": r.wall_seconds,
                        "cached": r.cached,
                        "retries": r.retries,
                        "error": r.error,
                        "detail": r.detail,
                    }
                    for r in results
                ],
            },
            args.out,
        )
        print(f"wrote {args.out}")
    if failed:
        if args.seal:
            print("seal skipped: a manifest only attests to a fully-ok grid")
        raise SystemExit(
            EXIT_TOTAL_FAILURE if failed == len(results) else EXIT_PARTIAL
        )
    if args.seal:
        if args.no_cache:
            raise SystemExit(
                "--seal needs the artifact cache (manifests bind cached "
                "artifact checksums); drop --no-cache"
            )
        _seal_after_sweep(args, specs)


def _cmd_worker(args) -> None:
    """Join a distributed sweep as one claim-coordinated worker."""
    import os
    import socket

    from repro.runtime import RetryPolicy, SweepWorker

    specs = _sweep_specs(args)
    worker_id = args.worker_id or f"{socket.gethostname()}-{os.getpid()}"
    worker = SweepWorker(
        specs,
        ledger_path=args.ledger,
        claims_root=args.claims,
        worker_id=worker_id,
        lease_s=args.lease,
        retry=RetryPolicy(max_attempts=max(1, args.retries)),
    )
    try:
        summary = worker.run()
    except KeyboardInterrupt:
        print(
            f"\nworker {worker_id} interrupted; its claims expire after "
            f"{args.lease:.0f}s and siblings take the cells over"
        )
        raise SystemExit(EXIT_INTERRUPTED) from None
    print(
        f"worker {worker_id}: computed {len(summary.computed)}, "
        f"failed {len(summary.failed)}, takeovers {summary.takeovers}, "
        f"lost leases {summary.lost_leases} in {summary.wall_seconds:.2f}s"
    )
    if summary.failed:
        raise SystemExit(EXIT_PARTIAL)


def _cmd_manifest_seal(args) -> None:
    """Seal a Merkle manifest over a completed grid's artifacts."""
    from repro.runtime import ManifestError, default_cache, seal_manifest

    specs = _sweep_specs(args)
    try:
        manifest = seal_manifest(args.path, specs, default_cache())
    except ManifestError as exc:
        raise SystemExit(str(exc)) from None
    print(
        f"sealed {args.path}: {len(manifest.leaves)} leaves, "
        f"root {manifest.root}"
    )


def _cmd_manifest_verify(args) -> None:
    """Verify a sealed manifest: Merkle root + per-artifact integrity."""
    from repro.runtime import (
        ManifestError,
        default_cache,
        load_manifest,
        verify_manifest,
    )

    try:
        manifest = load_manifest(args.path)
    except ManifestError as exc:
        raise SystemExit(str(exc)) from None
    specs = _sweep_specs(args) if args.apps else None
    report = verify_manifest(manifest, default_cache(), specs)
    print(report.summary())
    if not report.ok:
        if report.corrupt:
            print(
                "corrupt artifacts were quarantined; re-run the sweep to "
                "recompute them, then verify again"
            )
        raise SystemExit(EXIT_TOTAL_FAILURE)


def _memprofile_payload(
    backend: str, args, cache, channel: dict[str, int]
) -> dict:
    """One backend's locality report, content-addressed in the cache.

    The report is keyed by the spec's cache key plus the channel
    parameters, so re-profiling an unchanged cell is a cache hit; the
    traced run itself always bypasses the job cache (a trace only exists
    if the run actually executes).
    """
    from repro.experiments.harness import cell_jobspec
    from repro.obs import AccessTrace, analyze_trace
    from repro.runtime import run_spec

    spec = cell_jobspec(backend, args.app, args.dataset, args.scale)
    key = {"spec": spec.cache_key(), "channel": channel}

    def produce() -> dict:
        trace = AccessTrace(
            meta={
                "backend": backend,
                "app": args.app,
                "graph": args.dataset,
                "scale": args.scale,
            }
        )
        result = run_spec(
            spec, use_cache=False, cache=cache, access_trace=trace
        )
        if not result.ok:
            raise SystemExit(f"{spec.label()} failed: {result.error}")
        return analyze_trace(trace, **channel)

    if args.no_cache:
        return produce()
    return cache.get_or_create("obs/access", key, produce)


def _cmd_memprofile(args) -> None:
    """Access-traced runs + locality report (docs/access-patterns.md)."""
    import json

    from repro.experiments import datasets
    from repro.obs import (
        compare_reports,
        render_memprofile,
        render_memprofile_compare,
        render_memprofile_markdown,
    )
    from repro.runtime import backend_names, default_cache

    if args.graph:
        raise SystemExit(
            "memprofile needs a registered dataset (--dataset NAME); "
            "ad-hoc --graph files have no stable cache identity"
        )
    if not args.dataset:
        raise SystemExit("specify --dataset NAME (see `gramer datasets`)")
    if args.dataset not in datasets.DATASETS:
        raise SystemExit(
            f"unknown dataset {args.dataset!r}; see `gramer datasets`"
        )
    backends = list(args.compare) if args.compare else args.backends
    known = backend_names()
    for backend in backends:
        if backend not in known:
            raise SystemExit(
                f"unknown backend {backend!r}; registered: {known}"
            )
    channel = {
        "row_bytes": args.row_bytes,
        "streams": args.streams,
        "line_bytes": args.line_bytes,
    }
    cache = default_cache()
    reports = {
        backend: _memprofile_payload(backend, args, cache, channel)
        for backend in backends
    }
    if args.compare:
        a, b = args.compare
        text = render_memprofile_compare(
            compare_reports(a, reports[a], b, reports[b])
        )
    elif args.format == "json":
        text = json.dumps(reports, indent=2, sort_keys=True)
    elif args.format == "markdown":
        text = render_memprofile_markdown(reports)
    else:
        text = render_memprofile(reports)
    if args.out:
        from pathlib import Path

        Path(args.out).write_text(text + "\n", encoding="utf-8")
        print(f"wrote {args.out}")
    else:
        print(text)


def _cmd_trace(args) -> None:
    """Traced run of one (app, dataset) cell; writes Chrome-trace JSON."""
    from repro.experiments import datasets
    from repro.experiments.harness import cell_jobspec
    from repro.obs import SimInstrument, Tracer
    from repro.runtime import Executor

    if args.dataset not in datasets.DATASETS:
        raise SystemExit(
            f"unknown dataset {args.dataset!r}; see `gramer datasets`"
        )
    tracer = Tracer()
    instrument = SimInstrument(tracer=tracer, window_cycles=args.window)
    spec = cell_jobspec("gramer", args.app, args.dataset, args.scale)
    executor = Executor(jobs=1, use_cache=False, tracer=tracer)
    result = executor.run([spec], instrument=instrument)[0]
    if not result.ok:
        raise SystemExit(f"trace run failed: {result.error}")
    path = tracer.write_chrome(args.out)
    print(
        f"{spec.label()}: {result.detail.get('cycles', 0):,} cycles, "
        f"{len(instrument.sampler.windows)} timeline window(s), "
        f"{len(instrument.steal_latencies)} steal wait(s)"
    )
    print(
        f"wrote {path} ({len(tracer)} events, "
        f"categories: {', '.join(sorted(tracer.categories()))})"
    )
    if args.jsonl:
        print(f"wrote {tracer.write_jsonl(args.jsonl)}")
    print("open in https://ui.perfetto.dev or chrome://tracing")


def _cmd_profile(args) -> None:
    """Instrumented run + text profile report (docs/observability.md)."""
    from repro.accel.config import GramerConfig
    from repro.obs import MetricsRegistry, SimInstrument, render_profile

    app = make_app(args.app)
    graph = _resolve_graph(args, app.needs_labels)
    data_entries = graph.num_vertices + len(graph.neighbors)
    config = GramerConfig(
        onchip_entries=args.onchip_entries or max(64, data_entries // 4),
    )
    registry = MetricsRegistry()
    instrument = SimInstrument(
        window_cycles=args.window, registry=registry
    )
    # After the run ``sim.hierarchy`` is the LAMH counts report, whose
    # publish/pressure views the report below reads.
    sim = make_simulator(graph, config, instrument=instrument)
    result = sim.run(app)
    sim.hierarchy.publish(registry)
    print(
        render_profile(
            result.stats,
            instrument=instrument,
            pressure=sim.hierarchy.low_cache_pressure(),
        )
    )
    if args.metrics:
        print()
        print(registry.render_text())


def _changed_python_files(ref: str) -> "list[Path]":
    """Python files modified vs ``ref`` plus untracked ones (for --changed)."""
    import subprocess
    from pathlib import Path

    def lines(*cmd: str) -> list[str]:
        proc = subprocess.run(
            cmd, capture_output=True, text=True, check=False
        )
        if proc.returncode != 0:
            message = proc.stderr.strip() or f"{' '.join(cmd)} failed"
            raise SystemExit(f"gramer check --changed: {message}")
        return proc.stdout.splitlines()

    # Git emits repo-root-relative names; anchor everything there so the
    # command works (and matches check_paths findings) from any CWD.
    toplevel = lines("git", "rev-parse", "--show-toplevel")
    if not toplevel or not toplevel[0].strip():
        raise SystemExit("gramer check --changed: not inside a git repository")
    root = Path(toplevel[0].strip())
    names = lines(
        "git", "-C", str(root), "diff", "--name-only", "--diff-filter=d",
        ref, "--", "*.py",
    )
    names += lines(
        "git", "-C", str(root), "ls-files", "--others", "--exclude-standard",
        "--", "*.py",
    )
    return sorted(
        {
            root / name
            for name in (n.strip() for n in names)
            if name and (root / name).is_file()
        }
    )


def _cmd_check(args) -> None:
    """Run the repo's static-analysis rules (see docs/static-analysis.md)."""
    import sys

    from repro.analysis import (
        RuleError,
        check_paths,
        format_finding,
        get_rule,
        select_rules,
    )

    if args.list_rules:
        for rule_ in select_rules(args.select):
            print(f"{rule_.rule_id}  [{rule_.family:13s}] {rule_.summary}")
        return
    if args.explain:
        try:
            rule_ = get_rule(args.explain.upper())
        except RuleError as exc:
            raise SystemExit(f"gramer check: {exc}") from None
        print(f"{rule_.rule_id}  [{rule_.family}]  {rule_.summary}")
        if rule_.explain:
            print()
            print(rule_.explain)
        return
    paths = args.paths or ["src"]
    only = None
    if args.changed is not None:
        only = _changed_python_files(args.changed)
        if not only:
            print(
                f"gramer check: clean (no Python files changed vs {args.changed})"
            )
            return
    try:
        findings = check_paths(
            paths,
            select=args.select,
            project=not args.no_project,
            use_cache=not args.no_cache,
            jobs=args.jobs,
            only=only,
        )
    except (RuleError, FileNotFoundError) as exc:
        raise SystemExit(f"gramer check: {exc}") from None
    if args.format == "sarif":
        from repro.analysis.sarif import sarif_json

        print(sarif_json(findings, select_rules(args.select)))
        summary_out = sys.stderr
    else:
        for finding in findings:
            print(format_finding(finding, style=args.format))
        summary_out = sys.stdout
    if findings:
        families = sorted({f.rule_id for f in findings})
        print(
            f"gramer check: {len(findings)} finding(s) "
            f"[{', '.join(families)}]",
            file=summary_out,
        )
        raise SystemExit(1)
    print("gramer check: clean", file=summary_out)


def _match_digest(store, token: str) -> str:
    """Resolve a full digest or unique prefix against the store."""
    digests = store.digests()
    if token in digests:
        return token
    matches = [d for d in digests if d.startswith(token)]
    if len(matches) == 1:
        return matches[0]
    if not matches:
        raise SystemExit(f"no graph artifact matches {token!r}")
    raise SystemExit(
        f"ambiguous digest prefix {token!r} "
        f"({len(matches)} matches; use more characters)"
    )


def _cmd_graph_build(args) -> None:
    """Materialize an edge list or dataset proxy into the graph store."""
    from repro.experiments import datasets
    from repro.graph.store import default_graph_store

    store = default_graph_store()
    start = time.perf_counter()
    if args.graph:
        digest = store.import_edge_list(args.graph)
    elif args.dataset:
        loader = datasets.load_labeled if args.labeled else datasets.load
        digest = loader(args.dataset, args.scale).content_digest()
    else:
        raise SystemExit("specify --graph FILE or --dataset NAME")
    info = store.info(digest)
    print(digest)
    print(
        f"  |V|={info['num_vertices']:,} |E|={info['num_edges']:,} "
        f"({info['bytes']:,} bytes) in {time.perf_counter() - start:.2f}s"
    )
    print(f"  {info['path']}")


def _cmd_graph_info(args) -> None:
    from repro.graph.store import GraphArtifactError, default_graph_store

    store = default_graph_store()
    digest = _match_digest(store, args.digest)
    try:
        info = store.info(digest)
    except GraphArtifactError as exc:
        raise SystemExit(f"gramer graph info: {exc}") from None
    for key in ("digest", "num_vertices", "num_edges", "bytes",
                "format_version", "path"):
        print(f"{key:15s} {info[key]}")


def _cmd_graph_verify(args) -> None:
    """Re-checksum artifacts from disk; quarantine and report failures."""
    from repro.graph.store import GraphArtifactError, default_graph_store

    store = default_graph_store()
    targets = args.digests or store.digests()
    bad = 0
    for token in targets:
        digest = _match_digest(store, token)
        try:
            info = store.verify(digest)
        except GraphArtifactError as exc:
            bad += 1
            print(f"CORRUPT  {digest[:16]}...  {exc}")
        else:
            print(
                f"ok       {digest[:16]}...  "
                f"|V|={info['num_vertices']:,} |E|={info['num_edges']:,}"
            )
    print(f"{len(targets)} artifact(s) checked, {bad} quarantined")
    if bad:
        raise SystemExit(1)


def _cmd_graph_ls(args) -> None:
    from repro.graph.store import GraphArtifactError, default_graph_store

    store = default_graph_store()
    digests = store.digests()
    for digest in digests:
        try:
            info = store.info(digest)
        except GraphArtifactError as exc:
            print(f"{digest[:16]}...  unreadable: {exc}")
            continue
        print(
            f"{digest[:16]}...  |V|={info['num_vertices']:>9,} "
            f"|E|={info['num_edges']:>11,}  {info['bytes']:>12,} bytes"
        )
    print(f"{len(digests)} artifact(s) under {store.root}")


def _cmd_datasets(args) -> None:
    from repro.experiments import datasets

    for name in datasets.DATASET_ORDER:
        spec = datasets.DATASETS[name]
        graph = datasets.load(name, args.scale)
        print(
            f"{name:9s} ({spec.category:6s}) proxy: "
            f"{degree_stats(graph).describe()}  "
            f"[paper: |V|={spec.paper_vertices:,} |E|={spec.paper_edges:,}]"
        )


def main(argv: list[str] | None = None) -> None:
    """Entry point for the ``gramer`` console script."""
    parser = argparse.ArgumentParser(
        prog="gramer", description="GRAMER graph-mining accelerator reproduction"
    )
    sub = parser.add_subparsers(dest="command", required=True)

    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--graph", help="edge-list file to mine")
    common.add_argument("--dataset", help="proxy dataset name (see `datasets`)")
    common.add_argument("--scale", default="small",
                        choices=["tiny", "small", "full"])
    common.add_argument("--app", default="3-CF",
                        help="k-CF, k-MC, or FSM-<threshold>")

    mine = sub.add_parser("mine", parents=[common],
                          help="software mining (exact results)")
    mine.set_defaults(func=_cmd_mine)

    simulate = sub.add_parser("simulate", parents=[common],
                              help="cycle-level GRAMER simulation")
    simulate.add_argument("--pus", type=int, default=8)
    simulate.add_argument("--slots", type=int, default=16)
    simulate.add_argument("--onchip-entries", type=int, default=None)
    simulate.add_argument("--no-stealing", action="store_true")
    simulate.add_argument("--trace", default=None, metavar="PATH",
                          help="write a Chrome-trace of the run to PATH")
    simulate.add_argument("--trace-window", type=int, default=1024,
                          help="timeline window width in cycles")
    simulate.set_defaults(func=_cmd_simulate)

    experiment = sub.add_parser("experiment",
                                help="reproduce paper tables/figures")
    experiment.add_argument("--scale", default="small",
                            choices=["tiny", "small", "full"])
    experiment.add_argument("--out", default="results")
    experiment.add_argument("--only", nargs="*", default=None)
    experiment.add_argument("--jobs", type=int, default=None,
                            help="sweep workers for the cell grid "
                                 "(default: $GRAMER_JOBS or 1)")
    experiment.add_argument("--no-cache", action="store_true",
                            help="recompute cells instead of reusing cached results")
    experiment.set_defaults(func=_cmd_experiment)

    sweep = sub.add_parser(
        "sweep",
        help="run a cross-product of apps × datasets × backends",
    )
    sweep.add_argument("--apps", nargs="+", required=True,
                       help="applications, e.g. 3-CF 4-MC FSM-100")
    sweep.add_argument("--datasets", nargs="*", default=None,
                       help="proxy datasets (default: all seven)")
    sweep.add_argument("--backends", nargs="*", default=None,
                       help="backends (default: gramer fractal rstream)")
    sweep.add_argument("--scale", default="small",
                       choices=["tiny", "small", "full"])
    sweep.add_argument("--jobs", type=int, default=None,
                       help="claim/lease sweep workers to fork "
                            "(default: $GRAMER_JOBS or 1)")
    sweep.add_argument("--timeout", type=float, default=None,
                       help="per-job timeout in seconds (with --jobs N > 1)")
    sweep.add_argument("--retries", type=int, default=3,
                       help="max attempts per job for transient failures "
                            "(1 disables retries; default 3)")
    sweep.add_argument("--ledger", default=None, metavar="PATH",
                       help="append a crash-safe JSONL run ledger to PATH "
                            "(docs/resilience.md)")
    sweep.add_argument("--resume", default=None, metavar="LEDGER",
                       help="same as --ledger LEDGER: skip cells it "
                            "records as ok, re-run failed/interrupted ones")
    sweep.add_argument("--no-cache", action="store_true",
                       help="recompute cells instead of reusing cached results")
    sweep.add_argument("--out", default=None,
                       help="write structured sweep results to this JSON file")
    sweep.add_argument("--access-report", default=None, metavar="PATH",
                       help="re-run every cell with the memory-access "
                            "observatory attached and write a markdown "
                            "locality table (docs/access-patterns.md)")
    sweep.add_argument("--trace", default=None, metavar="PATH",
                       help="write a Chrome-trace of job lifecycle to PATH")
    sweep.add_argument("--lease", type=float, default=30.0, metavar="S",
                       help="claim lease TTL in seconds for the sweep "
                            "workers (claims live at <ledger>.claims); an "
                            "unrefreshed claim is taken over after this "
                            "long (default: 30)")
    sweep.add_argument("--seal", default=None, metavar="PATH",
                       help="after a fully-ok sweep, seal a verifiable "
                            "Merkle manifest of the grid's artifacts "
                            "to PATH")
    sweep.set_defaults(func=_cmd_sweep)

    workerp = sub.add_parser(
        "worker",
        help="join a distributed sweep: claim grid cells from a shared "
             "ledger, with straggler takeover (docs/resilience.md)",
    )
    workerp.add_argument("--apps", nargs="+", required=True,
                         help="applications, e.g. 3-CF 4-MC FSM-100")
    workerp.add_argument("--datasets", nargs="*", default=None,
                         help="proxy datasets (default: all seven)")
    workerp.add_argument("--backends", nargs="*", default=None,
                         help="backends (default: gramer fractal rstream)")
    workerp.add_argument("--scale", default="small",
                         choices=["tiny", "small", "full"])
    workerp.add_argument("--ledger", required=True, metavar="PATH",
                         help="the sweep's shared JSONL journal")
    workerp.add_argument("--claims", required=True, metavar="DIR",
                         help="the sweep's shared claim directory")
    workerp.add_argument("--lease", type=float, default=30.0, metavar="S",
                         help="claim lease TTL in seconds (default: 30); "
                              "must match the other workers'")
    workerp.add_argument("--retries", type=int, default=3,
                         help="max attempts per job for transient failures")
    workerp.add_argument("--worker-id", default=None,
                         help="stable identity in claim/ledger records "
                              "(default: <hostname>-<pid>)")
    workerp.set_defaults(func=_cmd_worker)

    manifest_p = sub.add_parser(
        "manifest",
        help="Merkle-manifested sweep artifacts: seal a completed grid, "
             "verify completeness+integrity later (docs/resilience.md)",
    )
    manifest_sub = manifest_p.add_subparsers(
        dest="manifest_command", required=True
    )

    m_common = argparse.ArgumentParser(add_help=False)
    m_common.add_argument("--datasets", nargs="*", default=None,
                          help="proxy datasets (default: all seven)")
    m_common.add_argument("--backends", nargs="*", default=None,
                          help="backends (default: gramer fractal rstream)")
    m_common.add_argument("--scale", default="small",
                          choices=["tiny", "small", "full"])

    m_seal = manifest_sub.add_parser(
        "seal", parents=[m_common],
        help="bind every grid cell's cached artifact checksum into one "
             "root-hashed manifest file",
    )
    m_seal.add_argument("path", help="manifest JSON output path")
    m_seal.add_argument("--apps", nargs="+", required=True,
                        help="applications, e.g. 3-CF 4-MC FSM-100")
    m_seal.set_defaults(func=_cmd_manifest_seal)

    m_verify = manifest_sub.add_parser(
        "verify", parents=[m_common],
        help="recompute the Merkle root and re-checksum every manifested "
             "artifact (corrupt ones are quarantined and named)",
    )
    m_verify.add_argument("path", help="manifest JSON file to verify")
    m_verify.add_argument("--apps", nargs="*", default=None,
                          help="also cross-check completeness against "
                               "this independently rebuilt grid")
    m_verify.set_defaults(func=_cmd_manifest_verify)

    memprofile = sub.add_parser(
        "memprofile", parents=[common],
        help="memory-access observatory: per-backend traffic taxonomy, "
             "reuse distances, and locality comparison",
    )
    memprofile.add_argument("--backends", nargs="+",
                            default=["gramer", "fractal", "rstream"],
                            help="backends to profile (default: all three)")
    memprofile.add_argument("--compare", nargs=2, default=None,
                            metavar=("A", "B"),
                            help="render a two-backend locality diff "
                                 "instead of per-backend tables")
    memprofile.add_argument("--format", default="text",
                            choices=["text", "json", "markdown"],
                            help="report renderer (default: text)")
    memprofile.add_argument("--out", default=None, metavar="PATH",
                            help="write the report to a file instead of "
                                 "stdout")
    memprofile.add_argument("--row-bytes", type=int, default=1024,
                            help="DRAM row size for the open-row "
                                 "sequential classifier (default: 1024)")
    memprofile.add_argument("--streams", type=int, default=8,
                            help="tracked open-row streams (default: 8)")
    memprofile.add_argument("--line-bytes", type=int, default=64,
                            help="cache-line size for reuse distance and "
                                 "spatial utilization (default: 64)")
    memprofile.add_argument("--no-cache", action="store_true",
                            help="recompute the report even if an "
                                 "identical one is cached")
    memprofile.set_defaults(func=_cmd_memprofile)

    trace = sub.add_parser(
        "trace",
        help="traced simulator run -> Chrome-trace/Perfetto file "
             "(docs/observability.md)",
    )
    trace.add_argument("app", help="application, e.g. 3-CF")
    trace.add_argument("dataset", help="proxy dataset name")
    trace.add_argument("--scale", default="tiny",
                       choices=["tiny", "small", "full"])
    trace.add_argument("--out", default="trace.json",
                       help="Chrome-trace output path (default: trace.json)")
    trace.add_argument("--jsonl", default=None, metavar="PATH",
                       help="also write one event per line to PATH")
    trace.add_argument("--window", type=int, default=1024,
                       help="timeline window width in cycles")
    trace.set_defaults(func=_cmd_trace)

    profile = sub.add_parser(
        "profile",
        parents=[common],
        help="instrumented run + text profile report "
             "(stalls, cache pressure, steal latency)",
    )
    profile.add_argument("--onchip-entries", type=int, default=None)
    profile.add_argument("--window", type=int, default=1024,
                         help="timeline window width in cycles")
    profile.add_argument("--metrics", action="store_true",
                         help="also dump the metrics registry")
    profile.set_defaults(func=_cmd_profile)

    check = sub.add_parser(
        "check",
        help="static analysis: determinism/purity/units rules "
             "(docs/static-analysis.md)",
    )
    check.add_argument("paths", nargs="*", default=None,
                       help="files or directories to check (default: src)")
    check.add_argument("--select", nargs="*", default=None,
                       help="rule IDs or families to run (default: all)")
    check.add_argument("--format", default="text",
                       choices=["text", "github", "sarif"],
                       help="finding output style (github = CI annotations, "
                            "sarif = code-scanning JSON on stdout)")
    check.add_argument("--list-rules", action="store_true",
                       help="list registered rules and exit")
    check.add_argument("--explain", metavar="GRMxxx", default=None,
                       help="print one rule's rationale and fix guidance")
    check.add_argument("--changed", metavar="REF", nargs="?", const="HEAD",
                       default=None,
                       help="only report findings in files changed vs REF "
                            "(default HEAD); the project pass still sees "
                            "the whole tree")
    check.add_argument("--jobs", type=int, default=1, metavar="N",
                       help="process-pool width for cold per-file analysis")
    check.add_argument("--no-project", action="store_true",
                       help="skip the whole-program pass (GRM10xx rules)")
    check.add_argument("--no-cache", action="store_true",
                       help="bypass the incremental analysis-record cache")
    check.set_defaults(func=_cmd_check)

    ds = sub.add_parser("datasets", help="list the dataset proxies")
    ds.add_argument("--scale", default="small",
                    choices=["tiny", "small", "full"])
    ds.set_defaults(func=_cmd_datasets)

    graph_p = sub.add_parser(
        "graph",
        help="content-addressed mmap graph store (docs/graph-store.md)",
    )
    graph_sub = graph_p.add_subparsers(dest="graph_command", required=True)

    g_build = graph_sub.add_parser(
        "build", help="materialize an edge list or dataset proxy"
    )
    g_build.add_argument("--graph", help="edge-list file to import")
    g_build.add_argument("--dataset", help="proxy dataset name")
    g_build.add_argument("--scale", default="small",
                         choices=["tiny", "small", "full"])
    g_build.add_argument("--labeled", action="store_true",
                         help="materialize the FSM-labeled variant")
    g_build.set_defaults(func=_cmd_graph_build)

    g_info = graph_sub.add_parser("info", help="show one artifact's header")
    g_info.add_argument("digest", help="content digest (or unique prefix)")
    g_info.set_defaults(func=_cmd_graph_info)

    g_verify = graph_sub.add_parser(
        "verify",
        help="re-checksum artifacts from disk (corrupt ones are quarantined)",
    )
    g_verify.add_argument("digests", nargs="*",
                          help="digests to check (default: all)")
    g_verify.set_defaults(func=_cmd_graph_verify)

    g_ls = graph_sub.add_parser("ls", help="list materialized artifacts")
    g_ls.set_defaults(func=_cmd_graph_ls)

    args = parser.parse_args(argv)
    args.func(args)


if __name__ == "__main__":
    main()
