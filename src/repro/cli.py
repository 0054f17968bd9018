"""Command-line interface.

Subcommands:

* ``detect``       — run the tangled-logic finder on a Bookshelf / hgr /
  edge-list / ``.nla`` design and print the report.  Without ``--seed`` it
  is a plain full run (no store is opened).  With a pinned ``--seed`` it
  answers from the result cache when the exact job is there, else patches
  a cached base run through the dirty region of the edit (``--base`` names
  a base design or fingerprint; default: the per-config head pointer in
  the cache), else runs in full and records the run.
* ``generate``     — synthesize a workload (planted graph, ISPD-like,
  industrial-like) and write it to disk.
* ``experiment``   — run one of the paper's table/figure harnesses.
* ``batch``        — run a manifest of detection jobs through the batch
  service (shared worker pool, persistent result cache).
* ``sweep``        — expand a parameter grid over a set of designs,
  deduplicate identical jobs, and run them through the batch service
  (``--workers N`` worker processes shared by every job);
  ``--via-daemon --shards N`` instead submits the plan to a running daemon
  as N shards of priority-class-``sweep`` jobs, and ``--aggregate``
  publishes per-axis/per-shard statistics as JSON.
* ``store``        — result-store maintenance: ``stats`` (entries per
  artifact kind), ``prune --keep N`` (LRU eviction) and ``merge`` (fold
  stores, e.g. the caches of sweeps run on different hosts, into one,
  reconciling rows by fingerprint, schema revision and use-count).
* ``flow run``     — execute a declared multi-stage flow manifest
  (detect / partition / place / congestion / soft_blocks / resynthesis)
  over one or more designs, with per-stage fingerprint caching.
* ``diff``         — structural diff of two designs; prints (and
  optionally writes) the :class:`~repro.incremental.NetlistDelta`.
* ``pack``         — convert a text design file to the binary pack format
  (``.nla``), which loads zero-copy via mmap; with ``--out-dir`` pack a
  whole manifest of designs into an indexed corpus the daemon can mmap.
* ``serve``        — start the long-lived detection daemon: one warm
  worker pool + result store + design LRU behind a local Unix socket.
* ``submit``       — submit one detection job to a running daemon and
  stream its lifecycle events; ``--delta BASE`` ships only the edit
  against an already-known base design.
* ``status``       — query a running daemon (server stats or one job).

The finder flags of ``detect`` and ``submit`` are one flag group whose
defaults are :class:`~repro.finder.FinderConfig`'s, so both commands run the
same job for the same flags; without ``--seed`` a run is unpinned.

Examples::

    tangled-logic detect design.aux --seeds 100 --metric gtl_sd --out gtls.txt
    tangled-logic detect edited.aux --base design.aux --seed 1
    tangled-logic generate ispd --scale 0.25 --out bench/
    tangled-logic experiment table1 --scale 0.1
    tangled-logic batch jobs.json --workers 4 --cache-dir .repro-cache
    tangled-logic sweep sweep.json --workers 4 --jsonl points.jsonl
    tangled-logic sweep sweep.json --via-daemon --shards 4 --aggregate stats.json
    tangled-logic store merge .repro-cache host-a/.repro-cache host-b/.repro-cache
    tangled-logic store prune --cache-dir .repro-cache --keep 1000
    tangled-logic flow run flow.json --cache-dir .repro-cache --workers 4
    tangled-logic flow run flow.json --trace trace.jsonl --profile
    tangled-logic --log-level info batch jobs.json
    tangled-logic pack jobs.json --out-dir packed/
    tangled-logic serve --socket /tmp/repro.sock --workers 4 --pack-index packed/
    tangled-logic submit design.hgr --seed 1 --priority interactive
    tangled-logic status --socket /tmp/repro.sock

Batch manifest (JSON; design paths are relative to the manifest)::

    {"defaults": {"num_seeds": 16, "seed": 1},
     "jobs": [{"design": "bench/a.hgr", "label": "a", "num_seeds": 32},
              {"design": "bench/b.aux"}]}

Sweep manifest::

    {"designs": ["bench/a.hgr", "bench/b.hgr"],
     "base": {"num_seeds": 16, "seed": 1},
     "grid": {"lambda_skip": [0, 20], "metric": ["gtl_sd", "ngtl_s"]}}

Flow manifest::

    {"designs": ["bench/a.hgr"],
     "stages": [{"stage": "detect", "num_seeds": 32, "seed": 1},
                {"stage": "partition"},
                {"stage": "place", "utilization": 0.6},
                {"stage": "congestion", "grid": [32, 32]}]}
"""

from __future__ import annotations

import argparse
import os
import sys
from typing import List, Optional

from repro.errors import FinderError, NetlistError, ReproError
from repro.finder import FinderConfig, find_tangled_logic
from repro.io import load_design as _load_design
from repro.metrics.gtl_score import ScoreContext

DEFAULT_CACHE_DIR = ".repro-cache"
#: Mirrors repro.server.daemon.DEFAULT_SOCKET without importing the server
#: stack just to build the parser.
DEFAULT_SOCKET = "/tmp/repro-server.sock"


#: The finder flag group of ``detect`` and ``submit``: flag ->
#: (:class:`FinderConfig` field, ``add_argument`` kwargs).  Defaults are the
#: field's, so a flag left out means the same job on every command.
_FINDER_FLAGS = {
    "--seeds": ("num_seeds", dict(type=int, help="m, independent seed runs "
                                  "(default %(default)s)")),
    "--metric": ("metric", dict(choices=ScoreContext.VALID_METRICS,
                                help="prefix-scoring metric (default %(default)s)")),
    "--max-order-length": ("max_order_length", dict(
        type=int, help="Z, linear-ordering length cap (default %(default)s = auto)")),
    "--min-size": ("min_gtl_size", dict(type=int, help="smallest GTL reported "
                                        "(default %(default)s)")),
    "--seed": ("seed", dict(type=int, help="RNG seed; a pinned seed makes the run "
                            "reproducible and cacheable (default: unpinned)")),
}


def _finder_fields(args: argparse.Namespace) -> dict:
    """The :class:`FinderConfig` fields the finder flag group sets."""
    return {field: getattr(args, field) for field, _ in _FINDER_FLAGS.values()}


def _finder_config(args: argparse.Namespace) -> FinderConfig:
    """The config a ``detect`` invocation runs."""
    return FinderConfig(**_finder_fields(args), workers=args.workers)


def _write_membership(path: str, netlist, report) -> None:
    """Write each GTL's header line and member cell names to ``path``."""
    with open(path, "w") as handle:
        for index, gtl in enumerate(report.gtls):
            names = " ".join(netlist.cell_name(c) for c in sorted(gtl.cells))
            handle.write(f"GTL {index + 1} size={gtl.size} cut={gtl.cut} "
                         f"ngtl={gtl.ngtl_score:.4f} gtl_sd={gtl.gtl_sd_score:.4f}\n")
            handle.write(names + "\n")
    print(f"wrote {report.num_gtls} GTL(s) to {path}")


def _cmd_generate(args: argparse.Namespace) -> int:
    from repro.io.bookshelf import write_bookshelf

    if args.kind == "planted":
        from repro.generators.random_gtl import planted_gtl_graph

        netlist, truth = planted_gtl_graph(
            args.cells, args.gtl_sizes or [max(50, args.cells // 20)], seed=args.seed
        )
        print(f"planted blocks: {[len(t) for t in truth]}")
    elif args.kind == "ispd":
        from repro.generators.ispd_like import default_bigblue1_like, generate_ispd_like

        netlist, truth = generate_ispd_like(
            default_bigblue1_like(args.scale), seed=args.seed
        )
        print(f"embedded structures: {{name: size}} = "
              f"{ {k: len(v) for k, v in truth.items()} }")
    elif args.kind == "industrial":
        from repro.generators.industrial import IndustrialSpec, generate_industrial

        netlist, truth = generate_industrial(IndustrialSpec(), seed=args.seed)
        print(f"dissolved ROM blocks: {[len(t) for t in truth]}")
    else:
        raise ReproError(f"unknown workload kind {args.kind!r}")

    aux = write_bookshelf(netlist, args.out, args.kind)
    print(f"{netlist} -> {aux}")
    return 0


def _cmd_experiment(args: argparse.Namespace) -> int:
    import repro.experiments as experiments

    runner = getattr(experiments, f"run_{args.which}", None)
    if runner is None:
        raise ReproError(f"unknown experiment {args.which!r}")
    kwargs = {}
    if args.scale is not None and args.which in ("table1", "table2", "fig4", "fig5"):
        kwargs["scale"] = args.scale
    if args.seeds is not None and args.which not in ("fig2", "fig3", "fig5"):
        kwargs["num_seeds"] = args.seeds
    result = runner(**kwargs)
    print(result.render())
    if args.csv:
        result.write_series_csv(args.csv)
        print(f"series written to {args.csv}")
    return 0


def _manifest_config(data, context: str):
    """Build a :class:`FinderConfig` from a manifest dict."""
    from repro.errors import ServiceError
    from repro.service.codec import config_from_dict

    if not isinstance(data, dict):
        raise ServiceError(f"{context} must be a JSON object of FinderConfig fields")
    try:
        return config_from_dict(data)
    except ReproError:
        raise
    except TypeError as error:
        raise ServiceError(f"bad {context}: {error}") from error


def _make_runner(args: argparse.Namespace, store):
    from repro.service.jobs import BatchProgress, BatchRunner

    def _progress(event: BatchProgress) -> None:
        result = event.result
        status = "cached" if result.cached else ("ok" if result.ok else "FAILED")
        label = result.job.label or result.job.fingerprint[:12]
        print(
            f"[{event.done}/{event.total}] {label}: {status} "
            f"({result.runtime_seconds:.2f}s)",
            file=sys.stderr,
        )

    return BatchRunner(
        workers=args.workers,
        store=store,
        use_cache=not args.no_cache,
        progress=_progress if not args.quiet else None,
    )


def _cache_dir(args: argparse.Namespace) -> Optional[str]:
    """The command's result-store directory (``None`` under ``--no-cache``)."""
    return None if args.no_cache else (args.cache_dir or DEFAULT_CACHE_DIR)


class _CacheSession:
    """Result-store lifecycle of one CLI command.

    Entering opens the store (``None`` under ``--no-cache``); exiting records
    its hit/miss line and closes it; :meth:`emit` prints the ``cache:`` line.
    """

    def __init__(self, args: argparse.Namespace) -> None:
        self.cache_dir = _cache_dir(args)
        self.store = None
        self.line = "cache disabled"

    def __enter__(self):
        if self.cache_dir is not None:
            from repro.service.store import ResultStore

            self.store = ResultStore(self.cache_dir)
        return self.store

    def __exit__(self, exc_type, exc, tb) -> bool:
        if self.store is not None:
            self.line = self.store.summary()
            self.store.close()
        return False

    def emit(self) -> None:
        print(f"cache: {self.line}")


def _emit_jsonl(args: argparse.Namespace, rows) -> None:
    if args.jsonl:
        from repro.utils.jsonio import write_jsonl

        written = write_jsonl(args.jsonl, rows)
        print(f"wrote {written} row(s) to {args.jsonl}")


class _ObsSession:
    """Tracing lifecycle of one CLI command (``--trace`` / ``--profile``).

    Enables the global tracer around the command's work, wraps it in a root
    span, then renders the collected :class:`~repro.obs.report.RunReport`
    (trace-file note, profile tree) after the command's own output.
    """

    def __init__(self, args: argparse.Namespace, root: str) -> None:
        self.trace_path = getattr(args, "trace", "") or ""
        self.profile = bool(getattr(args, "profile", False))
        self.root = root
        self.report = None
        self._span = None

    @property
    def active(self) -> bool:
        return bool(self.trace_path or self.profile)

    def __enter__(self) -> "_ObsSession":
        if self.active:
            from repro.obs import trace

            trace.enable(jsonl_path=self.trace_path or None)
            self._span = trace.span(self.root)
            self._span.__enter__()
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        if self.active:
            from repro.obs import trace
            from repro.obs.report import RunReport

            self._span.__exit__(exc_type, exc, tb)
            self.report = RunReport.from_tracer()
            trace.disable()
        return False

    def emit(self) -> None:
        """Print the run-report epilogue (after the command's own output)."""
        if self.report is None:
            return
        if self.trace_path:
            print(
                f"trace: wrote {len(self.report.spans)} span(s) "
                f"to {self.trace_path}"
            )
        if self.profile:
            print(self.report.summary())


def _report_row(label, result):
    report = result.report
    if report is None:
        return [label, "-", "-", "-", "-", "error", result.error or ""]
    best = report.gtls[0] if report.gtls else None
    return [
        label,
        report.num_gtls,
        best.size if best else "-",
        f"{best.score:.4f}" if best else "-",
        f"{report.rent_exponent:.3f}",
        "hit" if result.cached else "run",
        f"{result.runtime_seconds:.2f}s",
    ]


def _resolve_design(design: str, base_dir: str) -> str:
    return design if os.path.isabs(design) else os.path.join(base_dir, design)


def _run_service_command(args: argparse.Namespace, execute) -> int:
    """Shared store/runner lifecycle and output epilogue of batch and sweep.

    ``execute(runner)`` returns ``(headers, rows, summary_line, jsonl_rows,
    results)``; the exit code is 0 only when every result is ok.
    """
    from repro.utils.tables import format_table

    cache = _CacheSession(args)
    obs = _ObsSession(args, f"cli.{args.command}")
    with cache as store, obs, _make_runner(args, store) as runner:
        headers, rows, summary_line, jsonl_rows, results = execute(runner)

    print(format_table(headers, rows))
    print(summary_line)
    cache.emit()
    obs.emit()
    _emit_jsonl(args, jsonl_rows)
    return 0 if all(r.ok for r in results) else 1


def _cmd_batch(args: argparse.Namespace) -> int:
    from repro.errors import ServiceError
    from repro.service.codec import report_to_dict
    from repro.service.jobs import DetectionJob, summarize_results
    from repro.utils.jsonio import read_json_file

    manifest = read_json_file(args.manifest)
    if not isinstance(manifest, dict) or not isinstance(manifest.get("jobs"), list):
        raise ServiceError('batch manifest must be {"defaults": {...}, "jobs": [...]}')
    if not manifest["jobs"]:
        raise ServiceError("batch manifest has no jobs")
    defaults = manifest.get("defaults", {})
    if not isinstance(defaults, dict):
        raise ServiceError('batch manifest "defaults" must be a JSON object')
    base_dir = os.path.dirname(os.path.abspath(args.manifest))

    from repro.service.fingerprint import fingerprint_netlist

    jobs = []
    # Many jobs routinely target the same design with different configs:
    # parse and content-hash each file once, not once per job entry.
    netlists_by_path = {}
    for index, entry in enumerate(manifest["jobs"]):
        if not isinstance(entry, dict) or not isinstance(entry.get("design"), str):
            raise ServiceError(
                f'job #{index} must be an object with a string "design" key'
            )
        overrides = {
            k: v for k, v in entry.items() if k not in ("design", "label")
        }
        config = _manifest_config({**defaults, **overrides}, f"job #{index} config")
        design = entry["design"]
        path = _resolve_design(design, base_dir)
        if path not in netlists_by_path:
            netlist = _load_design(path)
            netlists_by_path[path] = (netlist, fingerprint_netlist(netlist))
        netlist, netlist_fp = netlists_by_path[path]
        jobs.append(
            DetectionJob.with_netlist_fingerprint(
                netlist, config, entry.get("label", design), netlist_fp
            )
        )

    def execute(runner):
        results = runner.run(jobs)
        headers = ["job", "gtls", "best size", "best score", "rent p", "cache", "time"]
        rows = [_report_row(r.job.label, r) for r in results]
        jsonl_rows = [
            {
                "label": r.job.label,
                "fingerprint": r.job.fingerprint,
                "cached": r.cached,
                "runtime_seconds": r.runtime_seconds,
                "error": r.error,
                "report": report_to_dict(r.report) if r.report else None,
            }
            for r in results
        ]
        return headers, rows, summarize_results(results), jsonl_rows, results

    return _run_service_command(args, execute)


def _sweep_table(outcome):
    """Table headers + rows of one sweep outcome (local or via a daemon)."""
    headers = [
        "design", "point", "gtls", "best size", "best score", "rent p", "cache", "time",
    ]
    rows = []
    for point, result in outcome.point_results():
        overrides = ", ".join(f"{k}={v}" for k, v in point.overrides)
        row = _report_row(point.design, result)
        rows.append([row[0], overrides] + row[1:])
    return headers, rows


def _sweep_summary(outcome) -> str:
    from repro.service.jobs import summarize_results

    return (
        f"{len(outcome.plan.points)} grid point(s) -> "
        f"{len(outcome.plan.jobs)} distinct job(s) "
        f"({outcome.plan.num_deduplicated} deduplicated); "
        + summarize_results(outcome.job_results)
    )


def _publish_aggregate(args: argparse.Namespace, outcome) -> None:
    if not getattr(args, "aggregate", ""):
        return
    from repro.service.aggregate import aggregate_sweep, write_aggregate

    write_aggregate(args.aggregate, aggregate_sweep(outcome))
    print(f"wrote aggregate stats to {args.aggregate}")


def _parse_sweep_manifest(args: argparse.Namespace):
    """Load a sweep manifest: ``(designs, base, grid, design_paths)``."""
    from repro.errors import ServiceError
    from repro.utils.jsonio import read_json_file

    manifest = read_json_file(args.manifest)
    if not isinstance(manifest, dict) or not isinstance(manifest.get("designs"), list):
        raise ServiceError(
            'sweep manifest must be {"designs": [...], "base": {...}, "grid": {...}}'
        )
    if not isinstance(manifest.get("grid"), dict) or not manifest["grid"]:
        raise ServiceError('sweep manifest needs a non-empty "grid" object')
    base = _manifest_config(manifest.get("base", {}), "sweep base config")
    base_dir = os.path.dirname(os.path.abspath(args.manifest))

    designs = []
    design_paths = {}
    for index, design in enumerate(manifest["designs"]):
        if not isinstance(design, str):
            raise ServiceError(f'sweep manifest "designs" entry #{index} must be a string')
        path = _resolve_design(design, base_dir)
        designs.append((design, _load_design(path)))
        design_paths[design] = path
    return designs, base, manifest["grid"], design_paths


def _cmd_sweep(args: argparse.Namespace) -> int:
    from repro.errors import ServiceError
    from repro.service.aggregate import point_rows
    from repro.service.sweep import run_sweep

    if args.shards != 1 and not args.via_daemon:
        raise ServiceError(
            "--shards needs --via-daemon; run a local sweep in parallel "
            "with --workers N"
        )
    designs, base, grid, design_paths = _parse_sweep_manifest(args)
    if args.via_daemon:
        return _cmd_sweep_daemon(args, designs, base, grid, design_paths)

    def execute(runner):
        outcome = run_sweep(designs, base, grid, runner)
        headers, rows = _sweep_table(outcome)
        _publish_aggregate(args, outcome)
        return headers, rows, _sweep_summary(outcome), point_rows(outcome), (
            outcome.job_results
        )

    return _run_service_command(args, execute)


def _cmd_sweep_daemon(args, designs, base, grid, design_paths) -> int:
    """``sweep --via-daemon``: the plan's shards submitted to a daemon."""
    from repro.service.aggregate import point_rows
    from repro.service.coordinator import SweepCoordinator
    from repro.utils.tables import format_table

    def progress(event) -> None:
        if event.kind == "shard-done":
            status = f"FAILED: {event.error}" if event.error else "done"
            print(f"[shard {event.shard_id}] {status} "
                  f"({event.done_shards}/{event.total_shards} shard(s))",
                  file=sys.stderr)

    coordinator = SweepCoordinator(
        num_shards=args.shards,
        daemon_socket=args.socket,
        progress=None if args.quiet else progress,
    )
    obs = _ObsSession(args, "cli.sweep")
    with obs:
        outcome = coordinator.run(designs, base, grid, design_paths=design_paths)

    headers, rows = _sweep_table(outcome)
    print(format_table(headers, rows))
    print(_sweep_summary(outcome))
    for stats in outcome.shard_stats:
        status = "ok" if stats.ok else f"FAILED ({stats.error})"
        print(f"shard {stats.shard_id}: {stats.num_jobs} job(s), "
              f"{stats.wall_seconds:.2f}s, {stats.cache_hits} hit(s), {status}")
    print(f"via daemon: {len(outcome.shard_stats)} shard(s), "
          f"{outcome.wall_seconds:.2f}s wall")
    _publish_aggregate(args, outcome)
    obs.emit()
    _emit_jsonl(args, point_rows(outcome))
    return 0 if all(r.ok for r in outcome.job_results) else 1


def _cmd_store_stats(args: argparse.Namespace) -> int:
    from repro.service.store import ResultStore

    with ResultStore(args.cache_dir or DEFAULT_CACHE_DIR) as store:
        entries = store.entries()
        total_runtime = sum(runtime for _, _, runtime in entries)
        print(f"cache dir: {store.cache_dir}")
        print(f"{len(entries)} entr(ies), {total_runtime:.1f}s of saved compute")
        for kind, count in store.kind_counts().items():
            print(f"  {kind}: {count}")
    return 0


def _cmd_store_prune(args: argparse.Namespace) -> int:
    from repro.service.store import ResultStore

    with ResultStore(args.cache_dir or DEFAULT_CACHE_DIR) as store:
        evicted = store.evict_lru(args.keep)
        print(f"pruned {evicted} entr(ies); {len(store)} kept "
              f"(LRU, --keep {args.keep})")
    return 0


def _cmd_store_merge(args: argparse.Namespace) -> int:
    from repro.service.store import MergeStats, ResultStore

    totals = MergeStats()
    with ResultStore(args.dest) as store:
        before = len(store)
        for source in args.sources:
            stats = store.merge_from(source)
            totals = totals.combined(stats)
            print(f"{source}: {stats.summary()}")
        after = len(store)
    print(f"merged {len(args.sources)} store(s) into {args.dest}: "
          f"{totals.summary()}; {before} -> {after} entr(ies)")
    return 0


def _cmd_flow_run(args: argparse.Namespace) -> int:
    from repro.flow import flow_from_manifest
    from repro.service.pool import WorkerPool
    from repro.utils.jsonio import read_json_file
    from repro.utils.tables import format_table

    data = read_json_file(args.manifest)
    base_dir = os.path.dirname(os.path.abspath(args.manifest))
    manifest = flow_from_manifest(data, base_dir)

    cache = _CacheSession(args)
    pool = WorkerPool(args.workers) if args.workers > 1 else None
    obs = _ObsSession(args, "cli.flow-run")
    headers = ["design", "stage", "kind", "cache", "time", "summary"]
    rows = []
    jsonl_rows = []
    try:
        with cache as store, obs:
            for path in manifest.designs:
                netlist = _load_design(path)
                label = os.path.basename(path)

                def _progress(result) -> None:
                    print(
                        f"[{label}] {result.stage}: {result.cache_label} "
                        f"({result.runtime_seconds:.2f}s)",
                        file=sys.stderr,
                    )

                outcome = manifest.flow.run(
                    netlist,
                    store=store,
                    use_cache=not args.no_cache,
                    pool=pool,
                    progress=None if args.quiet else _progress,
                )
                for result in outcome.results:
                    rows.append(
                        [label, result.stage, result.kind, result.cache_label,
                         f"{result.runtime_seconds:.2f}s", result.metadata_summary()]
                    )
                    jsonl_rows.append({"design": label, **result.to_row()})
    finally:
        if pool is not None:
            pool.shutdown()

    print(format_table(headers, rows))
    cache.emit()
    obs.emit()
    _emit_jsonl(args, jsonl_rows)
    return 0


def _cmd_pack(args: argparse.Namespace) -> int:
    from repro.io import PACKED_EXTENSION, pack_design, read_header

    if args.out_dir:
        from repro.io.corpus import PACK_INDEX_NAME, pack_manifest

        entries = pack_manifest(args.design, args.out_dir)
        packed = sum(1 for entry in entries if entry.packed)
        for entry in entries:
            status = "packed" if entry.packed else "up-to-date"
            print(f"{status}: {entry.source} -> {entry.pack_path}")
        print(
            f"{len(entries)} design(s): {packed} packed, "
            f"{len(entries) - packed} reused; index at "
            f"{os.path.join(args.out_dir, PACK_INDEX_NAME)}"
        )
        return 0

    out = args.out
    if not out:
        out = os.path.splitext(args.design)[0] + PACKED_EXTENSION
    written = pack_design(args.design, out)
    header = read_header(out)
    print(
        f"packed {args.design} -> {out} ({written} bytes, "
        f"{header.num_cells} cells / {header.num_nets} nets / "
        f"{header.num_pins} pins)"
    )
    print(f"fingerprint: {header.fingerprint}")
    return 0


def _cmd_serve(args: argparse.Namespace) -> int:
    from repro.server import ServerConfig, ServerDaemon

    config = ServerConfig(
        socket_path=args.socket,
        cache_dir=args.cache_dir or DEFAULT_CACHE_DIR,
        workers=args.workers,
        max_queue_depth=args.max_queue_depth,
        starvation_limit=args.starvation_limit,
        max_designs=args.max_designs,
        pack_index=args.pack_index,
    )
    daemon = ServerDaemon(config)
    obs = _ObsSession(args, "cli.serve")
    print(
        f"repro daemon: socket={config.socket_path} workers={config.workers} "
        f"cache={config.cache_dir}"
        + (f" pack-index={config.pack_index}" if config.pack_index else "")
    )
    print("serving; SIGTERM/Ctrl-C drains and stops", file=sys.stderr)
    with obs:
        daemon.serve_forever()
    print("daemon stopped")
    obs.emit()
    return 0


def _cmd_submit(args: argparse.Namespace) -> int:
    from repro.server import Client

    client = Client(args.socket, busy_retries=args.busy_retries)

    design = args.design
    delta_payload = None
    if args.delta:
        # Delta submit: diff locally against the base design the daemon
        # already knows, and ship only the edit — "design" becomes the
        # base path; the edited netlist itself never crosses the socket.
        from repro.incremental import diff

        delta = diff(_load_design(args.delta), _load_design(args.design))
        delta_payload = delta.to_dict()
        design = args.delta
        if not args.quiet:
            print(f"delta vs {args.delta}: {delta.summary()}", file=sys.stderr)

    def on_event(event) -> None:
        if args.quiet:
            return
        name = event["event"]
        if name == "queued":
            print(f"queued: job {event['job_id']} "
                  f"(position {event.get('position', '?')})", file=sys.stderr)
        elif name == "started":
            print(f"started after {event.get('wait_s', 0.0):.2f}s in queue",
                  file=sys.stderr)
        elif name == "progress":
            print(f"progress: {event.get('stage')} ({event.get('cache')})",
                  file=sys.stderr)

    result = client.submit(
        design,
        config=_finder_fields(args),
        priority=args.priority,
        label=args.label or os.path.basename(args.design),
        wait=not args.no_wait,
        on_event=on_event,
        delta=delta_payload,
    )
    if result["event"] == "queued":
        print(f"job {result['job_id']} queued (poll with: "
              f"tangled-logic status --socket {args.socket} {result['job_id']})")
        return 0
    from repro.service.codec import report_from_dict

    report = report_from_dict(result["report"])
    origin = "cache" if result.get("cached") else "computed"
    print(report.summary())
    print(f"{origin} in {result.get('runtime_seconds', 0.0):.3f}s "
          f"(fingerprint {result.get('fingerprint', '')[:12]})")
    incremental = result.get("incremental")
    if incremental:
        print(f"incremental: mode={incremental.get('mode')} "
              f"seeds {incremental.get('seeds_recomputed')}/"
              f"{incremental.get('seeds_total')} re-run, "
              f"{incremental.get('dirty_cells')} dirty cell(s)")
    return 0


def _cmd_status(args: argparse.Namespace) -> int:
    import json as _json

    from repro.server import Client

    client = Client(args.socket)
    if args.shutdown:
        response = client.shutdown(drain=not args.no_drain)
        print(f"shutdown requested (drain={response.get('drain')})")
        return 0
    status = client.status(args.job_id or None, group=args.group)
    if args.json:
        print(_json.dumps(status, indent=2, sort_keys=True))
        return 0
    if args.job_id:
        job = status["job"]
        print(
            f"job {job['job_id']}: {job['state']} ({job['kind']}, "
            f"{job['priority']}, label={job['label']!r})"
        )
        print(f"  wait {job['wait_s']:.2f}s, run {job['run_s']:.2f}s, "
              f"cached={job['cached']}")
        if job.get("error"):
            print(f"  error: {job['error']}")
        return 0
    from repro.obs.metrics import counter_values

    queue = status["queue"]
    count = counter_values(status["metrics"])
    print(f"daemon pid {status['pid']}, up {status['uptime_s']:.0f}s, "
          f"{status['workers']} worker(s)")
    depths = queue.get("depths", {})
    per_class = " ".join(
        f"{name}={depths.get(name, 0)}"
        for name in ("interactive", "batch", "sweep")
    )
    print(
        f"queue: {queue['depth']}/{queue['max_depth']} queued "
        f"({per_class}), {count['queue.submitted']} submitted, "
        f"{count['queue.rejected']} rejected, "
        f"{count['queue.cancelled']} cancelled"
    )
    lookups = count["store.hits"] + count["store.misses"]
    hit_rate = count["store.hits"] / lookups if lookups else 0.0
    print(
        f"store: {status['store']['entries']} entries, "
        f"{count['store.hits']} hit(s) / {count['store.misses']} miss(es) "
        f"({hit_rate:.0%}), {count['store.puts']} put(s)"
    )
    done = sum(v for k, v in count.items() if k.startswith("server.done."))
    print(
        f"served: {done} done, {count['server.failed']} failed, "
        f"{count['server.warm_hits']} warm hit(s), "
        f"{count['server.requests']} request(s)"
    )
    designs = status["designs"]
    print(
        f"designs: {designs['loaded']}/{designs['max_designs']} loaded, "
        f"{count['designs.hits']} hit(s), "
        f"{count['designs.pack_loads']} pack load(s)"
    )
    if status["jobs"]:
        print(f"recent jobs{f' (group {args.group})' if args.group else ''}:")
        for job in status["jobs"][:20 if args.group else 10]:
            tag = f" [{job['group']}]" if job.get("group") else ""
            print(f"  {job['job_id']} {job['state']:9s} {job['priority']:11s} "
                  f"{job['label']}{tag}")
    return 0


def _cmd_diff(args: argparse.Namespace) -> int:
    from repro.incremental import delta_fingerprint, diff
    from repro.service.fingerprint import fingerprint_netlist

    old = _load_design(args.old)
    new = _load_design(args.new)
    delta = diff(old, new)
    base_fp = fingerprint_netlist(old)
    print(f"base: {args.old} ({old.num_cells} cells, {old.num_nets} nets, "
          f"fingerprint {base_fp[:12]})")
    print(f"new:  {args.new} ({new.num_cells} cells, {new.num_nets} nets, "
          f"fingerprint {fingerprint_netlist(new)[:12]})")
    print(f"delta: {delta.summary()}"
          + (" (netlists identical)" if delta.is_empty else ""))
    print(f"delta fingerprint: {delta_fingerprint(base_fp, delta)[:12]}")
    if args.json:
        import json as _json

        with open(args.json, "w") as handle:
            _json.dump(delta.to_dict(), handle)
        print(f"wrote delta ({delta.num_edits} edit(s)) to {args.json}")
    return 0


def _cmd_detect(args: argparse.Namespace) -> int:
    config = _finder_config(args)
    if config.seed is None and args.base:
        raise FinderError("--base needs a pinned --seed")
    netlist = _load_design(args.design)
    obs = _ObsSession(args, "cli.detect")
    if config.seed is None:
        # Unpinned: nothing to cache or patch from, so a plain full run.
        with obs:
            report = find_tangled_logic(netlist, config)
        print(report.summary())
    else:
        report = _detect_pinned(args, netlist, config, obs)
    if args.out:
        _write_membership(args.out, netlist, report)
    obs.emit()
    return 0


def _detect_pinned(args: argparse.Namespace, netlist, config, obs):
    """The exact-hit -> patched -> full ladder of a seeded ``detect``."""
    from repro.incremental import detect_with_reuse

    base_netlist = None
    base_fingerprint = ""
    if args.base:
        if os.path.exists(args.base):
            base_netlist = _load_design(args.base)
        else:
            base_fingerprint = args.base  # a netlist fingerprint from a prior run
    cache = _CacheSession(args)
    with cache as store, obs:
        result = detect_with_reuse(
            netlist,
            config,
            store,
            base=base_netlist,
            base_fingerprint=base_fingerprint,
            halo=args.halo,
            full_threshold=args.full_threshold,
        )
    print(result.report.summary())
    print(result.summary())
    if result.base_fingerprint:
        print(f"base fingerprint: {result.base_fingerprint[:12]}, "
              f"delta fingerprint: {result.delta_fingerprint[:12]}")
    cache.emit()
    return result.report


def _cmd_stats(args: argparse.Namespace) -> int:
    from repro.netlist.stats import netlist_stats

    netlist = _load_design(args.design)
    print(netlist_stats(netlist).render())
    if args.rent:
        from repro.finder.candidate import scan_ordering
        from repro.finder.ordering import grow_linear_ordering
        from repro.metrics.rent import estimate_rent_exponent_from_prefixes
        from repro.utils.rng import ensure_rng

        rng = ensure_rng(args.seed)
        movable = netlist.movable_cells()
        if not movable:
            raise NetlistError(
                f"{args.design} has no movable cells; the Rent estimator "
                "needs at least one seed cell"
            )
        estimates = []
        for _ in range(min(4, len(movable))):
            seed_cell = rng.choice(movable)
            ordering = grow_linear_ordering(
                netlist, seed_cell, min(5000, max(64, netlist.num_cells // 4))
            )
            estimates.append(
                estimate_rent_exponent_from_prefixes(scan_ordering(netlist, ordering))
            )
        print(
            f"\nRent exponent (ordering estimator, {len(estimates)} seeds): "
            f"{sum(estimates) / len(estimates):.3f}"
        )
    return 0


DESIGN_HELP = ".aux (Bookshelf), .hgr, .nla (pack), or edge-list file"

#: Flags several subcommands share, declared once: flag -> add_argument kwargs.
_SHARED_OPTIONS = {
    "--workers": dict(type=int, default=1, help="parallel worker processes"),
    "--cache-dir": dict(default="", help=f"result cache directory (default {DEFAULT_CACHE_DIR})"),
    "--no-cache": dict(action="store_true", help="bypass the result cache entirely"),
    "--quiet": dict(action="store_true", help="suppress progress events on stderr"),
    "--jsonl": dict(default="", help="write per-row results here"),
    "--socket": dict(default=DEFAULT_SOCKET, help="daemon Unix socket"),
    "--trace": dict(default="", metavar="PATH", help="write a JSONL span trace of the run here"),
    "--profile": dict(action="store_true", help="print a span/counter profile after the run"),
}
#: The shared flags of the store-backed runners (batch, sweep, flow run).
_RUNNER_OPTIONS = ("--workers", "--cache-dir", "--no-cache", "--jsonl", "--quiet",
                   "--trace", "--profile")


def _add_options(sub: argparse.ArgumentParser, *flags: str) -> None:
    for flag in flags:
        sub.add_argument(flag, **_SHARED_OPTIONS[flag])


def _add_finder_args(sub: argparse.ArgumentParser) -> None:
    defaults = FinderConfig()
    group = sub.add_argument_group("finder options (defaults: FinderConfig)")
    for flag, (field, kwargs) in _FINDER_FLAGS.items():
        group.add_argument(flag, dest=field, default=getattr(defaults, field), **kwargs)


def build_parser() -> argparse.ArgumentParser:
    """The CLI argument parser (exposed for testing)."""
    parser = argparse.ArgumentParser(
        prog="tangled-logic",
        description="Detecting tangled logic structures in VLSI netlists "
        "(DAC 2010 reproduction)",
    )
    parser.add_argument(
        "--log-level",
        default=None,
        metavar="LEVEL",
        help="logging level (DEBUG/INFO/WARNING/ERROR; also $REPRO_LOG_LEVEL)",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    detect = sub.add_parser(
        "detect",
        help="run the finder on a design; with a pinned --seed, answer from "
        "the result cache or patch a cached base run",
    )
    detect.add_argument("design", help=DESIGN_HELP)
    _add_finder_args(detect)
    detect.add_argument("--out", default="", help="write found GTL membership here")
    detect.add_argument("--base", default="",
                        help="base to patch from (needs --seed): a design "
                        "file, or the netlist fingerprint of a prior cached "
                        "run (default: the per-config head pointer)")
    detect.add_argument("--halo", type=int, default=0,
                        help="extra dirty-region hops (conservatism knob; "
                        "never changes results)")
    detect.add_argument("--full-threshold", type=float, default=0.25,
                        help="dirty fraction above which a full recompute "
                        "is cheaper than patching")
    _add_options(detect, "--workers", "--cache-dir", "--no-cache", "--trace", "--profile")
    detect.set_defaults(func=_cmd_detect)

    gen = sub.add_parser("generate", help="synthesize a workload")
    gen.add_argument("kind", choices=("planted", "ispd", "industrial"))
    gen.add_argument("--cells", type=int, default=10_000)
    gen.add_argument("--gtl-sizes", type=int, nargs="*", default=None)
    gen.add_argument("--scale", type=float, default=0.25)
    gen.add_argument("--seed", type=int, default=None)
    gen.add_argument("--out", default="generated")
    gen.set_defaults(func=_cmd_generate)

    exp = sub.add_parser("experiment", help="run a paper table/figure harness")
    exp.add_argument(
        "which",
        choices=(
            "table1",
            "table2",
            "table3",
            "fig2",
            "fig3",
            "fig4",
            "fig5",
            "fig6",
            "fig7",
        ),
    )
    exp.add_argument("--scale", type=float, default=None)
    exp.add_argument("--seeds", type=int, default=None)
    exp.add_argument("--csv", default="", help="write figure series to CSV")
    exp.set_defaults(func=_cmd_experiment)

    for name, func, help_text in (
        ("batch", _cmd_batch, "run a manifest of detection jobs via the service"),
        ("sweep", _cmd_sweep, "run a parameter sweep with job deduplication"),
    ):
        svc = sub.add_parser(name, help=help_text)
        svc.add_argument("manifest", help="JSON manifest file")
        _add_options(svc, *_RUNNER_OPTIONS)
        svc.set_defaults(func=func)

    sweep_p = sub.choices["sweep"]
    sweep_p.add_argument("--shards", type=int, default=1,
                         help="with --via-daemon: split the deduplicated "
                         "plan into N shards, each submitted by its own "
                         "thread under its own job group")
    sweep_p.add_argument("--via-daemon", action="store_true",
                         help="submit the plan as priority-class-sweep jobs "
                         "to a running daemon instead of running it here")
    _add_options(sweep_p, "--socket")
    sweep_p.add_argument("--aggregate", default="",
                         help="write aggregate sweep stats (per-axis "
                         "summaries, per-shard wall-clock) as JSON here")

    store_p = sub.add_parser("store", help="result-store maintenance")
    store_sub = store_p.add_subparsers(dest="store_command", required=True)
    store_stats = store_sub.add_parser("stats", help="entry counts per artifact kind")
    _add_options(store_stats, "--cache-dir")
    store_stats.set_defaults(func=_cmd_store_stats)
    store_prune = store_sub.add_parser(
        "prune", help="evict all but the N most recently used entries"
    )
    store_prune.add_argument("--keep", type=int, required=True,
                             help="entries to keep (LRU order)")
    _add_options(store_prune, "--cache-dir")
    store_prune.set_defaults(func=_cmd_store_prune)
    store_merge = store_sub.add_parser(
        "merge",
        help="merge result stores row-by-row (e.g. caches filled on other "
        "hosts): new rows copied, identical rows' usage combined, "
        "conflicts resolved by use-count then recency",
    )
    store_merge.add_argument("dest", help="destination cache directory")
    store_merge.add_argument("sources", nargs="+",
                             help="source cache directories (read-only)")
    store_merge.set_defaults(func=_cmd_store_merge)

    flow = sub.add_parser("flow", help="declared multi-stage flows")
    flow_sub = flow.add_subparsers(dest="flow_command", required=True)
    flow_run = flow_sub.add_parser(
        "run", help="execute a flow manifest with per-stage caching"
    )
    flow_run.add_argument("manifest", help="JSON flow manifest file")
    _add_options(flow_run, *_RUNNER_OPTIONS)
    flow_run.set_defaults(func=_cmd_flow_run)

    diff = sub.add_parser(
        "diff", help="structural diff of two designs (netlist delta)"
    )
    diff.add_argument("old", help="base design file (.aux, .hgr, .nla, ...)")
    diff.add_argument("new", help="edited design file")
    diff.add_argument("--json", default="",
                      help="write the delta (NetlistDelta JSON) here")
    diff.set_defaults(func=_cmd_diff)

    pack = sub.add_parser(
        "pack", help="convert a design file to the binary pack format (.nla)"
    )
    pack.add_argument(
        "design",
        help=".aux (Bookshelf), .hgr, or edge-list file — or, with "
        "--out-dir, a JSON manifest naming the designs to pack",
    )
    pack.add_argument(
        "--out",
        default="",
        help="output pack file (default: design path with .nla extension)",
    )
    pack.add_argument(
        "--out-dir",
        default="",
        help="pack every design named by the manifest into this corpus "
        "directory and write an index the daemon can serve from",
    )
    pack.set_defaults(func=_cmd_pack)

    serve = sub.add_parser(
        "serve", help="start the long-lived detection daemon"
    )
    _add_options(serve, "--socket", "--workers", "--cache-dir", "--trace", "--profile")
    serve.add_argument("--max-queue-depth", type=int, default=64,
                       help="queued jobs admitted before backpressure")
    serve.add_argument("--starvation-limit", type=int, default=8,
                       help="dispatches a priority class may be passed over")
    serve.add_argument("--max-designs", type=int, default=8,
                       help="designs kept loaded in the LRU")
    serve.add_argument("--pack-index", default="",
                       help="pre-packed corpus directory (see `pack --out-dir`)")
    serve.set_defaults(func=_cmd_serve)

    submit = sub.add_parser(
        "submit", help="submit a detection job to a running daemon"
    )
    submit.add_argument("design", help=DESIGN_HELP)
    _add_finder_args(submit)
    _add_options(submit, "--socket", "--quiet")
    submit.add_argument("--priority", choices=("interactive", "batch", "sweep"),
                        default="batch")
    submit.add_argument("--label", default="")
    submit.add_argument("--delta", default="", metavar="BASE",
                        help="delta submit: diff the design against this "
                        "base file and ship only the edit (the daemon "
                        "reconstructs and detects server-side)")
    submit.add_argument("--no-wait", action="store_true",
                        help="enqueue and print the job id instead of streaming")
    submit.add_argument("--busy-retries", type=int, default=3,
                        help="automatic retries after a backpressure rejection")
    submit.set_defaults(func=_cmd_submit)

    status = sub.add_parser("status", help="query a running daemon")
    status.add_argument("job_id", nargs="?", default="",
                        help="job id to inspect (default: server-level stats)")
    _add_options(status, "--socket")
    status.add_argument("--json", action="store_true",
                        help="print the raw status response as JSON")
    status.add_argument("--group", default="",
                        help="only list jobs of this job group "
                        "(e.g. a sharded sweep's sweep/shard-3)")
    status.add_argument("--shutdown", action="store_true",
                        help="ask the daemon to drain and stop")
    status.add_argument("--no-drain", action="store_true",
                        help="with --shutdown: cancel the backlog instead "
                        "of draining it")
    status.set_defaults(func=_cmd_status)

    stats = sub.add_parser("stats", help="profile a design file")
    stats.add_argument("design", help=DESIGN_HELP)
    stats.add_argument("--rent", action="store_true", help="estimate the Rent exponent")
    stats.add_argument("--seed", type=int, default=0)
    stats.set_defaults(func=_cmd_stats)
    return parser


def main(argv: Optional[List[str]] = None) -> int:
    """CLI entry point."""
    from repro.obs import configure_logging

    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        configure_logging(args.log_level)
        return args.func(args)
    except ReproError as error:
        print(f"error: {error}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
