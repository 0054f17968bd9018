"""Incremental detection: patch a cached report instead of recomputing it.

The full finder is embarrassingly parallel over seeds, and each seed's
outcome depends only on its footprint's neighborhood (see
:mod:`repro.incremental.dirty`).  So an edited netlist needs Phase I–III
re-run only for the seeds whose footprint intersects the edit's dirty
region; every other per-seed outcome is replayed from a recorded
:class:`SeedTrace` and the finder's reduce step
(:func:`repro.finder.finder.reduce_outcomes`) is re-run over the merged
outcome list.  Because the reduce is pure in its inputs, the patched
report is **identical** to a cold run on the edited netlist — the parity
invariant every test here asserts, on both kernel backends.

Reuse is only sound when the netlist-global inputs of a seed job are
unchanged; :func:`incremental_detect` falls back to a full traced run
when they are not:

* cells added or removed, or any cell's ``fixed`` flag flipped (the
  eligible-seed set, growth exclusion and index space shift);
* the total pin count changed (it parametrizes the density-aware score
  exponent, coupling every group's score to the whole netlist);
* the per-index seed plan diverged (weighted seed strategies sample by
  netlist statistics) — per-seed, not global;
* the dirty fraction exceeds ``full_threshold`` (patching would re-run
  nearly everything anyway, so skip the bookkeeping).

Persistence: :func:`detect_with_reuse` keeps, per result-store row space,

* the report itself (``KIND_FINDER_REPORT`` under the job fingerprint);
* the seed trace (``trace-<job fp>``, :data:`KIND_FINDER_TRACE`);
* a provenance row for patched reports (``prov-<job fp>``,
  :data:`KIND_INCREMENTAL_PROVENANCE`: ``base_fingerprint``,
  ``delta_fingerprint``, ``dirty_cells``);
* a per-config head pointer (``head-<config fp>``,
  :data:`KIND_INCREMENTAL_HEAD`) naming the latest traced run, so the
  next edit finds its base automatically;
* the base design itself as a packed ``.nla`` under
  ``<cache_dir>/designs/`` so a later ``repro detect --base <fp>`` can
  diff against it without the original file.
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass
from typing import Any, Dict, List, Optional, Sequence, Tuple

from repro.errors import ServiceError
from repro.finder.candidate import CandidateGTL
from repro.finder.config import FinderConfig
from repro.finder.finder import (
    TangledLogicFinder,
    _SeedOutcome,
    plan_seed_jobs,
    reduce_outcomes,
    run_seed_jobs,
)
from repro.finder.result import FinderReport
from repro.netlist.hypergraph import Netlist
from repro.netlist.ops import GroupStats
from repro.obs import trace
from repro.service.codec import config_from_dict, config_to_dict
from repro.service.fingerprint import (
    fingerprint_config,
    fingerprint_netlist,
    job_fingerprint,
)
from repro.service.store import ResultStore
from repro.utils.timer import Timer

from repro.incremental.delta import NetlistDelta, delta_fingerprint, diff
from repro.incremental.dirty import DirtyRegion, dirty_region

#: Store row kinds introduced by incremental detection.
KIND_FINDER_TRACE = "finder_trace"
KIND_INCREMENTAL_PROVENANCE = "incremental_provenance"
KIND_INCREMENTAL_HEAD = "incremental_head"

#: Version of the persisted seed-trace payload.
TRACE_VERSION = 1

#: Default dirty-fraction ceiling beyond which patching falls back to a
#: full recompute.
DEFAULT_FULL_THRESHOLD = 0.25

#: Subdirectory of the store's cache dir holding packed base designs.
DESIGNS_SUBDIR = "designs"


def _trace_key(job_fingerprint_: str) -> str:
    return f"trace-{job_fingerprint_}"


def _provenance_key(job_fingerprint_: str) -> str:
    return f"prov-{job_fingerprint_}"


def _head_key(config_fingerprint_: str) -> str:
    return f"head-{config_fingerprint_}"


# ----------------------------------------------------------------------
# Seed traces
# ----------------------------------------------------------------------
def _candidate_to_row(candidate: Optional[CandidateGTL]) -> Optional[List[Any]]:
    if candidate is None:
        return None
    stats = candidate.stats
    return [
        sorted(candidate.cells),
        candidate.score,
        [stats.size, stats.cut, stats.pins, stats.internal_nets, stats.avg_pins],
        candidate.rent_exponent,
        candidate.seed,
    ]


def _candidate_from_row(row: Optional[Sequence[Any]]) -> Optional[CandidateGTL]:
    if row is None:
        return None
    cells, score, stats_row, rent, seed = row
    size, cut, pins, internal_nets, avg_pins = stats_row
    return CandidateGTL(
        cells=frozenset(int(c) for c in cells),
        score=float(score),
        stats=GroupStats(
            size=int(size), cut=int(cut), pins=int(pins),
            internal_nets=int(internal_nets), avg_pins=float(avg_pins),
        ),
        rent_exponent=float(rent),
        seed=int(seed),
    )


@dataclass(frozen=True)
class SeedTrace:
    """Everything needed to replay one finder run seed-by-seed.

    Attributes:
        netlist_fingerprint: content fingerprint of the traced netlist.
        config: the finder configuration of the run.
        num_cells: cell count of the traced netlist (reuse guard).
        num_pins: total pin count of the traced netlist (reuse guard — it
            parametrizes the density-aware score exponent).
        jobs: the ``(seed_cell, rng_seed)`` plan, in execution order.
        outcomes: one ``_SeedOutcome`` per job, same order.
    """

    netlist_fingerprint: str
    config: FinderConfig
    num_cells: int
    num_pins: int
    jobs: Tuple[Tuple[int, int], ...]
    outcomes: Tuple[_SeedOutcome, ...]

    def to_dict(self) -> Dict[str, Any]:
        """JSON-safe storage form (NaN Rent estimates encode as ``null``)."""
        return {
            "version": TRACE_VERSION,
            "netlist_fingerprint": self.netlist_fingerprint,
            "config": config_to_dict(self.config),
            "num_cells": self.num_cells,
            "num_pins": self.num_pins,
            "jobs": [[cell, rng] for cell, rng in self.jobs],
            "outcomes": [
                [
                    _candidate_to_row(candidate),
                    None if math.isnan(rent) else rent,
                    orderings,
                    list(footprint),
                ]
                for candidate, rent, orderings, footprint in self.outcomes
            ],
        }

    @classmethod
    def from_dict(cls, data: Dict[str, Any]) -> "SeedTrace":
        if not isinstance(data, dict) or data.get("version") != TRACE_VERSION:
            raise ServiceError(
                f"unsupported seed-trace payload "
                f"(version {data.get('version') if isinstance(data, dict) else '?'!r}, "
                f"this build speaks {TRACE_VERSION})"
            )
        try:
            return cls(
                netlist_fingerprint=str(data["netlist_fingerprint"]),
                config=config_from_dict(data["config"]),
                num_cells=int(data["num_cells"]),
                num_pins=int(data["num_pins"]),
                jobs=tuple((int(c), int(r)) for c, r in data["jobs"]),
                outcomes=tuple(
                    (
                        _candidate_from_row(candidate_row),
                        float("nan") if rent is None else float(rent),
                        int(orderings),
                        tuple(int(c) for c in footprint),
                    )
                    for candidate_row, rent, orderings, footprint in data["outcomes"]
                ),
            )
        except (KeyError, TypeError, ValueError) as error:
            raise ServiceError(f"malformed seed-trace payload: {error}") from error


def run_traced(
    netlist: Netlist,
    config: FinderConfig,
    pool: Optional[Any] = None,
) -> Tuple[FinderReport, SeedTrace]:
    """One full finder run, returning the report plus its seed trace."""
    finder = TangledLogicFinder(netlist, config)
    report = finder.run(pool=pool)
    seed_trace = SeedTrace(
        netlist_fingerprint=fingerprint_netlist(netlist),
        config=config,
        num_cells=netlist.num_cells,
        num_pins=netlist.num_pins,
        jobs=tuple(finder.last_jobs),
        outcomes=tuple(finder.last_outcomes),
    )
    return report, seed_trace


# ----------------------------------------------------------------------
# Incremental detection
# ----------------------------------------------------------------------
@dataclass
class IncrementalResult:
    """Outcome of one :func:`incremental_detect` / :func:`detect_with_reuse`.

    ``mode`` is ``"incremental"`` (patched from a base trace), ``"full"``
    (cold run; ``reason`` says why), or ``"cached"`` (store answered the
    exact job fingerprint; no trace work at all).
    """

    report: FinderReport
    trace: Optional[SeedTrace] = None
    mode: str = "full"
    reason: str = ""
    base_fingerprint: str = ""
    delta_fingerprint: str = ""
    dirty_cells: int = 0
    dirty_fraction: float = 0.0
    seeds_total: int = 0
    seeds_recomputed: int = 0

    @property
    def seeds_reused(self) -> int:
        return self.seeds_total - self.seeds_recomputed

    def provenance(self) -> Dict[str, Any]:
        """The provenance payload stored next to a patched report."""
        return {
            "mode": self.mode,
            "reason": self.reason,
            "base_fingerprint": self.base_fingerprint,
            "delta_fingerprint": self.delta_fingerprint,
            "dirty_cells": self.dirty_cells,
            "dirty_fraction": self.dirty_fraction,
            "seeds_total": self.seeds_total,
            "seeds_recomputed": self.seeds_recomputed,
        }

    def summary(self) -> str:
        if self.mode == "incremental":
            return (
                f"incremental: {self.seeds_recomputed}/{self.seeds_total} "
                f"seed(s) re-run ({self.dirty_cells} dirty cell(s), "
                f"{self.dirty_fraction:.1%} of the netlist)"
            )
        if self.mode == "cached":
            return "cached: exact fingerprint answered from the store"
        return f"full recompute ({self.reason or 'no base'})"


def _full_fallback_reason(
    new: Netlist, seed_trace: SeedTrace, delta: NetlistDelta
) -> Optional[str]:
    """Why per-seed reuse would be unsound for this edit, or ``None``."""
    if delta.cells_added or delta.cells_removed:
        return "cell set changed"
    if new.num_cells != seed_trace.num_cells:
        return "cell count changed"
    return None


def incremental_detect(
    base: Netlist,
    new: Netlist,
    seed_trace: SeedTrace,
    config: Optional[FinderConfig] = None,
    *,
    delta: Optional[NetlistDelta] = None,
    halo: int = 0,
    full_threshold: float = DEFAULT_FULL_THRESHOLD,
    pool: Optional[Any] = None,
) -> IncrementalResult:
    """Patch a traced base run onto the edited netlist ``new``.

    Re-runs Phase I–III only for seeds whose recorded footprint intersects
    the edit's dirty region (or whose planned ``(seed_cell, rng_seed)``
    job diverged), replays every other outcome from ``seed_trace``, and
    re-reduces.  The returned report is identical to a cold run on ``new``
    — full-recompute parity is the invariant, not an approximation.
    """
    config = config or seed_trace.config
    if config.seed is None:
        raise ServiceError(
            "incremental detection requires a pinned config.seed "
            "(nondeterministic runs cannot be replayed)"
        )
    if fingerprint_config(config) != fingerprint_config(seed_trace.config):
        raise ServiceError(
            "seed trace was recorded under a different finder config; "
            "re-run the base detection with the requested config first"
        )
    base_fp = fingerprint_netlist(base)
    if base_fp != seed_trace.netlist_fingerprint:
        raise ServiceError(
            "seed trace does not belong to the supplied base netlist "
            f"(trace {seed_trace.netlist_fingerprint[:12]}, "
            f"base {base_fp[:12]})"
        )

    with Timer() as timer, trace.span("incremental.detect"):
        with trace.span("incremental.diff"):
            if delta is None:
                delta = diff(base, new)
        delta_fp = delta_fingerprint(base_fp, delta)

        def _full(reason: str, region: Optional[DirtyRegion] = None) -> IncrementalResult:
            trace.counter("incremental.full_fallbacks").add(1)
            report, new_trace = run_traced(new, config, pool=pool)
            return IncrementalResult(
                report=report,
                trace=new_trace,
                mode="full",
                reason=reason,
                base_fingerprint=base_fp,
                delta_fingerprint=delta_fp,
                dirty_cells=len(region.cells) if region else 0,
                dirty_fraction=region.fraction if region else 0.0,
                seeds_total=len(new_trace.jobs),
                seeds_recomputed=len(new_trace.jobs),
            )

        reason = _full_fallback_reason(new, seed_trace, delta)
        if reason is not None:
            return _full(reason)
        if new.num_pins != seed_trace.num_pins:
            # Total pins parametrize the gtl_sd score exponent: every
            # group's score shifts, so nothing recorded can be reused.
            return _full("total pin count changed")
        if any(
            edit.fixed != base.cell_is_fixed(base.cell_index(edit.name))
            for edit in delta.cells_changed
        ):
            return _full("fixed flags changed")

        region = dirty_region(new, delta, halo=halo)
        if region.fraction > full_threshold:
            return _full(
                f"dirty fraction {region.fraction:.1%} exceeds "
                f"threshold {full_threshold:.1%}",
                region,
            )

        jobs = plan_seed_jobs(new, config)
        if len(jobs) != len(seed_trace.jobs):
            return _full("seed plan size changed", region)

        dirty_indices = [
            i
            for i, job in enumerate(jobs)
            if job != seed_trace.jobs[i]
            or region.intersects(seed_trace.outcomes[i][3])
        ]

        with trace.span(
            "incremental.patch",
            dirty_seeds=len(dirty_indices),
            total_seeds=len(jobs),
        ):
            merged: List[_SeedOutcome] = list(seed_trace.outcomes)
            if dirty_indices:
                recomputed = run_seed_jobs(
                    new, config, [jobs[i] for i in dirty_indices], pool
                )
                for index, outcome in zip(dirty_indices, recomputed):
                    merged[index] = outcome
            gtls, global_rent, num_candidates, orderings, rent_fallback = (
                reduce_outcomes(new, config, merged)
            )
        trace.counter("incremental.seeds_reused").add(len(jobs) - len(dirty_indices))
        trace.counter("incremental.seeds_recomputed").add(len(dirty_indices))

    report = FinderReport(
        gtls=gtls,
        config=config,
        rent_exponent=global_rent,
        num_orderings=orderings,
        num_candidates=num_candidates,
        runtime_seconds=timer.elapsed,
        rent_fallback=rent_fallback,
    )
    new_trace = SeedTrace(
        netlist_fingerprint=fingerprint_netlist(new),
        config=config,
        num_cells=new.num_cells,
        num_pins=new.num_pins,
        jobs=tuple(jobs),
        outcomes=tuple(merged),
    )
    return IncrementalResult(
        report=report,
        trace=new_trace,
        mode="incremental",
        base_fingerprint=base_fp,
        delta_fingerprint=delta_fp,
        dirty_cells=len(region.cells),
        dirty_fraction=region.fraction,
        seeds_total=len(jobs),
        seeds_recomputed=len(dirty_indices),
    )


# ----------------------------------------------------------------------
# Store-backed entry point
# ----------------------------------------------------------------------
def design_path(store: ResultStore, netlist_fingerprint: str) -> str:
    """Where the packed base design for ``netlist_fingerprint`` lives."""
    return os.path.join(
        store.cache_dir, DESIGNS_SUBDIR, f"{netlist_fingerprint}.nla"
    )


def load_trace(store: ResultStore, job_fp: str) -> Optional[SeedTrace]:
    """The persisted :class:`SeedTrace` of job ``job_fp``, or ``None``."""
    payload = store.get_payload(_trace_key(job_fp), kind=KIND_FINDER_TRACE)
    if payload is None:
        return None
    try:
        return SeedTrace.from_dict(payload)
    except ServiceError:
        store.evict(_trace_key(job_fp))
        return None


def _persist(
    store: ResultStore,
    netlist: Netlist,
    config: FinderConfig,
    job_fp: str,
    result: IncrementalResult,
) -> None:
    """Write report, trace, provenance, head pointer and design blob."""
    store.put(job_fp, result.report)
    if result.trace is not None:
        store.put_payload(
            _trace_key(job_fp),
            result.trace.to_dict(),
            kind=KIND_FINDER_TRACE,
            num_items=len(result.trace.jobs),
            runtime_seconds=result.report.runtime_seconds,
        )
    if result.mode == "incremental":
        store.put_payload(
            _provenance_key(job_fp),
            result.provenance(),
            kind=KIND_INCREMENTAL_PROVENANCE,
            num_items=result.dirty_cells,
        )
    netlist_fp = fingerprint_netlist(netlist)
    store.put_payload(
        _head_key(fingerprint_config(config)),
        {"netlist_fingerprint": netlist_fp, "job_fingerprint": job_fp},
        kind=KIND_INCREMENTAL_HEAD,
    )
    path = design_path(store, netlist_fp)
    if not os.path.exists(path):
        from repro.io import write_packed

        os.makedirs(os.path.dirname(path), exist_ok=True)
        write_packed(netlist, path)


def detect_with_reuse(
    netlist: Netlist,
    config: FinderConfig,
    store: Optional[ResultStore],
    *,
    base: Optional[Netlist] = None,
    base_fingerprint: str = "",
    delta: Optional[NetlistDelta] = None,
    halo: int = 0,
    full_threshold: float = DEFAULT_FULL_THRESHOLD,
    pool: Optional[Any] = None,
) -> IncrementalResult:
    """Detect on ``netlist``, reusing whatever the store makes sound.

    The decision ladder:

    1. exact job fingerprint cached -> answer from the store (``cached``);
    2. a base (explicit ``base``/``base_fingerprint``, or the per-config
       head pointer) with a persisted seed trace and design blob ->
       :func:`incremental_detect` (``incremental``, or ``full`` with the
       fall-back reason);
    3. otherwise -> full traced run (``full``).

    Deterministic runs persist their report + trace + head pointer (and,
    for patched reports, a provenance row) so the *next* edit starts at
    step 2.  ``config.seed=None`` runs never touch the store.
    """
    deterministic = config.seed is not None
    if store is None or not deterministic:
        report, seed_trace = run_traced(netlist, config, pool=pool)
        return IncrementalResult(
            report=report,
            trace=seed_trace,
            mode="full",
            reason="no result store" if store is None else "unpinned seed",
            seeds_total=len(seed_trace.jobs),
            seeds_recomputed=len(seed_trace.jobs),
        )

    netlist_fp = fingerprint_netlist(netlist)
    job_fp = job_fingerprint(netlist, config, netlist_fingerprint=netlist_fp)
    cached = store.get(job_fp)
    if cached is not None:
        import dataclasses

        if cached.config != config:
            cached = dataclasses.replace(cached, config=config)
        return IncrementalResult(report=cached, mode="cached")

    result = _try_incremental(
        netlist, config, store,
        base=base, base_fingerprint=base_fingerprint, delta=delta,
        netlist_fp=netlist_fp, halo=halo, full_threshold=full_threshold,
        pool=pool,
    )
    if result is None:
        report, seed_trace = run_traced(netlist, config, pool=pool)
        result = IncrementalResult(
            report=report,
            trace=seed_trace,
            mode="full",
            reason="no traced base run",
            seeds_total=len(seed_trace.jobs),
            seeds_recomputed=len(seed_trace.jobs),
        )
    _persist(store, netlist, config, job_fp, result)
    return result


def _try_incremental(
    netlist: Netlist,
    config: FinderConfig,
    store: ResultStore,
    *,
    base: Optional[Netlist],
    base_fingerprint: str,
    delta: Optional[NetlistDelta],
    netlist_fp: str,
    halo: int,
    full_threshold: float,
    pool: Optional[Any],
) -> Optional[IncrementalResult]:
    """Resolve a usable base + trace and patch; ``None`` when there is none."""
    base_fp = base_fingerprint
    if base is not None and not base_fp:
        base_fp = fingerprint_netlist(base)
    if not base_fp:
        head = store.get_payload(
            _head_key(fingerprint_config(config)), kind=KIND_INCREMENTAL_HEAD
        )
        if not head:
            return None
        base_fp = str(head.get("netlist_fingerprint", ""))
    if not base_fp or base_fp == netlist_fp:
        return None  # no base, or "edit" is the identical netlist

    base_job_fp = job_fingerprint(netlist, config, netlist_fingerprint=base_fp)
    seed_trace = load_trace(store, base_job_fp)
    if seed_trace is None:
        return None
    if base is None:
        path = design_path(store, base_fp)
        if not os.path.exists(path):
            return None
        from repro.io import load_packed

        base = load_packed(path)
    return incremental_detect(
        base, netlist, seed_trace, config,
        delta=delta, halo=halo, full_threshold=full_threshold,
        pool=pool,
    )


__all__ = [
    "DEFAULT_FULL_THRESHOLD",
    "DESIGNS_SUBDIR",
    "KIND_FINDER_TRACE",
    "KIND_INCREMENTAL_HEAD",
    "KIND_INCREMENTAL_PROVENANCE",
    "TRACE_VERSION",
    "IncrementalResult",
    "SeedTrace",
    "design_path",
    "detect_with_reuse",
    "incremental_detect",
    "load_trace",
    "run_traced",
]
