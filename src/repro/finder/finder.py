"""The full tangled-logic finder pipeline (Algorithm, Chapter IV).

Each random seed runs Phases I-III independently — the paper exploits this
with 8 pthreads; here seed runs are distributed over a
:class:`repro.service.pool.WorkerPool` when ``config.workers > 1`` (default
serial, which is deterministic and has no pickling overhead for small
designs).  Batch drivers (:class:`repro.service.jobs.BatchRunner`) pass a
persistent pool into :meth:`TangledLogicFinder.run` so many detections share
one set of worker processes.

Rent-exponent handling: Phase II estimates a Rent exponent per ordering (the
paper's estimator).  The finder averages those into a netlist-level exponent
and re-scores every refined candidate with it before pruning, so overlapping
candidates from different seeds are compared on one consistent scale.
"""

from __future__ import annotations

import logging
import math
from typing import TYPE_CHECKING, List, Optional, Sequence, Set, Tuple

from repro.errors import FinderError
from repro.finder.candidate import CandidateGTL, extract_candidate
from repro.finder.config import DEFAULT_RENT_EXPONENT, FinderConfig
from repro.finder.ordering import grow_linear_ordering, grower_kind
from repro.finder.prune import prune_overlapping
from repro.finder.refine import refine_candidate
from repro.finder.result import GTL, FinderReport
from repro.metrics.gtl_score import ScoreContext
from repro.netlist.hypergraph import Netlist
from repro.obs import trace
from repro.utils.rng import ensure_rng
from repro.utils.timer import Timer

if TYPE_CHECKING:  # import cycle: service.pool executes this module's seeds
    from repro.service.pool import WorkerPool

logger = logging.getLogger(__name__)

# One seed's outcome: (refined candidate or None, ordering Rent estimate,
# number of orderings grown, footprint).  The footprint is the sorted tuple
# of every cell absorbed by any ordering this seed grew (Phase I plus the
# refinement re-growths); it is the seed's read-set over the netlist, so an
# edit whose dirty region (see :mod:`repro.incremental.dirty`) misses the
# footprint cannot change the outcome — the invariant incremental
# detection's reuse rests on.
_SeedOutcome = Tuple[Optional[CandidateGTL], float, int, Tuple[int, ...]]


def _process_seed(
    netlist: Netlist, config: FinderConfig, seed_cell: int, rng_seed: int
) -> _SeedOutcome:
    """Run Phases I-III for one seed cell (independent unit of work).

    The kernel backend (CSR arrays vs scalar reference, see
    :mod:`repro.netlist.backend`) and its Phase I grower
    (:func:`~repro.finder.ordering.grower_kind`) are resolved here once per
    seed; every combination produces identical outcomes.
    """
    from repro.netlist.backend import resolve_backend

    backend = resolve_backend()
    max_length = config.resolve_order_length(netlist.num_cells)
    grower = grower_kind(backend)
    with trace.span("finder.seed", seed=seed_cell, backend=backend, grower=grower):
        trace.counter("finder.seeds").add(1)
        with trace.span("finder.phase1"):
            ordering = grow_linear_ordering(
                netlist,
                seed_cell,
                max_length,
                lambda_skip=config.lambda_skip,
                exclude_fixed=config.exclude_fixed,
                backend=backend,
            )
        touched: Set[int] = set(ordering)
        orderings_grown = 1
        with trace.span("finder.phase2"):
            candidate = extract_candidate(
                netlist, ordering, config, seed=seed_cell, backend=backend
            )
            if candidate is None:
                # Still recover the ordering's Rent estimate for the global
                # average.  NaN marks an ordering with no usable prefix so it
                # is *excluded* from the average instead of dragging it toward
                # the assumed 0.6; when every ordering is unusable the finder
                # flags rent_fallback.
                footprint = tuple(sorted(touched))
                if backend == "numpy":
                    from repro.finder.candidate import ordering_curves_and_rent

                    _, rent = ordering_curves_and_rent(
                        netlist, ordering, config.rent_min_prefix,
                        fallback=float("nan"),
                    )
                    return None, rent, orderings_grown, footprint
                from repro.finder.candidate import scan_ordering
                from repro.metrics.rent import estimate_rent_exponent_from_prefixes

                prefix_stats = scan_ordering(netlist, ordering, backend=backend)
                rent = estimate_rent_exponent_from_prefixes(
                    prefix_stats, min_size=config.rent_min_prefix,
                    fallback=float("nan"),
                )
                return None, rent, orderings_grown, footprint
        trace.counter("finder.candidates").add(1)

        with trace.span("finder.phase3"):
            refined = refine_candidate(
                netlist,
                candidate,
                config,
                rent_exponent=candidate.rent_exponent,
                rng=rng_seed,
                backend=backend,
                touched=touched,
            )
        orderings_grown += config.refine_count
        return refined, candidate.rent_exponent, orderings_grown, tuple(
            sorted(touched)
        )


def _process_batch(
    netlist: Netlist, config: FinderConfig, jobs: Sequence[Tuple[int, int]]
) -> List[_SeedOutcome]:
    """Process several ``(seed_cell, rng_seed)`` jobs in one worker."""
    return [_process_seed(netlist, config, cell, rng) for cell, rng in jobs]


def _draw_seed_cells(netlist: Netlist, config: FinderConfig) -> List[int]:
    from repro.finder.seeding import draw_seeds

    if config.exclude_fixed:
        eligible = netlist.movable_cells()
    else:
        eligible = list(range(netlist.num_cells))
    if not eligible:
        raise FinderError("no eligible seed cells (all cells fixed?)")
    return draw_seeds(
        netlist,
        eligible,
        config.num_seeds,
        strategy=config.seed_strategy,
        rng=ensure_rng(config.seed),
    )


def plan_seed_jobs(
    netlist: Netlist, config: FinderConfig
) -> List[Tuple[int, int]]:
    """The ``(seed_cell, rng_seed)`` job list one :meth:`run` would execute.

    Deterministic for a pinned ``config.seed``.  Exposed so incremental
    detection can re-plan the jobs on an edited netlist and match them
    index-by-index against a recorded trace.
    """
    seed_cells = _draw_seed_cells(netlist, config)
    rng = ensure_rng(config.seed)
    return [(cell, rng.randrange(2**63)) for cell in seed_cells]


def _rescore(
    netlist: Netlist, config: FinderConfig, candidate: CandidateGTL, rent: float
) -> CandidateGTL:
    context = ScoreContext.for_netlist(netlist, rent, metric=config.metric)
    stats = candidate.stats
    return CandidateGTL(
        cells=candidate.cells,
        score=context.score(stats),
        stats=stats,
        rent_exponent=rent,
        seed=candidate.seed,
    )


def _to_gtl(netlist: Netlist, candidate: CandidateGTL) -> GTL:
    # The candidate comes out of _rescore, whose stats already describe
    # exactly candidate.cells — no need to recompute them per kept group.
    stats = candidate.stats
    rent = candidate.rent_exponent
    ngtl = ScoreContext.for_netlist(netlist, rent, metric="ngtl_s")
    gtl_sd = ScoreContext.for_netlist(netlist, rent, metric="gtl_sd")
    return GTL(
        cells=candidate.cells,
        size=stats.size,
        cut=stats.cut,
        ngtl_score=ngtl.score(stats),
        gtl_sd_score=gtl_sd.score(stats),
        score=candidate.score,
        seed=candidate.seed,
        rent_exponent=rent,
    )


def reduce_outcomes(
    netlist: Netlist, config: FinderConfig, outcomes: Sequence[_SeedOutcome]
) -> Tuple[Tuple[GTL, ...], float, int, int, bool]:
    """The finder's reduce step over per-seed outcomes.

    Returns ``(gtls, global_rent, num_candidates, num_orderings,
    rent_fallback)``.  Pure in its inputs: incremental detection replays it
    over a merge of reused and recomputed outcomes and obtains the same
    report a cold run would.
    """
    with trace.span("finder.reduce"):
        candidates = [c for c, _, _, _ in outcomes if c is not None]
        rents = [p for _, p, _, _ in outcomes if math.isfinite(p)]
        orderings = sum(n for _, _, n, _ in outcomes)
        rent_fallback = not rents
        if rent_fallback:
            global_rent = DEFAULT_RENT_EXPONENT
            logger.warning(
                "no ordering yielded a usable Rent estimate; assuming "
                "default exponent p=%.2f",
                DEFAULT_RENT_EXPONENT,
            )
        else:
            global_rent = sum(rents) / len(rents)

        rescored = [_rescore(netlist, config, c, global_rent) for c in candidates]
        kept = prune_overlapping(rescored, netlist=netlist)
        gtls = tuple(_to_gtl(netlist, c) for c in kept)
    return gtls, global_rent, len(candidates), orderings, rent_fallback


def run_seed_jobs(
    netlist: Netlist,
    config: FinderConfig,
    jobs: Sequence[Tuple[int, int]],
    pool: Optional["WorkerPool"] = None,
    pool_key: Optional[str] = None,
) -> List[_SeedOutcome]:
    """Run ``(seed_cell, rng_seed)`` jobs; outcomes in job order.

    On ``pool`` when given; otherwise on an ephemeral pool when
    ``config.workers > 1`` and there is more than one job; else serially.
    """
    if pool is not None:
        return pool.run_seed_jobs(netlist, config, jobs, key=pool_key)
    if config.workers > 1 and len(jobs) > 1:
        from repro.service.pool import WorkerPool

        # The fixed key skips content hashing: the pool lives for exactly
        # one (netlist, config) context, so no collision is possible.
        with WorkerPool(min(config.workers, len(jobs))) as ephemeral:
            return ephemeral.run_seed_jobs(netlist, config, jobs, key="single-run")
    return _process_batch(netlist, config, jobs)


class TangledLogicFinder:
    """Finds all groups of tangled logic in a netlist.

    >>> from repro.generators import planted_gtl_graph
    >>> netlist, truth = planted_gtl_graph(2000, [200], seed=1)
    >>> report = TangledLogicFinder(netlist, FinderConfig(num_seeds=8, seed=1)).run()
    >>> report.num_gtls >= 1
    True
    """

    def __init__(self, netlist: Netlist, config: Optional[FinderConfig] = None):
        if netlist.num_cells < 2:
            raise FinderError("netlist too small for GTL detection")
        self.netlist = netlist
        self.config = config or FinderConfig()
        #: Jobs and per-seed outcomes of the most recent :meth:`run` —
        #: the raw material of a :class:`repro.incremental.engine.SeedTrace`.
        self.last_jobs: List[Tuple[int, int]] = []
        self.last_outcomes: List[_SeedOutcome] = []

    # ------------------------------------------------------------------
    def run(
        self,
        pool: Optional["WorkerPool"] = None,
        pool_key: Optional[str] = None,
    ) -> FinderReport:
        """Execute Phases I-III for all seeds and return the report.

        Args:
            pool: a persistent :class:`repro.service.pool.WorkerPool` to run
                the seed trials on; ``None`` executes serially or, when
                ``config.workers > 1``, on an ephemeral pool.
            pool_key: context key identifying ``(netlist, config)`` inside
                ``pool`` (batch drivers pass the job fingerprint so the
                netlist is shipped to the workers only once).
        """
        config = self.config
        with Timer() as timer, trace.span(
            "finder.run", seeds=config.num_seeds
        ):
            jobs = plan_seed_jobs(self.netlist, config)
            outcomes = run_seed_jobs(self.netlist, config, jobs, pool, pool_key)
            self.last_jobs = list(jobs)
            self.last_outcomes = list(outcomes)
            gtls, global_rent, num_candidates, orderings, rent_fallback = (
                reduce_outcomes(self.netlist, config, outcomes)
            )

        return FinderReport(
            gtls=gtls,
            config=config,
            rent_exponent=global_rent,
            num_orderings=orderings,
            num_candidates=num_candidates,
            runtime_seconds=timer.elapsed,
            rent_fallback=rent_fallback,
        )


def find_tangled_logic(
    netlist: Netlist, config: Optional[FinderConfig] = None, **overrides
) -> FinderReport:
    """One-call convenience API.

    ``overrides`` are applied on top of ``config`` (or the defaults), e.g.
    ``find_tangled_logic(netlist, num_seeds=100, seed=42)``.
    """
    base = config or FinderConfig()
    if overrides:
        base = base.with_overrides(**overrides)
    return TangledLogicFinder(netlist, base).run()
