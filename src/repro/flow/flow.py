"""The :class:`Flow` composer: run a declared stage list with per-stage
content-fingerprint caching.

A flow is an ordered list of stages.  Each stage's fingerprint covers the
design, the stage's own config, and every stage before it — so any change
upstream re-keys (and therefore recomputes) everything downstream, while an
unchanged prefix is answered from the
:class:`~repro.service.store.ResultStore` with bit-identical artifacts.

Caching is only sound for deterministic work: a stage is looked up /
stored only when it *and every stage upstream of it* is deterministic
(pinned seeds).
"""

from __future__ import annotations

import logging
from dataclasses import dataclass
from typing import Callable, List, Optional, Sequence, Tuple

from repro.errors import FlowError, ServiceError
from repro.flow.context import FlowContext
from repro.flow.stage import Stage, StageResult
from repro.netlist.hypergraph import Netlist
from repro.obs import trace
from repro.service.fingerprint import fingerprint_netlist, stage_fingerprint
from repro.service.store import ResultStore
from repro.utils.tables import format_table
from repro.utils.timer import Timer

logger = logging.getLogger(__name__)

ProgressCallback = Callable[[StageResult], None]


@dataclass(frozen=True)
class FlowResult:
    """Outcome of one flow execution over one design.

    Attributes:
        name: the flow's name.
        design_fingerprint: content fingerprint of the input design.
        results: one :class:`StageResult` per declared stage, in order.
    """

    name: str
    design_fingerprint: str
    results: Tuple[StageResult, ...]

    def __getitem__(self, stage: str) -> StageResult:
        for result in self.results:
            if result.stage == stage:
                return result
        raise KeyError(
            f"no stage {stage!r} in flow {self.name!r}; "
            f"stages: {[r.stage for r in self.results]}"
        )

    def artifact(self, stage: str):
        """The artifact produced by the stage labelled ``stage``."""
        return self[stage].artifact

    @property
    def all_cached(self) -> bool:
        """True when every stage was answered from the result store."""
        return all(r.cached for r in self.results)

    @property
    def runtime_seconds(self) -> float:
        """Total wall-clock across all stages."""
        return sum(r.runtime_seconds for r in self.results)

    def summary(self) -> str:
        """Human-readable per-stage table."""
        headers = ["stage", "kind", "cache", "time", "summary"]
        rows = [
            [r.stage, r.kind, r.cache_label, f"{r.runtime_seconds:.2f}s",
             r.metadata_summary()]
            for r in self.results
        ]
        return format_table(headers, rows)


class Flow:
    """An ordered, named list of stages executed with per-stage caching.

    >>> flow = Flow([DetectStage(seed=1), PlaceStage(), CongestionStage()])
    ... # doctest: +SKIP
    >>> result = flow.run(netlist, store=ResultStore(".repro-cache"))
    ... # doctest: +SKIP

    When a flow declares the same stage twice, later occurrences are
    labelled ``<name>#2``, ``<name>#3``, ... so results stay addressable.
    """

    def __init__(self, stages: Sequence[Stage], name: str = "flow") -> None:
        stages = list(stages)
        if not stages:
            raise FlowError("a flow needs at least one stage")
        for stage in stages:
            if not isinstance(stage, Stage):
                raise FlowError(
                    f"flow stages must be Stage instances, got {type(stage).__name__}"
                )
        self.stages = stages
        self.name = name
        counts: dict = {}
        self.labels: List[str] = []
        for stage in stages:
            counts[stage.name] = counts.get(stage.name, 0) + 1
            suffix = f"#{counts[stage.name]}" if counts[stage.name] > 1 else ""
            self.labels.append(stage.name + suffix)

    @property
    def deterministic(self) -> bool:
        """True when every stage pins its randomness (fully cacheable)."""
        return all(stage.deterministic for stage in self.stages)

    # ------------------------------------------------------------------
    def run(
        self,
        netlist: Netlist,
        store: Optional[ResultStore] = None,
        use_cache: bool = True,
        pool=None,
        progress: Optional[ProgressCallback] = None,
    ) -> FlowResult:
        """Execute every stage in order over ``netlist``.

        Args:
            netlist: the design to run the flow on.
            store: result store consulted/filled per stage (``None`` = no
                caching).
            use_cache: master switch; ``False`` bypasses the store entirely.
            pool: shared :class:`~repro.service.pool.WorkerPool` handed to
                stages with internal parallelism.
            progress: callback invoked after every finished stage.
        """
        ctx = FlowContext(
            netlist=netlist, pool=pool, store=store if use_cache else None
        )
        design_fingerprint = fingerprint_netlist(netlist)
        chain: List[str] = [design_fingerprint]
        chain_deterministic = True

        with trace.span(
            "flow.run", flow=self.name, design=design_fingerprint[:12]
        ):
            results = self._run_stages(
                ctx, store, use_cache, progress, chain, chain_deterministic
            )

        return FlowResult(
            name=self.name,
            design_fingerprint=design_fingerprint,
            results=tuple(results),
        )

    def _run_stages(
        self, ctx, store, use_cache, progress, chain, chain_deterministic
    ) -> List[StageResult]:
        """The per-stage loop of :meth:`run` (one span per stage)."""
        results: List[StageResult] = []
        for label, stage in zip(self.labels, self.stages):
            fingerprint = stage_fingerprint(
                stage.name, stage.config_fingerprint(), chain
            )
            chain_deterministic = chain_deterministic and stage.deterministic
            cacheable = use_cache and store is not None and chain_deterministic

            artifact = None
            cached = False
            with trace.span(
                f"stage.{label}", kind=stage.kind, fingerprint=fingerprint[:12]
            ) as stage_span:
                with Timer() as timer:
                    if cacheable:
                        artifact = self._lookup(store, stage, fingerprint, ctx, label)
                        cached = artifact is not None
                    if artifact is None:
                        ctx.current_fingerprint = fingerprint
                        artifact = stage.compute(ctx)
                    stage.apply(ctx, artifact)
                if not cached and cacheable:
                    self._record(
                        store, stage, fingerprint, artifact, timer.elapsed, label
                    )
                stage_span.set(cache="hit" if cached else "run")

            result = StageResult(
                stage=label,
                kind=stage.kind,
                artifact=artifact,
                fingerprint=fingerprint,
                cached=cached,
                runtime_seconds=timer.elapsed,
                metadata=stage.metadata(artifact),
            )
            ctx.results.append(result)
            results.append(result)
            chain.append(fingerprint)
            if progress is not None:
                progress(result)

        return results

    # ------------------------------------------------------------------
    def _lookup(self, store, stage, fingerprint, ctx, label):
        """Cache lookup; degrades to recomputation on any store/codec failure
        (a payload that no longer decodes is dropped by the store)."""
        try:
            return store.get_payload(
                fingerprint,
                kind=stage.kind,
                decode=lambda payload: stage.decode_artifact(payload, ctx),
            )
        except ServiceError as error:
            logger.warning("cache lookup for stage %s failed: %s", label, error)
            return None

    def _record(self, store, stage, fingerprint, artifact, elapsed, label):
        """Cache insert; the computed artifact survives a broken cache."""
        try:
            store.put_payload(
                fingerprint,
                stage.encode_artifact(artifact),
                kind=stage.kind,
                num_items=stage.cache_items(artifact),
                runtime_seconds=elapsed,
            )
        except (ServiceError, FlowError) as error:
            logger.warning("result of stage %s computed but not cached: %s", label, error)

    def __repr__(self) -> str:
        inner = ", ".join(repr(stage) for stage in self.stages)
        return f"Flow([{inner}], name={self.name!r})"


__all__ = ["Flow", "FlowResult"]
