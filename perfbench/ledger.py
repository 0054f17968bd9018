"""Outside-in per-layer timing: wrappers around ``repro`` module attributes.

The benchmark adds no span or counter to the program.  It replaces
public functions of each layer, from outside, with timing wrappers and
keeps the times in a :class:`Ledger`:

* In the benchmark's own process a wrapper pushes a frame on a
  per-thread stack.  On return the call's *self time* (its duration minus
  the durations of the wrapped calls nested in it) goes to its metric, so
  the self times of one thread add up exactly to the durations of its
  outermost wrapped calls.
* In a forked pool worker the ledger object is a dead copy, so the
  wrapper opens a ``repro.obs`` span named ``bench.<metric>`` instead.
  The pool already captures worker spans and ships them back when the
  parent traces; :meth:`Ledger.worker_self_times` reads them from the
  parent's tracer.

The wrappers are installed before any pool forks (so workers inherit
them) and stay inert until :attr:`Ledger.active` is set.
"""

from __future__ import annotations

import functools
import os
import sys
import threading
import time
from collections import defaultdict
from typing import Any, Callable, Dict, List, Optional

from repro.obs import trace

SPAN_PREFIX = "bench."


class Ledger:
    """Self times and call counts per metric, for the traced pass."""

    def __init__(self) -> None:
        self.pid = os.getpid()
        self.active = False
        self.self_s: Dict[str, float] = defaultdict(float)
        self.calls: Dict[str, int] = defaultdict(int)
        self.outermost_s = 0.0
        self.store_hits = 0
        self.store_misses = 0
        self._local = threading.local()
        self._lock = threading.Lock()
        self._patches: List[tuple] = []

    # -- wrapping -------------------------------------------------------
    def _stack(self) -> List[List[float]]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def wrap(
        self,
        metric: str,
        fn: Callable,
        observe: Optional[Callable[[Any], None]] = None,
    ) -> Callable:
        """A timing wrapper of ``fn`` that books its self time to ``metric``."""
        ledger = self
        span_name = SPAN_PREFIX + metric

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if os.getpid() != ledger.pid:
                if trace.enabled():
                    with trace.span(span_name):
                        return fn(*args, **kwargs)
                return fn(*args, **kwargs)
            if not ledger.active:
                return fn(*args, **kwargs)
            stack = ledger._stack()
            frame = [0.0]  # time spent in nested wrapped calls
            stack.append(frame)
            began = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = time.perf_counter() - began
                stack.pop()
                with ledger._lock:
                    ledger.self_s[metric] += elapsed - frame[0]
                    ledger.calls[metric] += 1
                    if stack:
                        stack[-1][0] += elapsed
                    else:
                        ledger.outermost_s += elapsed
            if observe is not None:
                observe(result)
            return result

        return wrapper

    def patch(self, owner: Any, attr: str, metric: str, observe=None) -> None:
        """Wrap ``owner.attr`` (a module or class attribute) only there."""
        original = getattr(owner, attr)
        setattr(owner, attr, self.wrap(metric, original, observe))
        self._patches.append((owner, attr, original))

    def patch_everywhere(self, module: Any, attr: str, metric: str) -> None:
        """Wrap function ``module.attr`` and every loaded ``repro`` module
        that bound it by name (``from module import attr``)."""
        original = getattr(module, attr)
        wrapper = self.wrap(metric, original)
        for name, loaded in list(sys.modules.items()):
            if not name.startswith("repro") or loaded is None:
                continue
            if vars(loaded).get(attr) is original:
                setattr(loaded, attr, wrapper)
                self._patches.append((loaded, attr, original))

    def unpatch(self) -> None:
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    # -- results --------------------------------------------------------
    def snapshot(self) -> Dict[str, Any]:
        """The ledger's numbers as plain JSON-able data."""
        return {
            "self_s": dict(self.self_s),
            "calls": dict(self.calls),
            "outermost_s": self.outermost_s,
            "store_hits": self.store_hits,
            "store_misses": self.store_misses,
        }

    def observe_store_get(self, result: Any) -> None:
        if os.getpid() != self.pid or not self.active:
            return
        with self._lock:
            if result is None:
                self.store_misses += 1
            else:
                self.store_hits += 1

    @staticmethod
    def worker_self_times(spans: List[Dict[str, Any]], parent_pid: int) -> Dict[str, float]:
        """Self times per metric of the ``bench.*`` spans pool workers shipped.

        A span's self time is its duration minus the durations of the
        nearest ``bench.*`` spans below it, found through any ``repro``
        spans in between.
        """
        by_id = {span["span_id"]: span for span in spans}
        totals: Dict[str, float] = defaultdict(float)
        for span in spans:
            if not span["name"].startswith(SPAN_PREFIX) or span.get("pid") == parent_pid:
                continue
            totals[span["name"][len(SPAN_PREFIX):]] += span["duration"]
            parent = by_id.get(span.get("parent_id"))
            while parent is not None and not parent["name"].startswith(SPAN_PREFIX):
                parent = by_id.get(parent.get("parent_id"))
            if parent is not None:
                totals[parent["name"][len(SPAN_PREFIX):]] -= span["duration"]
        return dict(totals)


def install(ledger: Ledger) -> None:
    """Wrap the public functions of every measured layer.

    Call after ``repro.cli``, ``repro.server`` and ``repro.incremental``
    are imported, so that name bindings made at import are found.
    """
    from repro.finder import finder, kernel, refine
    from repro.incremental import delta, dirty, engine
    from repro.io import binfmt, bookshelf
    from repro.netlist import arrays
    from repro.service import codec, fingerprint, pool, store, sweep

    ledger.patch_everywhere(bookshelf, "read_bookshelf", "io.load_text_s")
    ledger.patch_everywhere(binfmt, "load_packed", "io.load_nla_s")
    # Looked up on the module at call time (lazy import in Netlist.arrays).
    ledger.patch(arrays, "build_netlist_arrays", "netlist.arrays_s")
    ledger.patch_everywhere(fingerprint, "fingerprint_netlist", "fingerprint.netlist_s")

    ledger.patch(kernel.KernelTables, "__init__", "finder.kernel_tables_s")
    # The same grower called from two places: Phase I in finder.py and the
    # Phase III re-growths in refine.py.  Each module's own binding is
    # wrapped, so the two callers land in different metrics.
    ledger.patch(finder, "grow_linear_ordering", "finder.phase1_s")
    ledger.patch(refine, "grow_linear_ordering", "finder.refine_regrow_s")
    ledger.patch(finder, "extract_candidate", "finder.phase2_s")
    ledger.patch(finder, "refine_candidate", "finder.refine_family_s")
    ledger.patch_everywhere(finder, "_process_seed", "finder.seed_s")
    ledger.patch_everywhere(finder, "reduce_outcomes", "finder.reduce_s")
    ledger.patch_everywhere(finder, "plan_seed_jobs", "finder.seeding_s")

    ledger.patch_everywhere(delta, "diff", "incremental.diff_s")
    ledger.patch_everywhere(delta, "apply_delta", "incremental.apply_delta_s")
    ledger.patch_everywhere(dirty, "dirty_region", "incremental.dirty_s")
    ledger.patch(engine.SeedTrace, "from_dict", "codec.trace_s")
    ledger.patch(engine.SeedTrace, "to_dict", "codec.trace_s")

    ledger.patch(
        store.ResultStore, "get_payload", "store.get_s", ledger.observe_store_get
    )
    ledger.patch(store.ResultStore, "__contains__", "store.get_s")
    ledger.patch(store.ResultStore, "put_payload", "store.put_s")
    ledger.patch_everywhere(codec, "report_to_dict", "codec.report_s")
    ledger.patch_everywhere(codec, "report_from_dict", "codec.report_s")

    ledger.patch(pool.WorkerPool, "run_seed_jobs", "pool.run_s")
    ledger.patch_everywhere(sweep, "plan_sweep", "sweep.plan_s")
