"""Flat-array Phase I kernel: linear-ordering growth on the CSR netlist view.

:class:`KernelTables` holds the static per-netlist tables every grower
reads.  The numpy backend grows orderings with
:class:`~repro.finder.native.NativeOrderingGrower`, the C port of
:class:`ArrayOrderingGrower` over the same tables;
:class:`ArrayOrderingGrower` runs only on hosts where the C library cannot
be built or loaded.

:class:`ArrayOrderingGrower` is the drop-in counterpart of the scalar
reference :class:`~repro.finder.ordering.LinearOrderingGrower`.  Instead of
per-neighbor dicts it works on flat state indexed by cell id, laid out once
per netlist from the CSR :class:`~repro.netlist.arrays.NetlistArrays` view:

* ``weight`` / ``cutstate`` — connection weight and folded cut-delta
  counters per cell (``cutstate`` is the sum of the reference's ``touched``
  and ``absorbable`` counters; only their sum enters the cut delta);
* ``degree2`` — per cell, the number of incident nets with >= 2 pins (the
  constant term of the cut delta, precomputed in :class:`KernelTables` so a
  heap push is O(1) instead of the reference's O(cell degree) recount);
* an *update CSR* — ``net_ptr``/``net_cells`` with fixed pins pre-dropped
  when ``exclude_fixed`` is set, so the absorb loop never re-tests pins.

Heap bookkeeping is value-validated: an entry ``(-weight, cut_delta,
counter, cell)`` is live iff the cell is still outside the group and its
recorded weight equals the current state.  Connection weights strictly
increase with every update, so the live entry per cell is always its most
recent push — exactly the tie-breaking the reference's lazy heap implements
with a shadow dict, without paying for the dict.  Updates are applied pin
by pin in CSR slice order, the reference's exact float accumulation order,
so orderings, weights and cut deltas are all bit-identical.

In this fallback the per-cell state lives in flat Python lists rather than
numpy arrays: one absorb touches only a handful of pins, and list indexing
beats numpy scalar indexing several times over at that grain (the native
grower takes the interpreter out of that loop).  The vectorized numpy
kernels take over where whole curves or groups are processed at once
(:func:`~repro.netlist.ops.scan_ordering_curves`,
:func:`~repro.netlist.ops.group_stats`, CSR BFS connectivity), and the
static tables here are themselves built by vectorized passes over the CSR
arrays.
"""

from __future__ import annotations

from functools import cached_property
from heapq import heapify, heappop, heappush
from typing import Dict, List, Optional

import numpy as np

from repro.errors import FinderError
from repro.netlist.hypergraph import Netlist

#: Key of the shared static tables inside ``netlist.derived_cache``.
_TABLES_KEY = "finder_kernel_tables"


def check_seed(netlist: Netlist, seed: int, exclude_fixed: bool) -> None:
    """Raise :class:`FinderError` unless ``seed`` may start an ordering."""
    if not 0 <= seed < netlist.num_cells:
        raise FinderError(f"seed cell {seed} out of range")
    if exclude_fixed and netlist.cell_is_fixed(seed):
        raise FinderError(f"seed cell {seed} is fixed and exclude_fixed is set")


def _int64(array: np.ndarray) -> np.ndarray:
    return np.ascontiguousarray(array, dtype=np.int64)


class KernelTables:
    """Immutable per-netlist lookup tables shared by all growers.

    Built once per netlist (cached on its derived-object cache) with
    vectorized passes over the CSR view.  The native grower reads them as
    contiguous int64 buffers (:meth:`native_buffers`); the flat Python list
    copies the array fallback indexes are built only when it first asks.
    """

    def __init__(self, netlist: Netlist) -> None:
        arrays = netlist.arrays
        self.arrays = arrays
        self.num_cells = arrays.num_cells
        multi = (arrays.net_degrees[arrays.cell_nets] > 1).astype(np.int64)
        running = np.zeros(len(multi) + 1, dtype=np.int64)
        np.cumsum(multi, out=running[1:])
        self.degree2_array = _int64(
            running[arrays.cell_ptr[1:]] - running[arrays.cell_ptr[:-1]]
        )
        self._static_buffers = (
            _int64(arrays.cell_ptr),
            _int64(arrays.cell_nets),
            _int64(arrays.net_degrees),
            self.degree2_array,
        )
        # Update CSRs keyed by exclude_fixed: the absorb loop never updates
        # fixed pins, so pre-dropping them removes the per-pin check.  Net
        # *degrees* for the weight formula always use the full CSR.
        self._update_arrays = {}
        self._update_lists = {}

    def update_arrays(self, exclude_fixed: bool):
        """``(ptr, flat)`` int64 arrays of the pin-update CSR."""
        entry = self._update_arrays.get(exclude_fixed)
        if entry is None:
            arrays = self.arrays
            if exclude_fixed and arrays.fixed_mask.any():
                keep = ~arrays.fixed_mask[arrays.net_cells]
                flat = arrays.net_cells[keep]
                running = np.zeros(len(keep) + 1, dtype=np.int64)
                np.cumsum(keep, out=running[1:])
                ptr = running[arrays.net_ptr]
            else:
                flat = arrays.net_cells
                ptr = arrays.net_ptr
            entry = (_int64(ptr), _int64(flat))
            self._update_arrays[exclude_fixed] = entry
        return entry

    def native_buffers(self, exclude_fixed: bool):
        """The native grower's tables, in ``grower_new``'s argument order:
        ``cell_ptr, cell_nets, net_degrees, degree2, update_ptr, update_flat``."""
        return self._static_buffers + self.update_arrays(exclude_fixed)

    # -- list views for the array fallback -------------------------------
    @cached_property
    def degree2(self) -> List[int]:
        return self.degree2_array.tolist()

    @cached_property
    def net_degrees(self) -> List[int]:
        return self.arrays.net_degrees.tolist()

    @cached_property
    def cell_ptr(self) -> List[int]:
        return self.arrays.cell_ptr.tolist()

    @cached_property
    def cell_nets(self) -> List[int]:
        return self.arrays.cell_nets.tolist()

    def update_csr(self, exclude_fixed: bool):
        """``(ptr_list, flat_list)`` of the pin-update CSR."""
        entry = self._update_lists.get(exclude_fixed)
        if entry is None:
            entry = tuple(array.tolist() for array in self.update_arrays(exclude_fixed))
            self._update_lists[exclude_fixed] = entry
        return entry

    @classmethod
    def for_netlist(cls, netlist: Netlist) -> "KernelTables":
        """The netlist's cached tables (built on first use)."""
        tables = netlist.derived_cache.get(_TABLES_KEY)
        if tables is None:
            tables = cls(netlist)
            netlist.derived_cache[_TABLES_KEY] = tables
        return tables


class ArrayOrderingGrower:
    """Flat-CSR implementation of Phase I; API-compatible with
    :class:`~repro.finder.ordering.LinearOrderingGrower` and bit-identical
    to it in every observable (ordering, weights, cut deltas)."""

    def __init__(
        self,
        netlist: Netlist,
        seed: int,
        lambda_skip: int = 20,
        exclude_fixed: bool = True,
    ) -> None:
        check_seed(netlist, seed, exclude_fixed)
        tables = KernelTables.for_netlist(netlist)
        self._tables = tables
        self._lambda_skip = lambda_skip
        self._update_ptr, self._update_flat = tables.update_csr(exclude_fixed)
        # Heap entries are (-weight, cut_delta, counter << bits | cell):
        # packing the insertion counter and the cell id into one int keeps
        # entries at three slots and comparisons cheap; counter order is
        # preserved because the cell id occupies the low bits.
        self._cell_bits = max(1, (tables.num_cells - 1).bit_length())
        self._cell_mask = (1 << self._cell_bits) - 1
        # Private flat state; a fresh zero list is memset-cheap even for
        # 100K-cell designs, so growers never share mutable scratch.
        self._weight: List[float] = [0.0] * tables.num_cells
        self._cutstate: List[int] = [0] * tables.num_cells
        self._inside_count = {}  # net -> pins inside the group
        self._in_group = set()
        self._frontier_count = 0
        self._heap: List[tuple] = []
        self._counter = 0
        self._compactions = 0
        self._ordering: List[int] = []
        self._absorb(seed)

    # ------------------------------------------------------------------
    @property
    def ordering(self) -> List[int]:
        """Cells in the order they were absorbed (seed first)."""
        return list(self._ordering)

    @property
    def frontier_size(self) -> int:
        """Number of candidate cells currently adjacent to the group."""
        return self._frontier_count

    def connection_weight(self, cell: int) -> float:
        """Current connection weight of frontier cell ``cell`` (0 if absent)."""
        if cell in self._in_group:
            return 0.0
        return self._weight[cell]

    def cut_delta(self, cell: int) -> int:
        """Net-cut change if frontier cell ``cell`` were absorbed now."""
        state = 0 if cell in self._in_group else self._cutstate[cell]
        return self._tables.degree2[cell] - state

    # ------------------------------------------------------------------
    def step(self) -> Optional[int]:
        """Absorb the best frontier cell; return it, or ``None`` if stuck."""
        heap = self._heap
        weight = self._weight
        in_group = self._in_group
        mask = self._cell_mask
        while heap:
            neg_weight, _, packed = heappop(heap)
            cell = packed & mask
            # Live iff still outside the group and the recorded weight is
            # current (weights strictly increase, so stale entries always
            # record a smaller weight).
            if cell in in_group or -neg_weight != weight[cell]:
                continue
            self._absorb(cell)
            return cell
        return None

    def grow(self, max_length: int) -> List[int]:
        """Grow until ``max_length`` cells or the frontier empties."""
        heap = self._heap
        weight = self._weight
        in_group = self._in_group
        ordering = self._ordering
        absorb = self._absorb
        compact = self._compact
        mask = self._cell_mask
        while len(ordering) < max_length and heap:
            neg_weight, _, packed = heappop(heap)
            cell = packed & mask
            if cell in in_group or -neg_weight != weight[cell]:
                continue
            absorb(cell)
            if len(heap) > 8192 and len(heap) > 4 * self._frontier_count:
                compact()
        return self.ordering

    def _compact(self) -> None:
        """Drop stale heap entries, keeping exactly the live ones.

        A cell's live entry is the unique one recording its current weight
        (weights strictly increase), so filtering by value keeps one entry
        per frontier cell with its original counter — pop order, including
        insertion-order tie-breaking, is unchanged.  Without compaction the
        heap accumulates every superseded push and each push/pop sifts
        through the garbage; the scalar reference pays exactly that cost.
        """
        weight = self._weight
        in_group = self._in_group
        mask = self._cell_mask
        live = [
            entry
            for entry in self._heap
            if (cell := entry[2] & mask) not in in_group
            and -entry[0] == weight[cell]
        ]
        heapify(live)
        self._heap[:] = live  # in place: callers hold references to the list
        self._compactions += 1

    def telemetry(self) -> Dict[str, int]:
        """Work counters of this grower (same keys as the scalar grower).

        The heap counter advances by ``1 << _cell_bits`` per push, so the
        lifetime push count falls out of a shift — no hot-loop cost.
        """
        return {
            "heap_pushes": self._counter >> self._cell_bits,
            "heap_compactions": self._compactions,
        }

    # ------------------------------------------------------------------
    def _absorb(self, cell: int) -> None:
        tables = self._tables
        in_group = self._in_group
        weight = self._weight
        in_group.add(cell)
        if weight[cell] != 0.0:
            self._frontier_count -= 1
        self._ordering.append(cell)

        inside_count = self._inside_count
        net_degrees = tables.net_degrees
        cutstate = self._cutstate
        degree2 = tables.degree2
        update_ptr = self._update_ptr
        update_flat = self._update_flat
        heap = self._heap
        # The counter lives pre-shifted: bumping by ``counter_step`` leaves
        # the low bits free for the cell id, so a push is one add + one or.
        counter_step = 1 << self._cell_bits
        counter = self._counter
        frontier_count = self._frontier_count
        lambda_skip = self._lambda_skip

        cell_ptr = tables.cell_ptr
        for net in tables.cell_nets[cell_ptr[cell] : cell_ptr[cell + 1]]:
            old_inside = inside_count.get(net, 0)
            new_inside = old_inside + 1
            inside_count[net] = new_inside
            degree = net_degrees[net]
            outside = degree - new_inside
            if outside == 0:
                continue  # net fully absorbed; no outside pins to update

            first_touch = old_inside == 0
            if not first_touch and lambda_skip and outside >= lambda_skip:
                # Paper's optimization: weight change 1/(lambda+1) - 1/(lambda+2)
                # is negligible for large lambda; skip the O(|e|) update.
                continue

            span = update_flat[update_ptr[net] : update_ptr[net + 1]]
            # Per-pin updates in CSR slice order — the reference's exact
            # accumulation and push order (stale lower-weight entries are
            # discarded by value validation at pop time).
            if first_touch:
                delta = 1.0 / (outside + 1)
                cut_increment = 2 if outside == 1 else 1
                for other in span:
                    if other in in_group:
                        continue
                    old_weight = weight[other]
                    if old_weight == 0.0:
                        frontier_count += 1
                    new_weight = old_weight + delta
                    weight[other] = new_weight
                    state = cutstate[other] + cut_increment
                    cutstate[other] = state
                    counter += counter_step
                    heappush(
                        heap, (-new_weight, degree2[other] - state, counter | other)
                    )
            else:
                # Re-touched net: every outside pin was updated at first
                # touch (in-group membership never reverts), so it already
                # carries a positive weight — no frontier accounting here.
                delta = 1.0 / (outside + 1) - 1.0 / (degree - old_inside + 1)
                if outside == 1:
                    for other in span:
                        if other in in_group:
                            continue
                        new_weight = weight[other] + delta
                        weight[other] = new_weight
                        state = cutstate[other] + 1
                        cutstate[other] = state
                        counter += counter_step
                        heappush(
                            heap,
                            (-new_weight, degree2[other] - state, counter | other),
                        )
                else:
                    for other in span:
                        if other in in_group:
                            continue
                        new_weight = weight[other] + delta
                        weight[other] = new_weight
                        counter += counter_step
                        heappush(
                            heap,
                            (
                                -new_weight,
                                degree2[other] - cutstate[other],
                                counter | other,
                            ),
                        )
        self._counter = counter
        self._frontier_count = frontier_count


__all__ = ["ArrayOrderingGrower", "KernelTables", "check_seed"]
