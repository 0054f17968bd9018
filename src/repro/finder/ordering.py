"""Phase I — linear ordering generation (Section 3.2.1 / Algorithm I.1-I.11).

Starting from a seed cell, the group grows one cell at a time.  Candidates
are the outside cells with a direct net connection to the group; the one
with the largest *connection weight*

    w(v) = sum over nets e with v in e and e touching the group of
           1 / (|e| - |e intersect S| + 1)

is added next (a net counts more when most of its pins are already inside).
Ties are broken by favoring the candidate whose addition increases the net
cut least ("min cut" secondary criterion).  The paper argues weight-first
selection pulls true-GTL cells into the group before outside cells.

Implementation notes
--------------------
* A :class:`~repro.utils.lazyheap.LazyMaxHeap` holds the frontier keyed by
  ``(weight, -cut_delta)``; each addition updates only the neighbors reached
  through the added cell's nets, giving the paper's ``O(Z log |V|)`` bound.
* Following the paper's constant-factor optimization, incremental weight
  updates skip nets that still have at least ``lambda_skip`` (default 20)
  pins outside the group — their per-pin weight contribution is below
  1/21 and barely changes.  The *first* touch of a net is never skipped so
  every reachable cell enters the frontier.
* :class:`LinearOrderingGrower` is the scalar reference.  The numpy
  backend grows with :class:`~repro.finder.native.NativeOrderingGrower`,
  a C port of the CSR-array kernel, and falls back to the Python
  :class:`~repro.finder.kernel.ArrayOrderingGrower` where no C compiler
  is available; all three grow bit-identical orderings (see
  :mod:`repro.netlist.backend`).
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Set

from repro.errors import FinderError
from repro.netlist.backend import resolve_backend
from repro.netlist.hypergraph import Netlist
from repro.obs import trace
from repro.utils.lazyheap import LazyMaxHeap


class LinearOrderingGrower:
    """Grows one linear ordering; exposes incremental state for testing."""

    def __init__(
        self,
        netlist: Netlist,
        seed: int,
        lambda_skip: int = 20,
        exclude_fixed: bool = True,
    ) -> None:
        if not 0 <= seed < netlist.num_cells:
            raise FinderError(f"seed cell {seed} out of range")
        if exclude_fixed and netlist.cell_is_fixed(seed):
            raise FinderError(f"seed cell {seed} is fixed and exclude_fixed is set")
        self._netlist = netlist
        self._lambda_skip = lambda_skip
        self._exclude_fixed = exclude_fixed
        self._in_group: Set[int] = set()
        self._inside_count: Dict[int, int] = {}
        # Frontier bookkeeping: connection weight and cut-delta components.
        self._weight: Dict[int, float] = {}
        self._touched: Dict[int, int] = {}  # nets (>=2 pins) of v touching S
        self._absorbable: Dict[int, int] = {}  # nets of v where v is last outside pin
        self._heap = LazyMaxHeap()
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
        return len(self._heap)

    def connection_weight(self, cell: int) -> float:
        """Current connection weight of frontier cell ``cell`` (0 if absent)."""
        return self._weight.get(cell, 0.0)

    def cut_delta(self, cell: int) -> int:
        """Net-cut change if frontier cell ``cell`` were absorbed now."""
        degree2 = sum(
            1 for e in self._netlist.nets_of_cell(cell) if self._netlist.net_degree(e) > 1
        )
        newly_cut = degree2 - self._touched.get(cell, 0)
        return newly_cut - self._absorbable.get(cell, 0)

    # ------------------------------------------------------------------
    def step(self) -> Optional[int]:
        """Absorb the best frontier cell; return it, or ``None`` if stuck."""
        try:
            cell, _, _ = self._heap.pop()
        except KeyError:
            return None
        self._absorb(cell)
        return cell

    def grow(self, max_length: int) -> List[int]:
        """Grow until ``max_length`` cells or the frontier empties."""
        while len(self._ordering) < max_length:
            if self.step() is None:
                break
        return self.ordering

    def telemetry(self) -> Dict[str, int]:
        """Work counters of this grower (same keys as the array kernel)."""
        return {"heap_pushes": self._heap.pushes, "heap_compactions": 0}

    # ------------------------------------------------------------------
    def _absorb(self, cell: int) -> None:
        netlist = self._netlist
        self._in_group.add(cell)
        self._ordering.append(cell)
        self._weight.pop(cell, None)
        self._touched.pop(cell, None)
        self._absorbable.pop(cell, None)
        self._heap.discard(cell)

        for net in netlist.nets_of_cell(cell):
            degree = netlist.net_degree(net)
            old_inside = self._inside_count.get(net, 0)
            new_inside = old_inside + 1
            self._inside_count[net] = new_inside
            outside = degree - new_inside
            if outside == 0:
                continue  # net fully absorbed; no outside pins to update

            first_touch = old_inside == 0
            if not first_touch and self._lambda_skip and outside >= self._lambda_skip:
                # Paper's optimization: weight change 1/(lambda+1) - 1/(lambda+2)
                # is negligible for large lambda; skip the O(|e|) update.
                continue

            old_contribution = 0.0 if first_touch else 1.0 / (degree - old_inside + 1)
            new_contribution = 1.0 / (outside + 1)
            delta = new_contribution - old_contribution
            becomes_absorbable = outside == 1

            for other in netlist.cells_of_net(net):
                if other in self._in_group:
                    continue
                if self._exclude_fixed and netlist.cell_is_fixed(other):
                    continue
                self._weight[other] = self._weight.get(other, 0.0) + delta
                if first_touch:
                    self._touched[other] = self._touched.get(other, 0) + 1
                if becomes_absorbable:
                    self._absorbable[other] = self._absorbable.get(other, 0) + 1
                self._push(other)

    def _push(self, cell: int) -> None:
        # Secondary priority favors min cut: larger -cut_delta wins ties.
        self._heap.push(cell, self._weight[cell], float(-self.cut_delta(cell)))


def grower_kind(backend: Optional[str] = None) -> str:
    """The grower :func:`make_grower` builds: ``"native"``, ``"array"`` or
    ``"python"``.

    The numpy backend's grower is the native one whenever its library
    builds and loads (:func:`repro.finder.native.load_library`), else the
    array fallback.
    """
    if resolve_backend(backend) == "python":
        return "python"
    from repro.finder.native import load_library

    return "native" if load_library() is not None else "array"


def make_grower(
    netlist: Netlist,
    seed: int,
    lambda_skip: int = 20,
    exclude_fixed: bool = True,
    backend: Optional[str] = None,
):
    """Instantiate the Phase I grower of the selected backend.

    Every grower exposes the same API and produces bit-identical
    orderings; the native grower is much the fastest on large designs.
    """
    kind = grower_kind(backend)
    if kind == "native":
        from repro.finder.native import NativeOrderingGrower as grower_class
    elif kind == "array":
        from repro.finder.kernel import ArrayOrderingGrower as grower_class
    else:
        grower_class = LinearOrderingGrower
    return grower_class(
        netlist, seed, lambda_skip=lambda_skip, exclude_fixed=exclude_fixed
    )


def grow_linear_ordering(
    netlist: Netlist,
    seed: int,
    max_length: int,
    lambda_skip: int = 20,
    exclude_fixed: bool = True,
    backend: Optional[str] = None,
) -> List[int]:
    """Convenience wrapper: one Phase I ordering of at most ``max_length``."""
    grower = make_grower(
        netlist,
        seed,
        lambda_skip=lambda_skip,
        exclude_fixed=exclude_fixed,
        backend=backend,
    )
    ordering = grower.grow(max_length)
    if trace.enabled():
        trace.counter("finder.orderings").add(1)
        trace.counter("finder.absorb_steps").add(len(ordering))
        for name, value in grower.telemetry().items():
            trace.counter(f"finder.{name}").add(value)
    return ordering
