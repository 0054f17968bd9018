"""Seeded scenario registry and the ECO delta generator of the benchmark.

A scenario is a named generator call.  :func:`build` derives the
generator seed from the workload seed and the scenario name, so one
``--seed`` gives every scenario of a run its own, reproducible design.
Each built scenario carries its ``fingerprint_netlist`` digest and the
generator's ground truth (cell sets of the planted structures), which the
output checks use instead of anything the finder reports.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Callable, Dict, List, Tuple

from repro.generators import (
    IndustrialSpec,
    default_bigblue1_like,
    generate_industrial,
    generate_ispd_like,
)
from repro.incremental import CellEdit, NetEdit, NetlistDelta
from repro.netlist.hypergraph import Netlist
from repro.service.fingerprint import fingerprint_netlist

#: The 53K-cell industrial design: three dissolved-ROM blocks of ~8.7K,
#: ~8.7K and ~4.4K cells in ~53K cells total.
INDUSTRIAL53K = IndustrialSpec(
    glue_gates=30000, rom_blocks=((10, 384), (10, 384), (9, 192))
)


def _industrial(spec: IndustrialSpec):
    def build(seed: int) -> Tuple[Netlist, List[frozenset]]:
        return generate_industrial(spec, seed=seed)

    return build


def _ispd(scale: float):
    def build(seed: int) -> Tuple[Netlist, List[frozenset]]:
        netlist, truth = generate_ispd_like(default_bigblue1_like(scale), seed=seed)
        return netlist, [truth[name] for name in sorted(truth)]

    return build


#: name -> builder(seed) returning ``(netlist, ground_truth_blocks)``.
REGISTRY: Dict[str, Callable[[int], Tuple[Netlist, List[frozenset]]]] = {
    "industrial53k": _industrial(INDUSTRIAL53K),
    "industrial15k": _industrial(IndustrialSpec()),
    "ispd_quarter": _ispd(0.25),
}


@dataclass(frozen=True)
class Scenario:
    """One built scenario: the design, its digest and its ground truth."""

    name: str
    seed: int
    netlist: Netlist
    truth: Tuple[frozenset, ...]
    fingerprint: str


def scenario_seed(name: str, workload_seed: int) -> int:
    """Generator seed of scenario ``name`` under ``workload_seed``."""
    return random.Random(f"{name}:{workload_seed}").randrange(2**31)


def build(name: str, workload_seed: int) -> Scenario:
    """Build scenario ``name`` for ``workload_seed``."""
    seed = scenario_seed(name, workload_seed)
    netlist, truth = REGISTRY[name](seed)
    return Scenario(
        name=name,
        seed=seed,
        netlist=netlist,
        truth=tuple(truth),
        fingerprint=fingerprint_netlist(netlist),
    )


# ----------------------------------------------------------------------
# ECO deltas
# ----------------------------------------------------------------------

#: Nets fatter than this are never edited and cells on them never host a
#: moved pin: one fat-net endpoint would drag hundreds of cells into the
#: dirty region and turn an ECO-sized edit into a full re-run.
MAX_EDIT_DEGREE = 6


def _quiet(netlist: Netlist, cell: int) -> bool:
    return all(
        len(netlist.cells_of_net(net)) <= MAX_EDIT_DEGREE
        for net in netlist.nets_of_cell(cell)
    )


def spread_anchors(netlist: Netlist, count: int, rng: random.Random) -> List[int]:
    """``count`` distinct quiet anchor cells spread across the design.

    The movable cells are cut into ``count`` equal index strata (generators
    lay modules out in index order, so strata are different parts of the
    design) and one quiet cell is drawn from each; the anchors come back in
    a seeded shuffled order.
    """
    movable = netlist.movable_cells()
    stride = len(movable) // count
    anchors = []
    for stratum in range(count):
        cells = movable[stratum * stride:(stratum + 1) * stride]
        start = rng.randrange(len(cells))
        for offset in range(len(cells)):
            cell = cells[(start + offset) % len(cells)]
            if _quiet(netlist, cell):
                anchors.append(cell)
                break
    rng.shuffle(anchors)
    return anchors


def localized_delta(
    netlist: Netlist, anchor: int, num_moves: int, rng: random.Random
) -> NetlistDelta:
    """Move ``num_moves`` single pins between quiet cells around ``anchor``.

    The total pin count is invariant and no cell or net is added or
    removed: the ECO shape the incremental engine patches.
    """
    hood = sorted(
        {anchor} | {n for n in netlist.neighbors(anchor) if _quiet(netlist, n)}
    )
    movement: Dict[int, int] = {}
    net_edits: Dict[int, Tuple[Tuple[str, ...], Tuple[str, ...]]] = {}
    for cell in hood:
        for net in netlist.nets_of_cell(cell):
            if len(net_edits) >= num_moves or net in net_edits:
                continue
            members = list(netlist.cells_of_net(net))
            if len(members) > MAX_EDIT_DEGREE:
                continue
            targets = [t for t in hood if t not in members]
            if not targets:
                continue
            target = targets[rng.randrange(len(targets))]
            net_edits[net] = (
                tuple(netlist.cell_name(m) for m in members),
                tuple(netlist.cell_name(target if m == cell else m) for m in members),
            )
            movement[cell] = movement.get(cell, 0) - 1
            movement[target] = movement.get(target, 0) + 1
    return NetlistDelta(
        cells_changed=tuple(
            CellEdit(
                netlist.cell_name(cell),
                netlist.cell_area(cell),
                netlist.cell_pin_count(cell) + shift,
                netlist.cell_is_fixed(cell),
            )
            for cell, shift in sorted(movement.items())
            if shift != 0
        ),
        nets_changed=tuple(
            NetEdit(netlist.net_name(net), old, new)
            for net, (old, new) in sorted(net_edits.items())
        ),
    )


def eco_deltas(
    netlist: Netlist, count: int, workload_seed: int, num_moves: int = 6
) -> List[NetlistDelta]:
    """A seeded sequence of ``count`` ECO deltas at distinct, spread anchors.

    Every delta is taken against ``netlist`` itself (one ECO at a time on
    the same base design).  Anchors come from ``4 * count`` strata in a
    seeded order; an anchor whose delta moved fewer than ``num_moves``
    pins (a cramped neighbourhood) or edits a net an earlier delta edited
    (neighbouring anchors can share a neighbourhood) is skipped, so every
    delta gives a distinct edited design.  Fewer than ``count`` deltas come
    back only when the design runs out of usable anchors.
    """
    rng = random.Random(f"eco:{workload_seed}")
    deltas: List[NetlistDelta] = []
    edited: set = set()
    for anchor in spread_anchors(netlist, 4 * count, rng):
        delta = localized_delta(netlist, anchor, num_moves, rng)
        nets = {edit.name for edit in delta.nets_changed}
        if len(nets) == num_moves and not nets & edited:
            deltas.append(delta)
            edited |= nets
            if len(deltas) == count:
                break
    return deltas
