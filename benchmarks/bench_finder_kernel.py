"""Scalar vs numpy detection kernel on industrial-like designs.

Runs the full three-phase finder under both backends (see
:mod:`repro.netlist.backend`) on two `generators.industrial` scenarios:

* ``small`` — the default ~15K-cell Table-3 design;
* ``industrial50k`` — a ~53K-cell variant with large dissolved ROMs
  (~8.7K cells each) around wide (2^10-line) decoders, the fat-fanout
  regime the paper's industrial testcase describes.

For each scenario/config the two backends must produce bit-identical
reports — same GTL cell sets, sizes, cuts and seeds, scores within 1e-9 —
which is the invariant that lets flow caches be shared across backends.

The 50K scenario is measured in two finder configurations:

* ``exact`` — ``lambda_skip=0``, the paper's exact connection-weight
  algorithm with no update skipping.  This is the acceptance measurement:
  the numpy backend must be **>= 5x** faster than the scalar reference at
  full scale (the scalar path drowns in per-pin dict updates, O(degree)
  cut-delta recounts and a garbage-clogged lazy heap).
* ``lambda20`` — the default skip optimization, which shrinks update
  volume for both backends; recorded for transparency, no floor asserted.

The numpy backend grows its orderings with the native C grower
(:mod:`repro.finder.native`).  The ``growers_lambda0``/``growers_lambda20``
rows time it against the Python array fallback
(:class:`~repro.finder.kernel.ArrayOrderingGrower`) over the same
orderings of the 50K design (the finder's seed cells at its default
ordering length),
asserting identical orderings and telemetry; at full scale the native
grower must be **>= 10x** faster.

Results are written to ``BENCH_finder_kernel.json`` at the repo root via
:mod:`benchmarks._record` (the machine-readable perf trajectory).

``REPRO_BENCH_SMOKE=1`` shrinks both scenarios to CI-smoke size and skips
the speedup floors (tiny designs cannot amortize anything); the parity
checks always run.
"""

import os
import time

try:
    from benchmarks._record import record
except ImportError:  # invoked outside the repo root: benchmarks/ is on sys.path
    from _record import record
from repro.finder.config import FinderConfig
from repro.finder.finder import TangledLogicFinder, plan_seed_jobs
from repro.finder.kernel import ArrayOrderingGrower
from repro.finder.native import NativeOrderingGrower, load_library
from repro.generators.industrial import IndustrialSpec, generate_industrial
from repro.netlist.backend import forced_backend
from repro.obs import RunReport, trace

SMOKE = os.environ.get("REPRO_BENCH_SMOKE", "") not in ("", "0")

if SMOKE:
    SMALL_SPEC = IndustrialSpec(glue_gates=1500, rom_blocks=((4, 12), (4, 10)))
    BIG_SPEC = IndustrialSpec(glue_gates=2500, rom_blocks=((5, 16), (5, 16)))
    NUM_SEEDS = 4
else:
    SMALL_SPEC = IndustrialSpec()  # the default Table-3-like design (~15K)
    BIG_SPEC = IndustrialSpec(
        glue_gates=30000,
        rom_blocks=((10, 384), (10, 384), (9, 192)),
    )
    NUM_SEEDS = 8


def _run_backend(netlist, config, backend):
    with forced_backend(backend):
        start = time.perf_counter()
        report = TangledLogicFinder(netlist, config).run()
        return time.perf_counter() - start, report


def _assert_reports_identical(scalar_report, array_report):
    """Bit-identical GTL sets; scores within 1e-9; same global exponent."""
    assert scalar_report.num_gtls == array_report.num_gtls
    assert scalar_report.num_orderings == array_report.num_orderings
    assert scalar_report.num_candidates == array_report.num_candidates
    assert scalar_report.rent_fallback == array_report.rent_fallback
    assert abs(scalar_report.rent_exponent - array_report.rent_exponent) <= 1e-9
    for scalar_gtl, array_gtl in zip(scalar_report.gtls, array_report.gtls):
        assert set(scalar_gtl.cells) == set(array_gtl.cells)
        assert scalar_gtl.size == array_gtl.size
        assert scalar_gtl.cut == array_gtl.cut
        assert scalar_gtl.seed == array_gtl.seed
        assert abs(scalar_gtl.score - array_gtl.score) <= 1e-9
        assert abs(scalar_gtl.ngtl_score - array_gtl.ngtl_score) <= 1e-9
        assert abs(scalar_gtl.gtl_sd_score - array_gtl.gtl_sd_score) <= 1e-9


def _measure(netlist, config):
    scalar_seconds, scalar_report = _run_backend(netlist, config, "python")
    numpy_seconds, numpy_report = _run_backend(netlist, config, "numpy")
    _assert_reports_identical(scalar_report, numpy_report)
    return {
        "cells": netlist.num_cells,
        "nets": netlist.num_nets,
        "num_seeds": config.num_seeds,
        "lambda_skip": config.lambda_skip,
        "num_gtls": numpy_report.num_gtls,
        "gtl_sizes": [gtl.size for gtl in numpy_report.gtls],
        "scalar_s": round(scalar_seconds, 4),
        "numpy_s": round(numpy_seconds, 4),
        "speedup": round(scalar_seconds / max(numpy_seconds, 1e-9), 2),
    }


def _measure_growers(netlist, config):
    """Native vs array-fallback grower over the finder's own orderings.

    Both growers are built once outside the timed region, so the array
    fallback's lazy list tables do not count against it.
    """
    seeds = [cell for cell, _ in plan_seed_jobs(netlist, config)]
    length = config.resolve_order_length(netlist.num_cells)
    options = dict(lambda_skip=config.lambda_skip, exclude_fixed=config.exclude_fixed)
    seconds = {}
    outputs = {}
    for name, grower_class in (
        ("native", NativeOrderingGrower), ("array", ArrayOrderingGrower)
    ):
        grower_class(netlist, seeds[0], **options)
        start = time.perf_counter()
        grown = []
        for seed in seeds:
            grower = grower_class(netlist, seed, **options)
            grown.append((grower.grow(length), grower.telemetry()))
        seconds[name] = time.perf_counter() - start
        outputs[name] = grown
    assert outputs["native"] == outputs["array"]  # orderings and telemetry
    return {
        "cells": netlist.num_cells,
        "lambda_skip": config.lambda_skip,
        "orderings": len(seeds),
        "order_length": length,
        "absorb_steps": sum(len(ordering) for ordering, _ in outputs["native"]),
        "heap_pushes": sum(t["heap_pushes"] for _, t in outputs["native"]),
        "heap_compactions": sum(t["heap_compactions"] for _, t in outputs["native"]),
        "native_s": round(seconds["native"], 4),
        "array_s": round(seconds["array"], 4),
        "speedup": round(seconds["array"] / max(seconds["native"], 1e-9), 2),
    }


def _measure_tracing(netlist, config):
    """Traced vs. untraced numpy-backend run on the same design, back to back.

    Returns the comparison row and the traced run's :class:`RunReport`.
    The traced report must be bit-identical to the untraced one — the
    obs layer observes, it never perturbs — and the traced run must stay
    within 5% wall-clock at full scale (sub-second smoke runs get a
    looser bound because fixed costs don't amortize).
    """
    with forced_backend("numpy"):
        start = time.perf_counter()
        untraced_report = TangledLogicFinder(netlist, config).run()
        untraced_seconds = time.perf_counter() - start

        trace.enable()
        try:
            start = time.perf_counter()
            traced_report = TangledLogicFinder(netlist, config).run()
            traced_seconds = time.perf_counter() - start
            run_report = RunReport.from_tracer()
        finally:
            trace.disable()

    _assert_reports_identical(untraced_report, traced_report)
    if SMOKE:
        assert traced_seconds <= untraced_seconds * 1.5 + 0.05
    else:
        assert traced_seconds <= untraced_seconds * 1.05
    phases = {
        name: round(row["total_s"], 4)
        for name, row in run_report.phase_totals().items()
        if name.startswith("finder.phase")
    }
    row = {
        "cells": netlist.num_cells,
        "untraced_s": round(untraced_seconds, 4),
        "traced_s": round(traced_seconds, 4),
        "overhead": round(traced_seconds / max(untraced_seconds, 1e-9), 4),
        "phases_s": phases,
        "counters": run_report.counters(),
    }
    return row, run_report


def test_finder_kernel_scalar_vs_array():
    small_netlist, _ = generate_industrial(SMALL_SPEC, seed=5)
    big_netlist, _ = generate_industrial(BIG_SPEC, seed=5)
    small_netlist.arrays  # build CSR views outside the timed regions
    big_netlist.arrays

    results = {
        "small": _measure(
            small_netlist, FinderConfig(num_seeds=NUM_SEEDS, seed=1)
        ),
        "industrial50k_exact": _measure(
            big_netlist, FinderConfig(num_seeds=NUM_SEEDS, seed=1, lambda_skip=0)
        ),
        "industrial50k_lambda20": _measure(
            big_netlist, FinderConfig(num_seeds=NUM_SEEDS, seed=1)
        ),
    }
    assert load_library() is not None, "the native grower did not build"
    for lambda_skip in (0, 20):
        results[f"growers_lambda{lambda_skip}"] = _measure_growers(
            big_netlist,
            FinderConfig(num_seeds=NUM_SEEDS, seed=1, lambda_skip=lambda_skip),
        )
    tracing_row, run_report = _measure_tracing(
        big_netlist, FinderConfig(num_seeds=NUM_SEEDS, seed=1)
    )
    results["industrial50k_tracing"] = tracing_row
    path = record(
        "finder_kernel", results, smoke=SMOKE, run_report=run_report.to_dict()
    )
    print(f"\nwrote {path}")
    for name, row in results.items():
        if "scalar_s" not in row:
            continue
        print(
            f"{name}: {row['cells']} cells, scalar {row['scalar_s']}s, "
            f"numpy {row['numpy_s']}s, speedup {row['speedup']}x, "
            f"gtls {row['num_gtls']}"
        )
    for lambda_skip in (0, 20):
        row = results[f"growers_lambda{lambda_skip}"]
        print(
            f"growers lambda={lambda_skip}: {row['orderings']} orderings, "
            f"array {row['array_s']}s, native {row['native_s']}s, "
            f"speedup {row['speedup']}x"
        )
    print(
        f"tracing: untraced {tracing_row['untraced_s']}s, "
        f"traced {tracing_row['traced_s']}s "
        f"({tracing_row['overhead']}x), phases {tracing_row['phases_s']}"
    )

    if not SMOKE:
        # Acceptance: >= 50K cells and >= 5x on the exact-weight kernel,
        # with bit-identical reports (asserted above for every row).
        exact = results["industrial50k_exact"]
        assert exact["cells"] >= 50_000
        assert exact["num_gtls"] >= 2  # dissolved ROM blocks are recovered
        assert exact["speedup"] >= 5.0
        # The native grower against its array fallback, same orderings.
        for lambda_skip in (0, 20):
            assert results[f"growers_lambda{lambda_skip}"]["speedup"] >= 10.0
