"""End-to-end benchmark of the tangled-logic finder's user commands.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload cold_detect --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 20 --trace 0

``--trace 0`` measures the end-to-end metrics; ``--trace 1`` makes the
separate traced run that gives the per-layer ledger.  The last line of
standard output is one JSON object: ``correct``, ``attempted``, ``failed``
and ``metrics`` (name -> ``{"value", "unit"}``).  A human-readable listing
and the host record go before it.  ``--workload all`` runs every workload
in turn and prefixes each metric with its workload's name.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import sys
import tempfile

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOAD_NAMES = ("cold_detect", "eco_session", "sweep_grid")


def _parse(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def _run_one(name: str, args, run_root: str, spawner):
    import workloads

    run_dir = tempfile.mkdtemp(prefix=f"{name}-", dir=run_root)
    try:
        if args.trace:
            import traced

            return traced.TRACED[name](args.seed, args.seconds, run_dir, spawner)
        return workloads.WORKLOADS[name](args.seed, args.seconds, run_dir, spawner)
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)


def _terminate(signum, frame):
    # Unwind through the workloads' finally blocks so child processes are
    # stopped and the run directory is removed.
    sys.exit(128 + signum)


def main(argv=None) -> int:
    args = _parse(argv)
    signal.signal(signal.SIGTERM, _terminate)
    if not os.path.isdir(os.path.join(ROOT, "src", "repro")):
        print(f"error: no src/repro under {ROOT}; run from a full checkout", file=sys.stderr)
        return 2
    os.chdir(ROOT)
    sys.path[:0] = [os.path.join(ROOT, "src"), HERE]
    import harness

    run_root = os.path.join(ROOT, ".perfbench_tmp")
    os.makedirs(run_root, exist_ok=True)
    os.environ["TMPDIR"] = run_root
    tempfile.tempdir = run_root

    host = harness.host_record()
    names = WORKLOAD_NAMES if args.workload == "all" else (args.workload,)
    metrics, attempted, failed, errors = {}, 0, 0, []
    spawner = harness.Spawner()  # before any design exists in this process
    try:
        outcomes = [(name, _run_one(name, args, run_root, spawner)) for name in names]
    finally:
        spawner.close()
    for name, outcome in outcomes:
        attempted += outcome.attempted
        failed += outcome.failed
        errors.extend(f"{name}: {error}" for error in outcome.errors)
        prefix = f"{name}." if args.workload == "all" else ""
        for metric, (value, unit) in outcome.metrics.items():
            metrics[prefix + metric] = {"value": value, "unit": unit}
            print(f"{name:12s} {metric:28s} {value:14.4f} {unit}")
        print(f"{name:12s} info {json.dumps(outcome.info, sort_keys=True)}")
    host["load_1m_end"] = os.getloadavg()[0]
    print(f"host {json.dumps(host, sort_keys=True)}")
    for error in errors:
        print(f"check failed: {error}", file=sys.stderr)
    try:
        os.rmdir(run_root)
    except OSError:  # another run shares it
        pass
    print(json.dumps({
        "correct": not errors,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
