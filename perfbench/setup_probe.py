"""One cold set-up of the package, run by ``run.py`` in a fresh interpreter.

Usage: ``python3 setup_probe.py --trace-dir DIR --accesses N --seed S BENCH...``
with ``src`` on ``PYTHONPATH`` and ``REPRO_KERNEL_CACHE`` pointing at an
empty directory.  It imports the package and every figure driver, loads
(and so compiles) the replay kernel, and prewarms the trace store with
every benchmark the workload reads, then prints the time of each step
as one JSON line.
"""

from __future__ import annotations

import argparse
import importlib
import json
import time


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--trace-dir", required=True)
    parser.add_argument("--accesses", type=int, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("benchmarks", nargs="+")
    args = parser.parse_args()

    started = time.perf_counter()
    import repro.cli
    import repro.run  # noqa: F401

    for module_name, _ in repro.cli.NAMED_CAMPAIGNS.values():
        importlib.import_module(module_name)
    imported = time.perf_counter()

    from repro.cache.vector import load_kernel

    kernel = load_kernel()
    kernel_loaded = time.perf_counter()

    from repro.trace.store import TraceStore
    from repro.workloads.base import WorkloadConfig

    TraceStore(args.trace_dir).prewarm(
        args.benchmarks, [WorkloadConfig(num_accesses=args.accesses, seed=args.seed)]
    )
    prewarmed = time.perf_counter()
    print(json.dumps({
        "import_s": imported - started,
        "kernel_load_s": kernel_loaded - imported,
        "prewarm_s": prewarmed - kernel_loaded,
        "kernel": kernel is not None,
    }))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
