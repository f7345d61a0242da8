"""Rewrite ``reference.json``: one pass per reference workload and seed.

    python3 perfbench/refresh_reference.py

Only for a change that is meant to alter simulated results; the diff of
``reference.json`` then shows which points moved.  The simulator model
is unvalidated against hardware, so these digests pin drift, not truth.
"""

from __future__ import annotations

import json
import shutil
import sys
import tempfile
from pathlib import Path

import run


def main() -> int:
    sys.path.insert(0, str(run.SRC))
    from workloads import REFERENCE_SEEDS, WORKLOADS, make_reference

    run.WORK_ROOT.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix="reference-", dir=run.WORK_ROOT))
    references = {}
    try:
        run.hermetic_environment(workdir)
        for workload in WORKLOADS.values():
            if workload.reference != workload.name:
                continue  # checked against another workload's digests
            for seed in REFERENCE_SEEDS:
                result = workload.run_pass(seed, str(workdir / f"{workload.name}-{seed}"))
                if result.errors or result.not_ok:
                    raise SystemExit(f"{workload.name} seed {seed} failed: {result.errors or result.not_ok}")
                references.setdefault(workload.name, {})[str(seed)] = make_reference(result)
                print(f"{workload.name} seed {seed}: {result.digest} ({result.wall_s:.1f} s)", flush=True)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    run.REFERENCE_PATH.write_text(json.dumps(references, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
