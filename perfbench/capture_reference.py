"""Capture the exact-mode reference outputs that checks.py compares against.

Run from the repository root at the commit whose outputs define correctness:

    python3 perfbench/capture_reference.py

It runs each exact-mode workload once in full and quick form and writes the
parsed output files, minus the unused CLI seed, to perfbench/reference.json.
"""

import json
import shutil
import sys
import time

from checks import comparable
from run import BLAS_THREADS, REFERENCE, STATE, Run, child_env
from workloads import WORKLOADS


def main() -> int:
    env = child_env(BLAS_THREADS)
    refs = {"full": {}, "quick": {}}
    for mode in refs:
        for workload in WORKLOADS.values():
            if workload.shots:
                continue
            run = Run(workload, 0, mode == "quick", env,
                      deadline=time.perf_counter() + 3600)
            run.workdir = STATE / "work" / f"reference-{workload.name}-{mode}"
            run.workdir.mkdir(parents=True, exist_ok=True)
            try:
                _, result, error = run.child(run.argv)
                if result is None or result["exit"] != 0:
                    print(f"{workload.name} ({mode}) failed: {error or result}",
                          file=sys.stderr)
                    return 1
                payload = json.loads(
                    (run.workdir / workload.outputs[0]).read_text())
            finally:
                shutil.rmtree(run.workdir, ignore_errors=True)
            refs[mode][workload.name] = comparable(payload)
            print(f"captured {workload.name} ({mode})")
    REFERENCE.write_text(json.dumps(refs, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
