"""gaplab benchmark: drive the `gaplab` CLI one workload at a time and report.

Run from the repository root:

    python3 perfbench/run.py --workload scaling_shots --seed 1 --seconds 55 --trace 0
    python3 perfbench/run.py --seed 1 --seconds 55            # every workload
    python3 perfbench/run.py --seed 1 --trace 1               # per-layer metrics
    python3 perfbench/run.py --seed 1 --quick                 # quick before/after pair

Each repetition is a fresh, single-threaded interpreter (child.py, one BLAS
thread).  A run makes at least one repetition and starts another while it is
expected to end within --seconds; set-up is sampled at least five times.
Every repetition's outputs are checked (checks.py).  The last line of
standard output is one JSON object with `correct`, `attempted`, `failed` and
`metrics`; a results file with the run environment and every sample goes to
.perfbench/results/.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
STATE = ROOT / ".perfbench"
REFERENCE = BENCH_DIR / "reference.json"

SETUP_SAMPLES = 5
RUN_BUDGET_S = 170.0     # a run must end within 180 s
# The benchmark workloads' dense work is 16x16 matrices and elementwise
# cosines; a second BLAS thread does not speed it up and only adds scheduler
# noise on a two-core host.
BLAS_THREADS = 1

sys.path.insert(0, str(BENCH_DIR))
from checks import check_outputs, digests  # noqa: E402
from tracing import Tracer  # noqa: E402
from workloads import WORKLOADS, cli_seed, command  # noqa: E402

END_TO_END_UNITS = {"setup_s": "s", "wall_s": "s", "peak_rss_mb": "MB",
                    "success_frac": "fraction", "gap_err_rel": "ratio"}
LAYER_UNITS_COUNT = ("_calls", "points", "sampling_draws", "gates_applied",
                     "_ops", "search_failures")


def layer_unit(name: str) -> str:
    if name.endswith("_per_s"):
        return "1/s"
    if name.endswith("_s"):
        return "s"
    if name.endswith(LAYER_UNITS_COUNT):
        return "count"
    return "ratio"


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS),
                        help="one workload; default: every workload in turn")
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=55.0,
                        help="measure for about this long (at least one repetition)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0,
                        help="1: per-layer metrics from traced/untraced pairs")
    parser.add_argument("--quick", action="store_true",
                        help="fewer orientations and repetitions, for local before/after pairs")
    return parser.parse_args(argv)


def usable_cores() -> int:
    return len(os.sched_getaffinity(0))


def child_env(blas_threads: int) -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(SRC)] + [p for p in env.get("PYTHONPATH", "").split(os.pathsep) if p])
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = str(blas_threads)
    env["PYTHONHASHSEED"] = "0"
    return env


def _git(*args):
    if not (ROOT / ".git").exists():
        return None
    try:
        proc = subprocess.run(["git", *args], cwd=ROOT, capture_output=True,
                              text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return proc.stdout.strip() if proc.returncode == 0 else None


def environment(blas_threads: int) -> dict:
    import numpy
    import scipy

    blas = numpy.__config__.CONFIG.get("Build Dependencies", {}).get("blas", {})
    status = _git("status", "--porcelain", "--untracked-files=no")
    return {"git_sha": _git("rev-parse", "HEAD"),
            "git_dirty": None if status is None else bool(status),
            "nproc": usable_cores(), "machine": platform.machine(),
            "python": platform.python_version(), "numpy": numpy.__version__,
            "scipy": scipy.__version__,
            "blas": f"{blas.get('name', 'unknown')} {blas.get('version', '')}".strip(),
            "blas_threads": blas_threads}


class Run:
    """Children, samples and check units of one workload run."""

    def __init__(self, workload, seed, quick, env, deadline):
        self.workload = workload
        self.quick = quick
        self.argv = command(workload, seed, quick)
        self.env = env
        self.deadline = deadline
        self.workdir = STATE / "work" / f"{workload.name}-{seed}-{os.getpid()}"
        self.units = []
        self.absent = []
        self.samples = {"setup_s": [], "wall_s": [], "peak_rss_mb": [],
                        "gap_err_rel": []}
        self.reference = None
        if not workload.shots and REFERENCE.is_file():
            mode = "quick" if quick else "full"
            refs = json.loads(REFERENCE.read_text())
            self.reference = refs.get(mode, {}).get(workload.name)

    def child(self, argv, trace=False):
        """Run child.py once; returns (set-up seconds, result dict or None, error)."""
        spec = json.dumps({"argv": argv, "trace": trace})
        start = time.perf_counter()
        proc = subprocess.Popen([sys.executable, str(BENCH_DIR / "child.py"), spec],
                                cwd=self.workdir, env=self.env,
                                stdout=subprocess.PIPE, text=True)
        try:
            ready = proc.stdout.readline()
            setup = time.perf_counter() - start
            rest, _ = proc.communicate(
                timeout=max(1.0, self.deadline - time.perf_counter()))
        except subprocess.TimeoutExpired:
            return None, None, "timed out"
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.wait()
        if ready.strip() != "ready":
            return None, None, f"import failed (exit {proc.returncode})"
        try:
            result = json.loads(rest.strip().splitlines()[-1])
        except (IndexError, json.JSONDecodeError):
            return setup, None, f"no result (exit {proc.returncode})"
        if not str(result.get("gaplab", "")).startswith(str(SRC)):
            return setup, None, f"imported gaplab from {result.get('gaplab')}"
        return setup, result, None

    def repetition(self, trace=False):
        """One measured CLI run plus its checks; returns (result, digests)."""
        for name in self.workload.outputs:
            (self.workdir / name).unlink(missing_ok=True)
        setup, result, error = self.child(self.argv, trace)
        if setup is not None and not trace:
            self.samples["setup_s"].append(setup)
        code = None if result is None else result["exit"]
        self.units.append(("exit", code == 0, error or f"exit code {code}"))
        if result is None:
            return None, None
        if not trace:
            self.samples["wall_s"].append(result["wall_s"])
            self.samples["peak_rss_mb"].append(result["peak_rss_mb"])
        units, gap_err = check_outputs(self.workload, self.argv, self.workdir,
                                       self.reference)
        self.units.extend(units)
        if gap_err is not None and not trace:
            self.samples["gap_err_rel"].append(gap_err)
        return result, digests(self.workdir, self.workload.outputs)

    def time_left(self, last_duration):
        return self.deadline - time.perf_counter() > last_duration

    def another_fits(self, start, last_start, seconds):
        """Whether one more repetition like the last ends within `seconds`."""
        now = time.perf_counter()
        last = now - last_start
        return now + last - start <= seconds and self.time_left(1.5 * last)

    def failures(self):
        return sum(not ok for _, ok, _ in self.units)

    def measure(self, seconds):
        start = time.perf_counter()
        first = None
        while True:
            rep_start = time.perf_counter()
            _, digest = self.repetition()
            if digest is not None:
                if first is None:
                    first = digest
                else:
                    self.units.append(("repeat byte-identical", digest == first,
                                       "same seed, same output files"))
            if self.quick or not self.another_fits(start, rep_start, seconds):
                break
        wanted = 1 if self.quick else SETUP_SAMPLES
        while len(self.samples["setup_s"]) < wanted and self.time_left(10.0):
            setup, _, error = self.child(None)
            if setup is None:
                self.units.append(("set-up", False, error))
                break
            self.samples["setup_s"].append(setup)
        metrics = {name: _median(self.samples[name]) for name in self.samples}
        metrics["success_frac"] = 1.0 - self.failures() / max(len(self.units), 1)
        return {k: (v, END_TO_END_UNITS[k]) for k, v in metrics.items()}

    def measure_layers(self, seconds):
        """Traced/untraced pairs: layer metrics from the traced run of each pair."""
        start = time.perf_counter()
        layers, overheads, absent = [], [], []
        while True:
            pair_start = time.perf_counter()
            plain, plain_digest = self.repetition()
            traced, traced_digest = self.repetition(trace=True)
            if plain is not None and traced is not None:
                self.units.append(("traced byte-identical",
                                   traced_digest == plain_digest,
                                   "traced and untraced outputs"))
                layers.append(traced["layers"])
                overheads.append(traced["wall_s"] - plain["wall_s"])
                absent = traced["absent"]
            if not self.another_fits(start, pair_start, seconds):
                break
        metrics = {n: _median([l[n] for l in layers])
                   for n in Tracer().layer_metrics(1.0)}
        metrics["trace.overhead_s"] = _median(overheads)
        self.absent = absent
        return {k: (v, layer_unit(k)) for k, v in metrics.items()}


def _median(values):
    values = [v for v in values if v is not None]
    return statistics.median(values) if values else None


def run_workload(workload, args, env):
    deadline = time.perf_counter() + RUN_BUDGET_S
    run = Run(workload, args.seed, args.quick, env, deadline)
    run.workdir.mkdir(parents=True, exist_ok=True)
    try:
        metrics = (run.measure_layers(args.seconds) if args.trace
                   else run.measure(args.seconds))
    finally:
        shutil.rmtree(run.workdir, ignore_errors=True)
    failed = run.failures()
    line = {"correct": failed == 0, "attempted": max(len(run.units), 1),
            "failed": failed if run.units else 1,
            "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}}
    details = {"workload": workload.name,
               "cli_seed": cli_seed(workload.name, args.seed), "argv": run.argv,
               "samples": run.samples, "absent": run.absent,
               "checks": [{"name": n, "passed": ok, "detail": d}
                          for n, ok, d in run.units]}
    return line, details


def report(name, line, quick):
    label = " [quick: local before/after numbers only]" if quick else ""
    print(f"== {name}{label}: correct={line['correct']} "
          f"attempted={line['attempted']} failed={line['failed']} "
          f"failed_frac={line['failed'] / line['attempted']:.6g}")
    for metric, m in line["metrics"].items():
        value = "absent" if m["value"] is None else f"{m['value']:.6g}"
        print(f"   {metric:34s} {value:>14s} {m['unit']}")


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "gaplab" / "cli.py").is_file():
        print(f"perfbench: gaplab sources not found under {SRC}", file=sys.stderr)
        return 2
    env = child_env(BLAS_THREADS)
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = env[var]
    sys.path.insert(0, str(SRC))
    import gaplab  # noqa: F401  the checks use it; importing warms the caches

    names = [args.workload] if args.workload else list(WORKLOADS)
    results = {}
    for name in names:
        results[name] = run_workload(WORKLOADS[name], args, env)
        report(name, results[name][0], args.quick)

    if len(names) == 1:
        line = results[names[0]][0]
    else:
        line = {"correct": all(r[0]["correct"] for r in results.values()),
                "attempted": sum(r[0]["attempted"] for r in results.values()),
                "failed": sum(r[0]["failed"] for r in results.values()),
                "metrics": {f"{n}.{k}": m for n, r in results.items()
                            for k, m in r[0]["metrics"].items()}}
    record = {"mode": "quick" if args.quick else "full",
              "seed": args.seed, "seconds": args.seconds, "trace": args.trace,
              "environment": environment(BLAS_THREADS),
              "workloads": {n: {"result": r[0], **r[1]} for n, r in results.items()}}
    out_dir = STATE / "results"
    out_dir.mkdir(parents=True, exist_ok=True)
    stem = "-".join([args.workload or "all", f"seed{args.seed}",
                     f"trace{args.trace}"] + (["quick"] if args.quick else []))
    path = out_dir / f"{stem}-{time.strftime('%Y%m%dT%H%M%S')}-{os.getpid()}.json"
    path.write_text(json.dumps(record, indent=1) + "\n")
    print(f"results file: {path.relative_to(ROOT)}")
    print(json.dumps(line))
    return 0


if __name__ == "__main__":
    sys.exit(main())
