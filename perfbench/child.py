"""One measured CLI run in a fresh interpreter.

Usage: python3 child.py '<json spec>', with gaplab's `src` on PYTHONPATH.
The spec is {"argv": [...] or null, "trace": bool}.  The child prints
`ready` as soon as `import gaplab.cli` returns (the parent timestamps that
line as the end of set-up), then runs `gaplab.cli.main(argv)` once unless
argv is null, and prints one JSON line: exit code, time inside main, peak
RSS and, when traced, the per-layer metrics.
"""

import json
import resource
import sys
import time


def main() -> None:
    import gaplab.cli

    print("ready", flush=True)
    spec = json.loads(sys.argv[1])
    if spec["argv"] is None:
        print(json.dumps({"gaplab": gaplab.cli.__file__}))
        return
    tracer = None
    if spec["trace"]:
        from tracing import Tracer

        tracer = Tracer()
        tracer.install()
    start = time.perf_counter()
    code = gaplab.cli.main(spec["argv"])
    wall = time.perf_counter() - start
    rss_kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    out = {"gaplab": gaplab.cli.__file__, "exit": code, "wall_s": wall,
           "peak_rss_mb": rss_kib * 1024 / 1e6}
    if tracer is not None:
        out["layers"] = tracer.layer_metrics(wall)
        out["absent"] = tracer.absent
    print(json.dumps(out), flush=True)


if __name__ == "__main__":
    main()
