"""The exact-mode replay corpus: gaplab commands whose output depends on no draw.

`exact_corpus.json` beside this file holds, for each command in COMMANDS, its
exit code (or the exception that escaped it), what it printed and the files it
wrote, parsed.  test_exact_corpus.py replays every command in-process and
compares by the benchmark's rule (perfbench/checks.py `_close`): floats within
1e-12 relative, keys, strings and integers exact.  The rule, not byte equality,
lets one corpus serve every numpy release the package supports.

Regenerate the corpus only with this script, in a change that says why its
numbers moved:

    PYTHONPATH=src python tests/exact_corpus.py
"""

import contextlib
import io
import json
import os
import tempfile
from pathlib import Path

from gaplab.cli import main

CORPUS = Path(__file__).with_name("exact_corpus.json")

# Every subcommand; p = 1, 2 and 4; --oracle and --filter none; a search that
# finds nothing (exit 2); scaling exiting 0, 3 (windows too narrow for some
# cells) and 2 (a chain above the simulation cap, nothing written).  Output
# paths are relative, since the scaling header records --samples-out.  The last
# nine are refused: integers a float cannot hold (M^p, N) or int64 cannot (the
# depth-bound size grid), and depth-bound scan counts numpy cannot allocate.
COMMANDS = (
    ("spectrum", "--exact", "--oracle", "--out", "spectrum.csv"),
    ("spectrum", "--exact", "--p", "2", "--out", "spectrum.csv"),
    ("spectrum", "--exact", "--p", "4", "--filter", "lorentzian",
     "--out", "spectrum.csv"),
    ("spectrum", "--exact", "--filter", "none", "--d-omega-over-h", "0.1",
     "--out", "spectrum.csv"),
    ("gap", "--exact", "--p", "1", "--out", "gap.json"),
    ("gap", "--exact", "--p", "4", "--out", "gap.json"),
    ("gap", "--exact", "--n", "6", "--p", "2", "--out", "gap.json"),
    ("gap", "--exact", "--initial-window-over-h", "0.01",
     "--max-window-over-h", "0.01", "--out", "gap.json"),
    ("sweep-theta", "--exact", "--p", "2", "--out", "sweep.json"),
    ("sweep-theta", "--exact", "--p", "4", "--out", "sweep.json"),
    # the benchmark's long_time_exact workload: criterion 6, L = 2800, M = 10000
    ("sweep-theta", "--n", "4", "--j-over-h", "0.4", "--p", "1",
     "--filter", "lorentzian", "--eta-over-h", "0.02", "--m", "10000",
     "--exact", "--theta-count", "3", "--out", "sweep.json"),
    # N = 6: the oracle's union of kept pairs holds 1,225, so its line shapes
    # span many blocks of rows (6 rows each, 32 blocks over L = 188)
    ("sweep-theta", "--n", "6", "--exact", "--theta-list", "0.1,0.4,0.75",
     "--out", "sweep.json"),
    # a window cap that theta = 0 misses: one failed record (exit 3), then a
    # sweep with no success (exit 2, theta_star null)
    ("sweep-theta", "--exact", "--theta-list", "0,0.27", "--max-window-over-h", "0.6",
     "--out", "sweep.json"),
    ("sweep-theta", "--exact", "--theta-list", "0", "--max-window-over-h", "0.6",
     "--out", "sweep.json"),
    ("scaling", "--exact", "--samples-out", "samples.json", "--out", "diagram.csv"),
    ("scaling", "--exact", "--j-list", "0.4,0.6", "--n-list", "2,3,4",
     "--theta-count", "5", "--samples-out", "samples.json", "--out", "diagram.csv"),
    ("scaling", "--exact", "--initial-window-over-h", "0.1",
     "--max-window-over-h", "0.1", "--samples-out", "samples.json",
     "--out", "diagram.csv"),
    ("scaling", "--exact", "--n-list", "2,3,9", "--out", "diagram.csv"),
    ("depth-bound", "--out", "depth.csv"),
    ("toy", "--out", "toy.csv"),
    ("gap", "--exact", "--m", str(10**400), "--out", "gap.json"),
    ("gap", "--exact", "--p", "4", "--m", str(10**80), "--out", "gap.json"),
    ("gap", "--exact", "--n", str(10**400), "--out", "gap.json"),
    ("depth-bound", "--n", str(10**400), "--out", "depth.csv"),
    ("depth-bound", "--n-max", str(10**19), "--out", "depth.csv"),
    ("depth-bound", "--t-points", str(10**20), "--out", "depth.csv"),
    ("depth-bound", "--n-points", str(10**20), "--out", "depth.csv"),
    ("depth-bound", "--t-points", str(10**18), "--out", "depth.csv"),
    ("depth-bound", "--n-points", str(10**18), "--out", "depth.csv"),
)


def _value(cell: str):
    for kind in (int, float):
        try:
            return kind(cell)
        except ValueError:
            pass
    return cell


def parse(path: Path):
    """A JSON output as loaded; a CSV output as its `# key = <json>` header
    lines, column names and rows, with numeric cells as numbers."""
    text = path.read_text(encoding="utf-8")
    if path.suffix == ".json":
        return json.loads(text)
    lines = text.splitlines()
    meta = [line[1:].partition("=") for line in lines if line.startswith("#")]
    table = [line.split(",") for line in lines if not line.startswith("#")]
    return {"meta": {key.strip(): json.loads(value) for key, _, value in meta},
            "columns": table[0], "rows": [[_value(c) for c in row] for row in table[1:]]}


def capture(argv, workdir: Path, read=parse) -> dict:
    """Run one command in `workdir` (empty) through gaplab.cli.main; its exit
    code, stdout, stderr and every file it wrote, each passed through `read`.
    An exception that escapes main is recorded, as "<type>: <message>", in
    place of the exit code, so a crash is one more outcome to compare."""
    stdout, stderr, cwd = io.StringIO(), io.StringIO(), os.getcwd()
    os.chdir(workdir)
    try:
        with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
            code = main(list(argv))
    except Exception as exc:
        code = f"{type(exc).__name__}: {exc}"
    finally:
        os.chdir(cwd)
    return {"argv": list(argv), "exit": code, "stdout": stdout.getvalue(),
            "stderr": stderr.getvalue(),
            "outputs": {p.name: read(p) for p in sorted(Path(workdir).iterdir())}}


def write_corpus():
    """One entry per line, so a regenerated corpus diffs by command."""
    entries = []
    for argv in COMMANDS:
        with tempfile.TemporaryDirectory() as workdir:
            entries.append(capture(argv, Path(workdir)))
    with open(CORPUS, "w", encoding="utf-8") as fh:
        fh.write("[\n" + ",\n".join(json.dumps(e, sort_keys=True) for e in entries)
                 + "\n]\n")


if __name__ == "__main__":
    write_corpus()
