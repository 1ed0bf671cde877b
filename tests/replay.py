"""Replay the corpus commands at HEAD and at another revision, and compare bytes.

Each command of exact_corpus.COMMANDS runs as listed and, where it has
`--exact`, once more without it (shot mode, at its default shots and seed).
Shot-mode output depends on numpy's binomial stream, so it stays out of the
Tier-1 corpus; this script shows what a change did to it.  Both revisions are
checked out in temporary git worktrees and run the same command list, the one
beside this script.  Per command it prints `identical`, or the first
difference: the exit code (or the exception a crashing command raised), a
printed line or a line of an output file.  Beside a differing line it prints
the largest relative difference between the numbers on the two lines, so a
change in the last digits reads as such.  Below the first difference it
prints how many lines differ in all and the largest relative difference over
all of them, since the first line need not be the worst.  It exits 1 if any
command differs, else 0.

    python tests/replay.py REVISION
"""

import argparse
import json
import os
import re
import subprocess
import sys
import tempfile
from pathlib import Path

REPO = Path(__file__).resolve().parents[1]


def _capture_all():
    """Run in a child whose PYTHONPATH names one checkout's src (the parent
    imports no gaplab): every command's exit code, printed text and output
    files, as one JSON line on stdout."""
    from exact_corpus import COMMANDS, capture

    results = []
    for argv in COMMANDS:
        shot = tuple(a for a in argv if a != "--exact")
        for run in (argv, shot) if shot != argv else (argv,):
            with tempfile.TemporaryDirectory() as workdir:
                results.append(capture(run, Path(workdir), read=Path.read_text))
    print(json.dumps(results))


def _run_at(revision: str, tmp: Path) -> list:
    tree = tmp / "tree"
    subprocess.run(["git", "-C", str(REPO), "worktree", "add", "--detach", str(tree),
                    revision], check=True, capture_output=True)
    try:
        path = os.pathsep.join((str(tree / "src"), str(Path(__file__).parent)))
        child = subprocess.run(
            [sys.executable, "-c", "import replay; replay._capture_all()"],
            check=True, capture_output=True, text=True,
            env=dict(os.environ, PYTHONPATH=path))
    finally:
        subprocess.run(["git", "-C", str(REPO), "worktree", "remove", "--force",
                        str(tree)], check=True)
    return json.loads(child.stdout)


_NUMBER = re.compile(r"[-+]?(?:\d+\.\d*|\.\d+|\d+)(?:[eE][-+]?\d+)?")


def largest_relative_difference(old: str, new: str) -> float | None:
    """max |x - y| / max(|x|, |y|) over the numbers of two lines, paired in
    order; None if the lines hold no numbers or different counts of them."""
    xs, ys = ([float(n) for n in _NUMBER.findall(line)] for line in (old, new))
    if not xs or len(xs) != len(ys):
        return None
    return max(abs(x - y) / max(abs(x), abs(y)) if x != y else 0.0
               for x, y in zip(xs, ys))


def _lines(run: dict, name: str) -> list:
    """The lines of a run's printed text ("stdout", "stderr") or output file,
    none for a file the run did not write."""
    return (run[name] if name in ("stdout", "stderr")
            else run["outputs"].get(name, "")).splitlines()


def _differing_lines(base: dict, head: dict) -> list:
    """One walk over the printed text and every output file, paired by name and
    number: (name, number, old line, new line, largest relative difference) per
    differing pair, then (name, None, old count, new count, None) for a name
    whose line counts differ (a file only one run wrote has none in the other)."""
    out = []
    for name in ("stdout", "stderr", *sorted({*base["outputs"], *head["outputs"]})):
        old, new = _lines(base, name), _lines(head, name)
        out.extend((name, number, a, b, largest_relative_difference(a, b))
                   for number, (a, b) in enumerate(zip(old, new), start=1) if a != b)
        if len(old) != len(new):
            out.append((name, None, len(old), len(new), None))
    return out


def first_difference(base: dict, head: dict, lines: list | None = None) -> str | None:
    """The exit code, else the set of output files, else the first of the
    `lines` (the pair's _differing_lines, walked here if not given)."""
    if base["exit"] != head["exit"]:
        return f"exit: {base['exit']!r} -> {head['exit']!r}"
    if sorted(base["outputs"]) != sorted(head["outputs"]):
        return f"files: {sorted(base['outputs'])} -> {sorted(head['outputs'])}"
    lines = _differing_lines(base, head) if lines is None else lines
    if not lines:
        return None
    name, number, a, b, rel = lines[0]
    if number is None:
        return f"{name}: {a} -> {b} lines"
    return f"{name} line {number}: {a!r} -> {b!r}" + (
        "" if rel is None else f"  (largest relative difference {rel:.1e})")


def line_changes(base: dict, head: dict,
                 lines: list | None = None) -> tuple[int, float | None]:
    """How many lines differ over the printed text and every output file, paired
    by name and number (a line only one run has counts), and the largest relative
    difference over the differing pairs; None where no pair holds comparable numbers.
    `lines` is the pair's _differing_lines, walked here if not given."""
    lines = _differing_lines(base, head) if lines is None else lines
    rels = [rel for *_, rel in lines if rel is not None]
    return (sum(1 if number else abs(a - b) for _, number, a, b, _ in lines),
            max(rels, default=None))


def report(base: dict, head: dict) -> str:
    """`identical`, or `differs` with the first difference and the line_changes
    count, both read from one walk of the two runs."""
    lines = _differing_lines(base, head)
    diff = first_difference(base, head, lines)
    title = f"{'identical' if diff is None else 'differs'}: {' '.join(base['argv'])}"
    if diff is None:
        return title
    count, worst = line_changes(base, head, lines)
    return (f"{title}\n    {diff}\n    differing lines: {count}"
            + ("" if worst is None else f", largest relative difference {worst:.1e}"))


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("revision", help="the revision HEAD is compared with")
    args = parser.parse_args()
    runs = []
    for revision in (args.revision, "HEAD"):
        with tempfile.TemporaryDirectory() as tmp:
            runs.append(_run_at(revision, Path(tmp)))
    reports = [report(base, head) for base, head in zip(*runs)]
    print("\n".join(reports))
    return 1 if any(r.startswith("differs") for r in reports) else 0


if __name__ == "__main__":
    sys.exit(main())
