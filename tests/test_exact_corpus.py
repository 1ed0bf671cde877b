"""Replay of the exact-mode corpus (exact_corpus.py): every command must give
its captured exit code and printed lines, write the same files, and hold each
value within the benchmark's 1e-12 relative rule."""

import json
import shlex

import pytest

from conftest import perfbench_module
from exact_corpus import COMMANDS, CORPUS, capture

ENTRIES = json.loads(CORPUS.read_text(encoding="utf-8"))


def test_corpus_covers_the_command_list():
    assert [tuple(e["argv"]) for e in ENTRIES] == list(COMMANDS)


@pytest.mark.parametrize("want", ENTRIES, ids=[shlex.join(e["argv"]) for e in ENTRIES])
def test_replay_matches_corpus(want, tmp_path, monkeypatch):
    checks = perfbench_module("checks", monkeypatch)
    got = capture(want["argv"], tmp_path)
    assert (got["exit"], got["stdout"], got["stderr"]) == \
        (want["exit"], want["stdout"], want["stderr"])
    assert sorted(got["outputs"]) == sorted(want["outputs"])
    for name, parsed in want["outputs"].items():
        assert checks._close(got["outputs"][name], parsed), name


def test_replay_prints_the_relative_change_beside_a_line():
    from replay import first_difference

    base = {"exit": 0, "stdout": "gap 1.5\n", "stderr": "",
            "outputs": {"gap.json": '{\n "eps": 0.25,\n "n": 4\n}\n'}}
    head = dict(base, outputs={"gap.json": '{\n "eps": 0.2500000000001,\n "n": 4\n}\n'})
    assert first_difference(base, base) is None
    assert first_difference(base, head) == ("gap.json line 2: ' \"eps\": 0.25,' -> "
                                             "' \"eps\": 0.2500000000001,'  "
                                             "(largest relative difference 4.0e-13)")
    assert first_difference(base, dict(base, stdout="gap\n")) == \
        "stdout line 1: 'gap 1.5' -> 'gap'"


def test_replay_counts_every_differing_line_and_the_worst():
    # the first differing line need not hold the largest change: here it moves
    # by 4e-13 and the third line by 1e-11; a line only one run has counts too
    from replay import line_changes, report

    base = {"argv": ["gap", "--exact"], "exit": 0, "stdout": "gap 1.5\n", "stderr": "",
            "outputs": {"gap.json": '{\n "eps": 0.25,\n "n": 4,\n "w": 2.0\n}\n'}}
    head = dict(base, outputs={
        "gap.json": '{\n "eps": 0.2500000000001,\n "n": 4,\n "w": 2.00000000002\n}\n'})
    assert line_changes(base, base) == (0, None)
    assert report(base, base) == "identical: gap --exact"
    count, worst = line_changes(base, head)
    assert count == 2 and worst == pytest.approx(1e-11)
    assert report(base, head) == (
        "differs: gap --exact\n"
        "    gap.json line 2: ' \"eps\": 0.25,' -> ' \"eps\": 0.2500000000001,'  "
        "(largest relative difference 4.0e-13)\n"
        "    differing lines: 2, largest relative difference 1.0e-11")
    longer = dict(head, stdout="gap 1.5\nnote\n")
    assert line_changes(base, longer) == (3, worst)
    # lines without comparable numbers count, but show no relative difference
    assert line_changes(base, dict(base, stdout="gap\n")) == (1, None)
    assert report(base, dict(base, stdout="gap\n")).endswith("differing lines: 1")
