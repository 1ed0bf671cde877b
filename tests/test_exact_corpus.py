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
