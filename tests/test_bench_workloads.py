"""The benchmark's CLI jobs still resolve against the live CLI.

``bench/workloads.py`` builds each workload as a list of ``crucial`` argv; a
CLI key or value that is renamed or dropped makes that job fail only when the
benchmark runs.  Parsing and resolving every job here, without running any,
turns that into a test failure.
"""

import importlib
import sys
from pathlib import Path

import pytest

from crucial import cli

BENCH = Path(__file__).resolve().parents[1] / "bench"


def _workloads() -> dict:
    sys.path.insert(0, str(BENCH))
    try:
        return importlib.import_module("workloads").WORKLOADS
    finally:
        sys.path.remove(str(BENCH))


WORKLOADS = _workloads()


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_every_job_resolves_against_the_cli(tmp_path, name):
    jobs = WORKLOADS[name].jobs(str(tmp_path), 1)
    assert jobs
    for _, argv in jobs:
        command, *tokens = argv
        assert command in cli._COMMANDS
        cfg = cli.resolve_config(command, {}, cli._parse_flags(tokens))
        if command == "train":
            assert cfg["task"] in cli._TASK_OUTPUTS
