"""The benchmark's correctness gate against the CLI's own reports: the
gate passes its self-test, and it finds no problem in a small run of each
benchmark workload's command, so a report-shape slip fails here and not
only in the benchmark.

``perfbench/gate.py`` is read, never changed: its source is executed into
a fresh module, so no bytecode is written beside it."""

import io
import json
import types
from pathlib import Path

import pytest

import planartl.cli as cli

GATE_PATH = Path(__file__).resolve().parents[1] / "perfbench" / "gate.py"

# Each workload's checks, convention and points, at a small n.
WORKLOAD_SPECS = {
    "symbolic": {"checks": ("ddzero", "thmD"), "n_max": 4, "convention": "A", "points": None},
    "rank": {
        "checks": ("homology", "fineberg"),
        "n_max": 4,
        "convention": "B",
        "points": ["2", "3", "5", "-2", "1/2", "3/2"],
    },
    "enumerate": {"checks": ("euler", "bcounts", "bijection"), "n_max": 5, "convention": "A", "points": None},
}


@pytest.fixture(scope="module")
def gate():
    module = types.ModuleType("gate")
    module.__file__ = str(GATE_PATH)
    exec(compile(GATE_PATH.read_text(), str(GATE_PATH), "exec"), module.__dict__)
    return module


def test_gate_self_test_catches_every_doctored_report(gate):
    assert gate.self_test() == []


@pytest.mark.parametrize("workload", sorted(WORKLOAD_SPECS))
def test_gate_accepts_the_cli_report_of_each_workload(gate, workload):
    spec = WORKLOAD_SPECS[workload]
    argv = ["verify", *spec["checks"], "--n-max", str(spec["n_max"]), "--convention", spec["convention"]]
    if spec["points"] is not None:
        argv.append("--points=" + ",".join(spec["points"]))
    args = cli.build_parser().parse_args(argv + ["--format", "json"])
    out = io.StringIO()
    assert args.func(args, out) == 0
    assert gate.check_report(json.loads(out.getvalue()), spec) == []
