"""The benchmark's correctness gate, run as a test.

Each workload's command list at workloads.GOLDEN_SEED goes once through
cli.run_command, inside bench/worker.py's own Pass, and the worker's own
Gate checks every report against bench/golden/: the exit code, and every
field to the gate's relative tolerance.  A report change that the golden
files do not carry fails here, before the benchmark runs.  The test only
reads bench/.
"""

import sys
from pathlib import Path

import pytest

from fisherbound import cli, pauli

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "bench"))
# no bytecode cache is written next to the benchmark's files
saved, sys.dont_write_bytecode = sys.dont_write_bytecode, True
try:
    import worker
    import workloads
finally:
    sys.dont_write_bytecode = saved


@pytest.mark.parametrize("workload", sorted(workloads.WORKLOADS))
def test_golden_seed_pass_matches_the_golden_reports(workload):
    gate = worker.Gate(worker._load_golden(workload), workloads.GOLDEN_SEED)
    plan = workloads.commands(workload, workloads.GOLDEN_SEED, cli, pauli)
    gate.check(worker.Pass(cli, plan), "golden-seed pass")
    assert (gate.attempted, gate.failed) == (len(plan), 0), gate.problems
