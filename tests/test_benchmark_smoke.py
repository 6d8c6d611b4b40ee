"""One planned round of two benchmark workloads runs and passes its checks.

``perfbench/workloads.py`` is imported by path and never edited.  A
change that makes a benchmark op raise, exit nonzero or break one of the
workload's output checks fails here, at test time.
"""

import importlib.util
import sys
from pathlib import Path

import pytest

WORKLOADS = Path(__file__).resolve().parents[1] / "perfbench" / "workloads.py"


@pytest.fixture(scope="module")
def workloads():
    spec = importlib.util.spec_from_file_location("perfbench_workloads", WORKLOADS)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # its dataclasses look their module up here
    spec.loader.exec_module(module)
    return module


# one round each: fock-sweep's round holds the kor-ratio and wiretap-qpsk rows
@pytest.mark.parametrize("workload, seconds", [("point-queries", 0.025),
                                               ("fock-sweep", 8.0)])
def test_one_round_passes_its_checks(workloads, workload, seconds, tmp_path):
    assert workloads.n_rounds(workload, seconds) == 1
    ops = [op for op in workloads.plan(workload, 401, seconds) if op.round == 0]
    outcomes = [workloads.run_op(op, str(tmp_path)) for op in ops]
    workloads.check(outcomes)
    failed = [(res.op.kind, res.op.params, res.error, res.check_failures)
              for res in outcomes if res.failed]
    assert not failed
