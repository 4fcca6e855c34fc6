"""Every benchmark op runs and passes its own check: the first cycle of each
workload, built at seed 1, with the cli ops run in-process (the traced
cycle), so a change to a signature or report that the benchmark uses fails
here rather than in a benchmark run.  Analytic-curves runs its second cycle
too: cycle c draws its gauss-vector-drawn model with m = 3 + c % 2, so the
4x4 model is checked as well as the 3x3."""

import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "perfbench"))

import workloads  # noqa: E402

import nardf  # noqa: E402
import nardf.cli  # noqa: E402,F401  (the cli workload calls nardf.cli.main)

CYCLES = {"analytic-curves": (0, 1)}


@pytest.mark.parametrize("name", workloads.WORKLOADS)
def test_every_benchmark_op_passes_its_check(name, tmp_path):
    workload = workloads.build(name, nardf, 1, str(tmp_path))
    try:
        failed = [(index, op.kind) for index in CYCLES.get(name, (0,))
                  for op in workload.cycle(index, traced=True) if not op.check(op.run())]
    finally:
        workload.cleanup()
    assert not failed
