"""Every benchmark op runs and passes its own check: the first cycle of each
workload, built at seed 1, with the cli ops run in-process (the traced
cycle), so a change to a signature or report that the benchmark uses fails
here rather than in a benchmark run."""

import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "perfbench"))

import workloads  # noqa: E402

import nardf  # noqa: E402
import nardf.cli  # noqa: E402,F401  (the cli workload calls nardf.cli.main)


@pytest.mark.parametrize("name", workloads.WORKLOADS)
def test_every_benchmark_op_passes_its_check(name, tmp_path):
    workload = workloads.build(name, nardf, 1, str(tmp_path))
    try:
        failed = [op.kind for op in workload.cycle(0, traced=True) if not op.check(op.run())]
    finally:
        workload.cleanup()
    assert not failed
