"""Tests of the benchmark harness itself.

    python3 -m pytest perfbench/tests -q
"""

import functools
import itertools
import math
import sys
from pathlib import Path

import numpy as np
import pytest

sys.path.insert(0, str(Path(__file__).resolve().parents[1]))

import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402
from perlayer import parse_importtime  # noqa: E402

nardf = run.import_library()


# ------------------------------------------------------------ checks can fail


def test_rate_loss_op_with_wrong_expected_value_fails():
    tally = run.Tally()
    tally.run(workloads.rate_loss_max_op(nardf))
    assert (tally.attempted, tally.failed) == (1, 0)
    tally.run(workloads.rate_loss_max_op(nardf, expected=0.2))
    assert (tally.attempted, tally.failed) == (2, 1)
    assert tally.failures[0].startswith("rate-loss-max")


def test_excess_op_with_wrong_expected_value_fails():
    def op(exact=None):
        return workloads.excess_sim_op(nardf, "excess-typical", 0.3, 0.1, 50, 0.05,
                                       4000, nardf.RngStream(3), exact=exact)

    tally = run.Tally()
    tally.run(op())
    assert tally.failed == 0
    tally.run(op(exact=0.5))
    assert tally.failed == 1


def test_raising_op_counts_as_failed():
    def boom():
        raise nardf.DomainError("bad input")

    tally = run.Tally()
    tally.run(workloads.Op("boom", boom, lambda r: True))
    assert (tally.attempted, tally.failed) == (1, 1)


def test_lumped_tail_matches_enumeration():
    T = np.array([[0.8, 0.35], [0.2, 0.65]])  # column-stochastic
    pi = np.array([0.35, 0.2]) / 0.55
    n = 7
    probs = np.zeros(n + 1)
    for path in itertools.product((0, 1), repeat=n):
        pr = pi[path[0]]
        for a, b in zip(path, path[1:]):
            pr *= T[b, a]
        probs[sum(path)] += pr
    for k in range(n + 1):
        assert workloads.lumped_tail(T, pi, n, k) == pytest.approx(probs[k:].sum(), abs=1e-15)


def test_chi2_grid_exponent_at_the_closed_form_maximiser():
    D, d = 0.5, 0.65
    lam_star = (1.0 - D / d) / (2.0 * D)
    closed = 0.5 * (d / D - 1.0 - math.log(d / D))
    assert workloads.chi2_grid_exponent([lam_star], d, D) == pytest.approx(closed, rel=1e-12)


# ------------------------------------------------------------------- tracing


def test_tracer_wraps_every_binding_site_and_restores_them():
    original = nardf.numerics.perron_eigenvalue
    tracer = tracing.Tracer()
    tracer.install()
    try:
        for owner in (nardf, nardf.numerics, nardf.excess):
            assert owner.perron_eigenvalue is not original
            assert owner.perron_eigenvalue.__perfbench_original__ is original
        assert "nardf.gauss.reverse_waterfill" in tracing.wrapped_bindings()
        assert "nardf.numerics.RngStream.generator" in tracing.wrapped_bindings()
    finally:
        tracer.uninstall()
    assert nardf.excess.perron_eigenvalue is original
    assert tracing.wrapped_bindings() == []


def _traced_rate_function(clock=None):
    kwargs = {} if clock is None else {"clock": clock}
    tracer = tracing.Tracer(**kwargs)
    chain = nardf.joint_chain(nardf.optimal_reproduction(0.3, 0.1))
    tracer.install()
    try:
        tracer.recording = True
        nardf.exceedance_exponent(chain, 0.2)
    finally:
        tracer.recording = False
        tracer.uninstall()
    return tracer


def _descendants(spans, root):
    out = []
    for i, span in enumerate(spans):
        j = span.parent
        while j >= 0 and j != root:
            j = spans[j].parent
        if j == root:
            out.append(i)
    return out


@pytest.mark.parametrize("fake_clock", [True, False])
def test_self_times_of_nested_spans_add_up_to_parent(fake_clock):
    clock = functools.partial(next, itertools.count()) if fake_clock else None
    tracer = _traced_rate_function(clock)
    spans, selfs = tracer.spans, tracer.self_times()
    assert spans[0].name == "excess.exceedance_exponent" and spans[0].parent == -1
    names = {s.name for s in spans}
    assert {"excess.rate_function", "numerics.maximize_concave_1d",
            "numerics.perron_eigenvalue"} <= names
    for root, span in enumerate(spans):
        inside = _descendants(spans, root)
        total = selfs[root] + sum(selfs[i] for i in inside)
        if fake_clock:
            assert total == span.duration
        else:
            assert total == pytest.approx(span.duration, rel=1e-9, abs=1e-12)
        assert selfs[root] >= (0 if fake_clock else -1e-12)


def test_timed_run_has_no_wrappers_installed():
    seen = []

    def probe():
        seen.append(tracing.wrapped_bindings())
        return nardf.rna_bsms(0.25, 0.1)

    op = workloads.Op("probe", probe, lambda r: abs(r - 0.41229) < 1e-4)
    workload = workloads.Workload("probe", 0, {"probe": lambda g, i: op})
    tally = run.Tally()
    samples = run.timed_run(workload, 0.0, tally, warm=True)
    assert len(samples) == run.MIN_CYCLES and tally.failed == 0
    assert seen and all(found == [] for found in seen)


def test_span_attributes_feed_per_layer_metrics():
    import perlayer

    tracer = tracing.Tracer(perlayer.attr_hooks(nardf))
    model = nardf.GaussModel.scalar(0.5, 1.0, 1.0, 0.5)
    tracer.install()
    try:
        tracer.recording = True
        sol = nardf.solve_realization(model, 0.4)
        frac = nardf.simulate_excess_bsms(0.3, 0.1, 50, 0.1, 400, nardf.RngStream(1))
    finally:
        tracer.recording = False
        tracer.uninstall()
    metrics = perlayer.from_spans(tracer.spans, tracer.self_times(), passes=1)
    assert metrics["gauss.solve_realization.iterations"] == sol.iterations
    assert metrics["gauss.solve_realization.scalar.p50_us"] > 0.0
    assert metrics["gauss.solve_realization.vector.p50_us"] == 0.0
    assert metrics["excess.simulate_excess_bsms.hit_ratio"] == pytest.approx(frac)
    assert metrics["numerics.RngStream.generator.calls"] == 16
    assert set(metrics) | {"cli.output_bytes", "trace.overhead_ratio", "cli.interp_ms",
                           "cli.import_ms", "cli.import_scipy_ms"} == set(perlayer.metric_units())


# ------------------------------------------------------------------ reporting


def test_tail_has_ten_samples_beyond_it():
    value, pct, n = run.tail([float(v) for v in range(30, 0, -1)])
    assert (value, n) == (20.0, 30)
    assert pct == pytest.approx(100.0 * 20 / 30)
    assert run.tail([3.0, 1.0, 2.0]) == (3.0, 100.0, 3)


def test_parse_importtime():
    text = "\n".join([
        "import time: self [us] | cumulative | imported package",
        "import time:       400 |        400 |   _io",
        "import time:      1000 |      20000 |         scipy",
        "import time:      1500 |      50000 |       scipy.linalg",
        "import time:      1067 |     911757 |   nardf",
        "import time:     28618 |     940375 | nardf.cli",
    ])
    assert parse_importtime(text) == (940.375, 2.5)


def test_benchmark_json_lists_the_reported_metrics():
    import json

    import perlayer

    bench = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in bench["workloads"]] == list(workloads.WORKLOADS)
    assert {m["name"]: m["unit"] for m in bench["end_to_end"]} == run.E2E_UNITS
    assert {m["name"]: (m["unit"], m["better"]) for m in bench["per_layer"]} == \
        perlayer.metric_units()
