"""Edge values: every argument combination drawn from a fixed set of floats
either gives a finite result or raises DomainError / NumericError.  Tier-1
turns a RuntimeWarning into an error, so a warning fails here too."""

import dataclasses
import itertools
import math

import numpy as np
import pytest

from nardf import excess, gauss, jscc, numerics
from nardf.bsms import (JointChain, classical_gray, gray_critical_distortion, joint_chain,
                        optimal_reproduction, rate_loss_bound, rna_bsms)
from nardf.errors import DomainError, NumericError
from nardf.excess import (exceedance_exponent, gaussian_chernoff_exponent,
                          gaussian_error_recursion, hoeffding_bound, lumped_distortion_chain,
                          rate_function, reversible_bound, simulate_excess_bsms)
from nardf.gauss import (
    GaussModel,
    classical_alpha1,
    partially_observed_sigma,
    rate_loss_alpha1,
    reverse_waterfill,
    rna_scalar_fully_observed,
    rna_scalar_partially_observed,
    solve_realization,
)
from nardf.jscc import (MIN_STEPS_WITH_SE, capacity_waterfill, match_power,
                        matched_channel_noise, schalkwijk_kailath, simulate_vector)
from nardf.numerics import RngStream, binary_entropy, cubic_positive_root, sym_eig

EDGES = (math.nan, math.inf, -math.inf, 0.0, -0.0, 5e-324, 1e-300,
         0.25, 0.5, 1.0, 1.5, 1e300, -0.3)
# the 5-argument forms reach a companion eigensolve; 8**5 calls each
THIN = (math.nan, math.inf, -0.3, 0.0, 5e-324, 0.5, 1.5, 1e300)
# theta, d and gamma on one optimal chain; n = 2000 passes the Hoeffding
# validity threshold (n > 587) for every edge gamma >= 0.25
DESIGN = optimal_reproduction(0.3, 0.1)
CHAIN = joint_chain(DESIGN)
_SCALAR = GaussModel.scalar(0.5, 1.0)
_SCALAR_SOLUTION = solve_realization(_SCALAR, 0.5)

CASES = {
    "binary_entropy": (binary_entropy, 1, EDGES),
    "gray_critical_distortion": (gray_critical_distortion, 1, EDGES),
    "rna_bsms": (rna_bsms, 2, EDGES),
    "classical_gray": (classical_gray, 2, EDGES),
    "rate_loss_bound": (rate_loss_bound, 2, EDGES),
    "classical_alpha1": (classical_alpha1, 2, EDGES),
    "rate_loss_alpha1": (rate_loss_alpha1, 2, EDGES),
    "rna_scalar_fully_observed": (rna_scalar_fully_observed, 3, EDGES),
    "partially_observed_sigma": (partially_observed_sigma, 5, THIN),
    "rna_scalar_partially_observed": (rna_scalar_partially_observed, 5, THIN),
    "cubic_positive_root": (cubic_positive_root, 4, THIN),
    "reverse_waterfill": (lambda a, b, D: reverse_waterfill([a, b], D), 3, EDGES),
    "capacity_waterfill_1": (lambda a, P: capacity_waterfill([a], P), 2, EDGES),
    "capacity_waterfill_2": (lambda a, b, P: capacity_waterfill([a, b], P), 3, EDGES),
    "sym_eig_1x1": (lambda a: sym_eig([[a]]), 1, EDGES),
    "sym_eig_2x2": (lambda a, b, c: sym_eig([[a, b], [b, c]]), 3, EDGES),
    "rate_function": (lambda theta: rate_function(CHAIN, theta), 1, EDGES),
    "exceedance_exponent": (lambda d: exceedance_exponent(CHAIN, d), 1, EDGES),
    "hoeffding_bound": (lambda gamma: hoeffding_bound(CHAIN, DESIGN, 2000, gamma), 1, EDGES),
    "reversible_bound": (lambda gamma: reversible_bound(lumped_distortion_chain(CHAIN),
                                                        2000, gamma), 1, EDGES),
    # n = inf included: the bounds' limit is 0
    "hoeffding_bound_n": (lambda n: hoeffding_bound(CHAIN, DESIGN, n, 0.25), 1, EDGES),
    "reversible_bound_n": (lambda n: reversible_bound(lumped_distortion_chain(CHAIN),
                                                      n, 0.25), 1, EDGES),
    "simulate_excess_bsms": (lambda p, D, d: simulate_excess_bsms(p, D, 4, d, 8, RngStream(1)),
                             3, EDGES),
}


def _finite(result):
    if isinstance(result, (tuple, list)):  # NamedTuples and (value, flag) pairs
        return all(_finite(part) for part in result)
    return bool(np.all(np.isfinite(np.asarray(result, dtype=float))))


@pytest.mark.parametrize("name", list(CASES))
def test_edge_values_give_finite_result_or_documented_error(name):
    fn, arity, values = CASES[name]
    bad = []
    for args in itertools.product(values, repeat=arity):
        try:
            result = fn(*args)
        except (DomainError, NumericError):
            continue
        except Exception as exc:  # what leaked is the finding
            bad.append((args, f"{type(exc).__name__}: {exc}"))
            continue
        if not _finite(result):
            bad.append((args, result))
    assert not bad, f"{len(bad)} bad calls, e.g. {bad[:3]}"


@pytest.mark.parametrize("fn, args", [
    (reverse_waterfill, ([math.nan, 1.0], 2.0)),
    (reverse_waterfill, ([math.inf, 1.0], 2.0)),
    (reverse_waterfill, ([], 1.0)),
    (sym_eig, (np.zeros((0, 0)),)),
    (sym_eig, (np.zeros((2, 0)),)),
    (partially_observed_sigma, (math.nan, 1.0, 1.0, 0.5, 0.4)),
    (rna_scalar_partially_observed, (0.5, 1.0, 1.0, 0.5, math.nan)),
    (rna_scalar_partially_observed, (0.5, math.inf, 1.0, 0.5, 0.4)),
    (rna_scalar_fully_observed, (0.0, 5e-324, 5e-324)),
    (rna_scalar_fully_observed, (0.0, 0.25, 5e-324)),
    (classical_alpha1, (math.inf, 0.1)),
    (rate_loss_alpha1, (math.inf, math.inf)),
    (cubic_positive_root, (1.0, math.nan, 0.0, -1.0)),
    (cubic_positive_root, (1.0, 0.0, math.inf, -1.0)),
    (reverse_waterfill, ([4.0, 1.0], 5e-324)),  # the level underflows to xi = 0
    (capacity_waterfill, ([5e-324], 1.0)),  # P/q overflows: infinite capacity
    (capacity_waterfill, ([5e-324, 5e-324], 1.0)),
    (simulate_excess_bsms, (0.3, 0.1, 10, math.nan, 10, RngStream(1))),  # counted no trial
    (RngStream, (-3,)),  # numpy's seeding raised ValueError at the first draw
    (RngStream, (3, -1)),
    # counts that are NaN or not whole raised TypeError from range() or
    # np.empty; a NaN or infinite Chernoff threshold passed `d <= 0` and
    # ended in "no stable tilt"
    (simulate_excess_bsms, (0.3, 0.1, math.nan, 0.2, 100, RngStream(1))),
    (simulate_excess_bsms, (0.3, 0.1, 10, 0.2, math.nan, RngStream(1))),
    (simulate_excess_bsms, (0.3, 0.1, 10.5, 0.2, 100, RngStream(1))),
    (gaussian_chernoff_exponent, (_SCALAR, _SCALAR_SOLUTION, 0.6, math.nan, 100, RngStream(1))),
    (gaussian_chernoff_exponent, (_SCALAR, _SCALAR_SOLUTION, 0.6, 10, math.nan, RngStream(1))),
    (gaussian_chernoff_exponent, (_SCALAR, _SCALAR_SOLUTION, math.nan, 10, 100, RngStream(1))),
    (gaussian_chernoff_exponent, (_SCALAR, _SCALAR_SOLUTION, math.inf, 10, 100, RngStream(1))),
    (schalkwijk_kailath, (1.0, 1.0, 1.0, 5.5, RngStream(1))),
    (schalkwijk_kailath, (1.0, 1.0, 1.0, 5, RngStream(1), math.nan)),
    (jscc.simulate_scalar, (jscc.design_iid_scalar(1.0, 1.0, 1.0), 500.5, RngStream(1))),
    # a float count raised TypeError from np.zeros
    (simulate_vector, (_SCALAR, _SCALAR_SOLUTION, 500.5, RngStream(1))),
    (simulate_vector, (_SCALAR, _SCALAR_SOLUTION, np.float64(600.0), RngStream(1))),
])
def test_reported_edge_cases_are_domain_errors(fn, args):
    with pytest.raises(DomainError):
        fn(*args)


@pytest.mark.parametrize("n", [500.5, np.float64(600.0), math.nan])
def test_simulation_length_error_names_the_callers_count(n):
    # the scalar message named the derived (shards, steps per shard) = (2.0, 251.0)
    design = jscc.design_iid_scalar(1.0, 1.0, 1.0)
    for run in (lambda: jscc.simulate_scalar(design, n, RngStream(1)),
                lambda: simulate_vector(_SCALAR, _SCALAR_SOLUTION, n, RngStream(1))):
        with pytest.raises(DomainError, match=f"integer .*got {n}$"):
            run()


def test_simulation_length_may_be_a_numpy_integer():
    design = jscc.design_iid_scalar(1.0, 1.0, 1.0)
    for report in (jscc.simulate_scalar(design, np.int64(400), RngStream(1)),
                   simulate_vector(_SCALAR, _SCALAR_SOLUTION, np.int64(400), RngStream(1))):
        assert report.samples == 400 and type(report.samples) is int  # JSON-serializable


def test_bounds_at_infinite_block_length_are_zero():
    # the Hoeffding exponent was -inf/inf there, and the bound NaN
    assert hoeffding_bound(CHAIN, DESIGN, math.inf, 0.1) == 0.0
    assert reversible_bound(lumped_distortion_chain(CHAIN), math.inf, 0.1) == 0.0


def _two_state(T):
    return JointChain(pi_matrix=np.array(T, dtype=float),
                      stationary=np.array([0.5, 0.5]), f=np.array([0.0, 1.0]))


@pytest.mark.parametrize("n", [1, 10, math.inf])
@pytest.mark.parametrize("gamma", [0.1, math.inf])
def test_reversible_bound_of_a_frozen_lump_is_one(n, gamma):
    # Pi = I: lambda_2 = 1 and the rate (1 - lam0)/(1 + lam0) is 0, so the
    # bound is 1; at n = inf or gamma = inf its exponent was 0 * inf = NaN
    assert reversible_bound(_two_state(np.eye(2)), n, gamma) == 1.0


def test_capacity_waterfill_powers_the_quietest_channel_when_the_level_rounds_below_it():
    # exactly nu = 1e-323 and P* = (5e-324, 0); the computed level rounds
    # to 0, below every q, which left no active channel (ZeroDivisionError)
    cap, alloc = capacity_waterfill([5e-324, 1e-300], 5e-324)
    assert cap == 0.5 and alloc.tolist() == [5e-324, 0.0]


# more trials (or Schalkwijk-Kailath uses) than memory can hold: numpy
# would raise MemoryError on the first allocation, so a DomainError shows
# that the refusal comes before any; more steps than _MAX_STEPS would run
# for hours


@pytest.mark.parametrize("call", [
    lambda: schalkwijk_kailath(1.0, 1.0, 1.0, 8, RngStream(1), trials=10**12),
    lambda: schalkwijk_kailath(1.0, 1.0, 1.0, 10**12, RngStream(1), trials=100),
    lambda: simulate_excess_bsms(0.3, 0.1, 100, 0.2, 10**12, RngStream(1)),
    lambda: gaussian_chernoff_exponent(_SCALAR, solve_realization(_SCALAR, 0.5), 0.6, 100,
                                       10**12, RngStream(1)),
    lambda: jscc.simulate_scalar(jscc.design_iid_scalar(1.0, 1.0, 1.0), 10**12, RngStream(1)),
    lambda: simulate_vector(_SCALAR, solve_realization(_SCALAR, 0.5), 10**12, RngStream(1)),
    lambda: simulate_excess_bsms(0.3, 0.1, 10**12, 0.2, 10, RngStream(1)),
    lambda: gaussian_chernoff_exponent(_SCALAR, solve_realization(_SCALAR, 0.5), 0.6, 10**12,
                                       100, RngStream(1)),
    # each count within its own cap, but more than 10^10 trials x steps
    lambda: schalkwijk_kailath(1.0, 1.0, 1.0, 10**7, RngStream(1), trials=10**7),
    lambda: simulate_excess_bsms(0.3, 0.1, 10**8, 0.2, 10**7, RngStream(1)),
    lambda: gaussian_chernoff_exponent(_SCALAR, solve_realization(_SCALAR, 0.5), 0.6, 10**5,
                                       10**6, RngStream(1)),
], ids=["sk-trials", "sk-uses", "excess-trials", "chernoff-trials", "scalar-steps",
        "vector-steps", "excess-steps", "chernoff-steps", "sk-trial-steps",
        "excess-trial-steps", "chernoff-trial-steps"])
def test_oversize_monte_carlo_requests_are_refused_before_allocating(call):
    with pytest.raises(DomainError):
        call()


def test_monte_carlo_ceilings_are_inclusive(monkeypatch):
    monkeypatch.setattr(numerics, "_MAX_TRIALS", 40)
    monkeypatch.setattr(jscc, "_MAX_SK_USES", 3)
    assert schalkwijk_kailath(1.0, 1.0, 1.0, 3, RngStream(1), trials=40).trials == 40
    for n, trials in ((4, 40), (3, 41)):
        with pytest.raises(DomainError):
            schalkwijk_kailath(1.0, 1.0, 1.0, n, RngStream(1), trials=trials)
    monkeypatch.setattr(jscc, "_MAX_STEPS", 500)
    design, sol = jscc.design_iid_scalar(1.0, 1.0, 1.0), solve_realization(_SCALAR, 0.5)
    assert jscc.simulate_scalar(design, 500, RngStream(1)).samples == 500
    assert simulate_vector(_SCALAR, sol, 500, RngStream(1)).samples == 500
    with pytest.raises(DomainError):
        jscc.simulate_scalar(design, 501, RngStream(1))
    with pytest.raises(DomainError):
        simulate_vector(_SCALAR, sol, 501, RngStream(1))
    monkeypatch.setattr(numerics, "_MAX_STEPS", 30)  # steps per chain of every simulator
    assert 0.0 <= simulate_excess_bsms(0.3, 0.1, 30, 0.2, 10, RngStream(1)) <= 1.0
    with pytest.raises(DomainError):
        simulate_excess_bsms(0.3, 0.1, 31, 0.2, 10, RngStream(1))
    monkeypatch.setattr(numerics, "_MAX_TRIAL_STEPS", 200)  # trials x steps of one call
    assert 0.0 <= simulate_excess_bsms(0.3, 0.1, 20, 0.2, 10, RngStream(1)) <= 1.0
    for n, trials in ((21, 10), (20, 11)):
        with pytest.raises(DomainError, match="trial-steps"):
            simulate_excess_bsms(0.3, 0.1, n, 0.2, trials, RngStream(1))


def test_monte_carlo_work_ceiling_admits_the_largest_test_size():
    # criterion 10 runs 10^5 trials at n = 4000
    assert 10**5 * 4000 <= numerics._MAX_TRIAL_STEPS


# an irreducible 4-state chain whose exit mass differs inside the class {f=0}
_UNLUMPABLE = np.array([[0.7, 0.4, 0.2, 0.2], [0.2, 0.3, 0.2, 0.2],
                        [0.05, 0.15, 0.3, 0.3], [0.05, 0.15, 0.3, 0.3]])


def _four_state(T, f):
    return JointChain(pi_matrix=T,
                      stationary=np.linalg.matrix_power(T, 200)[:, 0], f=np.array(f))


@pytest.mark.parametrize("chain, match", [
    (_four_state(_UNLUMPABLE, [0.0, 0.0, 1.0, 1.0]), "not lumpable"),
    (_four_state(CHAIN.pi_matrix, [0.0, 0.5, 1.0, 1.0]), "must be 0/1"),
    # two absorbing states: no tilt connects them
    (JointChain(pi_matrix=np.eye(2),
                stationary=np.array([0.5, 0.5]), f=np.array([0.0, 1.0])), "reducible"),
])
def test_rate_function_rejects_chains_it_cannot_check_or_lump(chain, match):
    with pytest.raises(DomainError, match=match):
        rate_function(chain, 0.7)


@pytest.mark.parametrize("T", [
    # e^lam T overflows on the upper half of the bracket
    [[1e300, 1e300], [1e300, 1e300]],
    # finite at lam = 50 (t11 ~ t00 there), but (t00 - t11)^2 overflows
    # toward lam = -50, where t11 is small
    [[1e200, 1.0], [1.0, 1e200 * math.exp(-50.0)]],
])
def test_rate_function_rejects_a_tilted_chain_that_is_not_finite(T):
    # nonnegative, irreducible and (having two states) lumpable, so the
    # tilt is the check that fires; the overflow warnings on the way are
    # not what is tested
    with np.errstate(over="ignore", invalid="ignore"):
        with pytest.raises(DomainError, match="tilted chain is not finite"):
            rate_function(_two_state(T), 0.5)


def test_rate_function_checks_the_tilt_on_the_whole_bracket():
    # e^lam a overflows only for lam > 19.0, where the search for theta = 0.5
    # never looks; the check holds the chain to the bracket [-50, 50] all the same
    with pytest.raises(DomainError, match="tilted chain is not finite"):
        rate_function(_two_state([[1.0, 1.0], [1e300, 1.0]]), 0.5)


def test_cubic_whose_companion_row_overflows_is_a_numeric_error():
    with pytest.raises(NumericError):
        cubic_positive_root(5e-324, 1.0, 1.0, 1.0)


# ------------------------------------------------------------ solve_realization
#
# D, Q and the model are checked once, on entry; the sweep keeps only the
# checks that can fire mid-loop.  Each of those has a model below on which it
# is the check that fires, so a sweep that drops one fails here.

_A2 = np.array([[0.6, 0.2], [0.0, 0.5]])
_C2 = np.array([[1.0, 0.0], [0.3, 0.9]])
SOLVE_MODELS = {
    "acceptance-2x2": GaussModel(A=_A2, B=np.eye(2), C=_C2, N=0.4 * np.eye(2)),
    "scalar": GaussModel.scalar(0.5, 1.0, 1.0, 0.5),
    # C Sigma C' overflows on the first sweep: a non-finite Lambda
    "lambda-overflows": GaussModel(A=_A2, B=np.eye(2), C=1e200 * _C2, N=0.4 * np.eye(2)),
    # the unstable mode is unobserved, so the Riccati recursion diverges
    "riccati-diverges": GaussModel(A=np.diag([1.2, 0.5]), B=np.eye(2),
                                   C=np.array([[0.0, 1.0]]), N=np.array([[0.3]])),
    # a subnormal spectrum: the water-filled allocation cannot meet D
    "subnormal-spectrum": GaussModel(A=np.diag([0.5, 0.3]), B=np.eye(2),
                                     C=1e-160 * np.eye(2), N=np.empty((2, 0))),
}
SOLVE_D = (math.nan, math.inf, -math.inf, 0.0, -0.0, -0.3, 5e-324, 1e-320, 1.2e-320,
           1e-300, 0.4, 1e300)
SOLVE_Q = (None, math.nan, math.inf, 0.0, -1.0, 5e-324, 1e300)


def _finite_solution(sol):
    return all(_finite(getattr(sol, f.name)) for f in dataclasses.fields(sol)
               if f.name != "model")


@pytest.mark.parametrize("name", list(SOLVE_MODELS))
def test_solve_realization_edge_values(name):
    model = SOLVE_MODELS[name]
    bad = []
    for D, Q in itertools.product(SOLVE_D, SOLVE_Q):
        try:
            sol = solve_realization(model, D, Q)
        except (DomainError, NumericError):
            continue
        except Exception as exc:  # LinAlgError, RuntimeWarning, ...
            bad.append((D, Q, f"{type(exc).__name__}: {exc}"))
            continue
        if not _finite_solution(sol):
            bad.append((D, Q, sol))
    assert not bad, f"{len(bad)} bad calls, e.g. {bad[:3]}"


@pytest.mark.parametrize("name, D, Q, error, match", [
    ("acceptance-2x2", math.inf, None, DomainError, "distortion"),
    ("acceptance-2x2", 0.4, 5e-324, DomainError, "float range"),
    ("lambda-overflows", 0.4, None, DomainError, "non-finite Lambda"),
    ("lambda-overflows", 1e300, None, DomainError, "non-finite Lambda"),
    ("scalar", 1e-320, None, DomainError, "D too small"),
    ("scalar", 5e-324, None, DomainError, "D too small"),
    ("acceptance-2x2", 5e-324, None, DomainError, "D too small"),
    ("subnormal-spectrum", 1.2e-320, None, NumericError, "does not meet D"),
    ("riccati-diverges", 0.4, None, NumericError, "diverged"),
    ("riccati-diverges", 1e300, None, NumericError, "diverged"),
])
def test_solve_realization_in_loop_checks_fire(name, D, Q, error, match):
    with pytest.raises(error, match=match):
        solve_realization(SOLVE_MODELS[name], D, Q)


def test_solve_realization_iteration_cap(monkeypatch):
    # the acceptance model needs 8 sweeps at D = 0.4
    monkeypatch.setattr(gauss, "_MAX_ITER", 3)
    with pytest.raises(NumericError, match="no convergence"):
        solve_realization(SOLVE_MODELS["acceptance-2x2"], 0.4)


# ------------------------------------------------ the matched closed loop
#
# gaussian_error_recursion, simulate_vector and the vector JSCC design
# (match_power, matched_channel_noise) on every solution the grid above
# yields.  The simulation starts from N(0, Sigma_inf): noise that
# excites only a subspace makes Sigma_inf singular, and rounding can leave it
# indefinite, so the grid adds such a model.

LOOP_MODELS = {
    **SOLVE_MODELS,
    "rank-one-noise": GaussModel(A=0.5 * np.eye(2), B=np.array([[60.0], [-80.0]]), C=np.eye(2),
                                 N=np.empty((2, 0))),
}


def _finite_fields(result):
    if not dataclasses.is_dataclass(result):  # PowerMatch, a noise diagonal
        return _finite(result)
    return all(_finite(getattr(result, f.name)) for f in dataclasses.fields(result))


@pytest.mark.parametrize("name", list(LOOP_MODELS))
def test_closed_loop_edge_values(name):
    model = LOOP_MODELS[name]
    bad = []
    for D, Q in itertools.product(SOLVE_D, SOLVE_Q):
        try:
            sol = solve_realization(model, D, Q)
        except (DomainError, NumericError):
            continue
        # two shards, so that every standard error must be finite too
        for fn in (gaussian_error_recursion,
                   lambda m, s: simulate_vector(m, s, MIN_STEPS_WITH_SE, RngStream(1)),
                   lambda m, s: match_power(s), lambda m, s: matched_channel_noise(s)):
            try:
                result = fn(model, sol)
            except (DomainError, NumericError):
                continue
            except Exception as exc:  # LinAlgError, RuntimeWarning, ...
                bad.append((D, Q, f"{type(exc).__name__}: {exc}"))
                continue
            if not _finite_fields(result):
                bad.append((D, Q, result))
    assert not bad, f"{len(bad)} bad calls, e.g. {bad[:3]}"


def test_singular_stationary_law_simulates():
    # the start covariance has no Cholesky factor here; the loop must still
    # start from N(0, Sigma_inf), so the first innovation has covariance
    # Lambda_inf, and hit D
    model = LOOP_MODELS["rank-one-noise"]
    sol = solve_realization(model, 0.4)
    rec = gaussian_error_recursion(model, sol)
    with pytest.raises(np.linalg.LinAlgError):
        np.linalg.cholesky(rec.cov + 1e-15 * np.eye(2))
    trials = 20_000
    K, _ = next(excess._error_steps(rec, 1, trials, RngStream(3)))
    lam = sol.Lambda_inf
    se = np.sqrt((lam**2 + np.outer(np.diag(lam), np.diag(lam))) / trials)
    assert np.all(np.abs(K @ K.T / trials - lam) <= 4.0 * se)
    rep = simulate_vector(model, sol, 40_000, RngStream(2))
    assert abs(rep.distortion - 0.4) <= 4.0 * rep.distortion_se
    assert np.all(np.abs(rep.cov_K - sol.Lambda_inf) <= 4.0 * rep.cov_K_se + 1e-9)
