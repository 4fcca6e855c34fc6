import math
import time

import numpy as np
import pytest

from nardf import gauss, numerics
from nardf.errors import DomainError, NumericError
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
from nardf.numerics import solve_discrete_lyapunov


def _random_model(rng, m, p, radius=0.85):
    A = rng.normal(size=(m, m))
    A *= radius / max(np.abs(np.linalg.eigvals(A)))
    B = rng.normal(size=(m, m)) * 0.8 + np.eye(m)
    C = rng.normal(size=(p, m))
    N = np.diag(rng.uniform(0.2, 0.8, p))
    return GaussModel(A=A, B=B, C=C, N=N)


TEST_MODEL = GaussModel(
    A=np.array([[0.6, 0.2], [0.0, 0.5]]),
    B=np.eye(2),
    C=np.array([[1.0, 0.0], [0.3, 0.9]]),
    N=0.4 * np.eye(2),
)


# ---------------------------------------------------------------- water-fill


def test_waterfill_examples():
    w = reverse_waterfill([4.0, 1.0], 2.0)
    assert w.xi == pytest.approx(1.0, abs=1e-12)
    assert w.delta == pytest.approx([1.0, 1.0], abs=1e-12)
    assert w.rate == pytest.approx(1.0, abs=1e-12)
    w = reverse_waterfill([4.0, 1.0], 0.5)
    assert w.xi == pytest.approx(0.25, abs=1e-12)
    assert w.rate == pytest.approx(3.0, abs=1e-12)
    w = reverse_waterfill([4.0, 1.0], 4.0)
    assert w.xi == pytest.approx(3.0, abs=1e-12)
    assert w.delta == pytest.approx([3.0, 1.0], abs=1e-12)
    assert w.rate == pytest.approx(0.5 * math.log2(4.0 / 3.0), abs=1e-12)


def test_waterfill_saturation_and_domain():
    w = reverse_waterfill([4.0, 1.0], 5.0)  # exactly the total variance
    assert w.rate == 0.0 and not w.saturated
    w = reverse_waterfill([4.0, 1.0], 6.0)
    assert w.rate == 0.0 and w.saturated
    assert w.delta == pytest.approx([4.0, 1.0], abs=1e-15)
    with pytest.raises(DomainError):
        reverse_waterfill([4.0, 1.0], 0.0)
    with pytest.raises(DomainError):
        reverse_waterfill([4.0, -1.0], 1.0)


@pytest.mark.parametrize(
    "solve",
    [
        lambda D: reverse_waterfill([4.0, 1.0], D),
        lambda D: solve_realization(TEST_MODEL, D),
        lambda D: solve_realization(GaussModel.scalar(0.5, 1.0, 1.0, 0.5), D),
    ],
    ids=["waterfill", "vector", "scalar"],
)
def test_nan_distortion_is_domain_error(solve):
    with pytest.raises(DomainError):
        solve(math.nan)


def test_waterfill_kkt_against_grid_oracle():
    rng = np.random.default_rng(21)
    for _ in range(40):
        lam = rng.uniform(0.05, 5.0, rng.integers(1, 7))
        D = rng.uniform(0.01, 0.99) * float(lam.sum())
        w = reverse_waterfill(lam, D)
        assert float(w.delta.sum()) == pytest.approx(D, abs=1e-10)
        # KKT structure: any coordinate below its ceiling sits at the level xi
        inactive = w.delta < lam - 1e-12
        assert np.allclose(w.delta[inactive], w.xi, atol=1e-10)
        # brute-force oracle: grid the water level, then refine once
        lo, hi = 0.0, float(lam.max())
        for _ in range(2):
            grid = np.linspace(lo, hi, 20001)
            sums = np.minimum(grid[:, None], lam[None, :]).sum(axis=1)
            xi0 = float(grid[int(np.argmin(np.abs(sums - D)))])
            step = (hi - lo) / 20000.0
            lo, hi = max(xi0 - step, 0.0), xi0 + step
        d0 = np.minimum(xi0, lam)
        mask = d0 > 0
        rate0 = float(0.5 * np.sum(np.log2(lam[mask] / d0[mask])))
        assert w.rate == pytest.approx(rate0, abs=1e-5)
        # optimality among random feasible allocations at the same budget
        for _ in range(20):
            d = rng.dirichlet(np.ones(lam.size)) * D
            if np.any(d > lam):
                continue
            assert w.rate <= float(0.5 * np.sum(np.log2(lam / d))) + 1e-9


# ------------------------------------------------------------ scalar closed forms


def test_scalar_fully_observed():
    assert rna_scalar_fully_observed(0.5, 1.0, 0.5) == pytest.approx(0.5850, abs=1e-4)
    assert rna_scalar_fully_observed(0.5, 1.0, 0.5) == pytest.approx(
        0.5849625007211562, abs=1e-12
    )
    # alpha = 0 is the IID Gaussian source
    assert rna_scalar_fully_observed(0.0, 2.0, 1.0) == pytest.approx(
        0.5 * math.log2(4.0), abs=1e-12
    )
    # at D equal to the stationary variance the log argument is exactly 1
    assert rna_scalar_fully_observed(0.9, 1.0, 1.0 / (1.0 - 0.81)) == pytest.approx(
        0.0, abs=1e-12
    )
    with pytest.raises(DomainError):
        rna_scalar_fully_observed(0.5, 1.0, 0.0)
    with pytest.raises(DomainError):
        rna_scalar_fully_observed(1.2, 1.0, 0.5)


@pytest.mark.parametrize(
    "args",
    [(math.nan, 1.0, 0.5), (0.5, math.nan, 0.5), (0.5, math.inf, 0.5),
     (0.5, 1.0, math.nan), (0.5, 1.0, math.inf)],
)
def test_scalar_fully_observed_non_finite_is_domain_error(args):
    with pytest.raises(DomainError):
        rna_scalar_fully_observed(*args)


def test_solver_matches_fully_observed_closed_form():
    for alpha in (0.0, 0.3, 0.7, 0.95):
        for sw in (0.5, 1.0, 2.0):
            var = sw * sw / (1.0 - alpha * alpha)
            for u in (0.05, 0.4, 0.9):
                D = u * var
                sol = solve_realization(GaussModel.scalar(alpha, sw), D)
                assert sol.Sigma_inf[0, 0] == pytest.approx(
                    alpha * alpha * D + sw * sw, abs=1e-8
                )
                assert sol.rate == pytest.approx(
                    rna_scalar_fully_observed(alpha, sw, D), abs=1e-8
                )


def test_fully_observed_anchor_sigma():
    sol = solve_realization(GaussModel.scalar(0.5, 1.0), 0.5)
    assert sol.Sigma_inf[0, 0] == pytest.approx(1.125, abs=1e-9)
    assert sol.rate == pytest.approx(0.5849625007211562, abs=1e-9)
    assert not sol.saturated
    assert sol.filter_stable


def test_partially_observed_cubic_anchors():
    # frozen fixed-point oracle value
    assert partially_observed_sigma(0.5, 1.0, 1.0, 1.0, 0.5) == pytest.approx(
        1.1712312995613716, abs=1e-10
    )
    assert rna_scalar_partially_observed(0.5, 1.0, 1.0, 1.0, 0.5) == pytest.approx(
        1.059256711653498, abs=1e-10
    )
    # alpha = 0: the cubic factors as (S - sW^2)(S + sV^2/c^2)^2
    assert partially_observed_sigma(0.0, 1.0, 1.0, 1.0, 1.0) == pytest.approx(
        1.0, abs=1e-12
    )
    assert rna_scalar_partially_observed(0.0, 1.0, 1.0, 1.0, 1.0) == pytest.approx(
        0.5, abs=1e-12
    )
    # sigma_V = 0 collapses to the fully observed closed form
    for alpha, sw, D in ((0.5, 1.0, 0.4), (0.8, 0.7, 0.2)):
        assert partially_observed_sigma(alpha, 1.0, sw, 0.0, D) == pytest.approx(
            alpha * alpha * D + sw * sw, abs=1e-10
        )
        assert rna_scalar_partially_observed(alpha, 1.0, sw, 0.0, D) == pytest.approx(
            rna_scalar_fully_observed(alpha, sw, D), abs=1e-10
        )
    with pytest.raises(DomainError):
        rna_scalar_partially_observed(1.0, 1.0, 1.0, 1.0, 0.5)


def test_partially_observed_agrees_with_fixed_point():
    # the closed form, which solve_realization takes on a 1x1 model too,
    # against the array-form Picard loop (_array_solve), an independent route
    rng = np.random.default_rng(7)
    for _ in range(50):
        a = rng.uniform(-0.95, 0.95)
        c = rng.uniform(0.3, 2.0)
        sw = rng.uniform(0.3, 2.0)
        sv = rng.uniform(0.05, 1.5)
        var_x = c * c * sw * sw / (1.0 - a * a) + sv * sv
        D = rng.uniform(0.02, 0.95) * var_x
        model = GaussModel.scalar(a, sw, c, sv)
        Sigma, _, _, _, rate, *_ = _array_solve(model, D)
        assert partially_observed_sigma(a, c, sw, sv, D) == pytest.approx(Sigma[0, 0], abs=1e-8)
        direct = rna_scalar_partially_observed(a, c, sw, sv, D)
        assert direct == pytest.approx(rate, abs=1e-8)
        assert solve_realization(model, D).rate == pytest.approx(direct, abs=1e-12)


@pytest.mark.parametrize("alpha, c, sw, sv", [(0.5, 1.0, 1.0, 0.5), (0.9, 1.0, 1.0, 0.5),
                                              (-0.7, 2.0, 0.3, 1.2), (0.95, 0.4, 3.0, 0.0)])
def test_partially_observed_sigma_is_stationary_at_and_above_saturation(alpha, c, sw, sv):
    # from D = c^2 sW^2/(1 - a^2) + sV^2 on, the water-filling saturates
    # (H = 0) and Sigma_inf is the stationary variance; the cubic's largest
    # root there is spurious (1.993 for 4/3 at the first model, 3x saturation)
    stationary = sw * sw / (1.0 - alpha * alpha)
    level = c * c * stationary + sv * sv
    for D in (level, 1.5 * level, 3.0 * level):
        S = partially_observed_sigma(alpha, c, sw, sv, D)
        assert S == pytest.approx(stationary, rel=1e-15, abs=0.0)
        assert rna_scalar_partially_observed(alpha, c, sw, sv, D) == 0.0
        ref = _array_solve(GaussModel.scalar(alpha, sw, c, sv), D)[0][0, 0]
        assert abs(S - ref) <= 1e-9 * ref


def test_sigma_v_continuity():
    for alpha, sw, D in ((0.5, 1.0, 0.4), (0.9, 1.0, 1.0), (0.2, 0.5, 0.1)):
        po = rna_scalar_partially_observed(alpha, 1.0, sw, 1e-6, D)
        fo = rna_scalar_fully_observed(alpha, sw, D)
        assert abs(po - fo) <= 1e-3


# ----------------------------------------------------------------- vector solver


def test_vector_anchor():
    sol = solve_realization(TEST_MODEL, 1.2)
    assert sol.rate == pytest.approx(1.0556672772317302, abs=1e-9)
    assert sol.spectrum == pytest.approx([1.70433334, 0.91268937], abs=1e-7)
    assert sol.delta == pytest.approx([0.6, 0.6], abs=1e-9)
    assert sol.eta == pytest.approx([0.64795619, 0.34260218], abs=1e-7)
    assert sol.xi == pytest.approx(0.6, abs=1e-9)
    assert sol.residual < 1e-9
    assert sol.filter_stable and not sol.saturated


def test_rate_invariant_to_channel_noise_diagonal():
    rng = np.random.default_rng(3)
    for m, p in ((2, 2), (3, 2), (3, 3)):
        model = _random_model(rng, m, p)
        D = 0.3 * float(np.trace(model.C @ model.C.T))
        base = solve_realization(model, D)
        for _ in range(3):
            q = rng.uniform(0.1, 10.0, p)
            alt = solve_realization(model, D, Q=q)
            assert abs(alt.rate - base.rate) <= 1e-9
            assert np.max(np.abs(alt.Sigma_inf - base.Sigma_inf)) <= 1e-9
            # the noise scale shows up only in the decoder coefficients
            assert alt.b_inf == pytest.approx(base.b_inf * np.sqrt(1.0 / q), rel=1e-8)


def test_channel_noise_validation():
    with pytest.raises(DomainError):
        solve_realization(TEST_MODEL, 1.0, Q=[1.0, -1.0])
    with pytest.raises(DomainError):
        solve_realization(TEST_MODEL, 1.0, Q=np.array([[1.0, 0.5], [0.5, 1.0]]))


@pytest.mark.parametrize("Q", [np.eye(3), [1.0, 2.0, 3.0], np.ones((2, 3)), np.ones((2, 2, 2)),
                               [1.0], np.ones((1, 1)), [[1.0, 2.0], [3.0]], "one"],
                         ids=["eye3", "length-3", "2x3", "3-d", "length-1", "1x1", "ragged",
                              "string"])
def test_channel_noise_of_the_wrong_shape_is_domain_error(Q):
    # a scalar, a (p,) vector or a diagonal (p, p) matrix; anything else,
    # broadcastable or not, is a DomainError rather than numpy's ValueError
    with pytest.raises(DomainError, match="scalar, a length-2 vector or a diagonal 2 x 2"):
        solve_realization(TEST_MODEL, 1.0, Q=Q)


@pytest.mark.parametrize("Q", [2.0, np.float64(2.0), np.array(2.0), [2.0, 2.0],
                               np.diag([2.0, 2.0])],
                         ids=["float", "numpy-scalar", "0-d", "vector", "diagonal"])
def test_channel_noise_shapes_give_one_solution(Q):
    sol = solve_realization(TEST_MODEL, 1.0, Q=Q)
    assert sol.q.tolist() == [2.0, 2.0]
    ref = solve_realization(TEST_MODEL, 1.0, Q=[2.0, 2.0])
    assert sol.b_inf.tobytes() == ref.b_inf.tobytes()


def test_rate_curve_monotone_and_midpoint_convex():
    rng = np.random.default_rng(17)
    models = [TEST_MODEL, _random_model(rng, 3, 2)]
    for model in models:
        total = float(
            np.trace(model.C @ model.C.T) + np.trace(model.N @ model.N.T)
        )
        grid = np.linspace(0.05, 1.2, 9) * total
        rates = [solve_realization(model, d).rate for d in grid]
        for r0, r1 in zip(rates, rates[1:]):
            assert r1 <= r0 + 1e-9
        for i in range(len(grid) - 2):
            mid = solve_realization(model, 0.5 * (grid[i] + grid[i + 2])).rate
            assert mid <= 0.5 * (rates[i] + rates[i + 2]) + 1e-9


def test_lambda_identity_and_psd():
    rng = np.random.default_rng(29)
    for m, p in ((1, 1), (2, 2), (3, 2)):
        model = _random_model(rng, m, p)
        D = 0.4 * float(np.trace(model.C @ model.C.T))
        sol = solve_realization(model, D)
        C, N = model.C, model.N
        target = C @ sol.Sigma_inf @ C.T + N @ N.T
        assert float(np.max(np.abs(sol.Lambda_inf - target))) <= 1e-9
        assert float(np.min(np.linalg.eigvalsh(sol.Lambda_inf))) >= -1e-12
        # spectrum/E_inf really diagonalize Lambda_inf
        recon = sol.E_inf.T @ np.diag(sol.spectrum) @ sol.E_inf
        assert np.allclose(recon, sol.Lambda_inf, atol=1e-9)


def test_saturated_solve():
    total = float(
        np.trace(TEST_MODEL.C @ TEST_MODEL.C.T) + np.trace(TEST_MODEL.N @ TEST_MODEL.N.T)
    )
    sol = solve_realization(TEST_MODEL, 4.0 * total)
    assert sol.rate == 0.0
    assert sol.saturated


def test_divergence_guard():
    # unstable and unobservable: the error covariance blows up
    bad = GaussModel(
        A=np.array([[1.2]]), B=np.array([[1.0]]), C=np.array([[0.0]]), N=np.empty((1, 0))
    )
    with pytest.raises(NumericError):
        solve_realization(bad, 0.5)


# ------------------------------------------------ damped reference fixed point


def _reference_solve(model, D, tol=1e-11, max_iter=100_000):
    """The loop solve_realization ran before its undamped sweep: a standard
    Kalman-Riccati warm start (observation weight H = I, up to 500 sweeps),
    then Picard relaxed halfway toward each update.  Returns (Sigma, damped
    sweeps); NumericError where the covariance leaves [-1e12, 1e12]."""
    A, B, C, N = model.A, model.B, model.C, model.N
    p = C.shape[0]
    BBt = B @ B.T
    NNt = N @ N.T if N.shape[1] else np.zeros((p, p))

    def riccati(Sigma, weights):
        Lam = C @ Sigma @ C.T + NNt
        lam, V = np.linalg.eigh(0.5 * (Lam + Lam.T))
        S = C.T @ V @ (weights(np.maximum(lam, 0.0))[:, None] * V.T) @ C
        new = A @ Sigma @ A.T - A @ Sigma @ S @ Sigma @ A.T + BBt
        return 0.5 * (new + new.T)

    def checked(Sigma):
        if not np.all(np.isfinite(Sigma)) or float(np.max(np.abs(Sigma))) > 1e12:
            raise NumericError("reference: iteration diverged")
        return Sigma

    def inverse(lam):
        keep = lam > 1e-12 * max(float(lam.max()), 1.0)
        return np.where(keep, 1.0 / np.where(keep, lam, 1.0), 0.0)

    def water_filled(lam):
        if not float(lam.sum()) > 0.0:
            return np.zeros_like(lam)
        delta = reverse_waterfill(lam, D).delta
        pos = lam > 0.0
        eta = np.clip(np.where(pos, 1.0 - delta / np.where(pos, lam, 1.0), 0.0), 0.0, 1.0)
        return np.where(pos, eta / np.where(pos, lam, 1.0), 0.0)

    Sigma = BBt + np.eye(A.shape[0])
    for _ in range(500):
        new = checked(riccati(Sigma, inverse))
        done = float(np.max(np.abs(new - Sigma))) < 1e-12
        Sigma = new
        if done:
            break
    for sweeps in range(1, max_iter + 1):
        new = checked(0.5 * (Sigma + riccati(Sigma, water_filled)))
        change = float(np.max(np.abs(new - Sigma)))
        Sigma = new
        if change < tol:
            return Sigma, sweeps
    raise NumericError("reference: no convergence")


# ------------------------------------------- array-form sweep, bit for bit
#
# The sweep as it ran before it called the unchecked cores: every step a
# checked sym_eig (sort, then a per-row sign loop), a checked
# reverse_waterfill with its rate, and eta/ratio as array expressions.
# solve_realization must reproduce it bit for bit.


def _array_sym_eig(M, sym_tol=1e-12):
    M = np.asarray(M, dtype=float)
    if M.ndim != 2 or M.shape[0] != M.shape[1] or M.size == 0:
        raise DomainError("sym_eig: nonempty square matrix required")
    n = M.shape[0]
    if n == 1:
        if not np.isfinite(M[0, 0]):
            raise DomainError("sym_eig: non-finite entry")
        return np.array([M[0, 0]]), np.array([[1.0]])
    scale = max(1.0, float(np.max(np.abs(M))))
    if not np.all(np.isfinite(M)):
        raise DomainError("sym_eig: non-finite entries")
    if float(np.max(np.abs(M - M.T))) > sym_tol * scale:
        raise DomainError("sym_eig: matrix is not symmetric")
    w, V = np.linalg.eigh(0.5 * (M + M.T))
    order = np.argsort(-w, kind="stable")
    w = w[order]
    E = V[:, order].T.copy()
    for row in E:
        mags = np.abs(row)
        nz = np.nonzero(mags > 1e-12 * mags.max())[0]
        if nz.size and row[nz[0]] < 0.0:
            row *= -1.0
    return w, E


def _array_water_level(values, total):
    v = np.sort(np.asarray(values, dtype=float).reshape(-1))
    below = np.concatenate(([0.0], np.cumsum(v[:-1])))
    above = v.size - np.arange(v.size)
    j = min(int(np.searchsorted(below + above * v, total)), v.size - 1)
    return (total - float(below[j])) / int(above[j])


def _array_rate(lam, delta):
    mask = delta > 0.0
    return float(0.5 * np.sum(np.log2(lam[mask] / delta[mask])))


def _array_waterfill(spectrum, D):
    lam = np.asarray(spectrum, dtype=float).reshape(-1)
    scale = float(np.max(np.abs(lam), initial=0.0))
    if lam.size == 0 or not math.isfinite(scale):
        raise DomainError("reverse_waterfill: spectrum must be nonempty and finite")
    if np.any(lam < -1e-12 * max(1.0, scale)):
        raise DomainError("reverse_waterfill: spectrum must be nonnegative")
    lam = np.maximum(lam, 0.0)
    if not D > 0.0:
        raise DomainError("reverse_waterfill: distortion must be positive")
    total = float(lam.sum())
    if D >= total:
        return float(lam.max()), lam.copy(), 0.0, D > total
    level = _array_water_level(lam, D)
    active = lam > level
    n_active = int(active.sum())
    xi = (D - float(lam[~active].sum())) / n_active if n_active else level
    if xi > 0.0 and scale / xi == math.inf:
        raise DomainError("reverse_waterfill: D too small for a finite rate")
    delta = np.minimum(xi, lam)
    if abs(float(delta.sum()) - D) > 1e-12 * total:
        raise NumericError("reverse_waterfill: allocation does not meet D")
    return float(xi), delta, _array_rate(lam, delta), False


def _array_step(A, BBt, C, NNt, Sigma, D):
    Lam = C @ Sigma @ C.T + NNt
    Lam = 0.5 * (Lam + Lam.T)
    lam, E = _array_sym_eig(Lam)
    lam = np.maximum(lam, 0.0)
    alloc = _array_waterfill(lam, D) if float(lam.sum()) > 0.0 else None
    delta = np.zeros_like(lam) if alloc is None else alloc[1]
    eta = np.where(lam > 0.0, 1.0 - delta / np.where(lam > 0.0, lam, 1.0), 0.0)
    eta = np.clip(eta, 0.0, 1.0)
    ratio = np.where(lam > 0.0, eta / np.where(lam > 0.0, lam, 1.0), 0.0)
    S = C.T @ E.T @ (ratio[:, None] * E) @ C
    new = A @ Sigma @ A.T - A @ Sigma @ S @ Sigma @ A.T + BBt
    return 0.5 * (new + new.T), (lam, alloc, delta, eta, E)


def _array_solve(model, D, tol=1e-11, max_iter=100_000):
    """(Sigma, delta, eta, xi, rate, iterations, residual, E, gain, b_inf,
    closed-loop radius) of the array-form sweep, with its divergence check
    (max|Sigma| above 1e12 times its start) and its final extra sweep; E is
    the sym_eig eigensystem of the final sweep, and gain, b_inf and the
    radius follow from it at Q = I.  The loop stops once the change is at
    most tol max|Sigma|, solve_realization's relative rule."""
    m, p = model.A.shape[0], model.C.shape[0]
    A, B, C, N = model.A, model.B, model.C, model.N
    BBt = B @ B.T
    NNt = N @ N.T if N.shape[1] else np.zeros((p, p))
    Sigma = BBt + np.eye(m)
    cap = 1e12 * float(np.max(np.abs(Sigma)))
    with np.errstate(over="ignore", invalid="ignore"):
        for iterations in range(1, max_iter + 1):
            new, _ = _array_step(A, BBt, C, NNt, Sigma, D)
            scale = float(np.max(np.abs(new)))
            if not np.all(np.isfinite(new)) or scale > cap:
                raise NumericError("array-form sweep diverged")
            change = float(np.max(np.abs(new - Sigma)))
            Sigma = new
            if change <= tol * scale:
                break
        else:
            raise NumericError("array-form sweep: no convergence")
    full, (lam, alloc, delta, eta, E) = _array_step(A, BBt, C, NNt, Sigma, D)
    residual = float(np.max(np.abs(full - Sigma)))
    rate = 0.0 if alloc is None else _array_rate(lam, delta)
    xi = float(lam.max(initial=0.0)) if alloc is None else alloc[0]
    b_inf = np.sqrt(eta * delta / np.ones(p))
    inv_active = np.where(eta > 0.0, 1.0 / np.where(lam > 0.0, lam, 1.0), 0.0)
    gain = A @ Sigma @ C.T @ E.T @ (inv_active[:, None] * E)
    closed_loop = A - gain @ (E.T @ (eta[:, None] * E)) @ C
    radius = float(np.max(np.abs(np.linalg.eigvals(closed_loop))))
    return Sigma, delta, eta, xi, rate, iterations, residual, E, gain, b_inf, radius


def _oracle_model(rng, m, p):
    # radius, input rank k and observation-noise rank d drawn too; d = 0 with
    # p > m leaves Lambda singular, so zero eigenvalues are covered
    A = rng.normal(size=(m, m))
    A *= rng.uniform(0.05, 0.8) / max(np.abs(np.linalg.eigvals(A)))
    B = rng.normal(size=(m, int(rng.integers(1, m + 1))))
    C = rng.normal(size=(p, m)) * rng.uniform(0.3, 2.0)
    N = rng.normal(size=(p, int(rng.integers(0, p + 1)))) * rng.uniform(0.1, 1.0)
    return GaussModel(A=A, B=B, C=C, N=N)


def _oracle_cases():
    rng = np.random.default_rng(2024)
    cases = []
    for m in range(1, 5):
        for p in range(1, 5):
            for _ in range(7):
                model = _oracle_model(rng, m, p)
                total = _stationary_observation_trace(model)
                fractions = (rng.uniform(0.01, 0.3), rng.uniform(0.3, 0.9),
                             rng.uniform(0.9, 1.1), 1.5)
                cases.append((model, [f * total for f in fractions] + [None]))
    # Lambda = 0 (no observation at all): every sweep skips the water-filling
    cases.append((GaussModel(A=np.diag([0.5, -0.3]), B=np.eye(2), C=np.zeros((2, 2)),
                             N=np.empty((2, 0))), [0.7]))
    # exact eigenvalue ties: C = B = I and N = 0 or sI make the first sweep's
    # Lambda = (2 + s^2) I, so eigh's order and signs on a tied spectrum are
    # pinned; A = 0.5 I keeps the tie in every sweep, a drawn A breaks it
    tie_rng = np.random.default_rng(2025)
    for m in (2, 4):
        for N in (np.empty((m, 0)), 0.7 * np.eye(m)):
            for A in (0.5 * np.eye(m), _oracle_model(tie_rng, m, m).A):
                model = GaussModel(A=A, B=np.eye(m), C=np.eye(m), N=N)
                total = _stationary_observation_trace(model)
                cases.append((model, [f * total for f in (0.05, 0.4, 0.95, 1.5)] + [None]))
    return cases


_ORACLE_FIELDS = ("Sigma_inf", "delta", "eta", "xi", "rate", "iterations", "residual", "E_inf",
                  "gain", "b_inf", "closed_loop_radius")


def _is_scalar(model):
    return model.dims[0] == model.dims[2] == 1


def _oracle_pairs(scalar):
    # (model, D, array-form solution) over the _oracle_cases models with
    # m = p = 1 (scalar) or the others; a None D becomes the spectrum total
    # of the previous pair's array-form Sigma, saturated at 1.5 x the trace
    for model, ds in _oracle_cases():
        if _is_scalar(model) != scalar:
            continue
        for D in ds:
            if D is None:
                C, N = model.C, model.N
                Lam = C @ ref[0] @ C.T + N @ N.T
                D = float(np.maximum(_array_sym_eig(0.5 * (Lam + Lam.T))[0], 0.0).sum())
            ref = _array_solve(model, D)
            yield model, D, ref


def test_sweep_is_bit_identical_to_array_form():
    # the 566 seeded (model, D) pairs of _oracle_pairs with m, p in 1..4 but
    # not m = p = 1 (the closed form, tested below): four D per model, the
    # last saturated, then D exactly at the saturated spectrum total, the
    # D >= total branch at equality; 40 of them on exactly tied spectra.
    # The sweep leaves eigenvector signs to eigh, so E_inf and what is built
    # from it are compared too
    pairs = at_total = 0
    for model, D, ref in _oracle_pairs(scalar=False):
        sol = solve_realization(model, D)
        for name, b in zip(_ORACLE_FIELDS, ref):
            assert np.asarray(getattr(sol, name)).tobytes() == np.asarray(b).tobytes(), (name, D)
        pairs += 1
        at_total += D == float(sol.spectrum.sum())
    assert pairs == 566
    assert at_total > 0  # 12 pairs end exactly at the total, the rest within ulps


def _zero_product_cases():
    # signed-zero A, zero or empty noise and saturated D (eta = 0) make zero
    # 1x1 products, m = 1 with p = 1 and p = 2
    for a in (0.0, -0.0, 0.6):
        for c in ([[1.2]], [[0.8], [-0.5]]):
            p = len(c)
            for N in (np.empty((p, 0)), 0.5 * np.eye(p)):
                model = GaussModel(A=[[a]], B=[[1.0]], C=c, N=N)
                total = _stationary_observation_trace(model)
                for D in (0.3 * total, 0.9 * total, 1.5 * total):
                    yield model, D


def test_sweep_products_keep_the_bits_of_zero_products():
    # the sweep multiplies with ndarray.dot, which keeps -0.0 for a zero 1x1
    # product where @ gives +0.0; the p = 1 cases take the closed form and
    # are tested below
    for model, D in _zero_product_cases():
        if _is_scalar(model):
            continue
        sol = solve_realization(model, D)
        for name, b in zip(_ORACLE_FIELDS, _array_solve(model, D)):
            assert np.asarray(getattr(sol, name)).tobytes() == np.asarray(b).tobytes(), (name, D)


def _scalar_oracle_cases(models):
    # m = p = 1 models with alpha in {0, -0, +-1, drawn, |alpha| > 1}, C = +-0
    # in one model of seven, N empty or 1 x d and B 1 x k (d, k up to 3),
    # and B, N scaled by 1, 10 or 1e3 (covariances up to ~1e6, where the
    # relative stop differs most from an absolute 1e-11).  C = 0 at
    # |alpha| = 1 is left out: Sigma then grows by BB' per sweep until the
    # 10^5-sweep cap, ~6 s in the array form, and at |alpha| = 1 |c| >= 1
    # keeps the sweeps to hundreds.
    # Five D per model: three below, at and near saturation of a reference
    # variance, 1.5 x it (saturated when stable), and a tiny D, down to the
    # smallest subnormal, where lambda/delta overflows
    rng = np.random.default_rng(2026)
    for i in range(models):
        alpha = (0.0, -0.0, 1.0, -1.0, None, None, None, "unstable")[i % 8]
        if alpha is None:
            alpha = rng.uniform(-0.95, 0.95)
        elif alpha == "unstable":
            alpha = rng.choice([-1.0, 1.0]) * rng.uniform(1.01, 1.5)
        if i % 7 == 0 and abs(alpha) != 1.0:
            c = (0.0, -0.0)[i % 2]
        else:
            c = rng.choice([-1.0, 1.0]) * rng.uniform(1.0 if abs(alpha) == 1.0 else 0.3, 2.0)
        s = (1.0, 10.0, 1e3)[i % 3]
        B = rng.normal(size=(1, int(rng.integers(1, 4)))) * s
        N = rng.normal(size=(1, int(rng.integers(0, 4)))) * s
        model = GaussModel(A=[[alpha]], B=B, C=[[c]], N=N)
        bb, nn = float((B @ B.T)[0, 0]), float((N @ N.T)[0, 0])
        var = bb / (1.0 - alpha * alpha) if abs(alpha) < 1.0 else 4.0 * bb
        ref = c * c * var + nn or bb
        tiny = (1e-12 * ref, 1e-300 * ref, 5e-324)[i % 3]
        for D in (rng.uniform(0.01, 0.3) * ref, rng.uniform(0.3, 0.9) * ref,
                  rng.uniform(0.9, 1.1) * ref, 1.5 * ref, tiny):
            yield model, D


def _outcome(solve):
    try:
        return solve()
    except (DomainError, NumericError) as exc:
        return type(exc)


def test_scalar_closed_form_matches_array_form():
    # solve_realization takes m = p = 1 in closed form; on the 600 pairs of
    # _scalar_oracle_cases, the 35 scalar pairs of _oracle_pairs and the 18
    # scalar zero-product pairs, where either route raises both raise the
    # same class.  Otherwise Sigma_inf agrees with the array form's Picard
    # loop to 1e-9 max|Sigma| (the loop's own stop error near a unit root)
    # and the rate to 1e-9 bit, the closed form passes its own sweep check,
    # and a saturated pair is the stationary variance bb/(1 - a^2).  The
    # array form's post-loop runs outside its errstate, so its warnings are
    # silenced here; the solver's are not
    cases = [(model, D) for model, D, _ in _oracle_pairs(scalar=True)]
    cases += [(model, D) for model, D in _zero_product_cases() if _is_scalar(model)]
    cases += list(_scalar_oracle_cases(120))
    raised = saturated = 0
    for model, D in cases:
        with np.errstate(all="ignore"):
            ref = _outcome(lambda: _array_solve(model, D))
        got = _outcome(lambda: solve_realization(model, D))
        case = (model.A[0, 0], model.C[0, 0], model.B.shape, model.N.shape, D)
        if isinstance(ref, type) or isinstance(got, type):
            assert got is ref, case
            raised += 1
            continue
        S, S_ref = float(got.Sigma_inf[0, 0]), float(ref[0][0, 0])
        assert abs(S - S_ref) <= 1e-9 * max(abs(S), abs(S_ref)), case
        assert abs(got.rate - ref[4]) <= 1e-9, case
        assert got.iterations == 1 and got.residual <= 1e-11 * abs(S), case
        if got.saturated:
            a, bb = float(model.A[0, 0]), float((model.B @ model.B.T)[0, 0])
            assert S == pytest.approx(bb / (1.0 - a * a), rel=1e-14, abs=0.0), case
            saturated += 1
    assert len(cases) == 653 and raised > 0 and saturated > 0


def test_scalar_closed_form_raises_nothing_on_valid_models():
    # 3,000 stable models (seed 0): |alpha| < 0.99999, c in [0.1, 3],
    # sigma_W and sigma_V log-uniform on [1e-3, 1e3], D log-uniform from
    # 1e-6 to 1 times saturation.  A cubic residual test scaled by max|c_i|
    # rejected 349 of these roots.  Each Sigma_inf must satisfy the scalar
    # fixed point S = a^2 S - a^2 c^2 S^2 H/lam + sW^2, lam = c^2 S + sV^2,
    # H = 1 - min(D, lam)/lam, to 1e-10 relative.  solve_realization, the
    # same closed form plus one sweep, runs on every fifth model (Tier-1 time)
    rng = np.random.default_rng(0)
    n = 3000
    alpha = rng.uniform(-0.99999, 0.99999, n)
    c = rng.uniform(0.1, 3.0, n)
    sw, sv = 10.0 ** rng.uniform(-3.0, 3.0, (2, n))
    level = c * c * sw * sw / (1.0 - alpha * alpha) + sv * sv
    D = level * 10.0 ** rng.uniform(-6.0, 0.0, n)
    for i, (a, cc, w, v, d) in enumerate(zip(*(x.tolist() for x in (alpha, c, sw, sv, D)))):
        S = partially_observed_sigma(a, cc, w, v, d)
        lam = cc * cc * S + v * v
        H = 1.0 - min(d, lam) / lam
        assert abs(a * a * S - a * a * cc * cc * S * S * H / lam + w * w - S) <= 1e-10 * S
        rate = 0.0 if d >= lam else 0.5 * math.log2(lam / d)
        assert rna_scalar_partially_observed(a, cc, w, v, d) == pytest.approx(rate, abs=1e-12)
        if i % 5 == 0:
            assert solve_realization(GaussModel.scalar(a, w, cc, v), d).Sigma_inf[0, 0] == S


@pytest.mark.parametrize("alpha, match", [(1.0, "grows linearly"), (-1.0, "grows linearly"),
                                          (1.2, "iteration diverged"),
                                          (-1.5, "iteration diverged")])
@pytest.mark.parametrize("B", [[[0.0]], [[1.0]]], ids=["noiseless", "noisy"])
def test_unobserved_scalar_mode_without_decay_is_numeric_error(alpha, match, B):
    # c = 0 and |alpha| >= 1: no Sigma_inf exists, even without process
    # noise, where at |alpha| = 1 every Sigma is a fixed point
    model = GaussModel(A=[[alpha]], B=B, C=[[0.0]], N=[[0.3]])
    with pytest.raises(NumericError, match=match):
        solve_realization(model, 0.05)


def test_eigh_gufunc_equals_numpy_eigh_on_the_oracle_lambdas():
    # _eigh_desc calls LAPACK without numpy's wrapper and reverses a strictly
    # ascending spectrum by slicing: on the Lambda_inf of the 601 oracle
    # pairs (the 40 on tied spectra included) it must give eigh's bits in
    # the stable descending order
    lambdas, ties, sol = [], 0, None
    for model, ds in _oracle_cases():
        for D in ds:
            if D is None:  # as the oracle sets it: the previous pair's spectrum total
                Lam = model.C @ sol.Sigma_inf @ model.C.T + model.N @ model.N.T
                D = float(np.maximum(_array_sym_eig(0.5 * (Lam + Lam.T))[0], 0.0).sum())
            sol = solve_realization(model, D)
            lambdas.append(sol.Lambda_inf)
    for Lam in lambdas:
        with np.errstate(invalid="ignore"):
            w, E = numerics._eigh_desc(Lam)
        w_ref, V = np.linalg.eigh(Lam)
        order = np.argsort(-w_ref, kind="stable")
        assert w.tobytes() == w_ref[order].tobytes()
        assert E.tobytes() == V[:, order].T.tobytes()
        ties += len(set(w.tolist())) < len(w)
    assert len(lambdas) == 601 and ties >= 20


@pytest.mark.parametrize("binding", ["_eigh_lo", "_eigvals"])
@pytest.mark.parametrize("model", [TEST_MODEL, GaussModel.scalar(0.5, 1.0, 1.0, 0.5)],
                         ids=["2x2", "scalar"])
def test_failed_eigensolve_in_the_solver_is_numeric_error(monkeypatch, binding, model):
    # NaNs from either LAPACK gufunc, with the invalid flag raised as a
    # failed solve raises it: NumericError, never a RuntimeWarning (an error
    # here), a LinAlgError or a NaN in the solution.  The scalar model takes
    # no eigh; its cubic and its closed-loop radius take eigvals
    def failed(M):
        return np.full(M.shape[:-1], np.inf) - np.inf, np.full(M.shape, np.inf) - np.inf

    fake = failed if binding == "_eigh_lo" else (lambda M: failed(M)[0] + 0j)
    monkeypatch.setattr(numerics, binding, fake)
    if binding == "_eigh_lo" and model.dims[0] == 1:
        assert solve_realization(model, 0.4).iterations > 0
        return
    with pytest.raises(NumericError):
        solve_realization(model, 0.4)


def _stationary_observation_trace(model):
    # trace(C P C' + NN'), P the stationary state covariance: D at which Lambda saturates
    P = solve_discrete_lyapunov(model.A, model.B @ model.B.T)
    return float(np.trace(model.C @ P @ model.C.T + model.N @ model.N.T))


def _rotation(radius, angle):
    c, s = math.cos(angle), math.sin(angle)
    return radius * np.array([[c, -s], [s, c]])


_REF_RNG = np.random.default_rng(41)
_A2 = TEST_MODEL.A
# (model, D scale): stable models saturate at 1.5 x the stationary trace of
# Lambda; unstable ones never saturate, so their largest D is merely large.
_REFERENCE_CASES = {
    "acceptance-2x2": (TEST_MODEL, None),
    "random-m3": (_random_model(_REF_RNG, 3, 2), None),
    "random-m4": (_random_model(_REF_RNG, 4, 3), None),
    "scalar-po": (GaussModel.scalar(0.5, 1.0, 1.0, 0.5), None),
    "scalar-po-negative": (GaussModel.scalar(-0.8, 1.5, 0.7, 1.2), None),
    "near-unstable-0.99": (GaussModel.scalar(0.99, 1.0, 1.0, 0.5), None),
    "unit-root": (GaussModel.scalar(1.0, 1.0, 1.0, 0.5), 5.0),
    "unstable-1.5": (GaussModel.scalar(1.5, 1.0, 1.0, 0.5), 5.0),
    "unstable-minus-1.5": (GaussModel.scalar(-1.5, 1.0, 1.0, 0.5), 5.0),
    "noiseless-scalar": (GaussModel.scalar(0.8, 1.0), None),
    "noiseless-2x2": (GaussModel(A=_A2, B=np.eye(2), C=np.eye(2), N=np.empty((2, 0))), None),
    "rank-deficient-B": (
        GaussModel(A=_A2, B=np.array([[1.0], [0.5]]), C=TEST_MODEL.C, N=TEST_MODEL.N), None),
    "rank-deficient-C": (
        GaussModel(A=_A2, B=np.eye(2), C=np.ones((2, 2)), N=TEST_MODEL.N), None),
    "near-unstable-rotation": (
        GaussModel(A=_rotation(0.99, 0.3), B=np.eye(2), C=np.array([[1.0, 0.0]]),
                   N=np.array([[0.5]])), None),
}


@pytest.mark.parametrize("fraction", [0.05, 0.4, 1.5], ids=["small", "mid", "saturated"])
@pytest.mark.parametrize("case", sorted(_REFERENCE_CASES))
def test_undamped_sweep_matches_damped_reference(case, fraction):
    model, scale = _REFERENCE_CASES[case]
    D = fraction * (scale or _stationary_observation_trace(model))
    ref, _ = _reference_solve(model, D)
    sol = solve_realization(model, D)
    tol = 1e-9 * float(np.max(np.abs(ref)))
    assert np.max(np.abs(sol.Sigma_inf - ref)) <= tol
    C, N = model.C, model.N
    lam = np.maximum(np.linalg.eigvalsh(C @ ref @ C.T + N @ N.T)[::-1], 0.0)
    alloc = reverse_waterfill(lam, D)
    assert sol.rate == pytest.approx(alloc.rate, abs=tol)
    assert sol.delta == pytest.approx(alloc.delta, abs=tol)
    assert sol.saturated == (scale is None and fraction > 1.0)


@pytest.mark.parametrize("fraction", [0.05, 0.4], ids=["small", "mid"])
def test_near_unit_root_matches_damped_reference(fraction):
    # a = 0.999 below saturation only: saturated, both loops contract by just
    # a^2 per sweep (10^4+ sweeps), so that D is left to the a = 0.99 case
    model = GaussModel.scalar(0.999, 1.0, 1.0, 0.5)
    D = fraction * _stationary_observation_trace(model)
    ref, _ = _reference_solve(model, D)
    sol = solve_realization(model, D)
    assert np.max(np.abs(sol.Sigma_inf - ref)) <= 1e-9 * float(np.max(np.abs(ref)))
    assert not sol.saturated


def test_undetectable_unstable_model_raises_like_reference():
    bad = GaussModel(A=np.diag([1.2, 0.5]), B=np.eye(2), C=np.array([[0.0, 1.0]]),
                     N=np.array([[0.3]]))
    for D in (0.05, 0.5, 5.0):
        with pytest.raises(NumericError):
            _reference_solve(bad, D)
        with pytest.raises(NumericError):
            solve_realization(bad, D)


@pytest.mark.parametrize("model", [
    GaussModel(A=np.diag([1.0, 0.5]), B=np.eye(2), C=np.array([[0.0, 1.0]]),
               N=np.array([[0.3]])),
    GaussModel(A=[[1.0]], B=[[1.0]], C=[[0.0]], N=[[0.3]]),
    GaussModel(A=[[1.0]], B=[[1.0]], C=[[0.0]], N=np.empty((1, 0))),
], ids=["2x2", "scalar", "scalar-noiseless"])
def test_linear_growth_raises_within_a_tenth_of_a_second(model):
    # an unobserved unit-root mode grows Sigma by BB' per sweep, so the
    # change stays exactly 1.0 and Sigma stays far below the divergence cap;
    # the loop stops once the change equals the change 1000 sweeps earlier,
    # not after all 10^5 sweeps (the best of three runs is timed)
    seconds = []
    for _ in range(3):
        start = time.perf_counter()
        with pytest.raises(NumericError, match="grows linearly"):
            solve_realization(model, 0.5)
        seconds.append(time.perf_counter() - start)
    assert min(seconds) < 0.1


def test_slow_rotating_model_still_converges():
    # complex modes at radius 0.999: the change falls by only 0.998 per
    # sweep and turns with the rotation, and the linear-growth check must
    # not stop the 9,551 sweeps to the saturated fixed point
    model = GaussModel(A=_rotation(0.999, 0.3), B=np.eye(2), C=np.eye(2), N=np.empty((2, 0)))
    sol = solve_realization(model, 1e4)
    assert sol.saturated and sol.iterations == 9_551
    Sigma = solve_discrete_lyapunov(model.A, np.eye(2))
    assert np.max(np.abs(sol.Sigma_inf - Sigma)) <= 1e-8 * float(np.max(np.abs(Sigma)))


def test_undamped_sweep_needs_fewer_sweeps_than_reference():
    _, damped = _reference_solve(TEST_MODEL, 0.4)
    sol = solve_realization(TEST_MODEL, 0.4)
    assert sol.iterations < damped


def test_overflowing_model_is_domain_error_without_warning():
    # BB' = 1e308 is finite, but C Sigma C' + (C Sigma C')' overflows; the
    # non-finite check turns that into DomainError (RuntimeWarning is an error here)
    huge = GaussModel(A=TEST_MODEL.A, B=np.array([[1e154, 0.0], [0.0, 1.0]]),
                      C=TEST_MODEL.C, N=TEST_MODEL.N)
    with pytest.raises(DomainError):
        solve_realization(huge, 1.2)


@pytest.mark.parametrize("value", [math.inf, -math.inf, math.nan], ids=["inf", "-inf", "nan"])
def test_sweep_rejects_every_non_finite_lambda_entry(value):
    # the sweep checks Lambda before the eigensolve, since LAPACK does not
    # flag every non-finite input: a NaN on the diagonal of a 2x2 can come
    # back as a finite spectrum, and an inf sets the divide-by-zero flag
    # (an error here, as solve_realization ignores only over and invalid).
    # Lambda = C Sigma C' + NN' has the entry exactly where NN' does
    Sigma = np.array([[2.0, 0.3], [0.3, 1.0]])
    for i, j in ((0, 0), (1, 0), (1, 1)):
        NNt = 0.16 * np.eye(2)
        NNt[i, j] = NNt[j, i] = value
        with np.errstate(over="ignore", invalid="ignore"):
            with pytest.raises(DomainError, match="non-finite Lambda"):
                gauss._sweep(TEST_MODEL.A, np.eye(2), TEST_MODEL.C, NNt, Sigma, 0.5)


def test_scale_and_change_equal_the_array_reductions():
    # the loop's one list pass against np.max(np.abs(new)) and
    # np.max(np.abs(new - old)) on 2x2 to 4x4 entries, with NaN, inf and
    # signed zeros placed anywhere: a NaN at any position makes its max NaN
    rng = np.random.default_rng(8)
    specials = [math.nan, math.inf, -math.inf, 0.0, -0.0, 1e308, -1e308]
    for _ in range(2000):
        n = int(rng.choice([4, 9, 16]))
        new, old = rng.normal(size=(2, n))
        for x in (new, old):
            for i in rng.integers(0, n, int(rng.integers(0, 3))):
                x[i] = specials[int(rng.integers(0, len(specials)))]
        with np.errstate(over="ignore", invalid="ignore"):
            ref = (float(np.max(np.abs(new))), float(np.max(np.abs(new - old))))
        got = gauss._scale_and_change(new.tolist(), old.tolist())
        assert np.array(got).tobytes() == np.array(ref).tobytes(), (new, old)


def test_overflowing_process_noise_is_domain_error_without_warning():
    # BB' overflows (1e200^2), to inf - inf = NaN off the diagonal for these
    # rows: the covariance checks raise, without numpy's overflow warning
    B = 1e200 * np.array([[1.0, 1.0], [1.0, -1.0]])
    for C in (np.eye(2), TEST_MODEL.C):
        model = GaussModel(A=TEST_MODEL.A, B=B, C=C, N=TEST_MODEL.N)
        with pytest.raises(DomainError):
            solve_realization(model, 0.5)


@pytest.mark.parametrize("s, f", [(1e3, 0.1), (1e3, 2.0), (1e4, 0.1), (3e4, 0.1),
                                  (1e5, 0.5), (3e5, 0.1), (3e5, 0.5)])
def test_large_covariance_scale_converges(s, f):
    # max|Sigma| from 1e6 to 1e11: the change between sweeps stalls near one
    # ulp of Sigma there, far above an absolute 1e-11
    model = GaussModel(A=TEST_MODEL.A, B=s * np.eye(2), C=TEST_MODEL.C, N=TEST_MODEL.N)
    sol = solve_realization(model, f * s * s)
    assert sol.iterations < 100
    assert float(np.max(np.abs(sol.Sigma_inf))) > 1e6


@pytest.mark.parametrize("s", [1e-8, 1e-6, 1e-3, 1e3, 1e4, 3e5, 1e6, 1e9])
def test_rate_is_invariant_under_covariance_scaling(s):
    # (A, sB, C, sN) at s^2 D scales Sigma by s^2 and leaves the rate and the
    # saturated flag unchanged: every rule of the loop (stop, divergence cap,
    # saturation) is relative.  An absolute stop would end the 1e-6 model
    # after 2 sweeps, 5e-4 bit off, and an absolute cap would call the 1e6
    # model diverged
    scaled = GaussModel(A=TEST_MODEL.A, B=s * TEST_MODEL.B, C=TEST_MODEL.C, N=s * TEST_MODEL.N)
    for D in (0.1, 0.3, 0.4, 1.0, 3.0, 6.0):
        unit = solve_realization(TEST_MODEL, D)
        sol = solve_realization(scaled, D * s * s)
        assert abs(sol.rate - unit.rate) <= 1e-12, D
        assert sol.saturated == unit.saturated, D
        size = float(np.max(np.abs(unit.Sigma_inf)))
        assert np.max(np.abs(sol.Sigma_inf / (s * s) - unit.Sigma_inf)) <= 1e-10 * size, D


@pytest.mark.parametrize("m", [1, 2])
def test_stable_source_without_process_noise_has_zero_error_covariance(m):
    # BB' = 0 and a stable A: Sigma_inf = 0, which a stop relative to
    # max|Sigma| reaches only at underflow (A = 0.999 I ran into the
    # 10^5-sweep cap).  Lambda = NN' = 0.16 I, saturated above D = 0.16 m
    for B in (np.zeros((m, 1)), np.empty((m, 0))):
        model = GaussModel(A=0.999 * np.eye(m), B=B, C=np.eye(m), N=0.4 * np.eye(m))
        for D in (0.1, 0.5):
            sol = solve_realization(model, D)
            assert sol.iterations == 1 and not sol.Sigma_inf.any()
            assert sol.saturated == (D > 0.16 * m)
            assert sol.rate == pytest.approx(reverse_waterfill([0.16] * m, D).rate, abs=1e-12)
            assert sol.rate == 0.0 or not sol.saturated


def test_realization_rate_is_achievable_not_the_sequential_infimum():
    # two decoupled fully observed sources at D = 1: the realization splits
    # D equally (water-filling on equal lambda_i), while coding each part
    # with its scalar closed form at the best split needs less rate
    model = GaussModel(A=np.diag([0.9, 0.2]), B=np.eye(2), C=np.eye(2), N=np.empty((2, 0)))
    realization = solve_realization(model, 1.0).rate

    def split_rate(d1):
        return (rna_scalar_fully_observed(0.9, 1.0, d1)
                + rna_scalar_fully_observed(0.2, 1.0, 1.0 - d1))

    d1, neg = numerics.maximize_concave_1d(lambda d: -split_rate(d), 1e-9, 1.0 - 1e-9)
    assert realization == pytest.approx(1.259570, abs=1e-6)
    assert d1 == pytest.approx(0.431176, abs=1e-6)
    assert -neg == pytest.approx(1.246108, abs=1e-6)
    assert realization >= -neg


def test_model_validation():
    with pytest.raises(DomainError):
        GaussModel(
            A=np.eye(2), B=np.eye(2), C=np.eye(3), N=np.empty((3, 0))
        )  # C columns mismatch A
    with pytest.raises(DomainError):
        GaussModel(
            A=np.array([[np.nan]]),
            B=np.array([[1.0]]),
            C=np.array([[1.0]]),
            N=np.empty((1, 0)),
        )
    m = GaussModel.scalar(0.5, 1.0, 2.0, 0.3)
    assert m.dims == (1, 1, 1, 1)
    assert m.C[0, 0] == 2.0 and m.N[0, 0] == 0.3
    assert GaussModel.scalar(0.5, 1.0).dims == (1, 1, 1, 0)
    with pytest.raises(DomainError):
        solve_realization(TEST_MODEL, 0.0)


@pytest.mark.parametrize("B, N", [(np.ones(3), np.eye(2)), (np.eye(2), np.ones(3)),
                                  (np.ones((3, 1)), np.eye(2)), (np.eye(2), np.ones((1, 5)))],
                         ids=["B-size-3", "N-size-3", "B-3x1", "N-1x5"])
def test_model_with_b_or_n_of_the_wrong_size_is_domain_error(B, N):
    # B and N are read as m and p rows: a size that is not a multiple of
    # m (resp. p) is a DomainError, not numpy's reshape ValueError
    with pytest.raises(DomainError, match="inconsistent matrix dimensions"):
        GaussModel(A=np.eye(2), B=B, C=np.eye(2), N=N)


# ------------------------------------------------------------------ alpha = 1


def test_classical_alpha1():
    assert classical_alpha1(1.0, 0.25) == pytest.approx(1.0, abs=1e-12)
    assert classical_alpha1(2.0, 1.0) == pytest.approx(1.0, abs=1e-12)
    with pytest.raises(DomainError):
        classical_alpha1(1.0, 0.3)
    with pytest.raises(DomainError):
        classical_alpha1(1.0, 0.0)


def test_rate_loss_alpha1():
    assert rate_loss_alpha1(1.0, 0.25) == pytest.approx(
        0.5 * math.log2(1.25), abs=1e-12
    )
    assert rate_loss_alpha1(1.0, 0.25) == pytest.approx(0.1610, abs=1e-4)
    assert rate_loss_alpha1(1.0, 1e-12) == pytest.approx(0.0, abs=1e-10)
    with pytest.raises(DomainError):
        rate_loss_alpha1(1.0, 0.26)
    # identity: rna at alpha = 1 equals classical + rate loss
    rng = np.random.default_rng(31)
    for _ in range(50):
        sw = rng.uniform(0.3, 3.0)
        D = rng.uniform(1e-3, 1.0) * sw * sw / 4.0
        lhs = rna_scalar_fully_observed(1.0, sw, D)
        assert lhs == pytest.approx(
            classical_alpha1(sw, D) + rate_loss_alpha1(sw, D), abs=1e-12
        )
