import dataclasses
import math

import mpmath
import numpy as np
import pytest

from nardf.bsms import (
    classical_gray,
    directed_info_rate,
    gray_critical_distortion,
    joint_chain,
    max_rate_loss,
    optimal_reproduction,
    rate_loss_bound,
    rna_bsms,
)
from nardf.errors import DomainError, NumericError
from nardf.excess import hoeffding_constants
from nardf.numerics import binary_entropy


def test_rna_values():
    # p = 0.5 is the IID uniform source: 1 - H(D)
    assert rna_bsms(0.5, 0.2) == pytest.approx(1.0 - binary_entropy(0.2), abs=1e-12)
    assert rna_bsms(0.5, 0.2) == pytest.approx(0.27807190511263774, abs=1e-10)
    assert rna_bsms(0.3, 0.5) == 0.0
    assert rna_bsms(0.25, 0.1) == pytest.approx(0.41229530564141137, abs=1e-10)
    # D = 0: lossless, rate is the source entropy rate H(p)
    assert rna_bsms(0.25, 0.0) == pytest.approx(binary_entropy(0.25), abs=1e-12)
    # beyond D_max = 1/2 the rate is zero
    assert rna_bsms(0.3, 0.51) == 0.0


def test_rna_domain():
    with pytest.raises(DomainError):
        rna_bsms(0.0, 0.1)
    with pytest.raises(DomainError):
        rna_bsms(1.0, 0.1)
    with pytest.raises(DomainError):
        rna_bsms(0.3, -0.01)
    # a NaN D is checked on entry, not left to the entropy's range check
    with pytest.raises(DomainError, match="distortion must be nonnegative"):
        rna_bsms(0.3, math.nan)


def test_rna_closed_form_structure():
    # H(m) - H(D) with m = 1 - p - D + 2 p D, clipped at zero
    for p in (0.1, 0.3, 0.5):
        for D in (0.05, 0.2, 0.4):
            m = 1.0 - p - D + 2.0 * p * D
            expect = max(binary_entropy(m) - binary_entropy(D), 0.0)
            assert rna_bsms(p, D) == pytest.approx(expect, abs=1e-14)


def test_optimal_reproduction_parameters():
    d = optimal_reproduction(0.25, 0.1)
    assert d.alpha == pytest.approx(0.9642857142857143, abs=1e-12)
    assert d.beta == pytest.approx(0.75, abs=1e-12)
    d = optimal_reproduction(0.5, 0.1)
    assert d.alpha == pytest.approx(0.9, abs=1e-12)
    assert d.beta == pytest.approx(0.9, abs=1e-12)
    d = optimal_reproduction(0.3, 0.1)
    assert d.alpha == pytest.approx(21.0 / 22.0, abs=1e-12)
    assert d.beta == pytest.approx(27.0 / 34.0, abs=1e-12)
    with pytest.raises(DomainError):
        optimal_reproduction(0.3, 0.0)
    with pytest.raises(DomainError):
        optimal_reproduction(0.3, 0.5)


def test_kernel_is_stochastic():
    d = optimal_reproduction(0.3, 0.2)
    k = d.kernel
    assert k.shape == (2, 2, 2)
    assert np.all(k >= 0.0) and np.all(k <= 1.0)
    assert np.allclose(k.sum(axis=0), 1.0, atol=1e-12)


def test_joint_chain_stationary_distortion():
    rng = np.random.default_rng(11)
    for _ in range(50):
        p = rng.uniform(0.02, 0.98)
        D = rng.uniform(0.01, 0.49)
        ch = joint_chain(optimal_reproduction(p, D))
        assert np.allclose(ch.pi_matrix.sum(axis=0), 1.0, atol=1e-12)
        assert ch.mean_distortion == pytest.approx(D, abs=1e-9)
        # stationary distribution is flip-symmetric
        assert ch.stationary[0] == pytest.approx(ch.stationary[3], abs=1e-12)
        assert ch.stationary[1] == pytest.approx(ch.stationary[2], abs=1e-12)
        # and is the eigenvector of Pi at eigenvalue 1, normalized
        w, V = np.linalg.eig(ch.pi_matrix)
        v = V[:, np.argmin(abs(w - 1.0))].real
        assert np.allclose(ch.stationary, v / v.sum(), rtol=0.0, atol=1e-12)


@pytest.mark.parametrize("p, D", [(1e-12, 0.1), (1e-20, 1e-12), (1e-20, 0.49),
                                  (1.0 - 1e-12, 0.3), (0.3, 1e-15)])
def test_joint_chain_law_is_closed_form_at_extreme_p_and_d(p, D):
    # a p near 0 leaves the chain nearly reducible, where a linear solve for
    # the stationary law fails or returns negative entries
    pi = joint_chain(optimal_reproduction(p, D)).stationary
    assert pi.tolist() == [0.5 * (1.0 - D), 0.5 * D, 0.5 * D, 0.5 * (1.0 - D)]
    assert np.all(pi >= 0.0) and pi[0] == pi[3] and pi[1] == pi[2]


def test_joint_chain_rejects_a_kernel_that_does_not_keep_the_law():
    design = optimal_reproduction(0.3, 0.1)
    a, b = design.alpha, design.beta
    swapped = np.empty((2, 2, 2))  # the kernel with alpha and beta swapped
    swapped[0] = [[b, 1.0 - a], [a, 1.0 - b]]
    swapped[1] = 1.0 - swapped[0]
    for bad in (dataclasses.replace(design, kernel=swapped),
                dataclasses.replace(design, p=1.0 - design.p)):
        with pytest.raises(NumericError, match="not stationary"):
            joint_chain(bad)


def test_directed_info_equals_closed_form():
    rng = np.random.default_rng(5)
    for _ in range(60):
        p = rng.uniform(0.02, 0.5)
        D = rng.uniform(0.01, 0.49)
        d = optimal_reproduction(p, D)
        ch = joint_chain(d)
        assert directed_info_rate(ch, d) == pytest.approx(rna_bsms(p, D), abs=1e-9)


def test_reproduction_process_is_bsms_p():
    # the optimal reproduction has the same law as the source: its
    # transition kernel, marginalized over the joint chain, flips w.p. p
    for p, D in ((0.3, 0.1), (0.25, 0.2), (0.45, 0.05)):
        ch = joint_chain(optimal_reproduction(p, D))
        T = np.zeros((2, 2))
        for j in range(4):
            for i in range(4):
                T[i % 2, j % 2] += ch.pi_matrix[i, j] * ch.stationary[j]
        T /= T.sum(axis=0, keepdims=True)
        assert T[1, 0] == pytest.approx(p, abs=1e-10)
        assert T[0, 1] == pytest.approx(p, abs=1e-10)


def test_tilted_form():
    from nardf.bsms import verify_tilted_form

    for p, D in ((0.3, 0.1), (0.25, 0.2), (0.45, 0.05), (0.5, 0.3)):
        s, dev = verify_tilted_form(optimal_reproduction(p, D))
        assert s == pytest.approx(math.log(D / (1.0 - D)), abs=1e-12)
        assert s < 0.0
        assert type(dev) is float and dev < 1e-10
    # a D that disagrees with the kernel gives no consistent s
    design = optimal_reproduction(0.3, 0.1)
    with pytest.raises(NumericError):
        verify_tilted_form(dataclasses.replace(design, D=1.01 * design.D))


@pytest.mark.parametrize("p, D, error", [
    (0.3, 0.1, None), (0.5, 0.49, None), (0.3, 0.5, DomainError),
    (1e-11, 6e-10, None), (1e-12, 1e-12, None), (0.3, 1e-9, None), (1e-9, 0.1, None)])
def test_tilted_form_at_the_edges_raises_library_errors(p, D, error):
    # s comes from D in closed form: the log of the cancelled ratio
    # (1 - alpha)/alpha * (1 - p)/p leaked a math domain error at
    # (1e-11, 6e-10) and (1e-12, 1e-12).  The last four pairs raised
    # NumericError while the kernel took 1 - alpha by subtraction; with the
    # closed-form complements they pass
    from nardf.bsms import verify_tilted_form

    if error is None:
        verify_tilted_form(optimal_reproduction(p, D))
    else:
        with pytest.raises(error):
            verify_tilted_form(optimal_reproduction(p, D))


def test_classical_gray():
    rate, exact = classical_gray(0.25, 0.02)
    assert exact is True
    assert rate == pytest.approx(binary_entropy(0.25) - binary_entropy(0.02), abs=1e-12)
    rate, exact = classical_gray(0.25, 0.1)
    assert exact is False  # beyond the critical distortion
    assert gray_critical_distortion(0.25) == pytest.approx(0.02859547920896832, abs=1e-10)
    assert gray_critical_distortion(0.1) == pytest.approx(0.003096005000046753, abs=1e-10)
    # p = 1/2: IID source, bound exact on the whole curve
    assert gray_critical_distortion(0.5) == pytest.approx(0.5, abs=1e-12)
    rate, exact = classical_gray(0.5, 0.3)
    assert exact is True
    with pytest.raises(DomainError):
        classical_gray(0.7, 0.1)
    with pytest.raises(DomainError, match="distortion must be nonnegative"):
        classical_gray(0.3, math.nan)


def test_rna_dominates_gray():
    rng = np.random.default_rng(2)
    for _ in range(200):
        p = rng.uniform(0.02, 0.5)
        D = rng.uniform(0.001, 0.49)
        gray, exact = classical_gray(p, D)
        r = rna_bsms(p, D)
        assert r >= gray - 1e-12
        if exact:
            # where the classical bound is tight, the gap is the true rate loss
            assert r - gray <= rate_loss_bound(p, D) + 1e-12


def test_rate_loss_bound_values():
    # D <= p branch: H(m) - H(p)
    m = 1.0 - 0.25 - 0.1 + 2 * 0.25 * 0.1
    assert rate_loss_bound(0.25, 0.1) == pytest.approx(
        binary_entropy(m) - binary_entropy(0.25), abs=1e-12
    )
    # at p = 1/2 the bound collapses to zero on D <= p (m = 1/2)
    assert rate_loss_bound(0.5, 0.3) == 0.0
    # D > p branch: H(m) - H(D) = rna itself
    assert rate_loss_bound(0.1, 0.3) == pytest.approx(rna_bsms(0.1, 0.3), abs=1e-12)
    with pytest.raises(DomainError):
        rate_loss_bound(0.6, 0.1)


def test_rate_loss_bounds_the_true_gap():
    # on the exactness region the bound really bounds rna - classical
    rng = np.random.default_rng(9)
    for _ in range(200):
        p = rng.uniform(0.05, 0.5)
        D = rng.uniform(1e-4, 1.0) * gray_critical_distortion(p)
        if D <= 0.0:
            continue
        gap = rna_bsms(p, D) - classical_gray(p, D)[0]
        assert gap <= rate_loss_bound(p, D) + 1e-12


def _grid_entropy(q):
    # H(q) in bits over an array, by np.log2 and with 0 log 0 = 0: the
    # grid's own formula, independent of the library's entropy core
    def xlog2x(x):
        return np.where(x > 0.0, x * np.log2(np.where(x > 0.0, x, 1.0)), 0.0)
    return -(xlog2x(q) + xlog2x(1.0 - q))


def _rate_loss_grid(points):
    # rate_loss_bound over a (p, D) grid on [0, 1/2]^2, as arrays
    g = np.linspace(0.0, 0.5, points)
    P, D = np.meshgrid(g, g, indexing="ij")
    hm = _grid_entropy(1.0 - P - D + 2.0 * P * D)
    return g, np.where(D <= P, hm - _grid_entropy(P), hm - _grid_entropy(D))


def test_rate_loss_grid_formula_is_rate_loss_bound():
    g, val = _rate_loss_grid(11)
    for i, j in [(0, 0), (2, 1), (1, 2), (3, 3), (10, 4), (4, 10), (10, 10)]:
        assert val[i, j] == pytest.approx(rate_loss_bound(g[i], g[j]), abs=1e-15)


def test_max_rate_loss_matches_brute_force_grid():
    p, D, val = max_rate_loss()
    g, grid = _rate_loss_grid(1501)  # step 1/3000, the crease on the grid
    i, j = np.unravel_index(int(np.argmax(grid)), grid.shape)
    assert float(grid.max()) <= val + 1e-12
    assert val - float(grid.max()) <= 1e-6
    assert abs(g[i] - p) <= 1.5 / 3000 and abs(g[j] - D) <= 1.5 / 3000
    assert (p, D, val) == pytest.approx((0.1210913, 0.1210913, 0.2144176144), abs=1e-7)


def test_rate_loss_rises_toward_the_crease():
    # m = 1 - p - D + 2pD >= 1/2 falls as p rises on p <= D and as D rises
    # on D <= p, so H(m) rises: the maximum lies on the crease D = p
    g, val = _rate_loss_grid(301)
    P, D = np.meshgrid(g, g, indexing="ij")
    up_in_p = np.diff(val, axis=0)[(P[1:] <= D[1:])]
    up_in_D = np.diff(val, axis=1)[(D[:, 1:] <= P[:, 1:])]
    assert up_in_p.min() >= -1e-15 and up_in_D.min() >= -1e-15
    # RL(p, p) is concave on [0, 1/4], where max_rate_loss maximizes it
    crease = np.diagonal(val)[g <= 0.25]
    assert np.diff(crease, 2).max() <= 1e-15


def test_max_rate_loss():
    p, D, val = max_rate_loss()
    # pinned bit for bit.  The exact maximum is 0.21441761436357262563 at
    # p = 0.12109133370328; the crease is flat to rounding that close to
    # its peak, so the golden section stops within ~2e-9 of it in p
    assert (p, D, val) == (0.1210913321161067, 0.1210913321161067, 0.21441761436357262)
    assert val == pytest.approx(0.2144176, abs=2e-6)
    assert p == pytest.approx(0.1211, abs=2e-4)
    assert D == pytest.approx(p, abs=2e-4)  # the maximum sits on the crease D = p
    # it is an upper bound for the bound itself on a random cloud
    rng = np.random.default_rng(4)
    pp = rng.uniform(0.0, 0.5, 400)
    DD = rng.uniform(0.0, 0.5, 400)
    assert all(rate_loss_bound(a, b) <= val + 1e-9 for a, b in zip(pp, DD))


# ------------------------------------------------- full relative precision

# relative tolerance against the exact values; results in the subnormal range
# have only absolute precision, 1e-13 of the smallest normal float
RTOL, ATOL = 1e-13, 1e-13 * 2.2250738585072014e-308


def _log_uniform_pairs(seed, count, low=1e-300):
    rng = np.random.default_rng(seed)
    pairs = np.exp(rng.uniform(math.log(low), math.log(0.5), (count, 2)))
    return [tuple(pair) for pair in pairs.tolist()]


def _mp_entropy(x):
    if x in (0, 1):
        return mpmath.mpf(0)
    return -(x * mpmath.log(x) + (1 - x) * mpmath.log1p(-x)) / mpmath.log(2)


def _exact(f, p, D):
    # f(p, D) in mpmath, at 40 digits plus the most that the entropy
    # differences and complements can cancel: the decimal exponents of p, D,
    # 1/2 - p, 1/2 - D and p - D; their sum also covers products such as
    # pD in 1 - alpha.  It is accepted once 20 more digits agree to 1e-25,
    # and the precision doubles until they do
    dps = 40 + sum(max(0, int(-math.log10(abs(x)))) for x in (p, D, 0.5 - p, 0.5 - D, p - D)
                   if x)
    while True:
        values = []
        for extra in (0, 20):
            with mpmath.workdps(dps + extra):
                values.append(f(mpmath.mpf(p), mpmath.mpf(D)))
        if abs(values[1] - values[0]) <= mpmath.mpf(10) ** -25 * abs(values[1]):
            return values[1]
        dps *= 2


def _rna(p, D):
    return _mp_entropy(1 - p - D + 2 * p * D) - _mp_entropy(D)


def _gray(p, D):
    return max(_mp_entropy(p) - _mp_entropy(D), mpmath.mpf(0))


def _rate_loss(p, D):
    return _mp_entropy(1 - p - D + 2 * p * D) - _mp_entropy(max(p, D))


def _assert_close(got, exact, where):
    assert type(got) is float, where
    assert abs(mpmath.mpf(got) - exact) <= RTOL * abs(exact) + ATOL, (where, got, float(exact))


ORACLE_PAIRS = _log_uniform_pairs(31, 50) + [
    (1e-12, 1e-13), (1e-13, 1e-12), (1e-300, 0.3), (0.3, 1e-300), (0.25, 0.25),
    (0.3, 0.3 * (1.0 - 1e-12)), (1e-9, 0.5 - 1e-9), (0.5 - 1e-9, 1e-9),
    (0.5 - 1e-12, 0.5 - 1e-12), (1e-20, 0.499), (0.1, 0.5), (5e-324, 0.2), (0.2, 5e-324)]


def test_bsms_closed_forms_have_full_relative_precision():
    # rna_bsms, Gray's bound and the rate-loss bound against mpmath (_exact)
    # on (p, D) log-uniform down to 1e-300: a plain difference of
    # entropies cancels all of its digits where p << D (relative error
    # ~eps D/p), and 1 - m taken by subtraction loses them where m ~ 1
    for p, D in ORACLE_PAIRS:
        _assert_close(rna_bsms(p, D), _exact(_rna, p, D), ("rna", p, D))
        _assert_close(rate_loss_bound(p, D), _exact(_rate_loss, p, D), ("rate loss", p, D))
        _assert_close(classical_gray(p, D)[0], _exact(_gray, p, D), ("gray", p, D))
        if p >= 0.25:  # 1 - p is exact: p > 1/2 takes the same closed form
            _assert_close(rna_bsms(1.0 - p, D), _exact(_rna, 1.0 - p, D), ("rna", 1.0 - p, D))


def _kernel_entry(y, yp, x):
    # Q*(y | yp, x) in mpmath from alpha and beta; complements by subtraction
    def entry(p, D):
        m = 1 - p - D + 2 * p * D
        keep = (1 - p) * (1 - D) / m if x == yp else p * (1 - D) / (1 - m)
        return keep if y == (yp if x == yp else x) else 1 - keep
    return entry


def _hoeffding(p, D):
    return min(p, 1 - p) * min(_kernel_entry(y, 0, x)(p, D) for y in (0, 1) for x in (0, 1))


def test_kernel_complements_and_hoeffding_constants_have_full_relative_precision():
    # 1 - alpha = pD/m and 1 - beta = D(1 - p)/(1 - m) are stored in closed
    # form; 1.0 - alpha loses every digit once alpha rounds to 1
    for p, D in ORACLE_PAIRS[:40] + [(0.3, 1e-9), (1e-9, 0.1), (0.5, 1e-200)]:
        for q in ((p, 1.0 - p) if p >= 0.25 else (p,)):
            if not 0.0 < D < 0.5:
                continue
            design = optimal_reproduction(q, D)
            for index in np.ndindex(2, 2, 2):
                exact = _exact(_kernel_entry(*index), q, D)
                _assert_close(float(design.kernel[index]), exact, (q, D, index))
            _assert_close(hoeffding_constants(design), _exact(_hoeffding, q, D), (q, D))
    # the value the subtraction gave at (0.3, 1e-9) was 1.2857145348e-10
    assert hoeffding_constants(optimal_reproduction(0.3, 1e-9)) == pytest.approx(
        1.2857142864e-10, rel=1e-10)


def test_tilted_form_holds_on_every_log_uniform_pair():
    # 2,933 of these 3,000 pairs raised NumericError while 1 - alpha and
    # 1 - beta were taken by subtraction
    from nardf.bsms import verify_tilted_form

    for p, D in _log_uniform_pairs(0, 3000):
        s, dev = verify_tilted_form(optimal_reproduction(p, D))
        assert s < 0.0 and dev <= 1e-12, (p, D, dev)


@pytest.mark.parametrize("p, D", [(np.float64(0.3), np.float64(0.1)),
                                  (np.array(0.3), np.array(0.1)), (np.float32(0.3), 0.1)])
def test_numpy_scalar_and_0d_inputs_give_python_floats(p, D):
    for f in (rna_bsms, lambda p, D: classical_gray(p, D)[0], rate_loss_bound):
        got = f(p, D)
        assert type(got) is float and got == f(float(p), float(D))
    design = optimal_reproduction(p, D)
    fields = (design.p, design.D, design.m, design.alpha, design.beta, design.rate)
    assert all(type(v) is float for v in fields)
    assert design.kernel.tolist() == optimal_reproduction(float(p), float(D)).kernel.tolist()
