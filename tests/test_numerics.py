import math

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from nardf import numerics
from nardf.bsms import joint_chain, optimal_reproduction
from nardf.errors import DomainError, NumericError
from nardf.excess import lumped_distortion_chain
from nardf.gauss import reverse_waterfill
from nardf.jscc import capacity_waterfill
from nardf.numerics import (
    BITS_PER_NAT,
    RngStream,
    binary_entropy,
    cubic_positive_root,
    logsumexp,
    maximize_concave_1d,
    perron_eigenvalue,
    solve_discrete_lyapunov,
    sym_eig,
    water_level,
)


def test_binary_entropy_values():
    assert binary_entropy(0.5) == 1.0
    assert binary_entropy(0.0) == 0.0
    assert binary_entropy(1.0) == 0.0
    assert binary_entropy(0.1) == pytest.approx(0.46899559358928817, abs=1e-12)
    # symmetry
    for q in (0.03, 0.2, 0.41):
        assert binary_entropy(q) == pytest.approx(binary_entropy(1 - q), abs=1e-15)


def test_binary_entropy_vectorized_and_domain():
    q = np.array([0.0, 0.25, 0.5, 1.0])
    h = binary_entropy(q)
    assert h.shape == q.shape
    assert h[2] == 1.0
    assert isinstance(binary_entropy(0.3), float)
    with pytest.raises(DomainError):
        binary_entropy(-1e-9)
    with pytest.raises(DomainError):
        binary_entropy(np.array([0.2, 1.1]))


def test_scalar_binary_entropy_equals_array_path_bit_for_bit():
    # a dense grid, seeded draws, subnormals, and the neighbours of 0, 1/2, 1
    q = np.concatenate([
        np.linspace(0.0, 1.0, 10_001),
        np.random.default_rng(20240901).random(100_000),
        [5e-324, 1e-310, 2.2250738585072014e-308, 1e-300],
        np.nextafter([0.0, 0.5, 0.5, 1.0], [1.0, 0.0, 1.0, 0.0]),
    ])
    by_array = binary_entropy(q)
    by_scalar = np.array([binary_entropy(x) for x in q.tolist()])
    assert np.array_equal(by_scalar.view(np.int64), by_array.view(np.int64))


@pytest.mark.parametrize("q", [0.3, 1, 0, True, np.float64(0.3), np.float32(0.3),
                               np.int64(1), np.array(0.3), np.array(0.3, dtype=np.float32)])
def test_scalar_binary_entropy_returns_float(q):
    h = binary_entropy(q)
    assert type(h) is float
    assert h == float(binary_entropy(np.array([float(q)]))[0])


@pytest.mark.parametrize("q", [math.nan, math.inf, -math.inf, -1e-300, np.nextafter(1.0, 2.0),
                               np.float64(math.nan), np.array(-0.5), np.float32(1.5)])
def test_scalar_binary_entropy_domain(q):
    with pytest.raises(DomainError):
        binary_entropy(q)


def test_sym_eig_ordering_and_reconstruction():
    rng = np.random.default_rng(0)
    for n in (1, 2, 3, 5):
        for _ in range(20):
            X = rng.standard_normal((n, n))
            M = X + X.T
            w, E = sym_eig(M)
            assert np.all(np.diff(w) <= 1e-12)  # descending
            # rows of E are eigenvectors: M = E^t diag(w) E
            rec = E.T @ (w[:, None] * E)
            assert np.max(np.abs(rec - M)) < 1e-10 * max(1.0, np.abs(M).max())
            assert np.max(np.abs(E @ E.T - np.eye(n))) < 1e-10


def test_sym_eig_rejects_asymmetry():
    with pytest.raises(DomainError):
        sym_eig(np.array([[1.0, 2.0], [0.0, 1.0]]))


def test_sym_eig_sign_convention_deterministic():
    M = np.diag([3.0, 1.0])
    w, E = sym_eig(M)
    assert np.allclose(w, [3.0, 1.0])
    # first nonzero component of each eigenvector is positive
    assert E[0, 0] > 0 and E[1, 1] > 0


def _givens_rotation_4():
    R = np.eye(4)
    for (i, j), t in zip(((0, 1), (1, 2), (2, 3), (0, 3), (0, 2)), (0.3, 0.7, 1.1, 0.5, 0.9)):
        G = np.eye(4)
        G[i, i] = G[j, j] = math.cos(t)
        G[i, j], G[j, i] = -math.sin(t), math.sin(t)
        R = G @ R
    return R


_R4 = _givens_rotation_4()
# spectrum and E as sym_eig returned them before its sign convention became
# a Python scan of the rows: repeated eigenvalues keep eigh's order
SYM_EIG_TIES = {
    "eye3": (np.eye(3), [1.0, 1.0, 1.0], np.eye(3).tolist()),
    "diag-2-2-1": (np.diag([2.0, 2.0, 1.0]), [2.0, 2.0, 1.0],
                   [[0.0, 1.0, 0.0], [1.0, 0.0, 0.0], [0.0, 0.0, 1.0]]),
    "rotated-3-1-1-0.5": (
        _R4 @ np.diag([3.0, 1.0, 1.0, 0.5]) @ _R4.T,
        [3.0000000000000004, 1.0000000000000002, 1.0, 0.5],
        [[0.4029414699442312, 0.22602632124962285, 0.6466920561120076, 0.6069099261531057],
         [0.19788612448434686, 0.8942754638511022, -0.0639783494497295, -0.396256542270471],
         [0.6939678544513929, -0.3862427952159858, 0.23030891293136907, -0.5623014536316295],
         [0.5629279443444589, 5.551115123125783e-17, -0.724330007653751, 0.3980680463041949]]),
}


@pytest.mark.parametrize("name", list(SYM_EIG_TIES))
def test_sym_eig_tie_order_is_pinned(name):
    M, spectrum, E_expected = SYM_EIG_TIES[name]
    w, E = sym_eig(M)
    assert w.tolist() == pytest.approx(spectrum, rel=0, abs=1e-12)
    # the basis of a repeated eigenvalue is LAPACK's choice; a swapped or
    # sign-flipped row is off by O(1), far beyond this tolerance
    np.testing.assert_allclose(E, E_expected, rtol=0, atol=1e-12)
    if name != "rotated-3-1-1-0.5":  # diagonal input: exact
        assert w.tolist() == spectrum and E.tolist() == E_expected


def test_cubic_positive_root():
    # (x-1)(x+2)(x+3) = x^3 + 4x^2 + x - 6
    assert cubic_positive_root(1.0, 4.0, 1.0, -6.0) == pytest.approx(1.0, abs=1e-12)
    # largest real root is returned: (x-2)(x-1)(x+1) = x^3 - 2x^2 - x + 2
    assert cubic_positive_root(1.0, -2.0, -1.0, 2.0) == pytest.approx(2.0, abs=1e-12)
    with pytest.raises(DomainError):
        cubic_positive_root(0.0, 1.0, 1.0, 1.0)


def test_cubic_random_reconstruction():
    rng = np.random.default_rng(3)
    for _ in range(100):
        roots = np.sort(rng.uniform(-3.0, 3.0, size=3))
        c2 = -roots.sum()
        c1 = roots[0] * roots[1] + roots[0] * roots[2] + roots[1] * roots[2]
        c0 = -roots.prod()
        got = cubic_positive_root(1.0, c2, c1, c0)
        assert got == pytest.approx(roots[-1], abs=1e-8)


def test_perron_eigenvalue():
    assert perron_eigenvalue(np.array([[0.0, 2.0], [2.0, 0.0]])) == pytest.approx(2.0, abs=1e-10)
    assert perron_eigenvalue(np.ones((2, 2))) == pytest.approx(2.0, abs=1e-10)
    # any irreducible column-stochastic matrix has Perron eigenvalue 1
    P = np.array([[0.9, 0.3], [0.1, 0.7]])
    assert perron_eigenvalue(P) == pytest.approx(1.0, abs=1e-10)
    with pytest.raises(DomainError):
        perron_eigenvalue(np.array([[1.0, 0.0], [0.0, 2.0]]))  # reducible


def test_perron_eigensolve_failure_is_numeric_error(monkeypatch):
    # a failed solve of the eigvals gufunc: NaNs with the invalid flag raised
    monkeypatch.setattr(numerics, "_eigvals", lambda M: _nan_eigh(M)[0] + 0j)
    with pytest.raises(NumericError):
        perron_eigenvalue(np.ones((2, 2)))


def _power_iteration_perron(M, tol=1e-12, max_iter=10**6):
    # reference: shifted power iteration, as perron_eigenvalue located the
    # root before the eigensolve; the diagonal shift (rho(M + cI) = rho(M) + c)
    # keeps it convergent on periodic matrices
    shift = float(M.max())
    v = np.full(M.shape[0], 1.0 / M.shape[0])
    est = 0.0
    for _ in range(max_iter):
        w = M @ v + shift * v
        s = float(w.sum())  # 1-norm; v stays nonnegative throughout
        v = w / s
        if abs(s - shift - est) <= tol * abs(s - shift):
            return s - shift
        est = s - shift
    raise AssertionError("reference power iteration did not converge")


def _perron_2x2(M):
    tr, det = M[0, 0] + M[1, 1], M[0, 0] * M[1, 1] - M[0, 1] * M[1, 0]
    return 0.5 * (tr + math.sqrt(tr * tr - 4.0 * det))


def test_perron_matches_power_iteration_on_random_positive():
    rng = np.random.default_rng(8)
    for _ in range(25):
        n = rng.integers(2, 6)
        M = rng.uniform(0.01, 1.0, size=(n, n))
        assert perron_eigenvalue(M) == pytest.approx(_power_iteration_perron(M), rel=1e-9)
        if n == 2:
            assert perron_eigenvalue(M) == pytest.approx(_perron_2x2(M), rel=1e-12)


def test_perron_of_periodic_matrix():
    # a 3-cycle: spectrum {1, exp(+-2 pi i / 3)}, so the complex pair must lose
    assert perron_eigenvalue(np.roll(np.eye(3), 1, axis=0)) == pytest.approx(1.0, abs=1e-12)


@pytest.mark.parametrize("lam", [-50.0, -5.0, 5.0, 50.0])
@pytest.mark.parametrize("p,D", [(0.3, 0.1), (0.1, 0.05), (0.45, 0.3)])
def test_perron_on_tilted_bsms_chains(p, D, lam):
    chain = joint_chain(optimal_reproduction(p, D))
    M4, M2 = (c.pi_matrix * np.exp(lam * c.f)[:, None]
              for c in (chain, lumped_distortion_chain(chain)))
    for M in (M4, M2):
        assert perron_eigenvalue(M) == pytest.approx(_power_iteration_perron(M), rel=1e-9)
    assert perron_eigenvalue(M2) == pytest.approx(_perron_2x2(M2), rel=1e-12)
    # lumping keeps the tilted Perron root
    assert perron_eigenvalue(M4) == pytest.approx(perron_eigenvalue(M2), rel=1e-9)


def test_maximize_concave_1d():
    x, v = maximize_concave_1d(lambda t: -(t - 0.3) ** 2, -1.0, 1.0)
    assert x == pytest.approx(0.3, abs=1e-7)
    assert v == pytest.approx(0.0, abs=1e-12)
    with pytest.raises(DomainError):
        maximize_concave_1d(lambda t: t, 1.0, 0.0)


@pytest.mark.parametrize("bad", [
    np.array([[1.0, 0.0], [0.0, 2.0]]),  # reducible
    np.zeros((2, 2)),
    np.array([[0.5, -0.1], [0.5, 0.5]]),
    np.array([[0.5, np.inf], [0.5, 0.5]]),
    np.array([[0.5, np.nan], [0.5, 0.5]]),
])
def test_stack_with_one_bad_matrix_is_a_domain_error(bad):
    # perron_eigenvalue takes one square matrix: a bad one, a stack (good
    # or not) and a non-square matrix are each a DomainError
    stack = np.stack([np.ones((2, 2)), bad, np.full((2, 2), 0.5)])
    with pytest.raises(DomainError):
        perron_eigenvalue(stack[1])
    for shape_error in (stack, stack[[0, 2]], np.ones((2, 3)), np.ones(2)):
        with pytest.raises(DomainError, match="square matrix required"):
            perron_eigenvalue(shape_error)


_GOLDEN = (math.sqrt(5.0) - 1.0) / 2.0


def _golden_section_scalar(g, lo, hi, tol):
    # reference: the textbook golden section, kept apart from the library's
    a, b = float(lo), float(hi)
    c = b - _GOLDEN * (b - a)
    d = a + _GOLDEN * (b - a)
    gc, gd = g(c), g(d)
    while (b - a) > tol:
        if gc >= gd:
            b, d, gd = d, c, gc
            c = b - _GOLDEN * (b - a)
            gc = g(c)
        else:
            a, c, gc = c, d, gd
            d = a + _GOLDEN * (b - a)
            gd = g(d)
    x = 0.5 * (a + b)
    return x, g(x)


def _concave(x, t, w):
    # a quadratic cap around t with a flat top of half-width w (ties in gc >= gd)
    u = np.maximum(np.abs(x - t) - w, 0.0)
    return 0.5 - u * u - 0.25 * np.abs(x - t)


def _bits(*values):
    return np.array(values, dtype=float).tobytes()


@pytest.mark.parametrize("tol", [1e-10, 1e-3, 10.0])
def test_scalar_golden_section_equals_reference_and_one_entry_array(tol):
    # the golden section runs on Python floats and gives the reference run's
    # bits, also where tol >= hi - lo (no step), on flat tops (gc == gd) and
    # where g is NaN (gc >= gd fails); array bounds, even of one entry, are
    # a DomainError
    rng = np.random.default_rng(19)
    for k in range(60):
        t, lo = rng.uniform(-6.0, 6.0), rng.uniform(-5.0, 0.0)
        hi = lo + rng.uniform(0.5, 8.0)
        w = rng.uniform(0.0, 2.0) if k % 3 == 0 else 0.0
        cut = t + 0.5 if k % 4 == 1 else math.inf  # g is NaN above the cut

        def g(v):
            return np.where(v > cut, math.nan, _concave(v, t, w))

        def g_float(v):
            assert type(v) is float
            return float(g(v))

        got = maximize_concave_1d(g_float, lo, hi, tol=tol)
        ref = _golden_section_scalar(lambda v: float(g(v)), lo, hi, tol)
        assert all(type(v) is float for v in got)
        assert _bits(*got) == _bits(*ref), (k, tol)
        # 0-d arrays and numpy scalars are scalar bounds too
        assert _bits(*maximize_concave_1d(g_float, np.array(lo), np.float64(hi), tol=tol)) \
            == _bits(*got)
    for lo, hi in ((1.0, 1.0), (1.0, 0.0), (0.0, math.nan), (math.nan, 1.0),
                   (np.array([0.0]), 1.0), (0.0, np.array([1.0])),
                   (np.full((2, 3), -1.0), np.full(3, 1.0))):
        with pytest.raises(DomainError):
            maximize_concave_1d(g_float, lo, hi)


def _nan_eigh(M):
    # what the eigh gufunc returns when LAPACK fails: NaNs, with the invalid
    # flag raised (inf - inf), which warns unless the caller ignores it
    return np.full(M.shape[:-1], np.inf) - np.inf, np.full(M.shape, np.inf) - np.inf


def test_failed_eigensolve_is_numeric_error(monkeypatch):
    # the gufuncs are called without numpy's wrapper: a failed solve must
    # still end in NumericError, not a NaN result, a RuntimeWarning (an
    # error here) or a LinAlgError
    monkeypatch.setattr(numerics, "_eigh_lo", _nan_eigh)
    with pytest.raises(NumericError):
        sym_eig(np.array([[2.0, 0.5], [0.5, 1.0]]))
    monkeypatch.setattr(numerics, "_eigvals", lambda M: _nan_eigh(M)[0] + 0j)
    with pytest.raises(NumericError):
        numerics._spectral_radius(np.array([[0.5, 1.0], [-1.0, 0.5]]))


def test_spectral_radius_equals_the_eigvals_route():
    # real, complex and repeated spectra, 1x1 to 4x4
    rng = np.random.default_rng(13)
    mats = [rng.normal(size=(n, n)) for n in (1, 2, 3, 4) for _ in range(25)]
    mats += [np.eye(3), np.array([[0.0, -1.0], [1.0, 0.0]]), np.array([[-0.0]]),
             np.diag([0.5, -0.5])]
    for M in mats:
        ref = float(np.max(np.abs(np.linalg.eigvals(M))))
        assert _bits(numerics._spectral_radius(M)) == _bits(ref)
        # positive matrices for the Perron root, as np.linalg.eigvals gives it
        P = np.abs(M) + 1e-3
        assert _bits(perron_eigenvalue(P)) == _bits(float(np.max(np.linalg.eigvals(P).real)))


def test_bits_per_nat():
    assert BITS_PER_NAT == pytest.approx(1.4426950408889634, abs=1e-15)


def test_rng_stream_reproducible_and_disjoint():
    a = RngStream(123)
    x1 = a.generator().standard_normal(8)
    x2 = RngStream(123).generator().standard_normal(8)
    assert np.array_equal(x1, x2)
    # shards differ from the root and from each other
    s0 = a.shard(0).generator().standard_normal(8)
    s1 = a.shard(1).generator().standard_normal(8)
    assert not np.array_equal(s0, s1)
    assert not np.array_equal(x1, s0)
    # nested sharding stays reproducible
    assert np.array_equal(
        a.shard(3).shard(2).generator().standard_normal(4),
        RngStream(123).shard(3).shard(2).generator().standard_normal(4),
    )


def test_rng_shard_index_range():
    # stream 2's shards take the ids 2 * 2**20 + 1 .. 3 * 2**20 - 1
    a = RngStream(123, 2)
    assert a.shard(2**20 - 2).stream_id == 3 * 2**20 - 1
    for index in (2**20 - 1, -1):
        with pytest.raises(DomainError, match="index out of range"):
            a.shard(index)


# ---------------------------------------------------------------- water level


def _bisected_level(values, total, steps=100):
    # reference: bisection on the nondecreasing sum_i min(L, v_i), as both
    # water-fillings located their level before the exact routine
    v = np.asarray(values, dtype=float)
    lo, hi = min(total / v.size, float(v.min())), float(v.max())
    for _ in range(steps):
        mid = 0.5 * (lo + hi)
        if float(np.minimum(mid, v).sum()) < total:
            lo = mid
        else:
            hi = mid
    return hi


def _bisected_reverse_waterfill(lam, D):
    lam = np.asarray(lam, dtype=float)
    hi = _bisected_level(lam, D)
    active = lam > hi
    n_active = int(active.sum())
    xi = (D - float(lam[~active].sum())) / n_active if n_active else hi
    return xi, np.minimum(xi, lam)


def _bisected_capacity_waterfill(q, P):
    q = np.asarray(q, dtype=float)
    hi = -_bisected_level(-q, -(P + float(q.sum())))
    active = q < hi
    nu = (P + float(q[active].sum())) / int(active.sum())
    return np.maximum(0.0, nu - q)


# ties and zeros come from the sampled values.  Spectra stay above 1e-3: on
# subnormal ones the 1e-12 * total allocation check underflows, and the
# bisected and exact water-fillings both raise NumericError.
_spectra = st.lists(
    st.one_of(st.sampled_from([0.0, 0.25, 1.0, 3.0]), st.floats(1e-3, 10.0)),
    min_size=1,
    max_size=8,
)
_noise = st.lists(
    st.one_of(st.sampled_from([0.25, 1.0, 3.0]), st.floats(0.01, 10.0)),
    min_size=1,
    max_size=8,
)


def test_water_level_examples():
    assert water_level([4.0, 1.0], 2.0) == 1.0
    assert water_level([4.0, 1.0], 0.5) == 0.25
    assert water_level([4.0, 1.0], 5.0) == 4.0  # total = sum: max(v)
    assert water_level([4.0, 1.0], 5.5) == 4.5  # last piece extended
    assert water_level([-1.0, -2.0], -5.0) == -2.5  # every value active


def test_water_level_with_nan():
    # a NaN total has a NaN level; a NaN value sorts last, and its piece end
    # counts as >= every total, as in np.searchsorted on the piece ends
    assert math.isnan(water_level([4.0, 1.0], math.nan))
    assert math.isnan(water_level([1.0], math.nan))
    assert water_level([4.0, math.nan, 1.0], 1.5) == 0.5
    assert water_level([4.0, math.nan, 1.0], 100.0) == 95.0
    assert water_level([4.0, math.nan, 1.0], 5.0) == 2.0


@settings(max_examples=200, deadline=None, derandomize=True)
@given(values=_spectra, frac=st.floats(0.001, 1.0))
def test_water_level_matches_bisection(values, frac):
    v = np.array(values)
    total = frac * float(v.sum())
    assume(total > 0.0)
    level = water_level(v, total)
    assert level == pytest.approx(_bisected_level(v, total), rel=1e-12, abs=1e-12)
    assert float(np.minimum(level, v).sum()) == pytest.approx(total, rel=1e-12)


@settings(max_examples=200, deadline=None, derandomize=True)
@given(values=_spectra, frac=st.floats(0.001, 1.0))
def test_reverse_waterfill_matches_bisection(values, frac):
    lam = np.array(values)
    D = frac * float(lam.sum())
    assume(D > 0.0)
    w = reverse_waterfill(lam, D)
    xi, delta = _bisected_reverse_waterfill(lam, D)
    tol = 1e-12 * float(lam.sum())
    assert w.xi == pytest.approx(xi, abs=tol)
    assert np.allclose(w.delta, delta, rtol=0.0, atol=tol)


@settings(max_examples=200, deadline=None, derandomize=True)
@given(noise=_noise, P=st.floats(1e-3, 50.0))
def test_capacity_waterfill_matches_bisection(noise, P):
    q = np.array(noise)
    _, alloc = capacity_waterfill(q, P)
    if q.size > 1:
        ref = _bisected_capacity_waterfill(q, P)
        assert np.allclose(alloc, ref, rtol=0.0, atol=1e-12 * (P + float(q.sum())))
    assert float(alloc.sum()) == pytest.approx(P, rel=1e-12)


# ---------------------------------------------------------------- Lyapunov


@pytest.mark.parametrize("rho", [0.5, 0.999])
@pytest.mark.parametrize("m", [1, 2, 5, 12])
def test_lyapunov_matches_scipy(m, rho):
    scipy_linalg = pytest.importorskip("scipy.linalg")
    rng = np.random.default_rng(100 * m + int(1000 * rho))
    A = rng.normal(size=(m, m))
    A *= rho / float(np.max(np.abs(np.linalg.eigvals(A))))
    B = rng.normal(size=(m, m))
    Q = B @ B.T
    X = solve_discrete_lyapunov(A, Q)
    ref = scipy_linalg.solve_discrete_lyapunov(A, Q)
    scale = float(np.max(np.abs(ref)))
    assert np.array_equal(X, X.T)
    assert float(np.max(np.abs(X - ref))) <= 1e-9 * scale
    assert float(np.max(np.abs(A @ X @ A.T + Q - X))) <= 1e-10 * scale


@pytest.mark.parametrize("A", [np.eye(2), np.array([[1.5, 0.0], [1.0, 0.2]])])
def test_lyapunov_unstable_raises(A):
    with pytest.raises(NumericError):
        solve_discrete_lyapunov(A, np.eye(2))


# ---------------------------------------------------------------- logsumexp


def test_logsumexp_large_and_neg_inf_entries():
    assert logsumexp([1000.0, 1000.0]) == pytest.approx(1000.0 + math.log(2.0), abs=1e-12)
    assert logsumexp([-1000.0, -1000.0]) == pytest.approx(-1000.0 + math.log(2.0), abs=1e-12)
    assert logsumexp([-math.inf, 0.0]) == 0.0
    assert logsumexp([-math.inf, -math.inf]) == -math.inf
    a = np.array([[0.1, 2.0, -math.inf], [710.0, 709.0, 3.0]])
    out = logsumexp(a, axis=1)
    assert out.shape == (2,)
    assert out[0] == pytest.approx(math.log(math.exp(0.1) + math.exp(2.0)), abs=1e-12)
    assert out[1] == pytest.approx(710.0 + math.log1p(math.exp(-1.0)), abs=1e-12)
