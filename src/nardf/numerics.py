"""Numerical kernel: entropy, deterministic eigensolves, the exact water
level, the discrete Lyapunov equation, log-sum-exp, root finders,
Perron-Frobenius power iteration, 1-d concave maximization, RNG streams.

All rates in this package are in bits (base-2 logs).  Large-deviations
exponents are natural-log objects; BITS_PER_NAT converts for display.
Every function here is pure.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DomainError, NumericError

LN2 = math.log(2.0)
BITS_PER_NAT = 1.0 / LN2
NATS_PER_BIT = LN2

_GOLDEN = (math.sqrt(5.0) - 1.0) / 2.0


def binary_entropy(q):
    """Binary entropy H(q) in bits, elementwise, with 0*log2(0) = 0."""
    arr = np.asarray(q, dtype=float)
    if np.any(arr < 0.0) or np.any(arr > 1.0) or not np.all(np.isfinite(arr)):
        raise DomainError("binary_entropy: argument must lie in [0, 1]")
    out = np.zeros_like(arr)
    inner = (arr > 0.0) & (arr < 1.0)
    qi = arr[inner]
    out[inner] = -(qi * np.log2(qi) + (1.0 - qi) * np.log2(1.0 - qi))
    if out.ndim == 0:
        return float(out)
    return out


def sym_eig(M, sym_tol=1e-12):
    """Deterministic eigendecomposition of a symmetric matrix.

    Returns (spectrum, E) with the spectrum descending and

        M = E.T @ diag(spectrum) @ E,   E @ E.T = I.

    Rows of E are the eigenvectors.  Sign convention: the first component
    of each eigenvector exceeding 1e-12 of the row's max magnitude is made
    positive, so repeated calls (and platforms) agree.
    """
    M = np.asarray(M, dtype=float)
    if M.ndim != 2 or M.shape[0] != M.shape[1]:
        raise DomainError("sym_eig: square matrix required")
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


def water_level(values, total):
    """Exact level L with sum_i min(L, v_i) = total, in O(p log p).

    The sum is piecewise linear in L with breakpoints at the sorted values.
    A total at or above sum(v) lands on the last piece, extended past
    max(v), so a saturated total that differs from sum(v) only by summation
    order still gives max(v) to rounding.  Reverse water-filling is
    (lambda, D); capacity water-filling is (-q, -(P + sum q)), level -nu.
    """
    v = np.sort(np.asarray(values, dtype=float).reshape(-1))
    below = np.concatenate(([0.0], np.cumsum(v[:-1])))  # sum of v_(i), i < j
    above = v.size - np.arange(v.size)  # count of v_(i), i >= j
    j = min(int(np.searchsorted(below + above * v, total)), v.size - 1)
    return (total - float(below[j])) / int(above[j])


def solve_discrete_lyapunov(A, Q):
    """X = A X A' + Q for a stable A (spectral radius < 1) by Smith doubling,
    X <- X + A_k X A_k' and A_k <- A_k^2, in O(m^2) memory.  The tail left
    after A_k is below ||A_k||_F^2 ||X||, so the loop stops once ||A_k||_F^2
    <= eps; NumericError if 64 doublings (2^64 terms) do not get there."""
    Ak = np.asarray(A, dtype=float)
    X = np.asarray(Q, dtype=float)
    with np.errstate(over="ignore", invalid="ignore"):
        for _ in range(64):
            X = X + Ak @ X @ Ak.T
            Ak = Ak @ Ak
            if not (np.all(np.isfinite(X)) and np.all(np.isfinite(Ak))):
                break
            if float(np.sum(Ak * Ak)) <= np.finfo(float).eps:
                return 0.5 * (X + X.T)
    raise NumericError("solve_discrete_lyapunov: doubling did not converge")


def logsumexp(a, axis=None):
    """log(sum(exp(a))) along `axis` without overflow; -inf entries add 0."""
    a = np.asarray(a, dtype=float)
    shift = np.max(a, axis=axis, keepdims=True)
    shift[~np.isfinite(shift)] = 0.0
    total = np.sum(np.exp(a - shift), axis=axis)
    with np.errstate(divide="ignore"):
        return np.log(total) + np.squeeze(shift, axis=axis)


def bisect_monotone(f, lo, hi, tol, max_iter=200):
    """Bisection for a zero of a monotone function on [lo, hi].

    Stops when |f(mid)| <= tol or the interval width falls below tol.
    """
    if not (tol > 0.0):
        raise DomainError("bisect_monotone: tol must be positive")
    lo = float(lo)
    hi = float(hi)
    flo = f(lo)
    fhi = f(hi)
    if flo == 0.0:
        return lo
    if fhi == 0.0:
        return hi
    if (flo > 0.0) == (fhi > 0.0):
        raise DomainError("bisect_monotone: f(lo) and f(hi) do not bracket zero")
    for _ in range(max_iter):
        mid = 0.5 * (lo + hi)
        fm = f(mid)
        if abs(fm) <= tol or (hi - lo) <= tol:
            return mid
        if (fm > 0.0) == (fhi > 0.0):
            hi, fhi = mid, fm
        else:
            lo, flo = mid, fm
    return 0.5 * (lo + hi)


def _cubic_eval(c3, c2, c1, c0, x):
    return ((c3 * x + c2) * x + c1) * x + c0


def cubic_positive_root(c3, c2, c1, c0):
    """Largest real root of c3 x^3 + c2 x^2 + c1 x + c0 (c3 != 0).

    Residual is guaranteed <= 1e-9 * max|c_i| (Newton-polished); the caller
    asserts positivity when the root must be positive.
    """
    if c3 == 0.0:
        raise DomainError("cubic_positive_root: leading coefficient is zero")
    roots = np.roots([c3, c2, c1, c0])
    real = roots.real[np.abs(roots.imag) <= 1e-8 * (1.0 + np.abs(roots.real))]
    if real.size == 0:
        raise NumericError("cubic_positive_root: no real root found")
    x = float(np.max(real))
    # companion-matrix roots can carry O(1e-12) error; polish but never accept
    # a Newton step that increases the residual
    for _ in range(4):
        fx = _cubic_eval(c3, c2, c1, c0, x)
        fpx = (3.0 * c3 * x + 2.0 * c2) * x + c1
        if fpx == 0.0:
            break
        cand = x - fx / fpx
        if abs(_cubic_eval(c3, c2, c1, c0, cand)) < abs(fx):
            x = cand
        else:
            break
    scale = max(abs(c3), abs(c2), abs(c1), abs(c0))
    if abs(_cubic_eval(c3, c2, c1, c0, x)) > 1e-9 * scale:
        raise NumericError("cubic_positive_root: residual exceeds tolerance")
    return x


def _reachable_everywhere(mask):
    # boolean reachability closure by repeated squaring; matrices here are tiny
    n = mask.shape[0]
    reach = mask | np.eye(n, dtype=bool)
    for _ in range(max(1, int(math.ceil(math.log2(max(n, 2)))))):
        reach = (reach.astype(np.int64) @ reach.astype(np.int64)) > 0
    return bool(reach.all())


def perron_eigenvalue(M, tol=1e-12, max_iter=10**6):
    """Spectral radius of an irreducible nonnegative matrix by power iteration.

    A diagonal shift keeps the iteration convergent for periodic matrices
    (rho(M + cI) = rho(M) + c for nonnegative M).
    """
    M = np.asarray(M, dtype=float)
    if M.ndim != 2 or M.shape[0] != M.shape[1]:
        raise DomainError("perron_eigenvalue: square matrix required")
    if np.any(M < 0.0) or not np.all(np.isfinite(M)):
        raise DomainError("perron_eigenvalue: nonnegative finite matrix required")
    scale = float(M.max())
    if scale <= 0.0:
        raise DomainError("perron_eigenvalue: zero matrix")
    if not _reachable_everywhere(M > 0.0):
        raise DomainError("perron_eigenvalue: matrix is reducible")
    n = M.shape[0]
    shift = scale
    v = np.full(n, 1.0 / n)
    est = 0.0
    for _ in range(int(max_iter)):
        w = M @ v + shift * v
        s = float(w.sum())  # 1-norm; v stays nonnegative throughout
        v = w / s
        new_est = s - shift
        if abs(new_est - est) <= tol * max(abs(new_est), 1e-300):
            return new_est
        est = new_est
    raise NumericError("perron_eigenvalue: power iteration did not converge")


def maximize_concave_1d(g, lo, hi, tol=1e-10):
    """Golden-section maximization of a concave function on [lo, hi].

    Returns (argmax, g(argmax)); the argmax is within tol of the true
    maximizer (boundary maxima included).
    """
    if not lo < hi:
        raise DomainError("maximize_concave_1d: need lo < hi")
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


_SHARD_FANOUT = 2**20


@dataclass(frozen=True)
class RngStream:
    """Reproducible random stream: (seed, stream_id) pins every draw bit-exactly."""

    seed: int
    stream_id: int = 0

    def generator(self) -> np.random.Generator:
        ss = np.random.SeedSequence(entropy=self.seed, spawn_key=(self.stream_id,))
        return np.random.Generator(np.random.PCG64(ss))

    def shard(self, index: int) -> "RngStream":
        """Independent child stream for shard `index` (index < 2**20 - 1)."""
        if not 0 <= index < _SHARD_FANOUT - 1:
            raise DomainError("RngStream.shard: index out of range")
        return RngStream(self.seed, self.stream_id * _SHARD_FANOUT + 1 + index)
