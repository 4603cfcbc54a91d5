"""Odd Jacobi theta function, the normalized bracket, and the elliptic
dynamical R-matrix with its special values at z = +-1.

theta(z, tau) = -sum_m exp(i*pi*(m+1/2)^2*tau + 2*pi*i*(m+1/2)*(z+1/2))

[z] = theta(gamma*z, tau) / (gamma * theta'(0, tau)) has derivative 1 at 0
and first-order zeros exactly on Lambda = Z/gamma + Z*tau/gamma.

The R-matrix is a plain n^2 x n^2 array on C^n (x) C^n, whose row and
column of e_i (x) e_j is `pair_index(n, i, j)` (every reader indexes it so):

    R(z,a) = sum_i E_ii (x) E_ii
           - sum_{i!=j} [a_i-a_j+1][z] / ([a_i-a_j][1-z]) E_ij (x) E_ji
           + sum_{i!=j} [a_i-a_j+z][1] / ([a_i-a_j][1-z]) E_ii (x) E_jj.

Its residue at z = 1 and its value at z = -1 are the same formula with other
coefficients, so one builder fills all three, each as a table of many points
from one array bracket call that evaluates each distinct bracket argument
once (`r_table`, with one spectral parameter per row, `r_reg1`, `r_minus1`;
`r_matrix` is the one-row `r_table`).  The builder finds each entry's
distinct (difference, shift) slot by integer arrays and forms each slot's
entries once, in Python complex arithmetic, so a row equals its one-point
build bit for bit.  Every caller makes one table for all its spectral
parameters: unitarity for z and -z of all its samples, Yang-Baxter for the
3 + 3n rows of all its samples, the residue oracle for its three eps rows,
`rsos.restricted_r` and `rsos.restriction_residual` for all their z (so a
chain's L(z) for its sites z + u_k at every z of a stack),
`rsos.star_triangle_residual` for all its pairs.  Over large point or sample
sets callers table run by run (`table_runs`), each stating the entries one
point or sample costs (n^4 per spectral parameter over the points
themselves, 2 n^4 per unitarity sample, 3 (n + 1) n^4 table entries and
4 n^6 for the n^3 x n^3 operators alive at once per Yang-Baxter sample,
within YBE_SAMPLE_BUDGET), so no run exceeds TABLE_BUDGET entries.  The
star-triangle and restriction checks size their point runs by one spectral
pair or z (3 (n + 1) n^4 over a point and its successors, n^4 over a point)
and cut each run's spectral parameters by `table_runs` too, so that each
tile, a run of points by a run of parameters, is one table within
TABLE_BUDGET entries; `transfer.transfer_matrix` cuts its stacked L(z)
evaluations under the same budget.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from functools import lru_cache
from itertools import chain, repeat
from operator import add, itemgetter, mul, sub, truediv

import numpy as np

from .errors import InvalidConfig, InvalidTau, NearPole, TooLarge, check_budget
from .groupoid import WeightPoint, eps

_TAIL_LOG10 = 17.0  # discard terms below 1e-17 relative
_LOG_FLOAT_MAX = math.log(sys.float_info.max)
THETA_TERM_BUDGET = 10_000  # series terms per entry
POLE_GUARD = 1e-8  # smallest bracket modulus accepted in a denominator
# complex entries (16 MiB) of one R-matrix table built by a caller over many
# points; larger point sets are tabled run by run (`table_runs`)
TABLE_BUDGET = 2 ** 20
# complex entries (512 MiB) of one Yang-Baxter sample: its table rows and the
# four n^3 x n^3 operators alive at once, which no run can split
YBE_SAMPLE_BUDGET = 2 ** 25


def _truncation(z, tau: complex):
    """Series cut N for each entry of z (2N + 1 terms): the tail stays below
    1e-17 relative.

    Checked before any series is allocated: the longest series must fit
    THETA_TERM_BUDGET, and no partial sum may leave the float64 range; the
    largest term has modulus exp(pi Im(z)^2 / Im tau)."""
    t = complex(tau).imag
    y = np.abs(np.imag(z))
    with np.errstate(over="ignore"):  # a tiny Im tau overflows to inf terms
        n = y / t + math.sqrt(_TAIL_LOG10 * math.log(10.0) / (math.pi * t))
        peak = math.pi * np.fmax.reduce(y, axis=None, initial=0.0) ** 2 / t
    longest = np.fmax.reduce(n, axis=None, initial=0.0)  # NaN entries ignored
    terms = 2 * max(12.0, np.ceil(longest) + 1) + 1
    check_budget("THETA_TERM_BUDGET", terms, THETA_TERM_BUDGET,
                 "series terms per entry")
    if peak > _LOG_FLOAT_MAX - math.log(terms):
        raise TooLarge(f"float64 range: {terms:.0f} theta terms up to "
                       f"exp({peak:.6g}) requested, limit "
                       f"exp({_LOG_FLOAT_MAX - math.log(terms):.6g}) per term")
    return np.maximum(12, np.ceil(n).astype(int) + 1)


def _like(z, values: np.ndarray):
    """A complex for scalar z, else values in the shape of z."""
    return complex(values[0]) if np.ndim(z) == 0 else values.reshape(np.shape(z))


def reduced_tau(tau: complex) -> complex:
    """tau with Re tau reduced mod 8, as every theta series is summed:
    theta(z | tau + 8) = theta(z | tau), and fmod leaves |Re tau| < 8
    unchanged.  Raises InvalidTau unless Im tau > 0."""
    t = complex(tau)
    if t.imag <= 0:
        raise InvalidTau(f"Im tau must be positive, got {tau}")
    return complex(math.fmod(t.real, 8.0), t.imag)


def theta(z, tau: complex, truncation: int | None = None):
    """Odd Jacobi theta function of a scalar or an array z; each entry keeps its
    own truncation, so an array entry equals the scalar call bit for bit."""
    tau = reduced_tau(tau)
    zs = np.asarray(z, dtype=complex).ravel()
    cuts = _truncation(zs, tau) if truncation is None else np.full(zs.shape, truncation)
    out = np.empty(zs.shape, dtype=complex)
    for N in set(cuts.tolist()):
        rows = cuts == N
        half = np.arange(-N, N + 1) + 0.5
        expo = (1j * math.pi * half * half * tau
                + 2j * math.pi * half * (zs[rows][:, None] + 0.5))
        out[rows] = -np.exp(expo).sum(axis=1)
    return _like(z, out)


@lru_cache(maxsize=64)
def theta_dz0(tau: complex) -> complex:
    """theta'(0, tau) from the term-wise differentiated series."""
    tau = reduced_tau(tau)
    N = _truncation(0.0, tau)
    m = np.arange(-N, N + 1)
    half = m + 0.5
    expo = 1j * math.pi * half * half * tau + 1j * math.pi * half
    return complex(-(2j * math.pi * half * np.exp(expo)).sum())


@dataclass(frozen=True)
class EllipticParams:
    """Fixed modular data: tau in the upper half plane, gamma off Z + tau*Z.

    For the restricted model gamma = 1/r; which levels are admissible is the
    model's rule (`ModelKind`), not this one's.
    """

    tau: complex
    gamma: complex
    rank: int

    def __post_init__(self):
        if complex(self.tau).imag <= 0:
            raise InvalidTau(f"Im tau must be positive, got {self.tau}")
        if self.rank < 2:
            raise InvalidConfig("rank must be >= 2")
        # gamma on the theta zero lattice Z + tau*Z makes every bracket vanish
        scale = abs(theta_dz0(self.tau))
        # every bracket divides by it: a subnormal one has lost its precision
        if scale < sys.float_info.min:
            raise InvalidTau(f"theta'(0, tau) = {scale:.3g} is below the "
                             f"smallest normal float at {self.tau}")
        if abs(theta(self.gamma, self.tau)) < 1e-10 * scale:
            raise InvalidConfig(f"gamma={self.gamma} lies on Z + tau*Z")

    @classmethod
    def rsos(cls, rank: int, r: int, tau: complex) -> "EllipticParams":
        if r == 0:
            raise InvalidConfig("gamma = 1/r needs a level r != 0")
        return cls(tau=tau, gamma=1.0 / r, rank=rank)


def bracket(z, params: EllipticParams):
    """[z] = theta(gamma*z, tau)/(gamma*theta'(0, tau)) of a scalar or an array z.

    The scaling runs per entry in Python complex arithmetic, because numpy's
    complex multiply and divide round differently from the scalar call."""
    args = list(map(mul, repeat(params.gamma),
                    np.asarray(z, dtype=complex).ravel().tolist()))
    nums = theta(args, params.tau).tolist()
    scale = params.gamma * theta_dz0(params.tau)
    return _like(z, np.fromiter(map(truediv, nums, repeat(scale)), complex,
                                len(nums)))


def _guarded(value: complex, what: str) -> complex:
    if abs(value) < POLE_GUARD:
        raise NearPole(f"denominator {what} has modulus {abs(value):.2e}")
    return value


def pair_index(n: int, i, j):
    """Row of e_i (x) e_j in the row-major basis of C^n (x) C^n, with 1-based
    i and j (ints or int arrays): the one index of every R-matrix entry."""
    return (i - 1) * n + (j - 1)


def _flat_r(points, shifts, params: EllipticParams, diagonal: float,
            extra, coeffs) -> np.ndarray:
    """R = diagonal sum_i E_ii(x)E_ii + sum_{i!=j} [d+1] X/([d] Y) E_ij(x)E_ji
    + sum_{i!=j} [d+s] W/([d] Y) E_ii(x)E_jj with d = a_i - a_j, for each
    point a of `points` with its shift s of `shifts`, stacked as a
    (len(points), n^2, n^2) array.

    The distinct points, shifts and differences d are numbered once (the
    differences from each distinct point's coordinates, which a table at
    many spectral parameters repeats), and one `np.unique` over the integer
    keys (difference code, shift code) of every (row, i != j) gives each
    entry its distinct (d, s) slot.  One array bracket call evaluates each
    distinct argument once: `extra(s)` per distinct shift s, which coeffs
    maps to that shift's (X, W, Y), [d] and [d+1] per distinct d, and [d+s]
    per slot.  The two entries of each slot are formed by `map` over the
    same Python complex operations as the one-point build, so every entry
    equals it bit for bit, and scattered by the slot index."""
    n = params.rank
    first, second = np.nonzero(~np.eye(n, dtype=bool))  # pairs i != j, 0-based
    distinct = list(dict.fromkeys(points))
    for a in distinct:
        if a.rank != n:
            raise ValueError("point rank does not match params")
    at_i, at_j = itemgetter(*first.tolist()), itemgetter(*second.tolist())
    diffs = list(chain.from_iterable(map(sub, at_i(v), at_j(v))
                                     for v in (a.values() for a in distinct)))
    ds, ss = list(dict.fromkeys(diffs)), list(dict.fromkeys(shifts))

    def codes(keys, of) -> np.ndarray:
        code = dict(zip(of, range(len(of))))
        return np.fromiter(map(code.__getitem__, keys), np.intp, len(keys))

    per_point = codes(diffs, ds).reshape(len(distinct), len(first))
    key = (per_point[codes(points, distinct)] * len(ss)
           + codes(shifts, ss)[:, None])
    slots, at_row = np.unique(key.ravel(), return_inverse=True)
    slot_d, slot_s = (slots // len(ss)).tolist(), (slots % len(ss)).tolist()
    extras = [extra(s) for s in ss]
    ones = list(map(add, ds, repeat(1)))
    sums = list(map(add, map(ds.__getitem__, slot_d),
                    map(ss.__getitem__, slot_s)))
    args = list(dict.fromkeys(chain(chain.from_iterable(extras), ds, ones,
                                    sums)))
    value = dict(zip(args, bracket(args, params).tolist())).__getitem__
    coeff = [coeffs(*map(value, e)) for e in extras]
    X, W, Y = ([c[k] for c in coeff] for k in range(3))
    br_d, br_d1 = list(map(value, ds)), list(map(value, ones))
    small = (np.abs(np.array(br_d, dtype=complex)) < POLE_GUARD)[per_point]
    if small.any():  # name the first (row, pair) in row order
        p, k = divmod(int(np.argmax(small)), len(first))
        _guarded(br_d[per_point[p, k]], f"[a_{first[k] + 1}-a_{second[k] + 1}]")
    # per slot: [d+1] X / ([d] Y) and [d+s] W / ([d] Y)
    by_d, by_s = (lambda seq: map(seq.__getitem__, slot_d),
                  lambda seq: map(seq.__getitem__, slot_s))
    below = list(map(mul, by_d(br_d), by_s(Y)))
    swap = map(truediv, map(mul, by_d(br_d1), by_s(X)), below)
    keep = map(truediv, map(mul, map(value, sums), by_s(W)), below)
    at_row = at_row.reshape(len(points), len(first))
    rows = pair_index(n, first + 1, second + 1)
    cols = pair_index(n, second + 1, first + 1)
    diag = pair_index(n, np.arange(1, n + 1), np.arange(1, n + 1))
    m = np.zeros((len(points), n * n, n * n), dtype=complex)
    m[:, diag, diag] = diagonal
    m[:, rows, cols] = np.fromiter(swap, complex, len(slots))[at_row]
    m[:, rows, rows] = np.fromiter(keep, complex, len(slots))[at_row]
    return m


def r_table(z, points, params: EllipticParams) -> np.ndarray:
    """The elliptic dynamical R-matrices over `points`, stacked as a
    (len(points), n^2, n^2) array from one bracket call: all at z, or, with
    z a sequence of len(points) spectral parameters, row k at (z[k], points[k])."""
    zs = [z] * len(points) if np.ndim(z) == 0 else list(z)
    if len(zs) != len(points):
        raise ValueError(f"one spectral parameter per point required: "
                         f"{len(zs)} given for {len(points)} points")
    return _flat_r(points, zs, params, 1.0, lambda u: (u, 1, 1 - u),
                   lambda bz, one, den_z: (-bz, one, _guarded(den_z, "[1-z]")))


def table_runs(points, cost: int) -> list:
    """(offset, run) pairs cutting `points` into consecutive runs of at most
    TABLE_BUDGET / cost points (at least one), where `cost` is the table
    entries one point adds to its run, so that a run's tables stay within
    TABLE_BUDGET entries."""
    step = max(1, TABLE_BUDGET // cost)
    return [(k, points[k:k + step]) for k in range(0, len(points), step)]


def r_matrix(z: complex, a: WeightPoint, params: EllipticParams) -> np.ndarray:
    """The elliptic dynamical R-matrix at (z, a): the one-point row of
    `r_table`."""
    return r_table(z, [a], params)[0]


def r_reg1(points, params: EllipticParams) -> np.ndarray:
    """Residues of the R-matrix at its pole z = 1, stacked over `points`.

    Closed form sum_{i!=j} [a_i-a_j+1][1]/[a_i-a_j] (E_ij(x)E_ji - E_ii(x)E_jj).
    """
    return _flat_r(points, [1] * len(points), params, 0.0, lambda _: (1,),
                   lambda one: (one, -one, 1))


def r_minus1(points, params: EllipticParams) -> np.ndarray:
    """The R-matrices at z = -1, where they degenerate, stacked over `points`.

    Each equals r_matrix(-1, a) wherever the latter is defined: identity on
    the diagonal sectors e_i (x) e_i and
    [a_i-a_j+1][1]/([a_i-a_j][2]) (E_ij(x)E_ji) + [a_i-a_j-1][1]/([a_i-a_j][2]) (E_ii(x)E_jj)
    off the diagonal.
    """
    return _flat_r(points, [-1] * len(points), params, 1.0, lambda _: (1, 2),
                   lambda one, two: (one, one, _guarded(two, "[2]")))


def _ybe_residuals(run, params: EllipticParams) -> np.ndarray:
    """The Yang-Baxter residual of each (z, w, a) sample of `run`, from one
    table of the run's rows and triple products stacked over the run."""
    n = params.rank
    n2, n3 = n * n, n ** 3
    shifts = [eps(n, i) for i in range(1, n + 1)]
    table = r_table([u for z, w, _ in run for u in (z, w, z - w)
                     for _ in range(n + 1)],
                    [b for *_, a in run for _ in range(3)
                     for b in (a, *(a + mu for mu in shifts))],
                    params).reshape(len(run), 3, n + 1, n2, n2)
    eye = np.eye(n)[:, None, :]

    def r12(k: int) -> np.ndarray:
        """R^(12) = R (x) I at the samples' k-th spectral parameter, by the
        broadcast multiply of np.kron."""
        return (table[:, k, 0, :, None, :, None] * eye).reshape(-1, n3, n3)

    def r23(k: int) -> np.ndarray:
        """R^(23) at the samples' k-th spectral parameter: its i-th diagonal
        block is the R-matrix at a + eps_i, as the first factor's weight
        shifts it."""
        m = np.zeros((len(run), n, n2, n, n2), dtype=complex)
        m[:, range(n), :, range(n), :] = np.moveaxis(table[:, k, 1:], 1, 0)
        return m.reshape(-1, n3, n3)

    # each factor is built where it is multiplied in: at most four n^3 x n^3
    # operators per sample are alive at once
    lhs = r23(2) @ r12(0) @ r23(1)
    rhs = r12(1) @ r23(0) @ r12(2)
    scale = np.maximum(np.abs(lhs).max(axis=(1, 2)),
                       np.abs(rhs).max(axis=(1, 2)))
    return np.abs(lhs - rhs).max(axis=(1, 2)) / scale


def dynamical_ybe_residual(samples, params: EllipticParams) -> float:
    """Relative max-norm residual of the dynamical Yang-Baxter equation, the
    largest over the (z, w, a) of `samples`: max |lhs - rhs| over the largest
    |entry| of lhs and rhs, where

    R^(23)(z-w, a+h^(1)) R^(12)(z, a) R^(23)(w, a+h^(1))
      = R^(12)(w, a) R^(23)(z, a+h^(1)) R^(12)(z-w, a).

    A sample's 3 + 3n R-matrices, at a and at each a + eps_i for each of
    its three spectral parameters, are rows of one table per run of
    `table_runs` over the samples, and both triple products are stacked
    over the run.  A sample costs its table rows and the four n^3 x n^3
    operators alive at once: a product, its two factors and the other
    product; a sample over YBE_SAMPLE_BUDGET is refused before any table
    is built.
    """
    n = params.rank
    cost = 3 * (n + 1) * n ** 4 + 4 * n ** 6
    check_budget("YBE_SAMPLE_BUDGET", cost, YBE_SAMPLE_BUDGET,
                 "complex entries per Yang-Baxter sample")
    worst = 0.0
    for _, run in table_runs(samples, cost):
        worst = max(worst, float(_ybe_residuals(run, params).max()))
    return worst


def unitarity_residual(samples, params: EllipticParams) -> float:
    """Max-norm residual of R(z,a) R(-z,a) = Id, the largest over the (z, a)
    of `samples`.  Each run of `table_runs` over the samples is one table of
    its rows at z and at -z."""
    n2 = params.rank ** 2
    worst = 0.0
    for _, run in table_runs(samples, 2 * n2 * n2):
        us, points = zip(*run)
        table = r_table([*us, *(-u for u in us)], points * 2, params)
        m = table[:len(run)] @ table[len(run):]
        worst = max(worst, float(np.abs(m - np.eye(n2)).max()))
    return worst


def residue_extrapolation(points, params: EllipticParams) -> np.ndarray:
    """Numerical residues of the R-matrix at z=1 over `points`, stacked like
    `r_reg1`, by Richardson extrapolation of eps * R(1 + eps, a); each run of
    `table_runs` is one table of its three eps rows.  Independent oracle for
    r_reg1."""
    xs = (1e-4, 1e-5, 1e-6)
    n2 = params.rank ** 2
    out = np.empty((len(points), n2, n2), dtype=complex)
    for offset, run in table_runs(points, len(xs) * n2 * n2):
        rows = r_table([1.0 + s for s in xs for _ in run], list(run) * len(xs),
                       params).reshape(len(xs), len(run), n2, n2)
        table = [s * m for s, m in zip(xs, rows)]
        # Neville extrapolation to eps = 0 through the three sample points
        for level in range(1, len(xs)):
            table = [(xs[k] * table[k + 1] - xs[k + level] * table[k])
                     / (xs[k] - xs[k + level]) for k in range(len(table) - 1)]
        out[offset:offset + len(run)] = table[0]
    return out
