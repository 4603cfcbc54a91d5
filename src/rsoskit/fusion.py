"""Symmetric/exterior squares from the z = +-1 degenerations, exterior-power
characters, the rank-2 fusion ring, and exact diagonalization of the
character difference operators by one table of their eigenfunctions.

ch_{Lambda^k V} = chi_A e_k(t_1,...,t_n) chi_A with e_k the elementary
symmetric polynomial in the shift generators; on the rank-2 alcove the
symmetric-power characters L_p generate the Verlinde algebra

    L_p L_q = sum_{s = p+q mod 2} N_pq^s u^{(p+q-s)/2} L_s,  u = t_1 t_2,

checked with its commutativity and associativity in float64 BLAS products
of the L_p's stacked matrix forms, stacked over runs of label pairs and
exact while every partial sum <= 2^53; u^k is the identity on the rank-2
alcove (its arrows are loops), so each Verlinde sum is sum_s N_pq^s L_s.
"""

from __future__ import annotations

import cmath
from dataclasses import dataclass
from itertools import combinations

import numpy as np

from .convolution import (ConvolutionElement, matrix_form,
                          to_difference_operator)
from .elliptic import (EllipticParams, bracket, pair_index, r_minus1, r_reg1,
                       table_runs)
from .errors import (InvalidConfig, OutOfRange, ShapeMismatch, TooLarge,
                     check_budget)
from .groupoid import (Arrow, ModelKind, WeightPoint, add_vectors,
                       arrow_with_target, eps)

RANK_TOL = 1e-8
SPECTRUM_TOL = 1e-10
# alcove points of psi_table, |A|^2 complex entries: `verify spectrum` takes
# 3.9 s at 199 MB peak RSS on the 1,953 of (n, r) = (3, 64), 1.5 s at 111 MB
# on the 1,176 of (3, 50) (whole process, CPython 3.11, 2 cores, 1 BLAS thread)
SPECTRUM_BUDGET = 2_000


@dataclass
class SectorBases:
    """Kernel/image data of the degenerate R-matrix values on one weight
    sector of the graded square at a point."""

    shift: tuple[int, ...]
    case: str                      # "diagonal" | "interior" | "boundary"
    paths: list[tuple[int, int]]   # admissible step pairs, basis order
    sym_dim: int
    antisym_dim: int
    minus_one_block: np.ndarray
    reg_one_block: np.ndarray
    residual: float                # subspace-equality + containment residual


@dataclass
class FusionBases:
    point: WeightPoint
    sectors: list[SectorBases]
    residue: np.ndarray  # r_reg1 at the point, the n^2 x n^2 array

    @property
    def max_residual(self) -> float:
        return max((s.residual for s in self.sectors), default=0.0)


def _spans(blocks: np.ndarray):
    """Ranks of a (S, k, k) stack of blocks and the projectors p pinv(p) onto
    the image span p = u[:, :rank] and kernel span p = vh[rank:]^H of each,
    from one SVD and one pinv per span and rank; an empty span's is zero."""
    u, s, vh = np.linalg.svd(blocks)
    # blocks are O(1) ratios of brackets; exact zeros arrive as ~1e-16 noise,
    # so the threshold needs an absolute floor next to the relative one
    ranks = (s > RANK_TOL * np.maximum(1.0, s[:, :1])).sum(-1)
    image, kernel = np.zeros_like(blocks), np.zeros_like(blocks)
    for rank in set(ranks.tolist()):  # np.unique would import numpy.ma
        at = ranks == rank
        kernel_span = vh[at][:, rank:].conj().transpose(0, 2, 1)
        for proj, span in ((image, u[at][:, :, :rank]), (kernel, kernel_span)):
            if span.shape[-1]:
                proj[at] = span @ np.linalg.pinv(span)
    return ranks, image, kernel


def _residuals(blk_m, blk_r, dims, anti_vecs) -> np.ndarray:
    """Residual of each sector of stacked k x k blocks of R(-1) and R_reg(1)
    with (symmetric, exterior) dimensions `dims`: the projector gaps of each
    image to the other's kernel, and the relative part off each image of its
    spanning vector, units or a row of `anti_vecs`, if its dimension is 1."""
    sym, anti = dims.T
    rank_m, im_m, ker_m = _spans(blk_m)
    rank_r, im_r, ker_r = _spans(blk_r)
    residual = np.maximum(np.abs(im_m - ker_r).max(axis=(1, 2)),
                          np.abs(im_r - ker_m).max(axis=(1, 2)))
    residual[rank_m + rank_r != blk_m.shape[-1]] = 1.0  # unequal dimensions
    v = anti_vecs[:, :, None]  # (S, k, 1)
    for proj, vecs, dim in ((im_m, np.ones_like(v), sym), (im_r, v, anti)):
        off = np.abs(vecs - proj @ vecs).max(axis=(1, 2)) / np.maximum(
            np.abs(vecs).max(axis=(1, 2)), 1e-30)
        residual = np.maximum(residual, np.where(dim, off, 0.0))
    # at least 1.0 where a rank is not its dimension
    return np.maximum(residual, (rank_m != sym) | (rank_r != anti))


def fusion_bases(points, kind: ModelKind,
                 params: EllipticParams) -> list[FusionBases]:
    """Kernel/image bases of R(-1,a) and R_reg(1,a) on the graded square at
    each alcove point of `points`, in order.  Each run of `table_runs` makes
    one r_minus1 table, one r_reg1 table, one bracket call for the explicit
    vectors of its interior sectors and one stack per block size k."""
    n = kind.rank
    out = []
    for _, run in table_runs(points, 2 * n ** 4):
        # [d + 1] and [d - 1] per distinct d = a_i - a_j, i < j, of the run
        args = list(dict.fromkeys(a.diff(i, j) + s for a in run
                                  for i in range(1, n) for j in range(i + 1, n + 1)
                                  for s in (1, -1)))
        known = dict(zip(args, bracket(args, params).tolist()))
        m_minus, m_reg = r_minus1(run, params), r_reg1(run, params)
        stacks = {}  # k -> (run position, indices, sector, exterior vector)
        for t, a in enumerate(run):
            weights: dict[tuple[int, int], list] = {}
            for p in kind.paths(a, 2):  # eps_i + eps_j, i <= j, per path
                weights.setdefault(tuple(sorted(p)), []).append(p)
            sectors = []
            for (i, j), paths in sorted(weights.items()):
                # closed-form spanning vector in path coordinates: units, but
                # [d+1] e_i(x)e_j - [d-1] e_j(x)e_i (d = a_i - a_j) if interior
                vector = [1] * len(paths)
                if i == j:
                    case, sym, anti = "diagonal", 1, 0
                elif len(paths) == 2:
                    case, sym, anti = "interior", 1, 1
                    paths.sort(key=lambda p: (a + eps(n, p[0])).sort_key())
                    d = a.diff(i, j)
                    vector = [known[d + 1] if p == (i, j) else -known[d - 1]
                              for p in paths]
                else:
                    case, sym, anti = "boundary", 0, 1
                sectors.append(SectorBases(
                    shift=add_vectors(eps(n, i), eps(n, j)), case=case,
                    paths=paths, sym_dim=sym, antisym_dim=anti,
                    minus_one_block=None, reg_one_block=None, residual=0.0))
                stacks.setdefault(len(paths), []).append(
                    (t, [pair_index(n, *p) for p in paths], sectors[-1],
                     vector))
            out.append(FusionBases(point=a, sectors=sectors, residue=m_reg[t]))
        for of_k in stacks.values():  # fill in blocks and residuals
            rows, at, members, vectors = zip(*of_k)
            rows, at = np.array(rows)[:, None, None], np.array(at)
            blk_m = m_minus[rows, at[:, :, None], at[:, None, :]]
            blk_r = m_reg[rows, at[:, :, None], at[:, None, :]]
            dims = np.array([(s.sym_dim, s.antisym_dim) for s in members])
            worst = _residuals(blk_m, blk_r, dims, np.array(vectors, complex))
            for sector, m, reg, res in zip(members, blk_m, blk_r,
                                           worst.tolist()):
                sector.minus_one_block, sector.reg_one_block = m, reg
                sector.residual = res
    return out


def exterior_character(k: int, kind: ModelKind) -> ConvolutionElement:
    """Character of the k-th exterior power: chi_A e_k(t) chi_A."""
    n = kind.rank
    _check_exterior_degree(k, n)
    inside = kind.alcove_index()
    coeffs = {}
    for a in kind.alcove():
        for subset in combinations(range(1, n + 1), k):
            mu = (0,) * n
            for i in subset:
                mu = add_vectors(mu, eps(n, i))
            if (a + mu) in inside:
                coeffs[Arrow(a, mu)] = 1
    return ConvolutionElement(kind, coeffs)


def _check_exterior_degree(k: int, n: int) -> None:
    if not 0 <= k <= n:
        raise OutOfRange(f"exterior degree {k} outside 0..{n}")


def sym_square_character(kind: ModelKind) -> ConvolutionElement:
    """Character of the symmetric square from its closed form."""
    n = kind.rank
    inside = kind.alcove_index()
    coeffs = {}
    for a in kind.alcove():
        for i in range(1, n + 1):
            mu = add_vectors(eps(n, i), eps(n, i))
            if a + mu in inside:
                coeffs[Arrow(a, mu)] = 1
        for i in range(1, n + 1):
            for j in range(i + 1, n + 1):
                if a + eps(n, i) in inside and a + eps(n, j) in inside:
                    coeffs[Arrow(a, add_vectors(eps(n, i), eps(n, j)))] = 1
    return ConvolutionElement(kind, coeffs)


def _rank2_level(kind: ModelKind) -> int:
    if kind.rank != 2 or not kind.is_restricted:
        raise InvalidConfig(f"rank-2 characters need a restricted rank-2 "
                            f"model, got {kind!r}")
    return kind.level


def sym_power_character_n2(p: int, kind: ModelKind) -> ConvolutionElement:
    """Character L_p of the p-th symmetric power over the rank-2 model `kind`
    of level r:
    chi_[1,r-p-1] t_1^p + chi_[2,r-p] t_1^{p-1} t_2 + ... + chi_[p+1,r-1] t_2^p.
    Each arrow starts at a point of `kind.alcove()`, whose entry l - 1 has
    level coordinate l, and carries its target from there.
    """
    r = _rank2_level(kind)
    if not 0 <= p <= r - 2:
        raise OutOfRange(f"symmetric power {p} outside 0..{r - 2}")
    at = kind.alcove()
    # (l, 0) + (p - j, j) has level coordinate l + p - 2j
    return ConvolutionElement(kind, {
        arrow_with_target(at[l - 1], (p - j, j), at[l + p - 2 * j - 1]): 1
        for j in range(p + 1) for l in range(1 + j, r - p + j)})


def central_element_n2(kind: ModelKind, power: int = 1) -> ConvolutionElement:
    """u^power with u = t_1 t_2, cut to the alcove subring of the rank-2
    model `kind`; its arrows are loops, so each carries its source as its
    target."""
    _rank2_level(kind)
    shift = (power, power)
    return ConvolutionElement(kind, {arrow_with_target(a, shift, a): 1
                                     for a in kind.alcove()})


def fusion_coeff(p: int, q: int, s: int, r: int) -> int:
    """Verlinde coefficient N_pq^s of the level r-2 rank-2 fusion ring.

    s may exceed r-2: the truncation bound min(p+q, 2r-4-p-q) then forces 0.
    """
    for x in (p, q):
        if not 0 <= x <= r - 2:
            raise OutOfRange(f"label {x} outside 0..{r - 2}")
    if s < 0:
        raise OutOfRange("fusion labels are non-negative")
    if (p + q - s) % 2 != 0:
        return 0
    return int(abs(p - q) <= s <= min(p + q, 2 * r - 4 - p - q))


def verify_fusion_rules(r: int) -> tuple[int, int, int]:
    """Mismatch counts (rules, symmetry, associativity) of the exact checks
    L_p L_q = sum_s N_pq^s u^{(p+q-s)/2} L_s and L_p L_q = L_q L_p for every
    pair, and (L_p L_q) L_s = L_p (L_q L_s) for every triple, over one rank-2
    model, in float64 products of the stacked |A| x |A| matrix forms.  Every
    product is an exact integer matrix unless TooLarge is raised first,
    before any count, so the associativity count compares exact integer
    products.  Each u^k is checked once to be the identity matrix (else
    ShapeMismatch).

    The pairs (p, q) are taken q by q, p within q, and cut into runs by
    `table_runs`, a pair costing its m |A|^2 entries of (L_p L_q) L_s over
    all s; each run forms its L_p L_q, L_q L_p and Verlinde sums in one
    stacked product each, (L_p L_q) L_s in one GEMM and L_p (L_q L_s) in
    one GEMM per label q it meets."""
    kind = ModelKind.rsos(2, r)
    labels, m, size = range(r - 1), r - 1, len(kind.alcove())
    # L_p has degree p, so every compared block has degree p + q
    chars = np.array([matrix_form(sym_power_character_n2(p, kind), p)
                      for p in labels])
    # u^k with k = (p+q-s)/2 <= min(p, q), so every power is in range(r - 1);
    # its arrows (a, (k, k)) are loops, so it drops out of the Verlinde sums
    for k in labels:
        if not np.array_equal(matrix_form(central_element_n2(kind, k), 2 * k),
                              np.eye(size)):
            raise ShapeMismatch(f"u^{k} is not the identity on the alcove")
    tall, wide = chars.reshape(-1, size), np.hstack(chars)  # block p: L_p
    top = np.abs(chars).max()
    # largest |entry| of each L_q L_s, from runs of rows of tall @ wide
    most = np.concatenate([
        np.abs(tall[start * size:(start + len(run)) * size] @ wide).reshape(
            len(run), size, m, size).max(1).max(2)
        for start, run in table_runs(labels, m * size * size)])
    # every entry and partial sum of a product below is at most bounds[q]
    bounds = size * top * np.maximum(np.maximum(most.max(1), most.max(0)),
                                     m * top)
    for bound in bounds.tolist():
        if bound > 2 ** 53:
            raise TooLarge(f"Verlinde products bounded by {bound:.0f} exceed "
                           "2**53, beyond which float64 drops integers")
    # row q * m + p: N_pq^s for every s, one row per pair in run order
    coeffs = np.array([[fusion_coeff(p, q, s, r) for s in labels]
                       for q in labels for p in labels], float)
    runs = table_runs(range(m * m), m * size * size)
    # (L_p L_q) L_s with block (i, s) for a run's i-th pair, and L_p (L_q L_s)
    # for the pairs of one label q: buffers sized by the first, longest run
    # and kept for all, as a fresh 8 MB product per run at r = 60 goes back
    # to the system when freed and is faulted in again by the next run
    longest = len(runs[0][1])
    left = np.empty((longest * size, m * size))
    right = np.empty((min(longest, m) * size, m * size))
    unequal = np.empty(left.shape, bool)
    rules = sym = assoc = 0
    for start, run in runs:
        end, n = start + len(run), len(run) * size
        qs, ps = np.divmod(np.arange(start, end), m)
        lp, lq = chars[ps], chars[qs]
        lpq = lp @ lq
        sym += _blocks_with(lpq != lq @ lp, size)
        verlinde = (coeffs[start:end] @ chars.reshape(m, -1)).reshape(
            lpq.shape)
        rules += _blocks_with(verlinde != lpq, size)
        np.matmul(lpq.reshape(n, size), wide, out=left[:n])
        # L_q L_s for every s, one row block per label q the run meets
        first, last = start // m, (end - 1) // m
        rows = (tall[first * size:(last + 1) * size] @ wide).reshape(
            -1, size, m * size)
        for q in range(first, last + 1):  # one GEMM per label q
            i, j = max(start, q * m), min(end, (q + 1) * m)  # its pairs
            product = np.matmul(chars[i - q * m:j - q * m].reshape(-1, size),
                                rows[q - first], out=right[:(j - i) * size])
            at = slice((i - start) * size, (j - start) * size)
            np.not_equal(left[at], product, out=unequal[at])
        assoc += _blocks_with(unequal[:n], size)
    return rules, sym, assoc


def _blocks_with(unequal: np.ndarray, size: int) -> int:
    """The number of size x size blocks of the boolean stack or matrix
    `unequal` that hold a True."""
    unequal = unequal.reshape(-1, size, unequal.shape[-1])
    return int(unequal.any(axis=1).reshape(-1, size).any(axis=1).sum())


def psi_table(kind: ModelKind) -> np.ndarray:
    """The character eigenfunctions on the alcove A of the restricted model
    `kind` as the |A| x |A| table psi[l, j] = psi_{A[l]}(A[j]), where

    psi_lambda(a) = q^{-(1/n) sum_i a_i sum_i lambda_i} det(q^{lambda_i a_j})
    with q = exp(2 pi i / r) and the n-th root fixed as exp(2 pi i / (r n)).

    Over SPECTRUM_BUDGET points raise TooLarge before anything is built;
    each run of rows takes one stacked determinant call."""
    n, r, points = kind.rank, kind.level, kind.alcove()
    check_budget("SPECTRUM_BUDGET", len(points), SPECTRUM_BUDGET, "points")
    offsets = np.array([a.offset for a in points])
    sums = offsets.sum(axis=1)
    q_pow = _powers(cmath.exp(2j * cmath.pi / r), offsets)
    root_pow = _powers(cmath.exp(2j * cmath.pi / (r * n)), sums, sign=-1)
    table = np.empty((len(points), len(points)), dtype=complex)
    for start, run in table_runs(points, len(points) * n * n):
        rows = slice(start, start + len(run))
        dets = np.linalg.det(
            q_pow[offsets[rows, None, :, None] * offsets[None, :, None, :]])
        pref = root_pow[sums[rows, None] * sums[None, :]]
        # Python's complex product; numpy's array multiply rounds differently
        table[rows].real = pref.real * dets.real - pref.imag * dets.imag
        table[rows].imag = pref.real * dets.imag + pref.imag * dets.real
    return table


def _powers(base: complex, factors: np.ndarray, sign: int = 1) -> np.ndarray:
    """base ** (sign x y) at index x y for the non-negative entries x, y of
    `factors`: one Python power per distinct product."""
    values = set(factors.ravel().tolist())
    products = {x * y for x in values for y in values}
    out = np.zeros(max(products) + 1, dtype=complex)
    for e in products:
        out[e] = base ** (sign * e)
    return out


def exterior_eigenvalue(k: int, lam: WeightPoint, n: int, r: int) -> complex:
    """e_k(q^{bar lambda_1}, ..., q^{bar lambda_n})."""
    s = sum(lam.offset)
    root = cmath.exp(2j * cmath.pi / (r * n))
    q_bar = [root ** (n * li - s) for li in lam.offset]
    return complex(sum(np.prod([q_bar[i] for i in subset])
                       for subset in combinations(range(n), k)))


@dataclass
class SpectrumReport:
    n: int
    r: int
    k: int
    eigenvalues: list[complex]
    residuals: list[float]

    @property
    def max_residual(self) -> float:
        return max(self.residuals, default=0.0)


def verify_spectrum(ks, n: int, r: int) -> list[SpectrumReport]:
    """One report per exterior degree k of the sequence `ks`: every row
    psi_lambda of one `psi_table` against the dense |A| x |A| exterior-power
    character operator of degree k and its eigenvalue e_k(q^{bar lambda}).
    Every k is checked before the table is built."""
    for k in ks:
        _check_exterior_degree(k, n)
    kind = ModelKind.rsos(n, r)
    points = kind.alcove()
    table = psi_table(kind)
    reports = []
    for k in ks:
        op = to_difference_operator(exterior_character(k, kind), points)
        evs = [exterior_eigenvalue(k, lam, n, r) for lam in points]
        reports.append(SpectrumReport(n, r, k, evs, _eigen_residuals(
            table, op.matrix(dtype=complex), evs)))
    return reports


def _eigen_residuals(table: np.ndarray, m: np.ndarray,
                     eigenvalues: list[complex]) -> list[float]:
    """max |m psi - e psi| for each row psi of `table` and its eigenvalue e,
    one matrix product per run of rows.  The dense m lives only for this
    call, so no two degrees' operators are alive beside the table at once."""
    residuals = []
    for start, run in table_runs(eigenvalues, len(eigenvalues)):
        rows = table[start:start + len(run)]
        diff = rows @ m.T
        diff -= np.array(run)[:, None] * rows
        residuals += np.abs(diff).max(axis=1).tolist()
    return residuals
