"""Symmetric/exterior squares from the z = +-1 degenerations, exterior-power
characters, the rank-2 fusion ring, and exact diagonalization of the
character difference operators.

ch_{Lambda^k V} = chi_A e_k(t_1,...,t_n) chi_A with e_k the elementary
symmetric polynomial in the shift generators; on the rank-2 alcove the
symmetric-power characters L_p generate the Verlinde algebra

    L_p L_q = sum_{s = p+q mod 2} N_pq^s u^{(p+q-s)/2} L_s,  u = t_1 t_2.
"""

from __future__ import annotations

import cmath
from dataclasses import dataclass, field
from itertools import combinations

import numpy as np

from .convolution import ConvolutionElement, conv_mul, to_difference_operator
from .elliptic import EllipticParams, bracket, r_minus1, r_reg1
from .errors import LambdaOutsideAlcove, OutOfRange
from .groupoid import (Arrow, Context, WeightPoint, add_vectors, eps,
                       rsos_alcove)
from .rsos import ModelKind, _same_weight

RANK_TOL = 1e-8


@dataclass
class SectorBases:
    """Kernel/image data of the degenerate R-matrix values on one weight
    sector of the graded square at a point."""

    shift: tuple[int, ...]
    pair: tuple[int, int]
    case: str                      # "diagonal" | "interior" | "boundary"
    paths: list[tuple[int, int]]   # admissible step pairs, basis order
    sym_dim: int
    antisym_dim: int
    sym_vectors: np.ndarray        # columns span im R(-1) = ker R_reg(1)
    antisym_vectors: np.ndarray    # columns span im R_reg(1) = ker R(-1)
    minus_one_block: np.ndarray
    reg_one_block: np.ndarray
    residual: float                # subspace-equality + containment residual


@dataclass
class FusionBases:
    point: WeightPoint
    sectors: list[SectorBases]

    @property
    def max_residual(self) -> float:
        return max((s.residual for s in self.sectors), default=0.0)

    @property
    def sym_dim(self) -> int:
        return sum(s.sym_dim for s in self.sectors)

    @property
    def antisym_dim(self) -> int:
        return sum(s.antisym_dim for s in self.sectors)


def _rank(s: np.ndarray) -> int:
    # blocks are O(1) ratios of brackets; exact zeros arrive as ~1e-16 noise,
    # so the threshold needs an absolute floor next to the relative one
    if s.size == 0:
        return 0
    return int((s > RANK_TOL * max(1.0, float(s[0]))).sum())


def _span_of_image(m: np.ndarray) -> np.ndarray:
    u, s, _ = np.linalg.svd(m)
    return u[:, : _rank(s)]


def _span_of_kernel(m: np.ndarray) -> np.ndarray:
    _, s, vh = np.linalg.svd(m)
    return vh[_rank(s):].conj().T


def _subspace_gap(p: np.ndarray, q: np.ndarray) -> float:
    """Max-norm difference of the orthogonal projectors onto two spans."""
    if p.shape[1] != q.shape[1]:
        return 1.0
    if p.shape[1] == 0:
        return 0.0
    pp = p @ np.linalg.pinv(p)
    qq = q @ np.linalg.pinv(q)
    return float(np.abs(pp - qq).max())


def _containment(vectors: np.ndarray, span: np.ndarray) -> float:
    if vectors.shape[1] == 0:
        return 0.0
    proj = span @ np.linalg.pinv(span) if span.shape[1] else np.zeros(
        (vectors.shape[0], vectors.shape[0]))
    resid = vectors - proj @ vectors
    return float(np.abs(resid).max() / max(np.abs(vectors).max(), 1e-30))


def fusion_bases(a: WeightPoint, kind: ModelKind,
                 params: EllipticParams) -> FusionBases:
    """Kernel/image bases of R(-1,a) and R_reg(1,a) on the graded square."""
    n = kind.rank
    m_minus = r_minus1(a, params)
    m_reg = r_reg1(a, params)
    two_steps = kind.paths(a, 2)
    sectors = []
    for i in range(1, n + 1):
        for j in range(i, n + 1):
            paths = [p for p in two_steps if _same_weight(*p, i, j)]
            if not paths:
                continue
            paths.sort(key=lambda p: (a + eps(n, p[0])).sort_key())
            blk_m = np.array([[m_minus.entry(po, pi) for pi in paths]
                              for po in paths])
            blk_r = np.array([[m_reg.entry(po, pi) for pi in paths]
                              for po in paths])
            if i == j:
                case, sym, anti = "diagonal", 1, 0
            elif len(paths) == 2:
                case, sym, anti = "interior", 1, 1
            else:
                case, sym, anti = "boundary", 0, 1
            sym_span = _span_of_image(blk_m)
            anti_span = _span_of_image(blk_r)
            residual = max(
                _subspace_gap(sym_span, _span_of_kernel(blk_r)),
                _subspace_gap(anti_span, _span_of_kernel(blk_m)),
            )
            sym_vecs, anti_vecs = _explicit_vectors(a, paths, case, params)
            residual = max(residual,
                           _containment(sym_vecs, sym_span),
                           _containment(anti_vecs, anti_span))
            if sym_span.shape[1] != sym or anti_span.shape[1] != anti:
                residual = max(residual, 1.0)
            sectors.append(SectorBases(
                shift=add_vectors(eps(n, i), eps(n, j)), pair=(i, j),
                case=case, paths=paths, sym_dim=sym, antisym_dim=anti,
                sym_vectors=sym_vecs, antisym_vectors=anti_vecs,
                minus_one_block=blk_m, reg_one_block=blk_r,
                residual=residual))
    return FusionBases(point=a, sectors=sectors)


def _explicit_vectors(a, paths, case, params):
    """Closed-form spanning vectors in path coordinates.

    Interior sectors: the symmetric side is spanned by the unit-coefficient
    sum of the two paths; the antisymmetric side by
    [d+1] e_i(x)e_j - [d-1] e_j(x)e_i with d = a_i - a_j, i < j.
    """
    if case == "diagonal":
        return np.ones((1, 1), dtype=complex), np.zeros((1, 0), dtype=complex)
    if case == "boundary":
        return (np.zeros((1, 0), dtype=complex),
                np.ones((1, 1), dtype=complex))
    sym = np.ones((2, 1), dtype=complex)
    i, j = min(p[0] for p in paths), max(p[0] for p in paths)
    d = a.diff(i, j)
    anti = np.zeros((2, 1), dtype=complex)
    anti[[p[0] for p in paths].index(i), 0] = bracket(d + 1, params)
    anti[[p[0] for p in paths].index(j), 0] = -bracket(d - 1, params)
    return sym, anti


def exterior_character(k: int, n: int, r: int) -> ConvolutionElement:
    """Character of the k-th exterior power: chi_A e_k(t) chi_A."""
    if not 0 <= k <= n:
        raise OutOfRange(f"exterior degree {k} outside 0..{n}")
    kind = ModelKind.rsos(n, r)
    ctx = kind.context()
    points = kind.alcove()
    inside = set(points)
    coeffs = {}
    for a in points:
        for subset in combinations(range(1, n + 1), k):
            mu = (0,) * n
            for i in subset:
                mu = add_vectors(mu, eps(n, i))
            if (a + mu) in inside:
                coeffs[Arrow(a, mu)] = 1
    return ConvolutionElement(ctx, coeffs)


def sym_square_character(n: int, r: int) -> ConvolutionElement:
    """Character of the symmetric square from its closed form."""
    kind = ModelKind.rsos(n, r)
    ctx = kind.context()
    points = kind.alcove()
    inside = set(points)
    coeffs = {}
    for a in points:
        for i in range(1, n + 1):
            mu = add_vectors(eps(n, i), eps(n, i))
            if a + mu in inside:
                coeffs[Arrow(a, mu)] = 1
        for i in range(1, n + 1):
            for j in range(i + 1, n + 1):
                if a + eps(n, i) in inside and a + eps(n, j) in inside:
                    coeffs[Arrow(a, add_vectors(eps(n, i), eps(n, j)))] = 1
    return ConvolutionElement(ctx, coeffs)


def _interval_element(ctx: Context, r: int, lo: int, hi: int,
                      shift: tuple[int, int]) -> ConvolutionElement:
    coeffs = {}
    for l in range(max(lo, 1), min(hi, r - 1) + 1):
        coeffs[Arrow(WeightPoint.from_level_coordinate(l), shift)] = 1
    return ConvolutionElement(ctx, coeffs)


def sym_power_character_n2(p: int, r: int) -> ConvolutionElement:
    """Character L_p of the p-th symmetric power for rank 2:
    chi_[1,r-p-1] t_1^p + chi_[2,r-p] t_1^{p-1} t_2 + ... + chi_[p+1,r-1] t_2^p.
    """
    if not 0 <= p <= r - 2:
        raise OutOfRange(f"symmetric power {p} outside 0..{r - 2}")
    ctx = ModelKind.rsos(2, r).context()
    out = ConvolutionElement(ctx, {})
    for j in range(p + 1):
        out = out + _interval_element(ctx, r, 1 + j, r - 1 - p + j, (p - j, j))
    return out


def central_element_n2(r: int, power: int = 1) -> ConvolutionElement:
    """u^power with u = t_1 t_2, cut to the alcove subring."""
    ctx = ModelKind.rsos(2, r).context()
    return _interval_element(ctx, r, 1, r - 1, (power, power))


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


@dataclass
class FusionRuleReport:
    r: int
    cases: int
    mismatches: list[tuple[int, int]] = field(default_factory=list)

    @property
    def passed(self) -> bool:
        return not self.mismatches


def verify_fusion_rules(r: int) -> FusionRuleReport:
    """Exact check of L_p L_q = sum_s N_pq^s u^{(p+q-s)/2} L_s for rank 2."""
    labels = list(range(r - 1))
    chars = {p: sym_power_character_n2(p, r) for p in labels}
    ctx = chars[0].context
    # u^k with k = (p+q-s)/2 <= min(p, q), so every power is in range(r - 1)
    powers = {k: central_element_n2(r, k) for k in labels}
    report = FusionRuleReport(r=r, cases=0)
    for p in labels:
        for q in labels:
            lhs = conv_mul(chars[p], chars[q])
            rhs = ConvolutionElement(ctx, {})
            for s in labels:
                if fusion_coeff(p, q, s, r):
                    rhs = rhs + conv_mul(powers[(p + q - s) // 2], chars[s])
            report.cases += 1
            if lhs != rhs:
                report.mismatches.append((p, q))
    return report


@dataclass
class EigenFunction:
    """Character eigenfunction psi_lambda on the alcove.

    psi_lambda(a) = q^{-(1/n) sum_i a_i sum_i lambda_i} det(q^{lambda_i a_j})
    with q = exp(2 pi i / r) and the n-th root fixed as exp(2 pi i / (r n)).
    """

    lam: WeightPoint
    points: tuple[WeightPoint, ...]
    values: np.ndarray


def psi_value(lam: WeightPoint, a: WeightPoint, n: int, r: int) -> complex:
    lcoord, acoord = lam.offset, a.offset
    root = cmath.exp(2j * cmath.pi / (r * n))
    pref = root ** (-sum(acoord) * sum(lcoord))
    q = cmath.exp(2j * cmath.pi / r)
    m = np.array([[q ** (li * aj) for aj in acoord] for li in lcoord])
    return complex(pref * np.linalg.det(m))


def psi(lam: WeightPoint, n: int, r: int) -> EigenFunction:
    points = rsos_alcove(n, r)
    if lam not in set(points):
        raise LambdaOutsideAlcove(f"{lam!r} is not a regular affine weight")
    values = np.array([psi_value(lam, a, n, r) for a in points])
    return EigenFunction(lam=lam, points=tuple(points), values=values)


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
    tolerance: float = 1e-10

    @property
    def max_residual(self) -> float:
        return max(self.residuals, default=0.0)

    @property
    def passed(self) -> bool:
        return self.max_residual < self.tolerance


def verify_spectrum(k: int, n: int, r: int, tol: float = 1e-10) -> SpectrumReport:
    """Check that every psi_lambda is an eigenfunction of the exterior-power
    character operator with eigenvalue e_k(q^{bar lambda})."""
    points = rsos_alcove(n, r)
    op = to_difference_operator(exterior_character(k, n, r), points)
    m = op.matrix(dtype=complex)
    eigenvalues, residuals = [], []
    for lam in points:
        f = psi(lam, n, r)
        ev = exterior_eigenvalue(k, lam, n, r)
        residuals.append(float(np.abs(m @ f.values - ev * f.values).max()))
        eigenvalues.append(ev)
    return SpectrumReport(n=n, r=r, k=k, eigenvalues=eigenvalues,
                          residuals=residuals, tolerance=tol)
