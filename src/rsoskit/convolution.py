"""Integer convolution ring of an action groupoid and its realization as
difference operators on sections over a finite alcove.

An element is a finitely supported map arrow -> coefficient; the product

    (m * n)(gamma) = sum_{beta o alpha = gamma} m(alpha) n(beta)

is exact (integers or Fractions).  It has two paths, chosen from the
factors alone:

- Matrix form.  Over a restricted model an arrow (a, mu) of the alcove
  subring is fixed by its source, its target and its degree sum(mu), so a
  homogeneous integer element is one |A| x |A| int64 matrix at one degree,
  and the product of two such elements is one matmul with the degrees
  added.  `conv_mul` takes it when both factors have the form, the result
  cannot overflow (max|m| max|n| |A| < 2^63), and the estimated cost of the
  matmul, |A|^3 multiply-adds, is below that of the sparse path, about
  |m| |n| / |A| matched arrow pairs (`_matmul_is_cheaper`).  The product
  keeps only its matrix and builds its coefficient dict on first read.
- Arrow pairs, for everything else: orbit models, Fractions, mixed
  degrees, and sparse factors on large alcoves.  The arrows of n are
  indexed by source once, each alpha meets exactly the betas starting at
  its target, and the composite of such a pair is the shift sum from
  alpha's source, so no arrow is built per matched pair.

A difference operator acts on sections psi over a finite point set A by

    (D psi)(a) = sum_mu r_(a, mu) psi(a + mu),

each r_(a, mu) a block from the fibre at a + mu to the one at a: 1 x 1 for
an element supported inside A, loop sectors for `transfer.transfer_matrix`.
Operators compose (`@`) by the arrow pairing of the product on blocks, so
`power` and `trace` (over the loop arrows) never form the dense matrix on
the stacked fibres that `matrix()` builds.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from operator import add, mul
from typing import NamedTuple

import numpy as np

from .errors import ContextMismatch, SupportOutsideAlcove
from .graded import GradedSpace
from .groupoid import (Arrow, LatticeVector, ModelKind, WeightPoint,
                       identity_arrow, inverse)

Coefficient = int | Fraction


class ConvolutionElement:
    """Finitely supported map arrow -> coefficient over the groupoid of
    `context`.

    An element is immutable after construction: it copies the coefficients
    it is given and drops the zero ones, and its matrix form (see
    `conv_mul`) is built at most once and cached on it.  An element that
    comes out of a matrix product builds `coeffs` on its first read.
    """

    __slots__ = ("context", "_coeffs", "_form")

    def __init__(self, context: ModelKind, coeffs: dict[Arrow, Coefficient]):
        self.context = context
        # always a copy, so an element never aliases its caller's dict; the
        # filter pass runs only when some term cancels
        self._coeffs = ({g: c for g, c in coeffs.items() if c != 0}
                        if 0 in coeffs.values() else dict(coeffs))
        self._form = _UNKNOWN

    @classmethod
    def _of_matrix(cls, context: ModelKind, degree: int,
                   matrix: np.ndarray) -> "ConvolutionElement":
        matrix.flags.writeable = False
        x = cls.__new__(cls)
        x.context, x._coeffs = context, None
        x._form = _MatrixForm(degree, matrix, int(np.abs(matrix).max()))
        return x

    @property
    def coeffs(self) -> dict[Arrow, Coefficient]:
        if self._coeffs is None:
            self._coeffs = _coeffs_of(self.context, self._form)
        return self._coeffs

    def coeff(self, arrow: Arrow) -> Coefficient:
        return self.coeffs.get(arrow, 0)

    @property
    def support(self) -> list[Arrow]:
        return sorted(self.coeffs, key=Arrow.sort_key)

    def __repr__(self):
        return f"ConvolutionElement(context={self.context!r}, " \
               f"coeffs={self.coeffs!r})"

    def __eq__(self, other) -> bool:
        if not (isinstance(other, ConvolutionElement)
                and self.context == other.context):
            return False
        x, y = self._form, other._form
        if type(x) is type(y) is _MatrixForm:
            # both matrices built; all-zero ones match at any degree
            return (x.degree == y.degree and np.array_equal(x.matrix, y.matrix)
                    or x.bound == y.bound == 0)
        return self.coeffs == other.coeffs

    def __add__(self, other: "ConvolutionElement") -> "ConvolutionElement":
        if self.context != other.context:
            raise ContextMismatch("sum of elements over different groupoids")
        out = dict(self.coeffs)
        for g, c in other.coeffs.items():
            out[g] = out.get(g, 0) + c
        return ConvolutionElement(self.context, out)

    def __sub__(self, other: "ConvolutionElement") -> "ConvolutionElement":
        return self + other.scale(-1)

    def scale(self, c: Coefficient) -> "ConvolutionElement":
        return ConvolutionElement(self.context,
                                  {g: c * v for g, v in self.coeffs.items()})

    def __mul__(self, other: "ConvolutionElement") -> "ConvolutionElement":
        return conv_mul(self, other)


class _MatrixForm(NamedTuple):
    """Matrix form of a homogeneous integer element over the alcove A:
    matrix[i, j] is the coefficient of the arrow of degree `degree` from
    A[i] to A[j] (read-only int64), and `bound` its largest |entry|."""

    degree: int
    matrix: np.ndarray
    bound: int


# not yet built; None stands for an element with no matrix form
_UNKNOWN = object()
INT64_LIMIT = 2 ** 63


def _form_of(x: ConvolutionElement) -> _MatrixForm | None:
    if x._form is _UNKNOWN:
        x._form = _to_form(x.context, x.coeffs)
    return x._form


def _to_form(kind: ModelKind, coeffs: dict) -> _MatrixForm | None:
    """The matrix form of an element, or None unless it is nonzero,
    homogeneous and integer with int64 coefficients on arrows inside the
    alcove of a restricted model."""
    if not (kind.is_restricted and coeffs):
        return None
    values = list(coeffs.values())
    degrees = {sum(mu) for _, mu in coeffs}
    if len(degrees) > 1 or any(type(c) is not int for c in values):
        return None
    bound = max(map(abs, values))
    if bound >= INT64_LIMIT:
        return None
    index = kind.alcove_index()
    rows, cols = [], []
    for g in coeffs:
        i, j = index.get(g.source), index.get(g.target)
        if i is None or j is None:
            return None
        rows.append(i)
        cols.append(j)
    m = np.zeros((len(index), len(index)), dtype=np.int64)
    m[rows, cols] = values
    m.flags.writeable = False
    return _MatrixForm(degrees.pop(), m, bound)


def _coeffs_of(kind: ModelKind, form: _MatrixForm) -> dict[Arrow, int]:
    """The coefficient dict of a matrix form: the arrow from A[i] to A[j] of
    degree d has shift A[j] - A[i] + k (1, ..., 1), with k fixed by d."""
    rows, cols = np.nonzero(form.matrix)
    points = kind.alcove()
    offsets = np.array([a.offset for a in points], dtype=np.int64)
    shifts = offsets[cols] - offsets[rows]
    shifts += ((form.degree - shifts.sum(axis=1)) // kind.rank)[:, None]
    new = tuple.__new__
    return {new(Arrow, (points[i], tuple(mu))): c for i, mu, c in zip(
        rows.tolist(), shifts.tolist(), form.matrix[rows, cols].tolist())}


def conv_mul(m: ConvolutionElement, n: ConvolutionElement) -> ConvolutionElement:
    """Convolution product; m sits on the first arrow of each factorization.

    One int64 matmul of the matrix forms when both factors have one, the
    result cannot overflow and `_matmul_is_cheaper`; else `_compose`."""
    if m.context != n.context:
        raise ContextMismatch("product of elements over different groupoids")
    kind = m.context
    if kind.is_restricted and _matmul_is_cheaper(
            _size(m), _size(n), len(kind.alcove())):
        x, y = _form_of(m), _form_of(n)
        if (x is not None and y is not None
                and x.bound * y.bound * len(x.matrix) < INT64_LIMIT):
            return ConvolutionElement._of_matrix(kind, x.degree + y.degree,
                                                 x.matrix @ y.matrix)
    return ConvolutionElement(kind, _compose(m.coeffs, n.coeffs, mul))


def _size(x: ConvolutionElement) -> int:
    coeffs = x._coeffs
    if coeffs is None:
        return int(np.count_nonzero(x._form.matrix))
    return len(coeffs)


# Measured with one BLAS thread on 2 cores (CPython 3.11, numpy 2.4):
# `_compose` spends 0.4-1.1 us per matched arrow pair, less on larger
# elements, and the pairs number about |m| |n| / |A| on an alcove of |A|
# points; an int64 matmul spends 0.5-0.7 ns per multiply-add at |A| = 30-600,
# and the matrix path about 2 us more per call than `_compose` in fixed costs
PAIR_S = 0.5e-6
MULTIPLY_ADD_S = 0.6e-9
MATMUL_CALL_S = 2e-6


def _matmul_is_cheaper(m_size: int, n_size: int, points: int) -> bool:
    return (m_size * n_size / points * PAIR_S
            > points ** 3 * MULTIPLY_ADD_S + MATMUL_CALL_S)


def _compose(first: dict, second: dict, product) -> dict:
    """Sum of product(first[alpha], second[beta]) over the composable pairs.

    second is indexed by source as (shift, value) lists, so each alpha meets
    exactly the betas that compose with it; their products are summed per
    source of alpha under the shift tuple alpha.shift + beta.shift, and one
    Arrow is built per distinct output term.  Each shift sum is formed once
    per distinct (mu, nu) pair of the call, not once per matched pair: the
    factors repeat a few shifts over many sources.  The cost is linear in
    |first| + |second| + the matched pairs, with no groupoid object per pair.
    """
    by_source: dict[WeightPoint, list[tuple[LatticeVector, object]]] = {}
    for (b, nu), cb in second.items():
        by_source.setdefault(b, []).append((nu, cb))
    shift_sums: dict[LatticeVector, dict[LatticeVector, LatticeVector]] = {}
    out: dict[WeightPoint, dict[LatticeVector, object]] = {}
    for alpha, ca in first.items():
        betas = by_source.get(alpha.target)
        if betas is None:
            continue
        a, mu = alpha
        plus_mu = shift_sums.get(mu)
        if plus_mu is None:
            plus_mu = shift_sums[mu] = {}
        sums = out.setdefault(a, {})
        for nu, cb in betas:
            shift = plus_mu.get(nu)
            if shift is None:
                shift = plus_mu[nu] = tuple(map(add, mu, nu))
            sums[shift] = sums.get(shift, 0) + product(ca, cb)
    # Arrow.__new__ only calls tuple.__new__; calling that directly skips a
    # Python-level call per output term
    new = tuple.__new__
    return {new(Arrow, (a, shift)): c
            for a, sums in out.items() for shift, c in sums.items()}


def involution(n: ConvolutionElement) -> ConvolutionElement:
    """Anti-automorphism gamma -> n(gamma^{-1})."""
    return ConvolutionElement(n.context,
                              {inverse(g): c for g, c in n.coeffs.items()})


def chi(context: ModelKind, points: list[WeightPoint]) -> ConvolutionElement:
    """Idempotent characteristic function of identity arrows over `points`."""
    return ConvolutionElement(context,
                              {identity_arrow(a): 1 for a in points})


def character(V: GradedSpace) -> ConvolutionElement:
    """Arrow-indexed dimension vector of a graded space."""
    return ConvolutionElement(V.context, {g: int(d) for g, d in V.dims.items()})


@dataclass
class DifferenceOperator:
    """Finite sum sum_mu r_mu t_mu acting on sections over `points`.

    blocks[Arrow(a, mu)] maps the fibre at a + mu to the fibre at a, with
    shape dims[a] x dims[a + mu]; a scalar stands for a 1 x 1 block.  Arrows
    with an endpoint outside `points` add nothing to the matrix.
    """

    points: tuple[WeightPoint, ...]
    dims: dict[WeightPoint, int]
    blocks: dict[Arrow, Coefficient | np.ndarray]

    def total_dim(self) -> int:
        return sum(self.dims.values())

    def __matmul__(self, other: "DifferenceOperator") -> "DifferenceOperator":
        """(AB)(a, mu + nu) = sum A(a, mu) B(a + mu, nu), on the same fibres."""
        return DifferenceOperator(self.points, self.dims,
                                  _compose(self.blocks, other.blocks, np.dot))

    def power(self, m: int) -> "DifferenceOperator":
        """The m-th power; m = 0 gives the identity on the fibres."""
        out = DifferenceOperator(self.points, self.dims, {
            identity_arrow(a): np.eye(d) for a, d in self.dims.items() if d})
        for _ in range(m):
            out = out @ self
        return out

    def trace(self):
        """Sum of the traces of the loop blocks, the diagonal of `matrix()`."""
        return sum(np.trace(np.atleast_2d(block))
                   for alpha, block in self.blocks.items() if alpha.is_loop)

    def matrix(self, dtype=None) -> np.ndarray:
        """Dense matrix on the stacked fibres: int64 for integer scalars on
        one-dimensional fibres, object with a Fraction, else complex."""
        if dtype is None:
            vals = self.blocks.values()
            dtype = object if any(isinstance(c, Fraction) for c in vals) else (
                np.int64 if all(isinstance(c, int) for c in vals)
                and all(d == 1 for d in self.dims.values()) else complex)
        offs, k = {}, 0
        for a in self.points:
            offs[a] = k
            k += self.dims[a]
        m = np.zeros((k, k), dtype=dtype)
        for alpha, block in self.blocks.items():
            a, b = alpha.source, alpha.target
            if a in offs and b in offs:
                m[offs[a]:offs[a] + self.dims[a],
                  offs[b]:offs[b] + self.dims[b]] += block
        return m


def to_difference_operator(x: ConvolutionElement,
                           points: list[WeightPoint]) -> DifferenceOperator:
    """Realize a subring element as a difference operator on functions on A."""
    pts = set(points)
    for g in x.coeffs:
        if g.source not in pts or g.target not in pts:
            raise SupportOutsideAlcove(f"arrow {g!r} leaves the point set")
    return DifferenceOperator(tuple(points), dict.fromkeys(points, 1),
                              dict(x.coeffs))
