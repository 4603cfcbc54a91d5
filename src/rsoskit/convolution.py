"""Integer convolution ring of an action groupoid and its realization as
difference operators on sections over a finite alcove.

An element is a finitely supported map arrow -> coefficient; the product

    (m * n)(gamma) = sum_{beta o alpha = gamma} m(alpha) n(beta)

is exact (integers or Fractions).  The arrows of n are indexed by source
once, each alpha meets exactly the betas starting at its target, and the
composite of such a pair is the shift sum from alpha's source, so no arrow
is built per matched pair.

Over a restricted model an arrow (a, mu) of the alcove subring is fixed by
its source, its target and its degree sum(mu), so a homogeneous integer
element is one |A| x |A| matrix at one degree (`matrix_form`); a check that
needs dense homogeneous products reads these matrices and multiplies them
with numpy itself.

A difference operator acts on sections psi over a finite point set A by

    (D psi)(a) = sum_mu r_(a, mu) psi(a + mu),

each r_(a, mu) a block from the fibre at a + mu to the one at a: 1 x 1 for
an element supported inside A, loop sectors for `transfer.transfer_matrix`.
Operators compose (`@`) by the arrow pairing of the product on blocks, so
`powers`, `power` and `trace` (over the loop arrows) never form the dense
matrix on the stacked fibres that `matrix()` builds.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction
from operator import add, matmul, mul
from typing import Iterator

import numpy as np

from .errors import ContextMismatch, ShapeMismatch, SupportOutsideAlcove
from .graded import GradedSpace
from .groupoid import (Arrow, LatticeVector, ModelKind, WeightPoint,
                       identity_arrow, inverse)

Coefficient = int | Fraction


class ConvolutionElement:
    """Finitely supported map arrow -> coefficient over the groupoid of
    `context`.

    An element is immutable after construction: it copies the coefficients
    it is given and drops the zero ones.
    """

    __slots__ = ("context", "coeffs")

    def __init__(self, context: ModelKind, coeffs: dict[Arrow, Coefficient]):
        self.context = context
        # always a copy, so an element never aliases its caller's dict; the
        # filter pass runs only when some term cancels
        self.coeffs = ({g: c for g, c in coeffs.items() if c != 0}
                       if 0 in coeffs.values() else dict(coeffs))

    def coeff(self, arrow: Arrow) -> Coefficient:
        return self.coeffs.get(arrow, 0)

    @property
    def support(self) -> list[Arrow]:
        return sorted(self.coeffs, key=Arrow.sort_key)

    def __repr__(self):
        return f"ConvolutionElement(context={self.context!r}, " \
               f"coeffs={self.coeffs!r})"

    def __eq__(self, other) -> bool:
        return (isinstance(other, ConvolutionElement)
                and self.context == other.context
                and self.coeffs == other.coeffs)

    def __add__(self, other: "ConvolutionElement") -> "ConvolutionElement":
        if self.context != other.context:
            raise ContextMismatch("sum of elements over different groupoids")
        out = dict(self.coeffs)
        for g, c in other.coeffs.items():
            out[g] = out.get(g, 0) + c
        return ConvolutionElement(self.context, out)


def matrix_form(x: ConvolutionElement, degree: int) -> np.ndarray:
    """The float64 |A| x |A| matrix of x over the alcove A of its restricted
    model: entry [i, j] is the coefficient of the arrow of degree `degree`
    from A[i] to A[j], the one arrow its source, target and degree fix.

    Raises ShapeMismatch unless x is homogeneous of that degree with int
    coefficients on arrows inside A.  Entries past 2^53 are rounded; a
    caller that needs exact products bounds them itself."""
    refusal = f"not homogeneous of degree {degree}"
    if not x.context.is_restricted:
        raise ShapeMismatch(refusal)
    index = x.context.alcove_index()
    m = np.zeros((len(index), len(index)))
    for g, c in x.coeffs.items():
        i, j = index.get(g.source), index.get(g.target)
        if (i is None or j is None or sum(g.shift) != degree
                or type(c) is not int):
            raise ShapeMismatch(refusal)
        m[i, j] = c
    return m


def conv_mul(m: ConvolutionElement, n: ConvolutionElement) -> ConvolutionElement:
    """Convolution product; m sits on the first arrow of each factorization."""
    if m.context != n.context:
        raise ContextMismatch("product of elements over different groupoids")
    return ConvolutionElement(m.context, _compose(m.coeffs, n.coeffs, mul))


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
    with an endpoint outside `points` add nothing to the matrix.  Array
    blocks may be stacked over leading axes, one operator per slice, for `@`
    and `trace` (not `matrix`).
    """

    points: tuple[WeightPoint, ...]
    dims: dict[WeightPoint, int]
    blocks: dict[Arrow, Coefficient | np.ndarray]

    def __matmul__(self, other: "DifferenceOperator") -> "DifferenceOperator":
        """(AB)(a, mu + nu) = sum A(a, mu) B(a + mu, nu), on the same fibres;
        array blocks by `np.matmul`, stacked ones slice by slice, and by
        `np.dot` when a block of either factor is a scalar."""
        blocks = itertools.chain(self.blocks.values(), other.blocks.values())
        product = (matmul if all(isinstance(b, np.ndarray) for b in blocks)
                   else np.dot)
        return DifferenceOperator(self.points, self.dims,
                                  _compose(self.blocks, other.blocks, product))

    def powers(self) -> Iterator["DifferenceOperator"]:
        """M^0 = the identity on the fibres, M^1 = M itself, then
        M^m = M^(m-1) @ M, ..."""
        one = DifferenceOperator(self.points, self.dims, {
            identity_arrow(a): np.eye(d) for a, d in self.dims.items() if d})
        return itertools.chain(
            [one], itertools.accumulate(itertools.repeat(self), matmul))

    def power(self, m: int) -> "DifferenceOperator":
        """The m-th power, the m-th of `powers()`."""
        return next(itertools.islice(self.powers(), m, None))

    def trace(self):
        """Sum of the traces of the loop blocks, the diagonal of `matrix()`;
        of stacked blocks, one trace per slice."""
        return sum(np.trace(np.atleast_2d(block), axis1=-2, axis2=-1)
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
