"""Integer convolution ring of an action groupoid and its realization as
difference operators on functions over a finite alcove.

An element is a finitely supported map arrow -> coefficient; the product

    (m * n)(gamma) = sum_{beta o alpha = gamma} m(alpha) n(beta)

is exact (integers or Fractions).  It is computed grouped by source: the
arrows of n are indexed by source once, each alpha meets exactly the betas
starting at its target, and the composite of such a pair is the shift sum
from alpha's source, so no arrow is built per matched pair.  Over a finite
point set A the subring supported on arrows inside A acts on functions
psi: A -> k by

    (x psi)(a) = sum_mu x(a, mu) psi(a + mu).
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from operator import add

import numpy as np

from .errors import ContextMismatch, SupportOutsideAlcove
from .graded import GradedSpace
from .groupoid import (Arrow, Context, LatticeVector, WeightPoint,
                       identity_arrow, inverse)

Coefficient = int | Fraction


@dataclass
class ConvolutionElement:
    context: Context
    coeffs: dict[Arrow, Coefficient]

    def __post_init__(self):
        self.coeffs = {g: c for g, c in self.coeffs.items() if c != 0}

    def coeff(self, arrow: Arrow) -> Coefficient:
        return self.coeffs.get(arrow, 0)

    @property
    def support(self) -> list[Arrow]:
        return sorted(self.coeffs, key=Arrow.sort_key)

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

    def __sub__(self, other: "ConvolutionElement") -> "ConvolutionElement":
        return self + other.scale(-1)

    def scale(self, c: Coefficient) -> "ConvolutionElement":
        return ConvolutionElement(self.context,
                                  {g: c * v for g, v in self.coeffs.items()})

    def __mul__(self, other: "ConvolutionElement") -> "ConvolutionElement":
        return conv_mul(self, other)

    def to_rows(self) -> list[dict]:
        rows = []
        for g in self.support:
            rows.append({"source": [int(o) for o in g.source.offset]
                         if g.source.has_zero_base
                         else [[v.real, v.imag] for v in g.source.values()],
                         "shift": list(g.shift),
                         "coeff": self.coeffs[g]})
        return rows


def conv_mul(m: ConvolutionElement, n: ConvolutionElement) -> ConvolutionElement:
    """Convolution product; m sits on the first arrow of each factorization.

    n is indexed by source as (shift, coeff) lists, so each alpha of m meets
    exactly the betas that compose with it; their products are summed per
    source of alpha under the shift tuple alpha.shift + beta.shift, and one
    Arrow is built per distinct output term.  The cost is linear in
    |m| + |n| + the number of matched pairs, with no groupoid object per pair.
    """
    if m.context != n.context:
        raise ContextMismatch("product of elements over different groupoids")
    by_source: dict[WeightPoint, list[tuple[LatticeVector, Coefficient]]] = {}
    for beta, cb in n.coeffs.items():
        by_source.setdefault(beta.source, []).append((beta.shift, cb))
    out: dict[WeightPoint, dict[LatticeVector, Coefficient]] = {}
    for alpha, ca in m.coeffs.items():
        betas = by_source.get(alpha.target)
        if betas is None:
            continue
        mu = alpha.shift
        sums = out.setdefault(alpha.source, {})
        for nu, cb in betas:
            shift = tuple(map(add, mu, nu))
            sums[shift] = sums.get(shift, 0) + ca * cb
    return ConvolutionElement(m.context, {Arrow(a, shift): c
                                          for a, sums in out.items()
                                          for shift, c in sums.items()})


def involution(n: ConvolutionElement) -> ConvolutionElement:
    """Anti-automorphism gamma -> n(gamma^{-1})."""
    return ConvolutionElement(n.context,
                              {inverse(g): c for g, c in n.coeffs.items()})


def chi(context: Context, points: list[WeightPoint]) -> ConvolutionElement:
    """Idempotent characteristic function of identity arrows over `points`."""
    return ConvolutionElement(context,
                              {identity_arrow(a): 1 for a in points})


def character(V: GradedSpace) -> ConvolutionElement:
    """Arrow-indexed dimension vector of a graded space."""
    return ConvolutionElement(V.context, {g: int(d) for g, d in V.dims.items()})


@dataclass
class DifferenceOperator:
    """Finite sum sum_mu f_mu t_mu acting on functions on the point set.

    terms[mu][a] is the coefficient multiplying psi(a + mu) in (f psi)(a);
    values outside the point set are treated as zero.
    """

    points: tuple[WeightPoint, ...]
    terms: dict[LatticeVector, dict[WeightPoint, Coefficient]]

    def matrix(self, dtype=None) -> np.ndarray:
        if dtype is None:
            vals = [c for t in self.terms.values() for c in t.values()]
            exact = all(isinstance(c, (int, Fraction)) for c in vals)
            dtype = object if any(isinstance(c, Fraction) for c in vals) else (
                np.int64 if exact else complex)
        pos = {a: k for k, a in enumerate(self.points)}
        m = np.zeros((len(self.points), len(self.points)), dtype=dtype)
        for mu, coeffs in self.terms.items():
            for a, c in coeffs.items():
                b = a + mu
                if b in pos:
                    m[pos[a], pos[b]] += c
        return m

    def to_json_dict(self) -> dict:
        m = self.matrix(dtype=complex)
        return {
            "points": [[int(o) for o in a.offset] for a in self.points],
            "matrix": [[[v.real, v.imag] for v in row] for row in m.tolist()],
        }


def to_difference_operator(x: ConvolutionElement,
                           points: list[WeightPoint]) -> DifferenceOperator:
    """Realize a subring element as a difference operator on functions on A."""
    pts = set(points)
    terms: dict[LatticeVector, dict[WeightPoint, Coefficient]] = {}
    for g, c in x.coeffs.items():
        if g.source not in pts or g.target not in pts:
            raise SupportOutsideAlcove(f"arrow {g!r} leaves the point set")
        terms.setdefault(g.shift, {})[g.source] = c
    return DifferenceOperator(points=tuple(points), terms=terms)
