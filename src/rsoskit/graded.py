"""Groupoid-graded vector spaces of finite type and their block morphisms.

A graded space assigns a finite-dimensional vector space to finitely many
arrows; a morphism is a family of matrices indexed by arrows.  The tensor
product sums over arrow factorizations,

    (V (x) W)_gamma = (+)_{beta o alpha = gamma} V_alpha (x) W_beta,

with the summands laid out in a canonical order (intermediate object, then
first-factor shift, lexicographically).  Every basis vector carries a flat
key, the sequence of atomic basis vectors it was built from, so spaces
related by reassociation or unit insertion are aligned by an index
permutation.

Everything that depends only on spaces (products, alignments, summand
pairings) is built once and kept on the operand spaces, so morphisms that
vary with a parameter over fixed spaces pay only for their blocks.

A block is a matrix or a stack (B, rows, cols) of them, one per spectral
parameter of a batch, so the Python work per component is paid once per
batch; operations act on the two trailing axes, a plain block (identity,
alignment) broadcasts against a stack, and `f[k]` is the k-th morphism.
"""

from __future__ import annotations

import weakref
from dataclasses import dataclass, field
from functools import cached_property
from operator import itemgetter
from types import MappingProxyType

import numpy as np

from .errors import ContextMismatch, ShapeMismatch, check_budget
from .groupoid import (Arrow, ModelKind, WeightPoint, add_vectors,
                       identity_arrow, inverse)

# summands V_alpha (x) W_beta of one tensor product: the largest product of
# the suites and tests has 162; V (x) (V (x) V) at (n, r) = (3, 140) has
# 167,283 and takes 2.1 s and about 100 MB in CPython 3.11
SUMMAND_BUDGET = 200_000

_ATOM_CODES: dict[tuple, int] = {}


def _atom_keys(atoms) -> np.ndarray:
    """One-column keys: the process-wide code of each atom value, either
    (arrow, index) for an atomic basis vector or ("dual", arrow, key).
    Codes are only compared for equality, so their order affects no result.
    """
    codes = [_ATOM_CODES.setdefault(atom, len(_ATOM_CODES)) for atom in atoms]
    return np.array(codes, dtype=np.int64).reshape(-1, 1)


@dataclass(frozen=True)
class Summand:
    """One factorization slot inside a tensor-product component."""

    left: Arrow
    right: Arrow
    offset: int
    size: int


@dataclass(eq=False)
class GradedSpace:
    """Finite-type graded vector space: arrow -> dimension, with flat keys.

    `keys` holds one row of atom codes per basis vector, components stacked
    in `dims` order; tensor-unit factors add no code, dual atoms are opaque.

    A space is immutable after construction and is compared by identity:
    values derived from it (see `memo`) are cached on it and never rebuilt.
    """

    context: ModelKind
    dims: dict[Arrow, int]
    keys: np.ndarray
    layout: dict[Arrow, tuple[Summand, ...]] | None = None
    offsets: dict[Arrow, int] = field(init=False, repr=False)
    _memo: dict = field(init=False, repr=False, default_factory=dict)
    _partner_memo: weakref.WeakKeyDictionary = field(
        init=False, repr=False, default_factory=weakref.WeakKeyDictionary)

    def __post_init__(self):
        self.offsets, k = {}, 0
        for arrow, d in self.dims.items():
            self.offsets[arrow] = k
            k += d
        self.keys.flags.writeable = False

    @classmethod
    def from_dims(cls, context: ModelKind, dims: dict[Arrow, int]) -> "GradedSpace":
        for arrow, d in dims.items():
            if d < 1:
                raise ValueError(f"stored dimension must be >= 1 at {arrow!r}")
        return cls(context=context, dims=dict(dims), keys=_atom_keys(
            (arrow, k) for arrow, d in dims.items() for k in range(d)))

    def dim(self, arrow: Arrow) -> int:
        return self.dims.get(arrow, 0)

    @property
    def arrows(self) -> list[Arrow]:
        return sorted(self.dims, key=Arrow.sort_key)

    def objects(self) -> list[WeightPoint]:
        pts = {g.source for g in self.dims} | {g.target for g in self.dims}
        return sorted(pts, key=WeightPoint.sort_key)


def memo(space: GradedSpace, key, build, partner: GradedSpace | None = None):
    """build(), computed once per (space, partner, key) and kept on `space`.

    The value must depend only on the spaces and `key`, and must not refer to
    `partner`: it is dropped with `space`, or when `partner` is collected.
    """
    table = (space._memo if partner is None
             else space._partner_memo.setdefault(partner, {}))
    try:
        return table[key]
    except KeyError:
        return table.setdefault(key, build())


def unit_space(context: ModelKind, points: list[WeightPoint]) -> GradedSpace:
    """Tensor unit: one-dimensional at the identity arrow of each point."""
    dims = {identity_arrow(a): 1 for a in points}
    return GradedSpace(context=context, dims=dims,
                       keys=np.zeros((len(dims), 0), dtype=np.int64))


def _require_same_context(a, b):
    if a.context != b.context:
        raise ContextMismatch(f"{a.context} != {b.context}")


def tensor_space(V: GradedSpace, W: GradedSpace) -> GradedSpace:
    """Tensor product summing over arrow factorizations; built once per
    (V, W) and the same object on every later call."""
    return memo(V, "tensor", lambda: _build_tensor_space(V, W), partner=W)


def _build_tensor_space(V: GradedSpace, W: GradedSpace) -> GradedSpace:
    """The product; over SUMMAND_BUDGET summands raise TooLarge before any
    is built."""
    _require_same_context(V, W)
    by_source: dict[WeightPoint, list[tuple[Arrow, int, int]]] = {}
    for beta, dw in W.dims.items():
        by_source.setdefault(beta.source, []).append((beta, W.offsets[beta], dw))
    count = sum(len(by_source.get(alpha.target, ())) for alpha in V.dims)
    check_budget("SUMMAND_BUDGET", count, SUMMAND_BUDGET,
                 "tensor-product summands")
    pieces: dict[Arrow, list[tuple]] = {}
    for alpha, dv in V.dims.items():
        mid, vo = alpha.target, V.offsets[alpha]
        order = (mid.sort_key(), alpha.shift)
        for beta, wo, dw in by_source.get(mid, ()):
            # beta starts where alpha ends: gamma = beta o alpha
            gamma = Arrow(alpha.source, add_vectors(alpha.shift, beta.shift))
            pieces.setdefault(gamma, []).append(
                (order, alpha, beta, vo, dv, wo, dw))
    dims, layout, spans = {}, {}, []
    for gamma, parts in pieces.items():
        parts.sort(key=itemgetter(0))
        summands, offset = [], 0
        for _, alpha, beta, vo, dv, wo, dw in parts:
            summands.append(Summand(alpha, beta, offset, dv * dw))
            spans.append((vo, dv, wo, dw))
            offset += dv * dw
        dims[gamma] = offset
        layout[gamma] = tuple(summands)
    return GradedSpace(context=V.context, dims=dims,
                       keys=_product_keys(V.keys, W.keys, spans),
                       layout=layout)


def _product_keys(kv: np.ndarray, kw: np.ndarray, spans) -> np.ndarray:
    """Keys of the summands V_alpha (x) W_beta, stacked in one step.

    `spans` holds (first row of V_alpha, dim V_alpha, first row of W_beta,
    dim W_beta) per summand; summand rows run over v, then w.
    """
    start_v, dim_v, start_w, dim_w = np.array(
        spans, dtype=np.int64).reshape(-1, 4).T
    size = dim_v * dim_w
    which = np.repeat(np.arange(size.size), size)
    local = np.arange(which.size) - np.repeat(np.cumsum(size) - size, size)
    step = dim_w[which]
    return np.concatenate((kv[start_v[which] + local // step],
                           kw[start_w[which] + local % step]), axis=1)


@dataclass
class GradedMorphism:
    """Family of matrices f_gamma : domain_gamma -> codomain_gamma, each
    plain or stacked over a batch of spectral parameters."""

    domain: GradedSpace
    codomain: GradedSpace
    blocks: dict[Arrow, np.ndarray]

    def __post_init__(self):
        rows, cols = self.codomain.dims, self.domain.dims
        for arrow, m in self.blocks.items():
            want = (rows.get(arrow, 0), cols.get(arrow, 0))
            if m.shape[-2:] != want:
                raise ShapeMismatch(
                    f"block at {arrow!r} has shape {m.shape}, expected {want}"
                )

    def __getitem__(self, k) -> "GradedMorphism":
        """The morphism at the k-th spectral parameter of the stacked blocks,
        or the stack at a slice of them; a plain block serves every k."""
        return GradedMorphism(self.domain, self.codomain, {
            g: m if m.ndim == 2 else m[k] for g, m in self.blocks.items()})

    __iter__ = None  # not a sequence: a plain morphism serves every index

    def block(self, arrow: Arrow) -> np.ndarray:
        m = self.blocks.get(arrow)
        if m is not None:
            return m
        return np.zeros((self.codomain.dim(arrow), self.domain.dim(arrow)),
                        dtype=complex)

    def compose(self, other: "GradedMorphism") -> "GradedMorphism":
        """self o other (apply `other` first); a `Permutation` on the right
        acts exactly, by reindexing columns, and one on the left through its
        dense blocks (`composite` gathers its rows through the reverse
        alignment instead)."""
        if other.codomain.dims != self.domain.dims:
            raise ShapeMismatch("composition: inner spaces do not match")
        if isinstance(other, Permutation):
            if isinstance(self, Permutation):
                return Permutation(other.domain, self.codomain, {
                    g: self.index[g][p] for g, p in other.index.items()})
            products = ((g, m[..., other.index[g]])
                        for g, m in self.blocks.items())
        else:
            products = ((g, self.blocks[g] @ other.blocks[g])
                        for g in set(self.blocks) & set(other.blocks))
        return GradedMorphism(other.domain, self.codomain, dict(products))

    def __matmul__(self, other: "GradedMorphism") -> "GradedMorphism":
        return self.compose(other)

    def add(self, other: "GradedMorphism") -> "GradedMorphism":
        if (other.domain.dims != self.domain.dims
                or other.codomain.dims != self.codomain.dims):
            raise ShapeMismatch("addition: spaces do not match")
        blocks = {}
        for arrow in set(self.blocks) | set(other.blocks):
            blocks[arrow] = self.block(arrow) + other.block(arrow)
        return GradedMorphism(self.domain, self.codomain, blocks)

    def __add__(self, other):
        return self.add(other)

    def scale(self, c: complex) -> "GradedMorphism":
        return GradedMorphism(self.domain, self.codomain,
                              {g: c * m for g, m in self.blocks.items()})

    def __rmul__(self, c: complex):
        return self.scale(c)

    def max_diff(self, other: "GradedMorphism") -> float:
        worst = 0.0
        for arrow in set(self.blocks) | set(other.blocks):
            d = self.block(arrow) - other.block(arrow)
            if d.size:
                worst = max(worst, float(np.abs(d).max()))
        return worst


def identity_morphism(V: GradedSpace) -> GradedMorphism:
    return GradedMorphism(V, V, {g: np.eye(d, dtype=complex)
                                 for g, d in V.dims.items()})


class Permutation(GradedMorphism):
    """Graded morphism sending basis vector j of the component at each arrow
    to basis vector index[arrow][j]. Its dense `blocks` are built only when
    something reads them."""

    def __init__(self, domain: GradedSpace, codomain: GradedSpace,
                 index: dict[Arrow, np.ndarray]):
        self.domain, self.codomain, self.index = domain, codomain, index

    def __getitem__(self, k) -> "Permutation":
        return self

    @cached_property
    def blocks(self) -> dict[Arrow, np.ndarray]:
        return {g: np.eye(p.size, dtype=complex)[:, p]
                for g, p in self.index.items()}


def align(src: GradedSpace, dst: GradedSpace) -> Permutation:
    """Permutation morphism matching basis vectors by flat keys.

    Defined when src and dst have the same components up to reassociation
    and insertion/removal of tensor-unit factors.  The index arrays are
    found once per (src, dst) and are read-only.
    """
    return Permutation(src, dst, memo(src, "align",
                                      lambda: _alignment(src, dst), partner=dst))


def _alignment(src: GradedSpace, dst: GradedSpace) -> MappingProxyType:
    _require_same_context(src, dst)
    if set(src.dims) != set(dst.dims):
        raise ShapeMismatch("alignment: component arrows differ")
    for arrow, d in src.dims.items():
        if dst.dims[arrow] != d:
            raise ShapeMismatch(f"alignment: dimension mismatch at {arrow!r}")
    # Tag each key with its component and sort: matched basis vectors then
    # sit at equal positions of the two sorted lists.
    slot = {arrow: k for k, arrow in enumerate(dst.dims)}
    sides = []
    for space in (src, dst):
        tags = np.repeat([slot[g] for g in space.dims], list(space.dims.values()))
        tagged = np.column_stack((tags, space.keys))
        order = np.lexsort(tagged.T[::-1])
        sides.append((tagged[order], order))
    (rows_src, order_src), (rows_dst, order_dst) = sides
    if not np.array_equal(rows_src, rows_dst):
        raise ShapeMismatch("alignment: unmatched basis vector")
    to_dst = np.empty_like(order_src)
    to_dst[order_src] = order_dst
    index = {}
    for g, d in src.dims.items():
        index[g] = to_dst[src.offsets[g]:src.offsets[g] + d] - dst.offsets[g]
        index[g].flags.writeable = False
    return MappingProxyType(index)


def composite(start: GradedSpace,
              *steps: tuple[GradedMorphism | GradedSpace,
                            GradedMorphism | GradedSpace],
              end: GradedSpace) -> GradedMorphism:
    """The whiskers steps[-1] o ... o steps[0] : start -> end, up to
    coherence.  A step (left, right) is tensor_morphism(left, right), a space
    factor standing for its identity, so (f, Z) is f (x) id_Z.  Each whisker
    is built when it is applied: entered through `align` from the previous
    codomain (the first from `start`), multiplied in and dropped before the
    next is built; the rows of the last codomain are gathered onto `end`
    through the reverse alignment.  A step whose domain is no re-bracketing
    of that codomain raises ShapeMismatch."""
    total, at = None, start
    for factors in steps:
        m = tensor_morphism(*(identity_morphism(x) if isinstance(x, GradedSpace)
                              else x for x in factors))
        m = m @ align(at, m.domain)
        total, at = (m if total is None else m @ total), m.codomain
        del m  # not alive while the next whisker is built
    back = align(end, at).index
    return GradedMorphism(start, end, {g: b[..., back[g], :]
                                       for g, b in total.blocks.items()})


def tensor_morphism(f: GradedMorphism, g: GradedMorphism) -> GradedMorphism:
    """f (x) g acting summand-wise by Kronecker products, stacked where f or
    g is."""
    dom = tensor_space(f.domain, g.domain)
    cod = tensor_space(f.codomain, g.codomain)
    blocks = {}
    for gamma, shape, pairs in memo(dom, "summand-pairs",
                                    lambda: _summand_pairs(dom, cod), partner=cod):
        m = None
        for left, right, row, col in pairs:
            fb = f.blocks.get(left)
            gb = g.blocks.get(right)
            if fb is None or gb is None:
                continue
            if m is None:
                lead = fb.shape[:-2] or gb.shape[:-2]
                m = np.zeros(lead + shape, dtype=complex)
            (p, q), (s, t) = fb.shape[-2:], gb.shape[-2:]
            # np.kron(fb, gb) entry by entry, one multiply each, written
            # into the summand's rows (p, s) and columns (q, t); splitting
            # the axes of a slice of m is a view, never a copy
            view = m[..., row:row + p * s, col:col + q * t]
            np.multiply(fb[..., :, None, :, None], gb[..., None, :, None, :],
                        out=view.reshape(lead + (p, s, q, t)))
        if m is not None:
            blocks[gamma] = m
    return GradedMorphism(dom, cod, blocks)


def _summand_pairs(dom: GradedSpace, cod: GradedSpace) -> tuple:
    """Per component shared by dom and cod: its block shape and the
    (left, right, row offset, column offset) of each summand in both."""
    out = []
    for gamma, cod_summands in cod.layout.items():
        if gamma not in dom.dims:
            continue
        dom_offset = {(s.left, s.right): s.offset for s in dom.layout[gamma]}
        pairs = tuple((cs.left, cs.right, cs.offset, dom_offset[cs.left, cs.right])
                      for cs in cod_summands if (cs.left, cs.right) in dom_offset)
        out.append((gamma, (cod.dims[gamma], dom.dims[gamma]), pairs))
    return tuple(out)


@dataclass
class DualityData:
    """Dual space with the coevaluation 1 -> V (x) V* and evaluation V* (x) V -> 1."""

    dual: GradedSpace
    coevaluation: GradedMorphism
    evaluation: GradedMorphism


def dual_space(V: GradedSpace) -> DualityData:
    dims = {inverse(gamma): d for gamma, d in V.dims.items()}
    arrows = [gamma for gamma, d in V.dims.items() for _ in range(d)]
    dual = GradedSpace(context=V.context, dims=dims, keys=_atom_keys(
        ("dual", gamma, tuple(key))
        for gamma, key in zip(arrows, V.keys.tolist())))
    points = V.objects()
    one = unit_space(V.context, points)
    vxd, dxv = tensor_space(V, dual), tensor_space(dual, V)
    coevaluation = GradedMorphism(one, vxd, {
        g: v[:, None] for g, v in _pairing_vectors(vxd, V, points).items()})
    evaluation = GradedMorphism(dxv, one, {
        g: v[None, :] for g, v in _pairing_vectors(dxv, dual, points).items()})
    return DualityData(dual=dual, coevaluation=coevaluation, evaluation=evaluation)


def _pairing_vectors(P: GradedSpace, left: GradedSpace,
                     points: list[WeightPoint]) -> dict[Arrow, np.ndarray]:
    """At each identity arrow of P = left (x) right, the sum of e_k (x) e_k^*
    over the summands whose right arrow inverts the left one."""
    out = {}
    for a in points:
        ida = identity_arrow(a)
        if ida not in P.dims:
            continue
        v = np.zeros(P.dims[ida], dtype=complex)
        for s in P.layout[ida]:
            if s.right == inverse(s.left):
                v[s.offset:s.offset + s.size:left.dims[s.left] + 1] = 1.0
        out[ida] = v
    return out


def zigzag_residual(V: GradedSpace) -> float:
    """Deviation of the two triangle composites from the identity.

    V = 1 (x) V -> (V (x) V*) (x) V = V (x) (V* (x) V) -> V (x) 1 = V and
    V* = V* (x) 1 -> V* (x) (V (x) V*) = (V* (x) V) (x) V* -> 1 (x) V* = V*;
    the reassociations and unit laws are the alignments of flat keys.
    """
    dd = dual_space(V)
    D, coev, ev = dd.dual, dd.coevaluation, dd.evaluation
    return max(composite(X, *steps, end=X).max_diff(identity_morphism(X))
               for X, steps in ((V, ((coev, V), (V, ev))),
                                (D, ((D, coev), (ev, D)))))
