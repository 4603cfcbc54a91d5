"""Groupoid-graded vector spaces of finite type and their block morphisms.

A graded space assigns a finite-dimensional vector space to finitely many
arrows; a morphism is a family of matrices indexed by arrows.  The tensor
product sums over arrow factorizations,

    (V (x) W)_gamma = (+)_{beta o alpha = gamma} V_alpha (x) W_beta,

with the summands laid out in a canonical order (intermediate object, then
first-factor shift, lexicographically).  Every basis vector carries a flat
key, the sequence of atomic basis vectors it was built from, so spaces
related by reassociation or unit insertion are aligned by an index
permutation (`align`), which acts on blocks by gathering their rows or
placing their columns, never as a matrix.

Everything that depends only on spaces (products, alignments, summand
pairings) is built once from integer arrays and kept on the operand spaces,
so morphisms that vary with a parameter over fixed spaces pay only for their
blocks.  A product records its summands as arrays (`Layout`), not one object
each, and `tensor_morphism` writes all summand pairs of one block shape at
once.

A block is a matrix or a stack (B, rows, cols) of them, one per spectral
parameter of a batch, so the Python work per component is paid once per
batch; operations act on the two trailing axes, a plain block (identity)
broadcasts against a stack, and `f[k]` is the k-th morphism.
"""

from __future__ import annotations

import itertools
import math
import weakref
from dataclasses import dataclass, field
from types import MappingProxyType
from typing import NamedTuple

import numpy as np

from .elliptic import table_runs
from .errors import ContextMismatch, ShapeMismatch, check_budget
from .groupoid import Arrow, ModelKind, WeightPoint, identity_arrow, inverse

# summands V_alpha (x) W_beta of one tensor product: the largest product of
# the suites and tests has 162; V (x) (V (x) V) at (n, r) = (3, 140) has
# 167,283 and takes 0.3 s and about 64 MB in CPython 3.11 with numpy 2.4
SUMMAND_BUDGET = 200_000

_ATOM_CODES: dict[tuple, int] = {}


def _atom_keys(atoms) -> np.ndarray:
    """One-column keys: the process-wide code of each atom value, either
    (arrow, index) for an atomic basis vector or ("dual", arrow, key).
    Codes are only compared for equality, so their order affects no result.
    """
    codes = [_ATOM_CODES.setdefault(atom, len(_ATOM_CODES)) for atom in atoms]
    return np.array(codes, dtype=np.int64).reshape(-1, 1)


class Components(NamedTuple):
    """The index of each component's source and target point, in `dims`
    order, for one numbering of the points."""

    source: np.ndarray
    target: np.ndarray


class Layout(NamedTuple):
    """The summands V_alpha (x) W_beta of a product P = V (x) W as arrays,
    one entry per summand in P's basis order: the index of alpha among V's
    components, of beta among W's and of gamma = beta o alpha among P's
    (`dims` order), the summand's first row in gamma's component, and its
    size.  `width` is the number of W's components."""

    left: np.ndarray
    right: np.ndarray
    component: np.ndarray
    offset: np.ndarray
    size: np.ndarray
    width: int

    def find(self, left: np.ndarray, right: np.ndarray) -> np.ndarray:
        """The summand with components (left[k], right[k]) for each k, or -1
        where there is none; a negative index matches no summand."""
        want = left * self.width + right
        if not self.left.size:
            return np.full(want.shape, -1)
        # one summand per (left, right): its code sorts it
        codes = self.left * self.width + self.right
        order = np.argsort(codes)
        at = order[np.searchsorted(codes[order], want).clip(max=codes.size - 1)]
        hit = (left >= 0) & (right >= 0) & (codes[at] == want)
        return np.where(hit, at, -1)


@dataclass(eq=False)
class GradedSpace:
    """Finite-type graded vector space: arrow -> dimension, with flat keys.

    `keys` holds one row of atom codes per basis vector, components stacked
    in `dims` order; tensor-unit factors add no code, dual atoms are opaque.
    `shifts` (one row per component), `sizes` and `starts` (first rows) are
    the components as read-only arrays in `dims` order.  A tensor product
    also has its `layout`.

    A space is immutable after construction and is compared by identity:
    values derived from it (see `memo`) are cached on it and never rebuilt.
    """

    context: ModelKind
    dims: dict[Arrow, int]
    keys: np.ndarray
    layout: Layout | None = None
    shifts: np.ndarray = field(init=False, repr=False)
    sizes: np.ndarray = field(init=False, repr=False)
    starts: np.ndarray = field(init=False, repr=False)
    _memo: dict = field(init=False, repr=False, default_factory=dict)
    _partner_memo: weakref.WeakKeyDictionary = field(
        init=False, repr=False, default_factory=weakref.WeakKeyDictionary)

    def __post_init__(self):
        count, n = len(self.dims), self.context.rank
        self.shifts = np.fromiter(
            itertools.chain.from_iterable(g.shift for g in self.dims),
            np.int64, count * n).reshape(count, n)
        self.sizes = np.fromiter(self.dims.values(), np.int64, count)
        self.starts = self.sizes.cumsum() - self.sizes
        for a in (self.keys, self.shifts, self.sizes, self.starts):
            a.flags.writeable = False

    def split(self, rows: np.ndarray) -> list[np.ndarray]:
        """`rows`, one per basis vector, cut into one view per component in
        `dims` order."""
        ends = (self.starts + self.sizes).tolist()
        return [rows[a:b] for a, b in zip(self.starts.tolist(), ends)]

    @classmethod
    def from_dims(cls, context: ModelKind, dims: dict[Arrow, int]) -> "GradedSpace":
        for arrow, d in dims.items():
            if d < 1:
                raise ValueError(f"stored dimension must be >= 1 at {arrow!r}")
        return cls(context=context, dims=dict(dims), keys=_atom_keys(
            (arrow, k) for arrow, d in dims.items() for k in range(d)))

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


def memoized(space: GradedSpace, key,
             partner: GradedSpace | None = None) -> bool:
    """Whether `memo` holds a value for (space, partner, key)."""
    table = (space._memo if partner is None
             else space._partner_memo.get(partner, {}))
    return key in table


def unit_space(context: ModelKind, points: list[WeightPoint]) -> GradedSpace:
    """Tensor unit: one-dimensional at the identity arrow of each point."""
    dims = {identity_arrow(a): 1 for a in points}
    return GradedSpace(context=context, dims=dims,
                       keys=np.zeros((len(dims), 0), dtype=np.int64))


def _require_same_context(a, b):
    if a.context != b.context:
        raise ContextMismatch(f"{a.context} != {b.context}")


def point_numbering(*spaces: GradedSpace
                    ) -> tuple[tuple[WeightPoint, ...], dict | None]:
    """The points, by `sort_key`, that number the components of `spaces`,
    and their index: the alcove and None (`components`' default) when
    restricted, else the points of `spaces`."""
    if spaces[0].context.is_restricted:
        return spaces[0].context.alcove(), None
    points = tuple(sorted(set().union(*(S.objects() for S in spaces)),
                          key=WeightPoint.sort_key))
    return points, {p: k for k, p in enumerate(points)}


def components(space: GradedSpace, index: dict[WeightPoint, int] | None = None
               ) -> Components:
    """The source and target point indices of `space`'s components, -1 for
    a point `index` lacks; by default by `alcove_index()`, and then built
    once per space (a product gets them from its build)."""
    if index is None:
        return memo(space, "components", lambda: components(
            space, space.context.alcove_index()))
    count = len(space.dims)
    ends = np.fromiter((index.get(p, -1) for g in space.dims
                        for p in (g.source, g.target)), np.int64, 2 * count)
    return Components(*ends.reshape(count, 2).T.copy())


def tensor_space(V: GradedSpace, W: GradedSpace) -> GradedSpace:
    """Tensor product summing over arrow factorizations; built once per
    (V, W) and the same object on every later call."""
    return memo(V, "tensor", lambda: _build_tensor_space(V, W), partner=W)


def _runs(lengths: np.ndarray, starts) -> np.ndarray:
    """The runs starts[k], starts[k] + 1, ..., of lengths[k] each, end to
    end."""
    ends = lengths.cumsum()
    return np.arange(ends[-1] if ends.size else 0) + (
        starts - ends + lengths).repeat(lengths)


def _run_starts(rows: np.ndarray) -> np.ndarray:
    """Where each run of equal rows of `rows` starts."""
    change = np.empty(len(rows), dtype=bool)
    change[:1] = True
    np.logical_or.reduce(rows[1:] != rows[:-1], axis=1, out=change[1:])
    return change.nonzero()[0]


def _build_tensor_space(V: GradedSpace, W: GradedSpace) -> GradedSpace:
    """The product; over SUMMAND_BUDGET summands raise TooLarge before any
    is built.

    Components appear in the order in which V's components, each followed
    by W's components starting at its target, first reach them; within a
    component the summands run by the `sort_key` rank of their middle point,
    then by alpha's shift.  The points are numbered by that rank, by
    `point_numbering(V, W)`."""
    _require_same_context(V, W)
    kind = V.context
    points, index = point_numbering(V, W)
    cv, cw = components(V, index), components(W, index)
    # join: W's components sorted by source, stably, so in W's order within
    # a source; those at each of V's targets
    by_source = cw.source.argsort(kind="stable")
    sources = cw.source[by_source]
    first = sources.searchsorted(cv.target)
    count = sources.searchsorted(cv.target, side="right") - first
    total = int(np.add.reduce(count))
    check_budget("SUMMAND_BUDGET", total, SUMMAND_BUDGET,
                 "tensor-product summands")
    if not total:
        none = np.zeros(0, dtype=np.int64)
        return GradedSpace(context=kind, dims={}, keys=np.zeros(
            (0, V.keys.shape[1] + W.keys.shape[1]), dtype=np.int64),
            layout=Layout(none, none, none, none, none, len(W.dims)))
    left = np.arange(count.size).repeat(count)
    right = by_source[_runs(count, first)]
    # gamma = beta o alpha is (alpha's source, alpha's shift + beta's): sort
    # by gamma, then by the middle point and alpha's shift
    alpha_shift = V.shifts[left]
    gamma = np.empty((total, kind.rank + 1), dtype=np.int64)
    gamma[:, 0] = cv.source[left]
    np.add(alpha_shift, W.shifts[right], out=gamma[:, 1:])
    order = np.lexsort((*alpha_shift.T[::-1], cv.target[left],
                        *gamma.T[::-1]))
    gamma = gamma[order]
    starts = _run_starts(gamma)
    lengths = np.concatenate((starts[1:], [total])) - starts
    # components by first appearance, each a run of the sorted summands
    rank = np.minimum.reduceat(order, starts).argsort()
    starts, lengths = starts[rank], lengths[rank]
    order = order[_runs(lengths, starts)]
    left, right = left[order], right[order]
    size = V.sizes[left] * W.sizes[right]
    ends = lengths.cumsum()
    dims = np.add.reduceat(size, ends - lengths)
    offset = size.cumsum() - size - (dims.cumsum() - dims).repeat(lengths)
    head = gamma[starts]
    arrows = [Arrow(points[row[0]], tuple(row[1:])) for row in head.tolist()]
    P = GradedSpace(
        context=kind, dims=dict(zip(arrows, dims.tolist())),
        keys=_product_keys(V, W, left, right),
        layout=Layout(left, right, np.arange(dims.size).repeat(lengths),
                      offset, size, len(W.dims)))
    if index is None:
        memo(P, "components", lambda: Components(
            source=head[:, 0], target=cw.target[right[ends - 1]]))
    return P


def _product_keys(V: GradedSpace, W: GradedSpace, left: np.ndarray,
                  right: np.ndarray) -> np.ndarray:
    """Keys of the summands V_alpha (x) W_beta, alpha = V's component
    left[k] and beta = W's right[k], stacked in one step; summand rows run
    over v, then w."""
    dim_w = W.sizes[right]
    size = V.sizes[left] * dim_w
    which = np.arange(size.size).repeat(size)
    local, step = _runs(size, 0), dim_w[which]
    return np.concatenate((V.keys[V.starts[left[which]] + local // step],
                           W.keys[W.starts[right[which]] + local % step]),
                          axis=1)


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
        return np.zeros((self.codomain.dims.get(arrow, 0),
                         self.domain.dims.get(arrow, 0)), dtype=complex)

    def compose(self, other: "GradedMorphism") -> "GradedMorphism":
        """self o other (apply `other` first), block by block; a component
        where either factor has no block has none in the product.  Alignments
        act on blocks by index arrays instead (`composite`,
        `tensor_morphism`)."""
        if other.codomain.dims != self.domain.dims:
            raise ShapeMismatch("composition: inner spaces do not match")
        return GradedMorphism(other.domain, self.codomain, {
            g: self.blocks[g] @ other.blocks[g]
            for g in set(self.blocks) & set(other.blocks)})

    def __matmul__(self, other: "GradedMorphism") -> "GradedMorphism":
        return self.compose(other)

    def max_diff(self, other: "GradedMorphism") -> float:
        worst = 0.0
        for arrow in set(self.blocks) | set(other.blocks):
            d = self.block(arrow) - other.block(arrow)
            if d.size:
                worst = max(worst, float(np.abs(d).max()))
        return worst


def identity_morphism(V: GradedSpace) -> GradedMorphism:
    """The identity; components of one dimension share one read-only
    block."""
    eye = {d: np.eye(d, dtype=complex) for d in set(V.dims.values())}
    for m in eye.values():
        m.flags.writeable = False
    return GradedMorphism(V, V, {g: eye[d] for g, d in V.dims.items()})


class Alignment(NamedTuple):
    """The basis permutation src -> dst of `align`, as read-only index arrays:
    index[arrow][j] is the basis vector of dst's component at arrow that
    basis vector j of src's is sent to, and columns[i] is, for basis vector
    i of dst, the j within its component sent to it."""

    index: MappingProxyType
    columns: np.ndarray


def align(src: GradedSpace, dst: GradedSpace) -> Alignment:
    """The permutation matching basis vectors by flat keys.

    Defined when src and dst have the same components up to reassociation
    and insertion/removal of tensor-unit factors.  Found once per (src, dst):
    every later call returns the same arrays.
    """
    return memo(src, "align", lambda: _alignment(src, dst), partner=dst)


def _alignment(src: GradedSpace, dst: GradedSpace) -> Alignment:
    """align(src, dst), found from the keys."""
    _require_same_context(src, dst)
    if set(src.dims) != set(dst.dims):
        raise ShapeMismatch("alignment: component arrows differ")
    slot = _positions(src, dst)
    for arrow in itertools.compress(src.dims, dst.sizes[slot] != src.sizes):
        raise ShapeMismatch(f"alignment: dimension mismatch at {arrow!r}")
    # Tag each key with its component in dst and sort: matched basis vectors
    # then sit at equal positions of the two sorted lists.
    sides = []
    for space, tags in ((src, slot), (dst, np.arange(len(dst.dims)))):
        tagged = np.column_stack((tags.repeat(space.sizes), space.keys))
        order = np.lexsort(tagged.T[::-1])
        sides.append((tagged[order], order))
    (rows_src, order_src), (rows_dst, order_dst) = sides
    if not np.array_equal(rows_src, rows_dst):
        raise ShapeMismatch("alignment: unmatched basis vector")
    to_dst = np.empty_like(order_src)
    to_dst[order_src] = order_dst
    local = to_dst - dst.starts[slot].repeat(src.sizes)
    local.flags.writeable = False
    columns = np.empty_like(to_dst)
    columns[to_dst] = _runs(src.sizes, 0)
    columns.flags.writeable = False
    return Alignment(MappingProxyType(dict(zip(src.dims, src.split(local)))),
                     columns)


def composite(start: GradedSpace,
              *steps: tuple[GradedMorphism | GradedSpace,
                            GradedMorphism | GradedSpace],
              end: GradedSpace) -> GradedMorphism:
    """The whiskers steps[-1] o ... o steps[0] : start -> end, up to
    coherence.  A step (left, right) is tensor_morphism(left, right), a space
    factor standing for its identity, so (f, Z) is f (x) id_Z.  Each whisker
    is built when it is applied: on the previous codomain (the first on
    `start`), multiplied in and dropped before the next is built; the rows
    of the last codomain are gathered onto `end` through the reverse
    alignment.  A step whose domain is no re-bracketing of that codomain
    raises ShapeMismatch."""
    total, at = None, start
    for factors in steps:
        m = tensor_morphism(*(identity_morphism(x) if isinstance(x, GradedSpace)
                              else x for x in factors), domain=at)
        total, at = (m if total is None else m @ total), m.codomain
        del m  # not alive while the next whisker is built
    back = align(end, at).index
    return GradedMorphism(start, end, {g: b[..., back[g], :]
                                       for g, b in total.blocks.items()})


def tensor_morphism(f: GradedMorphism, g: GradedMorphism,
                    domain: GradedSpace | None = None) -> GradedMorphism:
    """f (x) g acting summand-wise by Kronecker products, stacked where f or
    g is; on `domain`, f (x) g after the permutation of `domain` onto
    tensor_space(f.domain, g.domain), its columns written where
    align(domain, tensor_space(f.domain, g.domain)) takes them.

    The summand pairs of one block shape (p, q, s, t) are written together:
    f's and g's blocks gathered, one broadcast multiply (the products of
    np.kron) and one write into the result blocks, which share one buffer;
    cut by `table_runs`, so that no product stack exceeds TABLE_BUDGET
    entries.  A component has a block when one of its pairs has f's and g's.
    """
    dom = tensor_space(f.domain, g.domain)
    cod = tensor_space(f.codomain, g.codomain)
    domain = dom if domain is None else domain
    f_arrows, g_arrows, arrows, shapes, area, groups = memo(
        dom, "summand-pairs", lambda: _summand_pairs(
            f.domain, f.codomain, g.domain, g.codomain, dom, cod), partner=cod)
    columns = align(domain, dom).columns
    fs, gs = _flat_blocks(f, f_arrows), _flat_blocks(g, g_arrows)
    if fs is None or gs is None:
        return GradedMorphism(domain, cod, {})
    (f_flat, f_start, f_lead, f_all), (g_flat, g_start, g_lead, g_all) = fs, gs
    lead = np.broadcast_shapes(f_lead, g_lead)
    size, f_size, g_size = map(math.prod, (lead, f_lead, g_lead))
    f_lead = (1,) * (len(lead) - len(f_lead)) + f_lead
    g_lead = (1,) * (len(lead) - len(g_lead)) + g_lead
    if not (f_all and g_all):  # drop the pairs without both blocks
        groups = [(shape, *(x[keep] for x in (fi, gi, comp, rows, cols)))
                  for shape, fi, gi, comp, rows, cols in groups
                  for keep in [(f_start[fi] >= 0) & (g_start[gi] >= 0)]]
        has = np.zeros(area.size, dtype=bool)
        for *_, comp, _, _ in groups:
            has[comp] = True
        area = area * has
    # the blocks side by side, a row of them per stack index
    base = area.cumsum() - area
    out = np.zeros((size, int(area.sum())), dtype=complex)
    for (p, q, s, t), fi, gi, comp, rows, cols in groups:
        for k, run in table_runs(range(len(fi)), size * p * q * s * t):
            run = slice(k, k + len(run))
            fb = f_flat[f_start[fi[run], None] + np.arange(f_size * p * q)]
            gb = g_flat[g_start[gi[run], None] + np.arange(g_size * s * t)]
            # the block's first entry, the pair's rows and its columns in
            # the domain
            where = (base[comp[run], None, None] + rows[run, :, None]
                     + columns[cols[run]][:, None, :])
            m = len(where)
            out[:, where] = (fb.reshape((m,) + f_lead + (p, 1, q, 1))
                             * gb.reshape((m,) + g_lead + (1, s, 1, t))
                             ).reshape(m, size, p * s, q * t).transpose(1, 0, 2, 3)
    return GradedMorphism(domain, cod, {
        gamma: out[:, b:b + n].reshape(lead + shape)
        for gamma, b, n, shape in zip(arrows, base.tolist(), area.tolist(),
                                      shapes) if n})


def _flat_blocks(f: GradedMorphism, arrows: tuple):
    """f's blocks at `arrows` raveled into one array, the first entry of each
    block there (-1 where f has none), the blocks' leading shape and whether
    every arrow has a block; None when none has."""
    blocks = [f.blocks.get(a) for a in arrows]
    present = [b for b in blocks if b is not None]
    if not present:
        return None
    lead, *others = {b.shape[:-2] for b in present}
    if others:  # plain blocks broadcast against stacked ones
        lead = np.broadcast_shapes(lead, *others)
        present = [np.broadcast_to(b, lead + b.shape[-2:]) for b in present]
    sizes = np.array([b.size for b in present])
    start = sizes.cumsum() - sizes
    complete = len(present) == len(blocks)
    if not complete:
        start = np.full(len(blocks), -1)
        start[[b is not None for b in blocks]] = sizes.cumsum() - sizes
    return np.concatenate(present, axis=None), start, lead, complete


def _positions(S: GradedSpace, T: GradedSpace) -> np.ndarray:
    """The index of each of S's component arrows among T's, or -1."""
    if S is T:
        return np.arange(len(S.dims))
    index = {a: k for k, a in enumerate(T.dims)}
    return np.fromiter((index.get(a, -1) for a in S.dims), np.int64,
                       len(S.dims))


def _summand_pairs(f_dom: GradedSpace, f_cod: GradedSpace, g_dom: GradedSpace,
                   g_cod: GradedSpace, dom: GradedSpace,
                   cod: GradedSpace) -> tuple:
    """Each summand of cod = f_cod (x) g_cod joined, by one array join, to
    the summand of dom = f_dom (x) g_dom with the same (alpha, beta), where
    there is one: the arrows of f_cod (f's blocks) and of g_cod (g's), the
    components of cod with a pair, their block shapes and areas, and per
    block shape (p, q, s, t) of f's and g's blocks, for each pair, its arrow
    of f_cod, its arrow of g_cod, its component, the first entry of each of
    its p s rows in the block, and its q t columns in dom's basis."""
    cl, dl = cod.layout, dom.layout
    match = dl.find(_positions(f_cod, f_dom)[cl.left],
                    _positions(g_cod, g_dom)[cl.right])
    kept = np.flatnonzero(match >= 0)
    match = match[kept]
    # the components of cod with a pair (cod's summands run by component)
    comp = cl.component[kept]
    firsts = _run_starts(comp[:, None])
    comps = comp[firsts]
    component = comps.searchsorted(comp)
    rows, width = cod.sizes[comps], dom.sizes[dl.component[match]]
    f, g = cl.left[kept], cl.right[kept]
    shape = np.stack((f_cod.sizes[f], f_dom.sizes[dl.left[match]],
                      g_cod.sizes[g], g_dom.sizes[dl.right[match]]), axis=1)
    order = np.lexsort(shape.T[::-1])
    starts = _run_starts(shape[order])
    # entry (a s + b, c t + d) of a pair at row offset + a s + b of its
    # block and at column offset + c t + d of its component of dom
    row = cl.offset[kept] * width
    col = dl.offset[match] + dom.starts[dl.component[match]]
    groups = []
    for a, b in zip(starts.tolist(), [*starts[1:].tolist(), len(order)]):
        k = order[a:b]
        p, q, s, t = shape[k[0]].tolist()
        groups.append(((p, q, s, t), f[k], g[k], component[k],
                       row[k, None] + np.arange(p * s) * width[k, None],
                       col[k, None] + np.arange(q * t)))
    cols, cod_arrows = width[firsts], list(cod.dims)
    return (tuple(f_cod.dims), tuple(g_cod.dims),
            tuple(cod_arrows[c] for c in comps.tolist()),
            tuple(zip(rows.tolist(), cols.tolist())), rows * cols, tuple(groups))


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
        g: v[:, None] for g, v in _pairing_vectors(vxd, V, dual, points).items()})
    evaluation = GradedMorphism(dxv, one, {
        g: v[None, :] for g, v in _pairing_vectors(dxv, dual, V, points).items()})
    return DualityData(dual=dual, coevaluation=coevaluation, evaluation=evaluation)


def _pairing_vectors(P: GradedSpace, left: GradedSpace, right: GradedSpace,
                     points: list[WeightPoint]) -> dict[Arrow, np.ndarray]:
    """At each identity arrow of P = left (x) right, the sum of e_k (x) e_k^*
    over the summands whose right arrow inverts the left one."""
    index = {a: k for k, a in enumerate(right.dims)}
    inverses = np.fromiter((index.get(inverse(a), -1) for a in left.dims),
                           np.int64, len(left.dims))
    at = P.layout.find(np.arange(len(left.dims)), inverses)
    at = at[at >= 0]
    # the diagonal of each summand: every (d + 1)-th of its d * d rows
    d = left.sizes[P.layout.left[at]]
    first = P.starts[P.layout.component[at]] + P.layout.offset[at]
    flat = np.zeros(len(P.keys), dtype=complex)
    flat[first.repeat(d) + _runs(d, 0) * (d + 1).repeat(d)] = 1.0
    pieces = dict(zip(P.dims, P.split(flat)))
    return {g: pieces[g] for g in map(identity_arrow, points) if g in pieces}


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
