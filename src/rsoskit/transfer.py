"""The vector chain as an L-operator, partial traces, transfer matrices as
matrix-valued difference operators, and exact torus partition functions with
an independent oracle: the scalar row-to-row transfer matrix over closed row
states.

The one L-operator built here is the chain V(u_1) (x) ... (x) V(u_c) of
`vector_chain`: its auxiliary line V crosses the sites R(z + u_k) one by
one.  Sections live on the loop components W_{(a, k(1,...,1))} of the
quantum space, one table of arrays per W (`loop_sectors`); T(z) =
tr_V L_W(z) is a `convolution.DifferenceOperator` over the alcove with the
stacked loop sector of W at a as fibre at a; L is evaluated at many z at
once, on blocks stacked over them (see `graded`).

The partition function of the height model on a cols x rows torus is
Z = tr M^rows, with M either the transfer matrix of a cols-site chain or the
row-to-row matrix, both difference operators with blocks (a, a + eps_i),
composed and traced block by block (`DifferenceOperator.power` and
`trace`); rows = 0 gives dim M.
Every component of the chain has a shift whose coordinates sum to cols, and
a loop k(1,...,1) sums to nk, so unless n divides cols M is empty and
`transfer_matrix` evaluates no L(z).  Each row moves the row's first height
by one step, and `rows` steps return to a mod (1,...,1) only when every
index occurs equally often.  So tr M^rows is 0 unless n divides rows and
cols; the partition functions return 0j unbuilt.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Callable, NamedTuple, Sequence

import numpy as np

from .convolution import DifferenceOperator
from .elliptic import EllipticParams, pair_index, r_table, table_runs
from .errors import InvalidConfig, ShapeMismatch, check_budget
from .graded import (GradedMorphism, GradedSpace, _runs, components, composite,
                     memo, memoized, point_numbering, tensor_space)
from .groupoid import Arrow, ModelKind, WeightPoint, eps
from .rsos import build_vector_space, restricted_r


@dataclass
class LOperator:
    """Meromorphic family z -> morphism V (x) W -> W (x) V obeying RLL;
    `at(zs)` is the morphism stacked over the sequence zs (plain where it
    does not depend on z), and `at(zs)[k]` the one at zs[k]."""

    aux: GradedSpace
    quantum: GradedSpace
    at: Callable[[Sequence[complex]], GradedMorphism]
    params: EllipticParams


def _cross(V: GradedSpace, W: GradedSpace, Z: GradedSpace, f: GradedMorphism,
           g: GradedMorphism) -> GradedMorphism:
    """The auxiliary line V crossing W by f : V (x) W -> W (x) V and then Z by
    g : V (x) Z -> Z (x) V, as a morphism V (x) WZ -> WZ (x) V, WZ = W (x) Z."""
    WZ = tensor_space(W, Z)
    return composite(tensor_space(V, WZ), (f, Z), (W, g),
                     end=tensor_space(WZ, V))


def vector_chain(kind: ModelKind, params: EllipticParams,
                 points: tuple[complex, ...],
                 space: GradedSpace | None = None) -> LOperator:
    """Chain V(u_1) (x) ... (x) V(u_c) of vector representations: the
    auxiliary line crosses the c sites R(z + u_k) one by one (`_cross`), the
    sites at every z read off one `restricted_r` call.  Chains given one
    `space` share its products.

    Its loop sections are as many as the closed c-step rows, so STATE_BUDGET
    is checked by `_closed_rows` before any tensor product is built."""
    if not points:
        raise InvalidConfig("a chain needs at least one site")
    _closed_rows(kind, len(points))
    V = space if space is not None else build_vector_space(kind, params)
    # quantum[k]: the nested quantum space of the first k + 1 sites
    quantum = list(itertools.accumulate([V] * len(points), tensor_space))

    def at(zs: Sequence[complex]) -> GradedMorphism:
        b = len(zs)
        sites = restricted_r([z + u for u in points for z in zs], kind,
                             params, space=V)
        first = sites[:b]
        for k, W in enumerate(quantum[:-1], start=1):
            first = _cross(V, W, V, first, sites[k * b:(k + 1) * b])
        return first

    return LOperator(aux=V, quantum=quantum[-1], at=at, params=params)


class LoopSectors(NamedTuple):
    """A quantum space W's loops W_{(a, k(1,...,1))} (indices in `dims`
    order) by point, then by k; each one's first row in its point's stacked
    sector; the sector dimension at each point (`point_numbering(W)`)."""

    loops: np.ndarray
    rows: np.ndarray
    dims: np.ndarray


def loop_sectors(W: GradedSpace) -> LoopSectors:
    """W's loop sectors, built once per W from its component arrays."""
    def build():
        points, index = point_numbering(W)
        source = components(W, index).source
        # a loop's shift is k(1,...,1), so its first entry fixes it
        loops = np.flatnonzero((W.shifts == W.shifts[:, :1]).all(axis=1))
        loops = loops[np.lexsort((W.shifts[loops, 0], source[loops]))]
        at, size = source[loops], W.sizes[loops]
        ends = size.cumsum()
        # bounds[p]: the first row of point p's sector, sectors stacked
        bounds = np.append(0, ends)[at.searchsorted(range(len(points) + 1))]
        return LoopSectors(loops, ends - size - bounds[at], np.diff(bounds))

    return memo(W, "loop-sectors", build)


def partial_trace(f: GradedMorphism, aux: GradedSpace,
                  quantum: GradedSpace) -> dict[Arrow, np.ndarray]:
    """Trace over the auxiliary factor of f : V (x) W -> W (x) V.

    f must map tensor_space(aux, quantum) to tensor_space(quantum, aux),
    those very objects; any other bracketing raises ShapeMismatch.  Returns,
    for each auxiliary arrow (a, mu), the map from the stacked loop sector
    of W at a+mu to the one at a, stacked like f's blocks broadcast together.
    """
    dom, cod = tensor_space(aux, quantum), tensor_space(quantum, aux)
    if f.domain is not dom or f.codomain is not cod:
        raise ShapeMismatch("partial trace needs a morphism from "
                            "tensor_space(aux, quantum) to "
                            "tensor_space(quantum, aux)")
    alphas, shapes, pieces = memo(aux, "trace-pieces", lambda: _trace_pieces(
        aux, quantum, dom, cod), partner=quantum)
    lead = np.broadcast_shapes(*{m.shape[:-2] for m in f.blocks.values()})
    out = [np.zeros(lead + shape, dtype=complex) for shape in shapes]
    for k, total, sub_rows, sub_cols, rows, cols, split in pieces:
        # rows of sub run over (p, v), its columns over (v', q)
        sub = f.block(total)[..., sub_rows, sub_cols]
        out[k][..., rows, cols] = np.trace(
            sub.reshape(sub.shape[:-2] + split), axis1=-3, axis2=-2)
    return dict(zip(alphas, out))


def _trace_pieces(aux: GradedSpace, quantum: GradedSpace,
                  dom: GradedSpace, cod: GradedSpace) -> tuple:
    """The auxiliary arrows alpha with non-empty loop sectors at both ends,
    their block shapes; and per loop l at an alpha's source with a loop l'
    of the same shift at its target, by one array join: alpha's position, the
    component of dom = aux (x) quantum and cod = quantum (x) aux holding the
    (l, alpha) <- (alpha, l') sub-block, its row and column slices there and
    in alpha's block, and its (p, v, v', q) split."""
    loops, rows, dims = loop_sectors(quantum)
    index = point_numbering(quantum)[1]
    at = components(quantum, index).source[loops]
    ca = components(aux, index)
    has = np.append(dims, 0) > 0  # a point -1, not quantum's, has no sector
    alphas = np.flatnonzero(has[ca.source] & has[ca.target])
    src, tgt = ca.source[alphas], ca.target[alphas]
    # each alpha against the loops at its source, then the loop of the same
    # shift at its target: the loops, sorted by (point, k), have sorted codes
    first = at.searchsorted(np.arange(dims.size + 1))
    count = first[src + 1] - first[src]
    a, lsrc = alphas.repeat(count), _runs(count, first[src])
    k = quantum.shifts[loops, 0] - quantum.shifts[loops, 0].min(initial=0)
    width = int(k.max(initial=0)) + 1
    codes, want = at * width + k, ca.target[a] * width + k[lsrc]
    ltgt = codes.searchsorted(want).clip(max=codes.size - 1)
    hit = codes[ltgt] == want
    a, l_out, l_in = a[hit], loops[lsrc[hit]], loops[ltgt[hit]]
    dom_at, cod_at = dom.layout.find(a, l_in), cod.layout.find(l_out, a)
    arrows, total = list(aux.dims), list(dom.dims)
    shapes = list(zip(dims[src].tolist(), dims[tgt].tolist()))
    return [arrows[x] for x in alphas.tolist()], shapes, [
        (x, total[t], slice(r, r + p * v), slice(c, c + v * q),
         slice(i, i + p), slice(j, j + q), (p, v, v, q))
        for x, t, r, c, i, j, p, v, q in zip(*(y.tolist() for y in (
            alphas.searchsorted(a), dom.layout.component[dom_at],
            cod.layout.offset[cod_at], dom.layout.offset[dom_at],
            rows[lsrc[hit]], rows[ltgt[hit]], quantum.sizes[l_out],
            aux.sizes[a], quantum.sizes[l_in])))]


# morphisms the size of L(z) alive at once per point while a chain crosses
# its last site (the partial product, one whisker written on its domain,
# their product): under tracemalloc a warm run of a 3-site chain at (3,10) to
# (3,40), L(z) and its trace, peaks at 4.8 to 5.2 times the blocks of L(z) at
# one point, 4.0 to 4.3 per point at two.  The first, cold run also builds
# the chain's products, alignments and summand pairings, and peaks at 10.9 to
# 12.7 times them at one point: it is sized on _COLD.
_ALIVE = 6
_COLD = 13


def _point_cost(L: LOperator, alive: int = _ALIVE) -> int:
    """Block entries held per spectral point while L is evaluated, with
    `alive` morphisms the size of L(z); 1 when there is no loop section, as
    T(z) then evaluates nothing."""
    if not loop_sectors(L.quantum).dims.any():
        return 1
    return alive * int(np.square(tensor_space(L.aux, L.quantum).sizes).sum())


def transfer_matrix(zs: Sequence[complex],
                    L: LOperator) -> list[DifferenceOperator]:
    """T(z) = tr_V L(z) for each z of zs, as difference operators on loop
    sections over the alcove, L evaluated and traced once per run of
    `table_runs` over zs, the first run of a chain never traced before sized
    on its cold peak; with no section they have no blocks and L is not
    evaluated.  STATE_BUDGET bounds the sections when `vector_chain` builds
    the chain."""
    alcove = tuple(L.aux.context.alcove())
    sectors = loop_sectors(L.quantum).dims
    dims = dict(zip(alcove, sectors.tolist()))
    if not sectors.any():
        return [DifferenceOperator(alcove, dims, {}) for _ in zs]
    zs, runs = list(zs), []
    if zs and not memoized(L.aux, "trace-pieces", partner=L.quantum):
        [(_, first), *_] = table_runs(zs, _point_cost(L, _COLD))
        runs, zs = [first], zs[len(first):]
    runs += [run for _, run in table_runs(zs, _point_cost(L))]
    out = []
    for run in runs:
        traced = partial_trace(L.at(run), L.aux, L.quantum)
        out += [DifferenceOperator(alcove, dims, {
            alpha: b if b.ndim == 2 else b[k] for alpha, b in traced.items()})
            for k in range(len(run))]
    return out


def _commutator_norm(ts: list[DifferenceOperator]) -> float:
    """Max-norm of [T(z), T(w)] over the pairs ts[0:2], ts[2:4], ..."""
    worst = 0.0
    for tz, tw in zip(ts[::2], ts[1::2]):
        zw, wz = (tz @ tw).blocks, (tw @ tz).blocks
        for g in zw.keys() | wz.keys():
            worst = max(worst, float(np.abs(
                zw.get(g, 0) - wz.get(g, 0)).max(initial=0.0)))
    return worst


def commutator_residual(L: LOperator,
                        pairs: Sequence[tuple[complex, complex]]) -> float:
    """Max-norm of [T(z), T(w)] over the (z, w) of pairs, block by block;
    the T of each run of pairs come from one `transfer_matrix` call, and no
    run's outlives it."""
    return max((_commutator_norm(transfer_matrix(
        [u for pair in run for u in pair], L))
        for _, run in table_runs(list(pairs), 2 * _point_cost(L))),
        default=0.0)


def rll_residual(L: LOperator, z: complex, w: complex) -> float:
    """Residual of the quadratic exchange relation
    R(z-w)^(23) L(z)^(12) L(w)^(23) = L(w)^(12) L(z)^(23) R(z-w)^(12)."""
    V, W = L.aux, L.quantum
    r = restricted_r([z - w], V.context, L.params, space=V)[0]
    both = L.at([z, w])
    lz, lw = both[0], both[1]
    start, end = tensor_space(r.domain, W), tensor_space(W, r.domain)
    lhs = composite(start, (V, lw), (lz, V), (W, r), end=end)
    rhs = composite(start, (r, W), (V, lz), (lw, V), end=end)
    return lhs.max_diff(rhs)


FACE_BUDGET = 16
# Row states of one row-to-row matrix, or loop sections of one c-site chain.
# The largest admitted 3-site chain, (3,84) with 19,683 states, peaks at
# 646 MB RSS in `verify transfer-commute` and 604 MB in `verify partition`.
STATE_BUDGET = 20_000


def _closed_rows(kind: ModelKind, cols: int) -> list[tuple[WeightPoint, tuple[int, ...]]]:
    """Admissible single-row states: paths of length `cols` that return to
    their start mod (1,...,1), i.e. use every step index equally often, so
    none unless n divides cols (no path is listed then); over STATE_BUDGET
    states raise TooLarge."""
    n = kind.rank
    if cols % n:
        return []
    states = [(a, steps) for a in kind.alcove() for steps in kind.paths(a, cols)
              if len({steps.count(i) for i in range(1, n + 1)}) == 1]
    check_budget("STATE_BUDGET", len(states), STATE_BUDGET, "states")
    return states


def _row_transfer_matrix(z: complex, kind: ModelKind, params: EllipticParams,
                         us: tuple[complex, ...]) -> DifferenceOperator:
    """The scalar row-to-row transfer matrix (Baxter 1982, ch. 7) over the
    closed row states of len(us) columns, those of first height a as fibre
    at a; over STATE_BUDGET states `_closed_rows` raises before any is paired.

    Entry (t, b) is the weight of a row of faces between row state t below
    and b above: zero unless every vertical edge is a step eps_i inside the
    alcove (so it sits in a block (a, eps_i)), else the product over columns
    k of the R-matrix entries at z + u_k read off at each face's western
    corner.
    """
    cols = len(us)
    states = _closed_rows(kind, cols)
    n, points, move = kind.rank, kind.alcove(), kind.move()
    index = kind.alcove_index()
    # walk[s, k]: the k-th step of row state s; height[s, k]: its k-th vertex
    walk = np.array([steps for _, steps in states], dtype=int).reshape(-1, cols)
    height = np.empty_like(walk)
    height[:, 0] = [index[a] for a, _ in states]
    for k in range(1, cols):
        height[:, k] = move[height[:, k - 1], walk[:, k - 1]]
    # the states are listed by first height: first[p]:first[p + 1] start at
    # points[p].  The blocks (points[p], eps_i) between non-empty fibres are
    # laid end to end row by row: entry e of block blk[e] pairs t[e] below
    # with b[e] above
    first = np.searchsorted(height[:, 0], np.arange(len(points) + 1))
    size = np.diff(first)
    p, i = np.nonzero((move >= 0) & (size[:, None] > 0) & (size[move] > 0))
    q, area = move[p, i], size[p] * size[move[p, i]]
    blk = np.repeat(np.arange(len(p)), area)
    e = np.arange(area.sum()) - np.repeat(np.cumsum(area) - area, area)
    t, b = first[p][blk] + e // size[q][blk], first[q][blk] + e % size[q][blk]
    # vert[e, k]: the step from the k-th vertex of t[e] to that of b[e], else 0
    vert = np.zeros((len(e), cols), dtype=int)
    for step in range(1, n + 1):
        vert[move[height[t], step] == height[b]] = step
    steps = (vert > 0).all(axis=1)
    t, b, vert = t[steps], b[steps], vert[steps]
    # one table over the distinct z + u_k, read as [z + u_k][point]
    shift = {v: k for k, v in enumerate(dict.fromkeys(z + u for u in us))}
    table = r_table([v for v in shift for _ in points], points * len(shift),
                    params).reshape(len(shift), len(points), n * n, n * n)
    weight = np.ones(len(t), dtype=complex)
    for k, u in enumerate(us):
        # face k: <e_walk[t,k] (x) e_vert[k+1] | R | e_vert[k] (x) e_walk[b,k]>
        weight *= table[shift[z + u], height[t, k],
                        pair_index(n, walk[t, k], vert[:, (k + 1) % cols]),
                        pair_index(n, vert[:, k], walk[b, k])]
    entries = np.zeros(len(e), dtype=complex)
    entries[steps] = weight
    return DifferenceOperator(tuple(points), dict(zip(points, size.tolist())), {
        Arrow(points[x], eps(n, y)): entries[end - s:end].reshape(size[x], -1)
        for x, y, s, end in zip(p, i.tolist(), area, np.cumsum(area))})


def graded_transfer_matrix(z: complex, kind: ModelKind, params: EllipticParams,
                           us: tuple[complex, ...],
                           space: GradedSpace | None = None
                           ) -> DifferenceOperator:
    """T(z) = tr_V L(z) of the chain V(u_1) (x) ... (x) V(u_c) on the loop
    sections over the alcove, V = `space` when given."""
    return transfer_matrix([z], vector_chain(kind, params, tuple(us),
                                             space=space))[0]


def _partition(build, rows: int, cols: int, z: complex, kind: ModelKind,
               params: EllipticParams,
               inhomogeneities: tuple[complex, ...] | None) -> complex:
    """tr M^rows for M = build(z, kind, params, us), after checking the torus
    size, FACE_BUDGET and one inhomogeneity per column."""
    if rows < 0:
        raise InvalidConfig(f"rows must be >= 0, got {rows}")
    if cols < 1:
        raise InvalidConfig(f"cols must be >= 1, got {cols}")
    check_budget("FACE_BUDGET", rows * cols, FACE_BUDGET, "faces")
    us = inhomogeneities if inhomogeneities is not None else (0.0,) * cols
    if len(us) != cols:
        raise InvalidConfig(f"one inhomogeneity per column required: "
                            f"{len(us)} given for cols = {cols}")
    if rows % kind.rank or cols % kind.rank:  # see the module docstring
        return 0j
    return complex(build(z, kind, params, us).power(rows).trace())


def partition_enumerate(rows: int, cols: int, z: complex, kind: ModelKind,
                        params: EllipticParams,
                        inhomogeneities: tuple[complex, ...] | None = None
                        ) -> complex:
    """Exact torus partition function tr R^rows of the scalar row-to-row
    transfer matrix R; shares only `r_table`, the row states and the
    `DifferenceOperator` algebra with the graded side."""
    return _partition(_row_transfer_matrix, rows, cols, z, kind, params,
                      inhomogeneities)


def partition_via_transfer(rows: int, cols: int, z: complex, kind: ModelKind,
                           params: EllipticParams,
                           inhomogeneities: tuple[complex, ...] | None = None
                           ) -> complex:
    """Torus partition function as the trace of the rows-th transfer power."""
    return _partition(graded_transfer_matrix, rows, cols, z, kind, params,
                      inhomogeneities)
