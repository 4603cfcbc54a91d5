"""L-operators, partial traces, transfer matrices as matrix-valued difference
operators, and exact torus partition functions with an independent oracle:
the scalar row-to-row transfer matrix over closed row states.

Sections live on the loop components W_{(a, k(1,...,1))} of the quantum
space; T(z) = tr_V L_W(z) is a `convolution.DifferenceOperator` over the
alcove with the stacked loop sector of W at a as fibre at a, and with the
tensor unit as W it is the character operator of V; L is evaluated at many
z at once, on blocks stacked over them (see `graded`).  The partition function
of the height model on a cols x rows torus is Z = tr M^rows, with M either
the transfer matrix of a cols-site chain or the row-to-row matrix, both
difference operators with blocks (a, a + eps_i), composed and traced block
by block (`DifferenceOperator.power` and `trace`); rows = 0 gives dim M.
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
from typing import Callable, Sequence

import numpy as np

from .convolution import DifferenceOperator
from .elliptic import EllipticParams, pair_index, r_table, table_runs
from .errors import InvalidConfig, ShapeMismatch, check_budget
from .graded import (GradedMorphism, GradedSpace, align, composite, memo,
                     memoized, tensor_space, unit_space)
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


def vector_l_operator(kind: ModelKind, params: EllipticParams,
                      u: complex = 0.0,
                      space: GradedSpace | None = None) -> LOperator:
    """The vector representation with evaluation point u: L(z) = R(z + u)."""
    V = space if space is not None else build_vector_space(kind, params)
    return LOperator(
        aux=V, quantum=V,
        at=lambda zs: restricted_r([z + u for z in zs], kind, params,
                                   space=V),
        params=params)


def trivial_l_operator(kind: ModelKind, params: EllipticParams,
                       space: GradedSpace | None = None) -> LOperator:
    """The trivial representation on the tensor unit."""
    V = space if space is not None else build_vector_space(kind, params)
    one = unit_space(V.context, V.objects())
    tautology = align(tensor_space(V, one), tensor_space(one, V))
    return LOperator(aux=V, quantum=one, at=lambda zs: tautology,
                     params=params)


def l_tensor(first: LOperator, second: LOperator) -> LOperator:
    """Tensor product of quantum spaces: the auxiliary line crosses
    `first` and then `second`; quantum spaces over different models raise
    ContextMismatch."""
    if first.params != second.params:
        raise ShapeMismatch("L-operators have different modular data")
    V, W, Z = first.aux, first.quantum, second.quantum
    return LOperator(aux=V, quantum=tensor_space(W, Z), params=first.params,
                     at=lambda zs: _cross(V, W, Z, first.at(zs),
                                          second.at(zs)))


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
    """Chain V(u_1) (x) ... (x) V(u_c) of vector representations, folded
    like `l_tensor` from the c sites R(z + u_k), at every z, of one
    `restricted_r` call.  Chains given one `space` share its products.

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


def _loop_offsets(W: GradedSpace, a: WeightPoint
                  ) -> tuple[tuple[tuple[Arrow, int], ...], int]:
    """Offset of each loop component at `a` in the stacked loop sector
    (loops ordered by shift), and the sector dimension; the sectors of every
    point are built in one pass over W, once per W."""
    def build():
        loops: dict[WeightPoint, list[Arrow]] = {}
        for g in W.dims:
            if g.is_loop:
                loops.setdefault(g.source, []).append(g)
        sectors = {}
        for b, gs in loops.items():
            offsets, k = [], 0
            for g in sorted(gs, key=lambda g: g.shift):
                offsets.append((g, k))
                k += W.dims[g]
            sectors[b] = tuple(offsets), k
        return sectors

    return memo(W, "loop-offsets", build).get(a, ((), 0))


def sector_dim(W: GradedSpace, a: WeightPoint) -> int:
    return _loop_offsets(W, a)[1]


def partial_trace(f: GradedMorphism, aux: GradedSpace,
                  quantum: GradedSpace) -> dict[Arrow, np.ndarray]:
    """Trace over the auxiliary factor of f : V (x) W -> W (x) V.

    f must map tensor_space(aux, quantum) to tensor_space(quantum, aux),
    those very objects; any other bracketing raises ShapeMismatch.  Returns,
    for each auxiliary arrow (a, mu), the map from the stacked loop sector
    of W at a+mu to the one at a, stacked like the blocks of f.
    """
    dom = tensor_space(aux, quantum)
    cod = tensor_space(quantum, aux)
    if f.domain is not dom or f.codomain is not cod:
        raise ShapeMismatch("partial trace needs a morphism from "
                            "tensor_space(aux, quantum) to "
                            "tensor_space(quantum, aux)")
    out: dict[Arrow, np.ndarray] = {}
    plan = memo(aux, "trace-pieces",
                lambda: _trace_pieces(aux, quantum, dom, cod), partner=quantum)
    lead = next((m.shape[:-2] for m in f.blocks.values()), ())
    for alpha, shape, pieces in plan:
        block = np.zeros(lead + shape, dtype=complex)
        for total, sub_rows, sub_cols, rows, cols, split in pieces:
            # rows of sub run over (p, v), its columns over (v', q)
            sub = f.block(total)[..., sub_rows, sub_cols]
            block[..., rows, cols] = np.trace(
                sub.reshape(sub.shape[:-2] + split), axis1=-3, axis2=-2)
        out[alpha] = block
    return out


def _trace_pieces(aux: GradedSpace, quantum: GradedSpace,
                  dom: GradedSpace, cod: GradedSpace) -> tuple:
    """Per auxiliary arrow alpha with non-empty loop sectors at both ends:
    the block shape and, for each loop l at alpha.source with a translate
    l' at alpha.target, the component holding the (l, alpha) <- (alpha, l')
    sub-block, that sub-block's row and column slices, the slices of its
    trace in the block, and its (p, v, v', q) split; dom = aux (x) quantum
    and cod = quantum (x) aux, their summands found by one join each."""
    index = {g: k for k, g in enumerate(quantum.dims)}
    plans, found = [], []  # found: (alpha, l, l') as component indices
    for a, (alpha, d_aux) in enumerate(aux.dims.items()):
        rows, dim_src = _loop_offsets(quantum, alpha.source)
        cols, dim_tgt = _loop_offsets(quantum, alpha.target)
        if dim_src == 0 or dim_tgt == 0:
            continue
        cols = dict(cols)
        pieces = []
        for lsrc, r in rows:
            ltgt = Arrow(alpha.target, lsrc.shift)
            if ltgt in cols:
                d_out, d_in = quantum.dims[lsrc], quantum.dims[ltgt]
                found.append((a, index[lsrc], index[ltgt]))
                pieces.append((slice(r, r + d_out),
                               slice(cols[ltgt], cols[ltgt] + d_in),
                               (d_out, d_aux, d_aux, d_in)))
        plans.append((alpha, (dim_src, dim_tgt), pieces))
    alphas, lsrcs, ltgts = np.array(found, dtype=np.int64).reshape(-1, 3).T
    dom_at = dom.layout.find(alphas, ltgts)
    cod_at = cod.layout.find(lsrcs, alphas)
    arrows = list(dom.dims)
    found = iter(zip(dom.layout.component[dom_at].tolist(), cod_at.tolist(),
                     dom_at.tolist()))
    # zip takes from `found` only while `pieces` lasts
    return tuple((alpha, shape, tuple(
        (arrows[total], _span(cod, c), _span(dom, d), *piece)
        for piece, (total, c, d) in zip(pieces, found)))
        for alpha, shape, pieces in plans)


def _span(P: GradedSpace, k: int) -> slice:
    """The rows of summand k of P within its component."""
    start = int(P.layout.offset[k])
    return slice(start, start + int(P.layout.size[k]))


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
    if not any(sector_dim(L.quantum, a) for a in L.aux.context.alcove()):
        return 1
    dims = tensor_space(L.aux, L.quantum).dims
    return alive * sum(d * d for d in dims.values())


def transfer_matrix(zs: Sequence[complex],
                    L: LOperator) -> list[DifferenceOperator]:
    """T(z) = tr_V L(z) for each z of zs, as difference operators on loop
    sections over the alcove, L evaluated and traced once per run of
    `table_runs` over zs, the first run of a chain never traced before sized
    on its cold peak; with no section they have no blocks and L is not
    evaluated.  STATE_BUDGET bounds the sections when `vector_chain` builds
    the chain."""
    alcove = tuple(L.aux.context.alcove())
    dims = {a: sector_dim(L.quantum, a) for a in alcove}
    if not sum(dims.values()):
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
