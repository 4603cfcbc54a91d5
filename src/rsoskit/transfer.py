"""L-operators, partial traces, transfer matrices as matrix-valued difference
operators, and exact torus partition functions with an enumeration oracle.

Sections live on the loop components W_{(a, k(1,...,1))} of the quantum
space; the transfer matrix tr_V L_W(z) maps the stacked loop sector at
a + eps_i to the one at a, and the trace of its m-th power is the partition
function of the height model on a cols x m torus.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from .elliptic import EllipticParams, FlatR, r_matrix
from .errors import ShapeMismatch, TooLarge
from .graded import (GradedMorphism, GradedSpace, align, identity_morphism,
                     tensor_morphism, tensor_space, unit_space)
from .groupoid import Arrow, WeightPoint, add_vectors, eps
from .rsos import ModelKind, build_vector_space, restricted_r


@dataclass
class LOperator:
    """Meromorphic family z -> morphism V (x) W -> W (x) V obeying RLL."""

    aux: GradedSpace
    quantum: GradedSpace
    at: Callable[[complex], GradedMorphism]
    kind: ModelKind
    params: EllipticParams


def vector_l_operator(kind: ModelKind, params: EllipticParams,
                      u: complex = 0.0,
                      space: GradedSpace | None = None) -> LOperator:
    """The vector representation with evaluation point u: L(z) = R(z + u)."""
    V = space if space is not None else build_vector_space(kind, params)
    return LOperator(
        aux=V, quantum=V,
        at=lambda z: restricted_r(z + u, kind, params, space=V),
        kind=kind, params=params)


def trivial_l_operator(kind: ModelKind, params: EllipticParams,
                       space: GradedSpace | None = None) -> LOperator:
    """The trivial representation on the tensor unit."""
    V = space if space is not None else build_vector_space(kind, params)
    one = unit_space(V.context, V.objects())
    tautology = align(tensor_space(V, one), tensor_space(one, V))
    return LOperator(aux=V, quantum=one, at=lambda z: tautology,
                     kind=kind, params=params)


def l_tensor(first: LOperator, second: LOperator) -> LOperator:
    """Tensor product of quantum spaces: the auxiliary line crosses
    `first` and then `second`."""
    if first.params != second.params or first.kind != second.kind:
        raise ShapeMismatch("L-operators live over different models")
    V, W, Z = first.aux, first.quantum, second.quantum
    WZ = tensor_space(W, Z)
    dom = tensor_space(V, WZ)
    cod = tensor_space(WZ, V)

    def at(z: complex) -> GradedMorphism:
        lw, lz = first.at(z), second.at(z)
        step1 = tensor_morphism(lw, identity_morphism(Z))
        step2 = tensor_morphism(identity_morphism(W), lz)
        m = step1 @ align(dom, step1.domain)
        m = step2 @ align(m.codomain, step2.domain) @ m
        return align(m.codomain, cod) @ m

    return LOperator(aux=V, quantum=WZ, at=at, kind=first.kind,
                     params=first.params)


def vector_chain(kind: ModelKind, params: EllipticParams,
                 points: tuple[complex, ...]) -> LOperator:
    """Chain V(u_1) (x) ... (x) V(u_c) of vector representations."""
    V = build_vector_space(kind, params)
    ops = [vector_l_operator(kind, params, u, space=V) for u in points]
    out = ops[0]
    for op in ops[1:]:
        out = l_tensor(out, op)
    return out


def _loop_offsets(W: GradedSpace, a: WeightPoint) -> tuple[dict[Arrow, int], int]:
    """Offset of each loop component at `a` in the stacked loop sector
    (loops ordered by shift), and the sector dimension."""
    offsets, k = {}, 0
    for g in sorted((g for g in W.dims if g.source == a and g.is_loop),
                    key=lambda g: g.shift):
        offsets[g] = k
        k += W.dims[g]
    return offsets, k


def sector_dim(W: GradedSpace, a: WeightPoint) -> int:
    return _loop_offsets(W, a)[1]


def partial_trace(f: GradedMorphism, aux: GradedSpace,
                  quantum: GradedSpace) -> dict[Arrow, np.ndarray]:
    """Trace over the auxiliary factor of f : V (x) W -> W (x) V.

    Returns, for each auxiliary arrow (a, mu), the map from the stacked
    loop sector of W at a+mu to the one at a.
    """
    dom = tensor_space(aux, quantum)
    cod = tensor_space(quantum, aux)
    g = align(f.codomain, cod) @ f @ align(dom, f.domain)
    out: dict[Arrow, np.ndarray] = {}
    for alpha, d_aux in aux.dims.items():
        rows, dim_src = _loop_offsets(quantum, alpha.source)
        cols, dim_tgt = _loop_offsets(quantum, alpha.target)
        if dim_src == 0 or dim_tgt == 0:
            continue
        block = np.zeros((dim_src, dim_tgt), dtype=complex)
        for lsrc, r in rows.items():
            ltgt = Arrow(alpha.target, lsrc.shift)
            if ltgt not in cols:
                continue
            total = Arrow(alpha.source, add_vectors(alpha.shift, lsrc.shift))
            sub = _summand_block(g, total, (alpha, ltgt), (lsrc, alpha))
            d_out, d_in = quantum.dims[lsrc], quantum.dims[ltgt]
            # rows of sub run over (p, v), its columns over (v', q)
            block[r:r + d_out, cols[ltgt]:cols[ltgt] + d_in] = np.trace(
                sub.reshape(d_out, d_aux, d_aux, d_in), axis1=1, axis2=2)
        out[alpha] = block
    return out


def _summand_block(g: GradedMorphism, total: Arrow, dom_pair, cod_pair):
    """Sub-block of g at `total` between named factorization summands."""
    dom_s = next(s for s in g.domain.layout[total]
                 if (s.left, s.right) == dom_pair)
    cod_s = next(s for s in g.codomain.layout[total]
                 if (s.left, s.right) == cod_pair)
    return g.block(total)[cod_s.offset:cod_s.offset + cod_s.size,
                          dom_s.offset:dom_s.offset + dom_s.size]


@dataclass
class TransferOperator:
    """Matrix-valued difference operator sum_mu r_mu t_mu on loop sections."""

    z: complex
    points: tuple[WeightPoint, ...]
    sector_dims: dict[WeightPoint, int]
    blocks: dict[Arrow, np.ndarray]

    def total_dim(self) -> int:
        return sum(self.sector_dims.values())

    def matrix(self) -> np.ndarray:
        offs, k = {}, 0
        for a in self.points:
            offs[a] = k
            k += self.sector_dims[a]
        m = np.zeros((k, k), dtype=complex)
        for alpha, block in self.blocks.items():
            a, b = alpha.source, alpha.target
            if a in offs and b in offs and block.size:
                m[offs[a]:offs[a] + block.shape[0],
                  offs[b]:offs[b] + block.shape[1]] += block
        return m


def transfer_matrix(z: complex, L: LOperator,
                    points: list[WeightPoint] | None = None) -> TransferOperator:
    """T(z) = tr_V L(z) as a difference operator on loop sections."""
    if points is None:
        points = L.kind.alcove()
    traced = partial_trace(L.at(z), L.aux, L.quantum)
    pts = set(points)
    blocks = {alpha: blk for alpha, blk in traced.items()
              if alpha.source in pts and alpha.target in pts}
    dims = {a: sector_dim(L.quantum, a) for a in points}
    return TransferOperator(z=z, points=tuple(points), sector_dims=dims,
                            blocks=blocks)


def commutator_residual(L: LOperator, z: complex, w: complex,
                        points: list[WeightPoint] | None = None) -> float:
    """Max-norm of [T(z), T(w)] on the global section space."""
    tz = transfer_matrix(z, L, points).matrix()
    tw = transfer_matrix(w, L, points).matrix()
    if tz.size == 0:
        return 0.0
    return float(np.abs(tz @ tw - tw @ tz).max())


def _three_factor_chain(factors: list[GradedSpace], steps) -> GradedMorphism:
    """Compose morphisms acting on adjacent slots of a three-factor product.

    Each step is (slot, morphism, (out_left, out_right)) with slot 0 or 1;
    bracketing changes are absorbed by label alignment.
    """
    cur = tensor_space(tensor_space(factors[0], factors[1]), factors[2])
    total = identity_morphism(cur)
    fac = list(factors)
    for slot, f, outs in steps:
        if slot == 0:
            m = tensor_morphism(f, identity_morphism(fac[2]))
            fac = [outs[0], outs[1], fac[2]]
        else:
            m = tensor_morphism(identity_morphism(fac[0]), f)
            fac = [fac[0], outs[0], outs[1]]
        total = m @ align(total.codomain, m.domain) @ total
    return total


def rll_residual(L: LOperator, z: complex, w: complex) -> float:
    """Residual of the quadratic exchange relation
    R(z-w)^(23) L(z)^(12) L(w)^(23) = L(w)^(12) L(z)^(23) R(z-w)^(12)."""
    V, W = L.aux, L.quantum
    r = restricted_r(z - w, L.kind, L.params, space=V)
    lhs = _three_factor_chain(
        [V, V, W],
        [(1, L.at(w), (W, V)), (0, L.at(z), (W, V)), (1, r, (V, V))],
    )
    rhs = _three_factor_chain(
        [V, V, W],
        [(0, r, (V, V)), (1, L.at(z), (W, V)), (0, L.at(w), (W, V))],
    )
    return lhs.max_diff(align(rhs.codomain, lhs.codomain) @ rhs)


FACE_BUDGET = 16


def _checked_inhomogeneities(rows: int, cols: int,
                             inhomogeneities: tuple[complex, ...] | None
                             ) -> tuple[complex, ...]:
    """Enforce FACE_BUDGET and return one inhomogeneity per column."""
    if rows * cols > FACE_BUDGET:
        raise TooLarge(f"FACE_BUDGET: {rows * cols} faces requested, "
                       f"limit {FACE_BUDGET}")
    us = inhomogeneities if inhomogeneities is not None else (0.0,) * cols
    if len(us) != cols:
        raise ValueError("one inhomogeneity per column required")
    return us


def _closed_rows(kind: ModelKind, cols: int) -> list[tuple[WeightPoint, tuple[int, ...]]]:
    """Admissible single-row states: paths of length `cols` that return to
    their start mod (1,...,1), i.e. use every step index equally often."""
    n = kind.rank
    return [(a, steps) for a in kind.alcove() for steps in kind.paths(a, cols)
            if len({steps.count(i) for i in range(1, n + 1)}) == 1]


def _vertices(kind, a: WeightPoint, steps) -> list[WeightPoint]:
    verts = [a]
    for s in steps[:-1]:
        verts.append(verts[-1] + eps(kind.rank, s))
    return verts


def _step_between(p: WeightPoint, q: WeightPoint, n: int) -> int | None:
    for i in range(1, n + 1):
        if p + eps(n, i) == q:
            return i
    return None


def partition_enumerate(rows: int, cols: int, z: complex, kind: ModelKind,
                        params: EllipticParams,
                        inhomogeneities: tuple[complex, ...] | None = None
                        ) -> complex:
    """Exact torus partition function by summing over height configurations.

    Heights sit on the vertices of a cols x rows torus; every horizontal and
    vertical nearest-neighbour step is some eps_i inside the alcove, and the
    face in column k contributes the R-matrix entry at z + u_k read off at
    its western corner.
    """
    us = _checked_inhomogeneities(rows, cols, inhomogeneities)
    states = _closed_rows(kind, cols)
    if rows == 0:
        return complex(len(states))
    n = kind.rank
    verts = [_vertices(kind, a, steps) for a, steps in states]
    flats: dict[tuple[WeightPoint, complex], FlatR] = {}

    def flat(point: WeightPoint, u: complex) -> FlatR:
        if (point, u) not in flats:
            flats[(point, u)] = r_matrix(z + u, point, params)
        return flats[(point, u)]

    def row_weight(t: int, b: int) -> complex | None:
        """Product of the face weights between row-state t (below) and b (above)."""
        vt, vb = verts[t], verts[b]
        vstep = []
        for k in range(cols):
            s = _step_between(vt[k], vb[k], n)
            if s is None:
                return None
            vstep.append(s)
        wgt = 1.0 + 0.0j
        st_t, st_b = states[t][1], states[b][1]
        for k in range(cols):
            wgt *= flat(vt[k], us[k]).entry((st_t[k], vstep[(k + 1) % cols]),
                                            (vstep[k], st_b[k]))
        return wgt

    total = 0.0 + 0.0j
    m = rows

    def dfs(assign: list[int], acc: complex):
        nonlocal total
        t = len(assign)
        if t == m:
            closing = row_weight(assign[-1], assign[0])
            if closing is not None:
                total += acc * closing
            return
        for s in range(len(states)):
            if t == 0:
                dfs([s], acc)
            else:
                wgt = row_weight(assign[-1], s)
                if wgt is not None:
                    dfs(assign + [s], acc * wgt)

    if m == 1:
        for s in range(len(states)):
            wgt = row_weight(s, s)
            if wgt is not None:
                total += wgt
    else:
        dfs([], 1.0 + 0.0j)
    return complex(total)


def partition_via_transfer(rows: int, cols: int, z: complex, kind: ModelKind,
                           params: EllipticParams,
                           inhomogeneities: tuple[complex, ...] | None = None
                           ) -> complex:
    """Torus partition function as the trace of the rows-th transfer power."""
    us = _checked_inhomogeneities(rows, cols, inhomogeneities)
    L = vector_chain(kind, params, tuple(us))
    T = transfer_matrix(z, L)
    if rows == 0:
        return complex(T.total_dim())
    m = T.matrix()
    if m.size == 0:
        return 0.0 + 0.0j
    return complex(np.trace(np.linalg.matrix_power(m, rows)))
