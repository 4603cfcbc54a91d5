"""Independent references for the tests, built the plain way: one arrow
composite, one face weight from one flat R-matrix, one dense permutation
matrix, one L-operator per site folded by `l_tensor`, one arrow built per
random draw, one commutator per pair of transfer matrices, one fresh point
per arrow of a rank-2 character, and the Verlinde check one label at a
time.  The reports read face weights off R-matrix tables, cross a chain's
sites in `transfer.vector_chain`, apply alignments by index arrays, look
drawn arrows up in a table, multiply transfer matrices stacked over pairs,
build rank-2 characters on the alcove's own points and stack the Verlinde
products over runs of label pairs."""

import random

import numpy as np

import rsoskit.fusion as fu
from rsoskit.convolution import (ConvolutionElement, DifferenceOperator,
                                 matrix_form)
from rsoskit.elliptic import EllipticParams, pair_index, r_matrix
from rsoskit.errors import ShapeMismatch, TooLarge
from rsoskit.graded import (GradedMorphism, GradedSpace, align, tensor_space,
                            unit_space)
from rsoskit.groupoid import Arrow, ModelKind, WeightPoint, add_vectors, eps
from rsoskit.rsos import build_vector_space, restricted_r
from rsoskit.transfer import LOperator, _cross


def in_alcove(a: WeightPoint, r: int) -> bool:
    """Whether the integer point a lies in P^r_++: a_1 > ... > a_n and
    a_1 - a_n < r."""
    v = a.offset
    return all(x > y for x, y in zip(v, v[1:])) and v[0] - v[-1] < r


def compose(later: Arrow, earlier: Arrow) -> Arrow:
    """The composite `later o earlier`; ValueError unless later starts where
    earlier ends."""
    if later.source != earlier.target:
        raise ValueError(
            f"cannot compose: {later.source!r} != target {earlier.target!r}")
    return Arrow(earlier.source, add_vectors(earlier.shift, later.shift))


def random_arrows(rng: random.Random, points, n: int, draws: int,
                  low: int, high: int) -> dict[Arrow, int]:
    """`draws` random arrows (a, mu) with mu in {-1, 0, 1}^n, each built on
    its draw and kept with a value in [low, high) when a + mu is inside
    `points`."""
    out = {}
    inside = set(points)
    for _ in range(draws):
        a = rng.choice(points)
        arrow = Arrow(a, tuple(rng.randrange(-1, 2) for _ in range(n)))
        if arrow.target in inside:
            out[arrow] = rng.randrange(low, high)
    return out


def boltzmann_weight(z: complex, alpha: Arrow, beta: Arrow, gamma: Arrow,
                     delta: Arrow, kind: ModelKind,
                     params: EllipticParams) -> complex:
    """Face weight: the component of the R-matrix at alpha's source mapping
    V_alpha (x) V_beta to V_gamma (x) V_delta, 0 when an edge leaves the
    model; ValueError unless the four edges are unit steps that close."""
    if compose(beta, alpha) != compose(delta, gamma):
        raise ValueError("the four arrows do not close")
    n = params.rank
    edges = (alpha, beta, gamma, delta)
    units = {eps(n, i): i for i in range(1, n + 1)}
    steps = [units.get(g.shift) for g in edges]
    if None in steps:
        raise ValueError("face edges must be unit steps eps_i")
    if not all(map(kind.step_allowed, (g.source for g in edges), steps)):
        return 0.0
    k, l, i, j = steps
    return complex(r_matrix(z, alpha.source, params)[pair_index(n, i, j),
                                                     pair_index(n, k, l)])


def aligned(src: GradedSpace, dst: GradedSpace) -> GradedMorphism:
    """align(src, dst) as a dense graded morphism: column j of its block at
    an arrow is e_{index[arrow][j]}."""
    return GradedMorphism(src, dst, {
        g: np.eye(p.size, dtype=complex)[:, p]
        for g, p in align(src, dst).index.items()})


def vector_l_operator(kind: ModelKind, params: EllipticParams,
                      u: complex = 0.0,
                      space: GradedSpace | None = None) -> LOperator:
    """The vector representation with evaluation point u: L(z) = R(z + u)."""
    V = space if space is not None else build_vector_space(kind, params)
    return LOperator(
        aux=V, quantum=V,
        prefixes=lambda zs: [(V, restricted_r([z + u for z in zs], kind,
                                              params, space=V))],
        params=params)


def trivial_l_operator(kind: ModelKind, params: EllipticParams) -> LOperator:
    """The trivial representation on the tensor unit: L(z) is the alignment
    V (x) 1 -> 1 (x) V at every z."""
    V = build_vector_space(kind, params)
    one = unit_space(V.context, V.objects())
    tautology = aligned(tensor_space(V, one), tensor_space(one, V))
    return LOperator(aux=V, quantum=one,
                     prefixes=lambda zs: [(one, tautology)], params=params)


def l_tensor(first: LOperator, second: LOperator) -> LOperator:
    """Tensor product of quantum spaces: the auxiliary line crosses `first`
    and then `second`."""
    V, W, Z = first.aux, first.quantum, second.quantum
    WZ = tensor_space(W, Z)
    return LOperator(aux=V, quantum=WZ, params=first.params,
                     prefixes=lambda zs: [(WZ, _cross(V, W, Z, first.at(zs),
                                                      second.at(zs)))])


def commutator_norm(ts: list[DifferenceOperator]) -> float:
    """Max-norm of [T(z), T(w)] over the pairs ts[0:2], ts[2:4], ..., one
    pair at a time."""
    worst = 0.0
    for tz, tw in zip(ts[::2], ts[1::2]):
        zw, wz = (tz @ tw).blocks, (tw @ tz).blocks
        for g in zw.keys() | wz.keys():
            worst = max(worst, float(np.abs(
                zw.get(g, 0) - wz.get(g, 0)).max(initial=0.0)))
    return worst


def level_point(l: int) -> WeightPoint:
    """The rank-2 point with a_1 - a_2 = l, built afresh."""
    return WeightPoint.integer((l, 0))


def sym_power_character_n2(p: int, kind: ModelKind) -> ConvolutionElement:
    """L_p with one fresh point per arrow, built from its level coordinate,
    and targets left to `Arrow.target`."""
    r = kind.level
    return ConvolutionElement(kind, {
        Arrow(level_point(l), (p - j, j)): 1
        for j in range(p + 1) for l in range(1 + j, r - p + j)})


def central_element_n2(kind: ModelKind, power: int = 1) -> ConvolutionElement:
    """u^power with one fresh point per arrow."""
    return ConvolutionElement(kind, {
        Arrow(level_point(l), (power, power)): 1
        for l in range(1, kind.level)})


def verify_fusion_rules(r: int) -> tuple[int, int, int]:
    """The Verlinde check one label q at a time: L_q L_s and L_p L_q for
    every p and s in two products, the bound for that q, then per run of
    p's the Verlinde sums and both sides of associativity.  It reads the
    characters, coefficients and runs through `rsoskit.fusion`, so a test
    that perturbs them there perturbs this reference too."""
    kind = ModelKind.rsos(2, r)
    labels, m, size = range(r - 1), r - 1, len(kind.alcove())
    # L_p has degree p, so every compared block has degree p + q
    chars = np.array([matrix_form(fu.sym_power_character_n2(p, kind), p)
                      for p in labels])
    # u^k with k = (p+q-s)/2 <= min(p, q), so every power is in range(r - 1);
    # its arrows (a, (k, k)) are loops, so it drops out of the Verlinde sums
    for k in labels:
        if not np.array_equal(matrix_form(fu.central_element_n2(kind, k),
                                          2 * k), np.eye(size)):
            raise ShapeMismatch(f"u^{k} is not the identity on the alcove")
    tall, wide = np.vstack(chars), np.hstack(chars)  # block p: L_p
    top = np.abs(chars).max()
    rules = sym = assoc = 0
    for q in labels:
        row, col = chars[q] @ wide, tall @ chars[q]  # L_q L_s, L_p L_q
        # every entry and partial sum of a product below is at most this
        bound = size * top * max(np.abs(row).max(), np.abs(col).max(), m * top)
        if bound > 2 ** 53:
            raise TooLarge(f"Verlinde products bounded by {bound:.0f} exceed "
                           "2**53, beyond which float64 drops integers")
        sym += unequal_blocks(col, np.vstack(np.hsplit(row, m)), size)
        for start, run in fu.table_runs(labels, m * size * size):
            rows = slice(start * size, (start + len(run)) * size)
            coeffs = [[fu.fusion_coeff(p, q, s, r) for s in labels]
                      for p in run]
            verlinde = np.tensordot(np.array(coeffs, float), chars, 1)
            rules += unequal_blocks(verlinde.reshape(-1, size), col[rows],
                                    size)
            assoc += unequal_blocks(col[rows] @ wide, tall[rows] @ row, size)
    return rules, sym, assoc


def unequal_blocks(x: np.ndarray, y: np.ndarray, size: int) -> int:
    """The number of size x size blocks in which x and y differ."""
    rows, cols = x.shape[0] // size, x.shape[1] // size
    return int((x != y).reshape(rows, size, cols, size).any(axis=(1, 3)).sum())
