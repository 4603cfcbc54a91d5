"""Independent references for the tests, built the plain way: one arrow
composite, one face weight from one flat R-matrix, one dense permutation
matrix, one L-operator per site folded by `l_tensor`, one arrow built per
random draw.  The reports read face weights off R-matrix tables, cross a
chain's sites in `transfer.vector_chain`, apply alignments by index arrays
and look drawn arrows up in a table."""

import random

import numpy as np

from rsoskit.elliptic import EllipticParams, pair_index, r_matrix
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
        at=lambda zs: restricted_r([z + u for z in zs], kind, params,
                                   space=V),
        params=params)


def trivial_l_operator(kind: ModelKind, params: EllipticParams) -> LOperator:
    """The trivial representation on the tensor unit: L(z) is the alignment
    V (x) 1 -> 1 (x) V at every z."""
    V = build_vector_space(kind, params)
    one = unit_space(V.context, V.objects())
    tautology = aligned(tensor_space(V, one), tensor_space(one, V))
    return LOperator(aux=V, quantum=one, at=lambda zs: tautology,
                     params=params)


def l_tensor(first: LOperator, second: LOperator) -> LOperator:
    """Tensor product of quantum spaces: the auxiliary line crosses `first`
    and then `second`."""
    V, W, Z = first.aux, first.quantum, second.quantum
    return LOperator(aux=V, quantum=tensor_space(W, Z), params=first.params,
                     at=lambda zs: _cross(V, W, Z, first.at(zs),
                                          second.at(zs)))
