"""Height-model graded vector spaces and the R-matrix as a graded morphism.

The vector representation has a one-dimensional component at each arrow
(a, epsilon_i); in the restricted model both endpoints must lie in the
level-r alcove.  The block of the R-matrix on
V_(a,eps_i) (x) V_(a+eps_i,eps_j) is the (e_i (x) e_j) column sector of the
flat matrix at the common source a; components that would leave the alcove
are verified to vanish and dropped.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .elliptic import EllipticParams, FlatR, r_matrix
from .errors import (BaseOnSingularSet, ContextMismatch, NonSquare,
                     RestrictionViolated)
from .graded import GradedMorphism, GradedSpace, tensor_space
from .groupoid import (Arrow, Context, WeightPoint, compose, eps, rsos_alcove)

RESTRICTION_TOL = 1e-12


@dataclass(frozen=True)
class ModelKind:
    """Unrestricted model over a generic base orbit, or the restricted one."""

    rank: int
    level: int | None = None
    base: tuple[complex, ...] | None = None

    @classmethod
    def rsos(cls, rank: int, r: int) -> "ModelKind":
        if r <= rank:
            raise ValueError(f"restricted level must exceed the rank, got {r}")
        return cls(rank=rank, level=r)

    @classmethod
    def sos(cls, base: tuple[complex, ...]) -> "ModelKind":
        return cls(rank=len(base), base=tuple(base))

    @property
    def is_restricted(self) -> bool:
        return self.level is not None

    def context(self) -> Context:
        if self.is_restricted:
            return Context(rank=self.rank, kind="rsos", level=self.level)
        return Context(rank=self.rank, kind="sos", base=self.base)

    def alcove(self) -> list[WeightPoint]:
        return rsos_alcove(self.rank, self.level)

    # cached in the instance dict: equality and hashing see only fields
    @cached_property
    def _heights(self) -> frozenset[WeightPoint]:
        return frozenset(self.alcove())

    def step_allowed(self, a: WeightPoint, i: int) -> bool:
        """Whether (a, eps_i) is an arrow of the model's groupoid."""
        if not self.is_restricted:
            return True
        return a in self._heights and a + eps(self.rank, i) in self._heights

    def paths(self, a: WeightPoint, length: int) -> list[tuple[int, ...]]:
        """Step-index sequences of the admissible paths of `length` steps
        from a, in lexicographic order."""
        n = self.rank
        grown = [((), a)]
        for _ in range(length):
            grown = [(steps + (i,), point + eps(n, i))
                     for steps, point in grown
                     for i in range(1, n + 1) if self.step_allowed(point, i)]
        return [steps for steps, _ in grown]


def build_vector_space(kind: ModelKind,
                       params: EllipticParams | None = None,
                       window: list[WeightPoint] | None = None) -> GradedSpace:
    """The vector representation as a graded space.

    Restricted: dimension 1 at (a, eps_i) when both endpoints are in the
    alcove.  Unrestricted: dimension 1 at (a, eps_i) for every point of the
    supplied finite window (the orbit itself is infinite).
    """
    n = kind.rank
    ctx = kind.context()
    if kind.is_restricted:
        points = kind.alcove()
    else:
        if window is None:
            raise ValueError("unrestricted model needs an explicit point window")
        points = list(window)
        if params is not None:
            for a in points:
                for i in range(1, n + 1):
                    for j in range(1, n + 1):
                        if i != j and abs(params.bracket(a.diff(i, j))) < params.pole_guard:
                            raise BaseOnSingularSet(
                                f"base point {a!r} has [a_{i}-a_{j}] ~ 0")
    dims = {}
    for a in points:
        for i in range(1, n + 1):
            if kind.step_allowed(a, i):
                dims[Arrow(a, eps(n, i))] = 1
    return GradedSpace.from_dims(ctx, dims)


def _step_index(arrow: Arrow) -> int:
    """1-based i with shift == eps_i, else 0."""
    s = arrow.shift
    if sum(s) != 1 or any(c not in (0, 1) for c in s):
        return 0
    return s.index(1) + 1


@dataclass(frozen=True)
class BoltzmannBlock:
    """Scalar face weight between the summands (alpha,beta) -> (gamma,delta)."""

    z: complex
    alpha: Arrow
    beta: Arrow
    gamma: Arrow
    delta: Arrow
    value: complex


def boltzmann_weight(z: complex, alpha: Arrow, beta: Arrow, gamma: Arrow,
                     delta: Arrow, kind: ModelKind,
                     params: EllipticParams) -> BoltzmannBlock:
    """Face weight: the component of the R-matrix mapping
    V_alpha (x) V_beta to V_gamma (x) V_delta."""
    if compose(beta, alpha) != compose(delta, gamma):
        raise NonSquare("the four arrows do not close")
    k, l = _step_index(alpha), _step_index(beta)
    i, j = _step_index(gamma), _step_index(delta)
    if 0 in (k, l, i, j):
        raise NonSquare("face edges must be unit steps eps_i")
    present = all(kind.step_allowed(arr.source, idx) for arr, idx in
                  ((alpha, k), (beta, l), (gamma, i), (delta, j)))
    if not present:
        return BoltzmannBlock(z, alpha, beta, gamma, delta, 0.0)
    flat = r_matrix(z, alpha.source, params)
    return BoltzmannBlock(z, alpha, beta, gamma, delta,
                          flat.entry((i, j), (k, l)))


def restricted_r(z: complex, kind: ModelKind, params: EllipticParams,
                 window: list[WeightPoint] | None = None,
                 space: GradedSpace | None = None) -> GradedMorphism:
    """The R-matrix as a graded endomorphism of V (x) V.

    In the restricted case, components whose target path exits the alcove
    are checked to vanish below RESTRICTION_TOL and dropped.
    """
    V = space if space is not None else build_vector_space(kind, params, window)
    VV = tensor_space(V, V)
    blocks = {}
    flat_cache: dict[WeightPoint, FlatR] = {}
    for gamma_arrow, summands in VV.layout.items():
        a = gamma_arrow.source
        if a not in flat_cache:
            flat_cache[a] = r_matrix(z, a, params)
            if kind.is_restricted:
                _check_forbidden(flat_cache[a], a, kind)
        flat = flat_cache[a]
        d = VV.dims[gamma_arrow]
        m = np.zeros((d, d), dtype=complex)
        in_pairs = [(_step_index(s.left), _step_index(s.right))
                    for s in summands]
        for col, (k, l) in enumerate(in_pairs):
            for row, (i, j) in enumerate(in_pairs):
                m[row, col] = flat.entry((i, j), (k, l))
        blocks[gamma_arrow] = m
    return GradedMorphism(VV, VV, blocks)


def _same_weight(i: int, j: int, k: int, l: int) -> bool:
    """eps_i + eps_j == eps_k + eps_l: {i, j} == {k, l} as multisets."""
    return sorted((i, j)) == sorted((k, l))


def _forbidden_components(flat: FlatR, a: WeightPoint, kind: ModelKind):
    """Entries of the flat R-matrix at a from an admissible two-step path
    (k, l) into its forbidden reordering (l, k), with their moduli.

    (l, k) is the only other path of the same weight as (k, l).
    """
    allowed = kind.paths(a, 2)
    for k, l in allowed:
        if (l, k) not in allowed:
            yield (l, k), (k, l), abs(flat.entry((l, k), (k, l)))


def _check_forbidden(flat: FlatR, a: WeightPoint, kind: ModelKind) -> None:
    """Components from a valid path into a forbidden one must vanish."""
    for (i, j), (k, l), v in _forbidden_components(flat, a, kind):
        if v > RESTRICTION_TOL:
            raise RestrictionViolated(
                f"component ({i},{j})<-({k},{l}) at {a!r} is {v:.2e}")


def restriction_residual(z: complex, kind: ModelKind,
                         params: EllipticParams) -> float:
    """Largest forbidden component over the whole alcove (restricted case)."""
    if not kind.is_restricted:
        raise ContextMismatch("restriction residual needs the restricted model")
    worst = 0.0
    for a in kind.alcove():
        flat = r_matrix(z, a, params)
        for *_, v in _forbidden_components(flat, a, kind):
            worst = max(worst, v)
    return worst


def _site_matrix(flat_of, a: WeightPoint, paths, slot: int, n: int) -> np.ndarray:
    """Operator acting on two adjacent steps (slot, slot+1) of each path."""
    pos = {p: k for k, p in enumerate(paths)}
    m = np.zeros((len(paths), len(paths)), dtype=complex)
    for col, p in enumerate(paths):
        start = a
        for s in p[:slot]:
            start = start + eps(n, s)
        flat = flat_of(start)
        for i in range(1, n + 1):
            for j in range(1, n + 1):
                if not _same_weight(i, j, p[slot], p[slot + 1]):
                    continue
                q = p[:slot] + (i, j) + p[slot + 2:]
                row = pos.get(q)
                if row is None:
                    continue
                m[row, col] += flat.entry((i, j), (p[slot], p[slot + 1]))
    return m


def star_triangle_residual(z: complex, w: complex, kind: ModelKind,
                           params: EllipticParams,
                           points: list[WeightPoint] | None = None) -> float:
    """Max-norm residual of the face-form Yang-Baxter identity.

    For each starting point the three-step path space carries the two sides
    of the dynamical Yang-Baxter equation; entries of the difference are the
    hexagon relations summed over internal arrows.
    """
    if points is None:
        if kind.is_restricted:
            points = kind.alcove()
        else:
            raise ValueError("unrestricted model needs explicit points")
    n = kind.rank
    worst = 0.0
    cache: dict[tuple[WeightPoint, complex], FlatR] = {}
    for a in points:
        paths = kind.paths(a, 3)
        if not paths:
            continue

        def site(u, slot, _a=a, _paths=paths):
            def fl(point):
                key = (point, u)
                if key not in cache:
                    cache[key] = r_matrix(u, point, params)
                return cache[key]

            return _site_matrix(fl, _a, _paths, slot, n)

        lhs = site(z - w, 1) @ site(z, 0) @ site(w, 1)
        rhs = site(w, 0) @ site(z, 1) @ site(z - w, 0)
        if lhs.size:
            worst = max(worst, float(np.abs(lhs - rhs).max()))
    return worst
