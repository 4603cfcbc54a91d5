"""Height-model graded vector spaces and the R-matrix as a graded morphism.

The vector representation has a one-dimensional component at each arrow
(a, epsilon_i); in the restricted model both endpoints must lie in the
level-r alcove.  The block of the R-matrix on
V_(a,eps_i) (x) V_(a+eps_i,eps_j) is the (e_i (x) e_j) column sector of the
flat matrix at the common source a; components that would leave the alcove
are verified to vanish and dropped.

The model descriptor `ModelKind` (its rank/level rule, admissible steps and
paths) lives in `groupoid` and is imported here; every space built here
carries it as its `context`.
"""

from __future__ import annotations

from functools import cached_property

import numpy as np

from .elliptic import (POLE_GUARD, TABLE_BUDGET, EllipticParams, bracket,
                       r_matrix, r_table, table_runs)
from .errors import (BaseOnSingularSet, ContextMismatch, NonSquare,
                     RestrictionViolated)
from .graded import GradedMorphism, GradedSpace, memo, tensor_space
from .groupoid import Arrow, ModelKind, WeightPoint, compose, eps

RESTRICTION_TOL = 1e-12


def build_vector_space(kind: ModelKind,
                       params: EllipticParams | None = None,
                       window: list[WeightPoint] | None = None) -> GradedSpace:
    """The vector representation as a graded space.

    Restricted: dimension 1 at (a, eps_i) when both endpoints are in the
    alcove.  Unrestricted: dimension 1 at (a, eps_i) for every point of the
    supplied finite window (the orbit itself is infinite).
    """
    n = kind.rank
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
                        if i != j and abs(bracket(a.diff(i, j), params)) < POLE_GUARD:
                            raise BaseOnSingularSet(
                                f"base point {a!r} has [a_{i}-a_{j}] ~ 0")
    dims = {}
    for a in points:
        for i in range(1, n + 1):
            if kind.step_allowed(a, i):
                dims[Arrow(a, eps(n, i))] = 1
    return GradedSpace.from_dims(kind, dims)


def _step_index(arrow: Arrow) -> int:
    """1-based i with shift == eps_i, else 0."""
    s = arrow.shift
    if sum(s) != 1 or any(c not in (0, 1) for c in s):
        return 0
    return s.index(1) + 1


def boltzmann_weight(z: complex, alpha: Arrow, beta: Arrow, gamma: Arrow,
                     delta: Arrow, kind: ModelKind,
                     params: EllipticParams) -> complex:
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
        return 0.0
    return r_matrix(z, alpha.source, params).entry((i, j), (k, l))


def restricted_r(z: complex, kind: ModelKind, params: EllipticParams,
                 window: list[WeightPoint] | None = None,
                 space: GradedSpace | None = None) -> GradedMorphism:
    """The R-matrix as a graded endomorphism of V (x) V, read off one
    R-matrix table over the component sources (one per run of `table_runs`).

    In the restricted case, components whose target path exits the alcove
    are checked to vanish below RESTRICTION_TOL and dropped.
    """
    V = space if space is not None else build_vector_space(kind, params, window)
    VV = tensor_space(V, V)
    sources, picks = memo(VV, "r-matrix-entries",
                          lambda: _flat_positions(VV, kind.rank))
    blocks = {}
    for offset, run in table_runs(sources, kind.rank):
        at_run = picks[offset:offset + len(run)]
        for flat, a, at in zip(r_table(z, run, params), run, at_run):
            if kind.is_restricted:
                _check_forbidden(flat, a, kind)
            for gamma_arrow, pick in at:
                blocks[gamma_arrow] = flat[pick]
    return GradedMorphism(VV, VV, blocks)


def _flat_positions(VV: GradedSpace, n: int) -> tuple:
    """The distinct sources of the components of V (x) V and, per source,
    its components with the index pair that picks each block out of the flat
    R-matrix (row/column k <-> summand k)."""
    picks: dict[WeightPoint, list] = {}
    for gamma_arrow, summands in VV.layout.items():
        flat = np.array([(_step_index(s.left) - 1) * n + _step_index(s.right) - 1
                         for s in summands])
        flat.flags.writeable = False
        picks.setdefault(gamma_arrow.source, []).append(
            (gamma_arrow, np.ix_(flat, flat)))
    return tuple(picks), tuple(map(tuple, picks.values()))


def _same_weight(i: int, j: int, k: int, l: int) -> bool:
    """eps_i + eps_j == eps_k + eps_l: {i, j} == {k, l} as multisets."""
    return sorted((i, j)) == sorted((k, l))


def _forbidden_components(flat: np.ndarray, a: WeightPoint, kind: ModelKind):
    """Entries of the flat R-matrix at a from an admissible two-step path
    (k, l) into its forbidden reordering (l, k), with their moduli.

    (l, k) is the only other path of the same weight as (k, l).
    """
    n = kind.rank
    allowed = kind.paths(a, 2)
    for k, l in allowed:
        if (l, k) not in allowed:
            v = complex(flat[(l - 1) * n + k - 1, (k - 1) * n + l - 1])
            yield (l, k), (k, l), abs(v)


def _check_forbidden(flat: np.ndarray, a: WeightPoint, kind: ModelKind) -> None:
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
    for _, run in table_runs(kind.alcove(), kind.rank):
        for flat, a in zip(r_table(z, run, params), run):
            for *_, v in _forbidden_components(flat, a, kind):
                worst = max(worst, v)
    return worst


class _SiteOperators:
    """The operators acting on two adjacent steps (slot, slot+1), slot 0 or
    1, of the three-step paths from each added point.

    Entry (row, col) of the operator at (a, slot) is the R-matrix entry
    <e_i (x) e_j | R | e_k (x) e_l> at the slot's start point, where (k, l)
    are the column path's steps there and the row path has (i, j) in their
    place: the only rows of the same weight as a column are the path itself
    and the path with the two steps swapped.  `add` records a point's index
    arrays; `starts` are the start points of the added points, and
    `gather(table)` fills every operator from one R-matrix table over them.
    Add every point before the first gather.
    """

    def __init__(self, kind: ModelKind, points=()):
        self._kind = kind
        self._rows: dict[WeightPoint, int] = {}
        self.points, self._blocks = [], []  # (offset, size) per point
        self._index = [], [], [], []  # destination, start, flat row, flat column
        self.size = 0  # operator entries over both slots of every point
        for a in points:
            self.add(a)

    def add(self, a: WeightPoint) -> None:
        """Record the operators at a; a point without three-step paths has none."""
        n = self._kind.rank
        paths = self._kind.paths(a, 3)
        if not paths:
            return
        pos = {p: k for k, p in enumerate(paths)}
        size = len(paths)
        self.points.append(a)
        self._blocks.append((self.size, size))
        dest, point, flat_row, flat_col = self._index
        for slot in (0, 1):
            for col, p in enumerate(paths):
                start = a + eps(n, p[0]) if slot else a
                t = self._rows.setdefault(start, len(self._rows))
                k, l = p[slot], p[slot + 1]
                for i, j in {(k, l), (l, k)}:
                    row = pos.get(p[:slot] + (i, j) + p[slot + 2:])
                    if row is not None:
                        dest.append(self.size + row * size + col)
                        point.append(t)
                        flat_row.append((i - 1) * n + j - 1)
                        flat_col.append((k - 1) * n + l - 1)
            self.size += size * size

    @property
    def starts(self) -> list[WeightPoint]:
        return list(self._rows)

    @property
    def entries(self) -> int:
        """Complex entries of the operators and of one table over `starts`."""
        return self.size + len(self._rows) * self._kind.rank ** 4

    @cached_property
    def _arrays(self) -> tuple[np.ndarray, ...]:
        return tuple(np.array(v, dtype=np.intp) for v in self._index)

    def gather(self, table: np.ndarray) -> list[tuple[np.ndarray, np.ndarray]]:
        """The (slot 0, slot 1) operators of each of `self.points`."""
        dest, point, flat_row, flat_col = self._arrays
        buf = np.zeros(self.size, dtype=complex)
        # each destination occurs once; += on zeros maps -0.0 entries to 0.0
        buf[dest] += table[point, flat_row, flat_col]
        return [(buf[o:o + s * s].reshape(s, s),
                 buf[o + s * s:o + 2 * s * s].reshape(s, s))
                for o, s in self._blocks]


def _hexagon_residual(z: complex, w: complex, sites: _SiteOperators,
                      params: EllipticParams) -> float:
    """Largest entry of R23(z-w) R12(z) R23(w) - R12(w) R23(z) R12(z-w) over
    the points of `sites`, from one R-matrix table per distinct spectral
    parameter in (z - w, z, w)."""
    us = (z - w, z, w)
    ops = {u: sites.gather(r_table(u, sites.starts, params))
           for u in dict.fromkeys(us)}
    worst = 0.0
    for (zw0, zw1), (z0, z1), (w0, w1) in zip(*(ops[u] for u in us)):
        lhs = zw1 @ z0 @ w1
        rhs = w0 @ z1 @ zw0
        worst = max(worst, float(np.abs(lhs - rhs).max()))
    return worst


def star_triangle_residual(z: complex, w: complex, kind: ModelKind,
                           params: EllipticParams,
                           points: list[WeightPoint] | None = None) -> float:
    """Max-norm residual of the face-form Yang-Baxter identity.

    For each starting point the three-step path space carries the two sides
    of the dynamical Yang-Baxter equation; entries of the difference are the
    hexagon relations summed over internal arrows.  The points are taken in
    runs whose three tables and operator sets stay near TABLE_BUDGET
    entries; each run makes one R-matrix table per spectral parameter.
    """
    if points is None:
        if kind.is_restricted:
            points = kind.alcove()
        else:
            raise ValueError("unrestricted model needs explicit points")
    worst = 0.0
    sites = _SiteOperators(kind)
    for a in points:
        sites.add(a)
        if 3 * sites.entries >= TABLE_BUDGET:
            worst = max(worst, _hexagon_residual(z, w, sites, params))
            sites = _SiteOperators(kind)
    if sites.points:
        worst = max(worst, _hexagon_residual(z, w, sites, params))
    return worst
