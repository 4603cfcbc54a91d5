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

import numpy as np

from .elliptic import (POLE_GUARD, EllipticParams, bracket, pair_index,
                       r_table, table_runs)
from .errors import BaseOnSingularSet, ContextMismatch, RestrictionViolated
from .graded import GradedMorphism, GradedSpace, memo, tensor_space
from .groupoid import Arrow, ModelKind, WeightPoint, eps

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
            pairs = [(a, i, j) for a in points for i in range(1, n + 1)
                     for j in range(1, n + 1) if i != j]
            values = bracket([a.diff(i, j) for a, i, j in pairs], params)
            for (a, i, j), value in zip(pairs, values.tolist()):
                if abs(value) < POLE_GUARD:
                    raise BaseOnSingularSet(
                        f"base point {a!r} has [a_{i}-a_{j}] ~ 0")
    return GradedSpace.from_dims(kind, {
        Arrow(a, eps(n, i)): 1 for a in points for i in range(1, n + 1)
        if kind.step_allowed(a, i)})


def restricted_r(zs, kind: ModelKind, params: EllipticParams,
                 space: GradedSpace | None = None) -> GradedMorphism:
    """The R-matrix at the spectral parameters `zs` as one graded
    endomorphism of V (x) V with blocks stacked over zs (`r[k]` is the one at
    zs[k]), all read off one R-matrix table over the component sources per
    run of `table_runs` (n^4 entries per source and z).

    In the restricted case, components whose target path exits the alcove
    are checked to vanish below RESTRICTION_TOL at every z and dropped.
    """
    V = space if space is not None else build_vector_space(kind, params)
    VV = tensor_space(V, V)
    sources, picks = memo(VV, "r-matrix-entries",
                          lambda: _flat_positions(VV, V, kind.rank))
    blocks = {}
    n2 = kind.rank ** 2
    for offset, run in table_runs(sources, len(zs) * n2 * n2):
        table = r_table([z for z in zs for _ in run], run * len(zs),
                        params).reshape(len(zs), len(run), n2, n2)
        for s, (a, at) in enumerate(zip(run, picks[offset:offset + len(run)])):
            if kind.is_restricted:
                _check_forbidden(table[:, s], a, kind)
            for gamma_arrow, pick in at:
                blocks[gamma_arrow] = table[:, s][(..., *pick)]
    return GradedMorphism(VV, VV, blocks)


def _flat_positions(VV: GradedSpace, V: GradedSpace, n: int) -> tuple:
    """The distinct sources of the components of VV = V (x) V and, per
    source, its components with the index pair that picks each block out of
    the flat R-matrix (row/column k <-> summand k, as V's components are
    one-dimensional)."""
    steps = V.shifts.argmax(axis=1) + 1
    lay = VV.layout
    flat = pair_index(n, steps[lay.left], steps[lay.right])
    flat.flags.writeable = False
    picks: dict[WeightPoint, list] = {}
    for gamma_arrow, at in zip(VV.dims, VV.split(flat)):
        picks.setdefault(gamma_arrow.source, []).append(
            (gamma_arrow, np.ix_(at, at)))
    return tuple(picks), tuple(map(tuple, picks.values()))


def _same_weight(i: int, j: int, k: int, l: int) -> bool:
    """eps_i + eps_j == eps_k + eps_l: {i, j} == {k, l} as multisets."""
    return sorted((i, j)) == sorted((k, l))


def _forbidden_components(flat: np.ndarray, a: WeightPoint, kind: ModelKind):
    """Entries of the flat R-matrix at a, or of a stack of them, from an
    admissible two-step path (k, l) into its forbidden reordering (l, k).

    (l, k) is the only other path of the same weight as (k, l).
    """
    n = kind.rank
    allowed = kind.paths(a, 2)
    for k, l in allowed:
        if (l, k) not in allowed:
            yield (l, k), (k, l), flat[..., pair_index(n, l, k),
                                       pair_index(n, k, l)]


def _check_forbidden(flats: np.ndarray, a: WeightPoint,
                     kind: ModelKind) -> None:
    """Components from a valid path into a forbidden one must vanish in each
    flat R-matrix of the stack `flats` at a."""
    for (i, j), (k, l), v in _forbidden_components(flats, a, kind):
        over = np.flatnonzero(np.abs(v) > RESTRICTION_TOL)
        if over.size:
            v = abs(complex(v[over[0]]))
            raise RestrictionViolated(
                f"component ({i},{j})<-({k},{l}) at {a!r} is {v:.2e}")


def restriction_residual(zs, kind: ModelKind, params: EllipticParams) -> float:
    """Largest forbidden component over the whole alcove (restricted case),
    at every z of `zs`.  Per run of `table_runs` over the points (sized by
    one z's n^4 entries per point), each run of `table_runs` over zs is one
    table with rows at its z over the point run."""
    if not kind.is_restricted:
        raise ContextMismatch("restriction residual needs the restricted model")
    n2 = kind.rank ** 2
    worst = 0.0
    for _, run in table_runs(kind.alcove(), n2 * n2):
        for _, us in table_runs(zs, len(run) * n2 * n2):
            table = r_table([u for u in us for _ in run], run * len(us),
                            params).reshape(len(us), len(run), n2, n2)
            for s, a in enumerate(run):
                for *_, v in _forbidden_components(table[:, s], a, kind):
                    worst = max(worst, *map(abs, v.tolist()))
    return worst


def _sites(points, kind: ModelKind) -> tuple[list[WeightPoint], list]:
    """The start points of the slots of the three-step paths from `points`,
    in table-row order, and (a, paths, gather) per point with such paths.

    gather indexes the flattened R-matrix table over the start points, and
    `_site_operators` reads the point's operators on steps (slot, slot + 1)
    with it, stacked over slot 0 and 1.  Entry (row, col) of a slot's
    operator is <e_i (x) e_j | R | e_k (x) e_l> at the slot's start, where
    (k, l) are the column path's steps there and (i, j) the row path's, if
    the paths agree off the slot, else 0: the operator is the identity on
    the other step.  The slot's start is table row a for slot 0 and
    a + eps_i after the first step i for slot 1; a 0 entry reads
    <e_1 (x) e_1 | R | e_1 (x) e_2>, which conserves no weight and so is 0
    in every table."""
    n = kind.rank
    starts: dict[WeightPoint, int] = {}
    sites = []
    zero = pair_index(n, 1, 1) * n * n + pair_index(n, 1, 2)
    for a in points:
        paths = kind.paths(a, 3)
        if paths:
            here = starts.setdefault(a, len(starts))
            after = {i: starts.setdefault(a + eps(n, i), len(starts))
                     for i in dict.fromkeys(p[0] for p in paths)}
            at = np.array(([here] * len(paths), [after[p[0]] for p in paths]))
            steps = np.array(paths)
            pair = pair_index(n, steps[:, :2], steps[:, 1:]).T
            off = np.stack([steps[:, 2], steps[:, 0]])
            entry = ((at[:, None, :] * n * n + pair[:, :, None]) * n * n
                     + pair[:, None, :])
            agree = off[:, :, None] == off[:, None, :]
            sites.append((a, paths, np.where(agree, entry, zero)))
    return list(starts), sites


def _site_operators(table: np.ndarray, gather: np.ndarray) -> np.ndarray:
    """A site's operators read off `table`, a stack of R-matrix tables over
    the start points of `_sites` (one per spectral parameter), by the site's
    gather: shape (len(table), 2, P, P) for P paths."""
    return np.take(table.reshape(len(table), -1), gather, axis=1)


def star_triangle_residual(pairs, kind: ModelKind, params: EllipticParams,
                           points: list[WeightPoint] | None = None) -> float:
    """Max-norm residual of the face-form Yang-Baxter identity

        R23(z-w) R12(z) R23(w) = R12(w) R23(z) R12(z-w)

    on the three-step path space from each starting point, the largest over
    the (z, w) of `pairs`; entries of the difference are the hexagon
    relations summed over internal arrows.

    The points are cut into runs by `table_runs`, sized by one pair's
    3 (n + 1) n^4 entries per point, and each run's sites (`_sites`) are
    built once.  The (z - w, z, w) triples of the distinct pairs are cut
    into runs by `table_runs` too, so that a tile's table, with rows at its
    parameters over the run's slot start points, and each site's operator
    stack stay within TABLE_BUDGET.  Both triple products are stacked
    matmuls over a tile's pairs, each slice the product of the one-pair
    check.
    """
    if points is None:
        if kind.is_restricted:
            points = kind.alcove()
        else:
            raise ValueError("unrestricted model needs explicit points")
    triples = [(z - w, z, w) for z, w in dict.fromkeys(pairs)]
    n2 = kind.rank ** 2
    worst = 0.0
    for _, run in table_runs(points, 3 * (kind.rank + 1) * n2 * n2):
        starts, sites = _sites(run, kind)
        if not sites:
            continue
        paths = max(len(p) for _, p, _ in sites)
        cost = max(len(starts) * n2 * n2, 2 * paths * paths)
        for _, tile in table_runs(triples, 3 * cost):
            worst = max(worst, _tile_residual(tile, starts, sites, params))
    return worst


def _tile_residual(triples, starts, sites, params: EllipticParams) -> float:
    """The largest star-triangle residual of one tile, a run of (z - w, z, w)
    triples at a run's sites, from one table at the triples' parameters in
    order; the table is dropped on return, before the next tile's is built."""
    n2 = params.rank ** 2
    us = [u for triple in triples for u in triple]
    worst = 0.0
    table = r_table([u for u in us for _ in starts], starts * len(us),
                    params).reshape(len(us), len(starts), n2, n2)
    for _, _, gather in sites:
        ops = _site_operators(table, gather)
        diff = (ops[0::3, 1] @ ops[1::3, 0] @ ops[2::3, 1]
                - ops[2::3, 0] @ ops[1::3, 1] @ ops[0::3, 0])
        worst = max(worst, float(np.abs(diff).max()))
    return worst
