import itertools
import random
import weakref

import numpy as np
import pytest

from oracles import boltzmann_weight, in_alcove, level_point
from rsoskit.convolution import character
from rsoskit.elliptic import (EllipticParams, bracket, pair_index, r_matrix,
                              r_table)
from rsoskit.errors import (BaseOnSingularSet, InfiniteSet, InvalidConfig,
                            NearPole, RestrictionViolated)
from rsoskit.graded import GradedSpace, identity_morphism
from rsoskit.groupoid import Arrow, WeightPoint, add_vectors, eps, rsos_alcove
from rsoskit.rsos import (ModelKind, _same_weight, _site_operators, _sites,
                          build_vector_space, restricted_r,
                          restriction_residual, star_triangle_residual)

TAU = 0.9j


def setup_n2(r=5):
    return ModelKind.rsos(2, r), EllipticParams.rsos(2, r, TAU)


def _point(l):
    return level_point(l)


def test_vector_space_arrows_rank2():
    kind, params = setup_n2()
    V = build_vector_space(kind, params)
    ups = sorted(g.source.diff(1, 2) for g in V.dims if g.shift == (1, 0))
    downs = sorted(g.source.diff(1, 2) for g in V.dims if g.shift == (0, 1))
    assert ups == [1, 2, 3] and downs == [2, 3, 4]
    kind4 = ModelKind.rsos(2, 4)
    assert len(build_vector_space(kind4).dims) == 4


def test_vector_space_arrow_count_matches_character_support():
    kind = ModelKind.rsos(3, 5)
    V = build_vector_space(kind)
    assert len(V.dims) == len(character(V).coeffs)
    n, r, points = 3, 5, rsos_alcove(3, 5)
    inside = set(points)
    expected = sum(1 for a in points for i in range(1, n + 1)
                   if (a + eps(n, i)) in inside)
    assert len(V.dims) == expected


def test_model_kind_checks_rank_and_level():
    for bad in (lambda: ModelKind.rsos(2, 2), lambda: ModelKind.rsos(3, 1),
                lambda: ModelKind.rsos(1, 5), lambda: ModelKind.sos((0.3,))):
        with pytest.raises(InvalidConfig):
            bad()
    # gamma = 1/r is valid modular data at any level; the model decides
    assert EllipticParams.rsos(2, 2, TAU).gamma == 0.5
    with pytest.raises(InvalidConfig):
        EllipticParams.rsos(2, 0, TAU)
    with pytest.raises(InfiniteSet):
        ModelKind.sos((0.29, 0.11, 0.0)).alcove()
    assert ModelKind.rsos(2, 5) == ModelKind(rank=2, level=5)
    assert ModelKind.sos((0.29, 0.0)) != ModelKind.sos((0.31, 0.0))


def test_sos_space_needs_window_and_generic_base():
    kind = ModelKind.sos((0.29, 0.11, 0.0))
    params = EllipticParams.rsos(3, 5, TAU)
    with pytest.raises(ValueError):
        build_vector_space(kind, params)
    b = WeightPoint(base=(0.29, 0.11, 0.0), offset=(0, 0, 0))
    V = build_vector_space(kind, params, window=[b])
    assert len(V.dims) == 3
    singular = ModelKind.sos((5.0, 0.0, 0.0))
    bad = WeightPoint(base=(5.0, 0.0, 0.0), offset=(0, 0, 0))
    with pytest.raises(BaseOnSingularSet):
        build_vector_space(singular, params, window=[bad])


def test_window_pole_check_is_one_bracket_call(monkeypatch):
    import rsoskit.rsos as rs
    calls = []
    monkeypatch.setattr(rs, "bracket",
                        lambda z, p: calls.append(z) or bracket(z, p))
    params = EllipticParams.rsos(3, 5, TAU)
    base = (0.29, 0.11, 0.0)
    window = [WeightPoint(base=base, offset=o)
              for o in ((0, 0, 0), (1, 0, 0), (0, 1, 0), (1, 1, 0))]
    build_vector_space(ModelKind.sos(base), params, window=window)
    # 4 points x 6 ordered pairs (i, j), each equal to its scalar call
    [args] = calls
    assert len(args) == 24
    batch = bracket(args, params)
    assert all(v == bracket(z, params) for z, v in zip(args, batch))
    # [a_1 - a_2] = [5] vanishes at the second point; the first has none
    base = (5.0, 0.0, 0.0)
    fine, bad = (WeightPoint(base=base, offset=o)
                 for o in ((0, 1, 3), (0, 0, 0)))
    with pytest.raises(BaseOnSingularSet) as raised:
        build_vector_space(ModelKind.sos(base), params, window=[fine, bad])
    assert str(raised.value) == f"base point {bad!r} has [a_1-a_2] ~ 0"
    assert len(calls) == 2


def test_restricted_r_at_zero_is_identity():
    kind, params = setup_n2()
    R0 = restricted_r([0.0], kind, params)[0]
    assert R0.max_diff(identity_morphism(R0.domain)) <= 1e-12


def test_restricted_r_unitary_as_graded_morphism():
    rng = random.Random(3)
    for n, r in ((2, 5), (3, 5)):
        kind = ModelKind.rsos(n, r)
        params = EllipticParams.rsos(n, r, TAU)
        for _ in range(5):
            z = complex(rng.uniform(0.1, 0.6), rng.uniform(0, 0.2))
            rz = restricted_r([z], kind, params)[0]
            rmz = restricted_r([-z], kind, params)[0]
            assert (rz @ rmz).max_diff(identity_morphism(rz.domain)) < 1e-9


def _displayed_matrix(z, l, params):
    """The rank-2 R-matrix in the basis e1e1, e1e2, e2e1, e2e2."""
    br = lambda u: bracket(u, params)
    den = br(l) * br(1 - z)
    w5 = br(l + z) * br(1) / den
    w6 = br(l - z) * br(1) / den
    w4 = -br(l + 1) * br(z) / den
    w3 = -br(l - 1) * br(z) / den
    return np.array([[1, 0, 0, 0],
                     [0, w5, w4, 0],
                     [0, w3, w6, 0],
                     [0, 0, 0, 1]]), {"W1": 1.0, "W2": 1.0, "W3": w3,
                                      "W4": w4, "W5": w5, "W6": w6}


def test_flat_matrix_matches_displayed_rank2_form():
    from rsoskit.elliptic import r_matrix
    kind, params = setup_n2()
    rng = random.Random(5)
    for _ in range(10):
        z = complex(rng.uniform(0.1, 0.6), rng.uniform(0, 0.2))
        l = rng.choice([1, 2, 3, 4])
        expected, _ = _displayed_matrix(z, l, params)
        got = r_matrix(z, _point(l), params)
        assert np.abs(got - expected).max() < 1e-10


def test_boltzmann_faces_match_displayed_weights():
    kind, params = setup_n2()
    rng = random.Random(6)
    up = lambda p: Arrow(p, eps(2, 1))
    down = lambda p: Arrow(p, eps(2, 2))
    for _ in range(10):
        z = complex(rng.uniform(0.1, 0.6), rng.uniform(0, 0.2))
        l = rng.choice([2, 3])
        a = _point(l)
        _, ref = _displayed_matrix(z, l, params)
        faces = {
            "W5": (up(a), down(a + (1, 0)), up(a), down(a + (1, 0))),
            "W6": (down(a), up(a + (0, 1)), down(a), up(a + (0, 1))),
            "W4": (down(a), up(a + (0, 1)), up(a), down(a + (1, 0))),
            "W3": (up(a), down(a + (1, 0)), down(a), up(a + (0, 1))),
        }
        faces["W1" if l == 2 else "W2"] = (
            (up(a), up(a + (1, 0)), up(a), up(a + (1, 0))) if l == 2
            else (down(a), down(a + (0, 1)), down(a), down(a + (0, 1))))
        for name, (al, be, ga, de) in faces.items():
            got = boltzmann_weight(z, al, be, ga, de, kind, params)
            assert abs(got - ref[name]) < 1e-10, name


def test_boltzmann_diagonal_face_is_one_and_w3_vanishes_at_zero():
    kind, params = setup_n2()
    a = _point(2)
    up = Arrow(a, eps(2, 1))
    up2 = Arrow(a + (1, 0), eps(2, 1))
    assert abs(boltzmann_weight(0.37, up, up2, up, up2, kind, params)
               - 1) < 1e-14
    down_then_up = (Arrow(a, eps(2, 1)), Arrow(a + (1, 0), eps(2, 2)),
                    Arrow(a, eps(2, 2)), Arrow(a + (0, 1), eps(2, 1)))
    w3 = boltzmann_weight(0.0, *down_then_up, kind, params)
    assert abs(w3) < 1e-14


def test_boltzmann_rejects_open_faces():
    kind, params = setup_n2()
    a = _point(2)
    with pytest.raises(ValueError, match="do not close"):
        boltzmann_weight(0.3, Arrow(a, eps(2, 1)), Arrow(a + (1, 0), eps(2, 1)),
                         Arrow(a, eps(2, 2)), Arrow(a + (0, 1), eps(2, 2)),
                         kind, params)
    # a face that closes but is no square of unit steps
    with pytest.raises(ValueError, match="unit steps"):
        boltzmann_weight(0.3, Arrow(a, (2, 0)), Arrow(a + (2, 0), (0, 0)),
                         Arrow(a, (1, 0)), Arrow(a + (1, 0), (1, 0)),
                         kind, params)


def test_boltzmann_absent_component_is_zero():
    kind, params = setup_n2()
    a = _point(4)
    al = Arrow(a, eps(2, 1))  # leaves the alcove
    be = Arrow(a + (1, 0), eps(2, 2))
    assert boltzmann_weight(0.3, al, be, al, be, kind, params) == 0.0


def test_forbidden_components_vanish_exhaustively():
    for n, r in ((2, 4), (2, 5), (3, 5), (3, 6)):
        kind = ModelKind.rsos(n, r)
        params = EllipticParams.rsos(n, r, TAU)
        assert restriction_residual([0.31 + 0.07j], kind, params) < 1e-12


def test_same_weight_is_the_eps_sum_identity():
    idx = range(1, 5)
    for i in idx:
        for j in idx:
            for k in idx:
                for l in idx:
                    expected = (add_vectors(eps(4, i), eps(4, j))
                                == add_vectors(eps(4, k), eps(4, l)))
                    assert _same_weight(i, j, k, l) == expected


def test_restriction_violation_detected_for_wrong_gamma():
    kind = ModelKind.rsos(2, 5)
    off = EllipticParams(tau=TAU, gamma=1 / 5.3, rank=2)
    with pytest.raises(RestrictionViolated,
                       match=r"component \(\d,\d\)<-\(\d,\d\) at WeightPoint"):
        restricted_r([0.31], kind, off)[0]


def test_forbidden_entry_in_the_table_is_detected(monkeypatch):
    import rsoskit.rsos as rs
    kind, params = setup_n2()
    real = rs.r_table

    def injected(z, points, p):
        table = real(z, points, p)
        for t, a in enumerate(points):
            allowed = kind.paths(a, 2)
            for k, l in allowed:
                if (l, k) not in allowed:
                    table[t, (l - 1) * 2 + k - 1, (k - 1) * 2 + l - 1] = 1e-9
                    return table
        raise AssertionError("the model has no forbidden component")

    monkeypatch.setattr(rs, "r_table", injected)
    with pytest.raises(RestrictionViolated, match=r"is 1\.00e-09"):
        restricted_r([0.31], kind, params)[0]


def _count_brackets(monkeypatch) -> list:
    import rsoskit.elliptic as el
    calls = []
    real = el.bracket
    monkeypatch.setattr(el, "bracket",
                        lambda z, p: calls.append(np.size(z)) or real(z, p))
    return calls


def test_one_table_per_spectral_parameter(monkeypatch):
    kind, params = ModelKind.rsos(3, 7), EllipticParams.rsos(3, 7, TAU)
    V = build_vector_space(kind)
    calls = _count_brackets(monkeypatch)
    for k, z in enumerate((0.31, 0.17 + 0.05j, -0.42), start=1):
        restricted_r([z], kind, params, space=V)[0]
        assert len(calls) == k
    # the star-triangle check: one table per run, its rows at every distinct
    # spectral parameter over the slot start points
    for w in (0.17 + 0.05j, 0.31, 0.0):  # 3, then 2 distinct parameters
        del calls[:]
        star_triangle_residual([(0.31, w)], kind, params)
        assert len(calls) == 1
    # ... and one for every pair of a sequence, and every z of restriction
    del calls[:]
    star_triangle_residual([(0.31, 0.17 + 0.05j), (0.2, 0.0), (0.31, 0.31)],
                           kind, params)
    restriction_residual([0.31, 0.17 + 0.05j, -0.42], kind, params)
    assert len(calls) == 2
    # [d] and [d+1] are shared by the rows at the three spectral parameters
    del calls[:]
    star_triangle_residual([(0.31, 0.17 + 0.05j)], kind, params)
    starts, _ = _sites(kind.alcove(), kind)
    r_table(0.31, starts, params)
    assert calls[0] < 3 * calls[1]


def test_runs_of_one_point_give_the_same_results(monkeypatch):
    import rsoskit.elliptic as el
    import rsoskit.fusion as fu
    import rsoskit.rsos as rs
    kind, params = ModelKind.rsos(3, 7), EllipticParams.rsos(3, 7, TAU)
    z, w = 0.31 + 0.02j, 0.17 + 0.05j
    whole = restricted_r([z], kind, params)[0]
    worst = (restriction_residual([z], kind, params),
             star_triangle_residual([(z, w)], kind, params))
    zs = (z, w, -z, z)
    several = restricted_r(zs, kind, params)
    # every morphism of a several-z table equals its one-z build
    for k, u in enumerate(zs):
        R, one = several[k], restricted_r([u], kind, params)[0]
        assert R.blocks.keys() == one.blocks.keys()
        assert all(np.array_equal(R.blocks[g], m) for g, m in one.blocks.items())
    bases = fu.fusion_bases(kind.alcove(), kind, params)
    residues = el.residue_extrapolation(kind.alcove(), params)
    monkeypatch.setattr(el, "TABLE_BUDGET", 1)
    runs = []
    real = rs.r_table
    monkeypatch.setattr(rs, "r_table",
                        lambda u, pts, p: runs.append(len(pts)) or real(u, pts, p))
    R = restricted_r([z], kind, params)[0]
    assert R.blocks.keys() == whole.blocks.keys()
    assert all(np.array_equal(R.blocks[g], m) for g, m in whole.blocks.items())
    assert restriction_residual([z], kind, params) == worst[0]
    alcove = kind.alcove()
    assert len(runs) == 2 * len(alcove) and max(runs) == 1
    del runs[:]
    assert star_triangle_residual([(z, w)], kind, params) == worst[1]
    # a site run is one table over one point's start points, itself and its
    # successors, at each of the three spectral parameters
    assert len(runs) == sum(1 for a in alcove if kind.paths(a, 3))
    assert max(runs) <= 3 * (1 + kind.rank)
    # several spectral parameters: one table of len(zs) rows per source
    del runs[:]
    stacked = restricted_r(zs, kind, params)
    for k in range(len(zs)):
        R, want = stacked[k], several[k]
        assert R.blocks.keys() == want.blocks.keys()
        assert all(np.array_equal(R.blocks[g], m)
                   for g, m in want.blocks.items())
    assert len(runs) == len(alcove) and set(runs) == {len(zs)}
    # the z = -1 and residue tables of fusion_bases, and the residue oracle,
    # one point per run
    real_reg, real_table = fu.r_reg1, el.r_table
    monkeypatch.setattr(fu, "r_reg1",
                        lambda pts, p: runs.append(len(pts)) or real_reg(pts, p))
    monkeypatch.setattr(el, "r_table",
                        lambda u, pts, p: runs.append(len(pts))
                        or real_table(u, pts, p))
    del runs[:]
    got = fu.fusion_bases(kind.alcove(), kind, params)
    assert runs == [1] * len(alcove)
    assert [b.point for b in got] == [b.point for b in bases]
    for b, want in zip(got, bases):
        assert np.array_equal(b.residue, want.residue)
        assert b.max_residual == want.max_residual
        for s, t in zip(b.sectors, want.sectors, strict=True):
            assert (s.case, s.paths, s.residual) == (t.case, t.paths, t.residual)
            assert np.array_equal(s.minus_one_block, t.minus_one_block)
            assert np.array_equal(s.reg_one_block, t.reg_one_block)
    del runs[:]
    assert np.array_equal(el.residue_extrapolation(alcove, params), residues)
    assert runs == [3] * len(alcove)  # three eps rows over one point


def test_star_triangle_restricted():
    kind, params = setup_n2()
    assert star_triangle_residual([(0.31, 0.17 + 0.05j)], kind, params) < 1e-9


def test_star_triangle_degenerate_spectral_point():
    kind, params = setup_n2()
    assert star_triangle_residual([(0.31, 0.31)], kind, params) < 1e-10


def test_star_triangle_sos_generic_base():
    kind = ModelKind.sos((0.29, 0.11, 0.0))
    params = EllipticParams.rsos(3, 5, TAU)
    b = WeightPoint(base=(0.29, 0.11, 0.0), offset=(0, 0, 0))
    pts = [b, b + eps(3, 1), b + (1, 1, 0)]
    assert star_triangle_residual([(0.31, 0.17 + 0.05j)], kind, params,
                                  points=pts) < 1e-9


def _star_triangle_setups():
    b = WeightPoint(base=(0.29, 0.11, 0.0), offset=(0, 0, 0))
    setups = [(ModelKind.rsos(n, r), EllipticParams.rsos(n, r, TAU), None)
              for n, r in ((2, 5), (3, 5), (3, 7), (4, 6))]
    setups.append((ModelKind.sos(b.base), EllipticParams.rsos(3, 5, TAU),
                   [b, b + eps(3, 1), b + (1, 1, 0)]))
    return setups


# seeded pairs, a degenerate pair z == w, and a repeated pair
_RNG = random.Random(30)
PAIRS = [(complex(_RNG.uniform(0.1, 0.6), _RNG.uniform(0.0, 0.2)),
          complex(_RNG.uniform(0.1, 0.6), _RNG.uniform(0.0, 0.2)))
         for _ in range(4)]
PAIRS += [(0.31 + 0.02j, 0.31 + 0.02j), PAIRS[1]]


@pytest.mark.parametrize("budget", [None, 1])
def test_batched_star_triangle_is_the_max_of_single_pairs(monkeypatch, budget):
    import rsoskit.elliptic as el
    import rsoskit.rsos as rs
    singles = [[star_triangle_residual([pair], kind, params, points=window)
                for pair in PAIRS]
               for kind, params, window in _star_triangle_setups()]
    tables = []
    real = rs.r_table
    monkeypatch.setattr(rs, "r_table", lambda u, pts, p:
                        tables.append(len(pts)) or real(u, pts, p))
    if budget is not None:
        monkeypatch.setattr(el, "TABLE_BUDGET", budget)
    for (kind, params, window), single in zip(_star_triangle_setups(),
                                              singles):
        del tables[:]
        worst = star_triangle_residual(PAIRS, kind, params, points=window)
        assert worst == max(single)
        points = window or kind.alcove()
        if budget is None:  # the whole check is one table
            assert len(tables) == 1
        else:  # one point per run and one distinct pair per chunk
            sites = sum(1 for a in points if kind.paths(a, 3))
            assert len(tables) == sites * len(set(PAIRS))
            assert max(tables) <= 3 * (1 + kind.rank)


def test_star_triangle_tiles_stay_within_the_table_budget(monkeypatch):
    import rsoskit.elliptic as el
    import rsoskit.rsos as rs
    kind, params = ModelKind.rsos(3, 7), EllipticParams.rsos(3, 7, TAU)
    want = star_triangle_residual(PAIRS, kind, params)
    budget = 7_000  # runs of 7 points, chunks of a few pairs
    monkeypatch.setattr(el, "TABLE_BUDGET", budget)
    calls = _count_brackets(monkeypatch)
    singles, args = [], []
    for pair in dict.fromkeys(PAIRS):
        del calls[:]
        singles.append(star_triangle_residual([pair], kind, params))
        args.append(sum(calls))
    sizes, stacks = [], []
    real_table, real_ops = rs.r_table, rs._site_operators

    def ops(table, gather):
        out = real_ops(table, gather)
        stacks.append(out.size)
        return out

    built = []  # a weak reference to each table

    def table(u, pts, p):
        # the tables of earlier tiles are dropped before the next is built
        assert all(ref() is None for ref in built)
        sizes.append(len(pts) * 81)
        out = real_table(u, pts, p)
        built.append(weakref.ref(out))
        return out

    monkeypatch.setattr(rs, "r_table", table)
    monkeypatch.setattr(rs, "_site_operators", ops)
    del calls[:]
    assert star_triangle_residual(PAIRS, kind, params) == want
    assert want == max(singles)
    # several runs, several chunks per run, each within the budget, and no
    # more bracket arguments than the pairs checked one at a time
    runs = len(el.table_runs(kind.alcove(), 3 * 4 * 81))
    assert 1 < runs < len(sizes) < runs * len(set(PAIRS))
    assert max(sizes) <= budget and max(stacks) <= budget
    assert sum(calls) <= sum(args)


def test_pairs_sharing_their_parameters_are_chunked_by_count(monkeypatch):
    import rsoskit.elliptic as el
    import rsoskit.rsos as rs
    kind, params = setup_n2()
    # the 15 pairs (v_i, v_j), i > j, of v_k = k c share the 6 parameters
    # v_1..v_6: c is dyadic, so v_i - v_j is v_(i-j) exactly; a tile still
    # tables the three parameters of each of its pairs
    c = 0.0625 + 0.015625j
    pairs = [(i * c, j * c) for i in range(1, 7) for j in range(1, i)]
    want = max(star_triangle_residual([pair], kind, params) for pair in pairs)
    starts, sites = _sites(kind.alcove(), kind)
    cost = max(len(starts) * 16, 2 * max(len(p) for _, p, _ in sites) ** 2)
    # one run of the alcove, tiles of 3 pairs: 9 parameters of `cost` entries
    monkeypatch.setattr(el, "TABLE_BUDGET", 600)
    assert len(el.table_runs(kind.alcove(), 3 * 3 * 16)) == 1
    triples = [(z - w, z, w) for z, w in pairs]
    tiles = [[u for triple in tile for u in triple]
             for _, tile in el.table_runs(triples, 3 * cost)]
    assert [len(tile) for tile in tiles] == [9] * 5 and 9 * cost <= 600
    tables = []
    real = rs.r_table
    monkeypatch.setattr(rs, "r_table", lambda u, pts, p:
                        tables.append((u, pts)) or real(u, pts, p))
    assert star_triangle_residual(pairs, kind, params) == want
    assert tables == [([u for u in tile for _ in starts], starts * len(tile))
                      for tile in tiles]


def test_one_pole_pair_raises_as_its_single_call():
    kind, params = setup_n2()
    pole = (1.25, 0.25)  # z - w = 1, where [1 - (z - w)] vanishes
    with pytest.raises(NearPole) as single:
        star_triangle_residual([pole], kind, params)
    with pytest.raises(NearPole) as batched:
        star_triangle_residual([*PAIRS[:2], pole, *PAIRS[2:]], kind, params)
    assert str(batched.value) == str(single.value)


@pytest.mark.parametrize("budget", [None, 1])
def test_batched_restriction_is_the_max_of_single_z(monkeypatch, budget):
    import rsoskit.elliptic as el
    zs = [z for z, _ in PAIRS] + [-0.42]
    setups = [(ModelKind.rsos(n, r), EllipticParams.rsos(n, r, TAU))
              for n, r in ((2, 4), (3, 5), (3, 6), (4, 6))]
    singles = [max(restriction_residual([z], kind, params) for z in zs)
               for kind, params in setups]
    if budget is not None:
        monkeypatch.setattr(el, "TABLE_BUDGET", budget)
    for (kind, params), want in zip(setups, singles):
        assert restriction_residual(zs, kind, params) == want


def _site_matrix_scan(flat_of, a, paths, slot, n):
    """Reference: scan every (i, j) pair for each column path."""
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
                row = pos.get(p[:slot] + (i, j) + p[slot + 2:])
                if row is not None:
                    m[row, col] += flat[pair_index(n, i, j),
                                        pair_index(n, p[slot], p[slot + 1])]
    return m


def test_site_matrix_matches_full_pair_scan():
    b = WeightPoint(base=(0.29 + 0.03j, 0.11, 0.0), offset=(0, 0, 0))
    setups = [(ModelKind.rsos(n, r), EllipticParams.rsos(n, r, TAU), None)
              for n, r in ((2, 5), (3, 5), (3, 7))]
    setups.append((ModelKind.sos(b.base), EllipticParams.rsos(3, 5, TAU),
                   [b, b + eps(3, 1), b + (1, 1, 0)]))
    z = 0.31 + 0.02j
    for kind, params, window in setups:
        flat_of = lambda point: r_matrix(z, point, params)
        points = window or kind.alcove()
        starts, sites = _sites(points, kind)
        assert [a for a, *_ in sites] == [a for a in points if kind.paths(a, 3)]
        table = r_table(z, starts, params)
        for a, paths, gather in sites:
            assert paths == kind.paths(a, 3)
            ops = _site_operators(table[None], gather)[0]
            for slot in (0, 1):
                assert np.array_equal(
                    ops[slot],
                    _site_matrix_scan(flat_of, a, paths, slot, kind.rank))


def test_grading_convention_consistency():
    # every restricted block entry equals the face weight of its summands
    kind, params = setup_n2()
    z = 0.27 + 0.04j
    V = build_vector_space(kind)
    R = restricted_r([z], kind, params, space=V)[0]
    VV = R.domain
    # the summands (alpha, beta) of each component of V (x) V, in row order
    arrows, gammas, lay = list(V.dims), list(VV.dims), VV.layout
    summands = {g: [] for g in gammas}
    for c, l, r in zip(lay.component, lay.left, lay.right):
        summands[gammas[c]].append((arrows[l], arrows[r]))
    for g, pairs in summands.items():
        block = R.block(g)
        for col, (c_left, c_right) in enumerate(pairs):
            for row, (r_left, r_right) in enumerate(pairs):
                face = boltzmann_weight(z, c_left, c_right, r_left, r_right,
                                        kind, params)
                assert abs(block[row, col] - face) < 1e-14


MODELS = [(2, 5), (3, 5), (3, 6)]


@pytest.mark.parametrize("n,r", MODELS)
def test_paths_equal_brute_force_filter(n, r):
    kind = ModelKind.rsos(n, r)
    for a in rsos_alcove(n, r):
        for length in range(5):
            expected = []
            for steps in itertools.product(range(1, n + 1), repeat=length):
                point, ok = a, True
                for i in steps:
                    point = point + eps(n, i)
                    ok = ok and in_alcove(point, r)
                if ok:
                    expected.append(steps)
            got = kind.paths(a, length)
            assert got == tuple(expected)
            assert got == tuple(sorted(got))


def test_paths_are_immutable_and_enumerated_once():
    kind = ModelKind.rsos(3, 5)
    a = rsos_alcove(3, 5)[0]
    paths = kind.paths(a, 3)
    assert isinstance(paths, tuple)
    assert all(isinstance(p, tuple) for p in paths)
    assert kind.paths(a, 3) is paths


def test_alcove_is_built_once_per_model(monkeypatch):
    import rsoskit.groupoid as gr
    from rsoskit.suites import RunConfig, run_suite
    kind = ModelKind.rsos(3, 5)
    assert kind.alcove() is kind.alcove()
    assert isinstance(kind.alcove(), tuple)
    assert list(kind.alcove()) == rsos_alcove(3, 5)
    enumerated, models = [], []
    real_enumerate, real_init = gr.rsos_alcove, ModelKind.__post_init__

    def counted_init(self):
        models.append(self)
        real_init(self)

    monkeypatch.setattr(gr, "rsos_alcove",
                        lambda n, r: enumerated.append((n, r))
                        or real_enumerate(n, r))
    monkeypatch.setattr(ModelKind, "__post_init__", counted_init)
    run_suite("all", RunConfig(n=3, r=5))
    assert 0 < len(enumerated) <= sum(m.is_restricted for m in models)


def test_paths_find_each_points_successors_once(monkeypatch):
    calls = []
    allowed = ModelKind.step_allowed

    def counted(self, a, i):
        calls.append(self)
        return allowed(self, a, i)

    monkeypatch.setattr(ModelKind, "step_allowed", counted)
    n, r = 2, 5
    points = rsos_alcove(n, r)
    for kind in (ModelKind.rsos(n, r), ModelKind.rsos(n, r)):
        before = len(calls)
        for a in points:
            for length in range(1, 13):
                assert kind.paths(a, length)
        assert 0 < len(calls) - before <= n * len(points)
        assert all(c is kind for c in calls[before:])


def test_paths_unrestricted_are_all_sequences():
    kind = ModelKind.sos((0.29, 0.11, 0.0))
    b = WeightPoint(base=(0.29, 0.11, 0.0), offset=(0, 0, 0))
    for length in range(4):
        assert kind.paths(b, length) == tuple(
            itertools.product(range(1, 4), repeat=length))


@pytest.mark.parametrize("n,r", MODELS)
def test_step_allowed_matches_alcove_definition(n, r):
    kind = ModelKind.rsos(n, r)
    points = rsos_alcove(n, r)
    around = set(points)
    for a in points:
        for i in range(1, n + 1):
            around.add(a + eps(n, i))
            around.add(a + tuple(-x for x in eps(n, i)))
    assert len(around) > len(points)
    for a in around:
        for i in range(1, n + 1):
            oracle = in_alcove(a, r) and in_alcove(a + eps(n, i), r)
            assert kind.step_allowed(a, i) == oracle


@pytest.mark.parametrize("n,r", MODELS)
def test_step_table_matches_step_allowed(n, r):
    kind = ModelKind.rsos(n, r)
    move = kind.move()
    assert move is kind.move() and not move.flags.writeable
    points, index = kind.alcove(), kind.alcove_index()
    assert move.shape == (len(points), n + 1) and (move[:, 0] == -1).all()
    for p, a in enumerate(points):
        for i in range(1, n + 1):
            want = index[a + eps(n, i)] if kind.step_allowed(a, i) else -1
            assert move[p, i] == want


def _reference_restricted_vector_space(kind):
    """V read off the step table, (a, eps_i) by a, then by i, with its
    components' source and target indices, shift rows and dimensions as the
    table gives them."""
    n, move, points = kind.rank, kind.move(), kind.alcove()
    p, i = np.nonzero(move[:, 1:] >= 0)
    V = GradedSpace.from_dims(kind, {
        Arrow(points[a], eps(n, k + 1)): 1
        for a, k in zip(p.tolist(), i.tolist())})
    return V, (p, move[p, i + 1], np.eye(n, dtype=np.int64)[i],
               np.ones(p.size, dtype=np.int64))


@pytest.mark.parametrize("n,r", MODELS + [(3, 7), (4, 6)])
def test_vector_space_components_come_from_the_step_table(n, r):
    from rsoskit.graded import components
    kind = ModelKind.rsos(n, r)
    V = build_vector_space(kind)
    want, (source, target, shifts, sizes) = (
        _reference_restricted_vector_space(kind))
    assert list(V.dims.items()) == list(want.dims.items())
    assert np.array_equal(V.keys, want.keys)
    got = components(V)
    assert got._fields == ("source", "target")
    for a, b in ((got.source, source), (got.target, target),
                 (V.shifts, shifts), (V.sizes, sizes)):
        assert np.array_equal(a, b)
