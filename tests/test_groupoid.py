import copy
import math
import pickle
import random
from itertools import combinations_with_replacement

import pytest

from oracles import compose, in_alcove
from rsoskit import groupoid
from rsoskit.errors import TooLarge
from rsoskit.groupoid import (Arrow, WeightPoint, add_vectors, eps,
                              identity_arrow, inverse, rsos_alcove)


def test_canonical_representative():
    a = WeightPoint.integer((4, 2, 1))
    assert a.offset == (3, 1, 0)
    assert a == WeightPoint.integer((3, 1, 0))
    assert a + (1, 1, 1) == a


def test_compose_shifts_add():
    a = WeightPoint.integer((3, 1, 0))
    first = Arrow(a, eps(3, 1))
    second = Arrow(a + eps(3, 1), eps(3, 2))
    total = compose(second, first)
    assert total.source == a
    assert total.shift == (1, 1, 0)


def test_compose_unit_law():
    g = Arrow(WeightPoint.integer((2, 0)), (1, 0))
    assert compose(g, identity_arrow(g.source)) == g
    assert compose(identity_arrow(g.target), g) == g


def test_compose_inverse_gives_identity():
    g = Arrow(WeightPoint.integer((3, 1, 0)), (0, 1, 0))
    assert compose(inverse(g), g) == identity_arrow(g.source)


def test_compose_rejects_mismatched_endpoints():
    a = WeightPoint.integer((2, 0))
    with pytest.raises(ValueError, match="cannot compose"):
        compose(Arrow(a, (1, 0)), Arrow(a, (1, 0)))


def test_inverse_examples():
    a = WeightPoint.integer((2, 0))
    g = Arrow(a, eps(2, 1))
    assert inverse(g) == Arrow(a + eps(2, 1), (-1, 0))
    assert inverse(identity_arrow(a)) == identity_arrow(a)


def test_inverse_involutive_on_random_arrows():
    rng = random.Random(11)
    for _ in range(100):
        a = WeightPoint.integer(tuple(rng.randrange(-4, 5) for _ in range(3)))
        g = Arrow(a, tuple(rng.randrange(-3, 4) for _ in range(3)))
        back = inverse(inverse(g))
        assert back == g and hash(back) == hash(g)


def test_inverse_carries_its_target_and_only_its_fields():
    rng = random.Random(13)
    clones = (copy.copy, copy.deepcopy,
              lambda x: pickle.loads(pickle.dumps(x)))
    for base in ((0, 0, 0), COMPLEX_BASE):
        for _ in range(50):
            offset = tuple(rng.randrange(-4, 5) for _ in range(3))
            a = WeightPoint(base, offset)
            g = Arrow(a, tuple(rng.randrange(-3, 4) for _ in range(3)))
            h = inverse(g)
            assert vars(h)["target"] is g.source
            assert h.target == g.source == Arrow(*h).target
            for clone in clones:
                y = clone(h)
                assert type(y) is Arrow and y == h and hash(y) == hash(h)
                assert "target" not in vars(y) and y.target == g.source


def test_alcove_membership_rank2_levels():
    alcove = set(rsos_alcove(2, 5))
    assert [WeightPoint.from_level_coordinate(l) in alcove
            for l in range(6)] == [False, True, True, True, True, False]


def test_alcove_membership_rank3():
    assert WeightPoint.integer((2, 1, 0)) in rsos_alcove(3, 5)
    alcove4 = set(rsos_alcove(3, 4))
    assert WeightPoint.integer((3, 1, 0)) in alcove4
    assert WeightPoint.integer((3, 2, 0)) in alcove4
    assert WeightPoint.integer((4, 1, 0)) not in alcove4


def test_enumerate_alcove_counts():
    assert len(rsos_alcove(2, 5)) == 4
    assert len(rsos_alcove(2, 4)) == 3
    assert len(rsos_alcove(3, 5)) == 6
    for n in (2, 3, 4):
        for r in range(n + 1, 9):
            assert len(rsos_alcove(n, r)) == math.comb(r - 1, n - 1)


def test_alcove_budget_is_checked_before_any_point_is_built(monkeypatch):
    def refuse(coords):
        raise AssertionError("built a point of an alcove over budget")

    monkeypatch.setattr(groupoid.WeightPoint, "integer", refuse)
    with pytest.raises(TooLarge, match="^ALCOVE_BUDGET: 15380937 points "
                                       "requested, limit 100000$"):
        rsos_alcove(8, 40)


def test_alcove_budget_admits_its_limit(monkeypatch):
    monkeypatch.setattr(groupoid, "ALCOVE_BUDGET", 6)
    assert len(rsos_alcove(3, 5)) == 6
    with pytest.raises(TooLarge, match="^ALCOVE_BUDGET: 10 points requested, "
                                       "limit 6$"):
        rsos_alcove(3, 6)


def test_enumerate_alcove_matches_membership():
    listed = rsos_alcove(3, 6)
    brute = set()
    for a1 in range(-1, 8):
        for a2 in range(-1, 8):
            p = WeightPoint.integer((a1, a2, 0))
            if in_alcove(p, 6):
                brute.add(p)
    assert len(listed) == len(brute) and set(listed) == brute


def test_enumeration_is_sorted_and_deterministic():
    pts = rsos_alcove(3, 6)
    assert pts == sorted(pts, key=WeightPoint.sort_key)
    assert pts == rsos_alcove(3, 6)


def _dominant_alcove(n, r):
    # P^r_+: a_1 >= ... >= a_n = 0 with a_1 <= r
    return [WeightPoint.integer(c[::-1] + (0,)) for c in
            combinations_with_replacement(range(r + 1), n - 1)]


def test_dominant_alcove_counts():
    for n in (2, 3, 4):
        for r in range(0, 7):
            dominant = _dominant_alcove(n, r)
            assert len(set(dominant)) == len(dominant)
            assert len(dominant) == math.comb(r + n - 1, n - 1)


def test_rho_bijection_onto_shifted_alcove():
    # P^r_+ shifted by rho = (n-1, ..., 0) is P^{r+n}_++
    for n in (2, 3, 4):
        rho = tuple(range(n - 1, -1, -1))
        for r in range(0, 7):
            image = sorted((p + rho for p in _dominant_alcove(n, r)),
                           key=WeightPoint.sort_key)
            assert image == rsos_alcove(n, r + n)


def test_associativity_exhaustive_on_small_shift_arrows():
    points = rsos_alcove(2, 5)
    inside = set(points)
    arrows = [Arrow(a, (s1, s2))
              for a in points for s1 in (-1, 0, 1) for s2 in (-1, 0, 1)
              if (a + (s1, s2)) in inside]
    by_source = {}
    for g in arrows:
        by_source.setdefault(g.source, []).append(g)
    for f in arrows:
        for g in by_source.get(f.target, []):
            for h in by_source.get(g.target, []):
                assert compose(h, compose(g, f)) == compose(compose(h, g), f)


COMPLEX_BASE = (0.29 + 0.03j, 0.11, 0.0)


def _value_samples():
    g = Arrow(WeightPoint.integer((3, 1, 0)), (0, 1, 0))
    assert g.target == WeightPoint.integer((3, 2, 0))   # cached before copying
    return [WeightPoint.integer((4, 2, 1)),
            WeightPoint(COMPLEX_BASE, (1, 0, 2)), g]


@pytest.mark.parametrize("clone", [copy.copy, copy.deepcopy,
                                   lambda x: pickle.loads(pickle.dumps(x))])
def test_copy_and_pickle_round_trip(clone):
    for x in _value_samples():
        y = clone(x)
        assert type(y) is type(x) and y == x and hash(y) == hash(x)
        assert repr(y) == repr(x)
    g = clone(_value_samples()[2])
    assert g.target == g.source + g.shift


def test_fields_are_read_only():
    a = WeightPoint.integer((2, 0))
    g = Arrow(a, (1, 0))
    for obj, name in ((a, "offset"), (a, "base"), (g, "source"), (g, "shift")):
        with pytest.raises(AttributeError):
            setattr(obj, name, getattr(obj, name))


def test_points_and_arrows_are_unordered():
    a, b = WeightPoint.integer((2, 0)), WeightPoint.integer((3, 0))
    for x, y in ((a, b), (Arrow(a, (1, 0)), Arrow(b, (1, 0)))):
        for op in (lambda: x < y, lambda: x <= y, lambda: x > y,
                   lambda: x >= y):
            with pytest.raises(TypeError):
                op()


def test_plus_is_the_lattice_shift():
    a = WeightPoint.integer((2, 0))
    moved = a + (1, 0)
    assert type(moved) is WeightPoint and moved == WeightPoint.integer((3, 0))


def test_hash_is_the_field_tuple_hash():
    # the hash a frozen dataclass of the same fields returns, so set and
    # dict iteration orders do not depend on the representation
    for base, offset, canonical in (((0, 0, 0), (4, 2, 1), (3, 1, 0)),
                                    (COMPLEX_BASE, (1, 0, 2), (-1, -2, 0))):
        a = WeightPoint(base, offset)
        assert a.offset == canonical
        assert hash(a) == hash((base, canonical))
        mu = (1, -1, 0)
        assert hash(Arrow(a, mu)) == hash((a, mu))


def test_rank_mismatch_is_rejected():
    with pytest.raises(ValueError, match="base and offset ranks differ"):
        WeightPoint((0, 0), (1, 2, 3))


def _shift_samples():
    # seeded points of O_0 and of a complex-base orbit, each with a shift
    # whose last entry is non-zero, so that every sum is canonicalized
    rng = random.Random(29)
    out = []
    for base in ((0, 0, 0), COMPLEX_BASE):
        for _ in range(25):
            offset = tuple(rng.randrange(-4, 5) for _ in range(3))
            mu = (rng.randrange(-2, 3), rng.randrange(-2, 3),
                  rng.choice((-2, -1, 1, 2)))
            out.append((WeightPoint(base, offset), mu))
    return out


def test_shift_is_the_point_of_the_summed_offsets():
    for a, mu in _shift_samples():
        moved = a + mu
        want = WeightPoint(a.base, tuple(x + y for x, y in zip(a.offset, mu)))
        assert type(moved) is WeightPoint and moved == want
        assert moved.offset == want.offset and moved.offset[-1] == 0
        assert hash(moved) == hash(want) and repr(moved) == repr(want)
        assert moved.values() == tuple(b + o for b, o in
                                       zip(want.base, want.offset))


def test_shift_rank_mismatch_is_rejected():
    a = WeightPoint(COMPLEX_BASE, (1, 0, 2))
    for bad in ((1, 0), (1, 0, 0, 0)):
        with pytest.raises(ValueError, match="vector ranks differ"):
            add_vectors((1, 0, 0), bad)
        with pytest.raises(ValueError, match="vector ranks differ"):
            a.shifted(bad)
        with pytest.raises(ValueError, match="vector ranks differ"):
            Arrow(a, bad).target


def test_cached_target_is_invisible_to_value_semantics():
    a, mu = WeightPoint(COMPLEX_BASE, (1, 0, 2)), (0, 1, 1)
    g = Arrow(a, mu)
    before = (hash(g), repr(g), pickle.dumps(g))
    target = g.target
    assert g.target is target and target == a + mu
    assert g == Arrow(a, mu)
    assert (hash(g), repr(g), pickle.dumps(g)) == before
    for clone in (copy.copy, copy.deepcopy,
                  lambda x: pickle.loads(pickle.dumps(x))):
        y = clone(g)
        assert type(y) is Arrow and y == g and hash(y) == hash(g)
        assert repr(y) == repr(g) and "target" not in vars(y)
        assert y.target == target


def test_eps_is_built_once_and_checks_its_index():
    assert eps(3, 2) == (0, 1, 0) and eps(3, 2) is eps(3, 2)
    for i in (0, 4, -1):
        with pytest.raises(IndexError, match="out of range 1..3"):
            eps(3, i)
