import itertools
import random

import numpy as np
import pytest

from rsoskit.convolution import character
from rsoskit.elliptic import EllipticParams, bracket
from rsoskit.errors import (BaseOnSingularSet, NonSquare, RestrictionViolated)
from rsoskit.graded import identity_morphism
from rsoskit.groupoid import (AlcoveKind, AlcoveSpec, Arrow, WeightPoint,
                              add_vectors, alcove_contains, eps, rsos_alcove)
from rsoskit.rsos import (ModelKind, _same_weight, boltzmann_weight,
                          build_vector_space, restricted_r,
                          restriction_residual, star_triangle_residual)

TAU = 0.9j


def setup_n2(r=5):
    return ModelKind.rsos(2, r), EllipticParams.rsos(2, r, TAU)


def _point(l):
    return WeightPoint.from_level_coordinate(l)


def test_vector_space_arrows_rank2():
    kind, params = setup_n2()
    V = build_vector_space(kind, params)
    ups = sorted(g.source.level_coordinate() for g in V.dims
                 if g.shift == (1, 0))
    downs = sorted(g.source.level_coordinate() for g in V.dims
                   if g.shift == (0, 1))
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


def test_restricted_r_at_zero_is_identity():
    kind, params = setup_n2()
    R0 = restricted_r(0.0, kind, params)
    assert R0.is_identity(1e-12)


def test_restricted_r_unitary_as_graded_morphism():
    rng = random.Random(3)
    for n, r in ((2, 5), (3, 5)):
        kind = ModelKind.rsos(n, r)
        params = EllipticParams.rsos(n, r, TAU)
        for _ in range(5):
            z = complex(rng.uniform(0.1, 0.6), rng.uniform(0, 0.2))
            rz = restricted_r(z, kind, params)
            rmz = restricted_r(-z, kind, params)
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
        got = r_matrix(z, _point(l), params).matrix
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
            got = boltzmann_weight(z, al, be, ga, de, kind, params).value
            assert abs(got - ref[name]) < 1e-10, name


def test_boltzmann_diagonal_face_is_one_and_w3_vanishes_at_zero():
    kind, params = setup_n2()
    a = _point(2)
    up = Arrow(a, eps(2, 1))
    up2 = Arrow(a + (1, 0), eps(2, 1))
    assert abs(boltzmann_weight(0.37, up, up2, up, up2, kind, params).value
               - 1) < 1e-14
    down_then_up = (Arrow(a, eps(2, 1)), Arrow(a + (1, 0), eps(2, 2)),
                    Arrow(a, eps(2, 2)), Arrow(a + (0, 1), eps(2, 1)))
    w3 = boltzmann_weight(0.0, *down_then_up, kind, params).value
    assert abs(w3) < 1e-14


def test_boltzmann_rejects_open_faces():
    kind, params = setup_n2()
    a = _point(2)
    with pytest.raises(NonSquare):
        boltzmann_weight(0.3, Arrow(a, eps(2, 1)), Arrow(a + (1, 0), eps(2, 1)),
                         Arrow(a, eps(2, 2)), Arrow(a + (0, 1), eps(2, 2)),
                         kind, params)


def test_boltzmann_absent_component_is_zero():
    kind, params = setup_n2()
    a = _point(4)
    al = Arrow(a, eps(2, 1))  # leaves the alcove
    be = Arrow(a + (1, 0), eps(2, 2))
    assert boltzmann_weight(0.3, al, be, al, be, kind, params).value == 0.0


def test_forbidden_components_vanish_exhaustively():
    for n, r in ((2, 4), (2, 5), (3, 5), (3, 6)):
        kind = ModelKind.rsos(n, r)
        params = EllipticParams.rsos(n, r, TAU)
        assert restriction_residual(0.31 + 0.07j, kind, params) < 1e-12


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
        restricted_r(0.31, kind, off)


def test_star_triangle_restricted():
    kind, params = setup_n2()
    assert star_triangle_residual(0.31, 0.17 + 0.05j, kind, params) < 1e-9


def test_star_triangle_degenerate_spectral_point():
    kind, params = setup_n2()
    assert star_triangle_residual(0.31, 0.31, kind, params) < 1e-10


def test_star_triangle_sos_generic_base():
    kind = ModelKind.sos((0.29, 0.11, 0.0))
    params = EllipticParams.rsos(3, 5, TAU)
    b = WeightPoint(base=(0.29, 0.11, 0.0), offset=(0, 0, 0))
    pts = [b, b + eps(3, 1), b + (1, 1, 0)]
    assert star_triangle_residual(0.31, 0.17 + 0.05j, kind, params,
                                  points=pts) < 1e-9


def test_grading_convention_consistency():
    # every restricted block entry equals the face weight of its summands
    kind, params = setup_n2()
    from rsoskit.rsos import restricted_r
    z = 0.27 + 0.04j
    R = restricted_r(z, kind, params)
    VV = R.domain
    for g, summands in VV.layout.items():
        block = R.block(g)
        for col, sc in enumerate(summands):
            for row, sr in enumerate(summands):
                face = boltzmann_weight(z, sc.left, sc.right, sr.left,
                                        sr.right, kind, params).value
                assert abs(block[row, col] - face) < 1e-14


MODELS = [(2, 5), (3, 5), (3, 6)]


@pytest.mark.parametrize("n,r", MODELS)
def test_paths_equal_brute_force_filter(n, r):
    kind = ModelKind.rsos(n, r)
    spec = AlcoveSpec(n, AlcoveKind.AFFINE_REGULAR, r)
    for a in rsos_alcove(n, r):
        for length in range(5):
            expected = []
            for steps in itertools.product(range(1, n + 1), repeat=length):
                point, ok = a, True
                for i in steps:
                    point = point + eps(n, i)
                    ok = ok and alcove_contains(point, spec)
                if ok:
                    expected.append(steps)
            got = kind.paths(a, length)
            assert got == expected
            assert got == sorted(got)


def test_paths_unrestricted_are_all_sequences():
    kind = ModelKind.sos((0.29, 0.11, 0.0))
    b = WeightPoint(base=(0.29, 0.11, 0.0), offset=(0, 0, 0))
    for length in range(4):
        assert kind.paths(b, length) == list(
            itertools.product(range(1, 4), repeat=length))


@pytest.mark.parametrize("n,r", MODELS)
def test_step_allowed_matches_alcove_definition(n, r):
    kind = ModelKind.rsos(n, r)
    spec = AlcoveSpec(n, AlcoveKind.AFFINE_REGULAR, r)
    points = rsos_alcove(n, r)
    around = set(points)
    for a in points:
        for i in range(1, n + 1):
            around.add(a + eps(n, i))
            around.add(a + tuple(-x for x in eps(n, i)))
    assert len(around) > len(points)
    for a in around:
        for i in range(1, n + 1):
            oracle = (alcove_contains(a, spec)
                      and alcove_contains(a + eps(n, i), spec))
            assert kind.step_allowed(a, i) == oracle
