import random
from fractions import Fraction

import numpy as np
import pytest

import rsoskit.convolution as cv
from oracles import compose, random_arrows
from rsoskit import suites
from rsoskit.convolution import (ConvolutionElement, character, chi,
                                 conv_mul, involution, matrix_form,
                                 to_difference_operator)
from rsoskit.errors import ContextMismatch, ShapeMismatch, SupportOutsideAlcove
from rsoskit.fusion import (central_element_n2, exterior_character,
                            sym_power_character_n2, sym_square_character)
from rsoskit.graded import dual_space, tensor_space
from rsoskit.groupoid import Arrow, WeightPoint, rsos_alcove
from rsoskit.rsos import ModelKind, build_vector_space
from rsoskit.suites import RunConfig, characters_suite

KIND = ModelKind.rsos(2, 5)
CTX = KIND
POINTS = rsos_alcove(2, 5)


def _int_coeff(rng):
    return rng.randrange(-3, 4)


def _random_arrows(rng, ctx, points, n_terms, coeff):
    """Random element on unit-box shifts between the given points; loops
    such as (1, ..., 1) stay distinct from identity shifts."""
    inside = set(points)
    rank = points[0].rank
    coeffs = {}
    for _ in range(n_terms):
        a = rng.choice(points)
        mu = tuple(rng.randrange(-1, 2) for _ in range(rank))
        if a + mu in inside:
            coeffs[Arrow(a, mu)] = coeff(rng)
    return ConvolutionElement(ctx, coeffs)


def _scaled(x, c):
    """The element c x."""
    return ConvolutionElement(x.context,
                              {g: c * v for g, v in x.coeffs.items()})


def _rand_element(rng, n_terms=4):
    return _random_arrows(rng, CTX, POINTS, n_terms, _int_coeff)


def test_chi_is_idempotent_unit_of_subring():
    unit = chi(CTX, POINTS)
    assert conv_mul(unit, unit) == unit
    rng = random.Random(0)
    for _ in range(20):
        x = _rand_element(rng)
        assert conv_mul(unit, x) == x
        assert conv_mul(x, unit) == x


def test_vector_character_support():
    chv = character(build_vector_space(KIND))
    ups = sorted(g.source.diff(1, 2) for g in chv.coeffs
                 if g.shift == (1, 0))
    downs = sorted(g.source.diff(1, 2) for g in chv.coeffs
                   if g.shift == (0, 1))
    assert ups == [1, 2, 3]
    assert downs == [2, 3, 4]


def test_square_of_vector_character_coefficients():
    chv = character(build_vector_space(KIND))
    sq = conv_mul(chv, chv)
    for l, expected in ((1, 1), (2, 2), (3, 2), (4, 1)):
        assert sq.coeff(Arrow(WeightPoint.from_level_coordinate(l), (1, 1))) \
            == expected


def test_character_is_multiplicative_and_additive():
    V = build_vector_space(KIND)
    chv = character(V)
    assert character(tensor_space(V, V)) == conv_mul(chv, chv)
    assert (chv + chv).coeffs == {g: 2 for g in chv.coeffs}


def test_character_of_dual_is_involution():
    V = build_vector_space(KIND)
    assert character(dual_space(V).dual) == involution(character(V))


def test_involution_is_involutive_antihomomorphism():
    rng = random.Random(17)
    for _ in range(50):
        x, y = _rand_element(rng), _rand_element(rng)
        assert involution(involution(x)) == x
        assert involution(conv_mul(x, y)) == conv_mul(involution(y),
                                                      involution(x))


def test_convolution_associative_exact():
    rng = random.Random(23)
    for _ in range(50):
        x, y, z = (_rand_element(rng) for _ in range(3))
        assert conv_mul(conv_mul(x, y), z) == conv_mul(x, conv_mul(y, z))


def test_fraction_coefficients_supported():
    a = POINTS[0]
    x = ConvolutionElement(CTX, {Arrow(a, (0, 0)): Fraction(1, 2)})
    assert conv_mul(x, x).coeff(Arrow(a, (0, 0))) == Fraction(1, 4)


def test_unit_maps_to_characteristic_multiplication():
    op = to_difference_operator(chi(CTX, POINTS), POINTS)
    assert np.array_equal(op.matrix(), np.eye(4, dtype=np.int64))


def test_vector_character_is_path_adjacency_operator():
    chv = character(build_vector_space(KIND))
    m = to_difference_operator(chv, POINTS).matrix()
    expected = np.zeros((4, 4), dtype=np.int64)
    for k in range(3):
        expected[k, k + 1] = expected[k + 1, k] = 1
    assert np.array_equal(m, expected)


def test_matrix_realization_is_ring_homomorphism():
    rng = random.Random(29)
    for _ in range(50):
        x, y = _rand_element(rng), _rand_element(rng)
        lhs = to_difference_operator(conv_mul(x, y), POINTS).matrix()
        rhs = (to_difference_operator(x, POINTS).matrix()
               @ to_difference_operator(y, POINTS).matrix())
        assert np.array_equal(lhs, rhs)


def test_homomorphism_exhaustive_small_levels():
    for r in (4, 5, 6):
        kind = ModelKind.rsos(2, r)
        pts = rsos_alcove(2, r)
        chv = character(build_vector_space(kind))
        unit = chi(kind, pts)
        elements = [unit, chv, conv_mul(chv, chv)]
        for x in elements:
            for y in elements:
                lhs = to_difference_operator(conv_mul(x, y), pts).matrix()
                rhs = (to_difference_operator(x, pts).matrix()
                       @ to_difference_operator(y, pts).matrix())
                assert np.array_equal(lhs, rhs)


def test_support_outside_alcove_rejected():
    bad = ConvolutionElement(
        CTX, {Arrow(WeightPoint.from_level_coordinate(4), (1, 0)): 1})
    with pytest.raises(SupportOutsideAlcove):
        to_difference_operator(bad, POINTS)


def test_loop_shifts_land_on_diagonal():
    a = POINTS[1]
    x = ConvolutionElement(CTX, {Arrow(a, (2, 2)): 3})
    m = to_difference_operator(x, POINTS).matrix()
    assert m[1, 1] == 3 and np.count_nonzero(m) == 1


def test_involution_fixes_unit():
    unit = chi(CTX, POINTS)
    assert involution(unit) == unit


def test_character_of_unit_object_is_unit_element():
    from rsoskit.graded import unit_space
    assert character(unit_space(CTX, POINTS)) == chi(CTX, POINTS)


def _pairwise_conv_mul(m, n):
    """Oracle: the product as a sum over composable pairs, one compose each."""
    if m.context != n.context:
        raise ContextMismatch("product of elements over different groupoids")
    by_source = {}
    for beta in n.coeffs:
        by_source.setdefault(beta.source, []).append(beta)
    out = {}
    for alpha, ca in m.coeffs.items():
        for beta in by_source.get(alpha.target, []):
            gamma = compose(beta, alpha)
            out[gamma] = out.get(gamma, 0) + ca * n.coeffs[beta]
    return ConvolutionElement(m.context, out)


def _assert_matches_oracle(ctx, points, coeff, seed, n_terms=12, trials=40):
    rng = random.Random(seed)
    for _ in range(trials):
        x = _random_arrows(rng, ctx, points, n_terms, coeff)
        y = _random_arrows(rng, ctx, points, n_terms, coeff)
        assert conv_mul(x, y) == _pairwise_conv_mul(x, y)


@pytest.mark.parametrize("n, r", [(2, 5), (3, 5)])
def test_conv_mul_matches_pairwise_oracle_rsos(n, r):
    kind = ModelKind.rsos(n, r)
    _assert_matches_oracle(kind, kind.alcove(), _int_coeff, seed=n + r)


def test_conv_mul_matches_pairwise_oracle_sos_complex_base():
    base = (0.29 + 0.1j, 0.11, 0)
    ctx = ModelKind.sos(base)
    window = [WeightPoint(base, (i, j, 0)) for i in range(-1, 3)
              for j in range(-1, 3)]
    _assert_matches_oracle(ctx, window, _int_coeff, seed=31)


def test_conv_mul_matches_pairwise_oracle_fractions():
    def coeff(rng):
        return Fraction(rng.randrange(-5, 6), rng.randrange(1, 7))

    _assert_matches_oracle(CTX, POINTS, coeff, seed=37)


R11 = ModelKind.rsos(2, 11)
L11 = [sym_power_character_n2(p, R11) for p in range(10)]
N3R7 = ModelKind.rsos(3, 7)


def _restricted(x, keep):
    return ConvolutionElement(x.context,
                              {g: c for g, c in x.coeffs.items() if keep(g)})


@pytest.mark.parametrize("chars", [
    L11,
    [exterior_character(k, N3R7) for k in range(4)],
    # pair products, L_s and u^k: products of products
    [conv_mul(L11[2], L11[3]), conv_mul(L11[5], L11[5]), L11[0], L11[4],
     central_element_n2(R11, 1), central_element_n2(R11, 3)],
    [sym_square_character(N3R7), *(exterior_character(k, N3R7)
                                   for k in range(4))],
    # arrows into the lower half, arrows out of the upper half: a zero product
    [_restricted(L11[4], lambda g: g.target.diff(1, 2) <= 5),
     _restricted(L11[4], lambda g: g.source.diff(1, 2) >= 6)],
    # coefficients and products past 2^63 stay exact Python ints
    [_scaled(L11[5], 2 ** 29), _scaled(L11[5], 2 ** 40),
     _scaled(L11[3], 3 ** 41)],
    [_scaled(L11[2], Fraction(1, 3)), L11[3]],
], ids=["sym-n2-r11", "ext-n3-r7", "products-n2-r11", "sym2-ext-n3-r7",
        "zero-product", "past-2-63-exact-ints", "fraction"])
def test_conv_mul_matches_pairwise_oracle_on_characters(chars):
    for x in chars:
        for y in chars:
            product = conv_mul(x, y)
            assert product == _pairwise_conv_mul(x, y)
            for g in product.coeffs:
                a, shift = g
                assert type(g) is Arrow
                assert g == Arrow(a, shift) and hash(g) == hash(Arrow(a, shift))
                assert g.target == Arrow(a, shift).target


def test_zero_products_equal_at_any_degree():
    low = _restricted(L11[4], lambda g: g.target.diff(1, 2) <= 5)
    high = _restricted(L11[4], lambda g: g.source.diff(1, 2) >= 6)
    up = _restricted(L11[1], lambda g: g.source.diff(1, 2) >= 6)
    zero = conv_mul(low, high)
    assert zero == ConvolutionElement(R11, {}) and zero.coeffs == {}
    assert zero == conv_mul(low, conv_mul(high, up))
    assert conv_mul(L11[2], L11[3]) != conv_mul(L11[2], L11[4])


@pytest.mark.parametrize("chars", [
    L11, [exterior_character(k, N3R7) for k in range(4)],
], ids=["sym-n2-r11", "ext-n3-r7"])
def test_matrix_form_reads_each_arrow_by_source_target_and_degree(chars):
    # the shift from A[i] to A[j] is fixed up to (1, ..., 1) by the
    # offsets, and the degree fixes that multiple
    points = chars[0].context.alcove()
    n = points[0].rank
    for degree, x in enumerate(chars):
        m = matrix_form(x, degree)
        assert m.dtype == float and m.shape == (len(points), len(points))
        for i, a in enumerate(points):
            for j, b in enumerate(points):
                diff = [v - u for u, v in zip(a.offset, b.offset)]
                k, rest = divmod(degree - sum(diff), n)
                shift = tuple(v + k for v in diff)
                assert m[i, j] == (0 if rest else x.coeff(Arrow(a, shift)))
        assert np.count_nonzero(m) == len(x.coeffs)


SOS = ModelKind.sos((0.29 + 0.1j, 0.11, 0))


@pytest.mark.parametrize("x", [
    L11[2] + L11[1],
    _scaled(L11[2], Fraction(1, 3)),
    L11[2] + ConvolutionElement(R11, {
        Arrow(WeightPoint.from_level_coordinate(10), (2, 0)): 1}),
    ConvolutionElement(SOS, {Arrow(WeightPoint(SOS.base, (0, 0, 0)),
                                   (1, 1, 0)): 1}),
], ids=["mixed-degree", "fraction", "leaves-the-alcove", "orbit-model"])
def test_matrix_form_refuses_elements_without_one(x):
    with pytest.raises(ShapeMismatch, match="^not homogeneous of degree 2$"):
        matrix_form(x, 2)


def _homogeneous(rng, kind, degree, n_terms=30):
    """Random integer element of one degree, with a matrix form."""
    inside, rank = set(kind.alcove()), kind.rank
    coeffs = {}
    for _ in range(n_terms):
        a = rng.choice(kind.alcove())
        mu = tuple(rng.randrange(-1, 2) for _ in range(rank))
        if sum(mu) == degree and a + mu in inside:
            coeffs[Arrow(a, mu)] = rng.choice([-3, -2, -1, 1, 2, 3])
    x = ConvolutionElement(kind, coeffs)
    matrix_form(x, degree)
    return x


def _dict_sum(x, y):
    out = dict(x.coeffs)
    for g, c in y.coeffs.items():
        out[g] = out.get(g, 0) + c
    return {g: c for g, c in out.items() if c}


@pytest.mark.parametrize("n, r", [(2, 11), (3, 7)])
def test_matrix_sums_match_dict_sums(n, r):
    kind = ModelKind.rsos(n, r)
    rng = random.Random(n * r)
    for _ in range(20):
        x, y = _homogeneous(rng, kind, 1), _homogeneous(rng, kind, 1)
        for total, want in ((x + y, _dict_sum(x, y)),
                            (x + _scaled(x, -1), {})):
            assert total == ConvolutionElement(kind, want)
            assert total.coeffs == want
        # a sum of two degrees
        z = _homogeneous(rng, kind, 0)
        assert (x + z).coeffs == _dict_sum(x, z)


def test_sums_past_2_63_add_as_exact_python_ints():
    big = _scaled(L11[3], 2 ** 62)
    total = big + big
    assert set(total.coeffs.values()) == {2 ** 63}
    assert total.coeffs == _dict_sum(big, big)


def _count_compose(monkeypatch):
    calls = []
    compose_ = cv._compose
    monkeypatch.setattr(cv, "_compose",
                        lambda *args: calls.append(1) or compose_(*args))
    return calls


def test_sparse_characters_on_large_alcoves_multiply_by_arrow_pairs(
        monkeypatch):
    # chi_V fills 0.2% of the 1,711 x 1,711 matrix at (3, 60)
    chv = character(build_vector_space(ModelKind.rsos(3, 60)))
    calls = _count_compose(monkeypatch)
    square = conv_mul(chv, chv)
    assert calls == [1]  # one pairing pass per product, as for every conv_mul
    assert square == _pairwise_conv_mul(chv, chv)


def test_element_copies_its_coefficients_and_drops_zeros():
    a = POINTS[1]
    given = {Arrow(a, (1, 0)): 2, Arrow(a, (0, 1)): Fraction(1, 2)}
    x = ConvolutionElement(CTX, given)
    given[Arrow(a, (1, 1))] = 5
    del given[Arrow(a, (1, 0))]
    assert x.coeffs == {Arrow(a, (1, 0)): 2, Arrow(a, (0, 1)): Fraction(1, 2)}
    for zero in (0, Fraction(0)):
        y = ConvolutionElement(CTX, {Arrow(a, (1, 0)): zero,
                                     Arrow(a, (0, 1)): 3})
        assert y.coeffs == {Arrow(a, (0, 1)): 3}


def test_conv_mul_drops_cancelled_terms():
    a = WeightPoint.from_level_coordinate(2)
    x = ConvolutionElement(CTX, {Arrow(a, (1, 0)): 1, Arrow(a, (0, 1)): 1})
    y = ConvolutionElement(CTX, {Arrow(a + (1, 0), (0, 1)): 1,
                                 Arrow(a + (0, 1), (1, 0)): -1})
    product = conv_mul(x, y)
    assert Arrow(a, (1, 1)) not in product.coeffs
    assert product.coeffs == {}
    assert product == _pairwise_conv_mul(x, y)


def test_conv_mul_empty_factors():
    empty = ConvolutionElement(CTX, {})
    x = character(build_vector_space(KIND))
    for m, n in ((empty, x), (x, empty), (empty, empty)):
        assert conv_mul(m, n).coeffs == {}
        assert conv_mul(m, n) == _pairwise_conv_mul(m, n)


def test_conv_mul_rejects_mixed_contexts():
    x = character(build_vector_space(KIND))
    y = character(build_vector_space(ModelKind.rsos(2, 6)))
    with pytest.raises(ContextMismatch):
        conv_mul(x, y)


def test_cached_target_leaves_arrow_identity_unchanged():
    a = POINTS[1]
    read = Arrow(a, (1, 0))
    assert read.target == a + (1, 0)
    assert read.target is read.target
    fresh = Arrow(a, (1, 0))
    assert read == fresh
    assert hash(read) == hash(fresh)
    assert repr(read) == repr(fresh)
    assert {fresh: 1}[read] == 1


# the characters suite's draws: 10 graded spaces, then x, y, z per sample
CHARACTER_DRAWS = ([(suites.SPACE_ARROWS, 1, 4)] * 10
                   + [(suites.ELEMENT_TERMS, -3, 4)]
                   * (3 * suites.CHARACTER_SAMPLES))


def test_characters_suite_makes_the_pinned_draws(monkeypatch):
    made = []

    def recorded(rng, kind, table, draws, low, high):
        made.append((draws, low, high))
        return real(rng, kind, table, draws, low, high)

    real = suites._random_arrows
    monkeypatch.setattr(suites, "_random_arrows", recorded)
    cases = characters_suite(RunConfig(n=2, r=5))
    assert made == CHARACTER_DRAWS and all(c.passed for c in cases)


@pytest.mark.parametrize("n,r", [(2, 5), (2, 11), (3, 7), (4, 6), (3, 60)])
def test_arrow_table_draws_the_samples_of_one_arrow_per_draw(n, r):
    # same arrows and values in the same order, same targets and the same
    # rng state after, with at most one table entry per draw made
    kind = ModelKind.rsos(n, r)
    points = kind.alcove()
    for seed in range(10):
        rng, reference, table = random.Random(seed), random.Random(seed), {}
        made = 0
        for draws, low, high in CHARACTER_DRAWS:
            got = suites._random_arrows(rng, kind, table, draws, low, high)
            want = random_arrows(reference, points, n, draws, low, high)
            assert list(got.items()) == list(want.items())
            assert [g.target for g in got] == [g.target for g in want]
            made += draws
            assert len(table) <= made
        assert rng.getstate() == reference.getstate()
