import gc
import random
import weakref

import numpy as np
import pytest

from rsoskit.elliptic import EllipticParams
from rsoskit.errors import ContextMismatch, ShapeMismatch, TooLarge
from rsoskit.graded import (GradedMorphism, GradedSpace, Permutation, align,
                            composite, dual_space, identity_morphism,
                            tensor_morphism, tensor_space, unit_space,
                            zigzag_residual)
from rsoskit.groupoid import Arrow, WeightPoint, eps, inverse, rsos_alcove
from rsoskit.rsos import ModelKind, build_vector_space

KIND = ModelKind.rsos(2, 5)
PARAMS = EllipticParams.rsos(2, 5, 0.9j)


def vector_space():
    return build_vector_space(KIND)


def _point(l):
    return WeightPoint.from_level_coordinate(l)


def test_tensor_square_dimensions_are_path_counts():
    V = vector_space()
    VV = tensor_space(V, V)
    assert VV.dim(Arrow(_point(1), (2, 0))) == 1      # 1 -> 2 -> 3
    assert VV.dim(Arrow(_point(1), (1, 1))) == 1      # only 1 -> 2 -> 1
    assert VV.dim(Arrow(_point(2), (1, 1))) == 2
    assert VV.dim(Arrow(_point(4), (2, 0))) == 0      # exits the alcove


def test_tensor_space_over_the_summand_budget_is_refused(monkeypatch):
    import rsoskit.graded as gr
    V = vector_space()
    count = sum(len(s) for s in tensor_space(V, V).layout.values())
    W = vector_space()  # a fresh operand: the product above is kept on V
    monkeypatch.setattr(gr, "SUMMAND_BUDGET", count - 1)
    with pytest.raises(TooLarge, match=f"SUMMAND_BUDGET: {count} .* "
                                       f"limit {count - 1}"):
        tensor_space(W, W)
    monkeypatch.setattr(gr, "SUMMAND_BUDGET", count)
    assert tensor_space(W, W).dims == tensor_space(V, V).dims


def test_tensor_with_unit_preserves_dimensions():
    V = vector_space()
    one = unit_space(V.context, V.objects())
    left = tensor_space(one, V)
    right = tensor_space(V, one)
    for g, d in V.dims.items():
        assert left.dim(g) == d
        assert right.dim(g) == d
    assert (align(left, V) @ align(V, left)).max_diff(identity_morphism(V)) <= 0
    assert (align(right, V) @ align(V, right)).max_diff(identity_morphism(V)) <= 0


def test_tensor_dimension_matches_bruteforce_factorizations():
    rng = random.Random(2)
    for n, r in ((2, 4), (2, 5), (2, 6), (3, 5), (3, 6)):
        kind = ModelKind.rsos(n, r)
        V = build_vector_space(kind)
        W = _random_space(rng, kind, rsos_alcove(n, r), n)
        VW = tensor_space(V, W)
        for g in VW.arrows:
            brute = sum(
                V.dims[alpha] * W.dims[beta]
                for alpha in V.dims for beta in W.dims
                if alpha.source == g.source and beta.source == alpha.target
                and tuple(x + y for x, y in zip(alpha.shift, beta.shift))
                == g.shift)
            assert VW.dim(g) == brute


def test_tensor_associativity_on_dimensions():
    V = vector_space()
    VV = tensor_space(V, V)
    left = tensor_space(VV, V)
    right = tensor_space(V, VV)
    assert {g: d for g, d in left.dims.items()} == {
        g: d for g, d in right.dims.items()}
    # the canonical reassociation is a permutation of matched labels
    perm = align(left, right)
    for g, m in perm.blocks.items():
        assert np.array_equal(m @ m.conj().T, np.eye(m.shape[0]))


def _aligned_pairs(V):
    """Spaces equal up to reassociation or a unit factor."""
    one = unit_space(V.context, V.objects())
    VV = tensor_space(V, V)
    return [(tensor_space(VV, V), tensor_space(V, VV)),
            (tensor_space(one, V), V), (tensor_space(V, one), V)]


@pytest.mark.parametrize("n,r", [(2, 5), (3, 5)])
def test_align_round_trip_is_exact_identity(n, r):
    for a, b in _aligned_pairs(build_vector_space(ModelKind.rsos(n, r))):
        there, back = align(a, b), align(b, a)
        round_trip = back @ there
        assert isinstance(round_trip, Permutation)
        for g, p in round_trip.index.items():
            assert np.array_equal(p, np.arange(a.dims[g]))
        assert round_trip.max_diff(identity_morphism(a)) <= 0


def test_align_composes_like_its_dense_blocks():
    rng = random.Random(3)
    for a, b in _aligned_pairs(vector_space()):
        perm = align(a, b)
        dense = GradedMorphism(a, b, perm.blocks)
        f, h = _random_endo(rng, b), _random_endo(rng, a)
        for got, want in ((f @ perm, f @ dense), (perm @ h, dense @ h)):
            assert set(got.blocks) == set(want.blocks)
            for g, m in want.blocks.items():
                assert np.array_equal(got.blocks[g], m)


def test_align_rejects_unmatched_keys_and_dimensions():
    V = vector_space()
    VV = tensor_space(V, V)
    # same components and dimensions, but atomic keys against product keys
    with pytest.raises(ShapeMismatch):
        align(VV, GradedSpace.from_dims(VV.context, VV.dims))
    g = V.arrows[0]
    with pytest.raises(ShapeMismatch):
        align(GradedSpace.from_dims(V.context, {g: 1}),
              GradedSpace.from_dims(V.context, {g: 2}))


def _random_space(rng, ctx, points, n, n_arrows=4):
    inside = set(points)
    dims = {}
    for _ in range(n_arrows):
        a = rng.choice(points)
        mu = tuple(rng.randrange(-1, 2) for _ in range(n))
        if (a + mu) in inside:
            dims[Arrow(a, mu)] = rng.randrange(1, 3)
    if not dims:
        dims[Arrow(points[0], (0,) * n)] = 2
    return GradedSpace.from_dims(ctx, dims)


def _random_endo(rng, V):
    blocks = {}
    for g, d in V.dims.items():
        blocks[g] = np.array([[complex(rng.gauss(0, 1), rng.gauss(0, 1))
                               for _ in range(d)] for _ in range(d)])
    return GradedMorphism(V, V, blocks)


def test_tensor_keys_concatenate_factor_keys():
    rng = random.Random(11)
    points = rsos_alcove(2, 5)
    for _ in range(5):
        A = _random_space(rng, KIND, points, 2)
        B = _random_space(rng, KIND, points, 2)
        AB = tensor_space(A, B)
        for gamma, summands in AB.layout.items():
            rows = AB.keys[AB.offsets[gamma]:AB.offsets[gamma] + AB.dims[gamma]]
            for s in summands:
                ka = A.keys[A.offsets[s.left]:A.offsets[s.left] + A.dims[s.left]]
                kb = B.keys[B.offsets[s.right]:B.offsets[s.right] + B.dims[s.right]]
                want = [list(x) + list(y) for x in ka for y in kb]
                assert rows[s.offset:s.offset + s.size].tolist() == want


def test_tensor_morphism_functorial():
    rng = random.Random(8)
    points = rsos_alcove(2, 5)
    ctx = KIND
    V = _random_space(rng, ctx, points, 2)
    W = _random_space(rng, ctx, points, 2)
    f, f2 = _random_endo(rng, V), _random_endo(rng, V)
    g, g2 = _random_endo(rng, W), _random_endo(rng, W)
    lhs = tensor_morphism(f @ f2, g @ g2)
    rhs = tensor_morphism(f, g) @ tensor_morphism(f2, g2)
    assert lhs.max_diff(rhs) < 1e-12


def test_tensor_of_identities_is_identity():
    V = vector_space()
    VV = tensor_space(V, V)
    t = tensor_morphism(identity_morphism(V), identity_morphism(V))
    assert t.max_diff(identity_morphism(VV)) == 0.0


def test_tensor_of_single_arrow_morphisms_is_kronecker():
    ctx = KIND
    a = _point(2)
    g1 = Arrow(a, eps(2, 1))
    g2 = Arrow(a + eps(2, 1), eps(2, 2))
    V = GradedSpace.from_dims(ctx, {g1: 2})
    W = GradedSpace.from_dims(ctx, {g2: 3})
    rng = random.Random(1)
    f = _random_endo(rng, V)
    g = _random_endo(rng, W)
    t = tensor_morphism(f, g)
    total = Arrow(a, (1, 1))
    assert np.abs(t.block(total) - np.kron(f.block(g1), g.block(g2))).max() == 0


def test_morphism_algebra_laws():
    rng = random.Random(4)
    V = _random_space(rng, KIND, rsos_alcove(2, 5), 2)
    f, g, h = (_random_endo(rng, V) for _ in range(3))
    ident = identity_morphism(V)
    assert (f @ ident).max_diff(f) == 0.0
    assert ((f + g) @ h).max_diff(f @ h + g @ h) < 1e-12
    assert (2.0 * f).max_diff(f + f) < 1e-14


def test_compose_of_inverse_pair_is_identity():
    rng = random.Random(9)
    V = _random_space(rng, KIND, rsos_alcove(2, 5), 2)
    f = _random_endo(rng, V)
    inv_blocks = {g: np.linalg.inv(m + 2 * np.eye(m.shape[0]))
                  for g, m in f.blocks.items()}
    shifted = GradedMorphism(V, V, {g: m + 2 * np.eye(m.shape[0])
                                    for g, m in f.blocks.items()})
    finv = GradedMorphism(V, V, inv_blocks)
    assert (shifted @ finv).max_diff(identity_morphism(V)) < 1e-12


def test_shape_mismatch_detected():
    V = vector_space()
    g = V.arrows[0]
    with pytest.raises(ShapeMismatch):
        GradedMorphism(V, V, {g: np.zeros((2, 2))})


def test_context_mismatch_detected():
    V = vector_space()
    W = build_vector_space(ModelKind.rsos(2, 4))
    with pytest.raises(ContextMismatch):
        tensor_space(V, W)


def test_dual_space_components_are_inverted_arrows():
    V = vector_space()
    dd = dual_space(V)
    assert set(dd.dual.dims) == {inverse(g) for g in V.dims}
    for g in V.dims:
        assert dd.dual.dim(inverse(g)) == V.dims[g]


def test_unit_is_self_dual():
    one = unit_space(KIND, rsos_alcove(2, 5))
    dd = dual_space(one)
    assert dd.dual.dims == one.dims


def test_zigzag_identities():
    assert zigzag_residual(vector_space()) < 1e-12
    rng = random.Random(6)
    W = _random_space(rng, KIND, rsos_alcove(2, 5), 2)
    assert zigzag_residual(W) < 1e-12


def _fresh(space):
    """An equal space that shares no cache with `space`."""
    return GradedSpace(space.context, dict(space.dims), space.keys.copy(),
                       space.layout)


def test_tensor_space_is_built_once_and_equals_a_fresh_build():
    V = vector_space()
    VV = tensor_space(V, V)
    assert tensor_space(V, V) is VV
    for X, Y in ((V, V), (VV, V), (V, VV)):
        cached, fresh = tensor_space(X, Y), tensor_space(_fresh(X), _fresh(Y))
        assert fresh is not cached
        assert cached.dims == fresh.dims
        assert cached.layout == fresh.layout
        assert np.array_equal(cached.keys, fresh.keys)
        assert not cached.keys.flags.writeable


def test_cached_alignment_equals_a_fresh_one():
    for a, b in _aligned_pairs(vector_space()):
        first, again = align(a, b), align(a, b)
        fresh = align(_fresh(a), _fresh(b))
        assert set(again.index) == set(fresh.index)
        for g, p in fresh.index.items():
            assert again.index[g] is first.index[g]
            assert np.array_equal(again.index[g], p)
            assert not again.index[g].flags.writeable


def test_alignment_errors_are_raised_on_every_call():
    V = vector_space()
    VV = tensor_space(V, V)
    atomic = GradedSpace.from_dims(VV.context, VV.dims)
    for _ in range(2):
        with pytest.raises(ShapeMismatch):
            align(VV, atomic)


def test_cached_products_die_with_their_operands():
    V, W = vector_space(), vector_space()
    product = weakref.ref(tensor_space(V, W))
    square = weakref.ref(tensor_space(V, V))
    align(tensor_space(tensor_space(V, W), V), tensor_space(V, tensor_space(W, V)))
    assert product() is not None and square() is not None
    del W
    gc.collect()
    assert product() is None
    assert square() is not None
    del V
    gc.collect()
    assert square() is None


@pytest.mark.parametrize("p,q", [(1, 1), (1, 3), (2, 2), (3, 1), (2, 4), (3, 4)])
def test_broadcast_fill_is_bitwise_kronecker(p, q):
    rng = np.random.default_rng(10 * p + q)
    ctx = KIND
    a = _point(2)
    g1, g2 = Arrow(a, eps(2, 1)), Arrow(a + eps(2, 1), eps(2, 2))
    V, V2 = (GradedSpace.from_dims(ctx, {g1: d}) for d in (q, p))
    W, W2 = (GradedSpace.from_dims(ctx, {g2: d}) for d in (p, q))
    fb = rng.normal(size=(p, q)) + 1j * rng.normal(size=(p, q))
    gb = rng.normal(size=(q, p)) + 1j * rng.normal(size=(q, p))
    t = tensor_morphism(GradedMorphism(V, V2, {g1: fb}),
                        GradedMorphism(W, W2, {g2: gb}))
    assert np.array_equal(t.block(Arrow(a, (1, 1))), np.kron(fb, gb))


def _random_morphism(rng, dom, cod, lead=()):
    """Random complex blocks at every arrow of dom that cod also has, stacked
    in the shape `lead`."""
    shapes = {g: lead + (cod.dims[g], d)
              for g, d in dom.dims.items() if g in cod.dims}
    return GradedMorphism(dom, cod, {
        g: rng.normal(size=shape) + 1j * rng.normal(size=shape)
        for g, shape in shapes.items()})


def _assert_same_morphism(got, want):
    assert got.domain is want.domain and got.codomain is want.codomain
    assert got.blocks.keys() == want.blocks.keys()
    for g, m in want.blocks.items():
        assert np.array_equal(got.blocks[g], m)


@pytest.mark.parametrize("n,r", [(2, 5), (3, 5)])
def test_composite_of_a_crossing_equals_the_hand_written_chain(n, r):
    # V crossing W then Z: V (x) (W (x) Z) -> (W (x) Z) (x) V
    rng = np.random.default_rng(10 * n + r)
    V = build_vector_space(ModelKind.rsos(n, r))
    W, Z = tensor_space(V, V), V
    f = _random_morphism(rng, tensor_space(V, W), tensor_space(W, V))
    g = _random_morphism(rng, tensor_space(V, Z), tensor_space(Z, V))
    first = tensor_morphism(f, identity_morphism(Z))
    second = tensor_morphism(identity_morphism(W), g)
    start = tensor_space(V, tensor_space(W, Z))
    end = tensor_space(tensor_space(W, Z), V)
    chain = (second @ align(first.codomain, second.domain)
             @ (first @ align(start, first.domain)))
    want = align(chain.codomain, end) @ chain
    _assert_same_morphism(composite(start, (f, Z), (W, g), end=end), want)


@pytest.mark.parametrize("n,r", [(2, 5), (3, 5)])
def test_composite_of_an_rll_side_equals_the_hand_written_chain(n, r):
    # L(w)^(23), L(z)^(12), R^(23) on (V (x) V) (x) W
    rng = np.random.default_rng(10 * n + r + 1)
    V = build_vector_space(ModelKind.rsos(n, r))
    VV = tensor_space(V, V)
    W = tensor_space(VV, V)
    lz, lw = (_random_morphism(rng, tensor_space(V, W), tensor_space(W, V))
              for _ in range(2))
    rm = _random_morphism(rng, VV, VV)
    steps = (tensor_morphism(identity_morphism(V), lw),
             tensor_morphism(lz, identity_morphism(V)),
             tensor_morphism(identity_morphism(W), rm))
    start, end = tensor_space(VV, W), tensor_space(W, VV)
    chain = steps[0] @ align(start, steps[0].domain)
    chain = steps[1] @ align(chain.codomain, steps[1].domain) @ chain
    chain = steps[2] @ align(chain.codomain, steps[2].domain) @ chain
    want = align(chain.codomain, end) @ chain
    got = composite(start, (V, lw), (lz, V), (W, rm), end=end)
    _assert_same_morphism(got, want)


def test_composite_refuses_a_step_on_other_factors():
    V = vector_space()
    VV = tensor_space(V, V)
    with pytest.raises(ShapeMismatch):
        composite(VV, (V, VV), end=tensor_space(V, VV))


@pytest.mark.parametrize("n,r", [(2, 5), (3, 5)])
def test_stacked_blocks_act_point_by_point_bit_for_bit(n, r):
    # morphisms stacked over three spectral parameters: a crossing composite
    # (Kronecker products with plain identities, alignments on both sides,
    # dense products) and products with a plain morphism equal, at each
    # point, the ones of that point's morphisms
    rng = np.random.default_rng(10 * n + r + 2)
    V = build_vector_space(ModelKind.rsos(n, r))
    W = tensor_space(V, V)
    f = _random_morphism(rng, tensor_space(V, W), tensor_space(W, V), (3,))
    g = _random_morphism(rng, tensor_space(V, V), tensor_space(V, V), (3,))
    plain = _random_morphism(rng, g.codomain, g.domain)
    start = tensor_space(V, tensor_space(W, V))
    end = tensor_space(tensor_space(W, V), V)

    def crossing(f, g):
        return composite(start, (f, V), (W, g), end=end)

    stacked, products = crossing(f, g), (plain @ g @ plain)
    for k in range(3):
        _assert_same_morphism(stacked[k], crossing(f[k], g[k]))
        _assert_same_morphism(products[k], plain @ g[k] @ plain)
    # a slice keeps a stack; a plain block serves every index
    _assert_same_morphism(f[1:][1], f[2])
    assert all(plain[2].blocks[g] is m for g, m in plain.blocks.items())


def test_stacked_shapes_are_checked_on_the_trailing_axes():
    V = vector_space()
    g = V.arrows[0]
    assert GradedMorphism(V, V, {g: np.zeros((4, 1, 1))})
    for shape in ((4, 1, 2), (4, 2, 1), (2,)):
        with pytest.raises(ShapeMismatch, match=rf"shape \({shape[0]},"):
            GradedMorphism(V, V, {g: np.zeros(shape)})
    # a morphism is no sequence: a plain one has a block for every index
    with pytest.raises(TypeError):
        iter(identity_morphism(V))
    P = align(V, V)
    assert P[5] is P
