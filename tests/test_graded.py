import gc
import itertools
import random
import weakref

import numpy as np
import pytest

from oracles import aligned
from rsoskit.elliptic import EllipticParams
from rsoskit.errors import ContextMismatch, ShapeMismatch, TooLarge
from rsoskit.graded import (GradedMorphism, GradedSpace, align, composite,
                            dual_space, identity_morphism, tensor_morphism,
                            tensor_space, unit_space, zigzag_residual)
from rsoskit.groupoid import Arrow, WeightPoint, eps, inverse, rsos_alcove
from rsoskit.rsos import ModelKind, build_vector_space

KIND = ModelKind.rsos(2, 5)
PARAMS = EllipticParams.rsos(2, 5, 0.9j)


def vector_space():
    return build_vector_space(KIND)


def _point(l):
    return WeightPoint.from_level_coordinate(l)


def _offsets(S):
    """The first row of each component of S, summed from its dims."""
    return dict(zip(S.dims, itertools.accumulate(S.dims.values(), initial=0)))


def test_tensor_square_dimensions_are_path_counts():
    V = vector_space()
    VV = tensor_space(V, V)
    assert VV.dims[Arrow(_point(1), (2, 0))] == 1      # 1 -> 2 -> 3
    assert VV.dims[Arrow(_point(1), (1, 1))] == 1      # only 1 -> 2 -> 1
    assert VV.dims[Arrow(_point(2), (1, 1))] == 2
    assert Arrow(_point(4), (2, 0)) not in VV.dims     # exits the alcove


def test_tensor_space_over_the_summand_budget_is_refused(monkeypatch):
    import rsoskit.graded as gr
    V = vector_space()
    count = tensor_space(V, V).layout.size.size
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
        assert left.dims[g] == d
        assert right.dims[g] == d
    assert (aligned(left, V) @ aligned(V, left)).max_diff(
        identity_morphism(V)) <= 0
    assert (aligned(right, V) @ aligned(V, right)).max_diff(
        identity_morphism(V)) <= 0


def test_tensor_dimension_matches_bruteforce_factorizations():
    rng = random.Random(2)
    for n, r in ((2, 4), (2, 5), (2, 6), (3, 5), (3, 6)):
        kind = ModelKind.rsos(n, r)
        V = build_vector_space(kind)
        W = _random_space(rng, kind, rsos_alcove(n, r), n)
        VW = tensor_space(V, W)
        for g in VW.dims:
            brute = sum(
                V.dims[alpha] * W.dims[beta]
                for alpha in V.dims for beta in W.dims
                if alpha.source == g.source and beta.source == alpha.target
                and tuple(x + y for x, y in zip(alpha.shift, beta.shift))
                == g.shift)
            assert VW.dims[g] == brute


def test_tensor_associativity_on_dimensions():
    V = vector_space()
    VV = tensor_space(V, V)
    left = tensor_space(VV, V)
    right = tensor_space(V, VV)
    assert {g: d for g, d in left.dims.items()} == {
        g: d for g, d in right.dims.items()}
    # the canonical reassociation is a permutation of matched labels
    for g, m in aligned(left, right).blocks.items():
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
        there, back = align(a, b).index, align(b, a).index
        assert there.keys() == a.dims.keys()
        for g, p in there.items():
            assert np.array_equal(back[g][p], np.arange(a.dims[g]))
        round_trip = aligned(b, a) @ aligned(a, b)
        assert round_trip.max_diff(identity_morphism(a)) <= 0


def test_align_composes_like_its_dense_blocks():
    # the index arrays gather columns on the right and place rows on the
    # left exactly as the dense permutation matrices multiply
    rng = random.Random(3)
    for a, b in _aligned_pairs(vector_space()):
        index, dense = align(a, b).index, aligned(a, b)
        f, h = _random_endo(rng, b), _random_endo(rng, a)
        right, left = f @ dense, dense @ h
        assert set(right.blocks) == set(left.blocks) == set(index)
        for g, p in index.items():
            assert np.array_equal(right.blocks[g], f.blocks[g][:, p])
            placed = np.empty_like(h.blocks[g])
            placed[p] = h.blocks[g]
            assert np.array_equal(left.blocks[g], placed)


def test_align_rejects_unmatched_keys_and_dimensions():
    V = vector_space()
    VV = tensor_space(V, V)
    # same components and dimensions, but atomic keys against product keys
    with pytest.raises(ShapeMismatch):
        align(VV, GradedSpace.from_dims(VV.context, VV.dims))
    g = next(iter(V.dims))
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
        oab, oa, ob = _offsets(AB), _offsets(A), _offsets(B)
        for gamma, summands in _decoded_layout(AB, A, B).items():
            rows = AB.keys[oab[gamma]:oab[gamma] + AB.dims[gamma]]
            for left, right, offset, size in summands:
                ka = A.keys[oa[left]:oa[left] + A.dims[left]]
                kb = B.keys[ob[right]:ob[right] + B.dims[right]]
                want = [list(x) + list(y) for x in ka for y in kb]
                assert rows[offset:offset + size].tolist() == want


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
    assert (ident @ f).max_diff(f) == 0.0
    assert ((f @ g) @ h).max_diff(f @ (g @ h)) < 1e-12
    # a component without a block in one factor has none in the product
    sparse = GradedMorphism(V, V, dict(list(f.blocks.items())[1:]))
    assert set((sparse @ g).blocks) == set(sparse.blocks)


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
    g = next(iter(V.dims))
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
        assert dd.dual.dims[inverse(g)] == V.dims[g]


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
        assert _decoded_layout(cached, X, Y) == _decoded_layout(fresh, X, Y)
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
    chain = (second @ aligned(first.codomain, second.domain)
             @ (first @ aligned(start, first.domain)))
    want = aligned(chain.codomain, end) @ chain
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
    chain = steps[0] @ aligned(start, steps[0].domain)
    chain = steps[1] @ aligned(chain.codomain, steps[1].domain) @ chain
    chain = steps[2] @ aligned(chain.codomain, steps[2].domain) @ chain
    want = aligned(chain.codomain, end) @ chain
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
    g = next(iter(V.dims))
    assert GradedMorphism(V, V, {g: np.zeros((4, 1, 1))})
    for shape in ((4, 1, 2), (4, 2, 1), (2,)):
        with pytest.raises(ShapeMismatch, match=rf"shape \({shape[0]},"):
            GradedMorphism(V, V, {g: np.zeros(shape)})
    # a morphism is no sequence: a plain one has a block for every index
    with pytest.raises(TypeError):
        iter(identity_morphism(V))


# Reference builders: the product and the Kronecker fill summand by summand,
# with an arrow, a shift tuple and a tuple per summand.

def _reference_tensor_space(V, W):
    """(dims, keys, layout) of V (x) W, layout[gamma] listing (alpha, beta,
    offset, size) per summand: components by first appearance over V's
    arrows, each followed by W's arrows from its target; summands within a
    component by (middle point's sort_key, alpha's shift)."""
    by_source, v_at, w_at = {}, _offsets(V), _offsets(W)
    for beta, dw in W.dims.items():
        by_source.setdefault(beta.source, []).append((beta, w_at[beta], dw))
    pieces = {}
    for alpha, dv in V.dims.items():
        mid, vo = alpha.target, v_at[alpha]
        order = (mid.sort_key(), alpha.shift)
        for beta, wo, dw in by_source.get(mid, ()):
            gamma = Arrow(alpha.source, tuple(
                x + y for x, y in zip(alpha.shift, beta.shift)))
            pieces.setdefault(gamma, []).append(
                (order, alpha, beta, vo, dv, wo, dw))
    dims, layout, rows = {}, {}, []
    for gamma, parts in pieces.items():
        parts.sort(key=lambda part: part[0])
        summands, offset = [], 0
        for _, alpha, beta, vo, dv, wo, dw in parts:
            summands.append((alpha, beta, offset, dv * dw))
            rows += [list(V.keys[vo + i]) + list(W.keys[wo + j])
                     for i in range(dv) for j in range(dw)]
            offset += dv * dw
        dims[gamma] = offset
        layout[gamma] = tuple(summands)
    width = V.keys.shape[1] + W.keys.shape[1]
    return dims, np.array(rows, dtype=np.int64).reshape(-1, width), layout


def _decoded_layout(P, V, W):
    """P.layout as {gamma: ((alpha, beta, offset, size), ...)}."""
    gammas, alphas, betas = list(P.dims), list(V.dims), list(W.dims)
    out = {gamma: [] for gamma in gammas}
    lay = P.layout
    for l, r, c, o, s in zip(lay.left.tolist(), lay.right.tolist(),
                             lay.component.tolist(), lay.offset.tolist(),
                             lay.size.tolist()):
        out[gammas[c]].append((alphas[l], betas[r], o, s))
    return {gamma: tuple(summands) for gamma, summands in out.items()}


def _reference_tensor_morphism(f, g):
    """f (x) g by one broadcast multiply per summand pair, over the
    reference layouts."""
    *_, dom = _reference_tensor_space(f.domain, g.domain)
    cod_dims, _, cod = _reference_tensor_space(f.codomain, g.codomain)
    dom_dims = {gamma: sum(s[3] for s in summands)
                for gamma, summands in dom.items()}
    blocks = {}
    for gamma, cod_summands in cod.items():
        if gamma not in dom:
            continue
        dom_offset = {(a, b): o for a, b, o, _ in dom[gamma]}
        m = None
        for left, right, row, _ in cod_summands:
            if (left, right) not in dom_offset:
                continue
            col = dom_offset[left, right]
            fb, gb = f.blocks.get(left), g.blocks.get(right)
            if fb is None or gb is None:
                continue
            if m is None:
                lead = fb.shape[:-2] or gb.shape[:-2]
                m = np.zeros(lead + (cod_dims[gamma], dom_dims[gamma]),
                             dtype=complex)
            (p, q), (s, t) = fb.shape[-2:], gb.shape[-2:]
            view = m[..., row:row + p * s, col:col + q * t]
            np.multiply(fb[..., :, None, :, None], gb[..., None, :, None, :],
                        out=view.reshape(lead + (p, s, q, t)))
        if m is not None:
            blocks[gamma] = m
    return blocks


def _assert_product_matches_reference(V, W):
    P = tensor_space(V, W)
    dims, keys, layout = _reference_tensor_space(V, W)
    assert list(P.dims.items()) == list(dims.items())
    assert P.starts.tolist() == list(_offsets(P).values())
    assert P.keys.dtype == keys.dtype and np.array_equal(P.keys, keys)
    assert _decoded_layout(P, V, W) == layout
    return P


def _assert_tensor_morphism_matches_reference(f, g):
    got = tensor_morphism(f, g)
    want = _reference_tensor_morphism(f, g)
    assert got.blocks.keys() == want.keys()
    for gamma, m in want.items():
        assert got.blocks[gamma].shape == m.shape
        assert np.array_equal(got.blocks[gamma], m)


def _sparse(rng, f, keep=0.6):
    """f with a random part of its blocks dropped."""
    return GradedMorphism(f.domain, f.codomain, {
        g: m for g, m in f.blocks.items() if rng.random() < keep})


@pytest.mark.parametrize("n,r", [(2, 5), (3, 5), (3, 7), (4, 6)])
def test_products_and_kronecker_fills_match_the_reference_bit_for_bit(n, r):
    rng = np.random.default_rng(100 * n + r)
    kind = ModelKind.rsos(n, r)
    V = build_vector_space(kind)
    VV = _assert_product_matches_reference(V, V)
    for X, Y in ((VV, V), (V, VV), (VV, VV)):
        _assert_product_matches_reference(X, Y)
    VVV = tensor_space(V, VV)
    f = _random_morphism(rng, tensor_space(V, VV), tensor_space(VV, V))
    g = _random_morphism(rng, VV, VV, (3,))
    # plain, stacked, plain with stacked, identities, and blocks missing
    for left, right in ((f, identity_morphism(V)),
                        (identity_morphism(VV), g), (f, g), (g, f),
                        (_sparse(np.random.default_rng(r), f), g),
                        (identity_morphism(VVV), _sparse(
                            np.random.default_rng(n), g))):
        _assert_tensor_morphism_matches_reference(left, right)


def test_kronecker_fill_of_the_restricted_r_matches_the_reference():
    from rsoskit.rsos import restricted_r
    kind = ModelKind.rsos(3, 5)
    params = EllipticParams.rsos(3, 5, 0.9j)
    V = build_vector_space(kind)
    R = restricted_r([0.17 + 0.02j, 0.31], kind, params, space=V)
    _assert_tensor_morphism_matches_reference(R, identity_morphism(V))
    _assert_tensor_morphism_matches_reference(identity_morphism(V), R)
    _assert_tensor_morphism_matches_reference(R, R[1])


def test_windowed_products_match_the_reference():
    base = (0.29, 0.11, 0.0)
    kind = ModelKind.sos(base)
    params = EllipticParams.rsos(3, 5, 0.9j)
    window = [WeightPoint(base=base, offset=o) for o in
              ((0, 0, 0), (1, 0, 0), (0, 1, 0), (1, 1, 0), (2, 1, 0))]
    V = build_vector_space(kind, params, window=window)
    VV = _assert_product_matches_reference(V, V)
    _assert_product_matches_reference(VV, V)
    _assert_product_matches_reference(V, VV)
    rng = np.random.default_rng(7)
    _assert_tensor_morphism_matches_reference(
        _random_morphism(rng, VV, VV, (2,)), identity_morphism(V))


@pytest.mark.parametrize("n,r", [(2, 5), (3, 5)])
def test_dual_and_unit_products_match_the_reference(n, r):
    V = build_vector_space(ModelKind.rsos(n, r))
    dd = dual_space(V)
    D, coev, ev = dd.dual, dd.coevaluation, dd.evaluation
    one = coev.domain
    for X, Y in ((V, D), (D, V), (one, V), (V, one), (D, one),
                 (tensor_space(V, D), V), (V, tensor_space(D, V)),
                 (D, tensor_space(V, D)), (tensor_space(D, V), D)):
        _assert_product_matches_reference(X, Y)
    # the whiskers of both zigzag composites
    for left, right in ((coev, V), (V, ev), (D, coev), (ev, D)):
        _assert_tensor_morphism_matches_reference(*(
            identity_morphism(x) if isinstance(x, GradedSpace) else x
            for x in (left, right)))
    # the pairing vectors: a 1 at each e_k (x) e_k^* of a summand (a, a^-1)
    for P, left, m in ((coev.codomain, V, coev), (ev.domain, D, ev)):
        *_, layout = _reference_tensor_space(*(
            (V, D) if m is coev else (D, V)))
        for gamma, block in m.blocks.items():
            want = np.zeros(P.dims[gamma], dtype=complex)
            for a, b, o, s in layout[gamma]:
                if b == inverse(a):
                    want[o:o + s:left.dims[a] + 1] = 1.0
            assert np.array_equal(block.ravel(), want)


def test_random_space_products_match_the_reference():
    # characters-style spaces: shifts in {-1, 0, 1}^n, not unit steps
    rng = random.Random(23)
    for n, r in ((2, 11), (3, 6)):
        kind = ModelKind.rsos(n, r)
        points = rsos_alcove(n, r)
        for _ in range(6):
            A = _random_space(rng, kind, points, n, n_arrows=12)
            B = _random_space(rng, kind, points, n, n_arrows=12)
            _assert_product_matches_reference(A, B)
            _assert_product_matches_reference(tensor_space(A, B), A)
            nrng = np.random.default_rng(rng.randrange(1000))
            _assert_tensor_morphism_matches_reference(
                _random_morphism(nrng, A, A), _random_morphism(nrng, B, B, (2,)))


@pytest.mark.parametrize("n,r", [(2, 5), (3, 5)])
def test_tensor_morphism_on_a_domain_is_the_aligned_product(n, r):
    # f (x) g written on another bracketing of its domain equals the product
    # entered through the alignment, bit for bit
    rng = np.random.default_rng(10 * n + r + 3)
    V = build_vector_space(ModelKind.rsos(n, r))
    VV = tensor_space(V, V)
    f = _random_morphism(rng, VV, VV, (2,))
    for g in (identity_morphism(V), _random_morphism(rng, V, V)):
        for X in (tensor_space(V, VV), tensor_space(VV, V)):
            want = tensor_morphism(f, g)
            want = want @ aligned(X, want.domain)
            _assert_same_morphism(tensor_morphism(f, g, domain=X), want)
    with pytest.raises(ShapeMismatch):
        tensor_morphism(f, identity_morphism(V), domain=VV)


# Every space carries its components as read-only arrays in `dims` order.

def _assert_component_arrays(S):
    n = S.context.rank
    shifts = np.array([g.shift for g in S.dims], dtype=np.int64).reshape(-1, n)
    sizes, starts, k = [], [], 0
    for d in S.dims.values():
        sizes.append(d)
        starts.append(k)
        k += d
    for got, want in ((S.shifts, shifts), (S.sizes, sizes),
                      (S.starts, starts)):
        assert got.dtype == np.int64
        assert np.array_equal(got, np.array(want, dtype=np.int64).reshape(
            got.shape)) and len(got) == len(S.dims)
        assert not got.flags.writeable
        with pytest.raises(ValueError):
            got[...] = 0


def test_component_arrays_of_every_kind_of_space():
    from rsoskit.suites import _random_graded_space
    V = vector_space()
    dual = dual_space(vector_space()).dual
    g1, g2 = Arrow(_point(1), (1, 0)), Arrow(_point(4), (0, 1))
    spaces = [GradedSpace.from_dims(KIND, {g1: 2, g2: 3}),
              GradedSpace.from_dims(KIND, {}),
              unit_space(KIND, V.objects()), unit_space(KIND, []), V, dual,
              tensor_space(dual, V), tensor_space(V, dual),
              # no arrow of the second starts where one of the first ends
              tensor_space(GradedSpace.from_dims(KIND, {g1: 2}),
                           GradedSpace.from_dims(KIND, {g1: 1}))]
    assert not spaces[-1].dims
    for n, r in ((2, 5), (3, 7)):
        W = build_vector_space(ModelKind.rsos(n, r))
        WW = tensor_space(W, W)
        spaces += [W, WW, tensor_space(WW, W), tensor_space(W, WW)]
    base = (0.29, 0.11, 0.0)
    window = [WeightPoint(base=base, offset=o) for o in
              ((0, 0, 0), (1, 0, 0), (0, 1, 0), (1, 1, 0), (2, 1, 0))]
    S = build_vector_space(ModelKind.sos(base),
                           EllipticParams.rsos(3, 5, 0.9j), window=window)
    spaces += [S, tensor_space(S, S), tensor_space(tensor_space(S, S), S)]
    rng = random.Random(29)
    for n, r in ((2, 11), (3, 6)):
        kind, table = ModelKind.rsos(n, r), {}
        for _ in range(3):
            A = _random_graded_space(rng, kind, table)
            B = _random_graded_space(rng, kind, table)
            spaces += [A, B, tensor_space(A, B)]
    for S in spaces:
        _assert_component_arrays(S)


def _reference_alignment(src, dst):
    """align(src, dst)'s index arrays and columns, a slice of the matched
    basis vectors per component."""
    slot = {g: k for k, g in enumerate(dst.dims)}
    sides = []
    for space in (src, dst):
        tags = np.repeat([slot[g] for g in space.dims],
                         list(space.dims.values()))
        tagged = np.column_stack((tags, space.keys))
        order = np.lexsort(tagged.T[::-1])
        sides.append(order)
    to_dst = np.empty_like(sides[0])
    to_dst[sides[0]] = sides[1]
    src_at, dst_at = _offsets(src), _offsets(dst)
    index = {g: to_dst[src_at[g]:src_at[g] + d] - dst_at[g]
             for g, d in src.dims.items()}
    columns = np.empty_like(to_dst)
    columns[to_dst] = np.concatenate(
        [np.arange(d) for d in src.dims.values()] or [np.zeros(0, int)])
    return index, columns


@pytest.mark.parametrize("n,r", [(2, 5), (3, 5), (3, 7)])
def test_alignment_equals_the_per_component_reference(n, r):
    V = build_vector_space(ModelKind.rsos(n, r))
    dd = dual_space(V)
    D, one = dd.dual, dd.coevaluation.domain
    pairs = _aligned_pairs(V) + [
        (tensor_space(tensor_space(V, D), V), tensor_space(V, tensor_space(D, V))),
        (tensor_space(D, one), D), (tensor_space(one, D), D)]
    for a, b in pairs + [(b, a) for a, b in pairs]:
        perm = align(a, b)
        index, columns = _reference_alignment(a, b)
        assert list(perm.index) == list(index)
        for g, p in index.items():
            got = perm.index[g]
            assert np.array_equal(got, p) and not got.flags.writeable
        # the index arrays are views of one array
        assert len({id(p.base) for p in perm.index.values()}) <= 1
        assert np.array_equal(perm.columns, columns)
        assert not perm.columns.flags.writeable
