import functools
import itertools
import math
import random
import tracemalloc

import numpy as np
import pytest

from oracles import aligned, l_tensor, trivial_l_operator, vector_l_operator
from rsoskit import elliptic, rsos, suites, transfer
from rsoskit.convolution import (DifferenceOperator, character,
                                 to_difference_operator)
from rsoskit.elliptic import EllipticParams, r_matrix
from rsoskit.errors import (InvalidConfig, RestrictionViolated, ShapeMismatch,
                            TooLarge)
from rsoskit.graded import (GradedMorphism, identity_morphism,
                            tensor_morphism, tensor_space, unit_space)
from rsoskit.groupoid import Arrow, WeightPoint, eps, rsos_alcove
from rsoskit.rsos import ModelKind, build_vector_space
from rsoskit.transfer import (LOperator, _closed_rows, _row_transfer_matrix,
                              commutator_residual, loop_sectors,
                              partial_trace, partition_enumerate,
                              partition_via_transfer, rll_residual,
                              transfer_matrix, vector_chain)

TAU = 0.9j
KIND = ModelKind.rsos(2, 5)
PARAMS = EllipticParams.rsos(2, 5, TAU)
POINTS = rsos_alcove(2, 5)


def test_trace_of_trivial_quantum_rep_is_vector_character():
    # quantum space = tensor unit: the trace reproduces dim V_(a,eps_i)
    L = trivial_l_operator(KIND, PARAMS)
    [T] = transfer_matrix([0.23], L)
    chv = character(build_vector_space(KIND))
    adjacency = to_difference_operator(chv, POINTS).matrix()
    assert np.abs(T.matrix() - adjacency).max() < 1e-14
    # the same difference operator: one-dimensional fibres on the support
    assert set(T.dims.values()) == {1}
    assert set(T.blocks) == set(chv.support)


def test_partial_trace_rejects_a_reassociated_bracketing():
    V = build_vector_space(KIND)
    V2 = tensor_space(V, V)
    W = vector_chain(KIND, PARAMS, (0.0, 0.3)).quantum
    f = _random_rw_morphism(random.Random(3), V2, W)
    assert partial_trace(f, V2, W)
    # the same map read from V (x) (V (x) W) instead of (V (x) V) (x) W
    moved = f @ aligned(tensor_space(V, tensor_space(V, W)), f.domain)
    with pytest.raises(ShapeMismatch,
                       match=r"tensor_space\(aux, quantum\) to "
                             r"tensor_space\(quantum, aux\)"):
        partial_trace(moved, V2, W)


def test_trivial_auxiliary_gives_characteristic_function():
    # auxiliary = tensor unit over a chain: the trace is multiplication
    # by the characteristic function of the alcove
    W = vector_chain(KIND, PARAMS, (0.0, 0.3)).quantum
    one = unit_space(W.context, POINTS)
    taut = aligned(tensor_space(one, W), tensor_space(W, one))
    traced = partial_trace(taut, one, W)
    [T] = transfer_matrix(
        [0.0], LOperator(aux=one, quantum=W, at=lambda zs: taut, params=PARAMS))
    m = T.matrix()
    assert np.abs(m - np.eye(m.shape[0])).max() < 1e-14
    assert set(traced) == {Arrow(a, (0, 0)) for a in POINTS}


def test_partial_trace_scales_with_block_scalar():
    rng = random.Random(1)
    lam = complex(rng.gauss(0, 1), rng.gauss(0, 1))
    L = trivial_l_operator(KIND, PARAMS)
    f = L.at([0.0])
    f = GradedMorphism(f.domain, f.codomain,
                       {g: lam * m for g, m in f.blocks.items()})
    traced = partial_trace(f, L.aux, L.quantum)
    for arrow, block in traced.items():
        assert abs(block[0, 0] - lam) < 1e-14


def _random_rw_morphism(rng, V, W):
    """Random graded morphism V (x) W -> W (x) V."""
    dom = tensor_space(V, W)
    cod = tensor_space(W, V)
    blocks = {}
    for g in dom.dims:
        dc, dd = cod.dims.get(g, 0), dom.dims.get(g, 0)
        if dc and dd:
            blocks[g] = np.array([[complex(rng.gauss(0, 1), rng.gauss(0, 1))
                                   for _ in range(dd)] for _ in range(dc)])
    return GradedMorphism(dom, cod, blocks)


def _global_matrix(traced, quantum, points):
    dims = dict(zip(points, loop_sectors(quantum).dims.tolist()))
    return DifferenceOperator(tuple(points), dims, traced).matrix(complex)


def test_partial_trace_multiplicative():
    # tr_{V1 (x) V2}(f1^(12) f2^(23)) = tr_V1 f1 * tr_V2 f2
    rng = random.Random(7)
    V = build_vector_space(KIND)
    W = vector_chain(KIND, PARAMS, (0.0, 0.3)).quantum
    f1 = _random_rw_morphism(rng, V, W)
    f2 = _random_rw_morphism(rng, V, W)
    inner = tensor_morphism(identity_morphism(V), f2)
    outer = tensor_morphism(f1, identity_morphism(V))
    comp = outer @ aligned(inner.codomain, outer.domain) @ inner
    V2 = tensor_space(V, V)
    composite = aligned(comp.codomain, tensor_space(W, V2)) @ comp @ aligned(
        tensor_space(V2, W), comp.domain)
    lhs = _global_matrix(partial_trace(composite, V2, W), W, POINTS)
    m1 = _global_matrix(partial_trace(f1, V, W), W, POINTS)
    m2 = _global_matrix(partial_trace(f2, V, W), W, POINTS)
    assert np.abs(lhs - m1 @ m2).max() < 1e-12


def _loops(W, a):
    return sorted((g for g in W.dims if g.source == a and g.is_loop),
                  key=lambda g: g.shift)


def _summand_offset(P, V, W, total, left, right):
    """First row, in the component of P = V (x) W at `total`, of the summand
    V_left (x) W_right, found by a scan of P's layout."""
    lay, gammas = P.layout, list(P.dims)
    alphas, betas = list(V.dims), list(W.dims)
    return next(o for c, l, r, o in zip(lay.component, lay.left, lay.right,
                                        lay.offset)
                if (gammas[c], alphas[l], betas[r]) == (total, left, right))


def _partial_trace_oracle(f, aux, quantum):
    """tr over aux summed entry by entry: sum_v f[(p, v), (v, q)]."""
    g = aligned(f.codomain, tensor_space(quantum, aux)) @ f @ aligned(
        tensor_space(aux, quantum), f.domain)
    out = {}
    for alpha, d_aux in aux.dims.items():
        rows, cols = _loops(quantum, alpha.source), _loops(quantum, alpha.target)
        if not rows or not cols:
            continue
        block = np.zeros((sum(quantum.dims[l] for l in rows),
                          sum(quantum.dims[l] for l in cols)), dtype=complex)
        r0 = 0
        for lsrc in rows:
            c0 = 0
            for ltgt in cols:
                if ltgt.shift == lsrc.shift:
                    total = Arrow(alpha.source, tuple(
                        x + y for x, y in zip(alpha.shift, lsrc.shift)))
                    ds = _summand_offset(g.domain, aux, quantum, total,
                                         alpha, ltgt)
                    cs = _summand_offset(g.codomain, quantum, aux, total,
                                         lsrc, alpha)
                    m, d_in = g.block(total), quantum.dims[ltgt]
                    for p in range(quantum.dims[lsrc]):
                        for q in range(d_in):
                            block[r0 + p, c0 + q] = sum(
                                m[cs + p * d_aux + v, ds + v * d_in + q]
                                for v in range(d_aux))
                c0 += quantum.dims[ltgt]
            r0 += quantum.dims[lsrc]
        out[alpha] = block
    return out


def _assert_partial_trace_matches_oracle(f, aux, W):
    """partial_trace(f, aux, W) against the entrywise oracle; returns the
    oracle's blocks."""
    got, want = partial_trace(f, aux, W), _partial_trace_oracle(f, aux, W)
    assert set(got) == set(want)
    tol = 8 * np.finfo(float).eps
    for alpha, blk in want.items():
        assert np.abs(got[alpha] - blk).max() <= tol * max(1.0, np.abs(blk).max())
    return want


def test_partial_trace_matches_entrywise_oracle_with_wide_aux():
    rng = random.Random(5)
    V = build_vector_space(KIND)
    aux = tensor_space(V, V)
    assert max(aux.dims.values()) > 1
    W = vector_chain(KIND, PARAMS, (0.0, 0.3)).quantum
    want = _assert_partial_trace_matches_oracle(
        _random_rw_morphism(rng, aux, W), aux, W)
    assert any(aux.dims[alpha] > 1 and blk.any() for alpha, blk in want.items())


def _sos_space():
    """V over the windowed sos model of base (0.29, 0), seven points."""
    base = (0.29, 0.0)
    window = [WeightPoint(base=base, offset=(k, 0)) for k in range(-3, 4)]
    return build_vector_space(ModelKind.sos(base), PARAMS, window=window)


def test_partial_trace_matches_entrywise_oracle_on_a_windowed_sos_space():
    V = _sos_space()
    W = tensor_space(V, V)
    want = _assert_partial_trace_matches_oracle(
        _random_rw_morphism(random.Random(11), V, W), V, W)
    assert any(blk.any() for blk in want.values())


def test_partial_trace_stacks_over_the_leading_shape_of_every_block():
    # a plain first block beside stacked ones (the convention of `graded`):
    # the trace is stacked like the stacked blocks
    L = vector_chain(KIND, PARAMS, (0.0, 0.3))
    f = L.at([0.2, 0.4])
    first = next(iter(f.blocks))
    mixed = GradedMorphism(f.domain, f.codomain,
                           {**f.blocks, first: f.blocks[first][0]})
    got = partial_trace(mixed, L.aux, L.quantum)
    for k in range(2):
        want = partial_trace(mixed[k], L.aux, L.quantum)
        assert set(got) == set(want)
        for alpha, blk in want.items():
            assert got[alpha].shape == (2,) + blk.shape
            assert np.array_equal(got[alpha][k], blk)


def test_partial_trace_conjugation_invariant():
    rng = random.Random(9)
    V = build_vector_space(KIND)
    W = vector_chain(KIND, PARAMS, (0.0, 0.3)).quantum
    f = _random_rw_morphism(rng, V, W)
    phi_blocks = {g: np.array([[complex(rng.gauss(0, 1), rng.gauss(0, 1))
                                + (2.0 if i == j else 0.0)
                                for j in range(d)] for i in range(d)])
                  for g, d in V.dims.items()}
    phi = GradedMorphism(V, V, phi_blocks)
    phi_inv = GradedMorphism(V, V, {g: np.linalg.inv(m)
                                    for g, m in phi_blocks.items()})
    left = tensor_morphism(identity_morphism(W), phi)
    right = tensor_morphism(phi_inv, identity_morphism(W))
    conjugated = left @ f @ right
    lhs = _global_matrix(partial_trace(conjugated, V, W), W, POINTS)
    rhs = _global_matrix(partial_trace(f, V, W), W, POINTS)
    assert np.abs(lhs - rhs).max() < 1e-10


def test_l_operator_of_vector_rep_is_shifted_r():
    L = vector_l_operator(KIND, PARAMS, u=0.3)
    from rsoskit.rsos import restricted_r
    assert L.at([0.2]).max_diff(restricted_r([0.5], KIND, PARAMS)) < 1e-14


def test_l_tensor_with_trivial_rep_is_unit_isomorphic():
    Lv = vector_l_operator(KIND, PARAMS, 0.0)
    Lt = trivial_l_operator(KIND, PARAMS)
    LT = l_tensor(Lv, Lt)
    z = 0.31 + 0.05j
    got = LT.at([z])[0]
    want = Lv.at([z])[0]
    carried = aligned(got.codomain, want.codomain) @ got @ aligned(
        want.domain, got.domain)
    assert carried.max_diff(want) < 1e-12


def test_rll_residuals():
    Lv = vector_l_operator(KIND, PARAMS, 0.0)
    assert rll_residual(Lv, 0.31, 0.12 + 0.07j) < 1e-9
    W2 = l_tensor(vector_l_operator(KIND, PARAMS, 0.0),
                  vector_l_operator(KIND, PARAMS, 0.3))
    assert rll_residual(W2, 0.31, 0.12 + 0.07j) < 1e-9


def test_rll_residual_evaluates_each_l_operator_once():
    # L(z) and L(w) are read off one stacked evaluation; the residual is the
    # one of the one-point evaluations, bit for bit
    W2 = vector_chain(KIND, PARAMS, (0.0, 0.3))
    at, calls = W2.at, []
    W2.at = lambda zs: calls.append(list(zs)) or at(zs)
    got = rll_residual(W2, 0.31, 0.12 + 0.07j)
    assert got.hex() == "0x1.419894c2329f0p-47"
    assert calls == [[0.31, 0.12 + 0.07j]]


def test_vector_chain_is_the_nested_l_tensor_fold_bit_for_bit():
    for n, r, us in ((2, 5, (0.0, 0.3, 0.7, 0.1)), (3, 5, (0.0, 0.3, 0.7))):
        kind = ModelKind.rsos(n, r)
        params = EllipticParams.rsos(n, r, TAU)
        chain = vector_chain(kind, params, us)
        V = chain.aux
        fold = functools.reduce(l_tensor, [
            vector_l_operator(kind, params, u, space=V) for u in us])
        assert fold.quantum is chain.quantum
        z = 0.29 + 0.06j
        got, want = chain.at([z])[0], fold.at([z])[0]
        assert (got.domain, got.codomain) == (want.domain, want.codomain)
        assert got.blocks.keys() == want.blocks.keys()
        assert all(np.array_equal(got.blocks[g], m)
                   for g, m in want.blocks.items())


def test_a_warm_chain_evaluation_inverts_no_permutation(monkeypatch):
    # the alignments are built once per space pair, so a second L(z) reindexes
    # through them and sorts nothing
    L = vector_chain(ModelKind.rsos(3, 5), EllipticParams.rsos(3, 5, TAU),
                     (0.0, 0.3, 0.7))
    zs = [0.29 + 0.06j, 0.13]
    want = L.at(zs)

    def refuse(*args, **kwargs):
        raise AssertionError("argsort in a warm evaluation")

    monkeypatch.setattr(np, "argsort", refuse)
    got = L.at(zs)
    assert got.blocks.keys() == want.blocks.keys()
    assert all(np.array_equal(got.blocks[g], m) for g, m in want.blocks.items())


def test_one_point_chain_evaluation_peaks_within_its_point_cost():
    # `_point_cost` counts _ALIVE morphisms the size of L(z) per point: the
    # traced peak of one warm L(z) of the 3-site chain stays within it
    L = vector_chain(ModelKind.rsos(3, 10), EllipticParams.rsos(3, 10, TAU),
                     (0.0, 0.0, 0.0))
    L.at([0.3 + 0.1j])
    tracemalloc.start()
    try:
        f = L.at([0.21 + 0.05j])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= transfer._ALIVE * sum(m.nbytes for m in f.blocks.values())


def test_cold_chain_evaluation_peaks_within_its_cold_cost():
    # the first run of a chain also builds its structure: its traced peak,
    # L(z) and its partial trace, stays within _COLD morphisms the size of
    # L(z)
    L = vector_chain(ModelKind.rsos(3, 10), EllipticParams.rsos(3, 10, TAU),
                     (0.0, 0.0, 0.0))
    tracemalloc.start()
    try:
        f = L.at([0.21 + 0.05j])
        partial_trace(f, L.aux, L.quantum)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= transfer._COLD * sum(m.nbytes for m in f.blocks.values())


def test_first_run_of_a_cold_chain_is_sized_on_its_cold_peak(monkeypatch):
    L = vector_chain(KIND, PARAMS, (0.0, 0.3))
    zs = [0.1 + 0.01 * k for k in range(9)]
    runs, at = [], L.at
    monkeypatch.setattr(L, "at", lambda zs: runs.append(len(zs)) or at(zs))
    # four warm points per run, and 4 * _ALIVE // _COLD cold ones
    monkeypatch.setattr(elliptic, "TABLE_BUDGET", 4 * transfer._point_cost(L))
    cold = transfer_matrix(zs, L)
    assert runs == [1, 4, 4]
    del runs[:]
    warm = transfer_matrix(zs, L)
    assert runs == [4, 4, 1]
    for got, want in zip(cold, warm):
        _assert_same_operator(got, want)


def test_empty_chain_is_refused_before_any_row_is_listed(monkeypatch):
    def refuse(*args):
        raise AssertionError("listed the rows of an empty chain")

    monkeypatch.setattr(transfer, "_closed_rows", refuse)
    with pytest.raises(InvalidConfig, match="at least one site"):
        vector_chain(KIND, PARAMS, ())


def test_single_vector_rep_has_empty_section_space():
    L = vector_l_operator(KIND, PARAMS, 0.0)
    [T] = transfer_matrix([0.3], L)
    assert sum(T.dims.values()) == 0


def test_transfer_commutes_two_site_chain():
    L = vector_chain(KIND, PARAMS, (0.0, 0.3))
    assert commutator_residual(L, [(0.21, 0.47 + 0.1j)]) < 1e-8


STACK_ZS = (0.21, 0.47 + 0.1j, -0.13 + 0.02j, 0.33 + 0.05j)


def _assert_same_operator(got, want):
    assert got.dims == want.dims and got.blocks.keys() == want.blocks.keys()
    assert all(np.array_equal(got.blocks[g], m) for g, m in want.blocks.items())


@pytest.mark.parametrize("n,r", [(2, 5), (3, 5), (3, 7), (4, 6)])
def test_stacked_transfer_matrices_equal_one_point_builds(n, r, monkeypatch):
    # T(z) for every z of a stack equals its one-point build bit for bit,
    # also with runs of one point each
    kind = ModelKind.rsos(n, r)
    params = EllipticParams.rsos(n, r, TAU)
    for sites in sorted({1, 2, 3, n}):
        L = vector_chain(kind, params, (0.0, 0.3, 0.7, 0.1)[:sites])
        want = [transfer_matrix([z], L)[0] for z in STACK_ZS]
        with monkeypatch.context() as m:
            runs, at = [], L.at
            m.setattr(L, "at", lambda zs: runs.append(len(zs)) or at(zs))
            stacked = transfer_matrix(STACK_ZS, L)
            assert runs == ([len(STACK_ZS)] if sites % n == 0 else [])
            m.setattr(elliptic, "TABLE_BUDGET", transfer._point_cost(L))
            del runs[:]
            one_by_one = transfer_matrix(STACK_ZS, L)
            assert runs == ([1] * len(STACK_ZS) if sites % n == 0 else [])
        assert len(stacked) == len(one_by_one) == len(STACK_ZS)
        for got, again, one in zip(stacked, one_by_one, want):
            _assert_same_operator(got, one)
            _assert_same_operator(again, one)
        assert any(sum(T.dims.values()) for T in want) == (sites % n == 0)


def test_forbidden_entry_at_the_last_point_of_a_stack_is_detected(
        monkeypatch):
    # the entry is injected into one table row at the last spectral
    # parameter of the stack only (the last site at the last point)
    real, injected = rsos.r_table, []

    def inject(zs, points, p):
        table = real(zs, points, p)
        for t, (u, a) in enumerate(zip(zs, points)):
            allowed = KIND.paths(a, 2)
            bad = [(k, l) for k, l in allowed if (l, k) not in allowed]
            if u == zs[-1] and bad:
                k, l = bad[0]
                table[t, (l - 1) * 2 + k - 1, (k - 1) * 2 + l - 1] = 1e-9
                injected.append(f"component ({l},{k})<-({k},{l}) at {a!r} "
                                f"is 1.00e-09")
                return table
        raise AssertionError("no forbidden component at the last z")

    L = vector_chain(KIND, PARAMS, (0.0, 0.3))
    monkeypatch.setattr(rsos, "r_table", inject)
    with pytest.raises(RestrictionViolated) as raised:
        transfer_matrix(STACK_ZS, L)
    assert [str(raised.value)] == injected


@pytest.mark.parametrize("n,r,sites", [(2, 5, 3), (3, 5, 2)])
def test_empty_section_space_evaluates_no_l_operator(n, r, sites):
    # n does not divide the chain length: no loop sections, so T(z) is the
    # empty operator and L(z) is never built
    def refuse(zs):
        raise AssertionError("evaluated L(z) on an empty section space")

    kind = ModelKind.rsos(n, r)
    params = EllipticParams.rsos(n, r, TAU)
    L = vector_chain(kind, params, (0.0, 0.3, 0.7)[:sites])
    L.at = refuse
    assert sum(transfer_matrix([0.21], L)[0].dims.values()) == 0
    assert commutator_residual(L, [(0.21, 0.47 + 0.1j)]) == 0.0


def test_transfer_commutes_four_site_chain():
    L = vector_chain(KIND, PARAMS, (0.0, 0.3, 0.7, 0.1))
    assert sum(transfer_matrix([0.21], L)[0].dims.values()) > 0
    assert commutator_residual(L, [(0.21, 0.47 + 0.1j)]) < 1e-8


def _assert_loop_sectors_match_a_scan(W, points):
    """The loop-sector table of W against a scan of W's components per
    point, the points numbered as listed."""
    sectors, arrows = loop_sectors(W), list(W.dims)
    want_loops, want_rows, want_dims = [], [], []
    for a in points:
        loops = _loops(W, a)
        sizes = [W.dims[g] for g in loops]
        want_loops += loops
        want_rows += list(itertools.accumulate(sizes, initial=0))[:-1]
        want_dims.append(sum(sizes))
    assert [arrows[k] for k in sectors.loops.tolist()] == want_loops
    assert sectors.rows.tolist() == want_rows
    assert sectors.dims.tolist() == want_dims


@pytest.mark.parametrize("n,r,us", [(2, 5, (0.0, 0.3)), (3, 5, (0.0, 0.3, 0.7))])
def test_loop_sectors_match_a_scan_per_point(n, r, us):
    kind = ModelKind.rsos(n, r)
    W = vector_chain(kind, EllipticParams.rsos(n, r, TAU), us).quantum
    _assert_loop_sectors_match_a_scan(W, kind.alcove())


def test_loop_sectors_of_the_unit_and_of_a_windowed_sos_space():
    V = build_vector_space(KIND)
    _assert_loop_sectors_match_a_scan(trivial_l_operator(KIND, PARAMS).quantum,
                                      POINTS)
    _assert_loop_sectors_match_a_scan(V, POINTS)  # no loop: all sectors empty
    S = _sos_space()
    SS = tensor_space(S, S)
    points = sorted({a for g in SS.dims for a in (g.source, g.target)},
                    key=WeightPoint.sort_key)
    _assert_loop_sectors_match_a_scan(SS, points)
    assert loop_sectors(SS).dims.any()


def test_state_budget_is_checked_before_any_transfer_matrix(monkeypatch):
    def refuse(*args):
        raise AssertionError("evaluated an R-matrix over STATE_BUDGET")

    monkeypatch.setattr(transfer, "STATE_BUDGET", 5)
    monkeypatch.setattr(transfer, "r_table", refuse)
    monkeypatch.setattr(transfer, "restricted_r", refuse)
    with pytest.raises(TooLarge, match="^STATE_BUDGET: 6 states requested, "
                                       "limit 5$"):
        _row_transfer_matrix(0.21, KIND, PARAMS, (0.0, 0.3))
    # at (3,5) chain-2 is empty and chain-3, like the 3-column rows, has 12
    # states
    for suite in (suites.transfer_commute_suite, suites.partition_suite):
        with pytest.raises(TooLarge, match="12 states requested, limit 5$"):
            suite(suites.RunConfig(n=3, r=5))


def test_vector_chain_refuses_over_state_budget_before_any_tensor_product(
        monkeypatch):
    def refuse(*args):
        raise AssertionError("built a tensor product over STATE_BUDGET")

    monkeypatch.setattr(transfer, "tensor_space", refuse)
    monkeypatch.setattr(transfer, "STATE_BUDGET", 5)
    with pytest.raises(TooLarge, match="^STATE_BUDGET: 6 states requested, "
                                       "limit 5$"):
        vector_chain(KIND, PARAMS, (0.0, 0.3))
    # a chain within the budget reaches its first tensor product
    monkeypatch.setattr(transfer, "STATE_BUDGET", 6)
    with pytest.raises(AssertionError, match="tensor product"):
        vector_chain(KIND, PARAMS, (0.0, 0.3))


def test_state_space_dimension_two_columns():
    assert partition_enumerate(0, 2, 0.3, KIND, PARAMS) == 6
    assert partition_via_transfer(0, 2, 0.3, KIND, PARAMS) == 6


@pytest.mark.parametrize("n,r,dim", [(2, 5, 6), (3, 5, 12), (3, 7, 48)])
def test_state_dimension_at_n_columns_is_non_vacuous(n, r, dim):
    # cols = n is the narrowest torus with a closed row at every rank
    kind = ModelKind.rsos(n, r)
    params = EllipticParams.rsos(n, r, TAU)
    for compute in (partition_enumerate, partition_via_transfer):
        assert compute(0, n, 0.3, kind, params) == dim


@pytest.mark.parametrize("n,r", [(2, 5), (3, 5)])
def test_partition_suite_builds_each_matrix_once_per_column_count(
        n, r, monkeypatch):
    built, spaces = {}, []

    def count(name, cols_of):
        inner = getattr(transfer, name)
        built[name] = []

        def wrapper(*args, **kwargs):
            built[name].append(cols_of(args))
            if name == "vector_chain":
                spaces.append(kwargs["space"])
            return inner(*args, **kwargs)
        monkeypatch.setattr(transfer, name, wrapper)

    for name in ("_row_transfer_matrix", "graded_transfer_matrix"):
        count(name, lambda args: len(args[3]))
    count("vector_chain", lambda args: len(args[2]))
    cases = suites.run_suite("partition", suites.RunConfig(n=n, r=r))
    assert all(c.passed for c in cases)
    # only widths n divides with a row count n divides within 12 faces, and
    # cols = n; the torus closes only when n divides cols
    widths = {2: [2, 4, 6], 3: [3]}[n]
    assert built == dict.fromkeys(built, widths)
    # every width's chain is built on one V, so they share its products
    assert spaces[0] is not None and all(V is spaces[0] for V in spaces)


@pytest.mark.parametrize("n,r", [(2, 5), (3, 5)])
def test_vacuous_row_counts_are_zero_in_the_full_construction(n, r):
    # what the partition suite and the partition functions skip: every
    # torus of at most 12 faces whose row count n does not divide
    kind = ModelKind.rsos(n, r)
    params = EllipticParams.rsos(n, r, TAU)
    checked = 0
    for cols in range(n, 13, n):
        us = (0.0,) * cols
        for M in (_row_transfer_matrix(0.3, kind, params, us),
                  transfer.graded_transfer_matrix(0.3, kind, params, us)):
            assert sum(M.dims.values())
            for rows in (m for m in range(1, 12 // cols + 1) if m % n):
                assert M.power(rows).trace() == 0
                assert np.trace(np.linalg.matrix_power(M.matrix(), rows)) == 0
                checked += 1
    assert checked


def test_vacuous_row_counts_skip_the_build_but_not_the_size_checks(monkeypatch):
    def refuse(*args):
        raise AssertionError("built a torus that n does not divide")

    monkeypatch.setattr(transfer, "_row_transfer_matrix", refuse)
    monkeypatch.setattr(transfer, "graded_transfer_matrix", refuse)
    for compute in (partition_enumerate, partition_via_transfer):
        for rows, cols in ((3, 2), (2, 3)):  # n divides one count only
            got = compute(rows, cols, 0.3, KIND, PARAMS)
            assert got == 0j and isinstance(got, complex)
        with pytest.raises(TooLarge,
                           match="FACE_BUDGET: 18 faces requested, limit 16"):
            compute(9, 2, 0.3, KIND, PARAMS)
        with pytest.raises(InvalidConfig, match="1 given for cols = 2$"):
            compute(3, 2, 0.3, KIND, PARAMS, inhomogeneities=(0.0,))


@pytest.mark.parametrize("n,r", [(2, 5), (3, 5)])
def test_vacuous_widths_are_empty_in_the_full_construction(n, r):
    kind = ModelKind.rsos(n, r)
    params = EllipticParams.rsos(n, r, TAU)
    for cols in (c for c in range(1, 8) if c % n):
        L = vector_chain(kind, params, (0.0,) * cols)
        assert sum(transfer_matrix([0.3], L)[0].dims.values()) == 0
        assert _closed_rows(kind, cols) == []
        for rows in range(3):
            for compute in (partition_enumerate, partition_via_transfer):
                got = compute(rows, cols, 0.3, kind, params)
                assert got == 0j and isinstance(got, complex)


@pytest.mark.parametrize("n,r", [(2, 5), (3, 5), (3, 7)])
def test_closed_rows_match_the_listed_rows(n, r):
    kind = ModelKind.rsos(n, r)
    for cols in range(1, 7):
        # every admissible path that uses each step index equally often
        listed = [(a, steps) for a in kind.alcove()
                  for steps in kind.paths(a, cols)
                  if len({steps.count(i) for i in range(1, n + 1)}) == 1]
        assert _closed_rows(kind, cols) == listed
        assert bool(listed) == (cols % n == 0)


def test_closed_rows_list_no_path_unless_n_divides_cols(monkeypatch):
    kind = ModelKind.rsos(3, 5)

    def refuse(self, a, length):
        raise AssertionError(f"paths of length {length} listed")

    monkeypatch.setattr(ModelKind, "paths", refuse)
    for cols in (1, 2, 4, 5, 7, 200):
        assert _closed_rows(kind, cols) == []
    with pytest.raises(AssertionError, match="length 3 listed"):
        _closed_rows(kind, 3)


def test_vacuous_widths_still_raise_size_errors():
    for compute in (partition_enumerate, partition_via_transfer):
        with pytest.raises(TooLarge,
                           match="FACE_BUDGET: 25 faces requested, limit 16"):
            compute(5, 5, 0.3, KIND, PARAMS)
        with pytest.raises(InvalidConfig, match="2 given for cols = 3$"):
            compute(1, 3, 0.3, KIND, PARAMS, inhomogeneities=(0.0, 0.2))


def test_partition_oracle_agreement():
    for r in (4, 5):
        kind = ModelKind.rsos(2, r)
        params = EllipticParams.rsos(2, r, TAU)
        for rows, cols in ((2, 2), (3, 2), (2, 4)):
            z_en = partition_enumerate(rows, cols, 0.3, kind, params)
            z_tm = partition_via_transfer(rows, cols, 0.3, kind, params)
            assert abs(z_en - z_tm) <= 1e-9 * max(1.0, abs(z_en))


def _dfs_row_weights(cols, z, kind, params, us):
    """Oracle: row_weight(t, b), the product of the face weights between the
    row states t (below) and b (above) of _closed_rows, or None when some
    vertical edge is not a step; each vertical step found by hand."""
    n = kind.rank
    states = _closed_rows(kind, cols)
    verts = []
    for a, steps in states:
        verts.append([a])
        for s in steps[:-1]:
            verts[-1].append(verts[-1][-1] + eps(n, s))
    flats = {}

    def flat(point, u):
        if (point, u) not in flats:
            flats[(point, u)] = r_matrix(z + u, point, params)
        return flats[(point, u)]

    def row_weight(t, b):
        vstep = [next((i for i in range(1, n + 1) if p + eps(n, i) == q), None)
                 for p, q in zip(verts[t], verts[b])]
        if None in vstep:
            return None
        wgt = 1.0 + 0.0j
        for k in range(cols):
            # <e_i (x) e_j | R | e_k (x) e_l> is entry ((i-1)n + j-1, (k-1)n + l-1)
            wgt *= flat(verts[t][k], us[k])[
                (states[t][1][k] - 1) * n + vstep[(k + 1) % cols] - 1,
                (vstep[k] - 1) * n + states[b][1][k] - 1]
        return wgt

    return row_weight


def _dfs_partition(rows, cols, z, kind, params, inhomogeneities=None):
    """Oracle: the torus sum over height configurations by depth-first search
    over the row states of successive rows."""
    us = inhomogeneities if inhomogeneities is not None else (0.0,) * cols
    row_weight = _dfs_row_weights(cols, z, kind, params, us)
    count = len(_closed_rows(kind, cols))

    def dfs(assign, acc):
        if len(assign) == rows:
            closing = row_weight(assign[-1], assign[0])
            return 0j if closing is None else acc * closing
        total = 0j
        for s in range(count):
            wgt = row_weight(assign[-1], s) if assign else 1.0
            if wgt is not None:
                total += dfs(assign + [s], acc * wgt)
        return total

    return complex(dfs([], 1.0 + 0.0j))


@pytest.mark.parametrize("n,r,cols", [(2, 4, 4), (2, 5, 2), (2, 5, 6),
                                      (3, 5, 3), (3, 5, 6)])
def test_row_transfer_matrix_matches_dfs_row_weights(n, r, cols):
    # entrywise, so the orientation of R (t below, b above) is checked too,
    # which no trace of a power can see
    kind = ModelKind.rsos(n, r)
    params = EllipticParams.rsos(n, r, TAU)
    z, us = 0.17 + 0.05j, tuple(0.1 * k for k in range(cols))
    R = _row_transfer_matrix(z, kind, params, us).matrix()
    row_weight = _dfs_row_weights(cols, z, kind, params, us)
    want = np.zeros_like(R)
    for t in range(len(R)):
        for b in range(len(R)):
            w = row_weight(t, b)
            want[t, b] = 0 if w is None else w
    assert np.count_nonzero(want) > 0
    assert np.abs(R - want).max() <= 1e-12 * np.abs(want).max()


BLOCK_CASES = ([("T", n, r, sites) for n, r in ((2, 5), (3, 5), (3, 7))
                for sites in (2, 3)]
               + [("R", n, r, cols) for n, r, cols in ((2, 4, 4), (2, 5, 2),
                                                       (2, 5, 6), (3, 5, 3),
                                                       (3, 5, 6))])


def _assert_close(got, want):
    assert abs(got - want) <= 1e-12 * abs(want), (got, want)


@pytest.mark.parametrize("side,n,r,width", BLOCK_CASES)
def test_block_algebra_matches_dense(side, n, r, width):
    kind = ModelKind.rsos(n, r)
    params = EllipticParams.rsos(n, r, TAU)
    if side == "T":
        L = vector_chain(kind, params, (0.0, 0.3, 0.7)[:width])
        A, B = transfer_matrix([0.21, 0.47 + 0.1j], L)
    else:
        us = tuple(0.1 * k for k in range(width))
        A, B = (_row_transfer_matrix(z, kind, params, us)
                for z in (0.17 + 0.05j, 0.31))
    a, b = A.matrix(), B.matrix()
    ab = a @ b
    assert np.abs((A @ B).matrix() - ab).max(initial=0.0) <= (
        1e-12 * np.abs(ab).max(initial=0.0))
    for m in range(7):
        _assert_close(A.power(m).trace(),
                      np.trace(np.linalg.matrix_power(a, m)))
    assert sum(A.dims.values()) or width % n


@pytest.mark.parametrize("n,r", [(2, 5), (3, 5), (3, 7)])
def test_block_commutator_matches_dense(n, r):
    # T(z) and T(w) of n-site chains with other inhomogeneities do not
    # commute, so the residual compared is not rounding noise
    kind = ModelKind.rsos(n, r)
    params = EllipticParams.rsos(n, r, TAU)
    V = build_vector_space(kind, params)
    chains = []
    for us in ((0.0, 0.3, 0.7), (0.4, 0.1, 0.25)):
        ops = [vector_l_operator(kind, params, u, space=V) for u in us[:n]]
        chains.append(functools.reduce(l_tensor, ops))
    z, w = 0.21, 0.47 + 0.1j

    def mixed_at(xs):
        # the k-th morphism of the stack from the chain of xs[k]
        ms = [chains[x != z].at([x])[0] for x in xs]
        keys = set().union(*(m.blocks for m in ms))
        return GradedMorphism(ms[0].domain, ms[0].codomain, {
            g: np.stack([m.block(g) for m in ms]) for g in keys})

    mixed = LOperator(aux=chains[0].aux, quantum=chains[0].quantum,
                      at=mixed_at, params=params)
    a = transfer_matrix([z], chains[0])[0].matrix()
    b = transfer_matrix([w], chains[1])[0].matrix()
    want = np.abs(a @ b - b @ a).max(initial=0.0)
    got = commutator_residual(mixed, [(z, w)])
    assert want > 1e-3
    _assert_close(got, want)


def _assert_matches_dfs(rows, cols, z, kind, params, inhomogeneities=None):
    got = partition_enumerate(rows, cols, z, kind, params, inhomogeneities)
    want = _dfs_partition(rows, cols, z, kind, params, inhomogeneities)
    assert abs(got - want) <= 1e-12 * max(1.0, abs(want)), (rows, cols, z)
    return want


@pytest.mark.parametrize("n,r", [(2, 4), (2, 5), (3, 5)])
@pytest.mark.parametrize("z", [0.3, 0.17 + 0.05j, 0.0])
def test_partition_enumerate_matches_dfs(n, r, z):
    kind = ModelKind.rsos(n, r)
    params = EllipticParams.rsos(n, r, TAU)
    values = [_assert_matches_dfs(rows, cols, z, kind, params)
              for cols in range(1, 13) for rows in range(1, 12 // cols + 1)]
    assert any(abs(v) > 0.5 for v in values)


@pytest.mark.parametrize("us", [(0.0, 0.2), (0.1, 0.3)])
@pytest.mark.parametrize("z", [0.3, 0.17 + 0.05j, 0.0])
def test_partition_enumerate_matches_dfs_inhomogeneous(us, z):
    assert abs(_assert_matches_dfs(2, 2, z, KIND, PARAMS, us)) > 0.5


@pytest.mark.parametrize("n,r,rows,cols,states", [
    (2, 5, 2, 2, 6), (2, 5, 2, 4, 6), (2, 5, 4, 2, 6), (3, 5, 3, 3, 12),
    (2, 5, 4, 4, 14), (2, 5, 2, 6, 6), (2, 5, 6, 2, 6), (2, 4, 4, 4, 8),
    (3, 4, 3, 3, 3)])
def test_partition_at_zero_counts_closed_rows(n, r, rows, cols, states):
    # R(0) is a permutation of the two-step paths, so every torus
    # configuration has weight 1 and the survivors are the translates of
    # one closed row of length gcd(rows, cols).
    kind = ModelKind.rsos(n, r)
    params = EllipticParams.rsos(n, r, TAU)
    count = len(_closed_rows(kind, math.gcd(rows, cols)))
    assert count == states
    for compute in (partition_enumerate, partition_via_transfer):
        assert abs(compute(rows, cols, 0.0, kind, params) - count) <= 1e-12


@pytest.mark.parametrize("rows,cols", [(-1, 2), (2, -2), (2, 0), (0, 0)])
def test_partition_rejects_degenerate_sizes(rows, cols):
    for compute in (partition_enumerate, partition_via_transfer):
        bad = rows if rows < 0 else cols
        with pytest.raises(InvalidConfig, match=f"got {bad}$"):
            compute(rows, cols, 0.3, KIND, PARAMS)


def test_partition_rejects_wrong_inhomogeneity_count():
    for compute in (partition_enumerate, partition_via_transfer):
        for us in ((0.0,), (0.0, 0.2, 0.4)):
            with pytest.raises(InvalidConfig,
                               match=f"{len(us)} given for cols = 2$"):
                compute(2, 2, 0.3, KIND, PARAMS, inhomogeneities=us)


def test_partition_forbidden_heights_contribute_nothing():
    # same torus, one level lower: fewer admissible configurations
    z4 = partition_enumerate(2, 2, 0.3, ModelKind.rsos(2, 4),
                             EllipticParams.rsos(2, 4, TAU))
    z5 = partition_enumerate(2, 2, 0.3, KIND, PARAMS)
    assert abs(z4) < abs(z5)


def test_partition_budget_enforced():
    with pytest.raises(TooLarge):
        partition_enumerate(5, 4, 0.3, KIND, PARAMS)
    with pytest.raises(TooLarge):
        partition_via_transfer(5, 4, 0.3, KIND, PARAMS)


def test_partition_budget_error_names_budget_request_and_limit():
    for compute in (partition_enumerate, partition_via_transfer):
        with pytest.raises(TooLarge, match="FACE_BUDGET: 18 faces requested, limit 16"):
            compute(3, 6, 0.3, KIND, PARAMS)


def test_partition_with_column_inhomogeneities():
    us = (0.0, 0.2)
    z_en = partition_enumerate(2, 2, 0.3, KIND, PARAMS, inhomogeneities=us)
    z_tm = partition_via_transfer(2, 2, 0.3, KIND, PARAMS, inhomogeneities=us)
    assert abs(z_en - z_tm) <= 1e-9 * max(1.0, abs(z_en))
    assert abs(z_en - partition_enumerate(2, 2, 0.3, KIND, PARAMS)) > 1e-6


def test_l_tensor_associative_up_to_alignment():
    ops = [vector_l_operator(KIND, PARAMS, u) for u in (0.0, 0.3, 0.7)]
    left = l_tensor(l_tensor(ops[0], ops[1]), ops[2])
    right = l_tensor(ops[0], l_tensor(ops[1], ops[2]))
    z = 0.29 + 0.06j
    got, want = left.at([z])[0], right.at([z])[0]
    carried = aligned(got.codomain, want.codomain) @ got @ aligned(
        want.domain, got.domain)
    assert carried.max_diff(want) < 1e-12
