import cmath
import math
from itertools import combinations_with_replacement

import numpy as np
import pytest

import rsoskit.fusion as fu
from rsoskit import elliptic
from rsoskit.convolution import (ConvolutionElement, character, chi, conv_mul,
                                 to_difference_operator)
from rsoskit.elliptic import EllipticParams
from rsoskit.errors import InvalidConfig, OutOfRange, ShapeMismatch, TooLarge
from rsoskit.fusion import (central_element_n2, exterior_character,
                            exterior_eigenvalue, fusion_bases, fusion_coeff,
                            psi_table, sym_power_character_n2,
                            sym_square_character, verify_fusion_rules,
                            verify_spectrum)
from rsoskit.groupoid import WeightPoint, add_vectors, eps, rsos_alcove
from rsoskit.rsos import ModelKind, _same_weight, build_vector_space

TAU = 0.9j


def _scaled(x, c):
    """The element c x."""
    return ConvolutionElement(x.context,
                              {g: c * v for g, v in x.coeffs.items()})


def psi_value(lam: WeightPoint, a: WeightPoint, n: int, r: int) -> complex:
    """psi_lambda(a) from one determinant; the per-pair oracle of
    `psi_table`."""
    lcoord, acoord = lam.offset, a.offset
    root = cmath.exp(2j * cmath.pi / (r * n))
    pref = root ** (-sum(acoord) * sum(lcoord))
    q = cmath.exp(2j * cmath.pi / r)
    m = np.array([[q ** (li * aj) for aj in acoord] for li in lcoord])
    return complex(pref * np.linalg.det(m))


def test_fusion_bases_case_table_rank2_level5():
    kind = ModelKind.rsos(2, 5)
    params = EllipticParams.rsos(2, 5, TAU)
    expected = {1: (1, 1), 2: (2, 1), 3: (2, 1), 4: (1, 1)}
    bases = fusion_bases(kind.alcove(), kind, params)
    assert tuple(fb.point for fb in bases) == kind.alcove()
    for fb in bases:
        assert fb.max_residual < 1e-8
        assert (sum(s.sym_dim for s in fb.sectors),
                sum(s.antisym_dim for s in fb.sectors)) == expected[
            fb.point.diff(1, 2)]
        for sector in fb.sectors:
            blk = sector.reg_one_block
            rank_reg = np.linalg.matrix_rank(blk, tol=1e-8)
            rank_m1 = np.linalg.matrix_rank(sector.minus_one_block, tol=1e-8)
            assert rank_reg + rank_m1 == len(sector.paths)


def test_fusion_bases_boundary_case_appears_at_walls():
    kind = ModelKind.rsos(2, 5)
    params = EllipticParams.rsos(2, 5, TAU)
    [fb] = [b for b in fusion_bases(kind.alcove(), kind, params)
            if b.point == WeightPoint.from_level_coordinate(1)]
    cases = {s.case for s in fb.sectors}
    assert "boundary" in cases


def test_exactness_exhaustive():
    for n, r in ((2, 5), (3, 5), (3, 6)):
        kind = ModelKind.rsos(n, r)
        params = EllipticParams.rsos(n, r, TAU)
        for fb in fusion_bases(kind.alcove(), kind, params):
            assert fb.max_residual < 1e-8


def _rank(s):
    if s.size == 0:
        return 0
    return int((s > fu.RANK_TOL * max(1.0, float(s[0]))).sum())


def _span_of_image(m):
    u, s, _ = np.linalg.svd(m)
    return u[:, : _rank(s)]


def _span_of_kernel(m):
    _, s, vh = np.linalg.svd(m)
    return vh[_rank(s):].conj().T


def _subspace_gap(p, q):
    if p.shape[1] != q.shape[1]:
        return 1.0
    if p.shape[1] == 0:
        return 0.0
    pp = p @ np.linalg.pinv(p)
    qq = q @ np.linalg.pinv(q)
    return float(np.abs(pp - qq).max())


def _containment(vectors, span):
    if vectors.shape[1] == 0:
        return 0.0
    proj = span @ np.linalg.pinv(span) if span.shape[1] else np.zeros(
        (vectors.shape[0], vectors.shape[0]))
    resid = vectors - proj @ vectors
    return float(np.abs(resid).max() / max(np.abs(vectors).max(), 1e-30))


def reference_fusion_bases(points, kind, params):
    """`fusion_bases` one sector at a time: two SVDs and up to four pinvs of
    each sector's blocks, gathered by np.ix_ from the run's tables."""
    n = kind.rank
    out = []
    for _, run in elliptic.table_runs(points, 2 * n ** 4):
        args = list(dict.fromkeys(a.diff(i, j) + s for a in run
                                  for i in range(1, n) for j in range(i + 1, n + 1)
                                  for s in (1, -1)))
        known = dict(zip(args, elliptic.bracket(args, params).tolist()))
        for a, m_minus, m_reg in zip(run, elliptic.r_minus1(run, params),
                                     elliptic.r_reg1(run, params)):
            two_steps = kind.paths(a, 2)
            sectors = []
            for i, j in combinations_with_replacement(range(1, n + 1), 2):
                paths = [p for p in two_steps if _same_weight(*p, i, j)]
                if not paths:
                    continue
                paths.sort(key=lambda p: (a + eps(n, p[0])).sort_key())
                at = [elliptic.pair_index(n, *p) for p in paths]
                blk_m, blk_r = m_minus[np.ix_(at, at)], m_reg[np.ix_(at, at)]
                if i == j:
                    case, sym, anti = "diagonal", 1, 0
                elif len(paths) == 2:
                    case, sym, anti = "interior", 1, 1
                else:
                    case, sym, anti = "boundary", 0, 1
                sym_span = _span_of_image(blk_m)
                anti_span = _span_of_image(blk_r)
                sym_vecs = np.ones((len(paths), sym), dtype=complex)
                anti_vecs = np.ones((len(paths), anti), dtype=complex)
                if case == "interior":
                    d, first = a.diff(i, j), paths.index((i, j))
                    anti_vecs[[first, 1 - first], 0] = known[d + 1], -known[d - 1]
                residual = max(
                    _subspace_gap(sym_span, _span_of_kernel(blk_r)),
                    _subspace_gap(anti_span, _span_of_kernel(blk_m)),
                    _containment(sym_vecs, sym_span),
                    _containment(anti_vecs, anti_span))
                if sym_span.shape[1] != sym or anti_span.shape[1] != anti:
                    residual = max(residual, 1.0)
                sectors.append(fu.SectorBases(
                    shift=add_vectors(eps(n, i), eps(n, j)), case=case,
                    paths=paths, sym_dim=sym, antisym_dim=anti,
                    minus_one_block=blk_m, reg_one_block=blk_r,
                    residual=residual))
            out.append(fu.FusionBases(point=a, sectors=sectors, residue=m_reg))
    return out


def _assert_bases_identical(got, want):
    assert len(got) == len(want)
    for g, w in zip(got, want):
        assert g.point == w.point
        assert np.array_equal(g.residue, w.residue)
        assert len(g.sectors) == len(w.sectors)
        for x, y in zip(g.sectors, w.sectors):
            assert (x.shift, x.case, x.paths, x.sym_dim, x.antisym_dim) == (
                y.shift, y.case, y.paths, y.sym_dim, y.antisym_dim)
            assert np.array_equal(x.minus_one_block, y.minus_one_block)
            assert np.array_equal(x.reg_one_block, y.reg_one_block)
            assert x.residual == y.residual


@pytest.mark.parametrize("split", [False, True])
@pytest.mark.parametrize("n,r", [(2, 5), (3, 5), (3, 7), (4, 6)])
def test_stacked_fusion_bases_match_the_per_sector_oracle(n, r, split,
                                                          monkeypatch):
    if split:  # runs of 3 points each
        monkeypatch.setattr(elliptic, "TABLE_BUDGET", 3 * 2 * n ** 4)
    kind = ModelKind.rsos(n, r)
    params = EllipticParams.rsos(n, r, TAU)
    points = kind.alcove()
    _assert_bases_identical(fusion_bases(points, kind, params),
                            reference_fusion_bases(points, kind, params))


def _perturb_interior(monkeypatch, table, change):
    """Replace `fu.<table>` by one that applies `change` to the block of the
    first interior sector of the first (3, 5) point that has one; returns
    that point."""
    kind = ModelKind.rsos(3, 5)
    params = EllipticParams.rsos(3, 5, TAU)
    [(a, paths)] = [(fb.point, s.paths) for fb in fusion_bases(
        kind.alcove(), kind, params) for s in fb.sectors
        if s.case == "interior"][:1]
    at = [elliptic.pair_index(3, *p) for p in paths]
    real = getattr(fu, table)

    def perturbed(run, p):
        stack = real(run, p).copy()
        for row, b in zip(stack, run):
            if b == a:
                row[np.ix_(at, at)] = change(row[np.ix_(at, at)])
        return stack
    monkeypatch.setattr(fu, table, perturbed)
    return kind, params, a


def test_exactness_check_sees_a_turned_image(monkeypatch):
    # a rank-1 block with one row scaled keeps its rank but turns its image
    kind, params, a = _perturb_interior(
        monkeypatch, "r_minus1", lambda blk: blk * np.array([[1.0], [1.001]]))
    for fb in fusion_bases(kind.alcove(), kind, params):
        if fb.point == a:
            assert 1e-8 < fb.max_residual < 1.0
        else:
            assert fb.max_residual < 1e-8


@pytest.mark.parametrize("table", ["r_minus1", "r_reg1"])
def test_exactness_check_scores_a_rank_loss_one(table, monkeypatch):
    kind, params, a = _perturb_interior(monkeypatch, table, np.zeros_like)
    [fb] = [b for b in fusion_bases(kind.alcove(), kind, params)
            if b.point == a]
    assert fb.max_residual == 1.0
    assert sum(s.residual == 1.0 for s in fb.sectors) == 1


def test_exterior_character_degenerate_degrees():
    ctx = ModelKind.rsos(2, 5)
    assert exterior_character(0, ctx) == chi(ctx, rsos_alcove(2, 5))
    top = exterior_character(2, ctx)
    assert sorted(g.source.diff(1, 2) for g in top.coeffs) == [1, 2, 3, 4]
    assert all(g.shift == (1, 1) for g in top.coeffs)


def test_character_square_decomposition():
    for n, r in ((2, 5), (3, 5)):
        kind = ModelKind.rsos(n, r)
        chv = character(build_vector_space(kind))
        assert conv_mul(chv, chv) == (exterior_character(2, kind)
                                      + sym_square_character(kind))


def test_sym_power_characters_low_degrees():
    ctx = ModelKind.rsos(2, 5)
    assert sym_power_character_n2(0, ctx) == chi(ctx, rsos_alcove(2, 5))
    assert sym_power_character_n2(1, ctx) == character(
        build_vector_space(ctx))


def test_sym_power_character_p3_r5():
    el = sym_power_character_n2(3, ModelKind.rsos(2, 5))
    got = {(g.source.diff(1, 2), g.shift) for g in el.coeffs}
    assert got == {(1, (3, 0)), (2, (2, 1)), (3, (1, 2)), (4, (0, 3))}


def test_sym_power_out_of_range():
    kind = ModelKind.rsos(2, 5)
    with pytest.raises(OutOfRange):
        sym_power_character_n2(4, kind)
    with pytest.raises(OutOfRange):
        exterior_character(3, kind)
    with pytest.raises(InvalidConfig):
        sym_power_character_n2(1, ModelKind.rsos(3, 5))
    with pytest.raises(InvalidConfig):
        central_element_n2(ModelKind.sos((0.25, 0)))


def test_fusion_coeff_examples():
    assert [s for s in range(4) if fusion_coeff(1, 1, s, 5)] == [0, 2]
    assert fusion_coeff(2, 2, 4, 5) == 0
    for p in range(4):
        for s in range(4):
            assert fusion_coeff(p, 0, s, 5) == (1 if p == s else 0)


def test_fusion_coeff_symmetry():
    for r in (4, 5, 6):
        for p in range(r - 1):
            for q in range(r - 1):
                for s in range(r - 1):
                    assert fusion_coeff(p, q, s, r) == fusion_coeff(q, p, s, r)


def test_verlinde_rules_exact():
    for r in range(4, 13):
        assert verify_fusion_rules(r) == (0, 0, 0)


def _drop_arrow(label, pick):
    """sym_power_character_n2 with the arrow support[pick] of L_label cut."""
    def perturbed(p, kind):
        x = sym_power_character_n2(p, kind)
        if p != label:
            return x
        return x + ConvolutionElement(kind, {x.support[pick]: -1})
    return perturbed


def _scale(label, c):
    """sym_power_character_n2 with L_label multiplied by c."""
    def perturbed(p, kind):
        x = sym_power_character_n2(p, kind)
        return _scaled(x, c) if p == label else x
    return perturbed


# mismatch counts (rules, symmetry, associativity) at r = 5 and r = 11,
# measured on the products of `conv_mul`, one pair of characters per call
PERTURBED = {
    "drop-first-arrow-of-L1": (_drop_arrow(1, 0),
                               {5: (7, 4, 0), 11: (31, 16, 0)}),
    "double-L2": (_scale(2, 2), {5: (8, 0, 0), 11: (36, 0, 0)}),
    "drop-last-arrow-of-L3": (_drop_arrow(3, -1),
                              {5: (7, 4, 0), 11: (37, 16, 0)}),
}


@pytest.mark.parametrize("r", [5, 11])
@pytest.mark.parametrize("name", PERTURBED)
def test_verlinde_counts_match_pairwise_products(name, r, monkeypatch):
    perturbed, counts = PERTURBED[name]
    monkeypatch.setattr(fu, "sym_power_character_n2", perturbed)
    assert verify_fusion_rules(r) == counts[r]


@pytest.mark.parametrize("name", PERTURBED)
def test_verlinde_counts_do_not_depend_on_the_runs(name, monkeypatch):
    # 2^10 entries hold less than one label's 10 x 10 x 10 products at
    # r = 11, so every run is a single p
    perturbed, counts = PERTURBED[name]
    monkeypatch.setattr(fu, "sym_power_character_n2", perturbed)
    monkeypatch.setattr(elliptic, "TABLE_BUDGET", 2 ** 10)
    lengths = []
    table_runs = fu.table_runs
    monkeypatch.setattr(fu, "table_runs", lambda *args: [
        lengths.append(len(run)) or (start, run)
        for start, run in table_runs(*args)])
    assert verify_fusion_rules(11) == counts[11]
    assert set(lengths) == {1}


def test_verlinde_products_past_float64_integers_are_refused(monkeypatch):
    monkeypatch.setattr(fu, "sym_power_character_n2", _scale(2, 2 ** 30))
    with pytest.raises(TooLarge, match=r"exceed 2\*\*53"):
        verify_fusion_rules(5)


def test_verlinde_check_needs_homogeneous_characters(monkeypatch):
    def mixed(p, kind):
        x = sym_power_character_n2(p, kind)
        return x + chi(kind, kind.alcove()) if p == 1 else x
    monkeypatch.setattr(fu, "sym_power_character_n2", mixed)
    with pytest.raises(ShapeMismatch, match="degree 1$"):
        verify_fusion_rules(5)


@pytest.mark.parametrize("perturb", [
    lambda x: _scaled(x, 2),
    lambda x: x + ConvolutionElement(x.context, {x.support[0]: -1}),
], ids=["doubled", "dropped-arrow"])
def test_verlinde_check_needs_u_to_be_the_identity(perturb, monkeypatch):
    def perturbed(kind, power=1):
        x = central_element_n2(kind, power)
        return perturb(x) if power == 3 else x
    monkeypatch.setattr(fu, "central_element_n2", perturbed)
    with pytest.raises(ShapeMismatch, match=r"^u\^3 is not the identity"):
        verify_fusion_rules(5)


def test_verlinde_check_makes_no_convolution_product(monkeypatch):
    # the check multiplies the characters' matrix forms with numpy alone
    from rsoskit import convolution as cv

    def refuse(*args):
        raise AssertionError("convolution product in the Verlinde check")
    monkeypatch.setattr(cv, "conv_mul", refuse)
    monkeypatch.setattr(cv, "_compose", refuse)
    assert verify_fusion_rules(11) == (0, 0, 0)


def test_verlinde_rules_count_a_dropped_fusion_coefficient(monkeypatch):
    # without N_11^2 at r = 5, L_1 L_1 misses u^0 L_2: one rule fails, and
    # the ring checks, which read no coefficient, still pass
    coeff = fu.fusion_coeff
    monkeypatch.setattr(fu, "fusion_coeff", lambda p, q, s, r: (
        0 if (p, q, s) == (1, 1, 2) else coeff(p, q, s, r)))
    assert verify_fusion_rules(5) == (1, 0, 0)


def test_l2_squared_explicit_r5():
    kind = ModelKind.rsos(2, 5)
    l0, l2 = sym_power_character_n2(0, kind), sym_power_character_n2(2, kind)
    rhs = (conv_mul(central_element_n2(kind, 2), l0)
           + conv_mul(central_element_n2(kind, 1), l2))
    assert conv_mul(l2, l2) == rhs


def test_psi_vanishes_on_walls():
    n, r = 3, 5
    regular = set(rsos_alcove(n, r))
    # P^r_+: a_1 >= ... >= a_n = 0 with a_1 <= r
    closure = [WeightPoint.integer(c[::-1] + (0,)) for c in
               combinations_with_replacement(range(r + 1), n - 1)]
    lam = rsos_alcove(n, r)[0]
    walls = 0
    for a in closure:
        offs = a.offset
        on_wall = (len(set(offs)) < n or offs[0] - offs[-1] == r)
        if on_wall:
            walls += 1
            assert abs(psi_value(lam, a, n, r)) < 1e-10
    assert walls > 0


def test_batched_psi_matches_per_pair_values_bit_for_bit():
    for n, r in ((2, 5), (2, 11), (3, 7), (3, 20), (4, 9)):
        points = rsos_alcove(n, r)
        table = psi_table(ModelKind.rsos(n, r))
        assert table.shape == (len(points), len(points))
        for lam, row in zip(points, table):
            want = np.array([psi_value(lam, a, n, r) for a in points])
            assert np.array_equal(row, want)


def test_psi_orthogonal_family_rank2():
    for n, r in ((2, 5), (3, 7), (4, 6)):
        table = psi_table(ModelKind.rsos(n, r))
        gram = table @ table.conj().T
        off = gram - np.diag(np.diag(gram))
        assert np.abs(off).max() < 1e-10 * np.abs(gram).max()


def test_psi_at_rho_like_point_is_nonzero():
    assert np.abs(psi_table(ModelKind.rsos(3, 5))[0]).max() > 1e-6


def test_spectrum_rank2_matches_cosines():
    [report] = verify_spectrum([1], 2, 5)
    assert report.max_residual < fu.SPECTRUM_TOL
    got = sorted(e.real for e in report.eigenvalues)
    want = sorted(2 * math.cos(math.pi * l / 5) for l in (1, 2, 3, 4))
    assert np.abs(np.array(got) - np.array(want)).max() < 1e-10
    golden = (1 + math.sqrt(5)) / 2
    assert any(abs(e - golden) < 1e-9 for e in got)


def test_spectrum_eigenvalues_match_dense_eigensolver():
    for r in (5, 7):
        adjacency = to_difference_operator(
            character(build_vector_space(ModelKind.rsos(2, r))),
            rsos_alcove(2, r)).matrix().astype(float)
        dense = np.sort(np.linalg.eigvalsh(adjacency))
        [report] = verify_spectrum([1], 2, r)
        analytic = np.sort([e.real for e in report.eigenvalues])
        assert np.abs(dense - analytic).max() < 1e-10


def test_spectrum_rank3_all_exterior_degrees():
    reports = verify_spectrum((1, 2), 3, 5)
    assert [report.k for report in reports] == [1, 2]
    for report in reports:
        assert report.max_residual < fu.SPECTRUM_TOL
        assert len(report.eigenvalues) == 6


def test_simultaneous_diagonalization_weyl_symmetric_eigenvalue():
    # the k-th and (n-k)-th operators share eigenfunctions; check a midpoint
    n, r = 3, 6
    lam = WeightPoint.integer((3, 1, 0))  # unique self-symmetric-ish label
    kind = ModelKind.rsos(n, r)
    f = psi_table(kind)[kind.alcove_index()[lam]]
    op = to_difference_operator(exterior_character(1, kind),
                                kind.alcove()).matrix(dtype=complex)
    ev = exterior_eigenvalue(1, lam, n, r)
    assert np.abs(op @ f - ev * f).max() < 1e-10


def test_exterior_characters_commute():
    for n, r in ((3, 5), (3, 6)):
        kind = ModelKind.rsos(n, r)
        chars = [exterior_character(k, kind) for k in range(n + 1)]
        for x in chars:
            for y in chars:
                assert conv_mul(x, y) == conv_mul(y, x)


def test_verlinde_symmetry_checks_the_ring_products(monkeypatch):
    # dropping one arrow from L_1 breaks L_1 L_q = L_q L_1 in the ring,
    # while the closed-form coefficients stay symmetric
    from rsoskit import suites

    def case(config):
        return next(c for c in suites.fusion_suite(config)
                    if c.name == "verlinde-symmetry")

    config = suites.RunConfig(n=2, r=5)
    assert case(config).passed

    def perturbed(p, kind):
        x = sym_power_character_n2(p, kind)
        if p != 1:
            return x
        return x + ConvolutionElement(x.context, {x.support[0]: -1})

    monkeypatch.setattr(fu, "sym_power_character_n2", perturbed)
    assert not case(config).passed


def test_spectrum_refuses_a_bad_exterior_degree_before_the_table(monkeypatch):
    def no_table(kind):
        raise AssertionError("psi_table built before every k was checked")
    monkeypatch.setattr(fu, "psi_table", no_table)
    with pytest.raises(OutOfRange,
                       match=r"^exterior degree 7 outside 0\.\.3$"):
        verify_spectrum([1, 7], 3, 60)


def test_spectrum_check_over_budget_is_refused_before_densifying():
    with pytest.raises(TooLarge, match="^SPECTRUM_BUDGET: 19701 points requested, "
                                       f"limit {fu.SPECTRUM_BUDGET}$"):
        verify_spectrum([1], 3, 200)
