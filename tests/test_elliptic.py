import cmath
import math
import random
import tracemalloc

import numpy as np
import pytest

from rsoskit import elliptic, suites
from rsoskit.elliptic import (EllipticParams, _guarded, bracket,
                              dynamical_ybe_residual, pair_index, r_matrix,
                              r_minus1, r_reg1, r_table, residue_extrapolation,
                              theta, theta_dz0, unitarity_residual)
from rsoskit.errors import InvalidConfig, InvalidTau, NearPole, TooLarge
from rsoskit.groupoid import WeightPoint, rsos_alcove
from rsoskit.suites import RunConfig, dybe_suite

TAU = 0.8j


def params(n, r, tau=TAU):
    return EllipticParams.rsos(n, r, tau)


def test_theta_vanishes_at_origin():
    for tau in (1j, 0.3 + 0.8j):
        assert abs(theta(0.0, tau)) < 1e-14


def test_theta_odd():
    rng = random.Random(3)
    for _ in range(20):
        z = complex(rng.uniform(-1, 1), rng.uniform(-0.3, 0.3))
        assert abs(theta(-z, TAU) + theta(z, TAU)) < 1e-13


def test_theta_quasi_periodicity_against_double_truncation():
    rng = random.Random(5)
    for _ in range(20):
        z = complex(rng.uniform(-1, 1), rng.uniform(-0.2, 0.2))
        ref = theta(z, TAU, truncation=40)
        assert abs(theta(z, TAU) - ref) < 1e-14
        assert abs(theta(z + 1, TAU) + ref) < 1e-12
        factor = -cmath.exp(-1j * cmath.pi * TAU - 2j * cmath.pi * z)
        assert abs(theta(z + TAU, TAU) - factor * ref) < 1e-12


def test_theta_rejects_lower_half_plane():
    with pytest.raises(InvalidTau):
        theta(0.3, -1j)
    with pytest.raises(InvalidTau):
        theta_dz0(0.5 + 0j)


def test_gamma_on_lattice_rejected():
    with pytest.raises(ValueError):
        EllipticParams(tau=TAU, gamma=1.0 + 0j, rank=2)


def test_theta_series_guard_raises_before_allocating():
    # 2 * 111625 + 1 terms for z = 0 at Im tau = 1e-9; 2e8 more per unit Im z
    for call in (lambda: theta(0.0, 1e-9j), lambda: theta_dz0(1e-9j),
                 lambda: EllipticParams(tau=1e-9j, gamma=0.2, rank=2)):
        with pytest.raises(TooLarge, match="^THETA_TERM_BUDGET: 223251 series "
                                           "terms per entry requested, limit 10000$"):
            call()
    # the largest term at Im z = 40, Im tau = 0.8 is exp(2000 pi)
    with pytest.raises(TooLarge, match=r"^float64 range: .* exp\(6283.19\)"):
        theta(np.array([0.1, 40j]), TAU)
    with pytest.raises(InvalidConfig, match="rank"):
        EllipticParams(tau=TAU, gamma=0.2, rank=1)


def test_bracket_normalization_and_zeros():
    p = params(2, 5)
    assert abs(bracket(0.0, p)) < 1e-14
    h = 1e-5
    deriv = (bracket(h, p) - bracket(-h, p)) / (2 * h)
    assert abs(deriv - 1) < 1e-8
    assert abs(bracket(5.0, p)) < 1e-12
    assert abs(bracket(5.0 * TAU, p)) < 1e-10 * abs(theta_dz0(TAU))


def test_bracket_reflection_identity_r5():
    p = params(2, 5)
    rng = random.Random(7)
    for _ in range(10):
        u = complex(rng.uniform(0, 3), rng.uniform(-0.2, 0.2))
        assert abs(bracket(u, p) - bracket(5 - u, p)) < 1e-12


def test_r_matrix_diagonal_entries_are_one():
    p = params(3, 5)
    a = WeightPoint.integer((3, 1, 0))
    flat = r_matrix(0.42 + 0.1j, a, p)
    for i in range(1, 4):
        assert abs(flat[pair_index(3, i, i), pair_index(3, i, i)] - 1) < 1e-14


def test_pair_index_is_the_kron_basis_position():
    for n in (2, 3, 4):
        eye = np.eye(n)
        for i in range(1, n + 1):
            for j in range(1, n + 1):
                assert np.kron(eye[i - 1], eye[j - 1])[pair_index(n, i, j)] == 1
        steps = np.arange(1, n + 1)
        i, j = np.meshgrid(steps, steps, indexing="ij")
        assert np.array_equal(pair_index(n, i, j).ravel(), np.arange(n * n))


def test_r_matrix_at_zero_is_identity():
    p = params(3, 5)
    a = WeightPoint.integer((3, 1, 0))
    m = r_matrix(0.0, a, p)
    assert np.abs(m - np.eye(9)).max() < 1e-13


def test_r_matrix_unitarity_spec_point():
    p = params(3, 5)
    a = WeightPoint.integer((3, 1, 0))
    assert unitarity_residual([(0.37 + 0.11j, a)], p) < 1e-10


def test_r_matrix_near_pole_refused():
    p = params(2, 5)
    a = WeightPoint.from_level_coordinate(2)
    with pytest.raises(NearPole):
        r_matrix(1.0, a, p)
    with pytest.raises(NearPole):
        r_matrix(0.3, WeightPoint.from_level_coordinate(5), p)


def test_unitarity_sweep():
    rng = random.Random(31)
    for n, r in ((2, 5), (3, 5), (3, 7)):
        p = params(n, r)
        points = rsos_alcove(n, r)
        for _ in range(25):
            z = complex(rng.uniform(0.1, 0.6), rng.uniform(0, 0.2))
            a = rng.choice(points)
            assert unitarity_residual([(z, a)], p) < 1e-9


def _generic_point(rng, n, r):
    base = tuple(complex(rng.uniform(0.05, 0.45), rng.uniform(0, 0.1))
                 for _ in range(n - 1)) + (0.0,)
    offset = tuple(rng.randrange(0, r) for _ in range(n - 1)) + (0,)
    return WeightPoint(base=base, offset=offset)


def test_dynamical_ybe_residual_generic_points():
    rng = random.Random(13)
    for n, r in ((2, 5), (3, 5), (3, 7)):
        p = params(n, r)
        for _ in range(5):
            z = complex(rng.uniform(0.1, 0.6), rng.uniform(0, 0.2))
            w = complex(rng.uniform(0.1, 0.6), rng.uniform(0, 0.2))
            a = _generic_point(rng, n, r)
            assert dynamical_ybe_residual([(z, w, a)], p) < 1e-9


def test_dynamical_ybe_sos_base():
    p = params(3, 5)
    b = WeightPoint(base=(0.29, 0.11, 0.0), offset=(0, 0, 0))
    assert dynamical_ybe_residual([(0.31, 0.17 + 0.05j, b)], p) < 1e-9


@pytest.mark.parametrize("n,r", [(2, 5), (3, 5), (3, 7)])
def test_dybe_case_fails_on_one_entry_off_by_1e9_relative(n, r, monkeypatch):
    config = RunConfig(n=n, r=r, seed=3)
    [case] = dybe_suite(config)
    assert case.passed
    table = elliptic.r_table

    def perturbed(z, points, p):
        out = table(z, points, p).copy()
        out[:, 1, p.rank] *= 1 + 1e-9  # <e_1 (x) e_2 | R | e_2 (x) e_1>
        return out

    monkeypatch.setattr(elliptic, "r_table", perturbed)
    [case] = dybe_suite(config)
    assert not case.passed


def test_r_reg1_matches_numerical_residue():
    p = params(3, 5)
    a = WeightPoint.integer((3, 1, 0))
    reg = r_reg1([a], p)[0]
    eps = 1e-6
    approx = eps * r_matrix(1.0 + eps, a, p)
    rel = np.abs(approx - reg).max() / np.abs(reg).max()
    assert rel < 1e-4
    oracle = residue_extrapolation([a], p)[0]
    assert np.abs(oracle - reg).max() / np.abs(reg).max() < 1e-6


def test_r_reg1_vanishes_on_diagonal_vectors():
    p = params(3, 5)
    a = WeightPoint.integer((3, 1, 0))
    flat = r_reg1([a], p)[0]
    for i in range(1, 4):
        col = flat[:, (i - 1) * 3 + (i - 1)]
        assert np.abs(col).max() == 0.0


def test_r_reg1_middle_block_rank_one_interior():
    p = params(2, 5)
    for l in (2, 3):
        a = WeightPoint.from_level_coordinate(l)
        m = r_reg1([a], p)[0][1:3, 1:3]
        assert abs(abs(m[0, 0]) - abs(m[0, 1])) < 1e-12
        s = np.linalg.svd(m, compute_uv=False)
        assert s[1] < 1e-10 * s[0]


def test_r_minus1_consistent_with_r_matrix():
    p = params(3, 5)
    for coords in ((3, 1, 0), (4, 2, 0)):
        a = WeightPoint.integer(coords)
        diff = np.abs(r_minus1([a], p)[0] - r_matrix(-1.0, a, p)).max()
        assert diff < 1e-10


def test_r_minus1_nonzero_on_diagonal_sectors():
    p = params(3, 5)
    a = WeightPoint.integer((3, 1, 0))
    flat = r_minus1([a], p)[0]
    for i in range(1, 4):
        assert abs(flat[pair_index(3, i, i), pair_index(3, i, i)]) > 0.1


def test_r_minus1_vanishes_on_wall_sector():
    # a_{i-1} = a_i + 1 kills the sector through a + eps_i
    p = params(3, 5)
    a = WeightPoint.integer((2, 1, 0))  # a_1 = a_2 + 1
    flat = r_minus1([a], p)[0]
    assert abs(flat[pair_index(3, 1, 2), pair_index(3, 1, 2)]) < 1e-14
    assert abs(flat[pair_index(3, 2, 1), pair_index(3, 1, 2)]) < 1e-14


def test_theta_truncation_rule_handles_large_imaginary_part():
    for z in (2.0 + 0.5j, -1.3 + 0.9j, 0.1 + 1.4j):
        auto = theta(z, TAU)
        ref = theta(z, TAU, truncation=80)
        assert abs(auto - ref) <= 1e-13 * max(1.0, abs(ref))


# Oracles for the array bracket and the one R-matrix builder: the scalar
# series and the three per-pair loop builders they replace, kept verbatim
# up to names.  The new code must reproduce them bit for bit.

def _scalar_truncation(z, tau):
    t = tau.imag
    n = abs(complex(z).imag) / t + math.sqrt(17.0 * math.log(10.0) / (math.pi * t))
    return max(12, int(math.ceil(n)) + 1)


def _scalar_theta(z, tau, truncation=None):
    N = truncation if truncation is not None else _scalar_truncation(z, tau)
    half = np.arange(-N, N + 1) + 0.5
    expo = 1j * math.pi * half * half * tau + 2j * math.pi * half * (z + 0.5)
    return complex(-np.exp(expo).sum())


def _scalar_bracket(z, p):
    num = _scalar_theta(p.gamma * z, p.tau)
    return num / (p.gamma * theta_dz0(p.tau))


def _loop_r_matrix(z, a, p):
    n = p.rank
    br = lambda w: _scalar_bracket(w, p)
    den_z = _guarded(br(1 - z), "[1-z]")
    one = br(1)
    m = np.zeros((n * n, n * n), dtype=complex)
    for i in range(1, n + 1):
        m[(i - 1) * n + (i - 1), (i - 1) * n + (i - 1)] = 1.0
    bz = br(z)
    for i in range(1, n + 1):
        for j in range(1, n + 1):
            if i == j:
                continue
            d = a.diff(i, j)
            den = _guarded(br(d), f"[a_{i}-a_{j}]")
            row = (i - 1) * n + (j - 1)
            m[row, (j - 1) * n + (i - 1)] = -br(d + 1) * bz / (den * den_z)
            m[row, row] = br(d + z) * one / (den * den_z)
    return m


def _loop_r_reg1(a, p):
    n = p.rank
    br = lambda w: _scalar_bracket(w, p)
    one = br(1)
    m = np.zeros((n * n, n * n), dtype=complex)
    for i in range(1, n + 1):
        for j in range(1, n + 1):
            if i == j:
                continue
            d = a.diff(i, j)
            den = _guarded(br(d), f"[a_{i}-a_{j}]")
            c = br(d + 1) * one / den
            row = (i - 1) * n + (j - 1)
            m[row, (j - 1) * n + (i - 1)] += c
            m[row, row] -= c
    return m


def _loop_r_minus1(a, p):
    n = p.rank
    br = lambda w: _scalar_bracket(w, p)
    one = br(1)
    two = _guarded(br(2), "[2]")
    m = np.zeros((n * n, n * n), dtype=complex)
    for i in range(1, n + 1):
        m[(i - 1) * n + (i - 1), (i - 1) * n + (i - 1)] = 1.0
    for i in range(1, n + 1):
        for j in range(1, n + 1):
            if i == j:
                continue
            d = a.diff(i, j)
            den = _guarded(br(d), f"[a_{i}-a_{j}]")
            row = (i - 1) * n + (j - 1)
            m[row, (j - 1) * n + (i - 1)] = br(d + 1) * one / (den * two)
            m[row, row] = br(d - 1) * one / (den * two)
    return m


# at (4,6) many rows share their (d, s) slots
@pytest.mark.parametrize("n,r", [(2, 5), (3, 5), (3, 7), (4, 6)])
def test_builders_match_loop_oracles_bit_for_bit(n, r):
    rng = random.Random(17 * n + r)
    points = rsos_alcove(n, r) + [_generic_point(rng, n, r) for _ in range(4)]
    complex_params = EllipticParams(tau=0.3 + 0.9j, gamma=1 / (r + 0.2) + 0.02j,
                                    rank=n)
    for p in (params(n, r), complex_params):
        for z in (0.3, 0.17 + 0.05j, -0.42 + 0.11j, 2.5 + 0.7j):
            table = r_table(z, points, p)
            assert table.shape == (len(points), n * n, n * n)
            for a, m in zip(points, table):
                loop = _loop_r_matrix(z, a, p)
                assert np.array_equal(m, loop)
                assert np.array_equal(r_matrix(z, a, p), loop)
        for a in points:
            assert np.array_equal(r_reg1([a], p)[0], _loop_r_reg1(a, p))
            assert np.array_equal(r_minus1([a], p)[0], _loop_r_minus1(a, p))


def test_array_theta_equals_scalar_calls_entry_by_entry():
    zs = np.array([[0.1, 3 + 9j, -1.3 + 0.9j], [0.25, 2.0, 1e-3j]])
    for tau in (TAU, 0.3 + 0.9j):
        # the entries need different truncations, so several groups are summed
        assert len({_scalar_truncation(z, tau) for z in zs.flat}) > 1
        out = theta(zs, tau)
        assert out.shape == zs.shape
        for z, v in zip(zs.flat, out.flat):
            assert v == theta(complex(z), tau) == _scalar_theta(complex(z), tau)
        fixed = theta(zs, tau, truncation=40)
        for z, v in zip(zs.flat, fixed.flat):
            assert v == _scalar_theta(complex(z), tau, truncation=40)
    assert isinstance(theta(0.1, TAU), complex)


def test_array_bracket_equals_scalar_calls_entry_by_entry():
    zs = [0.1, 3 + 9j, 1, 2.0, -0.42 + 0.11j, 1 - (0.3 + 0.05j)]
    for p in (params(3, 7), EllipticParams(tau=0.3 + 0.9j, gamma=0.17 + 0.03j,
                                           rank=2)):
        out = bracket(np.array(zs), p)
        for z, v in zip(zs, out):
            assert v == bracket(z, p) == _scalar_bracket(z, p)
        assert isinstance(bracket(zs[0], p), complex)


def test_builder_errors_keep_their_order_and_messages():
    p2, p3 = params(2, 5), params(3, 5)
    singular = WeightPoint.integer((0, 0))
    # rank mismatch first, even at a pole and a singular point
    for build in (lambda: r_matrix(1.0, singular, p3),
                  lambda: r_reg1([singular], p3)[0],
                  lambda: r_minus1([singular], p3)[0]):
        with pytest.raises(ValueError, match="rank"):
            build()
    with pytest.raises(NearPole, match=r"denominator \[1-z\] has modulus"):
        r_matrix(1.0, singular, p2)
    half = EllipticParams(tau=TAU, gamma=0.5, rank=2)
    with pytest.raises(NearPole, match=r"denominator \[2\] has modulus"):
        r_minus1([singular], half)[0]
    for coords, pair in (((0, 0, 0), "1-a_2"), ((1, 0, 0), "2-a_3"),
                         ((1, 2, 1), "1-a_3")):
        a = WeightPoint.integer(coords)
        for build in (lambda: r_matrix(0.3, a, p3), lambda: r_reg1([a], p3)[0],
                      lambda: r_minus1([a], p3)[0]):
            with pytest.raises(NearPole, match=rf"denominator \[a_{pair}\]"):
                build()
        # in a table, behind regular points
        regular = rsos_alcove(3, 5)
        with pytest.raises(NearPole, match=rf"denominator \[a_{pair}\]"):
            r_table(0.3, regular + [a] + regular, p3)
    # two singular points with different pairs behind regular rows: the
    # earlier row names its pair, though the later one's comes first in
    # pair order
    regular = rsos_alcove(3, 5)
    first, second = WeightPoint.integer((1, 0, 0)), WeightPoint.integer((0, 0, 0))
    for pair, rows in (("2-a_3", [first, second]), ("1-a_2", [second, first])):
        for build in (lambda: r_table(0.3, regular + rows, p3),
                      lambda: r_reg1(regular + rows, p3),
                      lambda: r_minus1(regular + rows, p3)):
            with pytest.raises(NearPole, match=rf"denominator \[a_{pair}\]"):
                build()


def test_table_makes_one_bracket_call(monkeypatch):
    import rsoskit.elliptic as el
    calls = []
    real = el.bracket
    monkeypatch.setattr(el, "bracket",
                        lambda z, p: calls.append(np.size(z)) or real(z, p))
    p, points = params(3, 7), rsos_alcove(3, 7)
    diffs = {a.diff(i, j) for a in points for i in range(1, 4)
             for j in range(1, 4) if i != j}
    assert r_table(0.3, points, p).shape == (len(points), 9, 9)
    # one call, each distinct argument once: [z], [1], [1-z], and [d],
    # [d+1], [d+z] per distinct difference d
    args = {0.3, 1, 1 - 0.3} | {w for d in diffs for w in (d, d + 1, d + 0.3)}
    assert calls == [len(args)] and len(args) < 3 + 3 * len(diffs)
    # one z per row: the extras per z and [d+z] per distinct (d, z)
    del calls[:]
    zs = [(0.3, 0.17 + 0.05j)[k % 2] for k in range(len(points))]
    assert r_table(zs, points, p).shape == (len(points), 9, 9)
    args = ({w for z in zs for w in (z, 1, 1 - z)}
            | {w for d in diffs for w in (d, d + 1)}
            | {a.diff(i, j) + z for a, z in zip(points, zs)
               for i in range(1, 4) for j in range(1, 4) if i != j})
    assert calls == [len(args)]
    assert r_table(0.3, [], p).shape == (0, 9, 9)
    assert r_table([], [], p).shape == (0, 9, 9)
    with pytest.raises(ValueError, match="one spectral parameter per point"):
        r_table([0.3], points[:2], p)


@pytest.mark.parametrize("n,r", [(2, 5), (3, 7)])
def test_mixed_spectral_table_rows_equal_one_point_matrices(n, r):
    rng = random.Random(5 * n + r)
    p = params(n, r)
    points = list(rsos_alcove(n, r)) + [_generic_point(rng, n, r)
                                        for _ in range(4)]
    spectral = (0.3, 0.17 + 0.05j, -0.42 + 0.11j, 1.0 + 1e-5)
    zs = [rng.choice(spectral) for _ in points]
    table = r_table(zs, points, p)
    for z, a, m in zip(zs, points, table):
        assert np.array_equal(m, r_matrix(z, a, p))


@pytest.mark.parametrize("n,r", [(2, 5), (3, 7), (4, 6)])
def test_stacked_table_equals_per_row_build(n, r, monkeypatch):
    # the table of a batch of spectral parameters repeats every point once
    # per parameter: each row equals its one-row build bit for bit, and the
    # coordinates behind the differences a_i - a_j are read once per
    # distinct point
    p, points = params(n, r), rsos_alcove(n, r)
    zs = (0.3, 0.17 + 0.05j, -0.42 + 0.11j, 0.6 + 0.02j)
    rows = [(z, a) for z in zs for a in points]
    want = [r_table(z, [a], p)[0] for z, a in rows]
    reads = []
    real = WeightPoint.values
    monkeypatch.setattr(WeightPoint, "values",
                        lambda a: reads.append(a) or real(a))
    table = r_table(*zip(*rows), p)
    assert len(reads) == len(points)
    assert all(np.array_equal(m, w) for m, w in zip(table, want))


def test_theta_on_thousands_of_entries_equals_scalar_calls():
    rng = random.Random(41)
    zs = [complex(rng.uniform(-3, 3), rng.uniform(-12.0, 12.0))
          for _ in range(2400)]
    for tau in (TAU, 0.3 + 0.9j):
        # several series cuts, so several groups are summed
        assert len({_scalar_truncation(z, tau) for z in zs}) > 3
        out = theta(zs, tau)
        assert all(v == theta(z, tau) for z, v in zip(zs, out.tolist()))


def test_batched_unitarity_is_the_max_of_one_point_calls(monkeypatch):
    p = params(3, 7)
    rng = random.Random(8)
    points = rsos_alcove(3, 7)
    zs = [complex(rng.uniform(0.1, 0.6), rng.uniform(0.0, 0.2))
          for _ in range(40)]
    samples = [(z, rng.choice(points)) for z in zs]
    whole = unitarity_residual(samples, p)
    assert whole == max(unitarity_residual([s], p) for s in samples)
    calls = []
    real = elliptic.r_table
    monkeypatch.setattr(elliptic, "r_table",
                        lambda z, pts, q: calls.append(len(pts)) or real(z, pts, q))
    # runs of 1, 3 and 7 samples: each a table of its rows at z and -z
    for per_run in (1, 3, 7):
        monkeypatch.setattr(elliptic, "TABLE_BUDGET", per_run * 2 * 3 ** 4)
        del calls[:]
        assert unitarity_residual(samples, p) == whole
        assert len(calls) == math.ceil(len(zs) / per_run)
        assert max(calls) == 2 * per_run


def _ybe_cost(n):
    # a sample's 3 (n + 1) table rows and the four n^3 x n^3 operators alive
    # at once
    return 3 * (n + 1) * n ** 4 + 4 * n ** 6


def test_batched_dybe_is_the_max_of_one_sample_calls(monkeypatch):
    n, r = 3, 7
    p = params(n, r)
    rng = random.Random(9)
    samples = [(complex(rng.uniform(0.1, 0.6), rng.uniform(0.0, 0.2)),
                complex(rng.uniform(0.1, 0.6), rng.uniform(0.0, 0.2)),
                _generic_point(rng, n, r)) for _ in range(20)]
    whole = dynamical_ybe_residual(samples, p)
    assert whole == max(dynamical_ybe_residual([s], p) for s in samples)
    calls = []
    real = elliptic.r_table
    monkeypatch.setattr(elliptic, "r_table",
                        lambda z, pts, q: calls.append(len(pts)) or real(z, pts, q))
    assert dynamical_ybe_residual(samples, p) == whole
    assert calls == [3 * (n + 1) * len(samples)]
    # runs of 1, 3 and 7 samples: each one table of its samples' rows
    for per_run in (1, 3, 7):
        monkeypatch.setattr(elliptic, "TABLE_BUDGET", per_run * _ybe_cost(n))
        del calls[:]
        assert dynamical_ybe_residual(samples, p) == whole
        assert len(calls) == math.ceil(len(samples) / per_run)
        assert max(calls) == 3 * (n + 1) * per_run


def test_dybe_tables_one_sample_per_run_from_rank_7(monkeypatch):
    # the operators of two samples at n = 7 would exceed TABLE_BUDGET
    assert elliptic.TABLE_BUDGET // _ybe_cost(7) == 1
    n, r = 7, 14
    p = params(n, r)
    rng = random.Random(2)
    samples = [(0.3 + 0.1j, 0.2 + 0.05j, _generic_point(rng, n, r)),
               (0.45 + 0.02j, 0.15, _generic_point(rng, n, r))]
    calls = []
    real = elliptic.r_table
    monkeypatch.setattr(elliptic, "r_table",
                        lambda z, pts, q: calls.append(len(pts)) or real(z, pts, q))
    assert dynamical_ybe_residual(samples, p) < 1e-9
    assert calls == [3 * (n + 1)] * 2
    # one sample's traced peak is its cost in complex entries, near enough
    tracemalloc.start()
    try:
        dynamical_ybe_residual(samples[:1], p)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 1.01 * 16 * _ybe_cost(n)


def test_dybe_sample_over_its_budget_is_refused_before_any_table(monkeypatch):
    # (12,13) still runs; at (20,21) one sample's four operators alone are
    # 4 * 20^6 complex entries (3.8 GiB)
    assert _ybe_cost(12) <= elliptic.YBE_SAMPLE_BUDGET < _ybe_cost(20)

    def no_table(*args):
        raise AssertionError("a table was built")

    monkeypatch.setattr(elliptic, "r_table", no_table)
    with pytest.raises(TooLarge, match=r"^YBE_SAMPLE_BUDGET: 266080000 complex "
                       r"entries per Yang-Baxter sample requested, limit "):
        dybe_suite(RunConfig(n=20, r=21))


@pytest.mark.parametrize("n,r", [(2, 5), (3, 7)])
def test_dybe_near_pole_replays_the_per_sample_draws(n, r, monkeypatch):
    # one point draw is the singular a = 0, where [a_1 - a_2] = 0: the suite
    # replays its draws one sample at a time, as a per-sample loop does,
    # redrawing that point
    config = RunConfig(n=n, r=r, seed=4)
    probe = suites._PointSampler(config)
    for _ in range(5):
        probe.spectral_pair()
        target = probe.generic_point(n)
    singular = WeightPoint.integer((0,) * n)
    real = suites._PointSampler.generic_point
    samplers, hits = [], []

    def generic_point(self, n):
        samplers.append(self)
        a = real(self, n)
        if a == target:
            hits.append(a)
            return singular
        return a

    monkeypatch.setattr(suites._PointSampler, "generic_point", generic_point)
    [case] = dybe_suite(config)
    assert len(hits) == 2  # the batched draw and its replay
    p = config.params()
    reference = suites._PointSampler(config)
    worst = 0.0
    for _ in range(suites.DYBE_SAMPLES):
        z, w = reference.spectral_pair()
        for _ in range(8):
            try:
                a = reference.generic_point(n)
                worst = max(worst, dynamical_ybe_residual([(z, w, a)], p))
                break
            except NearPole:
                continue
    assert len(hits) == 3
    assert case.name == f"dybe-n{n}-r{r}" and case.residual == worst
    assert samplers[0] is not reference
    assert samplers[0].rng.random() == reference.rng.random()


def test_theta_and_bracket_against_mpmath_jtheta():
    mp = pytest.importorskip("mpmath")
    rng = random.Random(23)
    worst = 0.0
    with mp.workdps(30):
        for tau in (0.8j, 0.3 + 0.9j, 1.2j):
            q = mp.exp(1j * mp.pi * tau)
            dz0 = complex(mp.pi * mp.jtheta(1, 0, q, 1))
            worst = max(worst, abs(theta_dz0(tau) - dz0) / abs(dz0))
            p = EllipticParams(tau=tau, gamma=0.2, rank=2)
            for _ in range(50):
                z = complex(rng.uniform(-1.5, 1.5), rng.uniform(-1, 1))
                ref = complex(mp.jtheta(1, mp.pi * z, q))
                worst = max(worst, abs(theta(z, tau) - ref) / abs(ref))
                # theta(z+1) = -theta(z)
                # theta(z+tau) = -exp(-i pi tau - 2 pi i z) theta(z)
                worst = max(worst, abs(theta(z + 1, tau) + ref) / abs(ref))
                shifted = -cmath.exp(-1j * cmath.pi * tau - 2j * cmath.pi * z) * ref
                worst = max(worst, abs(theta(z + tau, tau) - shifted) / abs(shifted))
                u = 5 * z
                ref_br = complex(mp.jtheta(1, mp.pi * p.gamma * u, q)) / (p.gamma * dz0)
                worst = max(worst, abs(bracket(u, p) - ref_br) / abs(ref_br))
    assert worst < 1e-14


def test_pole_distance_is_the_stepwise_minimum_bit_for_bit():
    sampler = suites._PointSampler(RunConfig(n=2, r=5))

    def stepwise(z):
        best = float("inf")
        for sign in (1.0, -1.0):
            w = z - sign
            for c in sampler._lattice:
                best = min(best, abs(w - c))
        return best

    rng = random.Random(3)
    poles = [sign + c for sign in (1.0, -1.0) for c in sampler._lattice]
    zs = [complex(rng.uniform(-12.0, 12.0), rng.uniform(-9.0, 9.0))
          for _ in range(1500)]
    zs += [rng.choice(poles) + complex(rng.uniform(-7e-4, 7e-4),
                                       rng.uniform(-7e-4, 7e-4))
           for _ in range(500)]
    distances = [sampler._pole_distance(z) for z in zs]
    assert [d.hex() for d in distances] == [stepwise(z).hex() for z in zs]
    assert sum(d < 1e-3 for d in distances) == 500
