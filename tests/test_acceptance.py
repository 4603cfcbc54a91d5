"""Acceptance criteria: each test exercises one criterion at its stated
tolerance and prints a single PASS/FAIL line."""

import json
import math

import numpy as np

from rsoskit.cli import build_parser, run_compute, run_verify
from rsoskit.convolution import character, to_difference_operator
from rsoskit.elliptic import EllipticParams, r_reg1, residue_extrapolation
from rsoskit.fusion import verify_spectrum
from rsoskit.groupoid import rsos_alcove
from rsoskit.rsos import ModelKind, build_vector_space, restriction_residual
from rsoskit.suites import RunConfig, run_suite
from rsoskit.transfer import (commutator_residual, partition_enumerate,
                              partition_via_transfer, vector_chain)

TAU = 0.8j


def _report(name: str, worst: float, tol: float) -> float:
    status = "PASS" if worst <= tol else "FAIL"
    print(f"[{status}] {name}: residual {worst:.3e} (tolerance {tol:.1e})")
    return worst


def test_criterion_01_theta_and_bracket():
    cases = run_suite("theta", RunConfig(n=2, r=5, tau=TAU, seed=1))
    worst_by_tol = {}
    for c in cases:
        worst_by_tol[c.tolerance] = max(worst_by_tol.get(c.tolerance, 0.0),
                                        c.residual)
    worst = max(c.residual / c.tolerance for c in cases)
    _report("theta/bracket suite (odd, quasi-periodic, derivative, zeros)",
            worst, 1.0)
    assert all(c.passed for c in cases), [c.name for c in cases if not c.passed]


def test_criterion_02_unitarity():
    worst = 0.0
    for n, r in ((2, 5), (3, 5), (3, 7)):
        cases = run_suite("unitarity", RunConfig(n=n, r=r, tau=TAU, seed=2))
        worst = max(worst, *(c.residual for c in cases))
    _report("unitarity over (2,5),(3,5),(3,7), 100 samples each", worst, 1e-9)
    assert worst < 1e-9


def test_criterion_03_dynamical_ybe():
    worst = 0.0
    for n, r in ((2, 5), (3, 5), (3, 7)):
        base = (0.29, 0.11, 0.0) if n == 3 else None
        cfg = RunConfig(n=n, r=r, tau=TAU, seed=3, base_b=base)
        cases = run_suite("dybe", cfg)
        worst = max(worst, *(c.residual for c in cases))
    _report("dynamical Yang-Baxter (relative), 20 samples/config + "
            "generic-base variant", worst, 1e-10)
    assert worst < 1e-10


def test_criterion_04_restriction_and_star_triangle():
    worst_forbidden = 0.0
    for n, r in ((2, 4), (2, 5), (3, 5), (3, 6)):
        params = EllipticParams.rsos(n, r, TAU)
        kind = ModelKind.rsos(n, r)
        worst_forbidden = max(worst_forbidden,
                              restriction_residual([0.31 + 0.07j], kind, params))
    _report("restriction: forbidden components, exhaustive over 4 alcoves",
            worst_forbidden, 1e-12)
    worst_st = 0.0
    for n, r in ((2, 4), (2, 5), (3, 5), (3, 6)):
        cases = run_suite("star-triangle", RunConfig(n=n, r=r, tau=TAU, seed=4))
        worst_st = max(worst_st, *(c.residual for c in cases))
    _report("restricted star-triangle, 10 random spectral pairs per alcove",
            worst_st, 1e-9)
    assert worst_forbidden < 1e-12 and worst_st < 1e-9


def test_criterion_05_rank2_boltzmann_table():
    import random
    from rsoskit.elliptic import bracket, r_matrix
    from rsoskit.groupoid import WeightPoint
    params = EllipticParams.rsos(2, 5, TAU)
    rng = random.Random(5)
    worst = 0.0
    for _ in range(10):
        z = complex(rng.uniform(0.1, 0.6), rng.uniform(0.0, 0.2))
        l = rng.choice([1, 2, 3, 4])
        br = lambda u: bracket(u, params)
        den = br(l) * br(1 - z)
        expected = np.array([
            [1, 0, 0, 0],
            [0, br(l + z) * br(1) / den, -br(l + 1) * br(z) / den, 0],
            [0, -br(l - 1) * br(z) / den, br(l - z) * br(1) / den, 0],
            [0, 0, 0, 1]])
        got = r_matrix(z, WeightPoint.from_level_coordinate(l), params)
        worst = max(worst, float(np.abs(got - expected).max()))
    _report("rank-2 Boltzmann table vs displayed 4x4 matrix", worst, 1e-10)
    assert worst < 1e-10


def test_criterion_06_exactness_and_residue():
    worst = 0.0
    dims_ok = True
    for n, r in ((2, 5), (3, 5), (3, 6)):
        cfg = RunConfig(n=n, r=r, tau=TAU, seed=6)
        for c in run_suite("exactness", cfg):
            if c.name.startswith("exactness"):
                worst = max(worst, c.residual)
            elif c.name == "kernel-dims-match-characters":
                dims_ok = dims_ok and c.residual == 0.0
    _report("exactness im/ker + case-list dimensions, 3 alcoves", worst, 1e-8)
    residue_rel = 0.0
    for n, r in ((2, 5), (3, 5)):
        params = EllipticParams.rsos(n, r, TAU)
        for a in rsos_alcove(n, r):
            reg = r_reg1([a], params)[0]
            oracle = residue_extrapolation([a], params)[0]
            residue_rel = max(residue_rel,
                              float(np.abs(reg - oracle).max()
                                    / np.abs(reg).max()))
    _report("residue of the R-matrix at z=1 vs Richardson oracle",
            residue_rel, 1e-6)
    assert worst < 1e-8 and dims_ok and residue_rel < 1e-6


def test_criterion_07_character_ring():
    cases = run_suite("characters", RunConfig(n=2, r=5, tau=TAU, seed=7))
    cases += run_suite("characters", RunConfig(n=3, r=5, tau=TAU, seed=7))
    worst = max(c.residual for c in cases)
    _report("character ring: multiplicativity, squares, associativity, "
            "involution (exact)", worst, 0.0)
    assert worst == 0.0


def test_criterion_08_verlinde_tables():
    failures = 0
    for r in (4, 5, 6):
        cases = run_suite("fusion", RunConfig(n=2, r=r, tau=TAU, seed=8))
        failures += sum(c.residual for c in cases)
    _report("Verlinde tables r in {4,5,6}: rules, symmetry, associativity "
            "(exact)", failures, 0.0)
    assert failures == 0


def test_criterion_09_spectrum():
    worst = 0.0
    for n, r in ((2, 5), (2, 7), (3, 5)):
        for rep in verify_spectrum(range(1, n), n, r):
            worst = max(worst, rep.max_residual)
    golden = (1 + math.sqrt(5)) / 2
    [rep] = verify_spectrum([1], 2, 5)
    eigs = [e.real for e in rep.eigenvalues]
    dense = np.sort(np.linalg.eigvalsh(to_difference_operator(
        character(build_vector_space(ModelKind.rsos(2, 5))),
        rsos_alcove(2, 5)).matrix().astype(float)))
    gap = float(np.abs(dense - np.sort(eigs)).max())
    golden_err = min(abs(e - golden) for e in eigs)
    _report("spectrum: eigenfunction residuals, 3 configs", worst, 1e-10)
    _report("spectrum: dense eigensolver agreement incl. golden ratio",
            max(gap, golden_err), 1e-10)
    assert worst < 1e-10 and gap < 1e-10 and golden_err < 1e-10


def test_criterion_10_commuting_transfer_matrices():
    import random
    rng = random.Random(10)
    kind = ModelKind.rsos(2, 5)
    params = EllipticParams.rsos(2, 5, TAU)
    chains = (vector_chain(kind, params, (0.0, 0.3)),
              vector_chain(kind, params, (0.0, 0.3, 0.7)))
    worst = 0.0
    for L in chains:
        pairs = [tuple(complex(rng.uniform(0.1, 0.6), rng.uniform(0, 0.2))
                       for _ in range(2)) for _ in range(5)]
        worst = max(worst, commutator_residual(L, pairs))
    _report("commuting transfer matrices, 5 random pairs per chain",
            worst, 1e-8)
    assert worst < 1e-8


def test_criterion_11_partition_oracle():
    worst = 0.0
    for n, r in ((2, 4), (2, 5)):
        kind = ModelKind.rsos(n, r)
        params = EllipticParams.rsos(n, r, TAU)
        for cols in range(1, 13):
            for rows in range(1, 12 // cols + 1):
                z_en = partition_enumerate(rows, cols, 0.3, kind, params)
                z_tm = partition_via_transfer(rows, cols, 0.3, kind, params)
                worst = max(worst, abs(z_en - z_tm) / max(1.0, abs(z_en)))
    _report("partition function: row-to-row oracle vs graded transfer on "
            "all tori with <= 12 faces", worst, 1e-9)
    dim = partition_enumerate(0, 2, 0.3, ModelKind.rsos(2, 5),
                              EllipticParams.rsos(2, 5, TAU))
    _report("partition state-space dimension (c=2, n=2, r=5) equals 6",
            abs(dim - 6), 0.0)
    assert worst < 1e-9 and dim == 6


def test_criterion_12_cli_determinism(tmp_path):
    cfg = RunConfig(n=2, r=5, tau=TAU, seed=12)
    first = json.dumps(run_verify("theta", cfg), indent=2, sort_keys=True)
    second = json.dumps(run_verify("theta", cfg), indent=2, sort_keys=True)
    parser = build_parser()
    args = parser.parse_args(["compute", "spectrum", "--n", "2", "--r", "5",
                              "--k", "1"])
    text1 = run_compute("spectrum", args, cfg)
    text2 = run_compute("spectrum", args, cfg)
    identical = first == second and text1 == text2
    _report("CLI determinism: byte-identical reports and tables",
            0.0 if identical else 1.0, 0.0)
    assert identical
    assert "1.6180339887" in text1
