"""Verification suites: named bundles of residual checks with pinned
tolerances, shared by the command line and the acceptance tests.

Exact integer identities report the number of failing identities as the
residual with tolerance 0; numerical checks report a max-norm residual.
"""

from __future__ import annotations

import cmath
import random
from dataclasses import dataclass

import numpy as np

from . import convolution as cv
from . import elliptic as el
from . import fusion as fu
from . import rsos
from . import transfer as tr
from .errors import InvalidConfig, NearPole, UnknownSuite
from .graded import tensor_space
from .groupoid import Arrow, WeightPoint, eps, rsos_alcove

SUITE_NAMES = ("theta", "unitarity", "dybe", "star-triangle", "restriction",
               "exactness", "transfer-commute", "characters", "fusion",
               "spectrum", "partition", "all")


@dataclass(frozen=True)
class RunConfig:
    n: int = 2
    r: int = 5
    tau: complex = 0.8j
    gamma_override: complex | None = None
    base_b: tuple[complex, ...] | None = None
    seed: int = 0
    tolerance: float | None = None  # overrides every case tolerance when set

    def __post_init__(self):
        if self.n < 2:
            raise InvalidConfig("rank must be >= 2")
        if self.r <= self.n:
            raise InvalidConfig("level r must exceed the rank")
        if complex(self.tau).imag <= 0:
            raise InvalidConfig("Im tau must be positive")
        if self.tolerance is not None and self.tolerance <= 0:
            raise InvalidConfig("tolerance must be positive")
        if self.base_b is not None and len(self.base_b) != self.n:
            raise InvalidConfig(
                f"base point needs {self.n} coordinates, got {len(self.base_b)}")

    def params(self) -> el.EllipticParams:
        if self.gamma_override is not None:
            return el.EllipticParams(tau=self.tau, gamma=self.gamma_override,
                                     rank=self.n)
        return el.EllipticParams.rsos(self.n, self.r, self.tau)

    def kind(self) -> rsos.ModelKind:
        return rsos.ModelKind.rsos(self.n, self.r)

    def to_json_dict(self) -> dict:
        return {
            "n": self.n, "r": self.r,
            "tau": [self.tau.real, self.tau.imag],
            "gamma": None if self.gamma_override is None
            else [self.gamma_override.real, self.gamma_override.imag],
            "base_b": None if self.base_b is None
            else [[b.real, b.imag] for b in self.base_b],
            "seed": self.seed,
            "tolerance": self.tolerance,
        }


@dataclass
class Case:
    name: str
    residual: float
    tolerance: float

    @property
    def passed(self) -> bool:
        return self.residual <= self.tolerance


def _apply_override(cases: list[Case], config: RunConfig) -> list[Case]:
    if config.tolerance is None:
        return cases
    return [Case(c.name, c.residual, config.tolerance) for c in cases]


class _PointSampler:
    """Seeded spectral/dynamical point generator avoiding the pole set."""

    def __init__(self, config: RunConfig):
        self.rng = random.Random(config.seed)
        self.config = config
        self.r = config.r

    def spectral(self) -> complex:
        while True:
            z = complex(self.rng.uniform(0.1, 0.6), self.rng.uniform(0.0, 0.2))
            if self._pole_distance(z) > 1e-3:
                return z

    def spectral_pair(self) -> tuple[complex, complex]:
        while True:
            z, w = self.spectral(), self.spectral()
            if self._pole_distance(z - w) > 1e-3:
                return z, w

    def _pole_distance(self, z: complex) -> float:
        tau = self.config.tau
        best = float("inf")
        for sign in (1.0, -1.0):
            for k in range(-2, 3):
                for l in range(-2, 3):
                    best = min(best, abs(z - sign - self.r * (k + l * tau)))
        return best

    def alcove_point(self, points: list[WeightPoint]) -> WeightPoint:
        return self.rng.choice(points)

    def generic_point(self, n: int) -> WeightPoint:
        """Integer alcove offset plus a generic complex base jitter, so all
        shifted arguments stay off the singular set."""
        base = tuple(complex(self.rng.uniform(0.05, 0.45),
                             self.rng.uniform(0.0, 0.1))
                     for _ in range(n - 1)) + (0.0,)
        offset = tuple(self.rng.randrange(0, self.r) for _ in range(n - 1)) + (0,)
        return WeightPoint(base=base, offset=offset)


def theta_suite(config: RunConfig, samples: int = 50) -> list[Case]:
    tau = config.tau
    sampler = _PointSampler(config)
    rng = sampler.rng
    odd = qp_one = qp_tau = 0.0
    for _ in range(samples):
        z = complex(rng.uniform(-1.0, 1.0), rng.uniform(-0.2, 0.2))
        odd = max(odd, abs(el.theta(-z, tau) + el.theta(z, tau)))
        qp_one = max(qp_one, abs(el.theta(z + 1, tau) + el.theta(z, tau)))
        factor = -cmath.exp(-1j * cmath.pi * tau - 2j * cmath.pi * z)
        qp_tau = max(qp_tau, abs(el.theta(z + tau, tau)
                                 - factor * el.theta(z, tau)))
    params = config.params()
    h = 1e-5
    deriv = abs((el.bracket(h, params) - el.bracket(-h, params)) / (2 * h) - 1)
    cases = [
        Case("theta-odd", odd, 1e-12),
        Case("theta-period-one", qp_one, 1e-12),
        Case("theta-period-tau", qp_tau, 1e-12),
        Case("theta-zero-at-origin", abs(el.theta(0.0, tau)), 1e-14),
        Case("bracket-derivative-one", float(deriv), 1e-8),
        Case("bracket-zero-at-r",
             abs(el.bracket(1.0 / params.gamma, params)), 1e-12),
    ]
    return _apply_override(cases, config)


def unitarity_suite(config: RunConfig, samples: int = 100) -> list[Case]:
    params = config.params()
    sampler = _PointSampler(config)
    points = rsos_alcove(config.n, config.r)
    worst = 0.0
    for _ in range(samples):
        z = sampler.spectral()
        a = sampler.alcove_point(points)
        worst = max(worst, el.unitarity_residual(z, a, params))
    return _apply_override(
        [Case(f"unitarity-n{config.n}-r{config.r}", worst, 1e-9)], config)


def dybe_suite(config: RunConfig, samples: int = 20) -> list[Case]:
    params = config.params()
    sampler = _PointSampler(config)
    worst = 0.0
    for _ in range(samples):
        z, w = sampler.spectral_pair()
        for _ in range(8):
            try:
                a = sampler.generic_point(config.n)
                worst = max(worst, el.dynamical_ybe_residual(z, w, a, params))
                break
            except NearPole:
                continue
    cases = [Case(f"dybe-n{config.n}-r{config.r}", worst, 1e-9)]
    if config.base_b is not None:
        b = WeightPoint(base=tuple(config.base_b),
                        offset=(0,) * len(config.base_b))
        sos_worst = 0.0
        for _ in range(max(4, samples // 4)):
            z, w = sampler.spectral_pair()
            sos_worst = max(sos_worst,
                            el.dynamical_ybe_residual(z, w, b, params))
        cases.append(Case("dybe-sos-generic-base", sos_worst, 1e-9))
    return _apply_override(cases, config)


def star_triangle_suite(config: RunConfig, pairs: int = 10) -> list[Case]:
    params = config.params()
    kind = config.kind()
    sampler = _PointSampler(config)
    worst = 0.0
    for _ in range(pairs):
        z, w = sampler.spectral_pair()
        worst = max(worst, rsos.star_triangle_residual(z, w, kind, params))
    cases = [Case(f"star-triangle-n{config.n}-r{config.r}", worst, 1e-9)]
    if config.base_b is not None:
        n = config.n
        b = WeightPoint(base=tuple(config.base_b), offset=(0,) * n)
        window = [b, b + eps(n, 1), b + eps(n, n - 1)]
        sos_kind = rsos.ModelKind.sos(tuple(config.base_b))
        sos_worst = 0.0
        for _ in range(3):
            z, w = sampler.spectral_pair()
            sos_worst = max(sos_worst, rsos.star_triangle_residual(
                z, w, sos_kind, params, points=window))
        cases.append(Case("star-triangle-sos-generic-base", sos_worst, 1e-9))
    return _apply_override(cases, config)


def restriction_suite(config: RunConfig, samples: int = 3) -> list[Case]:
    params = config.params()
    kind = config.kind()
    sampler = _PointSampler(config)
    worst = 0.0
    for _ in range(samples):
        worst = max(worst, rsos.restriction_residual(sampler.spectral(),
                                                     kind, params))
    return _apply_override(
        [Case(f"restriction-n{config.n}-r{config.r}", worst, 1e-12)], config)


def exactness_suite(config: RunConfig) -> list[Case]:
    params = config.params()
    kind = config.kind()
    n, r = config.n, config.r
    sym_char = fu.sym_square_character(n, r)
    ext_char = fu.exterior_character(2, n, r)
    worst = 0.0
    dim_mismatches = 0
    for a in kind.alcove():
        bases = fu.fusion_bases(a, kind, params)
        worst = max(worst, bases.max_residual)
        for sector in bases.sectors:
            arrow = Arrow(a, sector.shift)
            if sector.sym_dim != sym_char.coeff(arrow):
                dim_mismatches += 1
            if sector.antisym_dim != ext_char.coeff(arrow):
                dim_mismatches += 1
    residue_rel = 0.0
    for a in kind.alcove():
        reg = el.r_reg1(a, params).matrix
        oracle = el.residue_extrapolation(a, params)
        residue_rel = max(residue_rel,
                          float(np.abs(reg - oracle).max()
                                / max(np.abs(reg).max(), 1e-30)))
    cases = [
        Case(f"exactness-n{config.n}-r{config.r}", worst, 1e-8),
        Case("kernel-dims-match-characters", float(dim_mismatches), 0.0),
        Case("residue-oracle-relative", residue_rel, 1e-6),
    ]
    return _apply_override(cases, config)


def transfer_commute_suite(config: RunConfig, pairs: int = 5) -> list[Case]:
    params = config.params()
    kind = config.kind()
    sampler = _PointSampler(config)
    chains = {
        "chain-2": tr.vector_chain(kind, params, (0.0, 0.3)),
        "chain-3": tr.vector_chain(kind, params, (0.0, 0.3, 0.7)),
    }
    cases = []
    for name, L in chains.items():
        worst = 0.0
        for _ in range(pairs):
            z, w = sampler.spectral_pair()
            worst = max(worst, tr.commutator_residual(L, z, w))
        cases.append(Case(f"transfer-commute-{name}", worst, 1e-8))
    return _apply_override(cases, config)


def _random_element(rng: random.Random, ctx, points, n: int,
                    n_terms: int = 4) -> cv.ConvolutionElement:
    coeffs = {}
    inside = set(points)
    for _ in range(n_terms):
        a = rng.choice(points)
        mu = tuple(rng.randrange(-1, 2) for _ in range(n))
        if (a + mu) in inside:
            coeffs[Arrow(a, mu)] = rng.randrange(-3, 4)
    return cv.ConvolutionElement(ctx, coeffs)


def _random_graded_space(rng: random.Random, ctx, points, n: int,
                         n_arrows: int = 5):
    dims = {}
    inside = set(points)
    for _ in range(n_arrows):
        a = rng.choice(points)
        mu = tuple(rng.randrange(-1, 2) for _ in range(n))
        if (a + mu) in inside:
            dims[Arrow(a, mu)] = rng.randrange(1, 4)
    if not dims:
        a = points[0]
        dims[Arrow(a, (0,) * n)] = 1
    from .graded import GradedSpace
    return GradedSpace.from_dims(ctx, dims)


def characters_suite(config: RunConfig, samples: int = 100) -> list[Case]:
    n, r = config.n, config.r
    kind = config.kind()
    ctx = kind.context()
    points = kind.alcove()
    V = rsos.build_vector_space(kind)
    failures = 0
    # character is a ring map on tensor squares of the vector space
    chv = cv.character(V)
    if cv.character(tensor_space(V, V)) != cv.conv_mul(chv, chv):
        failures += 1
    if cv.conv_mul(chv, chv) != (fu.exterior_character(2, n, r)
                                 + fu.sym_square_character(n, r)):
        failures += 1
    # closed forms of the square characters
    if fu.exterior_character(0, n, r) != cv.chi(ctx, points):
        failures += 1
    rng = random.Random(config.seed)
    # ch(V (x) W) = ch V * ch W on random graded spaces
    for _ in range(5):
        v1 = _random_graded_space(rng, ctx, points, n)
        v2 = _random_graded_space(rng, ctx, points, n)
        if cv.character(tensor_space(v1, v2)) != cv.conv_mul(
                cv.character(v1), cv.character(v2)):
            failures += 1
    assoc = anti = 0
    for _ in range(samples):
        x = _random_element(rng, ctx, points, n)
        y = _random_element(rng, ctx, points, n)
        z = _random_element(rng, ctx, points, n)
        if cv.conv_mul(cv.conv_mul(x, y), z) != cv.conv_mul(x, cv.conv_mul(y, z)):
            assoc += 1
        if cv.involution(cv.conv_mul(x, y)) != cv.conv_mul(
                cv.involution(y), cv.involution(x)):
            anti += 1
    cases = [
        Case("character-ring-map", float(failures), 0.0),
        Case("convolution-associativity", float(assoc), 0.0),
        Case("involution-antihomomorphism", float(anti), 0.0),
    ]
    return _apply_override(cases, config)


def fusion_suite(config: RunConfig) -> list[Case]:
    r = config.r
    report = fu.verify_fusion_rules(r)
    labels = range(r - 1)
    sym = sum(1 for p in labels for q in labels for s in labels
              if fu.fusion_coeff(p, q, s, r) != fu.fusion_coeff(q, p, s, r))
    assoc = 0
    chars = {p: fu.sym_power_character_n2(p, r) for p in labels}
    # (L_p L_q) L_s against L_p (L_q L_s) for every triple; each pair product
    # is built once, and only the r - 1 products L_q L_s are held at a time
    for q in labels:
        qs = [cv.conv_mul(chars[q], chars[s]) for s in labels]
        for p in labels:
            pq = cv.conv_mul(chars[p], chars[q])
            for s in labels:
                if cv.conv_mul(pq, chars[s]) != cv.conv_mul(chars[p], qs[s]):
                    assoc += 1
    cases = [
        Case(f"fusion-rules-r{r}", float(len(report.mismatches)), 0.0),
        Case("verlinde-symmetry", float(sym), 0.0),
        Case("verlinde-associativity", float(assoc), 0.0),
    ]
    return _apply_override(cases, config)


def spectrum_suite(config: RunConfig) -> list[Case]:
    n, r = config.n, config.r
    cases = []
    for k in range(1, n):
        rep = fu.verify_spectrum(k, n, r)
        cases.append(Case(f"spectrum-k{k}", rep.max_residual, 1e-10))
    if n == 2:
        points = rsos_alcove(2, r)
        adj = cv.to_difference_operator(
            cv.character(rsos.build_vector_space(config.kind())), points)
        eigs = np.sort(np.linalg.eigvalsh(adj.matrix().astype(float)))
        expected = np.sort([2 * np.cos(np.pi * l / r) for l in range(1, r)])
        rep = fu.verify_spectrum(1, 2, r)
        analytic = np.sort([e.real for e in rep.eigenvalues])
        cases.append(Case("spectrum-dense-eigensolver",
                          float(np.abs(eigs - expected).max()
                                + np.abs(analytic - expected).max()), 1e-10))
    return _apply_override(cases, config)


def partition_suite(config: RunConfig, max_faces: int = 12) -> list[Case]:
    params = config.params()
    kind = config.kind()
    worst = 0.0
    for cols in range(1, max_faces + 1):
        for m in range(1, max_faces // cols + 1):
            z_en = tr.partition_enumerate(m, cols, 0.3, kind, params)
            z_tm = tr.partition_via_transfer(m, cols, 0.3, kind, params)
            worst = max(worst, abs(z_en - z_tm) / max(1.0, abs(z_en)))
    dim_en = tr.partition_enumerate(0, 2, 0.3, kind, params)
    dim_tm = tr.partition_via_transfer(0, 2, 0.3, kind, params)
    cases = [
        Case(f"partition-oracle-n{config.n}-r{config.r}", worst, 1e-9),
        Case("partition-state-dimension", abs(dim_en - dim_tm), 0.0),
    ]
    return _apply_override(cases, config)


_SUITES = {
    "theta": theta_suite,
    "unitarity": unitarity_suite,
    "dybe": dybe_suite,
    "star-triangle": star_triangle_suite,
    "restriction": restriction_suite,
    "exactness": exactness_suite,
    "transfer-commute": transfer_commute_suite,
    "characters": characters_suite,
    "fusion": fusion_suite,
    "spectrum": spectrum_suite,
    "partition": partition_suite,
}


def run_suite(name: str, config: RunConfig) -> list[Case]:
    if name == "all":
        cases = []
        for key in SUITE_NAMES[:-1]:
            cases.extend(_SUITES[key](config))
        return cases
    if name not in _SUITES:
        raise UnknownSuite(f"unknown suite {name!r}; choose from {SUITE_NAMES}")
    return _SUITES[name](config)

