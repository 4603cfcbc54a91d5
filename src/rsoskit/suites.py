"""Verification suites: named bundles of residual checks with pinned
tolerances, shared by the command line and the acceptance tests.

Exact integer identities report the number of failing identities as the
residual with tolerance 0; numerical checks report a max-norm residual.
"""

from __future__ import annotations

import cmath
import itertools
import random
from dataclasses import dataclass, field

import numpy as np

from . import convolution as cv
from . import elliptic as el
from . import fusion as fu
from . import rsos
from . import transfer as tr
from .errors import InvalidConfig, NearPole, UnknownSuite
from .graded import GradedSpace, tensor_space
from .groupoid import Arrow, WeightPoint, eps

THETA_SAMPLES = 50
UNITARITY_SAMPLES = 100
DYBE_SAMPLES = 20
STAR_TRIANGLE_PAIRS = 10
RESTRICTION_SAMPLES = 3
TRANSFER_PAIRS = 5
CHARACTER_SAMPLES = 100
ELEMENT_TERMS = 4  # arrow draws per random convolution element
SPACE_ARROWS = 5  # arrow draws per random graded space
PARTITION_MAX_FACES = 12


@dataclass(frozen=True)
class RunConfig:
    n: int = 2
    r: int = 5
    tau: complex = 0.8j
    gamma_override: complex | None = None
    base_b: tuple[complex, ...] | None = None
    seed: int = 0
    tolerance: float | None = None  # overrides every case tolerance when set
    # the one model every suite of this run shares, with its path caches
    _kind: rsos.ModelKind = field(init=False, repr=False, compare=False)
    # its modular data, built and checked at the first `params()` call
    _params: el.EllipticParams | None = field(init=False, repr=False,
                                              compare=False, default=None)

    def __post_init__(self):
        object.__setattr__(self, "_kind", rsos.ModelKind.rsos(self.n, self.r))
        if complex(self.tau).imag <= 0:
            raise InvalidConfig("Im tau must be positive")
        if self.tolerance is not None and not 0 < self.tolerance < float("inf"):
            raise InvalidConfig(f"tolerance must be finite and positive, "
                                f"got {self.tolerance}")
        if self.base_b is not None and len(self.base_b) != self.n:
            raise InvalidConfig(
                f"base point needs {self.n} coordinates, got {len(self.base_b)}")

    def params(self) -> el.EllipticParams:
        if self._params is None:
            if self.gamma_override is None:
                params = el.EllipticParams.rsos(self.n, self.r, self.tau)
            else:
                params = el.EllipticParams(tau=self.tau,
                                           gamma=self.gamma_override,
                                           rank=self.n)
            object.__setattr__(self, "_params", params)
        return self._params

    def kind(self) -> rsos.ModelKind:
        return self._kind

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


class _PointSampler:
    """Seeded spectral/dynamical point generator avoiding the pole set."""

    def __init__(self, config: RunConfig):
        self.rng = random.Random(config.seed)
        self.config = config
        self.r = config.r
        # r(k + l tau), |k|, |l| <= 2: the translates of the poles z = +-1
        self._lattice = [self.r * (k + l * config.tau)
                         for k in range(-2, 3) for l in range(-2, 3)]

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
        return min(map(abs, [z - sign - c for sign in (1.0, -1.0)
                             for c in self._lattice]))

    def generic_point(self, n: int) -> WeightPoint:
        """Integer alcove offset plus a generic complex base jitter, so all
        shifted arguments stay off the singular set."""
        base = tuple(complex(self.rng.uniform(0.05, 0.45),
                             self.rng.uniform(0.0, 0.1))
                     for _ in range(n - 1)) + (0.0,)
        offset = tuple(self.rng.randrange(0, self.r) for _ in range(n - 1)) + (0,)
        return WeightPoint(base=base, offset=offset)


def theta_suite(config: RunConfig) -> list[Case]:
    tau = complex(config.tau)
    rng = _PointSampler(config).rng
    # theta(z | tau + 8) = theta(z | tau) and theta(z + 8) = theta(z), so the
    # quasi-period is checked at the reduced tau the series themselves use
    period = el.reduced_tau(tau)
    zs = [complex(rng.uniform(-1.0, 1.0), rng.uniform(-0.2, 0.2))
          for _ in range(THETA_SAMPLES)]
    # one call, before any factor: its TooLarge fires where exp(-i pi tau)
    # overflows; per sample theta at -z, z, z + 1 and z + period, then at 0
    values = el.theta([w for z in zs for w in (-z, z, z + 1, z + period)]
                      + [0.0], tau).tolist()
    odd = qp_one = qp_tau = 0.0
    for k, z in enumerate(zs):
        minus, plus, one, shifted = values[4 * k:4 * k + 4]
        odd = max(odd, abs(minus + plus))
        qp_one = max(qp_one, abs(one + plus))
        factor = -cmath.exp(-1j * cmath.pi * period - 2j * cmath.pi * z)
        expected = factor * plus  # modulus near exp(pi Im tau)
        qp_tau = max(qp_tau, abs(shifted - expected)
                     / max(abs(shifted), abs(expected)))
    params = config.params()
    h = 1e-5
    plus_h, minus_h, at_r = el.bracket([h, -h, 1.0 / params.gamma],
                                       params).tolist()
    deriv = abs((plus_h - minus_h) / (2 * h) - 1)
    return [
        Case("theta-odd", odd, 1e-12),
        Case("theta-period-one", qp_one, 1e-12),
        Case("theta-period-tau", qp_tau, 1e-12),
        Case("theta-zero-at-origin", abs(values[-1]), 1e-14),
        Case("bracket-derivative-one", float(deriv), 1e-8),
        Case("bracket-zero-at-r", abs(at_r), 1e-12),
    ]


def unitarity_suite(config: RunConfig) -> list[Case]:
    params = config.params()
    sampler = _PointSampler(config)
    points = config.kind().alcove()
    samples = [(sampler.spectral(), sampler.rng.choice(points))
               for _ in range(UNITARITY_SAMPLES)]
    worst = el.unitarity_residual(samples, params)
    return [Case(f"unitarity-n{config.n}-r{config.r}", worst, 1e-9)]


def dybe_suite(config: RunConfig) -> list[Case]:
    params = config.params()
    sampler = _PointSampler(config)
    state = sampler.rng.getstate()
    samples = [(*sampler.spectral_pair(), sampler.generic_point(config.n))
               for _ in range(DYBE_SAMPLES)]
    try:
        worst = el.dynamical_ybe_residual(samples, params)
    except NearPole:
        # replay the draws one sample at a time, redrawing a point at a pole
        sampler.rng.setstate(state)
        worst = 0.0
        for _ in range(DYBE_SAMPLES):
            z, w = sampler.spectral_pair()
            for _ in range(8):
                try:
                    a = sampler.generic_point(config.n)
                    worst = max(worst,
                                el.dynamical_ybe_residual([(z, w, a)], params))
                    break
                except NearPole:
                    continue
    cases = [Case(f"dybe-n{config.n}-r{config.r}", worst, 1e-10)]
    if config.base_b is not None:
        b = WeightPoint(base=tuple(config.base_b),
                        offset=(0,) * len(config.base_b))
        sos = [(*sampler.spectral_pair(), b)
               for _ in range(max(4, DYBE_SAMPLES // 4))]
        sos_worst = el.dynamical_ybe_residual(sos, params)
        cases.append(Case("dybe-sos-generic-base", sos_worst, 1e-10))
    return cases


def star_triangle_suite(config: RunConfig) -> list[Case]:
    params = config.params()
    kind = config.kind()
    sampler = _PointSampler(config)
    pairs = [sampler.spectral_pair() for _ in range(STAR_TRIANGLE_PAIRS)]
    worst = rsos.star_triangle_residual(pairs, kind, params)
    cases = [Case(f"star-triangle-n{config.n}-r{config.r}", worst, 1e-9)]
    if config.base_b is not None:
        n = config.n
        b = WeightPoint(base=tuple(config.base_b), offset=(0,) * n)
        window = [b, b + eps(n, 1), b + eps(n, n - 1)]
        sos_kind = rsos.ModelKind.sos(tuple(config.base_b))
        pairs = [sampler.spectral_pair() for _ in range(3)]
        sos_worst = rsos.star_triangle_residual(pairs, sos_kind, params,
                                                points=window)
        cases.append(Case("star-triangle-sos-generic-base", sos_worst, 1e-9))
    return cases


def restriction_suite(config: RunConfig) -> list[Case]:
    params = config.params()
    kind = config.kind()
    sampler = _PointSampler(config)
    zs = [sampler.spectral() for _ in range(RESTRICTION_SAMPLES)]
    worst = rsos.restriction_residual(zs, kind, params)
    return [Case(f"restriction-n{config.n}-r{config.r}", worst, 1e-12)]


def exactness_suite(config: RunConfig) -> list[Case]:
    params = config.params()
    kind = config.kind()
    n = config.n
    sym_char = fu.sym_square_character(kind)
    ext_char = fu.exterior_character(2, kind)
    worst = residue_rel = 0.0
    dim_mismatches = 0
    # one run's bases and residue oracle at a time, whatever the alcove size
    for _, run in el.table_runs(kind.alcove(), 5 * n ** 4):
        for bases, oracle in zip(fu.fusion_bases(run, kind, params),
                                 el.residue_extrapolation(run, params)):
            worst = max(worst, bases.max_residual)
            for sector in bases.sectors:
                arrow = Arrow(bases.point, sector.shift)
                if sector.sym_dim != sym_char.coeff(arrow):
                    dim_mismatches += 1
                if sector.antisym_dim != ext_char.coeff(arrow):
                    dim_mismatches += 1
            reg = bases.residue
            residue_rel = max(residue_rel,
                              float(np.abs(reg - oracle).max()
                                    / max(np.abs(reg).max(), 1e-30)))
    return [
        Case(f"exactness-n{config.n}-r{config.r}", worst, 1e-8),
        Case("kernel-dims-match-characters", float(dim_mismatches), 0.0),
        Case("residue-oracle-relative", residue_rel, 1e-6),
    ]


def transfer_commute_suite(config: RunConfig) -> list[Case]:
    params = config.params()
    kind = config.kind()
    sampler = _PointSampler(config)
    V = rsos.build_vector_space(kind, params)  # chain-3 extends chain-2
    chains = {
        "chain-2": tr.vector_chain(kind, params, (0.0, 0.3), space=V),
        "chain-3": tr.vector_chain(kind, params, (0.0, 0.3, 0.7), space=V),
    }
    cases = []
    for name, L in chains.items():
        pairs = [sampler.spectral_pair() for _ in range(TRANSFER_PAIRS)]
        cases.append(Case(f"transfer-commute-{name}",
                          tr.commutator_residual(L, pairs), 1e-8))
    return cases


def _random_arrows(rng: random.Random, kind: rsos.ModelKind, table: dict,
                   draws: int, low: int, high: int) -> dict[Arrow, int]:
    """`draws` random arrows (a, mu), a in the alcove of `kind` and mu in
    {-1, 0, 1}^n, each kept with a value in [low, high) when a + mu is in the
    alcove too.

    The draws make the rng calls of `rng.choice(alcove)`, of n
    `rng.randrange(-1, 2)` and of `rng.randrange(low, high)`, inlined as
    the rejection loop `Random._randbelow` runs on `rng.getrandbits(k)`,
    k = bound.bit_length(), so the stream and the final state are the same.
    They are read as one code, a's index followed by the base-3 digits of
    mu + 1, and `table`, one dict per run, maps each drawn code to its arrow,
    or to None when a + mu leaves the alcove: a run builds and tests each
    arrow once."""
    points, n = kind.alcove(), kind.rank
    getrandbits, size, width = rng.getrandbits, len(points), high - low
    bits, value_bits = size.bit_length(), width.bit_length()
    out = {}
    for _ in range(draws):
        code = getrandbits(bits)
        while code >= size:
            code = getrandbits(bits)
        for _ in range(n):
            digit = getrandbits(2)
            while digit == 3:
                digit = getrandbits(2)
            code = 3 * code + digit
        if code not in table:
            table[code] = _coded_arrow(kind, code)
        arrow = table[code]
        if arrow is not None:
            value = getrandbits(value_bits)
            while value >= width:
                value = getrandbits(value_bits)
            out[arrow] = low + value
    return out


def _coded_arrow(kind: rsos.ModelKind, code: int) -> Arrow | None:
    """The arrow of a `_random_arrows` code, with its target cached for
    conv_mul, or None when the target leaves the alcove."""
    digits = []
    for _ in range(kind.rank):
        code, digit = divmod(code, 3)
        digits.append(digit - 1)
    arrow = Arrow(kind.alcove()[code], tuple(reversed(digits)))
    return arrow if arrow.target in kind.alcove_index() else None


def _random_element(rng: random.Random, kind: rsos.ModelKind,
                    table: dict) -> cv.ConvolutionElement:
    return cv.ConvolutionElement(
        kind, _random_arrows(rng, kind, table, ELEMENT_TERMS, -3, 4))


def _random_graded_space(rng: random.Random, kind: rsos.ModelKind,
                         table: dict) -> GradedSpace:
    dims = _random_arrows(rng, kind, table, SPACE_ARROWS, 1, 4)
    if not dims:
        dims[Arrow(kind.alcove()[0], (0,) * kind.rank)] = 1
    return GradedSpace.from_dims(kind, dims)


def characters_suite(config: RunConfig) -> list[Case]:
    kind = config.kind()
    points = kind.alcove()
    V = rsos.build_vector_space(kind)
    failures = 0
    # character is a ring map on tensor squares of the vector space
    chv = cv.character(V)
    square = cv.conv_mul(chv, chv)
    if cv.character(tensor_space(V, V)) != square:
        failures += 1
    if square != (fu.exterior_character(2, kind)
                  + fu.sym_square_character(kind)):
        failures += 1
    # closed forms of the square characters
    if fu.exterior_character(0, kind) != cv.chi(kind, points):
        failures += 1
    rng, table = random.Random(config.seed), {}
    # ch(V (x) W) = ch V * ch W on random graded spaces
    for _ in range(5):
        v1 = _random_graded_space(rng, kind, table)
        v2 = _random_graded_space(rng, kind, table)
        if cv.character(tensor_space(v1, v2)) != cv.conv_mul(
                cv.character(v1), cv.character(v2)):
            failures += 1
    assoc = anti = 0
    for _ in range(CHARACTER_SAMPLES):
        x = _random_element(rng, kind, table)
        y = _random_element(rng, kind, table)
        z = _random_element(rng, kind, table)
        xy = cv.conv_mul(x, y)
        if cv.conv_mul(xy, z) != cv.conv_mul(x, cv.conv_mul(y, z)):
            assoc += 1
        if cv.involution(xy) != cv.conv_mul(cv.involution(y), cv.involution(x)):
            anti += 1
    return [
        Case("character-ring-map", float(failures), 0.0),
        Case("convolution-associativity", float(assoc), 0.0),
        Case("involution-antihomomorphism", float(anti), 0.0),
    ]


def fusion_suite(config: RunConfig) -> list[Case]:
    r = config.r
    rules, sym, assoc = fu.verify_fusion_rules(r)
    return [
        Case(f"fusion-rules-r{r}", float(rules), 0.0),
        Case("verlinde-symmetry", float(sym), 0.0),
        Case("verlinde-associativity", float(assoc), 0.0),
    ]


def spectrum_suite(config: RunConfig) -> list[Case]:
    n, r = config.n, config.r
    reports = fu.verify_spectrum(range(1, n), n, r)
    cases = [Case(f"spectrum-k{rep.k}", rep.max_residual, fu.SPECTRUM_TOL)
             for rep in reports]
    if n == 2:
        kind = config.kind()
        adj = cv.to_difference_operator(
            cv.character(rsos.build_vector_space(kind)), kind.alcove())
        eigs = np.sort(np.linalg.eigvalsh(adj.matrix().astype(float)))
        expected = np.sort([2 * np.cos(np.pi * l / r) for l in range(1, r)])
        analytic = np.sort([e.real for e in reports[0].eigenvalues])
        cases.append(Case("spectrum-dense-eigensolver",
                          float(np.abs(eigs - expected).max()
                                + np.abs(analytic - expected).max()), 1e-10))
    return cases


def partition_suite(config: RunConfig) -> list[Case]:
    """The transfer matrix of each width n divides, traced as tr M^rows for
    every row count n divides within PARTITION_MAX_FACES faces (tr M^rows is
    0 on the other tori, see `transfer`); cols = n, the narrowest width with
    a closed row, is built even when no row count fits, to compare the state
    dimensions tr M^0.  The row side builds one matrix per width, narrowest
    first, so the narrowest width over STATE_BUDGET is the one refused; the
    graded side traces every width off a prefix of one evaluation of the
    widest chain."""
    params, kind, n = config.params(), config.kind(), config.n
    widths = range(n, max(PARTITION_MAX_FACES // n, n) + 1, n)

    def traces(M, cols: int) -> list[complex]:
        """tr M^m for m = 0 and each row count m of a cols-wide torus"""
        rows = range(n, PARTITION_MAX_FACES // cols + 1, n)
        return [complex(power.trace()) for m, power in enumerate(
            itertools.islice(M.powers(), max(rows, default=0) + 1))
            if m == 0 or m in rows]

    z_en = [traces(tr._row_transfer_matrix(0.3, kind, params, (0.0,) * cols),
                   cols) for cols in widths]
    chain = tr.vector_chain(kind, params, (0.0,) * widths[-1])
    z_tm = [traces(T, cols) for cols, T in zip(
        widths, tr.prefix_transfer_matrices(0.3, chain, widths))]
    worst = max((abs(en - tm) / max(1.0, abs(en))
                 for ens, tms in zip(z_en, z_tm)
                 for en, tm in zip(ens[1:], tms[1:])), default=0.0)
    return [
        Case(f"partition-oracle-n{config.n}-r{config.r}", worst, 1e-9),
        Case("partition-state-dimension", abs(z_en[0][0] - z_tm[0][0]), 0.0),
    ]


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
SUITE_NAMES = (*_SUITES, "all")


def run_suite(name: str, config: RunConfig) -> list[Case]:
    """Cases of one suite, or of every suite for "all", with config.tolerance
    (when set) in place of each pinned tolerance."""
    if name == "all":
        cases = [c for suite in _SUITES.values() for c in suite(config)]
    elif name in _SUITES:
        cases = _SUITES[name](config)
    else:
        raise UnknownSuite(f"unknown suite {name!r}; choose from {SUITE_NAMES}")
    if config.tolerance is None:
        return cases
    return [Case(c.name, c.residual, config.tolerance) for c in cases]

