"""Weight-lattice points, arrows of translation action groupoids, and alcoves.

Points live in the quotient h*_0 = C^n / C(1,...,1); the weight lattice
Z^n acts on it by translation.  A point is stored as a base n-tuple b plus
an integer offset, canonicalized so that the last offset coordinate is 0
(all quantities of interest depend only on coordinate differences).
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from functools import cached_property
from itertools import combinations, combinations_with_replacement

from .errors import InfiniteSet, NonComposable

LatticeVector = tuple[int, ...]


def eps(n: int, i: int) -> LatticeVector:
    """Standard basis vector epsilon_i (1-based i) of the rank-n lattice."""
    if not 1 <= i <= n:
        raise IndexError(f"epsilon index {i} out of range 1..{n}")
    return tuple(1 if k == i - 1 else 0 for k in range(n))


def zero_vector(n: int) -> LatticeVector:
    return (0,) * n


def add_vectors(a: LatticeVector, b: LatticeVector) -> LatticeVector:
    return tuple(x + y for x, y in zip(a, b, strict=True))


def negate(a: LatticeVector) -> LatticeVector:
    return tuple(-x for x in a)


def rho(n: int) -> LatticeVector:
    """Half-sum analogue (n-1, n-2, ..., 0) shifting P^r_+ onto P^{r+n}_++."""
    return tuple(range(n - 1, -1, -1))


@dataclass(frozen=True)
class WeightPoint:
    """Point a = base + offset of an orbit O_b, canonical mod Z(1,...,1).

    The canonical representative has offset[-1] == 0; equality and hashing
    use it, so translates by multiples of (1,...,1) are identified.
    """

    base: tuple[complex, ...]
    offset: LatticeVector

    def __post_init__(self):
        last = self.offset[-1]
        if last != 0:
            object.__setattr__(
                self, "offset", tuple(o - last for o in self.offset)
            )
        if len(self.base) != len(self.offset):
            raise ValueError("base and offset ranks differ")

    @classmethod
    def integer(cls, coords: tuple[int, ...] | list[int]) -> "WeightPoint":
        """Point of the zero-base orbit O_0 with the given coordinates."""
        coords = tuple(int(c) for c in coords)
        return cls(base=(0,) * len(coords), offset=coords)

    @classmethod
    def from_level_coordinate(cls, l: int) -> "WeightPoint":
        """Rank-2 point with a_1 - a_2 = l."""
        return cls.integer((l, 0))

    @property
    def rank(self) -> int:
        return len(self.offset)

    @property
    def has_zero_base(self) -> bool:
        return all(b == 0 for b in self.base)

    def values(self) -> tuple[complex, ...]:
        """Coordinates of the canonical representative."""
        return tuple(b + o for b, o in zip(self.base, self.offset))

    def diff(self, i: int, j: int) -> complex:
        """a_i - a_j (1-based), independent of the representative."""
        v = self.values()
        return v[i - 1] - v[j - 1]

    def level_coordinate(self) -> int:
        """a_1 - a_2 for rank-2 integer points."""
        if self.rank != 2 or not self.has_zero_base:
            raise ValueError("level coordinate defined for rank-2 integer points")
        return self.offset[0] - self.offset[1]

    def shifted(self, mu: LatticeVector) -> "WeightPoint":
        return WeightPoint(self.base, add_vectors(self.offset, mu))

    def __add__(self, mu: LatticeVector) -> "WeightPoint":
        return self.shifted(mu)

    def sort_key(self):
        key = [(c.real, c.imag) if isinstance(c, complex) else (float(c), 0.0)
               for c in self.values()]
        return tuple(key)

    def __repr__(self):
        if self.has_zero_base:
            return f"WeightPoint{self.offset}"
        return f"WeightPoint(base={self.base}, offset={self.offset})"


@dataclass(frozen=True)
class Arrow:
    """Arrow (a, mu) from a to a + mu of the action groupoid O_b x| P."""

    source: WeightPoint
    shift: LatticeVector

    # cached in the instance dict: equality, hashing and repr see only fields
    @cached_property
    def target(self) -> WeightPoint:
        return self.source.shifted(self.shift)

    @property
    def is_identity(self) -> bool:
        return all(s == 0 for s in self.shift)

    @property
    def is_loop(self) -> bool:
        """True when the arrow fixes its source, i.e. shift in Z(1,...,1)."""
        return len(set(self.shift)) == 1

    def sort_key(self):
        return (self.source.sort_key(), self.shift)

    def __repr__(self):
        return f"Arrow({self.source!r}, {self.shift})"


def identity_arrow(a: WeightPoint) -> Arrow:
    return Arrow(a, zero_vector(a.rank))


def inverse(gamma: Arrow) -> Arrow:
    """The inverse arrow (a + mu, -mu)."""
    return Arrow(gamma.target, negate(gamma.shift))


def compose(later: Arrow, earlier: Arrow) -> Arrow:
    """Composite `later o earlier`, defined when later starts where earlier ends."""
    if later.source != earlier.target:
        raise NonComposable(
            f"cannot compose: {later.source!r} != target {earlier.target!r}"
        )
    return Arrow(earlier.source, add_vectors(earlier.shift, later.shift))


class AlcoveKind(Enum):
    DOMINANT = "P+"
    REGULAR_DOMINANT = "P++"
    AFFINE_DOMINANT = "Pr+"
    AFFINE_REGULAR = "Pr++"

    @property
    def is_affine(self) -> bool:
        return self in (AlcoveKind.AFFINE_DOMINANT, AlcoveKind.AFFINE_REGULAR)


@dataclass(frozen=True)
class AlcoveSpec:
    rank: int
    kind: AlcoveKind
    level: int | None = None

    def __post_init__(self):
        if self.rank < 2:
            raise ValueError("rank must be >= 2")
        if self.kind.is_affine:
            if self.level is None or self.level < 0:
                raise ValueError("affine alcoves need a level r >= 0")
            if self.kind is AlcoveKind.AFFINE_REGULAR and self.level < self.rank:
                raise ValueError("regular affine alcove needs r >= n")


def alcove_contains(a: WeightPoint, spec: AlcoveSpec) -> bool:
    """Membership test; conditions are invariant under (1,...,1) shifts."""
    if not a.has_zero_base:
        raise ValueError("alcove membership is defined for integer points")
    if a.rank != spec.rank:
        raise ValueError("rank mismatch")
    v = a.offset
    strict = spec.kind in (AlcoveKind.REGULAR_DOMINANT, AlcoveKind.AFFINE_REGULAR)
    for x, y in zip(v, v[1:]):
        if (x <= y) if strict else (x < y):
            return False
    if spec.kind is AlcoveKind.AFFINE_DOMINANT and v[0] - v[-1] > spec.level:
        return False
    if spec.kind is AlcoveKind.AFFINE_REGULAR and v[0] - v[-1] >= spec.level:
        return False
    return True


def enumerate_alcove(spec: AlcoveSpec) -> list[WeightPoint]:
    """Canonical representatives of a finite alcove, lexicographically ordered."""
    if not spec.kind.is_affine:
        raise InfiniteSet(f"{spec.kind.value} is infinite")
    n, r = spec.rank, spec.level
    points = []
    if spec.kind is AlcoveKind.AFFINE_REGULAR:
        # a_1 > ... > a_{n-1} > a_n = 0 with a_1 < r
        for combo in combinations(range(1, r), n - 1):
            points.append(WeightPoint.integer(tuple(reversed(combo)) + (0,)))
    else:
        # a_1 >= ... >= a_{n-1} >= a_n = 0 with a_1 <= r
        for combo in combinations_with_replacement(range(0, r + 1), n - 1):
            points.append(WeightPoint.integer(tuple(reversed(combo)) + (0,)))
    points.sort(key=WeightPoint.sort_key)
    return points


def rsos_alcove(n: int, r: int) -> list[WeightPoint]:
    """The height set P^r_++ of the restricted model."""
    return enumerate_alcove(AlcoveSpec(n, AlcoveKind.AFFINE_REGULAR, r))


@dataclass(frozen=True)
class Context:
    """Identifies the groupoid a graded object lives over.

    kind is "rsos" (full subgroupoid of O_0 x| P on the level-r alcove)
    or "sos" (orbit O_b of a generic base point).
    """

    rank: int
    kind: str
    level: int | None = None
    base: tuple[complex, ...] | None = None

    def __post_init__(self):
        if self.kind not in ("rsos", "sos"):
            raise ValueError(f"unknown context kind {self.kind!r}")
        if self.kind == "rsos" and (self.level is None or self.level <= self.rank):
            raise ValueError("restricted context needs integer level r > n")

    def alcove(self) -> list[WeightPoint]:
        if self.kind != "rsos":
            raise InfiniteSet("only restricted contexts have a finite alcove")
        return rsos_alcove(self.rank, self.level)
