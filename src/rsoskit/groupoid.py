"""Weight-lattice points, arrows of translation action groupoids, alcoves,
and the model descriptor.

Points live in the quotient h*_0 = C^n / C(1,...,1); the weight lattice
Z^n acts on it by translation.  A point is stored as a base n-tuple b plus
an integer offset, canonicalized so that the last offset coordinate is 0
(all quantities of interest depend only on coordinate differences).

WeightPoint and Arrow are immutable tuple subclasses, (base, offset) and
(source, shift), with read-only field properties.  Every layer keys dicts
and sets on them, so hashing and equality run as the tuple's C code rather
than as Python methods; the hash of a point or arrow is that of its field
tuple.  Ordering is refused as for any unordered value, and `+` on a point
is the lattice shift, not tuple concatenation.

ModelKind names the one groupoid a model lives over, the level-r alcove
subgroupoid or the orbit of a generic base point, and is the only home of
its rules: the level must exceed the rank (checked on construction), which
steps (a, eps_i) are arrows, and the admissible step sequences (`paths`).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cache
from itertools import combinations
from operator import add, itemgetter

import numpy as np

from .errors import InfiniteSet, InvalidConfig, check_budget

LatticeVector = tuple[int, ...]


@cache
def eps(n: int, i: int) -> LatticeVector:
    """Standard basis vector epsilon_i (1-based i) of the rank-n lattice,
    built once per (n, i)."""
    if not 1 <= i <= n:
        raise IndexError(f"epsilon index {i} out of range 1..{n}")
    return tuple(1 if k == i - 1 else 0 for k in range(n))


def zero_vector(n: int) -> LatticeVector:
    return (0,) * n


def add_vectors(a: LatticeVector, b: LatticeVector) -> LatticeVector:
    if len(a) != len(b):
        raise ValueError(f"vector ranks differ: {len(a)} and {len(b)}")
    return tuple(map(add, a, b))


class _cached_attribute:
    """Non-data descriptor that computes an attribute on first read and
    stores it in the instance `__dict__`, where later reads find it before
    the descriptor.  It stands in for `functools.cached_property`, which on
    CPython 3.10 and 3.11 takes an RLock on every first read; arrows are
    built and their targets read in bulk, where that lock cost more than
    the read itself."""

    def __init__(self, func):
        self.func = func
        self.__doc__ = func.__doc__

    def __set_name__(self, owner, name):
        self.name = name

    def __get__(self, obj, owner=None):
        if obj is None:
            return self
        value = obj.__dict__[self.name] = self.func(obj)
        return value


def _canonical(offset: LatticeVector) -> LatticeVector:
    """The representative of offset mod Z(1,...,1) whose last entry is 0."""
    last = offset[-1]
    return offset if last == 0 else tuple([o - last for o in offset])


class _Pair(tuple):
    """Two-field value type: hashed and compared as its field tuple,
    unordered, and rebuilt from its fields alone by copy and pickle."""

    __slots__ = ()

    def _unordered(self, other):
        return NotImplemented

    __lt__ = __le__ = __gt__ = __ge__ = _unordered

    def __reduce__(self):
        return type(self), tuple(self)


class WeightPoint(_Pair):
    """Point a = base + offset of an orbit O_b, canonical mod Z(1,...,1).

    The canonical representative has offset[-1] == 0; equality and hashing
    use it, so translates by multiples of (1,...,1) are identified.
    """

    __slots__ = ()

    def __new__(cls, base: tuple[complex, ...], offset: LatticeVector):
        offset = _canonical(offset)
        if len(base) != len(offset):
            raise ValueError("base and offset ranks differ")
        return tuple.__new__(cls, (base, offset))

    base = property(itemgetter(0))
    offset = property(itemgetter(1))

    @classmethod
    def integer(cls, coords: tuple[int, ...] | list[int]) -> "WeightPoint":
        """Point of the zero-base orbit O_0 with the given coordinates."""
        coords = tuple(int(c) for c in coords)
        return cls(base=(0,) * len(coords), offset=coords)

    @property
    def rank(self) -> int:
        return len(self.offset)

    def values(self) -> tuple[complex, ...]:
        """Coordinates of the canonical representative."""
        base, offset = self
        return tuple(map(add, base, offset))

    def diff(self, i: int, j: int) -> complex:
        """a_i - a_j (1-based), independent of the representative."""
        v = self.values()
        return v[i - 1] - v[j - 1]

    def shifted(self, mu: LatticeVector) -> "WeightPoint":
        # base and offset share a rank and add_vectors checks mu's, so the
        # sum needs only canonicalizing, not __new__'s rank check
        base, offset = self
        offset = _canonical(add_vectors(offset, mu))
        return tuple.__new__(WeightPoint, (base, offset))

    def __add__(self, mu: LatticeVector) -> "WeightPoint":
        return self.shifted(mu)

    def sort_key(self):
        key = [(c.real, c.imag) if isinstance(c, complex) else (float(c), 0.0)
               for c in self.values()]
        return tuple(key)

    def __repr__(self):
        if not any(self.base):
            return f"WeightPoint{self.offset}"
        return f"WeightPoint(base={self.base}, offset={self.offset})"


class Arrow(_Pair):
    """Arrow (a, mu) from a to a + mu of the action groupoid O_b x| P."""

    def __new__(cls, source: WeightPoint, shift: LatticeVector):
        return tuple.__new__(cls, (source, shift))

    source = property(itemgetter(0))
    shift = property(itemgetter(1))

    # cached in the instance dict: equality, hashing, repr, copy and pickle
    # see only the fields
    @_cached_attribute
    def target(self) -> WeightPoint:
        source, shift = self
        return source.shifted(shift)

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


def arrow_with_target(source: WeightPoint, shift: LatticeVector,
                      target: WeightPoint) -> Arrow:
    """The arrow (source, shift) carrying `target`, which the caller knows
    to be source + shift: a builder that has its target at hand spares the
    point `Arrow.target` would build."""
    arrow = tuple.__new__(Arrow, (source, shift))
    # the entry `Arrow.target` caches, which equality, hashing, copy and
    # pickle do not see
    arrow.__dict__["target"] = target
    return arrow


def inverse(gamma: Arrow) -> Arrow:
    """The inverse arrow (a + mu, -mu), which carries its target a: the
    products of `convolution.involution` then build no point."""
    source, shift = gamma
    return arrow_with_target(gamma.target, tuple([-x for x in shift]), source)


# points of one alcove: the 99,681 of (n, r) = (3, 448) peak at 83 MB RSS
# in CPython 3.11
ALCOVE_BUDGET = 100_000


def rsos_alcove(n: int, r: int) -> list[WeightPoint]:
    """The height set P^r_++ of the restricted model, a_1 > ... > a_n = 0
    with a_1 < r, lexicographically ordered; over ALCOVE_BUDGET points raise
    TooLarge before any is built."""
    check_budget("ALCOVE_BUDGET", math.comb(r - 1, n - 1), ALCOVE_BUDGET,
                 "points")
    return sorted((WeightPoint.integer(tuple(reversed(c)) + (0,))
                   for c in combinations(range(1, r), n - 1)),
                  key=WeightPoint.sort_key)


@dataclass(frozen=True)
class ModelKind:
    """The groupoid a model and its graded objects live over.

    Restricted (`level` set): the full subgroupoid of O_0 x| P on the level-r
    alcove.  Unrestricted: the orbit O_b of a generic base point b.  Models
    are equal when their fields are; graded spaces and convolution elements
    carry theirs as `context`.
    """

    rank: int
    level: int | None = None
    base: tuple[complex, ...] | None = None

    def __post_init__(self):
        if self.rank < 2:
            raise InvalidConfig(f"rank must be >= 2, got {self.rank}")
        if self.is_restricted and self.level <= self.rank:
            raise InvalidConfig(f"restricted level must exceed the rank "
                                f"{self.rank}, got r={self.level}")

    @classmethod
    def rsos(cls, rank: int, r: int) -> "ModelKind":
        return cls(rank=rank, level=r)

    @classmethod
    def sos(cls, base: tuple[complex, ...]) -> "ModelKind":
        return cls(rank=len(base), base=tuple(base))

    @property
    def is_restricted(self) -> bool:
        return self.level is not None

    def alcove(self) -> tuple[WeightPoint, ...]:
        """The height set P^r_++, enumerated once per model."""
        if not self.is_restricted:
            raise InfiniteSet("only the restricted model has a finite alcove")
        return self._alcove

    # cached in the instance dict: equality and hashing see only fields
    @_cached_attribute
    def _alcove(self) -> tuple[WeightPoint, ...]:
        return tuple(rsos_alcove(self.rank, self.level))

    def alcove_index(self) -> dict[WeightPoint, int]:
        """Position of each point in `alcove()`, built once per model."""
        return self._alcove_index

    @_cached_attribute
    def _alcove_index(self) -> dict[WeightPoint, int]:
        return {a: i for i, a in enumerate(self.alcove())}

    def move(self) -> np.ndarray:
        """The step table: move[p, i] is the index in `alcove()` of
        alcove()[p] + eps_i (1-based i; column 0 is -1), or -1 where the step
        leaves the alcove.  Built once per model, read-only."""
        return self._move

    @_cached_attribute
    def _move(self) -> np.ndarray:
        n, index = self.rank, self.alcove_index()
        table = np.full((len(index), n + 1), -1, dtype=np.int64)
        for p, a in enumerate(self.alcove()):
            for i in range(1, n + 1):
                table[p, i] = index.get(a + eps(n, i), -1)
        table.flags.writeable = False
        return table

    @_cached_attribute
    def _paths(self) -> dict[tuple[WeightPoint, int], tuple[tuple[int, ...], ...]]:
        return {}

    @_cached_attribute
    def _successors(self) -> dict[WeightPoint, tuple[tuple[int, WeightPoint], ...]]:
        return {}

    def step_allowed(self, a: WeightPoint, i: int) -> bool:
        """Whether (a, eps_i) is an arrow of the model's groupoid."""
        if not self.is_restricted:
            return True
        heights = self._alcove_index
        return a in heights and a + eps(self.rank, i) in heights

    def _steps_from(self, a: WeightPoint) -> tuple[tuple[int, WeightPoint], ...]:
        """(i, a + eps_i) for each allowed step from a, by i; found once per a."""
        out = self._successors.get(a)
        if out is None:
            n = self.rank
            out = self._successors[a] = tuple(
                (i, a + eps(n, i)) for i in range(1, n + 1)
                if self.step_allowed(a, i))
        return out

    def paths(self, a: WeightPoint, length: int) -> tuple[tuple[int, ...], ...]:
        """Step-index sequences of the admissible paths of `length` steps
        from a, in lexicographic order; enumerated once per (a, length)."""
        key = (a, length)
        if key not in self._paths:
            grown = [((), a)]
            for _ in range(length):
                grown = [(steps + (i,), nxt) for steps, point in grown
                         for i, nxt in self._steps_from(point)]
            self._paths[key] = tuple(steps for steps, _ in grown)
        return self._paths[key]
