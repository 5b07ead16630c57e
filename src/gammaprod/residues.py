"""Exact arithmetic in the unit groups (Z/mZ)*.

Moduli are plain Python integers, so modular products never overflow no
matter the size: _odd_modulus, the one check of an odd modulus, returns one.
Representatives always live in the open interval (0, m) and listings are
sorted ascending; cycles and cosets are keyed by their smallest member.
Together this makes every derived listing deterministic.

Units are never listed one gcd at a time: a unit mask sieves out the
multiples of each distinct prime of the modulus, which alone give phi.
Those come by trial division by the primes up to sqrt(2 * _MAX_WALK),
tabled at import, which factor every m within units_mod's bound.
units_mod reads its units off it, and the halving walk sieves its own mask
of the units mod 2n and consumes it, clearing each cycle's labels as it goes.
_halving_orbit is the one routine that walks a cycle: it steps a vertex at a
time and returns the coset's labels.  It serves single cosets, and the bulk
walk takes the subgroup, the cycle of 1, from it, reads nu as its length and
yields a copy, then each later cycle as a multiple of it mod 2n.
_order_of_two is the one order routine of 2: survey_row and build_identity
size cosets by it.
"""

import itertools
import math
import operator
from collections.abc import Iterator
from dataclasses import dataclass

from .errors import DomainError, InvalidModulusError, NotAUnitError

__all__ = [
    "OddModulus",
    "UnitGroup",
    "HalvingCycle",
    "CosetDecomposition",
    "units_mod",
    "multiplicative_order",
    "odd_lift",
    "odd_lift_inverse",
    "halve_mod",
    "halving_cycles",
    "coset_decomposition",
]


def _integer(n) -> int:
    """n as an int, or InvalidModulusError: int() would truncate 7.9 and parse "7"."""
    try:
        return operator.index(n)
    except TypeError as exc:
        raise InvalidModulusError(f"modulus must be an integer, got {n!r}") from exc


def _index(x) -> int:
    """x as an int, or DomainError naming it: the reading of every integer but a modulus."""
    try:
        return operator.index(x)
    except TypeError as exc:
        raise DomainError(f"{x!r} is not an integer") from exc


def _odd_modulus(n) -> int:
    """n as a plain int, or InvalidModulusError unless it is an odd integer > 1: the one
    check of a modulus, which every entry and OddModulus make."""
    if (n := _integer(n)) < 3 or n % 2 == 0:
        raise InvalidModulusError(f"modulus must be odd and > 1, got {n}")
    return n


class OddModulus(int):
    """An odd integer modulus n > 1; construction enforces the domain with
    _odd_modulus, which the entries call themselves, so records hold a plain int."""

    def __new__(cls, n: int) -> "OddModulus":
        return super().__new__(cls, _odd_modulus(n))


def _is_unit(x: int, m: int) -> bool:
    """Whether x is a unit representative in (0, m)."""
    return 0 < x < m and math.gcd(x, m) == 1


@dataclass(frozen=True)
class UnitGroup:
    """Residues in (0, m) coprime to m, ascending; the totient is the length."""

    modulus: int
    elements: tuple[int, ...]

    def __len__(self) -> int:
        return len(self.elements)

    def __iter__(self):
        return iter(self.elements)

    def __contains__(self, x) -> bool:
        """x in self.elements, answered for an integer by one gcd."""
        try:
            x = operator.index(x)
        except TypeError:
            return x in self.elements
        return _is_unit(x, self.modulus)


@dataclass(frozen=True)
class HalvingCycle:
    """One cycle of the mod-n halving permutation.

    vertices[i+1] == halve_mod(vertices[i], n) cyclically, rotated so the
    smallest vertex comes first.  labels[i] is the odd lift of vertices[i]
    into the units mod 2n; the label sets across all cycles reproduce the
    coset decomposition.
    """

    vertices: tuple[int, ...]
    labels: tuple[int, ...]

    def __len__(self) -> int:
        return len(self.vertices)


@dataclass(frozen=True)
class CosetDecomposition:
    """Partition of the units mod 2n into cosets of the subgroup <n+2>."""

    n: int
    nu: int
    cosets: tuple[tuple[int, ...], ...]

    @property
    def coset_count(self) -> int:
        return len(self.cosets)

    def coset_containing(self, x: int) -> tuple[int, ...]:
        x = _check_unit(x, 2 * self.n)
        for coset in self.cosets:
            if x in coset:
                return coset
        raise DomainError(f"no coset holds {x}")  # only a hand-built decomposition


def _primes_to(k: int) -> tuple[int, ...]:
    """The primes up to k, by the sieve of Eratosthenes."""
    sieve = bytearray(2) + bytearray(b"\x01") * (k - 1)
    for p in range(2, math.isqrt(k) + 1):
        if sieve[p]:
            sieve[p * p::p] = bytes(len(range(p * p, k + 1, p)))
    return tuple(itertools.compress(range(k + 1), sieve))


# Tracemalloc peaks per unit at the two-cycle n = 9999991 (64-bit CPython): the walk, and
# _identities, which the CLI prints from, hold the mask mod 2n, the subgroup and one later
# cycle, about 43 bytes, 0.43 GB at the limit; halving_cycles, coset_decomposition and
# enumerate_identities keep every cycle, about 69, 48 and 47; a single coset's record holds
# its labels and their tuple, 49 per element.  The checks sum their terms as taken: verify_identity
# adds 0 bytes a term, verify_full_product 4 a unit.  units_mod takes the moduli 2n of walkable n.
_MAX_WALK = 10**7
_PRIMES = _primes_to(math.isqrt(2 * _MAX_WALK))  # 607 primes, the last 4463: see _distinct_primes


def _distinct_primes(m: int) -> list[int]:
    """The distinct primes of m >= 2, ascending, by trial division by _PRIMES.

    An m past 2 * _MAX_WALK, units_mod's bound, raises DomainError: trial
    division up to sqrt(m) would not finish for a prime like 2**127 - 1.
    Within it, what the table leaves is 1 or prime, as 4481**2 > 2 * _MAX_WALK.
    """
    if m > 2 * _MAX_WALK:
        raise DomainError(f"n={m} is too large to factor; the limit is n <= {2 * _MAX_WALK}")
    primes = []
    for p in _PRIMES:
        if p * p > m:
            break
        if m % p == 0:
            primes.append(p)
            while m % p == 0:
                m //= p
    if m > 1:  # the one prime above the square root of what is left
        primes.append(m)
    return primes


def _unit_mask(m: int, primes: list[int]) -> bytearray:
    """mask[x] == 1 exactly when x in [0, m) is coprime to m >= 2, sieved by the given distinct
    primes of m: each clears its multiples, 0 among them, with one slice assignment."""
    mask = bytearray(b"\x01") * m
    for p in primes:
        mask[::p] = bytes(len(range(0, m, p)))
    return mask


def units_mod(m: int) -> UnitGroup:
    """All residues in (0, m) coprime to m, read off the unit mask."""
    m = _integer(m)
    if m < 2:
        raise InvalidModulusError(f"modulus must be at least 2, got {m}")
    if m > 2 * _MAX_WALK:
        raise DomainError(f"m={m} is too large to enumerate; the limit is m <= {2 * _MAX_WALK}")
    units = itertools.compress(range(m), _unit_mask(m, _distinct_primes(m)))
    return UnitGroup(modulus=m, elements=tuple(units))


def multiplicative_order(g: int, m: int) -> int:
    """Smallest k >= 1 with g**k congruent to 1 mod m.

    The search takes one step per power, so an order past 2 * _MAX_WALK,
    units_mod's bound on m, raises DomainError instead of running on.  Both
    arguments are read as Python ints, so no product overflows.
    """
    m = _integer(m)
    if m < 2:
        raise InvalidModulusError(f"modulus must be at least 2, got {m}")
    g = _check_unit(_index(g) % m, m)
    acc = g
    for k in range(1, 2 * _MAX_WALK + 1):
        if acc == 1:
            return k
        acc = acc * g % m
    raise DomainError(f"the order of {g} modulo {m} is too large to find; "
                      f"the limit is {2 * _MAX_WALK}")


def _order_of_two(n: int, k: int) -> int:
    """ord_n(2), odd n, from any multiple k of it; where 2**k is not 1 mod n, no prime
    of k can be stripped, so k comes back.  A k past _MAX_WALK is refused as a size.
    survey_row sizes cosets by it from phi, build_identity from a set's size."""
    if k > _MAX_WALK:
        raise DomainError(f"a set of {k} elements is too large; the limit is {_MAX_WALK} elements")
    for q in _distinct_primes(k):
        while k % q == 0 and pow(2, k // q, n) == 1:
            k //= q
    return k


def _check_unit(y: int, n: int) -> int:
    """y as an int, and the one refusal of a non-unit: DomainError unless y is
    an integer, its subclass NotAUnitError unless y is a unit in (0, n)."""
    y = _index(y)
    if not _is_unit(y, n):
        raise NotAUnitError(f"{y} is not a unit in (0, {n})")
    return y


def odd_lift(y: int, n: int) -> int:
    """Lift a unit mod n to the unique odd unit mod 2n congruent to it.

    The lift is a group isomorphism onto the units mod 2n (n odd); its
    inverse is odd_lift_inverse.
    """
    n = _odd_modulus(n)
    y = _check_unit(y, n)
    return y if y % 2 else y + n


def odd_lift_inverse(x: int, n: int) -> int:
    """Send an odd unit mod 2n back to its representative in (0, n)."""
    n = _odd_modulus(n)
    x = _check_unit(x, 2 * n)
    return x if x < n else x - n


def halve_mod(y: int, n: int) -> int:
    """Halve a unit mod odd n: the unique unit z with 2*z congruent to y."""
    n = _odd_modulus(n)
    y = _check_unit(y, n)
    return y // 2 if y % 2 == 0 else (y + n) // 2


def _halving_orbit(n: int, x: int) -> list[int]:
    """The coset of the unit x mod 2n, a plain-int n, as labels in halving order from x:
    the odd lifts of the halving cycle of x % n; at x = 1, the bulk walk's subgroup.  Halving
    permutes the units, so no step needs a unit check; a coset over _MAX_WALK elements raises
    DomainError naming x."""
    labels = []
    y = v = x % n
    for _ in itertools.repeat(None, _MAX_WALK):
        labels.append(v if v & 1 else v + n)
        v = (v + n) >> 1 if v & 1 else v >> 1
        if v == y:
            return labels
    raise DomainError(f"the coset of {x} is too large to enumerate; "
                      f"the limit is {_MAX_WALK} elements")


def _walkable_totient(n: int) -> tuple[int, list[int]]:
    """phi(n) = n * prod(1 - 1/p) and the distinct primes p of n, refused past _MAX_WALK."""
    if n > _MAX_WALK:
        raise DomainError(f"n={n} is too large to enumerate; the limit is n <= {_MAX_WALK}")
    primes = _distinct_primes(n)
    return n // math.prod(primes) * math.prod(p - 1 for p in primes), primes


def _halving_walk(n: int) -> Iterator[list[int]]:
    """Yield the labels of each halving cycle mod a plain-int n, one at a time.

    A cycle's labels are the odd lifts of its vertices into the units mod 2n,
    in halving order.  The walk walks one cycle, that of 1, with _halving_orbit:
    it is the lifted subgroup, and nu is its length.  The cycle of any other
    unit is the subgroup times its least label y, in the same rotation: halving
    i times multiplies by 2**-i, which the lift carries to multiplication by the
    i-th label of the subgroup.  On the first next() the walk sieves the units
    mod 2n, by 2 and n's primes, which also give phi.  It clears each cycle but
    the last before yielding it and reads the next from the least unit left, so
    cycles come in order of their least label, the cycle of 1 first; there are
    phi // nu of them.  The caller may sort or empty any list: the first copies
    the walk's subgroup.
    """
    phi, primes = _walkable_totient(n)
    # 2n bytes: masks of n or n/4 bytes timed 10-33% slower and saved little beside the subgroup
    todo = _unit_mask(2 * n, [2, *primes])
    subgroup = _halving_orbit(n, 1)
    labels = subgroup.copy()
    m, start = 2 * n, 1
    for _ in range(phi // len(subgroup) - 1):
        for x in labels:
            todo[x] = 0
        yield labels
        del labels  # not alive beside the next cycle
        start = todo.find(1, start + 1)
        labels = [start * h % m for h in subgroup]
    del todo, subgroup  # spent: not alive while the caller reads the last cycle
    yield labels


def halving_cycles(n: int) -> tuple[HalvingCycle, ...]:
    """Cycles of the halving permutation on the units mod n.

    Cycles appear in order of their smallest vertex, each rotated to lead
    with it.  The labels are the odd lifts of the vertices; their sets are
    exactly the cosets of coset_decomposition(n).
    """
    n = _odd_modulus(n)
    # The walk's order and rotation are the vertices' too: a cycle's least vertex
    # is odd (an even v has the smaller v/2 in its cycle), so it is its own lift
    # and the least label.  x - n, not x % n: a label below n shares its int.
    return tuple(HalvingCycle(vertices=tuple([x if x < n else x - n for x in labels]),
                              labels=tuple(labels))
                 for labels in _halving_walk(n))


def coset_decomposition(n: int) -> CosetDecomposition:
    """Partition the units mod 2n into cosets of the subgroup generated by n+2.

    The odd lift carries halving mod n to multiplication by the inverse of
    n+2 mod 2n, so the cosets are the lifted halving cycles, and nu, the
    common coset size, is the length of the cycle of 1: the order of 2
    mod n, which the lift transports to the order of n+2 mod 2n.  Cosets
    are ascending internally and ordered by smallest element, so the
    subgroup itself comes first.
    """
    n = _odd_modulus(n)
    cosets = tuple(map(tuple, map(sorted, _halving_walk(n))))
    nu = len(cosets[0])
    assert all(len(coset) == nu for coset in cosets)
    return CosetDecomposition(n=n, nu=nu, cosets=cosets)
