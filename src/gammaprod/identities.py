"""Coset-indexed gamma product identities and their exact closed forms.

For odd n > 1, each coset A of the subgroup generated by n+2 inside the
units mod 2n yields

    prod over x in A of Gamma(x / 2n)  =  2**b * pi**(nu / 2)

where nu is the coset size (the multiplicative order of 2 mod n) and b
counts the elements of A above n.  The right side is stored exactly as the
integer exponent pair; nothing here touches floating point.

build_identity validates a proposed coset.  _identities yields the records
one cycle of the bulk walk at a time, so the CLI holds one coset while it
prints.  A single coset's n may lie past any sieve, with nu unknown, so
_coset_identity reads its record off _halving_orbit.  _identity_from_coset
sorts these labels into the ascending record and reads nu off their count.
mersenne_identity and complement_identity walk and sort nothing: they build
their records from the closed form and from the mirror theorem.
"""

import bisect
import operator
from dataclasses import dataclass
from typing import Iterable, Iterator, NamedTuple

from .errors import DomainError, InvalidCosetError
from .residues import (_check_unit, _halving_orbit, _halving_walk, _index, _is_unit,
                       _odd_modulus, _order_of_two, _walkable_totient)

__all__ = [
    "Rhs",
    "GammaProductIdentity",
    "FullProduct",
    "build_identity",
    "enumerate_identities",
    "complement_identity",
    "is_self_complementary",
    "mersenne_identity",
    "full_product_identity",
]


class Rhs(NamedTuple):
    """Exact closed-form value 2**pow2 * pi**(pi_half_units / 2)."""

    pow2: int
    pi_half_units: int


@dataclass(frozen=True)
class GammaProductIdentity:
    """One identity: the Gamma product over a coset and its closed form.

    Instances are plain records with structural equality, keyed in practice
    by (n, smallest coset element).  build_identity is the validating
    constructor; the record itself never re-checks, which lets tests tamper
    with fields and watch the numeric verifier report honest residuals.
    """

    n: int
    coset: tuple[int, ...]
    nu: int
    b: int

    @property
    def modulus(self) -> int:
        """Common denominator 2n of the product arguments."""
        return 2 * self.n

    @property
    def rhs(self) -> Rhs:
        return Rhs(pow2=self.b, pi_half_units=self.nu)


@dataclass(frozen=True)
class FullProduct:
    """Product of Gamma(x/2n) over every unit x mod 2n: equals (2*pi)**pow2."""

    n: int
    pow2: int
    pi_half_units: int


def _identity_from_coset(n: int, labels: list[int]) -> GammaProductIdentity:
    """The record of a coset's labels, sorted in place, nu their count; it empties the list."""
    labels.sort()
    coset = tuple(labels)
    labels.clear()
    return GammaProductIdentity(n, coset, len(coset), len(coset) - bisect.bisect_right(coset, n))


def _coset_identity(n: int, x: int) -> GammaProductIdentity:
    """The coset record of the unit x mod 2n: _halving_orbit's labels, bounded by _MAX_WALK."""
    n = _odd_modulus(n)
    return _identity_from_coset(n, _halving_orbit(n, _check_unit(x, 2 * n)))


def _identities(n: int) -> Iterator[GammaProductIdentity]:
    """One record per cycle of _halving_walk, in coset order, as the walk yields it."""
    n = _odd_modulus(n)
    return (_identity_from_coset(n, labels) for labels in _halving_walk(n))


def build_identity(n: int, coset: Iterable[int]) -> GammaProductIdentity:
    """Validate a coset of <n+2> mod 2n and attach its closed form.

    The elements must be distinct units mod 2n, closed under multiplication
    by n+2, and exactly one coset in size; anything else raises
    InvalidCosetError.  The size is checked against the order of 2 mod n, with
    no orbit walked, so any odd n is taken; a closed set led by a unit and of
    more than _MAX_WALK elements raises DomainError naming its size instead.
    Input order does not matter, the stored coset is ascending, and any
    integer type (numpy's, bool) is stored as a Python int.
    """
    n = _odd_modulus(n)
    m, g = 2 * n, n + 2
    given = list(coset)
    try:
        elems = sorted(map(operator.index, given))
    except TypeError:
        elems = []
    # A closed set holds its least element's coset, of ord_n(2) elements, when that element
    # is a unit; so it is that coset when 2**size == 1 and _order_of_two keeps the size.
    nu = None  # stays None unless the set is closed
    if (elems and _is_unit(elems[0], m) and {x * g % m for x in elems} == set(elems)
            and len(elems) == (nu := _order_of_two(n, len(elems))) and pow(2, nu, n) == 1):
        return _identity_from_coset(n, elems)
    raise InvalidCosetError(_coset_fault(m, given, elems, nu))


def _coset_fault(m: int, given: list, elems: list[int], nu: int | None) -> str:
    """Why build_identity refused given, the first fault in this order: a
    non-integer, no element, a repeat, a non-unit, no closure (nu is None),
    and last a closed set of the wrong size.  elems is given as ascending ints."""
    for x in given:
        try:
            operator.index(x)
        except TypeError:
            return f"{x!r} is not an integer"
    if not elems:
        return "empty coset"
    if len(set(elems)) != len(elems):
        return f"coset has repeated elements: {elems}"
    for x in elems:
        if not _is_unit(x, m):
            return f"{x} is not a unit in (0, {m})"
    if nu is None:
        return f"{elems} is not closed under multiplication by {m // 2 + 2} mod {m}"
    return f"{elems} is a union of cosets, not a single coset of size {nu}"


def enumerate_identities(n: int) -> tuple[GammaProductIdentity, ...]:
    """One identity per coset, in coset order (smallest element first)."""
    return tuple(_identities(n))


def complement_identity(identity: GammaProductIdentity) -> GammaProductIdentity:
    """Identity for the mirrored coset {2n - x}, by the mirror theorem: an ascending
    coset's 2n - x, reversed, with exponent nu - b.  Nothing is re-sorted or recounted,
    so complementation is an involution on every record, a hand-built one included:
    a second complement restores its fields as they were."""
    n = identity.n
    coset = tuple([2 * n - x for x in reversed(identity.coset)])
    return GammaProductIdentity(n, coset, identity.nu, identity.nu - identity.b)


def is_self_complementary(identity: GammaProductIdentity) -> bool:
    """Whether the coset is fixed by x -> 2n - x (derived, never stored)."""
    n = identity.n
    return set(identity.coset) == {2 * n - x for x in identity.coset}


# The text form of the Mersenne identity for m takes about 0.6 * m**2 bytes.
_MAX_MERSENNE = 10**4


def mersenne_identity(m: int) -> GammaProductIdentity:
    """Subgroup identity for n = 2**m - 1.

    The coset of 1 is {1} together with {2**k + n : 1 <= k < m}, giving
    nu = m and b = m - 1 (every element except 1 exceeds n).
    """
    m = _index(m)
    if m <= 1:
        raise DomainError(f"exponent must be > 1, got {m}")
    if m > _MAX_MERSENNE:  # refused before the m elements of m bits each are built
        raise DomainError(f"exponent {m} is too large; the limit is m <= {_MAX_MERSENNE}")
    n = (1 << m) - 1
    return GammaProductIdentity(n, (1, *(n + (1 << k) for k in range(1, m))), m, m - 1)


def full_product_identity(n: int) -> FullProduct:
    """Combine all coset identities: the total product is (2*pi)**(phi(n)/2).

    phi is read off the distinct primes of n; that the cosets' powers of two
    sum to half of it is a theorem the tests pin.
    """
    n = _odd_modulus(n)
    phi = _walkable_totient(n)[0]
    return FullProduct(n=n, pow2=phi // 2, pi_half_units=phi)
