"""Sweep statistics over ranges of odd moduli, plus the recorded reference
counts for n < 100 and an honest checker for them."""

from collections import Counter
from dataclasses import dataclass
from itertools import compress
from math import gcd, isqrt
from typing import Iterable, Iterator

from .errors import DomainError
from .residues import (_distinct_primes, _index, _integer, _odd_modulus, _order_of_two,
                       _unit_mask, _walkable_totient)

__all__ = [
    "SurveyRow",
    "ClaimResult",
    "ClaimReport",
    "survey_row",
    "survey_range",
    "check_reference_claims",
    "is_prime_power",
]


@dataclass(frozen=True)
class SurveyRow:
    """Per-modulus statistics of the coset decomposition."""

    n: int
    phi: int
    nu: int
    coset_count: int
    self_complementary_count: int
    max_b: int
    is_prime_power: bool


def is_prime_power(n: int) -> bool:
    """True when n = p**k for a single prime p, k >= 1; n is bounded like units_mod."""
    n = _integer(n)
    return n >= 2 and len(_distinct_primes(n)) == 1


def _table_beats_scan(nu: int, k: int) -> bool:
    """Whether survey_row reads k mirror pairs of cosets of size nu faster off the
    table than by the scan.

    The table tests a unit by one gcd and O(sqrt(nu)) steps, none for the
    first, but must reach each pair's least unit, about k*ln(k) units in; the
    scan sieves n and takes all the odd units up to n/3, about phi/6, at O(nu)
    bigint work each.  Timed per row (2 vCPU Intel Xeon, Python 3.11.7) over
    the 647 odd n < 2000 and 1,115 of a seeded 1,500 odd n below 10**5 that
    have pairs, the table won 478 of the 479 rows of k = 1, and the two meet
    at isqrt(nu) = 6-7 for k = 2-7, 7-10 for k = 8-15, 8-10 for k = 16-63 and
    10-11 for k = 64-127, about k.bit_length() + 4; this rule came within 0.7%
    of the faster path's total on both sets, and the table for every k = 1
    gained 0.1%.  Many short cosets stay with the scan: 0.17-0.23 s at 2**23 - 1
    (nu = 23, k = 178,480), where the table took 1.2-1.9 s.  Long ones go to
    the table: 0.07-0.10 s at 6651541 (nu = 2268, k = 1296), the scan 0.41-0.77 s.
    """
    return k.bit_length() + 4 < isqrt(nu)


def _coset_representatives(n: int, nu: int, k: int, units: Iterable[int]) -> Iterator[int]:
    """Yield each unit of the ascending units that lies neither in a coset yielded
    before nor in its negation, stopping at the k-th, with one shared baby-step
    giant-step table.

    Each representative r found puts r * 2**(s*a) mod n and its negation for
    a < ceil(nu/s) into the table, s = isqrt(nu) + 1.  Every t < nu is s*a + j
    with j < s, so u lies in the coset of some r found or in its negation
    exactly when one of its first s halvings u * 2**-j mod n is in the table:
    O(sqrt(nu)) steps a unit, whatever k is.
    """
    s = isqrt(nu) + 1
    giant, steps = pow(2, s, n), -(-nu // s)
    table = set()
    for u in units:
        v = u
        for _ in range(s if table else 0):  # the first unit found meets an empty table
            if v in table:
                break
            v = (v + n) >> 1 if v & 1 else v >> 1
        else:
            yield u
            k -= 1
            if not k:
                return
            for _ in range(steps):
                table.add(u)
                table.add(n - u)
                u = u * giant % n


def _fewest_ones(n: int, nu: int, reps: Iterable[int]) -> int:
    """The fewest 1 bits among the nu-bit blocks u * (2**nu - 1) / n of the units u
    in reps and of their negations, n - u having the complement of u's block.

    The popcounts are kept as a set, at most nu + 1 of them however many units
    reps holds.
    """
    block = ((1 << nu) - 1) // n
    counts = set(map(int.bit_count, map(block.__mul__, reps)))
    return min(min(counts), nu - max(counts))


def survey_row(n: int) -> SurveyRow:
    """Statistics for a single odd modulus, read off the binary period of 1/n.

    phi = n * prod(1 - 1/p) over the distinct primes p of n, which also give
    the prime-power column, and nu = ord_n(2), the period of 1/n in base 2,
    is phi with every prime factor stripped that 2 does not need.  The
    cycles lift to the cosets, each of size nu, so there are k = phi/nu.

    A coset's b counts the even vertices of its halving cycle C, and
    2*sum(C) = sum(C) + n*#odd around C, so b = nu - sum(C)/n.  Read in base
    2: u * (2**nu - 1) / n is the repeating nu-bit block of u/n, each 1 bit
    a doubling step that wraps past n, that is an odd vertex of C, so
    sum(C)/n is the block's popcount.  x -> n - x flips the parity of every
    vertex, so b(-C) = nu - b(C).  When -1 is in <2> it maps each cycle to
    itself, so every b is nu/2 and no popcount is taken.  Otherwise it pairs
    each coset C with another, -C, and max_b is nu less the fewest ones of
    either block of a pair.  The least vertex w of C u -C is odd (an even w
    has w/2 there), and the even n - w is there too, so (n - w)/2 >= w: the
    odd units up to n/3 reach every pair.  The scan sieves n and takes the
    popcount of all of them; _coset_representatives tests them by gcd and
    keeps one per pair, and _table_beats_scan picks between the two on nu and
    the k/2 pairs.
    """
    n = _odd_modulus(n)
    phi, primes = _walkable_totient(n)
    nu = _order_of_two(n, phi)
    coset_count = phi // nu
    # x -> -x fixes a coset exactly when -1 is in <2> mod n: all cosets or
    # none.  -1 can only be 2**(nu/2), the element of order 2 of the cyclic
    # <2>; for odd nu the test fails by itself, as 2**(nu-1) is not 1.
    self_complementary = pow(2, nu // 2, n) == n - 1
    if self_complementary:
        max_b = nu // 2
    else:
        odd, pairs = range(1, n // 3 + 1, 2), coset_count // 2
        if _table_beats_scan(nu, pairs):
            reps = _coset_representatives(n, nu, pairs, (u for u in odd if gcd(u, n) == 1))
        else:
            reps = compress(odd, _unit_mask(n, primes)[1:odd.stop:2])
        max_b = nu - _fewest_ones(n, nu, reps)
    # positional, in field order: keywords cost a frozen row a third more
    return SurveyRow(n, phi, nu, coset_count, coset_count if self_complementary else 0,
                     max_b, len(primes) == 1)


# verify --max N walks the units of every odd n <= N, about 0.203 * N**2 of
# them: 2e9 at this bound.  On a 2 vCPU Intel Xeon with Python 3.11.7 it took
# 7.6 s at N = 10**4 (cold, two runs) and 29.8 s at 2 * 10**4 (one run), a
# step of N**1.97; extrapolated by N**2, about 12 minutes at this bound.  It
# prints every coset, about 5.3 bytes of stdout per unit: 108 MB at 10**4,
# 456 MB at 2 * 10**4, and about 11-13 GB at this bound, which caps time, not
# output.  survey walks no cycle: 7.7-8.6 s at this bound on a host of the
# same kind (cold, two runs).
_MAX_SWEEP = 10**5


def _odd_moduli(what: str, max_n: int) -> range:
    """The odd n in [3, max_n] of a sweep; a max_n outside [3, _MAX_SWEEP] is refused at once."""
    max_n = _index(max_n)
    if max_n < 3:
        raise DomainError(f"{what} range must reach at least 3, got {max_n}")
    if max_n > _MAX_SWEEP:
        raise DomainError(f"{what} range {max_n} is too large; the limit is n <= {_MAX_SWEEP}")
    return range(3, max_n + 1, 2)


def survey_range(max_n: int) -> tuple[SurveyRow, ...]:
    """One row per odd n in [3, max_n], in increasing n.

    Rows are computed independently per modulus; nothing is shared or
    cached across them, so any single row can be recomputed in isolation.
    """
    return tuple(survey_row(n) for n in _odd_moduli("survey", max_n))


@dataclass(frozen=True)
class ClaimResult:
    """Outcome of one recorded reference claim about the n < 100 survey.

    derived carries computed lists behind claims recorded only as counts;
    it is survey output, not part of the recorded claim.
    """

    key: str
    passed: bool
    expected: str
    observed: str
    derived: tuple[int, ...] = ()


@dataclass(frozen=True)
class ClaimReport:
    claims: tuple[ClaimResult, ...]

    @property
    def all_passed(self) -> bool:
        return all(claim.passed for claim in self.claims)


def check_reference_claims(rows: Iterable[SurveyRow]) -> ClaimReport:
    """Evaluate the recorded n < 100 statistics against an actual survey.

    rows must cover every odd n in [3, 99] once; any other row, an even n or
    an n past the window, is ignored, repeated or not.  Each recorded count is
    checked as stated and reported with the computed value, pass or fail.
    """
    window = range(3, 100, 2)
    rows = [row for row in rows if row.n in window]
    by_n = {row.n: row for row in rows}
    missing = [n for n in window if n not in by_n]
    if missing:
        raise DomainError(f"rows must cover all odd n in [3, 99]; missing {missing}")
    repeated = [n for n, k in sorted(Counter(row.n for row in rows).items()) if k > 1]
    if repeated:
        raise DomainError(f"rows must cover each odd n in [3, 99] once; repeated {repeated}")
    surveyed = [by_n[n] for n in window]
    many = [row for row in surveyed if row.coset_count > 2]
    odd_counts = [row.n for row in many if row.coset_count % 2 == 1]
    row43 = by_n[43]
    others = [row for row in many if row.n != 43]
    top = max((row.coset_count for row in others), default=0)
    all_even = set(odd_counts) <= {43}  # no odd count outside n=43
    single = tuple(row.n for row in surveyed if row.nu == row.phi)
    non_pp = [n for n in single if not by_n[n].is_prime_power]

    return ClaimReport(claims=(
        ClaimResult(
            key="more-than-two-cosets",
            passed=len(many) == 9,
            expected="9 moduli with more than 2 cosets",
            observed=f"{len(many)} moduli",
            derived=tuple(row.n for row in many),
        ),
        ClaimResult(
            key="odd-coset-count",
            passed=(odd_counts == [43] and row43.coset_count == 3
                    and row43.self_complementary_count == 3),
            expected="only n=43, with 3 cosets, all self-complementary",
            observed=(f"odd counts at {odd_counts}; n=43 has {row43.coset_count} cosets, "
                      f"{row43.self_complementary_count} self-complementary"),
        ),
        ClaimResult(
            key="even-counts-max-8",
            passed=all_even and top == 8,
            expected="every other count even, maximum 8",
            observed=f"parities {'all even' if all_even else 'mixed'}, maximum {top}",
            derived=tuple(row.n for row in others if row.coset_count == 8),
        ),
        ClaimResult(
            key="order-equals-totient",
            passed=len(single) == 16,
            expected="16 moduli where the order of 2 is the full totient",
            observed=f"{len(single)} moduli",
            derived=single,
        ),
        ClaimResult(
            key="order-equals-totient-prime-power",
            passed=not non_pp,
            expected="each such modulus a prime or prime power",
            observed=f"exceptions {non_pp}" if non_pp else "all prime powers",
        ),
    ))
