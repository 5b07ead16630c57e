"""Log-domain numeric verification of the product identities.

Products of Gamma values overflow double precision even for modest moduli,
so every check happens on logarithms, where the residual of a true identity
is O(1) and scale-free.  Per-term accuracy is 1e-12 absolute for arguments
t >= 1e-6, which covers every x/2n with n <= 10**4; term sums are exactly
rounded (math.fsum), so residuals reflect per-term error only.  A check
whose smallest x/2n is not a normal double is refused: below 2**-1022 the
quotient keeps fewer than 53 bits, so a true identity can read as off by
ln 2, and once it rounds to 0.0 lgamma has no value there.  For the
coset of 1 that is every n > 2**1021.

The default pass tolerance is 1e-9 * (1 + terms), loosened by a further
1 + ln(2n) factor once n exceeds 10**4 and the per-term contract relaxes.
A default that reaches ln(2)/2 could not fail a b off by one, so the check
is refused as inconclusive.  An explicit tolerance must be a real number or
a Decimal, and its float must be positive and finite, since nan fails every
check, inf passes any record and 0 passes only an exact residual; within
that it is taken as given, as that float.

Each check first fixes its term count and tolerance, then hands both and
a generator of its lgamma terms to _residual_report, the one residual
routine, whose fsum adds each term as it is taken.  verify_identity takes
them off the record's coset after its range check, verify_full_product off
the odd half of its own sieve mod 2n; neither holds a list of terms.
"""

import math
import numbers
import sys
from dataclasses import dataclass
from decimal import Decimal
from itertools import chain, compress
from typing import Iterable

from .errors import DomainError
from .identities import GammaProductIdentity, full_product_identity
from .residues import _distinct_primes, _unit_mask

__all__ = [
    "VerificationReport",
    "log_gamma",
    "verify_duplication",
    "verify_identity",
    "verify_full_product",
    "default_tolerance",
]

_LN_2 = math.log(2.0)
_LN_PI = math.log(math.pi)
_LN_TWO_ROOT_PI = _LN_2 + 0.5 * _LN_PI


def log_gamma(t: float) -> float:
    """ln Gamma(t) on the open unit interval.

    Delegates to math.lgamma: CPython ships its own Lanczos-based
    implementation, accurate to a few ulp, which lands orders of magnitude
    inside the 1e-12 absolute budget for t >= 1e-6.  The domain is
    restricted to (0, 1) because that is where every product argument
    lives; the reflection and doubling identities stay available as
    independent cross-checks precisely because they are not used here.
    """
    if not 0.0 < t < 1.0:
        raise DomainError(f"log_gamma argument must lie in (0, 1), got {t}")
    return math.lgamma(t)


def verify_duplication(t: float) -> float:
    """Residual of the Gamma doubling identity at t in (0, 1/2).

    ln Gamma(t) + ln Gamma(t + 1/2) - ln Gamma(2t) should equal
    ln(2 sqrt(pi)) - 2t ln 2; the return value is the difference.
    """
    if not 0.0 < t < 0.5:
        raise DomainError(f"doubling check needs t in (0, 1/2), got {t}")
    lhs = log_gamma(t) + log_gamma(t + 0.5) - log_gamma(2.0 * t)
    return lhs - (_LN_TWO_ROOT_PI - 2.0 * t * _LN_2)


def default_tolerance(n: int, term_count: int) -> float:
    """Pass threshold scaled to the term count, relaxed for very large n."""
    tol = 1e-9 * (1 + term_count)
    if n > 10_000:
        tol *= 1.0 + math.log(2 * n)  # an int of any size, where 2.0 * n overflows
    return tol


@dataclass(frozen=True)
class VerificationReport:
    """Outcome of one log-domain residual check."""

    n: int
    coset_min: int
    residual: float
    tolerance: float
    passed: bool
    term_count: int


def _check_tolerance(tol: float) -> float:
    """An explicit tolerance as a float, or one DomainError for a non-number, nan, inf or <= 0."""
    try:
        t = float(tol) if isinstance(tol, (numbers.Real, Decimal)) else math.nan
    except (OverflowError, ValueError):  # an int or Fraction past the float range, a Decimal sNaN
        t = math.nan
    if 0 < t < math.inf:  # nan fails the comparison too
        return t
    raise DomainError(f"tolerance must be positive and finite, got {tol!r}")


def _tolerance(n: int, term_count: int, tol: float | None) -> float:
    """The tolerance of a check of term_count terms, fixed before any term is taken: an
    explicit one through _check_tolerance, a default refused as inconclusive at ln(2)/2."""
    if tol is not None:
        return _check_tolerance(tol)
    tol = default_tolerance(n, term_count)
    if tol >= _LN_2 / 2:  # a b off by one shifts the residual by ln 2
        raise DomainError(f"the check of {term_count} terms at n={n} is inconclusive: its "
                          f"default tolerance {tol:.3e} reaches ln(2)/2; give an explicit one")
    return tol


def _residual_report(n: int, coset_min: int, term_count: int, terms: Iterable[float],
                     rhs_terms: list[float], tol: float) -> VerificationReport:
    """Report on the sum of term_count lgamma terms, taken from the iterable as fsum adds
    them, plus rhs_terms, the negated closed form."""
    residual = math.fsum(chain(terms, rhs_terms))
    return VerificationReport(int(n), coset_min, residual, tol, abs(residual) <= tol, term_count)


def verify_identity(identity: GammaProductIdentity,
                    tol: float | None = None) -> VerificationReport:
    """Check one identity numerically; failure is reported, never raised.

    residual = sum of ln Gamma(x/2n) minus (b ln 2 + (nu/2) ln pi).  The
    record is taken at face value with no structural validation, so a
    tampered identity simply shows up with a large honest residual (a
    wrong b shifts it by multiples of ln 2).
    """
    n, xs = identity.n, identity.coset
    tol = _tolerance(n, term_count := len(xs), tol)
    if not xs:  # only a hand-built record: min would raise a bare ValueError
        raise DomainError(f"the coset at n={n} is empty; there is nothing to check")
    m = 2 * n
    coset_min = min(xs)  # the report's coset_min; the range check needs it anyway
    if not (0 < coset_min and max(xs) < m):  # one range check stands in for log_gamma's
        log_gamma(next(x for x in xs if not 0 < x < m) / m)  # raises: x/m is outside (0, 1)
    if coset_min / m < sys.float_info.min:  # a subnormal x/m keeps too few bits to be checked
        raise DomainError(f"the check at n={n} is refused: its smallest argument "
                          f"{coset_min}/2n is not a normal double")
    lgamma = math.lgamma
    return _residual_report(n, coset_min, term_count, (lgamma(x / m) for x in xs),
                            [-identity.b * _LN_2, -0.5 * identity.nu * _LN_PI], tol)


def verify_full_product(n: int, tol: float | None = None) -> VerificationReport:
    """Check the record full_product_identity(n): the product over every unit mod 2n."""
    fp = full_product_identity(n)
    # The units mod 2n come from their own sieve, not the primes of n that gave the
    # record's phi, so a wrong pow2 shows; the tests pin it to a gcd scan.  Every unit is
    # odd, so the odd half of the sieve streams them ascending into the terms with no
    # list of units: 1 leads and each x lies in (0, 2n), so no min, max or range check.
    m = 2 * fp.n
    odd_mask = _unit_mask(m, _distinct_primes(m))[1::2]
    tol = _tolerance(fp.n, term_count := odd_mask.count(1), tol)
    lgamma = math.lgamma
    terms = (lgamma(x / m) for x in compress(range(1, m, 2), odd_mask))
    return _residual_report(fp.n, 1, term_count, terms, [-fp.pow2 * (_LN_2 + _LN_PI)], tol)
