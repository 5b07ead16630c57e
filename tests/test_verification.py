"""Numeric verification: log_gamma accuracy, residuals, tolerances, reports."""

import dataclasses
import json
import math
import random
import re
from decimal import Decimal
from fractions import Fraction

import mpmath
import pytest

from gammaprod import (
    build_identity,
    default_tolerance,
    enumerate_identities,
    full_product_identity,
    halve_mod,
    log_gamma,
    mersenne_identity,
    odd_lift_inverse,
    units_mod,
    verify_duplication,
    verify_full_product,
    verify_identity,
)
from gammaprod import residues, verification
from gammaprod.errors import DomainError

LN2 = math.log(2.0)
LNPI = math.log(math.pi)


class TestLogGamma:
    def test_half(self):
        assert abs(log_gamma(0.5) - 0.5 * LNPI) < 1e-15

    def test_reflection_pair_sixths(self):
        # Gamma(1/6) Gamma(5/6) = pi / sin(pi/6) = 2 pi
        assert abs(log_gamma(1 / 6) + log_gamma(5 / 6) - math.log(2 * math.pi)) < 1e-14

    def test_matches_mpmath(self):
        mpmath.mp.dps = 30
        points = [k / 997 for k in range(1, 997)] + [1e-6, 1 / 20000, 1 / 62]
        worst = max(abs(log_gamma(t) - float(mpmath.loggamma(mpmath.mpf(t))))
                    for t in points)
        assert worst < 1e-13

    @pytest.mark.parametrize("t", [0.0, 1.0, -0.25, 1.5, 42.0])
    def test_domain(self, t):
        with pytest.raises(DomainError):
            log_gamma(t)


class TestDuplication:
    def test_quarter(self):
        assert abs(verify_duplication(0.25)) < 1e-13

    def test_grid(self):
        worst = max(abs(verify_duplication(k / 1000)) for k in range(1, 500))
        assert worst < 1e-12

    @pytest.mark.parametrize("t", [0.0, 0.5, 0.75, -0.1])
    def test_domain(self, t):
        with pytest.raises(DomainError):
            verify_duplication(t)


class TestReflectionOracle:
    def test_random_points(self):
        # independent check: lgamma(t) + lgamma(1-t) against log(pi / sin(pi t)),
        # with the sine argument folded onto [0, 1/2] for conditioning
        rng_points = [k / 409 for k in range(1, 409)]
        worst = 0.0
        for t in rng_points:
            s = math.sin(math.pi * min(t, 1.0 - t))
            worst = max(worst, abs(log_gamma(t) + log_gamma(1.0 - t) - math.log(math.pi / s)))
        assert worst < 1e-12


class TestVerifyIdentity:
    def test_three_term(self):
        report = verify_identity(build_identity(7, [1, 9, 11]))
        assert report.passed
        assert abs(report.residual) < 1e-12
        assert report.n == 7 and report.coset_min == 1 and report.term_count == 3
        assert report.tolerance == pytest.approx(4e-9)

    def test_n31_subgroup(self):
        report = verify_identity(build_identity(31, [1, 33, 35, 39, 47]))
        assert report.passed and abs(report.residual) < 1e-10

    def test_explicit_tolerance_respected(self):
        identity = build_identity(7, [1, 9, 11])
        assert verify_identity(identity, tol=1e-10).tolerance == 1e-10
        assert not verify_identity(identity, tol=1e-30).passed

    def test_tampered_power_of_two(self):
        identity = dataclasses.replace(build_identity(7, [1, 9, 11]), b=3)
        report = verify_identity(identity)
        assert not report.passed
        assert report.residual == pytest.approx(-LN2, abs=1e-12)

    def test_coset_min_is_read_off_an_unsorted_coset(self):
        identity = dataclasses.replace(build_identity(7, [1, 9, 11]), coset=(11, 1, 9))
        report = verify_identity(identity)
        assert report.coset_min == 1 and report.passed

    def test_tampered_coset_reports_honestly(self):
        # no structural validation: a bogus numerator just shifts the residual
        identity = dataclasses.replace(build_identity(7, [1, 9, 11]), coset=(1, 8, 11))
        report = verify_identity(identity)
        assert not report.passed
        assert abs(report.residual) > 1e-2

    @pytest.mark.parametrize("coset", [(1, 9, 14), (0, 9, 11), (1, 9, -11)])
    def test_argument_outside_unit_interval_is_domain_error(self, coset):
        # 0 and 2n give Gamma arguments 0 and 1, outside log_gamma's domain
        identity = dataclasses.replace(build_identity(7, [1, 9, 11]), coset=coset)
        with pytest.raises(DomainError):
            verify_identity(identity)

    @pytest.mark.parametrize("coset, bad", [((1, 9, 14), 14), ((0, 9, 11), 0),
                                            ((1, 9, -11), -11), ((16, 9, 20), 16)])
    def test_out_of_range_message_is_log_gamma_s(self, coset, bad):
        identity = dataclasses.replace(build_identity(7, [1, 9, 11]), coset=coset)
        message = f"log_gamma argument must lie in (0, 1), got {bad / 14}"
        with pytest.raises(DomainError, match=f"^{re.escape(message)}$"):
            verify_identity(identity)

    def test_residual_is_fsum_of_public_log_gamma(self):
        for n in range(3, 200, 2):
            for identity in enumerate_identities(n):
                terms = [log_gamma(x / (2 * n)) for x in identity.coset]
                terms += [-identity.b * LN2, -0.5 * identity.nu * LNPI]
                assert verify_identity(identity).residual == math.fsum(terms)

    def test_matches_mpmath_for_large_moduli(self):
        # n = 2**m - 1 exceeds 2**53, so x / 2n is rounded before lgamma sees it
        identities = [mersenne_identity(m) for m in (61, 89, 127)]
        identities.append(enumerate_identities(10007)[0])  # 5003 terms
        for identity in identities:
            with mpmath.workdps(50):
                m = mpmath.mpf(2 * identity.n)
                exact = (mpmath.fsum(mpmath.loggamma(x / m) for x in identity.coset)
                         - identity.b * mpmath.log(2) - identity.nu * mpmath.log(mpmath.pi) / 2)
            assert abs(verify_identity(identity).residual - exact) < 1e-12

    def test_passed_matches_threshold(self):
        identity = build_identity(15, [1, 17, 19, 23])
        for tol in (1e-30, 1e-12, 1e-6, 1.0):
            report = verify_identity(identity, tol)
            assert report.passed == (abs(report.residual) <= tol)

    def test_looser_tolerance_never_flips_to_fail(self):
        identity = build_identity(31, [1, 33, 35, 39, 47])
        tight = verify_identity(identity, 1e-12)
        if tight.passed:
            assert verify_identity(identity, 1e-6).passed


class TestDefaultTolerance:
    def test_small_n(self):
        assert default_tolerance(7, 3) == pytest.approx(4e-9)
        assert default_tolerance(999, 10) == pytest.approx(1.1e-8)

    def test_relaxes_for_huge_n(self):
        small = default_tolerance(10_000, 5)
        big = default_tolerance(10_001, 5)
        assert big > small
        assert big == pytest.approx(small * (1 + math.log(2 * 10_001)))

    def test_loose_default_is_refused_on_a_walkable_coset(self):
        # n = (2**127 - 1) * 78707: 2 has order 127 mod the first prime and
        # 78706 = 2 * 23 * 29 * 59 mod the second, so the coset of 1 has
        # nu = lcm(127, 78706) elements, within the walk limit
        p, q = 2**127 - 1, 78707
        n, nu = p * q, math.lcm(127, 78706)
        assert pow(2, 127, p) == 1 and all(pow(2, 78706 // r, q) != 1 for r in (2, 23, 29, 59))
        assert nu == 9_995_662 <= residues._MAX_WALK
        assert default_tolerance(n, nu) == pytest.approx(1.0095, abs=1e-4)
        assert default_tolerance(n, nu) > LN2  # would pass a b off by one
        # the tolerance step reads only the count, so the refusal comes before any term
        with pytest.raises(DomainError, match=f"{nu} terms at n={n} is inconclusive"):
            verification._tolerance(n, nu, None)

    def test_no_default_under_the_walk_limit_is_refused(self):
        # the most terms a check of one n <= _MAX_WALK takes is phi(2n) < n
        limit = residues._MAX_WALK
        assert default_tolerance(limit, limit) == pytest.approx(0.178, abs=1e-3)
        assert default_tolerance(limit, limit) < LN2 / 2


class TestInconclusiveDefault:
    @pytest.fixture(autouse=True)
    def loose_default(self, monkeypatch):
        monkeypatch.setattr(verification, "default_tolerance", lambda n, terms: 0.5)

    def test_verify_identity_refuses(self):
        identity = build_identity(7, [1, 9, 11])
        with pytest.raises(DomainError, match="inconclusive"):
            verify_identity(identity)
        assert verify_identity(identity, 0.5).passed

    def test_verify_full_product_refuses(self):
        with pytest.raises(DomainError, match="inconclusive"):
            verify_full_product(7)


class TestExplicitTolerance:
    # nan would fail every check and inf would pass a b off by any amount
    @pytest.mark.parametrize("tol, message", [
        (math.inf, "tolerance must be positive and finite, got inf"),
        (math.nan, "tolerance must be positive and finite, got nan"),
        (0, "tolerance must be positive and finite, got 0"),
        (-1e-9, "tolerance must be positive and finite, got -1e-09"),
        ("1e-9", "tolerance must be positive and finite, got '1e-9'"),
        ([1e-9], "tolerance must be positive and finite, got [1e-09]"),
        # checked as the float it is read as: 0.0, inf and an overflow are refused too
        (Fraction(1, 10**400), f"tolerance must be positive and finite, got {Fraction(1, 10**400)!r}"),
        (10**400, f"tolerance must be positive and finite, got {10**400!r}"),
        (Decimal("1e400"), "tolerance must be positive and finite, got Decimal('1E+400')"),
        (Decimal("sNaN"), "tolerance must be positive and finite, got Decimal('sNaN')"),
    ])
    def test_refused_by_both_verifiers(self, tol, message):
        wrong = dataclasses.replace(build_identity(7, [1, 9, 11]), b=7)  # b off by 5
        with pytest.raises(DomainError, match=f"^{re.escape(message)}$"):
            verify_identity(wrong, tol)
        with pytest.raises(DomainError, match=f"^{re.escape(message)}$"):
            verify_full_product(7, tol)

    def test_a_numpy_tolerance_is_reported_as_a_float(self):
        np = pytest.importorskip("numpy")
        reports = (verify_identity(build_identity(7, [1, 9, 11]), np.float64(1e-9)),
                   verify_full_product(np.int64(7), np.float32(1e-6)))
        for report in reports:
            assert type(report.tolerance) is float and type(report.passed) is bool
            assert type(report.n) is int and type(report.residual) is float
            json.dumps(dataclasses.asdict(report))  # a numpy scalar would not serialize
        assert [r.tolerance for r in reports] == [1e-9, float(np.float32(1e-6))]
        with pytest.raises(DomainError, match=r"^tolerance must be positive and finite, got "):
            verify_full_product(7, np.longdouble("1e400"))  # inf as a float

    @pytest.mark.parametrize("tol", [Decimal("1e-9"), Fraction(1, 10**9), 1])
    def test_a_decimal_or_fraction_tolerance_is_reported_as_a_float(self, tol):
        report = verify_full_product(7, tol)
        assert type(report.tolerance) is float and report.tolerance == float(tol)
        assert report.passed

    def test_refused_before_the_range_check(self):
        identity = dataclasses.replace(build_identity(7, [1, 9, 11]), coset=(0, 9, 11))
        with pytest.raises(DomainError, match="tolerance must be positive"):
            verify_identity(identity, math.nan)


class TestEmptyRecord:
    @pytest.mark.parametrize("tol", [None, 1e-9])
    def test_an_empty_coset_is_refused(self, tol):
        empty = dataclasses.replace(build_identity(7, [1, 9, 11]), coset=())
        with pytest.raises(DomainError, match=r"^the coset at n=7 is empty"):
            verify_identity(empty, tol)


class TestFloatRange:
    """A Mersenne n = 2**m - 1 puts 1/2n below the normal doubles once m > 1021."""

    @pytest.mark.parametrize("tol", [None, 1e-3])
    def test_the_last_normal_smallest_argument_passes(self, tol):
        report = verify_identity(mersenne_identity(1021), tol)
        assert report.passed and report.term_count == 1021

    # 1022 took one subnormal term, 1023 had an inf default, 1074 read off by -ln 2 and
    # 1100 divided to 0.0; each is refused before a term is taken, whatever the tolerance
    @pytest.mark.parametrize("tol", [None, 1e-3])
    @pytest.mark.parametrize("m", [1022, 1023, 1024, 1074, 1100])
    def test_a_subnormal_smallest_argument_is_refused(self, m, tol):
        with pytest.raises(DomainError, match=r"smallest argument 1/2n is not a normal double$"):
            verify_identity(mersenne_identity(m), tol)

    def test_the_default_reads_an_int_past_the_float_range(self):
        rng = random.Random(20091)
        ns = [2**53 - 1, 2**53 + 1, 2**1022 + 1]
        ns += [rng.getrandbits(rng.randrange(2, 1023)) | 1 for _ in range(2000)]
        for n in ns:  # bit-identical to the float form wherever 2.0 * n is finite
            assert math.log(2 * n) == math.log(2.0 * n)
        assert math.isfinite(default_tolerance(2**1100 - 1, 1100))


class TestVerifyFullProduct:
    def test_small(self):
        assert verify_full_product(3).passed
        report = verify_full_product(7)
        assert report.passed and report.term_count == 6 and report.coset_min == 1

    def test_n99(self):
        report = verify_full_product(99)
        assert report.passed
        assert report.term_count == 60
        assert abs(report.residual) < 1e-9

    def test_equals_sum_of_coset_residuals(self):
        # the combined check differs from the per-coset checks only by rounding
        for n in (7, 31, 99):
            total = verify_full_product(n).residual
            parts = math.fsum(verify_identity(i).residual for i in enumerate_identities(n))
            phi = len(units_mod(n))
            assert abs(total - parts) <= 1e-12 * phi

    def test_matches_a_report_on_a_gcd_scan(self):
        # the streamed odd half of the sieve mod 2n against the units a gcd scan finds,
        # field for field; fsum is correctly rounded, so the residual matches exactly
        for n in range(3, 2000, 2):
            m, record = 2 * n, full_product_identity(n)
            units = [x for x in range(1, m) if math.gcd(x, m) == 1]
            residual = math.fsum([math.lgamma(x / m) for x in units]
                                 + [-record.pow2 * (LN2 + LNPI)])
            tol = default_tolerance(n, len(units))
            expected = verification.VerificationReport(
                n=n, coset_min=min(units), residual=residual, tolerance=tol,
                passed=abs(residual) <= tol, term_count=len(units))
            assert expected.coset_min == 1 and expected.term_count == record.pi_half_units
            assert verify_full_product(n) == expected

    def test_reads_the_record_it_checks(self, monkeypatch):
        # the check is of full_product_identity's record: a pow2 off by one
        # shifts the residual by -ln(2 pi) and fails
        honest, record = verify_full_product(31), verification.full_product_identity
        monkeypatch.setattr(verification, "full_product_identity",
                            lambda n: dataclasses.replace(record(n), pow2=record(n).pow2 + 1))
        report = verify_full_product(31)
        assert not report.passed
        assert report.residual == pytest.approx(honest.residual - LN2 - LNPI, abs=1e-12)

    def test_rejects_even(self):
        with pytest.raises(Exception):
            verify_full_product(8)

    def test_refuses_oversized_modulus_at_once(self):
        with pytest.raises(DomainError, match="too large"):
            verify_full_product(2**61 - 1)


def test_a_coset_check_sums_its_terms_as_it_takes_them(traced_peak, coset_of_1000003):
    # a list of the coset's lgamma terms took about 32 bytes a term
    report, peak = traced_peak(verify_identity, coset_of_1000003)
    assert report.passed and report.term_count == 1000002
    assert peak < 4 * report.term_count


def test_the_full_product_check_holds_its_sieve_and_no_terms(traced_peak):
    # the sieve mod 2n and its odd half, about 4 bytes a unit; a list of the terms took 33
    report, peak = traced_peak(verify_full_product, 1000003)
    assert report.passed and report.term_count == 1000002
    assert peak < 8 * report.term_count


def test_per_element_halving_decomposition():
    # each single Gamma(x/2n) factors through the halved argument:
    # ln Gamma(x/2n) = ln eps + ln(2 sqrt(pi)) - (x/n) ln 2
    #                  + ln Gamma(y/n) - ln Gamma(z/n)
    # with y the lift inverse of x, z its half, eps = 2 exactly when x > n
    for n in (7, 31, 45):
        m = 2 * n
        for x in units_mod(m):
            y = odd_lift_inverse(x, n)
            z = halve_mod(y, n)
            assert x - n == 2 * y - 2 * z
            assert (y - 2 * z) % n == 0
            eps = 2.0 if x > n else 1.0
            rhs = (math.log(eps) + LN2 + 0.5 * LNPI - (x / n) * LN2
                   + log_gamma(y / n) - log_gamma(z / n))
            assert abs(log_gamma(x / m) - rhs) < 5e-13
