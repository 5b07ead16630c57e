"""Survey rows and the recorded n < 100 reference counts."""

import pytest

from gammaprod import (
    check_reference_claims,
    enumerate_identities,
    is_prime_power,
    is_self_complementary,
    survey_range,
    survey_row,
    units_mod,
)
from gammaprod.errors import DomainError

# frozen by an independent brute-force sweep (seen-array orbits, gcd scans)
MODULI_WITH_MANY_COSETS = (31, 43, 51, 63, 65, 73, 85, 89, 91, 93)
MODULI_WITH_FULL_ORDER = (3, 5, 9, 11, 13, 19, 25, 27, 29, 37, 53, 59, 61, 67, 81, 83)
MODULI_WITH_EIGHT_COSETS = (73, 85, 89)


class TestSurveyRow:
    def test_n3(self):
        row = survey_row(3)
        assert row.phi == 2 and row.nu == 2 and row.coset_count == 1
        assert row.self_complementary_count == 1
        assert row.max_b == 1 and row.is_prime_power

    def test_n31(self):
        row = survey_row(31)
        assert row.phi == 30 and row.nu == 5 and row.coset_count == 6
        assert row.self_complementary_count == 0
        assert row.max_b == 4 and row.is_prime_power

    def test_n43(self):
        row = survey_row(43)
        assert row.coset_count == 3
        assert row.self_complementary_count == 3

    def test_n91_composite(self):
        row = survey_row(91)
        assert row.coset_count == 6 and not row.is_prime_power


class TestSurveyRange:
    def test_rows_in_increasing_order(self):
        rows = survey_range(99)
        assert [row.n for row in rows] == list(range(3, 100, 2))

    def test_invariants(self):
        for row in survey_range(199):
            assert row.phi == row.nu * row.coset_count
            assert (row.coset_count - row.self_complementary_count) % 2 == 0
            assert 0 <= row.max_b <= row.nu
            if row.nu == row.phi:
                assert row.coset_count == 1
                assert row.is_prime_power

    def test_deterministic(self):
        assert survey_range(61) == survey_range(61)

    def test_single_row_range(self):
        rows = survey_range(3)
        assert len(rows) == 1 and rows[0].n == 3

    @pytest.mark.parametrize("bad", [2, 1, 0, -9])
    def test_rejects_short_range(self, bad):
        with pytest.raises(DomainError):
            survey_range(bad)


class TestIsPrimePower:
    @pytest.mark.parametrize("n", [2, 3, 5, 8, 9, 25, 27, 49, 81, 121, 243])
    def test_accepts(self, n):
        assert is_prime_power(n)

    @pytest.mark.parametrize("n", [1, 0, -7, 6, 12, 15, 21, 45, 63, 91, 99, 100])
    def test_rejects(self, n):
        assert not is_prime_power(n)


@pytest.fixture(scope="module")
def report():
    return check_reference_claims(survey_range(99))


class TestReferenceClaims:
    def _claim(self, report, key):
        matches = [c for c in report.claims if c.key == key]
        assert len(matches) == 1
        return matches[0]

    def test_count_of_many_coset_moduli_disagrees(self, report):
        # the recorded count says 9, the sweep finds 10; reported honestly
        claim = self._claim(report, "more-than-two-cosets")
        assert not claim.passed
        assert claim.observed == "10 moduli"
        assert claim.derived == MODULI_WITH_MANY_COSETS

    def test_unique_odd_count(self, report):
        claim = self._claim(report, "odd-coset-count")
        assert claim.passed

    def test_even_counts_with_max_eight(self, report):
        claim = self._claim(report, "even-counts-max-8")
        assert claim.passed
        assert claim.derived == MODULI_WITH_EIGHT_COSETS

    def test_full_order_moduli(self, report):
        claim = self._claim(report, "order-equals-totient")
        assert claim.passed
        assert claim.derived == MODULI_WITH_FULL_ORDER

    def test_full_order_moduli_are_prime_powers(self, report):
        assert self._claim(report, "order-equals-totient-prime-power").passed

    def test_overall_report_fails(self, report):
        assert not report.all_passed
        assert sum(1 for c in report.claims if not c.passed) == 1

    def test_extra_rows_are_ignored(self):
        wide = check_reference_claims(survey_range(149))
        base = check_reference_claims(survey_range(99))
        assert wide == base

    def test_requires_full_coverage(self):
        with pytest.raises(DomainError):
            check_reference_claims(survey_range(97))
        with pytest.raises(DomainError):
            check_reference_claims([])


def test_max_b_matches_identities():
    for n in (7, 31, 45):
        assert survey_row(n).max_b == max(i.b for i in enumerate_identities(n))


def test_counts_match_per_coset_reference():
    # survey_row reads phi and the self-complementary count off the coset
    # count and the first coset; here both are recomputed the long way
    for n in range(3, 600, 2):
        row = survey_row(n)
        assert row.self_complementary_count == sum(
            is_self_complementary(i) for i in enumerate_identities(n))
        assert row.phi == len(units_mod(n))
