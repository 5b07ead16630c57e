"""Survey rows and the recorded n < 100 reference counts."""

import dataclasses
import hashlib
import math
import re

import pytest
from hypothesis import given, settings, strategies as st

from gammaprod import (
    SurveyRow,
    check_reference_claims,
    enumerate_identities,
    halving_cycles,
    identities,
    is_prime_power,
    is_self_complementary,
    multiplicative_order,
    residues,
    survey,
    survey_range,
    survey_row,
    units_mod,
)
from gammaprod.errors import DomainError, InvalidModulusError

# frozen by an independent brute-force sweep (seen-array orbits, gcd scans)
MODULI_WITH_MANY_COSETS = (31, 43, 51, 63, 65, 73, 85, 89, 91, 93)
MODULI_WITH_FULL_ORDER = (3, 5, 9, 11, 13, 19, 25, 27, 29, 37, 53, 59, 61, 67, 81, 83)
MODULI_WITH_EIGHT_COSETS = (73, 85, 89)


def brute_prime_power(n):
    d = next(d for d in range(2, n + 1) if n % d == 0)
    while n % d == 0:
        n //= d
    return n == 1


def reference_row(n):
    """A survey row built the long way, from every identity record."""
    identities = enumerate_identities(n)
    return SurveyRow(
        n=n,
        phi=len(units_mod(n)),
        nu=identities[0].nu,
        coset_count=len(identities),
        self_complementary_count=sum(is_self_complementary(i) for i in identities),
        max_b=max(i.b for i in identities),
        is_prime_power=brute_prime_power(n),
    )


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

    def test_reads_any_index_type(self):
        class Index:
            def __index__(self):
                return 9

        assert survey_range(Index()) == survey_range(9)

    @pytest.mark.parametrize("max_n, name", [(99.5, "99.5"), (99.0, "99.0"), ("99", "'99'")])
    def test_refuses_a_non_integer_bound(self, max_n, name):
        with pytest.raises(DomainError, match=f"^{re.escape(name)} is not an integer$"):
            survey_range(max_n)

    @pytest.mark.parametrize("bad", [2, 1, 0, -9])
    def test_rejects_short_range(self, bad):
        with pytest.raises(DomainError):
            survey_range(bad)

    @pytest.mark.parametrize("bound, rows", [(9, 4), (99, 49)], ids=["9", "99"])
    def test_refuses_a_range_past_a_lowered_sweep_bound_before_any_row(self, monkeypatch,
                                                                      bound, rows):
        monkeypatch.setattr(survey, "_MAX_SWEEP", bound)
        with pytest.raises(DomainError, match=f"the limit is n <= {bound}"):
            survey_range(bound + 2)
        assert len(survey_range(bound)) == rows

    def test_refuses_a_range_past_the_real_limit_without_walking(self, monkeypatch):
        def no_row(n):
            raise AssertionError(f"survey_row({n}) ran before the range was refused")

        monkeypatch.setattr(survey, "survey_row", no_row)
        # the units walked grow as N**2: 2e9 at N = 10**5, 2e13 at N = 10**7
        for max_n in (100001, 10**7 + 1):
            with pytest.raises(DomainError,
                               match=f"range {max_n} is too large; the limit is n <= 100000"):
                survey_range(max_n)


class TestIsPrimePower:
    @pytest.mark.parametrize("n", [2, 3, 5, 8, 9, 25, 27, 49, 81, 121, 243])
    def test_accepts(self, n):
        assert is_prime_power(n)

    @pytest.mark.parametrize("n", [1, 0, -7, 6, 12, 15, 21, 45, 63, 91, 99, 100])
    def test_rejects(self, n):
        assert not is_prime_power(n)

    @pytest.mark.parametrize("n", [7.5, 9.0, "9"])
    def test_refuses_a_non_integer(self, n):
        # int() would truncate 7.5 to 7 and read 9.0 as 9, both prime powers
        with pytest.raises(InvalidModulusError, match="modulus must be an integer"):
            is_prime_power(n)

    def test_refuses_a_modulus_too_large_to_factor(self):
        # trial division up to sqrt(2**127 - 1) would never finish
        with pytest.raises(DomainError, match="too large"):
            is_prime_power(2**127 - 1)
        with pytest.raises(DomainError, match="the limit is n <= 20000000"):
            is_prime_power(20_000_003)
        assert is_prime_power(19_999_999)  # the largest prime within the limit

    def test_factoring_bound_follows_the_walk_bound(self, monkeypatch):
        monkeypatch.setattr(residues, "_MAX_WALK", 50)
        message = "n=101 is too large to factor; the limit is n <= 100"
        with pytest.raises(DomainError, match=message):
            is_prime_power(101)
        assert is_prime_power(97)


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
        # an even n inside the window and an odd n past it are no odd n < 100
        even = dataclasses.replace(survey_row(3), n=4, coset_count=3)
        beyond = survey_row(101)
        assert check_reference_claims(survey_range(99) + (even, beyond)) == base

    def test_a_repeated_n_in_the_window_is_refused(self):
        rows = survey_range(99)
        twin = dataclasses.replace(survey_row(43), coset_count=5)
        for extra in [(twin,), (rows[20],), (twin, rows[0], rows[0])]:
            with pytest.raises(DomainError, match=re.escape("once; repeated [")) as refusal:
                check_reference_claims(rows + extra)
            assert str(refusal.value).endswith(str(sorted({row.n for row in extra})))
        # a repeat outside the window is ignored like any row there
        even = dataclasses.replace(survey_row(3), n=4, coset_count=3)
        beyond = survey_row(101)
        assert (check_reference_claims(rows + (even, even, beyond, beyond))
                == check_reference_claims(rows))

    def test_requires_full_coverage(self):
        with pytest.raises(DomainError):
            check_reference_claims(survey_range(97))
        with pytest.raises(DomainError):
            check_reference_claims([])


def _altered_report(changes):
    """check_reference_claims on survey_range(99) with some rows' fields replaced."""
    return check_reference_claims(
        dataclasses.replace(row, **changes.get(row.n, {})) for row in survey_range(99))


class TestReferenceClaimVerdicts:
    """Every claim both passes and fails on altered rows, with its observed text pinned."""

    NINE = {51: {"coset_count": 2}}  # drops the one modulus the source did not record

    CASES = [
        (NINE, "more-than-two-cosets", True, "9 moduli"),
        ({}, "odd-coset-count", True,
         "odd counts at [43]; n=43 has 3 cosets, 3 self-complementary"),
        ({31: {"coset_count": 3}}, "odd-coset-count", False,
         "odd counts at [31, 43]; n=43 has 3 cosets, 3 self-complementary"),
        ({43: {"self_complementary_count": 1}}, "odd-coset-count", False,
         "odd counts at [43]; n=43 has 3 cosets, 1 self-complementary"),
        ({43: {"coset_count": 4}}, "odd-coset-count", False,
         "odd counts at []; n=43 has 4 cosets, 3 self-complementary"),
        ({}, "even-counts-max-8", True, "parities all even, maximum 8"),
        ({31: {"coset_count": 5}}, "even-counts-max-8", False, "parities mixed, maximum 8"),
        ({n: {"coset_count": 6} for n in (73, 85, 89)}, "even-counts-max-8", False,
         "parities all even, maximum 6"),
        ({n: {"coset_count": 2} for n in MODULI_WITH_MANY_COSETS if n != 43},
         "even-counts-max-8", False, "parities all even, maximum 0"),
        ({}, "order-equals-totient", True, "16 moduli"),
        ({3: {"nu": 1}}, "order-equals-totient", False, "15 moduli"),
        ({}, "order-equals-totient-prime-power", True, "all prime powers"),
        ({9: {"is_prime_power": False}, 25: {"is_prime_power": False}},
         "order-equals-totient-prime-power", False, "exceptions [9, 25]"),
        ({15: {"nu": 8}}, "order-equals-totient-prime-power", False, "exceptions [15]"),
    ]

    @pytest.mark.parametrize("changes, key, passed, observed", CASES,
                             ids=[f"{case[1]}-{i}" for i, case in enumerate(CASES)])
    def test_claim_verdict(self, changes, key, passed, observed):
        (claim,) = [c for c in _altered_report(changes).claims if c.key == key]
        assert (claim.passed, claim.observed) == (passed, observed)

    def test_derived_lists_follow_the_rows(self):
        report = _altered_report({**self.NINE, 73: {"coset_count": 6}, 15: {"nu": 8}})
        derived = {c.key: c.derived for c in report.claims}
        assert derived == {
            "more-than-two-cosets": tuple(n for n in MODULI_WITH_MANY_COSETS if n != 51),
            "odd-coset-count": (),
            "even-counts-max-8": (85, 89),
            "order-equals-totient": tuple(sorted((*MODULI_WITH_FULL_ORDER, 15))),
            "order-equals-totient-prime-power": (),
        }

    def test_a_report_can_pass_in_full(self):
        report = _altered_report(self.NINE)
        assert report.all_passed
        assert [c.key for c in report.claims] == [
            "more-than-two-cosets", "odd-coset-count", "even-counts-max-8",
            "order-equals-totient", "order-equals-totient-prime-power"]


def test_max_b_matches_identities():
    for n in range(3, 3000, 2):
        assert survey_row(n).max_b == max(i.b for i in enumerate_identities(n))


def test_rows_below_20000_keep_their_digest():
    # every odd n < 20000, rows of every path, frozen when phi still counted
    # a unit mask and the prime-power column read the mask's least non-unit
    rows = repr(survey_range(19999)).encode()
    assert hashlib.sha256(rows).hexdigest() == (
        "4e26a777677804ce131c863bb67c79c29d8ad896dd0d7d13834d3a7c502f4005")


def test_rows_match_reference_rows():
    for n in range(3, 1200, 2):
        assert survey_row(n) == reference_row(n)


@settings(max_examples=20, deadline=None)
@given(st.integers(min_value=1, max_value=10**5).map(lambda k: 2 * k + 1))
def test_large_rows_match_reference_rows(n):
    assert survey_row(n) == reference_row(n)


def test_counts_match_per_coset_reference():
    # survey_row reads phi off nu * coset_count and the self-complementary
    # count off one pow test; here both are recomputed the long way
    for n in range(3, 600, 2):
        row = survey_row(n)
        assert row.self_complementary_count == sum(
            is_self_complementary(i) for i in enumerate_identities(n))
        assert row.phi == len(units_mod(n))


def test_cycle_sum_is_the_popcount_of_the_binary_period():
    # u * (2**nu - 1) / n is the repeating nu-bit block of u/n; each 1 bit is
    # an odd vertex of u's halving cycle C, so the block has sum(C)/n of them
    for n in range(3, 3000, 2):
        cycles = [c.vertices for c in halving_cycles(n)]
        block = ((1 << len(cycles[0])) - 1) // n
        for cycle in cycles:
            total = sum(cycle)
            assert total % n == 0
            assert all((u * block).bit_count() == total // n for u in cycle)


def _totient(n):
    return residues._unit_mask(n, residues._distinct_primes(n)).count(1)


def test_order_of_two_matches_multiplicative_order():
    for n in range(3, 3000, 2):
        assert residues._order_of_two(n, _totient(n)) == multiplicative_order(2, n)


@settings(max_examples=10, deadline=None)
@given(st.integers(min_value=1, max_value=5 * 10**6 - 1).map(lambda k: 2 * k + 1))
def test_order_of_two_matches_on_large_moduli(n):
    assert residues._order_of_two(n, _totient(n)) == multiplicative_order(2, n)


def _table_from(monkeypatch, cut):
    """Send every row past the shortcut with nu >= cut to the table, the rest to the scan."""
    monkeypatch.setattr(survey, "_table_beats_scan", lambda nu, k: nu >= cut)


# 0 sends every row past the shortcut to the table, 10**9 every row to the
# scan, and 2000 splits the moduli below between the two
CUTS = pytest.mark.parametrize("cut", [0, 2000, 10**9])


@pytest.mark.parametrize("n", [3, 7, 31, 1023, 4095, 1000003])
@CUTS
def test_a_row_sieves_once(n, cut, monkeypatch):
    # at most: phi comes off n's primes, so a shortcut row reads no unit, a row of one
    # mirror pair reads the unit 1 and a table row tests its few by gcd; only the scan
    # over two or more pairs, which reads every unit to n/5, sieves n
    sieved, sieve = [], residues._unit_mask
    monkeypatch.setattr(survey, "_unit_mask",
                        lambda m, primes: sieved.append(m) or sieve(m, primes))
    monkeypatch.setattr(residues, "_unit_mask", _refuse("a sieve outside survey_row"))
    _table_from(monkeypatch, cut)
    row = survey_row(n)
    scanned = not row.self_complementary_count and row.coset_count > 2 and row.nu < cut
    assert sieved == ([n] if scanned else [])


@pytest.mark.parametrize("n", [3, 9, 15, 31, 91, 2187, 6561, 15625, 1000003])
@CUTS
def test_a_row_factors_n_once(n, cut, monkeypatch):
    # phi = n * prod(1 - 1/p) and the prime-power column, a single p, come off
    # the one factoring of n, which the scan's sieve reuses, so no path factors twice
    factored, factor = [], residues._distinct_primes
    counted = lambda m: factored.append(m) or factor(m)
    monkeypatch.setattr(residues, "_distinct_primes", counted)
    monkeypatch.setattr(survey, "_distinct_primes", counted)
    _table_from(monkeypatch, cut)
    row = survey_row(n)
    assert factored.count(n) == 1
    assert row.is_prime_power == brute_prime_power(n) == is_prime_power(n)


def test_table_and_scan_give_the_same_rows(monkeypatch):
    rows = survey_range(1999)
    for cut in (0, 10**9):  # every row to the table, then every row to the scan
        _table_from(monkeypatch, cut)
        assert survey_range(1999) == rows


@settings(max_examples=20, deadline=None)
@given(st.integers(min_value=1, max_value=5 * 10**4 - 1).map(lambda k: 2 * k + 1))
def test_table_and_scan_give_the_same_large_rows(n):
    row = survey_row(n)
    for cut in (0, 10**9):
        with pytest.MonkeyPatch.context() as monkeypatch:
            _table_from(monkeypatch, cut)
            assert survey_row(n) == row


def _odd_units_below_half(n):
    return [u for u in range(1, n // 2 + 1, 2) if math.gcd(u, n) == 1]


def test_the_shortcut_agrees_with_a_scan():
    # -1 in <2> puts x and n - x, one odd and one even, on every cycle, so
    # every b is nu/2; the scan's popcounts must say the same
    rows = [row for row in survey_range(1999) if row.self_complementary_count]
    assert len(rows) == 352
    for row in rows:
        assert row.max_b == row.nu - survey._fewest_ones(row.n, row.nu,
                                                         _odd_units_below_half(row.n))


def _doubling_cosets(n):
    """The cosets of <2> among the units mod n, by marking doubling orbits."""
    seen, cosets = set(), []
    for u in range(1, n):
        if math.gcd(u, n) == 1 and u not in seen:
            coset, v = [], u
            while v not in seen:
                seen.add(v)
                coset.append(v)
                v = 2 * v % n
            cosets.append(coset)
    return cosets


def _mirror_pairs(n):
    """Each coset of <2> mod n with its negation, as (C, -C); one pair per coset
    when -1 is in <2>, which makes every coset its own mirror."""
    cosets = _doubling_cosets(n)
    coset_of = {u: i for i, coset in enumerate(cosets) for u in coset}
    return [(c, cosets[coset_of[n - c[0]]]) for i, c in enumerate(cosets)
            if coset_of[n - c[0]] >= i]


def _odd_units_to_a_fifth(n):
    return [u for u in range(1, n // 5 + 1, 2) if math.gcd(u, n) == 1]


def test_mirror_cosets_pair_off_with_complementary_b():
    # where -1 is not in <2>, x -> n - x maps each coset C onto another, -C, and
    # flips the parity of every vertex, so b(-C) = nu - b(C).  The least vertex w
    # of C u -C is odd (an even w has w/2 there) and at most n/5 (n - 2w and
    # n - 4w are there)
    mirrored = 0
    for n in range(3, 3000, 2):
        pairs = _mirror_pairs(n)
        if pairs[0][0] is pairs[0][1]:
            continue  # -1 in <2>: every coset is its own mirror
        mirrored += 1
        nu = len(pairs[0][0])
        assert 2 * len(pairs) == len(_doubling_cosets(n))
        for coset, mirror in pairs:
            assert coset is not mirror and sorted(mirror) == sorted(n - u for u in coset)
            b = sum(u % 2 == 0 for u in coset)
            assert sum(u % 2 == 0 for u in mirror) == nu - b
            least = min(coset + mirror)
            assert least % 2 == 1 and 5 * least <= n
    assert mirrored == 996


def test_the_table_finds_each_mirror_pair_once():
    # fed every unit in order with no early stop, the table must yield each mirror
    # pair's least unit and nothing else: every membership test is exercised
    for n in range(3, 600, 2):
        pairs = _mirror_pairs(n)
        units = sorted(u for coset in _doubling_cosets(n) for u in coset)
        nu = len(pairs[0][0])
        found = list(survey._coset_representatives(n, nu, len(units), units))
        assert found == sorted(min(coset + mirror) for coset, mirror in pairs)
        if pairs[0][0] is pairs[0][1]:
            continue
        # stopped at the k/2 pairs, it yields the same units off the odd units up to
        # n/5 and reads no unit past the last representative
        odd = _odd_units_to_a_fifth(n)
        units = iter(odd)
        assert list(survey._coset_representatives(n, nu, len(pairs), units)) == found
        assert next(units, None) == next((u for u in odd if u > found[-1]), None)


@pytest.mark.parametrize("n, second", [(7, 3), (1023, 5)])  # one pair; 30 pairs
def test_the_table_yields_its_first_unit_untested(n, second):
    # while the table is empty every membership test misses, so the first unit is
    # yielded as read: no later unit is read and the unit is never halved
    halved = []

    class Unit(int):  # records each halving step taken on it
        def __and__(self, other):
            halved.append(int(self))
            return int(self) & other

    units = (Unit(u) for u in range(1, n, 2) if math.gcd(u, n) == 1)
    nu = multiplicative_order(2, n)
    pairs = len(units_mod(n)) // nu // 2
    reps = survey._coset_representatives(n, nu, pairs, units)
    assert next(reps) == 1 and halved == []
    if pairs == 1:
        assert next(reps, None) is None  # and done, still having read one unit
    assert next(units) == second and halved == []


def test_the_scan_reads_the_odd_units_to_a_fifth(monkeypatch):
    # a row of one mirror pair hands on the unit 1 alone, whatever the rule says
    handed, fewest = {}, survey._fewest_ones
    monkeypatch.setattr(survey, "_fewest_ones",
                        lambda n, nu, reps: fewest(n, nu, handed.setdefault(n, tuple(reps))))
    _table_from(monkeypatch, 10**9)
    one_pair = 0
    for n in range(3, 1000, 2):
        row = survey_row(n)
        if row.self_complementary_count:
            continue
        if row.coset_count == 2:
            one_pair += 1
            assert handed.pop(n) == (1,)
        else:
            assert handed.pop(n) == tuple(_odd_units_to_a_fifth(n))
    assert not handed  # a self-complementary row takes no popcount
    assert one_pair == 131
    for n in (2**20 - 1, 1000005):
        survey_row(n)
        assert handed.pop(n) == tuple(_odd_units_to_a_fifth(n))


def test_a_one_pair_row_reads_the_coset_of_1(monkeypatch):
    # 1 lies in <2>, so the block of 1 is the coset of 1 and its complement the mirror:
    # with two cosets, each the other's mirror, a row needs no rule, table or sieve
    rows = [row for row in survey_range(4999)
            if row.coset_count == 2 and not row.self_complementary_count]
    monkeypatch.setattr(survey, "_table_beats_scan", _refuse("the rule"))
    monkeypatch.setattr(survey, "_coset_representatives", _refuse("the table"))
    monkeypatch.setattr(survey, "_unit_mask", _refuse("the scan's sieve"))
    for row in rows:
        walked = list(identities._identities(row.n))
        assert len(walked) == 2 and walked[0].b + walked[1].b == row.nu
        assert survey_row(row.n) == row
        assert row.max_b == max(i.b for i in walked)
    assert len(rows) == 528


@settings(max_examples=20, deadline=None)
@given(st.integers(min_value=1, max_value=5 * 10**4 - 1).map(lambda k: 2 * k + 1))
def test_max_b_matches_the_walk_on_large_rows(n):
    # the walk counts each coset's b off its own labels and takes no popcount
    assert survey_row(n).max_b == max(i.b for i in identities._identities(n))


def test_a_row_holds_no_list_of_popcounts(traced_peak):
    # the mask takes n bytes and the odd units to n/5 another n/10; the scan over the
    # odd units below n/2 peaked at 1.25 bytes per n, and a list of every popcount at 2.6
    n = 2**23 - 1  # 178,480 mirror pairs of cosets of 23, all by the scan
    survey_row(3)
    row, peak = traced_peak(survey_row, n)
    assert (row.coset_count, row.max_b) == (356960, 22)
    assert peak < 1.2 * n


def _refuse(name):
    def refused(*args):
        raise AssertionError(f"{name} ran")
    return refused


def test_many_short_cosets_take_the_scan(monkeypatch):
    n = 2**20 - 1  # nu = 20, 12,000 pairs: the table took 0.06-0.11 s, the scan 0.014-0.020 s
    monkeypatch.setattr(survey, "_coset_representatives", _refuse("the table"))
    row = survey_row(n)
    assert (row.nu, row.coset_count, row.max_b) == (20, 24000, 19)


def test_a_self_complementary_row_takes_the_shortcut(monkeypatch):
    monkeypatch.setattr(survey, "_coset_representatives", _refuse("the table"))
    monkeypatch.setattr(survey, "_fewest_ones", _refuse("a popcount"))
    row = survey_row(1000003)
    assert row.self_complementary_count == row.coset_count == 1
    assert 2 * row.max_b == row.nu == 1000002


def test_long_cosets_take_the_table(monkeypatch):
    # nu = 2268, 1,296 pairs near the walk bound: the table took 0.07-0.10 s, the scan 0.41-0.77 s
    n, tables, table = 6651541, [], survey._coset_representatives
    monkeypatch.setattr(survey, "_coset_representatives",
                        lambda *args: tables.append(args[:3]) or table(*args))
    row = survey_row(n)
    # the table stops at the last of the 1,296 mirror pairs
    assert tables == [(n, 2268, 1296)] and (row.nu, row.coset_count) == (2268, 2592)
    _table_from(monkeypatch, 10**9)
    assert survey_row(n) == row


def test_a_sweep_calls_survey_row_through_the_module_once_per_n(monkeypatch):
    # perfbench's survey-sweep times each row by a shim on this module global and counts its
    # calls, so row work moved into the sweep would leave the metric instead of getting cheaper
    called, row = [], survey.survey_row
    monkeypatch.setattr(survey, "survey_row", lambda n: called.append(n) or row(n))
    rows = survey_range(99)
    assert called == list(range(3, 100, 2))
    assert rows == tuple(map(row, called))
