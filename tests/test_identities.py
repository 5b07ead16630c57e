"""Identity construction, complements, the Mersenne family and full products."""

import dataclasses
import json
import math
import re

import pytest
from hypothesis import given, settings, strategies as st

from gammaprod import (
    Rhs,
    build_identity,
    complement_identity,
    coset_decomposition,
    enumerate_identities,
    full_product_identity,
    is_self_complementary,
    mersenne_identity,
    render_identity,
    units_mod,
)
from gammaprod import identities, residues
from gammaprod.errors import DomainError, InvalidCosetError, InvalidModulusError


class TestBuildIdentity:
    def test_three_term_example(self):
        identity = build_identity(7, [1, 9, 11])
        assert identity.nu == 3
        assert identity.b == 2
        assert identity.modulus == 14
        assert identity.rhs == Rhs(pow2=2, pi_half_units=3)

    def test_n31_subgroup(self):
        identity = build_identity(31, [1, 33, 35, 39, 47])
        assert identity.nu == 5 and identity.b == 4
        assert identity.rhs == (4, 5)

    def test_two_term_example(self):
        identity = build_identity(3, [1, 5])
        assert identity.nu == 2 and identity.b == 1

    def test_input_order_is_irrelevant(self):
        identity = build_identity(7, (11, 1, 9))
        assert identity.coset == (1, 9, 11)

    def test_structural_equality(self):
        assert build_identity(7, [1, 9, 11]) == build_identity(7, (11, 9, 1))
        assert build_identity(7, [1, 9, 11]) != build_identity(7, [3, 5, 13])

    NON_COSETS = [
        ([], "empty coset"),
        ([1, 9], "not closed"),
        ([1, 9, 9, 11], "repeated"),
        ([1, 2, 11], re.escape("2 is not a unit in (0, 14)")),
        ([1, 9, 25], re.escape("25 is not a unit in (0, 14)")),  # out of range
        ([3, 5, 11], "not closed"),  # wrong orbit mix
        ([1, 3, 5, 9, 11, 13], "union of cosets"),  # both cosets: closed but too big
        ([1, 7, 9, 11], re.escape("7 is not a unit in (0, 14)")),  # closed: the orbit of 1 and of 7
        ([0, 1, 9, 11], re.escape("0 is not a unit in (0, 14)")),  # closed, led by a non-unit
    ]

    @pytest.mark.parametrize("coset, match", NON_COSETS,
                             ids=[f"coset{i}" for i in range(len(NON_COSETS))])
    def test_rejects_non_cosets(self, coset, match):
        with pytest.raises(InvalidCosetError, match=match):
            build_identity(7, coset)

    def test_rejects_even_modulus(self):
        with pytest.raises(InvalidModulusError):
            build_identity(8, [1, 3])


def reference_fault(n, given):
    """The refusal build_identity should give, worked out the long way; None for a coset.

    Faults are named in the documented order: a non-integer, no element, a
    repeat, a non-unit, no closure under n+2, and last a closed set that is a
    union of cosets.  Acceptance is membership in coset_decomposition(n).
    """
    m = 2 * n
    for x in given:
        if not isinstance(x, int):
            return f"{x!r} is not an integer"
    elems = sorted(given)
    if not elems:
        return "empty coset"
    if len(set(elems)) != len(elems):
        return f"coset has repeated elements: {elems}"
    for x in elems:
        if not 0 < x < m or math.gcd(x, m) != 1:
            return f"{x} is not a unit in (0, {m})"
    if any(x * (n + 2) % m not in elems for x in elems):
        return f"{elems} is not closed under multiplication by {n + 2} mod {m}"
    if tuple(elems) in coset_decomposition(n).cosets:
        return None
    nu = next(k for k in range(1, m) if pow(n + 2, k, m) == 1)
    return f"{elems} is a union of cosets, not a single coset of size {nu}"


def assert_decides_like_the_reference(n, given):
    fault = reference_fault(n, given)
    if fault is None:
        identity = build_identity(n, given)
        assert identity.coset == tuple(sorted(given))
        assert identity == enumerate_identities(n)[
            coset_decomposition(n).cosets.index(identity.coset)]
    else:
        with pytest.raises(InvalidCosetError) as refusal:
            build_identity(n, given)
        assert str(refusal.value) == fault


@st.composite
def proposals(draw):
    """An odd n < 60 and a list built from its cosets: a union of some, with
    members dropped, repeats, out-of-range values and non-integers mixed in."""
    n = draw(st.integers(min_value=1, max_value=29).map(lambda k: 2 * k + 1))
    m = 2 * n
    cosets = coset_decomposition(n).cosets
    chosen = draw(st.lists(st.sampled_from(cosets), max_size=3, unique=True))
    elems = [x for coset in chosen for x in coset]
    keep = draw(st.lists(st.booleans(), min_size=len(elems), max_size=len(elems)))
    if not all(keep) and draw(st.booleans()):
        elems = [x for x, k in zip(elems, keep) if k]
    extras = st.one_of(st.integers(min_value=-m, max_value=3 * m),
                       st.sampled_from([1.0, 2.5, "1", None]))
    if elems:
        extras = st.one_of(extras, st.sampled_from(elems))  # a repeat
    elems += draw(st.lists(extras, max_size=3 if draw(st.booleans()) else 0))
    return n, draw(st.permutations(elems))


class TestDecision:
    """build_identity accepts exactly the cosets, and names the first fault of anything else."""

    def test_every_subset_at_7(self):
        for bits in range(1 << 15):
            assert_decides_like_the_reference(7, [x for x in range(15) if bits >> x & 1])

    @settings(max_examples=300, deadline=None)
    @given(proposals())
    def test_sampled_lists_below_60(self, proposal):
        assert_decides_like_the_reference(*proposal)


class TestSizedByTheOrderOfTwo:
    """build_identity sizes a closed set by the order of 2 and walks no orbit."""

    @pytest.fixture
    def no_walk(self, monkeypatch):
        def walk(n, y):
            raise AssertionError(f"build_identity walked the orbit of {y} mod {n}")
        monkeypatch.setattr(identities, "_halving_orbit", walk)

    def test_every_subset_at_7(self, no_walk):
        for bits in range(1 << 15):
            assert_decides_like_the_reference(7, [x for x in range(15) if bits >> x & 1])

    def test_the_mersenne_coset_at_2_127_minus_1(self, no_walk):
        n = 2**127 - 1
        identity = build_identity(n, [1] + [2**k + n for k in range(1, 127)])
        assert (identity.nu, identity.b) == (127, 126)

    def test_a_closed_set_past_the_walk_bound_is_refused_by_its_size(self, monkeypatch):
        coset = [1, 33, 35, 39, 47]
        union = coset + [3, 17, 37, 43, 55]
        monkeypatch.setattr(residues, "_MAX_WALK", 5)
        assert build_identity(31, coset).nu == 5
        with pytest.raises(DomainError,
                           match="^a set of 10 elements is too large; the limit is 5 elements$"):
            build_identity(31, union)
        with pytest.raises(InvalidCosetError, match="not closed"):  # refused before it is sized
            build_identity(31, union[:-1])
        monkeypatch.setattr(residues, "_MAX_WALK", 4)
        with pytest.raises(DomainError,
                           match="^a set of 5 elements is too large; the limit is 4 elements$"):
            build_identity(31, coset)
        monkeypatch.setattr(residues, "_MAX_WALK", 10)
        with pytest.raises(InvalidCosetError,
                           match="is a union of cosets, not a single coset of size 5$"):
            build_identity(31, union)


class TestIntegerElements:
    """Coset elements of any integer type are read as Python ints, so the
    closure products cannot overflow and the record renders as JSON."""

    class Index:
        def __init__(self, value):
            self.value = value

        def __index__(self):
            return self.value

    @staticmethod
    def assert_python_ints(identity):
        assert all(type(x) is int for x in identity.coset)

    def test_numpy_int8_coset(self):
        np = pytest.importorskip("numpy")
        # 47 * 33 overflows int8
        identity = build_identity(31, np.array([1, 33, 35, 39, 47], dtype=np.int8))
        assert identity == build_identity(31, [1, 33, 35, 39, 47])
        self.assert_python_ints(identity)

    def test_numpy_int64_mersenne_coset(self):
        np = pytest.importorskip("numpy")
        expected = mersenne_identity(61)
        identity = build_identity(2**61 - 1, np.array(expected.coset, dtype=np.int64))
        assert identity == expected
        self.assert_python_ints(identity)

    def test_numpy_coset_renders_as_json(self):
        np = pytest.importorskip("numpy")
        identity = build_identity(7, np.array([11, 1, 9]))
        assert json.loads(render_identity(identity, "json").payload)["coset"] == [1, 9, 11]

    def test_bool_is_stored_as_int(self):
        identity = build_identity(7, [True, 9, 11])
        self.assert_python_ints(identity)
        assert '"coset": [1, 9, 11]' in render_identity(identity, "json").payload

    def test_any_index_type(self):
        identity = build_identity(7, [self.Index(11), self.Index(1), self.Index(9)])
        assert identity == build_identity(7, [1, 9, 11])
        self.assert_python_ints(identity)

    @pytest.mark.parametrize("coset, bad", [
        ([1.0, 9, 11], "1.0"),
        (["1", "9", "11"], "'1'"),
        ([1, 9, 11.5], "11.5"),
        (iter([1, None, 11]), "None"),
    ])
    def test_refuses_the_first_non_integer(self, coset, bad):
        with pytest.raises(InvalidCosetError, match=f"^{re.escape(bad)} is not an integer$"):
            build_identity(7, coset)


class TestEnumerate:
    def test_n7_b_values(self):
        assert [i.b for i in enumerate_identities(7)] == [2, 1]

    def test_n31_count_and_order(self):
        identities = enumerate_identities(31)
        assert len(identities) == 6
        assert identities[0].coset == (1, 33, 35, 39, 47)
        assert [i.b for i in identities] == [4, 3, 3, 2, 2, 1]

    def test_n43_count(self):
        assert len(enumerate_identities(43)) == 3

    def test_agrees_with_build(self):
        for n in range(3, 1200, 2):
            identities = enumerate_identities(n)
            assert [i.coset for i in identities] == list(coset_decomposition(n).cosets)
            for identity in identities:
                assert identity == build_identity(n, identity.coset)


class TestComplement:
    def test_n7(self):
        mirrored = complement_identity(build_identity(7, [1, 9, 11]))
        assert mirrored.coset == (3, 5, 13)
        assert mirrored.b == 1

    def test_n31(self):
        mirrored = complement_identity(build_identity(31, [1, 33, 35, 39, 47]))
        assert mirrored.coset == (15, 23, 27, 29, 61)
        assert mirrored.b == 1

    def test_involution_and_b_flip(self):
        for n in range(3, 100, 2):
            for identity in enumerate_identities(n):
                mirrored = complement_identity(identity)
                assert mirrored.b == identity.nu - identity.b
                assert complement_identity(mirrored) == identity

    def test_the_mirror_theorem_agrees_with_build_identity(self):
        # build_identity re-validates the mirrored coset and recounts its b off the labels
        for n in range(3, 600, 2):
            for identity in enumerate_identities(n):
                assert complement_identity(identity) == build_identity(
                    n, [2 * n - x for x in identity.coset])
        n = 1000003
        identity = identities._coset_identity(n, 1)
        assert complement_identity(identity) == build_identity(
            n, [2 * n - x for x in identity.coset])

    @settings(max_examples=200, deadline=None)
    @given(st.integers(min_value=1, max_value=200).map(lambda k: 2 * k + 1), st.data())
    def test_two_complements_restore_a_hand_built_record(self, n, data):
        # a record is never re-checked: the mirror reverses the coset as given, keeps nu and
        # flips b, so a second complement gives back each tampered field as it was
        identity = data.draw(st.sampled_from(enumerate_identities(n)))
        coset = tuple(data.draw(st.permutations(identity.coset).filter(
            lambda xs: list(xs) != sorted(xs))))
        nu = identity.nu + data.draw(st.integers(min_value=-3, max_value=3).filter(bool))
        b = identity.b + data.draw(st.integers(min_value=-3, max_value=3).filter(bool))
        record = identities.GammaProductIdentity(n, coset, nu, b)
        mirrored = complement_identity(record)
        assert mirrored == identities.GammaProductIdentity(
            n, tuple(2 * n - x for x in reversed(coset)), nu, nu - b)
        assert complement_identity(mirrored) == record

    def test_self_complementary(self):
        assert is_self_complementary(build_identity(3, [1, 5]))
        assert not is_self_complementary(build_identity(7, [1, 9, 11]))
        assert all(is_self_complementary(i) for i in enumerate_identities(43))
        assert not any(is_self_complementary(i) for i in enumerate_identities(31))


class TestMersenne:
    def test_small_cases(self):
        two = mersenne_identity(2)
        assert int(two.n) == 3 and two.coset == (1, 5) and two.rhs == (1, 2)
        three = mersenne_identity(3)
        assert int(three.n) == 7 and three.coset == (1, 9, 11) and three.rhs == (2, 3)
        four = mersenne_identity(4)
        assert int(four.n) == 15 and four.coset == (1, 17, 19, 23) and four.rhs == (3, 4)

    def test_matches_subgroup_coset(self):
        # the docstring's closed form, from which mersenne_identity builds its
        # record without validating it as build_identity would
        for m in [*range(2, 17), 61, 89, 127]:
            identity = mersenne_identity(m)
            n = 2 ** m - 1
            assert int(identity.n) == n
            assert identity.nu == m
            assert identity.b == m - 1
            assert identity.coset == (1, *(2 ** k + n for k in range(1, m)))
            assert build_identity(n, identity.coset) == identity
            if m < 17:
                assert identity.coset == coset_decomposition(n).cosets[0]

    def test_the_closed_form_equals_the_walk(self):
        # the halving walk of the coset of 1 derives the record independently
        # of the closed form; at m = 10**4 it takes about 5 ms
        for m in [*range(2, 601), 1021, 4096, 10**4]:
            assert mersenne_identity(m) == identities._coset_identity((1 << m) - 1, 1), m

    def test_reads_a_numpy_exponent_as_a_python_int(self):
        np = pytest.importorskip("numpy")
        # in int64, 1 << 70 wraps and the modulus came out as -1
        assert mersenne_identity(np.int64(70)) == mersenne_identity(70)
        assert mersenne_identity(np.int8(5)) == mersenne_identity(5)

    def test_reads_any_index_type(self):
        assert mersenne_identity(TestIntegerElements.Index(5)) == mersenne_identity(5)

    @pytest.mark.parametrize("m, name", [(3.0, "3.0"), ("3", "'3'"), (None, "None")])
    def test_refuses_a_non_integer_exponent(self, m, name):
        with pytest.raises(DomainError, match=f"^{re.escape(name)} is not an integer$"):
            mersenne_identity(m)

    @pytest.mark.parametrize("m", [1, 0, -3])
    def test_rejects_small_exponent(self, m):
        with pytest.raises(DomainError):
            mersenne_identity(m)

    def test_refuses_an_exponent_past_the_bound(self):
        # one past the bound would build in milliseconds, so a missing bound
        # fails here instead of exhausting memory at a larger m
        with pytest.raises(DomainError,
                           match="exponent 10001 is too large; the limit is m <= 10000"):
            mersenne_identity(10**4 + 1)

    def test_builds_at_the_bound(self):
        m = 10**4
        identity = mersenne_identity(m)
        assert (identity.nu, identity.b) == (m, m - 1)
        assert identity.coset[0] == 1 and identity.coset[-1] == 2 ** (m - 1) + 2 ** m - 1


def test_a_single_coset_holds_one_list_of_its_labels(traced_peak):
    # the labels and their tuple, about 48 bytes per element; a second list of the
    # coset beside them (the vertices, then their lifts) took about 77
    n = 1000003
    identity, peak = traced_peak(identities._coset_identity, n, 1)
    assert identity.nu == n - 1
    assert peak < 60 * identity.nu


class TestFullProduct:
    def test_examples(self):
        assert full_product_identity(3).pow2 == 1
        assert full_product_identity(3).pi_half_units == 2
        assert full_product_identity(7).pow2 == 3
        fp = full_product_identity(31)
        assert fp.pow2 == 15 and fp.pi_half_units == 30

    def test_exponent_is_half_totient(self):
        for n in range(3, 120, 2):
            fp = full_product_identity(n)
            phi = len(units_mod(n))
            assert fp.pow2 * 2 == phi
            assert fp.pi_half_units == phi

    def test_sum_of_b_across_cosets(self):
        # full_product_identity reads pow2 as phi // 2 without summing any b
        for n in range(3, 600, 2):
            identities = enumerate_identities(n)
            assert sum(i.b for i in identities) == full_product_identity(n).pow2

    def test_refuses_a_modulus_past_the_walk_limit(self):
        with pytest.raises(DomainError, match="n=10000001 is too large to enumerate; "
                                              "the limit is n <= 10000000"):
            full_product_identity(10**7 + 1)


def test_coset_sums_telescope():
    # every coset sums to n * nu, so the shifted terms x - n cancel exactly
    for n in range(3, 120, 2):
        for identity in enumerate_identities(n):
            assert sum(identity.coset) == n * identity.nu
            assert sum(x - n for x in identity.coset) == 0


def test_records_are_tamperable():
    # dataclasses.replace must work: verification relies on face-value records
    identity = build_identity(7, [1, 9, 11])
    tampered = dataclasses.replace(identity, b=3)
    assert tampered.b == 3 and tampered.coset == identity.coset
