"""Unit groups, orders, lifts, halving cycles and coset partitions."""

import math
import re

import pytest
from hypothesis import given, settings, strategies as st

from gammaprod import (
    OddModulus,
    build_identity,
    complement_identity,
    coset_decomposition,
    enumerate_identities,
    full_product_identity,
    halve_mod,
    halving_cycles,
    mersenne_identity,
    multiplicative_order,
    odd_lift,
    odd_lift_inverse,
    survey_row,
    units_mod,
    verify_full_product,
    verify_identity,
)
from gammaprod import identities, residues
from gammaprod.errors import DomainError, GammaprodError, InvalidModulusError, NotAUnitError
from gammaprod.residues import CosetDecomposition, _halving_orbit


class Index:
    """An integer stand-in that only has __index__, as numpy's integers do."""

    def __init__(self, value):
        self.value = value

    def __index__(self):
        return self.value


def brute_units(m):
    return [x for x in range(1, m) if math.gcd(x, m) == 1]


def brute_order(g, m):
    k, acc = 1, g % m
    while acc != 1:
        acc = acc * g % m
        k += 1
    return k


def reference_cosets(n):
    """Orbits of multiplication by n+2 on the units mod 2n, walked directly."""
    m, g = 2 * n, n + 2
    seen, cosets = set(), []
    for u in brute_units(m):
        if u in seen:
            continue
        orbit, x = [], u
        while x not in seen:
            seen.add(x)
            orbit.append(x)
            x = x * g % m
        cosets.append(tuple(sorted(orbit)))
    return cosets


def reference_halving_cycles(n):
    """(vertices, labels) per halving cycle, stepped with the validated public maps."""
    seen, cycles = set(), []
    for start in brute_units(n):
        if start in seen:
            continue
        vertices, v = [], start
        while v not in seen:
            seen.add(v)
            vertices.append(v)
            v = halve_mod(v, n)
        cycles.append((tuple(vertices), tuple(odd_lift(v, n) for v in vertices)))
    return cycles


def is_prime(p):
    return p >= 2 and all(p % d for d in range(2, math.isqrt(p) + 1))


def next_prime(k):
    while not is_prime(k):
        k += 1
    return k


SIEVE_LIMIT = 2 * 10**6
SMALL_PRIMES = [p for p in range(2, 60) if is_prime(p)]


@st.composite
def sieve_shapes(draw):
    """Moduli up to about SIEVE_LIMIT, of the shapes each branch of the unit sieve handles."""
    shape = draw(st.sampled_from(["prime power", "twice a prime", "big cofactor", "squarefree"]))
    if shape == "prime power":
        p = next_prime(draw(st.integers(2, 1400)))
        return p ** draw(st.integers(1, int(math.log(SIEVE_LIMIT, p))))
    if shape == "twice a prime":
        return 2 * next_prime(draw(st.integers(2, SIEVE_LIMIT // 2)))
    if shape == "big cofactor":
        # q > sqrt(p*q): trial division stops before q, which is the prime left over
        p = next_prime(draw(st.integers(2, 1000)))
        q = next_prime(draw(st.integers(p + 1, SIEVE_LIMIT // p)))
        return p * q
    m = 1
    for p in draw(st.lists(st.sampled_from(SMALL_PRIMES), min_size=1, unique=True)):
        if m * p > SIEVE_LIMIT:
            break
        m *= p
    return m


def totient_by_factorization(m):
    phi, rest, p = 1, m, 2
    while p * p <= rest:
        if rest % p == 0:
            e = 0
            while rest % p == 0:
                rest //= p
                e += 1
            phi *= (p - 1) * p ** (e - 1)
        p += 1
    if rest > 1:
        phi *= rest - 1
    return phi


class TestOddModulus:
    def test_behaves_like_int(self):
        n = OddModulus(7)
        assert n == 7 and n + 1 == 8 and isinstance(n, int)

    @pytest.mark.parametrize("bad", [4, 2, 1, 0, -3, -8, 7.9, "7"])
    def test_rejects_even_or_small(self, bad):
        with pytest.raises(InvalidModulusError):
            OddModulus(bad)

    def test_idempotent(self):
        assert OddModulus(OddModulus(9)) == 9


class TestUnitsMod:
    def test_known_groups(self):
        assert units_mod(14).elements == (1, 3, 5, 9, 11, 13)
        assert units_mod(6).elements == (1, 5)
        assert units_mod(2).elements == (1,)

    def test_units_mod_62(self):
        group = units_mod(62)
        assert len(group) == 30
        assert group.elements[:5] == (1, 3, 5, 7, 9)
        assert all(x % 2 == 1 for x in group)
        assert all(x % 31 != 0 for x in group)

    def test_matches_gcd_scan(self):
        for m in range(2, 3000):
            assert list(units_mod(m)) == brute_units(m)

    @settings(max_examples=40, deadline=None)
    @given(sieve_shapes())
    def test_sieve_shapes_match_gcd_scan(self, m):
        assert list(units_mod(m)) == brute_units(m)

    def test_refuses_oversized_modulus(self):
        with pytest.raises(DomainError, match="20000000"):
            units_mod(2 * 10**7 + 1)

    def test_totient_matches_factorization(self):
        for m in range(2, 400):
            assert len(units_mod(m)) == totient_by_factorization(m)

    def test_membership(self):
        group = units_mod(14)
        assert 9 in group and 7 not in group and 0 not in group and 15 not in group

    @pytest.mark.parametrize("x, member", [(3.0, True), (9.0, True), (7.0, False), (3.5, False),
                                           ("3", False), (None, False)])
    def test_membership_of_a_non_integer_is_membership_of_elements(self, x, member):
        group = units_mod(14)
        assert (x in group) is member is (x in group.elements)

    def test_membership_reads_an_integer_through_index(self):
        group = units_mod(14)
        assert True in group and Index(9) in group and Index(7) not in group

    @pytest.mark.parametrize("bad", [1, 0, -5])
    def test_rejects_small(self, bad):
        with pytest.raises(InvalidModulusError):
            units_mod(bad)


class TestDistinctPrimes:
    def test_matches_a_sieve_of_prime_divisors_to_20000(self):
        divisors = [[] for _ in range(20001)]
        for p in range(2, 20001):
            if not divisors[p]:  # no smaller prime divides p
                for multiple in range(p, 20001, p):
                    divisors[multiple].append(p)
        assert [residues._distinct_primes(m) for m in range(2, 20001)] == divisors[2:]

    @pytest.mark.parametrize("m, primes", [
        (4463**2, [4463]),  # the square of the table's last prime
        (4463 * 4481, [4463, 4481]),  # its last prime times the next, below the bound
        (19_999_999, [19_999_999]),  # the largest prime within the bound (2 * 10**7 is even)
        (2 * 10**7, [2, 5]),  # the bound itself
    ])
    def test_the_edges_of_the_prime_table(self, m, primes):
        assert m <= 2 * residues._MAX_WALK and all(map(is_prime, primes))
        assert residues._distinct_primes(m) == primes

    def test_refuses_a_modulus_past_the_bound_in_its_words(self):
        with pytest.raises(DomainError) as caught:
            residues._distinct_primes(2 * residues._MAX_WALK + 1)
        assert str(caught.value) == "n=20000001 is too large to factor; the limit is n <= 20000000"

    def test_the_table_finishes_every_modulus_within_the_bound(self):
        # past the last prime, a composite m left over would have a prime factor at
        # least the next prime, so m would be at least its square, above the bound
        table = residues._PRIMES
        assert table == tuple(p for p in range(2, table[-1] + 1) if is_prime(p))
        assert next_prime(table[-1] + 1) ** 2 > 2 * residues._MAX_WALK
        assert (len(table), table[-1]) == (607, 4463)


class TestMultiplicativeOrder:
    def test_known_orders(self):
        assert multiplicative_order(9, 14) == 3
        assert multiplicative_order(2, 31) == 5
        assert multiplicative_order(2, 43) == 14
        assert multiplicative_order(2, 2**61 - 1) == 61

    def test_matches_brute_force(self):
        for m in (7, 14, 15, 45, 62, 86):
            for g in brute_units(m):
                assert multiplicative_order(g, m) == brute_order(g, m)

    def test_identity_element(self):
        assert multiplicative_order(1, 2) == 1
        assert multiplicative_order(1, 99) == 1

    def test_rejects_non_unit(self):
        message = f"^{re.escape('6 is not a unit in (0, 14)')}$"
        for g in (6, 20):  # 20 is read as 6 mod 14
            with pytest.raises(NotAUnitError, match=message):
                multiplicative_order(g, 14)

    def test_rejects_bad_modulus(self):
        with pytest.raises(InvalidModulusError):
            multiplicative_order(2, 1)

    def test_reads_numpy_integers_as_python_ints(self):
        np = pytest.importorskip("numpy")
        # in int8 arithmetic 3**k mod 127 overflows and never returns to 1
        assert multiplicative_order(np.int8(3), 127) == 126
        assert multiplicative_order(np.int64(2), np.int64(2**61 - 1)) == 61

    def test_reads_any_index_type(self):
        assert multiplicative_order(Index(3), Index(127)) == 126
        assert multiplicative_order(True, 7) == 1

    @pytest.mark.parametrize("g", [1.0, 1.5, "3", None])
    def test_refuses_a_non_integer_element(self, g):
        with pytest.raises(GammaprodError, match="is not an integer"):
            multiplicative_order(g, 7)

    @pytest.mark.parametrize("m", [7.0, "7"])
    def test_refuses_a_non_integer_modulus(self, m):
        with pytest.raises(InvalidModulusError, match="modulus must be an integer"):
            multiplicative_order(3, m)

    def test_refuses_an_order_past_the_bound(self, monkeypatch):
        # at the real bound the refusal takes 2e7 steps; 3 has order (2**61 - 2) / 9 mod 2**61 - 1
        monkeypatch.setattr(residues, "_MAX_WALK", 5)
        assert multiplicative_order(2, 1023) == 10  # an order at the bound 2 * 5
        with pytest.raises(DomainError, match="order of 2 modulo 2047 is too large"):
            multiplicative_order(2, 2047)  # order 11
        with pytest.raises(DomainError, match="the limit is 10"):
            multiplicative_order(3, 2**61 - 1)


class TestOrderOfTwo:
    def test_a_multiple_it_keeps_is_the_order(self):
        # 2**k == 1 and no prime stripped from k: exactly the order, so a closed
        # set of that size is one coset
        for n in range(3, 300, 2):
            order = multiplicative_order(2, n)
            for k in range(1, 2 * len(units_mod(n)) + 1):
                kept = pow(2, k, n) == 1 and residues._order_of_two(n, k) == k
                assert kept == (k == order), (n, k)

    def test_a_k_with_two_to_the_k_not_one_comes_back(self):
        assert residues._order_of_two(7, 4) == 4 and residues._order_of_two(31, 12) == 12

    def test_refuses_a_size_past_the_walk_bound(self, monkeypatch):
        monkeypatch.setattr(residues, "_MAX_WALK", 10)
        assert residues._order_of_two(31, 10) == 5
        with pytest.raises(DomainError,
                           match="^a set of 11 elements is too large; the limit is 10 elements$"):
            residues._order_of_two(31, 11)


class TestOddLift:
    def test_examples(self):
        assert odd_lift(2, 7) == 9
        assert odd_lift(3, 7) == 3
        assert odd_lift(2, 31) == 33

    def test_round_trip_small(self):
        for n in (3, 7, 15, 45):
            for y in brute_units(n):
                assert odd_lift_inverse(odd_lift(y, n), n) == y
            for x in brute_units(2 * n):
                assert odd_lift(odd_lift_inverse(x, n), n) == x

    def test_image_is_units_mod_2n(self):
        for n in (7, 9, 21):
            image = sorted(odd_lift(y, n) for y in brute_units(n))
            assert image == brute_units(2 * n)

    @pytest.mark.parametrize("y", [0, 7, 14, -2])
    def test_rejects_out_of_range(self, y):
        with pytest.raises(DomainError):
            odd_lift(y, 7)

    def test_rejects_non_unit(self):
        with pytest.raises(DomainError):
            odd_lift(3, 9)
        with pytest.raises(DomainError):
            odd_lift_inverse(2, 7)


class TestHalveMod:
    def test_examples(self):
        assert halve_mod(1, 7) == 4
        assert halve_mod(4, 7) == 2

    def test_doubling_inverts(self):
        for n in (3, 7, 31, 45):
            for y in brute_units(n):
                assert 2 * halve_mod(y, n) % n == y

    def test_power_of_two_pattern(self):
        # n = 2**m - 1: halving shifts powers of two down, and wraps 1 to 2**(m-1)
        for m in range(3, 9):
            n = 2 ** m - 1
            assert halve_mod(1, n) == 2 ** (m - 1)
            for k in range(1, m):
                assert halve_mod(2 ** k, n) == 2 ** (k - 1)

    def test_rejects_non_unit(self):
        with pytest.raises(DomainError):
            halve_mod(5, 15)


class TestNotAUnit:
    """_check_unit is the one refusal of a non-unit: NotAUnitError, which
    every caller that catches DomainError still catches."""

    def test_is_a_domain_error(self):
        assert issubclass(NotAUnitError, DomainError)

    @pytest.mark.parametrize("refused", [
        lambda: odd_lift(0, 7),
        lambda: halve_mod(7, 7),
        lambda: coset_decomposition(9).coset_containing(3),
    ])
    def test_every_unit_entry_raises_it(self, refused):
        with pytest.raises(NotAUnitError):
            refused()


class TestIntegerArguments:
    """Every entry reads its integers through __index__ as Python ints, so no
    result carries a numpy type and a non-integer is refused by name."""

    UNIT_ENTRIES = {
        "halve_mod": lambda y: halve_mod(y, 7),
        "odd_lift": lambda y: odd_lift(y, 7),
        "odd_lift_inverse": lambda x: odd_lift_inverse(x, 7),
        "coset_containing": lambda x: coset_decomposition(7).coset_containing(x),
    }
    AT_3 = {"halve_mod": 5, "odd_lift": 3, "odd_lift_inverse": 3,
            "coset_containing": (3, 5, 13)}

    @pytest.mark.parametrize("entry", ["halve_mod", "odd_lift", "odd_lift_inverse"])
    def test_reads_numpy_integers_as_python_ints(self, entry):
        np = pytest.importorskip("numpy")
        for x in (np.int8(3), np.int64(3)):
            result = self.UNIT_ENTRIES[entry](x)
            assert result == self.AT_3[entry] and type(result) is int

    @pytest.mark.parametrize("entry", UNIT_ENTRIES)
    def test_reads_any_index_type(self, entry):
        assert self.UNIT_ENTRIES[entry](Index(3)) == self.AT_3[entry]

    @pytest.mark.parametrize("entry", UNIT_ENTRIES)
    @pytest.mark.parametrize("x, name", [(3.0, "3.0"), ("3", "'3'"), (None, "None")])
    def test_refuses_a_non_integer_by_name(self, entry, x, name):
        with pytest.raises(DomainError, match=f"^{re.escape(name)} is not an integer$"):
            self.UNIT_ENTRIES[entry](x)

    def test_units_mod_reads_its_modulus_as_a_python_int(self):
        np = pytest.importorskip("numpy")
        for m in (np.int64(14), Index(14)):
            group = units_mod(m)
            assert type(group.modulus) is int and group == units_mod(14)

    @pytest.mark.parametrize("m", [7.5, 14.0, "14"])
    def test_units_mod_refuses_a_non_integer_modulus(self, m):
        with pytest.raises(InvalidModulusError, match=f"^modulus must be an integer, got {m!r}$"):
            units_mod(m)


# Each public constructor of a record, report or row that holds n, from n = 7
# (mersenne_identity from m = 7, so n = 127), as a list of what it builds.
N_HOLDERS = {
    "coset_decomposition": lambda n: [coset_decomposition(n)],
    "enumerate_identities": lambda n: list(enumerate_identities(n)),
    "build_identity": lambda n: [build_identity(n, [1, 9, 11])],
    "complement_identity": lambda n: [complement_identity(build_identity(n, [1, 9, 11]))],
    "mersenne_identity": lambda m: [mersenne_identity(m)],
    "full_product_identity": lambda n: [full_product_identity(n)],
    "verify_identity": lambda n: [verify_identity(build_identity(n, [1, 9, 11]))],
    "verify_full_product": lambda n: [verify_full_product(n)],
    "survey_row": lambda n: [survey_row(n)],
    "_coset_identity": lambda n: [identities._coset_identity(n, 3)],
    "_identities": lambda n: list(identities._identities(n)),
}


@pytest.mark.parametrize("kind", ["int", "numpy.int64", "Index", "OddModulus"])
@pytest.mark.parametrize("entry", N_HOLDERS)
def test_every_record_holds_n_as_a_python_int(entry, kind):
    seven = {"int": lambda: 7, "numpy.int64": lambda: pytest.importorskip("numpy").int64(7),
             "Index": lambda: Index(7), "OddModulus": lambda: OddModulus(7)}[kind]()
    built = N_HOLDERS[entry](seven)
    assert built and all(type(x.n) is int for x in built)
    assert {x.n for x in built} == {127 if entry == "mersenne_identity" else 7}


# Each entry that reads its modulus through _odd_modulus, and OddModulus itself, as a
# call on the modulus alone.
ODD_MODULUS_ENTRIES = {
    "OddModulus": OddModulus,
    "survey_row": survey_row,
    "_coset_identity": lambda n: identities._coset_identity(n, 1),
    "_identities": identities._identities,
    "build_identity": lambda n: build_identity(n, [1]),
    "full_product_identity": full_product_identity,
    "halving_cycles": halving_cycles,
    "coset_decomposition": coset_decomposition,
    "odd_lift": lambda n: odd_lift(1, n),
    "odd_lift_inverse": lambda n: odd_lift_inverse(1, n),
    "halve_mod": lambda n: halve_mod(1, n),
}


@pytest.mark.parametrize("bad, message", [
    (1, "modulus must be odd and > 1, got 1"),
    (10, "modulus must be odd and > 1, got 10"),
    (-3, "modulus must be odd and > 1, got -3"),
    (7.0, "modulus must be an integer, got 7.0"),
    ("7", "modulus must be an integer, got '7'"),
])
@pytest.mark.parametrize("entry", ODD_MODULUS_ENTRIES)
def test_every_entry_refuses_a_bad_modulus_in_the_same_words(entry, bad, message):
    with pytest.raises(InvalidModulusError) as caught:
        ODD_MODULUS_ENTRIES[entry](bad)
    assert str(caught.value) == message


class TestHalvingCycles:
    def test_n3(self):
        (cycle,) = halving_cycles(3)
        assert cycle.vertices == (1, 2)
        assert cycle.labels == (1, 5)

    def test_n7(self):
        first, second = halving_cycles(7)
        assert first.vertices == (1, 4, 2)
        assert first.labels == (1, 11, 9)
        assert second.vertices == (3, 5, 6)
        assert second.labels == (3, 5, 13)

    def test_n31_shape(self):
        cycles = halving_cycles(31)
        assert len(cycles) == 6
        assert all(len(c) == 5 for c in cycles)
        assert cycles[0].vertices == (1, 16, 8, 4, 2)
        assert cycles[0].labels == (1, 47, 39, 35, 33)

    def test_structure(self):
        for n in (7, 15, 31, 43, 99):
            cycles = halving_cycles(n)
            seen = [v for c in cycles for v in c.vertices]
            assert sorted(seen) == brute_units(n)
            assert len(seen) == len(set(seen))
            for cycle in cycles:
                k = len(cycle)
                assert min(cycle.vertices) == cycle.vertices[0]
                for i, v in enumerate(cycle.vertices):
                    assert halve_mod(v, n) == cycle.vertices[(i + 1) % k]
                assert cycle.labels == tuple(odd_lift(v, n) for v in cycle.vertices)
                assert all(x % 2 == 1 for x in cycle.labels)
                assert len(set(cycle.labels)) == k
            mins = [min(c.vertices) for c in cycles]
            assert mins == sorted(mins)

    def test_vertices_are_the_units(self):
        for n in range(3, 3000, 2):
            vertices = sorted(v for cycle in halving_cycles(n) for v in cycle.vertices)
            assert vertices == brute_units(n)

    def test_cycle_sums_count_the_lifts_above_n(self):
        # halving doubles back around a cycle C: 2*sum(C) = sum(C) + n*#odd,
        # so the lifts above n (the even vertices) number nu - sum(C)/n
        for n in range(3, 3000, 2):
            for cycle in halving_cycles(n):
                k = len(cycle)
                assert sum(cycle.vertices) % n == 0
                assert sum(cycle.labels) == n * k
                assert sum(x > n for x in cycle.labels) == k - sum(cycle.vertices) // n

    def test_matches_reference_walk(self):
        # and four larger moduli, with subgroups of 64, 13, 32 and 17 (257's is 16, in range)
        for n in [*range(3, 600, 2), 641, 8191, 65537, 131071]:
            cycles = [(c.vertices, c.labels) for c in halving_cycles(n)]
            assert cycles == reference_halving_cycles(n)

    def test_label_sets_are_cosets(self):
        for n in (7, 15, 31, 43, 63):
            label_sets = {frozenset(c.labels) for c in halving_cycles(n)}
            coset_sets = {frozenset(c) for c in coset_decomposition(n).cosets}
            assert label_sets == coset_sets


class TestHalvingOrbit:
    def test_is_the_cycle_rotated_to_start_at_y(self):
        # the labels of the coset of each unit x mod 2n, led by x, in halving order
        for n in range(3, 600, 2):
            for cycle in halving_cycles(n):
                labels = list(cycle.labels)
                for i, x in enumerate(labels):
                    assert _halving_orbit(n, x) == labels[i:] + labels[:i]

    @pytest.mark.parametrize("n, x", [(3, 5), (7, 3), (31, 47), (43, 5), (99, 197), (1023, 1)])
    def test_limit_is_the_longest_cycle_walked(self, n, x, monkeypatch):
        coset = _halving_orbit(n, x)
        monkeypatch.setattr(residues, "_MAX_WALK", len(coset))
        assert _halving_orbit(n, x) == coset
        monkeypatch.setattr(residues, "_MAX_WALK", len(coset) - 1)
        with pytest.raises(DomainError, match=f"^the coset of {x} is too large to enumerate; "
                                              f"the limit is {len(coset) - 1} elements$"):
            _halving_orbit(n, x)


class TestHalvingWalk:
    @pytest.mark.parametrize("n", [3, 7, 31, 105, 1023])
    def test_is_lazy_and_consumes_its_mask(self, n, monkeypatch):
        count, units = coset_decomposition(n).coset_count, brute_units(2 * n)
        sieved, sieve = [], residues._unit_mask
        monkeypatch.setattr(residues, "_unit_mask",
                            lambda m, primes: sieved.append((m, primes, sieve(m, primes)))
                            or sieved[-1][2])
        walk = residues._halving_walk(n)
        assert sieved == []  # nothing sieved before the first next()
        seen = []
        for i, labels in enumerate(walk, 1):
            # one sieve, of the units mod 2n, by 2 and the primes of n
            ((m, primes, mask),) = sieved
            assert (m, primes) == (2 * n, [2, *residues._distinct_primes(n)])
            held = [x for x in range(2 * n) if mask[x]]
            seen += labels
            if i < count:  # the mask, read mod 2n, loses each cycle before its yield ...
                assert held == sorted(set(units) - set(seen))
            else:  # ... but the last, which nothing reads it for again
                assert held == sorted(labels)
        assert i == count
        assert sorted(seen) == units

    # the last five have subgroups of 16, 64, 13, 32 and 17 elements
    @pytest.mark.parametrize("n", [3, 7, 31, 105, 1023, 1048575, 257, 641, 8191, 65537, 131071])
    def test_walks_only_the_cycle_of_one(self, n, monkeypatch):
        # the one orbit walked is the cycle of 1, the subgroup, and nu is its length
        calls, orbit = [], residues._halving_orbit
        monkeypatch.setattr(residues, "_halving_orbit",
                            lambda m, y: calls.append((m, y)) or orbit(m, y))
        first, *rest = residues._halving_walk(n)
        assert calls == [(n, 1)]
        assert first == _halving_orbit(n, 1)
        # halving i times multiplies by 2**-i: cycle y is the subgroup times y, same rotation
        for cycle in rest:
            y = cycle[0]
            assert cycle == [y * h % (2 * n) for h in first]

    @pytest.mark.parametrize("n", [3, 7, 31, 105, 1023])
    def test_lets_go_of_the_spent_mask_before_the_last_cycle(self, n):
        walk = residues._halving_walk(n)
        for _ in range(len(halving_cycles(n)) - 1):
            next(walk)
            assert {"todo", "subgroup"} <= walk.gi_frame.f_locals.keys()
        next(walk)
        # the caller reads the last cycle without the mask or the subgroup alive beside it
        assert not {"todo", "subgroup"} & walk.gi_frame.f_locals.keys()
        assert next(walk, None) is None


class TestCosetDecomposition:
    def test_n3(self):
        decomp = coset_decomposition(3)
        assert decomp.nu == 2
        assert decomp.cosets == ((1, 5),)

    def test_n7(self):
        decomp = coset_decomposition(7)
        assert decomp.nu == 3
        assert decomp.cosets == ((1, 9, 11), (3, 5, 13))

    def test_n31_golden(self):
        decomp = coset_decomposition(31)
        assert decomp.nu == 5
        assert decomp.cosets == (
            (1, 33, 35, 39, 47),
            (3, 17, 37, 43, 55),
            (5, 9, 41, 49, 51),
            (7, 19, 25, 45, 59),
            (11, 13, 21, 53, 57),
            (15, 23, 27, 29, 61),
        )

    def test_n43(self):
        decomp = coset_decomposition(43)
        assert decomp.nu == 14
        assert decomp.coset_count == 3

    def test_partition_structure(self):
        for n in (7, 15, 31, 45, 99):
            decomp = coset_decomposition(n)
            m = 2 * n
            everything = [x for coset in decomp.cosets for x in coset]
            assert sorted(everything) == brute_units(m)
            assert len(everything) == len(set(everything))
            for coset in decomp.cosets:
                assert list(coset) == sorted(coset)
                assert len(coset) == decomp.nu
                assert {x * (n + 2) % m for x in coset} == set(coset)
            assert [c[0] for c in decomp.cosets] == sorted(c[0] for c in decomp.cosets)

    def test_first_coset_is_subgroup(self):
        for n in (7, 31, 43, 63):
            decomp = coset_decomposition(n)
            subgroup = {pow(n + 2, k, 2 * n) for k in range(decomp.nu)}
            assert decomp.cosets[0][0] == 1
            assert set(decomp.cosets[0]) == subgroup

    def test_order_equals_suborder_of_two(self):
        for n in range(3, 200, 2):
            assert coset_decomposition(n).nu == multiplicative_order(2, n)

    def test_matches_reference_orbits(self):
        for n in range(3, 600, 2):
            decomp = coset_decomposition(n)
            expected = reference_cosets(n)
            assert decomp.cosets == tuple(expected)
            assert decomp.nu == len(expected[0])

    def test_coset_containing(self):
        decomp = coset_decomposition(31)
        assert decomp.coset_containing(43) == (3, 17, 37, 43, 55)
        with pytest.raises(DomainError):
            decomp.coset_containing(2)

    @pytest.mark.parametrize("x", [-1, 0, 2, 7, 14, 15])
    def test_coset_containing_refuses_what_is_no_unit_in_range(self, x):
        # 15 = 1 mod 14 is a unit, but not a representative in (0, 14)
        with pytest.raises(DomainError, match=re.escape(f"{x} is not a unit in (0, 14)")):
            coset_decomposition(7).coset_containing(x)

    def test_coset_containing_a_unit_a_hand_built_decomposition_lacks(self):
        partial = CosetDecomposition(n=OddModulus(7), nu=3, cosets=((1, 9, 11),))
        assert partial.coset_containing(9) == (1, 9, 11)
        with pytest.raises(DomainError, match="no coset holds 3"):
            partial.coset_containing(3)

    def test_rejects_even(self):
        with pytest.raises(InvalidModulusError):
            coset_decomposition(10)
