"""Property tests for the structural invariants the whole construction rests on.

Strategies draw odd moduli up to a few hundred; everything here is exact
integer arithmetic except the tolerance checks, so the bound only limits
runtime, not coverage of edge shapes (prime, prime power, squarefree,
highly composite all occur well below it).
"""

import math

from hypothesis import given, settings, strategies as st

from gammaprod import (
    OddModulus,
    coset_decomposition,
    complement_identity,
    default_tolerance,
    enumerate_identities,
    halve_mod,
    halving_cycles,
    multiplicative_order,
    odd_lift,
    odd_lift_inverse,
    survey_range,
    survey_row,
    units_mod,
)
from gammaprod.identities import _coset_identity

odd_moduli = st.integers(min_value=1, max_value=240).map(lambda k: 2 * k + 1)


@st.composite
def modulus_and_unit(draw):
    n = draw(odd_moduli)
    units = units_mod(n)
    y = draw(st.sampled_from(tuple(units)))
    return n, y


@st.composite
def modulus_and_unit_pair(draw):
    n = draw(odd_moduli)
    units = tuple(units_mod(n))
    return n, draw(st.sampled_from(units)), draw(st.sampled_from(units))


@given(odd_moduli)
def test_odd_lift_is_a_bijection_onto_units(n):
    image = {odd_lift(y, n) for y in units_mod(n)}
    assert image == set(units_mod(2 * n))


@given(modulus_and_unit_pair())
def test_odd_lift_is_multiplicative(nyy):
    n, y1, y2 = nyy
    lhs = odd_lift(y1 * y2 % n, n)
    rhs = odd_lift(y1, n) * odd_lift(y2, n) % (2 * n)
    assert lhs == rhs


@given(modulus_and_unit())
def test_odd_lift_round_trips(nu_pair):
    n, y = nu_pair
    assert odd_lift_inverse(odd_lift(y, n), n) == y


@given(odd_moduli)
def test_odd_lift_inverse_round_trips(n):
    for x in units_mod(2 * n):
        assert odd_lift(odd_lift_inverse(x, n), n) == x


@given(modulus_and_unit())
def test_halve_mod_inverts_doubling(nu_pair):
    n, y = nu_pair
    assert 2 * halve_mod(y, n) % n == y


@given(modulus_and_unit())
def test_halving_lemma(nu_pair):
    # x - n = 2y - 2z with y the odd residue of x and z its half mod n
    n, y = nu_pair
    x = odd_lift(y, n)
    z = halve_mod(y, n)
    assert (y - 2 * z) % n == 0
    assert x - n == 2 * y - 2 * z


@given(odd_moduli)
def test_coset_sums_telescope(n):
    dec = coset_decomposition(n)
    for coset in dec.cosets:
        assert sum(coset) == n * dec.nu


def test_every_coset_sums_to_n_nu():
    for n in range(3, 3000, 2):
        dec = coset_decomposition(n)
        assert all(sum(coset) == n * dec.nu for coset in dec.cosets)
    n = 1000003  # one coset, of nu = phi = n - 1 elements, read off its orbit
    coset = _coset_identity(n, 1).coset
    assert len(coset) == n - 1 and sum(coset) == n * (n - 1)


def test_self_complementary_rows_have_max_b_half_nu():
    rows = [row for row in survey_range(2999) if row.self_complementary_count]
    assert len(rows) == 503
    assert all(2 * row.max_b == row.nu for row in rows)


@settings(max_examples=30, deadline=None)
@given(st.integers(min_value=1, max_value=5 * 10**4 - 1).map(lambda k: 2 * k + 1))
def test_self_complementary_rows_have_max_b_half_nu_sampled(n):
    row = survey_row(n)
    assert not row.self_complementary_count or 2 * row.max_b == row.nu


@given(odd_moduli)
def test_order_transports_through_lift(n):
    assert multiplicative_order(n + 2, 2 * n) == multiplicative_order(2, n)


@given(odd_moduli)
def test_totient_doubles_under_lift(n):
    assert len(units_mod(2 * n)) == len(units_mod(n))


@given(odd_moduli)
def test_cycle_labels_are_the_cosets(n):
    dec = coset_decomposition(n)
    labelled = sorted(tuple(sorted(c.labels)) for c in halving_cycles(n))
    assert labelled == sorted(dec.cosets)


@given(odd_moduli)
def test_partition_matches_naive_orbit_walk(n):
    m = 2 * n
    g = n + 2
    seen = [False] * m
    expected = []
    for start in range(1, m):
        if seen[start] or math.gcd(start, m) != 1:
            continue
        orbit, x = [], start
        while not seen[x]:
            seen[x] = True
            orbit.append(x)
            x = x * g % m
        expected.append(tuple(sorted(orbit)))
    assert list(coset_decomposition(n).cosets) == expected


@given(odd_moduli)
def test_complement_reverses_the_power_of_two(n):
    identities = enumerate_identities(OddModulus(n))
    b_values = sorted(ident.b for ident in identities)
    flipped = sorted(complement_identity(ident).b for ident in identities)
    assert flipped == sorted(ident.nu - ident.b for ident in identities)
    assert flipped == b_values  # complementation permutes the coset list


@given(odd_moduli, st.integers(1, 10_000))
def test_tolerance_grows_with_term_count(n, k):
    assert default_tolerance(n, k) <= default_tolerance(n, k + 1)
    assert default_tolerance(n, k) > 0


@settings(max_examples=40)
@given(odd_moduli)
def test_survey_row_invariants(n):
    row = survey_row(OddModulus(n))
    assert row.phi == len(units_mod(n))
    assert row.nu * row.coset_count == row.phi
    assert 0 <= row.self_complementary_count <= row.coset_count
    assert 0 < row.max_b <= row.nu
