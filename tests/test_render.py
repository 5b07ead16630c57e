"""Rendering conventions for the text, latex and json formats."""

import dataclasses
import json

import pytest

from gammaprod import (
    FORMATS,
    OddModulus,
    build_identity,
    enumerate_identities,
    mersenne_identity,
    render_identity,
)

N7 = build_identity(7, [1, 9, 11])
N3 = build_identity(3, [1, 5])
N31 = build_identity(31, [1, 33, 35, 39, 47])


class TestText:
    def test_three_term(self):
        assert render_identity(N7).payload == "Γ(1/14)·Γ(9/14)·Γ(11/14) = 2^2·π^(3/2)"

    def test_ascii_fallback(self):
        payload = render_identity(N7, "text", ascii_symbols=True).payload
        assert payload == "Gamma(1/14)*Gamma(9/14)*Gamma(11/14) = 2^2*pi^(3/2)"
        assert payload.isascii()

    def test_two_is_rendered_bare(self):
        assert render_identity(N3).payload == "Γ(1/6)·Γ(5/6) = 2·π"

    def test_even_order_gives_integer_pi_power(self):
        payload = render_identity(mersenne_identity(4)).payload
        assert payload.endswith("= 2^3·π^2")

    def test_unit_power_of_two_is_omitted(self):
        # rendering takes records at face value, so a synthetic b=0 is fine
        flat = dataclasses.replace(N31, b=0)
        assert render_identity(flat).payload.endswith("= π^(5/2)")

    @pytest.mark.parametrize(("b", "nu", "rhs"), [
        (-1, 3, "= 2^-1·π^(3/2)"),
        (-2, 2, "= 2^-2·π"),
        (0, -2, "= π^-1"),
        (1, -3, "= 2·π^(-3/2)"),
    ])
    def test_negative_exponents_keep_their_sign(self, b, nu, rhs):
        signed = dataclasses.replace(N7, b=b, nu=nu)
        assert render_identity(signed).payload.endswith(rhs)
        # the same exponents json already carries
        assert json.loads(render_identity(signed, "json").payload)["rhs"] == {
            "pow2": b, "pi_half_units": nu}

    @pytest.mark.parametrize(("b", "nu", "rhs", "ascii_rhs"), [
        (0, 0, " = 1", " = 1"),
        (1, 0, " = 2", " = 2"),
        (0, 2, " = π", " = pi"),
    ])
    def test_a_unit_or_lone_factor_right_side(self, b, nu, rhs, ascii_rhs):
        record = dataclasses.replace(N7, b=b, nu=nu)
        assert render_identity(record).payload == "Γ(1/14)·Γ(9/14)·Γ(11/14)" + rhs
        assert render_identity(record, "text", ascii_symbols=True).payload == (
            "Gamma(1/14)*Gamma(9/14)*Gamma(11/14)" + ascii_rhs)


class TestLatex:
    def test_n31(self):
        assert render_identity(N31, "latex").payload == (
            r"\[\Gamma\left(\frac{1}{62}\right)"
            r"\Gamma\left(\frac{33}{62}\right)"
            r"\Gamma\left(\frac{35}{62}\right)"
            r"\Gamma\left(\frac{39}{62}\right)"
            r"\Gamma\left(\frac{47}{62}\right) = 2^{4}\pi^{5/2}\]"
        )

    def test_bare_two_and_pi(self):
        assert render_identity(N3, "latex").payload == (
            r"\[\Gamma\left(\frac{1}{6}\right)\Gamma\left(\frac{5}{6}\right) = 2\pi\]"
        )

    def test_integer_pi_exponent(self):
        assert render_identity(mersenne_identity(4), "latex").payload.endswith(
            r"= 2^{3}\pi^{2}\]")

    @pytest.mark.parametrize(("b", "nu", "rhs"), [
        (-1, 3, r"= 2^{-1}\pi^{3/2}\]"),
        (0, -2, r"= \pi^{-1}\]"),
        (1, -3, r"= 2\pi^{-3/2}\]"),
    ])
    def test_negative_exponents_keep_their_sign(self, b, nu, rhs):
        assert render_identity(dataclasses.replace(N7, b=b, nu=nu), "latex").payload.endswith(rhs)

    @pytest.mark.parametrize(("b", "nu", "rhs"), [
        (0, 0, r" = 1\]"),
        (1, 0, r" = 2\]"),
        (0, 2, r" = \pi\]"),
    ])
    def test_a_unit_or_lone_factor_right_side(self, b, nu, rhs):
        lhs = (r"\[\Gamma\left(\frac{1}{14}\right)\Gamma\left(\frac{9}{14}\right)"
               r"\Gamma\left(\frac{11}{14}\right)")
        assert render_identity(dataclasses.replace(N7, b=b, nu=nu), "latex").payload == lhs + rhs

    def test_one_display_equation_per_identity(self):
        payload = render_identity(N7, "latex").payload
        assert payload.startswith(r"\[") and payload.endswith(r"\]")
        assert "\n" not in payload


class TestJson:
    def test_fields(self):
        obj = json.loads(render_identity(N3, "json").payload)
        assert obj == {
            "n": 3,
            "modulus": 6,
            "coset": [1, 5],
            "nu": 2,
            "b": 1,
            "rhs": {"pow2": 1, "pi_half_units": 2},
        }

    def test_single_line(self):
        assert "\n" not in render_identity(N31, "json").payload

    def test_round_trip_is_fixed_point(self):
        # parse the payload, rebuild the identity from it, render again:
        # the bytes must come back unchanged, for every identity in range
        for n in range(3, 1000, 2):
            for identity in enumerate_identities(n):
                payload = render_identity(identity, "json").payload
                obj = json.loads(payload)
                rebuilt = build_identity(obj["n"], obj["coset"])
                assert (rebuilt.nu, rebuilt.b) == (obj["nu"], obj["b"])
                assert render_identity(rebuilt, "json").payload == payload


class TestPlumbing:
    def test_result_carries_format_tag(self):
        rendered = render_identity(N7, "latex")
        assert rendered.format == "latex"
        assert isinstance(rendered.payload, str)

    @pytest.mark.parametrize("fmt", FORMATS)
    def test_stores_the_format_as_a_python_str(self, fmt):
        np = pytest.importorskip("numpy")
        rendered = render_identity(N7, np.str_(fmt))
        assert type(rendered.format) is str and rendered.format == fmt
        assert rendered == render_identity(N7, fmt)

    def test_unknown_format(self):
        with pytest.raises(ValueError, match="unknown format") as exc:
            render_identity(N7, "yaml")
        assert str(exc.value) == "unknown format 'yaml', expected one of ('text', 'latex', 'json')"

    @pytest.mark.parametrize("fmt", FORMATS)
    def test_every_format_renders_one_line(self, fmt):
        plain, ascii_ = (render_identity(N31, fmt, ascii_symbols=a) for a in (False, True))
        for rendered in (plain, ascii_):
            assert rendered.format == fmt
            assert rendered.payload and "\n" not in rendered.payload
        assert (plain == ascii_) == (fmt != "text")  # ascii_symbols touches only text


# The per-factor renderers the single-join ones replaced, kept as the reference.
def _reference_rhs(b, nu, times, pi_sym, latex):
    sup = "^{{{}}}" if latex else "^{}"
    factors = []
    if b == 1:
        factors.append("2")
    elif b >= 2:
        factors.append("2" + sup.format(b))
    if nu == 2:
        factors.append(pi_sym)
    elif nu > 0 and nu % 2 == 0:
        factors.append(pi_sym + sup.format(nu // 2))
    elif nu > 0:
        factors.append(pi_sym + sup.format(f"{nu}/2" if latex else f"({nu}/2)"))
    return times.join(factors) if factors else "1"


def _reference_payload(identity, fmt, ascii_symbols):
    m = identity.modulus
    if fmt == "text":
        gamma, times, pi_sym = ("Gamma", "*", "pi") if ascii_symbols else ("Γ", "·", "π")
        lhs = times.join(f"{gamma}({x}/{m})" for x in identity.coset)
        return f"{lhs} = {_reference_rhs(identity.b, identity.nu, times, pi_sym, latex=False)}"
    if fmt == "latex":
        lhs = "".join(rf"\Gamma\left(\frac{{{x}}}{{{m}}}\right)" for x in identity.coset)
        rhs = _reference_rhs(identity.b, identity.nu, "", r"\pi", latex=True)
        return rf"\[{lhs} = {rhs}\]"
    return json.dumps({
        "n": identity.n,
        "modulus": m,
        "coset": list(identity.coset),
        "nu": identity.nu,
        "b": identity.b,
        "rhs": {"pow2": identity.rhs.pow2, "pi_half_units": identity.rhs.pi_half_units},
    })


class _Numeral(int):
    """An int subclass whose str is its own, to be spelled as str() spells it."""

    def __str__(self):
        return f"<{int(self)}%>"


def test_payloads_match_the_per_factor_reference():
    identities = [i for n in range(3, 2000, 2) for i in enumerate_identities(n)]
    empty = dataclasses.replace(N7, n=3, coset=(), b=2)  # hand-built
    identities.append(empty)
    # hand-built lists: a list, one element, non-int and %-bearing elements, and
    # n = "%d", whose modulus spells %d%d inside the template's literal text
    identities += [dataclasses.replace(N7, coset=coset) for coset in (
        [1, 9, 11], (1,), (True, 1.5, float("nan")), (_Numeral(1), 9, _Numeral(11)),
        ("7%s", 9), ((1, 2), 9))]
    identities.append(dataclasses.replace(N7, n="%d"))
    identities.append(dataclasses.replace(N7, b=_Numeral(5), nu=_Numeral(3)))  # % on the right
    for identity in identities:
        for fmt in FORMATS:
            for ascii_symbols in (False, True):
                assert (render_identity(identity, fmt, ascii_symbols).payload
                        == _reference_payload(identity, fmt, ascii_symbols))
    assert render_identity(empty).payload == " = 2^2·π^(3/2)"
    # hand-built scalars that are not exact ints, and a negative b, as json.dumps writes them
    for identity in (dataclasses.replace(N7, b=True), dataclasses.replace(N7, b=1.5),
                     dataclasses.replace(N7, n=OddModulus(7)), dataclasses.replace(N7, b=-3),
                     dataclasses.replace(N7, nu=float("nan")),
                     dataclasses.replace(N7, b=float("inf")), dataclasses.replace(N7, n=7.0)):
        assert (render_identity(identity, "json").payload
                == _reference_payload(identity, "json", False))
    assert render_identity(dataclasses.replace(N7, n=7.0), "json").payload.startswith(
        '{"n": 7.0, "modulus": 14.0, ')


def test_a_json_payload_is_one_dump(traced_peak, coset_of_1000003):
    # the 8.05 MiB payload of the coset of 1000003; json.dumps of the coset, then
    # filling it into the field layout, peaked at 2.25 times the payload
    rendered, peak = traced_peak(render_identity, coset_of_1000003, "json")
    assert rendered.payload.startswith('{"n": 1000003, "modulus": 2000006, "coset": [1, 3, ')
    assert peak < 2.1 * len(rendered.payload)


def test_a_scalar_json_cannot_write_raises_as_json_dumps_does():
    np = pytest.importorskip("numpy")
    identity = dataclasses.replace(N7, b=np.int64(2))
    with pytest.raises(TypeError) as expected:
        _reference_payload(identity, "json", False)
    with pytest.raises(TypeError) as raised:
        render_identity(identity, "json")
    assert str(raised.value) == str(expected.value)
