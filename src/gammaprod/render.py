"""Text, LaTeX and JSON renderings of the identities.

Conventions shared by all formats: numerators ascending, unit factors
(2**0, pi**0) omitted, 2**1 and pi**1 written bare, and any other exponent
printed with its sign, as the record holds it.  JSON field names are a
stable external contract; payloads are single lines so streams of
identities come out newline-delimited.  Text and latex spell each payload
through _spell, one %-template per list, which the CLI's decompose and
verify lines share; JSON is json.dumps of the record's dict.
"""

import json
from dataclasses import dataclass

from .identities import GammaProductIdentity

__all__ = ["FORMATS", "RenderedIdentity", "render_identity"]


@dataclass(frozen=True)
class RenderedIdentity:
    format: str
    payload: str


def _rhs(b: int, nu: int, times: str, pi_sym: str, latex: bool) -> str:
    """2^b pi^(nu/2); latex braces every exponent, text parenthesises nu/2."""
    sup = "^{{{}}}" if latex else "^{}"
    factors = []
    if b == 1:
        factors.append("2")
    elif b != 0:
        factors.append("2" + sup.format(b))
    if nu == 2:
        factors.append(pi_sym)
    elif nu != 0 and nu % 2 == 0:
        factors.append(pi_sym + sup.format(nu // 2))
    elif nu != 0:
        factors.append(pi_sym + sup.format(f"{nu}/2" if latex else f"({nu}/2)"))
    return times.join(factors) if factors else "1"


def _spell(coset: tuple[int, ...], start: str, head: str, tail: str, times: str, end: str) -> str:
    """start, then head + str(x) + tail for each x of coset joined by times, then end.

    One %-template (any % in the fixed text doubled): the formatter writes each
    str(x) into the payload, with no str per element and no second copy of the list.
    """
    piece = head.replace("%", "%%") + "%s" + tail.replace("%", "%%")
    return (start.replace("%", "%%") + times.join([piece] * len(coset))
            + end.replace("%", "%%")) % tuple(coset)


def _text(identity: GammaProductIdentity, ascii_symbols: bool) -> str:
    gamma = "Gamma" if ascii_symbols else "Γ"
    times = "*" if ascii_symbols else "·"
    pi_sym = "pi" if ascii_symbols else "π"
    rhs = _rhs(identity.b, identity.nu, times, pi_sym, latex=False)
    return _spell(identity.coset, "", f"{gamma}(", f"/{identity.modulus})", times, f" = {rhs}")


def _latex(identity: GammaProductIdentity, ascii_symbols: bool) -> str:
    rhs = _rhs(identity.b, identity.nu, "", r"\pi", latex=True)
    return _spell(identity.coset, r"\[", r"\Gamma\left(\frac{",
                  rf"}}{{{identity.modulus}}}\right)", "", rf" = {rhs}\]")


def _json(identity: GammaProductIdentity, ascii_symbols: bool) -> str:
    nu, b = identity.nu, identity.b
    return json.dumps({"n": identity.n, "modulus": identity.modulus, "coset": identity.coset,
                       "nu": nu, "b": b, "rhs": {"pow2": b, "pi_half_units": nu}})


_RENDERERS = {"text": _text, "latex": _latex, "json": _json}
FORMATS = tuple(_RENDERERS)


def render_identity(identity: GammaProductIdentity, fmt: str = "text",
                    ascii_symbols: bool = False) -> RenderedIdentity:
    """Render one identity as a single-line payload in the given format.

    ascii_symbols swaps the Unicode Gamma/pi/dot of the text format for
    pure ASCII spellings; it has no effect on latex or json.
    """
    if fmt not in FORMATS:
        raise ValueError(f"unknown format {fmt!r}, expected one of {FORMATS}")
    fmt = FORMATS[FORMATS.index(fmt)]  # the table's str, not the caller's str subclass
    return RenderedIdentity(fmt, _RENDERERS[fmt](identity, ascii_symbols))
