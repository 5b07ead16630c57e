"""The benchmark's workloads: seeded inputs, timed passes and output checks.

A workload is a fixed list of distinct ops, run in passes.  run_pass() runs
every op once, times each op on its own, and checks its output after the
op's clock has stopped, so checking never counts as work.  finish() runs
the checks that need sympy; it is called after the timed loop so that
importing sympy adds neither time nor resident memory to what is measured.
"""

import hashlib
import json
import math
import random
import resource
import sys
from time import perf_counter


def _primes_upto(limit: int) -> list[int]:
    sieve = bytearray([1]) * (limit + 1)
    sieve[0:2] = b"\x00\x00"
    for p in range(2, math.isqrt(limit) + 1):
        if sieve[p]:
            sieve[p * p::p] = bytes(len(range(p * p, limit + 1, p)))
    return [p for p in range(limit + 1) if sieve[p]]


_PRIMES = _primes_upto(1 << 16)


def _factor(n: int) -> dict[int, int]:
    """Prime factorisation by trial division; n < 2**32."""
    factors = {}
    for p in _PRIMES:
        if p * p > n:
            break
        while n % p == 0:
            factors[p] = factors.get(p, 0) + 1
            n //= p
    if n > 1:
        factors[n] = factors.get(n, 0) + 1
    return factors


def _totient(factors: dict[int, int]) -> int:
    return math.prod((p - 1) * p ** (e - 1) for p, e in factors.items())


def _order_of_2(n: int, factors: dict[int, int]) -> int:
    """ord_n(2), by reducing the Carmichael value over its prime factors."""
    k = 1
    for p, e in factors.items():
        k = math.lcm(k, (p - 1) * p ** (e - 1))
    for q in _factor(k):
        while k % q == 0 and pow(2, k // q, n) == 1:
            k //= q
    return k


class Workload:
    """Inputs and op loop of one workload; counts attempted and failed ops.

    `ops` lists the distinct ops of a pass, in the order a pass runs them.
    """

    name = ""
    why = ""
    ops: list = []

    def __init__(self, gp, seed: int, tiny: bool):
        self.gp = gp
        self.rng = random.Random(seed)
        self.tiny = tiny
        self.attempted = 0
        self.failed = 0
        self.problems = []

    def _fail(self, ops: int, message: str) -> None:
        self.failed += ops
        if len(self.problems) < 20:
            self.problems.append(message)

    def describe(self) -> dict:
        raise NotImplementedError

    def warm_up(self) -> None:
        raise NotImplementedError

    def run_pass(self, latencies: bool = True) -> tuple[list, float, int]:
        """One pass over `ops`: (latency in s of each op, None where it failed,
        or [] when latencies is false; timed seconds; ops done)."""
        raise NotImplementedError

    def cli_argv(self):
        """The CLI command that does what a pass does, or None."""
        return None

    def peak_rss_mb(self) -> float:
        return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024

    def finish(self) -> None:
        """Checks run once, after the timed loop."""


class SurveySweep(Workload):
    name = "survey-sweep"
    why = ("many tiny unit groups, so per-call overhead, the units_mod gcd scan and "
           "is_prime_power dominate; verification and rendering never run")

    def __init__(self, *args):
        super().__init__(*args)
        self.max_n = 99 if self.tiny else 1999
        self.ops = list(range(3, self.max_n + 1, 2))
        self.rows = len(self.ops)
        self.reference = None
        self.bad = set()

    def describe(self) -> dict:
        return {"N": self.max_n, "rows": self.rows}

    def warm_up(self) -> None:
        self.gp.survey_row(3)

    def cli_argv(self):
        return ["survey", "--max", str(self.max_n)]

    def run_pass(self, latencies: bool = True):
        survey = sys.modules["gammaprod.survey"]
        inner = survey.survey_row
        lat = []
        if latencies:
            def timed_row(n):
                t0 = perf_counter()
                row = inner(n)
                lat.append(perf_counter() - t0)
                return row
            survey.survey_row = timed_row
        self.attempted += self.rows
        try:
            t0 = perf_counter()
            rows = self.gp.survey_range(self.max_n)
            elapsed = perf_counter() - t0
        except Exception as exc:
            self._fail(self.rows, f"survey_range({self.max_n}) raised {exc!r}")
            return [None] * self.rows if latencies else [], 0.0, 0
        finally:
            survey.survey_row = inner
        self._check(rows)
        if latencies and len(lat) != self.rows:
            self._fail(self.rows, f"survey_range called survey_row {len(lat)} times, "
                                  f"not {self.rows}")
            lat = [None] * self.rows
        return lat, elapsed, self.rows

    def _check(self, rows) -> None:
        """The first pass is the reference; later passes must repeat it row for row."""
        if self.reference is None:
            self.reference = rows
            if [row.n for row in rows] != self.ops:
                self.bad.update(self.ops)
            self.bad.update(row.n for row in rows if row.phi != row.nu * row.coset_count)
            return
        for row, ref in zip(rows, self.reference):
            if row != ref:
                self._fail(1, f"n={ref.n}: row differs from the first pass")
        if len(rows) != len(self.reference):
            self._fail(abs(len(rows) - len(self.reference)), "row count changed")

    def finish(self) -> None:
        """Rows failing a check on the reference pass fail in every pass."""
        import sympy
        for row in self.reference or ():
            if row.phi != sympy.totient(row.n) or row.nu != sympy.n_order(2, row.n):
                self.bad.add(row.n)
        if self.bad:
            passes = self.attempted // self.rows
            self._fail(passes * len(self.bad),
                       f"rows wrong (phi, nu or phi == nu * coset_count) at n={sorted(self.bad)[:10]}")


def _divisors(factors: dict[int, int]) -> list[int]:
    divisors = [1]
    for p, e in factors.items():
        divisors = [d * p ** i for d in divisors for i in range(e + 1)]
    return divisors


def _strata(rng: random.Random, tiny: bool) -> list[tuple[str, int, int, int]]:
    """Seeded moduli from three strata: (stratum, n, phi, nu), interleaved.

    The strata differ in how the same amount of work splits into cosets.
    All three draw from one totient band, so an op costs about the same
    whatever the seed draws.
    """
    if tiny:
        band, n_hi, per = (400, 700), 1200, 1
    else:
        band, n_hi, per = (4000, 6000), 16000, 34
    lo, hi = band

    primes = [p for p in _PRIMES if lo < p <= hi + 1]
    rng.shuffle(primes)
    huge = []
    for p in primes:
        nu = _order_of_2(p, {p: 1})
        if 2 * nu >= p - 1:
            huge.append(("one-or-two-cosets", p, p - 1, nu))
            if len(huge) == per:
                break

    # Every odd n divides 2^ord(n) - 1; small orders mean many small cosets.
    pool = set()
    for k in range(12, 65):
        for d in _divisors(_factor((1 << k) - 1)):
            if d <= n_hi:
                f = _factor(d)
                if lo <= _totient(f) <= hi and _order_of_2(d, f) == k:
                    pool.add((d, _totient(f), k))
    many = [("many-cosets", *m) for m in rng.sample(sorted(pool), min(per, len(pool)))]

    composite = []
    seen = set()
    while len(composite) < per:
        n = rng.randrange(lo | 1, n_hi, 2)
        f = _factor(n)
        if n in seen or len(f) < 2 or not lo <= _totient(f) <= hi:
            continue
        seen.add(n)
        nu = _order_of_2(n, f)
        if nu > 64:
            composite.append(("composite", n, _totient(f), nu))

    if len(huge) < per or len(many) < per:
        raise ValueError("a stratum of big-moduli has too few moduli")
    return [m for group in zip(huge, many, composite) for m in group]


class BigModuli(Workload):
    name = "big-moduli"
    why = ("one modulus at a time through enumerate, verify, full product, text and json "
           "rendering and halving_cycles, drawn from strata that load the layers differently")

    def __init__(self, *args):
        super().__init__(*args)
        self.moduli = _strata(self.rng, self.tiny)
        self.ops = [n for _, n, _, _ in self.moduli]
        self.digests = {}

    def describe(self) -> dict:
        return {"moduli": [{"stratum": s, "n": n, "phi": phi, "nu": nu}
                           for s, n, phi, nu in self.moduli]}

    def warm_up(self) -> None:
        self._op(7)

    def _op(self, n):
        gp = self.gp
        identities = gp.enumerate_identities(n)
        reports = [gp.verify_identity(identity) for identity in identities]
        full = gp.verify_full_product(n)
        text = [gp.render_identity(identity, "text").payload for identity in identities]
        js = [gp.render_identity(identity, "json").payload for identity in identities]
        cycles = gp.halving_cycles(n)
        return identities, reports, full, text, js, cycles

    def run_pass(self, latencies: bool = True):
        lat = []
        for n in self.ops:
            self.attempted += 1
            try:
                t0 = perf_counter()
                out = self._op(n)
                lat.append(perf_counter() - t0)
            except Exception as exc:
                self._fail(1, f"n={n} raised {exc!r}")
                lat.append(None)
                continue
            self._check(n, out)
        done = [t for t in lat if t is not None]
        return lat if latencies else [], sum(done), len(done)

    @staticmethod
    def _digest(out) -> str:
        identities, reports, full, text, js, cycles = out
        h = hashlib.sha256()
        h.update(repr([(i.coset, i.nu, i.b) for i in identities]).encode())
        h.update(repr([(r.residual, r.tolerance, r.passed, r.term_count) for r in reports]).encode())
        h.update(repr(full).encode())
        h.update("\n".join(text).encode())
        h.update("\n".join(js).encode())
        h.update(repr([(c.vertices, c.labels) for c in cycles]).encode())
        return h.hexdigest()

    def _check(self, n, out) -> None:
        """Full check on a modulus's first op; later ops must repeat its digest."""
        digest = self._digest(out)
        if n in self.digests:
            first = self.digests[n][0]
            self.digests[n][3] += 1
            if first == "failed":
                self._fail(1, f"n={n}: failed the checks on its first op")
            elif first != digest:
                self._fail(1, f"n={n}: output differs from its first op")
            return
        identities, reports, full, text, js, cycles = out
        phi = sum(len(i.coset) for i in identities)
        nu = identities[0].nu
        self.digests[n] = [digest, phi, nu, 1]
        problems = []
        if any(len(i.coset) != nu or i.nu != nu for i in identities):
            problems.append("coset sizes differ from nu")
        if not all(r.passed and abs(r.residual) <= r.tolerance for r in reports):
            problems.append("an identity failed verification")
        if not (full.passed and abs(full.residual) <= full.tolerance and full.term_count == phi):
            problems.append("the full product failed verification")
        if 2 * sum(i.b for i in identities) != phi:
            problems.append("2*sum(b) != phi")
        for identity, payload in zip(identities, js):
            expected = {"n": n, "modulus": 2 * n, "coset": list(identity.coset),
                        "nu": identity.nu, "b": identity.b,
                        "rhs": {"pow2": identity.b, "pi_half_units": identity.nu}}
            if json.loads(payload) != expected:
                problems.append(f"json payload of coset {identity.coset[0]} does not round-trip")
                break
        if any(p.count("Γ(") != len(i.coset) for i, p in zip(identities, text)):
            problems.append("a text payload has the wrong number of factors")
        if sorted(tuple(sorted(c.labels)) for c in cycles) != sorted(i.coset for i in identities):
            problems.append("halving cycle labels are not the cosets")
        if problems:
            self.digests[n][0] = "failed"
            self._fail(1, f"n={n}: " + "; ".join(problems))

    def finish(self) -> None:
        """A modulus whose phi or nu disagrees with sympy fails on every op."""
        import sympy
        for n, (digest, phi, nu, ops) in self.digests.items():
            if digest != "failed" and (phi != sympy.totient(n) or nu != sympy.n_order(2, n)):
                self._fail(ops, f"n={n}: phi or nu disagrees with sympy")


WORKLOADS = {w.name: w for w in (SurveySweep, BigModuli)}
