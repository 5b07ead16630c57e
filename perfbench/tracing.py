"""Span tracing for the benchmark's traced run.

The tracer wraps public functions of gammaprod at every place they are
bound (the defining module, every module that imported the name, and the
package namespace), so calls between modules are seen as well as calls from
the benchmark.  Per-step helpers (halve_mod, odd_lift, log_gamma) are not
wrapped: their counts are derived from the results of the wrapped callers.

Spans are kept in memory as parallel arrays (function, parent, start, stop,
end of bookkeeping) and written out when the run ends.  A span's self time
is its duration minus the time its child spans cover; the bookkeeping a
wrapper does after its function returns (computing counts) is covered by
the span but charged to no one.
"""

import functools
import json
import sys
from array import array
from collections import Counter
from time import perf_counter

PACKAGE = "gammaprod"


def _units_scanned(counts, result):
    counts["residues.units_mod.scanned"] += result.modulus - 1


def _orbit_steps(counts, result):
    counts["residues.coset_decomposition.orbit_steps"] += result.nu * result.coset_count


def _order_steps(counts, result):
    counts["residues.multiplicative_order.steps"] += result


def _halving_steps(counts, result):
    counts["residues.halving_cycles.steps"] += sum(len(cycle) for cycle in result)


def _identities_built(counts, result):
    counts["identities.identities_built"] += len(result)


def _report(counts, result):
    counts["verification.lgamma_terms"] += result.term_count
    counts["verification.failed"] += not result.passed
    if result.residual != 0.0:
        headroom = result.tolerance / abs(result.residual)
        best = counts.get("verification.min_headroom")
        counts["verification.min_headroom"] = headroom if best is None else min(best, headroom)


def _bytes_out(counts, result):
    counts["render.bytes_out"] += len(result.payload.encode("utf-8"))


# (module, function) -> count derived from the result, or None.
TRACED = {
    ("residues", "units_mod"): _units_scanned,
    ("residues", "coset_decomposition"): _orbit_steps,
    ("residues", "multiplicative_order"): _order_steps,
    ("residues", "halving_cycles"): _halving_steps,
    ("identities", "enumerate_identities"): _identities_built,
    ("identities", "is_self_complementary"): None,
    ("identities", "full_product_identity"): None,
    ("survey", "survey_row"): None,
    ("survey", "is_prime_power"): None,
    ("verification", "verify_identity"): _report,
    ("verification", "verify_full_product"): _report,
    ("render", "render_identity"): _bytes_out,
}

COUNT_NAMES = (
    "residues.units_mod.scanned",
    "residues.coset_decomposition.orbit_steps",
    "residues.multiplicative_order.steps",
    "residues.halving_cycles.steps",
    "identities.identities_built",
    "verification.lgamma_terms",
    "verification.failed",
    "render.bytes_out",
)


class Tracer:
    """Wraps the traced functions while installed and records their spans."""

    def __init__(self):
        self.keys = list(TRACED)
        self.func = array("i")
        self.parent = array("l")
        self.start = array("d")
        self.stop = array("d")
        self.end = array("d")
        self.counts = Counter()
        self._stack = []
        self._patched = []

    def _wrap(self, index, fn, count):
        func, parent, start, stop, end = self.func, self.parent, self.start, self.stop, self.end
        stack, counts = self._stack, self.counts

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            i = len(func)
            func.append(index)
            parent.append(stack[-1] if stack else -1)
            start.append(0.0)
            stop.append(0.0)
            end.append(0.0)
            stack.append(i)
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = perf_counter()
                stack.pop()
                start[i] = t0
                stop[i] = t1
                end[i] = t1
            if count is not None:
                count(counts, result)
                end[i] = perf_counter()
            return result

        return traced

    def install(self) -> None:
        modules = [mod for name, mod in sys.modules.items()
                   if name == PACKAGE or name.startswith(PACKAGE + ".")]
        wrappers = {}
        for index, (module, name) in enumerate(self.keys):
            original = getattr(sys.modules[f"{PACKAGE}.{module}"], name)
            wrappers[id(original)] = self._wrap(index, original, TRACED[(module, name)])
        for mod in modules:
            for attr, value in list(vars(mod).items()):
                wrapper = wrappers.get(id(value))
                if wrapper is not None:
                    self._patched.append((mod, attr, value))
                    setattr(mod, attr, wrapper)

    def uninstall(self) -> None:
        for mod, attr, value in reversed(self._patched):
            setattr(mod, attr, value)
        self._patched.clear()

    def begin_pass(self) -> int:
        """Reset the counts; returns the index of the pass's first span."""
        self.counts.clear()
        return len(self.func)

    def end_pass(self, first: int) -> tuple[dict, dict]:
        """calls and self_s per traced function, and the counts, of one pass.

        A count no call contributed to reads 0; so does min_headroom when
        nothing was verified.
        """
        counts = dict.fromkeys(COUNT_NAMES, 0)
        counts["verification.min_headroom"] = 0.0
        counts.update(self.counts)
        return self._layer_stats(first, len(self.func)), counts

    def _layer_stats(self, first: int, last: int) -> dict:
        cover = [0.0] * (last - first)
        for i in range(first, last):
            p = self.parent[i]
            if p >= first:
                cover[p - first] += self.end[i] - self.start[i]
        stats = {}
        for module, name in self.keys:
            stats[f"{module}.{name}.calls"] = 0
            stats[f"{module}.{name}.self_s"] = 0.0
        for i in range(first, last):
            module, name = self.keys[self.func[i]]
            stats[f"{module}.{name}.calls"] += 1
            stats[f"{module}.{name}.self_s"] += self.stop[i] - self.start[i] - cover[i - first]
        return stats

    def write(self, path) -> None:
        """One JSON line per span: function, parent span, start and stop in s."""
        names = [f"{module}.{name}" for module, name in self.keys]
        with open(path, "w", encoding="utf-8") as out:
            for i in range(len(self.func)):
                out.write(json.dumps([i, names[self.func[i]], self.parent[i],
                                      self.start[i], self.stop[i]]) + "\n")
