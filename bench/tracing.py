"""Wrappers around the program's public layer functions.

The benchmark wraps functions from its own files and changes nothing inside
them.  ``install`` replaces every binding of a wrapped function in the
loaded ``ncshilov`` modules (``unitize`` imports ``solve_feasibility`` and
``minimize_opnorm`` by name, so the module attribute alone is not enough)
and ``uninstall`` puts the originals back.

Two kinds of wrapper:

* counting wrappers read deterministic work counts off return values
  (solve and iteration counts, verdicts).  Every run installs them on the
  conic solvers, whose calls take milliseconds, so the few microseconds they
  add do not show;
* span wrappers (traced runs only) also record a span per call: name,
  start, end and the enclosing wrapped call.  Spans stay in memory until
  the run ends.
"""

from __future__ import annotations

import sys
import time
from collections import Counter

from ncshilov import blockdecomp, cli, conesolver, envelope, funcspace, stargen, unitize

# The layer functions of the traced run, as (module, function name).
LAYERS = (
    (cli, "parse_space_file"), (cli, "canonical_json"),
    (envelope, "compute_envelope"), (envelope, "is_block_loose"),
    (envelope, "certify_embedding"),
    (stargen, "cone_spans"), (stargen, "generate_star_algebra"),
    (blockdecomp, "decompose"),
    (conesolver, "cc_test"), (conesolver, "solve_feasibility"),
    (conesolver, "minimize_opnorm"),
    (unitize, "xplus_cone_member"), (unitize, "x1_cone_member"),
    (unitize, "distance_to_unit"), (unitize, "dominating_element"),
    (funcspace, "boundary"), (funcspace, "crosscheck_diagonal"),
)
# The layers whose work counts every run records.
COUNTED = ((conesolver, "solve_feasibility"), (conesolver, "cc_test"))


def layer_name(module, name) -> str:
    return f"{module.__name__.rsplit('.', 1)[-1]}.{name}"


def _solve_counts(out):
    return {"iterations": out.iterations, out.status: 1}


def _cc_counts(res):
    label = {conesolver.CC_YES: "yes", conesolver.CC_NO: "no"}.get(res.verdict, "marginal")
    return {"ipm_iterations": res.iterations, label: 1}


def _loose_counts(verdict):
    return {verdict.status: 1}


def _xplus_counts(verdict):
    return {verdict.member: 1}


def _decompose_counts(dec):
    return {"blocks": len(dec.blocks)}


# Counts read off return values, per layer, with the keys every run reports
# (so that a count that stays 0 is still reported).
COUNT_READERS = {
    "conesolver.solve_feasibility": (_solve_counts, ("iterations", "feasible",
                                                     "infeasible", "marginal")),
    "conesolver.cc_test": (_cc_counts, ("ipm_iterations", "yes", "no", "marginal")),
    "envelope.is_block_loose": (_loose_counts, ("loose", "essential")),
    "unitize.xplus_cone_member": (_xplus_counts, ("yes", "no", "inconclusive")),
    "blockdecomp.decompose": (_decompose_counts, ("blocks",)),
}


class Recorder:
    """Work counts of the counted layers and, when ``spans`` is set, one
    span per call of every layer in LAYERS."""

    def __init__(self, spans: bool):
        self.spans_on = spans
        self.counts: Counter = Counter()
        self.spans: list[tuple[int, float, float, int]] = []  # (layer, start, end, parent)
        self.names: list[str] = []
        self._stack: list[int] = []
        self._originals: list[tuple[object, str, object]] = []

    def _wrap(self, label, fn):
        reader = COUNT_READERS.get(label, (None,))[0]
        counts = self.counts

        def counted(*args, **kwargs):
            out = fn(*args, **kwargs)
            counts[f"{label}.calls"] += 1
            if reader is not None:
                for key, val in reader(out).items():
                    counts[f"{label}.{key}"] += val
            return out

        if not self.spans_on:
            return counted
        layer = len(self.names)
        self.names.append(label)
        spans, stack = self.spans, self._stack

        def spanned(*args, **kwargs):
            idx = len(spans)
            spans.append((layer, time.perf_counter(), 0.0, stack[-1] if stack else -1))
            stack.append(idx)
            try:
                return counted(*args, **kwargs)
            finally:
                stack.pop()
                spans[idx] = (layer, spans[idx][1], time.perf_counter(), spans[idx][3])

        return spanned

    def install(self):
        for module, name in (LAYERS if self.spans_on else COUNTED):
            original = getattr(module, name)
            wrapper = self._wrap(layer_name(module, name), original)
            for mod in list(sys.modules.values()):
                if getattr(mod, "__name__", "").startswith("ncshilov"):
                    for attr, val in list(vars(mod).items()):
                        if val is original:
                            setattr(mod, attr, wrapper)
                            self._originals.append((mod, attr, original))
        return self

    @staticmethod
    def work(counts) -> dict:
        """The nonzero counts of the COUNTED layers, which every run has."""
        prefixes = tuple(f"{layer_name(m, n)}." for m, n in COUNTED)
        return {k: v for k, v in sorted(counts.items()) if v and k.startswith(prefixes)}

    def uninstall(self):
        for mod, attr, original in reversed(self._originals):
            setattr(mod, attr, original)
        self._originals.clear()

    def layer_metrics(self, since: float, counts) -> dict:
        """Per layer: calls and work counts (from ``counts``), and total_s
        and self_s over the spans that start at or after ``since``.  Self
        time is a span's duration minus that of the wrapped calls directly
        inside it."""
        child = [0.0] * len(self.spans)
        for _layer, start, end, parent in self.spans:
            if parent >= 0:
                child[parent] += end - start
        total = [0.0] * len(self.names)
        own = [0.0] * len(self.names)
        for i, (layer, start, end, _parent) in enumerate(self.spans):
            if start >= since:
                total[layer] += end - start
                own[layer] += end - start - child[i]
        out = {}
        for layer, label in enumerate(self.names):
            out[f"{label}.calls"] = (counts[f"{label}.calls"], "count")
            out[f"{label}.total_s"] = (total[layer], "s")
            out[f"{label}.self_s"] = (own[layer], "s")
            for key in COUNT_READERS.get(label, (None, ()))[1]:
                out[f"{label}.{key}"] = (counts[f"{label}.{key}"], "count")
        return out
