"""Spans around the public functions of tvbcox, for the traced run only.

Each traced function is wrapped once and the wrapper is bound in place of
the original in every loaded tvbcox module that holds it, so calls from
inside the package are seen too.  The sources under src/ are not touched.
Spans are kept in memory and written out when the run ends; the per-layer
metrics are computed from them, one pass at a time.
"""

import json
import statistics
import sys
import time

# (module, function) pairs that get a span; Polynomial.substitute is a
# method, wrapped on its class and named poly.substitute
SPANNED = [
    ("poly", "buchberger"),
    ("poly", "normal_form"),
    ("poly", "ring_map_kernel"),
    ("poly", "ideal_equal"),
    ("poly", "symbolic_det"),
    ("poly", "Polynomial.substitute"),
    ("linalg", "rational_rank"),
    ("bundle", "restricted_rank"),
    ("bundle", "is_complete_intersection"),
    ("bundle", "ci_stability"),
    ("bundle", "classify"),
    ("cox", "tangent_cox_ideal"),
    ("cox", "verify_kernel"),
    ("cox", "initial_comparison"),
    ("gz", "canonicalize"),
    ("gz", "word_pattern_sum"),
    ("gz", "confluence_sweep"),
    ("gz", "lead_pattern"),
    ("gz", "build_psi"),
    ("gz", "quadratic_plucker_relations"),
    ("gz", "euler_flag_relation"),
    ("gz", "lift_step_check"),
    ("gz", "psi_kernel"),
    ("suite", "gz_relation_check"),
    ("cli", "main"),
    ("cli", "parse_bundle_file"),
    ("cli", "emit_report"),
]

# (metric, unit, better); the names follow <module>.<function>.<kind>
PER_LAYER = [
    ("poly.buchberger.calls", "count", "lower"),
    ("poly.buchberger.self_s", "s", "lower"),
    ("poly.buchberger.useful_pair_ratio", "ratio", "higher"),
    ("poly.normal_form.calls", "count", "lower"),
    ("poly.normal_form.self_s", "s", "lower"),
    ("poly.ring_map_kernel.calls", "count", "lower"),
    ("poly.ring_map_kernel.s", "s", "lower"),
    ("poly.ideal_equal.s", "s", "lower"),
    ("poly.substitute.calls", "count", "lower"),
    ("poly.substitute.self_s", "s", "lower"),
    ("poly.symbolic_det.calls", "count", "lower"),
    ("poly.symbolic_det.s", "s", "lower"),
    ("linalg.rational_rank.calls", "count", "lower"),
    ("linalg.rational_rank.self_s", "s", "lower"),
    ("bundle.restricted_rank.calls", "count", "lower"),
    ("bundle.restricted_rank.self_s", "s", "lower"),
    ("bundle.rank_distinct_ratio", "ratio", "higher"),
    ("bundle.is_complete_intersection.calls", "count", "lower"),
    ("bundle.ci_stability.s", "s", "lower"),
    ("bundle.classify.s", "s", "lower"),
    ("cox.tangent_cox_ideal.s", "s", "lower"),
    ("cox.verify_kernel.s", "s", "lower"),
    ("cox.initial_comparison.s", "s", "lower"),
    ("gz.canonicalize.calls", "count", "lower"),
    ("gz.canonicalize.self_s", "s", "lower"),
    ("gz.word_pattern_sum.calls", "count", "lower"),
    ("gz.word_pattern_sum.self_s", "s", "lower"),
    ("gz.rewrite_steps", "count", "lower"),
    ("gz.confluence_sweep.s", "s", "lower"),
    ("gz.lead_pattern.s", "s", "lower"),
    ("gz.build_psi.calls", "count", "lower"),
    ("gz.build_psi.s", "s", "lower"),
    ("gz.quadratic_plucker_relations.s", "s", "lower"),
    ("gz.euler_flag_relation.calls", "count", "lower"),
    ("gz.euler_flag_relation.sign_hit_ratio", "ratio", "higher"),
    ("gz.lift_step_check.s", "s", "lower"),
    ("suite.gz_relation_check.s", "s", "lower"),
    ("gz.psi_kernel.s", "s", "lower"),
    ("cli.main.calls", "count", "lower"),
    ("cli.parse_bundle_file.s", "s", "lower"),
    ("cli.emit_report.s", "s", "lower"),
]

# span fields
NAME, START, END, PARENT, OP, PASS, CHILD, EXTRA = range(8)


class Tracer:
    """Wraps the SPANNED functions of one imported program and records
    spans [name, start, end, parent, op, pass, child time, extra]."""

    def __init__(self, prog):
        self.prog = prog
        self.spans = []
        self.stack = []
        self.op = None
        self.pass_index = None
        self.bound = []  # (owner, attribute, original) to restore

    def _wrap(self, name, fn, extra=None):
        def wrapper(*args, **kwargs):
            parent = self.stack[-1] if self.stack else None
            span = [name, time.perf_counter(), None, parent, self.op,
                    self.pass_index, 0.0, None]
            self.spans.append(span)
            self.stack.append(span)
            try:
                result = fn(*args, **kwargs)
                if extra is not None:
                    span[EXTRA] = extra(result)
                return result
            finally:
                span[END] = time.perf_counter()
                self.stack.pop()
                if parent is not None:
                    parent[CHILD] += span[END] - span[START]

        wrapper.__wrapped__ = fn
        return wrapper

    def _distinct_columns_hook(self, fn):
        """common_minimal_columns: no span of its own; it tags the enclosing
        restricted_rank span with the column set it computed."""
        def hook(b, rays):
            cols = fn(b, rays)
            top = self.stack[-1] if self.stack else None
            if top is not None and top[NAME] == "bundle.restricted_rank":
                top[EXTRA] = frozenset(cols)
            return cols

        return hook

    def install(self):
        extras = {
            "poly.normal_form": bool,
            "gz.canonicalize": lambda result: len(result[1]),
        }
        modules = [m for k, m in sys.modules.items()
                   if m is not None and (k == "tvbcox" or k.startswith("tvbcox."))]
        for mod_name, attr in SPANNED:
            owner = getattr(self.prog, mod_name)
            if "." in attr:
                cls_name, meth = attr.split(".")
                cls = getattr(owner, cls_name)
                original = getattr(cls, meth)
                setattr(cls, meth, self._wrap(f"{mod_name}.{meth}", original))
                self.bound.append((cls, meth, original))
                continue
            original = getattr(owner, attr)
            wrapper = self._wrap(f"{mod_name}.{attr}", original,
                                 extras.get(f"{mod_name}.{attr}"))
            self._rebind(modules, attr, original, wrapper)
        original = self.prog.bundle.common_minimal_columns
        self._rebind(modules, "common_minimal_columns", original,
                     self._distinct_columns_hook(original))

    def _rebind(self, modules, attr, original, replacement):
        for mod in modules:
            if getattr(mod, attr, None) is original:
                setattr(mod, attr, replacement)
                self.bound.append((mod, attr, original))

    def uninstall(self):
        for owner, attr, original in reversed(self.bound):
            setattr(owner, attr, original)
        self.bound = []

    def write(self, path):
        """One JSON array per line: id, name, start, end, parent id, op, pass."""
        ids = {id(span): k for k, span in enumerate(self.spans)}
        with open(path, "w", encoding="utf-8") as fh:
            fh.write('["id", "name", "start", "end", "parent", "op", "pass"]\n')
            for k, span in enumerate(self.spans):
                parent = ids[id(span[PARENT])] if span[PARENT] is not None else None
                fh.write(json.dumps([k, span[NAME], round(span[START], 7),
                                     round(span[END], 7), parent, span[OP],
                                     span[PASS]]) + "\n")

    def layer_metrics(self, passes):
        """Median over passes of each PER_LAYER metric (the lower median
        for counts, which stay whole)."""
        per_pass = [pass_metrics([s for s in self.spans if s[PASS] == p])
                    for p in range(passes)]
        out = {}
        for name, unit, _ in PER_LAYER:
            median = statistics.median_low if unit == "count" else statistics.median
            out[name] = {"value": median(m[name] for m in per_pass), "unit": unit}
        return out


def _has_ancestor(span, name):
    parent = span[PARENT]
    while parent is not None:
        if parent[NAME] == name:
            return True
        parent = parent[PARENT]
    return False


def _ratio(num, den):
    """A ratio with no base reads 0: the layer did no such work."""
    return num / den if den else 0.0


def pass_metrics(spans):
    """Per-layer metrics of one pass from its spans.

    .calls counts every span; .s sums spans not nested in a span of the
    same name (wall time spent inside the function); .self_s sums each
    span's duration minus the time covered by its child spans.
    """
    calls, total, self_time = {}, {}, {}
    for span in spans:
        name = span[NAME]
        duration = span[END] - span[START]
        calls[name] = calls.get(name, 0) + 1
        self_time[name] = self_time.get(name, 0.0) + duration - span[CHILD]
        if not _has_ancestor(span, name):
            total[name] = total.get(name, 0.0) + duration
    under_buchberger = [s for s in spans if s[NAME] == "poly.normal_form"
                        and _has_ancestor(s, "poly.buchberger")]
    ranks = [s for s in spans if s[NAME] == "bundle.restricted_rank"]
    candidates = sum(1 for s in spans if s[NAME] == "poly.substitute"
                     and s[PARENT] is not None
                     and s[PARENT][NAME] == "gz.euler_flag_relation")
    derived = {
        "poly.buchberger.useful_pair_ratio": _ratio(
            sum(1 for s in under_buchberger if s[EXTRA]), len(under_buchberger)),
        "bundle.rank_distinct_ratio": _ratio(
            len({(s[OP], s[EXTRA]) for s in ranks}), len(ranks)),
        "gz.rewrite_steps": sum(s[EXTRA] for s in spans if s[NAME] == "gz.canonicalize"),
        "gz.euler_flag_relation.sign_hit_ratio": _ratio(
            calls.get("gz.euler_flag_relation", 0), candidates),
    }
    out = {}
    for metric, _, _ in PER_LAYER:
        if metric in derived:
            out[metric] = derived[metric]
            continue
        name, kind = metric.rsplit(".", 1)
        if kind == "calls":
            out[metric] = calls.get(name, 0)
        elif kind == "s":
            out[metric] = total.get(name, 0.0)
        else:
            out[metric] = self_time.get(name, 0.0)
    return out
