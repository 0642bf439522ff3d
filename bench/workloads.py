"""The three workloads: their set-up, their operations and their checks.

An operation is a fixed call into tvbcox.  Its `run` is timed; its
`collect` turns the raw result into plain data after the clock stops.
`check` runs once all passes are over: it requires every pass to give the
same outputs, then holds the first pass against the oracles.
"""

import json
import os
import random
from itertools import combinations_with_replacement

import bundles
import oracles


class Op:
    __slots__ = ("label", "heavy", "run", "collect")

    def __init__(self, label, heavy, run, collect):
        self.label = label
        self.heavy = heavy  # part of the workload's heavy tier
        self.run = run
        self.collect = collect


def read_report(path):
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)["results"]


def cli_op(prog, label, heavy, argv, report):
    """cli.main in-process; the output is (exit code, report results)."""
    return Op(label, heavy, lambda: prog.cli.main(argv + ["--report", report]),
              lambda rc: (rc, read_report(report)))


def _outputs_agree(passes):
    first = [r.output for r in passes[0]]
    for k, records in enumerate(passes[1:], start=2):
        for rec, out in zip(records, first):
            if rec.ok and rec.output != out:
                return [f"pass {k} gives another answer for {rec.label}"]
    return []


def _texts(prog, polys, ring):
    order = prog.poly.grevlex(ring)
    return [prog.poly.poly_to_text(g, order) for g in polys]


# ---------------------------------------------------------------------------


class CoxKernel:
    """Kernel eliminations: verify_kernel(2), verify_kernel(3),
    initial_comparison(2) and psi_kernel(3).  The inputs are fixed; the
    seed is not used."""

    name = "cox-kernel"

    def setup(self, prog, seed, workdir):
        return None

    def operations(self, prog, inputs):
        cox, gz = prog.cox, prog.gz

        def kernel_report(report):
            return {k: v for k, v in report.items() if not k.startswith("seconds")}

        def ideal_texts(ideal):
            return list(ideal.ring.names), _texts(prog, ideal.gens, ideal.ring)

        return [
            Op("verify_kernel(2)", False, lambda: cox.verify_kernel(2), kernel_report),
            Op("verify_kernel(3)", True,
               lambda: cox.verify_kernel(3, allow_large=True), kernel_report),
            Op("initial_comparison(2)", False, lambda: cox.initial_comparison(2), dict),
            Op("psi_kernel(3)", True, lambda: gz.psi_kernel(3), ideal_texts),
        ]

    def check(self, prog, inputs, passes):
        fails = _outputs_agree(passes)
        out = {r.label: r.output for r in passes[0] if r.ok}
        claimed = {}
        for n in (2, 3):
            spec = prog.cox.tangent_cox_ideal(n, n)
            claimed[n] = (list(spec.ring.names), _texts(prog, spec.gens, spec.ring))
        for n in (2, 3):
            label = f"verify_kernel({n})"
            if label in out:
                names = claimed[n][0]
                fails += oracles.check_kernel_report(n, out[label], claimed[n][1], names)
        if "initial_comparison(2)" in out:
            fails += oracles.check_initial_report(
                2, out["initial_comparison(2)"], claimed[2][1], claimed[2][0])
        if "psi_kernel(3)" in out:
            names, kernel = out["psi_kernel(3)"]
            psi = prog.gz.build_psi(3)
            relations = _texts(prog, prog.gz.relation_families(3, psi), psi.source)
            fails += oracles.check_psi_kernel(3, names, kernel, relations)
        return fails

    @staticmethod
    def figures_of(passes, quantile, median):
        def op_time(label):
            return median([r.seconds for records in passes for r in records if r.label == label])

        return {"verify_kernel_n3_s": op_time("verify_kernel(3)"),
                "psi_kernel_n3_s": op_time("psi_kernel(3)")}


class BundleAnalyze:
    """`tvbcox analyze` on a seeded batch of bundle files."""

    name = "bundle-analyze"

    def setup(self, prog, seed, workdir):
        reports = os.path.join(workdir, "reports")
        os.makedirs(reports, exist_ok=True)
        return {"bundles": bundles.generate(seed, os.path.join(workdir, "bundles")),
                "reports": reports}

    def operations(self, prog, inputs):
        ops = []
        for k, entry in enumerate(inputs["bundles"]):
            report = os.path.join(inputs["reports"], f"report{k:03d}.json")
            ops.append(cli_op(prog, os.path.basename(entry["path"]),
                              entry["tier"] == "large",
                              ["analyze", entry["path"]], report))
        return ops

    def check(self, prog, inputs, passes):
        fails = _outputs_agree(passes)
        for entry, rec in zip(inputs["bundles"], passes[0]):
            if rec.ok:
                fails += oracles.check_analysis(entry, rec.output[1])
        return fails

    @staticmethod
    def figures_of(passes, quantile, median):
        times = [median(r.seconds for r in same) for same in zip(*passes)]
        large = [sum(r.seconds for r in records if r.heavy) for records in passes]
        return {"analyze_p50_s": quantile(times, 0.5), "analyze_p90_s": quantile(times, 0.9),
                "analyze_large_s": median(large)}


class GzSubduction:
    """Gelfand-Tsetlin rewriting: `gz verify` at n = 3 (words up to length
    5) and n = 4, and the lift check over all words of length <= 3 at
    n = 2.  The inputs are fixed; the seed only picks the sample of
    canonical words whose idempotence is checked."""

    name = "gz-subduction"
    SWEEPS = [(3, 5), (4, 3)]

    def setup(self, prog, seed, workdir):
        return {"seed": seed, "workdir": workdir}

    @staticmethod
    def sweep_argv(n, max_len):
        argv = ["gz", "verify", "--n", str(n)]
        return argv + ["--max-word-length", str(max_len)] if max_len != 3 else argv

    def operations(self, prog, inputs):
        ops = []
        for n, max_len in self.SWEEPS:
            argv = self.sweep_argv(n, max_len)
            report = os.path.join(inputs["workdir"], f"gz-verify-{n}.json")
            ops.append(cli_op(prog, " ".join(argv), True, argv, report))
        ops.append(Op("lift_step_check n=2", False, lambda: self.lift_steps(prog), list))
        return ops

    @staticmethod
    def lift_steps(prog):
        gz, poly = prog.gz, prog.poly
        psi = gz.build_psi(2)
        order = poly.grevlex(psi.source)
        basis = gz.psi_kernel(2).groebner(order)
        out = []
        for size in range(1, 4):
            for word in combinations_with_replacement(gz.all_generators(2), size):
                _, steps = gz.canonicalize(word, 2)
                for step in steps:
                    result = gz.lift_step_check(step, 2, basis, order, psi)
                    out.append((gz.word_to_text(word), step["rule"], step["removed"],
                                step["added"], result))
        return out

    def check(self, prog, inputs, passes):
        fails = _outputs_agree(passes)
        out = {r.label: r.output for r in passes[0] if r.ok}
        for n, max_len in self.SWEEPS:
            label = " ".join(self.sweep_argv(n, max_len))
            if label in out:
                fails += oracles.check_sweep(n, max_len, *out[label])
        if "lift_step_check n=2" in out:
            fails += oracles.check_lift(out["lift_step_check n=2"])
        fails += self.idempotence(prog, inputs["seed"])
        return fails

    @staticmethod
    def idempotence(prog, seed, sample=300):
        """canonicalize maps each canonical word to itself with no steps."""
        gz = prog.gz
        rng = random.Random(seed)
        fails = []
        for n in (3, 4):
            gens = gz.all_generators(n)
            for _ in range(sample):
                word = tuple(rng.choice(gens) for _ in range(rng.randint(1, 4)))
                canon, _ = gz.canonicalize(word, n)
                again, steps = gz.canonicalize(canon, n)
                if again != canon or steps:
                    fails.append(f"canonicalize is not idempotent on {gz.word_to_text(canon)}")
        return fails

    @staticmethod
    def figures_of(passes, quantile, median):
        words = sum(oracles.sweep_word_count(n, m) for n, m in GzSubduction.SWEEPS)
        return {"words_per_s": median(
            [words / sum(r.seconds for r in records if r.heavy) for records in passes])}


WORKLOADS = {w.name: w for w in (CoxKernel(), BundleAnalyze(), GzSubduction())}
