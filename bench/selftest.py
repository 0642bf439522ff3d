"""Shows that each oracle accepts the program's answer and rejects a
perturbed one, and that the metric lists agree with BENCHMARK.json.

    python3 bench/selftest.py

Exits 0 when every case behaves, 1 otherwise.
"""

import copy
import json
import os
import sys
import tempfile

import bundles
import oracles
import tracing
from run import END_TO_END

BENCH = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH)


def analyze(cli, entry, workdir):
    report = os.path.join(workdir, "report.json")
    if cli.main(["analyze", entry["path"], "--report", report]) != 0:
        raise SystemExit(f"analyze failed on {entry['path']}")
    with open(report, encoding="utf-8") as fh:
        return json.load(fh)["results"]


def flip_one_sign(text):
    """Negate the second term of a text-form polynomial."""
    head, sep, tail = text.partition(" + ")
    if sep:
        return f"{head} - {tail}"
    head, sep, tail = text.partition(" - ")
    return f"{head} + {tail}"


def cases(workdir):
    from tvbcox import cli, cox, poly

    rng = bundles.random.Random(7)
    m, diagram, info = bundles.large_bundle(rng, "tangent", 7, 1)
    path = os.path.join(workdir, "tangent.json")
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(bundles.bundle_json(m, diagram, "tangent-7"))
    entry = dict(info, path=path, M=m, D=diagram)
    results = analyze(cli, entry, workdir)
    yield "stability as computed", oracles.check_analysis(entry, results), True
    for delta in (1, -1):
        bad = dict(results, ci_stability=results["ci_stability"] + delta)
        yield f"stability off by {delta:+d}", oracles.check_analysis(entry, bad), False

    spec = cox.tangent_cox_ideal(2, 2)
    order = poly.grevlex(spec.ring)
    names = list(spec.ring.names)
    texts = [poly.poly_to_text(g, order) for g in spec.gens]
    source, images, nt = oracles.phi_map(2)
    yield ("kernel generators as computed",
           oracles.vanishing_failures(texts, names, source, images, nt, "n = 2"), True)
    for k, text in enumerate(texts):
        bad = texts[:k] + [flip_one_sign(text)] + texts[k + 1:]
        yield (f"generator {k} with one sign flipped",
               oracles.vanishing_failures(bad, names, source, images, nt, "n = 2"), False)

    sweep = {"generators": 14, "confluence": {"words": 679, "confluent": True, "clashes": []}}
    yield "sweep as computed", oracles.check_sweep(3, 3, 0, sweep), True
    short = copy.deepcopy(sweep)
    short["confluence"]["words"] -= 1
    yield "sweep missing one word", oracles.check_sweep(3, 3, 0, short), False

    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    listed = [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]]
    yield ("per-layer metrics match BENCHMARK.json",
           [] if listed == tracing.PER_LAYER else ["per_layer differs"], True)
    listed = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    yield ("end-to-end metrics match BENCHMARK.json",
           [] if listed == END_TO_END else ["end_to_end differs"], True)


def main():
    sys.path.insert(0, os.path.join(ROOT, "src"))
    bad = 0
    with tempfile.TemporaryDirectory(dir=BENCH) as workdir:
        for label, fails, should_pass in cases(workdir):
            ok = (not fails) == should_pass
            bad += not ok
            verdict = "accepted" if not fails else "rejected"
            print(f"{'ok  ' if ok else 'FAIL'} {label}: {verdict}")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
