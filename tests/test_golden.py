"""Golden answers of the bundle commands and of the Groebner engine.

`analyze` and `ci-stability` run on fixed bundles, and their exit codes and
`results` are compared byte for byte with tests/golden/analyze.json.  The
reduced grevlex Groebner bases of ker(phi) at n = 2, 3, of its
delta-initial ideal at n = 2, of ker(psi) at n = 2, 3 and of the quiver
ideals at n = 2, 3, and the reduced bases of every lemma ideal at n = 2, 3
under the row-completing order, are compared, as `poly_to_text` lines in
the order of their basis, with tests/golden/gb.json.  The canonical word and
trace of every n = 3 word of length <= 3 and every n = 4 word of length
<= 2 that rewrites at all, and the `results` of `gz verify --n 3` and of
README's `gz subduct` example, are compared with tests/golden/gz.json.  The
exit code and whole report, but its top-level `seconds`, of each fast README
command line and of `suite --level full` are compared with
tests/golden/cli.json; a timing inside `results` fails that comparison.  A
change that alters an answer regenerates the four files with

    PYTHONPATH=src python tests/test_golden.py

and names the answer that changed.
"""

import contextlib
import io
import json
import os
import shlex
import tempfile
from itertools import combinations, combinations_with_replacement

from tvbcox import cli, poly
from tvbcox.bundle import (
    BundleData,
    example_514_bundle,
    kaneyama_bundle,
    tangent_bundle,
    uniform_sparse_bundle,
)
from tvbcox.cox import (
    delta_initial_ideal,
    lemma_ideal,
    quiver_ideal,
    row_completing_order,
    tangent_cox_ideal,
)
from tvbcox.gz import all_generators, canonicalize, psi_kernel, word_to_text
from tvbcox.poly import PolyRing, buchberger, grevlex, poly_to_text, ring_map_kernel

GOLDEN = os.path.join(os.path.dirname(__file__), "golden", "analyze.json")
GB_GOLDEN = os.path.join(os.path.dirname(__file__), "golden", "gb.json")
GZ_GOLDEN = os.path.join(os.path.dirname(__file__), "golden", "gz.json")
CLI_GOLDEN = os.path.join(os.path.dirname(__file__), "golden", "cli.json")

# README's example bundle file and command lines.  Each runs with --report
# (region and cauchy write a report only then); the full suite is compared
# by tests/test_suite.py, which runs it anyway.
README_BUNDLE = """{
  "n": 3,
  "s": 6,
  "M": [["1", "1", "1", "1", "1", "1"]],
  "D": [[4, 0, 0, 1, 3, 2], [0, 4, 0, 2, 1, 3], [0, 0, 4, 3, 2, 1]],
  "label": "rank-5 over the plane"
}
"""
README_COMMANDS = [
    "analyze bundle.json",
    "ci-stability bundle.json",
    "region --r-max 8 --s-max 10",
    "cox tangent --n 2 --m 2",
    "cox tangent --n 2 --m 2 --verify-kernel",
    "cox tangent --n 2 --m 2 --emit gb",
    "cox quiver --n 2",
    "cox lemma-js --n 3 --set 1,2",
    "cox pluecker-match",
    "cauchy --dim-e 3 --dim-v 2 --max-degree 6",
    "gz verify --n 3",
    'gz subduct --n 3 --word1 "[-2],[{1,2},1]" --word2 "[-1],[{1,2},2]"',
    "suite --level fast",
]
SUITE_FULL = "suite --level full"

# S-polynomials each kernel elimination forms.  The engine's pair selection
# and criteria decide these counts, so a change to either shows here even
# when the bases come out the same.  (verify_kernel(3) forms 641: these 607
# and 34 more for the two grevlex bases of its equality check.)  The
# eliminations are indifferent to the order of pairs with equal lcms; the
# two tie witnesses are not, and form 7 and 11 when the pair queued first
# pops first.
S_POLYNOMIALS = {
    "ker phi 2": 76,
    "ker phi 3": 607,
    "ker psi 2": 18,
    "ker psi 3": 1155,
    "tie witness 1": 6,
    "tie witness 2": 9,
}


def golden_bundles():
    bundles = [("example-5.14", example_514_bundle())]
    bundles += [(f"tangent-{n}", tangent_bundle(n)) for n in range(2, 7)]
    bundles += [
        ("uniform-sparse-2-6", uniform_sparse_bundle(2, 6)),
        ("uniform-sparse-3-8-placed", uniform_sparse_bundle(
            3, 8, [(5, 2), (1, 1), (8, 3), None, (2, 1), (7, 2), (3, 1)])),
        ("uniform-sparse-2-10", uniform_sparse_bundle(2, 10)),
        ("uniform-sparse-4-10-placed", uniform_sparse_bundle(
            4, 10, [(c, 1 + c % 3) for c in (10, 3, 7, 1, 9, 2, 5, 8, 4)] + [None])),
        ("kaneyama-1-2-3-4", kaneyama_bundle([1, 2, 3, 4])),
        # tangent(P^2) on rays 2, 9, 10 among zero rays: the witness i is the
        # first of {2, 9, 10} in frozenset order, 9, not the smallest
        ("tangent-2-among-zero-rays", BundleData(
            [[1, 1, 1]],
            [[0, 0, 0], [0, 0, 1]] + [[0, 0, 0]] * 6 + [[0, 1, 0], [1, 0, 0]])),
        # the non-CI and infinite-stability bundles of test_bundle.py
        ("not-ci", BundleData(
            [[1, 1, 1, 1], [1, 2, 3, 4]], [[0, 0, 1, 1], [1, 1, 0, 0]])),
        ("one-ray", BundleData([[1, 1]], [[0, 1]])),
    ]
    return bundles


def command_results(argv):
    """Exit code and `results` of one command."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = cli.main(argv)
    return code, json.loads(out.getvalue())["results"]


def golden_text(directory):
    """Exit codes and results of both commands on every golden bundle."""
    answers = {}
    for name, b in golden_bundles():
        path = os.path.join(directory, f"{name}.json")
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(cli.serialize_bundle(b))
        for command in ("analyze", "ci-stability"):
            code, results = command_results([command, path])
            answers[f"{name} {command}"] = {"exit": code, "results": results}
    return json.dumps(answers, indent=1) + "\n"


def cli_entry(line, directory):
    """Exit code and report, without its top-level `seconds`, of one
    command line run in directory with --report."""
    with open(os.path.join(directory, "bundle.json"), "w", encoding="utf-8") as fh:
        fh.write(README_BUNDLE)
    path = os.path.join(directory, "report.json")
    argv = [os.path.join(directory, a) if a == "bundle.json" else a for a in shlex.split(line)]
    with contextlib.redirect_stdout(io.StringIO()):
        code = cli.main(argv + ["--report", path])
    with open(path, encoding="utf-8") as fh:
        report = json.load(fh)
    del report["seconds"]
    return {"exit": code, "report": report}


def golden_cli(lines):
    with open(CLI_GOLDEN, encoding="utf-8") as fh:
        golden = json.load(fh)
    return json.dumps({line: golden[line] for line in lines}, indent=1)


def cli_text(directory, lines):
    return json.dumps({line: cli_entry(line, directory) for line in lines}, indent=1)


@contextlib.contextmanager
def counting_s_polynomials():
    """Count the calls of poly._s_polynomial inside the block."""
    calls = [0]
    original = poly._s_polynomial

    def counted(a, b):
        calls[0] += 1
        return original(a, b)

    poly._s_polynomial = counted
    try:
        yield calls
    finally:
        poly._s_polynomial = original


def gb_text(ideal, order=None):
    order = order or grevlex(ideal.ring)
    return [poly_to_text(g, order) for g in ideal.groebner(order)]


def tie_witnesses():
    """Small inhomogeneous systems whose pair queues meet equal lcms."""
    ring = PolyRing(["x", "y", "z"])
    x, y, z = ring.gens()
    return {
        "tie witness 1": [x - x**2 - y, y * z - x, x * y - x, x * z + x],
        "tie witness 2": [z**2 - 2 * y**2, z - y * z, y - x * z, y**2 + y * z - x * y],
    }


def engine_answers():
    """Reduced grevlex GB text of each golden ideal, and the S-polynomials
    formed by each kernel elimination; every ideal is computed once."""
    kernels, counts = {}, {}
    for n in (2, 3):
        for name, kernel in (
            (f"ker phi {n}", lambda: ring_map_kernel(tangent_cox_ideal(n, n).phi)),
            (f"ker psi {n}", lambda: psi_kernel(n)),
        ):
            with counting_s_polynomials() as calls:
                kernels[name] = kernel()
            counts[name] = calls[0]
    for name, gens in tie_witnesses().items():
        with counting_s_polynomials() as calls:
            buchberger(gens, grevlex(gens[0].ring))
        counts[name] = calls[0]
    kernels["delta initial 2"] = delta_initial_ideal(kernels["ker phi 2"])
    texts = {name: gb_text(kernels[name]) for name in kernels}
    for n in (2, 3):
        texts[f"quiver {n}"] = gb_text(quiver_ideal(n))
        for size in range(1, n + 1):
            for subset in combinations(range(1, n + 1), size):
                ideal, _ = lemma_ideal(n, subset)
                name = f"lemma {n} {{{','.join(map(str, subset))}}}"
                texts[name] = gb_text(ideal, row_completing_order(ideal.ring, n))
    texts = {name: texts[name] for name in sorted(texts)}
    return json.dumps(texts, indent=1) + "\n", counts


def gz_answers():
    """Canonical word and trace of each word that rewrites, n = 3 up to
    length 3 and n = 4 up to length 2, and two gz command results."""
    traces = {}
    for n, max_len in ((3, 3), (4, 2)):
        for size in range(1, max_len + 1):
            for word in combinations_with_replacement(all_generators(n), size):
                canon, steps = canonicalize(word, n)
                if steps:
                    traces[f"n={n} {word_to_text(word)}"] = {
                        "canonical": word_to_text(canon),
                        "trace": steps,
                    }
    answers = {
        "traces": traces,
        "gz verify --n 3": command_results(["gz", "verify", "--n", "3"])[1],
        "gz subduct --n 3": command_results(
            ["gz", "subduct", "--n", "3", "--word1", "[-2],[{1,2},1]",
             "--word2", "[-1],[{1,2},2]"])[1],
    }
    return json.dumps(answers, indent=1) + "\n"


def test_bundle_commands_match_golden(tmp_path):
    with open(GOLDEN, encoding="utf-8") as fh:
        assert golden_text(str(tmp_path)) == fh.read()


def test_engine_bases_and_pair_counts_match_golden():
    text, counts = engine_answers()
    with open(GB_GOLDEN, encoding="utf-8") as fh:
        assert text == fh.read()
    assert counts == S_POLYNOMIALS


def test_gz_traces_and_commands_match_golden():
    with open(GZ_GOLDEN, encoding="utf-8") as fh:
        assert gz_answers() == fh.read()


def test_cli_reports_match_golden(tmp_path):
    assert cli_text(str(tmp_path), README_COMMANDS) == golden_cli(README_COMMANDS)


if __name__ == "__main__":
    os.makedirs(os.path.dirname(GOLDEN), exist_ok=True)
    with tempfile.TemporaryDirectory() as tmp:
        text = golden_text(tmp)
    with open(GOLDEN, "w", encoding="utf-8") as fh:
        fh.write(text)
    with open(GB_GOLDEN, "w", encoding="utf-8") as fh:
        fh.write(engine_answers()[0])
    with open(GZ_GOLDEN, "w", encoding="utf-8") as fh:
        fh.write(gz_answers())
    with tempfile.TemporaryDirectory() as tmp:
        text = cli_text(tmp, README_COMMANDS + [SUITE_FULL])
    with open(CLI_GOLDEN, "w", encoding="utf-8") as fh:
        fh.write(text + "\n")
