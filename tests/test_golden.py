"""Golden answers of the bundle commands and of the Groebner engine.

`analyze` and `ci-stability` run on fixed bundles, and their exit codes and
`results` are compared byte for byte with tests/golden/analyze.json.  The
reduced grevlex Groebner bases of ker(phi) at n = 2, 3, of its
delta-initial ideal at n = 2, of ker(psi) at n = 2, 3 and of the quiver
ideals at n = 2, 3, and the reduced bases of every lemma ideal at n = 2, 3
under the row-completing order, are compared, as `poly_to_text` lines in
the order of their basis, with tests/golden/gb.json; so is the one basis
each of the kernel proofs of flag_kernel(4) and tangent_kernel(5)
computes, as the sha256 of its lines.  The canonical word and
trace of every n = 3 word of length <= 3 and every n = 4 word of length
<= 2 that rewrites at all, the `results` of `gz verify --n 3` (with
the default and with 5 as the largest word length), of `gz verify --n 4`
and of README's `gz subduct` example, and the `poly_to_text` lines of
`relation_families(n)` and `flag_presentation(n)` (as lines at n = 2, 3,
as the sha256 of the lines at n = 4) are compared with
tests/golden/gz.json.  The
exit code and whole report, but its top-level `seconds`, of each fast README
command line and of `suite --level full` are compared with
tests/golden/cli.json; a timing inside `results` fails that comparison, and
every line of README's "Command line" block must be one of those command
lines once its optional `[--...]` groups are dropped.  A change that
alters an answer regenerates the four files with

    PYTHONPATH=src python tests/test_golden.py

and names the answer that changed.
"""

import contextlib
import hashlib
import io
import json
import os
import re
import shlex
import tempfile
from itertools import combinations, combinations_with_replacement

from tvbcox import cli, poly
from tvbcox.bundle import BundleData, example_514_bundle, tangent_bundle, uniform_sparse_bundle
from tvbcox.cox import (
    build_phi,
    delta_initial_ideal,
    lemma_ideal,
    quiver_ideal,
    row_completing_order,
    tangent_kernel,
)
from tvbcox.gz import (
    all_generators,
    build_psi,
    canonicalize,
    flag_kernel,
    flag_presentation,
    relation_families,
    word_to_text,
)
from tvbcox.poly import PolyRing, buchberger, grevlex, poly_to_text, ring_map_kernel
from oracles import kaneyama_bundle, placed_sparse_bundle, serialize_bundle

GOLDEN = os.path.join(os.path.dirname(__file__), "golden", "analyze.json")
GB_GOLDEN = os.path.join(os.path.dirname(__file__), "golden", "gb.json")
GZ_GOLDEN = os.path.join(os.path.dirname(__file__), "golden", "gz.json")
CLI_GOLDEN = os.path.join(os.path.dirname(__file__), "golden", "cli.json")
README = os.path.join(os.path.dirname(__file__), os.pardir, "README.md")

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

# S-polynomials each kernel elimination forms, and the one basis of each
# n >= 4 kernel proof.  The engine's pair selection and criteria decide
# these counts, so a change to either shows here even
# when the bases come out the same.  The kernels are eliminated here with
# ring_map_kernel, as a guard on the engine: verify_kernel and psi_kernel
# prove theirs by certificates and eliminate nothing.  The eliminations are
# indifferent to the order of pairs with equal lcms; the two tie witnesses
# are not, and form 7 and 11 when the pair queued first pops first.
S_POLYNOMIALS = {
    "ker phi 2": 76,
    "ker phi 3": 607,
    "ker psi 2": 18,
    "ker psi 3": 1155,
    "tie witness 1": 6,
    "tie witness 2": 9,
    "flag_kernel(4) psi leads": 352,
    "tangent_kernel(5) x0 last": 117,
}


def golden_bundles():
    bundles = [("example-5.14", example_514_bundle())]
    bundles += [(f"tangent-{n}", tangent_bundle(n)) for n in range(2, 7)]
    bundles += [
        ("uniform-sparse-2-6", uniform_sparse_bundle(2, 6)),
        ("uniform-sparse-3-8-placed", placed_sparse_bundle(
            3, 8, [(5, 2), (1, 1), (8, 3), None, (2, 1), (7, 2), (3, 1)])),
        ("uniform-sparse-2-10", uniform_sparse_bundle(2, 10)),
        ("uniform-sparse-4-10-placed", placed_sparse_bundle(
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
            fh.write(serialize_bundle(b))
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

    def counted(a, b, lcm):
        calls[0] += 1
        return original(a, b, lcm)

    poly._s_polynomial = counted
    try:
        yield calls
    finally:
        poly._s_polynomial = original


def gb_text(ideal, order=None):
    order = order or grevlex(ideal.ring)
    return [poly_to_text(g, order) for g in ideal.groebner(order)]


@contextlib.contextmanager
def recording_bases():
    """Record, in call order, each basis poly.buchberger computes inside
    the block, as (poly_to_text lines, S-polynomials formed)."""
    bases = []
    original = poly.buchberger

    def recorded(gens, order):
        with counting_s_polynomials() as calls:
            basis = original(gens, order)
        bases.append(([poly_to_text(g, order) for g in basis], calls[0]))
        return basis

    poly.buchberger = recorded
    try:
        yield bases
    finally:
        poly.buchberger = original


def proof_bases():
    """The one basis each of the kernel proofs of flag_kernel(4), under
    psi's lead order, and tangent_kernel(5), x_0 last, computes: the
    sha256 of its newline-joined poly_to_text lines, and the
    S-polynomials it forms."""
    texts, counts = {}, {}
    for key, proof in (("flag_kernel(4) psi leads", lambda: flag_kernel(4, build_psi(4))),
                       ("tangent_kernel(5) x0 last", lambda: tangent_kernel(5, build_phi(5, 5)))):
        with recording_bases() as bases:
            proof()
        ((lines, counts[key]),) = bases
        texts[key] = hashlib.sha256("\n".join(lines).encode()).hexdigest()
    return texts, counts


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
            (f"ker phi {n}", lambda: ring_map_kernel(build_phi(n, n))),
            (f"ker psi {n}", lambda: ring_map_kernel(build_psi(n))),
        ):
            with counting_s_polynomials() as calls:
                kernels[name] = kernel()
            counts[name] = calls[0]
    for name, gens in tie_witnesses().items():
        with counting_s_polynomials() as calls:
            buchberger(gens, grevlex(gens[0].ring))
        counts[name] = calls[0]
    ker_phi_2 = kernels["ker phi 2"]
    kernels["delta initial 2"] = delta_initial_ideal(ker_phi_2, [1] * ker_phi_2.ring.nvars)
    texts = {name: gb_text(kernels[name]) for name in kernels}
    for n in (2, 3):
        texts[f"quiver {n}"] = gb_text(quiver_ideal(n))
        for size in range(1, n + 1):
            for subset in combinations(range(1, n + 1), size):
                ideal, _ = lemma_ideal(n, subset)
                name = f"lemma {n} {{{','.join(map(str, subset))}}}"
                texts[name] = gb_text(ideal, row_completing_order(ideal.ring, n))
    proofs, proof_counts = proof_bases()
    texts.update(proofs)
    counts.update(proof_counts)
    texts = {name: texts[name] for name in sorted(texts)}
    return json.dumps(texts, indent=1) + "\n", counts


def relation_texts():
    """The poly_to_text lines of relation_families(n) and
    flag_presentation(n), in emitted order: the lines themselves at n = 2, 3
    and the sha256 of their newline-joined text at n = 4."""
    texts = {}
    for n in (2, 3, 4):
        psi = build_psi(n)
        for name, family in (("relation_families", relation_families),
                             ("flag_presentation", flag_presentation)):
            lines = [poly_to_text(r) for r in family(n, psi)]
            if n == 4:
                lines = hashlib.sha256("\n".join(lines).encode()).hexdigest()
            texts[f"{name}({n})"] = lines
    return texts


def gz_answers():
    """Canonical word and trace of each word that rewrites, n = 3 up to
    length 3 and n = 4 up to length 2, four gz command results and the
    relation texts."""
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
        "gz verify --n 3 --max-word-length 5": command_results(
            ["gz", "verify", "--n", "3", "--max-word-length", "5"])[1],
        "gz verify --n 4": command_results(["gz", "verify", "--n", "4"])[1],
        "gz subduct --n 3": command_results(
            ["gz", "subduct", "--n", "3", "--word1", "[-2],[{1,2},1]",
             "--word2", "[-1],[{1,2},2]"])[1],
        "relations": relation_texts(),
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


def readme_command_lines():
    """The `tvbcox` lines of README's "Command line" block, without the
    prefix, trailing `# comments` and optional `[--...]` groups."""
    with open(README, encoding="utf-8") as fh:
        text = fh.read()
    block = text.split("## Command line", 1)[1].split("```")[1]
    lines = []
    for line in block.splitlines():
        if not line.startswith("tvbcox "):
            continue
        line = re.sub(r"\s+#.*$", "", line)
        line = re.sub(r"\s*\[--[^\]]*\]", "", line)
        lines.append(line[len("tvbcox "):].strip())
    return lines


def test_readme_commands_are_covered():
    lines = readme_command_lines()
    assert lines
    for line in lines:
        assert line in README_COMMANDS, line


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
