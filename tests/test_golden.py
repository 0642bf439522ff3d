"""Golden answers of the bundle commands.

`analyze` and `ci-stability` run on fixed bundles, and their exit codes and
`results` are compared byte for byte with tests/golden/analyze.json.  A
change that alters an answer regenerates the file with

    PYTHONPATH=src python tests/test_golden.py

and names the answer that changed.
"""

import contextlib
import io
import json
import os
import tempfile

from tvbcox import cli
from tvbcox.bundle import (
    BundleData,
    example_514_bundle,
    kaneyama_bundle,
    tangent_bundle,
    uniform_sparse_bundle,
)
from tvbcox.linalg import IntMatrix, RatMatrix

GOLDEN = os.path.join(os.path.dirname(__file__), "golden", "analyze.json")


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
            RatMatrix.from_rows([[1, 1, 1]]),
            IntMatrix.from_rows([[0, 0, 0], [0, 0, 1]] + [[0, 0, 0]] * 6
                                + [[0, 1, 0], [1, 0, 0]]))),
        # the non-CI and infinite-stability bundles of test_bundle.py
        ("not-ci", BundleData(
            RatMatrix.from_rows([[1, 1, 1, 1], [1, 2, 3, 4]]),
            IntMatrix.from_rows([[0, 0, 1, 1], [1, 1, 0, 0]]))),
        ("one-ray", BundleData(
            RatMatrix.from_rows([[1, 1]]), IntMatrix.from_rows([[0, 1]]))),
    ]
    return bundles


def golden_text(directory):
    """Exit codes and results of both commands on every golden bundle."""
    answers = {}
    for name, b in golden_bundles():
        path = os.path.join(directory, f"{name}.json")
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(cli.serialize_bundle(b))
        for command in ("analyze", "ci-stability"):
            out = io.StringIO()
            with contextlib.redirect_stdout(out):
                code = cli.main([command, path])
            answers[f"{name} {command}"] = {
                "exit": code,
                "results": json.loads(out.getvalue())["results"],
            }
    return json.dumps(answers, indent=1) + "\n"


def test_bundle_commands_match_golden(tmp_path):
    with open(GOLDEN, encoding="utf-8") as fh:
        assert golden_text(str(tmp_path)) == fh.read()


if __name__ == "__main__":
    os.makedirs(os.path.dirname(GOLDEN), exist_ok=True)
    with tempfile.TemporaryDirectory() as tmp:
        text = golden_text(tmp)
    with open(GOLDEN, "w", encoding="utf-8") as fh:
        fh.write(text)
