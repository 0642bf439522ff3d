"""Command-line interface: analyze, region, cox, cauchy, gz, suite.

Each cmd_* returns (inputs text, results, exit code), results None when no
report is due; `main` times the command and writes its report.  Exit codes:
0 success, 1 check failure, 2 usage or parse error, 3 cap exceeded.
"""

import argparse
import functools
import hashlib
import json
import math
import sys
import time

from . import __version__, bundle, cox, gz, poly, schur, suite
from .linalg import is_int_literal, parse_rational

EXIT_OK = 0
EXIT_CHECK_FAILED = 1
EXIT_USAGE = 2
EXIT_CAP = 3


class InputError(ValueError):
    pass


def integer(text):
    """An integer option or --set item: ASCII digits under an optional
    sign, the rule of bundle-file rationals; int() would also read other
    scripts' digits and "1_0"."""
    if not is_int_literal(text):
        raise InputError(f"not an integer: {text!r}")
    return int(text)


def parse_bundle_file(text):
    try:
        data = json.loads(text)
    except json.JSONDecodeError as exc:
        raise InputError(f"line {exc.lineno}, column {exc.colno}: {exc.msg}")
    if not isinstance(data, dict):
        raise InputError("the bundle file must be a JSON object")
    for key in ("n", "s", "M", "D"):
        if key not in data:
            raise InputError(f"missing field {key!r}")
    n, s = data["n"], data["s"]
    for key, value in (("n", n), ("s", s)):
        if isinstance(value, bool) or not isinstance(value, int):
            raise InputError(f"declared {key} {json.dumps(value)} is not an integer")
    for key in ("M", "D"):
        rows = data[key]
        if not isinstance(rows, list) or not all(isinstance(row, list) for row in rows):
            raise InputError(f"{key} must be an array of rows, each a JSON array")
        for row in rows:
            if len(row) != s:
                raise InputError(f"{key} row of length {len(row)}, declared s = {s}")
    if len(data["D"]) != n:
        raise InputError(f"D has {len(data['D'])} rows, declared n = {n}")
    try:
        m = [[parse_rational(str(x)) for x in row] for row in data["M"]]
        return bundle.BundleData(m, data["D"], label=data.get("label"))
    except ValueError as exc:
        raise InputError(str(exc))


def load_bundle(path):
    try:
        with open(path, encoding="utf-8") as fh:
            text = fh.read()
    except OSError as exc:
        raise InputError(str(exc)) from exc
    return parse_bundle_file(text), text


def write_file(path, text):
    """Write text to a file the user named: an OSError there (a directory,
    a missing parent, no permission) is an input error."""
    try:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)
    except OSError as exc:
        raise InputError(str(exc)) from exc


def make_report(command, inputs_text, results, started):
    return {
        "command": command,
        "inputs_hash": hashlib.sha256(inputs_text.encode()).hexdigest(),
        "results": _plain(results),
        "seconds": round(time.monotonic() - started, 3),
        "version": __version__,
    }


def _plain(value):
    """JSON-friendly copy of a result structure: string keys, lists for
    tuples, "infinity" for math.inf and text for anything else not JSON."""
    if isinstance(value, dict):
        return {str(k): _plain(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_plain(v) for v in value]
    if value is math.inf:
        return "infinity"
    if isinstance(value, (int, float, str, bool)) or value is None:
        return value
    return str(value)


def emit_report(report, path=None):
    text = json.dumps(report, indent=2, sort_keys=False) + "\n"
    if path:
        write_file(path, text)
    else:
        sys.stdout.write(text)


def _stability(b):
    """The ci-stability results, or None when b is not a complete intersection.
    One CI profile serves both: ci_stability tests l = 1 before anything else."""
    try:
        stab, witness = bundle.ci_stability(b)
    except bundle.NotCompleteIntersection:
        return None
    return {
        "ci_stability": stab,
        "witness": {"i": witness[0], "A": list(witness[1])} if witness else None,
    }


def cmd_analyze(args):
    b, text = load_bundle(args.path)
    results = {"label": b.label, "n": b.n, "s": b.s, "d": b.d, "rank": b.rank}
    results["class"] = bundle.classify(b)._asdict()
    stability = _stability(b)
    results["complete_intersection"] = stability is not None
    if stability is not None:
        results["ci_stability"] = stability["ci_stability"]
        results["ci_stability_methods"] = "iterative and closed form agree"
        if stability["witness"]:
            results["witness"] = stability["witness"]
    return text, results, EXIT_OK


def cmd_ci_stability(args):
    b, text = load_bundle(args.path)
    results = _stability(b)
    failed = {"complete_intersection": False}
    return text, results or failed, EXIT_OK if results else EXIT_CHECK_FAILED


def cmd_region(args):
    rows, lines = bundle.region_table(args.r_max, args.s_max)
    csv_text = bundle.region_csv(rows)
    if args.csv:
        write_file(args.csv, csv_text)
    else:
        sys.stdout.write(csv_text)
    if args.svg:
        write_file(args.svg, bundle.region_svg(rows, lines))
    results = None
    if args.report:
        results = {
            "rows": rows,
            "boundary_lines": [
                {"l": ell, "slope": sl, "intercept": ic} for ell, sl, ic in lines
            ],
        }
    return f"{args.r_max},{args.s_max}", results, EXIT_OK


def cmd_cox_tangent(args):
    if args.verify_kernel and args.m != args.n:
        raise InputError(
            f"--verify-kernel checks the m = n presentation only, got n = {args.n}, m = {args.m}"
        )
    ideal = cox.tangent_cox_ideal(args.n, args.m)
    # the proof checks its cap before the basis below is computed
    kernel = cox.verify_kernel(args.n, allow_large=args.allow_large) if args.verify_kernel else None
    results = {
        "n": args.n,
        "m": args.m,
        "variables": list(ideal.ring.names),
        "bidegrees": cox.bidegrees(args.n, args.m, ideal.gens),
    }
    order = poly.grevlex(ideal.ring)
    # each option that changes results joins the inputs only when given
    inputs = f"{args.n},{args.m}"
    if args.emit == "gb":
        inputs += ",--emit gb"
        gens = ideal.groebner(order)
    else:
        gens = ideal.gens
    results["generators"] = [poly.poly_to_text(g, order) for g in gens]
    if kernel is not None:
        inputs += ",--verify-kernel"
        results["kernel"] = kernel
        if not kernel["equal"]:
            return inputs, results, EXIT_CHECK_FAILED
    return inputs, results, EXIT_OK


def cmd_cox_quiver(args):
    ideal = cox.quiver_ideal(args.n)
    order = poly.grevlex(ideal.ring)
    results = {
        "n": args.n,
        "generators": [poly.poly_to_text(g, order) for g in ideal.gens],
    }
    return str(args.n), results, EXIT_OK


def cmd_cox_lemma(args):
    subset = [integer(x) for x in args.set.split(",") if x.strip()]
    results = cox.verify_lemma(args.n, subset)
    ok = results["is_groebner_basis"] and results["dimension"] == results["expected_dimension"]
    return f"{args.n},{subset}", results, EXIT_OK if ok else EXIT_CHECK_FAILED


def cmd_cox_pluecker(args):
    results = cox.pluecker_match()
    ok = results["found"] and results["ideal_equal"]
    return "", results, EXIT_OK if ok else EXIT_CHECK_FAILED


def cmd_cauchy(args):
    rows = schur.cauchy_table(args.max_degree, args.dim_e, args.dim_v)
    lines = ["d,lhs,rhs,equal"]
    for d, lhs, rhs, equal in rows:
        lines.append(f"{d},{lhs},{rhs},{str(equal).lower()}")
    sys.stdout.write("\n".join(lines) + "\n")
    results = {"rows": rows} if args.report else None
    code = EXIT_OK if all(r[3] for r in rows) else EXIT_CHECK_FAILED
    return f"{args.dim_e},{args.dim_v},{args.max_degree}", results, code


def cmd_gz_verify(args):
    results = suite.gz_verify(args.n, args.max_word_length)
    code = EXIT_OK if results["confluence"]["confluent"] else EXIT_CHECK_FAILED
    return f"{args.n},{args.max_word_length}", results, code


def cmd_gz_subduct(args):
    word1 = gz.parse_word(args.word1)
    word2 = gz.parse_word(args.word2)
    try:
        results = gz.subduct(word1, word2, args.n)
    except gz.SubductionError as exc:
        raise InputError(str(exc))
    code = EXIT_OK if results["success"] else EXIT_CHECK_FAILED
    return f"{args.n}|{args.word1}|{args.word2}", results, code


def cmd_suite(args):
    results = suite.run_suite(args.level)
    report = results if args.report else None
    if results["passed"]:
        return args.level, report, EXIT_OK
    name, reason = results["first_failure"]
    print(f"first failing check: {name}: {reason}", file=sys.stderr)
    return args.level, report, EXIT_CHECK_FAILED


@functools.cache
def build_parser():
    """Built on the first main call and reused: parse_args keeps no state."""
    parser = argparse.ArgumentParser(
        prog="tvbcox",
        description="Exact toolkit for toric vector bundles given by (M, D) data",
    )
    parser.add_argument("--version", action="version", version=f"tvbcox {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)
    # every leaf command takes --report; the cox and gz groups do not
    report = argparse.ArgumentParser(add_help=False)
    report.add_argument("--report", help="write the JSON report here instead of stdout")

    p = sub.add_parser("analyze", help="classify a bundle file and compute CI-stability", parents=[report])
    p.add_argument("path")
    p.set_defaults(fn=cmd_analyze, name="analyze")

    p = sub.add_parser("ci-stability", help="CI-stability of a bundle file", parents=[report])
    p.add_argument("path")
    p.set_defaults(fn=cmd_ci_stability, name="ci-stability")

    p = sub.add_parser("region", help="stability table of sparse uniform bundles", parents=[report])
    p.add_argument("--r-max", type=integer, required=True)
    p.add_argument("--s-max", type=integer, required=True)
    p.add_argument("--csv", help="write the CSV here instead of stdout")
    p.add_argument("--svg", help="also write an SVG scatter")
    p.set_defaults(fn=cmd_region, name="region")

    p_cox = sub.add_parser("cox", help="tangent-bundle presentations and checks")
    cox_sub = p_cox.add_subparsers(dest="cox_command", required=True)

    p = cox_sub.add_parser("tangent", help="presentation of P(T_n tensor K^m)", parents=[report])
    p.add_argument("--n", type=integer, required=True)
    p.add_argument("--m", type=integer, required=True)
    p.add_argument("--verify-kernel", action="store_true", help="prove the kernel equality (m = n only)")
    p.add_argument("--allow-large", action="store_true", help="enable kernel verification for n >= 5")
    p.add_argument("--emit", choices=["generators", "gb"], default="generators")
    p.set_defaults(fn=cmd_cox_tangent, name="cox tangent")

    p = cox_sub.add_parser("quiver", help="Euler relations plus maximal minors", parents=[report])
    p.add_argument("--n", type=integer, required=True)
    p.set_defaults(fn=cmd_cox_quiver, name="cox quiver")

    p = cox_sub.add_parser("lemma-js", help="row-sum/minors Groebner and dimension check", parents=[report])
    p.add_argument("--n", type=integer, required=True)
    p.add_argument("--set", required=True, help="comma separated column subset, e.g. 1,2")
    p.set_defaults(fn=cmd_cox_lemma, name="cox lemma-js")

    p = cox_sub.add_parser("pluecker-match", help="check the written-out signed substitution onto the Gr(2,5) quadrics", parents=[report])
    p.set_defaults(fn=cmd_cox_pluecker, name="cox pluecker-match")

    p = sub.add_parser("cauchy", help="Cauchy identity table", parents=[report])
    p.add_argument("--dim-e", type=integer, required=True)
    p.add_argument("--dim-v", type=integer, required=True)
    p.add_argument("--max-degree", type=integer, required=True)
    p.set_defaults(fn=cmd_cauchy, name="cauchy")

    p_gz = sub.add_parser("gz", help="pattern semigroup checks and subduction")
    gz_sub = p_gz.add_subparsers(dest="gz_command", required=True)

    p = gz_sub.add_parser("verify", help="patterns, relations, confluence at one n", parents=[report])
    p.add_argument("--n", type=integer, required=True)
    p.add_argument("--max-word-length", type=integer, default=3)
    p.set_defaults(fn=cmd_gz_verify, name="gz verify")

    p = gz_sub.add_parser("subduct", help="rewrite two words to canonical form", parents=[report])
    p.add_argument("--n", type=integer, required=True)
    p.add_argument("--word1", required=True, help='bracket syntax, e.g. "[-2],[{1,3},0]"')
    p.add_argument("--word2", required=True)
    p.set_defaults(fn=cmd_gz_subduct, name="gz subduct")

    p = sub.add_parser("suite", help="run the verification suite", parents=[report])
    p.add_argument("--level", choices=["fast", "full"], default="fast")
    p.set_defaults(fn=cmd_suite, name="suite")

    return parser


def main(argv=None):
    args = build_parser().parse_args(argv)
    started = time.monotonic()
    try:
        inputs_text, results, code = args.fn(args)
        if results is not None:
            emit_report(make_report(args.name, inputs_text, results, started), args.report)
        return code
    except poly.CapExceeded as exc:
        print(f"cap exceeded: {exc}", file=sys.stderr)
        return EXIT_CAP
    except (InputError, ValueError) as exc:
        print(f"input error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
