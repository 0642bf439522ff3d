"""Named verification checks behind the `suite` command.

Each check returns a result dict or raises AssertionError with a reason;
the runner prints one line per check and reports the first failure.
"""

import time
from itertools import combinations, combinations_with_replacement

from . import bundle, cox, gz, poly, schur


def check_example_514(level):
    b = bundle.example_514_bundle()
    assert bundle.is_complete_intersection(b, 1), "CI fails at one summand"
    assert not bundle.is_complete_intersection(b, 2), "CI unexpectedly holds at two summands"
    stab, witness = bundle.ci_stability(b)
    assert stab == 1, f"stability {stab} != 1"
    assert witness[1] == (1, 2, 3), f"witness {witness}"
    return {"stability": stab, "witness": witness}


def check_tangent_stability(level):
    values = {}
    for n in range(2, 7):
        stab, _ = bundle.ci_stability(bundle.tangent_bundle(n))
        assert stab == n - 1, f"tangent({n}) stability {stab} != {n - 1}"
        values[n] = stab
    return {"stability": values}


def check_uniform_sparse_region(level):
    assert bundle.uniform_sparse_stability(4, 6) == 2
    agreements = 0
    for d in range(1, 4):
        for s in range(d + 2, 9):
            closed = bundle.uniform_sparse_stability(s - d, s)
            b = bundle.uniform_sparse_bundle(d, s)
            iterated, _ = bundle.ci_stability(b)
            assert closed == iterated, f"(d={d}, s={s}): closed {closed} != iterated {iterated}"
            agreements += 1
    return {"instances": agreements}


def check_kernel(level):
    report = cox.verify_kernel(2)
    assert report["equal"], "kernel does not match the claimed presentation"
    if level == "full":
        report = {"n2": report}
        for n in (3, 4):
            report[f"n{n}"] = cox.verify_kernel(n)
            assert report[f"n{n}"]["equal"], f"kernel mismatch at n = {n}"
    return report


def classical_generators(ring, w_sign):
    """The classical five generators at n = 2, with W scaled by w_sign."""
    x = [ring.var(cox.x_name(j)) for j in range(3)]
    y = [ring.var(cox.y_name(1, j)) for j in range(3)]
    z = [ring.var(cox.y_name(2, j)) for j in range(3)]
    w = w_sign * ring.var(cox.w_name())
    return [
        y[2] * z[1] - y[1] * z[2] - x[0] * w,
        y[2] * z[0] - y[0] * z[2] + x[1] * w,
        y[1] * z[0] - y[0] * z[1] - x[2] * w,
        x[0] * z[0] + x[1] * z[1] + x[2] * z[2],
        x[0] * y[0] + x[1] * y[1] + x[2] * y[2],
    ]


def check_classical_presentation(level):
    """The classical five-generator form at n = 2 agrees up to renaming and
    a sign flip on the degree-(3,2) generator."""
    spec = cox.tangent_cox_ideal(2, 2)
    classical = classical_generators(spec.ring, w_sign=-1)
    assert poly.ideal_equal(poly.Ideal(spec.ring, classical), spec.ideal()), (
        "classical generators with W negated do not match"
    )
    return {"w_sign": -1}


def check_lemma(level):
    sizes = (2, 3) if level == "full" else (2,)
    results = []
    for n in sizes:
        for size in range(1, n + 1):
            for subset in combinations(range(1, n + 1), size):
                rep = cox.verify_lemma(n, subset)
                assert rep["is_groebner_basis"], f"not a GB: n={n}, S={subset}"
                assert rep["dimension"] == rep["expected_dimension"], (
                    f"dimension {rep['dimension']} != {rep['expected_dimension']}"
                    f" at n={n}, S={subset}"
                )
                results.append((n, subset))
    return {"verified": len(results)}


def check_initial_ideal(level):
    reports = {}
    for n in (2, 3, 4) if level == "full" else (2,):
        rep = reports[f"n{n}"] = cox.initial_comparison(n)
        assert rep["equal"], f"delta-initial ideal does not match the quiver ideal at n = {n}"
        assert rep["dimension"] == rep["expected_dimension"], (
            f"dimension {rep['dimension']} != {rep['expected_dimension']} at n = {n}"
        )
    return reports if level == "full" else reports["n2"]


def check_pluecker(level):
    rep = cox.pluecker_match()
    assert rep["found"], "the substitution is not a signed bijection onto the quadrics"
    assert rep["ideal_equal"], "substituted ideal differs from the Plucker ideal"
    return rep


def check_cauchy(level):
    count = 0
    for d in range(0, 9):
        for e in range(1, 6):
            for v in range(1, 6):
                equal, lhs, rhs = schur.cauchy_verify(d, e, v)
                assert equal, f"Cauchy fails at d={d}, e={e}, v={v}: {lhs} != {rhs}"
                count += 1
    return {"instances": count}


def check_degrees(level):
    spec = cox.tangent_cox_ideal(2, 2)
    assert spec.degrees["W"] == (3, 2)
    assert spec.max_sym_degree() == 2
    only_w = [name for name, deg in spec.degrees.items() if deg[1] == 2]
    assert only_w == ["W"], f"Sym degree 2 carried by {only_w}"
    spec.check_bihomogeneous()
    w_taus = [deg for name, deg in cox.presentation_variables(3, 4) if name.startswith("W_")]
    assert w_taus == [(4, 3)] * 4, f"W_tau bidegrees at n = 3, m = 4: {w_taus}"
    for n in (2, 3):
        for m in range(1, n + 1):
            cox.tangent_cox_ideal(n, m).check_bihomogeneous()
    return {"w_degree": spec.degrees["W"], "max_sym_degree": spec.max_sym_degree()}


def gz_relation_check(n, psi):
    """Every emitted relation has image zero under the presentation map;
    returns the number of relations."""
    return len(gz.relation_families(n, psi))


def gz_verify(n, max_len):
    """Lead patterns of every generator, then the relation check, then the
    confluence sweep over words up to max_len, at one n.  The word and
    P-variable pair caps are checked before psi is built, n >= 2 before
    the caps."""
    if n < 2:
        raise ValueError("need n >= 2")
    gz.sweep_word_count(n, max_len)
    gz.plucker_pair_count(n)
    psi = gz.build_psi(n)
    gens = gz.all_generators(n)
    for gen in gens:
        gz.lead_pattern(gen, n, psi=psi)
    return {
        "n": n,
        "generators": len(gens),
        "relations": gz_relation_check(n, psi),
        "confluence": gz.confluence_sweep(n, max_len),
    }


def check_gz(level):
    ns = (2, 3) if level == "full" else (2,)
    report = {}
    for n in ns:
        verified = gz_verify(n, 3)
        sweep = verified["confluence"]
        assert sweep["confluent"], f"non-confluent at n={n}: {sweep['clashes'][:1]}"
        report[n] = {"relations": verified["relations"], "words": sweep["words"]}
    if level == "full":
        psi4 = gz.build_psi(4)
        for gen in gz.all_generators(4):
            gz.lead_pattern(gen, 4, psi=psi4)
        report["initial_terms_checked_to"] = 4
        # ker(psi) proved equal to the flag presentation: basis sizes
        report["psi_kernel_basis"] = {n: len(gz.psi_kernel(n).gens) for n in (3, 4)}
    # lift property at n = 2
    psi = gz.build_psi(2)
    kernel = gz.psi_kernel(2)
    order = poly.grevlex(psi.source)
    gb = kernel.groebner(order)
    lifted = 0
    for size in range(1, 4):
        for combo in combinations_with_replacement(gz.all_generators(2), size):
            _, steps = gz.canonicalize(combo, 2)
            for step in steps:
                result = gz.lift_step_check(step, 2, gb, order, psi)
                if step["rule"] == "marking-exchange":
                    assert result is True, f"step fails to lift: {step}"
                    lifted += 1
                else:
                    assert result is None
    report["lifted_steps"] = lifted
    return report


CHECKS = [
    ("example-5.14", check_example_514),
    ("tangent-stability", check_tangent_stability),
    ("uniform-sparse-region", check_uniform_sparse_region),
    ("kernel", check_kernel),
    ("classical-presentation", check_classical_presentation),
    ("groebner-lemma", check_lemma),
    ("initial-ideal", check_initial_ideal),
    ("pluecker-match", check_pluecker),
    ("cauchy", check_cauchy),
    ("degrees", check_degrees),
    ("gz-patterns", check_gz),
]


def _run_check(fn, level):
    start = time.monotonic()
    try:
        detail = fn(level)
        status = "PASS"
    except AssertionError as exc:
        detail = {"error": str(exc)}
        status = "FAIL"
    return status, detail, time.monotonic() - start


def run_suite(level, emit=print):
    """Run every check in declaration order."""
    if level not in ("fast", "full"):
        raise ValueError("level must be fast or full")
    results = []
    first_failure = None
    for name, fn in CHECKS:
        status, detail, elapsed = _run_check(fn, level)
        emit(f"{status} {name} ({elapsed:.2f}s)")
        if status == "FAIL" and first_failure is None:
            first_failure = (name, detail.get("error", ""))
        results.append({"check": name, "status": status, "detail": detail})
    return {
        "level": level,
        "passed": first_failure is None,
        "first_failure": first_failure,
        "checks": results,
    }
