"""Acceptance criteria, one test per criterion, each with a printed verdict
and the stated runtime budget."""

import time
from itertools import combinations, combinations_with_replacement

from tvbcox import bundle, cox, gz, poly, schur
from tvbcox.suite import gz_relation_check


def verdict(number, ok, label, elapsed, budget):
    status = "PASS" if ok and elapsed < budget else "FAIL"
    print(f"ACCEPTANCE {number}: {status} - {label} ({elapsed:.2f}s / {budget:.0f}s budget)")
    assert ok, label
    assert elapsed < budget, f"{label}: {elapsed:.2f}s over the {budget:.0f}s budget"


def test_criterion_1_example_514():
    start = time.monotonic()
    b = bundle.example_514_bundle()
    ok = (
        bundle.is_complete_intersection(b, 1)
        and not bundle.is_complete_intersection(b, 2)
        and bundle.ci_stability(b)[0] == 1
    )
    verdict(1, ok, "example 5.14 CI and stability", time.monotonic() - start, 1.0)


def test_criterion_2_tangent_stability():
    start = time.monotonic()
    ok = all(
        bundle.ci_stability(bundle.tangent_bundle(n))[0] == n - 1 for n in range(2, 7)
    )
    verdict(2, ok, "tangent bundle stability n = 2..6", time.monotonic() - start, 1.0)


def test_criterion_3_uniform_sparse_region():
    start = time.monotonic()
    ok = bundle.uniform_sparse_stability(4, 6) == 2
    for d in range(1, 4):
        for s in range(d + 2, 9):
            closed = bundle.uniform_sparse_stability(s - d, s)
            ok = ok and closed == bundle.ci_stability(bundle.uniform_sparse_bundle(d, s))[0]
    verdict(3, ok, "uniform sparse closed form vs brute force", time.monotonic() - start, 10.0)


def test_criterion_4_kernel_verification():
    start = time.monotonic()
    report = cox.verify_kernel(2)
    ok = report["equal"]
    # the classical five-generator form agrees up to renaming and a W sign
    claimed = cox.tangent_cox_ideal(2, 2)
    ring = claimed.ring
    x = [ring.var(cox.x_name(j)) for j in range(3)]
    y = [ring.var(cox.y_name(1, j)) for j in range(3)]
    z = [ring.var(cox.y_name(2, j)) for j in range(3)]
    matched = False
    for w_sign in (1, -1):
        w = w_sign * ring.var(cox.w_name())
        classical = [
            y[2] * z[1] - y[1] * z[2] - x[0] * w,
            y[2] * z[0] - y[0] * z[2] + x[1] * w,
            y[1] * z[0] - y[0] * z[1] - x[2] * w,
            x[0] * z[0] + x[1] * z[1] + x[2] * z[2],
            x[0] * y[0] + x[1] * y[1] + x[2] * y[2],
        ]
        matched = matched or poly.ideal_equal(poly.Ideal(ring, classical), claimed)
    verdict(4, ok and matched, "kernel equals the presentation at n = 2", time.monotonic() - start, 300.0)


def test_criterion_5_groebner_lemma():
    start = time.monotonic()
    ok = True
    for n in (2, 3):
        for size in range(1, n + 1):
            for subset in combinations(range(1, n + 1), size):
                rep = cox.verify_lemma(n, subset)
                ok = ok and rep["is_groebner_basis"] and rep["dimension"] == n * n - 1
    verdict(5, ok, "row-sum/minors Groebner basis and dimension", time.monotonic() - start, 120.0)


def test_criterion_6_initial_ideal():
    start = time.monotonic()
    rep = cox.initial_comparison(2)
    ok = rep["equal"] and rep["dimension"] == 7
    verdict(6, ok, "degeneration initial ideal and dimension 7", time.monotonic() - start, 300.0)


def test_criterion_7_pluecker_match():
    start = time.monotonic()
    rep = cox.pluecker_match()
    ok = rep["found"] and rep["ideal_equal"]
    verdict(7, ok, "signed bijection onto the Gr(2,5) quadrics", time.monotonic() - start, 60.0)


def test_criterion_8_cauchy():
    start = time.monotonic()
    ok = all(
        schur.cauchy_verify(d, e, v)[0]
        for d in range(0, 9)
        for e in range(1, 6)
        for v in range(1, 6)
    )
    verdict(8, ok, "Cauchy identity d <= 8, dims <= 5", time.monotonic() - start, 5.0)


def test_criterion_9_gz_suite():
    start = time.monotonic()
    ok = True
    for n in (2, 3):
        psi = gz.build_psi(n)
        for gen in gz.all_generators(n):
            pattern = gz.lead_pattern(gen, n, psi=psi)
            ok = ok and gz.interlaces(pattern.pattern)
        gz_relation_check(n, psi)
        ok = ok and gz.confluence_sweep(n, 3)["confluent"]
    psi2 = gz.build_psi(2)
    kernel = gz.psi_kernel(2)
    order = poly.grevlex(psi2.source)
    gb = kernel.groebner(order)
    for size in range(1, 4):
        for combo in combinations_with_replacement(gz.all_generators(2), size):
            _, steps = gz.canonicalize(combo, 2)
            for step in steps:
                if step["rule"] == "marking-exchange":
                    ok = ok and gz.lift_step_check(step, 2, gb, order, psi2) is True
                else:
                    ok = ok and gz.lift_step_check(step, 2, gb, order, psi2) is None
    verdict(9, ok, "patterns, relations, confluence, lifts at n <= 3", time.monotonic() - start, 300.0)


def test_criterion_10_degree_accounting():
    start = time.monotonic()
    degrees = dict(cox.presentation_variables(2, 2))
    ok = degrees["W"] == (3, 2)
    # the W-variables are the minors on all n + 1 columns
    wide = dict(cox.presentation_variables(3, 4))
    w_taus = [wide[name] for name, _, cols in cox.presentation_minors(3, 4) if len(cols) == 4]
    ok = ok and w_taus == [(4, 3)] * 4
    ok = ok and max(b for _, b in degrees.values()) == 2
    ok = ok and [n for n, d in degrees.items() if d[1] == 2] == ["W"]
    cox.bidegrees(2, 2, cox.tangent_cox_ideal(2, 2).gens)
    verdict(10, ok, "Picard bidegrees and Sym-degree bound", time.monotonic() - start, 1.0)
