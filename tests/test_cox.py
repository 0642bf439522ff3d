import random
from itertools import combinations, permutations

import pytest

from tvbcox import cox, gz, poly
from tvbcox.cox import (
    PresentationSpec,
    build_phi,
    column_action,
    column_generators,
    delta_initial_ideal,
    delta_weights,
    euler_generators,
    euler_minor,
    initial_comparison,
    kernel_by_saturation,
    lemma_ideal,
    maximal_minors,
    phi_target_ring,
    plucker_quadrics,
    pluecker_match,
    presentation_minors,
    presentation_variables,
    quiver_ideal,
    row_completing_order,
    t_name,
    tangent_cox_ideal,
    tangent_sigma,
    verify_kernel,
    verify_lemma,
    w_name,
    x_name,
    y_name,
    yy_name,
)
from tvbcox.poly import (
    Ideal,
    PolyRing,
    RingMap,
    grevlex,
    ideal_equal,
    is_groebner_basis,
    normal_form,
    ring_map_kernel,
    symbolic_det,
    weight_initial,
)
from oracles import det_permutation_sum, minors_only_dimension, permuted_columns


def test_euler_ideal_shape():
    ideal = tangent_cox_ideal(2, 1).ideal()
    assert len(ideal.gens) == 1
    ring = ideal.ring
    expected = (
        ring.var("x0") * ring.var("Y1_0")
        + ring.var("x1") * ring.var("Y1_1")
        + ring.var("x2") * ring.var("Y1_2")
    )
    assert ideal.gens[0] == expected
    assert ideal.ring.names == ("x0", "x1", "x2", "Y1_0", "Y1_1", "Y1_2")
    assert len(tangent_cox_ideal(3, 2).ideal().gens) == 2


def test_euler_bidegree():
    spec = tangent_cox_ideal(3, 2)
    assert spec.check_bihomogeneous() == [(0, 1), (0, 1)]


def test_presentation_variables_in_ring_order():
    # x_j (-1, 0), Y_ij (1, 1), and (n + 1, n) for each n-subset of rows
    assert presentation_variables(2, 1) == [
        ("x0", (-1, 0)), ("x1", (-1, 0)), ("x2", (-1, 0)),
        ("Y1_0", (1, 1)), ("Y1_1", (1, 1)), ("Y1_2", (1, 1)),
    ]
    assert presentation_variables(2, 2)[-1] == ("W", (3, 2))
    assert presentation_variables(3, 4)[-4:] == [
        (w_name(tau), (4, 3)) for tau in ((1, 2, 3), (1, 2, 4), (1, 3, 4), (2, 3, 4))
    ]
    for n, m in ((2, 1), (2, 2), (2, 3), (3, 4)):
        names = [name for name, _ in presentation_variables(n, m)]
        phi = build_phi(n, m)
        assert list(phi.source.names) == list(phi.images) == names
        if m <= n:
            assert list(tangent_cox_ideal(n, m).degrees) == names


def test_tangent_cox_ideal_counts():
    assert len(tangent_cox_ideal(3, 2).gens) == 2
    for n in (2, 3):
        assert len(tangent_cox_ideal(n, n).gens) == n + (n + 1)
    with pytest.raises(ValueError):
        tangent_cox_ideal(2, 3)


def test_phi_images():
    phi = build_phi(2, 2)
    t0 = phi.target.var("t0")
    assert phi(phi.source.var("x0")) == t0 ** (-1)
    for g in euler_generators(phi.source, 2, 2):
        assert phi(g) == 0


def test_phi_large_m_determinantal_images():
    # all W variables exist for m > n; each is the row-selected determinant
    phi_big = build_phi(2, 3)
    tau_names = [name for name in phi_big.source.names if name.startswith("W_")]
    assert tau_names == ["W_12", "W_13", "W_23"]
    target = phi_big.target

    def det_rows(i1, i2):
        t_all = target.var("t0") * target.var("t1") * target.var("t2")
        return (
            target.var(f"y{i1}_1") * target.var(f"y{i2}_2")
            - target.var(f"y{i1}_2") * target.var(f"y{i2}_1")
        ) * t_all

    assert phi_big.images["W_13"] == det_rows(1, 3)
    # at m = n the single row set gives the plain W image, same formula
    phi_square = build_phi(2, 2)
    expected = (
        phi_square.target.var("y1_1") * phi_square.target.var("y2_2")
        - phi_square.target.var("y1_2") * phi_square.target.var("y2_1")
    ) * phi_square.target.var("t0") * phi_square.target.var("t1") * phi_square.target.var("t2")
    assert phi_square.images[w_name()] == expected


def test_solved_signs_give_kernel_members():
    # the closed-form sign (-1)^j of det Y(j) - e x_j W; the other sign
    # leaves 2 phi(x_j W), which is not 0
    for n in (2, 3, 4):
        phi = build_phi(n, n)
        ring = phi.source
        for j, minor in enumerate(maximal_minors(ring, n)):
            xw = ring.var(x_name(j)) * ring.var(w_name())
            assert phi(minor - (-1) ** j * xw) == 0
            assert phi(minor + (-1) ** j * xw) != 0


def test_all_generators_vanish_under_phi():
    for n in (2, 3):
        spec = tangent_cox_ideal(n, n)
        for g in spec.gens:
            assert spec.phi(g) == 0
        for g in quiver_ideal(n).gens:
            # Euler generators vanish; minors map to nonzero determinants
            image = spec.phi(poly.transplant(g, spec.ring))
            if g in spec.gens[: n]:
                assert image == 0


def test_symbolic_minor_matches_permutation_oracle():
    ring = build_phi(2, 2).source
    cols = [1, 2]
    rows = [[ring.var(y_name(i, c)) for c in cols] for i in (1, 2)]
    assert symbolic_det(rows) == det_permutation_sum(rows)


def test_verify_kernel_n2():
    report = verify_kernel(2)
    assert report["equal"]


def test_verify_kernel_cap():
    with pytest.raises(poly.CapExceeded):
        verify_kernel(5)


def elimination_report(n):
    """verify_kernel's report by the elimination route: ker(phi) from the
    graph ideal, compared with the claimed ideal."""
    spec = tangent_cox_ideal(n, n)
    kernel = ring_map_kernel(spec.phi)
    claimed = spec.ideal()
    return {
        "n": n,
        "kernel_generators": len(kernel.gens),
        "claimed_generators": len(claimed.gens),
        "kernel_gb_size": len(kernel.groebner(grevlex(spec.ring))),
        "equal": ideal_equal(kernel, claimed),
    }


@pytest.mark.parametrize("n", [2, 3])
def test_verify_kernel_matches_the_elimination_route(n):
    assert verify_kernel(n) == elimination_report(n)


def column_symmetries(spec):
    """The column_action of the two column generators, as tangent_kernel
    passes them."""
    minors = presentation_minors(spec.n, spec.m)
    return [column_action(spec.ring, minors, perm) for perm in column_generators(spec.n)]


def certificates(spec, symmetries=None):
    if symmetries is None:
        symmetries = column_symmetries(spec)
    return kernel_by_saturation(
        spec.ideal(), spec.phi, tangent_sigma(spec), spec.grading(), symmetries
    )[-1]


def proof_inputs(spec):
    """The arguments tangent_kernel gives kernel_by_saturation."""
    return spec.ideal(), spec.phi, tangent_sigma(spec), spec.grading(), column_symmetries(spec)


def certificate_polynomials(claimed, phi, sigma, weights, symmetries):
    """The polynomials that the left_inverse, saturated and symmetric
    certificates test for membership in claimed, the quotients taken for
    every variable that sigma inverts; and each again plus the first
    variable, which lies in none of the ideals tested here (weight 1,
    below the weight of every generator)."""
    ring, variables = claimed.ring, claimed.ring.gens()
    polys = [cox._clear_denominators(sigma(phi(s)) - s) for s in variables]
    polys += [g(f) for g in symmetries for f in claimed.gens]
    images = sigma.images.values()
    inverted = {i for img in images for m in img.terms for i, e in enumerate(m) if e < 0}
    for i in sorted(inverted):
        for g in claimed.groebner(cox._u_last_order(ring, i, tuple(weights))):
            polys.append(g * variables[i] ** -min(m[i] for m in g.terms))
    return polys + [f + variables[0] for f in polys]


@pytest.mark.parametrize("n", [2, 3, 4])
def test_the_proof_basis_is_a_groebner_basis_as_large_as_grevlex(n):
    spec = tangent_cox_ideal(n, n)
    claimed, order = spec.ideal(), grevlex(spec.ring)
    basis, u_last, _ = kernel_by_saturation(*proof_inputs(spec))
    # x_0 last, and no grevlex basis was computed on the way
    assert u_last is cox._u_last_order(spec.ring, 0, tuple(spec.grading()))
    assert order.rows not in claimed._gb
    assert is_groebner_basis(basis, u_last) and basis == claimed.groebner(u_last)
    assert len(basis) == len(claimed.groebner(order)) == verify_kernel(n)["kernel_gb_size"]


def test_a_proof_that_inverts_nothing_uses_variable_0_last():
    # J = (x - y) is the kernel of x, y -> t, and t -> x inverts it outright
    source, target = PolyRing(["x", "y"]), PolyRing(["t"])
    x, y = source.gens()
    phi = RingMap(source, target, {"x": target.var("t"), "y": target.var("t")})
    sigma = RingMap(target, source, {"t": x})
    basis, order, got = kernel_by_saturation(Ideal(source, [x - y]), phi, sigma, [1, 1], [])
    assert order is cox._u_last_order(source, 0, (1, 1)) and basis == [y - x]
    assert all(got.values())


def psi_proof_inputs(monkeypatch, n):
    """The arguments flag_kernel gives kernel_by_saturation, caught on
    their way in."""
    caught = []
    monkeypatch.setattr(gz, "kernel_by_saturation", lambda *args: caught.append(args))
    gz.flag_kernel(n, gz.build_psi(n))
    return caught[0]


@pytest.mark.parametrize("case", ["phi 2", "phi 3", "phi 3 dropped", "psi 3"])
def test_the_proof_basis_decides_membership_as_grevlex_does(monkeypatch, case):
    kind, n, *dropped = case.split()
    if kind == "psi":
        args = psi_proof_inputs(monkeypatch, int(n))
    else:
        spec = tangent_cox_ideal(int(n), int(n))
        if dropped:  # no longer saturated: some quotients fall outside J
            spec = PresentationSpec(spec.n, spec.m, spec.ring, spec.gens[:-1], spec.phi)
        args = proof_inputs(spec)
    claimed, order = args[0], grevlex(args[0].ring)
    basis, u_last, _ = kernel_by_saturation(*args)
    in_proof = poly.membership_test(basis, u_last)
    in_grevlex = poly.membership_test(claimed.groebner(order), order)
    polys = certificate_polynomials(*args)
    verdicts = [in_proof(f) for f in polys]
    assert verdicts == [in_grevlex(f) for f in polys]
    # the plain half holds a non-member only when a generator is dropped
    assert (False in verdicts[: len(polys) // 2]) == bool(dropped)
    assert not any(verdicts[len(polys) // 2 :])


def with_w_negated(g):
    return RingMap(g.source, g.target, dict(g.images, W=-g.images["W"]))


@pytest.mark.parametrize("n", [1, 2, 3])
def test_kernel_certificates_hold(n):
    assert certificates(tangent_cox_ideal(n, n)) == {
        "contained": True, "left_inverse": True, "saturated": True, "symmetric": True,
    }


def test_colon_certificate_rejects_a_dropped_generator():
    # without det Y(3) - e x_3 W the ideal still agrees with ker(phi) once
    # x is inverted, but it is no longer saturated with respect to x_0
    spec = tangent_cox_ideal(3, 3)
    dropped = PresentationSpec(3, 3, spec.ring, spec.gens[:-1], spec.phi)
    got = certificates(dropped)
    assert got["saturated"] is False
    assert got["contained"] and got["left_inverse"]


@pytest.mark.parametrize("n", [2, 3])
def test_left_inverse_certificate_rejects_a_wrong_w_image(n):
    # phi with W -> -det[y] t_0...t_n makes sigma(phi(W)) = -det Y(0) / x_0,
    # and x_0 (sigma(phi(W)) - W) = -(det Y(0) + x_0 W) is not in J
    spec = tangent_cox_ideal(n, n)
    phi = RingMap(spec.ring, spec.phi.target, dict(spec.phi.images, W=-spec.phi.images["W"]))
    wrong = PresentationSpec(n, n, spec.ring, spec.gens, phi)
    ring = spec.ring
    image = tangent_sigma(wrong)(phi(ring.var("W")))
    assert image * ring.var("x0") == -maximal_minors(ring, n)[0]
    got = certificates(wrong)
    assert got["left_inverse"] is False
    # the new phi no longer kills det Y(j) - e x_j W either
    assert got["contained"] is False
    assert got["saturated"] and got["symmetric"]


@pytest.mark.parametrize(
    "case", ["phi 1 1", "phi 2 2", "phi 3 3", "phi 2 3", "phi 2 4", "phi 3 4", "psi 2", "psi 3",
             "psi 4"],
)
def test_the_column_action_commutes_with_the_presentation_map(case):
    # phi(g(v)) = h(phi(v)) for every source variable v, with g the column
    # action on the minor table and h the same permutation of the matrix
    # columns and the t_j: every permutation of the n + 1 columns, the W_tau
    # of m > n included, and the two generators for psi at n = 4
    kind, n, *m = case.split()
    n = int(n)
    if kind == "phi":
        phi, minors = build_phi(n, int(m[0])), presentation_minors(n, int(m[0]))
    else:
        phi, minors = gz.build_psi(n), gz.flag_minors(n)
    perms = column_generators(n) if n == 4 else permutations(range(n + 1))
    for perm in perms:
        g, h = column_action(phi.source, minors, perm), permuted_columns(phi.target, n, perm)
        for v in phi.source.gens():
            assert phi(g(v)) == h(phi(v)), (perm, v)


@pytest.mark.parametrize("n", [2, 3])
def test_symmetry_certificate_rejects_a_wrong_w_sign(n):
    spec = tangent_cox_ideal(n, n)
    for perm in column_generators(n):
        wrong = with_w_negated(column_action(spec.ring, presentation_minors(n, n), perm))
        # beside the right pair, which carries x_0 to every x_j, and alone
        for symmetries in (column_symmetries(spec) + [wrong], [wrong]):
            got = certificates(spec, symmetries)
            assert got["symmetric"] is False, perm
            assert got["contained"] and got["left_inverse"] and got["saturated"]


def test_a_failed_certificate_fails_both_reports(monkeypatch):
    action = cox.column_action

    def wrong(ring, minors, perm):
        return with_w_negated(action(ring, minors, perm))

    monkeypatch.setattr(cox, "column_action", wrong)
    assert verify_kernel(2)["equal"] is False
    assert initial_comparison(2)["equal"] is False


def test_kernel_by_saturation_needs_a_positive_grading_of_j():
    spec = tangent_cox_ideal(3, 3)
    sigma, symmetries = tangent_sigma(spec), column_symmetries(spec)
    # det Y(j) has degree 3 and x_j W degree 2 in the standard grading
    claimed, phi = spec.ideal(), spec.phi
    with pytest.raises(ValueError, match="not homogeneous"):
        kernel_by_saturation(claimed, phi, sigma, [1] * spec.ring.nvars, symmetries)
    with pytest.raises(ValueError, match="not positive"):
        kernel_by_saturation(claimed, phi, sigma, [0] * spec.ring.nvars, symmetries)


def test_saturation_orders_are_built_once_per_ring_variable_and_weights():
    a, b = PolyRing(["x", "y", "z"]), PolyRing(["x", "y", "z"])
    order = cox._u_last_order(a, 0, (1, 2, 3))
    assert cox._u_last_order(b, 0, (1, 2, 3)) is order
    assert cox._u_last_order(a, 1, (1, 2, 3)) is not order
    assert cox._u_last_order(a, 0, (1, 1, 1)) is not order
    # x^2 and y have weighted degree 2; with x last, the one without x leads
    assert order.key((0, 1, 0)) > order.key((2, 0, 0))


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
def test_verify_kernel_saturates_x0_alone(saturated_names, n):
    assert verify_kernel(n, allow_large=True)["equal"]
    assert saturated_names == ["x0"]


@pytest.mark.parametrize("n", [2, 3])
def test_the_symmetries_decide_which_variables_are_saturated(saturated_names, n):
    spec, names = tangent_cox_ideal(n, n), saturated_names
    # no symmetry: every inverted variable is saturated, and the proof holds
    assert all(certificates(spec, []).values())
    assert names == [x_name(j) for j in range(n + 1)]
    # the swap alone carries x_0 to x_1 only
    names.clear()
    assert all(certificates(spec, column_symmetries(spec)[:1]).values())
    assert names == [x_name(j) for j in range(n + 1) if j != 1]
    # a map that is not a signed permutation of the variables carries nothing
    names.clear()
    ring = spec.ring
    images = {name: ring.var(name) for name in ring.names}
    images.update({x_name(j): ring.var(x_name(j)) + ring.var(x_name(0)) for j in range(1, n + 1)})
    certificates(spec, [RingMap(ring, ring, images)])
    assert names == [x_name(j) for j in range(n + 1)]


@pytest.mark.parametrize("n", [2, 3])
def test_euler_minor_matches_the_permutation_sum(n):
    target = phi_target_ring(n, n)
    y = {(i, j): target.var(yy_name(i, j)) for i in range(1, n + 1) for j in range(1, n + 1)}
    for i in range(1, n + 1):
        y[i, 0] = target.zero()
        for j in range(1, n + 1):
            y[i, 0] = y[i, 0] - y[i, j]
    for size in range(1, n + 1):
        for rows in combinations(range(1, n + 1), size):
            for cols in combinations(range(n + 1), size):
                want = det_permutation_sum([[y[i, j] for j in cols] for i in rows])
                for j in cols:
                    want = want * target.var(t_name(j))
                assert euler_minor(target, n, rows, cols) == want, (rows, cols)


def test_kernel_membership_and_nonmembership():
    spec = tangent_cox_ideal(2, 2)
    kernel = ring_map_kernel(spec.phi)
    order = grevlex(spec.ring)
    gb = kernel.groebner(order)
    ring = spec.ring
    member = maximal_minors(ring, 2)[0] - ring.var("x0") * ring.var("W")
    assert not normal_form(member, gb, order)
    non_member = maximal_minors(ring, 2)[0]
    assert spec.phi(non_member) != 0
    assert normal_form(non_member, gb, order)


def test_kernel_membership_agrees_with_evaluation():
    spec = tangent_cox_ideal(2, 2)
    kernel = ring_map_kernel(spec.phi)
    order = grevlex(spec.ring)
    gb = kernel.groebner(order)
    rng = random.Random(29)
    ring = spec.ring
    checked = 0
    for _ in range(50):
        f = ring.zero()
        for _ in range(3):
            exps = [0] * ring.nvars
            for _ in range(rng.randrange(4)):
                exps[rng.randrange(ring.nvars)] += 1
            f = f + ring.monomial(exps, rng.randrange(-2, 3))
        in_kernel = not normal_form(f, gb, order)
        assert in_kernel == (spec.phi(f) == 0)
        checked += 1
    assert checked == 50


def test_quiver_ideal_shape():
    q = quiver_ideal(2)
    assert len(q.gens) == 5


def test_delta_initial_contains_quiver_generators():
    for n in (2, 3):
        spec = tangent_cox_ideal(n, n)
        w = delta_weights(spec.ring)
        initial_gens = {
            poly.poly_to_text(weight_initial(g, w), grevlex(spec.ring))
            for g in spec.gens
        }
        quiver_gens = {
            poly.poly_to_text(g, grevlex(spec.ring)) for g in quiver_ideal(n).gens
        }
        # the degeneration of det Y(j) - x_j W keeps the minor, drops x_j W
        assert quiver_gens <= initial_gens


def test_initial_comparison_n2():
    rep = initial_comparison(2)
    assert rep["equal"]
    assert rep["dimension"] == 7
    assert rep["generic_dimension"] == 7  # flat: special and general agree


def test_initial_comparison_n3():
    rep = initial_comparison(3)
    assert rep["equal"]
    assert rep["dimension"] == rep["generic_dimension"] == 13


def test_delta_initial_ideal_rejects_inhomogeneous_input(monkeypatch):
    # delta_order puts 1 above W, so dividing by W + 1 never ends; the
    # grading check comes before Buchberger is reached
    def unreachable(*args, **kwargs):
        raise AssertionError("Buchberger was reached")

    monkeypatch.setattr(poly, "buchberger", unreachable)
    ring = PolyRing(["x", "y", "W"])
    x, y, w = ring.gens()
    with pytest.raises(ValueError, match="not homogeneous"):
        delta_initial_ideal(Ideal(ring, [w + 1, x * y]), [1] * ring.nvars)


def test_euler_complete_intersection_codimension():
    # with m < n the zero set drops by exactly one dimension per generator
    for n in (2, 3):
        for m in range(1, n):
            ideal = tangent_cox_ideal(n, m).ideal()
            dim = poly.zero_set_dimension(ideal)
            assert dim == ideal.ring.nvars - m


def test_row_completing_order_lead_terms():
    ring = PolyRing([y_name(i, j) for i in (1, 2) for j in (0, 1, 2)])
    order = row_completing_order(ring, 2)
    f1 = ring.var(y_name(1, 1)) + ring.var(y_name(1, 2))
    assert f1.leading_term(order)[0] == ring.var(y_name(1, 1)).leading_term(order)[0]
    det0 = maximal_minors(ring, 2)[0]
    lead, _ = det0.leading_term(order)
    diag = ring.var(y_name(1, 1)) * ring.var(y_name(2, 2))
    assert lead == next(iter(diag.terms))


def test_lemma_canonicalization_permutation():
    ideal, mapping = lemma_ideal(3, {2, 3})
    assert mapping == {0: 0, 2: 1, 3: 2, 1: 3}
    assert len(ideal.gens) == 3 + 4


def test_verify_lemma_all_subsets():
    for n in (2, 3):
        for size in range(1, n + 1):
            for subset in combinations(range(1, n + 1), size):
                rep = verify_lemma(n, subset)
                assert rep["is_groebner_basis"], (n, subset)
                assert rep["dimension"] == n * n - 1, (n, subset)


def test_minors_only_dimension():
    assert minors_only_dimension(2) == 4  # (n-1)(n+2) at n = 2


def test_plucker_gr24_quadric():
    # oracle: the single quadric vanishes on the minors of a generic 2x4 matrix
    ideal = plucker_quadrics(4)
    assert len(ideal.gens) == 1
    ring = ideal.ring
    entries = PolyRing([f"a{j}" for j in range(1, 5)] + [f"b{j}" for j in range(1, 5)])
    minors = {}
    for i, j in combinations(range(1, 5), 2):
        minors[f"p{i}{j}"] = entries.var(f"a{i}") * entries.var(f"b{j}") - entries.var(
            f"a{j}"
        ) * entries.var(f"b{i}")
    images = [minors[name] for name in ring.names]
    assert ideal.gens[0].substitute(images) == 0
    expected = (
        ring.var("p12") * ring.var("p34")
        - ring.var("p13") * ring.var("p24")
        + ring.var("p14") * ring.var("p23")
    )
    assert ideal.gens[0] == expected


def test_pluecker_match_found():
    rep = pluecker_match()
    assert rep["found"] is True and rep["ideal_equal"] is True
    assert len(rep["substitution"]) == 10


def test_pluecker_match_rejects_a_flipped_sign(monkeypatch):
    # Y1_1 -> +p24 instead of -p24: the Euler relation sum_j x_j Y1_j lands
    # on no quadric, and the ideal moves
    monkeypatch.setitem(cox.PLUCKER_SUBSTITUTION, "Y1_1", "p24")
    rep = pluecker_match()
    assert rep["found"] is False
    assert rep["ideal_equal"] is False
    assert rep["substitution"]["Y1_1"] == "p24"


def test_presentation_rejects_inhomogeneous():
    spec = tangent_cox_ideal(2, 2)
    ring = spec.ring
    bad = ring.var("x0") + ring.var("W")
    with pytest.raises(ValueError):
        spec.bidegree_of(bad)


def test_bidegree_of_reads_both_rows():
    spec = tangent_cox_ideal(2, 2)
    ring = spec.ring
    x0, y, w = ring.var("x0"), ring.var("Y1_0"), ring.var("W")
    assert spec.bidegree_of(ring.zero()) is None
    assert spec.bidegree_of(x0 * w + 2 * y * ring.var("Y1_1")) == (2, 2)
    # both terms have Pic degree 0, only the Sym degrees 1 and 2 differ
    with pytest.raises(ValueError, match="not homogeneous"):
        spec.bidegree_of(x0 * y + x0 * x0 * x0 * w)
