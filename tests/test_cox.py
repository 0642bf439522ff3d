import random
from itertools import combinations, permutations

import pytest

from tvbcox import cox, gz, poly, suite
from tvbcox.cox import (
    bidegrees,
    build_phi,
    column_action,
    column_symmetries,
    delta_weights,
    euler_generators,
    euler_minors,
    initial_comparison,
    kernel_by_saturation,
    lemma_ideal,
    maximal_minors,
    minor_sigma,
    phi_target_ring,
    plucker_quadrics,
    pluecker_match,
    presentation_minors,
    presentation_variables,
    presentation_weights,
    quiver_ideal,
    row_completing_order,
    t_name,
    tangent_cox_ideal,
    tangent_kernel,
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
from oracles import (
    det_permutation_sum,
    left_inverse_images,
    minors_only_dimension,
    permuted_columns,
    presentation_images_by_products,
    quiver_gens_by_products,
    tangent_cox_gens_by_products,
    zero_set_dimension,
)


def test_euler_ideal_shape():
    ideal = tangent_cox_ideal(2, 1)
    assert len(ideal.gens) == 1
    ring = ideal.ring
    expected = (
        ring.var("x0") * ring.var("Y1_0")
        + ring.var("x1") * ring.var("Y1_1")
        + ring.var("x2") * ring.var("Y1_2")
    )
    assert ideal.gens[0] == expected
    assert ideal.ring.names == ("x0", "x1", "x2", "Y1_0", "Y1_1", "Y1_2")
    assert len(tangent_cox_ideal(3, 2).gens) == 2


def test_euler_bidegree():
    assert bidegrees(3, 2, tangent_cox_ideal(3, 2).gens) == [(0, 1), (0, 1)]


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
            assert list(tangent_cox_ideal(n, m).ring.names) == names


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_the_presentation_ring_is_the_source_of_phi(n):
    # tangent_cox_ideal builds its ring without phi, and the contained
    # certificate applies phi to its generators: same names, same order
    for m in range(1, n + 1):
        ring = tangent_cox_ideal(n, m).ring
        assert ring == build_phi(n, m).source
        assert ring.names == build_phi(n, m).source.names


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
        claimed, phi = tangent_cox_ideal(n, n), build_phi(n, n)
        for g in claimed.gens:
            assert phi(g) == 0
        for g in quiver_ideal(n).gens:
            # Euler generators vanish; minors map to nonzero determinants
            image = phi(poly.transplant(g, claimed.ring))
            if g in claimed.gens[: n]:
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
    kernel = ring_map_kernel(build_phi(n, n))
    claimed = tangent_cox_ideal(n, n)
    return {
        "n": n,
        "kernel_generators": len(kernel.gens),
        "claimed_generators": len(claimed.gens),
        "kernel_gb_size": len(kernel.groebner(grevlex(claimed.ring))),
        "equal": ideal_equal(kernel, claimed),
    }


@pytest.mark.parametrize("n", [2, 3])
def test_verify_kernel_matches_the_elimination_route(n):
    assert verify_kernel(n) == elimination_report(n)


def tangent_order(ring, weights):
    """tangent_kernel's order: the weights, the row -delta, then revlex
    with x_0 last."""
    return cox.proof_order(tuple(weights), (tuple(-w for w in delta_weights(ring)),), 0)


def proof_inputs(n, phi):
    """The arguments tangent_kernel gives kernel_by_saturation through
    minor_kernel."""
    minors, weights = presentation_minors(n, n), presentation_weights(n, n)
    claimed = tangent_cox_ideal(n, n)
    return (
        claimed, phi, minor_sigma(phi, minors, n), weights,
        column_symmetries(minors, n), tangent_order(claimed.ring, weights),
    )


def certificates(n, symmetries):
    """The certificates of tangent_kernel's proof at n with symmetries in
    place of the column symmetries: contained as tangent_kernel proves it,
    the other three from kernel_by_saturation."""
    claimed, phi, sigma, weights, _, order = proof_inputs(n, build_phi(n, n))
    got = kernel_by_saturation(claimed, phi, sigma, weights, symmetries, order)[-1]
    return {"contained": all(phi(g) == 0 for g in claimed.gens), **got}


def variable_move(ring, targets=(), negated=()):
    """The signed permutation (targets, signs) of ring's variables that
    sends each name to the name targets gives it, itself by default, with
    a minus sign on the names in negated."""
    targets = dict(targets)
    return ([ring.index[targets.get(name, name)] for name in ring.names],
            [-1 if name in negated else 1 for name in ring.names])


def as_ring_map(ring, move):
    """The ring map of ring to itself that the move applies."""
    targets, signs = move
    return RingMap(ring, ring, {
        name: sign * ring.var(ring.names[k]) for name, k, sign in zip(ring.names, targets, signs)
    })


def certificate_polynomials(claimed, phi, sigma, weights, symmetries, order):
    """The polynomials that the left_inverse and symmetric certificates
    test for membership in claimed, and Bayer and Stillman's quotients of
    J : u^inf for every variable u that sigma inverts, each element of the
    u-last basis divided by its largest power of u; and each again plus
    the first variable, which lies in none of the ideals tested here
    (weight 1, below the weight of every generator)."""
    ring, variables = claimed.ring, claimed.ring.gens()
    polys = [cox._clear_denominators(sigma(phi(s)) - s) for s in variables]
    polys += [cox._permuted(f, g) for g in symmetries for f in claimed.gens]
    images = sigma.images.values()
    inverted = {i for img in images for m in img.terms for i, e in enumerate(m) if e < 0}
    for i in sorted(inverted):
        for g in claimed.groebner(cox.proof_order(tuple(weights), (), i)):
            polys.append(g * variables[i] ** -min(m[i] for m in g.terms))
    return polys + [f + variables[0] for f in polys]


@pytest.mark.parametrize("n", [2, 3, 4])
def test_the_proof_basis_is_a_groebner_basis_as_large_as_grevlex(n, monkeypatch):
    args = proof_inputs(n, build_phi(n, n))
    claimed, order = args[0], grevlex(args[0].ring)
    computed, buchberger = [], poly.buchberger

    def recorded(gens, term_order):
        computed.append(term_order.rows)
        return buchberger(gens, term_order)

    monkeypatch.setattr(poly, "buchberger", recorded)
    basis, u_last, _ = kernel_by_saturation(*args)
    monkeypatch.undo()
    # x_0 last, and no grevlex basis was computed on the way
    assert u_last is tangent_order(claimed.ring, presentation_weights(n, n))
    assert computed == [u_last.rows]
    assert is_groebner_basis(basis, u_last) and basis == claimed.groebner(u_last)
    assert len(basis) == len(claimed.groebner(order)) == verify_kernel(n)["kernel_gb_size"]


def test_a_proof_that_inverts_nothing_has_no_orbit_to_saturate():
    # J = (x - y) is the kernel of x, y -> t, and t -> x inverts it outright
    source, target = PolyRing(["x", "y"]), PolyRing(["t"])
    x, y = source.gens()
    phi = RingMap(source, target, {"x": target.var("t"), "y": target.var("t")})
    sigma = RingMap(target, source, {"t": x})
    # nothing inverted leaves no orbit to saturate; the proof keeps the
    # order it is given
    order = cox.proof_order((1, 1), (), 0)
    basis, used, got = kernel_by_saturation(Ideal(source, [x - y]), phi, sigma, [1, 1], [], order)
    assert used is order and basis == [y - x]
    assert all(got.values())


def psi_proof_inputs(monkeypatch, n):
    """The arguments flag_kernel gives kernel_by_saturation through
    minor_kernel, caught on their way in."""
    caught = []
    monkeypatch.setattr(cox, "kernel_by_saturation",
                        lambda *args: caught.append(args) or ([], None, {}))
    gz.flag_kernel(n, gz.build_psi(n))
    return caught[0]


@pytest.mark.parametrize("case", ["phi 2", "phi 3", "phi 3 dropped", "psi 3"])
def test_the_proof_basis_decides_membership_as_grevlex_does(monkeypatch, case):
    kind, n, *dropped = case.split()
    if kind == "psi":
        args = psi_proof_inputs(monkeypatch, int(n))
    else:
        args = proof_inputs(int(n), build_phi(int(n), int(n)))
        if dropped:  # no longer saturated: some quotients fall outside J
            args = (Ideal(args[0].ring, args[0].gens[:-1]),) + args[1:]
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


def with_w_negated(move, ring):
    """The move with the sign of its image of W flipped."""
    targets, signs = move
    w = ring.index["W"]
    return targets, [-sign if k == w else sign for k, sign in enumerate(signs)]


@pytest.mark.parametrize("n", [1, 2, 3])
def test_kernel_certificates_hold(n):
    assert tangent_kernel(n, build_phi(n, n))[-1] == {
        "contained": True, "left_inverse": True, "saturated": True, "symmetric": True,
    }


def test_colon_certificate_rejects_a_dropped_generator():
    # without det Y(3) - e x_3 W the ideal still agrees with ker(phi) once
    # x is inverted, but it is no longer saturated with respect to x_0.
    # x_3 still divides no lead of its x_0-last basis, so the saturated
    # certificate holds through x_3; the cycle carries a kept generator to
    # the dropped one, so the symmetric certificate, which would carry
    # J : x_3 = J to x_0, fails and the proof with it
    claimed, phi, *rest = proof_inputs(3, build_phi(3, 3))
    got = kernel_by_saturation(Ideal(claimed.ring, claimed.gens[:-1]), phi, *rest)[-1]
    assert not all(got.values()) and got["symmetric"] is False
    # contained, which the builder of J proves, holds for the smaller ideal
    assert all(phi(g) == 0 for g in claimed.gens[:-1]) and got["left_inverse"]


@pytest.mark.parametrize("n", [2, 3])
def test_left_inverse_certificate_rejects_a_wrong_w_image(n):
    # phi with W -> -det[y] t_0...t_n makes sigma(phi(W)) = -det Y(0) / x_0,
    # and x_0 (sigma(phi(W)) - W) = -(det Y(0) + x_0 W) is not in J
    right = build_phi(n, n)
    ring = right.source
    phi = RingMap(ring, right.target, dict(right.images, W=-right.images["W"]))
    image = minor_sigma(phi, presentation_minors(n, n), n)(phi(ring.var("W")))
    assert image * ring.var("x0") == -maximal_minors(ring, n)[0]
    got = tangent_kernel(n, phi)[-1]
    assert got["left_inverse"] is False
    # the new phi no longer kills det Y(j) - e x_j W either
    assert got["contained"] is False
    assert got["saturated"] and got["symmetric"]


MAP_CASES = [f"phi {n}" for n in range(1, 7)] + [f"psi {n}" for n in range(2, 7)]


def map_and_table(case):
    kind, n = case.split()
    n = int(n)
    if kind == "phi":
        return kind, n, build_phi(n, n), presentation_minors(n, n)
    return kind, n, gz.build_psi(n), gz.flag_minors(n)


def assert_int_coefficients(polys):
    assert all(type(c) is int for f in polys for c in f.terms.values())


@pytest.mark.parametrize("case", MAP_CASES)
def test_the_left_inverse_read_off_the_table_has_the_closed_forms(case):
    kind, n, phi, minors = map_and_table(case)
    sigma = minor_sigma(phi, minors, n)
    assert list(sigma.images) == list(phi.target.names)
    assert sigma.images == left_inverse_images(kind, phi.source, n)
    assert_int_coefficients(sigma.images.values())


@pytest.mark.parametrize("case", MAP_CASES)
def test_the_presentation_maps_write_what_the_operators_build(case):
    # the images are written as exponent tuples; the reference multiplies
    # variables and takes each minor as its own determinant
    _, n, phi, minors = map_and_table(case)
    want = presentation_images_by_products(phi.target, n, minors)
    assert list(phi.images) == list(want) and phi.images == want
    assert_int_coefficients(phi.images.values())


@pytest.mark.parametrize("n, m", [(n, m) for n in range(1, 7) for m in range(1, n + 1)])
def test_the_tangent_presentation_writes_what_the_operators_build(n, m):
    gens = tangent_cox_ideal(n, m).gens
    assert gens == tangent_cox_gens_by_products(n, m)
    assert_int_coefficients(gens)


@pytest.mark.parametrize("n", range(2, 7))
def test_the_quiver_ideal_writes_what_the_operators_build(n):
    gens = quiver_ideal(n).gens
    assert gens == quiver_gens_by_products(n)
    assert_int_coefficients(gens)


@pytest.mark.parametrize("n, m", [(1, 2), (2, 3), (2, 4), (3, 4)])
def test_the_left_inverse_read_off_the_table_extends_to_m_above_n(n, m):
    # sigma(phi(v)) = v on x_j and on Y_ij off column 0, and
    # x_0 sigma(phi(W_tau)) = det Y(tau; 1..n) for every n-subset tau of rows
    phi = build_phi(n, m)
    ring, sigma = phi.source, minor_sigma(phi, presentation_minors(n, m), n)
    for v in [x_name(j) for j in range(n + 1)] + [
        y_name(i, j) for i in range(1, m + 1) for j in range(1, n + 1)
    ]:
        assert sigma(phi(ring.var(v))) == ring.var(v), v
    for tau in combinations(range(1, m + 1), n):
        rows = [[ring.var(y_name(i, j)) for j in range(1, n + 1)] for i in tau]
        minor = det_permutation_sum(rows)
        assert ring.var(x_name(0)) * sigma(phi(ring.var(w_name(tau)))) == minor, tau


@pytest.mark.parametrize(
    "case", ["phi 1 1", "phi 2 2", "phi 3 3", "phi 2 3", "phi 2 4", "phi 3 4", "psi 2", "psi 3",
             "psi 4"],
)
def test_the_column_action_commutes_with_the_presentation_map(case):
    # phi(g(v)) = h(phi(v)) for every source variable v, with g the column
    # action on the minor table, applied by cox._permuted, and h the same
    # permutation of the matrix columns and the t_j: every permutation of
    # the n + 1 columns, the W_tau of m > n included, and the two
    # generators for psi at n = 4: the swap of columns 0 and 1 and the
    # cycle j -> j + 1, those column_symmetries acts by
    kind, n, *m = case.split()
    n = int(n)
    if kind == "phi":
        phi, minors = build_phi(n, int(m[0])), presentation_minors(n, int(m[0]))
    else:
        phi, minors = gz.build_psi(n), gz.flag_minors(n)
    swap, cycle = [1, 0] + list(range(2, n + 1)), [(j + 1) % (n + 1) for j in range(n + 1)]
    assert column_symmetries(minors, n) == [column_action(minors, perm) for perm in (swap, cycle)]
    perms = (swap, cycle) if n == 4 else permutations(range(n + 1))
    for perm in perms:
        g, h = column_action(minors, perm), permuted_columns(phi.target, n, perm)
        for v in phi.source.gens():
            assert phi(cox._permuted(v, g)) == h(phi(v)), (perm, v)


@pytest.mark.parametrize("case", ["phi 2", "phi 3", "psi 3", "psi 4"])
def test_a_column_action_applied_as_a_signed_permutation_is_the_ring_map(case):
    # every column permutation at n = 2, 3 and the swap and the cycle at
    # n = 4, on every generator of J and on the squares of four of them,
    # whose even powers of a negated variable keep their sign; each move is
    # a bijection of the variables that keeps the weights, the hypotheses
    # kernel_by_saturation checks
    kind, n = case.split()
    n = int(n)
    if kind == "phi":
        phi, minors, claimed = build_phi(n, n), presentation_minors(n, n), tangent_cox_ideal(n, n)
        weights = presentation_weights(n, n)
    else:
        phi, minors = gz.build_psi(n), gz.flag_minors(n)
        claimed = Ideal(phi.source, gz.flag_presentation(n, phi))
        weights = [1] * (n + 1) + [len(cols) for _, _, cols in minors]
    ring = phi.source
    swap, cycle = [1, 0] + list(range(2, n + 1)), [(j + 1) % (n + 1) for j in range(n + 1)]
    polys = claimed.gens + [f * f for f in claimed.gens[-4:]]
    for perm in (swap, cycle) if n == 4 else permutations(range(n + 1)):
        move = column_action(minors, perm)
        targets, signs = move
        assert sorted(targets) == list(range(ring.nvars)) and set(signs) <= {1, -1}
        assert [weights[k] for k in targets] == weights
        g = as_ring_map(ring, move)
        for f in polys:
            assert cox._permuted(f, move) == g(f), (perm, f)


@pytest.mark.parametrize("n", [2, 3])
def test_symmetry_certificate_rejects_a_wrong_w_sign(n):
    ring, minors = build_phi(n, n).source, presentation_minors(n, n)
    right = column_symmetries(minors, n)
    for k, g in enumerate(right):
        wrong = with_w_negated(g, ring)
        # beside the right pair, which carries x_0 to every x_j, and alone;
        # a sign moves no variable, so saturated reads as with g itself
        for symmetries, unsigned in ((right + [wrong], right), ([wrong], [g])):
            got = certificates(n, symmetries)
            assert got["symmetric"] is False, k
            assert got["contained"] and got["left_inverse"]
            assert got["saturated"] is certificates(n, unsigned)["saturated"]


def test_a_failed_certificate_fails_both_reports(monkeypatch):
    action, ring = cox.column_action, build_phi(2, 2).source

    def wrong(minors, perm):
        return with_w_negated(action(minors, perm), ring)

    monkeypatch.setattr(cox, "column_action", wrong)
    assert verify_kernel(2)["equal"] is False
    assert initial_comparison(2)["equal"] is False


def test_kernel_by_saturation_needs_a_positive_grading_of_j():
    claimed, phi, sigma, _, symmetries, order = proof_inputs(3, build_phi(3, 3))
    # det Y(j) has degree 3 and x_j W degree 2 in the standard grading
    with pytest.raises(ValueError, match="not homogeneous"):
        kernel_by_saturation(claimed, phi, sigma, [1] * claimed.ring.nvars, symmetries, order)
    with pytest.raises(ValueError, match="not positive"):
        kernel_by_saturation(claimed, phi, sigma, [0] * claimed.ring.nvars, symmetries, order)


def test_saturation_orders_are_built_once_per_ring_variable_and_weights():
    # cox.proof_order: one order per (weights, rows, last variable), the
    # ring read off the weights
    order = cox.proof_order((1, 2, 3), (), 0)
    assert cox.proof_order((1, 2, 3), (), 0) is order
    assert cox.proof_order((1, 2, 3), (), 1) is not order
    assert cox.proof_order((1, 1, 1), (), 0) is not order
    assert cox.proof_order((1, 2, 3), ((0, 0, -1),), 0) is not order
    # x^2 and y have weighted degree 2; with x last, the one without x leads
    assert order.key((0, 1, 0)) > order.key((2, 0, 0))


def test_delta_order_is_built_once_per_ring_and_keys_as_a_fresh_order():
    # tangent_kernel's order, which carries the -delta row, is built once
    # per ring and keys as a fresh order
    ring, weights = build_phi(2, 2).source, presentation_weights(2, 2)
    order = tangent_order(ring, weights)
    assert tangent_order(PolyRing(ring.names), weights) is order
    fresh, rng = poly.MatrixOrder(order.rows), random.Random(5)
    monomials = [tuple(rng.randrange(3) for _ in ring.names) for _ in range(50)]
    assert [order.key(m) for m in monomials] == [fresh.key(m) for m in monomials]


def test_the_proofs_leave_every_ring_map_image_as_it_was():
    # a power 1 is the image's own terms and sigma reads phi's images as
    # they are, so a proof that wrote to a term dict would change a map
    phi, psi = build_phi(3, 3), gz.build_psi(3)
    tables = [(phi, presentation_minors(3, 3)), (psi, gz.flag_minors(3))]
    sigmas = [minor_sigma(g, minors, 3) for g, minors in tables]
    actions = [column_symmetries(minors, 3) for _, minors in tables]
    power = phi.images["W"] ** 1
    polys = [img for g in [phi, psi, *sigmas] for img in g.images.values()] + [power]
    before = [dict(f.terms) for f in polys]
    verify_kernel(3)
    gz.psi_kernel(3)
    weights = presentation_weights(3, 3)
    kernel_by_saturation(
        tangent_cox_ideal(3, 3), phi, sigmas[0], weights, actions[0],
        tangent_order(phi.source, weights),
    )
    weights = [1] * 4 + [len(cols) for _, _, cols in gz.flag_minors(3)]
    kernel_by_saturation(
        Ideal(psi.source, gz.flag_presentation(3, psi)), psi, sigmas[1], weights, actions[1],
        gz.lead_order(psi, 3, weights),
    )
    gz.relation_families(3, psi)
    assert power * power == phi.images["W"] ** 2 and power ** 3 == phi.images["W"] ** 3
    assert power.terms is not phi.images["W"].terms
    assert [dict(f.terms) for f in polys] == before
    assert actions == [column_symmetries(minors, 3) for _, minors in tables]


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
def test_verify_kernel_saturates_x0_alone(saturated_names, n):
    assert verify_kernel(n, allow_large=True)["equal"]
    assert saturated_names == [("x0", "x0")]


@pytest.mark.parametrize("n", [2, 3])
def test_the_symmetries_decide_which_variables_are_saturated(saturated_names, n):
    names = saturated_names
    ring, minors = build_phi(n, n).source, presentation_minors(n, n)

    def free(j):  # x_0 last, x_0 and x_n alone of the x_j divide no lead
        return x_name(j) if j in (0, n) else None

    # no symmetry: each x_j is its own orbit, and x_1 divides a lead, so
    # saturated fails
    got = certificates(n, [])
    assert got["saturated"] is False and got["symmetric"]
    assert names == [(x_name(j), free(j)) for j in range(n + 1)]
    # the swap alone carries x_0 to x_1 only, and leaves x_2 alone: free at
    # n = 2, a lead's divisor at n = 3
    names.clear()
    got = certificates(n, column_symmetries(minors, n)[:1])
    assert got["saturated"] is (n == 2) and got["symmetric"]
    assert names == [("x0", "x0")] + [(x_name(j), free(j)) for j in range(2, n + 1)]


def test_the_symmetry_gate_passes_only_weight_keeping_bijections(saturated_names):
    # each map would carry x_0 to x_1, so a gate that let it through would
    # saturate the orbits of x0 and x2; the gate refuses it before anything
    # is saturated
    ring = build_phi(2, 2).source
    not_a_bijection = variable_move(ring, {"x0": "x1"})
    # Y1_0 weighs 2 and W weighs 3
    moves_weights = variable_move(ring, {"x0": "x1", "x1": "x0", "Y1_0": "W", "W": "Y1_0"})
    for move, message in ((not_a_bijection, "two variables to one"),
                          (moves_weights, "moves the weight of Y1_0, W")):
        with pytest.raises(ValueError, match=message):
            certificates(2, [move])
        assert saturated_names == []
    # signed permutations that keep the weights pass the gate and are
    # checked: x_0 and x_1 swapped, or x_0 negated, keep no Euler relation
    for move, names in ((variable_move(ring, {"x0": "x1", "x1": "x0"}),
                         [("x0", "x0"), ("x2", "x2")]),
                        (variable_move(ring, negated={"x0"}),
                         [("x0", "x0"), ("x1", None), ("x2", "x2")])):
        saturated_names.clear()
        assert certificates(2, [move])["symmetric"] is False
        assert saturated_names == names


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
                assert euler_minors(target, n, [(None, rows, cols)])[None] == want, (rows, cols)


def test_kernel_membership_and_nonmembership():
    phi = build_phi(2, 2)
    kernel = ring_map_kernel(phi)
    ring = phi.source
    order = grevlex(ring)
    gb = kernel.groebner(order)
    member = maximal_minors(ring, 2)[0] - ring.var("x0") * ring.var("W")
    assert not normal_form(member, gb, order)
    non_member = maximal_minors(ring, 2)[0]
    assert phi(non_member) != 0
    assert normal_form(non_member, gb, order)


def test_kernel_membership_agrees_with_evaluation():
    phi = build_phi(2, 2)
    kernel = ring_map_kernel(phi)
    ring = phi.source
    order = grevlex(ring)
    gb = kernel.groebner(order)
    rng = random.Random(29)
    checked = 0
    for _ in range(50):
        f = ring.zero()
        for _ in range(3):
            exps = [0] * ring.nvars
            for _ in range(rng.randrange(4)):
                exps[rng.randrange(ring.nvars)] += 1
            f = f + ring.monomial(exps, rng.randrange(-2, 3))
        in_kernel = not normal_form(f, gb, order)
        assert in_kernel == (phi(f) == 0)
        checked += 1
    assert checked == 50


def test_quiver_ideal_shape():
    q = quiver_ideal(2)
    assert len(q.gens) == 5


def test_delta_initial_contains_quiver_generators():
    for n in (2, 3):
        claimed = tangent_cox_ideal(n, n)
        w = delta_weights(claimed.ring)
        initial_gens = {
            poly.poly_to_text(weight_initial(g, w), grevlex(claimed.ring))
            for g in claimed.gens
        }
        quiver_gens = {
            poly.poly_to_text(g, grevlex(claimed.ring)) for g in quiver_ideal(n).gens
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


def proof_initial_forms(n):
    """The delta-initial forms of tangent_kernel's basis, as
    initial_comparison forms them, and the proof's order."""
    phi = build_phi(n, n)
    basis, order, _ = tangent_kernel(n, phi)
    delta = delta_weights(phi.source)
    return [weight_initial(g, delta) for g in basis], order


@pytest.mark.parametrize("n", [2, 3, 4])
def test_the_delta_initial_forms_are_a_basis_under_the_proof_order(n):
    # Prop. 1.13 of Sturmfels 1996: the order refines -delta within each
    # degree, so the delta-initial forms of its basis are a basis of
    # in_delta(J) under it
    forms, order = proof_initial_forms(n)
    assert is_groebner_basis(forms, order)


@pytest.mark.parametrize("n", [2, 3, 4])
def test_initial_comparison_dimension_matches_a_fresh_grevlex_basis(n):
    forms, _ = proof_initial_forms(n)
    ideal = Ideal(forms[0].ring, forms)
    assert initial_comparison(n)["dimension"] == zero_set_dimension(ideal)


@pytest.mark.parametrize("n", [2, 3, 4])
def test_initial_comparison_computes_two_bases(monkeypatch, n):
    # the kernel proof's basis and the quiver ideal's grevlex basis; the
    # initial forms are a basis already
    orders, buchberger = [], poly.buchberger

    def recorded(gens, order):
        orders.append(order.rows)
        return buchberger(gens, order)

    monkeypatch.setattr(poly, "buchberger", recorded)
    report = initial_comparison(n)
    ring = build_phi(n, n).source
    assert report["equal"]
    assert orders == [tangent_order(ring, presentation_weights(n, n)).rows, grevlex(ring).rows]


@pytest.mark.parametrize("change", ["dropped", "added"])
def test_initial_comparison_fails_on_a_changed_quiver_ideal(monkeypatch, change):
    # a dropped minor leaves a form outside the quiver ideal; an added x_0
    # lies outside in_delta(J), since x_0 divides no lead of the proof basis
    quiver = quiver_ideal(2)
    gens = quiver.gens[:-1] if change == "dropped" else quiver.gens + [quiver.ring.var("x0")]
    monkeypatch.setattr(cox, "quiver_ideal", lambda n: Ideal(quiver.ring, gens))
    assert not initial_comparison(2)["equal"]


def test_initial_forms_of_the_proof_basis_misread_the_dimension(monkeypatch):
    # the initial forms of the proof basis generate the quiver ideal, but
    # they are no grevlex basis at n = 3: their grevlex leads read one
    # dimension too many, and the suite check fails
    forms, _ = proof_initial_forms(3)
    leads = cox.leading_monomials

    def grevlex_leads(gens, order):
        return leads(gens, grevlex(gens[0].ring) if gens == forms else order)

    monkeypatch.setattr(cox, "leading_monomials", grevlex_leads)
    rep = initial_comparison(3)
    assert rep["equal"] and (rep["dimension"], rep["expected_dimension"]) == (14, 13)
    assert rep["generic_dimension"] == 13
    with pytest.raises(AssertionError, match="dimension 14 != 13 at n = 3"):
        suite.check_initial_ideal("full")


def test_euler_complete_intersection_codimension():
    # with m < n the zero set drops by exactly one dimension per generator
    for n in (2, 3):
        for m in range(1, n):
            ideal = tangent_cox_ideal(n, m)
            dim = zero_set_dimension(ideal)
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


@pytest.mark.parametrize("n, m", [(0, 1), (1, 0)])
def test_build_phi_refuses_n_or_m_below_1(n, m):
    # library-only: at the CLI tangent_cox_ideal's gate fires first
    with pytest.raises(ValueError, match="need n, m >= 1"):
        build_phi(n, m)


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
    ring = tangent_cox_ideal(2, 2).ring
    bad = ring.var("x0") + ring.var("W")
    with pytest.raises(ValueError):
        bidegrees(2, 2, [bad])


def test_bidegrees_read_both_rows():
    ring = tangent_cox_ideal(2, 2).ring
    x0, y, w = ring.var("x0"), ring.var("Y1_0"), ring.var("W")
    assert bidegrees(2, 2, [ring.zero()]) == [None]
    assert bidegrees(2, 2, [x0 * w + 2 * y * ring.var("Y1_1")]) == [(2, 2)]
    # both terms have Pic degree 0, only the Sym degrees 1 and 2 differ
    with pytest.raises(ValueError, match="not homogeneous"):
        bidegrees(2, 2, [x0 * y + x0 * x0 * x0 * w])


@pytest.mark.parametrize("n", [1, 2, 3])
def test_presentation_weights_are_minus_a_plus_3b(n):
    # x 1, Y 2, W 2n - 1, and every generator homogeneous for them
    weights = presentation_weights(n, n)
    assert weights == [1] * (n + 1) + [2] * (n * (n + 1)) + [2 * n - 1]
    cox.require_homogeneous(tangent_cox_ideal(n, n).gens, weights)
