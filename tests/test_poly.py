import random
from fractions import Fraction
from itertools import combinations

import pytest

from tvbcox import poly
from tvbcox.poly import (
    CapExceeded,
    Ideal,
    MatrixOrder,
    PolyRing,
    RingMap,
    buchberger,
    eliminate,
    elimination_order,
    grevlex,
    ideal_equal,
    is_groebner_basis,
    lex,
    membership_test,
    monomial_dimension,
    normal_form,
    poly_to_text,
    ring_map_kernel,
    symbolic_det,
    transplant,
    weight_initial,
)
from tvbcox.cox import (
    build_phi,
    delta_weights,
    lemma_ring,
    phi_target_ring,
    presentation_weights,
    proof_order,
    row_completing_order,
    yy_name,
)
from tvbcox.gz import diagonal_order
from tvbcox.linalg import rational_rank
from oracles import (
    block_greater,
    det_permutation_sum,
    from_terms,
    grevlex_greater,
    lex_greater,
    min_weight_greater,
    monomial_dimension_brute,
    normal_form_by_division,
    rows_by_polynomial_products,
)


@pytest.fixture
def xyz():
    return PolyRing(["x", "y", "z"])


def random_poly(ring, rng, max_degree=3, terms=4):
    out = ring.zero()
    for _ in range(terms):
        exps = [0] * ring.nvars
        for _ in range(rng.randrange(max_degree + 1)):
            exps[rng.randrange(ring.nvars)] += 1
        out = out + ring.monomial(exps, rng.randrange(-3, 4))
    return out


def test_arithmetic_basics(xyz):
    x, y, z = xyz.gens()
    assert (x + y) * (x - y) == x * x - y * y
    assert (x + 1) ** 3 == x**3 + 3 * x * x + 3 * x + 1
    assert x - x == xyz.zero()
    assert not xyz.zero()


def test_laurent_monomial_arithmetic(xyz):
    x, y, _ = xyz.gens()
    inv = x ** (-1)
    assert inv * x == xyz.one()
    assert (y * inv) * x == y


def test_negative_powers_invert_only_unit_monomials(xyz):
    x, y, _ = xyz.gens()
    assert (-x * y ** -2) ** -3 == xyz.monomial([-3, 6, 0], -1)
    assert (-x) ** -2 == xyz.monomial([-2, 0, 0])
    for f in (2 * x, x + y, xyz.zero()):
        with pytest.raises(ValueError, match="negative power of a non-unit"):
            f ** -1


def test_powers_take_int_exponents_only(xyz):
    x, y, _ = xyz.gens()
    for f in (x, x + y):
        for k in (0.5, 2.0, Fraction(1, 2)):
            with pytest.raises(TypeError):
                f ** k


def test_the_zeroth_power_is_one(xyz):
    x, y, _ = xyz.gens()
    for f in (x, 2 * x - y, x ** -1, xyz.zero()):
        assert f ** 0 == xyz.one()


def test_products_by_zero_and_across_rings(xyz):
    x, y, _ = xyz.gens()
    f = x * y - 3
    for zero in (0, Fraction(0), xyz.zero()):
        for product in (f * zero, zero * f):
            assert product.terms == {} and product.ring == xyz
    with pytest.raises(ValueError, match="polynomials from different rings"):
        f * PolyRing(["x", "y"]).var("x")


@pytest.mark.parametrize("op", ["+", "-", "*"])
def test_arithmetic_refuses_operands_that_are_not_polynomials_or_rationals(xyz, op):
    # a bool is refused too, not taken as 0 or 1; ints and Fractions are
    # constants, on either side
    x = xyz.var("x")
    apply = {"+": lambda a, b: a + b, "-": lambda a, b: a - b, "*": lambda a, b: a * b}[op]
    for other in (1.5, True, False, "x", None, [1]):
        with pytest.raises(TypeError):
            apply(x, other)
        with pytest.raises(TypeError):
            apply(other, x)
    for c in (2, Fraction(2, 3)):
        assert apply(x, c) == apply(x, xyz.const(c)) and apply(c, x) == apply(xyz.const(c), x)


def test_a_bool_is_not_a_constant_in_a_comparison(xyz):
    # == takes ints and Fractions as constants, as + - * do, and a bool as
    # neither
    one, zero = xyz.one(), xyz.zero()
    assert one == 1 and zero == 0 and xyz.const(Fraction(1, 2)) == Fraction(1, 2)
    assert not one == True and one != True
    assert not zero == False and zero != False


def test_exponents_write_a_monomial_by_name(xyz):
    assert xyz.exponents({"z": 2, "x": -1}) == (-1, 0, 2)
    assert xyz.exponents({}) == (0, 0, 0)
    assert xyz.var("y").terms == {(0, 1, 0): 1}
    with pytest.raises(KeyError):
        xyz.exponents({"w": 1})


# what the operators refuse: a float's binary value, a bool and a string
# that Fraction would parse
NOT_COEFFICIENTS = [0.1, 0.5, True, False, "1/2"]


@pytest.mark.parametrize("c", NOT_COEFFICIENTS, ids=repr)
def test_const_takes_only_an_int_or_a_fraction(xyz, c):
    with pytest.raises(TypeError, match=f"not {type(c).__name__}"):
        xyz.const(c)


@pytest.mark.parametrize("c", NOT_COEFFICIENTS, ids=repr)
def test_monomial_takes_only_an_int_or_a_fraction(xyz, c):
    with pytest.raises(TypeError, match=f"not {type(c).__name__}"):
        xyz.monomial([1, 0, 2], c)


def test_products_and_powers_have_fraction_coefficients(xyz):
    x, y, _ = xyz.gens()
    f = x * Fraction(1, 2) - 2 * y
    for g in (f * f, f * 2, 3 * f, f * Fraction(2, 3), f**3, (-x) ** -3, f**0):
        # exact, in one representation: an int when integral, else a Fraction
        assert g and all(
            type(c) is int or type(c) is Fraction and c.denominator != 1 for c in g.terms.values()
        )


def test_an_integral_fraction_builds_the_polynomial_an_int_does(xyz):
    x, y, _ = xyz.gens()
    built = [
        (xyz.const(Fraction(2)), xyz.const(2)),
        (xyz.monomial([1, 0, 0], Fraction(4, 2)), xyz.monomial([1, 0, 0], 2)),
        (from_terms(xyz, [((0, 1, 0), Fraction(2)), ((0, 1, 0), 0)]), 2 * y),
        (x * Fraction(2) + Fraction(2), x * 2 + 2),
        (x * Fraction(1, 2) + x * Fraction(3, 2), 2 * x),
        ((4 * x + 2 * y).monic(lex(xyz, xyz.names)) * Fraction(4), 4 * x + 2 * y),
    ]
    for a, b in built:
        assert a == b and hash(a) == hash(b) and poly_to_text(a) == poly_to_text(b)
        assert all(type(c) is int for c in a.terms.values()), a


def test_lex_and_grevlex_keys(xyz):
    x, y, z = xyz.gens()
    o_lex = lex(xyz, xyz.names)
    assert (x * z).leading_term(o_lex)[0] == (1, 0, 1)
    o_grevlex = grevlex(xyz)
    # same degree: y^2 beats x z in grevlex
    f = x * z + y * y
    assert f.leading_term(o_grevlex)[0] == (0, 2, 0)
    g = x * x * y + x * y * y
    assert g.leading_term(o_grevlex)[0] == (2, 1, 0)


def test_weight_order_minimize(xyz):
    x, y, _ = xyz.gens()
    o = MatrixOrder(((-1, 0, 0),) + grevlex(xyz).rows)  # the row -w, then grevlex
    f = x + y  # weight 1 vs 0; minimal-weight convention leads with y
    assert f.leading_term(o)[0] == (0, 1, 0)


def test_order_keys_match_textbook_comparators():
    rng = random.Random(17)
    ring = PolyRing(["a", "b", "c", "d", "e", "W", "W_12"])
    names = ring.names
    every = list(range(ring.nvars))
    weights = delta_weights(ring)
    for _ in range(30):
        perm = rng.sample(every, len(every))
        drop = rng.sample(every, rng.randrange(1, len(every)))
        keep = [i for i in every if i not in drop]
        scaled = [rng.randrange(-3, 4) for _ in every]
        elim = elimination_order(ring, [names[i] for i in drop])
        cases = [
            (lex(ring, [names[i] for i in perm]), lambda a, b: lex_greater(a, b, perm)),
            (grevlex(ring), lambda a, b: grevlex_greater(a, b, every)),
            # with every variable dropped the one block is grevlex over perm
            (
                elimination_order(ring, [names[i] for i in perm]),
                lambda a, b: grevlex_greater(a, b, perm),
            ),
            (elim, lambda a, b: block_greater(a, b, [drop, keep])),
            (
                MatrixOrder(([-w for w in weights],) + grevlex(ring).rows),
                lambda a, b: min_weight_greater(
                    a, b, weights, lambda a, b: grevlex_greater(a, b, every)
                ),
            ),
            (
                MatrixOrder(([-w for w in scaled],) + grevlex(ring).rows),
                lambda a, b: min_weight_greater(
                    a, b, scaled, lambda a, b: grevlex_greater(a, b, every)
                ),
            ),
        ]
        for _ in range(40):
            a = tuple(rng.randrange(3) for _ in every)
            b = tuple(rng.randrange(3) for _ in every)
            for order, greater in cases:
                assert (order.key(a) > order.key(b)) == greater(a, b)
                assert (order.key(a) == order.key(b)) == (a == b)
            # the elimination property: meeting the dropped block wins
            if any(a[i] for i in drop) and not any(b[i] for i in drop):
                assert elim.key(a) > elim.key(b)


def test_every_order_the_package_builds_has_full_column_rank():
    phi = build_phi(3, 3)
    source, target = phi.source, phi.target
    graph = PolyRing(source.names + target.names)
    cases = [
        (source, grevlex(source)),
        (source, lex(source, source.names)),
        (graph, elimination_order(graph, target.names)),
        (source, proof_order(
            tuple(presentation_weights(3, 3)), (tuple(-w for w in delta_weights(source)),), 0
        )),
        (lemma_ring(3), row_completing_order(lemma_ring(3), 3)),
        (phi_target_ring(3, 2), diagonal_order(phi_target_ring(3, 2), 3)),
    ]
    for ring, order in cases:
        assert rational_rank(order.rows) == ring.nvars


def test_order_matrix_without_full_column_rank_is_rejected(xyz):
    # two monomials would share a key: y and 1 under lex on x and z
    with pytest.raises(ValueError, match="rank 2 < 3 columns"):
        lex(xyz, ["x", "z"])
    # degree, twice the degree, then -z: x and y tie
    with pytest.raises(ValueError, match="rank 2 < 3 columns"):
        MatrixOrder([[1, 1, 1], [2, 2, 2], [0, 0, -1]])


def test_an_order_past_the_cap_is_refused_before_its_rank_check():
    # one row of ones: at the cap the rank check runs and refuses it, one
    # variable past the cap the count does, with no rank taken
    cap = poly.ORDER_CAP
    with pytest.raises(ValueError, match=f"rank 1 < {cap} columns"):
        MatrixOrder([[1] * cap])
    with pytest.raises(poly.CapExceeded, match=f"an order on {cap + 1} variables") as exc:
        MatrixOrder([[1] * (cap + 1)])
    assert exc.value.size == cap + 1


def test_order_matrix_entries_must_be_ints():
    # an entry is taken as given, never truncated: 3/2 is not 1, 2.7 not 2
    with pytest.raises(ValueError, match=r"matrix entry Fraction\(3, 2\) is not an int"):
        MatrixOrder([[Fraction(3, 2), 0], [0, 1]])
    with pytest.raises(ValueError, match="matrix entry 2.7 is not an int"):
        MatrixOrder([[2.7, 0], [0, 1]])


def test_normal_form_examples(xyz):
    x, y, z = xyz.gens()
    o = lex(xyz, xyz.names)
    assert normal_form(x, [x], o) == xyz.zero()
    assert normal_form(x * x, [x - y], o) == y * y
    # pre-GB division is path dependent; the deterministic path gives x
    assert normal_form(x * x * y, [x * y - 1, x * x], o) == x


def test_buchberger_already_basis(xyz):
    x, y, z = xyz.gens()
    o = lex(xyz, xyz.names)
    gb = buchberger([x - y, y - z], o)
    # the lead terms x and y are coprime, so no S-pair is formed; only tail
    # reduction turns x - y into x - z
    assert gb == [y - z, x - z]
    assert ideal_equal(Ideal(xyz, gb), Ideal(xyz, [x - y, y - z]))
    assert is_groebner_basis(gb, o)


def test_buchberger_cusp_kernel():
    ring = PolyRing(["t", "a", "b"])
    t, a, b = ring.gens()
    o = lex(ring, ring.names)
    gb = buchberger([a - t * t, b - t * t * t], o)
    cusp = a**3 - b * b
    assert not normal_form(cusp, gb, o)
    assert any(g == cusp.monic(o) for g in gb)


def test_is_groebner_basis_examples(xyz):
    x, y, z = xyz.gens()
    o = lex(xyz, xyz.names)
    assert is_groebner_basis([x, y], o)
    assert not is_groebner_basis([x * y - 1, x * x], o)


def test_normal_form_well_defined_after_buchberger(xyz):
    x, y, z = xyz.gens()
    o = grevlex(xyz)
    gb = buchberger([x * x - y, y * y - z, x * z - 1], o)
    rng = random.Random(23)
    for _ in range(100):
        f = random_poly(xyz, rng, max_degree=4)
        shuffled = gb[:]
        rng.shuffle(shuffled)
        assert normal_form(f, gb, o) == normal_form(f, shuffled, o)


def test_eliminate_cusp():
    ring = PolyRing(["t", "a", "b"])
    t, a, b = ring.gens()
    ideal = Ideal(ring, [a - t * t, b - t * t * t])
    dropped = eliminate(ideal, ["t"])
    assert len(dropped.gens) == 1
    assert dropped.gens[0] == (a**3 - b * b).monic(grevlex(ring))


def test_eliminate_nothing(xyz):
    x, y, _ = xyz.gens()
    ideal = Ideal(xyz, [x * y - 1])
    assert ideal_equal(eliminate(ideal, []), ideal)


def test_eliminate_idempotent(xyz):
    x, y, z = xyz.gens()
    ideal = Ideal(xyz, [x * x - y])
    once = eliminate(ideal, ["z"])
    twice = eliminate(once, ["z"])
    assert ideal_equal(once, twice)


def test_weight_initial_examples(xyz):
    x, y, z = xyz.gens()
    assert weight_initial(x * y, [1, 0, 0]) == x * y
    f = x + y + z
    assert weight_initial(f, [1, 0, 0]) == y + z
    g = x * y + y * z  # both weight 1 under x,z -> 1? choose all-equal weights
    assert weight_initial(g, [0, 0, 0]) == g


def test_weight_initial_multiplicative(xyz):
    rng = random.Random(5)
    w = [2, 0, 1]
    for _ in range(60):
        f = random_poly(xyz, rng)
        g = random_poly(xyz, rng)
        if not f or not g:
            continue
        assert weight_initial(f * g, w) == weight_initial(f, w) * weight_initial(g, w)


def test_monomial_dimension_examples():
    assert monomial_dimension([(1, 1, 0)], 3) == 2
    assert monomial_dimension([(1, 0, 0), (0, 1, 0), (0, 0, 1)], 3) == 0
    assert monomial_dimension([], 4) == 4


def test_monomial_dimension_matches_brute():
    rng = random.Random(31)
    for _ in range(60):
        nvars = rng.randrange(1, 13)
        gens = []
        for _ in range(rng.randrange(1, 7)):
            exps = [0] * nvars
            for _ in range(rng.randrange(1, 4)):
                exps[rng.randrange(nvars)] += 1
            gens.append(tuple(exps))
        assert monomial_dimension(gens, nvars) == monomial_dimension_brute(gens, nvars)


def test_symbolic_det_examples(xyz):
    x, y, z = xyz.gens()
    assert symbolic_det([[x]]) == x
    ring = PolyRing(["Y11", "Y12", "Y21", "Y22"])
    a, b, c, d = ring.gens()
    assert symbolic_det([[a, b], [c, d]]) == a * d - b * c


def test_symbolic_det_repeated_row_is_zero(xyz):
    x, y, z = xyz.gens()
    m = [[x, y, z], [x, y, z], [z, x, y]]
    assert symbolic_det(m) == xyz.zero()


def test_symbolic_det_matches_permutation_sum(xyz):
    rng = random.Random(43)
    for side in (2, 3, 4):
        for _ in range(8):
            m = [
                [random_poly(xyz, rng, max_degree=1, terms=2) for _ in range(side)]
                for _ in range(side)
            ]
            expected = det_permutation_sum(m)
            assert symbolic_det(m) == expected


def test_symbolic_det_cap():
    ring = PolyRing([f"a{i}" for i in range(9)])
    gens = ring.gens()
    with pytest.raises(CapExceeded) as exc:
        symbolic_det([[gens[0]] * 7] * 7)
    assert exc.value.size == 7
    with pytest.raises(ValueError):
        symbolic_det([[gens[0], gens[1]]])


def euler_rows(n):
    """The n x (n + 1) matrix of the presentation target whose column 0 is
    -sum_j y_ij and whose column j is y_ij."""
    target = phi_target_ring(n, n)
    y = [[target.var(yy_name(i, j)) for j in range(1, n + 1)] for i in range(1, n + 1)]
    return [[-sum(r, target.zero())] + r for r in y]


def integer_matrix(rng, nrows, ncols, ring):
    return [[ring.const(rng.choice([0, 0, 1, -1, 2, -3, 5])) for _ in range(ncols)]
            for _ in range(nrows)]


def test_leading_minors_match_the_permutation_sum(xyz):
    rng = random.Random(38)
    matrices = [integer_matrix(rng, r, c, xyz)
                for r in range(1, 5) for c in range(1, 6) for _ in range(3)]
    matrices += [[[random_poly(xyz, rng, max_degree=1, terms=2) for _ in range(4)]
                  for _ in range(3)]]
    matrices += [euler_rows(n) for n in (2, 3, 4)]
    for rows in matrices:
        minors = poly.leading_minors(rows)
        ncols, side = len(rows[0]), min(len(rows), len(rows[0]))
        expected = {cols: det_permutation_sum([[r[c] for c in cols] for r in rows[:k]])
                    for k in range(1, side + 1) for cols in combinations(range(ncols), k)}
        assert minors == expected


def test_leading_minors_gates(xyz, monkeypatch):
    x, y, _ = xyz.gens()

    def no_product(a, b):
        raise AssertionError("a product was taken before the cap was checked")

    monkeypatch.setattr(poly, "_times", no_product)
    # side 7 over DET_SIDE_CAP, and 2 x 45 with 45 + 990 minors over MINOR_CAP
    with pytest.raises(CapExceeded, match="determinant side 7 exceeds cap 6") as exc:
        poly.leading_minors([[x] * 8] * 7)
    assert exc.value.size == 7
    with pytest.raises(CapExceeded, match="1035 minors on 45 columns, over the cap 1024") as exc:
        poly.leading_minors([[x] * 45] * 2)
    assert exc.value.size == 1035
    # 2 x 44 has 44 + 946 = 990 minors, under the cap: the first product is taken
    with pytest.raises(AssertionError, match="a product was taken"):
        poly.leading_minors([[x] * 44] * 2)


def test_buchberger_cap_exceeded(xyz, monkeypatch):
    x, y, z = xyz.gens()
    monkeypatch.setattr(poly, "DEGREE_CAP", 2)
    with pytest.raises(CapExceeded) as info:
        buchberger([x * y - z, y * z - x, x * z - y], grevlex(xyz))
    assert info.value.degree is not None


def test_buchberger_basis_cap_exceeded(xyz, monkeypatch):
    x, y, z = xyz.gens()
    monkeypatch.setattr(poly, "BASIS_CAP", 3)
    with pytest.raises(CapExceeded) as info:
        buchberger([x * y - z, y * z - x, x * z - y], grevlex(xyz))
    assert info.value.size == 3


def test_engine_entry_points_reject_laurent_input(xyz):
    x, y, z = xyz.gens()
    laurent = x**-1 + y
    o = grevlex(xyz)
    calls = [
        lambda: normal_form(laurent, [y - z], o),
        lambda: normal_form(x * y, [laurent], o),
        lambda: buchberger([y - z, laurent], o),
        lambda: is_groebner_basis([y - z, laurent], o),
        lambda: Ideal(xyz, [y - z, laurent]).groebner(o),
    ]
    for call in calls:
        with pytest.raises(ValueError, match="Laurent"):
            call()


def test_elimination_order_blocks(xyz):
    o = elimination_order(xyz, ["y"])
    x, y, z = xyz.gens()
    # any monomial containing y beats any monomial that avoids it
    assert o.key((0, 1, 0)) > o.key((5, 0, 5))


def test_ring_map_kernel_laurent():
    source = PolyRing(["a", "b"])
    target = PolyRing(["t"])
    t = target.var("t")
    phi = RingMap(source, target, {"a": t ** (-1), "b": t * t})
    kernel = ring_map_kernel(phi)
    a, b = source.gens()
    expected = (a * a * b - 1).monic(grevlex(source))
    assert ideal_equal(kernel, Ideal(source, [expected]))


def test_ring_map_kernel_needs_a_carrier_for_each_inverse():
    # t appears inverted, but no source variable maps to exactly t^-1
    source = PolyRing(["a", "b"])
    target = PolyRing(["s", "t"])
    s, t = target.gens()
    phi = RingMap(source, target, {"a": s * t ** (-1), "b": s})
    with pytest.raises(ValueError, match="inverse of t"):
        ring_map_kernel(phi)


def test_ring_map_apply():
    source = PolyRing(["u", "v"])
    target = PolyRing(["s"])
    s = target.var("s")
    phi = RingMap(source, target, {"u": s * s, "v": s**3})
    u, v = source.gens()
    assert phi(u * v) == s**5
    assert phi(u**3 - v * v) == target.zero()


def test_substitute_needs_an_image():
    u, _ = PolyRing(["u", "v"]).gens()
    with pytest.raises(ValueError, match="no images given"):
        u.substitute([None, None])


def test_substitute_needs_images_only_for_occurring_variables():
    source, target = PolyRing(["u", "v"]), PolyRing(["s"])
    u, v = source.gens()
    s = target.var("s")
    assert (3 * u * u).substitute([s + 1, None]) == 3 * (s + 1) ** 2
    with pytest.raises(ValueError, match="no image for variable v"):
        (u + v).substitute([s, None])


def test_substitute_inverts_only_units():
    source, target = PolyRing(["u", "v"]), PolyRing(["s", "t"])
    u, v = source.gens()
    s, t = target.gens()
    assert (u ** -2 * v).substitute([-s * t ** -1, t]) == s ** -2 * t**3
    for image in (2 * s, s + t, target.zero()):
        with pytest.raises(ValueError, match="negative power of a non-unit"):
            (u ** -1).substitute([image, t])


def test_substitute_rejects_images_from_two_rings():
    # images from rings of different sizes: their exponent tuples must not
    # be added pairwise, which would truncate the longer one
    source = PolyRing(["u", "v"])
    u, v = source.gens()
    small, large = PolyRing(["s"]), PolyRing(["s", "t"])
    for images in ([small.var("s"), large.var("t")], [large.var("s"), small.var("s")]):
        for f in (u * v, u, v, source.zero()):
            with pytest.raises(ValueError, match="different rings"):
                f.substitute(images)


def test_substitute_maps_zero_to_the_target_zero():
    source, target = PolyRing(["u"]), PolyRing(["s", "t"])
    image = target.var("s")
    assert source.zero().substitute([image]) == target.zero()
    assert source.zero().substitute([image]).ring == target
    u = source.var("u")
    phi = RingMap(source, target, {"u": image})
    assert phi(source.zero()) == target.zero()
    # terms that cancel in the target leave its zero, not a zero coefficient
    assert (u * u - u).substitute([target.one()]).terms == {}


def test_transplant_matches_variables_by_name(xyz):
    other = PolyRing(["z", "y", "x", "w"])
    x, y, z = xyz.gens()
    f = x * y - 2 * z
    g = transplant(f, other)
    assert g == other.var("x") * other.var("y") - 2 * other.var("z")
    assert transplant(g, xyz) == f


def test_text_roundtrip(xyz):
    """The text form, read by sympy with ^ as **, gives the polynomial back."""
    sympy = pytest.importorskip("sympy")
    syms = sympy.symbols(xyz.names)
    names = dict(zip(xyz.names, syms))
    rng = random.Random(3)
    o = grevlex(xyz)
    for _ in range(50):
        f = random_poly(xyz, rng)
        text = poly_to_text(f, o).replace("^", "**")
        parsed = sympy.Poly(sympy.sympify(text, locals=names), *syms)
        assert from_terms(xyz, ((m, Fraction(c.p, c.q)) for m, c in parsed.terms())) == f
    assert poly_to_text(xyz.zero(), o) == "0"


def test_grevlex_is_built_once_per_ring():
    a, b = PolyRing(["x", "y", "z"]), PolyRing(["x", "y", "z"])
    assert a is not b
    assert grevlex(a) is grevlex(b)
    assert grevlex(a) is not grevlex(PolyRing(["x", "y"]))


def test_rings_built_apart_compare_equal_and_hash_alike():
    a, b = PolyRing(("x", "y")), PolyRing(("x", "y"))
    assert a is not b and a == b and hash(a) == hash(b)
    assert a != PolyRing(("y", "x")) and a != ("x", "y")


def test_ideal_equal_scaling(xyz):
    x, y, _ = xyz.gens()
    assert ideal_equal(Ideal(xyz, [x - y]), Ideal(xyz, [2 * x - 2 * y]))
    assert not ideal_equal(Ideal(xyz, [x]), Ideal(xyz, [y]))


# ---------------------------------------------------------------------------
# the engine's inputs: one ring, and exponents past the packed fields


TWO_RINGS = {
    "normal_form": lambda f, g, order: normal_form(f, [g], order),
    "membership_test": lambda f, g, order: membership_test([f, g], order),
    "the membership test": lambda f, g, order: membership_test([f], order)(g),
    "buchberger": lambda f, g, order: buchberger([f, g], order),
    "is_groebner_basis": lambda f, g, order: is_groebner_basis([f, g], order),
    "product_rows": lambda f, g, order: poly.product_rows([f, g], [[(0, 1)]], order),
}


@pytest.mark.parametrize("entry", TWO_RINGS)
def test_engine_entry_points_reject_a_second_ring_and_a_foreign_order(entry):
    r2, r3 = PolyRing(["x", "y"]), PolyRing(["x", "y", "z"])
    (x, y), (a, _, c) = r2.gens(), r3.gens()
    call = TWO_RINGS[entry]
    with pytest.raises(ValueError, match=r"different rings: PolyRing\(x, y\), PolyRing\(x, y, z\)"):
        call(x * y, a - c, grevlex(r2))
    with pytest.raises(ValueError, match=r"an order on 3 variables for PolyRing\(x, y\)"):
        call(x * y, x - y, grevlex(r3))


def test_exponents_past_the_first_field_width():
    ring = PolyRing(["x", "y"])
    x, y = ring.gens()
    # hand-checked: one generator is its own reduced basis; y - x^k reduces
    # y^2 - x to x^(2k) - x, and the two leads are coprime
    assert buchberger([x**200 - y], lex(ring, ["x", "y"])) == [x**200 - y]
    yx = lex(ring, ["y", "x"])
    assert buchberger([y - x**200, y**2 - x], yx) == [x**400 - x, y - x**200]
    # inputs inside the one-byte fields, a basis outside them
    assert buchberger([y - x**100, y**2 - x], yx) == [x**200 - x, y - x**100]
    assert not is_groebner_basis([y - x**200, y**2 - x], yx)
    assert is_groebner_basis([x**400 - x, y - x**200], yx)
    # x^400 - y^2 = (x^200 - y)(x^200 + y)
    in_ideal = membership_test([x**200 - y], lex(ring, ["x", "y"]))
    assert in_ideal(x**400 - y**2) and not in_ideal(x**400 - y)
    for order, greater in ((grevlex(ring), lambda a, b: grevlex_greater(a, b, range(2))),
                           (yx, lambda a, b: lex_greater(a, b, [1, 0]))):
        for f, gens in ((x**300, [x**2 - y]), (x**3 * y**130, [x * y - 1, y**129 - x**40])):
            assert normal_form(f, gens, order) == normal_form_by_division(f, gens, greater)
    with pytest.raises(CapExceeded):
        normal_form(x ** (2**31), [x - y], grevlex(ring))


def test_exponents_that_outgrow_their_fields_mid_buchberger():
    """z -> z^45 keeps every lex comparison, divisibility and lcm, so it
    carries the reduced lex basis of gens to that of the images.  The
    images have exponents below 128, their bases exponents past it."""
    ring = PolyRing(["x", "y", "z"])
    x, y, z = ring.gens()
    for gens in ([x * y - z**2, x * z - y**2], [x**2 * y - z**2, x * z - y**3 + z]):
        order = lex(ring, ring.names)
        images = [g.substitute([x, y, z**45]) for g in gens]
        basis = buchberger(images, order)
        assert max(e for g in images for m in g.terms for e in m) < 128
        assert max(e for g in basis for m in g.terms for e in m) >= 128
        assert sorted(order.packings) == [1, 2]  # the one-byte run was started over
        assert basis == [g.substitute([x, y, z**45]) for g in buchberger(gens, order)]


def test_product_rows_match_polynomial_products():
    ring = PolyRing(["x", "y", "z"])
    x, y, z = ring.gens()
    rng = random.Random(41)
    factors = [random_poly(ring, rng) for _ in range(6)] + [x - y, x + y, ring.zero(), 3 * z]
    pairs = list(combinations(range(len(factors)), 2)) + [(i, i) for i in range(len(factors))]
    groups = [pairs[:7], pairs[7:20], pairs[20:], [(7, 6), (6, 7)], []]
    for order in (grevlex(ring), lex(ring, ["z", "x", "y"]), elimination_order(ring, ["y"])):
        assert poly.product_rows(factors, groups, order) == rows_by_polynomial_products(
            factors, groups, order.key)
    # (x - y)(x + y) = x^2 - y^2: the cancelled xy is no column
    assert poly.product_rows([x - y, x + y], [[(0, 1)]], lex(ring, ring.names)) == [[[-1, 1]]]


def test_product_rows_restart_when_a_product_outgrows_its_field():
    ring = PolyRing(["x", "y", "z"])
    x, y, z = ring.gens()
    # every factor's exponents fit one byte, the products' pass 127
    factors = [x**100 * y - z, x**60 + y**127 * z, 2 * y**90 - x * z**3]
    groups = [[(0, 1), (1, 2), (0, 2)], [(1, 1), (0, 0)]]
    assert max(e for f in factors for m in f.terms for e in m) < 128
    order = lex(ring, ring.names)
    assert poly.product_rows(factors, groups, order) == rows_by_polynomial_products(
        factors, groups, order.key)
    assert sorted(order.packings) == [1, 2]  # the one-byte run was started over
    with pytest.raises(CapExceeded):
        poly.product_rows([x ** (2**30)], [[(0, 0)]], grevlex(ring))
    with pytest.raises(ValueError, match="Laurent"):
        poly.product_rows([x * y, x**-1], [[(0, 1)]], grevlex(ring))


def test_order_rows_with_entries_near_2_to_the_30():
    ring = PolyRing(["x", "y", "z"])
    x, y, z = ring.gens()
    order = MatrixOrder([[2**30, 2**30 - 1, 1], [0, 0, -1], [0, -1, 0]])

    def greater(a, b):
        return order.key(a) > order.key(b)

    rng = random.Random(30)
    for _ in range(20):
        gens = [random_poly(ring, rng) for _ in range(2)]
        f = random_poly(ring, rng, max_degree=5)
        assert normal_form(f, gens, order) == normal_form_by_division(f, gens, greater)
    f, gens = x**140 * y + z**300, [x * y - z**3, y**2 - z]
    assert normal_form(f, gens, order) == normal_form_by_division(f, gens, greater)
    gens = [x * y - z**3, x**2 - y * z, y**2 - x * z]
    basis = buchberger(gens, order)
    assert all(not normal_form_by_division(g, basis, greater) for g in gens)


@pytest.mark.parametrize("size", [1, 2, 4])
def test_packed_monomials_compare_as_their_keys(size):
    ring = PolyRing(["x0", "x1", "W0", "W1", "y"])
    orders = [
        grevlex(ring),
        lex(ring, ["y", "W1", "x0", "W0", "x1"]),
        elimination_order(ring, ["x1", "W0"]),
        proof_order((1, 2, 3, 1, 2), (), 2),
        # the row -delta on top of grevlex: its first row is negative
        MatrixOrder(([-w for w in delta_weights(ring)],) + grevlex(ring).rows),
    ]
    top = (1 << 8 * size - 1) - 1
    rng = random.Random(size)
    for order in orders:
        p = poly._Packing(order, size)
        for _ in range(100):
            a, b = (tuple(rng.choice([0, 1, 2, top, rng.randrange(top + 1)]) for _ in range(5))
                    for _ in "ab")
            assert p.exponents(p.pack(a)) == a
            assert (p.pack(a) < p.pack(b)) == (order.key(a) < order.key(b))
            assert (p.pack(a) == p.pack(b)) == (a == b)
            # the engine's shift arithmetic: lcm = a + b - gcd, packed alike
            lcm, gcd = tuple(map(max, a, b)), tuple(map(min, a, b))
            assert p.pack(a) + p.pack(b) - p.pack(gcd) == p.pack(lcm)
            assert p.lcm(p.pack(a) & p.emask, p.pack(b) & p.emask) == p.pack(lcm) & p.emask
        with pytest.raises(poly._Overflow):
            p.terms(ring.monomial([0, top + 1, 0, 0, 0]))
        with pytest.raises(ValueError, match="Laurent"):
            p.terms(ring.monomial([0, 0, -1, 0, 0]))


# ---------------------------------------------------------------------------
# the input gates of poly


def _gates():
    xyz, uv = PolyRing(["x", "y", "z"]), PolyRing(["u", "v"])
    x, y, _ = xyz.gens()
    u, v = uv.gens()
    return {
        "duplicate names": (lambda: PolyRing(["x", "y", "x"]), "duplicate variable names"),
        "monomial length": (lambda: xyz.monomial([1, 2]), "exponent vector length mismatch"),
        "Ideal ring": (lambda: Ideal(xyz, [x, u]), "generator from the wrong ring"),
        "ideal_equal rings": (lambda: ideal_equal(Ideal(xyz, [x]), Ideal(uv, [u])),
                              "ideals in different rings"),
        "det side 0": (lambda: symbolic_det([]), "empty matrix"),
        "det not square": (lambda: symbolic_det([[x, y], [y]]), "matrix is not square"),
        "minors no rows": (lambda: poly.leading_minors([]), "empty matrix"),
        "minors no columns": (lambda: poly.leading_minors([[], []]), "empty matrix"),
        "minors ragged": (lambda: poly.leading_minors([[x, y], [y]]), "ragged matrix"),
        "minors rings": (lambda: poly.leading_minors([[x, u]]), "polynomials from different rings"),
        "RingMap missing image": (lambda: RingMap(uv, xyz, {"u": x}), r"no image for \['v'\]"),
        "RingMap image ring": (lambda: RingMap(uv, xyz, {"u": x, "v": v}),
                               "image of v lives in the wrong ring"),
        "RingMap argument ring": (lambda: RingMap(uv, xyz, {"u": x, "v": y})(x),
                                  "argument from the wrong ring"),
        "eliminate unknown name": (lambda: poly.eliminate(Ideal(xyz, [x]), ["z", "w"]),
                                   r"unknown variables: \['w'\]"),
        "transplant missing variable": (lambda: poly.transplant(x * y + 1, PolyRing(["y"])),
                                        "variable x missing from target ring"),
    }


@pytest.mark.parametrize("gate", list(_gates()))
def test_poly_input_gates_refuse_bad_input(gate):
    call, message = _gates()[gate]
    with pytest.raises(ValueError, match=message):
        call()
