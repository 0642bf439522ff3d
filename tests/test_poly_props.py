"""Hypothesis properties of the Groebner engine, and of cox._permuted,
the signed permutations the kernel proofs apply, against substitution.

The inputs stay small (3 variables, up to 3 generators of up to 3 terms of
degree at most 2; the division check also uses 6 of 70 variables, so that
packed monomials reach far past 64 bits) so that every example runs in
milliseconds.  The engine's parts run on packed terms: each test packs its
inputs with the engine's packing of the order and unpacks what it
compares.  Runs are derandomized, so the suite gives the same verdict on
every run.
"""

import itertools
from fractions import Fraction
from functools import partial
from heapq import heappop
from operator import add, sub

import pytest

pytest.importorskip("hypothesis")

from hypothesis import example, given, settings
from hypothesis import strategies as st

from tvbcox.cox import _permuted
from tvbcox.poly import (
    Ideal,
    MatrixOrder,
    PolyRing,
    RingMap,
    buchberger,
    elimination_order,
    grevlex,
    ideal_equal,
    is_groebner_basis,
    lex,
    normal_form,
    ring_map_kernel,
    _Packing,
    _divisor,
    _prune_pairs,
    _queue_pairs,
    _reduce,
    _s_polynomial,
)
from oracles import (
    block_greater,
    from_terms,
    grevlex_greater,
    lex_greater,
    normal_form_by_division,
)


RING = PolyRing(["x", "y", "z"])
ORDERS = [grevlex(RING), lex(RING, RING.names), elimination_order(RING, ["x"])]
MONOMIALS = [e for e in itertools.product(range(3), repeat=3) if sum(e) <= 2]

polys = st.lists(
    st.tuples(st.sampled_from(MONOMIALS), st.integers(-3, 3)), min_size=1, max_size=3
).map(partial(from_terms, RING))
systems = st.lists(polys, min_size=1, max_size=3)
orders = st.sampled_from(ORDERS)

small = settings(max_examples=40, deadline=None, database=None, derandomize=True)

WIDE = PolyRing([f"v{i}" for i in range(70)])
WIDE_USED = (0, 1, 63, 64, 65, 69)
ALL, WIDE_ALL = range(3), range(70)
WIDE_REST = [i for i in WIDE_ALL if i != 64]
# (ring, variables used, order, the order as a textbook comparison)
DIVISION_CASES = [
    (RING, ALL, ORDERS[0], lambda a, b: grevlex_greater(a, b, ALL)),
    (RING, ALL, ORDERS[1], lambda a, b: lex_greater(a, b, ALL)),
    (RING, ALL, ORDERS[2], lambda a, b: block_greater(a, b, [[0], [1, 2]])),
    (WIDE, WIDE_USED, grevlex(WIDE), lambda a, b: grevlex_greater(a, b, WIDE_ALL)),
    (WIDE, WIDE_USED, lex(WIDE, WIDE.names), lambda a, b: lex_greater(a, b, WIDE_ALL)),
    (WIDE, WIDE_USED, elimination_order(WIDE, ["v64"]),
     lambda a, b: block_greater(a, b, [[64], WIDE_REST])),
]


def _divides(a, b):
    return all(x <= y for x, y in zip(a, b))


def assert_reduced(gb, order):
    leads = [g.leading_term(order) for g in gb]
    assert all(c == 1 for _, c in leads)
    for g, (lt, _) in zip(gb, leads):
        for other, _ in leads:
            if other != lt:
                assert not any(_divides(other, m) for m in g.terms)


@small
@given(systems, orders)
def test_buchberger_output_is_a_reduced_basis_of_the_input(gens, order):
    gb = buchberger(gens, order)
    assert_reduced(gb, order)
    assert is_groebner_basis(gb, order)
    assert all(not normal_form(g, gb, order) for g in gens)


@small
@given(systems, orders, polys, polys, st.integers(-3, 3), st.integers(-3, 3))
def test_normal_form_is_idempotent_and_linear(gens, order, f, g, a, b):
    gb = buchberger(gens, order)
    nf_f = normal_form(f, gb, order)
    assert normal_form(nf_f, gb, order) == nf_f
    combo = normal_form(f * a + g * b, gb, order)
    assert combo == nf_f * a + normal_form(g, gb, order) * b


@small
@given(systems, systems, polys, st.sampled_from(["other", "same", "smaller"]))
def test_ideal_equal_is_symmetric(gens_a, gens_b, h, relation):
    if relation == "same":
        gens_b = gens_a + [h * gens_a[0]]
    elif relation == "smaller":
        gens_b = [h * g for g in gens_a]
    a, b = Ideal(RING, gens_a), Ideal(RING, gens_b)
    assert ideal_equal(a, b) == ideal_equal(Ideal(RING, gens_b), Ideal(RING, gens_a))
    if relation == "same":
        assert ideal_equal(a, b)
    # the answer of mutual membership, one normal form per generator
    gb_a, gb_b = (ideal.groebner(grevlex(RING)) for ideal in (a, b))
    assert ideal_equal(a, b) == (
        all(not normal_form(g, gb_b, grevlex(RING)) for g in gens_a)
        and all(not normal_form(g, gb_a, grevlex(RING)) for g in gens_b)
    )


@small
@given(systems, orders)
def test_groebner_depends_on_the_order_matrix_alone(gens, order):
    ideal = Ideal(RING, gens)
    twin = MatrixOrder(order.rows)
    assert twin is not order
    assert ideal.groebner(twin) == buchberger(gens, order)
    # and an ideal keeps no basis: only its ring and its generators
    assert set(vars(ideal)) == {"ring", "gens"}


def _polys_over(ring, used, degree):
    monomials = []
    for exps in itertools.product(range(degree + 1), repeat=len(used)):
        if sum(exps) <= degree:
            m = [0] * ring.nvars
            for i, e in zip(used, exps):
                m[i] = e
            monomials.append(tuple(m))
    terms = st.tuples(st.sampled_from(monomials), st.integers(-3, 3))
    return st.lists(terms, min_size=1, max_size=4).map(partial(from_terms, ring))


@settings(max_examples=80, deadline=None, database=None, derandomize=True)
@given(st.sampled_from(DIVISION_CASES), st.data())
def test_normal_form_matches_mask_free_division(case, data):
    ring, used, order, greater = case
    gens = data.draw(st.lists(_polys_over(ring, used, 2), min_size=1, max_size=3))
    f = data.draw(_polys_over(ring, used, 3))
    assert normal_form(f, gens, order) == normal_form_by_division(f, gens, greater)


# rounds of (lcms of the new pairs, drop every pair whose serial number
# the divisor divides, pops); the heap drops lazily, as buchberger does
rounds = st.lists(
    st.tuples(
        st.lists(st.sampled_from(MONOMIALS), max_size=8),
        st.integers(2, 6),
        st.integers(0, 6),
    ),
    min_size=1,
    max_size=6,
)


@small
@given(rounds, orders)
def test_pair_heap_pops_like_a_stable_reverse_sort(rounds, order):
    queue, arrivals, serials = [], itertools.count(), itertools.count()
    dropped = set()
    model = []  # the textbook queue: stable reverse sort, then pop
    p = _Packing(order, 1)
    for lcms, divisor, pops in rounds:
        dropped.update(q[-4] for q in queue if not q[-3] % divisor)
        model = [q for q in model if q[0] % divisor]
        fresh = [(next(serials), 0, l) for l in lcms]
        pairs = [(sum(l), l, i, j, p.pack(l) & p.emask) for i, j, l in fresh]
        _queue_pairs(queue, pairs, p, arrivals)
        model += fresh
        for _ in range(min(pops, len(model))):
            model.sort(key=lambda q: (sum(q[2]), order.key(q[2])), reverse=True)
            q = heappop(queue)
            while q[-4] in dropped:
                q = heappop(queue)
            i, j, l = q[-3:]
            assert (i, j, p.exponents(l)) == model.pop()


def _plain_prune(lcms):
    """Gebauer-Moeller M and F as the textbook scan: by degree (stably), a
    candidate goes when any kept lcm divides it.  Returns the kept indices."""
    kept = []
    for k, l in sorted(enumerate(lcms), key=lambda p: sum(p[1])):
        if not any(_divides(q, l) for _, q in kept):
            kept.append((k, l))
    return [k for k, _ in kept]


def _lcms_over(nvars, used):
    def widen(exps):
        m = [0] * nvars
        for i, e in zip(used, exps):
            m[i] = e
        return tuple(m)

    return st.lists(st.tuples(*[st.integers(0, 2)] * len(used)).map(widen), max_size=12)


@settings(max_examples=80, deadline=None, database=None, derandomize=True)
@given(st.one_of(_lcms_over(5, range(5)), _lcms_over(70, WIDE_USED)))
def test_packed_pruning_keeps_the_plain_scans_pairs(lcms):
    p = _Packing(grevlex(PolyRing(WIDE.names[: len(lcms[0])])) if lcms else ORDERS[0], 1)
    fresh = [(sum(l), l, k, len(lcms), p.pack(l) & p.emask) for k, l in enumerate(lcms)]
    assert [q[2] for q in _prune_pairs(fresh, p)] == _plain_prune(lcms)


def _textbook_s_polynomial(f, g, order):
    (lt_f, lc_f), (lt_g, lc_g) = f.leading_term(order), g.leading_term(order)
    l = tuple(max(a, b) for a, b in zip(lt_f, lt_g))
    mf = RING.monomial([a - b for a, b in zip(l, lt_f)], Fraction(1) / lc_f)
    mg = RING.monomial([a - b for a, b in zip(l, lt_g)], Fraction(1) / lc_g)
    return mf * f - mg * g


# distinct monomials with coefficients of absolute value 2 or 3: no lead
# term is monic under any order
non_monic = st.lists(
    st.tuples(st.sampled_from(MONOMIALS), st.sampled_from([-3, -2, 2, 3])),
    min_size=1, max_size=3, unique_by=lambda t: t[0],
).map(partial(from_terms, RING))


@small
@given(non_monic, non_monic, orders)
def test_tail_only_s_polynomial_is_the_textbook_one(f, g, order):
    p = _Packing(order, 1)
    a, b = _divisor(p.terms(f), p), _divisor(p.terms(g), p)
    # the packed lcm of the leads, as a queued pair carries it
    s = p.polynomial(RING, _s_polynomial(a, b, p.pack(p.exponents(p.lcm(a[3], b[3])))))
    assert s == _textbook_s_polynomial(f, g, order)
    assert _exact([s])


@small
@given(st.lists(non_monic, min_size=1, max_size=3), st.sampled_from(DIVISION_CASES[:3]),
       st.lists(st.integers(2, 5), min_size=1))
def test_is_groebner_basis_takes_non_monic_divisors(gens, case, scales):
    _, _, order, greater = case
    textbook = all(
        not normal_form_by_division(_textbook_s_polynomial(f, g, order), gens, greater)
        for f, g in itertools.combinations(gens, 2)
    )
    assert is_groebner_basis(gens, order) == textbook
    gb = buchberger(gens, order)
    assert is_groebner_basis([g * k for g, k in zip(gb, itertools.cycle(scales))], order)


# ints and non-integral Fractions; the generators' coefficients avoid +-1,
# so a divisor is monic only when it is made so
GEN_COEFFS = [-3, -2, 2, 3, Fraction(1, 3), Fraction(-2, 5), Fraction(7, 2)]
W_RING = PolyRing(["x", "y", "W"])
CUBIC = [e for e in itertools.product(range(4), repeat=3) if sum(e) <= 3]
BY_DEGREE = [[e for e in MONOMIALS if sum(e) == d] for d in (1, 2)]
# (ring, order, generator monomials): lex, grevlex, an elimination order
# and the row -delta on top of grevlex.  That puts 1 above W, so it is no
# well-order and division by W + 1 never ends; homogeneous generators keep
# each division step inside one degree.
REDUCE_CASES = [(RING, order, [MONOMIALS]) for order in ORDERS] + [
    (W_RING, MatrixOrder(((0, 0, -1),) + grevlex(W_RING).rows), BY_DEGREE)
]


def _polys_in(ring, monomials, coeffs):
    terms = st.tuples(st.sampled_from(monomials), st.sampled_from(coeffs))
    return st.lists(terms, min_size=1, max_size=4).map(partial(from_terms, ring))


def _max_scan_division(f, gens, order):
    """Textbook division, as a dict of remainder terms: the largest pending
    term, found by a max() scan, is reduced against the first generator
    whose lead divides it; every coefficient is a Fraction throughout."""
    divisors = [g.leading_term(order) + (g,) for g in gens if g]
    rest = {m: Fraction(c) for m, c in f.terms.items()}
    remainder = {}
    while rest:
        m = max(rest, key=order.key)
        c = rest.pop(m)
        for lt, lc, g in divisors:
            if _divides(lt, m):
                factor, shift = c / lc, tuple(map(sub, m, lt))
                for gm, gc in g.terms.items():
                    t = tuple(map(add, gm, shift))
                    if t != m:
                        rest[t] = rest.get(t, Fraction(0)) - factor * gc
                        if not rest[t]:
                            del rest[t]
                break
        else:
            remainder[m] = c
    return remainder


@settings(max_examples=120, deadline=None, database=None, derandomize=True)
@given(st.sampled_from(REDUCE_CASES), st.data())
def test_heap_division_matches_max_scan_division(case, data):
    ring, order, supports = case
    gen = st.sampled_from(supports).flatmap(lambda ms: _polys_in(ring, ms, GEN_COEFFS))
    gens = data.draw(st.lists(gen, min_size=1, max_size=3))
    monic = data.draw(st.lists(st.booleans(), min_size=len(gens), max_size=len(gens)))
    gens = [g.monic(order) if flag else g for g, flag in zip(gens, monic)]
    # a multiple of a generator plus a rest: reducing the multiple cancels
    # terms, which then sit in the heap as stale entries
    h, rest = (data.draw(_polys_in(ring, MONOMIALS, GEN_COEFFS + [-1, 1])) for _ in "hr")
    f = h * gens[data.draw(st.integers(0, len(gens) - 1))] + rest
    textbook = _max_scan_division(f, gens, order)
    p = _Packing(order, 1)
    packed = _reduce(p.terms(f), [_divisor(p.terms(g), p) for g in gens if g], p)
    remainder = {p.exponents(m): c for m, c in packed.items()}
    assert remainder == textbook
    assert all(type(c) in (int, Fraction) for c in remainder.values())
    assert normal_form(f, gens, order).terms == textbook


def _exact(polys):
    """Every coefficient an int or a non-integral Fraction: never a float,
    never an integral Fraction."""
    return all(
        type(c) is int or type(c) is Fraction and c.denominator != 1
        for p in polys
        for c in p.terms.values()
    )


ST = PolyRing(["s", "t"])
ABC = PolyRing(["a", "b", "c"])
s_, t_ = ST.gens()
scales = st.sampled_from([1, -1, 2, -3, Fraction(1, 3), Fraction(-2, 5)])


@small
@given(systems, orders, polys, st.tuples(scales, scales, scales))
def test_the_engine_returns_fraction_coefficients(gens, order, f, k):
    gb = buchberger(gens, order)
    assert _exact(gb)
    assert _exact([normal_form(f, gb, order), normal_form(f, gens, order)])
    # the Veronese map a -> k0 s^2, b -> k1 s t, c -> k2 t^2
    phi = RingMap(ABC, ST, {"a": s_ * s_ * k[0], "b": s_ * t_ * k[1], "c": t_ * t_ * k[2]})
    kernel = ring_map_kernel(phi).gens
    assert len(kernel) == 1 and _exact(kernel)
    assert not phi(kernel[0])
    # ring-map images leave the expansion with exact coefficients too,
    # integral ones as ints
    a, _, c = ABC.gens()
    images = [f.substitute([s_ * k[0], s_ + t_, t_**-1]), phi(a * c), phi(a * c - k[1] ** 2)]
    assert _exact(images)


@small
@given(systems, orders)
def test_scaled_generators_give_the_same_reduced_basis(gens, order):
    scaled = [g * k for g, k in zip(gens, itertools.cycle([Fraction(1, 3), Fraction(2, 5)]))]
    gb = buchberger(scaled, order)
    assert gb == buchberger(gens, order)
    assert _exact(gb)


# Ring-map images against a product expansion written out in the test: a
# source variable maps to a Laurent unit monomial (coefficient +-1, which may
# take negative exponents) or to a polynomial of up to three terms with
# Fraction coefficients; c maps to the product of the images of a and b, so
# every multiple of c - a*b maps to 0 with its terms cancelling.
ST_MONOMIALS = [e for e in itertools.product(range(3), repeat=2) if sum(e) <= 2]
unit_images = st.tuples(st.sampled_from([1, -1]), st.integers(-2, 2), st.integers(-2, 2)).map(
    lambda u: ST.monomial(u[1:], u[0])
)
multi_term_images = st.lists(
    st.tuples(st.sampled_from(ST_MONOMIALS), scales), min_size=2, max_size=3
).map(partial(from_terms, ST))


def _term_product(a, b):
    out = {}
    for m1, c1 in a.items():
        for m2, c2 in b.items():
            m = tuple(map(add, m1, m2))
            out[m] = out.get(m, 0) + c1 * c2
    return out


def _product_expansion(f, images, target):
    """f under the images, multiplied out on term dicts with no Polynomial
    product or power: image ** e is e products in a row, of the inverted
    monomial when e < 0."""
    result = []
    for m, c in f.terms.items():
        part = {(0,) * target.nvars: c}
        for img, e in zip(images, m):
            factor = img.terms
            if e < 0:
                ((mono, coeff),) = factor.items()
                factor, e = {tuple(-a for a in mono): Fraction(1) / coeff}, -e
            for _ in range(e):
                part = _term_product(part, factor)
        result += part.items()
    return from_terms(target, result)


def _is_unit(img):
    return len(img.terms) == 1 and abs(next(iter(img.terms.values()))) == 1


@st.composite
def ring_maps(draw):
    a, b = (draw(st.one_of(unit_images, multi_term_images)) for _ in "ab")
    return [a, b, a * b]


def source_polys(images, max_size=4):
    """Polynomials in a, b, c with negative exponents only on variables
    whose image is a unit."""
    exps = st.tuples(*(st.integers(-2 if _is_unit(img) else 0, 2) for img in images))
    return st.lists(st.tuples(exps, scales), max_size=max_size).map(partial(from_terms, ABC))


@small
@given(st.data())
def test_substitute_matches_the_product_expansion(data):
    images = data.draw(ring_maps())
    h, r = (data.draw(source_polys(images)) for _ in "hr")
    a, b, c = ABC.gens()
    phi = RingMap(ABC, ST, dict(zip(ABC.names, images)))
    cancelling = h * (c - a * b)
    assert phi(cancelling).terms == {} and cancelling.substitute(images).terms == {}
    f = cancelling + r
    expected = _product_expansion(f, images, ST)
    for image in (f.substitute(images), phi(f)):
        assert image == expected and image.ring == ST and _exact([image])


@small
@given(st.data())
def test_a_ring_map_gives_the_same_image_on_every_call(data):
    images = data.draw(ring_maps())
    fs = data.draw(st.lists(source_polys(images, max_size=3), min_size=2, max_size=6))
    phi = RingMap(ABC, ST, dict(zip(ABC.names, images)))
    for f in fs:
        fresh = RingMap(ABC, ST, dict(zip(ABC.names, images)))
        assert phi(f) == fresh(f) == _product_expansion(f, images, ST)


# cox._permuted applies a signed permutation of the variables to the
# exponent tuples; the reference substitutes x_i -> signs[i] x_perm[i].
@st.composite
def signed_moves(draw):
    """A polynomial with exponents up to 3 in 1 to 5 variables and a move
    (perm, signs) of them: the identity or any permutation, and no
    variable, exactly one, every one or any set of them negated."""
    nvars = draw(st.integers(1, 5))
    perm = draw(st.just(list(range(nvars))) | st.permutations(range(nvars)))
    negated = draw(st.sampled_from([set(), set(range(nvars))])
                   | st.integers(0, nvars - 1).map(lambda i: {i})
                   | st.sets(st.integers(0, nvars - 1)))
    exps = st.tuples(*[st.integers(0, 3)] * nvars)
    return _move_case(nvars, list(perm), negated,
                      draw(st.lists(st.tuples(exps, scales), max_size=6)))


def _move_case(nvars, perm, negated, terms):
    """The polynomial of terms in variables v0..v(nvars - 1), and the move
    perm with the variables in negated negated."""
    ring = PolyRing([f"v{i}" for i in range(nvars)])
    return from_terms(ring, terms), (perm, [-1 if i in negated else 1 for i in range(nvars)])


@settings(max_examples=120, deadline=None, database=None, derandomize=True)
@given(signed_moves())
@example(_move_case(3, [0, 1, 2], (), [((1, 2, 3), 2), ((0, 1, 0), -1)]))  # the identity
@example(_move_case(3, [2, 0, 1], (1,), [((1, 2, 3), 2), ((0, 1, 0), -1)]))  # one negated
@example(_move_case(3, [1, 0, 2], (0, 1, 2), [((1, 2, 3), 2), ((0, 3, 1), -1)]))  # all negated
@example(_move_case(1, [0], (0,), [((3,), 2), ((2,), -1), ((0,), 1)]))  # one variable
@example(_move_case(1, [0], (), [((3,), 2), ((0,), 1)]))
def test_a_signed_permutation_is_the_substitution(case):
    f, (perm, signs) = case
    ring = f.ring
    images = [sign * ring.var(ring.names[p]) for p, sign in zip(perm, signs)]
    assert _permuted(f, (perm, signs)) == f.substitute(images)
