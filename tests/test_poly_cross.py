"""Cross-checks of the Groebner engine against an independent implementation.

sympy is used here purely as a test oracle; the library itself never
imports it.
"""

import random
from fractions import Fraction
from operator import mul

import pytest

sympy = pytest.importorskip("sympy")

from sympy.polys.orderings import ProductOrder
from sympy.polys.orderings import grevlex as sympy_grevlex

from tvbcox import cox
from tvbcox.cox import build_phi, quiver_ideal, tangent_cox_ideal, tangent_kernel
from tvbcox.poly import (
    Ideal,
    PolyRing,
    RingMap,
    buchberger,
    elimination_order,
    grevlex,
    lex,
    normal_form,
    ring_map_kernel,
    weight_initial,
)
from oracles import from_terms


NAMES = ["x", "y", "z", "w"]


def to_sympy(f, syms):
    expr = 0
    for mono, coeff in f.terms.items():
        term = sympy.Rational(coeff.numerator, coeff.denominator)
        for s, e in zip(syms, mono):
            term *= s**e
        expr += term
    return expr


def from_sympy(expr, ring, syms):
    poly = sympy.Poly(expr, *syms)
    terms = []
    for mono, coeff in poly.terms():
        terms.append((tuple(mono), Fraction(coeff.p, coeff.q)))
    return from_terms(ring, terms)


def random_system(ring, rng, count, max_degree=2, terms=3):
    gens = []
    for _ in range(count):
        f = ring.zero()
        for _ in range(terms):
            exps = [0] * ring.nvars
            for _ in range(rng.randrange(max_degree + 1)):
                exps[rng.randrange(ring.nvars)] += 1
            f = f + ring.monomial(exps, rng.randrange(-2, 3))
        if f:
            gens.append(f)
    return gens


@pytest.mark.parametrize("order_name", ["lex", "grevlex"])
def test_reduced_basis_matches_sympy(order_name):
    rng = random.Random(97)
    for trial in range(25):
        nvars = rng.randrange(2, 4)
        ring = PolyRing(NAMES[:nvars])
        syms = sympy.symbols(NAMES[:nvars])
        gens = random_system(ring, rng, rng.randrange(1, 4))
        if not gens:
            continue
        order = lex(ring, ring.names) if order_name == "lex" else grevlex(ring)
        assert_same_reduced_basis(gens, order, order_name, ring, syms, trial)


def assert_same_reduced_basis(gens, order, sympy_order, ring, syms, trial):
    ours = buchberger(gens, order)
    theirs = sympy.groebner([to_sympy(g, syms) for g in gens], *syms, order=sympy_order)
    expected = {
        frozenset(from_sympy(e, ring, syms).monic(order).terms.items())
        for e in theirs.exprs
        if e != 0
    }
    got = {frozenset(g.terms.items()) for g in ours}
    if not expected:
        # sympy returns [] for the zero ideal
        assert got == set() or got == {frozenset(ring.one().terms.items())}
        return
    assert got == expected, f"trial {trial}: {got} != {expected}"


def test_elimination_basis_matches_sympy_product_order():
    """elimination_order is grevlex on the dropped block, then grevlex on
    the rest: sympy's ProductOrder of two grevlex orders."""
    rng = random.Random(113)
    for trial in range(25):
        nvars = rng.randrange(2, 5)
        ring = PolyRing(NAMES[:nvars])
        syms = sympy.symbols(NAMES[:nvars])
        drop = sorted(rng.sample(range(nvars), rng.randrange(1, nvars)))
        keep = [i for i in range(nvars) if i not in drop]
        gens = random_system(ring, rng, rng.randrange(1, 4))
        if not gens:
            continue
        order = elimination_order(ring, [NAMES[i] for i in drop])
        product = ProductOrder(
            (sympy_grevlex, lambda m: tuple(m[i] for i in drop)),
            (sympy_grevlex, lambda m: tuple(m[i] for i in keep)),
        )
        assert_same_reduced_basis(gens, order, product, ring, syms, trial)


def test_membership_of_random_combinations():
    rng = random.Random(101)
    ring = PolyRing(["x", "y", "z"])
    order = grevlex(ring)
    gens = [
        ring.var("x") * ring.var("y") - ring.var("z"),
        ring.var("y") ** 2 - ring.var("x"),
    ]
    gb = Ideal(ring, gens).groebner(order)
    for _ in range(40):
        combo = ring.zero()
        for g in gens:
            factor = random_system(ring, rng, 1, max_degree=2, terms=2)
            if factor:
                combo = combo + factor[0] * g
        assert not normal_form(combo, gb, order)


def random_image(target, rng, laurent):
    """One or two terms in t, s of degree 1 or 2; t^-1 may occur if laurent."""
    f = target.zero()
    while not f:
        for _ in range(rng.randrange(1, 3)):
            exps = [rng.randrange(-1 if laurent else 0, 3), rng.randrange(3)]
            if 0 < sum(exps) <= 2:
                f = f + target.monomial(exps, rng.choice([-2, -1, 1, Fraction(1, 2)]))
    return f


def sympy_kernel_basis(images, source_syms, t, s, u):
    """Reduced grevlex basis of the kernel, eliminated by sympy from the
    graph ideal.  Here t^-1 is a variable u of its own, with t * u - 1, in
    place of the source variable that carries it in the library."""
    gens = [t * u - 1] if u is not None else []
    for x, img in zip(source_syms, images):
        expr = 0
        for (i, j), c in img.terms.items():
            tpart = t**i if i >= 0 else u**-i
            expr += sympy.Rational(c.numerator, c.denominator) * tpart * s**j
        gens.append(x - expr)
    drop = [t, s] if u is None else [t, s, u]
    k = len(drop)
    product = ProductOrder((sympy_grevlex, lambda m: m[:k]), (sympy_grevlex, lambda m: m[k:]))
    graph = sympy.groebner(gens, *drop, *source_syms, order=product)
    kernel = [e for e in graph.exprs if not e.free_symbols & set(drop)]
    return sympy.groebner(kernel, *source_syms, order="grevlex").exprs if kernel else []


def test_ring_map_kernel_matches_sympy_elimination():
    """Random maps of four variables to two, every other one with a -> t^-1
    and t^-1 free to occur in the other images."""
    rng = random.Random(131)
    source, target = PolyRing(["a", "b", "c", "d"]), PolyRing(["t", "s"])
    source_syms = sympy.symbols("a b c d")
    t, s, u = sympy.symbols("t s u")
    order = grevlex(source)
    for trial in range(16):
        laurent = trial % 2 == 1
        images = [random_image(target, rng, laurent) for _ in range(4)]
        if laurent:
            images[0] = target.var("t") ** -1
        kernel = ring_map_kernel(RingMap(source, target, dict(zip(source.names, images))))
        got = {frozenset(g.terms.items()) for g in kernel.groebner(order)}
        expected = {
            frozenset(from_sympy(e, source, source_syms).monic(order).terms.items())
            for e in sympy_kernel_basis(images, source_syms, t, s, u if laurent else None)
        }
        assert got and got == expected, f"trial {trial}: {images}"


def random_laurent(ring, rng, terms):
    """A polynomial of up to the given number of terms, exponents -2 to 2
    and Fraction coefficients."""
    coeffs = [-2, 1, Fraction(3, 2), Fraction(-1, 3)]
    return from_terms(
        ring,
        [([rng.randrange(-2, 3) for _ in ring.names], rng.choice(coeffs)) for _ in range(terms)],
    )


def test_products_and_powers_match_sympy():
    """* and ** on random Laurent polynomials, and negative powers of unit
    monomials, against sympy's expansion of the same expressions."""
    rng = random.Random(151)
    ring = PolyRing(NAMES[:3])
    syms = sympy.symbols(ring.names)
    for trial in range(40):
        f, g = (random_laurent(ring, rng, rng.randrange(4)) for _ in "fg")
        unit = ring.monomial([rng.randrange(-2, 3) for _ in ring.names], rng.choice([1, -1]))
        c = rng.choice([0, 3, Fraction(-2, 5)])
        k = rng.randrange(-4, 6)
        F, G, U = (to_sympy(p, syms) for p in (f, g, unit))
        cases = [(f * g, F * G), (f * c, F * sympy.sympify(c)), (unit**k, U**k)]
        cases += [(f**e, F**e) for e in range(6)]
        for got, expected in cases:
            assert sympy.expand(to_sympy(got, syms) - expected) == 0, f"trial {trial}: {f}, {g}"


def minimal_weight_initial_basis(gens, weights, syms):
    """The reduced grevlex basis of the initial ideal of (gens) for minimal
    weight, through the flat family: x_i -> t^{w_i} x_i with the lowest
    t-power divided out of each generator, saturated by t (eliminate s from
    a lex basis with 1 - t*s), then t = 0."""
    t, s = sympy.symbols("t_ s_")
    scaled = {x: t**w * x for x, w in zip(syms, weights)}
    family = []
    for g in gens:
        low = min(sum(map(mul, weights, mono)) for mono in g.terms)
        family.append(sympy.expand(to_sympy(g, syms).subs(scaled, simultaneous=True) * t**-low))
    saturated = sympy.groebner(family + [1 - t * s], s, t, *syms, order="lex")
    special = [f.subs(t, 0) for f in saturated.exprs if not f.has(s)]
    return sympy.groebner([f for f in special if f != 0], *syms, order="grevlex")


def grevlex_basis(gens, syms):
    return sympy.groebner([to_sympy(g, syms) for g in gens], *syms, order="grevlex")


def proof_initial_forms(n):
    """The delta-initial forms of tangent_kernel(n)'s basis, the
    generators of in_delta(J) that cox.initial_comparison reads."""
    phi = build_phi(n, n)
    delta = cox.delta_weights(phi.source)
    return [weight_initial(g, delta) for g in tangent_kernel(n, phi)[0]]


@pytest.mark.parametrize("negated", [False, True])
@pytest.mark.parametrize("n", [2, 3])
def test_delta_initial_ideal_matches_the_flat_degeneration(monkeypatch, n, negated):
    """The delta-initial forms of tangent_kernel's basis and the quiver
    ideal against the t = 0 fibre of the W-weight family; with the delta
    weight negated in the library, the degeneration goes the other way and
    the check fails."""
    claimed = tangent_cox_ideal(n, n)
    syms = sympy.symbols(claimed.ring.names)
    weights = [1 if name.startswith("W") else 0 for name in claimed.ring.names]
    oracle = minimal_weight_initial_basis(claimed.gens, weights, syms)
    assert grevlex_basis(quiver_ideal(n).gens, syms).exprs == oracle.exprs
    if negated:
        monkeypatch.setattr(cox, "delta_weights", lambda ring: [-w for w in weights])
    initial = grevlex_basis(proof_initial_forms(n), syms)
    if negated:
        assert initial.exprs != oracle.exprs
    else:
        assert initial.exprs == oracle.exprs
