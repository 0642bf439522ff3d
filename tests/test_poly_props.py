"""Hypothesis properties of the Groebner engine.

The inputs stay small (3 variables, up to 3 generators of up to 3 terms of
degree at most 2) so that every example runs in milliseconds.  Runs are
derandomized, so the suite gives the same verdict on every run.
"""

import itertools

import pytest

pytest.importorskip("hypothesis")

from hypothesis import given, settings
from hypothesis import strategies as st

from tvbcox.poly import (
    Ideal,
    MatrixOrder,
    PolyRing,
    buchberger,
    elimination_order,
    grevlex,
    ideal_equal,
    is_groebner_basis,
    lex,
    normal_form,
)


RING = PolyRing(["x", "y", "z"])
ORDERS = [grevlex(RING), lex(RING), elimination_order(RING, ["x"])]
MONOMIALS = [e for e in itertools.product(range(3), repeat=3) if sum(e) <= 2]

polys = st.lists(
    st.tuples(st.sampled_from(MONOMIALS), st.integers(-3, 3)), min_size=1, max_size=3
).map(RING.from_terms)
systems = st.lists(polys, min_size=1, max_size=3)
orders = st.sampled_from(ORDERS)

small = settings(max_examples=40, deadline=None, database=None, derandomize=True)


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


@small
@given(systems, orders)
def test_groebner_is_memoized_by_the_order_matrix(gens, order):
    ideal = Ideal(RING, gens)
    twin = MatrixOrder(order.rows)
    assert twin is not order
    assert ideal.groebner(twin) is ideal.groebner(order)
    assert ideal.groebner(order) == buchberger(gens, order)
