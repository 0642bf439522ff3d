import hashlib
import random
import re
from collections import Counter
from fractions import Fraction
from itertools import combinations, combinations_with_replacement
from math import comb

import pytest

from tvbcox import gz, poly
from tvbcox.gz import (
    MarkedGenerator,
    SubductionError,
    all_generators,
    build_psi,
    canonicalize,
    confluence_sweep,
    diagonal_order,
    euler_flag_relation,
    flag_column_sets,
    flag_kernel,
    flag_presentation,
    generator_pattern,
    lead_pattern,
    lift_step_check,
    parse_generator,
    parse_word,
    psi_kernel,
    quadratic_plucker_relations,
    relation_families,
    subduct,
    word_pattern_sum,
    word_to_text,
)
from tvbcox.poly import Ideal, RingMap, grevlex, ideal_equal, poly_to_text, ring_map_kernel
from tvbcox.suite import gz_relation_check
from oracles import (
    euler_quadric_by_sign_search,
    flag_column_sets_by_size,
    generators_by_kind,
    rows_by_polynomial_products,
    sort_word,
)


def subsets(n):
    for size in range(1, n):
        yield from (frozenset(c) for c in combinations(range(1, n + 1), size))


def test_generator_pattern_examples():
    assert generator_pattern({1}, 2) == ((1, 0), (1,))
    assert generator_pattern({1, 2}, 3) == ((1, 1, 0), (1, 1), (1,))


def test_generator_pattern_exhaustive():
    for n in range(2, 7):
        for tau in subsets(n):
            pattern = generator_pattern(tau, n)
            assert gz.interlaces(pattern)
            assert pattern[0][-1] == 0
    with pytest.raises(ValueError):
        generator_pattern(set(), 3)
    with pytest.raises(ValueError):
        generator_pattern({1, 2, 3}, 3)
    with pytest.raises(ValueError, match="tau out of range 1..3"):
        generator_pattern({4}, 3)


@pytest.mark.parametrize(
    "rows, holds",
    [
        (((1, 0), (1,)), True),
        (((0, 0), (0,)), True),
        (((2, 1, 0), (2, 0), (1,)), True),
        (((0, 1), (0,)), False),  # 0 >= 0 >= 1 fails on the right
        (((0, 0), (1,)), False),  # 0 >= 1 >= 0 fails on the left
        (((2, 1, 0), (1, 1), (2,)), False),  # only the lower two rows clash
    ],
)
def test_interlaces_accepts_and_refuses(rows, holds):
    assert gz.interlaces(rows) is holds


def test_generator_pattern_guard_is_live(monkeypatch):
    monkeypatch.setattr(gz, "interlaces", lambda rows: False)
    with pytest.raises(AssertionError, match="violates interlacing"):
        generator_pattern({1}, 2)


def test_pattern_addition_preserves_interlacing():
    for n in (2, 3, 4):
        taus = list(subsets(n))
        for a in taus:
            for b in taus:
                word = (MarkedGenerator.flag(a), MarkedGenerator.flag(b))
                assert gz.interlaces(word_pattern_sum(word, n).pattern)


def test_marked_generator_validity():
    MarkedGenerator.flag({1, 2}, 2)
    with pytest.raises(ValueError):
        MarkedGenerator.flag({2}, 2)  # needs {1, 2} inside the set
    with pytest.raises(ValueError):
        MarkedGenerator.flag(set(), 0)
    gen = MarkedGenerator.flag({1, 3}, 1)
    assert gen.variable_columns() == frozenset({0, 3})
    assert MarkedGenerator.neg(2).extended_pattern(3).zvec == (0, 0, -1, 0)


@pytest.mark.parametrize("value", [None, -1])
def test_neg_refuses_a_missing_or_negative_value(value):
    with pytest.raises(ValueError, match="negated variable needs a value in 0..n"):
        MarkedGenerator.neg(value)
    assert MarkedGenerator.neg(0) == MarkedGenerator(frozenset(), 0)


@pytest.mark.parametrize("mark", [1, 2, -1, None])
def test_check_refuses_a_hand_built_mark_past_the_prefix(mark):
    # {2} holds no prefix {1..a} with a >= 1, so only mark 0 is valid
    gen = MarkedGenerator(frozenset({2}), mark)
    with pytest.raises(ValueError, match="is not in 0..0"):
        gen.check(3)
    with pytest.raises(ValueError, match="is not in 0..0"):
        canonicalize([gen, MarkedGenerator.neg(1)], 3)
    MarkedGenerator(frozenset({2}), 0).check(3)


@pytest.mark.parametrize(
    "gen, message",
    [
        (MarkedGenerator(frozenset(), None), "negated index None"),
        (MarkedGenerator(None, 0), "nonempty strict subset"),
        (MarkedGenerator(frozenset({1}), None), "mark None"),
        (MarkedGenerator(frozenset({1, 2, 3}), 0), "nonempty strict subset"),
    ],
)
def test_check_refuses_a_hand_built_generator_with_value_error(gen, message):
    with pytest.raises(ValueError, match=message):
        gen.check(3)


def test_canonicalize_refuses_an_empty_column_set_with_value_error():
    # the empty column set is the negated variables' set: only `flag`
    # refuses it, and there it carries marks 0..n
    with pytest.raises(ValueError, match="flag needs a nonempty column set"):
        MarkedGenerator.flag(set())
    with pytest.raises(ValueError, match="flag needs a nonempty column set"):
        parse_word("[{},0]")
    assert MarkedGenerator(frozenset(), 2) == MarkedGenerator.neg(2)
    assert canonicalize([MarkedGenerator(frozenset(), 0)], 3) == ((MarkedGenerator.neg(0),), [])
    with pytest.raises(ValueError, match="negated index 4 out of range 0..3"):
        canonicalize([MarkedGenerator(frozenset(), 4)], 3)


def test_extended_patterns_of_generators():
    n = 3
    x1 = MarkedGenerator.neg(1).extended_pattern(n)
    assert x1.pattern == ((0, 0, 0), (0, 0), (0,))
    flag = MarkedGenerator.flag({1, 2}, 0).extended_pattern(n)
    assert flag.pattern == generator_pattern({1, 2}, n)
    assert flag.zvec == (0, 1, 1, 0)
    marked = MarkedGenerator.flag({1, 2}, 2).extended_pattern(n)
    assert marked.zvec == (1, 1, 0, 0)


def test_flag_ring_variables():
    ring = build_psi(2).source
    assert ring.names == ("x0", "x1", "x2", "P0", "P1", "P2")
    sets3 = flag_column_sets(3)
    assert frozenset({0}) in sets3 and frozenset({1, 2}) in sets3
    assert frozenset({0, 1, 2}) not in sets3  # 0-column sets stop at n - 2


def test_psi_images():
    psi = build_psi(3)
    target = psi.target
    assert psi(psi.source.var("x1")) == target.var("t1") ** (-1)
    image = psi.images["P12"]
    expected = (
        target.var("y1_1") * target.var("y2_2")
        - target.var("y1_2") * target.var("y2_1")
    ) * target.var("t1") * target.var("t2")
    assert image == expected


def test_euler_flag_relation_vanishes():
    # tau in {0..n}: with 0 in tau from n = 3 on
    for n in (2, 3, 4):
        psi = build_psi(n)
        for size in range(0, n - 1):
            for tau in combinations(range(n + 1), size):
                rel = euler_flag_relation(n, tau, psi)
                assert psi(rel) == 0


def test_euler_flag_relation_matches_sign_search():
    # closed-form Laplace signs against the brute-force search through psi
    for n, expected in ((2, 1), (3, 4), (4, 11), (5, 26)):
        psi = build_psi(n)
        taus = [tau for size in range(0, n - 1) for tau in combinations(range(1, n + 1), size)]
        assert len(taus) == expected
        for tau in taus:
            assert euler_flag_relation(n, tau, psi) == euler_quadric_by_sign_search(n, tau, psi)


def test_relation_families_vanish():
    for n in (2, 3):
        psi = build_psi(n)
        for rel in relation_families(n, psi):
            assert psi(rel) == 0


def test_relation_families_n2_matches_kernel():
    psi = build_psi(2)
    families = relation_families(2, psi)
    assert len(families) == 1
    kernel = psi_kernel(2)
    assert ideal_equal(kernel, Ideal(psi.source, families))


def test_zero_column_euler_family():
    # flag_presentation adds the Euler-type quadrics with 0 in tau, one per
    # tau' in [n] of size at most n - 3: none at n = 2, one at n = 3
    for n, expected in ((2, 0), (3, 1)):
        psi = build_psi(n)
        extra = flag_presentation(n, psi)
        for rel in relation_families(n, psi):
            extra.remove(rel)
        assert len(extra) == expected
    v = psi.source.var
    assert extra == [v("x1") * v("P01") + v("x2") * v("P02") + v("x3") * v("P03")]
    with pytest.raises(ValueError):
        euler_flag_relation(3, {0, 1}, psi)


@pytest.mark.parametrize("n", [2, 3])
def test_psi_kernel_matches_the_elimination(n):
    kernel = psi_kernel(n)
    eliminated = ring_map_kernel(build_psi(n))
    order = grevlex(kernel.ring)
    assert [poly_to_text(g, order) for g in kernel.groebner(order)] == [
        poly_to_text(g, order) for g in eliminated.gens
    ]


def test_build_psi_refuses_n_below_2():
    with pytest.raises(ValueError, match="need n >= 2"):
        build_psi(1)


def test_psi_kernel_cap(monkeypatch):
    def built(n):
        raise AssertionError("psi was built before the cap was checked")

    monkeypatch.setattr(gz, "build_psi", built)
    with pytest.raises(poly.CapExceeded, match="n = 6 is over the cap 5"):
        psi_kernel(6)


def test_saturation_certificate_needs_the_zero_column_family(monkeypatch):
    monkeypatch.setattr(gz, "flag_presentation", relation_families)
    got = flag_kernel(3, build_psi(3))[-1]
    assert got["saturated"] is False
    assert got["contained"] and got["left_inverse"]


@pytest.mark.parametrize("n", [2, 3])
def test_lead_order_compares_monomials_by_the_leads_of_their_images(n):
    psi, rng = build_psi(n), random.Random(n)
    weights = [1] * (n + 1) + [len(cols) for _, _, cols in gz.flag_minors(n)]
    order, diagonal = gz.lead_order(psi, n, weights), diagonal_order(psi.target, n)
    assert gz.lead_order(build_psi(n), n, weights) is order
    variables, width = psi.source.gens(), len(diagonal.rows)
    for _ in range(40):
        monomial = rng.choice(variables) * rng.choice(variables) * rng.choice(variables)
        (m,) = monomial.terms
        key = order.key(m)
        assert key[0] == sum(w * e for w, e in zip(weights, m))
        assert key[1 : 1 + width] == diagonal.key(psi(monomial).leading_term(diagonal)[0])


@pytest.mark.parametrize("n", [3, 4])
def test_lead_order_is_the_proof_order_of_the_image_leads(n):
    # the weights, each diagonal row read off the leads of the images, then
    # revlex from the last variable back: the rows gz.lead_order has always
    # had, now built by cox.proof_order with the last variable last
    psi = build_psi(n)
    weights = [1] * (n + 1) + [len(cols) for _, _, cols in gz.flag_minors(n)]
    diagonal = diagonal_order(psi.target, n)
    leads = [psi.images[name].leading_term(diagonal)[0] for name in psi.source.names]
    rows = [[sum(r * e for r, e in zip(row, lead)) for lead in leads] for row in diagonal.rows]
    count = len(weights)
    revlex = [[-int(k == r) for k in range(count)] for r in reversed(range(count))]
    expected = tuple(map(tuple, [weights, *rows, *revlex]))
    assert gz.lead_order(psi, n, weights).rows == expected


@pytest.mark.parametrize("n", [3, 4])
@pytest.mark.parametrize("dropped", ["first Plucker", "first Euler-type", "last"])
def test_the_flag_proof_fails_with_a_relation_dropped(monkeypatch, n, dropped):
    # every relation of flag_presentation(n) lies in ker(psi), so the
    # smaller ideal is still contained; it is not ker(psi), so another
    # certificate must fail (at n = 3, left_inverse alone sees the first
    # Euler-type quadric gone, symmetric alone the last)
    psi, presentation = build_psi(n), gz.flag_presentation
    k = {"first Plucker": 0, "first Euler-type": len(quadratic_plucker_relations(n, psi)),
         "last": len(presentation(n, psi)) - 1}[dropped]
    monkeypatch.setattr(gz, "flag_presentation",
                        lambda n, psi: presentation(n, psi)[:k] + presentation(n, psi)[k + 1:])
    got = flag_kernel(n, psi)[-1]
    assert got["contained"] and not all(got.values())


def test_contained_certificate_rejects_a_flipped_zero_column_sign(monkeypatch):
    # the flag proof's contained certificate is its relations' own proof:
    # a sign flipped where the zero-column quadric is built is refused by
    # name where it is built, by flag_presentation and so by psi_kernel;
    # relation_families builds no zero-column quadric and still passes
    psi = build_psi(3)
    v = psi.source.var
    flipped = v("x1") * v("P01") - v("x2") * v("P02") + v("x3") * v("P03")
    original = gz.euler_flag_relation

    def zero_column_sign_flipped(n, tau, psi):
        rel = original(n, tau, psi)
        return rel - 2 * psi.source.var("x2") * psi.source.var("P02") if 0 in tau else rel

    monkeypatch.setattr(gz, "euler_flag_relation", zero_column_sign_flipped)
    refused = re.escape(f"relations with nonzero image: [{poly_to_text(flipped)!r}]")
    with pytest.raises(AssertionError, match=refused):
        flag_presentation(3, psi)
    with pytest.raises(AssertionError, match=refused):
        psi_kernel(3)
    assert len(relation_families(3, psi)) == 9


@pytest.mark.parametrize("n, quadrics", [(3, 5), (4, 16)])
def test_the_flag_proof_sends_only_the_euler_type_quadrics_through_psi(monkeypatch, n, quadrics):
    # the Plucker relations are proved on their pair rows and never reach
    # psi; each Euler-type quadric goes through psi once, where it is built
    psi = build_psi(n)
    relations = flag_presentation(n, psi)
    plucker = len(quadratic_plucker_relations(n, psi))
    assert len(relations) - plucker == quadrics
    sent, call = [], RingMap.__call__

    def recorded(self, f):
        if self is psi:
            sent.append(f)
        return call(self, f)

    monkeypatch.setattr(RingMap, "__call__", recorded)
    assert all(flag_kernel(n, psi)[-1].values())
    assert sent == relations[plucker:]


@pytest.mark.parametrize("n", [2, 3, 4])
def test_the_flag_proof_saturates_x0_and_the_leading_minors(saturated_names, n):
    # the orbits of x_0 and of each leading minor; in each, the variable on
    # the last columns divides no lead under psi's lead order (x_n-1 is
    # the first of x_n-1 and x_n)
    psi_kernel(n)
    assert saturated_names == [("x0", f"x{n - 1}")] + [
        (gz.p_name(range(1, k + 1)), gz.p_name(range(n - k + 1, n + 1))) for k in range(1, n - 1)
    ]


def test_psi_kernel_refuses_a_failed_certificate(monkeypatch):
    monkeypatch.setattr(gz, "flag_presentation", relation_families)
    with pytest.raises(AssertionError, match="saturated"):
        psi_kernel(3)


def test_quadratic_relations_count_n3():
    rels = quadratic_plucker_relations(3, build_psi(3))
    assert len(rels) == 5
    assert all(len(r) == 3 for r in rels)


@pytest.mark.parametrize("n", [2, 3, 4])
def test_the_packed_pair_rows_are_the_polynomial_products(n):
    # every group of P-variable pairs with one column multiset, a lone pair
    # included: the rows poly.product_rows forms under the diagonal order
    # are the pair images multiplied by Polynomial *, over their sorted
    # exponent tuples, so the kernels see the same columns in the same order
    psi = build_psi(n)
    column_sets = flag_column_sets(n)
    images = [psi.images[gz.p_name(cols)] for cols in column_sets]
    groups = {}
    for (i, a), (j, b) in combinations_with_replacement(enumerate(column_sets), 2):
        groups.setdefault(tuple(sorted([*a, *b])), []).append((i, j))
    groups = [groups[key] for key in sorted(groups)]
    assert poly.product_rows(images, groups, diagonal_order(psi.target, n)) == (
        rows_by_polynomial_products(images, groups))


def test_pair_and_word_counts_at_their_caps(monkeypatch):
    def built(n):
        raise AssertionError("psi was built before the pair cap was checked")

    monkeypatch.setattr(gz, "build_psi", built)
    assert gz.plucker_pair_count(5) == 1596
    # the cap is checked before psi is read
    with pytest.raises(poly.CapExceeded, match="7140 P-variable pairs") as exc:
        quadratic_plucker_relations(6, None)
    assert exc.value.size == 7140
    assert gz.sweep_word_count(6, 2) == 8127

    def built_table(*args):
        raise AssertionError("a code table was built before the word cap was checked")

    # the sweep numbers the generators and packs their patterns before it
    # enumerates a single word
    monkeypatch.setattr(gz, "_codes", built_table)
    monkeypatch.setattr(gz, "_packed", built_table)
    with pytest.raises(poly.CapExceeded, match="349503 words up to length 3"):
        confluence_sweep(6, 3)


@pytest.mark.parametrize("n", range(2, 10))
def test_flag_column_sets_match_the_enumeration_by_size(n):
    assert flag_column_sets(n) == flag_column_sets_by_size(n)


@pytest.mark.parametrize("n", range(1, 9))
def test_all_generators_match_the_enumeration_by_kind(n):
    # one loop over column sets of every size, the empty one first
    assert all_generators(n) == generators_by_kind(n)


def test_closed_form_counts_match_the_enumerations():
    for n in range(2, 11):
        assert gz.generator_count(n) == len(all_generators(n)) == 2 ** (n + 1) - 2
        assert gz.column_set_count(n) == len(flag_column_sets(n)) == 2 ** (n + 1) - n - 3


def test_caps_are_checked_before_any_enumeration(monkeypatch):
    def built(*args):
        raise AssertionError("generators or column sets were enumerated past a cap")

    monkeypatch.setattr(gz, "all_generators", built)
    monkeypatch.setattr(gz, "flag_column_sets", built)
    with pytest.raises(poly.CapExceeded, match="2199023255550 words up to length 1"):
        gz.sweep_word_count(40, 1)
    with pytest.raises(poly.CapExceeded, match="P-variable pairs") as exc:
        gz.plucker_pair_count(40)
    assert exc.value.size == (2**41 - 43) * (2**41 - 42) // 2
    assert gz.plucker_pair_count(5) == 1596
    word = [MarkedGenerator.neg(0)]
    for n in (16, 40):
        with pytest.raises(poly.CapExceeded, match=f"{2 ** (n + 1) - 2} generators"):
            canonicalize(word, n)
        with pytest.raises(poly.CapExceeded, match="over the cap 65536"):
            subduct(word, word, n)


@pytest.mark.parametrize("n, max_len, message", [
    (5000, 3, "n = 5000 has at least 2^5000 words up to length 3"),
    (10**7, 3, "n = 10000000 has at least 2^10000000 words up to length 3"),
    (2, 3 * 10**6, "n = 2 has at least 2^64 words up to length 3000000"),
])
def test_the_word_count_stops_once_past_the_cap(n, max_len, message):
    # a count past COUNT_DIGITS_LIMIT is written as its power of 2, never
    # converted to decimal, and the lengths after it are not summed
    with pytest.raises(poly.CapExceeded, match=f"{re.escape(message)}, over the cap 65536"):
        gz.sweep_word_count(n, max_len)


def test_a_count_is_written_in_digits_up_to_the_limit():
    limit = gz.COUNT_DIGITS_LIMIT
    assert gz._count_text(limit) == str(limit)
    assert gz._count_text(limit + 1) == "at least 2^64"


def test_subduct_checks_the_generator_cap_before_any_pattern_sum(monkeypatch):
    def summed(word, n):
        raise AssertionError("a pattern sum was formed past the generator cap")

    monkeypatch.setattr(gz, "word_pattern_sum", summed)
    word = [MarkedGenerator.neg(0)]
    with pytest.raises(poly.CapExceeded, match="n = 2000 has at least 2\\^2000 generators"):
        subduct(word, word, 2000)


def test_lead_pattern_verified_up_to_n5():
    for n in (2, 3, 4, 5):
        psi = build_psi(n)
        for gen in all_generators(n):
            declared = lead_pattern(gen, n, psi=psi)
            assert declared == gen.extended_pattern(n)


def test_lead_pattern_rejects_swapped_images():
    # P12 and P13 trade images, so each declared pattern meets the other's
    # initial term
    psi = build_psi(3)
    images = dict(psi.images, P12=psi.images["P13"], P13=psi.images["P12"])
    swapped = RingMap(psi.source, psi.target, images)
    for cols in ({1, 2}, {1, 3}):
        with pytest.raises(AssertionError, match="not its declared pattern"):
            lead_pattern(MarkedGenerator.flag(cols), 3, psi=swapped)
    lead_pattern(MarkedGenerator.flag({2, 3}), 3, psi=swapped)


def test_lead_pattern_rejects_a_non_unit_coefficient():
    psi = build_psi(3)
    doubled = RingMap(psi.source, psi.target, dict(psi.images, P1=2 * psi.images["P1"]))
    with pytest.raises(AssertionError, match="not its declared pattern"):
        lead_pattern(MarkedGenerator.flag({1}), 3, psi=doubled)


def test_lead_pattern_spec_displays():
    n = 3
    psi = build_psi(n)
    x2 = lead_pattern(MarkedGenerator.neg(2), n, psi)
    assert x2.zvec == (0, 0, -1, 0)
    p = lead_pattern(MarkedGenerator.flag({1, 3}, 0), n, psi)
    assert p.pattern == generator_pattern({1, 3}, n)
    assert p.zvec == (0, 1, 0, 1)
    marked = lead_pattern(MarkedGenerator.flag({1, 2}, 2), n, psi)
    assert marked.pattern == generator_pattern({1, 2}, n)
    assert marked.zvec == (1, 1, 0, 0)


def test_diagonal_order_picks_first_missing_column():
    # the 0-column image of tau = {2} expands over columns 1 and 3; the
    # initial term must come from the first missing element, 1
    n = 3
    psi = build_psi(n)
    target = psi.target
    order = diagonal_order(target, n)
    image = psi.images["P02"]
    lead, _ = image.leading_term(order)
    assert lead[target.index["y1_1"]] == 1
    assert lead[target.index["y2_2"]] == 1


def test_word_parsing_roundtrip():
    text = "[-2],[{1,3},0],[{1,2},2]"
    word = parse_word(text)
    assert word_to_text(word) == text
    gen = parse_generator("[{1,3},1]")
    assert gen.sigma == frozenset({1, 3}) and gen.mark == 1


@pytest.mark.parametrize("text", ["[-0],,[-1]", "[-0], ,[-1]", "[-0],", ",[-0]", ","])
def test_word_with_an_empty_generator_is_refused(text):
    with pytest.raises(ValueError, match="bad generator syntax"):
        parse_word(text)


@pytest.mark.parametrize("text", ["[{1,,2},0]", "[{1,2},,1]", "[{1,2}1]", "[{1,2,0]", "[{1,2},0",
                                  "[{1,2},0]x", "[-+1]", "[--1]", "[{-1,2},0]", "[{1,2},-1]", "[-]"])
def test_malformed_generator_is_refused_by_name(text):
    with pytest.raises(ValueError, match="bad generator syntax: " + re.escape(repr(text))):
        parse_generator(text)


def test_a_number_has_at_most_generator_digits_digits():
    longest = "9" * gz.GENERATOR_DIGITS
    assert parse_generator(f"[-{longest}]") == MarkedGenerator.neg(int(longest))
    with pytest.raises(ValueError, match=r"number of more than 9 digits in generator '\[-0{10}\]'"):
        parse_generator("[-" + "0" * 10 + "]")


def test_repeated_column_is_refused_by_name():
    with pytest.raises(ValueError, match=r"repeated column in generator '\[\{1,1\},0\]'"):
        parse_generator("[{1,1},0]")


def test_generator_spacing_and_an_omitted_mark_are_accepted():
    assert parse_generator(" [ - 2 ] ") == MarkedGenerator.neg(2)
    assert parse_generator("[{ 1 , 3 } , 1]") == MarkedGenerator.flag({1, 3}, 1)
    assert parse_generator("[{1,2}]") == MarkedGenerator.flag({1, 2}, 0)


def test_blank_word_is_the_empty_word():
    assert parse_word("") == parse_word("  ") == ()


def test_subduct_marking_exchange():
    res = subduct(parse_word("[-1],[{1},0]"), parse_word("[-0],[{1},1]"), 2)
    assert res["success"]
    assert res["canonical1"] == "[{1},1],[-0]"
    assert [s["rule"] for s in res["trace1"]] == ["marking-exchange"]
    assert res["trace2"] == []


def test_subduct_requires_equal_pattern_sums():
    with pytest.raises(SubductionError):
        subduct(parse_word("[-1]"), parse_word("[-2]"), 2)


def test_chain_word_is_fixed_point():
    word = parse_word("[{1},0],[{1,2},0]")
    canon, steps = canonicalize(word, 3)
    assert steps == []
    assert canon == sort_word(word)


def test_dominance_comparable_pair_is_canonical():
    # prefix counts (0,1,1,1) vs (1,1,2,2) are comparable: nothing to do
    word = parse_word("[{2},0],[{1,3},0]")
    canon, steps = canonicalize(word, 4)
    assert steps == []
    assert word_to_text(canon) == "[{1,3},0],[{2},0]"


def test_straightening_incomparable_pair():
    # counts (1,1,1,2) vs (0,1,2,2) sort to (1,1,2,2) and (0,1,1,2)
    word = parse_word("[{1,4},0],[{2,3},0]")
    canon, steps = canonicalize(word, 5)
    assert [s["rule"] for s in steps] == ["union-intersection"]
    assert word_to_text(canon) == "[{1,3},0],[{2,4},0]"


def test_straightening_preserves_pattern_sum():
    n = 5
    word = parse_word("[{1,4},0],[{2,3},0],[-2]")
    before = word_pattern_sum(word, n)
    canon, steps = canonicalize(word, n)
    assert word_pattern_sum(canon, n) == before
    assert steps  # at least the straightening step ran


@pytest.mark.parametrize("n, incomparable", [(3, 2), (4, 24), (5, 178), (6, 1061)])
def test_every_straightening_adds_a_join_and_a_meet(n, incomparable):
    # two nonempty column sets have a nonempty meet: its last prefix count
    # is the smaller size, so no straightening drops a flag
    t = gz._codes(n)
    added = [gz._straighten(n, a, b) for a, b in combinations(range(t.flags), 2)]
    added = [codes for codes in added if codes is not None]
    assert len(added) == incomparable
    assert all(len(codes) == 2 and max(codes) < t.flags for codes in added)


def test_rewrite_step_that_breaks_the_pattern_sum_raises():
    n = 5
    t = gz._codes(n)
    word = parse_word("[{1,4},0],[{2,3},0],[-2]")
    codes = [t.code[g] for g in word]
    pair = codes[:2]
    join, meet, wrong = (t.code[MarkedGenerator.flag(s)] for s in ({1, 3}, {2, 4}, {2, 3}))
    new_word = gz._apply_step([], codes, n, "union-intersection", pair, [join, meet])
    assert word_pattern_sum([t.gens[c] for c in new_word], n) == word_pattern_sum(word, n)
    with pytest.raises(AssertionError, match="broke the pattern sum"):
        gz._apply_step([], codes, n, "dropped meet", pair, [join])
    with pytest.raises(AssertionError, match="broke the pattern sum"):
        gz._apply_step([], codes, n, "wrong meet", pair, [join, wrong])


def test_an_unbalanced_straightening_raises_in_both_drivers(monkeypatch):
    # a straightening that drops the meet breaks the pattern sum; the check
    # runs when a flag multiset is straightened, for canonicalize and for
    # the sweep alike, so fresh tables keep no path straightened before
    straighten, codes, tables = gz._straighten, gz._codes, {}
    monkeypatch.setattr(gz, "_codes", lambda n: tables.setdefault(n, codes(n)._replace(chains={})))
    monkeypatch.setattr(gz, "_straighten",
                        lambda n, a, b: (added := straighten(n, a, b)) and added[:1])
    with pytest.raises(AssertionError, match="broke the pattern sum"):
        canonicalize(parse_word("[{1,4},0],[{2,3},0]"), 5)
    with pytest.raises(AssertionError, match="broke the pattern sum"):
        confluence_sweep(3, 2)


def test_a_mark_move_that_settles_nothing_raises(monkeypatch):
    # a move that leaves the word as it was would repeat forever; the loop
    # stops after one move per flag and one check
    monkeypatch.setattr(gz, "_with_mark", lambda t, c, mark: c)
    with pytest.raises(AssertionError, match="mark moves did not settle"):
        canonicalize(parse_word("[-1],[{1},0]"), 2)


def _small_words():
    """Every word of length <= 3 at n = 3 and of length <= 2 at n = 4."""
    for n, max_len in ((3, 3), (4, 2)):
        gens = all_generators(n)
        for size in range(1, max_len + 1):
            for word in combinations_with_replacement(gens, size):
                yield n, word


def _codes_of(word, n):
    return [gz._codes(n).code[g] for g in word]


def _gens_of(codes, n):
    return tuple(gz._codes(n).gens[c] for c in codes)


def test_rebalance_steps_keep_the_mark_targets():
    # _move_marks computes the mark targets once per word; that is sound only
    # if no mark-transport or marking-exchange step changes them
    moves = 0
    for n, word in _small_words():
        t = gz._codes(n)
        before = tuple(sorted(_codes_of(word, n)))
        for rule, _, _, after in gz._rewrite(_codes_of(word, n), n)[1]:
            if rule != "union-intersection":
                moves += 1
                targets = gz._mark_targets(t, before)
                assert gz._mark_targets(t, after) == targets, (
                    f"{rule} on {word_to_text(_gens_of(before, n))}"
                )
            before = after
    assert moves > 100


def test_a_value_with_no_flag_to_take_it_is_an_internal_error(monkeypatch):
    # with every capacity 0, the mark of [{1},1] fits no flag, and the word
    # has no negated variable to keep it
    table = gz._codes(2)
    monkeypatch.setattr(gz, "_codes", lambda n: table._replace(cap=(0,) * len(table.cap), chains={}))
    with pytest.raises(AssertionError, match="lost a negated variable"):
        canonicalize(parse_word("[{1},1]"), 2)


def test_sweep_canonical_words_match_canonicalize(monkeypatch):
    # the sweep takes each word's straightened flags from its table and runs
    # the mark moves, the core it shares with canonicalize, word by word in
    # the order of _small_words; each swept word must start its mark moves
    # where _rewrite's straightening ends and reach canonicalize's word,
    # whose text trace is _rewrite's steps
    seen = []
    core = gz._move_marks

    def recorded(t, word, n, steps):
        canon = core(t, word, n, steps)
        seen.append((word, canon))
        return canon

    monkeypatch.setattr(gz, "_move_marks", recorded)
    words = confluence_sweep(3, 3)["words"] + confluence_sweep(4, 2)["words"]
    monkeypatch.setattr(gz, "_move_marks", core)
    assert len(seen) == words == len(list(_small_words()))
    for (n, word), (chain, canon) in zip(_small_words(), seen):
        codes = _codes_of(word, n)
        core_canon, steps = gz._rewrite(codes, n)
        straightened = [after for rule, _, _, after in steps if rule == "union-intersection"]
        assert chain == (straightened[-1] if straightened else tuple(sorted(codes)))
        assert canon == core_canon
        text_canon, text_steps = canonicalize(word, n)
        assert text_canon == _gens_of(canon, n)
        assert text_steps == [
            {
                "rule": rule,
                "removed": [str(g) for g in _gens_of(removed, n)],
                "added": [str(g) for g in _gens_of(added, n)],
                "word": word_to_text(_gens_of(after, n)),
            }
            for rule, removed, added, after in steps
        ]


# sha256 of repr([(word, _rewrite(word, n)) ...]) over every word of 1 to L
# generators at n, numbered as all_generators(n) lists them; (3, 5) and
# (4, 3) are the bench sweeps.  Canonical words and steps must not move.
REWRITE_DIGESTS = {
    (2, 6): "f35d73bf828b1156bf56271f57a7f29d5c544dcc226e7fd2776bd846cd26df11",
    (3, 5): "a3956f932927cf2e0c796483809e161d60b42e48dc9256f5af8e4857edb25e16",
    (4, 3): "94b38d843dd9f4b1ff85a8a97f613bb8fee06e1f12c365bb13aba9745644d5f2",
    (5, 2): "30afef2d6f4c151bab9345ea84f01779f41afffda4fc8d60b2ffeccc6f4817f4",
}


@pytest.mark.parametrize(("n", "max_len"), sorted(REWRITE_DIGESTS))
def test_rewrite_core_output_is_pinned(n, max_len):
    codes = [gz._codes(n).code[g] for g in all_generators(n)]
    words = [word for size in range(1, max_len + 1)
             for word in combinations_with_replacement(codes, size)]
    text = repr([(word, gz._rewrite(word, n)) for word in words])
    assert hashlib.sha256(text.encode()).hexdigest() == REWRITE_DIGESTS[n, max_len]


def test_the_chain_memo_is_bounded_by_the_flag_multisets():
    # straightening never adds a flag, so a sweep up to length L looks up
    # at most the multisets of at most L flags, and a second sweep none new;
    # each entry is the whole path from its flags to a chain
    gz._codes.cache_clear()
    for n, max_len, bound in ((3, 5, 3003), (4, 3, 3276)):
        t = gz._codes(n)
        assert comb(t.flags + max_len, max_len) == bound
        confluence_sweep(n, max_len)
        kept = len(t.chains)
        assert 0 < kept <= bound
        for flags, path in t.chains.items():
            chain = flags
            for rule, removed, added, after in path:
                assert rule == "union-intersection"
                left = Counter(chain) - Counter(removed) + Counter(added)
                assert after == tuple(sorted(left.elements()))
                chain = after
            assert not any(gz._straighten(n, a, b) for a, b in combinations(chain, 2))
        confluence_sweep(n, max_len)
        assert len(t.chains) == kept


@pytest.mark.parametrize("text", ["[{1,2,3},0]", "[-4]"])
def test_canonicalize_rejects_a_generator_invalid_for_n(text):
    # the generator is checked before it is looked up in the code table
    with pytest.raises(ValueError, match="out of range|strict subset"):
        canonicalize(parse_word(text), 3)


@pytest.mark.parametrize("n,max_len,words,groups", [(2, 12, 18563, 10555), (3, 4, 3059, 2099)])
def test_packed_key_groups_words_as_the_flat_sum_does(n, max_len, words, groups):
    # the packed sums partition the words exactly as the flat pattern sums do
    code, packed = gz._codes(n).code, gz._packed(n, max_len)
    by_flat, by_packed = {}, {}
    count = 0
    for size in range(1, max_len + 1):
        for word in combinations_with_replacement(all_generators(n), size):
            by_flat.setdefault(gz._flat_sum(word, n), []).append(count)
            by_packed.setdefault(sum(packed[code[g]] for g in word), []).append(count)
            count += 1
    assert set(map(tuple, by_flat.values())) == set(map(tuple, by_packed.values()))
    assert (count, len(by_flat)) == (words, groups)


def test_sweep_reports_a_clash_as_word_text(broken_confluence):
    report = confluence_sweep(2, 2)
    assert report["confluent"] is False
    # the group's first member, in enumeration order, and the clashing word
    assert report["clashes"] == [("[-0],[{1},1]", "[-1],[{1},0]")]


def test_sweep_lists_clashes_group_by_group(twice_broken_confluence):
    # the sweep meets [-1],[{1,3},0] before [-2],[{1,2},0], but the group
    # of the latter appears first: clashes come in the order their groups
    # first appear; canonicalize sees the same fault
    for text in ("[-2],[{1,2},0]", "[-1],[{1,3},0]"):
        word = parse_word(text)
        assert canonicalize(word, 3) == (sort_word(word), [])
    assert confluence_sweep(3, 2)["clashes"] == [
        ("[-0],[{1,2},2]", "[-2],[{1,2},0]"),
        ("[-0],[{1,3},1]", "[-1],[{1,3},0]"),
    ]

def test_critical_pair_with_two_marks():
    res = subduct(parse_word("[-2],[{1,2},1]"), parse_word("[-1],[{1,2},2]"), 3)
    assert res["success"]
    assert res["canonical1"] == "[{1,2},2],[-1]"


def test_confluence_exhaustive():
    for n in (2, 3):
        report = confluence_sweep(n, 3)
        assert report["confluent"], report["clashes"]
    assert confluence_sweep(2, 3)["words"] > 50


def test_confluence_n4_spot_check():
    report = confluence_sweep(4, 2)
    assert report["confluent"], report["clashes"]


def test_lift_property_n2():
    psi = build_psi(2)
    kernel = psi_kernel(2)
    order = grevlex(psi.source)
    gb = kernel.groebner(order)
    lifted = 0
    for size in range(1, 4):
        for combo in combinations_with_replacement(all_generators(2), size):
            _, steps = canonicalize(combo, 2)
            for step in steps:
                result = lift_step_check(step, 2, gb, order, psi)
                assert result is not False, step
                if result:
                    lifted += 1
    assert lifted > 0


def test_lift_step_check_at_n3_covers_every_rule():
    # at n = 2 every step is a zero-mark marking-exchange; n = 3 also has
    # composite exchanges, mark transports and straightenings
    psi = build_psi(3)
    order = grevlex(psi.source)
    gb = psi_kernel(3).groebner(order)
    results = {}
    for size in range(1, 4):
        for combo in combinations_with_replacement(all_generators(3), size):
            for step in canonicalize(combo, 3)[1]:
                key = (step["rule"], lift_step_check(step, 3, gb, order, psi))
                results[key] = results.get(key, 0) + 1
    assert results == {
        ("marking-exchange", True): 58,
        ("marking-exchange", None): 15,
        ("mark-transport", None): 37,
        ("union-intersection", None): 29,
    }
    # the Euler-type quadric is not in the ideal of the Plucker relations
    plucker = Ideal(psi.source, quadratic_plucker_relations(3, psi)).groebner(order)
    (step,) = canonicalize(parse_word("[-1],[{1},0]"), 3)[1]
    assert (step["rule"], step["added"]) == ("marking-exchange", ["[{1},1]", "[-0]"])
    assert lift_step_check(step, 3, plucker, order, psi) is False
    assert lift_step_check(step, 3, gb, order, psi) is True


def test_a_mark_past_the_capacity_is_an_internal_error(monkeypatch):
    # a broken placement asks [{2},0] for mark 1; the rewrite must not
    # blame the input with ValueError
    monkeypatch.setattr(gz, "_mark_targets", lambda t, word: [1])
    with pytest.raises(AssertionError, match="mark 1 does not fit"):
        canonicalize(parse_word("[{2},0],[-1]"), 3)


def test_negative_control_sign_flip_detected():
    psi = build_psi(2)
    tampered_images = dict(psi.images)
    tampered_images["P1"] = -tampered_images["P1"]
    tampered = poly.RingMap(psi.source, psi.target, tampered_images)
    with pytest.raises(AssertionError):
        gz_relation_check(2, tampered)


def first_vector_perturbed(monkeypatch):
    """Make gz.left_kernel_basis return its first vector, the one of the
    relation P0*P12 - P1*P02 + P2*P01 at n = 3, with 3/2 for its leading 1."""
    original, called = gz.left_kernel_basis, []

    def perturbed(rows):
        vectors = original(rows)
        if not called:
            vectors[0][0] = Fraction(3, 2)
            called.append(True)
        return vectors

    monkeypatch.setattr(gz, "left_kernel_basis", perturbed)


@pytest.mark.parametrize("family", [quadratic_plucker_relations, relation_families,
                                    flag_presentation])
def test_a_perturbed_plucker_coefficient_is_refused_by_name(monkeypatch, family):
    psi = build_psi(3)
    first_vector_perturbed(monkeypatch)
    with pytest.raises(AssertionError, match=re.escape(
            "relations with nonzero image: ['P2*P01 - P1*P02 + 3/2*P0*P12']")):
        family(3, psi)


def test_a_flipped_euler_sign_is_refused_by_name(monkeypatch):
    psi = build_psi(3)
    v = psi.source.var
    flipped = v("x0") * v("P0") - v("x1") * v("P1") + v("x2") * v("P2") + v("x3") * v("P3")
    original = gz.euler_flag_relation

    def one_sign_flipped(n, tau, psi):
        rel = original(n, tau, psi)
        return rel - 2 * v("x1") * v("P1") if not tau else rel

    monkeypatch.setattr(gz, "euler_flag_relation", one_sign_flipped)
    for family in (relation_families, flag_presentation):
        with pytest.raises(AssertionError, match=re.escape(
                f"relations with nonzero image: [{poly_to_text(flipped)!r}]")):
            family(3, psi)


def test_gz_relation_check_reuses_psi(monkeypatch):
    psi = build_psi(3)

    def rebuilt(n):
        raise RuntimeError("psi rebuilt")

    monkeypatch.setattr(gz, "build_psi", rebuilt)
    assert gz_relation_check(3, psi) == 9


def test_pattern_sum_invariance_across_traces():
    for n in (2, 3):
        gens = all_generators(n)
        for size in (2, 3):
            for combo in combinations_with_replacement(gens[:6], size):
                total = word_pattern_sum(combo, n)
                canon, _ = canonicalize(combo, n)
                assert word_pattern_sum(canon, n) == total


def _oracle_canonical_word(total, n):
    """Reconstruct the canonical word from the pattern-sum invariants alone.

    Flag sets come from the level decomposition of the summed pattern
    (entries >= k form a generator pattern); the value pool and the negated
    count are read off the torus vector; marks go to flags greedily by
    descending value and prefix capacity.
    """
    # level decomposition
    flags = []
    level = 1
    while True:
        rows = [[1 if e >= level else 0 for e in row] for row in total.pattern]
        if not any(any(r) for r in rows):
            break
        for r in rows:
            assert r == sorted(r, reverse=True), "level slice is not prefix-ones"
        sigma = set()
        prev = 0
        for k in range(1, n + 1):
            a_k = sum(rows[n - k])  # |sigma ∩ [k]| read from row n+1-k
            if a_k == prev + 1:
                sigma.add(k)
            prev = a_k
        flags.append(frozenset(sigma))
        level += 1
    # torus bookkeeping: residual after the unmarked flags
    residual = list(total.zvec)
    for sigma in flags:
        for j in sigma:
            residual[j] -= 1
    pool = []
    for a in range(1, n + 1):
        assert residual[a] <= 0
        pool.extend([a] * (-residual[a]))
    pool.sort(reverse=True)
    neg_count = len(pool) - residual[0]
    assert neg_count >= 0
    # greedy placement, mirroring the canonical assignment
    flags.sort(key=lambda s: (-len(s), tuple(sorted(s))))
    marks = [0] * len(flags)
    leftovers = []
    for v in pool:
        for idx, sigma in enumerate(flags):
            cap = 0
            while cap + 1 in sigma:
                cap += 1
            if marks[idx] == 0 and cap >= v:
                marks[idx] = v
                break
        else:
            leftovers.append(v)
    word = [MarkedGenerator.flag(sigma, mark) for sigma, mark in zip(flags, marks)]
    word += [MarkedGenerator.neg(v) for v in leftovers]
    word += [MarkedGenerator.neg(0)] * (neg_count - len(leftovers))
    return sort_word(word)


def test_canonical_form_is_a_function_of_the_pattern_sum():
    for n, max_len in ((2, 3), (3, 3), (4, 2)):
        gens = all_generators(n)
        for size in range(1, max_len + 1):
            for combo in combinations_with_replacement(gens, size):
                total = word_pattern_sum(combo, n)
                canon, _ = canonicalize(combo, n)
                assert canon == _oracle_canonical_word(total, n), word_to_text(combo)
