from itertools import combinations, combinations_with_replacement

import pytest

from tvbcox import gz, poly
from tvbcox.gz import (
    GZPattern,
    MarkedGenerator,
    SubductionError,
    all_generators,
    build_psi,
    canonicalize,
    confluence_sweep,
    diagonal_order,
    euler_flag_relation,
    flag_column_sets,
    flag_ring,
    generator_pattern,
    lead_marker,
    lead_pattern,
    lift_step_check,
    parse_generator,
    parse_word,
    psi_kernel,
    quadratic_plucker_relations,
    relation_families,
    sort_word,
    subduct,
    word_pattern_sum,
    word_to_text,
)
from tvbcox.poly import Ideal, grevlex, ideal_equal
from tvbcox.suite import gz_relation_check
from oracles import euler_quadric_by_sign_search


def subsets(n):
    for size in range(1, n):
        yield from (frozenset(c) for c in combinations(range(1, n + 1), size))


def test_generator_pattern_examples():
    assert generator_pattern({1}, 2).rows == ((1, 0), (1,))
    assert generator_pattern({1, 2}, 3).rows == ((1, 1, 0), (1, 1), (1,))


def test_generator_pattern_exhaustive():
    for n in range(2, 7):
        for tau in subsets(n):
            pattern = generator_pattern(tau, n)
            assert pattern.interlaces()
            assert pattern.rows[0][-1] == 0
    with pytest.raises(ValueError):
        generator_pattern(set(), 3)
    with pytest.raises(ValueError):
        generator_pattern({1, 2, 3}, 3)


def test_pattern_addition_preserves_interlacing():
    for n in (2, 3, 4):
        taus = list(subsets(n))
        for a in taus:
            for b in taus:
                word = (MarkedGenerator.flag(a), MarkedGenerator.flag(b))
                assert word_pattern_sum(word, n).pattern.interlaces()


def test_lead_marker():
    assert lead_marker({2, 3}, 4) == (1, frozenset({1, 2, 3}))
    assert lead_marker(set(), 3) == (1, frozenset({1}))
    assert lead_marker({1}, 3) == (2, frozenset({1, 2}))
    with pytest.raises(ValueError):
        lead_marker({1, 2, 3}, 3)


def test_marked_generator_validity():
    MarkedGenerator.flag({1, 2}, 2)
    with pytest.raises(ValueError):
        MarkedGenerator.flag({2}, 2)  # needs {1, 2} inside the set
    with pytest.raises(ValueError):
        MarkedGenerator.flag(set(), 0)
    gen = MarkedGenerator.flag({1, 3}, 1)
    assert gen.variable_columns() == frozenset({0, 3})
    assert MarkedGenerator.neg(2).extended_pattern(3).zvec == (0, 0, -1, 0)


def test_extended_patterns_of_generators():
    n = 3
    x1 = MarkedGenerator.neg(1).extended_pattern(n)
    assert x1.pattern == GZPattern.zero(n)
    flag = MarkedGenerator.flag({1, 2}, 0).extended_pattern(n)
    assert flag.pattern == generator_pattern({1, 2}, n)
    assert flag.zvec == (0, 1, 1, 0)
    marked = MarkedGenerator.flag({1, 2}, 2).extended_pattern(n)
    assert marked.zvec == (1, 1, 0, 0)


def test_flag_ring_variables():
    ring = flag_ring(2)
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
    for n in (2, 3):
        psi = build_psi(n)
        for size in range(0, n - 1):
            for tau in combinations(range(1, n + 1), size):
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


def test_quadratic_relations_count_n3():
    rels = quadratic_plucker_relations(3)
    assert len(rels) == 5
    assert all(len(r) == 3 for r in rels)


def test_pair_and_word_counts_at_their_caps(monkeypatch):
    def built(n):
        raise AssertionError("psi was built before the pair cap was checked")

    monkeypatch.setattr(gz, "build_psi", built)
    assert gz.plucker_pair_count(5) == 1596
    with pytest.raises(poly.CapExceeded, match="7140 P-variable pairs") as exc:
        quadratic_plucker_relations(6)
    assert exc.value.size == 7140
    assert gz.sweep_word_count(6, 2) == 8127
    with pytest.raises(poly.CapExceeded, match="349503 words up to length 3"):
        confluence_sweep(6, 3)


def test_lead_pattern_verified_up_to_n4():
    for n in (2, 3, 4):
        psi = build_psi(n)
        for gen in all_generators(n):
            declared = lead_pattern(gen, n, psi=psi)
            assert declared == gen.extended_pattern(n)


def test_lead_pattern_spec_displays():
    n = 3
    x2 = lead_pattern(MarkedGenerator.neg(2), n)
    assert x2.zvec == (0, 0, -1, 0)
    p = lead_pattern(MarkedGenerator.flag({1, 3}, 0), n)
    assert p.pattern == generator_pattern({1, 3}, n)
    assert p.zvec == (0, 1, 0, 1)
    marked = lead_pattern(MarkedGenerator.flag({1, 2}, 2), n)
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


def test_rewrite_step_that_breaks_the_pattern_sum_raises():
    n = 5
    word = parse_word("[{1,4},0],[{2,3},0],[-2]")
    pair = list(word[:2])
    join = MarkedGenerator.flag(frozenset({1, 3}))
    meet = MarkedGenerator.flag(frozenset({2, 4}))
    new_word = gz._apply_step([], word, n, "union-intersection", pair, [join, meet])
    assert word_pattern_sum(new_word, n) == word_pattern_sum(word, n)
    with pytest.raises(AssertionError, match="broke the pattern sum"):
        gz._apply_step([], word, n, "dropped meet", pair, [join])
    wrong = MarkedGenerator.flag(frozenset({2, 3}))
    with pytest.raises(AssertionError, match="broke the pattern sum"):
        gz._apply_step([], word, n, "wrong meet", pair, [join, wrong])


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


def test_negative_control_sign_flip_detected():
    psi = build_psi(2)
    tampered_images = dict(psi.images)
    tampered_images["P1"] = -tampered_images["P1"]
    tampered = poly.RingMap(psi.source, psi.target, tampered_images)
    with pytest.raises(AssertionError):
        gz_relation_check(2, tampered)


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
        rows = [[1 if e >= level else 0 for e in row] for row in total.pattern.rows]
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
