"""Gelfand-Tsetlin patterns, marked generators, and flag-bundle subduction.

The Cox ring of the full flag bundle of the tangent bundle is presented by
variables x_0..x_n and flag minors P over column sets of an (n-1) x (n+1)
matrix whose 0-th column is forced by the Euler relations.  Initial data of
generators are tracked as extended patterns (triangular array, Z^{n+1}
vector); products are rewritten against two relation families until words
reach a canonical form.
"""

from functools import lru_cache
from itertools import accumulate, combinations, combinations_with_replacement
from math import comb
from typing import NamedTuple

from .cox import t_name, x_name, yy_name
from .linalg import left_kernel_basis
from .poly import (
    CapExceeded,
    PolyRing,
    RingMap,
    lex,
    normal_form,
    poly_to_text,
    ring_map_kernel,
    symbolic_det,
)

# Largest number of words confluence_sweep canonicalizes.
SWEEP_CAP = 2**16
# Largest number of P-variable pairs quadratic_plucker_relations maps.
PAIR_CAP = 2**11


# ---------------------------------------------------------------------------
# patterns


class GZPattern:
    """Triangular integer array; row i (1-based) has n + 1 - i entries."""

    __slots__ = ("rows",)

    def __init__(self, rows):
        rows = tuple(tuple(r) for r in rows)
        n = len(rows)
        for i, row in enumerate(rows):
            if len(row) != n - i:
                raise ValueError("row lengths must decrease by one")
        self.rows = rows

    @property
    def n(self):
        return len(self.rows)

    @classmethod
    def zero(cls, n):
        return cls([(0,) * (n - i) for i in range(n)])

    def interlaces(self):
        """g[i][j] >= g[i+1][j] >= g[i][j+1] for all valid positions."""
        g = self.rows
        for i in range(len(g) - 1):
            for j in range(len(g[i + 1])):
                if not (g[i][j] >= g[i + 1][j] >= g[i][j + 1]):
                    return False
        return True

    def in_plus_cone(self):
        """Interlacing and a zero at the end of the top row."""
        return self.interlaces() and self.rows[0][-1] == 0

    def __eq__(self, other):
        return isinstance(other, GZPattern) and self.rows == other.rows

    def __hash__(self):
        return hash(self.rows)

    def __repr__(self):
        return f"GZPattern({list(map(list, self.rows))})"


def generator_pattern(tau, n: int):
    """The pattern of a flag minor: row i holds |tau ∩ [n-i+1]| ones."""
    tau = frozenset(tau)
    if not tau or tau == frozenset(range(1, n + 1)):
        raise ValueError("tau must be a nonempty strict subset of [n]")
    if not tau <= frozenset(range(1, n + 1)):
        raise ValueError(f"tau out of range 1..{n}")
    rows = []
    for i in range(1, n + 1):
        width = n + 1 - i
        ones = len(tau & set(range(1, width + 1)))
        rows.append((1,) * ones + (0,) * (width - ones))
    pattern = GZPattern(rows)
    if not pattern.in_plus_cone():
        raise AssertionError(f"generator pattern violates interlacing: {tau}")
    return pattern


def lead_marker(tau, n: int):
    """(first element of [n] missing from tau, tau with it adjoined)."""
    tau = frozenset(tau)
    missing = [j for j in range(1, n + 1) if j not in tau]
    if not missing:
        raise ValueError("tau must miss some element of [n]")
    ell = missing[0]
    return ell, tau | {ell}


class ExtendedPattern(NamedTuple):
    """A pattern paired with a vector in Z^{n+1} tracking torus degrees."""

    pattern: GZPattern
    zvec: tuple


def _unit_vec(n, a, scale=1):
    v = [0] * (n + 1)
    v[a] = scale
    return tuple(v)


def _prefix_capacity(sigma):
    """Largest a with {1..a} inside sigma (0 when 1 is missing)."""
    a = 0
    while a + 1 in sigma:
        a += 1
    return a


class MarkedGenerator(NamedTuple):
    """A negated variable [-a] or a marked flag [sigma, a]; build one with
    `neg` or `flag`.

    A mark a >= 1 on a flag requires {1..a} to sit inside the column set;
    mark 0 is the plain flag minor.
    """

    kind: str
    value: int | None = None
    sigma: frozenset | None = None
    mark: int | None = None

    @classmethod
    def neg(cls, a):
        if a is None or a < 0:
            raise ValueError("negated variable needs a value in 0..n")
        return cls("neg", value=a)

    @classmethod
    def flag(cls, sigma, mark=0):
        sigma = frozenset(sigma)
        if not sigma:
            raise ValueError("flag needs a nonempty column set")
        if mark != 0 and _prefix_capacity(sigma) < mark:
            raise ValueError(f"mark {mark} needs prefix {{1..{mark}}} in {sorted(sigma)}")
        return cls("flag", sigma=sigma, mark=mark)

    def check(self, n):
        if self.kind == "neg":
            if not 0 <= self.value <= n:
                raise ValueError(f"negated index {self.value} out of range 0..{n}")
        else:
            if self.sigma == frozenset(range(1, n + 1)) or not self.sigma <= frozenset(
                range(1, n + 1)
            ):
                raise ValueError("flag set must be a nonempty strict subset of [n]")

    @lru_cache(maxsize=None)
    def extended_pattern(self, n):
        """Memoized per (generator, n): word sums call this on every
        generator, and generators and patterns are immutable values."""
        if self.kind == "neg":
            return ExtendedPattern(GZPattern.zero(n), _unit_vec(n, self.value, -1))
        pattern = generator_pattern(self.sigma, n)
        zvec = [0] * (n + 1)
        for j in self.sigma:
            zvec[j] += 1
        if self.mark:
            zvec[0] += 1
            zvec[self.mark] -= 1
        return ExtendedPattern(pattern, tuple(zvec))

    def variable_columns(self):
        """Column set of the flag-ring variable this generator stands for."""
        if self.kind == "neg":
            return None
        if self.mark == 0:
            return self.sigma
        return self.sigma - {self.mark} | {0}

    def variable_name(self):
        if self.kind == "neg":
            return x_name(self.value)
        return p_name(self.variable_columns())

    def sort_key(self):
        if self.kind == "flag":
            return (0, -len(self.sigma), tuple(sorted(self.sigma)), -self.mark)
        return (1, -self.value)

    def __repr__(self):
        return generator_to_text(self)


def generator_to_text(gen):
    if gen.kind == "neg":
        return f"[-{gen.value}]"
    cols = ",".join(str(j) for j in sorted(gen.sigma))
    return f"[{{{cols}}},{gen.mark}]"


def parse_generator(text):
    s = text.strip()
    if not (s.startswith("[") and s.endswith("]")):
        raise ValueError(f"bad generator syntax: {text!r}")
    body = s[1:-1].strip()
    if body.startswith("-"):
        return MarkedGenerator.neg(int(body[1:]))
    if not body.startswith("{"):
        raise ValueError(f"bad generator syntax: {text!r}")
    close = body.index("}")
    cols = {int(x) for x in body[1:close].split(",") if x.strip()}
    rest = body[close + 1 :].lstrip(",").strip()
    mark = int(rest) if rest else 0
    return MarkedGenerator.flag(cols, mark)


def parse_word(text):
    """Words use a bracket syntax like "[-2],[{1,3},0]"."""
    depth = 0
    chunks = []
    buf = []
    for ch in text:
        if ch == "[":
            depth += 1
        elif ch == "]":
            depth -= 1
        if ch == "," and depth == 0:
            chunks.append("".join(buf))
            buf = []
        else:
            buf.append(ch)
    if buf:
        chunks.append("".join(buf))
    return tuple(parse_generator(c) for c in chunks if c.strip())


def word_to_text(word):
    return ",".join(generator_to_text(g) for g in word)


def word_pattern_sum(word, n):
    """Entrywise sum of the generators' extended patterns, built once."""
    parts = [gen.extended_pattern(n) for gen in word]
    if not parts:
        return ExtendedPattern(GZPattern.zero(n), (0,) * (n + 1))
    rows = [tuple(map(sum, zip(*col))) for col in zip(*(p.pattern.rows for p in parts))]
    return ExtendedPattern(GZPattern(rows), tuple(map(sum, zip(*(p.zvec for p in parts)))))


def sort_word(word):
    return tuple(sorted(word, key=lambda g: g.sort_key()))


# ---------------------------------------------------------------------------
# the flag ring and the presentation map


def p_name(cols):
    return "P" + "".join(str(c) for c in sorted(cols))


def flag_column_sets(n):
    """Column sets of the flag-ring variables: nonempty strict subsets of
    [n], and 0-column sets {0} | tau with |tau| <= n - 2."""
    sets = []
    for size in range(1, n):
        for tau in combinations(range(1, n + 1), size):
            sets.append(frozenset(tau))
    for size in range(0, n - 1):
        for tau in combinations(range(1, n + 1), size):
            sets.append(frozenset({0}) | frozenset(tau))
    return sorted(sets, key=lambda s: (len(s), sorted(s)))


def flag_ring(n: int):
    names = [x_name(j) for j in range(n + 1)]
    names += [p_name(cols) for cols in flag_column_sets(n)]
    return PolyRing(names)


def psi_target_ring(n):
    names = [t_name(j) for j in range(n + 1)]
    names += [yy_name(i, j) for i in range(1, n) for j in range(1, n + 1)]
    return PolyRing(names)


def build_psi(n: int):
    """Presentation map of the Cox ring of the full flag bundle of T_n.

    P over columns `cols` goes to the top-justified minor of the matrix
    whose 0-th column carries the Euler syzygy (-sum_j y_ij) and whose j-th
    column is y_.j, times the torus monomial t^cols.
    """
    if n < 2:
        raise ValueError("need n >= 2")
    source = flag_ring(n)
    target = psi_target_ring(n)

    def column(i, j):
        if j == 0:
            total = target.zero()
            for jj in range(1, n + 1):
                total = total - target.var(yy_name(i, jj))
            return total
        return target.var(yy_name(i, j))

    images = {}
    for j in range(n + 1):
        images[x_name(j)] = target.var(t_name(j)) ** (-1)
    for cols in flag_column_sets(n):
        ordered = sorted(cols)
        rows = [[column(i, j) for j in ordered] for i in range(1, len(cols) + 1)]
        det = symbolic_det(rows)
        t_mono = target.one()
        for j in cols:
            t_mono = t_mono * target.var(t_name(j))
        images[p_name(cols)] = det * t_mono
    return RingMap(source, target, images)


def diagonal_order(target_ring, n):
    """Every t beats every y; the y block is lex, rows top down, columns
    left to right, so top-justified minors lead with their diagonal and the
    first missing column decides between competing minors."""
    t_names = [t_name(j) for j in range(n + 1)]
    y_names = [yy_name(i, j) for i in range(1, n) for j in range(1, n + 1)]
    return lex(target_ring, t_names + y_names)


def lead_pattern(gen, n, psi=None):
    """Extended pattern of a generator's initial term.

    For n <= 4 the declared pattern is checked against the actual initial
    term of the presentation image under the diagonal order.
    """
    gen.check(n)
    declared = gen.extended_pattern(n)
    if n <= 4:
        psi = psi or build_psi(n)
        target = psi.target
        image = psi(psi.source.var(gen.variable_name()))
        order = diagonal_order(target, n)
        lead, coeff = image.leading_term(order)
        if abs(coeff) != 1:
            raise AssertionError(f"initial coefficient {coeff} is not a unit")
        t_part = [0] * (n + 1)
        expected_y = {}
        if gen.kind == "neg":
            t_part[gen.value] = -1
        else:
            diag_cols = sorted(gen.sigma)
            if gen.mark == 0:
                for j in gen.sigma:
                    t_part[j] = 1
            else:
                # marked flags stand for a 0-column minor; the winning
                # summand restores the first missing element as a column
                t_part[0] = 1
                tau = gen.sigma - {gen.mark}
                for j in tau:
                    t_part[j] = 1
                ell, star = lead_marker(tau, n)
                if star != gen.sigma or ell != gen.mark:
                    raise AssertionError(
                        f"marking {gen.mark} is not the first missing element of {sorted(tau)}"
                    )
            for row, col in enumerate(diag_cols, start=1):
                expected_y[(row, col)] = 1
        actual_t = [lead[target.index[t_name(j)]] for j in range(n + 1)]
        if actual_t != t_part:
            raise AssertionError(f"t-degrees {actual_t} do not match declared {t_part}")
        for i in range(1, n):
            for j in range(1, n + 1):
                e = lead[target.index[yy_name(i, j)]]
                if e != expected_y.get((i, j), 0):
                    raise AssertionError(
                        f"initial term of {gen!r} is not the expected diagonal"
                    )
    return declared


# ---------------------------------------------------------------------------
# relation families


def euler_flag_relation(n, tau, psi=None):
    """The Euler-type quadric x_0 P_{0+tau} + sum over j outside tau of
    (-1)^#{t in tau : t < j} x_j P_{tau+j}.

    The signs are the Laplace expansion of the 0-column minor, whose column
    is minus the sum of the others; `relation_families` checks the result
    against the presentation map.
    """
    tau = frozenset(tau)
    if not tau <= frozenset(range(1, n + 1)) or len(tau) > n - 2:
        raise ValueError("tau must be a subset of [n] with |tau| <= n - 2")
    source = psi.source if psi else flag_ring(n)
    relation = source.var(x_name(0)) * source.var(p_name({0} | tau))
    for j in sorted(set(range(1, n + 1)) - tau):
        sign = (-1) ** sum(t < j for t in tau)
        relation = relation + sign * source.var(x_name(j)) * source.var(p_name(tau | {j}))
    return relation


def plucker_pair_count(n):
    """Number of unordered pairs of P-variables at n, repeats included.
    Raises CapExceeded past PAIR_CAP."""
    count = comb(len(flag_column_sets(n)) + 1, 2)
    if count > PAIR_CAP:
        raise CapExceeded(
            f"n = {n} has {count} P-variable pairs, over the cap {PAIR_CAP}", size=count
        )
    return count


def quadratic_plucker_relations(n, psi=None):
    """Basis of the quadratic relations among the flag minors alone.

    Computed degree by degree: products of two P-variables share a torus
    multidegree exactly when their column multisets agree, and inside each
    group the kernel of the presentation map is exact linear algebra.
    Raises CapExceeded, before psi is built, past PAIR_CAP pairs.
    """
    plucker_pair_count(n)
    psi = psi or build_psi(n)
    source = psi.source
    p_vars = [name for name in source.names if name.startswith("P")]
    groups = {}
    for a, b in combinations_with_replacement(p_vars, 2):
        key = tuple(sorted(_cols_of(a) + _cols_of(b)))
        groups.setdefault(key, []).append((a, b))
    relations = []
    for key in sorted(groups):
        pairs = groups[key]
        if len(pairs) < 2:
            continue
        monomials = [source.var(a) * source.var(b) for a, b in pairs]
        images = [psi(mono) for mono in monomials]
        support = sorted({m for img in images for m in img.terms})
        rows = [[img.terms.get(m, 0) for m in support] for img in images]
        for coeffs in left_kernel_basis(rows):
            rel = source.zero()
            for c, mono in zip(coeffs, monomials):
                rel = rel + c * mono
            relations.append(rel)
    return relations


def _cols_of(p_var_name):
    return [int(c) for c in p_var_name[1:]]


def relation_families(n, psi=None):
    """All emitted relations: quadratic Plucker exchanges plus the
    Euler-type quadrics; raises AssertionError unless every element has
    presentation image zero."""
    psi = psi or build_psi(n)
    rels = quadratic_plucker_relations(n, psi)
    for size in range(0, n - 1):
        for tau in combinations(range(1, n + 1), size):
            rels.append(euler_flag_relation(n, tau, psi))
    bad = [poly_to_text(r) for r in rels if psi(r) != 0]
    if bad:
        raise AssertionError(f"relations with nonzero image: {bad[:3]}")
    return rels


def psi_kernel(n):
    """ker(psi) by elimination; desk scale only at n = 2."""
    return ring_map_kernel(build_psi(n))


# ---------------------------------------------------------------------------
# subduction


class SubductionError(ValueError):
    pass


def _apply_step(steps, word, n, rule, removed, added):
    # the word's pattern sum is kept iff the step's own generators balance
    if word_pattern_sum(removed, n) != word_pattern_sum(added, n):
        raise AssertionError(f"rewrite step broke the pattern sum: {rule}")
    new_word = list(word)
    for gen in removed:
        new_word.remove(gen)
    new_word.extend(added)
    new_word = sort_word(new_word)
    steps.append(
        {
            "rule": rule,
            "removed": [generator_to_text(g) for g in removed],
            "added": [generator_to_text(g) for g in added],
            "word": word_to_text(new_word),
        }
    )
    return new_word


@lru_cache(maxsize=None)
def _prefix_counts(sigma, n):
    """|sigma ∩ [k]| for k = 1..n; a column set is determined by these."""
    return tuple(accumulate(int(k in sigma) for k in range(1, n + 1)))


def _set_from_counts(counts):
    rises = zip((0,) + counts, counts)
    return frozenset(k for k, (prev, c) in enumerate(rises, start=1) if c == prev + 1)


def _chainify(word, n, steps):
    """Straighten flag pairs until their prefix-count vectors form a chain.

    Incomparable vectors are replaced by their pointwise max and min (the
    join and meet sets); this is the move that preserves the pattern sum
    entrywise.  For containment-comparable interactions it degenerates to
    the union/intersection form.  The smaller mark always fits the meet.
    """
    while True:
        flags = [(g, _prefix_counts(g.sigma, n)) for g in word if g.kind == "flag"]
        pair = next(
            (
                (a, ca, b, cb)
                for (a, ca), (b, cb) in combinations(flags, 2)
                if not all(x <= y for x, y in zip(ca, cb))
                and not all(x >= y for x, y in zip(ca, cb))
            ),
            None,
        )
        if pair is None:
            return word
        a, ca, b, cb = pair
        join = _set_from_counts(tuple(map(max, ca, cb)))
        meet = _set_from_counts(tuple(map(min, ca, cb)))
        marks = sorted((m for m in (a.mark, b.mark) if m), reverse=True)
        hi = marks[0] if marks else 0
        lo = marks[1] if len(marks) > 1 else 0
        added = [MarkedGenerator.flag(join, hi)]
        if meet:
            added.append(MarkedGenerator.flag(meet, lo))
        elif lo:
            raise AssertionError("meet of two marked flags cannot vanish")
        word = _apply_step(steps, word, n, "union-intersection", [a, b], added)


def _canonical_mark_targets(word, n):
    """Greedy canonical placement of nonzero values onto flags.

    Values (marks and negated indices) sorted descending take the first
    flag, in (size desc, columns) order, whose prefix capacity admits them;
    the rest stay negated.
    """
    flags = sorted(
        (g for g in word if g.kind == "flag"),
        key=lambda g: (-len(g.sigma), tuple(sorted(g.sigma))),
    )
    caps = [_prefix_capacity(g.sigma) for g in flags]
    pool = sorted(
        [g.mark for g in word if g.kind == "flag" and g.mark]
        + [g.value for g in word if g.kind == "neg" and g.value],
        reverse=True,
    )
    neg_count = sum(1 for g in word if g.kind == "neg")
    targets = [0] * len(flags)
    leftover = []
    for v in pool:
        for idx in range(len(flags)):
            if targets[idx] == 0 and caps[idx] >= v:
                targets[idx] = v
                break
        else:
            leftover.append(v)
    neg_values = leftover + [0] * (neg_count - len(leftover))
    if len(neg_values) != neg_count:
        raise AssertionError("value bookkeeping lost a negated variable")
    return flags, targets, neg_values


def _next_rebalance_move(word, flags, targets):
    """First move (values descending) toward the canonical placement.

    Bringing a value v to its slot always displaces a strictly smaller mark,
    so both directions of the exchange stay valid.
    """
    wanted_values = sorted({v for v in targets if v}, reverse=True)
    for v in wanted_values:
        for idx, want in enumerate(targets):
            if want != v or flags[idx].mark == v:
                continue
            donor = next(
                (
                    pos
                    for pos, g in enumerate(flags)
                    if g.mark == v and targets[pos] != v
                ),
                None,
            )
            if donor is not None:
                return ("swap", flags[idx], flags[donor])
            neg = next(g for g in word if g.kind == "neg" and g.value == v)
            return ("trade", flags[idx], neg)
    return None


def _rebalance_marks(word, n, steps):
    """Move values onto their canonical carriers, largest value first."""
    while True:
        flags, targets, _ = _canonical_mark_targets(word, n)
        move = _next_rebalance_move(word, flags, targets)
        if move is None:
            return word
        kind, flag, other = move
        if kind == "swap":
            added = [
                MarkedGenerator.flag(flag.sigma, other.mark),
                MarkedGenerator.flag(other.sigma, flag.mark),
            ]
            word = _apply_step(
                steps, word, n, "mark-transport", [flag, other], added
            )
        else:
            added = [
                MarkedGenerator.flag(flag.sigma, other.value),
                MarkedGenerator.neg(flag.mark),
            ]
            word = _apply_step(
                steps, word, n, "marking-exchange", [flag, other], added
            )


def canonicalize(word, n):
    """Rewrite to the canonical word; returns (word, steps)."""
    for gen in word:
        gen.check(n)
    steps = []
    word = sort_word(word)
    word = _chainify(word, n, steps)
    word = _rebalance_marks(word, n, steps)
    return sort_word(word), steps


def subduct(word1, word2, n):
    """Rewrite both words to canonical form; they must agree.

    The words must have equal extended-pattern sums (that is the
    precondition for them to present the same element).
    """
    word1, word2 = tuple(word1), tuple(word2)
    for gen in word1 + word2:
        gen.check(n)
    if word_pattern_sum(word1, n) != word_pattern_sum(word2, n):
        raise SubductionError("words have different extended-pattern sums")
    canon1, steps1 = canonicalize(word1, n)
    canon2, steps2 = canonicalize(word2, n)
    return {
        "success": canon1 == canon2,
        "canonical1": word_to_text(canon1),
        "canonical2": word_to_text(canon2),
        "trace1": steps1,
        "trace2": steps2,
    }


def all_generators(n):
    gens = [MarkedGenerator.neg(a) for a in range(n + 1)]
    for size in range(1, n):
        for tau in combinations(range(1, n + 1), size):
            sigma = frozenset(tau)
            gens.append(MarkedGenerator.flag(sigma, 0))
            for mark in range(1, _prefix_capacity(sigma) + 1):
                gens.append(MarkedGenerator.flag(sigma, mark))
    return gens


def sweep_word_count(n, max_len):
    """Number of words of 1 to max_len generators at n.  Raises CapExceeded
    past SWEEP_CAP."""
    gens = len(all_generators(n))
    count = sum(comb(gens + k - 1, k) for k in range(1, max_len + 1))
    if count > SWEEP_CAP:
        raise CapExceeded(
            f"n = {n} has {count} words up to length {max_len}, over the cap {SWEEP_CAP}",
            size=count,
        )
    return count


def confluence_sweep(n, max_len=3):
    """Exhaustively canonicalize words up to max_len; groups with equal
    pattern sums must share a canonical form.  Returns statistics.  Raises
    CapExceeded, before building any word, past SWEEP_CAP words."""
    sweep_word_count(n, max_len)
    gens = all_generators(n)
    groups = {}
    for size in range(1, max_len + 1):
        for combo in combinations_with_replacement(gens, size):
            key = word_pattern_sum(combo, n)
            groups.setdefault(key, []).append(combo)
    words = 0
    clashes = []
    for key, members in groups.items():
        canon = None
        for word in members:
            words += 1
            c, _ = canonicalize(word, n)
            if canon is None:
                canon = c
            elif c != canon:
                clashes.append((word_to_text(members[0]), word_to_text(word)))
    return {
        "n": n,
        "max_len": max_len,
        "words": words,
        "groups": len(groups),
        "confluent": not clashes,
        "clashes": clashes[:5],
    }


def lift_step_check(step, n, kernel_gb, order, psi=None):
    """A classic marking-exchange step lifts into ker(psi) through its
    Euler-family relation: the relation reduces to zero against the kernel
    basis and contains both word monomials of the step.

    Returns True/False for checked steps, None for steps the check does not
    cover (other rules, or exchanges between two nonzero marks).
    """
    if step["rule"] != "marking-exchange":
        return None
    removed = [parse_generator(t) for t in step["removed"]]
    added = [parse_generator(t) for t in step["added"]]
    flag_before = next(g for g in removed if g.kind == "flag")
    flag_after = next(g for g in added if g.kind == "flag")
    if min(flag_before.mark, flag_after.mark) != 0:
        return None  # composite exchange, not a single Euler-family lift
    psi = psi or build_psi(n)
    source = psi.source
    tau = flag_after.sigma - {flag_after.mark}
    relation = euler_flag_relation(n, tau, psi)
    if normal_form(relation, kernel_gb, order):
        return False
    monos = set()
    for pair in (removed, added):
        prod = source.one()
        for g in pair:
            prod = prod * source.var(g.variable_name())
        monos.add(next(iter(prod.terms)))
    return monos <= set(relation.terms)
