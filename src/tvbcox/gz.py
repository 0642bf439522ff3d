"""Gelfand-Tsetlin patterns, marked generators, and flag-bundle subduction.

The Cox ring of the full flag bundle of the tangent bundle is presented by
variables x_0..x_n and flag minors P over column sets of an (n-1) x (n+1)
matrix whose 0-th column is forced by the Euler relations.  Initial data of
generators are tracked as extended patterns: a Gelfand-Tsetlin pattern,
which is a tuple of integer rows, top row first, row i (1-based) of
n + 1 - i entries, paired with a vector in Z^{n+1}.  Products are rewritten
against two relation families until words reach a canonical form.
"""

import re
from bisect import bisect_left
from collections import Counter
from functools import lru_cache
from itertools import accumulate, chain, combinations, combinations_with_replacement, zip_longest
from math import comb, lcm
from operator import add, mul
from typing import NamedTuple

from .cox import (
    minor_kernel,
    minor_map,
    proof_order,
    t_name,
    x_name,
    yy_name,
)
from .linalg import left_kernel_basis
from .poly import (
    CapExceeded,
    Ideal,
    Polynomial,
    lex,
    normal_form,
    poly_to_text,
    product_rows,
)

# Largest number of words confluence_sweep canonicalizes.
SWEEP_CAP = 2**16
# Largest number of P-variable pairs quadratic_plucker_relations maps.
PAIR_CAP = 2**11
# Largest count a cap message writes in digits; a larger one is a power of 2.
COUNT_DIGITS_LIMIT = 2**64


# ---------------------------------------------------------------------------
# patterns


def interlaces(g):
    """Whether the rows of a pattern g interlace: g[i][j] >= g[i+1][j] >=
    g[i][j+1] for all valid positions."""
    for i in range(len(g) - 1):
        for j in range(len(g[i + 1])):
            if not (g[i][j] >= g[i + 1][j] >= g[i][j + 1]):
                return False
    return True


def _zero_pattern(n):
    return tuple((0,) * (n - i) for i in range(n))


def generator_pattern(tau, n: int):
    """The pattern of a flag minor: row i holds |tau ∩ [n-i+1]| ones."""
    tau = frozenset(tau)
    if not tau or tau == frozenset(range(1, n + 1)):
        raise ValueError("tau must be a nonempty strict subset of [n]")
    if not tau <= frozenset(range(1, n + 1)):
        raise ValueError(f"tau out of range 1..{n}")
    counts = _prefix_counts(tau, n)
    pattern = tuple((1,) * counts[w - 1] + (0,) * (w - counts[w - 1]) for w in range(n, 0, -1))
    if not (interlaces(pattern) and pattern[0][-1] == 0):
        raise AssertionError(f"generator pattern violates interlacing: {tau}")
    return pattern


class ExtendedPattern(NamedTuple):
    """A pattern paired with a vector in Z^{n+1} tracking torus degrees."""

    pattern: tuple  # the rows, top first
    zvec: tuple


def _prefix_counts(sigma, n):
    """|sigma ∩ [k]| for k = 1..n; a column set is determined by these."""
    return tuple(accumulate(int(k in sigma) for k in range(1, n + 1)))


def _capacity(sigma, n):
    """The largest mark on a column set at n: n on the empty set, whose
    marks are the negated variables [-0]..[-n], and on any other set the
    largest a with {1..a} inside it."""
    if not sigma:
        return n
    a = 0
    while a + 1 in sigma:
        a += 1
    return a


class MarkedGenerator(NamedTuple):
    """A column set carrying a mark: the marked flag [sigma, a] on a
    nonempty sigma, and the negated variable [-a] as mark a on the empty
    set.  Build one with `neg` or `flag`.

    A mark a >= 1 on a flag requires {1..a} to sit inside the column set;
    mark 0 is the plain flag minor.
    """

    sigma: frozenset
    mark: int

    @classmethod
    def neg(cls, a):
        if a is None or a < 0:
            raise ValueError("negated variable needs a value in 0..n")
        return cls(frozenset(), a)

    @classmethod
    def flag(cls, sigma, mark=0):
        sigma = frozenset(sigma)
        if not sigma:
            raise ValueError("flag needs a nonempty column set")
        if mark > 0 and not all(k in sigma for k in range(1, mark + 1)):
            raise ValueError(f"mark {mark} needs prefix {{1..{mark}}} in {sorted(sigma)}")
        return cls(sigma, mark)

    def check(self, n):
        """Raise ValueError unless this is a generator at n."""
        if not isinstance(self.sigma, frozenset) or (
                self.sigma and not self.sigma < frozenset(range(1, n + 1))):
            raise ValueError("flag set must be a nonempty strict subset of [n]")
        top = _capacity(self.sigma, n)
        if not (isinstance(self.mark, int) and 0 <= self.mark <= top):
            if not self.sigma:
                raise ValueError(f"negated index {self.mark} out of range 0..{n}")
            raise ValueError(f"mark {self.mark} of {sorted(self.sigma)} is not in 0..{top}")

    def extended_pattern(self, n):
        """The z-vector is -e_a for [-a] and the indicator of
        variable_columns() for a flag."""
        if not self.sigma:
            pattern, sign, cols = _zero_pattern(n), -1, {self.mark}
        else:
            pattern, sign, cols = generator_pattern(self.sigma, n), 1, self.variable_columns()
        return ExtendedPattern(pattern, tuple(sign * (j in cols) for j in range(n + 1)))

    def variable_columns(self):
        """Column set of the flag-ring variable this generator stands for."""
        if not self.sigma:
            return None
        if self.mark == 0:
            return self.sigma
        return self.sigma - {self.mark} | {0}

    def variable_name(self):
        if not self.sigma:
            return x_name(self.mark)
        return p_name(self.variable_columns())

    def sort_key(self):
        """Larger column sets first, so the flags come before the negated
        variables; then sorted columns, then mark descending."""
        return (-len(self.sigma), sorted(self.sigma), -self.mark)

    def __repr__(self):
        return generator_to_text(self)


def generator_to_text(gen):
    if not gen.sigma:
        return f"[-{gen.mark}]"
    cols = ",".join(str(j) for j in sorted(gen.sigma))
    return f"[{{{cols}}},{gen.mark}]"


# a negated variable [-a], or a flag {c,...} with an optional mark after a comma
_GENERATOR = re.compile(
    r"\s*\[\s*(?:-\s*([0-9]+)|\{\s*([0-9]+(?:\s*,\s*[0-9]+)*)?\s*\}\s*(?:,\s*([0-9]+))?)\s*\]\s*"
)
# Most digits a number in a generator may have: every column and mark is at
# most n, far below this, and int() never meets Python's own digit limit.
GENERATOR_DIGITS = 9


def parse_generator(text):
    """The generator written as generator_to_text writes it; a flag's mark
    may be left out for 0.  Raises ValueError naming the text for anything
    else: a blank or doubled comma, a missing brace or comma, a sign, a
    repeated column or a number of more than GENERATOR_DIGITS digits."""
    match = _GENERATOR.fullmatch(text)
    if match is None:
        raise ValueError(f"bad generator syntax: {text!r}")
    if any(len(digits) > GENERATOR_DIGITS for digits in re.findall(r"[0-9]+", text)):
        raise ValueError(f"number of more than {GENERATOR_DIGITS} digits in generator {text!r}")
    neg, cols, mark = match.groups()
    if neg is not None:
        return MarkedGenerator.neg(int(neg))
    cols = [int(c) for c in cols.split(",")] if cols else []
    if len(set(cols)) < len(cols):
        raise ValueError(f"repeated column in generator {text!r}")
    return MarkedGenerator.flag(cols, int(mark or 0))


def parse_word(text):
    """Words use a bracket syntax like "[-2],[{1,3},0]": each comma outside
    the brackets ends a generator, and none may be blank.  A blank text is
    the empty word."""
    if not text.strip():
        return ()
    return tuple(map(parse_generator, re.split(r",(?![^\[\]]*\])", text)))


def word_to_text(word):
    return ",".join(generator_to_text(g) for g in word)


def _flat_pattern(gen, n):
    """A generator's extended pattern as one integer tuple: the pattern rows,
    top first, then the z-vector."""
    pattern, zvec = gen.extended_pattern(n)
    return tuple(chain.from_iterable(pattern)) + zvec


def _flat_sum(word, n):
    """Entrywise sum of the flat patterns of a nonempty word."""
    return tuple(map(sum, zip(*[_flat_pattern(gen, n) for gen in word])))


def word_pattern_sum(word, n):
    """Entrywise sum of the generators' extended patterns."""
    if not word:
        return ExtendedPattern(_zero_pattern(n), (0,) * (n + 1))
    flat = _flat_sum(word, n)
    cuts = list(accumulate(range(n, 0, -1), initial=0))
    rows = tuple(flat[a:b] for a, b in zip(cuts, cuts[1:]))
    return ExtendedPattern(rows, flat[cuts[-1] :])


# ---------------------------------------------------------------------------
# the flag ring and the presentation map


def p_name(cols):
    return "P" + "".join(str(c) for c in sorted(cols))


def flag_column_sets(n):
    """Column sets of the flag-ring variables, smallest first: the
    variable_columns of the flags of all_generators(n).  Each set comes
    from one flag: sigma from [sigma, 0], and {0} | tau, |tau| <= n - 2,
    from [tau | {a}, a] with a = min([n] - tau)."""
    flags = (gen for gen in all_generators(n) if gen.sigma)
    return sorted((gen.variable_columns() for gen in flags), key=lambda s: (len(s), sorted(s)))


def column_set_count(n):
    """len(flag_column_sets(n)) without building them: one set per flag,
    for n >= 1."""
    return generator_count(n) - n - 1


def flag_minors(n):
    """psi's minor variables in ring order, as (name, rows, columns): P_S
    on rows 1..|S| and columns S, for S in flag_column_sets(n)."""
    return [(p_name(cols), tuple(range(1, len(cols) + 1)), tuple(sorted(cols)))
            for cols in flag_column_sets(n)]


def build_psi(n: int):
    """Presentation map of the Cox ring of the full flag bundle of T_n:
    the minor_map of flag_minors(n), x_j -> t_j^-1 and P over columns
    `cols` -> the top-justified Euler minor on those columns."""
    if n < 2:
        raise ValueError("need n >= 2")
    return minor_map(n, n - 1, flag_minors(n))


@lru_cache(maxsize=None)
def diagonal_order(target_ring, n):
    """Every t beats every y; the y block is lex, rows top down, columns
    left to right, so top-justified minors lead with their diagonal and the
    first missing column decides between competing minors.  Built once per
    (ring, n), like poly.grevlex: lead_pattern asks for it per generator."""
    t_names = [t_name(j) for j in range(n + 1)]
    y_names = [yy_name(i, j) for i in range(1, n) for j in range(1, n + 1)]
    return lex(target_ring, t_names + y_names)


def lead_pattern(gen, n, psi):
    """Extended pattern of a generator's initial term, checked at every n:
    the initial term of its psi image under the diagonal order must be
    +-t^zvec, times y_{1,c_1}...y_{k,c_k} over a flag's sorted columns c.
    For a marked flag the y-part pins the mark a: the winning summand
    restores a, which check makes the first column missing from sigma - {a}.
    """
    gen.check(n)
    declared = gen.extended_pattern(n)
    target = psi.target
    lead, coeff = psi.images[gen.variable_name()].leading_term(diagonal_order(target, n))
    expected = {t_name(j): e for j, e in enumerate(declared.zvec)}
    expected.update((yy_name(row, col), 1) for row, col in enumerate(sorted(gen.sigma), start=1))
    if abs(coeff) != 1 or lead != target.exponents(expected):
        raise AssertionError(f"initial term of {gen!r} is not its declared pattern")
    return declared


# ---------------------------------------------------------------------------
# relation families


def euler_flag_relation(n, tau, psi):
    """The Euler-type quadric: the sum over j in {0..n} outside tau of
    (-1)^#{t in tau : 0 < t < j} x_j P_{tau+j}.

    psi(x_j P_{tau+j}) is t^tau times a minor, and the minors with j in
    tau inserted would repeat a column, so the signs are the expansion of
    the minor whose last column is the sum of all columns, which is 0.
    For tau without 0 the first term is x_0 P_{0+tau}; for tau with 0,
    leaving 0 out of the count only flips every sign.
    """
    tau = frozenset(tau)
    if not tau <= frozenset(range(n + 1)) or len(tau) > n - 2:
        raise ValueError("tau must be a subset of {0..n} with |tau| <= n - 2")
    source = psi.source
    # each term is x_j P_{tau+j} for its own j: distinct monomials
    return Polynomial(source, {
        source.exponents({x_name(j): 1, p_name(tau | {j}): 1}):
            (-1) ** sum(0 < t < j for t in tau)
        for j in sorted(set(range(n + 1)) - tau)
    })


def plucker_pair_count(n):
    """Number of unordered pairs of P-variables at n, repeats included.
    Raises CapExceeded past PAIR_CAP."""
    count = comb(column_set_count(n) + 1, 2)
    if count > PAIR_CAP:
        raise CapExceeded(
            f"n = {n} has {_count_text(count)} P-variable pairs, over the cap {PAIR_CAP}",
            size=count,
        )
    return count


def quadratic_plucker_relations(n, psi):
    """Basis of the quadratic relations among the flag minors alone.

    Computed degree by degree: products of two P-variables share a torus
    multidegree exactly when their column multisets agree, and inside each
    group the kernel of the presentation map is exact linear algebra on the
    rows of the pair images, which poly.product_rows forms on packed terms
    under the diagonal order, lex in the target's ring order, so the
    columns are the image monomials in sorted order.  Each kernel vector is
    then proved on those rows: psi(rel) is the sum of its coefficients
    times the pair images, so the vector scaled to integers times the rows
    must be zero.  Raises CapExceeded, before psi is read, past PAIR_CAP
    pairs, and AssertionError("relations with nonzero image: ...") naming
    the relations whose check fails.
    """
    plucker_pair_count(n)
    source = psi.source
    column_sets = flag_column_sets(n)
    by_columns = {}
    for (i, a), (j, b) in combinations_with_replacement(enumerate(column_sets), 2):
        by_columns.setdefault(tuple(sorted(chain(a, b))), []).append((i, j))
    groups = [pairs for _, pairs in sorted(by_columns.items()) if len(pairs) > 1]
    names = [p_name(cols) for cols in column_sets]
    images = [psi.images[name] for name in names]
    # a pair monomial is the sum of two P-variables' exponent vectors, and
    # its image the product of their images
    exps = [source.exponents({name: 1}) for name in names]
    relations, bad = [], []
    for pairs, rows in zip(groups, product_rows(images, groups, diagonal_order(psi.target, n))):
        monomials = [tuple(map(add, exps[i], exps[j])) for i, j in pairs]
        for coeffs in left_kernel_basis(rows):
            rel = Polynomial(source, {
                mono: c.numerator if c.denominator == 1 else c
                for c, mono in zip(coeffs, monomials) if c
            })
            if not _vanishes(coeffs, rows):
                bad.append(poly_to_text(rel))
            relations.append(rel)
    if bad:
        raise AssertionError(f"relations with nonzero image: {bad[:3]}")
    return relations


def _vanishes(coeffs, rows):
    """Whether the rational combination of the rows is zero, summed as its
    integer multiple by the common denominator."""
    scale = lcm(*(c.denominator for c in coeffs))
    total = [0] * len(rows[0])
    for c, row in zip(coeffs, rows):
        k = c.numerator * (scale // c.denominator)
        if k:
            total = [t + k * x for t, x in zip(total, row)]
    return not any(total)


def _euler_quadrics(n, psi, columns):
    """The Euler-type quadrics for every tau in columns with |tau| <= n - 2,
    each proved through psi; raises AssertionError("relations with nonzero
    image: ...") naming the quadrics whose image is not zero."""
    quadrics = [euler_flag_relation(n, tau, psi)
                for size in range(0, n - 1) for tau in combinations(columns, size)]
    bad = [poly_to_text(r) for r in quadrics if psi(r) != 0]
    if bad:
        raise AssertionError(f"relations with nonzero image: {bad[:3]}")
    return quadrics


def relation_families(n, psi):
    """All emitted relations: quadratic Plucker exchanges plus the
    Euler-type quadrics with tau in [n].  Each builder returns only the
    relations it has proved to lie in ker(psi) and raises AssertionError
    naming any other: quadratic_plucker_relations on its pair images,
    _euler_quadrics through psi."""
    return quadratic_plucker_relations(n, psi) + _euler_quadrics(n, psi, range(1, n + 1))


def flag_presentation(n, psi):
    """relation_families(n, psi) plus the Euler-type quadrics whose column
    sets contain 0, tau = {0} | tau' with |tau'| <= n - 3: the relations
    whose ideal psi_kernel proves to be ker(psi), each proved to lie in
    ker(psi) as relation_families proves its own."""
    return quadratic_plucker_relations(n, psi) + _euler_quadrics(n, psi, range(n + 1))


def lead_order(psi, n, weights):
    """The order L of psi's leads, cox.proof_order with these rows and the
    last variable last: the weights; then, for each target variable in
    diagonal_order's lex sequence, its exponent in the lead of each source
    variable's image; then revlex.  The lead of psi(m) is the sum of its
    variables' leads, so L compares monomials of one weight by the leads
    of their images first.  Built once per (weights, leads)."""
    order = diagonal_order(psi.target, n)
    leads = [psi.images[name].leading_term(order)[0] for name in psi.source.names]
    rows = tuple(tuple(sum(map(mul, row, lead)) for lead in leads) for row in order.rows)
    return proof_order(tuple(weights), rows, len(weights) - 1)


def flag_kernel(n, psi):
    """minor_kernel for psi: J the ideal of flag_presentation(n), the
    weights below and lead_order, under which Buchberger keeps one element
    per relation and every S-polynomial reduces to 0.  The column
    symmetries carry x_0 to every x_j and P_{1..k} to every P_S with
    |S| = k, and x_{n-1}, x_n, P_n, P_{n-1,n}, ..., P_{2..n} divide no
    lead: a free variable in each orbit.  contained holds once
    flag_presentation returns: it proves every relation it returns."""
    ring, minors = psi.source, flag_minors(n)
    # x_j weighs 1 and P over cols weighs |cols|: every relation is homogeneous
    weights = [1] * (n + 1) + [len(cols) for _, _, cols in minors]
    basis, order, certificates = minor_kernel(Ideal(ring, flag_presentation(n, psi)), psi,
                                              minors, n, weights, lead_order(psi, n, weights))
    return basis, order, {"contained": True, **certificates}


PSI_KERNEL_CAP = 5


def psi_kernel(n):
    """ker(psi), proved equal to the ideal of flag_presentation(n) by the
    certificates of flag_kernel; nothing is eliminated.  Returns the ideal
    of the proof's basis, one element per relation under lead_order (10
    at n = 3, 66 at n = 4, 364 at n = 5), as verify_kernel reports its
    proof's basis; a caller that wants another basis asks the
    ideal for it.  Raises CapExceeded past n = PSI_KERNEL_CAP and
    AssertionError when a certificate fails."""
    if n > PSI_KERNEL_CAP:
        raise CapExceeded(f"ker(psi) at n = {n} is over the cap {PSI_KERNEL_CAP}", size=n)
    psi = build_psi(n)
    basis, _, certificates = flag_kernel(n, psi)
    failed = [name for name, holds in certificates.items() if not holds]
    if failed:
        raise AssertionError(f"ker(psi) at n = {n}: the {', '.join(failed)} certificates fail")
    return Ideal(psi.source, basis)


# ---------------------------------------------------------------------------
# subduction


class SubductionError(ValueError):
    pass


class _Codes(NamedTuple):
    """The generators at one n numbered in sort_key order, so a sorted word
    is a sorted tuple of codes and its flags are a prefix of it.  The
    generators on one column set take consecutive codes, marks descending,
    the negated variables last: sorted flag codes followed by sorted
    negated codes are a sorted word.  chains maps each sorted tuple of flag
    codes met so far to its _straightened path."""

    gens: tuple  # the generator of each code
    code: dict  # generator -> code
    flags: int  # codes below this are flags, the rest negated variables
    value: tuple  # the mark of each code
    cap: tuple  # the capacity of each code's column set
    chains: dict  # sorted flag codes -> their _straightened path, filled as met


@lru_cache(maxsize=None)
def _codes(n):
    """Raises ValueError for n < 1, where generator_count does not hold,
    and CapExceeded, before building any generator, past SWEEP_CAP
    generators: the most that a sweep of one-generator words numbers."""
    if n < 1:
        raise ValueError("need n >= 1")
    count = generator_count(n)
    if count > SWEEP_CAP:
        raise CapExceeded(
            f"n = {n} has {_count_text(count)} generators, over the cap {SWEEP_CAP}", size=count
        )
    gens = tuple(sorted(all_generators(n), key=MarkedGenerator.sort_key))
    code = {gen: c for c, gen in enumerate(gens)}
    return _Codes(
        gens, code, sum(bool(gen.sigma) for gen in gens), tuple(gen.mark for gen in gens),
        tuple(_capacity(gen.sigma, n) for gen in gens), {},
    )


@lru_cache(maxsize=None)
def _packed(n, longest):
    """Each code's _flat_pattern packed into one int, field i shifted by
    i * width.  The map is linear, and the width makes it injective on sums
    of up to `longest` generators: the fields of two such sums differ by at
    most 2 * longest * (largest entry), below 2**width, so equal packed sums
    mean equal flat pattern sums."""
    flat = [_flat_pattern(gen, n) for gen in _codes(n).gens]
    width = (2 * longest * max(abs(e) for f in flat for e in f)).bit_length()
    return tuple(sum(e << i * width for i, e in enumerate(f)) for f in flat)


def _comparable(ca, cb):
    """Whether two prefix-count vectors are ordered pointwise."""
    return all(x <= y for x, y in zip(ca, cb)) or all(x >= y for x, y in zip(ca, cb))


def _set_from_counts(counts):
    rises = zip((0,) + counts, counts)
    return frozenset(k for k, (prev, c) in enumerate(rises, start=1) if c == prev + 1)


@lru_cache(maxsize=None)
def _straighten(n, a, b):
    """The codes of the flags that replace flag codes a and b, None when
    their prefix-count vectors are ordered pointwise; memoized per pair, so
    the cache is the table of incomparable pairs.

    Incomparable vectors are replaced by their pointwise max and min (the
    join and meet sets); this is the move that preserves the pattern sum
    entrywise.  For containment-comparable interactions it degenerates to
    the union/intersection form.  The larger mark goes to the join; the
    smaller mark always fits the meet, which is never empty: its last
    prefix count is the smaller size of the two sets.
    """
    t = _codes(n)
    a, b = t.gens[a], t.gens[b]
    ca, cb = _prefix_counts(a.sigma, n), _prefix_counts(b.sigma, n)
    if _comparable(ca, cb):
        return None
    join = _set_from_counts(tuple(map(max, ca, cb)))
    meet = _set_from_counts(tuple(map(min, ca, cb)))
    marks = sorted((m for m in (a.mark, b.mark) if m), reverse=True)
    hi = marks[0] if marks else 0
    lo = marks[1] if len(marks) > 1 else 0
    return t.code[MarkedGenerator.flag(join, hi)], t.code[MarkedGenerator.flag(meet, lo)]


def _straightened(t, flags, n):
    """The chain a sorted tuple of flag codes straightens to, and the path
    there: the union-intersection steps, each a (rule, removed, added,
    flags) tuple of codes, taken on the first pair in word order that
    _straighten replaces until the flags form a chain.  It depends on the
    flags alone, so the path is found once per flag tuple, each step's
    balance checked by _apply_step as it is taken, and kept in t.chains,
    where a chain's empty path costs no memory; the chain is the last
    step's flags.  Straightening never adds a flag, so a sweep up to
    length L keeps at most one entry per multiset of at most L flags."""
    path = t.chains.get(flags)
    if path is None:
        steps, chain = [], flags
        while pair := next((((a, b), added) for i, a in enumerate(chain) for b in chain[i + 1 :]
                            if (added := _straighten(n, a, b))), None):
            chain = _apply_step(steps, chain, n, "union-intersection", *pair)
        path = t.chains[flags] = tuple(steps)
    return (path[-1][3] if path else flags), path


def _with_mark(t, c, mark):
    """The code of the generator on code c's column set carrying `mark`;
    _Codes numbers marks descending, so mark 0 there is c + value[c]."""
    if mark > t.cap[c]:
        raise AssertionError(
            f"mark {mark} does not fit the column set of {generator_to_text(t.gens[c])}"
        )
    return c + t.value[c] - mark


def _mark_targets(t, word):
    """Greedy canonical placement of the nonzero values of a sorted code
    word onto its flags.

    Values (marks and negated indices) sorted descending take the first
    flag, in word order, whose prefix capacity admits them; the rest stay
    negated.  Returns the target of each flag.
    """
    k = bisect_left(word, t.flags)
    targets = [0] * k
    values = [v for v in map(t.value.__getitem__, word) if v]
    if not values:
        return targets
    values.sort(reverse=True)
    cap = t.cap
    leftover = 0
    for v in values:
        for idx in range(k):
            if not targets[idx] and cap[word[idx]] >= v:
                targets[idx] = v
                break
        else:
            leftover += 1
    if leftover > len(word) - k:
        raise AssertionError("value bookkeeping lost a negated variable")
    return targets


def _apply_step(steps, word, n, rule, removed, added):
    """Append the step to `steps` as a (rule, removed, added, word) tuple of
    codes and return the new sorted word."""
    # the word's pattern sum is kept iff the step's own generators balance
    packed = _packed(n, 2).__getitem__
    if sum(map(packed, removed)) != sum(map(packed, added)):
        raise AssertionError(f"rewrite step broke the pattern sum: {rule}")
    new_word = list(word)
    for c in removed:
        new_word.remove(c)
    new_word += added
    new_word.sort()
    new_word = tuple(new_word)
    steps.append((rule, tuple(removed), tuple(added), new_word))
    return new_word


def _move_marks(t, word, n, steps):
    """The canonical word of a sorted word of codes whose flags form a
    chain, appending each move to `steps` as _apply_step does.

    Values move onto their _mark_targets, largest value first.  A move
    keeps the multisets of flag sets and of nonzero values and the number
    of negated generators, so the targets are computed once.  A move swaps
    the values of two generators: the slot, the first flag whose target is
    the largest value not yet in place, and the donor, the first generator
    in word order that holds that value v and is not at a slot that wants
    v.  It is a mark-transport when the donor is a flag and a
    marking-exchange when it is a negated variable.  Bringing a value v to
    its slot always displaces a strictly smaller mark, so both directions
    of a move stay valid.  A word with no flag is canonical as it stands.
    """
    targets = _mark_targets(t, word)
    value, k = t.value, len(targets)
    # each move settles one flag for good, so k moves always suffice
    for _ in range(k + 1):
        v = 0
        for idx, want in enumerate(targets):
            if want > v and value[word[idx]] != want:
                v, a = want, word[idx]
        if not v:
            return word
        donor = next(c for c, want in zip_longest(word, targets) if value[c] == v and want != v)
        rule = "mark-transport" if donor < t.flags else "marking-exchange"
        added = (_with_mark(t, a, v), _with_mark(t, donor, value[a]))
        word = _apply_step(steps, word, n, rule, (a, donor), added)
    raise AssertionError(f"mark moves did not settle {k} flags in {k + 1} moves")


def _rewrite(word, n):
    """Rewrite a word of codes to the canonical sorted word; returns (word,
    steps) with each step a (rule, removed, added, word) tuple of codes:
    the _straightened path of its flags, the negated codes, which sort
    after every flag, appended to each step's word, then the mark moves of
    _move_marks on the chain."""
    t = _codes(n)
    word = tuple(sorted(word))
    k = bisect_left(word, t.flags)
    negated = word[k:]
    chain, path = _straightened(t, word[:k], n)
    steps = [(rule, removed, added, flags + negated) for rule, removed, added, flags in path]
    return _move_marks(t, chain + negated, n, steps), steps


def canonicalize(word, n):
    """Rewrite to the canonical word; returns (word, steps) with each step
    a dict of its rule and its removed, added and resulting generators as
    text."""
    for gen in word:
        gen.check(n)
    t = _codes(n)
    canon, steps = _rewrite([t.code[gen] for gen in word], n)

    def text(codes):
        return [generator_to_text(t.gens[c]) for c in codes]

    return tuple(map(t.gens.__getitem__, canon)), [
        {"rule": rule, "removed": text(removed), "added": text(added),
         "word": ",".join(text(new_word))}
        for rule, removed, added, new_word in steps
    ]


def subduct(word1, word2, n):
    """Rewrite both words to canonical form; they must agree.

    The words must have equal extended-pattern sums (that is the
    precondition for them to present the same element).
    """
    word1, word2 = tuple(word1), tuple(word2)
    for gen in word1 + word2:
        gen.check(n)
    _codes(n)  # its generator cap, before any pattern sum
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
    """Every column set of size 0..n - 1 with every mark up to its
    capacity: [-0]..[-n], then the flags."""
    return [
        MarkedGenerator(sigma, mark)
        for size in range(n)
        for sigma in map(frozenset, combinations(range(1, n + 1), size))
        for mark in range(_capacity(sigma, n) + 1)
    ]


def generator_count(n):
    """len(all_generators(n)) without building them, for n >= 1: n + 1
    negated variables, and 1 + (prefix capacity) marks on each of the
    2^n - 2 column sets, whose capacities add up to 2^n - n - 1."""
    return 2 ** (n + 1) - 2


def sweep_word_count(n, max_len):
    """Number of words of 1 to max_len generators at n.  Raises ValueError
    for max_len < 1, a sweep of no word, and CapExceeded past SWEEP_CAP.
    The count is summed length by length, each C(g + k - 1, k) for g
    generators from the one before, and stops past the cap once it passes
    COUNT_DIGITS_LIMIT too, or the lengths run out: the message then gives
    the count exactly or, summed in part, its power of 2."""
    if max_len < 1:
        raise ValueError(f"the largest word length must be at least 1, got {max_len}")
    gens, count, words = generator_count(n), 0, 1
    for k in range(1, max_len + 1):
        words = words * (gens + k - 1) // k
        count += words
        if count > SWEEP_CAP and (k == max_len or count > COUNT_DIGITS_LIMIT):
            raise CapExceeded(
                f"n = {n} has {_count_text(count)} words up to length {max_len}, over the cap "
                f"{SWEEP_CAP}", size=count,
            )
    return count


def _count_text(count):
    """count in digits up to COUNT_DIGITS_LIMIT, and past it as the power of
    2 it reaches, which takes no conversion of a long int to decimal."""
    if count <= COUNT_DIGITS_LIMIT:
        return str(count)
    return f"at least 2^{count.bit_length() - 1}"


def confluence_sweep(n, max_len):
    """Exhaustively canonicalize words up to max_len; groups with equal
    pattern sums must share a canonical form.  Returns statistics.  Raises
    CapExceeded, before building any word, past SWEEP_CAP words.

    Words are enumerated as combinations_with_replacement of
    all_generators(n), whose negated variables come first: for each size,
    each negated multiset N, then each flag multiset F of the remaining
    size.  A per-sweep table holds for each F its packed pattern sum and
    its _straightened chain, so a word is the chain followed by N's
    codes, already sorted, keyed by the sum of two packed sums, and only
    its mark moves are run word by word.  Groups keep their first word and
    its canonical form; clashes are listed group by group, in order of
    first appearance, and only they become text."""
    sweep_word_count(n, max_len)
    t = _codes(n)
    packed = _packed(n, max_len).__getitem__
    codes = [t.code[gen] for gen in all_generators(n)]
    flag_codes = codes[n + 1 :]

    def flag_row(m):
        for f in combinations_with_replacement(flag_codes, m):
            yield sum(map(packed, f)), _straightened(t, tuple(sorted(f)), n)[0], f

    # the largest flag multisets meet only the empty negated multiset, once,
    # so they stream instead of joining the table
    table = [list(flag_row(m)) for m in range(max_len)] + [flag_row(max_len)]
    groups, clashes, words = {}, [], 0
    for size in range(1, max_len + 1):
        # None stands for a flag: each combination is N, then one None per flag
        for combo in combinations_with_replacement(codes[: n + 1] + [None], size):
            neg = combo[: size - combo.count(None)]
            negated, nkey = tuple(sorted(neg)), sum(map(packed, neg))
            for fkey, chain, f in table[size - len(neg)]:
                words += 1
                canon = _move_marks(t, chain + negated, n, [])
                key = fkey + nkey
                first = groups.get(key)
                if first is None:
                    groups[key] = canon, neg, f
                elif first[0] != canon:
                    clashes.append((key, neg + f))
    rank = {key: i for i, key in enumerate(groups)} if clashes else {}
    clashes.sort(key=lambda clash: rank[clash[0]])

    def text(word):
        return word_to_text(t.gens[c] for c in word)

    return {
        "n": n,
        "max_len": max_len,
        "words": words,
        "groups": len(groups),
        "confluent": not clashes,
        "clashes": [(text(groups[key][1] + groups[key][2]), text(word))
                    for key, word in clashes[:5]],
    }


def lift_step_check(step, n, kernel_gb, order, psi):
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
    flag_before = next(g for g in removed if g.sigma)
    flag_after = next(g for g in added if g.sigma)
    if min(flag_before.mark, flag_after.mark) != 0:
        return None  # composite exchange, not a single Euler-family lift
    tau = flag_after.sigma - {flag_after.mark}
    relation = euler_flag_relation(n, tau, psi)
    if normal_form(relation, kernel_gb, order):
        return False
    # each word monomial as its exponent tuple: its variables' counts
    monos = {psi.source.exponents(Counter(g.variable_name() for g in pair))
             for pair in (removed, added)}
    return monos <= set(relation.terms)
