"""Multivariate polynomials over Q with term orders, Buchberger, elimination.

Monomials are exponent tuples over a fixed variable table (PolyRing).
Exponents may be negative in plain arithmetic (Laurent monomials are needed
to evaluate ring maps like x_j -> t_j^-1); the one product (_times) and one
power (_power) serve both Polynomial * and ** and ring-map images, and the
product serves the one determinant routine, leading_minors.

Inside the Groebner engine (normal_form, membership_test, buchberger,
is_groebner_basis, and product_rows, whose pair products never leave it)
a monomial is one int, packed for the order where a polynomial enters and
unpacked where a result leaves (_Packing): the exponents one byte a
variable under a guard bit, so at most 127, and the order's rows above
them in fields of 8 to 64 bits.  An exponent past its field sets its
guard bit, and the run starts over with 16-bit, then 32-bit exponents;
past 2^31 - 1 it raises CapExceeded, and a negative exponent,
ValueError.  Coefficients have one representation, in a Polynomial and in
the engine alike: an int when integral, a Fraction only when not.
"""

import struct
from fractions import Fraction
from functools import lru_cache, reduce
from heapq import heapify, heappop, heappush
from itertools import chain, combinations, count
from math import comb
from operator import add, itemgetter, or_

from .linalg import rational_rank


class CapExceeded(Exception):
    """A computation hit one of its degree or size caps."""

    def __init__(self, message, degree=None, size=None):
        super().__init__(message)
        self.degree = degree
        self.size = size


class PolyRing:
    """An ordered table of variable names; the home of Polynomial values."""

    __slots__ = ("names", "index")

    def __init__(self, names):
        names = tuple(names)
        if len(set(names)) != len(names):
            raise ValueError("duplicate variable names")
        self.names = names
        self.index = {name: i for i, name in enumerate(names)}

    @property
    def nvars(self):
        return len(self.names)

    def zero(self):
        return Polynomial(self, {})

    def const(self, c):
        c = _engine(Fraction(c))
        if c == 0:
            return self.zero()
        return Polynomial(self, {(0,) * self.nvars: c})

    def one(self):
        return self.const(1)

    def var(self, name):
        i = self.index[name]
        exps = [0] * self.nvars
        exps[i] = 1
        return Polynomial(self, {tuple(exps): 1})

    def gens(self):
        return tuple(self.var(name) for name in self.names)

    def monomial(self, exps, coeff=1):
        exps = tuple(exps)
        if len(exps) != self.nvars:
            raise ValueError("exponent vector length mismatch")
        c = _engine(Fraction(coeff))
        if c == 0:
            return self.zero()
        return Polynomial(self, {exps: c})

    def __eq__(self, other):
        return self is other or isinstance(other, PolyRing) and self.names == other.names

    def __hash__(self):
        return hash(self.names)

    def __repr__(self):
        return f"PolyRing({', '.join(self.names)})"


class Polynomial:
    """Map from exponent tuples to nonzero coefficients: an int when
    integral, a Fraction only when not.  Fraction(k) == k and both hash
    alike, so the invariant changes no equality, hash or text."""

    __slots__ = ("ring", "terms")

    def __init__(self, ring, terms):
        self.ring = ring
        self.terms = terms

    def __bool__(self):
        return bool(self.terms)

    def __len__(self):
        return len(self.terms)

    def _check_ring(self, other):
        if self.ring != other.ring:
            raise ValueError("polynomials from different rings")

    def _operand(self, other):
        """other as a Polynomial of this ring: itself, or an int or Fraction
        as a constant; None for any other type, bool included, so the
        operator returns NotImplemented and Python raises TypeError.  The
        Polynomial test comes first, and the scalar test reads the exact
        type: isinstance(c, Fraction) goes through the ABC machinery."""
        if isinstance(other, Polynomial):
            self._check_ring(other)
            return other
        if type(other) in (int, Fraction):
            return self.ring.const(other)
        return None

    def __add__(self, other):
        other = self._operand(other)
        if other is None:
            return NotImplemented
        out = dict(self.terms)
        for m, c in other.terms.items():
            acc = out.get(m, 0) + c
            if acc == 0:
                out.pop(m, None)
            else:
                out[m] = _engine(acc)
        return Polynomial(self.ring, out)

    def __radd__(self, other):
        return self.__add__(other)

    def __neg__(self):
        return Polynomial(self.ring, {m: -c for m, c in self.terms.items()})

    def __sub__(self, other):
        other = self._operand(other)
        if other is None:
            return NotImplemented
        return self.__add__(other.__neg__())

    def __rsub__(self, other):
        return self.__neg__().__add__(other)

    def __mul__(self, other):
        other = self._operand(other)
        if other is None:
            return NotImplemented
        return _polynomial(self.ring, _times(self.terms, other.terms))

    def __rmul__(self, other):
        return self.__mul__(other)

    def __pow__(self, k):
        if not isinstance(k, int):
            raise TypeError(f"exponent must be an int, not {type(k).__name__}")
        if k == 0:
            return self.ring.one()
        return _polynomial(self.ring, _power(self.terms, k))

    def __eq__(self, other):
        # the exact-type test of _operand: a bool is not the constant 1 or 0
        if type(other) in (int, Fraction):
            other = self.ring.const(other)
        return isinstance(other, Polynomial) and self.ring == other.ring and self.terms == other.terms

    def __hash__(self):
        return hash((self.ring, tuple(sorted(self.terms.items()))))

    def leading_term(self, order):
        m = max(self.terms, key=order.key)
        return m, self.terms[m]

    def monic(self, order):
        if not self.terms:
            return self
        _, c = self.leading_term(order)
        if c == 1:
            return self
        return self * (Fraction(1) / c)

    def substitute(self, images):
        """Evaluate under variable -> Polynomial images (all in one target ring).

        Every occurring variable must be mapped.  Negative source exponents
        require the image to be an invertible monomial.
        """
        rings = {img.ring for img in images if img is not None}
        if not rings:
            raise ValueError("no images given")
        if len(rings) > 1:
            raise ValueError("polynomials from different rings")
        return _expand(self, images, rings.pop())

    def __repr__(self):
        return poly_to_text(self, None)


# ---------------------------------------------------------------------------
# term orders


# Most variables an order may have: its rank check is cubic in the count,
# about 0.5 s at the cap on a 2-core host.
ORDER_CAP = 2**8


class MatrixOrder:
    """Term order given by an integer matrix (Robbiano 1985).

    A monomial's key is the tuple of row . exps, compared lexicographically;
    max(key) is the lead term.  Lex, grevlex, weight and block orders are
    all matrix orders, built by the constructors below.  Full column rank
    keeps keys distinct.  packings holds the engine's packings of the
    order, one per field width, built when first used.  Raises
    CapExceeded, before the rank check, past ORDER_CAP variables.
    """

    __slots__ = ("rows", "key", "packings")

    def __init__(self, rows):
        self.rows = tuple(map(tuple, rows))
        ncols = len(self.rows[0]) if self.rows else 0
        if ncols > ORDER_CAP:
            raise CapExceeded(
                f"an order on {ncols} variables, over the cap {ORDER_CAP}", size=ncols
            )
        rank = rational_rank(self.rows)
        if rank < ncols:
            raise ValueError(f"order matrix has rank {rank} < {ncols} columns: not a total order")
        self.key = eval(f"lambda e: ({''.join(p + ',' for p in _row_sums(self.rows))})")
        self.packings = {}


def _row_sums(rows):
    # The key and the engine's packing are compiled once from flat
    # expressions over the nonzero entries, e.g. e[0]+e[1]+e[2], -e[2] and
    # -e[1] for grevlex on three variables; a Python loop over the rows per
    # call is an order of magnitude slower.  The entries are ints, so the
    # generated source holds nothing but indices and integers.
    parts = []
    for row in rows:
        terms = []
        for i, a in enumerate(row):
            if a:
                coeff = "" if a == 1 else "-" if a == -1 else f"{a}*"
                terms.append(f"{coeff}e[{i}]")
        parts.append("+".join(terms).replace("+-", "-") or "0")
    return parts


def _grevlex_rows(nvars, idx):
    """Grevlex on the variables idx (most significant first): their degree,
    then minus each exponent from the last variable back."""
    block = set(idx)
    rows = [[int(i in block) for i in range(nvars)]]
    for i in reversed(idx):
        row = [0] * nvars
        row[i] = -1
        rows.append(row)
    return rows


@lru_cache(maxsize=None)
def grevlex(ring):
    """Grevlex on all variables; built once per ring, since orders are
    immutable and compiling the key is not free."""
    return MatrixOrder(_grevlex_rows(ring.nvars, range(ring.nvars)))


def lex(ring, names):
    """Lex with the given variables in falling significance."""
    idx = [ring.index[n] for n in names]
    return MatrixOrder([[1 if j == i else 0 for j in range(ring.nvars)] for i in idx])


def elimination_order(ring, drop_names):
    """Block order with the dropped variables leading, grevlex inside blocks."""
    drop = [ring.index[n] for n in drop_names]
    keep = [i for i in range(ring.nvars) if i not in set(drop)]
    return MatrixOrder(_grevlex_rows(ring.nvars, drop) + _grevlex_rows(ring.nvars, keep))


# ---------------------------------------------------------------------------
# packed monomials


class _Overflow(Exception):
    """An exponent outgrew its field: the run starts over with wider ones."""


class _Packing:
    """The monomials of an order's ring as ints, M = (K << width(E)) | E.

    E holds the exponents, `size` bytes a variable, variable 0 highest.  The
    top bit of each field is a guard, so an exponent is below 2^(8 size - 1).
    K holds the order's rows, most significant first, each as row . e less
    its least value over those exponents, in the narrowest struct field that
    holds its largest.  So the packing is linear: a product is +, the shift
    m - lt of a divisor is - (the biases cancel), and ints compare as the
    order's keys do.  The sum of two valid exponents stays below
    2^(8 size), so an exponent that outgrows its field sets its guard bit
    and changes no other field.
    """

    __slots__ = ("pack", "exponents", "guard", "emask", "gshift")

    def __init__(self, order, size):
        nvars, bits = len(order.rows[0]), 8 * size
        emax = (1 << bits - 1) - 1
        fields, codes = [], ""
        for row, expr in zip(order.rows, _row_sums(order.rows)):
            low, span = emax * sum(a for a in row if a < 0), emax * sum(map(abs, row))
            code = next((c for c in "BHIQ" if not span >> 8 * struct.calcsize(">" + c)), None)
            if code is None:
                raise CapExceeded(f"an order row outgrows 64 bits at exponents up to {emax}")
            fields.append(f"{expr}+{-low},")
            codes += code
        # signed exponent fields: a negative exponent packs with its guard set
        exps = struct.Struct(">" + "bhi"[size.bit_length() - 1] * nvars)
        layout = struct.Struct(">" + codes + exps.format[1:])
        self.pack = eval(
            f"lambda e: from_bytes(pack({''.join(fields)}*e), 'big')",
            {"from_bytes": int.from_bytes, "pack": layout.pack},
        )
        length, offset = layout.size, layout.size - exps.size
        self.exponents = lambda m: exps.unpack_from(m.to_bytes(length, "big"), offset)
        self.guard = int.from_bytes((b"\x80" + bytes(size - 1)) * nvars, "big")
        self.emask = (1 << exps.size * 8) - 1
        self.gshift = bits - 1

    def terms(self, f):
        """f's terms, packed.  Raises ValueError on a negative exponent and
        _Overflow on one its field cannot hold."""
        try:
            packed = {self.pack(m): c for m, c in f.terms.items()}
        except struct.error:
            packed = None
        if packed is None or reduce(or_, packed, 0) & self.guard:
            if any(e < 0 for m in f.terms for e in m):
                raise ValueError("Laurent exponents are not allowed here")
            raise _Overflow
        return packed

    def polynomial(self, ring, terms):
        return _polynomial(ring, {self.exponents(m): c for m, c in terms.items()})

    def lcm(self, a, b):
        """The lcm of two exponent parts E: a SWAR max, field by field."""
        ge = ((a | self.guard) - b) & self.guard  # the guard of each field where a >= b
        take = ge - (ge >> self.gshift)  # the value bits of those fields
        return a & take | b & ~take


def _packed_run(polys, order, run):
    """run(packing) in the narrowest fields, 1, 2 or 4 bytes a variable,
    that no exponent of polys and none the run makes outgrows; past
    2^31 - 1, CapExceeded.  Raises ValueError first unless polys come from
    one ring with as many variables as the order has columns."""
    rings = {f.ring for f in polys}
    if len(rings) > 1:
        names = ", ".join(sorted(map(repr, rings)))
        raise ValueError(f"polynomials from different rings: {names}")
    for ring in rings:
        if ring.nvars != len(order.rows[0]):
            raise ValueError(f"an order on {len(order.rows[0])} variables for {ring!r}")
    for size in (1, 2, 4):
        if size not in order.packings:
            order.packings[size] = _Packing(order, size)
        try:
            return run(order.packings[size])
        except _Overflow:
            pass
    raise CapExceeded("an exponent outgrew 31 bits")


# ---------------------------------------------------------------------------
# division and Buchberger


def _engine(c):
    """c as the engine holds it: an int when integral, else a Fraction."""
    return c if type(c) is int or c.denominator != 1 else c.numerator


def _polynomial(ring, terms):
    """Terms as a Polynomial: the zero coefficients dropped, and an
    integral Fraction, which the engine's arithmetic can leave, an int."""
    return Polynomial(ring, {m: _engine(c) for m, c in terms.items() if c})


def _divisor(terms, p):
    """Packed terms as a divisor (lead, coeff, tail, exponents of the lead,
    terms, packing p), the tail holding the other terms."""
    lt = max(terms)
    return lt, terms[lt], [t for t in terms.items() if t[0] != lt], lt & p.emask, terms, p


def normal_form(f, gens, order):
    """Remainder of f under multivariate division by gens.

    Deterministic: the largest reducible term is always reduced against the
    first divisor (in list order) whose lead term divides it.
    """
    return _packed_run([f, *gens], order, lambda p: p.polynomial(
        f.ring, _reduce(p.terms(f), [_divisor(p.terms(g), p) for g in gens if g], p)))


def membership_test(basis, order):
    """The test f -> (f reduces to 0 against basis), a Groebner basis under
    order: the same division as normal_form, with the basis checked and
    packed into divisors once for every f tested."""
    packed = {}  # packing -> the basis as its divisors

    def divisors(p):
        if p not in packed:
            packed[p] = [_divisor(p.terms(g), p) for g in basis if g]
        return packed[p]

    def reduces_to_zero(f):
        return _packed_run(
            [f, *basis[:1]], order, lambda p: not _reduce(p.terms(f), divisors(p), p)
        )

    _packed_run(basis, order, divisors)
    return reduces_to_zero


def _reduce(terms, divisors, p):
    """The division loop of normal_form on packed terms; returns the
    remainder's terms, not yet normalized.  Pending terms sit in a heap of
    negated packed monomials (Monagan & Pearce 2007); one that cancels stays
    in work at 0 and is skipped when popped.  Reduction adds only smaller
    terms, so a popped monomial never returns.  A lead divides m iff
    ((E_m | G) - E_lead) & G keeps every guard bit G, tested on the exponent
    parts alone, shorter than the packed monomials (Bachmann & Schoenemann
    1998)."""
    guard, emask = p.guard, p.emask
    work = dict(terms)
    heap = [-m for m in work]
    heapify(heap)
    remainder = {}
    while heap:
        m = -heappop(heap)
        c = work.pop(m)
        if not c:
            continue
        above = m & emask | guard
        for d in divisors:
            if (above - d[3]) & guard == guard:
                for t in _subtract_tail(work, c, m, d):
                    heappush(heap, -t)
                break
        else:
            remainder[m] = c
    return remainder


def _subtract_tail(work, c, m, divisor):
    """work -= (c / lc) * x^(m - lt) * tail, in place: the lead term would
    only cancel c * x^m.  Basis divisors are monic (lc == 1); Fraction(c)
    keeps int / int exact.  Returns the monomials new to work, and raises
    _Overflow when one has an exponent past its field."""
    lt, lc, tail, _, _, p = divisor
    factor = c if lc == 1 else _engine(Fraction(c) / lc)
    shift, guard = m - lt, p.guard
    fresh = []
    for gm, gc in tail:
        t = gm + shift
        acc = work.get(t)
        if acc is None:
            if t & guard:
                raise _Overflow
            work[t] = -factor * gc
            fresh.append(t)
        else:
            work[t] = acc - factor * gc
    return fresh


def product_rows(factors, groups, order):
    """The products of pairs of factors as coefficient rows: for each group
    of index pairs (i, j), one row per pair, factors[i] * factors[j], over
    the union of the group's nonzero product terms, increasing under order.

    Each factor is packed once, and each product is formed on packed terms
    by the loop that subtracts a divisor: factors[j] is the tail of a
    divisor whose lead is the monomial 1, shifted to each term of
    factors[i].  Rows of int factors are ints.  Raises as buchberger does
    for factors from two rings, an order of another width, a negative
    exponent or one past 2^31 - 1; a product exponent past its field
    restarts the run with wider ones."""

    def run(p):
        one = p.pack((0,) * len(order.rows[0]))
        packed = [p.terms(f) for f in factors]
        divisors = [(one, 1, list(terms.items()), 0, terms, p) for terms in packed]
        out = []
        for pairs in groups:
            products = []
            for i, j in pairs:
                work, d = {}, divisors[j]
                for m, c in packed[i].items():
                    _subtract_tail(work, -c, m, d)
                products.append(work)
            support = sorted({m for work in products for m, c in work.items() if c})
            out.append([[work.get(m, 0) for m in support] for work in products])
        return out

    return _packed_run(factors, order, run)


def _s_polynomial(a, b, l):
    """S-polynomial of two divisors as packed terms, built from the two
    tails alone: the lead terms cancel by construction.  l is the packed
    lcm of their leads, which a queued pair carries in its key."""
    work = {}
    _subtract_tail(work, -1, l, a)
    _subtract_tail(work, 1, l, b)
    return work


def _gm_update(basis, queue, dropped):
    """Gebauer-Moeller pair update after appending basis[-1]: adds to dropped
    the -arrival of each queued pair (..., -arrival, i, j, lcm) it drops, and
    returns the new pairs (degree, exponents, i, j, lcm) in the order they
    join the queue; an lcm is an exponent part E, unpacked once."""
    new, t, p = len(basis) - 1, basis[-1][3], basis[-1][5]
    guard, lcm = p.guard, p.lcm
    # drop old pairs whose lcm is strictly covered by the new lead term
    dropped.update(q[-4] for q in queue if ((q[-1] | guard) - t) & guard == guard
                   and lcm(basis[q[-3]][3], t) != q[-1] and lcm(basis[q[-2]][3], t) != q[-1])
    lcms = [lcm(d[3], t) for d in basis[:new]]
    fresh = [(sum(e), e, i, new, l) for i, (l, e) in enumerate(zip(lcms, map(p.exponents, lcms)))]
    # Buchberger's first criterion: coprime lead terms, whose lcm is their product
    return [q for q in _prune_pairs(fresh, p) if q[-1] != basis[q[2]][3] + t]


def _prune_pairs(fresh, p):
    """Gebauer-Moeller M and F among the new pairs (degree, ..., lcm), by
    degree: a pair whose lcm an earlier kept lcm divides, or equals, goes."""
    guard, kept, lcms = p.guard, [], []
    for q in sorted(fresh, key=itemgetter(0)):
        above = q[-1] | guard
        for l in lcms:
            if (above - l) & guard == guard:
                break
        else:
            kept.append(q)
            lcms.append(q[-1])
    return kept


def _queue_pairs(queue, fresh, p, arrivals):
    """Push the new pairs (degree, exponents, i, j, lcm), keyed once by the
    degree and the packed lcm.  The negated arrival number pops the pair
    queued last first among equal keys, as a stable reverse sort and pop
    does; keys are distinct, so the pops do not depend on the heap's shape."""
    for degree, e, i, j, l in fresh:
        heappush(queue, (degree, p.pack(e), -next(arrivals), i, j, l))


DEGREE_CAP = 120
BASIS_CAP = 4000


def buchberger(gens, order):
    """Reduced Groebner basis of the ideal generated by gens.

    The inputs enter the basis one at a time through the same step as the
    S-polynomials after them (Gebauer & Moeller 1988): reduce against the
    basis so far, and a nonzero remainder joins it, monic, with its lead
    term, and updates the pairs.  Raises CapExceeded (with the offending
    degree or size) instead of truncating past DEGREE_CAP or BASIS_CAP.
    """
    return _packed_run(gens, order, lambda p: [
        p.polynomial(gens[0].ring, t) for t in _buchberger([p.terms(g) for g in gens], p)])


def _buchberger(gens, p):
    """buchberger on packed terms; returns the reduced basis as packed terms."""
    basis = []  # divisors (lead, 1, tail, exponents, terms, p), monic
    queue = []  # heap of pairs (degree, packed lcm, -arrival, i, j, lcm's E)
    arrivals, dropped = count(), set()  # -arrival of each pair _gm_update drops

    def s_polynomials():
        while queue:
            degree, l, arrival, i, j, _ = heappop(queue)
            if arrival in dropped:
                continue
            if degree > DEGREE_CAP:
                raise CapExceeded(
                    f"S-pair degree {degree} exceeds cap {DEGREE_CAP}", degree=degree
                )
            yield _s_polynomial(basis[i], basis[j], l)

    for f in chain(gens, s_polynomials()):
        r = _reduce(f, basis, p)
        if not r:
            continue
        if len(basis) >= BASIS_CAP:
            raise CapExceeded(
                f"basis size {len(basis)} exceeds cap {BASIS_CAP}", size=len(basis)
            )
        lc = r[max(r)]
        if lc != 1:
            r = {m: _engine(Fraction(c) / lc) for m, c in r.items()}
        basis.append(_divisor(r, p))
        _queue_pairs(queue, _gm_update(basis, queue, dropped), p, arrivals)
    return _reduce_basis(basis, p)


def _reduce_basis(basis, p):
    """Minimalize and tail-reduce the divisors of a Groebner basis; the
    result, as packed terms, is the canonical reduced GB."""
    items = sorted(basis, key=lambda d: (sum(p.exponents(d[3])), d[0]))
    guard, minimal = p.guard, []
    for d in items:
        above = d[3] | guard
        if not any((above - m[3]) & guard == guard for m in minimal):
            minimal.append(d)
    # no other lead divides a minimal lead, so each remainder keeps its
    # lead term and stays monic
    reduced = [
        _reduce(d[4], minimal[:i] + minimal[i + 1 :], p) for i, d in enumerate(minimal)
    ]
    return sorted(reduced, key=max)


def is_groebner_basis(gens, order):
    """True iff every S-pair of gens reduces to zero against gens."""
    gens = [g for g in gens if g]

    def run(p):
        divisors = [_divisor(p.terms(g), p) for g in gens]
        for a, b in combinations(divisors, 2):
            l = p.lcm(a[3], b[3])
            # coprime lead terms, whose lcm is their product, always reduce to zero
            if l != a[3] + b[3]:
                if _reduce(_s_polynomial(a, b, p.pack(p.exponents(l))), divisors, p):
                    return False
        return True

    return _packed_run(gens, order, run)


# ---------------------------------------------------------------------------
# ideals


class Ideal:
    """A generator list in one ring; groebner computes a basis per call."""

    def __init__(self, ring, gens):
        self.ring = ring
        self.gens = [g for g in gens if g]
        for g in self.gens:
            if g.ring != ring:
                raise ValueError("generator from the wrong ring")

    def groebner(self, order):
        return buchberger(self.gens, order)

    def __repr__(self):
        return f"Ideal({len(self.gens)} gens in {self.ring!r})"


def ideal_equal(a, b):
    """Mutual membership of generators via reduced Groebner bases (grevlex;
    whether two ideals are equal does not depend on the order)."""
    if a.ring != b.ring:
        raise ValueError("ideals in different rings")
    order = grevlex(a.ring)
    in_a = membership_test(a.groebner(order), order)
    in_b = membership_test(b.groebner(order), order)
    return all(map(in_b, a.gens)) and all(map(in_a, b.gens))


def eliminate(ideal, drop_names):
    """Generators of ideal ∩ K[vars without drop_names].

    Pure polynomial elimination via a block order.  Callers that need
    Laurent inverses t^-1 must already have encoded them with auxiliary
    variables u and relations t*u - 1 (see ring_map_kernel).
    """
    drop = set(drop_names)
    unknown = drop - set(ideal.ring.names)
    if unknown:
        raise ValueError(f"unknown variables: {sorted(unknown)}")
    order = elimination_order(ideal.ring, sorted(drop, key=ideal.ring.index.get))
    gb = ideal.groebner(order)
    drop_idx = {ideal.ring.index[n] for n in drop}
    kept = [g for g in gb if not any(m[i] for m in g.terms for i in drop_idx)]
    return Ideal(ideal.ring, kept)


def weight_initial(f, weights):
    """Sum of the terms of minimal weight (degeneration convention)."""
    if not f.terms:
        return f
    weighted = [(sum(w * e for w, e in zip(weights, m)), m) for m in f.terms]
    wmin = min(w for w, _ in weighted)
    return Polynomial(f.ring, {m: f.terms[m] for w, m in weighted if w == wmin})


def monomial_dimension(monomials, nvars):
    """Dimension of the zero set of a monomial ideal.

    This is the largest |S| over variable subsets S such that no generator
    has support inside S; equivalently nvars minus the smallest hitting set
    of the supports.
    """
    supports = []
    for m in monomials:
        sup = frozenset(i for i, e in enumerate(m) if e)
        if not sup:
            return -1  # unit ideal: empty zero set
        supports.append(sup)
    # discard non-minimal supports
    supports = [
        s for s in set(supports) if not any(t < s for t in set(supports))
    ]
    if not supports:
        return nvars
    best = [len(set().union(*supports))]

    def search(remaining, chosen):
        if chosen >= best[0]:
            return
        if not remaining:
            best[0] = chosen
            return
        sup = min(remaining, key=len)
        for v in sorted(sup):
            rest = [s for s in remaining if v not in s]
            search(rest, chosen + 1)

    search(supports, 0)
    return nvars - best[0]


def leading_monomials(gens, order):
    return [g.leading_term(order)[0] for g in gens if g]


# ---------------------------------------------------------------------------
# symbolic determinants


DET_SIDE_CAP = 6
MINOR_CAP = 2**10


def leading_minors(rows):
    """Every minor of a matrix of Polynomials on its first k rows, for
    every k up to the side min(rows, columns) and every k-subset of
    columns, keyed by the sorted column tuple (k is its length).

    Built level by level on term dicts: the minor on the first k rows and
    columns S is the Laplace expansion along row k over the minors on the
    first k - 1 rows and S less one column, so each sub-minor is built
    once, with the one product _times.  Raises ValueError for an empty or
    ragged matrix or entries from two rings, and CapExceeded, before any
    product, past DET_SIDE_CAP on the side or MINOR_CAP minors.
    """
    ncols = len(rows[0]) if rows else 0
    if not ncols:
        raise ValueError("empty matrix")
    if any(len(r) != ncols for r in rows):
        raise ValueError("ragged matrix: rows of different lengths")
    ring = rows[0][0].ring
    if any(f.ring != ring for r in rows for f in r):
        raise ValueError("polynomials from different rings")
    side = min(len(rows), ncols)
    if side > DET_SIDE_CAP:
        raise CapExceeded(f"determinant side {side} exceeds cap {DET_SIDE_CAP}", size=side)
    count = sum(comb(ncols, k) for k in range(1, side + 1))
    if count > MINOR_CAP:
        raise CapExceeded(f"{count} minors on {ncols} columns, over the cap {MINOR_CAP}",
                          size=count)
    minors = {(c,): f.terms for c, f in enumerate(rows[0])}
    for k in range(1, side):
        entries = [f.terms for f in rows[k]]
        for cols in combinations(range(ncols), k + 1):
            acc = {}
            for pos, c in enumerate(cols):
                sub = minors[cols[:pos] + cols[pos + 1 :]]
                if entries[c] and sub:
                    sign = -1 if (k + pos) & 1 else 1
                    for m, a in _times(entries[c], sub).items():
                        acc[m] = acc.get(m, 0) + sign * a
            minors[cols] = {m: a for m, a in acc.items() if a}
    return {cols: _polynomial(ring, terms) for cols, terms in minors.items()}


def symbolic_det(rows):
    """Exact determinant of a square matrix of Polynomials: the top minor
    of leading_minors, whose Laplace pass shares every sub-minor.  Raises
    ValueError unless the matrix is square; leading_minors refuses side 0
    and caps the side at DET_SIDE_CAP."""
    if any(len(r) != len(rows) for r in rows):
        raise ValueError("matrix is not square")
    return leading_minors(rows)[tuple(range(len(rows)))]


# ---------------------------------------------------------------------------
# ring maps


def _expand(f, images, target):
    """f under variable -> Polynomial images in target, expanded on term
    dicts: each term starts from the power of its first variable's image,
    times its coefficient, and takes one product per further variable."""
    out = {}
    for m, c in f.terms.items():
        part = None
        for i, e in enumerate(m):
            if e:
                if images[i] is None:
                    raise ValueError(f"no image for variable {f.ring.names[i]}")
                factor = _power(images[i].terms, e)
                part = {t: c * a for t, a in factor.items()} if part is None else _times(part, factor)
        if part is None:
            part = {(0,) * target.nvars: c}
        for t, a in part.items():
            out[t] = out.get(t, 0) + a
    return _polynomial(target, out)


def _power(base, e):
    """The term dict base ** e: for e = 1 base itself, which no caller
    writes to; a monomial directly (inverted for e < 0 when it is a
    unit), else by squaring."""
    if e == 1:
        return base
    if e < 0 and [abs(c) for c in base.values()] != [1]:
        raise ValueError("negative power of a non-unit")
    if len(base) == 1:
        return {tuple(a * e for a in m): c ** abs(e) for m, c in base.items()}
    half = _power(base, e >> 1)
    p = _times(half, half)
    return _times(p, base) if e & 1 else p


def _times(a, b):
    """The product of two term dicts; zeros stay until _polynomial."""
    out = {}
    for m1, c1 in a.items():
        for m2, c2 in b.items():
            m = tuple(map(add, m1, m2))
            out[m] = out.get(m, 0) + c1 * c2
    return out


class RingMap:
    """Assignment of each source variable to a target Polynomial.

    Images may be Laurent monomials (negative exponents); a call expands
    symbolically, afresh on every call.
    """

    def __init__(self, source, target, images):
        self.source = source
        self.target = target
        self.images = dict(images)
        missing = set(source.names) - set(self.images)
        if missing:
            raise ValueError(f"no image for {sorted(missing)}")
        for name, img in self.images.items():
            if img.ring != target:
                raise ValueError(f"image of {name} lives in the wrong ring")
        self._images = [self.images[name] for name in source.names]

    def __call__(self, f):
        if f.ring != self.source:
            raise ValueError("argument from the wrong ring")
        return _expand(f, self._images, self.target)


def transplant(f, target_ring):
    """Copy f into target_ring, matching variables by name."""
    mapping = [target_ring.index.get(name) for name in f.ring.names]
    out = {}
    for m, c in f.terms.items():
        exps = [0] * target_ring.nvars
        for i, e in enumerate(m):
            if e == 0:
                continue
            if mapping[i] is None:
                raise ValueError(f"variable {f.ring.names[i]} missing from target ring")
            exps[mapping[i]] = e
        out[tuple(exps)] = c
    return Polynomial(target_ring, out)


def ring_map_kernel(phi):
    """Kernel of a ring map into a (Laurent) polynomial ring, by elimination.

    Builds the graph ideal in a combined ring.  A target variable t occurring
    with negative exponents needs an inverse: some source variable must map
    to exactly t^-1, and it doubles as the inverse (relation source*t - 1).
    """
    src, tgt = phi.source, phi.target
    inverse_needed = {
        i for img in phi.images.values() for m in img.terms for i, e in enumerate(m) if e < 0
    }
    # source variables whose image is exactly (coefficient 1) an inverse var
    inverse_carrier = {}
    for name, img in phi.images.items():
        if len(img.terms) == 1:
            m, c = next(iter(img.terms.items()))
            if c == 1 and sum(1 for e in m if e) == 1:
                i = next(i for i, e in enumerate(m) if e)
                if m[i] == -1 and i in inverse_needed and i not in inverse_carrier.values():
                    inverse_carrier[name] = i
    carrier_of = {i: name for name, i in inverse_carrier.items()}
    uncarried = [tgt.names[i] for i in sorted(inverse_needed - carrier_of.keys())]
    if uncarried:
        raise ValueError(f"no source variable maps to the inverse of {', '.join(uncarried)}")
    combined = PolyRing(src.names + tgt.names)

    def encode(img):
        # rewrite Laurent exponents through the carrier variables
        out = {}
        for m, c in img.terms.items():
            exps = [0] * combined.nvars
            for i, e in enumerate(m):
                if e >= 0:
                    exps[combined.index[tgt.names[i]]] = e
                else:
                    exps[combined.index[carrier_of[i]]] = -e
            out[tuple(exps)] = out.get(tuple(exps), 0) + c
        return _polynomial(combined, out)

    gens = []
    for name in src.names:
        v = combined.var(name)
        if name in inverse_carrier:
            t = combined.var(tgt.names[inverse_carrier[name]])
            gens.append(v * t - combined.one())
        else:
            gens.append(v - encode(phi.images[name]))
    graph = Ideal(combined, gens)
    kernel = eliminate(graph, list(tgt.names))
    return Ideal(src, [transplant(g, src) for g in kernel.gens])


# ---------------------------------------------------------------------------
# canonical text form


def poly_to_text(f, order=None):
    """Render with terms sorted by the order (grevlex when omitted)."""
    if not f.terms:
        return "0"
    order = order or grevlex(f.ring)
    parts = []
    for m, c in sorted(f.terms.items(), key=lambda t: order.key(t[0]), reverse=True):
        factors = []
        for i, e in enumerate(m):
            if e == 0:
                continue
            name = f.ring.names[i]
            factors.append(name if e == 1 else f"{name}^{e}")
        mono = "*".join(factors)
        if not mono:
            body = str(abs(c))
        elif abs(c) == 1:
            body = mono
        else:
            body = f"{abs(c)}*{mono}"
        sign = "-" if c < 0 else "+"
        parts.append((sign, body))
    first_sign, first_body = parts[0]
    text = ("-" if first_sign == "-" else "") + first_body
    for sign, body in parts[1:]:
        text += f" {sign} {body}"
    return text

