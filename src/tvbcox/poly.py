"""Multivariate polynomials over Q with term orders, Buchberger, elimination.

Monomials are exponent tuples over a fixed variable table (PolyRing).
Exponents may be negative in plain arithmetic (Laurent monomials are needed
to evaluate ring maps like x_j -> t_j^-1); everything order-related
(division, Groebner bases) insists on the positive orthant.  Coefficients
have one representation, in a Polynomial and in the engine alike: an int
when integral, a Fraction only when not.  The engine works on the terms
dicts themselves, and its one product (_times) and one power (_power) serve
both Polynomial * and ** and ring-map images.
"""

from fractions import Fraction
from functools import lru_cache
from heapq import heapify, heappop, heappush
from itertools import chain, combinations, compress, count
from operator import add, le, sub

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
        return isinstance(other, PolyRing) and self.names == other.names

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

    def __add__(self, other):
        if isinstance(other, (int, Fraction)):
            other = self.ring.const(other)
        self._check_ring(other)
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
        if isinstance(other, (int, Fraction)):
            other = self.ring.const(other)
        return self.__add__(other.__neg__())

    def __rsub__(self, other):
        return self.__neg__().__add__(other)

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            other = self.ring.const(other)
        self._check_ring(other)
        return _polynomial(self.ring, _times(self.terms, other.terms))

    def __rmul__(self, other):
        return self.__mul__(other)

    def __pow__(self, k):
        if not isinstance(k, int):
            raise TypeError(f"exponent must be an int, not {type(k).__name__}")
        if k == 0:
            return self.ring.one()
        return _polynomial(self.ring, _power([self], 0, k, {}))

    def __eq__(self, other):
        if isinstance(other, (int, Fraction)):
            other = self.ring.const(other)
        return isinstance(other, Polynomial) and self.ring == other.ring and self.terms == other.terms

    def __hash__(self):
        return hash((self.ring, tuple(sorted(self.terms.items()))))

    def variables(self):
        """Indices of variables that actually occur."""
        return {i for m in self.terms for i, e in enumerate(m) if e}

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

    def sorted_terms(self, order):
        return sorted(self.terms.items(), key=lambda t: order.key(t[0]), reverse=True)

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
        return _expand(self, images, rings.pop(), {})

    def __repr__(self):
        return poly_to_text(self, None)


# ---------------------------------------------------------------------------
# term orders


class MatrixOrder:
    """Term order given by an integer matrix (Robbiano 1985).

    A monomial's key is the tuple of row . exps, compared lexicographically;
    max(key) is the lead term, as is min(neg_key), the negated rows' key.
    Lex, grevlex, weight and block orders are all matrix orders, built by
    the constructors below.  Full column rank keeps keys distinct.
    """

    __slots__ = ("rows", "key", "neg_key")

    def __init__(self, rows):
        self.rows = tuple(tuple(int(a) for a in row) for row in rows)
        rank, ncols = rational_rank(self.rows), len(self.rows[0]) if self.rows else 0
        if rank < ncols:
            raise ValueError(f"order matrix has rank {rank} < {ncols} columns: not a total order")
        self.key = _compile_key(self.rows)
        self.neg_key = _compile_key([[-a for a in row] for row in self.rows])


def _compile_key(rows):
    # The key runs on every step of normal_form, so it is compiled once into
    # one flat tuple expression over the nonzero entries, e.g.
    # lambda e: (e[0]+e[1]+e[2], -e[2], -e[1]); a Python loop over the rows
    # per call is an order of magnitude slower.  The entries are ints, so
    # the generated source holds nothing but indices and integers.
    parts = []
    for row in rows:
        terms = []
        for i, a in enumerate(row):
            if a:
                coeff = "" if a == 1 else "-" if a == -1 else f"{a}*"
                terms.append(f"{coeff}e[{i}]")
        parts.append("+".join(terms).replace("+-", "-") or "0")
    return eval(f"lambda e: ({''.join(p + ',' for p in parts)})")


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
# division and Buchberger


def _require_orthant(polys):
    for f in polys:
        for m in f.terms:
            if any(e < 0 for e in m):
                raise ValueError("Laurent exponents are not allowed here")


def _divides(a, b):
    return all(map(le, a, b))


@lru_cache(maxsize=None)
def _bits(nvars):
    return tuple(1 << i for i in range(nvars))


def _support(m):
    """Bitmask of the variables of m (bit i iff m[i] > 0), a plain int of
    any width: a divides b only if a's support is a subset of b's."""
    return sum(compress(_bits(len(m)), m))


def _engine(c):
    """c as the engine holds it: an int when integral, else a Fraction."""
    return c.numerator if c.denominator == 1 else c


def _polynomial(ring, terms):
    """Terms as a Polynomial: the zero coefficients dropped, and an
    integral Fraction, which the engine's arithmetic can leave, an int."""
    return Polynomial(ring, {m: _engine(c) for m, c in terms.items() if c})


def _divisor(g, order):
    """g as a divisor (lead, coeff, support of lead, tail, g), the tail
    holding g's other terms."""
    lt, lc = g.leading_term(order)
    return lt, lc, _support(lt), [t for t in g.terms.items() if t[0] != lt], g


def _mono_lcm(a, b):
    # a comprehension: map(max, a, b) is three times slower on Python 3.11
    return tuple([x if x > y else y for x, y in zip(a, b)])


def normal_form(f, gens, order):
    """Remainder of f under multivariate division by gens.

    Deterministic: the largest reducible term is always reduced against the
    first divisor (in list order) whose lead term divides it.
    """
    _require_orthant([f] + list(gens))
    return _polynomial(f.ring, _reduce(f, [_divisor(g, order) for g in gens if g], order))


def membership_test(basis, order):
    """The test f -> (f reduces to 0 against basis), a Groebner basis under
    order: the same division as normal_form, with the basis checked and
    its divisors built once for every f tested."""
    _require_orthant(basis)
    divisors = [_divisor(g, order) for g in basis if g]

    def reduces_to_zero(f):
        _require_orthant([f])
        return not _reduce(f, divisors, order)

    return reduces_to_zero


def _reduce(f, divisors, order):
    """The division loop of normal_form, over divisors whose exponents were
    checked already; returns the remainder's terms, not yet normalized.
    Pending terms sit in a heap keyed once by neg_key (Monagan & Pearce
    2007); one that cancels stays in work at 0 and is skipped when popped.
    Reduction adds only smaller terms, so a popped monomial never returns.
    A divisor whose lead support is not inside the term's is skipped
    before exponents are compared (Bachmann & Schoenemann 1998)."""
    key = order.neg_key
    work = dict(f.terms)
    heap = [(key(m), m) for m in work]
    heapify(heap)
    remainder = {}
    while heap:
        m = heappop(heap)[1]
        c = work.pop(m)
        if not c:
            continue
        outside = ~_support(m)
        for d in divisors:
            if not d[2] & outside and _divides(d[0], m):
                for t in _subtract_tail(work, c, m, d):
                    heappush(heap, (key(t), t))
                break
        else:
            remainder[m] = c
    return remainder


def _subtract_tail(work, c, m, divisor):
    """work -= (c / lc) * x^(m - lt) * tail, in place: the lead term would
    only cancel c * x^m.  Basis divisors are monic (lc == 1); Fraction(c)
    keeps int / int exact.  Returns the monomials new to work."""
    lt, lc, _, tail, _ = divisor
    factor = c if lc == 1 else _engine(Fraction(c) / lc)
    shift = tuple(map(sub, m, lt))
    fresh = []
    for gm, gc in tail:
        t = tuple(map(add, gm, shift))
        acc = work.get(t)
        if acc is None:
            work[t] = -factor * gc
            fresh.append(t)
        else:
            work[t] = acc - factor * gc
    return fresh


def _s_polynomial(a, b):
    """S-polynomial of two divisors, built from the two tails alone: the
    lead terms cancel by construction."""
    l = _mono_lcm(a[0], b[0])
    work = {}
    _subtract_tail(work, -1, l, a)
    _subtract_tail(work, 1, l, b)
    return _polynomial(a[4].ring, work)


def _gm_update(basis, queue):
    """Gebauer-Moeller pair update after appending basis[-1]: filters the
    queued pairs (..., i, j, lcm) in place and returns the new pairs
    (i, j, lcm) in the order they join the queue."""
    new, (t, _, mask) = len(basis) - 1, basis[-1][:3]
    # drop old pairs whose lcm is strictly covered by the new lead term,
    # which cannot divide an lcm whose mask does not hold its own
    queue[:] = [
        p
        for p in queue
        if mask & ~(basis[p[-3]][2] | basis[p[-2]][2])
        or not _divides(t, p[-1])
        or _mono_lcm(basis[p[-3]][0], t) == p[-1]
        or _mono_lcm(basis[p[-2]][0], t) == p[-1]
    ]
    # an lcm's support is the union of the two leads' supports
    fresh = [(i, new, _mono_lcm(d[0], t), d[2] | mask) for i, d in enumerate(basis[:new])]
    # Buchberger's first criterion: coprime lead terms, i.e. disjoint supports
    return [(i, j, l) for i, j, l, _ in _prune_pairs(fresh) if basis[i][2] & mask]


def _prune_pairs(fresh):
    """Gebauer-Moeller M and F among the new pairs (i, j, lcm, mask), by
    degree: a pair whose lcm an earlier kept lcm divides, or equals, goes.
    A kept lcm whose support mask is not inside the candidate's cannot
    divide it and is skipped before the exponents are compared."""
    kept = []
    for p in sorted(fresh, key=lambda p: sum(p[2])):
        l, outside = p[2], ~p[3]
        if not any(not q[3] & outside and _divides(q[2], l) for q in kept):
            kept.append(p)
    return kept


def _queue_pairs(queue, fresh, order, arrivals):
    """Push the new pairs (i, j, lcm), keyed once by (degree, order key) of
    the lcm, and heapify.  The negated arrival number pops the pair queued
    last first among equal keys, as a stable reverse sort and pop does."""
    queue.extend((sum(l), order.key(l), -next(arrivals), i, j, l) for i, j, l in fresh)
    heapify(queue)


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
    _require_orthant(gens)
    basis = []  # divisors (lead, 1, mask, tail, g), g monic
    queue = []  # heap of pairs (degree, key, -arrival, i, j, lcm)
    arrivals = count()

    def s_polynomials():
        while queue:
            degree, _, _, i, j, _ = heappop(queue)
            if degree > DEGREE_CAP:
                raise CapExceeded(
                    f"S-pair degree {degree} exceeds cap {DEGREE_CAP}", degree=degree
                )
            yield _s_polynomial(basis[i], basis[j])

    for f in chain(gens, s_polynomials()):
        r = _reduce(f, basis, order)
        if not r:
            continue
        if len(basis) >= BASIS_CAP:
            raise CapExceeded(
                f"basis size {len(basis)} exceeds cap {BASIS_CAP}", size=len(basis)
            )
        basis.append(_divisor(Polynomial(f.ring, r).monic(order), order))
        _queue_pairs(queue, _gm_update(basis, queue), order, arrivals)
    return _reduce_basis(basis, order)


def _reduce_basis(basis, order):
    """Minimalize and tail-reduce divisors (lead, 1, mask, tail, g) of a
    Groebner basis; the result is the canonical reduced GB."""
    items = sorted(basis, key=lambda d: (sum(d[0]), order.key(d[0])))
    minimal = []
    for d in items:
        if not any(_divides(m[0], d[0]) for m in minimal):
            minimal.append(d)
    # no other lead divides a minimal lead, so each remainder keeps its
    # lead term and stays monic
    reduced = [
        (d[0], _polynomial(d[4].ring, _reduce(d[4], minimal[:i] + minimal[i + 1 :], order)))
        for i, d in enumerate(minimal)
    ]
    reduced.sort(key=lambda d: order.key(d[0]))
    return [g for _, g in reduced]


def is_groebner_basis(gens, order):
    """True iff every S-pair of gens reduces to zero against gens."""
    gens = [g for g in gens if g]
    _require_orthant(gens)
    divisors = [_divisor(g, order) for g in gens]
    # coprime lead terms (disjoint supports) always reduce to zero
    return not any(
        a[2] & b[2] and _reduce(_s_polynomial(a, b), divisors, order)
        for a, b in combinations(divisors, 2)
    )


# ---------------------------------------------------------------------------
# ideals


class Ideal:
    """Generator list plus its reduced Groebner bases, memoized per order."""

    def __init__(self, ring, gens):
        self.ring = ring
        self.gens = [g for g in gens if g]
        for g in self.gens:
            if g.ring != ring:
                raise ValueError("generator from the wrong ring")
        self._gb = {}

    def groebner(self, order):
        if order.rows not in self._gb:
            self._gb[order.rows] = buchberger(self.gens, order)
        return self._gb[order.rows]

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
    kept = [g for g in gb if not (g.variables() & drop_idx)]
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


def zero_set_dimension(ideal):
    """Dimension of the zero set, via the initial ideal of its grevlex
    Groebner basis (the dimension does not depend on the order)."""
    order = grevlex(ideal.ring)
    gb = ideal.groebner(order)
    return monomial_dimension(leading_monomials(gb, order), ideal.ring.nvars)


# ---------------------------------------------------------------------------
# symbolic determinants


DET_SIDE_CAP = 6


def symbolic_det(rows):
    """Exact determinant of a square matrix of Polynomials.

    Standard alternating cofactor expansion along the first row.
    """
    n = len(rows)
    if any(len(r) != n for r in rows):
        raise ValueError("matrix is not square")
    if n == 0:
        raise ValueError("empty matrix")
    if n > DET_SIDE_CAP:
        raise CapExceeded(f"determinant side {n} exceeds cap {DET_SIDE_CAP}", size=n)
    if n == 1:
        return rows[0][0]
    ring = rows[0][0].ring
    result = ring.zero()
    for j in range(n):
        minor = [[rows[i][k] for k in range(n) if k != j] for i in range(1, n)]
        cofactor = symbolic_det(minor)
        term = rows[0][j] * cofactor
        result = result + (term if j % 2 == 0 else -term)
    return result


# ---------------------------------------------------------------------------
# ring maps


def _expand(f, images, target, powers):
    """f under variable -> Polynomial images in target, expanded on term
    dicts; powers memoizes images[i] ** e as terms by (i, e), so a caller
    whose images are fixed can keep it."""
    out = {}
    for m, c in f.terms.items():
        part = {(0,) * target.nvars: c}
        for i, e in enumerate(m):
            if e:
                if images[i] is None:
                    raise ValueError(f"no image for variable {f.ring.names[i]}")
                part = _times(part, _power(images, i, e, powers))
        for t, a in part.items():
            out[t] = out.get(t, 0) + a
    return _polynomial(target, out)


def _power(images, i, e, powers):
    """images[i] ** e as terms, memoized in powers: a monomial directly
    (inverted for e < 0 when it is a unit), else by squaring."""
    if (i, e) not in powers:
        base = images[i].terms
        if e < 0 and [abs(c) for c in base.values()] != [1]:
            raise ValueError("negative power of a non-unit")
        if len(base) == 1 or e == 1:
            p = {tuple(a * e for a in m): c ** abs(e) for m, c in base.items()}
        else:
            half = _power(images, i, e >> 1, powers)
            p = _times(half, half)
            p = _times(p, base) if e & 1 else p
        powers[i, e] = p
    return powers[i, e]


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
    symbolically.  The images are fixed when the map is built, so the map
    memoizes their powers across calls.
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
        self._powers = {}

    def __call__(self, f):
        if f.ring != self.source:
            raise ValueError("argument from the wrong ring")
        return _expand(f, self._images, self.target, self._powers)


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
    for m, c in f.sorted_terms(order):
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

