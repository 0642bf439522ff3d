"""Cox ring presentations of P(T_n tensor K^m) and their verifications.

Everything here is specific to the tangent bundle of projective space:
the Euler relations, the degree-(n+1, n) determinantal generators, the
presentation map into the Laurent/polynomial target ring, the quiver-style
initial ideal, and the Plucker identification at n = 2.
"""

from functools import lru_cache
from itertools import combinations
from operator import mul

from . import poly
from .poly import (
    Ideal,
    MatrixOrder,
    PolyRing,
    RingMap,
    grevlex,
    ideal_equal,
    is_groebner_basis,
    leading_monomials,
    lex,
    monomial_dimension,
    symbolic_det,
    weight_initial,
)


def x_name(j):
    return f"x{j}"


def y_name(i, j):
    return f"Y{i}_{j}"


def t_name(j):
    return f"t{j}"


def yy_name(i, j):
    return f"y{i}_{j}"


def w_name(tau=None):
    if tau is None:
        return "W"
    return "W_" + "".join(str(i) for i in sorted(tau))


def presentation_minors(n, m):
    """phi's minor variables in ring order, as (name, rows, columns): Y_ij
    on row i and column j, and the determinantal generator of each n-subset
    tau of rows on rows tau and all n + 1 columns, named W when tau is every
    row (m = n) and W_tau when m > n; there is none for m < n."""
    table = [(y_name(i, j), (i,), (j,)) for i in range(1, m + 1) for j in range(n + 1)]
    table += [
        (w_name(tau if m > n else None), tau, tuple(range(n + 1)))
        for tau in combinations(range(1, m + 1), n)
    ]
    return table


def presentation_variables(n, m):
    """The source variables of phi in ring order, each with its bidegree in
    Pic = Z x Z: x_j (-1, 0) and (|columns|, |rows|) for a minor, so Y_ij
    (1, 1) and the W-variables (n + 1, n)."""
    return [(x_name(j), (-1, 0)) for j in range(n + 1)] + [
        (name, (len(cols), len(rows))) for name, rows, cols in presentation_minors(n, m)
    ]


def phi_target_ring(n, m):
    names = [t_name(j) for j in range(n + 1)]
    names += [yy_name(i, j) for i in range(1, m + 1) for j in range(1, n + 1)]
    return PolyRing(names)


def euler_generators(ring, n, m):
    """The m Euler relations f_i = sum_j x_j Y_ij."""
    gens = []
    for i in range(1, m + 1):
        f = ring.zero()
        for j in range(n + 1):
            f = f + ring.var(x_name(j)) * ring.var(y_name(i, j))
        gens.append(f)
    return gens


def maximal_minors(ring, n):
    """The n + 1 maximal minors det Y(j) of the n x (n + 1) matrix [Y_ij],
    det Y(j) forgetting column j."""
    rows = [[ring.var(y_name(i, c)) for c in range(n + 1)] for i in range(1, n + 1)]
    return [symbolic_det([r[:j] + r[j + 1 :] for r in rows]) for j in range(n + 1)]


def euler_minor(target, n, rows, cols):
    """The minor on rows x cols of the matrix whose column 0 is
    -sum_j y_ij and whose column j is y_ij, times t^cols.  Each row sums
    to 0, as the Euler relations ask; phi and psi send every generator
    other than x_j to such a minor.  On all n + 1 columns, as for the
    W-variables, the minor is read on columns 1..n."""
    cols = sorted(cols)
    y = [[target.var(yy_name(i, j)) for j in range(1, n + 1)] for i in rows]
    square = cols[len(cols) - len(rows) :]
    image = symbolic_det([[r[j - 1] if j else -sum(r, target.zero()) for j in square] for r in y])
    for j in cols:
        image = image * target.var(t_name(j))
    return image


def minor_map(n, m, minors):
    """The presentation map of a table of minor variables: from the ring
    of x_0..x_n and the minors, in table order, into phi_target_ring(n, m),
    with x_j -> t_j^-1 and each minor -> its euler_minor.  phi and psi are
    this map on their tables."""
    source = PolyRing([x_name(j) for j in range(n + 1)] + [name for name, _, _ in minors])
    target = phi_target_ring(n, m)
    images = {x_name(j): target.var(t_name(j)) ** -1 for j in range(n + 1)}
    for name, rows, cols in minors:
        images[name] = euler_minor(target, n, rows, cols)
    return RingMap(source, target, images)


def build_phi(n: int, m: int):
    """The presentation map of the Cox ring of P(T_n tensor K^m), minor_map
    on presentation_minors(n, m): Y_ij -> the (i, j) entry of euler_minor's
    matrix times t_j, and the W of rows tau -> det[y(tau, 1..n)] t_0...t_n."""
    if n < 1 or m < 1:
        raise ValueError("need n, m >= 1")
    return minor_map(n, m, presentation_minors(n, m))


def column_action(ring, minors, perm):
    """The ring map of the permutation perm of the n + 1 matrix columns:
    x_j -> x_perm[j], and the minor on (rows, S) -> e times the minor on
    (rows, perm(S)), e the sign that sorts perm over sorted S.  The
    matrix's rows sum to 0 in any column order, so permuting its columns
    and the t_j is a map h of the target with h(phi(v)) = phi(g(v)) for
    the map phi of the table; g keeps ker(phi)."""
    named = {(rows, cols): name for name, rows, cols in minors}
    images = {x_name(j): ring.var(x_name(p)) for j, p in enumerate(perm)}
    for name, rows, cols in minors:
        moved = [perm[c] for c in cols]
        images[name] = sorting_sign(moved) * ring.var(named[rows, tuple(sorted(moved))])
    return RingMap(ring, ring, images)


def column_generators(n):
    """The swap of columns 0 and 1 and the cycle j -> j + 1 mod n + 1,
    which generate the permutations of the n + 1 columns."""
    return [[1, 0] + list(range(2, n + 1)), [(j + 1) % (n + 1) for j in range(n + 1)]]


def sorting_sign(seq):
    """The sign of the permutation that sorts the distinct entries of seq."""
    return (-1) ** sum(a > b for a, b in combinations(seq, 2))


class PresentationSpec:
    """A presentation of the Cox ring: ring, generators, grading, map."""

    def __init__(self, n, m, ring, gens, phi):
        self.n = n
        self.m = m
        self.ring = ring
        self.gens = gens
        # variable name -> (Pic degree, Sym degree)
        self.degrees = dict(presentation_variables(n, m))
        self.phi = phi
        self._ideal = Ideal(ring, gens)

    def ideal(self):
        """The ideal of gens, one object, so each Groebner basis is computed once."""
        return self._ideal

    def grading(self):
        """The weights -a + 3b of the bidegrees (a, b): x 1, Y 2, W 2n - 1.
        They are positive at every n (-a + 2b gives W weight 0 at n = 1),
        and every generator is homogeneous for them."""
        return [3 * b - a for a, b in (self.degrees[name] for name in self.ring.names)]

    def bidegree_of(self, f):
        """f's degrees under the a-row and the b-row of the bidegrees, None
        for f = 0; raises ValueError unless f is bihomogeneous."""
        if not f.terms:
            return None
        rows = zip(*(self.degrees[name] for name in self.ring.names))
        return tuple(weighted_degree(f, row) for row in rows)

    def check_bihomogeneous(self):
        return [self.bidegree_of(g) for g in self.gens]

    def max_sym_degree(self):
        return max(d[1] for d in self.degrees.values())


def tangent_cox_ideal(n: int, m: int):
    """Presentation of the Cox ring of P(T_n tensor K^m) for 1 <= m <= n.

    m < n: the Euler relations alone (a complete intersection).
    m = n: Euler relations plus det Y(j) - (-1)^j x_j W.  phi sends
    column 0 to minus the sum of the others, so in phi(det Y(j)) only -y_j
    survives there, and moving it to its place among columns 1..n gives
    phi(det Y(j)) = (-1)^j phi(x_j W).  The contained certificate of
    kernel_by_saturation checks every sign against phi.
    """
    if n < 1:
        raise ValueError(f"need n >= 1, got n = {n}")
    if not 1 <= m <= n:
        raise ValueError("presentation is only produced for 1 <= m <= n")
    phi = build_phi(n, m)
    ring = phi.source
    gens = euler_generators(ring, n, m)
    if m == n:
        w = ring.var(w_name())
        for j, minor in enumerate(maximal_minors(ring, n)):
            gens.append(minor - (-1) ** j * ring.var(x_name(j)) * w)
    return PresentationSpec(n, m, ring, gens, phi)


def quiver_ideal(n: int):
    """Euler relations plus all maximal minors det Y(j), in the m = n ring."""
    if n < 2:
        raise ValueError("need n >= 2")
    ring = PolyRing([name for name, _ in presentation_variables(n, n)])
    return Ideal(ring, euler_generators(ring, n, n) + maximal_minors(ring, n))


def delta_weights(ring):
    """Weight vector of the degeneration: W-variables weigh 1, the rest 0."""
    return [1 if name.startswith("W") else 0 for name in ring.names]


def delta_order(ring):
    """Minimal delta-weight leads, grevlex breaks ties: the row -w on top
    of the grevlex rows.  It puts 1 above W, so it is a well-order only
    on the monomials of one degree of a positive grading."""
    minus_w = [-w for w in delta_weights(ring)]
    return MatrixOrder((minus_w,) + grevlex(ring).rows)


def weighted_degree(f, weights):
    """The weighted degree shared by every term of f, None for f = 0;
    raises ValueError unless f is homogeneous for the weights."""
    degrees = {sum(map(mul, weights, m)) for m in f.terms}
    if len(degrees) > 1:
        raise ValueError(f"{f} is not homogeneous for the weights {weights}")
    return next(iter(degrees), None)


def require_homogeneous(gens, weights):
    """Raise ValueError unless the weights are positive and every
    generator is homogeneous for them."""
    if min(weights) < 1:
        raise ValueError(f"the weights {weights} are not positive")
    for g in gens:
        weighted_degree(g, weights)


def delta_initial_ideal(ideal, grading):
    """Initial ideal for the minimal-weight degeneration of the W-variables.

    The generators must be homogeneous for the positive grading: then every
    division stays in one degree, where delta_order is a well-order, and
    Buchberger ends.
    """
    require_homogeneous(ideal.gens, grading)
    order = delta_order(ideal.ring)
    gb = ideal.groebner(order)
    w = delta_weights(ideal.ring)
    return Ideal(ideal.ring, [weight_initial(g, w) for g in gb])


def kernel_by_saturation(claimed, phi, sigma, weights, symmetries):
    """Certificates that ker(phi) is the ideal J = claimed, with no
    elimination: the swap of an elimination for a saturation used for
    toric ideals (Sturmfels 1996, ch. 12; Bigatti, La Scala & Robbiano
    1999).  Let K = ker(phi) and v the product of the variables that
    sigma inverts.

    - contained: every generator of J maps to 0, so J lies in K.
    - left_inverse: sigma, a map from phi's target into the source with
      Laurent images, inverts phi modulo J once v is inverted: for every
      source variable s, v^a (sigma(phi(s)) - s) lies in J.  Then each f
      in K equals f - sigma(phi(f)) in J_v, so K lies in J : v^inf.
    - saturated: J : u^inf = J for the first inverted variable u, in ring
      order, of each orbit under the symmetries that permute the
      variables up to sign and keep the weights.  J is homogeneous for
      the positive weights (checked), so under the weighted revlex order
      with u last the basis elements divided by their largest power of u
      generate J : u^inf (Bayer & Stillman 1987); each must lie in J.
    - symmetric: each ring map of symmetries sends every generator into
      J.  One that permutes the variables up to sign and keeps the
      weights then maps J onto J, and carries J : u^inf = J to
      J : g(u)^inf = J, so J is saturated by every inverted variable.

    All four give K = J : v^inf = J.  Any Groebner basis of J decides
    membership in J, so the first saturation basis (variable 0 last when
    sigma inverts none) decides every membership tested here.  Returns
    that basis, its order and the certificates by name, each True when it
    holds.
    """
    ring = claimed.ring
    require_homogeneous(claimed.gens, weights)
    moves = [p for p in (_variable_permutation(g, weights) for g in symmetries) if p]
    inverted = {
        i for img in sigma.images.values() for m in img.terms for i, e in enumerate(m) if e < 0
    }
    quotients, covered, orders = [], set(), []
    for i in sorted(inverted):
        if i in covered:  # a symmetry carries an earlier saturated variable to it
            continue
        orbit = {i}
        while orbit:
            covered |= orbit
            orbit = {p[k] for p in moves for k in orbit} - covered
        orders.append(_u_last_order(ring, i, tuple(weights)))
        # an element that u does not divide is its own quotient, in J already
        powers = [(g, min(m[i] for m in g.terms)) for g in claimed.groebner(orders[-1])]
        quotients += [g * ring.var(ring.names[i]) ** -k for g, k in powers if k]
    order = orders[0] if orders else _u_last_order(ring, 0, tuple(weights))
    basis = claimed.groebner(order)
    in_claimed = poly.membership_test(basis, order)
    return basis, order, {
        "contained": all(phi(g) == 0 for g in claimed.gens),
        "left_inverse": all(
            in_claimed(_clear_denominators(sigma(phi(s)) - s)) for s in ring.gens()
        ),
        "saturated": all(in_claimed(g) for g in quotients),
        "symmetric": all(in_claimed(g(f)) for g in symmetries for f in claimed.gens),
    }


@lru_cache(maxsize=None)
def _u_last_order(ring, i, weights):
    """The weighted degree, then revlex with variable i last: within one
    degree the fewest x_i lead, so x_i^k divides a lead term only if it
    divides the element.  Built once per (ring, i, weights), since every
    proof saturates the same variables and compiling the key is not free."""
    revlex = [i] + [k for k in reversed(range(ring.nvars)) if k != i]
    return MatrixOrder(
        [weights] + [[-1 if k == r else 0 for k in range(ring.nvars)] for r in revlex]
    )


def _variable_permutation(g, weights):
    """The list perm with g(x_i) = +-x_perm[i] when g permutes the
    variables up to sign and keeps the weights; else None."""
    ring, perm = g.source, []
    for name in ring.names:
        terms = g.images[name].terms
        m, c = next(iter(terms.items()), (None, 0))
        if g.target != ring or len(terms) != 1 or abs(c) != 1 or sum(m) != 1 or min(m) < 0:
            return None
        perm.append(m.index(1))
    if sorted(perm) != list(range(ring.nvars)):
        return None
    return perm if all(weights[i] == weights[p] for i, p in enumerate(perm)) else None


def _clear_denominators(f):
    """f times the least monomial that leaves no negative exponent."""
    shift = [max([0] + [-m[i] for m in f.terms]) for i in range(f.ring.nvars)]
    return f * f.ring.monomial(shift)


def tangent_sigma(spec):
    """The left inverse of phi once x is inverted: t_j -> 1/x_j,
    y_ij -> x_j Y_ij."""
    ring = spec.ring
    images = {t_name(j): ring.var(x_name(j)) ** -1 for j in range(spec.n + 1)}
    for i in range(1, spec.m + 1):
        for j in range(1, spec.n + 1):
            images[yy_name(i, j)] = ring.var(x_name(j)) * ring.var(y_name(i, j))
    return RingMap(spec.phi.target, ring, images)


def tangent_kernel(spec):
    """kernel_by_saturation on the m = n presentation: sigma inverts the
    x_j, and the column symmetries carry x_0 to every x_j, so only x_0 is
    saturated."""
    minors = presentation_minors(spec.n, spec.m)
    symmetries = [column_action(spec.ring, minors, perm) for perm in column_generators(spec.n)]
    return kernel_by_saturation(
        spec.ideal(), spec.phi, tangent_sigma(spec), spec.grading(), symmetries
    )


KERNEL_DEFAULT_CAP = 4


def verify_kernel(n, allow_large=False):
    """Check that ker(phi) equals the tangent Cox ideal J by the
    certificates of kernel_by_saturation; nothing is eliminated.

    n <= 4 by default; n >= 5 only behind allow_large.  Returns a report
    dict.  kernel_generators and kernel_gb_size are both the size of the
    proof's basis (x_0 last), that of ker(phi) once K = J; at n = 2..6 it
    is as large as the reduced grevlex basis.
    """
    if n > KERNEL_DEFAULT_CAP and not allow_large:
        raise poly.CapExceeded(
            f"kernel verification at n = {n} needs allow_large", size=n
        )
    spec = tangent_cox_ideal(n, n)
    basis, _, certificates = tangent_kernel(spec)
    return {
        "n": n,
        "kernel_generators": len(basis),
        "claimed_generators": len(spec.ideal().gens),
        "kernel_gb_size": len(basis),
        "equal": all(certificates.values()),
    }


def initial_comparison(n):
    """Check in_delta(ker phi) = quiver ideal and its zero-set dimension.

    With ker(phi) = J proven by kernel_by_saturation, the degeneration
    runs on J itself.  It is flat here: the initial ideal's zero set has
    the same dimension as the kernel's, which is reported alongside.
    """
    spec = tangent_cox_ideal(n, n)
    basis, order, certificates = tangent_kernel(spec)
    initial = delta_initial_ideal(spec.ideal(), spec.grading())
    # J's zero set has the dimension of its initial ideal under any order
    leads = leading_monomials(basis, order)
    return {
        "n": n,
        "equal": all(certificates.values()) and ideal_equal(initial, quiver_ideal(n)),
        "dimension": poly.zero_set_dimension(initial),
        "generic_dimension": monomial_dimension(leads, spec.ring.nvars),
        "expected_dimension": n * n + n + 1,
    }


# ---------------------------------------------------------------------------
# the row-sum / minors lemma


def lemma_ring(n):
    return PolyRing([y_name(i, j) for i in range(1, n + 1) for j in range(n + 1)])


def row_completing_order(ring, n):
    """Lex order scanning each row left to right, column 0 last in its row.

    Significance: Y_11 > Y_12 > ... > Y_1n > Y_10 > Y_21 > ... > Y_n0.
    Under this order every top-row-sum has lead term in column 1 and every
    maximal minor leads with a diagonal-style term.
    """
    names = [y_name(i, j) for i in range(1, n + 1) for j in list(range(1, n + 1)) + [0]]
    return lex(ring, names)


def canonicalize_columns(n, subset):
    """Column permutation sending subset to {1..k}, fixing column 0.

    Returns (mapping old column -> new column).
    """
    subset = sorted(set(subset))
    if not subset:
        raise ValueError("subset must be nonempty")
    if subset[0] < 1 or subset[-1] > n:
        raise ValueError(f"column index out of range 1..{n}")
    rest = [j for j in range(1, n + 1) if j not in subset]
    mapping = {0: 0}
    for new, old in enumerate(subset, start=1):
        mapping[old] = new
    for new, old in enumerate(rest, start=len(subset) + 1):
        mapping[old] = new
    return mapping


def lemma_ideal(n, subset):
    """Row sums over the (canonicalized) subset plus all maximal minors.

    Returns (ideal, column permutation used).
    """
    mapping = canonicalize_columns(n, subset)
    k = len(set(subset))
    ring = lemma_ring(n)
    gens = []
    for i in range(1, n + 1):
        f = ring.zero()
        for j in range(1, k + 1):
            f = f + ring.var(y_name(i, j))
        gens.append(f)
    return Ideal(ring, gens + maximal_minors(ring, n)), mapping


def verify_lemma(n, subset):
    """Groebner property and zero-set dimension for the row-sum/minors ideal."""
    ideal, mapping = lemma_ideal(n, subset)
    order = row_completing_order(ideal.ring, n)
    gb_flag = is_groebner_basis(ideal.gens, order)
    lead = leading_monomials(ideal.gens, order)
    dim = monomial_dimension(lead, ideal.ring.nvars)
    return {
        "n": n,
        "subset": sorted(set(subset)),
        "column_permutation": mapping,
        "is_groebner_basis": gb_flag,
        "dimension": dim,
        "expected_dimension": n * n - 1,
    }


# ---------------------------------------------------------------------------
# Plucker identification at n = 2


def plucker_quadrics(m):
    """Three-term Grassmann quadrics of Gr(2, m), one per 4-subset."""
    ring = PolyRing([f"p{i}{j}" for i, j in combinations(range(1, m + 1), 2)])

    def p(i, j):
        return ring.var(f"p{i}{j}")

    gens = []
    for i, j, k, l in combinations(range(1, m + 1), 4):
        gens.append(p(i, j) * p(k, l) - p(i, k) * p(j, l) + p(i, l) * p(j, k))
    return Ideal(ring, gens)


# x_j -> p over {1,2,3} minus {3 - j}, Y_ij -> (-1)^j p_{3-j, 3+i}, W -> p45:
# the change of variables from the m = n = 2 presentation onto Gr(2,5).
PLUCKER_SUBSTITUTION = {
    "W": "p45",
    "Y1_0": "p34",
    "Y1_1": "-p24",
    "Y1_2": "p14",
    "Y2_0": "p35",
    "Y2_1": "-p25",
    "Y2_2": "p15",
    "x0": "p12",
    "x1": "p13",
    "x2": "p23",
}


def pluecker_match():
    """Check PLUCKER_SUBSTITUTION against the Plucker ideal of Gr(2,5).

    `found`: the substitution is a signed bijection of the variables that
    carries each presentation generator to +-1 times a distinct quadric;
    `ideal_equal`: the substituted ideal is the Plucker ideal.
    """
    spec = tangent_cox_ideal(2, 2)
    target = plucker_quadrics(5)
    table = PLUCKER_SUBSTITUTION
    images = [
        -target.ring.var(t[1:]) if t.startswith("-") else target.ring.var(t)
        for t in (table[name] for name in spec.ring.names)
    ]
    mapped = [g.substitute(images) for g in spec.gens]
    hits = [
        next((k for k, q in enumerate(target.gens) if g in (q, -q)), None)
        for g in mapped
    ]
    bijective = sorted(t.lstrip("-") for t in table.values()) == sorted(target.ring.names)
    return {
        "found": bijective and None not in hits and len(set(hits)) == len(target.gens),
        "ideal_equal": ideal_equal(Ideal(target.ring, mapped), target),
        "substitution": dict(sorted(table.items())),
    }
