"""Cox ring presentations of P(T_n tensor K^m) and their verifications.

The tangent bundle of projective space: the Euler relations, the
degree-(n+1, n) determinantal generators, the presentation map phi into
the Laurent/polynomial target ring, the quiver-style initial ideal, and
the Plucker identification at n = 2.

Some of it serves the flag-ring map psi of gz.py as well: a presentation
map is minor_map on a table of minors, each sent to its Euler minor;
column_action and column_symmetries permute its matrix columns as
signed permutations of the variables, minor_sigma reads the map's left
inverse off it, and minor_kernel passes both to kernel_by_saturation,
which proves the kernel of either map.
"""

from functools import lru_cache
from itertools import combinations
from operator import add, itemgetter, mul

from . import poly
from .poly import (
    Ideal,
    MatrixOrder,
    PolyRing,
    Polynomial,
    RingMap,
    grevlex,
    ideal_equal,
    is_groebner_basis,
    leading_minors,
    leading_monomials,
    lex,
    monomial_dimension,
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
    return [
        Polynomial(ring, {ring.exponents({x_name(j): 1, y_name(i, j): 1}): 1
                          for j in range(n + 1)})
        for i in range(1, m + 1)
    ]


def maximal_minors(ring, n):
    """The n + 1 maximal minors det Y(j) of the n x (n + 1) matrix [Y_ij],
    det Y(j) forgetting column j, all from one leading_minors pass."""
    minors = leading_minors(
        [[ring.var(y_name(i, c)) for c in range(n + 1)] for i in range(1, n + 1)]
    )
    return [minors[tuple(c for c in range(n + 1) if c != j)] for j in range(n + 1)]


def euler_minors(target, n, minors):
    """The image of each (name, rows, cols) of a minor table, by name: the
    minor on rows x cols of the matrix whose column 0 is -sum_j y_ij and
    whose column j is y_ij, times t^cols.  Each row sums to 0, as the
    Euler relations ask; phi and psi send every generator other than x_j
    to such a minor.  On all n + 1 columns, as for the W-variables, the
    minor is read on columns 1..n, its square columns.

    Each row tuple of the table that is the prefix of no longer one takes
    one leading_minors pass, over its rows and the square columns of the
    table's minors on two or more of them; the pass gives the minors on
    every prefix as well, and a minor on one row is an entry.  So psi's
    top-justified table takes one pass over all n + 1 columns, and phi's
    at m = n one over columns 1..n."""
    table = []  # (name, rows, square columns, columns)
    squares = {}  # rows -> the square columns of the table's minors on them
    for name, rows, cols in minors:
        rows, cols = tuple(rows), sorted(cols)
        table.append((name, rows, tuple(cols[len(cols) - len(rows) :]), cols))
        squares.setdefault(rows, set()).add(table[-1][2])
    found = {}  # (rows, square columns) -> the minor
    for top in squares:
        if any(len(s) > len(top) and s[: len(top)] == top for s in squares):
            continue
        matrix = []
        for i in top:
            y = [target.var(yy_name(i, j)) for j in range(1, n + 1)]
            matrix.append([Polynomial(target, {m: -1 for f in y for m in f.terms})] + y)
        found.update((((top[0],), (c,)), entry) for c, entry in enumerate(matrix[0]))
        used = sorted({c for k in range(2, len(top) + 1) for s in squares.get(top[:k], ())
                       for c in s})
        if used:
            for cols, minor in leading_minors([[r[c] for c in used] for r in matrix]).items():
                found[top[: len(cols)], tuple(used[c] for c in cols)] = minor
    images = {}
    for name, rows, square, cols in table:
        # times t^cols: a shift of the minor's exponent tuples
        shift = target.exponents({t_name(j): 1 for j in cols})
        images[name] = Polynomial(target, {
            tuple(map(add, m, shift)): c for m, c in found[rows, square].terms.items()
        })
    return images


def minor_map(n, m, minors):
    """The presentation map of a table of minor variables: from the ring
    of x_0..x_n and the minors, in table order, into phi_target_ring(n, m),
    with x_j -> t_j^-1 and each minor -> its image under euler_minors.
    phi and psi are this map on their tables."""
    source = PolyRing([x_name(j) for j in range(n + 1)] + [name for name, _, _ in minors])
    target = phi_target_ring(n, m)
    images = {x_name(j): target.monomial(target.exponents({t_name(j): -1}))
              for j in range(n + 1)}
    images.update(euler_minors(target, n, minors))
    return RingMap(source, target, images)


def build_phi(n: int, m: int):
    """The presentation map of the Cox ring of P(T_n tensor K^m), minor_map
    on presentation_minors(n, m): Y_ij -> the (i, j) entry of euler_minors'
    matrix times t_j, and the W of rows tau -> det[y(tau, 1..n)] t_0...t_n."""
    if n < 1 or m < 1:
        raise ValueError("need n, m >= 1")
    return minor_map(n, m, presentation_minors(n, m))


def column_action(minors, perm):
    """The permutation perm of the n + 1 matrix columns as the move g =
    (targets, signs), variable i -> signs[i] variable targets[i], with
    x_0..x_n then the minors in table order: x_j -> x_perm[j], and the
    minor on (rows, S) -> e times the minor on (rows, perm(S)), e the sign
    that sorts perm over sorted S.  The matrix's rows sum to 0 in any
    column order, so permuting its columns and the t_j is a map h of the
    target with h(phi(v)) = phi(g(v)) for the map phi of the table; g
    keeps ker(phi)."""
    where = {(rows, cols): k for k, (_, rows, cols) in enumerate(minors, start=len(perm))}
    targets, signs = list(perm), [1] * len(perm)
    for _, rows, cols in minors:
        moved = [perm[c] for c in cols]
        targets.append(where[rows, tuple(sorted(moved))])
        signs.append(sorting_sign(moved))
    return targets, signs


def column_symmetries(minors, n):
    """The column_action on a minor table of the swap of columns 0 and 1
    and the cycle j -> j + 1 mod n + 1, which generate the column
    permutations: the symmetries the kernel proofs of phi and psi pass."""
    swap, cycle = [1, 0] + list(range(2, n + 1)), [(j + 1) % (n + 1) for j in range(n + 1)]
    return [column_action(minors, perm) for perm in (swap, cycle)]


def sorting_sign(seq):
    """The sign of the permutation that sorts the distinct entries of seq."""
    return (-1) ** sum(a > b for a, b in combinations(seq, 2))


def bidegrees(n, m, gens):
    """The bidegree (a, b) of each of gens, polynomials in the ring of
    presentation_variables(n, m), read off those variables, None for 0;
    raises ValueError unless each is bihomogeneous."""
    rows = list(zip(*(degree for _, degree in presentation_variables(n, m))))
    return [tuple(weighted_degree(f, row) for row in rows) if f else None for f in gens]


def presentation_weights(n, m):
    """The weights -a + 3b of the bidegrees (a, b) of presentation_variables(n, m):
    x 1, Y 2, W 2n - 1, positive at every n (-a + 2b gives W weight 0 at
    n = 1).  Every generator is homogeneous for them."""
    return [3 * b - a for _, (a, b) in presentation_variables(n, m)]


def tangent_cox_ideal(n: int, m: int):
    """Presentation of the Cox ring of P(T_n tensor K^m) for 1 <= m <= n,
    an ideal in the ring of presentation_variables(n, m).

    m < n: the Euler relations alone (a complete intersection).
    m = n: Euler relations plus det Y(j) - (-1)^j x_j W.  phi sends
    column 0 to minus the sum of the others, so in phi(det Y(j)) only -y_j
    survives there, and moving it to its place among columns 1..n gives
    phi(det Y(j)) = (-1)^j phi(x_j W).  tangent_kernel checks every sign
    against phi.
    """
    if n < 1:
        raise ValueError(f"need n >= 1, got n = {n}")
    if not 1 <= m <= n:
        raise ValueError("presentation is only produced for 1 <= m <= n")
    ring = PolyRing([name for name, _ in presentation_variables(n, m)])
    gens = euler_generators(ring, n, m)
    if m == n:
        for j, minor in enumerate(maximal_minors(ring, n)):
            x_w = ring.exponents({x_name(j): 1, w_name(): 1})
            gens.append(minor - ring.monomial(x_w, (-1) ** j))
    return Ideal(ring, gens)


def quiver_ideal(n: int):
    """Euler relations plus all maximal minors det Y(j), in the m = n ring."""
    if n < 2:
        raise ValueError("need n >= 2")
    ring = PolyRing([name for name, _ in presentation_variables(n, n)])
    return Ideal(ring, euler_generators(ring, n, n) + maximal_minors(ring, n))


def delta_weights(ring):
    """Weight vector of the degeneration: W-variables weigh 1, the rest 0."""
    return [1 if name.startswith("W") else 0 for name in ring.names]


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


def kernel_by_saturation(claimed, phi, sigma, weights, symmetries, order):
    """Certificates that K = ker(phi) lies in the ideal J = claimed, with
    no elimination: the swap of an elimination for a saturation used for
    toric ideals (Sturmfels 1996, ch. 12; Bigatti, La Scala & Robbiano
    1999).  Whoever builds J proves J in K, once, so K = J when all three
    hold.  Let v be the product of the variables that sigma inverts and G
    the Groebner basis of J under order, a term order (the callers' put
    the positive weights first), the one basis the proof computes.

    - left_inverse: sigma, a map from phi's target into the source with
      Laurent images, inverts phi modulo J once v is inverted: for every
      source variable s, v^a (sigma(phi(s)) - s) lies in J.  Then each f
      in K equals f - sigma(phi(f)) in J_v, so K lies in J : v^inf.
    - saturated: each orbit of the inverted variables under the
      symmetries has a member u that divides no lead term of G.  Then
      J : u = J: if u f lies in J for an f in normal form, u in(f) lies
      in in(J), so a lead l divides u in(f); u does not divide l, so l
      divides in(f), which forces f = 0.  Bayer & Stillman (1987) is the
      u-last revlex case, where for a reduced basis the condition is
      also necessary.
    - symmetric: each of symmetries, a move of column_action, sends
      every generator into J.  Each must be a bijection of the variables
      that keeps the weights (ValueError otherwise), and J is homogeneous
      for the positive weights (checked), so g maps each degree of J onto
      itself and carries J : u = J to J : g(u) = J: J is saturated by
      every variable of the orbit.

    All three give K in J : v^inf = J.  G decides every membership tested
    here.  Where membership is plain no division is made: an image that
    is +- a generator of J lies in J, and so does sigma(phi(s)) - s = 0.
    Returns G, order and the certificates by name, each True when it
    holds.
    """
    ring = claimed.ring
    require_homogeneous(claimed.gens, weights)
    for targets, _ in symmetries:
        if sorted(targets) != list(range(ring.nvars)):
            raise ValueError("a symmetry sends two variables to one: not a permutation")
        moved = [ring.names[i] for i, p in enumerate(targets) if weights[i] != weights[p]]
        if moved:
            raise ValueError(f"a symmetry moves the weight of {', '.join(moved)}")
    inverted = {
        i for img in sigma.images.values() for m in img.terms for i, e in enumerate(m) if e < 0
    }
    basis = claimed.groebner(order)
    in_claimed = poly.membership_test(basis, order)
    signed_gens = set(claimed.gens) | {-f for f in claimed.gens}
    differences = (sigma(phi.images[s]) - ring.var(s) for s in ring.names)
    return basis, order, {
        "left_inverse": all(not d or in_claimed(_clear_denominators(d)) for d in differences),
        "saturated": None not in _free_members(
            ring, leading_monomials(basis, order), inverted, symmetries
        ).values(),
        "symmetric": all(
            image in signed_gens or in_claimed(image)
            for image in (_permuted(f, move) for move in symmetries for f in claimed.gens)
        ),
    }


def _free_members(ring, leads, inverted, moves):
    """The orbits of the inverted variables under the signed permutations
    moves, each named by its first inverted member in ring order, mapped
    to the name of its first variable that divides none of the leads, or
    to None when every variable of the orbit divides one."""
    bound = {i for m in leads for i, e in enumerate(m) if e}
    free, covered = {}, set()
    for i in sorted(inverted):
        if i in covered:  # in the orbit of an earlier inverted variable
            continue
        orbit, new = set(), {i}
        while new:
            orbit |= new
            new = {perm[k] for perm, _ in moves for k in new} - orbit
        covered |= orbit
        u = min(orbit - bound, default=None)
        free[ring.names[i]] = None if u is None else ring.names[u]
    return free


@lru_cache(maxsize=None)
def proof_order(weights, rows, last):
    """The order of a kernel proof: the weighted degree, then the rows,
    then revlex with variable `last` last.  Among monomials alike in the
    weights and the rows the fewest x_last lead, so for an element
    homogeneous for them all x_last^k divides its lead term only if it
    divides the element.  Built once per (weights, rows, last), all
    tuples, since compiling the key is not free."""
    nvars = len(weights)
    revlex = [last] + [k for k in reversed(range(nvars)) if k != last]
    return MatrixOrder(
        [weights, *rows] + [[-int(k == r) for k in range(nvars)] for r in revlex]
    )


def _permuted(f, move):
    """f under the signed permutation move = (perm, signs) of its ring's
    variables, x_i -> signs[i] x_perm[i]: each exponent tuple permuted, its
    coefficient times the signs of the variables it holds to odd powers,
    with no product taken."""
    perm, signs = move
    inverse = [0] * len(perm)
    for i, p in enumerate(perm):
        inverse[p] = i
    # an itemgetter of one index returns the bare entry: the one permutation
    # of a one-variable ring is the identity, and reading variable 0 twice
    # more keeps the parity of the negated exponents
    moved = itemgetter(*inverse) if len(inverse) > 1 else tuple
    odd = itemgetter(*(i for i, sign in enumerate(signs) if sign < 0), 0, 0)
    return Polynomial(f.ring, {
        moved(m): -c if sum(odd(m)) & 1 else c for m, c in f.terms.items()
    })


def _clear_denominators(f):
    """f times the least monomial that leaves no negative exponent."""
    shift = [-min(column) for column in zip((0,) * f.ring.nvars, *f.terms)]
    return f * f.ring.monomial(shift)


def minor_sigma(phi, minors, n):
    """The left inverse of the presentation map phi of a minor table, read
    off the table: t_j -> 1/x_j, and y_ij -> x_j M(rows, (1..r-1, j)) /
    M(rows[:-1], (1..r-1)) for the minor M of the table on r rows ending
    in row i, j >= r, the denominator 1 when r = 1; y_ij -> 0 when the
    table has no such minor.  For phi it is y_ij -> x_j Y_ij.  For psi it
    inverts the leading minors P_1, ..., P_{1..n-2} as well; where they
    are units, lower unipotent row operations clear the entries below the
    diagonal and fix every top-justified minor (the big cell of the flag
    variety, Fulton 1997, Young Tableaux, section 9)."""
    ring, target = phi.source, phi.target
    named = {(rows, cols): name for name, rows, cols in minors}
    images = {name: ring.zero() for name in target.names}
    images.update({t_name(j): ring.monomial(ring.exponents({x_name(j): -1}))
                   for j in range(n + 1)})
    for (rows, cols), name in named.items():
        r, j = len(rows), cols[-1]
        if cols[:-1] == tuple(range(1, r)) and j >= r:
            powers = {x_name(j): 1, name: 1}
            if r > 1:
                powers[named[rows[:-1], cols[:-1]]] = -1
            images[yy_name(rows[-1], j)] = ring.monomial(ring.exponents(powers))
    return RingMap(target, ring, images)


def minor_kernel(claimed, phi, minors, n, weights, order):
    """kernel_by_saturation under order for the presentation map phi of a
    minor table: J = claimed, minor_sigma's left inverse and the table's
    column_symmetries, which carry x_0 to every x_j."""
    return kernel_by_saturation(
        claimed, phi, minor_sigma(phi, minors, n), weights, column_symmetries(minors, n), order
    )


def tangent_kernel(n, phi):
    """minor_kernel for phi = build_phi(n, n): J = tangent_cox_ideal(n, n),
    the weights -a + 3b and the proof_order with the row -delta and x_0
    last.  x_0 divides no lead of J's reduced basis under it, and within
    one degree the least delta weight leads, so the basis's delta-initial
    forms are a basis of in_delta(J) (Sturmfels 1996, Prop. 1.13), which
    initial_comparison reads.  At n = 2..6 the basis, and the S-pairs
    formed, are those of the plain x_0-last order; without the row that
    is a coincidence, and the forms need not be a basis.  contained, J in
    ker(phi), is proved here: every generator of J maps to 0."""
    claimed, weights = tangent_cox_ideal(n, n), presentation_weights(n, n)
    minus_delta = tuple(-w for w in delta_weights(claimed.ring))
    order = proof_order(tuple(weights), (minus_delta,), 0)
    basis, _, certificates = minor_kernel(claimed, phi, presentation_minors(n, n), n, weights,
                                          order)
    return basis, order, {"contained": all(phi(g) == 0 for g in claimed.gens), **certificates}


KERNEL_DEFAULT_CAP = 4


def verify_kernel(n, allow_large=False):
    """Check that ker(phi) equals the tangent Cox ideal J by the
    certificates of tangent_kernel; nothing is eliminated.

    n <= 4 by default; n >= 5 only behind allow_large.  Returns a report
    dict.  kernel_generators and kernel_gb_size are both the size of the
    proof's basis (x_0 last), that of ker(phi) once K = J; at n = 2..6 it
    is as large as the reduced grevlex basis.
    """
    if n > KERNEL_DEFAULT_CAP and not allow_large:
        raise poly.CapExceeded(f"kernel verification at n = {n} needs allow_large", size=n)
    basis, _, certificates = tangent_kernel(n, build_phi(n, n))
    return {
        "n": n,
        "kernel_generators": len(basis),
        # J's n Euler relations and n + 1 relations det Y(j) - (-1)^j x_j W
        "claimed_generators": 2 * n + 1,
        "kernel_gb_size": len(basis),
        "equal": all(certificates.values()),
    }


def initial_comparison(n):
    """Check in_delta(ker phi) = quiver ideal and its zero-set dimension.

    With ker(phi) = J proven by tangent_kernel, the degeneration runs on
    J itself, and the proof's basis carries it: the order refines -delta
    within each degree, so the basis's delta-initial forms are a basis of
    in_delta(J) under it (Sturmfels 1996, Prop. 1.13).  They decide
    whether the quiver ideal lies in in_delta(J), and the quiver ideal's
    grevlex basis the converse; both are homogeneous for the weights and
    for delta.  The forms' leads give the initial ideal's dimension; they
    are the basis's leads, which give the kernel's, reported alongside:
    the degeneration is flat.
    """
    phi = build_phi(n, n)
    ring = phi.source
    basis, order, certificates = tangent_kernel(n, phi)
    delta = delta_weights(ring)
    forms = [weight_initial(g, delta) for g in basis]
    quiver, by_degree = quiver_ideal(n), grevlex(ring)
    in_initial = poly.membership_test(forms, order)
    in_quiver = poly.membership_test(quiver.groebner(by_degree), by_degree)
    equal = all(map(in_initial, quiver.gens)) and all(map(in_quiver, forms))
    return {
        "n": n,
        "equal": all(certificates.values()) and equal,
        # a zero set has the dimension of the leads of any Groebner basis
        "dimension": monomial_dimension(leading_monomials(forms, order), ring.nvars),
        "generic_dimension": monomial_dimension(leading_monomials(basis, order), ring.nvars),
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
    presentation = tangent_cox_ideal(2, 2)
    target = plucker_quadrics(5)
    table = PLUCKER_SUBSTITUTION
    images = [
        -target.ring.var(t[1:]) if t.startswith("-") else target.ring.var(t)
        for t in (table[name] for name in presentation.ring.names)
    ]
    mapped = [g.substitute(images) for g in presentation.gens]
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
