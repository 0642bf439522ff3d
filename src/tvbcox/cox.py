"""Cox ring presentations of P(T_n tensor K^m) and their verifications.

Everything here is specific to the tangent bundle of projective space:
the Euler relations, the degree-(n+1, n) determinantal generators, the
presentation map into the Laurent/polynomial target ring, the quiver-style
initial ideal, and the Plucker identification at n = 2.
"""

from itertools import combinations

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
    ring_map_kernel,
    symbolic_det,
    weight_initial,
)
from .schur import picard_degree


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


def presentation_ring(n, m):
    """Source ring K[x_j, Y_ij (, W-variables when m >= n)]."""
    names = [x_name(j) for j in range(n + 1)]
    names += [y_name(i, j) for i in range(1, m + 1) for j in range(n + 1)]
    if m == n:
        names.append(w_name())
    elif m > n:
        names += [w_name(tau) for tau in combinations(range(1, m + 1), n)]
    return PolyRing(names)


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


def det_forget_column(ring, n, j):
    """det of the n x n minor of [Y_ij] obtained by forgetting column j."""
    cols = [c for c in range(n + 1) if c != j]
    rows = [[ring.var(y_name(i, c)) for c in cols] for i in range(1, n + 1)]
    return symbolic_det(rows)


def build_phi(n: int, m: int):
    """The presentation map of the Cox ring of P(T_n tensor K^m).

    x_j -> t_j^-1, Y_i0 -> (-sum_j y_ij) t_0, Y_ij -> y_ij t_j, and for
    m >= n one determinantal generator per n-subset tau of rows:
    W_tau -> det[y(0, tau)] t_0...t_n.
    """
    if n < 1 or m < 1:
        raise ValueError("need n, m >= 1")
    source = presentation_ring(n, m)
    target = phi_target_ring(n, m)
    images = {}
    for j in range(n + 1):
        t = target.var(t_name(j))
        images[x_name(j)] = t ** (-1)
    for i in range(1, m + 1):
        col0 = target.zero()
        for j in range(1, n + 1):
            col0 = col0 - target.var(yy_name(i, j))
        images[y_name(i, 0)] = col0 * target.var(t_name(0))
        for j in range(1, n + 1):
            images[y_name(i, j)] = target.var(yy_name(i, j)) * target.var(t_name(j))
    if m >= n:
        t_all = target.one()
        for j in range(n + 1):
            t_all = t_all * target.var(t_name(j))
        for tau in combinations(range(1, m + 1), n):
            rows = [[target.var(yy_name(i, j)) for j in range(1, n + 1)] for i in tau]
            name = w_name() if m == n else w_name(tau)
            images[name] = symbolic_det(rows) * t_all
    return RingMap(source, target, images)


def solve_det_sign(n, j, phi):
    """The sign e with det Y(j) - e * x_j W in ker(phi), found symbolically."""
    ring = phi.source
    det = det_forget_column(ring, n, j)
    xw = ring.var(x_name(j)) * ring.var(w_name())
    image_det = phi(det)
    image_xw = phi(xw)
    if image_det - image_xw == 0:
        return 1
    if image_det + image_xw == 0:
        return -1
    raise AssertionError(f"no sign makes det Y({j}) - e*x_{j}*W vanish")


class PresentationSpec:
    """A presentation of the Cox ring: ring, generators, grading, map."""

    def __init__(self, n, m, ring, gens, degrees, phi):
        self.n = n
        self.m = m
        self.ring = ring
        self.gens = gens
        self.degrees = degrees  # variable name -> (Pic degree, Sym degree)
        self.phi = phi

    def ideal(self):
        return Ideal(self.ring, self.gens)

    def bidegree_of(self, f):
        """The common bidegree of f's terms; raises if not bihomogeneous."""
        seen = None
        for mono in f.terms:
            a = b = 0
            for idx, e in enumerate(mono):
                if e:
                    da, db = self.degrees[self.ring.names[idx]]
                    a += e * da
                    b += e * db
            if seen is None:
                seen = (a, b)
            elif seen != (a, b):
                raise ValueError("generator is not bihomogeneous")
        return seen

    def check_bihomogeneous(self):
        return [self.bidegree_of(g) for g in self.gens]

    def max_sym_degree(self):
        return max(d[1] for d in self.degrees.values())


def variable_degrees(n, m):
    degrees = {}
    for j in range(n + 1):
        degrees[x_name(j)] = picard_degree("x", n)
    for i in range(1, m + 1):
        for j in range(n + 1):
            degrees[y_name(i, j)] = picard_degree("Y", n)
    if m == n:
        degrees[w_name()] = picard_degree("W", n)
    elif m > n:
        for tau in combinations(range(1, m + 1), n):
            degrees[w_name(tau)] = picard_degree("W_tau", n)
    return degrees


def tangent_cox_ideal(n: int, m: int):
    """Presentation of the Cox ring of P(T_n tensor K^m) for 1 <= m <= n.

    m < n: the Euler relations alone (a complete intersection).
    m = n: Euler relations plus det Y(j) - e_j x_j W with signs solved
    against the presentation map.
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
        for j in range(n + 1):
            sign = solve_det_sign(n, j, phi)
            gens.append(det_forget_column(ring, n, j) - sign * ring.var(x_name(j)) * w)
    return PresentationSpec(n, m, ring, gens, variable_degrees(n, m), phi)


def quiver_ideal(n: int):
    """Euler relations plus all maximal minors det Y(j), in the m = n ring."""
    if n < 2:
        raise ValueError("need n >= 2")
    ring = presentation_ring(n, n)
    gens = euler_generators(ring, n, n)
    for j in range(n + 1):
        gens.append(det_forget_column(ring, n, j))
    return Ideal(ring, gens)


def delta_weights(ring):
    """Weight vector of the degeneration: W-variables weigh 1, the rest 0."""
    return [1 if name.startswith("W") else 0 for name in ring.names]


def delta_order(ring):
    """Minimal delta-weight leads, grevlex breaks ties: the row -w on top
    of the grevlex rows."""
    minus_w = [-w for w in delta_weights(ring)]
    return MatrixOrder((minus_w,) + grevlex(ring).rows)


def delta_initial_ideal(ideal):
    """Initial ideal for the minimal-weight degeneration of the W-variables."""
    order = delta_order(ideal.ring)
    gb = ideal.groebner(order)
    w = delta_weights(ideal.ring)
    return Ideal(ideal.ring, [weight_initial(g, w) for g in gb])


KERNEL_DEFAULT_CAP = 2


def verify_kernel(n, allow_large=False):
    """Check that ker(phi) equals the tangent Cox ideal, by elimination.

    n = 2 by default; n = 3 only behind allow_large (it is near the desk
    scale boundary).  Returns a report dict.
    """
    if n > KERNEL_DEFAULT_CAP and not allow_large:
        raise poly.CapExceeded(
            f"kernel verification at n = {n} needs allow_large", size=n
        )
    spec = tangent_cox_ideal(n, n)
    kernel = ring_map_kernel(spec.phi)
    claimed = spec.ideal()
    equal = ideal_equal(kernel, claimed)
    return {
        "n": n,
        "kernel_generators": len(kernel.gens),
        "claimed_generators": len(claimed.gens),
        "kernel_gb_size": len(kernel.groebner(grevlex(spec.ring))),
        "equal": equal,
    }


def initial_comparison(n):
    """Check in_delta(ker phi) = quiver ideal and its zero-set dimension.

    The degeneration is flat here: the initial ideal's zero set has the
    same dimension as the kernel's, which is reported alongside.
    """
    spec = tangent_cox_ideal(n, n)
    kernel = ring_map_kernel(spec.phi)
    initial = delta_initial_ideal(kernel)
    quiver = quiver_ideal(n)
    order = grevlex(spec.ring)
    equal = ideal_equal(initial, quiver)
    dim = poly.zero_set_dimension(initial, order)
    generic_dim = poly.zero_set_dimension(kernel, order)
    return {
        "n": n,
        "equal": equal,
        "dimension": dim,
        "generic_dimension": generic_dim,
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
    for j in range(n + 1):
        gens.append(det_forget_column(ring, n, j))
    return Ideal(ring, gens), mapping


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


def minors_only_dimension(n):
    """Zero-set dimension of the ideal of all maximal minors of [Y_ij]."""
    ring = lemma_ring(n)
    gens = [det_forget_column(ring, n, j) for j in range(n + 1)]
    ideal = Ideal(ring, gens)
    return poly.zero_set_dimension(ideal, row_completing_order(ring, n))


# ---------------------------------------------------------------------------
# Plucker identification at n = 2


def plucker_ring(m):
    return PolyRing([f"p{i}{j}" for i, j in combinations(range(1, m + 1), 2)])


def plucker_quadrics(m, ring=None):
    """Three-term Grassmann quadrics of Gr(2, m), one per 4-subset."""
    ring = ring or plucker_ring(m)

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
