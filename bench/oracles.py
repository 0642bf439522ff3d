"""Independent checks of the program's answers.

None of these calls the tvbcox routine whose answer it checks.  They work
from the paper's definitions: the CI criterion over ray subsets with ranks
from their own Fraction elimination, classification by minors, the closed
forms, the presentation maps phi and psi rebuilt from their formulas with
polynomials expanded here, Groebner bases from sympy, and word counts from
the generator definition.  Each function returns a list of failure
messages; an empty list means the answer passed.
"""

import math
import random
import re
from fractions import Fraction
from itertools import combinations, permutations

# ---------------------------------------------------------------------------
# exact linear algebra


def rank(rows):
    """Rank over Q by Gaussian elimination on Fractions."""
    work = [[Fraction(x) for x in row] for row in rows if row]
    if not work:
        return 0
    r = 0
    for col in range(len(work[0])):
        pivot = next((i for i in range(r, len(work)) if work[i][col] != 0), None)
        if pivot is None:
            continue
        work[r], work[pivot] = work[pivot], work[r]
        for i in range(r + 1, len(work)):
            if work[i][col] != 0:
                factor = work[i][col] / work[r][col]
                work[i] = [x - factor * y for x, y in zip(work[i], work[r])]
        r += 1
        if r == len(work):
            break
    return r


# ---------------------------------------------------------------------------
# CI-stability and classification of one analyze report


class RankTable:
    """Restricted ranks m_A of a bundle, memoized by common-minimal column set."""

    def __init__(self, m, diagram):
        self.m = m
        self.n = len(diagram)
        self.masks = []
        for row in diagram:
            low = min(row)
            self.masks.append(sum(1 << j for j, x in enumerate(row) if x == low))
        self.by_columns = {}
        self.by_subset = {}

    def m_of(self, subset_mask):
        if subset_mask not in self.by_subset:
            common = -1
            for i in range(self.n):
                if subset_mask >> i & 1:
                    common &= self.masks[i]
            cols = [j for j in range(len(self.m[0])) if common >> j & 1]
            key = tuple(cols)
            if key not in self.by_columns:
                self.by_columns[key] = rank([[row[j] for j in cols] for row in self.m]) if cols else 0
            self.by_subset[subset_mask] = self.by_columns[key]
        return self.by_subset[subset_mask]

    def pairs(self):
        """(i, |A|, m_i, m_A, A as a bit mask) over ray subsets A with
        |A| >= 2 and i in A."""
        singles = [self.m_of(1 << i) for i in range(self.n)]
        for mask in range(1, 1 << self.n):
            size = bin(mask).count("1")
            if size < 2:
                continue
            m_a = self.m_of(mask)
            for i in range(self.n):
                if mask >> i & 1:
                    yield i, size, singles[i], m_a, mask

    def is_ci(self, ell):
        return all(1 + ell * m_i < size + ell * m_a
                   for _, size, m_i, m_a, _ in self.pairs())


def check_analysis(entry, results):
    """One analyze report against the bundle the generator wrote."""
    m, diagram = entry["M"], entry["D"]
    n, s, d = len(diagram), len(m[0]), len(m)
    where = results.get("label")
    fails = []
    if (results.get("n"), results.get("s"), results.get("d"), results.get("rank")) != (n, s, d, s - d):
        fails.append(f"{where}: n, s, d or rank differ from the bundle file")
    cls = results.get("class", {})
    sparse = all(sum(1 for x in row if x) <= 1 for row in diagram)
    uniform = all(rank([[row[j] for j in cols] for row in m]) == d
                  for cols in combinations(range(s), d))
    expected = {"sparse": sparse, "uniform": uniform, "hypersurface": d == 1, "rank": s - d}
    if cls != expected:
        fails.append(f"{where}: class {cls} != {expected}")
    table = RankTable(m, diagram)
    ci = table.is_ci(1)
    if results.get("complete_intersection") is not ci:
        fails.append(f"{where}: complete_intersection {results.get('complete_intersection')} != {ci}")
        return fails
    if not ci:
        if "ci_stability" in results:
            fails.append(f"{where}: stability reported for a non-CI bundle")
        return fails
    stab = results.get("ci_stability")
    if stab == "infinity":
        binding = sum(1 for _, _, m_i, m_a, _ in table.pairs() if m_i > m_a)
        if binding:
            fails.append(f"{where}: stability infinity but {binding} pairs bind")
        return fails
    if not isinstance(stab, int) or stab < 1:
        return fails + [f"{where}: stability {stab!r} is not a positive integer"]
    if not table.is_ci(stab):
        fails.append(f"{where}: not CI at l = stab = {stab}")
    if table.is_ci(stab + 1):
        fails.append(f"{where}: still CI at l = stab + 1 = {stab + 1}")
    witness = results.get("witness")
    if witness is None:
        return fails + [f"{where}: finite stability without a witness"]
    i, rays = witness["i"], witness["A"]
    mask = sum(1 << (r - 1) for r in rays)
    if i not in rays or len(rays) < 2:
        return fails + [f"{where}: witness {witness} is not a pair i in A, |A| >= 2"]
    m_i, m_a = table.m_of(1 << (i - 1)), table.m_of(mask)
    if m_i <= m_a or math.ceil((len(rays) - 1) / (m_i - m_a)) - 1 != stab:
        fails.append(f"{where}: witness {witness} does not attain {stab}")
    closed = entry.get("closed_form")
    if closed is not None and stab != closed:
        fails.append(f"{where}: stability {stab} != closed form {closed}")
    return fails


# ---------------------------------------------------------------------------
# Laurent polynomials as {exponent tuple: Fraction}


def p_add(a, b, sign=1):
    out = dict(a)
    for m, c in b.items():
        v = out.get(m, 0) + sign * c
        if v:
            out[m] = v
        else:
            out.pop(m, None)
    return out


def p_mul(a, b):
    out = {}
    for m1, c1 in a.items():
        for m2, c2 in b.items():
            m = tuple(x + y for x, y in zip(m1, m2))
            v = out.get(m, 0) + c1 * c2
            if v:
                out[m] = v
            else:
                out.pop(m, None)
    return out


def p_var(k, nvars, power=1):
    exps = [0] * nvars
    exps[k] = power
    return {tuple(exps): Fraction(1)}


def p_const(c, nvars):
    return {(0,) * nvars: Fraction(c)} if c else {}


def p_pow(a, e, nvars):
    if e < 0:
        (m, c), = a.items()  # only monomials are inverted
        a, e = {tuple(-x for x in m): 1 / c}, -e
    out = p_const(1, nvars)
    for _ in range(e):
        out = p_mul(out, a)
    return out


def p_det(rows, nvars):
    """Leibniz expansion."""
    size = len(rows)
    total = {}
    for perm in permutations(range(size)):
        inversions = sum(1 for a, b in combinations(perm, 2) if a > b)
        term = p_const(1, nvars)
        for i, j in enumerate(perm):
            term = p_mul(term, rows[i][j])
        total = p_add(total, term, -1 if inversions % 2 else 1)
    return total


_TERM = re.compile(r"\s*([+-])?\s*([^+-]+)")


def parse_poly(text, names):
    """Parse the text form "3/2*x0^2*Y1_0 - W + 2" over the given names."""
    index = {name: k for k, name in enumerate(names)}
    out = {}
    body = text.strip()
    if body == "0":
        return out
    for sign, chunk in _TERM.findall(body):
        coeff = Fraction(-1 if sign == "-" else 1)
        exps = [0] * len(names)
        for factor in chunk.strip().split("*"):
            if factor[0].isdigit():
                coeff *= Fraction(factor)
            else:
                name, _, power = factor.partition("^")
                exps[index[name]] += int(power or 1)
        out = p_add(out, {tuple(exps): coeff})
    return out


def substitute(f, images, nvars):
    """f (over the source names) with each variable replaced by its image."""
    out = {}
    for m, c in f.items():
        term = p_const(c, nvars)
        for k, e in enumerate(m):
            if e:
                term = p_mul(term, p_pow(images[k], e, nvars))
        out = p_add(out, term)
    return out


# ---------------------------------------------------------------------------
# the presentation maps, from the paper's formulas


def phi_map(n):
    """Source names and images of phi for P(T_n tensor K^n).

    x_j -> t_j^-1, Y_i0 -> (-sum_j y_ij) t_0, Y_ij -> y_ij t_j,
    W -> det[y_ij] t_0 ... t_n.  Target variables: t_0..t_n, then y_ij.
    """
    target = [f"t{j}" for j in range(n + 1)]
    target += [f"y{i}_{j}" for i in range(1, n + 1) for j in range(1, n + 1)]
    nt = len(target)
    tv = {name: p_var(k, nt) for k, name in enumerate(target)}
    source, images = [], []
    for j in range(n + 1):
        source.append(f"x{j}")
        images.append(p_var(j, nt, -1))
    for i in range(1, n + 1):
        for j in range(n + 1):
            source.append(f"Y{i}_{j}")
            if j == 0:
                col0 = {}
                for jj in range(1, n + 1):
                    col0 = p_add(col0, tv[f"y{i}_{jj}"], -1)
                images.append(p_mul(col0, tv["t0"]))
            else:
                images.append(p_mul(tv[f"y{i}_{j}"], tv[f"t{j}"]))
    t_all = p_const(1, nt)
    for j in range(n + 1):
        t_all = p_mul(t_all, tv[f"t{j}"])
    det = p_det([[tv[f"y{i}_{j}"] for j in range(1, n + 1)] for i in range(1, n + 1)], nt)
    source.append("W")
    images.append(p_mul(det, t_all))
    return source, images, nt


def psi_map(n):
    """Flag-ring names and images of psi for the full flag bundle of T_n.

    P over columns C -> top-justified |C| x |C| minor of the matrix whose
    0-th column is -sum_j y_.j and whose j-th column is y_.j, times t^C;
    x_j -> t_j^-1.  The P-variables are the nonempty strict subsets of
    [n] and the sets {0} | tau with |tau| <= n - 2.
    """
    target = [f"t{j}" for j in range(n + 1)]
    target += [f"y{i}_{j}" for i in range(1, n) for j in range(1, n + 1)]
    nt = len(target)
    tv = {name: p_var(k, nt) for k, name in enumerate(target)}

    def entry(i, j):
        if j:
            return tv[f"y{i}_{j}"]
        col0 = {}
        for jj in range(1, n + 1):
            col0 = p_add(col0, tv[f"y{i}_{jj}"], -1)
        return col0

    column_sets = [set(c) for size in range(1, n) for c in combinations(range(1, n + 1), size)]
    column_sets += [{0} | set(c) for size in range(n - 1) for c in combinations(range(1, n + 1), size)]
    source = [f"x{j}" for j in range(n + 1)]
    images = [p_var(j, nt, -1) for j in range(n + 1)]
    for cols in column_sets:
        ordered = sorted(cols)
        minor = p_det([[entry(i, j) for j in ordered] for i in range(1, len(cols) + 1)], nt)
        for j in ordered:
            minor = p_mul(minor, tv[f"t{j}"])
        source.append("P" + "".join(map(str, ordered)))
        images.append(minor)
    return source, images, nt


def vanishing_failures(texts, names, source, images, nt, what):
    """Every polynomial (text over `names`) must expand to zero."""
    place = [source.index(name) for name in names]
    fails = []
    for text in texts:
        f = parse_poly(text, names)
        f = {tuple(_scatter(m, place, len(source))): c for m, c in f.items()}
        if substitute(f, images, nt):
            fails.append(f"{what}: {text} does not expand to zero")
    return fails


def _scatter(m, place, size):
    out = [0] * size
    for k, e in zip(place, m):
        out[k] = e
    return out


def image_dimension(images, nt, seed=20220520):
    """Dimension of the image of a map: Jacobian rank at a random point."""
    rng = random.Random(seed)
    point = [Fraction(rng.randint(2, 10**6)) for _ in range(nt)]
    jac = []
    for f in images:
        row = []
        for k in range(nt):
            total = Fraction(0)
            for m, c in f.items():
                if m[k]:
                    term = c * m[k]
                    for v, e in enumerate(m):
                        term *= point[v] ** (e - (v == k))
                    total += term
            row.append(total)
        jac.append(row)
    return rank(jac)


def monomial_dimension(monomials, nvars):
    """Largest set of variables containing no support of a lead monomial."""
    supports = {frozenset(k for k, e in enumerate(m) if e) for m in monomials}
    if frozenset() in supports:
        return -1
    for size in range(nvars, -1, -1):
        for free in combinations(range(nvars), size):
            free = set(free)
            if not any(sup <= free for sup in supports):
                return size
    return -1


def grevlex_key(m):
    return (sum(m), tuple(-e for e in reversed(m)))


def reduces_to_zero(f, basis):
    """Division of f by basis under grevlex (first variable largest)."""
    leads = []
    for g in basis:
        lead = max(g, key=grevlex_key)
        leads.append((lead, g[lead], g))
    f = dict(f)
    while f:
        m = max(f, key=grevlex_key)
        for lead, lc, g in leads:
            if all(a >= b for a, b in zip(m, lead)):
                shift = {tuple(a - b for a, b in zip(m, lead)): f[m] / lc}
                f = p_add(f, p_mul(shift, g), -1)
                break
        else:
            return False
    return True


# ---------------------------------------------------------------------------
# Groebner bases from sympy, imported only once timing is over


def sympy_gb(texts, names, order):
    """sympy's reduced basis of the text-form polynomials over names."""
    import sympy

    syms = sympy.symbols(list(names))
    local = {str(s): s for s in syms}
    exprs = [sympy.sympify(t.replace("^", "**"), locals=local) for t in texts]
    return sympy.groebner(exprs, *syms, order=order)


def sympy_lex_kernel(n):
    """Kernel of phi at n by sympy's lex elimination of the graph ideal."""
    import sympy

    source, images, nt = phi_map(n)
    target = [f"t{j}" for j in range(n + 1)]
    target += [f"y{i}_{j}" for i in range(1, n + 1) for j in range(1, n + 1)]
    syms = sympy.symbols(target + source)
    tsym, ssym = syms[:nt], syms[nt:]
    graph = []
    for k, (name, img) in enumerate(zip(source, images)):
        if name.startswith("x"):  # x_j t_j - 1 encodes x_j = t_j^-1
            graph.append(ssym[k] * tsym[int(name[1:])] - 1)
            continue
        expr = 0
        for m, c in img.items():
            term = sympy.Rational(c.numerator, c.denominator)
            for v, e in enumerate(m):
                term *= tsym[v] ** e
            expr += term
        graph.append(ssym[k] - expr)
    gb = sympy.groebner(graph, *syms, order="lex")
    kernel = [g for g in gb.exprs if not (g.free_symbols & set(tsym))]
    return sympy.groebner(kernel, *ssym, order="grevlex")


def gb_dimension(gb, nvars):
    return monomial_dimension([g.monoms(order="grevlex")[0] for g in gb.polys], nvars)


def check_kernel_report(n, report, claimed_texts, names):
    """verify_kernel(n): ker(phi) equals the claimed ideal."""
    fails = []
    if not report.get("equal"):
        fails.append(f"verify_kernel({n}) reports equal = {report.get('equal')}")
    source, images, nt = phi_map(n)
    if sorted(names) != sorted(source):
        return fails + [f"verify_kernel({n}): variables {names} differ from the paper's"]
    fails += vanishing_failures(claimed_texts, names, source, images, nt,
                                f"claimed generator at n = {n}")
    if report.get("claimed_generators") != len(claimed_texts):
        fails.append(f"verify_kernel({n}): claimed_generators {report.get('claimed_generators')}")
    gb = sympy_gb(claimed_texts, source, "grevlex")
    if report.get("kernel_gb_size") != len(gb.exprs):
        fails.append(f"verify_kernel({n}): kernel_gb_size {report.get('kernel_gb_size')}"
                     f" != {len(gb.exprs)} from sympy")
    expected = n * n + n + 1
    if image_dimension(images, nt) != expected:
        fails.append(f"phi at n = {n}: image dimension is not {expected}")
    if gb_dimension(gb, len(source)) != expected:
        fails.append(f"claimed ideal at n = {n}: zero-set dimension is not {expected}")
    if n == 2:
        lex = sympy_lex_kernel(2)
        if list(lex.exprs) != list(gb.exprs):
            fails.append("n = 2: sympy's lex elimination kernel differs from the claimed ideal")
    return fails


def check_initial_report(n, report, claimed_texts, names):
    """initial_comparison(n): in_delta(ker phi) is the quiver ideal and the
    dimension is n^2 + n + 1."""
    fails = []
    expected = n * n + n + 1
    got = (report.get("equal"), report.get("dimension"),
           report.get("generic_dimension"), report.get("expected_dimension"))
    if got != (True, expected, expected, expected):
        fails.append(f"initial_comparison({n}) reports {got}")
    w = names.index("W")
    # the minimal-weight part (W weighs 1) of each claimed generator
    initial = []
    for text in claimed_texts:
        f = parse_poly(text, names)
        low = min(m[w] for m in f)
        initial.append({m: c for m, c in f.items() if m[w] == low})
    quiver = []
    for i in range(1, n + 1):
        quiver.append(" + ".join(f"x{j}*Y{i}_{j}" for j in range(n + 1)))
    minors = []
    nv = len(names)
    for j in range(n + 1):
        cols = [c for c in range(n + 1) if c != j]
        rows = [[p_var(names.index(f"Y{i}_{c}"), nv) for c in cols] for i in range(1, n + 1)]
        minors.append(p_det(rows, nv))
    want = [parse_poly(t, names) for t in quiver] + minors
    for g in want:
        if not any(g == f or g == {m: -c for m, c in f.items()} for f in initial):
            fails.append(f"n = {n}: a quiver generator is no initial form of a claimed generator")
    texts = quiver + [_to_text(f, names) for f in minors]
    gb = sympy_gb(texts, names, "grevlex")
    if gb_dimension(gb, len(names)) != expected:
        fails.append(f"quiver ideal at n = {n}: zero-set dimension is not {expected}")
    return fails


def _to_text(f, names):
    parts = []
    for m, c in f.items():
        factors = [str(c)] + [f"{names[k]}^{e}" for k, e in enumerate(m) if e]
        parts.append("*".join(factors))
    return " + ".join(parts).replace("+ -", "- ") or "0"


def check_psi_kernel(n, names, kernel_texts, relation_texts):
    """psi_kernel(n): every returned element and every relation family
    member expands to zero under psi, and each relation reduces to zero
    against the returned basis (grevlex in the flag-ring order)."""
    source, images, nt = psi_map(n)
    if sorted(names) != sorted(source):
        return [f"psi at n = {n}: variables {names} differ from the paper's"]
    if not kernel_texts:
        return [f"psi_kernel({n}) is empty"]
    fails = vanishing_failures(kernel_texts, names, source, images, nt,
                               f"psi_kernel({n}) element")
    fails += vanishing_failures(relation_texts, names, source, images, nt,
                                f"relation family member at n = {n}")
    basis = [parse_poly(t, names) for t in kernel_texts]
    for text in relation_texts:
        if not reduces_to_zero(parse_poly(text, names), basis):
            fails.append(f"relation {text} does not reduce to zero against psi_kernel({n})")
    return fails


# ---------------------------------------------------------------------------
# Gelfand-Tsetlin sweeps


def generator_count(n):
    """Marked generators: [-a] for a in 0..n, and [sigma, a] for each
    nonempty strict subset sigma of [n] with mark 0 or a mark a >= 1 such
    that {1..a} lies in sigma."""
    count = n + 1
    for size in range(1, n):
        for sigma in combinations(range(1, n + 1), size):
            prefix = 0
            while prefix + 1 in sigma:
                prefix += 1
            count += 1 + prefix
    return count


def sweep_word_count(n, max_len):
    """Multisets of 1..max_len generators: sum over k of C(g + k - 1, k)."""
    g = generator_count(n)
    return sum(math.comb(g + k - 1, k) for k in range(1, max_len + 1))


def check_sweep(n, max_len, rc, results):
    fails = []
    if rc != 0:
        fails.append(f"gz verify --n {n}: exit code {rc}")
    sweep = results.get("confluence", {})
    want = sweep_word_count(n, max_len)
    if sweep.get("words") != want:
        fails.append(f"gz verify --n {n} --max-word-length {max_len}: "
                     f"{sweep.get('words')} words, expected {want}")
    if sweep.get("confluent") is not True or sweep.get("clashes"):
        fails.append(f"gz verify --n {n}: not confluent: {sweep.get('clashes')}")
    if results.get("generators") != generator_count(n):
        fails.append(f"gz verify --n {n}: {results.get('generators')} generators")
    return fails


_GEN = re.compile(r"\[(?:-(\d+)|\{([\d,]*)\},(\d+))\]")


def check_lift(steps):
    """Each marking exchange between a plain flag and a marked one lifts
    (True); every other step is outside the check (None)."""
    fails, lifted = [], 0
    for word, rule, removed, added, result in steps:
        marks = [int(g[2]) for g in _GEN.findall(" ".join(removed + added)) if g[2]]
        plain = rule == "marking-exchange" and min(marks) == 0
        if plain:
            lifted += 1
        if result is not (True if plain else None):
            fails.append(f"lift of {rule} step in {word}: {result}")
    if not lifted:
        fails.append("no marking-exchange step was lifted")
    return fails
