"""Seeded generator for the bundle-analyze batch (stdlib only).

Writes one bundle JSON file per bundle and returns, beside each path, what
the generator knows about the bundle, so the oracles can check the
program's reports against it.  The shapes are fixed: ray and column counts,
sparse or dense diagram, rows of M, and the large tier.  The seed chooses
the entries, the positions and the column orders.  Only the files reach the program.
"""

import json
import os
import random
from fractions import Fraction

import oracles

# (rays, sparse bundles, dense bundles) for the small and mid tiers
SMALL_MID_MIX = [
    (3, 32, 8),
    (4, 32, 8),
    (5, 28, 7),
    (6, 24, 6),
    (7, 16, 4),
    (8, 8, 2),
    (9, 8, 2),
]

# the large tier: (kind, rays, rows of M); the seed permutes and fills them
LARGE_TIER = [
    ("tangent", 12, 1),
    ("tangent", 13, 1),
    ("uniform_sparse", 12, 3),
    ("sparse", 11, 2),
    ("sparse", 12, 2),
]


def random_m(rng, d, s):
    """A d x s rational matrix of full row rank with small entries."""
    while True:
        rows = [
            [Fraction(rng.randint(-3, 3), rng.choice((1, 1, 2, 3))) for _ in range(s)]
            for _ in range(d)
        ]
        if oracles.rank(rows) == d:
            return rows


def vandermonde_m(rng, d, s):
    """d x s Vandermonde matrix on distinct positive nodes: every maximal
    minor is nonzero, so the matroid is uniform."""
    nodes = rng.sample(range(1, 4 * s), s)
    return [[Fraction(node**k) for node in nodes] for k in range(d)]


def sparse_diagram(rng, n, s, zero_rows):
    """n x s diagram with one positive entry per nonzero row, in distinct
    columns; `zero_rows` rows stay zero."""
    cols = rng.sample(range(s), n - zero_rows)
    rows = [[0] * s for _ in range(n)]
    nonzero = rng.sample(range(n), n - zero_rows)
    for i, col in zip(nonzero, cols):
        rows[i][col] = rng.randint(1, 3)
    return rows


def dense_diagram(rng, n, s):
    return [[rng.randint(0, 4) for _ in range(s)] for _ in range(n)]


def small_mid_bundle(rng, n, k, sparse):
    """Bundle number k of those with n rays.  Its shape (columns, rows of
    M, kind of M, zero rows) follows from k alone, so every seed gives the
    same mix of shapes; the seed picks the entries."""
    if sparse:
        s = max(n + k % 2, 3)
        d = min(1 + k % 3, 3, s - 1)
        m = vandermonde_m(rng, d, s) if k % 4 < 2 else random_m(rng, d, s)
        return m, sparse_diagram(rng, n, s, int(k % 4 == 3)), {"kind": "sparse"}
    s = 3 + k % 4
    d = 1 + k % 2
    return random_m(rng, d, s), dense_diagram(rng, n, s), {"kind": "dense"}


def large_bundle(rng, kind, n, d):
    s = n
    if kind == "tangent":
        # tangent bundle of P^(n-1): the all-ones row and a permuted identity
        m = [[Fraction(1)] * s]
        perm = rng.sample(range(s), s)
        diagram = [[int(perm[i] == j) for j in range(s)] for i in range(n)]
        return m, diagram, {"kind": kind, "closed_form": n - 2}
    if kind == "uniform_sparse":
        r = s - d
        closed = -((s - 1) // -(s - r)) - 1
        return (
            vandermonde_m(rng, d, s),
            sparse_diagram(rng, n, s, 0),
            {"kind": kind, "closed_form": closed},
        )
    return random_m(rng, d, s), sparse_diagram(rng, n, s, 0), {"kind": kind}


def bundle_json(m, diagram, label):
    return json.dumps(
        {
            "n": len(diagram),
            "s": len(m[0]),
            "M": [[str(x) for x in row] for row in m],
            "D": diagram,
            "label": label,
        },
        indent=2,
    ) + "\n"


def generate(seed, directory):
    """Write the batch under `directory`; returns a list of dicts with
    path, tier, kind, M, D and (large tier) the closed-form stability."""
    rng = random.Random(seed)
    os.makedirs(directory, exist_ok=True)
    batch = []
    for n, n_sparse, n_dense in SMALL_MID_MIX:
        tier = "small" if n <= 6 else "mid"
        for k in range(n_sparse + n_dense):
            batch.append((tier,) + small_mid_bundle(rng, n, k, k < n_sparse))
    for kind, n, d in LARGE_TIER:
        batch.append(("large",) + large_bundle(rng, kind, n, d))
    out = []
    for idx, (tier, m, diagram, info) in enumerate(batch):
        path = os.path.join(directory, f"bundle{idx:03d}.json")
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(bundle_json(m, diagram, f"{tier}-{info['kind']}-{idx}"))
        out.append(dict(info, path=path, tier=tier, M=m, D=diagram))
    return out
