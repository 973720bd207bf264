"""The benchmark's workloads: for each, the macx command lines of one round
and the complex files they read, made from a seed.

The sweeps take no input, so their round is the same for every seed. The
``series`` round runs ``analyze`` on a list of complexes and ``poincare
--dga`` on a list of sphere-product sums, in an order shuffled by the seed.
The seed also draws the random flag complexes and relabels every complex by
a permutation; the sums do not change with the seed (the order of the sphere
factors changes the dg-algebra matrices and hence the cost).
"""

from __future__ import annotations

import random
from itertools import combinations

SWEEP_HOMOLOGY = ["verify-theorems", "--max-vertices", "6",
                  "--checks", "thm3", "thm5", "vanishing", "--json"]
SWEEP_FLAG = ["verify-theorems", "--max-vertices", "6",
              "--checks", "flagmng", "chordal_free", "--json"]

# Random flag complexes of the series: (vertices, edge density). Three
# densities, with vertex counts small enough that a round of the series fits
# twice in a 60-s run.
RANDOM_FLAG = ((13, 0.3), (12, 0.5), (13, 0.7))

# Sphere-product sums of the series, each with its dg truncation. The cycle
# is given by length; the others as 'd:d1,d2,...'. The dg truncation sets
# the size of the largest matrices. On 2 cores with Python 3.11.7,
# '--pairs 6:2,4' at 10 takes about 6 s, in a few large SNFs; '--cycle 5' at
# 10 takes 0.2 s (at 11 it takes 9 s, which would leave room for only one
# round of the series in a 60-s run).
DGA_SERIES = (
    ("cycle5", ["--cycle", "5"], 10),
    ("pairs6_24", ["--pairs", "6:2,4"], 10),
    ("pairs7_3334", ["--pairs", "7:3,3,3,4"], 11),
)

# The six-vertex real projective plane: ten triangles, every edge in two.
RP2_6 = ((1, 2, 3), (1, 3, 4), (1, 4, 5), (1, 5, 6), (1, 2, 6),
         (2, 3, 5), (2, 4, 5), (2, 4, 6), (3, 4, 6), (3, 5, 6))


class Op:
    """One macx call: its argv, with the complex (if any) it reads and the
    kind of that complex, which decides the checks its report gets."""

    def __init__(self, name, argv, complex_=None, kind=None):
        self.name = name
        self.argv = argv
        self.complex = complex_  # (m, facets) with 1-based labels, or None
        self.kind = kind

    def file_text(self):
        m, facets = self.complex
        lines = [f"vertices {m}"]
        lines += ["facet " + " ".join(map(str, f)) for f in facets]
        return "\n".join(lines) + "\n"


def cycle(p):
    return p, [(i, i % p + 1) for i in range(1, p + 1)]


def cone(m, facets):
    apex = m + 1
    return apex, [tuple(f) + (apex,) for f in facets]


def join(first, second):
    m1, f1 = first
    m2, f2 = second
    return m1 + m2, [tuple(a) + tuple(v + m1 for v in b) for a in f1 for b in f2]


def cross_polytope(pairs):
    """Boundary of the cross-polytope: one vertex from each antipodal pair."""
    facets = [()]
    for k in range(pairs):
        facets = [f + (v,) for f in facets for v in (2 * k + 1, 2 * k + 2)]
    return 2 * pairs, facets


def random_flag(rng, m, density):
    """Clique complex of a random graph on m vertices with exactly
    round(density * C(m, 2)) edges; its facets are the maximal cliques.

    Of five draws the one with the median face count is kept: the face count
    drives the cost of ``analyze``, and this keeps the work of a round close
    from seed to seed."""
    draws = sorted((_random_clique_complex(rng, m, density) for _ in range(5)),
                   key=lambda cx: len(faces(cx[1])))
    return draws[2]


def _random_clique_complex(rng, m, density):
    edges = rng.sample(list(combinations(range(1, m + 1), 2)),
                       round(density * m * (m - 1) / 2))
    adj = {v: 0 for v in range(1, m + 1)}
    for u, v in edges:
        adj[u] |= 1 << v
        adj[v] |= 1 << u
    return m, maximal_cliques(adj)


def faces(facets):
    """All faces spanned by the facets, the empty face included."""
    return {sub for f in facets for k in range(len(f) + 1)
            for sub in combinations(sorted(f), k)}


def maximal_cliques(adj):
    """Bron-Kerbosch with pivoting over neighbour bitmasks."""
    out = []

    def expand(clique, cand, excl):
        if not cand and not excl:
            out.append(tuple(sorted(clique)))
            return
        pivot = max(_bits(cand | excl), key=lambda u: (adj[u] & cand).bit_count())
        for v in _bits(cand & ~adj[pivot]):
            expand(clique + [v], cand & adj[v], excl & adj[v])
            cand &= ~(1 << v)
            excl |= 1 << v

    expand([], sum(1 << v for v in adj), 0)
    return sorted(out)


def _bits(mask):
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def relabel(rng, cx):
    m, facets = cx
    perm = list(range(1, m + 1))
    rng.shuffle(perm)
    return m, sorted(tuple(sorted(perm[v - 1] for v in f)) for f in facets)


def analyze_complexes(seed):
    """(name, kind, (m, facets)) for each complex of the series."""
    rng = random.Random(seed)
    series = [
        ("c12", "cycle", cycle(12)),
        ("c14", "cycle", cycle(14)),
        ("cone_c13", "cone", cone(*cycle(13))),
        *((f"flag{m}_{round(100 * p)}", "random", random_flag(rng, m, p))
          for m, p in RANDOM_FLAG),
        ("octahedral12", "cross_polytope", cross_polytope(6)),
        ("rp2_join_c6", "rp2_join", join((6, RP2_6), cycle(6))),
    ]
    return [(name, kind, relabel(rng, cx)) for name, kind, cx in series]


def round_ops(workload, seed):
    """The operations of one round of the workload, in the order they run."""
    if workload == "sweep6":
        return [Op("sweep6_homology", SWEEP_HOMOLOGY), Op("sweep6_flag", SWEEP_FLAG)]
    if workload == "series":
        ops = [Op(name, ["analyze", f"{name}.cx", "--json"], cx, kind)
               for name, kind, cx in analyze_complexes(seed)]
        ops += [Op(name, ["poincare", *spec, "--oracle", "--dga",
                          "--dga-truncate", str(n), "--json"])
                for name, spec, n in DGA_SERIES]
        random.Random(seed).shuffle(ops)
        return ops
    raise ValueError(f"unknown workload {workload!r}")


WORKLOADS = ("sweep6", "series")
