"""Exact integral simplicial homology and the full-subcomplex decompositions.

Homology of a complex is computed from its boundary matrices by Smith normal
form over arbitrary-precision integers, never modulo a prime or in floating
point. One kernel, ``sparse_rank_invariants``, does every elimination on
sparse rows: it removes +-1 pivots, which clears nearly all of a boundary
matrix, and reduces what is left by least-entry division steps in the same
loop. On top of that sit the two sweeps over full subcomplexes:
``homology_R`` assembles H_*(R_K) for the real moment-angle complex from
H~_{k-1}(K_J) over all vertex subsets J, and ``bigraded_homology_Z`` fills the
bigraded table H_{-i,2j}(Z_K) of the moment-angle complex from H~_{j-i-1}(K_J)
over subsets of size j. ``homology_R_and_Z`` returns both from a single walk
over the subsets; callers that need both use it.

The subset walk visits J in increasing order and has one path for every
complex. If some vertex v of K_J is dominated (every facet of K_J that
contains v also contains some other vertex w), deleting v is a strong
collapse, which keeps the homotopy type (Barmak and Minian, "Strong homotopy
types, nerves and collapses", DCG 47, 2012), so H~(K_J) = H~(K_{J-v}) is read
from the walk's own array. Otherwise J is a core and H~(K_J) comes from Smith
form. For a flag complex, K_J is determined by J and the edges of the induced
subgraph, so the homology of its cores is memoized across walks under that
key, built for a core only; sweeps over all graphs on a few vertices share
most of their cores. The memo holds at most ``MEMO_LIMIT`` entries.

A join is walked one factor at a time. If K = K_A * K_B (see
``simplicial.join_factors``), then K_J = K_{J&A} * K_{J&B}, and Milnor's
formula H~_{n+1}(X * Y) = sum over i + j = n of H~_i(X) (x) H~_j(Y), plus the
sum over i + j = n - 1 of Tor(H~_i(X), H~_j(Y)), gives the tally of K from
those of the factors: the subset form of Z_{K_A * K_B} = Z_{K_A} x Z_{K_B}
(Buchstaber and Panov, "Toric Topology", ch. 4). A walk over 2^|A| + 2^|B|
subsets replaces one over 2^(|A| + |B|).
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from functools import reduce
from itertools import islice
from math import gcd

from .simplicial import MAX_VERTICES, bits, components, join_factors


def _factorize(n):
    """Prime factorization by trial division (torsion coefficients are small)."""
    out = {}
    p = 2
    while p * p <= n:
        while n % p == 0:
            out[p] = out.get(p, 0) + 1
            n //= p
        p += 1
    if n > 1:
        out[n] = out.get(n, 0) + 1
    return out


@dataclass(frozen=True)
class HomologyGroup:
    """A finitely generated abelian group: free rank plus invariant factors.

    Torsion coefficients are kept in Smith normal form, d_1 | d_2 | ... with
    every d >= 2, so structural equality is isomorphism.
    """

    free_rank: int = 0
    torsion: tuple[int, ...] = ()

    def __post_init__(self):
        if self.free_rank < 0:
            raise ValueError("negative free rank")
        prev = 1
        for d in self.torsion:
            if d < 2 or d % prev:
                raise ValueError(f"torsion {self.torsion} not a divisibility chain")
            prev = d

    @classmethod
    def from_divisors(cls, free_rank, divisors):
        """Normalize an arbitrary bag of cyclic orders into invariant factors."""
        exps = {}
        for d in divisors:
            if d < 0:
                d = -d
            if d == 0:
                free_rank += 1
                continue
            for p, e in _factorize(d).items():
                exps.setdefault(p, []).append(e)
        if not exps:
            return cls(free_rank)
        depth = max(len(v) for v in exps.values())
        chain = [1] * depth
        for p, es in exps.items():
            es = sorted(es)
            for k, e in enumerate(es):
                chain[depth - len(es) + k] *= p ** e
        return cls(free_rank, tuple(d for d in chain if d > 1))

    @property
    def is_zero(self):
        return self.free_rank == 0 and not self.torsion

    def __str__(self):
        parts = []
        if self.free_rank == 1:
            parts.append("Z")
        elif self.free_rank > 1:
            parts.append(f"Z^{self.free_rank}")
        parts.extend(f"Z/{d}" for d in self.torsion)
        return " + ".join(parts) if parts else "0"


ZERO_GROUP = HomologyGroup()
Z_GROUP = HomologyGroup(1)


def sparse_rank_invariants(columns):
    """Rank and torsion of a matrix given as sparse columns: the number of
    nonzero entries of its Smith normal form, and those > 1 as a divisibility
    chain (the others are 1).

    Each column is a dict {row key: coefficient}; zero coefficients are
    ignored. Row keys are hashable and mutually comparable, such as the cells
    the rows stand for, since both kinds of pass break ties by row key.

    Every step is unimodular and works on sparse rows ``{row: {col: coeff}}``.
    A unit pass picks a +-1 entry in a short column, taking the shortest row
    that holds a unit there (of equals, the greatest key; set order varies
    with the hash seed), subtracts multiples of the pivot row from the other
    rows of that column and drops the pivot row and column: column operations
    by a unit would clear the rest of the pivot row and touch no other row, so
    this splits off a diagonal 1. Boundary and dg-algebra matrices have nearly
    all pivots +-1, so unit passes usually empty them.

    A pass that finds no unit takes an entry a of least |a| and reduces its
    column by floor division; once a is alone there, the rest of its row is
    reduced mod a, which changes that row only. If nothing is left beside a,
    it is split off; else the least entry has fallen below |a| and the unit
    passes resume. ``HomologyGroup.from_divisors`` makes the split-off
    entries a divisibility chain.
    """
    rows = {}
    col_rows = {}
    for j, col in enumerate(columns):
        held = set()
        for r, a in col.items():
            if a:
                held.add(r)
                row = rows.get(r)
                if row is None:
                    rows[r] = {j: a}
                else:
                    row[j] = a
        if held:
            col_rows[j] = held
    ones = 0
    divisors = []
    progress = True
    while progress:
        progress = False
        for j in sorted(col_rows, key=lambda c: len(col_rows[c])):
            held = col_rows.get(j)
            if held is None:
                continue
            pivot = None
            best = None
            for r in held:
                row = rows[r]
                if row[j] in (1, -1) and (best is None or (best, r) > (len(row), pivot)):
                    pivot, best = r, len(row)
            if pivot is None:
                continue
            del col_rows[j]
            prow = rows.pop(pivot)
            unit = prow.pop(j)
            for c in prow:
                col_rows[c].discard(pivot)
            for i in held:
                if i == pivot:
                    continue
                row = rows[i]
                f = row.pop(j) * unit
                for c, v in prow.items():
                    w = row.get(c, 0) - f * v
                    if w:
                        if c not in row:
                            col_rows[c].add(i)
                        row[c] = w
                    else:
                        del row[c]
                        col_rows[c].discard(i)
                if not row:
                    del rows[i]
            for c in prow:
                if not col_rows[c]:
                    del col_rows[c]
            ones += 1
            progress = True
        if progress or not col_rows:
            continue
        progress = True
        _, pivot, j, a = min((abs(v), r, c, v) for r, row in rows.items() for c, v in row.items())
        prow = rows[pivot]
        # The unit pass's row subtraction, repeated: a helper call per row slows that pass.
        for i in col_rows[j] - {pivot}:
            row = rows[i]
            f = row[j] // a
            for c, v in prow.items():
                w = row.get(c, 0) - f * v
                if w:
                    if c not in row:
                        col_rows[c].add(i)
                    row[c] = w
                else:
                    del row[c]
                    col_rows[c].discard(i)
            if not row:
                del rows[i]
        if len(col_rows[j]) > 1:
            continue
        del prow[j]
        for c, v in list(prow.items()):
            if v % a:
                prow[c] = v % a
            else:
                del prow[c]
                col_rows[c].discard(pivot)
                if not col_rows[c]:
                    del col_rows[c]
        if prow:
            prow[j] = a
        else:
            del rows[pivot], col_rows[j]
            divisors.append(a)
    if not divisors:
        return ones, ()
    return ones + len(divisors), HomologyGroup.from_divisors(0, divisors).torsion


# -- reduced homology -------------------------------------------------------


# Core homologies of flag complexes shared across subset walks, keyed by the
# vertex set and its induced edges (see ``_core_key``). It is emptied when it
# reaches MEMO_LIMIT entries. The sweeps store 121 cores at n <= 6, 771 at
# n <= 7 and 11,442 for ``thm3`` at n <= 8; a ``thm3`` sweep to n = 9 fills
# and empties it three times.
MEMO_LIMIT = 1 << 17
_MEMO = {}


def clear_cache():
    """Drop the memoized core homologies (mainly for benchmarks)."""
    _MEMO.clear()


def _reduced_groups_impl(faces, adj):
    """Reduced integral homology of the complex whose faces are the given
    bitmask tuple, in ascending order (which must include 0 and determine
    the vertex set through its singletons), a full subcomplex of one with
    neighbour masks ``adj``. Returns groups for degrees 0..dim; the empty
    complex returns (), its H~_{-1} = Z being the callers' business."""
    levels = {}
    for f in faces:
        levels.setdefault(f.bit_count() - 1, []).append(f)
    dim = max(levels)
    if dim < 0:
        return ()
    n0 = len(levels[0])
    if dim == 0:
        return (HomologyGroup(n0 - 1),)
    # Component count gives rank of the vertex-edge boundary map directly
    # (its Smith form never has invariant factors > 1).
    comps = sum(1 for _ in components(adj, sum(levels[0])))
    n1 = len(levels[1])
    if dim == 1:
        return (HomologyGroup(comps - 1), HomologyGroup(n1 - n0 + comps))
    counts = {k: len(v) for k, v in levels.items()}
    ranks = {0: 1, 1: n0 - comps}
    torsions = {}
    for k in range(2, dim + 1):  # rows keyed by the faces of dimension k - 1
        cols = [{f & ~(1 << b): -1 if r % 2 else 1 for r, b in enumerate(bits(f))}
                for f in levels[k]]
        ranks[k], torsions[k] = sparse_rank_invariants(cols)
    return tuple(HomologyGroup(counts[k] - ranks[k] - ranks.get(k + 1, 0), torsions.get(k + 1, ()))
                 for k in range(dim + 1))


def reduced_homology(K):
    """H~_n(K; Z) for 0 <= n <= dim K, as a list of HomologyGroup.

    The complex on zero vertices yields the empty list; its single nonzero
    reduced group H~_{-1} = Z is handled explicitly by the subset sweeps.
    This is the entry point for one whole complex, which the subset walks
    never take, and so the tests' independent route to their sums.
    """
    return list(_reduced_groups_impl(K.sorted_face_masks, K.adjacency))


# -- full-subcomplex decompositions ----------------------------------------


def _domination_table(K):
    """For each vertex v of K, one triple (1 << w, single, multi) per edge
    {v, w} of K, such that for every vertex set J holding v and w, v is
    dominated by w in the full subcomplex K_J exactly when J meets no bit of
    ``single`` and contains no mask of ``multi``.

    v is dominated by w in K_J when every face of K_J through v spans a face
    with w. The obstructions are the faces s of K through v with s + w not a
    face; they are closed upwards, so the minimal ones decide. They are kept
    without v. ``single`` is the mask of the one-vertex ones: the neighbours
    u of v for which {u, v, w} is not a face. ``multi`` lists the others,
    s - v for a face s of three or more vertices, every vertex of which is a
    neighbour of w, with s + w not a face but s - u + w a face for each u in
    s - v. In a flag complex s + w is then a clique, hence a face, so
    ``multi`` is empty, ``single`` is read off the graph, and the test is one
    AND."""
    adj = K.adjacency
    if K.flag_check:
        return [tuple((1 << w, adj[v] & ~adj[w] & ~(1 << w), ()) for w in bits(adj[v]))
                for v in range(K.m)]
    faces = K.face_masks
    common = {}  # edge -> mask of the vertices spanning a triangle with it
    multi = {}  # (v, w) -> the obstructions of more than one vertex
    for s in faces:
        size = s.bit_count()
        if size < 3:
            continue
        if size == 3:
            for u in bits(s):
                edge = s ^ 1 << u
                common[edge] = common.get(edge, 0) | 1 << u
        around = -1
        for u in bits(s):
            around &= adj[u]
        for w in bits(around & ~s):
            wb = 1 << w
            if s | wb in faces:
                continue
            for v in bits(s):
                r = s ^ 1 << v
                if all((s ^ 1 << u) | wb in faces for u in bits(r)):
                    multi.setdefault((v, w), []).append(r)
    table = []
    for v in range(K.m):
        pairs = []
        for w in bits(adj[v]):
            wb = 1 << w
            single = adj[v] & ~wb & ~common.get(1 << v | wb, 0)
            pairs.append((wb, single, tuple(multi.get((v, w), ()))))
        table.append(tuple(pairs))
    return table


def _dominated_bit(J, table):
    """The bit of the lowest vertex of J dominated in K_J, or 0 if none is."""
    rest = J
    while rest:
        low = rest & -rest
        for wb, single, multi in table[low.bit_length() - 1]:
            if J & wb and not J & single and (
                not multi or all(s & J != s for s in multi)
            ):
                return low
        rest ^= low
    return 0


def _per_subset_groups(K):
    """Reduced homology of the full subcomplexes, tallied: a dict mapping
    (|J|, groups) to the number of nonempty subsets J whose K_J has those
    reduced groups, for the groups with a nonzero entry. The empty subset is
    omitted (its contribution is the fixed H~_{-1} = Z). Trailing zero groups
    may be missing from a tuple.

    Subsets are visited in increasing order, so J minus any vertex is done
    before J. A dominated vertex v gives H~(K_J) = H~(K_{J-v}); else J is a
    core and its faces go to Smith form, through the memo for a flag complex.
    """
    table = _domination_table(K)
    memo = _MEMO if K.flag_check else None
    faces = K.sorted_face_masks
    adj = K.adjacency
    full = K.full_mask
    distinct = []  # the group tuples met in this walk
    index = {}
    vals = [0] * (full + 1)  # per subset, its position in distinct
    for J in range(1, full + 1):
        v = _dominated_bit(J, table)
        if v:
            vals[J] = vals[J ^ v]
            continue
        groups = memo.get(key := _core_key(J, adj)) if memo is not None else None
        if groups is None:
            groups = _reduced_groups_impl(tuple(f for f in faces if not f & ~J), adj)
            if memo is not None:
                if len(memo) >= MEMO_LIMIT:
                    memo.clear()
                memo[key] = groups
        vals[J] = _position(groups, distinct, index)
    sizes = map(int.bit_count, range(1, full + 1))
    counts = Counter(zip(sizes, islice(vals, 1, None)))
    return {
        (size, distinct[i]): n
        for (size, i), n in counts.items()
        if any(not g.is_zero for g in distinct[i])
    }


def _core_key(J, adj):
    """The memo key of K_J in a flag complex: its edge code, with the edge
    {s, t} (s < t) of K_J at bit C(t, 2) + s, shifted past J itself."""
    code = 0
    for t in bits(J):
        code |= (adj[t] & J & ((1 << t) - 1)) << (t * (t - 1) >> 1)
    return code << MAX_VERTICES | J


def _subset_tally(K):
    """The tally of ``_per_subset_groups`` for K, from one walk per join factor
    of two or more vertices: a cone point's tally is empty, and joining with
    an empty tally changes nothing, so a simplex gets {}."""
    factors = [mask for mask in join_factors(K) if mask & mask - 1]
    if factors == [K.full_mask]:
        return _per_subset_groups(K)
    return reduce(_join_tallies, [_per_subset_groups(K.induced(mask)) for mask in factors], {})


def _join_tallies(first, second):
    """The tally of K_A * K_B from those of K_A and K_B. A K_J1 * K_J2 with
    both parts nonempty has reduced homology only if both parts do."""
    out = Counter(first)
    out.update(second)
    for (s1, g1), n1 in first.items():
        for (s2, g2), n2 in second.items():
            groups = _join_groups(g1, g2)
            if groups:
                out[s1 + s2, groups] += n1 * n2
    return out


def _join_groups(xs, ys):
    """H~(X * Y) from H~(X) and H~(Y) of nonempty X and Y by Milnor's formula,
    trailing zeros dropped: Z/d (x) Z/e = Tor(Z/d, Z/e) = Z/gcd(d, e)."""
    free = [0] * (len(xs) + len(ys) + 1)
    torsion = [[] for _ in free]
    for i, g in enumerate(xs):
        for j, h in enumerate(ys):
            free[i + j + 1] += g.free_rank * h.free_rank
            torsion[i + j + 1] += g.torsion * h.free_rank + h.torsion * g.free_rank
            both = [gcd(d, e) for d in g.torsion for e in h.torsion]
            torsion[i + j + 1] += both
            torsion[i + j + 2] += both
    groups = [HomologyGroup.from_divisors(f, t) for f, t in zip(free, torsion)]
    while groups and groups[-1].is_zero:
        groups.pop()
    return tuple(groups)


def _position(groups, distinct, index):
    i = index.get(groups)
    if i is None:
        i = index[groups] = len(distinct)
        distinct.append(groups)
    return i


def _sum_groups(tally, key):
    """The tallied reduced groups summed into one group per place: the group
    H~_deg(K_J) of each tally entry goes to ``key(|J|, deg)``."""
    acc = {}
    for (size, groups), n in tally.items():
        for deg, g in enumerate(groups):
            if not g.is_zero:
                slot = acc.setdefault(key(size, deg), [0, []])
                slot[0] += n * g.free_rank
                slot[1] += g.torsion * n
    return {place: HomologyGroup.from_divisors(f, t) for place, (f, t) in acc.items()}


def _assemble_R(K, tally):
    sums = _sum_groups(tally, lambda size, deg: deg + 1)
    sums[0] = Z_GROUP  # empty subset: H~_{-1} = Z lands in degree 0
    return [sums.get(k, ZERO_GROUP) for k in range(K.dim + 2)]


def homology_R(K):
    """H_k(R_K) for 0 <= k <= dim K + 1 via the subset decomposition
    H_k = direct sum over J of H~_{k-1}(K_J)."""
    return _assemble_R(K, _subset_tally(K))


@dataclass
class BigradedTable:
    """Bigraded homology of Z_K: nonzero groups keyed by (i, 2j), the group
    sitting in bidegree (-i, 2j). Total degree k = 2j - i."""

    entries: dict

    def entry(self, i, j2):
        return self.entries.get((i, j2), ZERO_GROUP)

    def items_sorted(self):
        return sorted(self.entries.items())

    def betti(self):
        """Total-degree Betti numbers reassembled along k = 2j - i."""
        top = max((j2 - i for i, j2 in self.entries), default=0)
        out = [0] * (top + 1)
        for (i, j2), g in self.entries.items():
            out[j2 - i] += g.free_rank
        return out


def _assemble_Z(K, tally):
    entries = _sum_groups(tally, lambda j, deg: (j - deg - 1, 2 * j))
    entries[(0, 0)] = Z_GROUP  # empty subset
    return BigradedTable(entries)


def bigraded_homology_Z(K):
    """The table H_{-i,2j}(Z_K) = direct sum over |J| = j of H~_{j-i-1}(K_J)."""
    return _assemble_Z(K, _subset_tally(K))


def homology_R_and_Z(K):
    """H_*(R_K) and the bigraded table of H(Z_K), from one walk over the full
    subcomplexes of each join factor."""
    tally = _subset_tally(K)
    return _assemble_R(K, tally), _assemble_Z(K, tally)


def betti_Z(K):
    """Betti numbers of Z_K, from the bigraded table via k = 2j - i."""
    return bigraded_homology_Z(K).betti()


def homology_at(groups, k):
    """Group in degree k of a homology list, zero beyond its length."""
    return groups[k] if 0 <= k < len(groups) else ZERO_GROUP
