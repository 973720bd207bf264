"""Exact integral simplicial homology and the full-subcomplex decompositions.

Homology of a complex is computed from its boundary matrices by Smith normal
form over arbitrary-precision integers, never modulo a prime or in floating
point. One kernel, ``sparse_rank_invariants``, does every elimination on
sparse rows: it removes +-1 pivots, which clears nearly all of a boundary
matrix, and reduces what is left by least-entry division steps in the same
loop. On top of that sits the walk over full subcomplexes:
``bigraded_homology_Z`` fills the bigraded table H_{-i,2j}(Z_K) of the
moment-angle complex from H~_{j-i-1}(K_J) over subsets of size j. It is the
one homology result of K: since H_k(R_K) = sum over J of H~_{k-1}(K_J), the
real moment-angle complex's homology is the sum of the table entries with
j - i = k (``BigradedTable.R``).

The subset walk visits J in increasing order and has one path for every
complex. If some vertex v of K_J is dominated (every facet of K_J that
contains v also contains some other vertex w), deleting v is a strong
collapse, which keeps the homotopy type (Barmak and Minian, "Strong homotopy
types, nerves and collapses", DCG 47, 2012), so H~(K_J) = H~(K_{J-v}) is read
from the walk's own array. Otherwise J is a core and H~(K_J) comes from Smith
form. For a flag complex, K_J is determined by J and the edges of the induced
subgraph, so the homology of its cores is memoized across walks under that
key, built for a core only; sweeps over all graphs on a few vertices share
most of their cores. The memo holds at most ``MEMO_LIMIT`` entries. The walk
returns table entries: the subsets are counted by size and groups, and each
such pair is placed in the table once, its groups times its count.

A join is walked one factor at a time. If K = K_A * K_B (see
``simplicial.join_factors``), then Z_K = Z_{K_A} x Z_{K_B} (Buchstaber and
Panov, "Toric Topology", ch. 4), and the Kuenneth formula gives the table of
K from those of the factors (``_product``). A walk over 2^|A| + 2^|B|
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
# reaches MEMO_LIMIT entries. The sweeps, which walk only the open family,
# store 82 cores at n <= 6, 215 at n <= 7, 658 for ``thm3`` at n <= 8 and
# 2,402 for ``thm3`` at n = 9, so no sweep empties it.
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
    dominated by w in the full subcomplex K_J if J meets no bit of ``single``
    and contains no mask of ``multi``, and only then.

    v is dominated by w in K_J when every face of K_J through v spans a face
    with w. The obstructions are the faces s of K through v with s + w not a
    face, kept without v. If s + w is not a clique, some u in s - v is not a
    neighbour of w: those u make ``single``. Else s + w holds a missing face
    n (``K.missing_faces``) through w, and (n - w) + v, inside s, is a face
    and an obstruction itself: for each such n, n - w - v goes to ``single``
    if it is one vertex, else to ``multi``. A flag complex has no missing
    faces, so there the test is one AND."""
    adj, faces, missing = K.adjacency, K.face_masks, K.missing_faces
    table = []
    for v in range(K.m):
        vb, pairs = 1 << v, []
        for w in bits(adj[v]):
            wb = 1 << w
            single, multi = adj[v] & ~adj[w] & ~wb, ()
            for n in missing:
                if n & wb and n ^ wb | vb in faces:
                    rest = n & ~wb & ~vb
                    if rest & rest - 1:
                        multi += (rest,)
                    else:
                        single |= rest
            pairs.append((wb, single, multi))
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
    """The bigraded table entries of H(Z_K) from one walk over the subsets J
    of the vertex set: H~_deg(K_J) goes to (|J| - deg - 1, 2|J|), and the
    empty subset's H~_{-1} = Z to (0, 0). A dict of the nonzero entries.

    Subsets are visited in increasing order, so J minus any vertex is done
    before J. A dominated vertex v gives H~(K_J) = H~(K_{J-v}); else J is a
    core and its faces go to Smith form, through the memo for a flag complex.
    The walk keeps, per subset, the position of its groups among those met
    so far, and each (|J|, position) is placed once with its count.
    """
    table = _domination_table(K)
    memo = None if K.missing_faces else _MEMO
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
        i = index.get(groups)
        if i is None:
            i = index[groups] = len(distinct)
            distinct.append(groups)
        vals[J] = i
    sizes = map(int.bit_count, range(1, full + 1))
    acc = {(0, 0): [1, []]}
    for (j, i), n in Counter(zip(sizes, islice(vals, 1, None))).items():
        for deg, g in enumerate(distinct[i]):
            if not g.is_zero:
                slot = acc.setdefault((j - deg - 1, 2 * j), [0, []])
                slot[0] += n * g.free_rank
                slot[1] += g.torsion * n
    return {place: HomologyGroup.from_divisors(f, t) for place, (f, t) in acc.items()}


def _core_key(J, adj):
    """The memo key of K_J in a flag complex: its edge code, with the edge
    {s, t} (s < t) of K_J at bit C(t, 2) + s, shifted past J itself."""
    code = 0
    for t in bits(J):
        code |= (adj[t] & J & ((1 << t) - 1)) << (t * (t - 1) >> 1)
    return code << MAX_VERTICES | J


@dataclass
class BigradedTable:
    """Bigraded homology of Z_K: nonzero groups keyed by (i, 2j), the group
    sitting in bidegree (-i, 2j), for a complex of dimension ``dim``. Total
    degree k = 2j - i."""

    entries: dict
    dim: int

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

    def R(self, k):
        """H_k(R_K), the direct sum of the entries with j - i = k: both are
        sums of H~_{k-1}(K_J), over all J and over |J| = j."""
        groups = [g for (i, j2), g in self.entries.items() if j2 // 2 - i == k]
        return HomologyGroup.from_divisors(sum(g.free_rank for g in groups),
                                           [d for g in groups for d in g.torsion])

    def homology_R(self):
        """H_k(R_K) for 0 <= k <= dim K + 1."""
        return [self.R(k) for k in range(self.dim + 2)]


def _product(first, second):
    """The entries of Z_K x Z_L from those of Z_K and Z_L by the Kuenneth
    formula: g (x) h lands at (i1 + i2, 2j1 + 2j2) and Tor(g, h), one total
    degree higher, at (i1 + i2 - 1, 2j1 + 2j2); Z/d (x) Z/e = Tor(Z/d, Z/e)
    = Z/gcd(d, e)."""
    acc = {}
    for (i1, j1), g in first.items():
        for (i2, j2), h in second.items():
            tor = [gcd(d, e) for d in g.torsion for e in h.torsion]
            slot = acc.setdefault((i1 + i2, j1 + j2), [0, []])
            slot[0] += g.free_rank * h.free_rank
            slot[1] += g.torsion * h.free_rank + h.torsion * g.free_rank
            slot[1] += tor
            if tor:
                acc.setdefault((i1 + i2 - 1, j1 + j2), [0, []])[1].extend(tor)
    out = {place: HomologyGroup.from_divisors(f, t) for place, (f, t) in acc.items()}
    return {place: g for place, g in out.items() if not g.is_zero}


def bigraded_homology_Z(K):
    """The table H_{-i,2j}(Z_K) = direct sum over |J| = j of H~_{j-i-1}(K_J),
    from one walk per join factor of two or more vertices: Z_{K_A * K_B} =
    Z_{K_A} x Z_{K_B}, and a cone point's Z_K is a disc, so a simplex gets
    the unit table {(0, 0): Z}."""
    tables = [_per_subset_groups(K.induced(mask))
              for mask in join_factors(K) if mask & mask - 1]
    return BigradedTable(reduce(_product, tables) if tables else {(0, 0): Z_GROUP}, K.dim)


def homology_R(K):
    """H_k(R_K) for 0 <= k <= dim K + 1 via the subset decomposition
    H_k = direct sum over J of H~_{k-1}(K_J)."""
    return bigraded_homology_Z(K).homology_R()


def betti_Z(K):
    """Betti numbers of Z_K, from the bigraded table via k = 2j - i."""
    return bigraded_homology_Z(K).betti()
