"""Shared complex builders and independent oracles for the test suite.

The oracle functions here deliberately avoid the code paths they are used to
check: components by union-find or breadth-first search, missing faces by
subset scan, matrix ranks by field elimination, Smith forms by dense textbook
elimination, Euler characteristics by cell counting.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations

from macx.simplicial import SimplicialComplex, bits, clique_complex
from macx.sweep import graph_classes


# -- standard complexes -----------------------------------------------------


def cycle(p, labels=None):
    """The boundary of a p-gon, on 1..p by default."""
    verts = list(labels) if labels else list(range(1, p + 1))
    facets = [[verts[i], verts[(i + 1) % p]] for i in range(p)]
    return SimplicialComplex.from_facets(facets, verts)


def simplex(q):
    """The full q-simplex on vertices 1..q+1."""
    return SimplicialComplex.from_facets([list(range(1, q + 2))], q + 1)


def square_partial_cone():
    """4-cycle on 1..4 with an apex 5 joined to 1, 2, 3 only (two filled
    triangles); flag, not chordal, not a cycle join."""
    return SimplicialComplex.from_facets([[1, 2, 5], [2, 3, 5], [1, 4], [3, 4]], 5)


def square_cone():
    """Cone over the 4-cycle: apex 5 joined to everything; equals C_4 * point."""
    return SimplicialComplex.from_facets(
        [[1, 2, 5], [2, 3, 5], [3, 4, 5], [1, 4, 5]], 5
    )


def square_broken_cone():
    """Apex over the 4-cycle with one triangle left unfilled: the edges of
    {1,4,5} are all present but the triangle is not, so this is not flag."""
    return SimplicialComplex.from_facets([[1, 2, 5], [2, 3, 5], [3, 4, 5], [1, 4]], 5)


def projective_plane():
    """The 6-vertex triangulation of the real projective plane."""
    facets = [
        [1, 2, 5], [1, 2, 6], [1, 3, 4], [1, 3, 5], [1, 4, 6],
        [2, 3, 4], [2, 3, 6], [2, 4, 5], [3, 5, 6], [4, 5, 6],
    ]
    return SimplicialComplex.from_facets(facets, 6)


def all_flag_complexes(n):
    """Every flag complex on vertices 1..n: the clique complex of each
    labelled graph, in edge-mask order."""
    pairs = list(combinations(range(1, n + 1), 2))
    for mask in range(1 << len(pairs)):
        yield clique_complex(n, [pairs[i] for i in bits(mask)])


def class_flag_complexes(n):
    """One flag complex on vertices 1..n per isomorphism class of graphs,
    the clique complex of the class's canonical edge mask."""
    pairs = list(combinations(range(1, n + 1), 2))
    for mask in sorted(list(graph_classes(n))[-1]):
        yield clique_complex(n, [pairs[i] for i in bits(mask)])


# -- oracles ----------------------------------------------------------------


def union_find_components(vertices, edges):
    """Connected components as frozensets, by union-find."""
    parent = {v: v for v in vertices}

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for u, v in edges:
        parent[find(u)] = find(v)
    comps = {}
    for v in vertices:
        comps.setdefault(find(v), set()).add(v)
    return [frozenset(c) for c in comps.values()]


def components_within(K, J):
    """Components of the 1-skeleton of K_J as position bitmasks, ordered by
    lowest vertex: one breadth-first search over J per component."""
    adj = K.adjacency
    comps = []
    rest = J
    while rest:
        comp = frontier = rest & -rest
        while frontier:
            reach = 0
            for v in bits(frontier):
                reach |= adj[v]
            frontier = reach & J & ~comp
            comp |= frontier
        comps.append(comp)
        rest &= ~comp
    return comps


def component_search_words(K):
    """Generator words as (prefix, j, i) label triples, subsets J ascending
    and then i ascending: one breadth-first component search per subset,
    and a word for each component of K_J without j = max J, with i its
    lowest vertex and prefix J minus {i, j}."""
    words = []
    for J in range(1, K.full_mask + 1):
        jpos = J.bit_length() - 1
        for comp in components_within(K, J):
            if comp >> jpos & 1:
                continue
            ipos = (comp & -comp).bit_length() - 1
            prefix = K.labels_of(J & ~(1 << jpos) & ~(1 << ipos))
            words.append((prefix, K.labels[jpos], K.labels[ipos]))
    return words


def nested_commutator_text(prefix, j, i, kind):
    """A word rendered by nesting one commutator at a time, innermost first."""
    left, right, letter = ("(", ")", "g") if kind == "group" else ("[", "]", "u")
    word = f"{left}{letter}_{j},{letter}_{i}{right}"
    for k in reversed(prefix):
        word = f"{left}{letter}_{k},{word}{right}"
    return word


def validate_word(K, word):
    """Re-check the side conditions of a (prefix, j, i) label triple against
    the complex, without going through the enumeration: first the index
    conditions, j > i, the prefix strictly increasing and below j, and i not
    in it; then the component condition on the word's own support."""
    prefix, j, i = word
    if not (j > i and all(a < b for a, b in zip(prefix, (*prefix[1:], j)))
            and i not in prefix):
        return False
    support = K.mask_of((*prefix, i, j))
    jpos = K.mask_of((j,)).bit_length() - 1
    ipos = K.mask_of((i,)).bit_length() - 1
    for comp in components_within(K, support):
        if comp >> ipos & 1:
            if comp >> jpos & 1:
                return False
            return ipos == (comp & -comp).bit_length() - 1
    return False


def brute_missing_faces(K):
    """All minimal non-faces, by scanning subsets in increasing size."""
    faces = {frozenset(f) for f in K.faces()}
    missing = []
    for size in range(1, K.m + 1):
        for sub in combinations(K.labels, size):
            s = frozenset(sub)
            if s in faces:
                continue
            if all(frozenset(c) in faces for c in combinations(sub, size - 1)):
                missing.append(s)
    return missing


@dataclass(frozen=True)
class IntMatrix:
    """Dense integer matrix, row-major, for the dense Smith-form route."""

    rows: int
    cols: int
    entries: tuple[tuple[int, ...], ...]

    @classmethod
    def from_rows(cls, rows_list):
        rows = len(rows_list)
        cols = len(rows_list[0]) if rows else 0
        if any(len(r) != cols for r in rows_list):
            raise ValueError("ragged rows")
        return cls(rows, cols, tuple(tuple(r) for r in rows_list))


def smith_normal_form(M):
    """Nonzero diagonal (d_1 | d_2 | ...) of the Smith normal form of a dense
    matrix, and its rank, by the textbook algorithm on a dense copy: bring in
    an entry p of least absolute value, clear its row and column by division
    with remainder (starting over whenever a smaller remainder is left), then
    add in any row that p does not divide, and split p off once it divides
    everything left. Later entries stay multiples of p, so the diagonal comes
    out as a divisibility chain."""
    a = [list(row) for row in M.entries]
    diag = []
    while any(any(row) for row in a):
        _, i, j = min((abs(v), i, j) for i, row in enumerate(a) for j, v in enumerate(row) if v)
        p = a[i][j]
        cleared = True
        for k, row in enumerate(a):
            if k != i and row[j]:
                q = row[j] // p
                a[k] = [x - q * y for x, y in zip(row, a[i])]
                cleared = cleared and not a[k][j]
        for col in range(len(a[i])):
            if col != j and a[i][col]:
                q = a[i][col] // p
                for row in a:
                    row[col] -= q * row[j]
                cleared = cleared and not a[i][col]
        if not cleared:
            continue
        bad = next((row for row in a if any(x % p for x in row)), None)
        if bad is not None:
            a[i] = [x + y for x, y in zip(a[i], bad)]
            continue
        diag.append(abs(p))
        del a[i]
        for row in a:
            del row[j]
    return tuple(diag), len(diag)


def boundary_matrix(K, k):
    """The matrix of the k-th boundary map, oriented by ascending vertex
    order with alternating signs. For k = 0 this is the augmentation row
    (all ones), so that the homology computed from it is reduced."""
    if k < 0:
        raise ValueError("dimension must be nonnegative")
    sources = sorted(f for f in K.face_masks if f.bit_count() == k + 1)
    if k == 0:
        return IntMatrix.from_rows([[1] * len(sources)])
    targets = sorted(f for f in K.face_masks if f.bit_count() == k)
    index = {f: i for i, f in enumerate(targets)}
    rows = [[0] * len(sources) for _ in targets]
    for j, f in enumerate(sources):
        for r, b in enumerate(bits(f)):
            rows[index[f & ~(1 << b)]][j] = -1 if r % 2 else 1
    return IntMatrix.from_rows(rows)


def euler_characteristic_real(K):
    """Euler characteristic of the real moment-angle complex by counting its
    cubical cells: a face I contributes 2^(m-|I|) cells of dimension |I|."""
    m = K.m
    return sum((-1) ** len(f) * 2 ** (m - len(f)) for f in K.faces())


def rank_mod_p(rows, p):
    """Rank of an integer matrix over F_p by Gaussian elimination."""
    mat = [[x % p for x in row] for row in rows]
    rank = 0
    cols = len(mat[0]) if mat else 0
    row = 0
    for col in range(cols):
        piv = next((r for r in range(row, len(mat)) if mat[r][col]), None)
        if piv is None:
            continue
        mat[row], mat[piv] = mat[piv], mat[row]
        inv = pow(mat[row][col], -1, p)
        mat[row] = [(x * inv) % p for x in mat[row]]
        for r in range(len(mat)):
            if r != row and mat[r][col]:
                f = mat[r][col]
                mat[r] = [(a - f * b) % p for a, b in zip(mat[r], mat[row])]
        rank += 1
        row += 1
    return rank


def rank_over_q(rows):
    """Rank over the rationals, by exact fraction elimination."""
    mat = [[Fraction(x) for x in row] for row in rows]
    rank = 0
    cols = len(mat[0]) if mat else 0
    row = 0
    for col in range(cols):
        piv = next((r for r in range(row, len(mat)) if mat[r][col]), None)
        if piv is None:
            continue
        mat[row], mat[piv] = mat[piv], mat[row]
        lead = mat[row][col]
        mat[row] = [x / lead for x in mat[row]]
        for r in range(len(mat)):
            if r != row and mat[r][col]:
                f = mat[r][col]
                mat[r] = [a - f * b for a, b in zip(mat[r], mat[row])]
        rank += 1
        row += 1
    return rank


def series_by_recurrence(d, pair_dims, n):
    """Loop-homology ranks of a sphere-product sum by the linear recurrence
    c_n = sum_i (c_(n-d_i+1) + c_(n-d+d_i+1)) - c_(n-d+2), c_0 = 1."""
    coeffs = [0] * (n + 1)
    coeffs[0] = 1

    def at(idx):
        return coeffs[idx] if 0 <= idx <= n else (1 if idx == 0 else 0)

    for deg in range(1, n + 1):
        total = 0
        for di in pair_dims:
            if deg - di + 1 >= 0:
                total += at(deg - di + 1)
            if deg - d + di + 1 >= 0:
                total += at(deg - d + di + 1)
        if deg - d + 2 >= 0:
            total -= at(deg - d + 2)
        coeffs[deg] = total
    return coeffs


def brute_count_words(weights, forbidden, n):
    """Number of weighted words per degree avoiding one ordered letter pair as
    a consecutive factor, by explicit enumeration."""
    counts = [0] * (n + 1)
    counts[0] = 1
    stack = [((), 0)]
    while stack:
        word, deg = stack.pop()
        for letter, w in enumerate(weights):
            if deg + w > n:
                continue
            if word and (word[-1], letter) == forbidden:
                continue
            counts[deg + w] += 1
            stack.append((word + (letter,), deg + w))
    return counts
