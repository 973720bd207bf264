"""Finite simplicial complexes on small labelled vertex sets.

Complexes live on at most ``MAX_VERTICES`` vertices so that faces and vertex
subsets fit in machine-word bitmasks; the homology routines elsewhere in the
package walk all 2^m subsets of the vertex set, which is what motivates the
bound. Vertex labels are small nonnegative integers (1-based in the text file
format); internally a label is mapped to a bit position in the complex's
sorted label tuple. Everything here is immutable and all operations are pure,
so complexes can be shared freely across threads or processes.

A flag complex is fixed by its 1-skeleton, which a complex keeps as
``SimplicialComplex.adjacency``. There is no separate graph type: the graph
predicates (chordality, induced cycles) take a complex and read its
adjacency, and ``clique_complex`` builds the flag complex of a graph given
by its vertices and edges.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

MAX_VERTICES = 24

# Reason codes for a failed star-condition classification.
REASON_NOT_FLAG = "not_flag"
REASON_REMAINDER_NOT_CYCLE = "remainder_not_cycle"
REASON_CYCLE_TOO_SHORT = "cycle_too_short"
REASON_CONE_NOT_UNIVERSAL = "cone_not_universal"


def bits(mask):
    """Yield the set bit positions of mask, ascending."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def _submasks(mask):
    """Yield every submask of mask, including 0 and mask itself."""
    sub = mask
    while True:
        yield sub
        if sub == 0:
            return
        sub = (sub - 1) & mask


def _normalize_labels(vertices):
    """Turn a vertex spec (count m meaning {1..m}, or an iterable of labels)
    into a sorted tuple of distinct nonnegative integer labels."""
    if isinstance(vertices, int):
        if not 0 <= vertices <= MAX_VERTICES:
            raise ValueError(
                f"vertex count must be between 0 and {MAX_VERTICES}, got {vertices}"
            )
        return tuple(range(1, vertices + 1))
    labels = sorted(vertices)
    if len(labels) != len(set(labels)):
        raise ValueError(f"duplicate vertex labels in {labels}")
    if len(labels) > MAX_VERTICES:
        raise ValueError(f"at most {MAX_VERTICES} vertices supported, got {len(labels)}")
    for v in labels:
        if not isinstance(v, int) or v < 0:
            raise ValueError(f"vertex labels must be nonnegative integers, got {v!r}")
    return tuple(labels)


@dataclass(frozen=True)
class CheckResult:
    """Boolean verdict with an optional witness (a sorted vertex tuple).

    Truthiness follows the verdict, so ``if is_flag(K): ...`` reads naturally.
    """

    ok: bool
    witness: tuple[int, ...] | None = None

    def __bool__(self):
        return self.ok


class _ChordlessCycle(CheckResult):
    """A failed chordality check; its witness, a chordless cycle, is found on
    first read, so a caller that keeps only the verdict never pays for it."""

    def __init__(self, K):
        object.__setattr__(self, "ok", False)
        object.__setattr__(self, "_complex", K)

    @cached_property
    def witness(self):
        return _find_hole(self._complex)


@dataclass(frozen=True)
class StarClassification:
    """Outcome of testing whether a complex is a cycle joined with a simplex.

    On a match, ``p`` is the cycle length (>= 4) and ``cone_vertices`` are the
    labels of the simplex factor (empty when the complex is a bare cycle).
    On a non-match, ``reason`` carries one of the REASON_* codes.
    """

    matches: bool
    p: int | None = None
    cone_vertices: tuple[int, ...] = ()
    reason: str | None = None

    @classmethod
    def match(cls, p, cone_vertices):
        return cls(True, p, tuple(sorted(cone_vertices)))

    @classmethod
    def no_match(cls, reason):
        return cls(False, reason=reason)

    def __bool__(self):
        return self.matches


@dataclass(frozen=True)
class SimplicialComplex:
    """A finite simplicial complex: contains the empty face, all singletons
    of its vertex set, and is closed under taking subsets.

    ``face_masks`` holds every face as a bitmask over positions in ``labels``;
    ``facet_masks`` lists the inclusion-maximal faces, found on first use.
    """

    labels: tuple[int, ...]
    face_masks: frozenset[int]

    # -- construction ------------------------------------------------------

    @classmethod
    def from_facets(cls, facets, vertices):
        """Downward closure of the given facets on a declared vertex set.

        ``vertices`` is either a count m (labels 1..m) or an iterable of
        labels. Singletons of every declared vertex are always included, and
        the facet list is recomputed as the maximal faces of the closure.
        """
        labels = _normalize_labels(vertices)
        pos = {v: i for i, v in enumerate(labels)}
        masks = []
        for facet in facets:
            mask = 0
            for v in set(facet):
                if v not in pos:
                    raise ValueError(f"facet vertex {v} outside declared vertex set")
                mask |= 1 << pos[v]
            masks.append(mask)
        faces = {0}
        faces.update(1 << i for i in range(len(labels)))
        for mask in masks:
            faces.update(_submasks(mask))
        return cls._from_faces(labels, faces)

    @classmethod
    def _from_faces(cls, labels, faces):
        """Internal constructor; assumes faces is already downward closed."""
        return cls(tuple(labels), frozenset(faces))

    # -- basic queries -----------------------------------------------------

    @property
    def m(self):
        return len(self.labels)

    @property
    def full_mask(self):
        return (1 << self.m) - 1

    @cached_property
    def dim(self):
        return max(f.bit_count() for f in self.face_masks) - 1

    @cached_property
    def facet_masks(self):
        return tuple(sorted(_maximal_masks(self.face_masks, self.m)))

    @cached_property
    def sorted_face_masks(self):
        return tuple(sorted(self.face_masks))

    @cached_property
    def _positions(self):
        return {v: i for i, v in enumerate(self.labels)}

    def mask_of(self, subset):
        """Bitmask of a label subset; raises on labels outside the complex."""
        mask = 0
        for v in subset:
            try:
                mask |= 1 << self._positions[v]
            except KeyError:
                raise ValueError(f"vertex {v} not in complex") from None
        return mask

    def labels_of(self, mask):
        return tuple(self.labels[i] for i in bits(mask))

    def faces(self):
        """All faces as sorted label tuples, ordered by (size, mask)."""
        for mask in sorted(self.face_masks, key=lambda f: (f.bit_count(), f)):
            yield self.labels_of(mask)

    def facets(self):
        return tuple(self.labels_of(mask) for mask in self.facet_masks)

    @cached_property
    def adjacency(self):
        """Neighbour bitmask per vertex position, read off the 1-faces."""
        adj = [0] * self.m
        for f in self.face_masks:
            if f.bit_count() == 2:
                a = (f & -f).bit_length() - 1
                b = f.bit_length() - 1
                adj[a] |= 1 << b
                adj[b] |= 1 << a
        return tuple(adj)

    def induced(self, mask):
        """The full subcomplex on a position bitmask, its vertices renumbered
        in order. Full subcomplexes of a flag complex are flag, so that verdict
        is passed on rather than recomputed."""
        rank = {1 << b: 1 << r for r, b in enumerate(bits(mask))}
        faces = {0: 0}
        for f in self.sorted_face_masks:  # f minus its top vertex comes first
            if f and not f & ~mask:
                top = 1 << f.bit_length() - 1
                faces[f] = faces[f ^ top] | rank[top]
        sub = SimplicialComplex(self.labels_of(mask), frozenset(faces.values()))
        if self.flag_check:
            object.__setattr__(sub, "flag_check", self.flag_check)
        return sub

    @cached_property
    def flag_check(self):
        """Whether every missing face has exactly two vertices.

        Works level by level: if all cliques of the 1-skeleton with at most k
        vertices are faces, any (k+1)-clique that is not a face is a missing
        face of size >= 3 and is returned as the witness.
        """
        level = [f for f in self.face_masks if f.bit_count() == 2]
        while level:
            level = list(_clique_extensions(self.adjacency, level))
            for f in level:
                if f not in self.face_masks:
                    return CheckResult(False, self.labels_of(f))
        return CheckResult(True)


def _maximal_masks(faces, m):
    """Faces with no proper superset in the family."""
    out = []
    for f in faces:
        cofree = ~f & ((1 << m) - 1)
        if not any((f | (1 << i)) in faces for i in bits(cofree)):
            out.append(f)
    return out


# -- operations -----------------------------------------------------------


def full_subcomplex(K, subset):
    """The full subcomplex K_J: all faces of K contained in the vertex set J."""
    return K.induced(K.mask_of(subset))


def join(K, L):
    """Join of two complexes on disjoint vertex sets.

    Faces are all unions of a face of K and a face of L. The result is
    relabelled to consecutive integers 1..(mK+mL), K's vertices first.
    """
    if set(K.labels) & set(L.labels):
        raise ValueError("join requires disjoint vertex sets")
    total = K.m + L.m
    if total > MAX_VERTICES:
        raise ValueError(f"join would exceed {MAX_VERTICES} vertices")
    faces = set()
    for f in K.face_masks:
        for g in L.face_masks:
            faces.add(f | (g << K.m))
    return SimplicialComplex._from_faces(range(1, total + 1), faces)


def join_factors(K):
    """Vertex masks of the finest join decomposition K = K_A1 * ... * K_Ar,
    ordered by lowest bit; a complex on no vertices has none.

    K = K_A * K_B exactly when every minimal non-face lies in A or in B, so
    the factors are the components of the hypergraph of minimal non-faces; a
    vertex in none of them, a cone point, is a factor by itself. For a flag
    complex the minimal non-faces are the non-edges, and the factors are the
    components of the complement graph.
    """
    full = K.full_mask
    apart = [full & ~a & ~(1 << v) for v, a in enumerate(K.adjacency)]
    if not K.flag_check:
        faces = K.face_masks
        for n in _clique_extensions(K.adjacency, [f for f in faces if f.bit_count() > 1]):
            if n not in faces and all(n ^ 1 << u in faces for u in bits(n)):
                for v in bits(n):
                    apart[v] |= n
    factors = []
    while full:
        comp = frontier = full & -full
        while frontier:
            reach = 0
            for v in bits(frontier):
                reach |= apart[v]
            frontier = reach & ~comp
            comp |= frontier
        factors.append(comp)
        full ^= comp
    return tuple(factors)


def is_flag(K):
    """Whether every missing face of K has exactly two vertices; the witness
    of a failure is a missing face (see ``SimplicialComplex.flag_check``)."""
    return K.flag_check


def _clique_extensions(adj, cliques):
    """Each clique extended by every common neighbour above its top vertex,
    in order: from all the k-cliques this yields every (k+1)-clique once."""
    for f in cliques:
        common = -1
        for b in bits(f):
            common &= adj[b]
        top = f.bit_length()
        for v in bits(common >> top << top):
            yield f | 1 << v


def clique_complex(vertices, edges, max_faces=1 << 20):
    """The flag complex of a graph: its faces are exactly the cliques.

    ``vertices`` is a count m (labels 1..m) or an iterable of labels, and
    ``edges`` are label pairs. It is flag by construction, so that verdict is
    set rather than recomputed, and so is its adjacency.
    """
    labels = _normalize_labels(vertices)
    pos = {v: i for i, v in enumerate(labels)}
    adj = [0] * len(labels)
    for u, v in edges:
        if u == v:
            raise ValueError(f"self-loop at vertex {u}")
        if u not in pos or v not in pos:
            raise ValueError(f"edge ({u},{v}) outside declared vertex set")
        adj[pos[u]] |= 1 << pos[v]
        adj[pos[v]] |= 1 << pos[u]
    faces = {0}
    level = [1 << i for i in range(len(labels))]
    while level:
        faces.update(level)
        if len(faces) > max_faces:
            raise ValueError(f"clique enumeration exceeds budget of {max_faces} faces")
        level = list(_clique_extensions(adj, level))
    K = SimplicialComplex._from_faces(labels, faces)
    object.__setattr__(K, "flag_check", CheckResult(True))
    object.__setattr__(K, "adjacency", tuple(adj))
    return K


def is_chordal(K):
    """Whether the 1-skeleton of K is chordal (every cycle of length >= 4 has
    a chord). On failure the witness is a chordless cycle of length >= 4,
    found when the witness is first read.
    """
    return CheckResult(True) if _chordal(K.adjacency) else _ChordlessCycle(K)


def _chordal(adj):
    """Chordality of a graph given by neighbour bitmasks: maximum cardinality
    search, then verification of the perfect elimination ordering it gives."""
    n = len(adj)
    weight = [0] * n
    numbered = 0
    picks = []
    for _ in range(n):
        best = -1
        v = -1
        for i in range(n):
            if not numbered >> i & 1 and weight[i] > best:
                best = weight[i]
                v = i
        picks.append(v)
        numbered |= 1 << v
        for u in bits(adj[v] & ~numbered):
            weight[u] += 1
    order = picks[::-1]  # candidate perfect elimination ordering
    position = [0] * n
    for idx, v in enumerate(order):
        position[v] = idx
    later = [0] * n
    seen = 0
    for v in order:
        later[v] = adj[v] & ~seen & ~(1 << v)
        seen |= 1 << v
    for v in order:
        nb = later[v]
        if nb:
            u = min(bits(nb), key=lambda x: position[x])
            rest = nb & ~(1 << u)
            if rest & ~adj[u]:
                return False
    return True


def is_minimally_non_chordal(K):
    """The 1-skeleton of K is not chordal, but is chordal after deleting any
    one vertex (re-tested with its edges removed, as an isolated vertex lies
    on no cycle)."""
    if is_chordal(K):
        return False
    adj = K.adjacency
    return all(_chordal([0 if u == v else a & ~(1 << v) for u, a in enumerate(adj)])
               for v in range(K.m))


def _find_hole(K):
    """A chordless cycle of length >= 4 in the 1-skeleton of K, which is not
    chordal.

    For each vertex v and each non-adjacent pair u, w of its neighbours, a
    shortest u-w path avoiding the rest of N[v] closes up with v to a cycle
    with no chords (shortcuts would contradict path minimality)."""
    adj = K.adjacency
    for v in range(K.m):
        nv = adj[v]
        nbrs = list(bits(nv))
        for ai, u in enumerate(nbrs):
            for w in nbrs[ai + 1:]:
                if adj[u] >> w & 1:
                    continue
                allowed = (K.full_mask & ~(nv | (1 << v))) | (1 << u) | (1 << w)
                path = _bfs_path(adj, u, w, allowed)
                if path is not None:
                    cycle = [v] + path
                    return tuple(sorted(K.labels[i] for i in cycle))
    return None


def _bfs_path(adj, src, dst, allowed):
    parent = {src: None}
    frontier = [src]
    while frontier:
        nxt = []
        for x in frontier:
            for y in bits(adj[x] & allowed):
                if y not in parent:
                    parent[y] = x
                    if y == dst:
                        path = [y]
                        while parent[path[-1]] is not None:
                            path.append(parent[path[-1]])
                        return path[::-1]
                    nxt.append(y)
        frontier = nxt
    return None


def find_induced_cycles(K):
    """All vertex subsets on which the 1-skeleton of K induces a cycle of
    length >= 4, as sorted label tuples (brute force over subsets; fine at
    desk scale)."""
    out = []
    adj = K.adjacency
    for mask in range(1, K.full_mask + 1):
        if mask.bit_count() < 4:
            continue
        if _induces_cycle(adj, mask):
            out.append(tuple(sorted(K.labels[i] for i in bits(mask))))
    return out


def _induces_cycle(adj, mask):
    for i in bits(mask):
        if (adj[i] & mask).bit_count() != 2:
            return False
    # 2-regular and connected means a single cycle
    start = mask & -mask
    comp = start
    frontier = start
    while frontier:
        nxt = 0
        for i in bits(frontier):
            nxt |= adj[i]
        frontier = nxt & mask & ~comp
        comp |= frontier
    return comp == mask


def is_cycle(K):
    """Return p if K is exactly the boundary of a p-gon, else None."""
    p = K.m
    if p < 3:
        return None
    if len(K.face_masks) != 1 + 2 * p:
        return None
    return p if _induces_cycle(K.adjacency, K.full_mask) else None


def classify_star_condition(K):
    """Test whether K is a p-cycle (p >= 4), possibly joined with a simplex.

    The simplex factor of such a join is exactly the set of universal
    vertices (each cycle vertex has a non-neighbour since p >= 4), which for
    flag K are the one-vertex join factors. So the cone vertices are removed
    in one step and the remainder must be a cycle. Non-flag complexes never
    match.
    """
    if not is_flag(K):
        return StarClassification.no_match(REASON_NOT_FLAG)
    universal = sum(f for f in join_factors(K) if not f & f - 1)
    rest = K.full_mask & ~universal
    if rest == 0 or not _induces_cycle(K.adjacency, rest):
        return StarClassification.no_match(REASON_REMAINDER_NOT_CYCLE)
    p = rest.bit_count()
    if p < 4:
        return StarClassification.no_match(REASON_CYCLE_TOO_SHORT)
    # A flag complex with this skeleton is forced to be the join; verify the
    # face count anyway so a malformed input cannot slip through.
    q_plus_1 = universal.bit_count()
    if len(K.face_masks) != (2 * p + 1) << q_plus_1:
        return StarClassification.no_match(REASON_CONE_NOT_UNIVERSAL)
    return StarClassification.match(p, K.labels_of(universal))
