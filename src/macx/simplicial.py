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

The predicates return plain booleans. A failure's witness has its own
source: the first of ``K.missing_faces``, or ``chordless_cycle(K)``.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

MAX_VERTICES = 24

# Most faces clique_complex and from_facets enumerate before they refuse
# the graph or the facet list.
MAX_CLIQUE_FACES = 1 << 20

# Reason codes for a failed star-condition classification.
REASON_NOT_FLAG = "not_flag"
REASON_REMAINDER_NOT_CYCLE = "remainder_not_cycle"


def bits(mask):
    """Yield the set bit positions of mask, ascending."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


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
        A closure past ``MAX_CLIQUE_FACES`` faces is refused (ValueError), and
        a facet of more than 20 vertices before its faces are listed.
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
            if 1 << mask.bit_count() > MAX_CLIQUE_FACES:  # its closure alone is too large
                raise ValueError(f"facet of {mask.bit_count()} vertices exceeds budget "
                                 f"of {MAX_CLIQUE_FACES} faces")
            faces.update(subset_sums([1 << b for b in bits(mask)], 0))
            if len(faces) > MAX_CLIQUE_FACES:
                raise ValueError(f"facet closure exceeds budget of {MAX_CLIQUE_FACES} faces")
        return cls(labels, frozenset(faces))

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
        in order. Its missing faces are those of K inside the mask, so they
        are handed down rather than searched for again. On the full mask that
        is K itself, with the properties it has already computed."""
        if mask == self.full_mask:
            return self
        rank = {1 << b: 1 << r for r, b in enumerate(bits(mask))}
        faces = {0: 0}
        for f in self.sorted_face_masks:  # f minus its top vertex comes first
            if f and not f & ~mask:
                top = 1 << f.bit_length() - 1
                faces[f] = faces[f ^ top] | rank[top]
        sub = SimplicialComplex(self.labels_of(mask), frozenset(faces.values()))
        object.__setattr__(sub, "missing_faces", tuple(
            sum(rank[1 << b] for b in bits(n)) for n in self.missing_faces if not n & ~mask))
        return sub

    @cached_property
    def missing_faces(self):
        """The minimal non-faces of three or more vertices, as masks, sorted
        by vertex count and then by position tuple, so that the order is a
        function of the complex; K is flag exactly when there are none.

        A level-by-level clique search from the edges that extends faces
        only: a (k+1)-clique that is not a face but all of whose k-vertex
        faces are is a missing face, and any missing face, less its top
        vertex, is a face that extends to it.
        """
        faces = self.face_masks
        level = [f for f in faces if f.bit_count() == 2]
        missing = []
        while level:
            cliques, level = _clique_extensions(self.adjacency, level), []
            for f in cliques:
                if f in faces:
                    level.append(f)
                elif all(f ^ 1 << u in faces for u in bits(f)):
                    missing.append(f)
        return tuple(sorted(missing, key=lambda n: (n.bit_count(), tuple(bits(n)))))


def _maximal_masks(faces, m):
    """Faces with no proper superset in the family."""
    out = []
    for f in faces:
        cofree = ~f & ((1 << m) - 1)
        if not any((f | (1 << i)) in faces for i in bits(cofree)):
            out.append(f)
    return out


# -- operations -----------------------------------------------------------


def join_factors(K):
    """Vertex masks of the finest join decomposition K = K_A1 * ... * K_Ar,
    ordered by lowest bit; a complex on no vertices has none.

    K = K_A * K_B exactly when every minimal non-face lies in A or in B, so
    the factors are the components of the hypergraph of minimal non-faces; a
    vertex in none of them, a cone point, is a factor by itself. The minimal
    non-faces are the non-edges and ``K.missing_faces``; for a flag complex
    the factors are the components of the complement graph.
    """
    full = K.full_mask
    apart = [full & ~a & ~(1 << v) for v, a in enumerate(K.adjacency)]
    for n in K.missing_faces:
        for v in bits(n):
            apart[v] |= n
    return tuple(components(apart, full))


def components(adj, mask):
    """Yield the components of the graph with neighbour masks ``adj`` induced
    on the vertex mask ``mask``, as vertex masks, by lowest bit."""
    while mask:
        comp = frontier = mask & -mask
        while frontier:
            reach = 0
            for v in bits(frontier):
                reach |= adj[v]
            frontier = reach & mask & ~comp
            comp |= frontier
        yield comp
        mask ^= comp


def subset_sums(pieces, empty):
    """For every mask S over the pieces, the sum of its pieces in bit order
    (``empty`` for none): for strings their concatenation, for distinct bits
    their union."""
    out = [empty]
    for piece in pieces:
        out += [s + piece for s in out]
    return out


def is_flag(K):
    """Whether K has no ``missing_faces``: every minimal non-face is an edge."""
    return not K.missing_faces


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


def clique_complex(vertices, edges):
    """The flag complex of a graph: its faces are exactly the cliques.

    ``vertices`` is a count m (labels 1..m) or an iterable of labels, and
    ``edges`` are label pairs. It is flag by construction, so its missing
    faces are set to none rather than searched for, and its adjacency is set.
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
        if len(faces) > MAX_CLIQUE_FACES:
            raise ValueError(f"clique enumeration exceeds budget of {MAX_CLIQUE_FACES} faces")
        level = list(_clique_extensions(adj, level))
    K = SimplicialComplex(labels, frozenset(faces))
    object.__setattr__(K, "missing_faces", ())
    object.__setattr__(K, "adjacency", tuple(adj))
    return K


def is_chordal(K):
    """Whether the 1-skeleton of K is chordal (every cycle of length >= 4 has
    a chord); ``chordless_cycle`` finds a witness of a failure."""
    return _chordal(K.adjacency)


def _chordal(adj):
    """Chordality of a graph given by neighbour bitmasks, by maximum
    cardinality search: as each vertex is picked, its neighbours picked
    before it, but the last, must neighbour that last one (Tarjan and
    Yannakakis, SIAM J. Comput. 13, 1984)."""
    n = len(adj)
    weight, step, numbered = [0] * n, [0] * n, 0
    for k in range(n):
        best = v = -1
        for i in range(n):
            if weight[i] > best and not numbered >> i & 1:
                best, v = weight[i], i
        before = adj[v] & numbered
        if before:
            u = max(bits(before), key=step.__getitem__)
            if before & ~adj[u] & ~(1 << u):
                return False
        step[v] = k
        numbered |= 1 << v
        for u in bits(adj[v] & ~numbered):
            weight[u] += 1
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


def chordless_cycle(K):
    """The vertex labels, ascending, of a chordless cycle of length >= 4 in
    the 1-skeleton of K, or None when K is chordal.

    For each vertex v and each non-adjacent pair u, w of its neighbours, a
    shortest u-w path avoiding the rest of N[v] closes up with v to a cycle
    with no chords (shortcuts would contradict path minimality). Any vertex
    of a chordless cycle is such a v, so a cycle is found if there is one."""
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
                    return tuple(sorted(K.labels[i] for i in [v] + path))
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


def _induces_cycle(adj, mask):
    for i in bits(mask):
        if (adj[i] & mask).bit_count() != 2:
            return False
    # 2-regular and connected means a single cycle
    return next(components(adj, mask)) == mask


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
    in one step and the remainder must be a cycle. It cannot be a triangle: a
    vertex of the remainder has a non-neighbour, also in the remainder. A
    flag K is the clique complex of its graph, here C_p joined with a
    complete graph, so it is the join itself. Non-flag complexes never match.
    """
    if not is_flag(K):
        return StarClassification(False, reason=REASON_NOT_FLAG)
    universal = sum(f for f in join_factors(K) if not f & f - 1)
    rest = K.full_mask & ~universal
    if rest == 0 or not _induces_cycle(K.adjacency, rest):
        return StarClassification(False, reason=REASON_REMAINDER_NOT_CYCLE)
    return StarClassification(True, rest.bit_count(), K.labels_of(universal))
