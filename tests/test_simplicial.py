import random
from itertools import combinations, permutations

import pytest

from conftest import (
    all_flag_complexes,
    brute_missing_faces,
    cycle,
    join,
    projective_plane,
    random_complexes,
    simplex,
    square_broken_cone,
    square_cone,
    square_partial_cone,
    union_find_components,
)
from macx import simplicial
from macx.simplicial import (
    SimplicialComplex,
    bits,
    chordless_cycle,
    classify_star_condition,
    clique_complex,
    components,
    is_chordal,
    is_cycle,
    is_flag,
    is_minimally_non_chordal,
    join_factors,
    subset_sums,
)


def faces_as_sets(K):
    return {frozenset(f) for f in K.faces()}


def edges(K):
    return [f for f in K.faces() if len(f) == 2]


# -- construction ------------------------------------------------------------


def test_from_facets_four_cycle():
    K = cycle(4)
    assert K.m == 4
    assert sum(1 for f in K.faces() if len(f) == 1) == 4
    assert sum(1 for f in K.faces() if len(f) == 2) == 4
    assert K.mask_of(()) in K.face_masks
    assert K.mask_of((1, 3)) not in K.face_masks


def test_from_facets_partial_cone():
    K = square_partial_cone()
    edges = {f for f in faces_as_sets(K) if len(f) == 2}
    assert edges == {
        frozenset(e)
        for e in [(1, 2), (2, 3), (3, 4), (1, 4), (1, 5), (2, 5), (3, 5)]
    }
    triangles = {f for f in faces_as_sets(K) if len(f) == 3}
    assert triangles == {frozenset((1, 2, 5)), frozenset((2, 3, 5))}


def test_from_facets_cone_facets():
    K = square_cone()
    assert set(K.facets()) == {(1, 2, 5), (2, 3, 5), (3, 4, 5), (1, 4, 5)}


def test_from_facets_errors():
    with pytest.raises(ValueError):
        SimplicialComplex.from_facets([[1, 2]], [1, 1, 2])
    with pytest.raises(ValueError):
        SimplicialComplex.from_facets([[1, 9]], 5)
    with pytest.raises(ValueError):
        SimplicialComplex.from_facets([], 25)
    with pytest.raises(ValueError, match="at most 24 vertices supported, got 25"):
        SimplicialComplex.from_facets([], range(25))


def test_singletons_always_present():
    K = SimplicialComplex.from_facets([], 3)
    assert faces_as_sets(K) == {frozenset(), frozenset({1}), frozenset({2}), frozenset({3})}


# -- full subcomplex ---------------------------------------------------------


def test_full_subcomplex_partial_cone():
    K = square_partial_cone()
    sub = K.induced(K.mask_of([2, 4, 5]))
    assert sub.labels == (2, 4, 5)
    assert faces_as_sets(sub) == {
        frozenset(),
        frozenset({2}),
        frozenset({4}),
        frozenset({5}),
        frozenset({2, 5}),
    }


def test_full_subcomplex_identity():
    K = square_partial_cone()
    assert K.induced(K.mask_of(K.labels)) == K


def test_full_subcomplex_no_edge():
    K = cycle(5)
    sub = K.induced(K.mask_of([1, 3]))
    assert faces_as_sets(sub) == {frozenset(), frozenset({1}), frozenset({3})}


def test_full_subcomplex_requires_subset():
    with pytest.raises(ValueError):
        cycle(4).mask_of([1, 9])


def test_full_subcomplex_is_face_filtering():
    # against the defining property, over every subset of a small corpus
    corpus = list(all_flag_complexes(4))
    corpus += [square_partial_cone(), square_cone(), square_broken_cone()]
    for K in corpus:
        for size in range(K.m + 1):
            for sub in combinations(K.labels, size):
                expected = {f for f in faces_as_sets(K) if f <= set(sub)}
                assert faces_as_sets(K.induced(K.mask_of(sub))) == expected


def test_induced_subgraph_is_skeleton_of_full_subcomplex_exhaustive():
    # the full subcomplex of a flag complex is the clique complex of the
    # induced subgraph, with the same adjacency; its components, lowest
    # vertex first, are those union-find gives
    for n in range(1, 6):
        for K in all_flag_complexes(n):
            for mask in range(1 << n):
                J = set(K.labels_of(mask))
                inside = [e for e in edges(K) if set(e) <= J]
                expected = clique_complex(sorted(J), inside)
                sub = K.induced(mask)
                assert sub == expected and sub.adjacency == expected.adjacency
                found = [frozenset(K.labels_of(c)) for c in components(K.adjacency, mask)]
                assert found == sorted(union_find_components(sorted(J), inside), key=min)


def test_universal_mask_matches_degree_count_exhaustive():
    # the universal vertices are the one-vertex join factors
    for n in range(1, 6):
        for K in all_flag_complexes(n):
            expected = sum(1 << i for i, a in enumerate(K.adjacency) if a.bit_count() == n - 1)
            assert sum(f for f in join_factors(K) if f.bit_count() == 1) == expected


def test_subset_sums_are_images_under_permutations():
    # a table of the sums of distinct bits maps every subset to its image
    for perm in permutations(range(4)):
        image = subset_sums([1 << p for p in perm], 0)
        assert image == [sum(1 << perm[v] for v in bits(S)) for S in range(16)]


# -- join --------------------------------------------------------------------


def test_join_square_with_point():
    joined = join(cycle(4), SimplicialComplex.from_facets([], [9]))
    assert joined == square_cone()


def test_join_with_empty_complex():
    K = cycle(4)
    empty = SimplicialComplex.from_facets([], 0)
    assert join(K, empty) == K


def test_join_two_points_is_edge():
    a = SimplicialComplex.from_facets([], [1])
    b = SimplicialComplex.from_facets([], [2])
    assert faces_as_sets(join(a, b)) == {
        frozenset(), frozenset({1}), frozenset({2}), frozenset({1, 2})
    }


def test_join_requires_disjoint_labels():
    with pytest.raises(ValueError):
        join(cycle(4), simplex(0))


# -- one-skeleton, flagness, clique complexes --------------------------------


def test_adjacency_shapes():
    def edge_count(K):
        return sum(a.bit_count() for a in K.adjacency) // 2

    assert edge_count(cycle(6)) == 6
    assert edge_count(square_partial_cone()) == 7
    assert edge_count(simplex(3)) == 6


def first_missing_face(K):
    return K.labels_of(K.missing_faces[0])


def test_is_flag_examples():
    assert is_flag(square_partial_cone()) is True
    K = square_broken_cone()
    assert is_flag(K) is False and first_missing_face(K) == (1, 4, 5)
    K = cycle(3)
    assert is_flag(K) is False and first_missing_face(K) == (1, 2, 3)
    assert not is_flag(SimplicialComplex.from_facets(
        [[1, 2, 3], [1, 2, 4], [1, 3, 4], [2, 3, 4]], 4))  # boundary of a 3-simplex


def test_is_flag_matches_brute_force_missing_faces():
    corpus = [K for n in range(1, 5) for K in all_flag_complexes(n)]
    corpus += random_complexes(7, 60) + [projective_plane(), square_broken_cone()]
    corpus += [square_partial_cone(), cycle(3)]
    for K in corpus:
        # fewest vertices first, then by sorted label tuple
        expected = sorted((tuple(sorted(f)) for f in brute_missing_faces(K) if len(f) >= 3),
                          key=lambda f: (len(f), f))
        # rebuilt from its faces, so that the search runs rather than the
        # missing faces that clique_complex sets, and rebuilt again with its
        # faces inserted in the opposite order
        searched = SimplicialComplex(K.labels, K.face_masks)
        reversed_ = SimplicialComplex(K.labels, frozenset(sorted(K.face_masks, reverse=True)))
        for L in (K, searched, reversed_):
            assert [L.labels_of(n) for n in L.missing_faces] == expected
            assert is_flag(L) == (not expected)
            if expected:
                assert first_missing_face(L) == expected[0]
        for mask in range(K.full_mask + 1):
            sub = K.induced(mask)
            assert "missing_faces" in vars(sub)  # handed down, not searched for
            rebuilt = SimplicialComplex(sub.labels, sub.face_masks)
            assert sub.missing_faces == rebuilt.missing_faces


def test_clique_complex_examples():
    assert clique_complex(5, edges(cycle(5))) == cycle(5)
    assert clique_complex(4, combinations(range(1, 5), 2)) == simplex(3)
    partial = square_partial_cone()
    assert clique_complex(partial.labels, edges(partial)) == partial
    K = clique_complex([3, 10, 27], [(27, 3), (3, 10)])
    assert K.labels == (3, 10, 27) and edges(K) == [(3, 10), (3, 27)]


def test_clique_complex_rejects_bad_graphs():
    for vertices, bad in [(3, [(2, 2)]), (3, [(1, 4)]), ([1, 2], [(0, 1)]),
                          ([1, 1, 2], []), ([-1, 2], []), (25, [])]:
        with pytest.raises(ValueError):
            clique_complex(vertices, bad)


def test_clique_complex_sets_a_flag_verdict_that_holds():
    for n in range(1, 6):
        for K in all_flag_complexes(n):
            assert vars(K)["missing_faces"] == ()  # set, not searched for
            assert all(len(f) == 2 for f in brute_missing_faces(K))
            rebuilt = SimplicialComplex(K.labels, K.face_masks)
            assert rebuilt.missing_faces == ()
            assert rebuilt.adjacency == K.adjacency


def test_facets_found_on_first_use(monkeypatch):
    calls = []
    maximal = simplicial._maximal_masks
    monkeypatch.setattr(simplicial, "_maximal_masks",
                        lambda faces, m: calls.append(m) or maximal(faces, m))
    K = clique_complex(5, edges(square_partial_cone()))
    same = SimplicialComplex.from_facets([[1, 2, 5], [2, 3, 5], [1, 4], [3, 4]], 5)
    assert calls == []
    assert K == same and hash(K) == hash(same)
    assert K.facets() == ((1, 4), (3, 4), (1, 2, 5), (2, 3, 5)) and calls == [5]
    assert K == same and hash(K) == hash(same)  # one has its facets, one not
    assert same.facet_masks == K.facet_masks and calls == [5, 5]


def test_clique_complex_budget(monkeypatch):
    monkeypatch.setattr(simplicial, "MAX_CLIQUE_FACES", 10)
    with pytest.raises(ValueError, match="exceeds budget of 10 faces"):
        clique_complex(5, combinations(range(1, 6), 2))
    assert len(clique_complex(3, [(1, 2)]).face_masks) == 5


def test_from_facets_budget(monkeypatch):
    monkeypatch.setattr(simplicial, "MAX_CLIQUE_FACES", 8)
    with pytest.raises(ValueError, match="facet of 4 vertices exceeds budget of 8 faces"):
        SimplicialComplex.from_facets([[1, 2, 3, 4]], 4)
    with pytest.raises(ValueError, match="facet closure exceeds budget of 8 faces"):
        SimplicialComplex.from_facets([[1, 2, 3], [2, 3, 4]], 4)
    assert len(SimplicialComplex.from_facets([[1, 2, 3]], 3).face_masks) == 8


def test_flag_iff_clique_complex_of_skeleton():
    corpus = list(all_flag_complexes(4))
    corpus += [square_partial_cone(), square_cone(), square_broken_cone(), cycle(3)]
    for K in corpus:
        rebuilt = clique_complex(K.labels, edges(K))
        assert (rebuilt == K) == is_flag(K)


# -- chordality and induced cycles -------------------------------------------


def test_is_chordal_examples():
    for p in range(4, 9):
        assert is_chordal(cycle(p)) is False
        assert chordless_cycle(cycle(p)) == tuple(range(1, p + 1))
    assert is_chordal(clique_complex(5, [(1, 2), (2, 3), (2, 4), (4, 5)])) is True  # tree
    assert is_chordal(simplex(3)) is True
    assert is_chordal(square_partial_cone()) is False
    assert chordless_cycle(square_partial_cone()) == (1, 2, 3, 4)


def test_chordless_cycle_found_only_when_read(monkeypatch):
    """The verdict never searches for a cycle; ``chordless_cycle`` does, and
    on a chordal complex it finds none."""
    calls = []
    find = simplicial.chordless_cycle
    monkeypatch.setattr(simplicial, "chordless_cycle", lambda K: calls.append(K) or find(K))
    assert is_chordal(cycle(6)) is False and calls == []
    assert find(cycle(6)) == tuple(range(1, 7))
    for K in (simplex(3), clique_complex(5, [(1, 2), (2, 3), (2, 4), (4, 5)]),
              clique_complex(3, []), clique_complex(4, [(1, 2), (1, 3), (2, 3), (2, 4), (3, 4)])):
        assert find(K) is None


def test_chordless_cycle_examples():
    assert chordless_cycle(cycle(5)) == (1, 2, 3, 4, 5)
    assert chordless_cycle(clique_complex(4, [(1, 2), (2, 3), (3, 4)])) is None
    # the partial cone has two induced squares: 1-2-3-4 and 1-4-3-5 (the
    # second is what makes H_(-2,8) of its moment-angle complex have rank 2);
    # the search returns the first, and the second once vertex 2 is gone
    K = square_partial_cone()
    assert chordless_cycle(K) == (1, 2, 3, 4)
    assert chordless_cycle(K.induced(K.mask_of([1, 3, 4, 5]))) == (1, 3, 4, 5)


def _networkx_holes(nx, K):
    """The vertex sets of the chordless cycles of length >= 4 in the
    1-skeleton of K, as sorted label tuples, found by networkx."""
    G = nx.Graph()
    G.add_nodes_from(K.labels)
    G.add_edges_from(edges(K))
    return {tuple(sorted(c)) for c in nx.chordless_cycles(G) if len(c) >= 4}


def test_chordality_agrees_with_induced_cycle_scan_exhaustive():
    nx = pytest.importorskip("networkx")
    for n in range(1, 6):
        for K in all_flag_complexes(n):
            holes = _networkx_holes(nx, K)
            assert is_chordal(K) == (not holes)
            if holes:
                assert chordless_cycle(K) in holes
            else:
                assert chordless_cycle(K) is None


def test_chordality_agrees_on_random_graphs():
    nx = pytest.importorskip("networkx")
    rng = random.Random(20240811)
    for n in (6, 7):
        pairs = list(combinations(range(1, n + 1), 2))
        for _ in range(200):
            chosen = [e for e in pairs if rng.random() < 0.45]
            K = clique_complex(n, chosen)
            holes = _networkx_holes(nx, K)
            assert is_chordal(K) == (not holes)
            assert (chordless_cycle(K) in holes) if holes else chordless_cycle(K) is None


def _networkx_corpus(nx):
    """Every labelled graph on at most five vertices and the 156 atlas
    graphs on six, each as (networkx graph, its clique complex)."""
    for n in range(1, 6):
        for K in all_flag_complexes(n):
            G = nx.Graph()
            G.add_nodes_from(K.labels)
            G.add_edges_from(edges(K))
            yield G, K
    six = [g for g in nx.graph_atlas_g() if g.number_of_nodes() == 6]
    assert len(six) == 156
    for g in six:
        G = nx.relabel_nodes(g, lambda v: v + 1)
        yield G, clique_complex(6, G.edges())


def test_graph_predicates_against_networkx():
    """Chordality, induced cycles, minimal non-chordality and the witness
    against networkx, which shares no code with them."""
    nx = pytest.importorskip("networkx")
    count = 0
    for G, K in _networkx_corpus(nx):
        count += 1
        chordal = nx.is_chordal(G)
        assert is_chordal(K) == chordal, K
        holes = _networkx_holes(nx, K)
        assert chordal == (not holes), K
        minimal = not chordal and all(nx.is_chordal(G.subgraph(set(G) - {v})) for v in G)
        assert is_minimally_non_chordal(K) == minimal, K
        if chordal:
            assert chordless_cycle(K) is None
        else:
            assert chordless_cycle(K) in holes
            hole = G.subgraph(chordless_cycle(K))
            assert len(hole) >= 4 and nx.is_connected(hole)
            assert all(d == 2 for _, d in hole.degree())
    assert count == 1 + 2 + 8 + 64 + 1024 + 156


# -- star condition ----------------------------------------------------------


def test_star_condition_examples():
    got = classify_star_condition(cycle(5))
    assert got.matches and got.p == 5 and got.cone_vertices == ()
    got = classify_star_condition(square_cone())
    assert got.matches and got.p == 4 and got.cone_vertices == (5,)
    got = classify_star_condition(square_partial_cone())
    assert not got.matches and got.reason == simplicial.REASON_REMAINDER_NOT_CYCLE
    got = classify_star_condition(square_broken_cone())
    assert not got.matches and got.reason == simplicial.REASON_NOT_FLAG
    got = classify_star_condition(simplex(3))
    assert not got.matches


def test_star_condition_joins_under_relabelling():
    rng = random.Random(7)
    for p in range(4, 9):
        for q in range(-1, 3):
            if q < 0:
                K = cycle(p)
            else:
                apex_labels = list(range(p + 1, p + q + 2))
                apex = SimplicialComplex.from_facets([apex_labels], apex_labels)
                K = join(cycle(p), apex)
            m = K.m
            if m > 11:
                continue
            perms = [list(range(1, m + 1))]
            perms += [rng.sample(range(1, m + 1), m) for _ in range(3)]
            for perm in perms:
                relabel = {old: perm[i] for i, old in enumerate(K.labels)}
                facets = [[relabel[v] for v in f] for f in K.facets()]
                got = classify_star_condition(SimplicialComplex.from_facets(facets, m))
                assert got.matches and got.p == p
                assert len(got.cone_vertices) == q + 1


def test_is_cycle():
    assert is_cycle(cycle(4)) == 4
    assert is_cycle(cycle(7)) == 7
    assert is_cycle(square_cone()) is None
    assert is_cycle(simplex(2)) is None


# -- immutability -------------------------------------------------------------


def test_complexes_are_immutable():
    K = cycle(4)
    with pytest.raises(AttributeError):
        K.labels = (1, 2)
