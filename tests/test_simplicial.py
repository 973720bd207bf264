import random
from itertools import combinations

import pytest

from conftest import (
    all_graphs,
    brute_missing_faces,
    cycle,
    projective_plane,
    simplex,
    square_broken_cone,
    square_cone,
    square_partial_cone,
)
from macx import simplicial
from macx.simplicial import (
    Graph,
    SimplicialComplex,
    classify_star_condition,
    clique_complex,
    find_induced_cycles,
    full_subcomplex,
    is_chordal,
    is_cycle,
    is_flag,
    join,
    one_skeleton,
)


def faces_as_sets(K):
    return {frozenset(f) for f in K.faces()}


# -- construction ------------------------------------------------------------


def test_from_facets_four_cycle():
    K = cycle(4)
    assert K.m == 4
    assert sum(1 for f in K.faces() if len(f) == 1) == 4
    assert sum(1 for f in K.faces() if len(f) == 2) == 4
    assert K.has_face(())
    assert not K.has_face((1, 3))


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


def test_singletons_always_present():
    K = SimplicialComplex.from_facets([], 3)
    assert faces_as_sets(K) == {frozenset(), frozenset({1}), frozenset({2}), frozenset({3})}


# -- full subcomplex ---------------------------------------------------------


def test_full_subcomplex_partial_cone():
    K = square_partial_cone()
    sub = full_subcomplex(K, [2, 4, 5])
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
    assert full_subcomplex(K, K.labels) == K


def test_full_subcomplex_no_edge():
    sub = full_subcomplex(cycle(5), [1, 3])
    assert faces_as_sets(sub) == {frozenset(), frozenset({1}), frozenset({3})}


def test_full_subcomplex_requires_subset():
    with pytest.raises(ValueError):
        full_subcomplex(cycle(4), [1, 9])


def test_full_subcomplex_is_face_filtering():
    # against the defining property, over every subset of a small corpus
    corpus = [clique_complex(g) for g in all_graphs(4)]
    corpus += [square_partial_cone(), square_cone(), square_broken_cone()]
    for K in corpus:
        for size in range(K.m + 1):
            for sub in combinations(K.labels, size):
                expected = {f for f in faces_as_sets(K) if f <= set(sub)}
                assert faces_as_sets(full_subcomplex(K, sub)) == expected


def test_induced_subgraph_is_skeleton_of_full_subcomplex_exhaustive():
    for n in range(1, 6):
        for g in all_graphs(n):
            K = clique_complex(g)
            for mask in range(1 << n):
                expected = one_skeleton(full_subcomplex(K, K.labels_of(mask)))
                assert g.induced(mask) == expected


def test_universal_mask_matches_degree_count_exhaustive():
    for n in range(1, 6):
        for g in all_graphs(n):
            expected = sum(1 << i for i, a in enumerate(g.adj) if a.bit_count() == n - 1)
            assert g.universal_mask() == expected


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


def test_one_skeleton_shapes():
    assert one_skeleton(cycle(6)).edge_count() == 6
    assert one_skeleton(square_partial_cone()).edge_count() == 7
    assert one_skeleton(simplex(3)).edge_count() == 6


def test_is_flag_examples():
    assert is_flag(square_partial_cone())
    check = is_flag(square_broken_cone())
    assert not check and check.witness == (1, 4, 5)
    check = is_flag(cycle(3))
    assert not check and check.witness == (1, 2, 3)
    assert not is_flag(SimplicialComplex.from_facets(
        [[1, 2, 3], [1, 2, 4], [1, 3, 4], [2, 3, 4]], 4))  # boundary of a 3-simplex


def test_is_flag_matches_brute_force_missing_faces():
    # rebuilt from their faces, so that the level-by-level check runs rather
    # than the verdict that clique_complex sets
    corpus = [SimplicialComplex(K.labels, K.face_masks)
              for K in map(clique_complex, all_graphs(4))]
    corpus += [square_partial_cone(), square_broken_cone(), cycle(3), projective_plane()]
    for K in corpus:
        missing = brute_missing_faces(K)
        expect = all(len(f) == 2 for f in missing)
        check = is_flag(K)
        assert bool(check) == expect
        if not check:
            assert frozenset(check.witness) in set(missing)


def test_clique_complex_examples():
    g = one_skeleton(cycle(5))
    assert clique_complex(g) == cycle(5)
    k4 = Graph.from_edges(4, list(combinations(range(1, 5), 2)))
    assert clique_complex(k4) == simplex(3)
    partial = square_partial_cone()
    assert clique_complex(one_skeleton(partial)) == partial


def test_clique_complex_sets_a_flag_verdict_that_holds():
    for n in range(1, 6):
        for g in all_graphs(n):
            K = clique_complex(g)
            assert "flag_check" in vars(K) and K.flag_check
            assert all(len(f) == 2 for f in brute_missing_faces(K))
            assert SimplicialComplex(K.labels, K.face_masks).flag_check == K.flag_check


def test_facets_found_on_first_use(monkeypatch):
    calls = []
    maximal = simplicial._maximal_masks
    monkeypatch.setattr(simplicial, "_maximal_masks",
                        lambda faces, m: calls.append(m) or maximal(faces, m))
    K = clique_complex(one_skeleton(square_partial_cone()))
    same = SimplicialComplex.from_facets([[1, 2, 5], [2, 3, 5], [1, 4], [3, 4]], 5)
    assert calls == []
    assert K == same and hash(K) == hash(same)
    assert K.facets() == ((1, 4), (3, 4), (1, 2, 5), (2, 3, 5)) and calls == [5]
    assert K == same and hash(K) == hash(same)  # one has its facets, one not
    assert same.facet_masks == K.facet_masks and calls == [5, 5]


def test_clique_complex_budget():
    k5 = Graph.from_edges(5, list(combinations(range(1, 6), 2)))
    with pytest.raises(ValueError):
        clique_complex(k5, max_faces=10)


def test_flag_iff_clique_complex_of_skeleton():
    corpus = [clique_complex(g) for g in all_graphs(4)]
    corpus += [square_partial_cone(), square_cone(), square_broken_cone(), cycle(3)]
    for K in corpus:
        rebuilt = clique_complex(one_skeleton(K))
        assert (rebuilt == K) == bool(is_flag(K))


# -- chordality and induced cycles -------------------------------------------


def test_is_chordal_examples():
    for p in range(4, 9):
        check = is_chordal(one_skeleton(cycle(p)))
        assert not check
        assert check.witness == tuple(range(1, p + 1))
    assert is_chordal(Graph.from_edges(5, [(1, 2), (2, 3), (2, 4), (4, 5)]))  # tree
    assert is_chordal(Graph.from_edges(4, list(combinations(range(1, 5), 2))))
    check = is_chordal(one_skeleton(square_partial_cone()))
    assert not check and check.witness == (1, 2, 3, 4)


def test_chordless_cycle_found_only_when_read(monkeypatch):
    calls = []
    find_hole = simplicial._find_hole
    monkeypatch.setattr(simplicial, "_find_hole", lambda g: calls.append(g) or find_hole(g))
    check = is_chordal(one_skeleton(cycle(6)))
    assert not check and calls == []
    assert check.witness == tuple(range(1, 7)) and len(calls) == 1
    assert check.witness == tuple(range(1, 7)) and len(calls) == 1


def test_find_induced_cycles_examples():
    assert find_induced_cycles(one_skeleton(cycle(5))) == [(1, 2, 3, 4, 5)]
    assert find_induced_cycles(Graph.from_edges(4, [(1, 2), (2, 3), (3, 4)])) == []
    # the partial cone has two induced squares: 1-2-3-4 and 1-4-3-5 (the
    # second is what makes H_(-2,8) of its moment-angle complex have rank 2)
    assert find_induced_cycles(one_skeleton(square_partial_cone())) == [
        (1, 2, 3, 4),
        (1, 3, 4, 5),
    ]


def test_chordality_agrees_with_induced_cycle_scan_exhaustive():
    for n in range(1, 6):
        for g in all_graphs(n):
            check = is_chordal(g)
            holes = find_induced_cycles(g, 4)
            assert bool(check) == (not holes)
            if holes:
                assert check.witness in holes


def test_chordality_agrees_on_random_graphs():
    rng = random.Random(20240811)
    for n in (6, 7):
        pairs = list(combinations(range(1, n + 1), 2))
        for _ in range(200):
            edges = [e for e in pairs if rng.random() < 0.45]
            g = Graph.from_edges(n, edges)
            assert bool(is_chordal(g)) == (not find_induced_cycles(g, 4))


# -- star condition ----------------------------------------------------------


def test_star_condition_examples():
    got = classify_star_condition(cycle(5))
    assert got.matches and got.p == 5 and got.cone_vertices == ()
    got = classify_star_condition(square_cone())
    assert got.matches and got.p == 4 and got.cone_vertices == (5,)
    assert got.q == 0
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
    g = one_skeleton(K)
    with pytest.raises(AttributeError):
        g.adj = ()
