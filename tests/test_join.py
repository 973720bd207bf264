"""The join split of the subset walks: ``join_factors`` against face counts,
the Milnor join arithmetic, and the factored R and Z tables and generator
word codes against the walks over the whole complex."""

import sys
from itertools import combinations
from math import comb

from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import (
    all_flag_complexes,
    class_flag_complexes,
    cycle,
    join,
    projective_plane,
    square_broken_cone,
)
from macx import generators, homology
from macx.homology import HomologyGroup, homology_R_and_Z, reduced_homology
from macx.simplicial import (
    SimplicialComplex,
    classify_star_condition,
    clique_complex,
    join_factors,
)


def joined(*parts):
    """The join of the parts, on labels 1..(total vertex count) in order."""
    K = SimplicialComplex.from_facets([], 0)
    for L in parts:
        shift = K.m + 1 - min(L.labels)
        K = join(K, SimplicialComplex.from_facets(
            [[v + shift for v in f] for f in L.facets()], [v + shift for v in L.labels]))
    return K


def two_points():
    return SimplicialComplex.from_facets([], 2)


def point():
    return SimplicialComplex.from_facets([[1]], 1)


def cross_polytope(k):
    """The boundary of the cross-polytope on 2k vertices, the join of k S^0."""
    return joined(*[two_points()] * k)


def rp2_join_rp2():
    return joined(projective_plane(), projective_plane())


def unfactored(K):
    """H_*(R_K) and the bigraded entries of H(Z_K) from one walk over all the
    subsets of K, with no join split."""
    tally = homology._per_subset_groups(K)
    return homology._assemble_R(K, tally), homology._assemble_Z(K, tally).entries


def assert_matches_unfactored(K):
    groups, table = homology_R_and_Z(K)
    assert (groups, table.entries) == unfactored(K), K
    unsplit = generators._factor_codes(K.adjacency, list(range(K.m)), K.m) if K.m else []
    assert list(generators._word_codes(K)) == list(unsplit), K


# -- join_factors ---------------------------------------------------------------


def face_count(K, mask):
    return sum(1 for f in K.face_masks if not f & ~mask)


def assert_factors_match_face_counts(K):
    """A | B splits K exactly when #faces(K) = #faces(K_A) #faces(K_B); the
    splits are then exactly the unions of the factors."""
    factors = join_factors(K)
    assert sorted(factors, key=lambda f: f & -f) == list(factors)
    assert sum(factors) == K.full_mask and all(factors)
    assert all(not a & b for a, b in combinations(factors, 2))
    unions = {sum(part) for r in range(len(factors) + 1) for part in combinations(factors, r)}
    total = len(K.face_masks)
    for A in range(K.full_mask + 1):
        splits = face_count(K, A) * face_count(K, K.full_mask ^ A) == total
        assert splits == (A in unions), (K, A)


def test_join_factors_on_every_flag_complex_up_to_five_vertices():
    for n in range(1, 6):
        for K in all_flag_complexes(n):
            assert_factors_match_face_counts(K)


@st.composite
def complexes(draw, max_m=8):
    """Complexes on 1..max_m vertices: arbitrary facet lists, mostly not flag."""
    m = draw(st.integers(1, max_m))
    facet = st.lists(st.integers(1, m), min_size=1, max_size=min(m, 5), unique=True)
    return SimplicialComplex.from_facets(draw(st.lists(facet, max_size=10)), m)


@settings(max_examples=100, deadline=None, database=None, derandomize=True)
@given(complexes())
def test_join_factors_on_drawn_complexes(K):
    assert_factors_match_face_counts(K)


def test_join_factors_of_known_joins():
    assert join_factors(SimplicialComplex.from_facets([], 0)) == ()
    assert join_factors(point()) == (1,)
    assert join_factors(cycle(5)) == (0b11111,)
    assert join_factors(cycle(4)) == (0b0101, 0b1010)
    assert join_factors(cross_polytope(3)) == (0b11, 0b1100, 0b110000)
    assert join_factors(joined(cycle(13), point())) == ((1 << 13) - 1, 1 << 13)
    # RP^2_6 is not flag; its minimal non-faces of three vertices tie it up
    assert join_factors(rp2_join_rp2()) == (0b111111, 0b111111 << 6)
    # {1, 4, 5} is a missing face: it ties the apex 5 to the square
    assert join_factors(square_broken_cone()) == (0b11111,)
    cone = SimplicialComplex.from_facets([[1, 2, 3], [1, 4], [1, 5]], 5)
    assert join_factors(cone) == (0b1, 0b11110)


def test_singleton_factors_are_the_cone_vertices():
    corpus = [K for n in range(1, 6) for K in all_flag_complexes(n)]
    corpus += list(class_flag_complexes(6))
    matches = 0
    for K in corpus:
        singles = sum(f for f in join_factors(K) if f.bit_count() == 1)
        # the universal vertices, by degree count
        assert singles == sum(1 << v for v, a in enumerate(K.adjacency)
                              if a.bit_count() == K.m - 1)
        star = classify_star_condition(K)
        if star:
            matches += 1
            assert K.labels_of(singles) == star.cone_vertices
            # C_4 is S^0 * S^0; longer cycles do not split
            cycle_factors = 2 if star.p == 4 else 1
            assert len(join_factors(K)) == cycle_factors + len(star.cone_vertices)
    assert matches > 0


def test_induced_keeps_labels_faces_and_flag_verdict():
    K = joined(cycle(5), projective_plane())
    A, B = join_factors(K)
    KA, KB = K.induced(A), K.induced(B)
    assert KA.labels == (1, 2, 3, 4, 5) and KB.labels == (6, 7, 8, 9, 10, 11)
    assert KA.face_masks == cycle(5).face_masks
    assert KB.face_masks == projective_plane().face_masks
    assert KA.flag_check and not KB.flag_check
    L = clique_complex(4, [(1, 2), (2, 3), (3, 4)])
    assert "flag_check" in vars(L.induced(0b0101))  # passed on, not recomputed


# -- the join arithmetic ---------------------------------------------------------


def G(free=0, *torsion):
    return HomologyGroup.from_divisors(free, torsion)


def test_join_groups_tensor_and_tor():
    join_groups = homology._join_groups
    # Z/4 (x) Z/6 = Tor(Z/4, Z/6) = Z/2, in degrees 0 + 0 + 1 and 0 + 0 + 2
    assert join_groups((G(0, 4),), (G(0, 6),)) == (G(), G(0, 2), G(0, 2))
    assert join_groups((G(0, 2),), (G(0, 3),)) == ()
    # so a pair of subsets with coprime torsion adds no entry to the joined tally
    xs, ys = (G(), G(0, 2)), (G(), G(0, 3))
    assert join_groups(xs, ys) == ()
    assert homology._join_tallies({(3, xs): 2}, {(4, ys): 5}) == {(3, xs): 2, (4, ys): 5}
    assert join_groups((G(1),), (G(0, 3),)) == (G(), G(0, 3))
    assert join_groups((G(2),), (G(3),)) == (G(), G(6))
    assert join_groups((G(1, 2),), (G(0, 2),)) == (G(), G(0, 2, 2), G(0, 2))
    # S^1 * S^2 = S^4, and trailing zero groups are dropped
    assert join_groups((G(), G(1)), (G(), G(), G(1), G())) == (G(),) * 4 + (G(1),)
    # RP^2 * RP^2: Z/2 (x) Z/2 in degree 3, Tor in degree 4
    rp2 = tuple(reduced_homology(projective_plane()))
    assert join_groups(rp2, rp2) == (G(), G(), G(), G(0, 2), G(0, 2))


@settings(max_examples=60, deadline=None, database=None, derandomize=True)
@given(complexes(max_m=5), complexes(max_m=5))
def test_join_groups_match_homology_of_the_joined_complex(X, Y):
    expected = list(reduced_homology(joined(X, Y)))
    while expected and expected[-1].is_zero:
        expected.pop()
    got = homology._join_groups(tuple(reduced_homology(X)), tuple(reduced_homology(Y)))
    assert got == tuple(expected)


# -- factored tables against the unfactored walk ------------------------------------


def test_factored_tables_on_all_graph_classes_up_to_six_vertices():
    joins = 0
    for n in range(1, 7):
        for K in class_flag_complexes(n):
            joins += len(join_factors(K)) > 1
            assert_matches_unfactored(K)
    assert joins == 65


@settings(max_examples=60, deadline=None, database=None, derandomize=True)
@given(st.lists(complexes(max_m=4), min_size=2, max_size=3))
def test_factored_tables_on_drawn_joins(parts):
    K = joined(*parts)
    assert len(join_factors(K)) >= len(parts)
    assert_matches_unfactored(K)


def test_rp2_join_rp2_torsion_from_tensor_and_tor():
    K = rp2_join_rp2()
    assert_matches_unfactored(K)
    groups, table = homology_R_and_Z(K)
    # the whole vertex set: Z/2 in H~_3 from (x), at i = 12 - 3 - 1, and Z/2
    # in H~_4 from Tor, at i = 12 - 4 - 1
    assert table.entry(8, 24) == G(0, 2)
    assert table.entry(7, 24) == G(0, 2)
    assert any(g.torsion for g in groups)


def test_cross_polytope_boundaries():
    for k in range(1, 9):
        K = cross_polytope(k)
        groups, table = homology_R_and_Z(K)
        # R_K is the k-torus and Z_K the product of k three-spheres
        assert groups == [HomologyGroup(comb(k, i)) for i in range(k + 1)]
        assert table.entries == {(l, 4 * l): HomologyGroup(comb(k, l)) for l in range(k + 1)}
        if k <= 5:
            assert_matches_unfactored(K)


# -- walk-count guard -----------------------------------------------------------------


def subsets_walked(monkeypatch, K):
    """Subsets walked for K's homology, counted as the benchmark's tracer
    counts them: the walk is wrapped in every macx namespace that holds it,
    and each call adds 2^m - 1 from the complex it is given."""
    walk = homology._per_subset_groups
    walked = []

    def wrapper(L):
        walked.append((1 << L.m) - 1)
        return walk(L)

    for name, module in list(sys.modules.items()):
        if name == "macx" or name.startswith("macx."):
            for key, value in list(vars(module).items()):
                if value is walk:
                    monkeypatch.setattr(module, key, wrapper)
    homology_R_and_Z(K)
    monkeypatch.undo()
    return sum(walked)


def test_generator_walk_count_is_the_sum_over_join_factors(monkeypatch):
    """The generator walk visits the subsets of each join factor of two or
    more vertices, not the 2^m - 1 of the whole join."""
    walk = generators._factor_codes

    def walked(K):
        counts = []

        def wrapper(adjacency, positions, m):
            counts.append((1 << len(positions)) - 1)
            return walk(adjacency, positions, m)

        monkeypatch.setattr(generators, "_factor_codes", wrapper)
        words = generators.generator_count(K)
        monkeypatch.undo()
        return sum(counts), words

    assert walked(joined(cycle(13), point())) == (2 ** 13 - 1, 18434)
    assert walked(cross_polytope(6)) == (6 * 3, 6)
    assert walked(joined(projective_plane(), cycle(6))) == (2 * (2 ** 6 - 1), 34)
    assert walked(cycle(7)) == (2 ** 7 - 1, 98)


def test_walk_count_is_the_sum_over_join_factors(monkeypatch):
    cone_c13 = joined(cycle(13), point())
    assert subsets_walked(monkeypatch, cone_c13) == 2 ** 13 - 1
    rp2_join_c6 = joined(projective_plane(), cycle(6))
    assert subsets_walked(monkeypatch, rp2_join_c6) == 2 * (2 ** 6 - 1)
    assert subsets_walked(monkeypatch, cross_polytope(8)) == 24
    assert subsets_walked(monkeypatch, cycle(7)) == 2 ** 7 - 1
