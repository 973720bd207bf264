"""The join split of the subset walks: ``join_factors`` against face counts,
the Kuenneth product of bigraded tables, and the factored tables and
generator word codes against the walks over the whole complex."""

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
from macx.homology import BigradedTable, HomologyGroup, bigraded_homology_Z
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
    """The bigraded table of H(Z_K) from one walk over all the subsets of K,
    with no join split."""
    return BigradedTable(homology._per_subset_groups(K), K.dim)


def assert_matches_unfactored(K):
    assert bigraded_homology_Z(K) == unfactored(K), K
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
    # the missing faces are handed down, not searched for again
    assert vars(KA)["missing_faces"] == ()
    assert set(vars(KB)["missing_faces"]) == set(projective_plane().missing_faces) != set()
    L = clique_complex(4, [(1, 2), (2, 3), (3, 4)])
    assert vars(L.induced(0b0101))["missing_faces"] == ()


# -- the Kuenneth product of tables ------------------------------------------------


def G(free=0, *torsion):
    return HomologyGroup.from_divisors(free, torsion)


def unit_and(*entries):
    """The entries of a table: the empty subset's Z at (0, 0), then the
    given (place, group) pairs."""
    return {(0, 0): G(1), **dict(entries)}


def test_product_tensor_and_tor():
    product = homology._product
    x, y = unit_and(((4, 12), G(0, 4))), unit_and(((4, 12), G(0, 6)))
    # Z/4 (x) Z/6 = Tor(Z/4, Z/6) = Z/2, at (4 + 4, 24) and one total degree
    # higher, at (4 + 4 - 1, 24); each factor's entry is kept by the other's Z
    assert product(x, y) == {(0, 0): G(1), (4, 12): G(0, 4, 6),
                             (8, 24): G(0, 2), (7, 24): G(0, 2)}
    # coprime torsion: both products vanish, and no zero entry is kept
    assert product(unit_and(((4, 12), G(0, 2))), unit_and(((5, 14), G(0, 3)))) == {
        (0, 0): G(1), (4, 12): G(0, 2), (5, 14): G(0, 3)}
    assert product(unit_and(((1, 4), G(1))), unit_and(((4, 12), G(0, 3))))[5, 16] == G(0, 3)
    assert product(unit_and(((1, 4), G(2))), unit_and(((1, 4), G(3))))[2, 8] == G(6)
    both = product(unit_and(((1, 4), G(1, 2))), unit_and(((4, 12), G(0, 2))))
    assert (both[5, 16], both[4, 16]) == (G(0, 2, 2), G(0, 2))
    # the unit table is the identity, on either side
    assert product(unit_and(), x) == x == product(x, unit_and())
    # S^0 * S^0 = C_4: Z_K of two points is S^3, and S^3 x S^3 is Z_{C_4}
    s0 = unit_and(((1, 4), G(1)))
    assert product(s0, s0) == {(0, 0): G(1), (1, 4): G(2), (2, 8): G(1)}
    assert product(s0, s0) == bigraded_homology_Z(cycle(4)).entries


@settings(max_examples=60, deadline=None, database=None, derandomize=True)
@given(complexes(max_m=5), complexes(max_m=5))
def test_product_matches_the_table_of_the_joined_complex(X, Y):
    got = homology._product(unfactored(X).entries, unfactored(Y).entries)
    assert got == unfactored(joined(X, Y)).entries


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
    table = bigraded_homology_Z(K)
    # the whole vertex set: Z/2 in H~_3 from (x), at i = 12 - 3 - 1, and Z/2
    # in H~_4 from Tor, at i = 12 - 4 - 1
    assert table.entry(8, 24) == G(0, 2)
    assert table.entry(7, 24) == G(0, 2)
    # in H_*(R_K) the Tor entry stands alone: (7, 24) is the only entry at j - i = 5
    assert table.R(5) == G(0, 2) and table.R(2) == G(62, 2, 2)


def test_cross_polytope_boundaries():
    for k in range(1, 9):
        K = cross_polytope(k)
        table = bigraded_homology_Z(K)
        # R_K is the k-torus and Z_K the product of k three-spheres
        assert table.homology_R() == [HomologyGroup(comb(k, i)) for i in range(k + 1)]
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
    bigraded_homology_Z(K)
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
