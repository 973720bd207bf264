import random

import pytest

from conftest import (
    IntMatrix,
    all_flag_complexes,
    cycle,
    join,
    simplex,
    smith_normal_form,
    square_broken_cone,
    square_cone,
    square_partial_cone,
)
from macx import classify
from macx.classify import (
    NonFlagError,
    RelatorWord,
    build_report,
    minimally_non_golod_flag,
    one_relator_algebra_homological,
    one_relator_group_homological,
    surface_genus,
    vanishing_check,
    y_space_homology,
)
from macx.homology import BigradedTable, HomologyGroup, bigraded_homology_Z, homology_R
from macx.simplicial import (
    SimplicialComplex,
    clique_complex,
    is_chordal,
    classify_star_condition,
)

Z = HomologyGroup(1)
ZERO = HomologyGroup()


def tree_complex():
    return clique_complex(5, [(1, 2), (2, 3), (3, 4), (3, 5)])


def cone_join(p, q):
    apex_labels = list(range(p + 1, p + q + 2))
    apex = SimplicialComplex.from_facets([apex_labels], apex_labels)
    return join(cycle(p), apex)


def test_free_commutator_group():
    # for flag K the commutator subgroup is free exactly when K is chordal
    assert is_chordal(tree_complex())
    assert not is_chordal(cycle(4))
    assert not is_chordal(square_cone())


def test_one_relator_group_routes():
    assert classify_star_condition(square_cone())
    assert not classify_star_condition(square_partial_cone())
    assert not classify_star_condition(simplex(3))
    for K, verdict in [(square_cone(), True), (square_partial_cone(), False), (cycle(6), True)]:
        assert one_relator_group_homological(K, bigraded_homology_Z(K)) == verdict
    # the verdict reads the table it is handed: H_2(R_K) = Z^2 at j - i = 2
    table = BigradedTable({(0, 0): Z, (1, 6): HomologyGroup(2)}, 2)
    assert not one_relator_group_homological(square_cone(), table)


def test_one_relator_algebra_route():
    for K, verdict in [(cycle(5), True), (square_partial_cone(), False),
                       *((simplex(q), False) for q in range(0, 3))]:
        assert one_relator_algebra_homological(K, bigraded_homology_Z(K)) == verdict
    assert not one_relator_algebra_homological(cycle(5), BigradedTable({}, 1))


def test_classifiers_reject_non_flag():
    bad = square_broken_cone()
    table = bigraded_homology_Z(bad)
    for call in [
        lambda: one_relator_group_homological(bad, table),
        lambda: one_relator_algebra_homological(bad, table),
        lambda: minimally_non_golod_flag(bad),
    ]:
        with pytest.raises(NonFlagError):
            call()


def test_vanishing_check():
    for K in [cycle(4), cycle(7), cone_join(5, 1)]:
        assert vanishing_check(K, bigraded_homology_Z(K))
    table = bigraded_homology_Z(cycle(4))
    # an entry at j - i = 3, which is also a nonzero H_3(R_K)
    raised = BigradedTable({**table.entries, (1, 8): Z}, table.dim)
    assert raised.R(3) == Z and not vanishing_check(cycle(4), raised)
    with pytest.raises(ValueError):
        vanishing_check(square_partial_cone(), bigraded_homology_Z(square_partial_cone()))


def test_golod_and_minimally_non_golod():
    # Golodness of a flag complex is freeness of the commutator subgroup
    for p in range(4, 8):
        assert not is_chordal(cycle(p))
        assert minimally_non_golod_flag(cycle(p))
    assert not is_chordal(square_partial_cone())
    # deleting vertex 5 of the partial cone leaves a chordless square
    assert not minimally_non_golod_flag(square_partial_cone())
    # a cone over a cycle is one-relator but not minimally non-Golod itself
    assert classify_star_condition(square_cone())
    assert not minimally_non_golod_flag(square_cone())
    assert is_chordal(tree_complex())
    assert not minimally_non_golod_flag(tree_complex())


def test_minimally_non_golod_matches_vertex_deletion_exhaustive():
    # the definition, rebuilding the full subcomplex for each deleted vertex
    def by_deletion(K):
        if is_chordal(K):
            return False
        return all(
            is_chordal(K.induced(K.mask_of([u for u in K.labels if u != v])))
            for v in K.labels
        )

    for n in range(1, 6):
        for K in all_flag_complexes(n):
            assert minimally_non_golod_flag(K) == by_deletion(K)


def test_surface_genus():
    assert [surface_genus(p) for p in (4, 5, 6)] == [1, 5, 17]
    with pytest.raises(ValueError):
        surface_genus(3)


def test_genus_euler_relation():
    for p in range(4, 9):
        groups = homology_R(cycle(p))
        chi = sum((-1) ** k * g.free_rank for k, g in enumerate(groups))
        assert chi == 2 - 2 * surface_genus(p)


# -- relator words and presentation complexes ----------------------------------


def test_relator_word_validation():
    with pytest.raises(ValueError):
        RelatorWord(((1, 1), (1, -1)))   # not freely reduced
    with pytest.raises(ValueError):
        RelatorWord(((0, 1),))
    with pytest.raises(ValueError):
        RelatorWord(((1, 2),))
    word = RelatorWord.from_ints([1, 2, -1, -2])
    assert str(word) == "x1 x2 x1^-1 x2^-1"
    assert RelatorWord.from_ints([1, 1]).letters == ((1, 1), (1, 1))
    with pytest.raises(ValueError, match="letter 0 is not a generator"):
        RelatorWord.from_ints([0])


def test_y_space_commutator_relator():
    word = RelatorWord.from_ints([1, 2, -1, -2])
    assert y_space_homology(2, word) == [Z, HomologyGroup(2), Z]
    # a basis far larger than the word: no list of length l is built
    assert y_space_homology(10 ** 9, word) == [Z, HomologyGroup(10 ** 9), Z]


def test_y_space_disc():
    word = RelatorWord.from_ints([1])
    assert y_space_homology(1, word) == [Z, ZERO, ZERO]


def test_y_space_square_relator():
    word = RelatorWord.from_ints([1, 1])
    assert y_space_homology(2, word) == [Z, HomologyGroup(1, (2,)), ZERO]
    word = RelatorWord.from_ints([3, 7, 3, -7])
    assert y_space_homology(10 ** 9, word) == [Z, HomologyGroup(10 ** 9 - 1, (2,)), ZERO]


def test_y_space_against_dense_smith_form():
    # H_1 is the cokernel of the 1 x l row of exponent sums, H_2 its kernel
    rng = random.Random(8)
    for _ in range(200):
        l = rng.randint(1, 4)
        letters = [rng.choice((1, -1)) * rng.randint(1, l) for _ in range(rng.randint(1, 12))]
        if any(a == -b for a, b in zip(letters, letters[1:])):
            continue  # not freely reduced
        word = RelatorWord.from_ints(letters)
        sums = [0] * l
        for idx, exp in word.letters:
            sums[idx - 1] += exp
        diag, rank = smith_normal_form(IntMatrix.from_rows([sums]))
        assert y_space_homology(l, word) == [
            Z, HomologyGroup.from_divisors(l - rank, [d for d in diag if d > 1]),
            HomologyGroup(1 - rank)]


def test_y_space_rejects_bad_input():
    with pytest.raises(ValueError):
        y_space_homology(0, RelatorWord.from_ints([1]))
    with pytest.raises(ValueError):
        y_space_homology(1, RelatorWord.from_ints([2]))


# -- aggregate report -----------------------------------------------------------


def test_build_report_flag_case():
    report = build_report(square_cone(), bigraded_homology_Z(square_cone()))
    assert report["flag"] and not report["chordal"]
    assert report["star_condition"] == {
        "matches": True, "p": 4, "cone_vertices": [5], "reason": None}
    assert report["one_relator_group"] and report["one_relator_algebra"]
    assert report["free_group"] is False
    assert report["genus"] == 1
    assert report["witnesses"] == {
        "chordless_cycle": [1, 2, 3, 4],
        "h2_R": "Z",
        "one_relator_group_homological": True,
        "one_relator_algebra_homological": True,
    }


def test_build_report_consistency_invariants():
    for K in [cycle(5), square_cone(), square_partial_cone(), simplex(2), tree_complex()]:
        report = build_report(K, bigraded_homology_Z(K))
        assert report["free_group"] == report["golod"] == report["chordal"]
        assert report["free_group"] == bool(is_chordal(K))
        if report["one_relator_group"]:
            assert not report["free_group"]
        assert report["one_relator_group"] == report["one_relator_algebra"]
        assert report["one_relator_group"] == report["star_condition"]["matches"]
        assert report["minimally_non_golod"] == minimally_non_golod_flag(K)


def test_build_report_non_flag():
    report = build_report(square_broken_cone(), bigraded_homology_Z(square_broken_cone()))
    assert not report["flag"]
    for key in ("free_group", "one_relator_group", "one_relator_algebra",
                "golod", "minimally_non_golod", "genus"):
        assert report[key] is None
    assert report["witnesses"]["missing_face"] == [1, 4, 5]
