import tracemalloc
from itertools import combinations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import (
    all_flag_complexes,
    component_search_words,
    cycle,
    nested_commutator_text,
    simplex,
    square_cone,
    square_partial_cone,
    union_find_components,
    validate_word,
)
from macx import homology
from macx.classify import surface_genus
from macx.generators import ALGEBRA, GROUP, enumerate_generators, generator_count
from macx.homology import bigraded_homology_Z, homology_R
from macx.simplicial import SimplicialComplex, clique_complex


def assert_matches_component_search(K):
    """The walk against the per-subset component search: the (prefix, j, i)
    data, the rendered words of both kinds and the count."""
    expected = component_search_words(K)
    assert generator_count(K) == len(expected)
    gens = enumerate_generators(K)
    assert gens.count == len(gens.words) == len(expected)
    assert list(gens.words) == expected
    assert gens.rendered() == gens.rendered(GROUP)
    assert gens == enumerate_generators(K) and hash(gens) == hash(enumerate_generators(K))
    for kind in (GROUP, ALGEBRA):
        assert gens.rendered(kind) == [nested_commutator_text(*w, kind) for w in expected]


def test_counts_on_cycles():
    assert generator_count(cycle(5)) == 10
    assert generator_count(cycle(6)) == 34


def test_counts_on_simplices():
    for q in range(0, 4):
        assert generator_count(simplex(q)) == 0


def test_words_partial_cone():
    words = enumerate_generators(square_partial_cone())
    assert words.rendered(GROUP) == [
        "(g_3,g_1)",
        "(g_4,g_2)",
        "(g_5,g_4)",
        "(g_2,(g_5,g_4))",
    ]


def test_words_cone_algebra():
    words = enumerate_generators(square_cone())
    assert words.rendered(ALGEBRA) == ["[u_3,u_1]", "[u_4,u_2]"]


def test_words_square():
    words = enumerate_generators(cycle(4))
    assert words.rendered() == ["(g_3,g_1)", "(g_4,g_2)"]


def test_word_sequence_reads_like_a_list():
    """A word sequence keeps codes and renders when read: its length, single
    words by index from either end, slices, iteration, equality with lists
    either way round, and its repr, in both notations."""
    K = cycle(7, labels=range(8, 15))
    gens = enumerate_generators(K)
    for kind in (GROUP, ALGEBRA):
        words = gens.rendered(kind)
        expected = [nested_commutator_text(*w, kind) for w in component_search_words(K)]
        assert len(words) == len(expected) == 98
        assert [words[n] for n in (0, 5, 97, -1, -98)] == [expected[n] for n in (0, 5, 97, -1, -98)]
        assert words[3:9] == expected[3:9] and words[90:] == expected[90:] and words[:0] == []
        assert expected == words and list(words) == expected and words == gens.rendered(kind)
        assert words != expected[:-1] and words != tuple(expected)
        assert repr(words) == repr(expected)
        with pytest.raises(IndexError):
            words[98]


def test_word_shape_validation():
    """The oracle's index checks, each on a triple of C6 whose support leaves
    i's component without j, so that only an index check rejects it; and the
    renderer's kind check."""
    K = cycle(6)
    assert validate_word(K, ((2,), 5, 1))
    assert validate_word(K, ((2, 3), 5, 1))
    assert not validate_word(K, ((2,), 1, 5))      # j must exceed i
    assert not validate_word(K, ((4,), 3, 1))      # prefix beyond j
    assert not validate_word(K, ((3, 2), 5, 1))    # prefix out of order
    assert not validate_word(K, ((2, 2), 5, 1))    # prefix repeats
    assert not validate_word(K, ((1, 2), 5, 1))    # prefix collides with i
    with pytest.raises(ValueError, match="unknown word kind 'ring'"):
        enumerate_generators(cycle(4)).rendered("ring")


def test_count_matches_enumeration_exhaustively():
    for n in range(1, 6):
        for K in all_flag_complexes(n):
            assert_matches_component_search(K)


def test_walk_matches_component_search_on_six_vertex_classes():
    """Every graph on six vertices up to isomorphism, on labels 1..6 and on
    non-contiguous multi-digit labels."""
    nx = pytest.importorskip("networkx")
    graphs = [g for g in nx.graph_atlas_g() if g.number_of_nodes() == 6]
    assert len(graphs) == 156
    for labels in ((1, 2, 3, 4, 5, 6), (3, 10, 11, 27, 40, 99)):
        for g in graphs:
            edges = [(labels[u], labels[v]) for u, v in g.edges()]
            assert_matches_component_search(clique_complex(labels, edges))


def test_walk_on_multi_digit_labels():
    C = cycle(14, labels=range(10, 24))
    K = C.induced(C.mask_of([10, 11, 13, 14, 17, 20, 22, 23]))
    assert K.labels == (10, 11, 13, 14, 17, 20, 22, 23)
    assert enumerate_generators(K).rendered()[:3] == [
        "(g_13,g_10)", "(g_13,g_11)", "(g_11,(g_13,g_10))",
    ]
    assert_matches_component_search(K)


@st.composite
def complexes(draw, max_vertices=9):
    """Complexes on at most max_vertices vertices with labels drawn from
    1..40: arbitrary facet lists, mostly not flag, and clique complexes."""
    labels = draw(st.lists(st.integers(1, 40), min_size=1, max_size=max_vertices,
                           unique=True))
    if draw(st.booleans()):
        pairs = list(combinations(labels, 2))
        edges = draw(st.lists(st.sampled_from(pairs), max_size=len(pairs))) if pairs else []
        return clique_complex(labels, edges)
    facet = st.lists(st.sampled_from(labels), min_size=1, max_size=4, unique=True)
    return SimplicialComplex.from_facets(draw(st.lists(facet, max_size=12)), labels)


@settings(max_examples=150, deadline=None, database=None, derandomize=True)
@given(complexes())
def test_walk_matches_component_search_on_drawn_complexes(K):
    assert_matches_component_search(K)


def assert_count_is_rank_h1(K):
    """The word count against its homological reading: one word per (J,
    component of K_J without max J) is rank H_1(R_K) = sum_J rank H~_0(K_J)."""
    assert generator_count(K) == bigraded_homology_Z(K).R(1).free_rank


def test_count_is_rank_h1_on_graph_classes_up_to_six_vertices():
    nx = pytest.importorskip("networkx")
    graphs = [g for g in nx.graph_atlas_g() if 1 <= g.number_of_nodes() <= 6]
    assert len(graphs) == 208
    for g in graphs:
        edges = [(u + 1, v + 1) for u, v in g.edges()]
        assert_count_is_rank_h1(clique_complex(g.number_of_nodes(), edges))


@settings(max_examples=200, deadline=None, database=None, derandomize=True)
@given(complexes(max_vertices=8))
def test_count_is_rank_h1_on_drawn_complexes(K):
    assert_count_is_rank_h1(K)


def test_emitted_words_satisfy_side_conditions():
    corpus = [square_partial_cone(), square_cone(), cycle(6)]
    corpus += list(all_flag_complexes(4))
    for K in corpus:
        for word in enumerate_generators(K).words:
            assert validate_word(K, word)
            # independent component oracle on the word's support
            prefix, j, i = word
            support = sorted((*prefix, i, j))
            edges = [
                (u, v)
                for u, v in combinations(support, 2)
                if K.mask_of((u, v)) in K.face_masks
            ]
            comps = union_find_components(support, edges)
            comp_i = next(c for c in comps if i in c)
            assert j not in comp_i
            assert i == min(comp_i)


def test_zero_count_iff_h1_vanishes():
    for n in range(1, 5):
        for K in all_flag_complexes(n):
            rank_h1 = homology_R(K)[1].free_rank if K.dim >= 0 else 0
            assert (generator_count(K) == 0) == (rank_h1 == 0)


def test_cycle_counts_match_genus():
    for p in range(4, 9):
        assert generator_count(cycle(p)) == 2 * surface_genus(p)


def test_count_keeps_no_word_list():
    """generator_count walks the words without storing them: its traced
    allocation peak is below that of the enumeration by at least the
    enumeration's array of codes, 8 bytes a word."""
    K = cycle(16)

    def peak(fn):
        tracemalloc.start()
        try:
            result = fn(K)
            return tracemalloc.get_traced_memory()[1], result
        finally:
            tracemalloc.stop()

    enumerated, gens = peak(enumerate_generators)
    counted, count = peak(generator_count)
    assert count == gens.count == 2 * surface_genus(16)
    assert counted + 8 * count <= enumerated


def test_subset_walk_keeps_one_array(monkeypatch):
    """The homology walk keeps one 2^m-entry list: its traced allocation peak
    on a 16-cycle, with the memo cold and the complex's face and adjacency
    tables built, stays under 2 MB (a second list of edge codes per subset
    took it to about 4 MB)."""
    monkeypatch.setattr(homology, "_MEMO", {})
    K = cycle(16)
    K.sorted_face_masks, K.adjacency, K.missing_faces
    tracemalloc.start()
    try:
        entries = homology._per_subset_groups(K)
        walked = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert entries[14, 32] == homology.Z_GROUP  # H~_1 of the whole cycle
    assert walked <= 2_000_000
