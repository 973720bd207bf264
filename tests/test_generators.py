from itertools import combinations

import pytest

from conftest import (
    all_graphs,
    cycle,
    simplex,
    square_cone,
    square_partial_cone,
    union_find_components,
)
from macx.classify import surface_genus
from macx.generators import (
    ALGEBRA,
    GROUP,
    CommutatorWord,
    enumerate_generators,
    generator_count,
    render_word,
    validate_word,
)
from macx.homology import homology_R
from macx.simplicial import clique_complex


def test_counts_on_cycles():
    assert generator_count(cycle(5)) == 10
    assert generator_count(cycle(6)) == 34


def test_counts_on_simplices():
    for q in range(0, 4):
        assert generator_count(simplex(q)) == 0


def test_words_partial_cone():
    words = enumerate_generators(square_partial_cone(), GROUP)
    assert words.rendered() == [
        "(g_3,g_1)",
        "(g_4,g_2)",
        "(g_5,g_4)",
        "(g_2,(g_5,g_4))",
    ]


def test_words_cone_algebra():
    words = enumerate_generators(square_cone(), ALGEBRA)
    assert words.rendered() == ["[u_3,u_1]", "[u_4,u_2]"]


def test_words_square():
    words = enumerate_generators(cycle(4), GROUP)
    assert words.rendered() == ["(g_3,g_1)", "(g_4,g_2)"]


def test_render_word():
    assert render_word(CommutatorWord(GROUP, (2,), 5, 4)) == "(g_2,(g_5,g_4))"
    assert render_word(CommutatorWord(ALGEBRA, (), 3, 1)) == "[u_3,u_1]"
    assert render_word(CommutatorWord(GROUP, (), 2, 1)) == "(g_2,g_1)"
    assert render_word(CommutatorWord(ALGEBRA, (2, 3), 5, 1)) == "[u_2,[u_3,[u_5,u_1]]]"
    assert CommutatorWord(GROUP, (2,), 5, 4).render(ALGEBRA) == "[u_2,[u_5,u_4]]"
    assert CommutatorWord(ALGEBRA, (2,), 5, 4).render(GROUP) == "(g_2,(g_5,g_4))"


def test_word_shape_validation():
    with pytest.raises(ValueError):
        CommutatorWord(GROUP, (), 1, 2)       # j must exceed i
    with pytest.raises(ValueError):
        CommutatorWord(GROUP, (5,), 4, 1)     # prefix beyond j
    with pytest.raises(ValueError):
        CommutatorWord(GROUP, (1,), 4, 1)     # prefix collides with i
    with pytest.raises(ValueError):
        CommutatorWord("ring", (), 2, 1)


def test_count_matches_enumeration_exhaustively():
    for n in range(1, 6):
        for g in all_graphs(n):
            K = clique_complex(g)
            count = generator_count(K)
            group_words = enumerate_generators(K, GROUP)
            algebra_words = enumerate_generators(K, ALGEBRA)
            assert group_words.count == count
            assert algebra_words.count == count
            assert [(w.prefix, w.j, w.i) for w in group_words.words] == \
                [(w.prefix, w.j, w.i) for w in algebra_words.words]
            assert group_words.rendered(ALGEBRA) == algebra_words.rendered()
            assert algebra_words.rendered(GROUP) == group_words.rendered()


def test_emitted_words_satisfy_side_conditions():
    corpus = [square_partial_cone(), square_cone(), cycle(6)]
    corpus += [clique_complex(g) for g in all_graphs(4)]
    for K in corpus:
        for word in enumerate_generators(K, GROUP).words:
            assert validate_word(K, word)
            # independent component oracle on the word's support
            support = word.support
            edges = [
                (u, v)
                for u, v in combinations(support, 2)
                if K.has_face((u, v))
            ]
            comps = union_find_components(support, edges)
            comp_i = next(c for c in comps if word.i in c)
            assert word.j not in comp_i
            assert word.i == min(comp_i)


def test_zero_count_iff_h1_vanishes():
    for n in range(1, 5):
        for g in all_graphs(n):
            K = clique_complex(g)
            rank_h1 = homology_R(K)[1].free_rank if K.dim >= 0 else 0
            assert (generator_count(K) == 0) == (rank_h1 == 0)


def test_cycle_counts_match_genus():
    for p in range(4, 9):
        assert generator_count(cycle(p)) == 2 * surface_genus(p)
