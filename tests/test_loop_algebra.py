import pytest

from conftest import brute_count_words, series_by_recurrence
from macx import loop_algebra
from macx.loop_algebra import (
    FreeDGAlgebra,
    GradedSeries,
    SphereProductSum,
    adams_hilton_model,
    dga_homology_ranks,
    differs_from_single_relation_series,
    free_algebra_series,
    mcgavran,
    poincare_series_closed,
    quotient_series,
    rank_oracle_monomials,
)


def test_mcgavran_small_cycles():
    m4 = mcgavran(4)
    assert (m4.d, m4.pairs) == (6, (3,))
    m5 = mcgavran(5)
    assert (m5.d, m5.pairs) == (7, (3, 3, 3, 4, 4))
    assert m5.k == 5
    m6 = mcgavran(6)
    assert m6.d == 8
    assert sorted(m6.pairs) == [3] * 6 + [4] * 8 + [5] * 3
    assert m6.k == 17 and 2 * m6.k == 34


def test_mcgavran_rejects_short_cycles():
    with pytest.raises(ValueError):
        mcgavran(3)


def test_mcgavran_summand_bound():
    # (p-4) * 2^(p-3) + 1 summands: p = 20 fits the bound, p = 21 does not,
    # and a huge p is refused before anything of its size is built
    assert mcgavran(20).k == 16 * 2 ** 17 + 1 <= loop_algebra.MAX_SUMMANDS
    for p in (21, 40, 10 ** 9):
        with pytest.raises(ValueError, match="sphere-product summands"):
            mcgavran(p)


def test_sphere_product_validation():
    with pytest.raises(ValueError):
        SphereProductSum(3, (2,))
    with pytest.raises(ValueError):
        SphereProductSum(6, (5,))
    M = SphereProductSum(7, (3, 4))
    assert M.generator_degrees() == [2, 3, 3, 2]


def test_connected_sum_betti():
    assert mcgavran(4).betti() == [1, 0, 0, 2, 0, 0, 1]
    assert mcgavran(5).betti() == [1, 0, 0, 5, 5, 0, 0, 1]
    assert mcgavran(6).betti() == [1, 0, 0, 9, 16, 9, 0, 0, 1]


def test_graded_series_interface():
    s = GradedSeries((1, 0, 2))
    assert s.truncation == 2 and len(s) == 3 and s[2] == 2
    assert s.prefix(1) == (1, 0)
    with pytest.raises(ValueError):
        s.prefix(5)


def test_closed_series_single_product():
    # 1/(1 - 2t^2 + t^4) = 1/(1-t^2)^2
    series = poincare_series_closed(mcgavran(4), 14)
    assert series.coefficients == (1, 0, 2, 0, 3, 0, 4, 0, 5, 0, 6, 0, 7, 0, 8)


def test_closed_series_five_cycle_prefix():
    series = poincare_series_closed(mcgavran(5), 5)
    assert series.coefficients == (1, 0, 5, 5, 25, 49)


def test_closed_series_rejects_empty_sum():
    with pytest.raises(ValueError):
        poincare_series_closed(SphereProductSum(6, ()), 5)


def test_closed_series_matches_recurrence():
    for M, n in [(mcgavran(4), 16), (mcgavran(5), 12), (mcgavran(6), 10),
                 (SphereProductSum(5, (2,)), 12)]:
        expected = series_by_recurrence(M.d, M.pairs, n)
        assert list(poincare_series_closed(M, n).coefficients) == expected


def test_monomial_oracle_agrees_with_closed_form():
    for M, n in [(mcgavran(4), 14), (mcgavran(5), 10), (mcgavran(6), 8),
                 (SphereProductSum(4, (2,)), 10), (SphereProductSum(7, (3, 4)), 10)]:
        assert rank_oracle_monomials(M, n).coefficients == \
            poincare_series_closed(M, n).coefficients


def test_monomial_oracle_agrees_with_closed_form_on_a_long_cycle():
    """The oracle's work grows with the truncation and the number of letter
    weights, not with the 2k letters: a 16-cycle has 98,305 summands."""
    M = mcgavran(16)
    assert rank_oracle_monomials(M, 200).coefficients == \
        poincare_series_closed(M, 200).coefficients
    assert rank_oracle_monomials(M, 60, special_pair=M.k - 1).coefficients == \
        poincare_series_closed(M, 60).coefficients


def test_monomial_oracle_matches_brute_enumeration():
    for M, n in [(mcgavran(4), 10), (SphereProductSum(6, (2, 3)), 8)]:
        weights = []
        for di in M.pairs:
            weights.extend((di - 1, M.d - di - 1))
        brute = brute_count_words(tuple(weights), (0, 1), n)
        assert list(rank_oracle_monomials(M, n).coefficients) == brute


def test_monomial_oracle_designation_independence():
    M = mcgavran(5)
    base = rank_oracle_monomials(M, 8).coefficients
    for pair in range(M.k):
        assert rank_oracle_monomials(M, 8, special_pair=pair).coefficients == base


# -- dg algebra models ----------------------------------------------------------


def test_model_structure_even_degrees():
    A = adams_hilton_model(mcgavran(4))
    assert A.generators == (("a1", 2), ("b1", 2), ("z", 5))
    # deg a * deg b even, so the commutator is a difference
    assert A.differentials["z"] == {("a1", "b1"): 1, ("b1", "a1"): -1}


def test_model_structure_mixed_degrees():
    A = adams_hilton_model(SphereProductSum(7, (3,)))
    assert dict(A.generators) == {"a1": 2, "b1": 3, "z": 6}
    assert A.differentials["z"] == {("a1", "b1"): 1, ("b1", "a1"): -1}


def test_model_structure_odd_degrees():
    # deg a = deg b = 1 is impossible here (d_i >= 2), but 3 and 3 occur in
    # d = 8: odd times odd, so the commutator is a sum
    A = adams_hilton_model(SphereProductSum(8, (4,)))
    assert A.differentials["z"] == {("a1", "b1"): 1, ("b1", "a1"): 1}


def test_model_degree_bookkeeping():
    for M in [mcgavran(4), mcgavran(5), SphereProductSum(7, (3, 4))]:
        A = adams_hilton_model(M, half_smash=True)
        degrees = dict(A.generators)
        for idx in range(1, M.k + 1):
            assert degrees["z"] == degrees[f"a{idx}"] + degrees[f"b{idx}"] + 1
        assert degrees["w"] == degrees["z"] + 1


def test_half_smash_model():
    A = adams_hilton_model(mcgavran(4), half_smash=True)
    assert dict(A.generators) == {"a1": 2, "b1": 2, "x1": 3, "y1": 3, "z": 5, "w": 6}
    assert A.differentials["w"] == {
        ("a1", "y1"): 1, ("y1", "a1"): -1,
        ("x1", "b1"): 1, ("b1", "x1"): -1,
    }


def test_differential_squares_to_zero():
    for M in [mcgavran(4), mcgavran(5), SphereProductSum(7, (3, 4))]:
        assert adams_hilton_model(M).dd_is_zero()
        assert adams_hilton_model(M, half_smash=True).dd_is_zero()


def test_leibniz_extension_signs():
    A = adams_hilton_model(mcgavran(4))
    # d(z z) = d(z) z + (-1)^(deg z) z d(z), deg z odd
    dzz = A.diff_word(("z", "z"))
    assert dzz[("a1", "b1", "z")] == 1
    assert dzz[("b1", "a1", "z")] == -1
    assert dzz[("z", "a1", "b1")] == -1
    assert dzz[("z", "b1", "a1")] == 1


def test_dga_validation():
    with pytest.raises(ValueError):
        FreeDGAlgebra((("a", 2), ("z", 5)), {"z": {("a",): 1}})  # drops degree by 3
    with pytest.raises(ValueError):
        FreeDGAlgebra((("a", 2), ("a", 3)), {})
    with pytest.raises(ValueError):
        FreeDGAlgebra((("a", 0),), {})


def test_dga_homology_matches_closed_series():
    # the honest SNF route against the closed form, on both shapes of alphabet
    cases = [
        (SphereProductSum(4, (2,)), 8),
        (SphereProductSum(5, (2,)), 8),
        (SphereProductSum(6, (3,)), 10),
        (SphereProductSum(7, (3,)), 10),
    ]
    for M, n in cases:
        result = dga_homology_ranks(adams_hilton_model(M), n)
        assert result.torsion == {}
        assert result.ranks == poincare_series_closed(M, n).coefficients


def test_series_degree_one_is_empty_for_cycles():
    for p in range(4, 8):
        assert poincare_series_closed(mcgavran(p), 3)[1] == 0
    # degree-one coefficient counts degree-one generators when they do occur
    assert poincare_series_closed(SphereProductSum(4, (2,)), 3)[1] == 2


def test_dga_homology_rejects_negative_truncation():
    with pytest.raises(ValueError, match="truncation must be nonnegative"):
        dga_homology_ranks(adams_hilton_model(mcgavran(5)), -1)


def test_dga_homology_reports_torsion():
    # synthetic model: d(z) = 2 aa leaves a Z/2 in degree four
    A = FreeDGAlgebra((("a", 2), ("z", 5)), {"z": {("a", "a"): 2}})
    assert A.dd_is_zero()
    result = dga_homology_ranks(A, 5)
    assert result.torsion[4] == (2,)
    assert result.ranks[4] == 0


def test_basis_budget_guard(monkeypatch):
    monkeypatch.setattr(loop_algebra, "_BASIS_BUDGET", 5)
    A = adams_hilton_model(mcgavran(5))
    with pytest.raises(ValueError):
        A.basis(6)


def test_half_smash_deviates_from_single_relation_series():
    A = adams_hilton_model(mcgavran(4), half_smash=True)
    result = dga_homology_ranks(A, 7)
    degrees = [2, 2, 3, 3]   # the surviving generators a, b, x, y
    assert differs_from_single_relation_series(result.series, degrees)
    # in particular it undercuts the relation-in-degree-4 candidate somewhere
    candidate = quotient_series(degrees, 4, 7)
    assert any(result.ranks[k] < candidate[k] for k in range(8))
    assert all(result.ranks[k] <= candidate[k] for k in range(8))
    # and it is not free either
    assert result.series.coefficients != free_algebra_series(degrees, 7).coefficients
