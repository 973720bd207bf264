import random
from itertools import combinations

import pytest

from conftest import (
    IntMatrix,
    all_flag_complexes,
    boundary_matrix,
    cycle,
    euler_characteristic_real,
    projective_plane,
    rank_mod_p,
    rank_over_q,
    simplex,
    smith_normal_form,
    square_broken_cone,
    square_cone,
    square_partial_cone,
)
from macx import homology
from macx.homology import (
    HomologyGroup,
    betti_Z,
    bigraded_homology_Z,
    homology_R,
    homology_R_and_Z,
    reduced_homology,
)
from macx.simplicial import (
    SimplicialComplex,
    bits,
    clique_complex,
    full_subcomplex,
    join,
)

Z = HomologyGroup(1)
ZERO = HomologyGroup()


# -- groups -------------------------------------------------------------------


def test_group_normalisation():
    assert HomologyGroup.from_divisors(0, [2, 3]) == HomologyGroup(0, (6,))
    assert HomologyGroup.from_divisors(0, [4, 6]) == HomologyGroup(0, (2, 12))
    assert HomologyGroup.from_divisors(1, [0, 2]) == HomologyGroup(2, (2,))
    # Z + Z/2 + Z/3 = Z + Z/6
    assert HomologyGroup.from_divisors(1, [2, 3]) == HomologyGroup(1, (6,))


def test_group_validation():
    with pytest.raises(ValueError):
        HomologyGroup(-1)
    with pytest.raises(ValueError):
        HomologyGroup(0, (3, 2))   # not a divisibility chain
    with pytest.raises(ValueError):
        HomologyGroup(0, (1,))


def test_group_rendering():
    assert str(ZERO) == "0"
    assert str(Z) == "Z"
    assert str(HomologyGroup(3)) == "Z^3"
    assert str(HomologyGroup(1, (2, 4))) == "Z + Z/2 + Z/4"


# -- boundary matrices and SNF --------------------------------------------------


def test_boundary_of_edge():
    K = SimplicialComplex.from_facets([[1, 2]], 2)
    M = boundary_matrix(K, 1)
    assert (M.rows, M.cols) == (2, 1)
    assert M.entries == ((-1,), (1,))


def test_boundary_of_triangle_cycle():
    M = boundary_matrix(cycle(3), 1)
    assert (M.rows, M.cols) == (3, 3)
    assert smith_normal_form(M)[1] == 2


def test_boundary_of_filled_triangle():
    M = boundary_matrix(simplex(2), 2)
    assert (M.rows, M.cols) == (3, 1)
    assert tuple(row[0] for row in M.entries) == (1, -1, 1)


def test_augmentation_row():
    M = boundary_matrix(cycle(4), 0)
    assert (M.rows, M.cols) == (1, 4)
    assert M.entries == ((1, 1, 1, 1),)


def test_boundary_squares_to_zero():
    for K in [cycle(5), square_partial_cone(), square_cone(), simplex(3), projective_plane()]:
        for k in range(1, K.dim + 1):
            up = boundary_matrix(K, k + 1) if k + 1 <= K.dim else None
            if up is None:
                continue
            down = boundary_matrix(K, k)
            prod = [
                [
                    sum(down.entries[r][x] * up.entries[x][c] for x in range(down.cols))
                    for c in range(up.cols)
                ]
                for r in range(down.rows)
            ]
            assert all(v == 0 for row in prod for v in row)


def test_snf_examples():
    ident = IntMatrix.from_rows([[1, 0, 0], [0, 1, 0], [0, 0, 1]])
    assert smith_normal_form(ident) == ((1, 1, 1), 3)
    diag = IntMatrix.from_rows([[2, 0], [0, 0]])
    assert smith_normal_form(diag) == ((2,), 1)
    known = IntMatrix.from_rows([[2, 4], [6, 8]])
    assert smith_normal_form(known) == ((2, 4), 2)


def test_snf_against_determinantal_divisors():
    # product of the first k invariant factors = gcd of all k x k minors
    rng = random.Random(4242)
    for _ in range(40):
        rows = rng.randrange(1, 5)
        cols = rng.randrange(1, 5)
        mat = [[rng.randrange(-6, 7) for _ in range(cols)] for _ in range(rows)]
        diag, rank = smith_normal_form(IntMatrix.from_rows(mat))
        _assert_determinantal_divisors(mat, diag, rank)


def _assert_determinantal_divisors(mat, diag, rank):
    from itertools import combinations
    from math import gcd

    rows = len(mat)
    cols = len(mat[0]) if mat else 0
    running = 1
    for k in range(1, min(rows, cols) + 1):
        divisor = 0
        for rsel in combinations(range(rows), k):
            for csel in combinations(range(cols), k):
                divisor = gcd(divisor, _det([[mat[r][c] for c in csel] for r in rsel]))
        if divisor == 0:
            assert rank < k
            break
        running *= diag[k - 1]
        assert running == divisor
    else:
        assert rank == min(rows, cols)


def _det(m):
    if len(m) == 1:
        return m[0][0]
    total = 0
    for j in range(len(m)):
        minor = [row[:j] + row[j + 1:] for row in m[1:]]
        total += (-1) ** j * m[0][j] * _det(minor)
    return total


def test_snf_against_rational_rank_on_random_matrices():
    rng = random.Random(99)
    for _ in range(60):
        rows = rng.randrange(1, 6)
        cols = rng.randrange(1, 6)
        mat = [[rng.randrange(-9, 10) for _ in range(cols)] for _ in range(rows)]
        diag, rank = smith_normal_form(IntMatrix.from_rows(mat))
        assert rank == rank_over_q(mat)
        for a, b in zip(diag, diag[1:]):
            assert b % a == 0
        # determinant of invariant factors detects every prime's rank drop
        for p in (2, 3, 5, 7):
            assert rank_mod_p(mat, p) == sum(1 for d in diag if d % p)


def _columns(mat, rng=None):
    """Sparse columns {row: coefficient} of a dense matrix; with an rng, some
    zero coefficients are kept as explicit entries."""
    cols = len(mat[0]) if mat else 0
    out = []
    for j in range(cols):
        col = {}
        for i, row in enumerate(mat):
            if row[j] or (rng is not None and rng.random() < 0.2):
                col[i] = row[j]
        out.append(col)
    return out


def _random_sparse(rng, rows, cols):
    """Mostly +-1 entries with some non-units, zero columns and duplicate rows."""
    mat = [[0] * cols for _ in range(rows)]
    density = rng.choice((0.2, 0.4, 0.7))
    for i in range(rows):
        for j in range(cols):
            if rng.random() < density:
                mat[i][j] = rng.choice((1, -1, 1, -1, 2, -2, 3, -4, 6))
    for j in rng.sample(range(cols), min(cols, rng.randrange(0, 3))):
        for row in mat:
            row[j] = 0
    for _ in range(rng.randrange(0, 3)):
        if rows > 1:
            src, dst = rng.sample(range(rows), 2)
            mat[dst] = list(mat[src])
    return mat


def _oracle_rank_torsion(mat):
    """Rank and invariant factors > 1 of the dense textbook Smith form. Its
    diagonal is a divisibility chain of length rank, so these two fix it."""
    diag, rank = smith_normal_form(IntMatrix.from_rows(mat))
    torsion = tuple(d for d in diag if d > 1)
    assert diag == (1,) * (rank - len(torsion)) + torsion
    return rank, torsion


def test_sparse_rank_invariants_empty_and_zero():
    assert homology.sparse_rank_invariants([]) == (0, ())
    assert homology.sparse_rank_invariants([{}, {}, {3: 0}]) == (0, ())
    assert homology.sparse_rank_invariants([{}, {5: -1}, {}]) == (1, ())


def test_sparse_rank_invariants_against_field_ranks():
    rng = random.Random(2024)
    for _ in range(150):
        rows = rng.randrange(1, 9)
        cols = rng.randrange(1, 9)
        mat = _random_sparse(rng, rows, cols)
        rank, torsion = homology.sparse_rank_invariants(_columns(mat, rng))
        assert rank == rank_over_q(mat) >= len(torsion)
        assert all(d > 1 for d in torsion)
        for a, b in zip(torsion, torsion[1:]):
            assert b % a == 0
        for p in (2, 3, 5, 7):
            assert rank_mod_p(mat, p) == rank - sum(1 for d in torsion if d % p == 0)
        assert _oracle_rank_torsion(mat) == (rank, torsion)


def test_sparse_rank_invariants_against_determinantal_divisors():
    rng = random.Random(77)
    for _ in range(80):
        rows = rng.randrange(1, 5)
        cols = rng.randrange(1, 5)
        mat = _random_sparse(rng, rows, cols)
        rank, torsion = homology.sparse_rank_invariants(_columns(mat))
        _assert_determinantal_divisors(mat, (1,) * (rank - len(torsion)) + torsion, rank)


def test_sparse_rank_invariants_unit_free_residual():
    # M = [[U, 0], [B, C]] with U unimodular, so SNF(M) = (1, 1, 1) + SNF(C).
    # C holds a circulant of determinant 9 and the block 2I, and B couples
    # the unit columns to C's rows; rows and columns are then permuted. Unit
    # pivots leave a residual with no +-1 entry, and the torsion 2 and 18 can
    # only come out of the kernel's least-entry steps on it.
    block = [
        [1, 1, 0, 0, 0, 0, 0, 0],
        [0, -1, 1, 0, 0, 0, 0, 0],
        [0, 0, 1, 0, 0, 0, 0, 0],
        [1, 0, 3, 2, 1, 0, 0, 0],
        [0, -1, 0, 0, 2, 1, 0, 0],
        [0, 0, 0, 1, 0, 2, 0, 0],
        [-1, 0, 0, 0, 0, 0, 2, 0],
        [0, 2, 1, 0, 0, 0, 0, 2],
    ]
    row_order = (5, 0, 7, 3, 1, 6, 2, 4)
    col_order = (6, 3, 0, 7, 4, 1, 5, 2)
    mat = [[block[i][j] for j in col_order] for i in row_order]
    rank, torsion = homology.sparse_rank_invariants(_columns(mat))
    assert (rank, torsion) == (8, (2, 18))
    assert _oracle_rank_torsion(mat) == (rank, torsion)
    assert rank == rank_over_q(mat)
    for p in (2, 3, 5, 7):
        assert rank_mod_p(mat, p) == rank - sum(1 for d in torsion if d % p == 0)


def test_sparse_rank_invariants_against_dense_oracle():
    # the kernel against the textbook dense Smith form of conftest, on dense
    # and sparse random matrices up to 10 x 10 with entries in [-30, 30]
    rng = random.Random(31)
    for _ in range(600):
        rows = rng.randrange(1, 11)
        cols = rng.randrange(1, 11)
        density = rng.choice((0.2, 0.5, 1.0))
        mat = [[rng.randrange(-30, 31) if rng.random() < density else 0 for _ in range(cols)]
               for _ in range(rows)]
        assert homology.sparse_rank_invariants(_columns(mat)) == _oracle_rank_torsion(mat)


@pytest.mark.parametrize("mat, expected", [
    ([[2, 3]], (1, ())),                         # remainder 1 becomes a unit pivot
    ([[6, 10, 15]], (1, ())),                    # gcd 1 with no pairwise unit
    ([[4, 6]], (1, (2,))),
    ([[2], [3]], (1, ())),                       # the column-side remainder
    ([[2, 0], [0, 3]], (2, (6,))),               # coprime torsion merges
    ([[4, 0], [0, 6]], (2, (2, 12))),
    ([[2, 4], [6, 8]], (2, (2, 4))),
    ([[-3, 0, 0], [0, 0, 0], [0, 0, 9]], (2, (3, 9))),
    ([[5, 7], [7, 5]], (2, (24,))),
])
def test_sparse_rank_invariants_non_unit_cases(mat, expected):
    assert homology.sparse_rank_invariants(_columns(mat)) == expected
    assert _oracle_rank_torsion(mat) == expected


def test_projective_plane_torsion():
    groups = reduced_homology(projective_plane())
    assert groups == [ZERO, HomologyGroup(0, (2,)), ZERO]
    # independent field-rank oracle: betti numbers over Q are (0,0,0) but over
    # F_2 they are (0,1,1), which forces exactly one Z/2 in degree one
    K = projective_plane()
    d1 = [list(r) for r in boundary_matrix(K, 1).entries]
    d2 = [list(r) for r in boundary_matrix(K, 2).entries]
    n1, n2 = len(d1[0]), len(d2[0])
    for p, expect in ((2, (1, 1)), (3, (0, 0))):
        r1 = rank_mod_p(d1, p)
        r2 = rank_mod_p(d2, p)
        b1 = n1 - r1 - r2
        b2 = n2 - r2
        assert (b1, b2) == expect


# -- reduced homology -----------------------------------------------------------


def test_reduced_homology_of_cycles():
    for p in range(4, 8):
        assert reduced_homology(cycle(p)) == [ZERO, Z]


def test_reduced_homology_two_points():
    K = SimplicialComplex.from_facets([], 2)
    assert reduced_homology(K) == [Z]


def test_reduced_homology_cone_is_trivial():
    assert reduced_homology(square_cone()) == [ZERO, ZERO, ZERO]
    for base in [cycle(5), square_partial_cone()]:
        apex = SimplicialComplex.from_facets([[99]], [99])
        cone = join(base, apex)
        assert all(g.is_zero for g in reduced_homology(cone))


def test_reduced_homology_empty_complex():
    K = SimplicialComplex.from_facets([], 0)
    assert reduced_homology(K) == []


# -- subset decompositions -------------------------------------------------------


def test_homology_R_apex_complexes():
    assert homology_R(square_partial_cone()) == [Z, HomologyGroup(4), HomologyGroup(3), ZERO]
    assert homology_R(square_cone()) == [Z, HomologyGroup(2), Z, ZERO]


def test_homology_R_five_cycle():
    groups = homology_R(cycle(5))
    # oracle: closed surface of genus g = (5-4)*2^2 + 1 = 5, so H_1 = Z^10
    assert groups == [Z, HomologyGroup(10), Z]


def test_homology_R_rank2_counts_induced_cycles_with_multiplicity():
    for K in [square_partial_cone(), square_cone(), cycle(6)]:
        total = 0
        for size in range(K.m + 1):
            from itertools import combinations

            for sub in combinations(K.labels, size):
                groups = reduced_homology(full_subcomplex(K, sub))
                if len(groups) > 1:
                    total += groups[1].free_rank
        assert homology_R(K)[2].free_rank == total


def test_bigraded_apex_complexes():
    table = bigraded_homology_Z(square_partial_cone())
    assert table.entry(2, 8) == HomologyGroup(2)
    assert table.entry(3, 10) == Z
    table = bigraded_homology_Z(square_cone())
    assert table.entry(2, 8) == Z
    assert table.entry(0, 0) == Z


def test_bigraded_cycle_row_and_vanishing():
    for p in range(4, 8):
        table = bigraded_homology_Z(cycle(p))
        for j in range(2, p + 1):
            expected = Z if j == p else ZERO
            assert table.entry(j - 2, 2 * j) == expected
        assert all(j2 // 2 - i < 3 for i, j2 in table.entries)


def test_betti_reassembly():
    assert betti_Z(cycle(4)) == [1, 0, 0, 2, 0, 0, 1]
    assert betti_Z(cycle(5)) == [1, 0, 0, 5, 5, 0, 0, 1]


def test_betti_broken_cone():
    # frozen from the bigraded computation; the alternating sum vanishes as it
    # must for any moment-angle complex over a non-simplex
    assert betti_Z(square_broken_cone()) == [1, 0, 0, 2, 0, 1, 3, 1]
    assert sum((-1) ** k * b for k, b in enumerate(betti_Z(square_broken_cone()))) == 0


def test_euler_characteristic_consistency():
    corpus = list(all_flag_complexes(4))
    corpus += [square_partial_cone(), square_cone(), square_broken_cone(), cycle(6)]
    for K in corpus:
        groups = homology_R(K)
        alternating = sum((-1) ** k * g.free_rank for k, g in enumerate(groups))
        assert alternating == euler_characteristic_real(K)


def test_chordal_flag_concentrates_in_linear_row():
    # chordal flag complexes have all full subcomplexes homotopy-discrete, so
    # away from (0,0) the table lives on the line i = j - 1; a chordless cycle
    # breaks the line. Both directions exhaustively at five vertices.
    from macx.simplicial import is_chordal

    for n in range(1, 6):
        for K in all_flag_complexes(n):
            table = bigraded_homology_Z(K)
            on_line = all(
                (i, j2) == (0, 0) or i == j2 // 2 - 1 for i, j2 in table.entries
            )
            assert on_line == bool(is_chordal(K))


def test_chordal_flag_concentration_six_vertices():
    # the chordal direction over every chordal flag complex on six vertices
    from macx.simplicial import is_chordal

    for K in all_flag_complexes(6):
        if not is_chordal(K):
            continue
        table = bigraded_homology_Z(K)
        assert all((i, j2) == (0, 0) or i == j2 // 2 - 1 for i, j2 in table.entries)


def test_reduced_homology_agrees_with_public_boundary_matrices():
    # dual route: the public boundary_matrix + smith_normal_form contract must
    # reproduce what the internal pipeline computes
    corpus = [cycle(5), square_partial_cone(), square_cone(), square_broken_cone(),
              projective_plane(), simplex(3)]
    for K in corpus:
        groups = reduced_homology(K)
        ranks = {}
        diags = {}
        counts = {}
        for k in range(K.dim + 2):
            M = boundary_matrix(K, k)
            counts[k] = M.cols
            diags[k], ranks[k] = smith_normal_form(M)
        for k in range(K.dim + 1):
            free = counts[k] - ranks[k] - ranks.get(k + 1, 0)
            torsion = [d for d in diags.get(k + 1, ()) if d > 1]
            assert groups[k] == HomologyGroup.from_divisors(free, torsion)


def test_total_degree_reassembly_matches_R_grading():
    # sanity: both decompositions see the same subset homology, so the rank of
    # H_(k)(R) and the bigraded table satisfy the same subset sums in degree 2
    K = square_partial_cone()
    table = bigraded_homology_Z(K)
    rank_h2 = homology_R(K)[2].free_rank
    assert rank_h2 == sum(
        g.free_rank for (i, j2), g in table.entries.items() if j2 // 2 - i - 1 == 1
    )


def test_cache_determinism():
    K = square_partial_cone()
    first = homology_R(K)
    homology.clear_cache()
    assert homology_R(K) == first


# -- the strong-collapse subset walk -------------------------------------------


def _random_complexes(seed, count):
    """Seeded random complexes on at most seven vertices: arbitrary facet
    lists, so most are not flag, and clique complexes of random graphs."""
    rng = random.Random(seed)
    out = []
    for k in range(count):
        m = rng.randint(1, 7)
        if k % 3 == 0:
            edges = [e for e in combinations(range(1, m + 1), 2) if rng.random() < 0.5]
            out.append(clique_complex(m, edges))
        else:
            facets = [rng.sample(range(1, m + 1), rng.randint(1, min(m, 4)))
                      for _ in range(rng.randint(0, 7))]
            out.append(SimplicialComplex.from_facets(facets, m))
    return out


def _rp2_and_join():
    two_points = SimplicialComplex.from_facets([], [7, 8])
    return [projective_plane(), join(projective_plane(), two_points)]


def _tables_by_full_subcomplexes(K):
    """H_*(R_K) and the bigraded H(Z_K) summed over every vertex subset J from
    the reduced homology of a rebuilt K_J, without the subset walk."""
    by_degree = [[] for _ in range(K.dim + 2)]
    by_bidegree = {(0, 0): [Z]}
    for j in range(1, K.m + 1):
        for sub in combinations(K.labels, j):
            for deg, g in enumerate(reduced_homology(full_subcomplex(K, sub))):
                if g.is_zero:
                    continue
                by_degree[deg + 1].append(g)
                by_bidegree.setdefault((j - deg - 1, 2 * j), []).append(g)
    by_degree[0].append(Z)

    def direct_sum(gs):
        return HomologyGroup.from_divisors(sum(g.free_rank for g in gs),
                                           [d for g in gs for d in g.torsion])

    groups = [direct_sum(gs) for gs in by_degree]
    return groups, {key: direct_sum(gs) for key, gs in by_bidegree.items()}


def test_subset_walk_agrees_with_full_subcomplex_sums():
    corpus = _random_complexes(20261018, 150) + _rp2_and_join()
    corpus += [square_broken_cone(), square_partial_cone(), cycle(7)]
    torsion_seen = False
    homology.clear_cache()
    for K in corpus:
        expected_R, expected_Z = _tables_by_full_subcomplexes(K)
        for _ in range(2):  # the second walk of a flag complex reads the memo
            groups, table = homology_R_and_Z(K)
            assert groups == expected_R, K
            assert table.entries == expected_Z, K
        torsion_seen |= any(g.torsion for g in groups)
    assert torsion_seen
    # RP^2_6 and its suspension: Z/2 in H_*(R_K)
    assert homology_R_and_Z(projective_plane())[0][2].torsion == (2,)


def _facet_dominated(K, J, v, w):
    """The definition: every facet of K_J that contains v contains w."""
    faces = [f for f in K.face_masks if not f & ~J]
    facets = [f for f in faces if not any(g != f and g & f == f for g in faces)]
    return all(f >> w & 1 for f in facets if f >> v & 1)


def test_domination_table_matches_facet_definition():
    corpus = [K for n in range(1, 5) for K in all_flag_complexes(n)]
    corpus += _random_complexes(7, 60) + [projective_plane(), square_broken_cone()]
    multi_seen = False
    for K in corpus:
        table = homology._domination_table(K)
        for v, pairs in enumerate(table):
            assert sorted(wb.bit_length() - 1 for wb, _, _ in pairs) == list(
                bits(K.adjacency[v]))
            multi_seen |= any(multi for _, _, multi in pairs)
        for J in range(1, K.full_mask + 1):
            lowest = 0
            for v in bits(J):
                dominated = False
                for w in bits(J & ~(1 << v)):
                    truth = _facet_dominated(K, J, v, w)
                    dominated |= truth
                    # the table restricted to the one pair (v, w)
                    only = [tuple(p for p in pairs if u == v and p[0] == 1 << w)
                            for u, pairs in enumerate(table)]
                    assert bool(homology._dominated_bit(J, only)) == truth, (K, J, v, w)
                if dominated and not lowest:
                    lowest = 1 << v
            assert homology._dominated_bit(J, table) == lowest
    assert multi_seen  # some non-flag complex had an obstruction of two vertices


def test_memo_is_bounded_and_kept_for_flag_complexes_only(monkeypatch):
    homology.clear_cache()
    homology_R_and_Z(projective_plane())
    homology_R_and_Z(square_broken_cone())
    assert len(homology._MEMO) == 0  # not flag: K_J is not fixed by its graph
    K = cycle(9)  # its cores: the 75 nonempty independent sets and K itself
    expected = homology_R_and_Z(K)
    assert len(homology._MEMO) == 76 <= homology.MEMO_LIMIT
    monkeypatch.setattr(homology, "MEMO_LIMIT", 5)
    homology.clear_cache()
    assert homology_R_and_Z(K) == expected
    assert len(homology._MEMO) <= 5
    for seed in range(3):
        for L in _random_complexes(seed, 12):
            homology_R_and_Z(L)
            assert len(homology._MEMO) <= 5
