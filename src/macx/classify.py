"""Classification of flag complexes: freeness, one-relator conditions, and
Golodness, each decidable by independent combinatorial and homological routes.

The combinatorial route looks only at the 1-skeleton (chordality, the
cycle-join structure of ``simplicial.classify_star_condition``); the
homological route reads H_2 of the real moment-angle complex or the bigraded
row H_{2-j,2j} of the moment-angle complex from the homology its caller
computed, and computes none itself. Each verdict is decided here once:
``build_report`` (for ``analyze``) and the exhaustive sweeps in
:mod:`macx.sweep` read these functions, and the sweeps assert that the two
routes never disagree.

All group/algebra classifiers refuse non-flag input outright, since the
underlying equivalences are stated for flag complexes only. A flag complex
is the clique complex of its 1-skeleton, so past that check the flag-only
properties are read off the graph (Golodness is chordality, minimal
non-Golodness minimal non-chordality) and no subcomplex is rebuilt.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import gcd

from . import simplicial
from .homology import HomologyGroup, Z_GROUP, ZERO_GROUP


class NonFlagError(ValueError):
    """Raised when a flag-only classifier is handed a non-flag complex."""


def _require_flag(K):
    if not simplicial.is_flag(K):
        raise NonFlagError(f"complex is not flag; missing face {K.labels_of(K.missing_faces[0])}")


def one_relator_group_homological(K, table):
    """Homological route: H_2(R_K), read off the bigraded table of H(Z_K),
    is exactly Z (rank one, no torsion)."""
    _require_flag(K)
    return table.R(2) == Z_GROUP


def one_relator_algebra_homological(K, table):
    """Homological route for the loop algebra: the row H_{2-j,2j} of the
    bigraded table of H(Z_K) holds exactly one nonzero group, equal to Z, at
    some 4 <= j <= m."""
    _require_flag(K)
    hits = []
    for j in range(2, K.m + 1):
        g = table.entry(j - 2, 2 * j)
        if not g.is_zero:
            hits.append((j, g))
    if len(hits) != 1:
        return False
    j, g = hits[0]
    return 4 <= j <= K.m and g == Z_GROUP


def vanishing_check(K, table):
    """For a complex satisfying the cycle-join condition, verify that the
    bigraded table of H(Z_K) has no nonzero entry H_{-i,2j}(Z_K) with
    j - i >= 3. Since H_k(R_K) is the sum of the entries with j - i = k,
    this is also the statement H_k(R_K) = 0 for k >= 3."""
    if not simplicial.classify_star_condition(K):
        raise ValueError("vanishing check applies to cycle-join complexes only")
    return all(j2 // 2 - i < 3 for (i, j2) in table.entries)


def minimally_non_golod_flag(K):
    """Not Golod, but Golod after deleting any single vertex: deleting a vertex
    of a flag complex deletes it from the graph, so this is read off there."""
    _require_flag(K)
    return simplicial.is_minimally_non_chordal(K)


def surface_genus(p):
    """Genus of the closed orientable surface that the real moment-angle
    complex of a p-cycle is homeomorphic to: (p-4) * 2^(p-3) + 1."""
    if p < 4:
        raise ValueError(f"cycle length must be at least 4, got {p}")
    return (p - 4) * (1 << (p - 3)) + 1


@dataclass(frozen=True)
class RelatorWord:
    """A freely reduced word over a free group basis x_1, ..., x_l.

    Letters are (generator index, exponent) pairs with exponent +-1.
    """

    letters: tuple[tuple[int, int], ...]

    def __post_init__(self):
        for idx, exp in self.letters:
            if idx < 1:
                raise ValueError(f"generator index must be >= 1, got {idx}")
            if exp not in (1, -1):
                raise ValueError(f"exponent must be +-1, got {exp}")
        for (i1, e1), (i2, e2) in zip(self.letters, self.letters[1:]):
            if i1 == i2 and e1 == -e2:
                raise ValueError("word is not freely reduced")

    @classmethod
    def from_ints(cls, ints):
        """Build from signed indices, e.g. [1, 2, -1, -2] for x1 x2 x1^-1 x2^-1."""
        letters = []
        for n in ints:
            if n == 0:
                raise ValueError("letter 0 is not a generator")
            letters.append((abs(n), 1 if n > 0 else -1))
        return cls(tuple(letters))

    def __str__(self):
        return " ".join(
            f"x{idx}" if exp == 1 else f"x{idx}^-1" for idx, exp in self.letters
        )


def y_space_homology(l, relator):
    """Homology of the 2-complex with l circles and one 2-cell attached along
    the relator: H_0 = Z, and the cellular boundary of the 2-cell is the row
    of exponent sums, whose Smith form is its gcd g. So H_1 = Z^(l-1) + Z/g
    and H_2 = 0, or H_1 = Z^l and H_2 = Z when every sum vanishes. Everything
    above degree 2 is zero. Generators the relator does not use add 0 to g.
    """
    if l < 1:
        raise ValueError("need at least one generator")
    if not relator.letters:
        raise ValueError("relator must be nonempty")
    sums = {}
    for idx, exp in relator.letters:
        if idx > l:
            raise ValueError("relator uses a generator beyond the basis")
        sums[idx] = sums.get(idx, 0) + exp
    g = gcd(*sums.values())
    if g == 0:
        return [Z_GROUP, HomologyGroup(l), Z_GROUP]
    return [Z_GROUP, HomologyGroup.from_divisors(l - 1, [g]), ZERO_GROUP]


def build_report(K, table):
    """The verdict fields of the analysis of one complex, as plain data, read
    off K and the bigraded table of H(Z_K), which holds H_*(R_K) too. Both
    one-relator routes are evaluated: the report states the combinatorial
    verdict and files the homological ones under witnesses. The group,
    algebra and Golod verdicts are None when K is not flag, since those
    classifiers refuse it."""
    flag = simplicial.is_flag(K)
    chordal = simplicial.is_chordal(K)
    star = simplicial.classify_star_condition(K)
    witnesses = {}
    if not flag:
        witnesses["missing_face"] = list(K.labels_of(K.missing_faces[0]))
    if not chordal:
        witnesses["chordless_cycle"] = list(simplicial.chordless_cycle(K))
    report = {
        "flag": flag,
        "chordal": chordal,
        "star_condition": {"matches": star.matches, "p": star.p,
                           "cone_vertices": list(star.cone_vertices),
                           "reason": star.reason},
        "free_group": None, "one_relator_group": None, "one_relator_algebra": None,
        "golod": None, "minimally_non_golod": None, "genus": None,
        "witnesses": witnesses,
    }
    if not flag:
        return report
    report.update(
        free_group=chordal,
        one_relator_group=bool(star),
        one_relator_algebra=bool(star),
        golod=chordal,
        minimally_non_golod=minimally_non_golod_flag(K),
        genus=surface_genus(star.p) if star else None,
    )
    witnesses["h2_R"] = str(table.R(2))
    witnesses["one_relator_group_homological"] = one_relator_group_homological(K, table)
    witnesses["one_relator_algebra_homological"] = one_relator_algebra_homological(K, table)
    return report
