"""Loop-space homology of connected sums of two-sphere products.

Three independent computations of the same graded ranks live here: the closed
Poincare series 1 / (1 - sum_i (t^(d_i - 1) + t^(d - d_i - 1)) + t^(d - 2)),
a forbidden-factor word count (monomials avoiding a_1 b_1 as a consecutive
factor, the normal form behind the series), and honest homology of the free
differential graded algebra on the cell generators, computed degree by degree
by integer Smith normal form. The cycle decomposition with binomial
multiplicities translates a p-cycle into such a connected sum.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field
from math import comb

from .homology import sparse_rank_invariants

_BASIS_BUDGET = 200_000

# Largest connected sum mcgavran builds. A p-cycle gives (p-4) * 2^(p-3) + 1
# summands: 2,097,153 at p = 20, 4,456,449 at p = 21.
MAX_SUMMANDS = 1 << 22

# Highest degree any of the three routes computes a series to: at 1000 the
# 20-cycle's coefficients have 1,254 digits, under Python's 4,300-digit limit.
MAX_TRUNCATION = 1000


def check_truncation(n):
    """Refuse (ValueError) a truncation degree below 0 or past MAX_TRUNCATION."""
    if n < 0:
        raise ValueError("truncation must be nonnegative")
    if n > MAX_TRUNCATION:
        raise ValueError(f"truncation {n} exceeds the limit of {MAX_TRUNCATION}")


@dataclass(frozen=True)
class SphereProductSum:
    """Connected sum of k products S^(d_i) x S^(d - d_i) in total dimension d.

    ``pairs`` records the d_i values with multiplicity; each must satisfy
    2 <= d_i <= d - 2 so both sphere factors have dimension at least two.
    """

    d: int
    pairs: tuple[int, ...]

    def __post_init__(self):
        if self.d < 4:
            raise ValueError(f"total dimension must be >= 4, got {self.d}")
        for di in self.pairs:
            if not 2 <= di <= self.d - 2:
                raise ValueError(f"factor dimension {di} out of range for d={self.d}")

    @property
    def k(self):
        return len(self.pairs)

    def generator_degrees(self):
        """Degrees of the loop-homology generators, one pair per summand."""
        out = []
        for di in self.pairs:
            out.extend((di - 1, self.d - di - 1))
        return out

    def betti(self):
        """Betti numbers of the connected sum itself: middle classes add up,
        one class each at the bottom and the top."""
        out = [0] * (self.d + 1)
        out[0] = out[self.d] = 1
        for di in self.pairs:
            out[di] += 1
            out[self.d - di] += 1
        return out


def mcgavran(p):
    """The sphere-product decomposition of the moment-angle complex over a
    p-cycle: for 3 <= k <= p-1, the summand S^k x S^(p+2-k) appears with
    multiplicity (k-2) * C(p-2, k-1); the total dimension is p + 2."""
    if p < 4:
        raise ValueError(f"cycle length must be at least 4, got {p}")
    # the first test keeps the count itself from growing with p
    if p - 3 > MAX_SUMMANDS.bit_length() or (p - 4) << (p - 3) >= MAX_SUMMANDS:
        raise ValueError(
            f"cycle length {p} gives more than {MAX_SUMMANDS} sphere-product summands"
        )
    pairs = []
    for k in range(3, p):
        pairs.extend([k] * ((k - 2) * comb(p - 2, k - 1)))
    return SphereProductSum(p + 2, tuple(pairs))


@dataclass(frozen=True)
class GradedSeries:
    """Truncated integer power series c_0 .. c_N (graded ranks)."""

    coefficients: tuple[int, ...]

    @property
    def truncation(self):
        return len(self.coefficients) - 1

    def __getitem__(self, n):
        return self.coefficients[n]

    def __len__(self):
        return len(self.coefficients)

    def prefix(self, n):
        if n > self.truncation:
            raise ValueError(f"series truncated at {self.truncation}, asked for {n}")
        return self.coefficients[: n + 1]

    def __str__(self):
        return ", ".join(str(c) for c in self.coefficients)


def _invert(denominator, n):
    """Coefficients of 1/denominator up to degree n; the denominator is a
    degree -> coefficient dict with constant term 1, so the inverse exists
    over the integers."""
    terms = [(s, c) for s, c in denominator.items() if s > 0 and c]
    out = [0] * (n + 1)
    out[0] = 1
    for deg in range(1, n + 1):
        acc = 0
        for s, c in terms:
            if s <= deg:
                acc -= c * out[deg - s]
        out[deg] = acc
    return out


def free_algebra_series(degrees, n):
    """Hilbert series of the free graded algebra on generators of the given
    degrees, truncated at n."""
    denom = {0: 1}
    for g in degrees:
        denom[g] = denom.get(g, 0) - 1
    return GradedSeries(tuple(_invert(denom, n)))


def quotient_series(degrees, relation_degree, n):
    """Hilbert series of the quotient of a free graded algebra by one relation
    in the given degree: inverse of 1 - sum t^deg + t^relation_degree."""
    denom = {0: 1}
    for g in degrees:
        denom[g] = denom.get(g, 0) - 1
    denom[relation_degree] = denom.get(relation_degree, 0) + 1
    return GradedSeries(tuple(_invert(denom, n)))


def poincare_series_closed(M, n):
    """Closed-form loop-homology Poincare series of a sphere-product sum,
    truncated at degree n."""
    if M.k == 0:
        raise ValueError("need at least one sphere-product summand")
    check_truncation(n)
    return quotient_series(M.generator_degrees(), M.d - 2, n)


def rank_oracle_monomials(M, n, special_pair=0):
    """Independent rank count: weighted words over the 2k-letter alphabet that
    avoid the factor a_1 b_1 (with the designated pair playing the role of
    a_1, b_1), by dynamic programming on the degree.

    An admissible word of degree deg is one of degree deg - w followed by a
    letter of weight w, unless it ends in a_1 b_1; so the DP keeps, per
    degree, the number of admissible words and the number that end in a_1,
    and counts the letters by weight.

    Any pair may be designated; the count must not depend on the choice.
    """
    if M.k == 0:
        raise ValueError("need at least one sphere-product summand")
    if not 0 <= special_pair < M.k:
        raise ValueError(f"pair index {special_pair} out of range")
    check_truncation(n)
    letters = Counter()  # weight -> number of letters a_i, b_i of that weight
    for di, times in Counter(M.pairs).items():
        letters[di - 1] += times
        letters[M.d - di - 1] += times
    wa = M.pairs[special_pair] - 1
    wb = M.d - M.pairs[special_pair] - 1
    counts = [0] * (n + 1)
    ends_a1 = [0] * (n + 1)
    counts[0] = 1
    for deg in range(1, n + 1):
        total = sum(times * counts[deg - w] for w, times in letters.items() if w <= deg)
        if wb <= deg:
            total -= ends_a1[deg - wb]
        counts[deg] = total
        if wa <= deg:
            ends_a1[deg] = counts[deg - wa]
    return GradedSeries(tuple(counts))


@dataclass
class FreeDGAlgebra:
    """Free associative graded algebra with a degree-lowering differential.

    ``generators`` lists (name, degree >= 1); ``differentials`` maps a
    generator name to an integer combination of words (tuples of names), with
    absent names understood as cycles. The differential extends to words by
    the graded Leibniz rule."""

    generators: tuple[tuple[str, int], ...]
    differentials: dict
    _basis_cache: dict = field(default_factory=dict, repr=False, compare=False)

    def __post_init__(self):
        self._degree = dict(self.generators)
        if len(self._degree) != len(self.generators):
            raise ValueError("duplicate generator names")
        for name, deg in self.generators:
            if deg < 1:
                raise ValueError(f"generator {name} must have positive degree")
        for name, image in self.differentials.items():
            if name not in self._degree:
                raise ValueError(f"differential on unknown generator {name}")
            for word, coeff in image.items():
                if coeff and self.word_degree(word) != self._degree[name] - 1:
                    raise ValueError(f"differential of {name} is not degree-lowering by one")

    def word_degree(self, word):
        return sum(self._degree[x] for x in word)

    def diff_word(self, word):
        """Graded Leibniz extension of the differential to a single word."""
        out = {}
        partial = 0
        for pos, letter in enumerate(word):
            image = self.differentials.get(letter)
            if image:
                sign = -1 if partial % 2 else 1
                head, tail = word[:pos], word[pos + 1:]
                _add_combo(out, {head + mono + tail: sign * c for mono, c in image.items()})
            partial += self._degree[letter]
        return out

    def diff_combination(self, combo):
        out = {}
        for word, coeff in combo.items():
            _add_combo(out, {new: coeff * c for new, c in self.diff_word(word).items()})
        return out

    def dd_is_zero(self):
        """Expand d(d(g)) for every generator and check it vanishes."""
        return all(not self.diff_combination(image) for image in self.differentials.values())

    def truncation_within_budget(self, n):
        """The largest truncation t <= n (0 if none) whose bases, through
        degree t + 1 as ``dga_homology_ranks`` builds them, each fit the
        budget. Their sizes are read off the free algebra's series, so no
        basis is built."""
        sizes = free_algebra_series([deg for _, deg in self.generators], n + 1).coefficients
        over = next((k for k, size in enumerate(sizes) if size > _BASIS_BUDGET), n + 2)
        return max(over - 2, 0)

    def basis(self, n):
        """All words of total degree n, in a fixed generator-major order."""
        cached = self._basis_cache.get(n)
        if cached is None:
            if n == 0:
                cached = [()]
            else:
                cached = []
                for name, deg in self.generators:
                    if deg <= n:
                        cached.extend((name,) + rest for rest in self.basis(n - deg))
            if len(cached) > _BASIS_BUDGET:
                raise ValueError(f"monomial basis in degree {n} exceeds budget")
            self._basis_cache[n] = cached
        return cached


def _graded_commutator(x, degx, y, degy):
    """[x, y] = xy + (-1)^(deg x * deg y + 1) yx on single generators."""
    sign = -1 if (degx * degy) % 2 == 0 else 1
    combo = {(x, y): 1}
    combo[(y, x)] = combo.get((y, x), 0) + sign
    return {w: c for w, c in combo.items() if c}


def _add_combo(acc, combo):
    for word, coeff in combo.items():
        val = acc.get(word, 0) + coeff
        if val:
            acc[word] = val
        else:
            acc.pop(word, None)


def adams_hilton_model(M, half_smash=False):
    """The cell-model differential graded algebra of a sphere-product sum.

    Base case: generators a_i, b_i of degrees d_i - 1 and d - d_i - 1 plus z
    of degree d - 1, with d(z) the sum of graded commutators [a_i, b_i].
    With ``half_smash`` (the product with a circle, circle collapsed), extra
    generators x_i, y_i of degrees d_i, d - d_i and w of degree d appear, and
    d(w) = sum of [a_i, y_i] + [x_i, b_i].
    """
    gens = []
    dz = {}
    dw = {}
    for idx, di in enumerate(M.pairs, start=1):
        a, b = f"a{idx}", f"b{idx}"
        da, db = di - 1, M.d - di - 1
        gens.append((a, da))
        gens.append((b, db))
        _add_combo(dz, _graded_commutator(a, da, b, db))
        if half_smash:
            x, y = f"x{idx}", f"y{idx}"
            dx, dy = di, M.d - di
            gens.append((x, dx))
            gens.append((y, dy))
            _add_combo(dw, _graded_commutator(a, da, y, dy))
            _add_combo(dw, _graded_commutator(x, dx, b, db))
    gens.append(("z", M.d - 1))
    differentials = {"z": dz}
    if half_smash:
        gens.append(("w", M.d))
        differentials["w"] = dw
    return FreeDGAlgebra(tuple(gens), differentials)


@dataclass
class DGAHomology:
    """Graded ranks of the homology of a free dg algebra, with any torsion
    reported by degree (empty in all cases computed here, but checked)."""

    ranks: tuple[int, ...]
    torsion: dict

    @property
    def series(self):
        return GradedSeries(self.ranks)


def dga_homology_ranks(A, n):
    """Homology of the dg algebra through degree n, one integer Smith normal
    form per degree over the monomial basis."""
    check_truncation(n)
    rank_d = [0] * (n + 2)
    torsions = [()] * (n + 2)
    dims = [len(A.basis(k)) for k in range(n + 2)]
    support = set(A.differentials)
    for k in range(1, n + 2):  # rows keyed by words; a word with no d-letter is a cycle
        cols = [A.diff_word(word) for word in A.basis(k) if not support.isdisjoint(word)]
        rank_d[k], torsions[k] = sparse_rank_invariants(cols)
    ranks = []
    torsion = {}
    for k in range(n + 1):
        free = dims[k] - rank_d[k] - rank_d[k + 1]
        ranks.append(free)
        if torsions[k + 1]:
            torsion[k] = torsions[k + 1]
    return DGAHomology(tuple(ranks), torsion)


def differs_from_single_relation_series(series, degrees, max_relation_degree=None):
    """Whether the given rank series disagrees, somewhere within its
    truncation, with every one-relation Hilbert series over the given
    generator degrees, for relation degrees up to the bound.

    This is deviation evidence that more than one relation is present; it
    does not by itself certify a minimal relation count."""
    n = series.truncation
    top = max_relation_degree if max_relation_degree is not None else n
    want = series.prefix(n)
    for r in range(1, top + 1):
        if tuple(want) == tuple(quotient_series(degrees, r, n).prefix(n)):
            return False
    return True
