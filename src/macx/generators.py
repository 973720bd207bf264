"""Minimal generating sets built from disconnected full subcomplexes.

The commutator subgroup of a right-angled Coxeter group, and likewise the
loop homology of the moment-angle complex over a flag complex, are generated
by one nested commutator per pair (vertex subset J, connected component of
K_J not containing max J). The total count is therefore the sum over all
subsets of rank H~_0(K_J).

One walk over the subsets J in increasing order finds every pair without a
graph search. With j = max J, the components of K_J not containing j are
exactly the components of K_{J-j} with no edge to j; all the others merge
with j. A table holds the components of K_S, in lowest-bit order, for each
of the 2^(m-1) subsets S without the top vertex, so each J costs one pass
over the components of K_{J-j}. That table is the walk's memory besides the
words: one tuple per entry, about 90 bytes each, so 0.7 MB at m = 14, 24 MB
at m = 19 and some 750 MB at m = 24, doubling with each further vertex.
A J that meets two join factors of K gives a connected K_J, so a join is
walked one factor at a time, with a table over that factor's vertices only.

Each word is kept as one integer of position masks and rendered a block at a
time, as it is written, by one renderer (``GeneratorSet.blocks``). The
algebra word [u_a,[u_b,u_c]] is the group word (g_a,(g_b,g_c)) with "()g"
read as "[]u", one ``str.translate`` per block. No group or algebra element
equality is ever checked.
"""

from __future__ import annotations

import heapq
from array import array
from collections.abc import Sequence
from dataclasses import dataclass, field
from itertools import islice

from .simplicial import bits, join_factors, subset_sums

GROUP = "group"
ALGEBRA = "algebra"

# Most generator words ``enumerate_generators`` lists. The peak memory of
# ``analyze --json`` grows by about 30 bytes per word (45 MB for the 917,506
# words of the 18-cycle, 75 MB for the 1,966,082 of the 19-cycle): the bound
# keeps the 4,194,306 words of the 20-cycle and caps the words' part near 0.25 GB.
MAX_WORDS = 1 << 23

# The algebra text is the group text with "()g" read as "[]u"
_ALGEBRA_TEXT = str.maketrans("()g", "[]u")


@dataclass(frozen=True)
class GeneratorSet:
    """The words of one enumeration in canonical order, over vertex labels
    ``labels``. A word is its code: ``codes`` holds one integer per word, the
    prefix's position mask above the low m bits, which hold the positions of
    i and j, in an ``array("Q")`` of 8 bytes a word (codes stay below 2^48
    for m <= 24). ``words`` reads them as (prefix, j, i) label triples,
    ``rendered`` as commutator text, and ``blocks`` renders any text made of
    their parts."""

    labels: tuple[int, ...]
    codes: array = field(hash=False)  # hashed by its labels alone: an array is unhashable

    @property
    def count(self):
        return len(self.codes)

    @property
    def words(self):
        return _WordView(self)

    def rendered(self, kind=GROUP):
        """Every word as group or as algebra commutator text: a ``Words``
        sequence, rendered as it is read."""
        return Words(self, kind)

    def blocks(self, size, head, piece, mid, tail, sep=""):
        """The text of every word, ``size`` words per string, all words
        joined by ``sep``. A word's text is head(j, i), piece(k) for each
        label k of its prefix in ascending order, mid(j, i), and tail(n) for
        a prefix of n labels, read from tables: the prefix's pieces from two
        of 2^(m/2) concatenations, for its low and its high half."""
        labels, m = self.labels, len(self.labels)
        half = m // 2
        low, high = (subset_sums(list(map(piece, part)), "")
                     for part in (labels[:half], labels[half:]))
        pairs = {1 << i | 1 << j: (labels[j], labels[i]) for j in range(m) for i in range(j)}
        heads, mids = ({p: text(*ji) for p, ji in pairs.items()} for text in (head, mid))
        tails = ["", ""] + [tail(n) for n in range(m - 1)]
        low_bits, pair_bits = (1 << half) - 1, (1 << m) - 1
        codes, lead = self.codes, ""
        for start in range(0, len(codes), size):
            yield lead + sep.join([
                heads[p := c & pair_bits] + low[c >> m & low_bits] + high[c >> m + half]
                + mids[p] + tails[c.bit_count()] for c in codes[start:start + size]])
            lead = sep


class Words(Sequence):
    """The words of a ``GeneratorSet`` as text in one notation, rendered
    when read and kept nowhere; equal to the list of the same strings."""

    def __init__(self, gens, kind=GROUP):
        if kind not in (GROUP, ALGEBRA):
            raise ValueError(f"unknown word kind {kind!r}")
        self.gens, self.kind = gens, kind

    def blocks(self, size, lead="", trail="", sep=""):
        """The words ``size`` per string, each between ``lead`` and
        ``trail`` and all joined by ``sep``, none of which may hold "()g":
        the algebra text is the group text with "()g" read as "[]u"."""
        blocks = self.gens.blocks(size, lambda j, i: lead, lambda k: f"(g_{k},",
                                  lambda j, i: f"(g_{j},g_{i})", lambda n: ")" * n + trail, sep)
        return blocks if self.kind == GROUP else (b.translate(_ALGEBRA_TEXT) for b in blocks)

    def __len__(self):
        return self.gens.count

    def __getitem__(self, n):
        """One word, or for a slice the ``Words`` of the codes it selects."""
        codes = self.gens.codes[n] if isinstance(n, slice) else (self.gens.codes[n],)
        words = Words(GeneratorSet(self.gens.labels, codes), self.kind)
        return words if isinstance(n, slice) else "".join(words.blocks(1))

    def __iter__(self):
        for block in self.blocks(1024, trail="\n"):
            yield from block.splitlines()

    def __eq__(self, other):
        return list(self) == list(other) if isinstance(other, (list, Words)) else NotImplemented

    def __repr__(self):
        return repr(list(self))


class _WordView(Sequence):
    """A ``GeneratorSet``'s words as (prefix, j, i) label tuples, each built
    when read."""

    def __init__(self, gens):
        self._gens = gens

    def __len__(self):
        return self._gens.count

    def __getitem__(self, n):
        labels, m = self._gens.labels, len(self._gens.labels)
        code = self._gens.codes[n]
        pair = code & ((1 << m) - 1)
        return (tuple(labels[k] for k in bits(code >> m)),
                labels[pair.bit_length() - 1], labels[(pair & -pair).bit_length() - 1])


def _word_codes(K):
    """The codes of all generator words, J ascending, then i ascending, lazily.

    A J that meets two join factors (``simplicial.join_factors``) gives a
    connected K_J and no word, so each factor of two or more vertices is
    walked on its own and the walks are merged by J."""
    m, pair_bits = K.m, (1 << K.m) - 1
    walks = [_factor_codes(K.adjacency, list(bits(mask)), m)
             for mask in join_factors(K) if mask & mask - 1]
    if len(walks) == 1:
        return walks[0]
    return heapq.merge(*walks, key=lambda code: code >> m | code & pair_bits)


def _factor_codes(adjacency, positions, m):
    """The codes of the words whose J lies in the vertex positions
    ``positions`` (ascending) of a complex on m vertices with neighbour masks
    ``adjacency``, from one walk over the subsets of those positions."""
    top = positions[-1]
    # spread[S]: the position mask of S, a subset of all but the top position
    spread = (range(1 << top) if top == len(positions) - 1
              else subset_sums([1 << p for p in positions[:-1]], 0))
    table = [()]  # table[S]: components of K_S by lowest bit, S as in spread
    for r, j in enumerate(positions):
        adj, bit = adjacency[j], 1 << j
        for rest, prefix in enumerate(islice(spread, 1 << r)):
            merged, at, comps = bit, m, []
            for comp in table[rest]:
                if comp & adj:
                    if merged == bit:
                        at = len(comps)
                    merged |= comp
                else:
                    comps.append(comp)
                    low = comp & -comp
                    yield (prefix ^ low) << m | low | bit
            if j < top:
                comps.insert(at, merged)  # at == m appends: j alone comes last
                table.append(tuple(comps))


def generator_count(K):
    """Sum over all vertex subsets J of rank H~_0(K_J), i.e. the number of
    connected components of K_J minus one (floored at zero)."""
    return sum(1 for _ in _word_codes(K))


def enumerate_generators(K):
    """All generator words in canonical order (subset as ascending bitmask,
    then i ascending within a subset).

    For each subset J with at least two vertices, j = max J; every connected
    component of K_J not containing j contributes the word with i its
    smallest vertex and prefix J minus {i, j}. More than ``MAX_WORDS`` words
    are refused (ValueError) once the walk finds one past the bound, before
    any word is rendered."""
    codes = array("Q", islice(_word_codes(K), MAX_WORDS + 1))
    if len(codes) > MAX_WORDS:
        raise ValueError(f"more than {MAX_WORDS} generator words")
    return GeneratorSet(K.labels, codes)
