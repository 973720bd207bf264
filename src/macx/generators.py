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

Each word is kept as one integer of position masks and rendered only when
asked for, from per-label pieces "(g_<l>,"; the algebra word is the group
word with "()g" read as "[]u". No group or algebra element equality is ever
checked.
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass
from functools import cached_property
from itertools import islice

from .simplicial import bits

GROUP = "group"
ALGEBRA = "algebra"

# Most generator words ``enumerate_generators`` lists. ``analyze`` peaks at
# about 0.7 KB of memory per word (619 MB for the 917,506 words of the
# 18-cycle): the bound keeps the 4,194,306 words of the 20-cycle and caps
# that peak near 6 GB.
MAX_WORDS = 1 << 23

_TO_ALGEBRA = str.maketrans("()g", "[]u")


def _piece(label):
    return f"(g_{label},"


@dataclass(frozen=True)
class GeneratorSet:
    """The words of one enumeration in canonical order, over vertex labels
    ``labels``. A word is its code: ``codes`` holds one integer per word, the
    prefix's position mask above the low m bits, which hold the positions of
    i and j. ``words`` reads them as (prefix, j, i) label triples and
    ``rendered`` as text."""

    labels: tuple[int, ...]
    codes: tuple[int, ...]

    @property
    def count(self):
        return len(self.codes)

    @property
    def words(self):
        return _WordView(self)

    def rendered(self, kind=GROUP):
        """Every word as text, as group or as algebra commutators; the two
        kinds differ only in notation."""
        if kind not in (GROUP, ALGEBRA):
            raise ValueError(f"unknown word kind {kind!r}")
        text = self._group_text
        if kind == GROUP or not text:
            return list(text)
        # one translate over all the words, which hold no newline
        return "\n".join(text).translate(_TO_ALGEBRA).split("\n")

    @cached_property
    def _group_text(self):
        # A prefix's text is that of its low half followed by that of its
        # high half, each read from a table of 2^(m/2) concatenations; a code
        # has |prefix| + 2 bits set.
        labels, m = self.labels, len(self.labels)
        half = m // 2
        low, high = (_concatenations(map(_piece, part)) for part in (labels[:half], labels[half:]))
        inner = {1 << i | 1 << j: f"{_piece(labels[j])}g_{labels[i]})"
                 for j in range(m) for i in range(j)}
        closers = ["", ""] + [")" * n for n in range(m - 1)]
        low_bits, pair_bits = (1 << half) - 1, (1 << m) - 1
        return tuple(low[c >> m & low_bits] + high[c >> m + half] + inner[c & pair_bits]
                     + closers[c.bit_count()] for c in self.codes)


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


def _concatenations(pieces):
    """For every mask S over the pieces, their concatenation in bit order."""
    out = [""]
    for piece in pieces:
        out += [s + piece for s in out]
    return out


def _word_codes(K):
    """The codes of all generator words, J ascending, then i ascending, lazily."""
    m = K.m
    table = [()]  # table[S]: components of K_S by lowest bit, S without the top vertex
    for j, adj in enumerate(K.adjacency):
        bit = 1 << j
        for rest in range(bit):
            merged, at, comps = bit, m, []
            for comp in table[rest]:
                if comp & adj:
                    if merged == bit:
                        at = len(comps)
                    merged |= comp
                else:
                    comps.append(comp)
                    low = comp & -comp
                    yield (rest ^ low) << m | low | bit
            if j < m - 1:
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
    # through a list: a tuple built straight from the walk grows by resizing
    codes = list(islice(_word_codes(K), MAX_WORDS + 1))
    if len(codes) > MAX_WORDS:
        raise ValueError(f"more than {MAX_WORDS} generator words")
    return GeneratorSet(K.labels, tuple(codes))
