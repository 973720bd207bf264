"""Minimal generating sets built from disconnected full subcomplexes.

The commutator subgroup of a right-angled Coxeter group, and likewise the
loop homology of the moment-angle complex over a flag complex, are generated
by one nested commutator per pair (vertex subset J, connected component of
K_J not containing max J). The total count is therefore the sum over all
subsets of rank H~_0(K_J), which only needs component counts.

Words are emitted as syntax; no group or algebra element equality is ever
checked.
"""

from __future__ import annotations

from dataclasses import dataclass

from . import simplicial
from .simplicial import bits

GROUP = "group"
ALGEBRA = "algebra"


@dataclass(frozen=True)
class CommutatorWord:
    """A nested commutator over indexed generators.

    The canonical shape is (prefix k_1 < ... < k_{l-2}, j, i) with j > i,
    every k_s distinct from i, and i the smallest vertex of a connected
    component of the full subcomplex on prefix + {i, j} not containing j.
    ``kind`` selects group commutators (g_a, g_b) or graded algebra
    commutators [u_a, u_b] for rendering.
    """

    kind: str
    prefix: tuple[int, ...]
    j: int
    i: int

    def __post_init__(self):
        if self.kind not in (GROUP, ALGEBRA):
            raise ValueError(f"unknown word kind {self.kind!r}")
        if self.j <= self.i:
            raise ValueError("need j > i")
        if any(k >= self.j for k in self.prefix):
            raise ValueError("prefix entries must precede j")
        if self.i in self.prefix:
            raise ValueError("prefix entries must differ from i")
        if list(self.prefix) != sorted(set(self.prefix)):
            raise ValueError("prefix must be strictly increasing")

    @property
    def support(self):
        return tuple(sorted(set(self.prefix) | {self.i, self.j}))

    def render(self, kind=None):
        """The word as text, in ``kind`` (default: the word's own kind); the
        two kinds differ only in notation."""
        if (kind or self.kind) == GROUP:
            word = f"(g_{self.j},g_{self.i})"
            for k in reversed(self.prefix):
                word = f"(g_{k},{word})"
        else:
            word = f"[u_{self.j},u_{self.i}]"
            for k in reversed(self.prefix):
                word = f"[u_{k},{word}]"
        return word


@dataclass(frozen=True)
class GeneratorSet:
    words: tuple[CommutatorWord, ...]

    @property
    def count(self):
        return len(self.words)

    def rendered(self, kind=None):
        return [w.render(kind) for w in self.words]


def render_word(word):
    return word.render()


def generator_count(K):
    """Sum over all vertex subsets J of rank H~_0(K_J), i.e. the number of
    connected components of K_J minus one (floored at zero)."""
    graph = simplicial.one_skeleton(K)
    total = 0
    for J in range(1, K.full_mask + 1):
        total += len(graph.component_masks(J)) - 1
    return total


def enumerate_generators(K, kind=GROUP):
    """All generator words in canonical order (subset as ascending bitmask,
    then i ascending within a subset).

    For each subset J with at least two vertices, j = max J; every connected
    component of K_J not containing j contributes the word with i its
    smallest vertex and prefix J minus {i, j}."""
    graph = simplicial.one_skeleton(K)
    labels = K.labels
    words = []
    for J in range(1, K.full_mask + 1):
        if J.bit_count() < 2:
            continue
        jpos = J.bit_length() - 1
        comps = graph.component_masks(J)
        if len(comps) < 2:
            continue
        rest = J & ~(1 << jpos)
        for comp in comps:
            if comp >> jpos & 1:
                continue
            ipos = (comp & -comp).bit_length() - 1
            prefix = tuple(labels[b] for b in bits(rest & ~(1 << ipos)))
            words.append(CommutatorWord(kind, prefix, labels[jpos], labels[ipos]))
    return GeneratorSet(tuple(words))


def validate_word(K, word):
    """Re-check the side conditions of a word against the complex, without
    going through the enumeration: the constructor enforces the index
    inequalities, so what remains is the component condition on the word's
    own support."""
    graph = simplicial.one_skeleton(K)
    support = K.mask_of(word.support)
    jpos = K.mask_of((word.j,)).bit_length() - 1
    ipos = K.mask_of((word.i,)).bit_length() - 1
    for comp in graph.component_masks(support):
        if comp >> ipos & 1:
            if comp >> jpos & 1:
                return False
            return ipos == (comp & -comp).bit_length() - 1
    return False
