"""Exhaustive verification harness over small flag complexes.

Flag complexes on n labelled vertices are exactly the clique complexes of the
2^(n(n-1)/2) labelled graphs. Each check pairs a combinatorial classifier with
its homological counterpart and is invariant under relabelling, so one graph
per isomorphism class is checked and counted once per labelled graph in its
class. A class with a mismatch is expanded to its labelled graphs, each
recorded as a counterexample carrying enough data to reproduce it standalone.
An empty counterexample list is the machine-checked form of the theorems.

Only the open family is checked. Call a checked class P closed when it is
not chordal (``simplicial.chordless_cycle`` exhibits an induced cycle), does
not match the cycle-join condition and gave no counterexample; else it is
open. A graph G with a closed induced subgraph P needs no check:

- G is not chordal, since P's induced cycle is induced in G;
- G is not a cycle-join, since every induced subgraph of C_p * K_r is
  chordal or a cycle-join;
- so G's star, chordal, Golod, minimally non-Golod and cycle tallies are 0,
  its ``chordal_free`` cross-check is settled by its cycle, and ``flagmng``
  and ``vanishing`` have nothing to report;
- H_2(R_P) = ⊕_{J ⊆ V(P)} H̃_1(P_J) is a direct summand of H_2(R_G), and so
  is each entry of P's row H_{2-j,2j}(Z_P) of G's. P is not chordal, so
  H_2(R_P) is not 0, and when ``thm3`` or ``thm5`` ran on P it is not Z (or
  P would be a counterexample) and P's row fails. A summand of Z is 0 or Z,
  so G's H_2(R_G) is not Z and G's row fails too: ``h2_exactly_Z`` and
  ``one_relator_row`` are 0 at G, and neither check can fail there. When
  neither check runs, those tallies read 0 throughout.

``graph_classes`` grows the class of G from the class of G minus its
canonical deletion vertex, an induced subgraph of G, which is open when G
is. So growing level n from the open classes of level n-1 alone reaches
every open class, and the closed classes it reaches are checked as well.
``complexes_checked`` counts every complex, checked or not, by formula
(``_class_count``).

The checks of a level can be split across worker processes (MACX_THREADS);
tallies merge by addition and counterexamples are sorted afterwards, so the
report does not depend on the schedule.
"""

from __future__ import annotations

import os
from collections import Counter
from contextlib import ExitStack
from dataclasses import dataclass
from functools import lru_cache
from itertools import combinations, permutations
from math import comb, factorial, gcd, prod

from . import classify, homology, simplicial
from .simplicial import bits, subset_sums

CHECK_GROUP = "thm3"          # H_2(R_K) = Z  <=>  cycle-join condition
CHECK_ALGEBRA = "thm5"        # bigraded row condition  <=>  cycle-join condition
CHECK_FLAGMNG = "flagmng"     # one-relator  <=>  minimally non-Golod up to a cone
CHECK_VANISHING = "vanishing"
CHECK_CHORDAL_FREE = "chordal_free"

ALL_CHECKS = frozenset(
    {CHECK_GROUP, CHECK_ALGEBRA, CHECK_FLAGMNG, CHECK_VANISHING, CHECK_CHORDAL_FREE}
)
_TALLIES = ("star_matches", "chordal", "h2_exactly_Z", "one_relator_row",
            "minimally_non_golod", "golod", "cycle_complexes")
MAX_SWEEP_VERTICES = 9
# Most worker processes a sweep starts: a larger MACX_THREADS is refused.
MAX_WORKERS = 64


@dataclass(frozen=True)
class SweepConfig:
    max_vertices: int = 6
    dedup_isomorphism: bool = False
    checks: frozenset = ALL_CHECKS

    def __post_init__(self):
        if not 1 <= self.max_vertices <= MAX_SWEEP_VERTICES:
            raise ValueError(f"sweeps are supported for 1..{MAX_SWEEP_VERTICES} vertices")
        unknown = set(self.checks) - ALL_CHECKS
        if unknown:
            raise ValueError(f"unknown checks: {sorted(unknown)}")
        object.__setattr__(self, "checks", frozenset(self.checks))


@dataclass
class Counterexample:
    n: int
    graph_mask: int
    check: str
    facets: tuple
    details: dict


@dataclass
class SweepReport:
    config: SweepConfig
    complexes_checked: int
    counterexamples: list
    tallies: dict

    @property
    def ok(self):
        return not self.counterexamples

    def to_json_dict(self):
        return {
            "max_vertices": self.config.max_vertices,
            "dedup_isomorphism": self.config.dedup_isomorphism,
            "checks": sorted(self.config.checks),
            "complexes_checked": self.complexes_checked,
            "tallies": dict(sorted(self.tallies.items())),
            "counterexamples": [
                {"n": c.n, "graph_mask": c.graph_mask, "check": c.check,
                 "facets": [list(f) for f in c.facets], "details": c.details}
                for c in self.counterexamples
            ],
        }


@lru_cache(maxsize=16)
def _edge_list(n):
    return tuple(combinations(range(n), 2))


def _relabelled_mask(adj, order):
    """Edge mask of the graph whose vertex i is vertex order[i] of adj."""
    pairs = _edge_list(len(order))
    return sum(1 << k for k, (i, j) in enumerate(pairs) if adj[order[i]] >> order[j] & 1)


def _refine(adj, cells, splitters):
    """Split the ordered cells (vertex bitmasks) by each vertex's neighbour
    count in one splitter cell at a time until no splitter is left; then
    those counts are constant on each cell. A split cell's parts stay in its
    place in increasing count and become splitters: all of them if the cell
    was still waiting as one, else all but its first largest part, whose
    counts the others determine. Only cell positions, sizes and counts are
    read, so refining commutes with relabelling."""
    queue = list(splitters)
    while queue and len(cells) < len(adj):
        splitter = queue.pop(0)
        out = []
        for cell in cells:
            if cell & (cell - 1):
                parts = {}
                for v in bits(cell):
                    count = (adj[v] & splitter).bit_count()
                    parts[count] = parts.get(count, 0) | 1 << v
                if len(parts) > 1:
                    split = [parts[c] for c in sorted(parts)]
                    out.extend(split)
                    if cell in queue:
                        at = queue.index(cell)
                        queue[at:at + 1] = split
                    else:
                        split.remove(max(split, key=int.bit_count))
                        queue.extend(split)
                    continue
            out.append(cell)
        cells = out
    return cells


def _individualise(adj, cells, k, v):
    """Give v its own cell in front of the rest of cell k and refine. The
    cells were equitable, so {v} is the only splitter."""
    return _refine(adj, cells[:k] + [1 << v, cells[k] ^ 1 << v] + cells[k + 1:], [1 << v])


def _leaves(adj, cells):
    """Yield the vertex order of each leaf of the search tree below the node
    ``cells``, depth first; a node is refined only when it is reached."""
    k = _first_split(cells)
    if k is None:
        yield [c.bit_length() - 1 for c in cells]
        return
    for v in bits(cells[k]):
        yield from _leaves(adj, _individualise(adj, cells, k, v))


def _first_split(cells):
    return next((k for k, c in enumerate(cells) if c & (c - 1)), None)


def _canonical_form(adj):
    """(canonical order, |Aut G|, generators of Aut G). The search tree
    refines, then individualises each vertex of the first non-singleton cell
    in turn; a leaf orders the vertices, and the canonical order is the leaf
    order whose relabelled edge mask is largest (the certificate). The first
    path descends to a leaf. Walking back up it, path node i tries one child
    per orbit of the automorphisms found so far and searches the child's
    subtree only until a leaf has the first leaf's edge mask. Mapping the
    first leaf's order to that leaf's is an automorphism that fixes the
    first i path vertices and takes the i-th to the child, so the rest of
    the subtree is its image of ground already covered (McKay & Piperno,
    "Practical graph isomorphism, II", J. Symb. Comput. 60, 2014). Every
    leaf mask of the tree is still seen, and by orbit-stabiliser |Aut G| is
    the product over the path of the orbit of its vertex under the
    automorphisms found at or below it. The generators are automorphisms of
    G, each a list of the images of its vertices."""
    n = len(adj)
    path = []
    cells = _refine(adj, [(1 << n) - 1], [(1 << n) - 1])
    while (k := _first_split(cells)) is not None:
        v = (cells[k] & -cells[k]).bit_length() - 1
        path.append((cells, k, v))
        cells = _individualise(adj, cells, k, v)
    first = [c.bit_length() - 1 for c in cells]
    target = best = _relabelled_mask(adj, first)
    best_order = first
    root, size = list(range(n)), [1] * n

    def find(v):
        while root[v] != v:
            root[v] = v = root[root[v]]
        return v

    found = []
    aut = 1
    for cells, k, v in reversed(path):
        tried = [v]
        for w in bits(cells[k]):
            if any(find(w) == find(u) for u in tried):
                continue
            tried.append(w)
            for order in _leaves(adj, _individualise(adj, cells, k, w)):
                mask = _relabelled_mask(adj, order)
                if mask > best:
                    best, best_order = mask, order
                if mask == target:
                    gamma = [0] * n
                    for a, b in zip(first, order):
                        gamma[a] = b
                        ra, rb = find(a), find(b)
                        if ra != rb:
                            root[rb] = ra
                            size[ra] += size[rb]
                    found.append(gamma)
                    break
        aut *= size[find(v)]
    return best_order, aut, found


def graph_classes(max_n):
    """Yield, for n = 1..max_n, a dict from the edge mask of one graph of
    each isomorphism class on n vertices, in the labelling it was grown in,
    to |Aut G|. After each level the caller may ``send`` the masks of the
    classes to grow; plain iteration grows them all.

    The classes at n are grown from those at n-1 by canonical augmentation
    (McKay, "Isomorph-free exhaustive generation", J. Algorithms 26, 1998).
    G = P + v adds a last vertex v with neighbourhood S, one S per orbit of
    Aut P, the orbits closed under the generators ``_canonical_form``
    returned for P. G is accepted only if v lies in the Aut G-orbit of its
    canonical deletion vertex (``_children``). Isomorphic children then come
    from one parent and one orbit of S, so each class at n is yielded once,
    from the class of G minus its canonical deletion vertex."""
    level = {0: (1, [])}  # mask -> (|Aut G|, generators, or None until needed)
    for n in range(1, max_n + 1):
        grow = yield {mask: aut for mask, (aut, _) in level.items()}
        if n < max_n:
            children = {}
            for mask in level if grow is None else grow:
                aut, generators = level[mask]
                adj = _adjacency(n, mask)
                if generators is None:
                    generators = _canonical_form(adj)[2]
                children.update(_children(adj, aut, generators))
            level = children


def _children(adj, aut, generators):
    """The accepted one-vertex extensions of the graph ``adj`` on n vertices,
    whose automorphism group has order ``aut`` and the given generators, as
    (mask, (|Aut G|, generators or None)) on n + 1 vertices.

    The canonical deletion vertex has least degree, so the new vertex v = n
    must have least degree in G, which degrees alone decide. The canonical
    deletion cell C of G is read off its refined unit partition,
    which every automorphism preserves: among the cells of least degree, the
    last singleton if there is one, else the last cell. G is rejected if v
    is not in C. If C = {v}, Aut G fixes v and is the stabiliser of S in
    Aut P, of order |Aut P| / |orbit of S|, and G is accepted. Otherwise G
    is accepted iff v is in the Aut G-orbit of the first vertex of C in the
    canonical order."""
    n = len(adj)
    least = min(a.bit_count() for a in adj)
    lowest = sum(1 << i for i, a in enumerate(adj) if a.bit_count() == least)
    images = [subset_sums([1 << p for p in g], 0) for g in generators]
    full = (1 << n + 1) - 1
    tried = bytearray(1 << n)
    for S in range(1 << n):
        fewest = least + (not lowest & ~S)  # the least degree in G of P's vertices
        if tried[S] or S.bit_count() > fewest:
            continue
        orbit = _orbit(S, images)
        for T in orbit:
            tried[T] = 1
        grown = [a | (S >> i & 1) << n for i, a in enumerate(adj)] + [S]
        if S.bit_count() < fewest:  # v alone is of least degree
            cell = 1 << n
        else:
            low = [c for c in _refine(grown, [full], [full])
                   if grown[c.bit_length() - 1].bit_count() == fewest]
            cell = next((c for c in reversed(low) if not c & c - 1), low[-1])
        if not cell >> n & 1:
            continue
        mask = _relabelled_mask(grown, range(n + 1))
        if cell == 1 << n:
            yield mask, (aut // len(orbit), None)
            continue
        order, child_aut, child_generators = _canonical_form(grown)
        if n in _orbit(next(w for w in order if cell >> w & 1), child_generators):
            yield mask, (child_aut, child_generators)


def _orbit(x, maps):
    """The orbit of x under the group the maps generate, each a list of
    images (of subsets or of vertices), in the order it is reached."""
    orbit, seen = [x], {x}
    for y in orbit:
        for image in maps:
            if image[y] not in seen:
                seen.add(image[y])
                orbit.append(image[y])
    return orbit


def _adjacency(n, mask):
    """Neighbour bitmasks of the graph on n vertices with edge mask ``mask``."""
    adj = [0] * n
    for k in bits(mask):
        u, v = _edge_list(n)[k]
        adj[u] |= 1 << v
        adj[v] |= 1 << u
    return adj


def _class_count(n):
    """The number of isomorphism classes of graphs on n vertices (OEIS
    A000088), by Burnside's lemma over S_n acting on the vertex pairs: a
    permutation whose cycles have lengths l_1, l_2, ... has
    sum floor(l_i / 2) + sum_{i<j} gcd(l_i, l_j) cycles on the pairs, and
    n! / z of the n! permutations share its cycle type, z being the product
    of the l_i and of the factorials of the multiplicities."""
    total = 0
    for lengths in _partitions(n, n):
        cycles = (sum(l // 2 for l in lengths)
                  + sum(gcd(a, b) for a, b in combinations(lengths, 2)))
        z = prod(lengths) * prod(factorial(c) for c in Counter(lengths).values())
        total += factorial(n) // z << cycles
    return total // factorial(n)


def _partitions(n, most):
    """The partitions of n into parts of at most ``most``, parts descending."""
    if n == 0:
        yield ()
    for part in range(min(n, most), 0, -1):
        for rest in _partitions(n - part, part):
            yield (part,) + rest


def _check_complex(cfg, n, mask, tallies, counterexamples):
    """Check the clique complex of one labelled graph, adding to the tallies
    and the counterexamples. Return whether the graph is chordal or a
    cycle-join, short of a chordless cycle that shows it is neither."""
    K = simplicial.clique_complex(n, [(u + 1, v + 1) for k, (u, v) in enumerate(_edge_list(n))
                                      if mask >> k & 1])
    star = simplicial.classify_star_condition(K)
    chordal = simplicial.is_chordal(K)
    tallies["star_matches"] += star.matches
    tallies["chordal"] += chordal

    table = (homology.bigraded_homology_Z(K)
             if cfg.checks & {CHECK_GROUP, CHECK_ALGEBRA, CHECK_VANISHING} else None)

    def report(check, **details):
        payload = {
            "star": {"matches": star.matches, "p": star.p, "cone": list(star.cone_vertices)},
            "chordal": chordal,
        }
        if table is not None:
            payload["H_R"] = [[k, g.free_rank, list(g.torsion)]
                              for k, g in enumerate(table.homology_R())]
            payload["bigraded"] = [[i, j2, g.free_rank, list(g.torsion)]
                                   for (i, j2), g in table.items_sorted()]
        payload.update(details)
        counterexamples.append(Counterexample(n, mask, check, K.facets(), payload))

    if CHECK_GROUP in cfg.checks:
        homological = classify.one_relator_group_homological(K, table)
        tallies["h2_exactly_Z"] += homological
        if homological != star.matches:
            report(CHECK_GROUP, h2=str(table.R(2)))

    if CHECK_ALGEBRA in cfg.checks:
        row_ok = classify.one_relator_algebra_homological(K, table)
        tallies["one_relator_row"] += row_ok
        if row_ok != star.matches:
            report(CHECK_ALGEBRA, row_verdict=row_ok)

    if CHECK_VANISHING in cfg.checks and star.matches:
        if not classify.vanishing_check(K, table):
            report(CHECK_VANISHING)

    if CHECK_FLAGMNG in cfg.checks:
        mng = classify.minimally_non_golod_flag(K)
        tallies["minimally_non_golod"] += mng
        tallies["golod"] += chordal  # Golodness of a flag complex is chordality
        cycle_len = simplicial.is_cycle(K)
        is_long_cycle = cycle_len is not None and cycle_len >= 4
        tallies["cycle_complexes"] += is_long_cycle
        cones = sum(f for f in simplicial.join_factors(K) if not f & f - 1)
        core_mng = (simplicial.is_minimally_non_chordal(K.induced(K.full_mask & ~cones))
                    if cones else mng)  # with no cone vertex K is its own core
        if star.matches != core_mng:
            report(CHECK_FLAGMNG, kind="cycle_join_vs_core_mng", core_mng=core_mng)
        if mng != is_long_cycle:
            report(CHECK_FLAGMNG, kind="mng_vs_cycle", mng=mng, cycle=cycle_len)

    if CHECK_CHORDAL_FREE in cfg.checks:
        if chordal != (next(simplicial.find_induced_cycles(K), None) is None):
            report(CHECK_CHORDAL_FREE, holes=[list(h) for h in simplicial.find_induced_cycles(K)])

    return bool(star.matches or chordal or simplicial.chordless_cycle(K) is None)


def _check_classes(cfg, n, classes):
    """Check one mask per (mask, |Aut|) class and weight its tallies by the
    class size, n!/|Aut| (1 with dedup). A class with a counterexample is
    expanded to its orbit, and every mask of it (the least, with dedup) is
    checked and reported as the labelled sweep would report it. Return the
    tallies, the counterexamples and the masks of the open classes."""
    tallies = dict.fromkeys(_TALLIES, 0)
    counterexamples, open_masks = [], []
    for mask, aut in classes:
        own, found = dict.fromkeys(_TALLIES, 0), []
        if _check_complex(cfg, n, mask, own, found) or found:
            open_masks.append(mask)
        weight = 1 if cfg.dedup_isomorphism else factorial(n) // aut
        for key, val in own.items():
            tallies[key] += weight * val
        if found:
            adj = _adjacency(n, mask)
            orbit = sorted({_relabelled_mask(adj, p) for p in permutations(range(n))})
            for labelled in orbit[:1] if cfg.dedup_isomorphism else orbit:
                _check_complex(cfg, n, labelled, dict.fromkeys(_TALLIES, 0), counterexamples)
    return tallies, counterexamples, open_masks


def workers_from_environment():
    """Worker count from the MACX_THREADS environment variable: 1 if unset or
    empty, else an integer from 1 to MAX_WORKERS (ValueError otherwise)."""
    raw = os.environ.get("MACX_THREADS") or "1"
    digits = raw.lstrip("0")
    if not (raw.isascii() and raw.isdigit() and digits):
        raise ValueError(f"MACX_THREADS must be a positive integer, got {raw!r}")
    if len(digits) > len(str(MAX_WORKERS)) or int(digits) > MAX_WORKERS:
        raise ValueError(f"MACX_THREADS must be at most {MAX_WORKERS}, got {raw!r}")
    return int(digits)


def run_sweep(cfg, workers=None):
    """Run the configured checks over every flag complex on 1..max_vertices
    vertices: level by level, the classes grown from the open classes of
    the level below are checked (see ``_check_classes``), and their open
    classes are sent back to ``graph_classes`` to grow the next level. The
    worker count defaults to ``workers_from_environment()``; one pool of at
    most that many processes is started at the first level with as many
    jobs, and results are schedule-independent."""
    if workers is None:
        workers = workers_from_environment()
    size = min(workers, MAX_WORKERS)
    tallies, counterexamples = dict.fromkeys(_TALLIES, 0), []
    classes = graph_classes(cfg.max_vertices)
    grow, pool = None, None
    with ExitStack() as stack:
        for n in range(1, cfg.max_vertices + 1):
            reps = sorted(classes.send(grow).items())
            step = -(-len(reps) // (4 * workers))
            jobs = [(cfg, n, reps[lo:lo + step]) for lo in range(0, len(reps), step)]
            if pool is None and size > 1 and len(jobs) >= size:
                from concurrent.futures import ProcessPoolExecutor  # costly import, needed only here

                pool = stack.enter_context(ProcessPoolExecutor(max_workers=size))
            grow = []
            for part_tallies, part_cex, part_open in (pool.map if pool else map)(
                    _check_classes, *zip(*jobs)):
                for key, val in part_tallies.items():
                    tallies[key] += val
                counterexamples.extend(part_cex)
                grow.extend(part_open)
    counterexamples.sort(key=lambda c: (c.n, c.graph_mask, c.check))
    count = _class_count if cfg.dedup_isomorphism else lambda k: 1 << comb(k, 2)
    checked = sum(count(k) for k in range(1, cfg.max_vertices + 1))
    return SweepReport(cfg, checked, counterexamples, tallies)
