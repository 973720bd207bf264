"""Exhaustive verification harness over small flag complexes.

Flag complexes on n labelled vertices are exactly the clique complexes of the
2^(n(n-1)/2) labelled graphs. Each check pairs a combinatorial classifier with
its homological counterpart and is invariant under relabelling, so one graph
per isomorphism class is checked (``graph_classes``) and counted once per
labelled graph in its class. A class with a mismatch is expanded to its
labelled graphs, each recorded as a counterexample carrying enough data to
reproduce it standalone. An empty counterexample list is the machine-checked
form of the theorems.

The classes can be partitioned across worker processes (MACX_THREADS);
tallies merge by addition and counterexamples are sorted afterwards, so the
report does not depend on the schedule.
"""

from __future__ import annotations

import os
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from functools import lru_cache
from itertools import combinations, permutations
from math import factorial

from . import classify, homology, simplicial
from .homology import homology_at
from .simplicial import bits

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


def _refine(adj, cells):
    """Split the ordered cells (vertex bitmasks) by each vertex's neighbour
    count in every cell until those counts are constant on each cell. Only
    the cells are read, so refining commutes with relabelling."""
    while True:
        out = []
        for cell in cells:
            if not cell & (cell - 1):
                out.append(cell)
                continue
            split = {}
            for v in bits(cell):
                key = tuple((adj[v] & c).bit_count() for c in cells)
                split[key] = split.get(key, 0) | 1 << v
            out.extend(split[k] for k in sorted(split))
        if len(out) == len(cells):
            return cells
        cells = out


def _canonical_form(adj):
    """(certificate, |Aut G|): the largest edge mask over the leaves of the
    tree that refines, then gives each vertex of the first non-singleton
    cell its own cell in turn. It is searched with no pruning, so the leaves
    reaching the certificate are one of them composed with each automorphism."""
    leaves = []
    stack = [_refine(adj, [(1 << len(adj)) - 1])]
    while stack:
        cells = stack.pop()
        k = next((i for i, c in enumerate(cells) if c & (c - 1)), None)
        if k is None:
            leaves.append(_relabelled_mask(adj, [c.bit_length() - 1 for c in cells]))
        else:
            stack.extend(_refine(adj, cells[:k] + [1 << v, cells[k] ^ 1 << v] + cells[k + 1:])
                         for v in bits(cells[k]))
    best = max(leaves)
    return best, leaves.count(best)


def graph_classes(max_n):
    """Yield, for n = 1..max_n, a dict from the canonical edge mask of each
    isomorphism class of graphs on n vertices to |Aut G|. Deleting a vertex
    of least degree leaves a graph on n-1 vertices, so the classes at n are
    those at n-1 plus a vertex with each neighbourhood S that leaves it of
    least degree, deduplicated by certificate (after McKay, "Isomorph-free
    exhaustive generation", J. Algorithms 26, 1998)."""
    level = {0: 1}
    yield level
    for n in range(2, max_n + 1):
        found = {}
        for mask in level:
            adj = _adjacency(n - 1, mask)
            least = min(a.bit_count() for a in adj)
            lowest = sum(1 << i for i, a in enumerate(adj) if a.bit_count() == least)
            for S in range(1 << (n - 1)):
                if S.bit_count() > least + (not lowest & ~S):
                    continue
                grown = [a | (S >> i & 1) << (n - 1) for i, a in enumerate(adj)]
                cert, aut = _canonical_form(grown + [S])
                found[cert] = aut
        level = found
        yield level


def _adjacency(n, mask):
    """Neighbour bitmasks of the graph on n vertices with edge mask ``mask``."""
    adj = [0] * n
    for k in bits(mask):
        u, v = _edge_list(n)[k]
        adj[u] |= 1 << v
        adj[v] |= 1 << u
    return adj


def _check_complex(cfg, n, mask, tallies, counterexamples):
    K = simplicial.clique_complex(n, [(u + 1, v + 1) for k, (u, v) in enumerate(_edge_list(n))
                                      if mask >> k & 1])
    star = simplicial.classify_star_condition(K)
    chordal = bool(simplicial.is_chordal(K))
    tallies["star_matches"] += star.matches
    tallies["chordal"] += chordal

    needs_homology = cfg.checks & {CHECK_GROUP, CHECK_ALGEBRA, CHECK_VANISHING}
    groups = table = None
    if needs_homology:
        groups, table = homology.homology_R_and_Z(K)

    def report(check, **details):
        payload = {
            "star": {"matches": star.matches, "p": star.p, "cone": list(star.cone_vertices)},
            "chordal": chordal,
        }
        if groups is not None:
            payload["H_R"] = [[k, g.free_rank, list(g.torsion)] for k, g in enumerate(groups)]
            payload["bigraded"] = [[i, j2, g.free_rank, list(g.torsion)]
                                   for (i, j2), g in table.items_sorted()]
        payload.update(details)
        counterexamples.append(Counterexample(n, mask, check, K.facets(), payload))

    if CHECK_GROUP in cfg.checks:
        homological = classify.one_relator_group_homological(K, groups)
        tallies["h2_exactly_Z"] += homological
        if homological != star.matches:
            report(CHECK_GROUP, h2=str(homology_at(groups, 2)))

    if CHECK_ALGEBRA in cfg.checks:
        row_ok = classify.one_relator_algebra_homological(K, table)
        tallies["one_relator_row"] += row_ok
        if row_ok != star.matches:
            report(CHECK_ALGEBRA, row_verdict=row_ok)

    if CHECK_VANISHING in cfg.checks and star.matches:
        if not classify.vanishing_check(K, groups, table):
            report(CHECK_VANISHING)

    if CHECK_FLAGMNG in cfg.checks:
        mng = classify.minimally_non_golod_flag(K)
        tallies["minimally_non_golod"] += mng
        tallies["golod"] += chordal  # Golodness of a flag complex is chordality
        cycle_len = simplicial.is_cycle(K)
        is_long_cycle = cycle_len is not None and cycle_len >= 4
        tallies["cycle_complexes"] += is_long_cycle
        cones = sum(f for f in simplicial.join_factors(K) if not f & f - 1)
        core_mng = simplicial.is_minimally_non_chordal(K.induced(K.full_mask & ~cones))
        if star.matches != core_mng:
            report(CHECK_FLAGMNG, kind="cycle_join_vs_core_mng", core_mng=core_mng)
        if mng != is_long_cycle:
            report(CHECK_FLAGMNG, kind="mng_vs_cycle", mng=mng, cycle=cycle_len)

    if CHECK_CHORDAL_FREE in cfg.checks:
        holes = simplicial.find_induced_cycles(K)
        if chordal != (not holes):
            report(CHECK_CHORDAL_FREE, holes=[list(h) for h in holes])


def _check_classes(cfg, n, classes):
    """Check one mask per (mask, |Aut|) class and weight its tallies by the
    class size, n!/|Aut| (1 with dedup). A class with a counterexample is
    expanded to its orbit, and every mask of it (the least, with dedup) is
    checked and reported as the labelled sweep would report it."""
    tallies = dict.fromkeys(_TALLIES, 0)
    counterexamples = []
    checked = 0
    for mask, aut in classes:
        own, found = dict.fromkeys(_TALLIES, 0), []
        _check_complex(cfg, n, mask, own, found)
        weight = 1 if cfg.dedup_isomorphism else factorial(n) // aut
        checked += weight
        for key, val in own.items():
            tallies[key] += weight * val
        if found:
            adj = _adjacency(n, mask)
            orbit = sorted({_relabelled_mask(adj, p) for p in permutations(range(n))})
            for labelled in orbit[:1] if cfg.dedup_isomorphism else orbit:
                _check_complex(cfg, n, labelled, dict.fromkeys(_TALLIES, 0), counterexamples)
    return checked, tallies, counterexamples


def workers_from_environment():
    """Worker count from the MACX_THREADS environment variable: 1 if unset or
    empty, else a positive integer (ValueError otherwise)."""
    raw = os.environ.get("MACX_THREADS") or "1"
    if not (raw.isascii() and raw.isdigit() and int(raw) >= 1):
        raise ValueError(f"MACX_THREADS must be a positive integer, got {raw!r}")
    return int(raw)


def run_sweep(cfg, workers=None):
    """Run the configured checks over every flag complex on 1..max_vertices
    vertices, by isomorphism class (see ``_check_classes``). Worker count
    defaults to ``workers_from_environment()``; results are
    schedule-independent."""
    if workers is None:
        workers = workers_from_environment()
    jobs = []
    for n, classes in enumerate(graph_classes(cfg.max_vertices), start=1):
        reps = sorted(classes.items())
        step = -(-len(reps) // (4 * workers))
        jobs.extend((cfg, n, reps[lo:lo + step]) for lo in range(0, len(reps), step))
    if workers > 1 and len(jobs) > 1:
        with ProcessPoolExecutor(max_workers=workers) as pool:
            results = list(pool.map(_check_classes, *zip(*jobs)))
    else:
        results = [_check_classes(*job) for job in jobs]
    checked, tallies, counterexamples = 0, dict.fromkeys(_TALLIES, 0), []
    for part_checked, part_tallies, part_cex in results:
        checked += part_checked
        for key, val in part_tallies.items():
            tallies[key] += val
        counterexamples.extend(part_cex)
    counterexamples.sort(key=lambda c: (c.n, c.graph_mask, c.check))
    return SweepReport(cfg, checked, counterexamples, tallies)
