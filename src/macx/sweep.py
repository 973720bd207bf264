"""Exhaustive verification harness over small flag complexes.

Flag complexes on n labelled vertices are exactly the clique complexes of the
2^(n(n-1)/2) labelled graphs, so sweeping graphs sweeps flag complexes. For
each complex the harness evaluates the configured biconditionals, pairing a
combinatorial classifier with its homological counterpart, and records any
mismatch as a counterexample carrying enough data to reproduce it standalone.
An empty counterexample list is the machine-checked form of the theorems.

The graph stream can be partitioned across worker processes (MACX_THREADS);
tallies merge by addition and counterexamples are sorted afterwards, so the
report does not depend on the schedule.
"""

from __future__ import annotations

import os
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from functools import lru_cache
from itertools import combinations, permutations

from . import classify, homology, simplicial
from .homology import Z_GROUP, homology_at
from .simplicial import Graph

CHECK_GROUP = "thm3"          # H_2(R_K) = Z  <=>  cycle-join condition
CHECK_ALGEBRA = "thm5"        # bigraded row condition  <=>  cycle-join condition
CHECK_FLAGMNG = "flagmng"     # one-relator  <=>  minimally non-Golod up to a cone
CHECK_VANISHING = "vanishing"
CHECK_CHORDAL_FREE = "chordal_free"

ALL_CHECKS = frozenset(
    {CHECK_GROUP, CHECK_ALGEBRA, CHECK_FLAGMNG, CHECK_VANISHING, CHECK_CHORDAL_FREE}
)


@dataclass(frozen=True)
class SweepConfig:
    max_vertices: int = 6
    dedup_isomorphism: bool = False
    checks: frozenset = ALL_CHECKS

    def __post_init__(self):
        if not 1 <= self.max_vertices <= 7:
            raise ValueError("sweeps are supported for 1..7 vertices")
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
                {
                    "n": c.n,
                    "graph_mask": c.graph_mask,
                    "check": c.check,
                    "facets": [list(f) for f in c.facets],
                    "details": c.details,
                }
                for c in self.counterexamples
            ],
        }


@lru_cache(maxsize=8)
def _edge_list(n):
    return tuple(combinations(range(n), 2))


@lru_cache(maxsize=8)
def _edge_permutation_maps(n):
    """For each vertex permutation, the induced map on edge indices."""
    edges = _edge_list(n)
    index = {e: i for i, e in enumerate(edges)}
    maps = []
    for perm in permutations(range(n)):
        maps.append(tuple(index[tuple(sorted((perm[u], perm[v])))] for u, v in edges))
    return tuple(maps)


def canonical_graph_form(n, mask):
    """Minimum edge bitmask over all n! vertex relabellings (brute force)."""
    best = mask
    for emap in _edge_permutation_maps(n):
        remapped = 0
        rest = mask
        while rest:
            low = rest & -rest
            remapped |= 1 << emap[low.bit_length() - 1]
            rest ^= low
        if remapped < best:
            best = remapped
    return best


def _graph_from_mask(n, mask):
    edges = _edge_list(n)
    adj = [0] * n
    rest = mask
    while rest:
        low = rest & -rest
        u, v = edges[low.bit_length() - 1]
        adj[u] |= 1 << v
        adj[v] |= 1 << u
        rest ^= low
    return Graph(tuple(range(1, n + 1)), tuple(adj))


def enumerate_flag_complexes(n, dedup_isomorphism=False):
    """Clique complexes of all labelled graphs on n vertices, in edge-mask
    order; with dedup, only the lexicographically minimal representative of
    each isomorphism class is yielded."""
    if not 1 <= n <= 7:
        raise ValueError("enumeration is supported for 1..7 vertices")
    for mask in range(1 << len(_edge_list(n))):
        if dedup_isomorphism and canonical_graph_form(n, mask) != mask:
            continue
        yield simplicial.clique_complex(_graph_from_mask(n, mask))


def _bigraded_row_details(table):
    return [
        [i, j2, g.free_rank, list(g.torsion)]
        for (i, j2), g in table.items_sorted()
    ]


def _check_complex(cfg, n, mask, tallies, counterexamples):
    graph = _graph_from_mask(n, mask)
    K = simplicial.clique_complex(graph)
    star = simplicial.classify_star_condition(K)
    chordal = bool(simplicial.is_chordal(graph))
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
            payload["bigraded"] = _bigraded_row_details(table)
        payload.update(details)
        counterexamples.append(Counterexample(n, mask, check, K.facets(), payload))

    if CHECK_GROUP in cfg.checks:
        homological = homology_at(groups, 2) == Z_GROUP
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
        golod = classify.golod_flag(K)
        tallies["minimally_non_golod"] += mng
        tallies["golod"] += golod
        cycle_len = simplicial.is_cycle(K)
        is_long_cycle = cycle_len is not None and cycle_len >= 4
        tallies["cycle_complexes"] += is_long_cycle
        core = graph.induced(graph.full_mask & ~graph.universal_mask())
        core_mng = simplicial.is_minimally_non_chordal(core)
        if star.matches != core_mng:
            report(CHECK_FLAGMNG, kind="cycle_join_vs_core_mng", core_mng=core_mng)
        if mng != is_long_cycle:
            report(CHECK_FLAGMNG, kind="mng_vs_cycle", mng=mng, cycle=cycle_len)
        if golod != chordal:
            report(CHECK_FLAGMNG, kind="golod_vs_chordal", golod=golod)

    if CHECK_CHORDAL_FREE in cfg.checks:
        holes = simplicial.find_induced_cycles(graph, 4)
        if chordal != (not holes):
            report(CHECK_CHORDAL_FREE, holes=[list(h) for h in holes])
        free = classify.is_free_commutator_group(K)
        if free != chordal:
            report(CHECK_CHORDAL_FREE, free_group=free)


def _run_range(cfg, n, lo, hi):
    tallies = {
        "star_matches": 0,
        "chordal": 0,
        "h2_exactly_Z": 0,
        "one_relator_row": 0,
        "minimally_non_golod": 0,
        "golod": 0,
        "cycle_complexes": 0,
    }
    counterexamples = []
    checked = 0
    for mask in range(lo, hi):
        if cfg.dedup_isomorphism and canonical_graph_form(n, mask) != mask:
            continue
        checked += 1
        _check_complex(cfg, n, mask, tallies, counterexamples)
    return checked, tallies, counterexamples


def _range_worker(args):
    return _run_range(*args)


def workers_from_environment():
    """Worker count from the MACX_THREADS environment variable: 1 if unset or
    empty, else a positive integer (ValueError otherwise)."""
    raw = os.environ.get("MACX_THREADS") or "1"
    if not (raw.isascii() and raw.isdigit() and int(raw) >= 1):
        raise ValueError(f"MACX_THREADS must be a positive integer, got {raw!r}")
    return int(raw)


def run_sweep(cfg, workers=None):
    """Run the configured checks over every flag complex on 1..max_vertices
    vertices. Worker count defaults to ``workers_from_environment()``;
    results are schedule-independent."""
    if workers is None:
        workers = workers_from_environment()
    jobs = []
    for n in range(1, cfg.max_vertices + 1):
        total = 1 << len(_edge_list(n))
        if workers > 1 and total > 4 * workers:
            step = (total + 4 * workers - 1) // (4 * workers)
            jobs.extend((cfg, n, lo, min(lo + step, total)) for lo in range(0, total, step))
        else:
            jobs.append((cfg, n, 0, total))
    if workers > 1 and len(jobs) > 1:
        with ProcessPoolExecutor(max_workers=workers) as pool:
            results = list(pool.map(_range_worker, jobs))
    else:
        results = [_run_range(*job) for job in jobs]
    checked = 0
    tallies = {}
    counterexamples = []
    for part_checked, part_tallies, part_cex in results:
        checked += part_checked
        for key, val in part_tallies.items():
            tallies[key] = tallies.get(key, 0) + val
        counterexamples.extend(part_cex)
    counterexamples.sort(key=lambda c: (c.n, c.graph_mask, c.check))
    return SweepReport(cfg, checked, counterexamples, tallies)
