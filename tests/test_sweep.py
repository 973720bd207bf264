import concurrent.futures
import json
import random
from collections import Counter
from itertools import combinations, permutations
from math import comb, factorial

import pytest

from conftest import class_flag_complexes, unpruned_canonical_form
from macx import classify, homology, simplicial, sweep
from macx.cli import main
from macx.homology import bigraded_homology_Z
from macx.simplicial import SimplicialComplex, bits, classify_star_condition
from macx.sweep import SweepConfig, SweepReport, graph_classes, run_sweep

A000088 = [1, 1, 2, 4, 11, 34, 156, 1044, 12346, 274668, 12005168]  # graphs on n vertices


def test_isomorphism_class_counts():
    # with dedup the sweep checks one complex per class: 1 + 2 + 4 + 11
    checks = frozenset({"chordal_free"})
    report = run_sweep(SweepConfig(max_vertices=4, dedup_isomorphism=True, checks=checks))
    assert report.complexes_checked == 18


def test_cycle_join_classes_on_five_vertices():
    # among isomorphism classes on exactly five vertices, the cycle-join
    # condition picks out the 5-cycle and the cone over the 4-cycle
    shapes = set()
    for K in class_flag_complexes(5):
        got = classify_star_condition(K)
        if got.matches:
            shapes.add((got.p, len(got.cone_vertices) - 1))
    assert shapes == {(5, -1), (4, 0)}


def _labelled_cycle_join_count(n):
    """Construction oracle: distinct labelled complexes on exactly n vertices
    that are a p-cycle joined with a simplex on the remaining vertices."""
    seen = set()
    for p in range(4, n + 1):
        for support in combinations(range(1, n + 1), p):
            cone = tuple(v for v in range(1, n + 1) if v not in support)
            for arrangement in permutations(support[1:]):
                ring = (support[0],) + arrangement
                edges = frozenset(
                    frozenset((ring[i], ring[(i + 1) % p])) for i in range(p)
                )
                extra = frozenset(
                    frozenset(pair)
                    for pair in combinations(range(1, n + 1), 2)
                    if frozenset(pair) & set(cone)
                )
                seen.add(edges | extra)
    return len(seen)


def test_star_tally_matches_construction_count():
    report = run_sweep(SweepConfig(max_vertices=5))
    expected = sum(_labelled_cycle_join_count(n) for n in range(4, 6))
    assert report.tallies["star_matches"] == expected
    assert report.complexes_checked == 1 + 2 + 8 + 64 + 1024


def test_sweep_small_is_clean():
    report = run_sweep(SweepConfig(max_vertices=4))
    assert report.ok
    assert report.counterexamples == []
    assert report.tallies["star_matches"] == 3          # the labelled squares
    assert report.tallies["minimally_non_golod"] == 3
    assert report.tallies["cycle_complexes"] == 3


def test_sweep_detects_corrupted_classifier(monkeypatch):
    true_is_chordal = simplicial.is_chordal
    monkeypatch.setattr(simplicial, "is_chordal", lambda g: not true_is_chordal(g))
    report = run_sweep(SweepConfig(max_vertices=4,
                                   checks=frozenset({"chordal_free", "flagmng"})))
    assert not report.ok
    assert len(report.counterexamples) > 0
    cex = report.counterexamples[0]
    assert cex.facets and cex.check in {"chordal_free", "flagmng"}
    assert "star" in cex.details and "chordal" in cex.details


def test_sweep_determinism_and_parallel_agreement():
    cfg = SweepConfig(max_vertices=4)
    first = run_sweep(cfg)
    second = run_sweep(cfg)
    assert first == second
    parallel = run_sweep(cfg, workers=2)
    assert parallel == first


def test_worker_count_from_environment(monkeypatch):
    cfg = SweepConfig(max_vertices=3)
    baseline = run_sweep(cfg)
    monkeypatch.setenv("MACX_THREADS", "2")
    assert run_sweep(cfg) == baseline


def test_worker_processes_are_bounded(monkeypatch):
    """A sweep starts at most one pool, of at most MAX_WORKERS processes,
    and only at a level with at least as many jobs, whatever count its
    caller asks for; the pool here is a stand-in that runs the jobs in this
    process. With checks for n <= 6 the levels hold 1, 2, 4, 11, 34 and 123
    classes, one job each when the workers outnumber them."""
    started = []

    class InlinePool:
        def __init__(self, max_workers):
            started.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        map = staticmethod(map)

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", InlinePool)
    for n, workers, pools in [(4, 10**6, []), (6, 10**6, [sweep.MAX_WORKERS]), (4, 3, [3])]:
        cfg = SweepConfig(max_vertices=n, checks=frozenset({"chordal_free"}))
        assert run_sweep(cfg, workers=workers) == run_sweep(cfg, workers=1)
        assert started == pools
        started.clear()


def test_counterexample_payload_reproduces(monkeypatch):
    # a counterexample record must carry facets plus homology tables
    true_is_chordal = simplicial.is_chordal
    monkeypatch.setattr(simplicial, "is_chordal", lambda g: not true_is_chordal(g))
    report = run_sweep(SweepConfig(max_vertices=4, checks=frozenset({"thm3", "flagmng"})))
    # thm3 is untouched by chordality, flagmng breaks; homology tables are
    # attached whenever the sweep computed them
    assert any(c.check == "flagmng" for c in report.counterexamples)


@pytest.mark.parametrize("fake", [None, (1, 2, 3, 4)])
def test_chordal_free_reports_a_broken_cycle_search(monkeypatch, fake):
    """A cycle search that finds none, or the same cycle on every graph, is
    caught by the chordal_free cross-check on every graph it gets wrong, and
    each counterexample carries the cycle the search gave."""
    monkeypatch.setattr(simplicial, "chordless_cycle", lambda K: fake)
    report = run_sweep(SweepConfig(max_vertices=5, checks=frozenset({"chordal_free"})),
                       workers=1)
    found = report.counterexamples
    assert found and {c.check for c in found} == {"chordal_free"}
    assert all(c.details["chordless_cycle"] == (fake and list(fake)) for c in found)
    assert all(c.details["chordal"] == (fake is not None) for c in found)
    chordal = report.tallies["chordal"]
    assert len(found) == (chordal if fake else report.complexes_checked - chordal)


@pytest.mark.parametrize("checks", [{"thm3", "thm5", "vanishing"}, {"flagmng"},
                                    {"chordal_free"}, sweep.ALL_CHECKS])
def test_one_cycle_search_per_class(monkeypatch, checks):
    """``_check_complex`` searches for a chordless cycle at most once, and
    on a chordal graph or a cycle-join only when chordal_free is checked."""
    searched, per_check = [], []
    find, check = simplicial.chordless_cycle, sweep._check_complex
    monkeypatch.setattr(simplicial, "chordless_cycle", lambda K: searched.append(K) or find(K))

    def counted(*args):
        before = len(searched)
        open_ = check(*args)
        per_check.append(len(searched) - before)
        return open_

    monkeypatch.setattr(sweep, "_check_complex", counted)
    run_sweep(SweepConfig(max_vertices=6, checks=frozenset(checks)), workers=1)
    assert set(per_check) == ({1} if "chordal_free" in checks else {0, 1})
    if "chordal_free" not in checks:
        assert not any(simplicial.is_chordal(K) or classify_star_condition(K).matches
                       for K in searched)


# check: (the homological route the sweep reads, the detail it reports)
HOMOLOGICAL_ROUTES = {
    "thm3": ("one_relator_group_homological", "h2"),
    "thm5": ("one_relator_algebra_homological", "row_verdict"),
    "vanishing": ("vanishing_check", None),
}


@pytest.mark.parametrize("check", sorted(HOMOLOGICAL_ROUTES))
def test_wrong_homological_verdicts_are_reported_with_their_homology(monkeypatch, capsys, check):
    name, detail = HOMOLOGICAL_ROUTES[check]
    true_route = getattr(classify, name)
    monkeypatch.setattr(classify, name, lambda K, *homology: not true_route(K, *homology))
    assert main(["verify-theorems", "--max-vertices", "4", "--checks", check, "--json"]) == 2
    found = json.loads(capsys.readouterr().out)["counterexamples"]
    assert found and {c["check"] for c in found} == {check}
    cex = found[-1]  # a labelled square: its homology is not all zero
    K = SimplicialComplex.from_facets(cex["facets"], cex["n"])
    table = bigraded_homology_Z(K)
    details = cex["details"]
    assert details["H_R"] == [[k, g.free_rank, list(g.torsion)]
                              for k, g in enumerate(table.homology_R())]
    assert details["bigraded"] == [[i, j2, g.free_rank, list(g.torsion)]
                                   for (i, j2), g in table.items_sorted()]
    assert details["star"]["matches"] == bool(classify_star_condition(K))
    if detail == "h2":
        assert details["h2"] == str(table.R(2))
    if detail == "row_verdict":
        assert details["row_verdict"] is not true_route(K, table)


def test_config_validation():
    with pytest.raises(ValueError):
        SweepConfig(max_vertices=10)
    with pytest.raises(ValueError):
        SweepConfig(checks=frozenset({"bogus"}))


def test_report_json_shape():
    report = run_sweep(SweepConfig(max_vertices=3))
    data = report.to_json_dict()
    assert data["complexes_checked"] == 11
    assert data["counterexamples"] == []
    assert set(data["tallies"]) >= {"star_matches", "chordal"}


# -- the class sweep against the labelled loop -------------------------------


def test_class_counts_and_orbit_sizes():
    # the classes are pairwise non-isomorphic (distinct certificates), and the
    # |Aut G| of a class accepted without a canonical form is the search's
    for n, classes in enumerate(graph_classes(8), start=1):
        assert len(classes) == A000088[n] == sweep._class_count(n)
        assert sum(factorial(n) // aut for aut in classes.values()) == 2 ** comb(n, 2)
        certificates = set()
        for mask, aut in classes.items():
            adj = sweep._adjacency(n, mask)
            order, search_aut, _ = sweep._canonical_form(adj)
            assert aut == search_aut
            certificates.add(sweep._relabelled_mask(adj, order))
        assert len(certificates) == len(classes)


def test_class_count_formula_matches_a000088():
    assert [sweep._class_count(n) for n in range(1, 11)] == A000088[1:]


def test_growing_only_sent_classes():
    # sending a level's masks back grows those classes alone: grown from the
    # edge, level three holds the graphs with one, two and three edges, and
    # lacks the edge-free graph, whose one parent is the edge-free pair
    classes = graph_classes(3)
    assert next(classes) == {0: 1}
    two = classes.send(None)
    edge = next(mask for mask in two if mask)
    three = classes.send([edge])
    assert sorted(mask.bit_count() for mask in three) == [1, 2, 3]
    assert sum(factorial(3) // aut for aut in three.values()) == 3 + 3 + 1


def _edge_set(n, mask):
    return {frozenset(e) for i, e in enumerate(combinations(range(n), 2)) if mask >> i & 1}


def _is_automorphism(edges, perm):
    return all(frozenset(perm[v] for v in e) in edges for e in edges)


def _group_order(n, generators):
    """Order of the permutation group the generators generate, by closure."""
    group = {tuple(range(n))}
    frontier = list(group)
    while frontier:
        g = frontier.pop()
        for h in generators:
            gh = tuple(h[v] for v in g)
            if gh not in group:
                group.add(gh)
                frontier.append(gh)
    return len(group)


def _check_form(n, mask):
    """Check _canonical_form on one labelled graph: its order is a
    permutation, its generators are automorphisms of the graph and, up to 7
    vertices, the certificate (the edge mask in canonical order) and |Aut G|
    are the unpruned search's and the generators generate a group of order
    |Aut G|. Return (certificate, |Aut G|, generators)."""
    adj = sweep._adjacency(n, mask)
    order, aut, generators = sweep._canonical_form(adj)
    assert sorted(order) == list(range(n))
    cert = sweep._relabelled_mask(adj, order)
    edges = _edge_set(n, mask)
    for g in generators:
        assert sorted(g) == list(range(n)) and _is_automorphism(edges, g), (n, mask, g)
    if n <= 7:
        assert (cert, aut) == unpruned_canonical_form(adj)
        assert _group_order(n, generators) == aut
    return cert, aut, generators


def test_automorphism_counts_match_brute_force():
    rng = random.Random(1998)
    graphs = [(n, mask) for n in range(1, 6) for mask in range(1 << comb(n, 2))]
    graphs += [(6, rng.getrandbits(15)) for _ in range(60)]
    for n, mask in graphs:
        _, aut, _ = _check_form(n, mask)
        edges = _edge_set(n, mask)
        assert aut == sum(_is_automorphism(edges, p) for p in permutations(range(n)))


def test_certificate_is_invariant_under_relabelling():
    rng = random.Random(2014)
    for n in range(2, 10):
        pairs = list(combinations(range(n), 2))
        for density in (0.2, 0.5, 0.8):
            mask = sum(1 << i for i in range(len(pairs)) if rng.random() < density)
            form = _check_form(n, mask)
            for _ in range(4):
                perm = rng.sample(range(n), n)
                moved = sum(1 << pairs.index(tuple(sorted((perm[u], perm[v]))))
                            for u, v in (tuple(e) for e in _edge_set(n, mask)))
                assert _check_form(n, moved)[:2] == form[:2]


NINE_VERTEX_GRAPHS = {  # name: (adjacency rule on 0..8, |Aut G|)
    "empty": (lambda u, v: False, factorial(9)),
    "K9": (lambda u, v: True, factorial(9)),
    "K3,3,3": (lambda u, v: u % 3 != v % 3, 1296),
    "3K3": (lambda u, v: u // 3 == v // 3, 1296),
    "C9": (lambda u, v: (v - u) % 9 in (1, 8), 18),
    "rook 3x3": (lambda u, v: u // 3 == v // 3 or u % 3 == v % 3, 72),
}


@pytest.mark.parametrize("name", sorted(NINE_VERTEX_GRAPHS))
def test_symmetric_graphs_are_searched_in_few_refinements(monkeypatch, name):
    # unpruned, the empty graph's tree has 9! leaves
    rule, expected = NINE_VERTEX_GRAPHS[name]
    calls = []
    refine = sweep._refine

    def counted(*args):
        calls.append(1)
        return refine(*args)

    monkeypatch.setattr(sweep, "_refine", counted)
    mask = sum(1 << i for i, (u, v) in enumerate(combinations(range(9), 2)) if rule(u, v))
    _, aut, _ = _check_form(9, mask)
    assert aut == expected and len(calls) < 1000


def test_refinement_is_equitable_and_commutes_with_relabelling():
    rng = random.Random(7)
    for n in range(1, 10):
        full = (1 << n) - 1
        for _ in range(20):
            mask = rng.getrandbits(comb(n, 2))
            adj = sweep._adjacency(n, mask)
            cells = sweep._refine(adj, [full], [full])
            assert sum(cells) == full and all(c for c in cells)
            for cell in cells:
                for other in cells:
                    assert len({(adj[v] & other).bit_count() for v in bits(cell)}) == 1
            perm = rng.sample(range(n), n)
            moved = [0] * n
            for v in range(n):
                moved[perm[v]] = sum(1 << perm[u] for u in bits(adj[v]))
            image = [sum(1 << perm[v] for v in bits(c)) for c in cells]
            assert sweep._refine(moved, [full], [full]) == image


def _nx_graph(nx, n, mask):
    G = nx.Graph()
    G.add_nodes_from(range(n))
    G.add_edges_from(e for i, e in enumerate(combinations(range(n), 2)) if mask >> i & 1)
    return G


def test_classes_match_the_networkx_atlas():
    nx = pytest.importorskip("networkx")
    from networkx.algorithms.isomorphism import GraphMatcher

    def invariant(G):  # isomorphic graphs share it
        return len(G), G.number_of_edges(), tuple(sorted(
            (d, nx.triangles(G, v)) for v, d in G.degree()))

    atlas = {}
    for G in nx.graph_atlas_g():
        atlas.setdefault(invariant(G), []).append(G)
    matched = set()
    for n, classes in enumerate(graph_classes(7), start=1):
        for mask, aut in classes.items():
            G = _nx_graph(nx, n, mask)
            hits = {id(H) for H in atlas[invariant(G)] if nx.is_isomorphic(G, H)}
            assert len(hits) == 1 and not hits & matched
            matched |= hits
            if n <= 6:
                assert aut == sum(1 for _ in GraphMatcher(G, G).isomorphisms_iter())
    assert len(matched) == sum(len(b) for b in atlas.values()) - 1  # the atlas holds n = 0


def _least_mask(n, mask):
    """Brute force: the least edge mask over all relabellings."""
    edges = list(combinations(range(n), 2))
    index = {e: i for i, e in enumerate(edges)}
    present = [e for i, e in enumerate(edges) if mask >> i & 1]
    return min(
        sum(1 << index[tuple(sorted((p[u], p[v])))] for u, v in present)
        for p in permutations(range(n))
    )


def _labelled_sweep(cfg):
    """The oracle: every labelled graph checked on its own; with dedup, the
    least mask of each class, found by brute force."""
    tallies = dict.fromkeys(sweep._TALLIES, 0)
    counterexamples = []
    checked = 0
    for n in range(1, cfg.max_vertices + 1):
        for mask in range(1 << comb(n, 2)):
            if cfg.dedup_isomorphism and _least_mask(n, mask) != mask:
                continue
            checked += 1
            sweep._check_complex(cfg, n, mask, tallies, counterexamples)
    counterexamples.sort(key=lambda c: (c.n, c.graph_mask, c.check))
    return SweepReport(cfg, checked, counterexamples, tallies)


def _json(report):
    return json.dumps(report.to_json_dict(), sort_keys=True, indent=2)


@pytest.mark.parametrize("dedup", [False, True])
@pytest.mark.parametrize("checks", [{c} for c in sorted(sweep.ALL_CHECKS)] + [sweep.ALL_CHECKS])
def test_class_sweep_matches_labelled_oracle(checks, dedup):
    cfg = SweepConfig(max_vertices=5, dedup_isomorphism=dedup, checks=frozenset(checks))
    assert _json(run_sweep(cfg, workers=1)) == _json(_labelled_sweep(cfg))


def test_class_sweep_matches_labelled_oracle_on_six_vertices():
    cfg = SweepConfig(max_vertices=6)
    assert _json(run_sweep(cfg, workers=1)) == _json(_labelled_sweep(cfg))


@pytest.mark.parametrize("dedup", [False, True])
def test_failing_classes_expand_like_the_oracle(monkeypatch, dedup):
    true_is_chordal = simplicial.is_chordal
    monkeypatch.setattr(simplicial, "is_chordal", lambda g: not true_is_chordal(g))
    cfg = SweepConfig(max_vertices=5, dedup_isomorphism=dedup,
                      checks=frozenset({"chordal_free", "flagmng"}))
    report = run_sweep(cfg, workers=1)
    assert report.counterexamples == _labelled_sweep(cfg).counterexamples
    masks = {(c.n, c.graph_mask) for c in report.counterexamples}
    if dedup:  # every class fails; each is reported by its least mask
        assert len(masks) == sum(A000088[1:6])
        assert all(_least_mask(n, mask) == mask for n, mask in masks)
    else:
        assert len(masks) == 1 + 2 + 8 + 64 + 1024


# -- the open family against the unpruned sweep ------------------------------


def _summand(small, big):
    """Whether ``small`` fits in ``big`` as a direct summand can: no larger
    free rank, and its primary torsion factors among those of ``big``."""
    def primary(g):
        return Counter(p ** e for d in g.torsion for p, e in homology._factorize(d).items())
    return small.free_rank <= big.free_rank and not primary(small) - primary(big)


def _open(K):
    return simplicial.is_chordal(K) or classify_star_condition(K).matches


def test_pruning_lemmas_on_every_vertex_deletion():
    """For every class G on at most six vertices and every vertex v, with
    P = G - v: if P is neither chordal nor a cycle-join, neither is G; and
    H_2(R_P) and every bigraded entry of P fit in G's as summands."""
    closed_pairs = 0
    for n in range(2, 7):
        for G in class_flag_complexes(n):
            table = bigraded_homology_Z(G)
            for v in range(n):
                P = G.induced(G.full_mask & ~(1 << v))
                if not _open(P):
                    closed_pairs += 1
                    assert not _open(G) and simplicial.chordless_cycle(G) is not None
                part = bigraded_homology_Z(P)
                assert _summand(part.R(2), table.R(2))
                for (i, j2), g in part.entries.items():
                    assert _summand(g, table.entry(i, j2)), (G.facets(), v, i, j2)
    assert closed_pairs > 0


def test_induced_subgraphs_of_cycle_joins_are_open():
    for p in range(4, 8):
        for r in range(8 - p):
            ring = [(i, i % p + 1) for i in range(1, p + 1)]
            cone = [(u, w) for w in range(p + 1, p + r + 1) for u in range(1, w)]
            K = simplicial.clique_complex(p + r, ring + cone)
            assert classify_star_condition(K).matches
            assert all(_open(K.induced(mask)) for mask in range(1, K.full_mask + 1))


def _unpruned_sweep(cfg):
    """The second oracle: every class of ``graph_classes`` checked, none
    pruned, and the classes counted as they are checked."""
    tallies = dict.fromkeys(sweep._TALLIES, 0)
    counterexamples = []
    checked = 0
    for n, classes in enumerate(graph_classes(cfg.max_vertices), start=1):
        part_tallies, part_cex, _ = sweep._check_classes(cfg, n, sorted(classes.items()))
        for key, val in part_tallies.items():
            tallies[key] += val
        counterexamples.extend(part_cex)
        checked += len(classes) if cfg.dedup_isomorphism else 2 ** comb(n, 2)
    counterexamples.sort(key=lambda c: (c.n, c.graph_mask, c.check))
    return SweepReport(cfg, checked, counterexamples, tallies)


@pytest.mark.parametrize("dedup", [False, True])
@pytest.mark.parametrize("checks", [{c} for c in sorted(sweep.ALL_CHECKS)] + [sweep.ALL_CHECKS])
def test_open_family_sweep_matches_the_unpruned_sweep(checks, dedup):
    cfg = SweepConfig(max_vertices=7, dedup_isomorphism=dedup, checks=frozenset(checks))
    assert _json(run_sweep(cfg, workers=1)) == _json(_unpruned_sweep(cfg))
