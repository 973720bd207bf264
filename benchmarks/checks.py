"""Checks of macx's outputs against values computed apart from macx.

Each check takes an operation's parsed ``--json`` output and returns a list
of error strings (empty when the output is right). Every expected value is
either counted here from first principles (face lists, binomial sums,
networkx on the 1-skeleton, the power series expanded in plain integers) or
is a property the method must have (Euler characteristics of the
decompositions); none is a stored copy of an earlier output.
"""

from __future__ import annotations

from itertools import combinations
from math import comb, factorial

import networkx as nx

import workloads

# Labelled chordal graphs on k = 1, 2, ... vertices (OEIS A058862).
CHORDAL_LABELLED = (1, 2, 8, 61, 822, 18154, 617675)


# -- verify-theorems -------------------------------------------------------


def long_cycles(k):
    """Labelled cycles of length k >= 4 on a fixed k-set: (k-1)!/2."""
    return factorial(k - 1) // 2 if k >= 4 else 0


def sweep_expectations(n, checks):
    """Tallies of an n-vertex labelled sweep, counted combinatorially."""
    star = sum(comb(k, p) * long_cycles(p) for k in range(1, n + 1) for p in range(4, k + 1))
    chordal = sum(CHORDAL_LABELLED[:n])
    cycles = sum(long_cycles(k) for k in range(1, n + 1))
    return {
        "complexes_checked": sum(2 ** comb(k, 2) for k in range(1, n + 1)),
        "tallies": {
            "star_matches": star,
            "chordal": chordal,
            "h2_exactly_Z": star if "thm3" in checks else 0,
            "one_relator_row": star if "thm5" in checks else 0,
            "golod": chordal if "flagmng" in checks else 0,
            "minimally_non_golod": cycles if "flagmng" in checks else 0,
            "cycle_complexes": cycles if "flagmng" in checks else 0,
        },
    }


def check_sweep(argv, data):
    n = int(argv[argv.index("--max-vertices") + 1])
    checks = sorted(a for a in argv[argv.index("--checks") + 1:] if not a.startswith("--"))
    want = sweep_expectations(n, checks)
    errors = []
    if data["max_vertices"] != n or data["checks"] != checks or data["dedup_isomorphism"]:
        errors.append(f"sweep config echoed wrongly: {data['max_vertices']} {data['checks']}")
    if data["complexes_checked"] != want["complexes_checked"]:
        errors.append(f"complexes_checked {data['complexes_checked']} != {want['complexes_checked']}")
    if data["tallies"] != want["tallies"]:
        errors.append(f"tallies {data['tallies']} != {want['tallies']}")
    if data["counterexamples"]:
        errors.append(f"{len(data['counterexamples'])} counterexamples")
    return errors


# -- analyze ---------------------------------------------------------------


def face_sizes(facets):
    """Sizes of all faces of the complex, the empty face included."""
    return [len(f) for f in workloads.faces(facets)]


def euler_R(m, sizes):
    """sum_k (-1)^k rank H_k(R_K): the cubical cells of R_K are the faces
    sigma with a sign on each vertex outside sigma."""
    return sum((-1) ** s * 2 ** (m - s) for s in sizes)


def euler_Z_row(m, sizes, j):
    """sum_i (-1)^i rank H_{-i,2j}(Z_K) = (-1)^(j-1) sum_{|J|=j} chi~(K_J),
    with chi~(K_J) = -sum_{sigma in K_J} (-1)^|sigma| counted per face."""
    chi = -sum((-1) ** s * comb(m - s, j - s) for s in sizes if s <= j)
    return (-1) ** (j - 1) * chi


def one_skeleton(m, facets):
    g = nx.Graph()
    g.add_nodes_from(range(1, m + 1))
    for f in facets:
        g.add_edges_from(combinations(f, 2))
    return g


def check_analyze(name, kind, cx, data):
    m, facets = cx
    errors = []
    facet_set = {tuple(sorted(f)) for f in facets}
    if data["complex"] != name or data["vertices"] != m:
        errors.append(f"header {data['complex']}/{data['vertices']} != {name}/{m}")
    if {tuple(f) for f in data["facets"]} != facet_set:
        errors.append("facet list differs from the input")
    sizes = face_sizes(facets)
    H = data["H_R"]
    if sum((-1) ** e["k"] * e["rank"] for e in H) != euler_R(m, sizes):
        errors.append("Euler characteristic of H_*(R_K) is wrong")
    for j in range(m + 1):
        got = sum((-1) ** e["i"] * e["rank"] for e in data["H_Z_bigraded"] if e["j2"] == 2 * j)
        if got != euler_Z_row(m, sizes, j):
            errors.append(f"Euler characteristic of bigraded row 2j={2 * j} is wrong")
    h1 = H[1]["rank"] if len(H) > 1 else 0
    counts = {data["generator_count"], h1,
              len(data["generators_group"]), len(data["generators_algebra"])}
    if len(counts) != 1:
        errors.append(f"generator counts disagree: {sorted(counts)}")
    graph = one_skeleton(m, facets)
    flag = {tuple(sorted(c)) for c in nx.find_cliques(graph)} == facet_set
    if data["flag"] != flag:
        errors.append(f"flag verdict {data['flag']} != {flag}")
    if data["chordal"] != nx.is_chordal(graph):
        errors.append(f"chordal verdict {data['chordal']} is wrong")
    star = data["star_condition"]
    if kind == "cycle":
        g = (m - 4) * 2 ** (m - 3) + 1
        want = [{"k": 0, "rank": 1, "torsion": []}, {"k": 1, "rank": 2 * g, "torsion": []},
                {"k": 2, "rank": 1, "torsion": []}]
        if H != want:
            errors.append(f"H_*(R_C{m}) != [Z, Z^{2 * g}, Z]")
        if (star["matches"], star["p"], star["cone_vertices"]) != (True, m, []):
            errors.append("cycle not recognised by the cycle-join condition")
    if kind == "cone":
        apex = set.intersection(*map(set, facets)).pop()  # in every facet
        if (star["matches"], star["p"], star["cone_vertices"]) != (True, m - 1, [apex]):
            errors.append("cone over a cycle not recognised by the cycle-join condition")
    if kind == "rp2_join" and not any(2 in e["torsion"] for e in H):
        errors.append("no Z/2 torsion in H_*(R_K) of the RP^2 join")
    return errors


# -- poincare --------------------------------------------------------------


def sum_from_argv(argv):
    """(d, pairs) of the sphere-product sum named by a poincare argv; for a
    p-cycle the summand S^k x S^(p+2-k) has multiplicity (k-2) C(p-2, k-1)."""
    if "--cycle" in argv:
        p = int(argv[argv.index("--cycle") + 1])
        return p + 2, [k for k in range(3, p) for _ in range((k - 2) * comb(p - 2, k - 1))]
    head, tail = argv[argv.index("--pairs") + 1].split(":")
    return int(head), [int(x) for x in tail.split(",")]


def expected_series(d, pairs, n):
    """Coefficients through t^n of 1 / (1 - sum_i (t^(d_i-1) + t^(d-d_i-1)) + t^(d-2))."""
    denom = [0] * (n + 1)
    denom[0] = 1
    for di in pairs:
        for e in (di - 1, d - di - 1):
            if e <= n:
                denom[e] -= 1
    if d - 2 <= n:
        denom[d - 2] += 1
    out = [1] + [0] * n
    for k in range(1, n + 1):
        out[k] = -sum(denom[s] * out[k - s] for s in range(1, k + 1))
    return out


def check_poincare(argv, data):
    d, pairs = sum_from_argv(argv)
    errors = []
    if data["d"] != d or sorted(data["pairs"]) != sorted(pairs):
        errors.append(f"sum d={data['d']} pairs={data['pairs']} != d={d} pairs={sorted(pairs)}")
    rows = data["series"]
    if sorted(rows) != ["closed", "dga", "oracle"]:
        errors.append(f"series rows {sorted(rows)}")
    for label, coeffs in rows.items():
        if coeffs != expected_series(d, pairs, len(coeffs) - 1):
            errors.append(f"{label} series differs from the expansion")
    n_dga = int(argv[argv.index("--dga-truncate") + 1])
    if len(rows.get("dga", ())) != n_dga + 1 or data["agree_through"] != n_dga:
        errors.append("dga row does not reach --dga-truncate")
    if data["agree"] is not True:
        errors.append("rows reported as disagreeing")
    return errors
