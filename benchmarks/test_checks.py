"""Fast tests of the benchmark's own pieces (not part of the macx suite).

    PYTHONPATH=src python3 -m pytest -q benchmarks/test_checks.py

Each check must pass macx's true output and fail a copy with one number
changed; the stored counts the sweep check uses are recounted with networkx.
"""

import contextlib
import copy
import io
import json
import random
import shutil
import subprocess
import sys
from itertools import combinations
from pathlib import Path

import networkx as nx
import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import checks  # noqa: E402
import run  # noqa: E402
import workloads as wl  # noqa: E402
from macx import cli  # noqa: E402


def macx_json(argv):
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        assert cli.main(argv) == 0
    return json.loads(buf.getvalue())


def test_sweep_constants_recounted_with_networkx():
    chordal, cycles, star = [0] * 7, [0] * 7, [0] * 7
    for k in range(1, 7):
        pairs = list(combinations(range(k), 2))
        for mask in range(1 << len(pairs)):
            g = nx.Graph()
            g.add_nodes_from(range(k))
            g.add_edges_from(e for i, e in enumerate(pairs) if mask >> i & 1)
            chordal[k] += nx.is_chordal(g)
            cone = [v for v in g if g.degree(v) == k - 1]
            rest = g.subgraph(set(g) - set(cone))
            is_cycle = (len(rest) >= 4 and nx.is_connected(rest)
                        and all(d == 2 for _, d in rest.degree()))
            star[k] += is_cycle
            cycles[k] += is_cycle and not cone
    assert tuple(chordal[1:]) == checks.CHORDAL_LABELLED[:6]
    want = checks.sweep_expectations(6, ["flagmng"])["tallies"]
    assert sum(chordal) == want["chordal"] == 19048
    assert sum(star) == want["star_matches"] == 207
    assert sum(cycles) == want["cycle_complexes"] == 75


@pytest.mark.parametrize("argv", [wl.SWEEP_HOMOLOGY, wl.SWEEP_FLAG])
def test_sweep_check(argv):
    argv = [a if a != "6" else "5" for a in argv]
    data = macx_json(argv)
    assert checks.check_sweep(argv, data) == []
    for key in data["tallies"]:
        bad = copy.deepcopy(data)
        bad["tallies"][key] += 1
        assert checks.check_sweep(argv, bad), key
    bad = copy.deepcopy(data)
    bad["complexes_checked"] -= 1
    assert checks.check_sweep(argv, bad)
    bad = copy.deepcopy(data)
    bad["counterexamples"].append({"n": 4, "check": "thm3"})
    assert checks.check_sweep(argv, bad)


def small_complexes():
    rng = random.Random(3)
    return [
        ("c6", "cycle", wl.relabel(rng, wl.cycle(6))),
        ("cone_c5", "cone", wl.relabel(rng, wl.cone(*wl.cycle(5)))),
        ("flag8", "random", wl.random_flag(rng, 8, 0.5)),
        ("octahedral6", "cross_polytope", wl.cross_polytope(3)),
        ("rp2_join_c4", "rp2_join", wl.join((6, wl.RP2_6), wl.cycle(4))),
    ]


@pytest.mark.parametrize("name,kind,cx", small_complexes())
def test_analyze_check(tmp_path, monkeypatch, name, kind, cx):
    monkeypatch.chdir(tmp_path)
    op = wl.Op(name, ["analyze", f"{name}.cx", "--json"], cx, kind)
    Path(op.argv[1]).write_text(op.file_text())
    data = macx_json(op.argv)
    assert checks.check_analyze(name, kind, cx, data) == []

    def corrupted(edit):
        bad = copy.deepcopy(data)
        edit(bad)
        return checks.check_analyze(name, kind, cx, bad)

    for k in range(len(data["H_R"])):
        assert corrupted(lambda d: d["H_R"][k].update(rank=d["H_R"][k]["rank"] + 1))
    for e in range(len(data["H_Z_bigraded"])):
        assert corrupted(lambda d: d["H_Z_bigraded"][e].update(
            rank=d["H_Z_bigraded"][e]["rank"] + 1))
    assert corrupted(lambda d: d.update(generator_count=d["generator_count"] + 1))
    assert corrupted(lambda d: d["generators_group"].pop())
    assert corrupted(lambda d: d.update(flag=not d["flag"]))
    assert corrupted(lambda d: d.update(chordal=not d["chordal"]))
    if kind in ("cycle", "cone"):
        assert corrupted(lambda d: d["star_condition"].update(p=d["star_condition"]["p"] + 1))
    if kind == "rp2_join":
        assert corrupted(lambda d: [e.update(torsion=[]) for e in d["H_R"]])


def test_euler_formulas_on_a_cycle():
    sizes = checks.face_sizes(wl.cycle(5)[1])
    assert checks.euler_R(5, sizes) == 1 - 10 + 1  # [Z, Z^10, Z]
    # By hand: the nonzero groups H_{-i,2j}(Z_C5) sit at (i, j) = (0, 0),
    # (1, 2), (2, 3) and (3, 5) with ranks 1, 5, 5 and 1.
    rows = [checks.euler_Z_row(5, sizes, j) for j in range(6)]
    assert rows == [1, 0, -5, 5, 0, -1]


def test_expected_series_matches_known_prefix():
    assert checks.expected_series(7, [3, 3, 3, 4, 4], 6) == [1, 0, 5, 5, 25, 49, 150]
    assert checks.sum_from_argv(["--cycle", "5"]) == (7, [3, 3, 3, 4, 4])


@pytest.mark.parametrize("spec", [["--cycle", "5"], ["--pairs", "6:2,4"]])
def test_poincare_check(spec):
    argv = ["poincare", *spec, "--oracle", "--dga", "--dga-truncate", "6", "--json"]
    data = macx_json(argv)
    assert checks.check_poincare(argv, data) == []
    for label in ("closed", "oracle", "dga"):
        for k in range(1, len(data["series"][label])):
            bad = copy.deepcopy(data)
            bad["series"][label][k] += 1
            assert checks.check_poincare(argv, bad), (label, k)
    bad = copy.deepcopy(data)
    bad["pairs"][0] += 1
    assert checks.check_poincare(argv, bad)
    bad = copy.deepcopy(data)
    bad["agree"] = False
    assert checks.check_poincare(argv, bad)


def series_files(seed):
    return {op.name: op.file_text() for op in wl.round_ops("series", seed) if op.complex}


def test_inputs_follow_the_seed():
    first = series_files(5)
    assert first == series_files(5)
    assert first != series_files(6)
    assert len(first) == 8 and len(wl.round_ops("series", 5)) == 11
    for op in wl.round_ops("series", 5):
        if op.complex:
            m, facets = op.complex
            assert {v for f in facets for v in f} == set(range(1, m + 1))


def run_worker(req):
    proc = subprocess.run([sys.executable, str(HERE / "worker.py")], input=json.dumps(req),
                          capture_output=True, text=True, timeout=120,
                          env={"PYTHONPATH": str(HERE.parent / "src"), "PATH": ""})
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout)


def test_traced_worker_spans_cover_the_command(tmp_path):
    op = wl.Op("c8", ["analyze", "c8.cx", "--json"], wl.cycle(8), "cycle")
    out = run_worker({"argv": op.argv, "files": {"c8.cx": op.file_text()},
                      "workdir": str(tmp_path), "trace": True, "setup_only": False})
    assert out["rc"] == 0
    t = out["trace"]
    assert t["absent"] == []
    assert 0.99 < t["self_coverage"] <= 1.0
    assert t["spans"]["cli.main"]["calls"] == 1
    assert t["spans"]["homology.subset_walk"]["calls"] == 1
    assert t["subsets_walked"] == 2 ** 8 - 1
    assert t["words"] == 2 * json.loads(out["stdout"])["generator_count"]


def test_missing_boundary_is_reported_absent():
    code = ("import json, macx.cli, macx.homology as h, spans\n"
            "del h._per_subset_groups\n"
            "t = spans.Tracer(); t.install(); print(json.dumps(t.summary(1.0)))")
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          timeout=60, cwd=HERE, env={"PYTHONPATH": f"{HERE.parent / 'src'}:{HERE}"})
    assert proc.returncode == 0, proc.stderr
    trace = json.loads(proc.stdout)
    assert trace["absent"] == ["homology.subset_walk"]
    metrics, absent = run.layer_metrics([[{"trace": trace}]])
    assert set(absent) == {"homology.subset_walk_calls", "homology.subset_walk_s",
                           "homology.subsets_walked", "homology.snf_ratio"}
    assert all(metrics[name]["value"] == 0 for name in absent)
    assert list(metrics) == [m["name"] for m in
                             json.loads((HERE.parent / "BENCHMARK.json").read_text())["per_layer"]]


def test_bare_benchmark_directory_fails(tmp_path):
    """Without the macx sources the benchmark exits non-zero and prints no result."""
    shutil.copytree(HERE, tmp_path / HERE.name,
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = subprocess.run([sys.executable, f"{HERE.name}/run.py", "--workload", "series",
                           "--seed", "1", "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert proc.stdout == ""
