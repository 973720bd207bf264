import json
import sys
import tracemalloc
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import component_search_words, cycle, nested_commutator_text, simplex
from macx import cli, generators, homology, loop_algebra, simplicial
from macx.cli import ComplexParseError, main, parse_complex_text
from macx.simplicial import CheckResult

PARTIAL_CONE = """\
# 4-cycle with an apex over three of its vertices
vertices 5
facet 1 2 5
facet 2 3 5
facet 1 4
facet 3 4
"""

CONE = """\
vertices 5
facet 1 2 5
facet 2 3 5
facet 3 4 5
facet 1 4 5
"""

BROKEN = """\
vertices 5
facet 1 2 5
facet 2 3 5
facet 3 4 5
facet 1 4
"""


@pytest.fixture
def partial_cone_file(tmp_path):
    path = tmp_path / "partial_cone.cx"
    path.write_text(PARTIAL_CONE)
    return str(path)


@pytest.fixture
def cone_file(tmp_path):
    path = tmp_path / "cone.cx"
    path.write_text(CONE)
    return str(path)


# -- parsing -----------------------------------------------------------------


def test_parse_complex_text():
    K = parse_complex_text(PARTIAL_CONE)
    assert K.m == 5
    assert sum(a.bit_count() for a in K.adjacency) // 2 == 7
    assert sum(1 for f in K.faces() if len(f) == 3) == 2


def test_parse_errors_carry_line_numbers():
    with pytest.raises(ComplexParseError) as err:
        parse_complex_text("vertices 5\nfacet 1 9\n")
    assert err.value.line == 2
    with pytest.raises(ComplexParseError):
        parse_complex_text("facet 1 2\n")          # facet before header
    with pytest.raises(ComplexParseError):
        parse_complex_text("vertices 5\nthing 1\n")
    with pytest.raises(ComplexParseError):
        parse_complex_text("vertices 25\n")
    with pytest.raises(ComplexParseError):
        parse_complex_text("vertices 4\nvertices 4\n")
    with pytest.raises(ComplexParseError):
        parse_complex_text("")
    # '\u00b2'.isdigit() holds, but int() rejects a superscript two
    with pytest.raises(ComplexParseError, match="expected 'vertices m'"):
        parse_complex_text("vertices \u00b2\nfacet 1 2\n")


def test_parse_empty_facet_list_gives_points():
    K = parse_complex_text("vertices 3\n")
    assert K.m == 3 and K.dim == 0


# -- analyze -----------------------------------------------------------------


def test_analyze_partial_cone_json(partial_cone_file, capsys):
    assert main(["analyze", partial_cone_file, "--json"]) == 0
    data = json.loads(capsys.readouterr().out)
    assert data["flag"] is True
    assert data["chordal"] is False
    assert data["star_condition"]["matches"] is False
    assert data["generator_count"] == 4
    assert data["generators_group"] == [
        "(g_3,g_1)", "(g_4,g_2)", "(g_5,g_4)", "(g_2,(g_5,g_4))"
    ]
    h2 = next(e for e in data["H_R"] if e["k"] == 2)
    assert h2 == {"k": 2, "rank": 3, "torsion": []}
    big = {(e["i"], e["j2"]): (e["rank"], e["torsion"]) for e in data["H_Z_bigraded"]}
    assert big[(2, 8)] == (2, [])
    assert big[(3, 10)] == (1, [])
    assert "mcgavran" not in data


def test_analyze_cone_json(cone_file, capsys):
    assert main(["analyze", cone_file, "--json"]) == 0
    data = json.loads(capsys.readouterr().out)
    assert data["star_condition"] == {
        "matches": True, "p": 4, "cone_vertices": [5], "reason": None
    }
    assert data["genus"] == 1
    h2 = next(e for e in data["H_R"] if e["k"] == 2)
    assert (h2["rank"], h2["torsion"]) == (1, [])
    big = {(e["i"], e["j2"]): e["rank"] for e in data["H_Z_bigraded"]}
    assert big[(2, 8)] == 1
    assert data["generators_algebra"] == ["[u_3,u_1]", "[u_4,u_2]"]
    assert data["mcgavran"] == {"d": 6, "pairs": [3]}
    assert data["poincare_prefix"][:5] == [1, 0, 2, 0, 3]


def test_analyze_byte_stability(partial_cone_file, capsys):
    main(["analyze", partial_cone_file, "--json"])
    first = capsys.readouterr().out
    main(["analyze", partial_cone_file, "--json"])
    assert capsys.readouterr().out == first


def test_analyze_non_flag_warns_but_computes(tmp_path, capsys):
    path = tmp_path / "broken.cx"
    path.write_text(BROKEN)
    assert main(["analyze", str(path)]) == 0
    out = capsys.readouterr().out
    assert "not flag" in out
    assert "betti(Z_K): [1, 0, 0, 2, 0, 1, 3, 1]" in out


def test_analyze_parse_error_exit_code(tmp_path, capsys):
    path = tmp_path / "bad.cx"
    path.write_text("vertices 3\nfacet 1 7\n")
    assert main(["analyze", str(path)]) == 1
    assert "line 2" in capsys.readouterr().err


def test_analyze_superscript_vertex_count(tmp_path, capsys):
    path = tmp_path / "sup.cx"
    path.write_bytes(b"vertices \xc2\xb2\nfacet 1 2\n")
    assert main(["analyze", str(path)]) == 1
    assert capsys.readouterr().err == "error: line 1: expected 'vertices m'\n"


def test_analyze_refuses_cycle_beyond_summand_bound(monkeypatch, tmp_path, capsys):
    path = tmp_path / "c5.cx"
    path.write_text("vertices 5\n" + "".join(f"facet {i} {i % 5 + 1}\n" for i in range(1, 6)))
    monkeypatch.setattr(loop_algebra, "MAX_SUMMANDS", 4)   # C5 has 5 summands
    assert main(["analyze", str(path), "--json"]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: cycle length 5 gives more than 4 sphere-product summands\n"


def test_analyze_refuses_long_cycle_before_walking_subsets(monkeypatch, tmp_path, capsys):
    path = tmp_path / "c9.cx"
    path.write_text("vertices 9\n" + "".join(f"facet {i} {i % 9 + 1}\n" for i in range(1, 10)))
    monkeypatch.setattr(loop_algebra, "MAX_SUMMANDS", 4)

    def no_walk(*args):
        raise AssertionError("walked the subsets of a refused complex")

    monkeypatch.setattr(homology, "homology_R_and_Z", no_walk)
    monkeypatch.setattr(generators, "enumerate_generators", no_walk)
    assert main(["analyze", str(path)]) == 1
    assert capsys.readouterr().err == (
        "error: cycle length 9 gives more than 4 sphere-product summands\n"
    )


def test_analyze_missing_file():
    assert main(["analyze", "/nonexistent/thing.cx"]) == 1


@pytest.mark.parametrize("command", ["analyze", "generators"])
def test_non_utf8_file_is_an_error(tmp_path, capsys, command):
    path = tmp_path / "latin1.cx"
    path.write_bytes(b"vertices 3\nfacet 1 2 \xff\n")
    assert main([command, str(path)]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == (
        f"error: {path}: not valid UTF-8 (byte 0xff at offset 21)\n"
    )


# -- other subcommands ----------------------------------------------------------


def test_generators_command(partial_cone_file, capsys):
    assert main(["generators", partial_cone_file, "--kind", "group"]) == 0
    out = capsys.readouterr().out.splitlines()
    assert out[:4] == ["(g_3,g_1)", "(g_4,g_2)", "(g_5,g_4)", "(g_2,(g_5,g_4))"]
    assert out[4] == "count: 4"
    assert main(["generators", partial_cone_file, "--kind", "algebra", "--json"]) == 0
    data = json.loads(capsys.readouterr().out)
    assert data["count"] == 4
    assert data["words"][0] == "[u_3,u_1]"
    assert data["data"][3] == {"prefix": [2], "j": 5, "i": 4}


def test_generator_words_need_no_component_search(tmp_path, capsys):
    """The generator walk reads components from its table: the package keeps
    no per-subset component search, and analyze and generators run on every
    sample without one."""
    assert not hasattr(simplicial.SimplicialComplex, "component_masks")
    c6 = tmp_path / "c6.cx"
    c6.write_text("vertices 6\n" + "".join(f"facet {i} {i % 6 + 1}\n" for i in range(1, 7)))
    samples = sorted(Path(__file__).resolve().parent.parent.glob("samples/*.cx"))
    assert samples
    for path in [str(c6), *map(str, samples)]:
        for argv in (["analyze", path], ["analyze", path, "--json"],
                     ["generators", path], ["generators", path, "--json"],
                     ["generators", path, "--kind", "algebra"],
                     ["generators", path, "--kind", "algebra", "--json"]):
            assert main(argv) == 0, argv
    out = capsys.readouterr().out
    assert "(g_3,g_1)" in out and "[u_3,u_1]" in out


def test_poincare_command(capsys):
    assert main(["poincare", "--cycle", "5", "--truncate", "5",
                 "--oracle", "--dga", "--json"]) == 0
    data = json.loads(capsys.readouterr().out)
    assert data["agree"] is True
    assert data["series"]["closed"] == [1, 0, 5, 5, 25, 49]
    assert data["series"]["oracle"] == [1, 0, 5, 5, 25, 49]
    assert data["series"]["dga"] == [1, 0, 5, 5, 25, 49]


@pytest.mark.parametrize("p, depth", [(6, 8), (7, 7)])
def test_poincare_dga_default_truncation_fits_the_budget(capsys, p, depth):
    # the default is min(--truncate, 10) lowered until every basis fits
    assert main(["poincare", "--cycle", str(p), "--dga", "--json"]) == 0
    data = json.loads(capsys.readouterr().out)
    assert data["agree"] is True and data["agree_through"] == depth
    assert data["series"]["dga"] == data["series"]["closed"][:depth + 1]
    # asked for explicitly, an over-budget truncation is still refused
    assert main(["poincare", "--cycle", str(p), "--dga", "--dga-truncate", "10"]) == 1
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err.startswith("error: monomial basis")


def test_poincare_rejects_negative_dga_truncation(capsys):
    argv = ["poincare", "--cycle", "5", "--dga", "--dga-truncate", "-2", "--json"]
    assert main(argv) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: truncation must be nonnegative\n"


def test_poincare_pairs_spec(capsys):
    assert main(["poincare", "--pairs", "6:3", "--truncate", "6"]) == 0
    out = capsys.readouterr().out
    assert "1, 0, 2, 0, 3, 0, 4" in out
    assert main(["poincare", "--pairs", "nonsense"]) == 1


def test_mcgavran_command(capsys):
    assert main(["mcgavran", "--cycle", "6", "--json"]) == 0
    data = json.loads(capsys.readouterr().out)
    assert data["summands"] == 17 and data["generators"] == 34
    assert main(["mcgavran", "--cycle", "3"]) == 1


@pytest.mark.parametrize("command", [["mcgavran"], ["poincare", "--json"]])
def test_cycle_beyond_summand_bound_is_an_error(capsys, command):
    assert main([*command, "--cycle", "40"]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == (
        f"error: cycle length 40 gives more than {loop_algebra.MAX_SUMMANDS} "
        "sphere-product summands\n"
    )


def test_yspace_command(capsys):
    assert main(["yspace", "-l", "2", "--word", "1 2 -1 -2", "--json"]) == 0
    data = json.loads(capsys.readouterr().out)
    assert data["homology"] == [
        {"k": 0, "rank": 1, "torsion": []},
        {"k": 1, "rank": 2, "torsion": []},
        {"k": 2, "rank": 1, "torsion": []},
    ]
    assert main(["yspace", "-l", "1", "--word", "1 -1"]) == 1   # unreduced


def test_yspace_names_a_bad_token(capsys):
    assert main(["yspace", "-l", "2", "--word", "1 x -1"]) == 1
    assert capsys.readouterr() == (
        "", "error: bad relator token 'x', expected signed indices like '1 2 -1 -2'\n")


def test_verify_theorems_clean(capsys):
    assert main(["verify-theorems", "--max-vertices", "4", "--json"]) == 0
    data = json.loads(capsys.readouterr().out)
    assert data["complexes_checked"] == 75
    assert data["counterexamples"] == []


def test_verify_theorems_rejects_ten_vertices(capsys):
    assert main(["verify-theorems", "--max-vertices", "10"]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: sweeps are supported for 1..9 vertices\n"


@pytest.mark.parametrize("value", ["abc", "-3", "0", "2.5", " 2", "\u00b2"])
def test_verify_theorems_rejects_bad_thread_count(monkeypatch, capsys, value):
    monkeypatch.setenv("MACX_THREADS", value)
    assert main(["verify-theorems", "--max-vertices", "2"]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == (
        f"error: MACX_THREADS must be a positive integer, got {value!r}\n"
    )


@pytest.mark.parametrize("value", [None, "", "1", "2"])
def test_verify_theorems_thread_count_default_and_valid(monkeypatch, capsys, value):
    if value is None:
        monkeypatch.delenv("MACX_THREADS", raising=False)
    else:
        monkeypatch.setenv("MACX_THREADS", value)
    assert main(["verify-theorems", "--max-vertices", "3", "--json"]) == 0
    assert json.loads(capsys.readouterr().out)["complexes_checked"] == 11


def test_verify_theorems_counterexample_exit(monkeypatch, capsys):
    true_is_chordal = simplicial.is_chordal
    monkeypatch.setattr(
        simplicial, "is_chordal",
        lambda g: CheckResult(not true_is_chordal(g).ok),
    )
    rc = main(["verify-theorems", "--max-vertices", "3", "--checks", "chordal_free"])
    assert rc == 2
    assert "counterexamples" in capsys.readouterr().out


# -- the error boundary -----------------------------------------------------

EIGHT_CYCLE = "vertices 8\n" + "".join(f"facet {i} {i % 8 + 1}\n" for i in range(1, 9))
MANY_TWOS = "4:" + ",".join(["2"] * 30_000)   # coefficients past 4,300 digits at 1000


@pytest.mark.parametrize("argv", [
    ["analyze", "{c8}", "--truncate", "20000", "--json"],
    ["analyze", "{c8}", "--truncate", "-1"],
    ["analyze", "{c8}", "--json"],                      # 258 words, bound patched to 257
    ["analyze", "{bad}"],
    ["analyze", "{latin1}", "--json"],
    ["analyze", "{missing}"],
    ["generators", "{bad}", "--json"],
    ["generators", "{missing}"],
    ["poincare", "--cycle", "8", "--truncate", "20000"],
    ["poincare", "--cycle", "8", "--truncate", "20000", "--json"],
    ["poincare", "--cycle", "5", "--truncate", "1000000000"],
    ["poincare", "--cycle", "5", "--oracle", "--truncate", "1001"],
    ["poincare", "--cycle", "5", "--dga", "--dga-truncate", "1001"],
    ["poincare", "--cycle", "5", "--dga", "--dga-truncate", "-2"],
    ["poincare", "--pairs", MANY_TWOS, "--truncate", "1000", "--json"],
    ["poincare", "--pairs", MANY_TWOS, "--truncate", "1000"],
    ["poincare", "--pairs", "nonsense"],
    ["poincare", "--pairs", "3:1"],
    ["mcgavran", "--cycle", "3"],
    ["mcgavran", "--cycle", "40", "--json"],
    ["verify-theorems", "--max-vertices", "10"],
    ["yspace", "-l", "1", "--word", "1 -1"],
    ["yspace", "-l", "2", "--word", "1 x"],
    ["yspace", "-l", "0", "--word", "1"],
    ["yspace", "-l", "2", "--word", "3"],
    ["yspace", "-l", "2", "--word", ""],
    ["generators", "{c8}"],                             # 258 words, bound patched to 257
    ["generators", "{c8}", "--json"],
    ["analyze", "{pcone}", "--truncate", "20000"],     # not a cycle join
    ["analyze", "{pcone}", "--truncate", "-1", "--json"],
    ["analyze", "{letter}"],
    ["yspace", "-l", "2", "--word", "0"],
])
def test_every_failure_is_one_error_line(monkeypatch, tmp_path, capsys, argv):
    """Bad input and over-limit requests end in ``error: ...`` and exit 1 at
    the one boundary in ``main``, never in a traceback."""
    files = {"c8": EIGHT_CYCLE.encode(), "pcone": PARTIAL_CONE.encode(),
             "bad": b"vertices 3\nfacet 1 7\n", "letter": b"vertices 3\nfacet 1 x\n",
             "latin1": b"vertices 3\nfacet 1 2 \xff\n"}
    paths = {name: str(tmp_path / f"{name}.cx") for name in [*files, "missing"]}
    for name, data in files.items():
        (tmp_path / f"{name}.cx").write_bytes(data)
    monkeypatch.setattr(generators, "MAX_WORDS", 257)
    assert main([arg.format(**paths) for arg in argv]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ") and captured.err.count("\n") == 1
    assert "Traceback" not in captured.err


def test_analyze_refuses_too_many_words_before_listing_them(monkeypatch, tmp_path, capsys):
    path = tmp_path / "c8.cx"
    path.write_text(EIGHT_CYCLE)
    listing = generators.enumerate_generators

    def no_words(*args):
        raise AssertionError("listed the words of a refused complex")

    monkeypatch.setattr(generators, "MAX_WORDS", 257)
    monkeypatch.setattr(generators, "enumerate_generators", no_words)
    assert main(["analyze", str(path), "--json"]) == 1
    assert capsys.readouterr().err == "error: 258 generator words exceed the limit of 257\n"
    monkeypatch.setattr(generators, "MAX_WORDS", 258)
    monkeypatch.setattr(generators, "enumerate_generators", listing)
    assert main(["analyze", str(path), "--json"]) == 0
    assert json.loads(capsys.readouterr().out)["generator_count"] == 258


@pytest.mark.parametrize("extra", [[], ["--json"], ["--kind", "algebra"]])
def test_generators_refuses_words_past_the_bound(monkeypatch, tmp_path, capsys, extra):
    path = tmp_path / "c8.cx"
    path.write_text(EIGHT_CYCLE)

    def no_rendering(*args):
        raise AssertionError("rendered the words of a refused complex")

    monkeypatch.setattr(generators, "MAX_WORDS", 257)
    monkeypatch.setattr(generators.GeneratorSet, "rendered", no_rendering)
    assert main(["generators", str(path), *extra]) == 1
    assert capsys.readouterr() == ("", "error: more than 257 generator words\n")
    monkeypatch.undo()
    monkeypatch.setattr(generators, "MAX_WORDS", 258)
    assert main(["generators", str(path), *extra]) == 0
    out = capsys.readouterr().out
    if extra == ["--json"]:
        assert json.loads(out)["count"] == 258
    else:
        assert out.endswith("count: 258\n")


def test_analyze_refuses_a_facet_past_the_face_budget(monkeypatch, tmp_path, capsys):
    path = tmp_path / "simplex20.cx"
    path.write_text("vertices 21\nfacet " + " ".join(map(str, range(1, 22))) + "\n")

    def no_faces(mask):
        raise AssertionError("enumerated the faces of a refused facet")

    monkeypatch.setattr(simplicial, "_submasks", no_faces)
    assert main(["analyze", str(path)]) == 1
    assert capsys.readouterr() == (
        "", "error: facet of 21 vertices exceeds budget of 1048576 faces\n")


def test_usage_errors_exit_one():
    assert main(["bogus-command"]) == 1
    assert main(["poincare"]) == 1          # missing required group
    assert main([]) == 1


# -- the JSON writer -----------------------------------------------------------

ODD_TEXT = st.text() | st.sampled_from(['"', "\\", "\x00\x1f\n\t", "\u00e9\u2028", "\U0001f600",
                                        "\ud800", "a\"b\\c"])
JSON_SCALARS = (st.none() | st.booleans() | st.integers() | ODD_TEXT | st.floats()
                | st.integers(-10 ** 400, 10 ** 400))


def json_containers(children):
    return (st.lists(children) | st.lists(children).map(tuple)
            | st.dictionaries(ODD_TEXT, children) | st.dictionaries(st.integers(), children)
            | st.lists(ODD_TEXT) | st.lists(st.integers() | st.booleans()))


def written(value):
    out = []
    cli._write_json(value, out.append)
    return "".join(out)


@settings(max_examples=300, deadline=None, database=None, derandomize=True)
@given(st.recursive(JSON_SCALARS, json_containers, max_leaves=40))
def test_json_writer_matches_json_dumps(value):
    """The writer's bytes are json.dumps(sort_keys=True, indent=2) and a
    newline."""
    assert written(value) == json.dumps(value, sort_keys=True, indent=2) + "\n"


def test_json_writer_blocks_and_failures():
    """Lists longer than a word block; and a value that cannot be written
    raises with nothing written, though a list of strings comes before it."""
    n = 2 * cli._BLOCK + 1
    value = {"s": [f"w{k}\\" for k in range(n)], "d": [{"k": [k, -k]} for k in range(n)]}
    assert written(value) == json.dumps(value, sort_keys=True, indent=2) + "\n"
    for bad in (10 ** 5000, [1, 10 ** 5000], [True, 10 ** 5000], object()):
        out = []
        with pytest.raises((TypeError, ValueError)):
            cli._write_json({"a": ["x"] * n, "b": bad}, out.append)
        assert out == []


def test_json_writer_peaks_under_the_document():
    """Writing the ``analyze`` payload of a 14-cycle (81,924 words) to a sink
    that keeps nothing peaks, under tracemalloc, at a small part of the
    document's length: json.dumps(indent=2) peaks above it. The length is
    that of the payload with its two word sequences as lists, which
    json.dumps can encode."""
    data = cli.analyze(cycle(14))
    plain = {**data, **{key: list(data[key])
                        for key in ("generators_group", "generators_algebra")}}
    length = len(json.dumps(plain, sort_keys=True, indent=2))
    tracemalloc.start()
    try:
        cli._write_json(data, lambda text: None)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= length / 4


def word_sets():
    """Generator sets of 0 and 1 words, of exactly one and of two blocks and
    a word (the leading words of the 12-cycle's 8,194), on multi-digit
    labels, on a relabelled cycle, and on a join whose factors interleave
    (the words of its two walks merged by J)."""
    c12 = generators.enumerate_generators(cycle(12))
    order = [13, 7, 21, 5, 40, 9, 11]
    join_edges = [(1, 3), (3, 5), (5, 7), (7, 1), (2, 4), (4, 6), (6, 8), (8, 9), (9, 2)]
    join_edges += [(a, b) for a in (1, 3, 5, 7) for b in (2, 4, 6, 8, 9)]
    complexes = [simplex(2), simplicial.SimplicialComplex.from_facets([[1], [2]], 2),
                 cycle(9, labels=range(10, 19)),
                 simplicial.clique_complex(order, zip(order, order[1:] + order[:1])),
                 simplicial.clique_complex(9, join_edges)]
    sets = [(generators.enumerate_generators(K), component_search_words(K)) for K in complexes]
    expected = component_search_words(cycle(12))
    for n in (cli._BLOCK, 2 * cli._BLOCK + 1):
        sets.append((generators.GeneratorSet(c12.labels, c12.codes[:n]), expected[:n]))
    return sets


def test_word_renderer_matches_nested_commutators():
    """The writer's bytes for a word sequence, for a GeneratorSet's word
    objects and for both at depth, and the text modes' lines, against words
    nested one commutator at a time and json.dumps."""
    sets = word_sets()
    counts = [gens.count for gens, _ in sets]
    assert counts[:2] + counts[-2:] == [0, 1, cli._BLOCK, 2 * cli._BLOCK + 1]
    for gens, triples in sets:
        data = [{"i": i, "j": j, "prefix": list(prefix)} for prefix, j, i in triples]
        for kind in (generators.GROUP, generators.ALGEBRA):
            words = gens.rendered(kind)
            texts = [nested_commutator_text(*w, kind) for w in triples]
            assert written(words) == json.dumps(texts, indent=2) + "\n"
            value = {"count": gens.count, "data": gens, "words": words}
            plain = {"count": gens.count, "data": data, "words": texts}
            for wrap in (lambda v: v, lambda v: [{"deeper": [v]}]):
                assert written(wrap(value)) == json.dumps(wrap(plain), sort_keys=True,
                                                          indent=2) + "\n"
            assert "".join(words.blocks(cli._BLOCK, "  ", "\n")) == "".join(
                f"  {text}\n" for text in texts)


def test_analyze_payload_holds_no_word_list():
    """The ``analyze`` payload of a 14-cycle keeps its 40,962 words per kind
    as codes: its traced memory, with the homology memo warm, stays below the
    size of one rendered word list (about 3.6 MB)."""
    K = cycle(14)
    cli.analyze(K)
    tracemalloc.start()
    try:
        data = cli.analyze(K)
        held = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    words = list(data["generators_group"])
    assert len(words) == 40_962
    assert held < sys.getsizeof(words) + sum(map(sys.getsizeof, words))
