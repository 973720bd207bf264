"""Command-line entry point.

Subcommands: analyze (full report for a complex file), generators, poincare,
mcgavran, verify-theorems, yspace. Human-readable text by default, ``--json``
for machine consumption (sorted keys, no timestamps, byte-stable for a fixed
input). Every ``--json`` report goes through one writer, ``_write_json``: the
bytes of ``json.dumps(..., sort_keys=True, indent=2)`` and a newline, written
in pieces, the generator words a block at a time from their codes
(``GeneratorSet.blocks``), as in the text modes. Exit codes: 0 success, 1 usage
or parse error, 2 counterexample found (verify-theorems only). ``main`` is the
one error boundary: any OSError or ValueError a command raises is printed as
``error: <message>`` with exit 1.

Complex file format: UTF-8 lines, ``vertices m`` header, then one
``facet v1 v2 ...`` line per facet; ``#`` starts a comment; vertices are
1-based integers, written in ASCII digits.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from json.encoder import encode_basestring_ascii

from . import classify, generators, homology, loop_algebra, simplicial, sweep
from .simplicial import MAX_VERTICES, SimplicialComplex


class ComplexParseError(ValueError):
    def __init__(self, message, line=None):
        super().__init__(message if line is None else f"line {line}: {message}")
        self.line = line


def _number(token, message, lineno):
    """The value of a token written in ASCII digits only (``int`` also takes
    signs, underscores and other scripts' digits); else a parse error."""
    if token.isascii() and token.isdigit():
        try:
            return int(token)
        except ValueError:  # past int's digit limit
            pass
    raise ComplexParseError(message, lineno)


def parse_complex_text(text):
    """Parse the complex text format into a SimplicialComplex."""
    vertices = None
    facets = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        parts = line.split()
        if parts[0] == "vertices":
            if vertices is not None:
                raise ComplexParseError("duplicate vertices header", lineno)
            if len(parts) != 2:
                raise ComplexParseError("expected 'vertices m'", lineno)
            vertices = _number(parts[1], "expected 'vertices m'", lineno)
            if vertices > MAX_VERTICES:
                raise ComplexParseError(f"at most {MAX_VERTICES} vertices supported", lineno)
        elif parts[0] == "facet":
            if vertices is None:
                raise ComplexParseError("facet before vertices header", lineno)
            entries = [_number(p, "facet entries must be vertex numbers in digits 0-9", lineno)
                       for p in parts[1:]]
            for v in entries:
                if not 1 <= v <= vertices:
                    raise ComplexParseError(f"vertex {v} out of range 1..{vertices}", lineno)
            facets.append(entries)
        else:
            raise ComplexParseError(f"unknown directive {parts[0]!r}", lineno)
    if vertices is None:
        raise ComplexParseError("missing vertices header")
    return SimplicialComplex.from_facets(facets, vertices)


def parse_complex(path):
    with open(path, "rb") as fh:
        data = fh.read()
    try:
        text = data.decode("utf-8-sig")  # a leading byte-order mark is dropped
    except UnicodeDecodeError as exc:
        raise ComplexParseError(
            f"{path}: not valid UTF-8 (byte 0x{data[exc.start]:02x} at offset {exc.start})"
        ) from None
    return parse_complex_text(text)


# Words or ints per write: a block's text is a few hundred KB at most.
_BLOCK = 2048
# The C encoders json.dumps would reach for these types, without its call
_SCALAR_TEXT = {str: encode_basestring_ascii, int: int.__repr__}


def _write_json(value, write):
    """Write ``json.dumps(value, sort_keys=True, indent=2)`` and a newline
    through ``write``, neither the document nor the json module's chunk list
    ever built whole (``indent`` sends ``json.dumps`` to its pure-Python
    encoder, and the document of a large ``analyze`` is megabytes).

    The word lists go out in blocks of ``_BLOCK`` words, each rendered from
    the codes as it is written: a ``generators.Words`` sequence as its
    strings, and a ``generators.GeneratorSet`` as its words' objects
    ``{"i", "j", "prefix"}``. All else is rendered before the first write,
    so that what can raise, such as an int past the digit limit, raises
    with nothing written; a word list always renders."""
    parts = []
    _json_parts(value, "\n", parts)
    parts.append("\n")
    for part in parts:
        for text in [part] if isinstance(part, str) else part:
            write(text)


def _json_parts(value, newline, parts):
    """Append to ``parts`` the text of ``value`` at the indentation of
    ``newline`` (a newline and its pad): strings, and for a word list a
    generator of its blocks, not yet run."""
    inner = newline + "  "
    sep = "," + inner
    if isinstance(value, dict) and value:
        lead = "{" + inner
        for key, item in sorted(value.items()):
            parts.append(lead + encode_basestring_ascii(
                key if isinstance(key, str) else json.dumps(key)) + ": ")
            _json_parts(item, inner, parts)
            lead = sep
        parts.append(newline + "}")
    elif isinstance(value, (list, tuple)) and value and all(type(n) is int for n in value):
        # rendered now (a repr can raise), a block per part
        parts.append("[" + inner + sep.join(map(int.__repr__, value[:_BLOCK])))
        parts += [sep + sep.join(map(int.__repr__, value[k:k + _BLOCK]))
                  for k in range(_BLOCK, len(value), _BLOCK)]
        parts.append(newline + "]")
    elif isinstance(value, (list, tuple)) and value:
        lead = "[" + inner
        for item in value:
            parts.append(lead)
            _json_parts(item, inner, parts)
            lead = sep
        parts.append(newline + "]")
    elif isinstance(value, generators.Words):
        # a word is ASCII of "(g_", digits, "," and ")": quoted as it is rendered
        blocks = value.blocks(_BLOCK, '"', '"', sep)
        parts += ["[" + inner, blocks, newline + "]"] if value else ["[]"]
    elif isinstance(value, generators.GeneratorSet):
        parts += ["[" + inner, _word_data(value, inner), newline + "]"] if value.count else ["[]"]
    else:
        parts.append(_SCALAR_TEXT.get(type(value), json.dumps)(value))


def _word_data(gens, newline):
    """The blocks of the words' objects {"i", "j", "prefix"} at the
    indentation of ``newline``, rendered from their codes."""
    key, item = newline + "  ", newline + "    "
    blocks = gens.blocks(_BLOCK, lambda j, i: f'{{{key}"i": {i},{key}"j": {j},{key}"prefix": [',
                         lambda k: f",{item}{k}", lambda j, i: "",
                         lambda n: f"{key if n else ''}]{newline}}}", "," + newline)
    return (block.replace("[,", "[") for block in blocks)  # the comma before the first label


def _group_json(g):
    return {"rank": g.free_rank, "torsion": list(g.torsion)}


def _homology_list_json(groups):
    return [{"k": k, **_group_json(g)} for k, g in enumerate(groups)]


def _bigraded_json(table):
    return [{"i": i, "j2": j2, **_group_json(g)} for (i, j2), g in table.items_sorted()]


def analyze(K, name="complex", truncate=12):
    """Assemble the full analysis payload for one complex: plain data, but
    for the two word lists, ``generators.Words`` sequences rendered as read.

    A truncation below 0 or past ``loop_algebra.MAX_TRUNCATION``, whatever
    the complex, or a cycle too long for its sphere-product decomposition,
    is refused (ValueError) before any walk over the vertex subsets; more
    than ``generators.MAX_WORDS`` generator words, counted as rank H_1(R_K),
    before any word is listed."""
    loop_algebra.check_truncation(truncate)
    star = simplicial.classify_star_condition(K)
    M = loop_algebra.mcgavran(star.p) if star else None
    series = loop_algebra.poincare_series_closed(M, truncate) if M else None
    table = homology.bigraded_homology_Z(K)
    words = table.R(1).free_rank
    if words > generators.MAX_WORDS:
        raise ValueError(
            f"{words} generator words exceed the limit of {generators.MAX_WORDS}"
        )
    gens = generators.enumerate_generators(K)
    out = {
        "complex": name,
        "vertices": K.m,
        "facets": [list(f) for f in K.facets()],
        **classify.build_report(K, table),
        "generator_count": gens.count,
        "generators_group": gens.rendered(),
        "generators_algebra": gens.rendered(generators.ALGEBRA),
        "H_R": _homology_list_json(table.homology_R()),
        "H_Z_bigraded": _bigraded_json(table),
        "betti_Z": table.betti(),
    }
    if M is not None:
        out["mcgavran"] = {"d": M.d, "pairs": list(M.pairs)}
        out["poincare_prefix"] = list(series.coefficients)
    return out


def _print_analysis(data):
    print(f"complex: {data['complex']}  ({data['vertices']} vertices)")
    print(f"facets: {' '.join('{' + ','.join(map(str, f)) + '}' for f in data['facets'])}")
    if not data["flag"]:
        witness = data["witnesses"].get("missing_face")
        print(f"warning: not flag (missing face {witness}); "
              "group/algebra classifiers skipped, homology still computed")
    else:
        print(f"flag: yes    chordal: {'yes' if data['chordal'] else 'no'}")
        star = data["star_condition"]
        if star["matches"]:
            if star["cone_vertices"]:
                cone = "cone vertices {" + ",".join(map(str, star["cone_vertices"])) + "}"
            else:
                cone = "no cone vertices"
            print(f"cycle-join condition: matches (p={star['p']}, {cone})")
            print(f"genus: {data['genus']}")
        else:
            print(f"cycle-join condition: does not match ({star['reason']})")
        print(f"free commutator subgroup: {data['free_group']}")
        print(f"one-relator group: {data['one_relator_group']}    "
              f"one-relator algebra: {data['one_relator_algebra']}")
        print(f"Golod: {data['golod']}    minimally non-Golod: {data['minimally_non_golod']}")
    print(f"generators ({data['generator_count']}):")
    for block in data["generators_group"].blocks(_BLOCK, "  ", "\n"):
        print(block, end="")
    print("H_*(R_K):")
    for entry in data["H_R"]:
        g = homology.HomologyGroup.from_divisors(entry["rank"], entry["torsion"])
        print(f"  H_{entry['k']} = {g}")
    print("bigraded H(Z_K)  (bidegree (-i, 2j)):")
    for entry in data["H_Z_bigraded"]:
        g = homology.HomologyGroup.from_divisors(entry["rank"], entry["torsion"])
        print(f"  H_({-entry['i']},{entry['j2']}) = {g}")
    print(f"betti(Z_K): {data['betti_Z']}")
    if "mcgavran" in data:
        pairs = data["mcgavran"]["pairs"]
        d = data["mcgavran"]["d"]
        print(f"sphere-product sum (d={d}): " +
              " ".join(f"S^{k}xS^{d - k}" for k in pairs))
        print(f"loop-homology series: {', '.join(map(str, data['poincare_prefix']))}")


def cmd_analyze(args):
    name = os.path.splitext(os.path.basename(args.file))[0]
    data = analyze(parse_complex(args.file), name=name, truncate=args.truncate)
    if args.json:
        _write_json(data, sys.stdout.write)
    else:
        _print_analysis(data)
    return 0


def cmd_generators(args):
    gens = generators.enumerate_generators(parse_complex(args.file))
    words = gens.rendered(args.kind)
    if args.json:
        data = {"count": gens.count, "kind": args.kind, "words": words, "data": gens}
        _write_json(data, sys.stdout.write)
    else:
        for block in words.blocks(_BLOCK, trail="\n"):
            print(block, end="")
        print(f"count: {gens.count}")
    return 0


def _parse_pairs_spec(spec):
    """Parse 'd:d1,d2,...' into a SphereProductSum."""
    try:
        head, tail = spec.split(":", 1)
        d = int(head)
        pairs = tuple(int(x) for x in tail.split(","))
    except ValueError:
        raise ValueError(f"bad pairs spec {spec!r}, expected 'd:d1,d2,...'") from None
    return loop_algebra.SphereProductSum(d, pairs)


def cmd_poincare(args):
    M = (loop_algebra.mcgavran(args.cycle) if args.cycle is not None
         else _parse_pairs_spec(args.pairs))
    n = args.truncate
    rows = [("closed", loop_algebra.poincare_series_closed(M, n))]
    if args.oracle:
        rows.append(("oracle", loop_algebra.rank_oracle_monomials(M, n)))
    if args.dga:
        model = loop_algebra.adams_hilton_model(M)
        n_dga = args.dga_truncate
        if n_dga is None:
            n_dga = model.truncation_within_budget(min(n, 10))
        rows.append(("dga", loop_algebra.dga_homology_ranks(model, n_dga).series))
    overlap = min(r.truncation for _, r in rows)
    agree = all(
        tuple(r.prefix(overlap)) == tuple(rows[0][1].prefix(overlap)) for _, r in rows
    )
    if args.json:
        data = {
            "d": M.d,
            "pairs": list(M.pairs),
            "series": {label: list(r.coefficients) for label, r in rows},
            "agree_through": overlap,
            "agree": agree,
        }
        _write_json(data, sys.stdout.write)
    else:
        for label, r in rows:
            print(f"{label:>7}: {r}")
        verdict = "agree" if agree else "DISAGREE"
        print(f"verdict: {verdict} through degree {overlap}")
    return 0


def cmd_mcgavran(args):
    M = loop_algebra.mcgavran(args.cycle)
    if args.json:
        data = {"p": args.cycle, "d": M.d, "pairs": list(M.pairs),
                "summands": M.k, "generators": 2 * M.k, "betti": M.betti()}
        _write_json(data, sys.stdout.write)
        return 0
    counts = {}
    for k in M.pairs:
        counts[k] = counts.get(k, 0) + 1
    for k in sorted(counts):
        print(f"  {counts[k]} x S^{k} x S^{M.d - k}")
    print(f"summands: {M.k}, generators: {2 * M.k}, total dimension: {M.d}")
    return 0


def cmd_verify(args):
    if args.checks:
        checks = frozenset(args.checks)
    elif args.max_vertices >= 7:
        # n >= 7 keeps its narrower default check set: widening it changes the report
        checks = frozenset({sweep.CHECK_GROUP, sweep.CHECK_CHORDAL_FREE})
    else:
        checks = sweep.ALL_CHECKS
    cfg = sweep.SweepConfig(args.max_vertices, args.iso_dedup, checks)
    report = sweep.run_sweep(cfg)
    if args.json:
        _write_json(report.to_json_dict(), sys.stdout.write)
    else:
        print(f"complexes checked: {report.complexes_checked} "
              f"(n <= {cfg.max_vertices}, {'iso classes' if cfg.dedup_isomorphism else 'labelled'})")
        for key, val in sorted(report.tallies.items()):
            print(f"  {key}: {val}")
        print(f"counterexamples: {len(report.counterexamples)}")
        for cex in report.counterexamples[:5]:
            print(f"  n={cex.n} check={cex.check} facets={cex.facets}")
    return 2 if report.counterexamples else 0


def _relator_index(token):
    try:
        return int(token)
    except ValueError:
        raise ValueError(f"bad relator token {token!r}, "
                         "expected signed indices like '1 2 -1 -2'") from None


def cmd_yspace(args):
    word = classify.RelatorWord.from_ints(map(_relator_index, args.word.split()))
    groups = classify.y_space_homology(args.generators, word)
    if args.json:
        data = {"l": args.generators, "word": str(word),
                "homology": _homology_list_json(groups)}
        _write_json(data, sys.stdout.write)
    else:
        print(f"one-relator 2-complex on {args.generators} circles, relator {word}")
        for k, g in enumerate(groups):
            print(f"  H_{k} = {g}")
        print("  H_k = 0 for k >= 3")
    return 0


class _Parser(argparse.ArgumentParser):
    # usage errors must exit 1 (2 is reserved for counterexamples)
    def error(self, message):
        self.print_usage(sys.stderr)
        sys.stderr.write(f"error: {message}\n")
        raise SystemExit(1)


def build_parser():
    parser = _Parser(
        prog="macx",
        description="Homological and combinatorial invariants of moment-angle "
                    "complexes over small simplicial complexes.",
        epilog="Complex files: 'vertices m' header, one 'facet v1 v2 ...' line "
               "per facet, '#' comments, 1-based labels. Exit codes: 0 ok, "
               "1 usage/parse error, 2 counterexample (verify-theorems).",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("analyze", help="full invariant report for a complex file")
    p.add_argument("file")
    p.add_argument("--json", action="store_true")
    p.add_argument("--truncate", type=int, default=12,
                   help="series truncation when the cycle-join condition holds")
    p.set_defaults(func=cmd_analyze)

    p = sub.add_parser("generators", help="minimal commutator generating set")
    p.add_argument("file")
    p.add_argument("--kind", choices=[generators.GROUP, generators.ALGEBRA],
                   default=generators.GROUP)
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=cmd_generators)

    p = sub.add_parser("poincare", help="loop-homology rank series")
    group = p.add_mutually_exclusive_group(required=True)
    group.add_argument("--cycle", type=int, help="cycle length p >= 4")
    group.add_argument("--pairs", help="explicit sum, format 'd:d1,d2,...'")
    p.add_argument("--truncate", type=int, default=12)
    p.add_argument("--oracle", action="store_true",
                   help="also count forbidden-factor monomials")
    p.add_argument("--dga", action="store_true",
                   help="also compute dg-algebra homology ranks")
    p.add_argument("--dga-truncate", type=int, default=None)
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=cmd_poincare)

    p = sub.add_parser("mcgavran", help="sphere-product decomposition of a cycle")
    p.add_argument("--cycle", type=int, required=True)
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=cmd_mcgavran)

    p = sub.add_parser("verify-theorems", help="exhaustive equivalence sweep")
    p.add_argument("--max-vertices", type=int, default=6)
    p.add_argument("--iso-dedup", action="store_true")
    p.add_argument("--checks", nargs="+", choices=sorted(sweep.ALL_CHECKS))
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("yspace", help="homology of a one-relator presentation complex")
    p.add_argument("-l", "--generators", type=int, required=True)
    p.add_argument("--word", required=True,
                   help="relator as signed indices, e.g. '1 2 -1 -2'")
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=cmd_yspace)
    return parser


def main(argv=None):
    try:
        args = build_parser().parse_args(argv)
    except SystemExit as exc:
        return exc.code or 0
    try:
        return args.func(args)
    except (OSError, ValueError) as exc:  # ValueError covers ComplexParseError
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
