"""Run one macx benchmark workload and print its metrics.

    python3 benchmarks/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from a source checkout of macx (``src/macx`` next to this directory).
Every operation is one ``macx.cli.main`` call made in a fresh interpreter
(``worker.py``), one at a time, so the subcomplex memo and the heap start
empty as they do for a user. A round runs each operation of the workload
once; rounds repeat while another one fits in ``--seconds`` (at least one
runs). Every output is checked (``checks.py``) and the last line printed is
one JSON object: ``correct``, ``attempted``, ``failed`` and ``metrics``.

With ``--trace 0`` the metrics are end to end:
  setup_s      median, over the run's workers, of the time from spawning the
               interpreter to the start of its command (start-up, import
               macx, writing the input files); workers that stop there are
               added until there are at least SETUP_SAMPLES
  wall_s       seconds spent in the commands of one round, averaged over the
               run's rounds (a mean, which is steadier than a median when
               the machine's speed drifts over tens of seconds)
  peak_rss_mb  largest peak resident set (VmHWM) of a worker
With ``--trace 1`` the workers wrap the layers (``spans.py``) and the metrics
are per layer, per round. A record of every run goes to ``benchmarks/out``.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

import checks
import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"
SETUP_SAMPLES = 21
DEADLINE_S = 170  # a run must end within 180 s


class BenchError(Exception):
    """The benchmark itself could not run; no result is printed."""


def start_worker(req, env, deadline):
    t_spawn = time.perf_counter()
    try:
        proc = subprocess.run(
            [sys.executable, str(HERE / "worker.py")], input=json.dumps(req),
            capture_output=True, text=True, env=env, cwd=ROOT,
            timeout=max(1.0, deadline - time.perf_counter()))
    except subprocess.TimeoutExpired:
        raise BenchError(f"worker for {req['argv']} ran past the deadline") from None
    if proc.returncode != 0:
        raise BenchError(f"worker for {req['argv']} exited {proc.returncode}:\n{proc.stderr}")
    out = json.loads(proc.stdout)
    out["setup_s"] = out["t_start"] - t_spawn  # perf_counter is system-wide on Linux
    return out


def check(op, res):
    """Errors in the output of an operation whose command exited 0."""
    data = json.loads(res["stdout"])
    if op.argv[0] == "verify-theorems":
        return checks.check_sweep(op.argv, data)
    if op.argv[0] == "analyze":
        return checks.check_analyze(op.name, op.kind, op.complex, data)
    return checks.check_poincare(op.argv, data)


def run(workload, seed, seconds, trace):
    if not (ROOT / "src" / "macx" / "cli.py").is_file():
        raise BenchError(f"no macx sources under {ROOT / 'src'}")
    ops = workloads.round_ops(workload, seed)
    workdir = OUT / f"work-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    env = {k: v for k, v in os.environ.items() if k != "MACX_THREADS"}
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src")] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    t0 = time.perf_counter()
    deadline = t0 + DEADLINE_S
    rounds, setups, records = [], [], []
    errors, attempted, failed = [], 0, 0
    try:
        while True:
            t_round = time.perf_counter()
            results = []
            for op in ops:
                files = {op.argv[1]: op.file_text()} if op.complex else {}
                req = {"argv": op.argv, "files": files, "workdir": str(workdir),
                       "trace": bool(trace), "setup_only": False}
                res = start_worker(req, env, deadline)
                attempted += 1
                setups.append(res["setup_s"])
                if res["rc"] != 0:
                    failed += 1
                    errs = [f"exit code {res['rc']}", res["error"] or ""]
                else:
                    try:
                        errs = check(op, res)
                    except (ValueError, KeyError, IndexError, TypeError) as exc:
                        errs = [f"output not as expected: {exc!r}"]
                errors += [f"{op.name}: {e}" for e in errs]
                del res["stdout"]  # checked; keep this process small
                results.append(res)
                records.append({"op": op.name, "argv": op.argv, "rc": res["rc"],
                                "seconds": res["seconds"], "setup_s": res["setup_s"],
                                "rss_kb": res["rss_kb"], "errors": errs,
                                "trace": res.get("trace")})
            rounds.append(results)
            elapsed = time.perf_counter() - t0
            longest = max(time.perf_counter() - t_round, elapsed / len(rounds))
            if elapsed + longest > seconds:
                break
        while not trace and len(setups) < SETUP_SAMPLES:
            req = {"argv": [], "files": {}, "workdir": str(workdir),
                   "trace": False, "setup_only": True}
            setups.append(start_worker(req, env, deadline)["setup_s"])
    finally:
        for f in workdir.iterdir():
            f.unlink()
        workdir.rmdir()

    if trace:
        metrics, absent = layer_metrics(rounds)
    else:
        metrics, absent = end_to_end_metrics(rounds, setups), []
    result = {"correct": not errors, "attempted": attempted, "failed": failed,
              "metrics": metrics}
    record = {"workload": workload, "seed": seed, "seconds": seconds, "trace": trace,
              "rounds": len(rounds), "setups_s": setups, "errors": errors,
              "absent": absent, "ops": records, "result": result}
    name = f"{workload}-seed{seed}-trace{trace}.json"
    (OUT / name).write_text(json.dumps(record, indent=1) + "\n")
    for e in errors:
        print(f"check failed: {e}", file=sys.stderr)
    if absent:
        print(f"absent per-layer metrics (reported as 0): {' '.join(absent)}")
    return result


def end_to_end_metrics(rounds, setups):
    ops = [r for rnd in rounds for r in rnd]
    return {
        "setup_s": {"value": statistics.median(setups), "unit": "s"},
        "wall_s": {"value": statistics.fmean(sum(r["seconds"] for r in rnd)
                                             for rnd in rounds), "unit": "s"},
        "peak_rss_mb": {"value": max(r["rss_kb"] for r in ops) / 1024, "unit": "MB"},
    }


# Per-layer metrics: name -> (unit, the spans it is read from, reader). A
# reader gets the folded spans and the boundary counts of all the run's ops.
def _calls(span):
    return "count", (span,), lambda s, t: s[span]["calls"]


def _secs(*names, own=False):
    key = "self_s" if own else "s"
    return "s", names, lambda s, t: sum(s[x][key] for x in names)


def _layer_self(layer):
    """Self time of all the layer's spans that the program still has."""
    return "s", (), lambda s, t: sum(v["self_s"] for k, v in s.items()
                                     if k.startswith(layer + "."))


def _fn_metrics(layer, *names):
    return {f"{layer}.{f}_{kind}": (_calls if kind == "calls" else _secs)(f"{layer}.{f}")
            for f in names for kind in ("calls", "s")}


LAYER_METRICS = {
    "cli.self_s": _secs("cli.main", own=True),
    "cli.parse_s": _secs("cli.parse"),
    "sweep.self_s": _secs("sweep.run_sweep", own=True),
    "simplicial.self_s": _layer_self("simplicial"),
    "homology.self_s": _layer_self("homology"),
    "classify.self_s": _layer_self("classify"),
    "generators.self_s": _layer_self("generators"),
    "loop_algebra.self_s": _layer_self("loop_algebra"),
    **_fn_metrics("simplicial", "clique_complex", "classify_star_condition", "is_flag",
                  "full_subcomplex", "is_chordal", "find_induced_cycles"),
    **_fn_metrics("classify", "minimally_non_golod", "golod", "free_group"),
    "classify.row_check_s": _secs("classify.row_check"),
    "classify.vanishing_s": _secs("classify.vanishing"),
    "classify.build_report_s": _secs("classify.build_report"),
    **_fn_metrics("homology", "subset_walk", "snf"),
    "homology.subsets_walked": ("count", ("homology.subset_walk",),
                                lambda s, t: t["subsets_walked"]),
    "homology.snf_max_cells": ("cells", ("homology.snf",), lambda s, t: t["snf_max_cells"]),
    "homology.snf_ratio": ("calls/subset", ("homology.snf", "homology.subset_walk"),
                           lambda s, t: t["subsets_walked"]
                           and s["homology.snf"]["calls"] / t["subsets_walked"]),
    "homology.assemble_s": _secs("homology.assemble_R", "homology.assemble_Z"),
    **_fn_metrics("generators", "enumerate"),
    "generators.count_s": _secs("generators.count"),
    "generators.words": ("count", ("generators.enumerate",), lambda s, t: t["words"]),
    "loop_algebra.model_s": _secs("loop_algebra.model"),
    "loop_algebra.dga_self_s": _secs("loop_algebra.dga", own=True),
    "loop_algebra.oracle_s": _secs("loop_algebra.oracle"),
    "loop_algebra.closed_s": _secs("loop_algebra.closed"),
}
PER_RUN = {"homology.snf_max_cells", "homology.snf_ratio"}  # not divided by rounds


def fold(traces):
    """Sum the per-op trace summaries (snf_max_cells takes the maximum)."""
    folded, totals, absent = {}, {"subsets_walked": 0, "snf_max_cells": 0, "words": 0}, set()
    for t in traces:
        absent.update(t["absent"])
        for name, v in t["spans"].items():
            acc = folded.setdefault(name, {"calls": 0, "s": 0.0, "self_s": 0.0})
            for k in acc:
                acc[k] += v[k]
        totals["subsets_walked"] += t["subsets_walked"]
        totals["words"] += t["words"]
        totals["snf_max_cells"] = max(totals["snf_max_cells"], t["snf_max_cells"])
    return folded, totals, absent


def layer_metrics(rounds):
    """Per-layer metrics of an average round; a metric whose spans are gone
    from the program reads 0 and is listed as absent."""
    folded, totals, absent_spans = fold(r["trace"] for rnd in rounds for r in rnd)
    metrics, absent = {}, []
    for name, (unit, sources, read) in LAYER_METRICS.items():
        if absent_spans.intersection(sources):
            absent.append(name)
            value = 0
        else:
            value = read(folded, totals) / (1 if name in PER_RUN else len(rounds))
        metrics[name] = {"value": value, "unit": unit}
    return metrics, absent


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    try:
        result = run(args.workload, args.seed, args.seconds, args.trace)
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
