"""Layer spans for the traced run, recorded from outside the program.

``Tracer.install`` wraps the functions through which the macx modules call
one another (the table ``SPANS``) and rebinds each wrapper in every macx
namespace that holds the original, so a module's calls to its own functions
are caught as well as calls from other modules. Every call records a span
(name, start, end, parent) in flat arrays; ``summary`` derives each span's
self time (its duration minus its children's) and folds the spans into
per-name counts, inclusive and self times.

A table entry whose function no longer exists is reported as absent, so a
refactor that renames a private boundary does not break the benchmark.
"""

from __future__ import annotations

import sys
import time
from array import array
from functools import wraps

# span name -> (module, attribute). The span name is the metric stem.
SPANS = {
    "cli.main": ("cli", "main"),
    "cli.parse": ("cli", "parse_complex"),
    "sweep.run_sweep": ("sweep", "run_sweep"),
    "simplicial.clique_complex": ("simplicial", "clique_complex"),
    "simplicial.classify_star_condition": ("simplicial", "classify_star_condition"),
    "simplicial.is_flag": ("simplicial", "is_flag"),
    "simplicial.full_subcomplex": ("simplicial", "full_subcomplex"),
    "simplicial.is_chordal": ("simplicial", "is_chordal"),
    "simplicial.find_induced_cycles": ("simplicial", "find_induced_cycles"),
    "classify.minimally_non_golod": ("classify", "minimally_non_golod_flag"),
    "classify.golod": ("classify", "golod_flag"),
    "classify.free_group": ("classify", "is_free_commutator_group"),
    "classify.row_check": ("classify", "one_relator_algebra_homological"),
    "classify.vanishing": ("classify", "vanishing_check"),
    "classify.build_report": ("classify", "build_report"),
    "homology.subset_walk": ("homology", "_per_subset_groups"),
    "homology.snf": ("homology", "sparse_rank_invariants"),
    "homology.assemble_R": ("homology", "_assemble_R"),
    "homology.assemble_Z": ("homology", "_assemble_Z"),
    "generators.enumerate": ("generators", "enumerate_generators"),
    "generators.count": ("generators", "generator_count"),
    "loop_algebra.model": ("loop_algebra", "adams_hilton_model"),
    "loop_algebra.dga": ("loop_algebra", "dga_homology_ranks"),
    "loop_algebra.oracle": ("loop_algebra", "rank_oracle_monomials"),
    "loop_algebra.closed": ("loop_algebra", "poincare_series_closed"),
}


class Tracer:
    def __init__(self):
        self.names = list(SPANS)
        self.absent = []
        self.name_of = array("i")
        self.parent = array("q")
        self.start = array("q")
        self.end = array("q")
        self.stack = []
        # counts taken from arguments and results at the boundaries
        self.subsets_walked = 0
        self.snf_max_cells = 0
        self.words = 0

    def install(self):
        modules = [m for n, m in sys.modules.items() if n == "macx" or n.startswith("macx.")]
        for nid, name in enumerate(self.names):
            module_name, attr = SPANS[name]
            fn = getattr(sys.modules.get("macx." + module_name), attr, None)
            if fn is None:
                self.absent.append(name)
                continue
            wrapper = self._wrap(nid, fn, _HOOKS.get(name))
            for mod in modules:
                for key, val in list(vars(mod).items()):
                    if val is fn:
                        setattr(mod, key, wrapper)

    def _wrap(self, nid, fn, hook):
        name_of, parent, start, end, stack = (
            self.name_of, self.parent, self.start, self.end, self.stack)
        clock = time.perf_counter_ns

        @wraps(fn)
        def wrapper(*args, **kwargs):
            idx = len(start)
            name_of.append(nid)
            parent.append(stack[-1] if stack else -1)
            end.append(0)
            stack.append(idx)
            start.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                end[idx] = clock()
                stack.pop()
            if hook is not None:
                hook(self, args, result)
            return result

        return wrapper

    def summary(self, wall_s):
        """Per-name calls, inclusive and self seconds; the boundary counts;
        and how much of the command's wall time the spans' self times cover."""
        n = len(self.start)
        dur = [self.end[i] - self.start[i] for i in range(n)]
        child = [0] * n
        for i in range(n):
            p = self.parent[i]
            if p >= 0:
                child[p] += dur[i]
        calls = [0] * len(self.names)
        total = [0] * len(self.names)
        own = [0] * len(self.names)
        for i in range(n):
            k = self.name_of[i]
            calls[k] += 1
            total[k] += dur[i]
            own[k] += dur[i] - child[i]
        spans = {
            name: {"calls": calls[k], "s": total[k] / 1e9, "self_s": own[k] / 1e9}
            for k, name in enumerate(self.names) if name not in self.absent
        }
        return {
            "spans": spans,
            "absent": self.absent,
            "span_count": n,
            "self_coverage": sum(own) / 1e9 / wall_s,
            "subsets_walked": self.subsets_walked,
            "snf_max_cells": self.snf_max_cells,
            "words": self.words,
        }


# Counts read at a boundary after the call: hook(tracer, args, result). Their
# cost falls in the caller's self time.
def _subset_walk_hook(tracer, args, result):
    tracer.subsets_walked += (1 << args[0].m) - 1


def _enumerate_hook(tracer, args, result):
    tracer.words += len(result.words)


def _snf_hook(tracer, args, result):
    columns = args[0]
    live = sum(1 for c in columns if c)
    # rows <= nonzeros, so skip the row count when it cannot beat the record
    if live * sum(map(len, columns)) > tracer.snf_max_cells:
        rows = len({r for c in columns for r in c})
        tracer.snf_max_cells = max(tracer.snf_max_cells, live * rows)


_HOOKS = {"homology.subset_walk": _subset_walk_hook, "homology.snf": _snf_hook,
          "generators.enumerate": _enumerate_hook}
