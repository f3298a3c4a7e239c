"""Span tracer that wraps nandevolve's public functions from outside.

Nothing inside ``src/`` is edited: the tracer swaps module attributes of
``nandevolve.netlist``, ``.evolve``, ``.oracle``, ``.bench`` and ``.cli``
(and ``NandGenome.__init__``) for timing wrappers while a traced pass runs,
then restores them. Spans live in flat in-memory arrays (name, start, end,
parent, op id) and are written to a sidecar file when the pass ends; self
times are computed from the spans afterwards.
"""

from __future__ import annotations

import json
import time
from array import array
from pathlib import Path

from nandevolve import bench, cli, evolve, netlist, oracle
import nandevolve

MODULES = (netlist, evolve, oracle, bench, cli, nandevolve)

# Span name -> (module, attribute) of the public function it wraps.
WRAPPED = {
    "netlist.output_mask": (netlist, "output_mask"),
    "netlist.fitness": (netlist, "fitness"),
    "netlist.canonical_key": (netlist, "canonical_key"),
    "evolve.run_evolution": (evolve, "run_evolution"),
    "evolve.step_generation": (evolve, "step_generation"),
    "evolve.breed": (evolve, "breed"),
    "evolve.random_genome": (evolve, "random_genome"),
    "oracle.count_solutions": (oracle, "count_solutions"),
    "oracle.minimal_gates": (oracle, "minimal_gates"),
    "bench.run_experiment": (bench, "run_experiment"),
    "bench.to_csv": (bench, "to_csv"),
    "bench.to_svg": (bench, "to_svg"),
    "cli.main": (cli, "main"),
}
GENOME_INIT = "netlist.genome_init"  # NandGenome construction plus validation
OP = "op"  # one benchmark operation: a GA run or an oracle query
QUERIES = ("oracle.count_solutions", "oracle.minimal_gates")


class Tracer:
    """Records spans while installed; `install()` returns a restore callable."""

    def __init__(self):
        self.names: list[str] = []
        self.name_col = array("i")
        self.start_col = array("q")
        self.end_col = array("q")
        self.parent_col = array("i")
        self.op_col = array("i")
        self._stack = [-1]
        self._op = -1
        self._ops = 0
        # evolve.step_generation inputs: population members seen, and how
        # many had fitness > 0 (the breeding pool).
        self.step_members = 0
        self.step_pool = 0
        self._op_span = self._span(OP, lambda fn, *a, **k: fn(*a, **k))

    def _span(self, name: str, fn, before=None):
        name_id = len(self.names)
        self.names.append(name)
        names, starts, ends = self.name_col, self.start_col, self.end_col
        parents, ops, stack = self.parent_col, self.op_col, self._stack
        clock = time.perf_counter_ns

        def traced(*args, **kwargs):
            if before is not None:
                before(args, kwargs)
            idx = len(names)
            names.append(name_id)
            parents.append(stack[-1])
            ops.append(self._op)
            ends.append(0)
            stack.append(idx)
            starts.append(clock())
            try:
                return fn(*args, **kwargs)
            finally:
                ends[idx] = clock()
                stack.pop()

        return traced

    def _observe_step(self, args, kwargs):
        population = args[0] if args else kwargs["population"]
        self.step_members += len(population)
        self.step_pool += sum(1 for ind in population if ind.fitness > 0.0)

    def op(self, fn, *args, **kwargs):
        """Run one benchmark operation under a fresh op id."""
        outer = self._op
        self._op = self._ops
        self._ops += 1
        try:
            return self._op_span(fn, *args, **kwargs)
        finally:
            self._op = outer

    def install(self):
        """Swap every wrapped function (in every module that binds it) and
        NandGenome.__init__ for tracing wrappers; return the undo callable."""
        undo = []
        for name, (module, attr) in WRAPPED.items():
            original = getattr(module, attr)
            before = self._observe_step if name == "evolve.step_generation" else None
            wrapper = self._span(name, original, before)
            for m in MODULES:
                for key, value in list(vars(m).items()):
                    if value is original:
                        setattr(m, key, wrapper)
                        undo.append((m, key, original))
        init = netlist.NandGenome.__init__
        netlist.NandGenome.__init__ = self._span(GENOME_INIT, init)
        undo.append((netlist.NandGenome, "__init__", init))

        def restore():
            for target, key, original in reversed(undo):
                setattr(target, key, original)

        return restore

    def totals(self) -> dict[str, tuple[int, int, int]]:
        """Span name -> (calls, inclusive ns, self ns). A span's self time is
        its duration minus the durations of its direct child spans."""
        n = len(self.name_col)
        dur = [self.end_col[i] - self.start_col[i] for i in range(n)]
        child = [0] * n
        for i, p in enumerate(self.parent_col):
            if p >= 0:
                child[p] += dur[i]
        calls = [0] * len(self.names)
        incl = [0] * len(self.names)
        own = [0] * len(self.names)
        for i, k in enumerate(self.name_col):
            calls[k] += 1
            incl[k] += dur[i]
            own[k] += dur[i] - child[i]
        return {name: (calls[k], incl[k], own[k]) for k, name in enumerate(self.names)}

    def reinit_count(self) -> int:
        """step_generation spans that re-initialised the population, seen as
        random_genome calls made directly under them."""
        step = self.names.index("evolve.step_generation")
        fresh = self.names.index("evolve.random_genome")
        parents = {self.parent_col[i] for i, k in enumerate(self.name_col) if k == fresh}
        return sum(1 for p in parents if p >= 0 and self.name_col[p] == step)

    def write(self, path: Path):
        """Sidecar: `<path>.json` describes the columns of `<path>.bin`."""
        cols = [
            ("name", self.name_col), ("start_ns", self.start_col),
            ("end_ns", self.end_col), ("parent", self.parent_col), ("op", self.op_col),
        ]
        index = {
            "spans": len(self.name_col),
            "names": self.names,
            "columns": [[label, col.typecode, col.itemsize] for label, col in cols],
            "layout": "column after column, native byte order",
            "data": path.name + ".bin",
        }
        with open(path.with_name(path.name + ".bin"), "wb") as fh:
            for _, col in cols:
                col.tofile(fh)
        path.with_name(path.name + ".json").write_text(json.dumps(index, indent=1) + "\n")


def layer_metrics(tracer: Tracer, oracle_genomes: int, leaves: int, trace_rows: int) -> dict[str, float]:
    """Per-layer metrics of one traced pass. Counts that only the workload
    sees (oracle genomes covered, leaves matched, trace rows) are passed in."""
    t = tracer.totals()

    def calls(name):
        return t.get(name, (0, 0, 0))[0]

    def mean_us(name):
        c, incl, _ = t.get(name, (0, 0, 0))
        return incl / c / 1e3 if c else 0.0

    def self_s(name):
        return t.get(name, (0, 0, 0))[2] / 1e9

    def incl_s(name):
        return t.get(name, (0, 0, 0))[1] / 1e9

    query_s = sum(incl_s(q) for q in QUERIES)
    scan_s = sum(self_s(q) for q in QUERIES)
    return {
        "netlist.output_mask.calls": calls("netlist.output_mask"),
        "netlist.output_mask.mean_us": mean_us("netlist.output_mask"),
        "netlist.fitness.calls": calls("netlist.fitness"),
        "netlist.fitness.self_s": self_s("netlist.fitness"),
        "netlist.genome_init.calls": calls(GENOME_INIT),
        "netlist.genome_init.mean_us": mean_us(GENOME_INIT),
        "netlist.canonical_key.calls": calls("netlist.canonical_key"),
        "netlist.canonical_key.mean_us": mean_us("netlist.canonical_key"),
        "evolve.run_evolution.calls": calls("evolve.run_evolution"),
        "evolve.run_evolution.self_s": self_s("evolve.run_evolution"),
        "evolve.step_generation.calls": calls("evolve.step_generation"),
        "evolve.step_generation.self_s": self_s("evolve.step_generation"),
        "evolve.breed.calls": calls("evolve.breed"),
        "evolve.breed.self_s": self_s("evolve.breed"),
        "evolve.breed.mean_us": mean_us("evolve.breed"),
        "evolve.random_genome.calls": calls("evolve.random_genome"),
        "evolve.reinit.count": tracer.reinit_count(),
        "evolve.pool.mean": (
            tracer.step_pool / calls("evolve.step_generation") if calls("evolve.step_generation") else 0.0
        ),
        "evolve.cull_frac": (
            1.0 - tracer.step_pool / tracer.step_members if tracer.step_members else 0.0
        ),
        "oracle.query.s": query_s,
        "oracle.scan.self_s": scan_s,
        "oracle.genomes": oracle_genomes,
        "oracle.nodes_per_s": oracle_genomes / scan_s if scan_s else 0.0,
        "oracle.leaves_matched": leaves,
        "oracle.match_ratio": leaves / oracle_genomes if oracle_genomes else 0.0,
        "bench.run_experiment.self_s": self_s("bench.run_experiment"),
        "bench.to_csv.s": incl_s("bench.to_csv"),
        "bench.to_svg.s": incl_s("bench.to_svg"),
        "cli.main.self_s": self_s("cli.main"),
        "cli.trace_rows": trace_rows,
    }
