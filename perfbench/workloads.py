"""The benchmark's four workloads: inputs made from a seed, one pass, and the
checks on every output.

Each pass calls `call(fn, *args)` for every operation (one seeded GA run or
one oracle query), so the harness can time it or trace it, and returns a
`Pass` holding the deterministic output bytes, the behavioural checksum and
each operation's raw result. `check` runs the independent checks on a pass
afterwards, outside the timed and traced region.

Why these four (see README.md for the layer map):
- ga_paper: the paper's own experiment; many short runs, so per-child and
  per-run fixed costs and the bench layer show.
- ga_long: 3-input majority at 6 gates, long capped runs; the per-generation
  GA path and the cli --trace write path dominate.
- oracle_count: leaf-heavy exhaustive count; every match is built and keyed.
- oracle_min3: scan-only minimality queries with no match at all.
"""

from __future__ import annotations

import csv
import hashlib
import io
import json
import sys
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import dataclass
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
OUT = ROOT / ".bench_out"
_SRC = ROOT / "src"
if not (_SRC / "nandevolve" / "__init__.py").is_file():
    raise ImportError(f"nandevolve sources not found under {_SRC}")
sys.path.insert(0, str(_SRC))

from nandevolve import bench, cli, netlist, oracle  # noqa: E402
from nandevolve.netlist import TruthTable  # noqa: E402

# ga_paper always runs the paper's experiment at its reference base seed:
# across independent base seeds its total generations vary by about 16 %
# (quartile spread over median) and its median run by about 29 %, which no
# timing bound could absorb. The seeded GA workload is ga_long.
PAPER_SEED = 42
MAJ3 = "tt:00010111"
# x2 and (x0 or x1): three gates suffice, so at 5 gates it has many redundant
# realizations. count_solutions(xnor, 6) would be the natural query, but one
# call takes about 6 s, too few passes fit a run for a steady figure.
COUNT_TARGET = "tt:00000111"
MIN3_TARGETS = ("tt:01101001", MAJ3, "tt:01111111")  # parity3, maj3, or3


@dataclass
class Pass:
    outputs: dict[str, bytes]
    checksum: dict
    ops: int
    circuits: int  # circuits evaluated (GA) or genome space covered (oracle)
    results: list  # per operation, what `check` needs
    genomes: int = 0  # oracle genome space covered
    leaves: int = 0  # oracle matches
    trace_rows: int = 0  # cli --trace rows written

    def digest(self) -> str:
        h = hashlib.sha256()
        for key in sorted(self.outputs):
            h.update(key.encode() + b"\0" + self.outputs[key] + b"\0")
        return h.hexdigest()


def _sha(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def _run_cli(argv: list[str], call) -> tuple[int, str, str]:
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = call(cli.main, argv)
    return code, out.getvalue(), err.getvalue()


class Workload:
    name = ""

    def prepare(self, seed: int, tiny: bool) -> dict:
        raise NotImplementedError

    def run(self, inputs: dict, call) -> Pass:
        raise NotImplementedError

    def check(self, inputs: dict, p: Pass) -> set[int]:
        """Indices of the pass's operations whose output fails a check."""
        raise NotImplementedError

    def run_checks(self, inputs: dict) -> list[str]:
        """Checks made once per benchmark run, outside any pass."""
        return []


class GaPaper(Workload):
    """`nandevolve bench --paper-defaults --runs 30` in-process: and/or/nor/
    xor/xnor at 2/3/4/4/5 gates, population 10, mutation 0.10; CSV and SVG
    written. An operation is one run_evolution call inside the batch."""

    name = "ga_paper"

    def prepare(self, seed: int, tiny: bool) -> dict:
        OUT.mkdir(exist_ok=True)
        csv_path, svg_path = OUT / "ga_paper.csv", OUT / "ga_paper.svg"
        runs = 1 if tiny else 30
        argv = ["bench", "--paper-defaults", "--runs", str(runs), "--seed", str(PAPER_SEED),
                "--out", str(csv_path), "--plot", str(svg_path)]
        return {"argv": argv, "csv": csv_path, "svg": svg_path}

    def run(self, inputs: dict, call) -> Pass:
        runs = []
        evolve_fn = bench.run_evolution

        def one_run(config, target, *args, **kwargs):
            outcome = call(evolve_fn, config, target, *args, **kwargs)
            runs.append((config, target, outcome))
            return outcome

        bench.run_evolution = one_run
        try:
            code, table, _ = _run_cli(inputs["argv"], lambda fn, *a: fn(*a))
        finally:
            bench.run_evolution = evolve_fn
        csv_bytes = inputs["csv"].read_bytes()
        svg_bytes = inputs["svg"].read_bytes()
        return Pass(
            outputs={"csv": csv_bytes, "svg": svg_bytes, "table": table.encode()},
            checksum={
                "exit_code": code,
                "runs": len(runs),
                "solved": sum(o.solved for _, _, o in runs),
                "sum_generations": sum(o.generations for _, _, o in runs),
                "csv_sha256": _sha(csv_bytes),
                "svg_sha256": _sha(svg_bytes),
            },
            ops=len(runs),
            circuits=sum(c.population_size * (o.generations + 1) for c, _, o in runs),
            results=runs,
        )

    def check(self, inputs: dict, p: Pass) -> set[int]:
        """A run fails if the batch failed, if its CSV row disagrees with its
        outcome, or if its solved genome does not realize the target."""
        csv_text = p.outputs["csv"].decode()
        rows = [r for r in csv.DictReader(io.StringIO(csv_text)) if r["kind"] == "run"]
        if p.checksum["exit_code"] != 0 or len(rows) != len(p.results):
            return set(range(p.ops))
        return {
            i for i, ((config, target, outcome), row) in enumerate(zip(p.results, rows))
            if (row["seed"], row["solved"], row["generations"])
            != (str(config.seed), "1" if outcome.solved else "0", str(outcome.generations))
            or (outcome.solved and netlist.truth_table_of(outcome.genome) != target)
        }


class GaLong(Workload):
    """`nandevolve evolve --target tt:00010111 --gates 6 --trace` for seeds
    seed, seed+1, ...: 3-input majority at its minimal 6 gates. Each call
    evaluates at most CAP generations and the pass stops after BUDGET
    generations in total, so every seed does the same amount of work; most
    calls end exhausted (exit 2) at the cap, a lucky few solve (exit 0)."""

    name = "ga_long"
    # Under a 1000-generation cap about a quarter of the calls solved early,
    # and on some seeds half did, which moved the median call by 40 %.
    CAP = 500
    BUDGET = 10_000

    def prepare(self, seed: int, tiny: bool) -> dict:
        scale = 20 if tiny else 1
        return {"seed": seed, "cap": self.CAP // scale, "budget": self.BUDGET // scale,
                "target": TruthTable.parse(MAJ3)}

    def run(self, inputs: dict, call) -> Pass:
        used, seed = 0, inputs["seed"]
        calls, results = [], []
        while used < inputs["budget"]:
            max_gen = min(inputs["cap"], inputs["budget"] - used) - 1
            argv = ["evolve", "--target", MAJ3, "--gates", "6", "--seed", str(seed),
                    "--max-gen", str(max_gen), "--trace"]
            code, out, err = _run_cli(argv, call)
            first = out.partition("\n")[0]
            gens = int(first.rsplit(" ", 1)[1]) if code == 0 and first[-1:].isdigit() else max_gen
            calls.append([code, gens])
            results.append((code, out, err, max_gen))
            used += gens + 1
            seed += 1
        out_bytes = "".join(r[1] for r in results).encode()
        trace_bytes = "".join(r[2] for r in results).encode()
        return Pass(
            outputs={"stdout": out_bytes, "trace": trace_bytes},
            checksum={"calls": calls, "stdout_sha256": _sha(out_bytes),
                      "trace_sha256": _sha(trace_bytes)},
            ops=len(calls),
            circuits=10 * used,
            results=results,
            trace_rows=sum(max(r[2].count("\n") - 1, 0) for r in results),
        )

    def check(self, inputs: dict, p: Pass) -> set[int]:
        return {
            i for i, ((code, out, err, max_gen), (_, gens)) in enumerate(zip(p.results, p.checksum["calls"]))
            if self._check(code, out, err, max_gen, inputs["target"]) != gens
        }

    @staticmethod
    def _check(code, out, err, max_gen, target) -> int | None:
        """Generations of one call if its stdout, netlist and trace agree
        with each other and with the target, else None."""
        first, _, rest = out.partition("\n")
        lines = err.splitlines()
        try:
            if code == 0 and first.startswith("solved at generation "):
                gens = int(first.rsplit(" ", 1)[1])
                genome = netlist.parse_json(rest)
                if (gens > max_gen or genome.num_gates != 6
                        or netlist.truth_table_of(genome) != target
                        or float(lines[-1].split(",")[1]) != 1.0):
                    return None
            elif code == 2 and first.startswith(f"exhausted at generation {max_gen};") and not rest:
                gens = max_gen
            else:
                return None
        except (ValueError, IndexError, netlist.CircuitError):
            return None
        if lines[:1] != ["generation,best_fitness,mean_fitness"] or len(lines) != gens + 2:
            return None
        if any(not line.startswith(f"{g},") for g, line in enumerate(lines[1:])):
            return None
        return gens


class OracleCount(Workload):
    """count_solutions(x2 and (x0 or x1), 5): 6 350 400 genomes scanned,
    every one of the 43 464 matches materialised and canonically keyed."""

    name = "oracle_count"

    def prepare(self, seed: int, tiny: bool) -> dict:
        return {"target": TruthTable.parse(COUNT_TARGET), "gates": 4 if tiny else 5}

    def run(self, inputs: dict, call) -> Pass:
        target, gates = inputs["target"], inputs["gates"]
        result = call(oracle.count_solutions, target, gates)
        return Pass(
            outputs={"count": f"{result.raw},{result.canonical}".encode()},
            checksum={"raw": result.raw, "canonical": result.canonical},
            ops=1,
            circuits=oracle.genome_count(target.num_inputs, gates),
            genomes=oracle.genome_count(target.num_inputs, gates),
            results=[result],
            leaves=result.raw,
        )

    def check(self, inputs: dict, p: Pass) -> set[int]:
        result = p.results[0]
        return set() if 1 <= result.canonical <= result.raw else {0}

    def run_checks(self, inputs: dict) -> list[str]:
        """Re-verify a witness outside the bitmask scan: the first genome in
        public enumeration order whose truth table is the target must exist
        and have the queried gate count. Cost: about 4000 genomes."""
        target, gates = inputs["target"], inputs["gates"]
        for genome in oracle.enumerate_genomes(target.num_inputs, gates):
            if netlist.truth_table_of(genome) == target:
                return [] if genome.num_gates == gates else ["witness has the wrong gate count"]
        return ["no witness found by enumeration"]


class OracleMin3(Workload):
    """minimal_gates(t, 5) for parity3, maj3 and or3. None of them has a
    realization with 5 or fewer gates, so every level is scanned to the
    end (3 x 6 483 753 genomes) and nothing matches."""

    name = "oracle_min3"

    def prepare(self, seed: int, tiny: bool) -> dict:
        return {"targets": [TruthTable.parse(t) for t in MIN3_TARGETS],
                "max_gates": 3 if tiny else 5}

    def run(self, inputs: dict, call) -> Pass:
        max_gates = inputs["max_gates"]
        found, results, circuits = {}, [], 0
        for target in inputs["targets"]:
            result = call(oracle.minimal_gates, target, max_gates)
            top = result.minimal_gates or max_gates
            circuits += sum(oracle.genome_count(target.num_inputs, g) for g in range(1, top + 1))
            found["tt:" + target.rows] = result.minimal_gates
            results.append(result)
        return Pass(
            outputs={"minimal_gates": json.dumps(found, sort_keys=True).encode()},
            checksum={"minimal_gates": found},
            ops=len(results),
            circuits=circuits,
            genomes=circuits,
            results=results,
            leaves=sum(r.raw_count for r in results),
        )

    def check(self, inputs: dict, p: Pass) -> set[int]:
        """A query with no realization must report no witness and no count;
        a reported witness must realize its target at the minimal count."""
        failed = set()
        for i, (target, result) in enumerate(zip(inputs["targets"], p.results)):
            witness = result.witness
            if result.minimal_gates is None:
                ok = witness is None and result.raw_count == 0
            else:
                ok = (witness is not None and witness.num_gates == result.minimal_gates
                      and netlist.truth_table_of(witness) == target
                      and 1 <= result.canonical_count <= result.raw_count)
            if not ok:
                failed.add(i)
        return failed


WORKLOADS = {w.name: w for w in (GaPaper(), GaLong(), OracleCount(), OracleMin3())}
