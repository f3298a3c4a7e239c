"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest tests/test_acceptance.py -v -s`. The batches behind
criteria 2-5 and 7 are shared: 30 seeded runs per target (base seed 42) at
each target's minimal gate count, population 10, mutation 0.10.
"""

import io
import itertools
import random
import statistics
from contextlib import redirect_stdout

import pytest

from nandevolve.bench import (
    DEFAULT_GATES,
    ExperimentEntry,
    default_experiment_spec,
    run_entry,
    run_experiment,
    to_csv,
)
from nandevolve.cli import main as cli_main
from nandevolve.evolve import GaConfig, breed, random_genome, run_evolution
from nandevolve.netlist import (
    NandGenome,
    TruthTable,
    evaluate,
    export_json,
    parse_json,
    prune_dead_gates,
    truth_table_of,
)
from nandevolve.oracle import enumerate_genomes, genome_count, minimal_gates

from conftest import random_valid_genome, x

TARGET_NAMES = ["and", "or", "nor", "xor", "xnor"]
BASE_SEED = 42
RUNS = 30
MAX_GEN = 50_000


def check(criterion: str, ok: bool, detail: str):
    print(f"acceptance {criterion}: {'PASS' if ok else 'FAIL'} ({detail})")
    assert ok, f"{criterion}: {detail}"


@pytest.fixture(scope="module")
def pop10_reports():
    reports = {}
    for name in TARGET_NAMES:
        entry = ExperimentEntry(
            label=name,
            target=TruthTable.named(name),
            num_gates=DEFAULT_GATES[name],
            population_size=10,
            runs=RUNS,
            base_seed=BASE_SEED,
            max_generations=MAX_GEN,
        )
        reports[name] = run_entry(entry)
    return reports


@pytest.fixture(scope="module")
def xnor_pop20_report():
    entry = ExperimentEntry(
        label="xnor",
        target=TruthTable.named("xnor"),
        num_gates=DEFAULT_GATES["xnor"],
        population_size=20,
        runs=RUNS,
        base_seed=BASE_SEED,
        max_generations=MAX_GEN,
    )
    return run_entry(entry)


def test_c1_oracle_minimality():
    expected = {"and": 2, "or": 3, "nor": 4, "xor": 4, "xnor": 5}
    found = {}
    for name, want in expected.items():
        target = TruthTable.named(name)
        result = minimal_gates(target, 6)
        found[name] = result.minimal_gates
        assert truth_table_of(result.witness) == target, f"{name} witness does not re-verify"
    check(
        "criterion 1 (oracle minimal gate counts 2/3/4/4/5)",
        found == expected,
        f"found {found}",
    )


def test_c2_ga_solvability(pop10_reports):
    solves = {name: pop10_reports[name].solve_count for name in TARGET_NAMES}
    check(
        f"criterion 2 (>=28/{RUNS} runs solved per target)",
        all(count >= 28 for count in solves.values()),
        f"solve counts {solves}",
    )


def test_c3_generation_trend(pop10_reports):
    medians = {
        name: statistics.median(
            r.generations for r in pop10_reports[name].runs if r.solved
        )
        for name in TARGET_NAMES
    }
    ordered = (
        medians["and"] < medians["or"] < medians["xnor"]
        and medians["and"] < medians["nor"] < medians["xnor"]
        and medians["and"] < medians["xor"] < medians["xnor"]
    )
    check(
        "criterion 3 (median generations: and < or < xnor, nor and xor strictly between)",
        ordered,
        f"medians {medians}",
    )


def test_c4_population_size_effect(pop10_reports, xnor_pop20_report):
    mean10 = statistics.mean(r.generations for r in pop10_reports["xnor"].runs if r.solved)
    mean20 = statistics.mean(r.generations for r in xnor_pop20_report.runs if r.solved)
    check(
        "criterion 4 (xnor mean generations at pop 20 < 0.75 x pop 10)",
        mean20 < 0.75 * mean10,
        f"pop20 {mean20:.1f} vs pop10 {mean10:.1f}, ratio {mean20 / mean10:.2f}",
    )


def test_c5_solution_multiplicity(pop10_reports):
    distinct = {
        name: pop10_reports[name].distinct_solution_count for name in ("or", "nor", "xnor")
    }
    check(
        "criterion 5 (>=2 structurally distinct solutions for or/nor/xnor)",
        all(count >= 2 for count in distinct.values()),
        f"distinct {distinct}",
    )


class TestC6Properties:
    def test_nand_semantics_exhaustive(self):
        nand = NandGenome(2, ((x(0), x(1)),))
        ok = all(
            evaluate(nand, (a, b)) == 1 - (a & b)
            for a, b in itertools.product((0, 1), repeat=2)
        )
        check("criterion 6a (NAND semantics on all assignments)", ok, "4/4 rows")

    def test_prune_preserves_function_1000(self):
        rng = random.Random(606)
        bad = 0
        for _ in range(1000):
            circuit = random_valid_genome(rng, rng.randrange(1, 4), rng.randrange(1, 9))
            if truth_table_of(prune_dead_gates(circuit)) != truth_table_of(circuit):
                bad += 1
        check("criterion 6b (prune preserves function, 1000 genomes)", bad == 0, f"{bad} mismatches")

    def test_json_round_trip_1000(self):
        rng = random.Random(707)
        bad = 0
        for _ in range(1000):
            circuit = random_valid_genome(rng, rng.randrange(1, 4), rng.randrange(1, 9))
            if parse_json(export_json(circuit)) != circuit:
                bad += 1
        check("criterion 6c (JSON round trip, 1000 genomes)", bad == 0, f"{bad} mismatches")

    def test_crossover_purity_at_mutation_zero(self):
        rng = random.Random(808)
        impure = 0
        for _ in range(10_000):
            pa = random_genome(rng, 2, 3)
            pb = random_genome(rng, 2, 3)
            child = breed(pa, pb, rng, mutation_rate=0.0)
            for cp, ap, bp in zip(child.gates, pa.gates, pb.gates):
                for gene, ga_, gb_ in zip(cp, ap, bp):
                    if gene != ga_ and gene != gb_:
                        impure += 1
        check("criterion 6d (crossover purity at mutation 0, 10^4 breedings)", impure == 0,
              f"{impure} non-parental genes")

    def test_mutation_rate_calibration(self):
        # gate 2 of a 3-gate, 2-input genome has 4 alleles; parents take the
        # two external values, so mutations reproduce a parental value half
        # the time and the observed rate is corrected by s/(s-2) = 2
        pa = NandGenome(2, ((x(0), x(0)), (x(0), x(0)), (x(0), x(0))))
        pb = NandGenome(2, ((x(1), x(1)), (x(1), x(1)), (x(1), x(1))))
        rng = random.Random(12345)
        neither = 0
        for _ in range(50_000):
            child = breed(pa, pb, rng, mutation_rate=0.10)
            neither += sum(1 for gene in child.gates[2] if gene not in (x(0), x(1)))
        estimate = neither / 100_000 * 2
        check("criterion 6e (mutation rate 0.10 +/- 0.005 over 10^5 gene draws)",
              abs(estimate - 0.10) <= 0.005, f"estimate {estimate:.4f}")

    def test_enumeration_counts_match_closed_form(self):
        ok = True
        detail = []
        for gates in range(1, 6):
            streamed = sum(1 for _ in enumerate_genomes(2, gates))
            detail.append(f"G={gates}:{streamed}")
            ok = ok and streamed == genome_count(2, gates)
        check("criterion 6f (enumeration counts, n=2, G<=5)", ok, " ".join(detail))

    def test_seed_determinism_byte_exact(self):
        def evolve_stdout():
            buf = io.StringIO()
            with redirect_stdout(buf):
                code = cli_main(["evolve", "--target", "xnor", "--gates", "5", "--seed", "11"])
            assert code == 0
            return buf.getvalue()

        evolve_same = evolve_stdout() == evolve_stdout()

        def evolve_traced():
            rows = []
            outcome = run_evolution(GaConfig(num_gates=5, seed=11), TruthTable.named("xnor"),
                                    lambda *row: rows.append(row))
            return outcome, rows

        outcome_a, outcome_b = evolve_traced(), evolve_traced()
        spec = default_experiment_spec(base_seed=BASE_SEED, runs=2, max_generations=MAX_GEN)
        bench_same = to_csv(run_experiment(spec)) == to_csv(run_experiment(spec))
        check("criterion 6g (seed determinism, evolve and bench outputs byte-exact)",
              evolve_same and outcome_a == outcome_b and bench_same,
              f"evolve {evolve_same}, outcome {outcome_a == outcome_b}, bench {bench_same}")


def test_c7_cross_validation(pop10_reports, xnor_pop20_report):
    mismatches = 0
    total = 0
    batches = [*(pop10_reports[name] for name in TARGET_NAMES), xnor_pop20_report]
    for report in batches:
        for record in report.runs:
            if record.solved:
                total += 1
                if truth_table_of(record.genome) != report.entry.target:
                    mismatches += 1
    check(
        "criterion 7 (every solved genome re-verifies against its target)",
        mismatches == 0 and total > 0,
        f"{total} solved genomes, {mismatches} mismatches",
    )
