import json
import random
from collections import Counter
from dataclasses import fields
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nandevolve.bench import DEFAULT_GATES
from nandevolve.evolve import GaConfig, run_evolution
from nandevolve.netlist import (
    CapacityError,
    NandGenome,
    TruthTable,
    canonical_key,
    genome_from_ids,
    genome_ids,
    prune_dead_gates,
    truth_table_of,
)
from nandevolve.oracle import (
    MinimalityResult,
    SolutionCount,
    count_solutions,
    enumerate_genomes,
    genome_count,
    minimal_gates,
)

import reference_netlist
import reference_oracle
from conftest import g, genome, x


GOLDEN = Path(__file__).with_name("golden")
PRESETS = {TruthTable.named(name).rows: name for name in ("and", "or", "nor", "xor", "xnor", "nand")}
TWO_INPUT_TARGETS = [PRESETS.get(bits, f"tt:{bits}") for bits in (format(m, "04b") for m in range(16))]


def solutions_by_filtering(target, num_gates):
    """Independent route: materialize the whole space and filter by table."""
    return [
        circuit
        for circuit in enumerate_genomes(target.num_inputs, num_gates)
        if truth_table_of(circuit) == target
    ]


class TestEnumeration:
    @pytest.mark.parametrize(
        "n,gates,expected",
        [(2, 1, 4), (2, 2, 36), (2, 3, 576), (2, 5, 518_400), (1, 5, 14_400), (3, 2, 144)],
    )
    def test_closed_form(self, n, gates, expected):
        assert genome_count(n, gates) == expected

    @pytest.mark.parametrize("n", [1, 2])
    @pytest.mark.parametrize("gates", [1, 2, 3, 4])
    def test_stream_length_matches_closed_form(self, n, gates):
        assert sum(1 for _ in enumerate_genomes(n, gates)) == genome_count(n, gates)

    def test_stream_length_n1_g5(self):
        assert sum(1 for _ in enumerate_genomes(1, 5)) == genome_count(1, 5) == 14_400

    def test_all_distinct_and_valid(self):
        seen = set(enumerate_genomes(2, 2))
        assert len(seen) == 36

    def test_lexicographic_order(self):
        stream = list(enumerate_genomes(2, 2))
        assert stream[0] == genome(2, (x(0), x(0)), (x(0), x(0)))
        assert stream[1] == genome(2, (x(0), x(0)), (x(0), x(1)))
        # allele order at gate 1 is x0, x1, then g0
        assert stream[2] == genome(2, (x(0), x(0)), (x(0), g(0)))
        assert stream[-1] == genome(2, (x(1), x(1)), (g(0), g(0)))

    def test_budget_refused_at_call_time(self):
        with pytest.raises(CapacityError):
            enumerate_genomes(2, 7, budget=100_000_000)  # 1.6e9 genomes
        with pytest.raises(CapacityError):
            enumerate_genomes(2, 3, budget=500)


class TestCountSolutions:
    def test_nand_one_gate(self):
        result = count_solutions(TruthTable.named("nand"), 1)
        assert result.raw == 2  # (x0,x1) and (x1,x0)
        assert result.canonical == 2

    def test_and_one_gate_has_none(self):
        assert count_solutions(TruthTable.named("and"), 1).raw == 0

    def test_and_two_gates(self):
        target = TruthTable.named("and")
        result = count_solutions(target, 2)
        found = solutions_by_filtering(target, 2)
        assert result.raw == len(found) > 0
        assert genome(2, (x(0), x(1)), (g(0), g(0))) in found

    # all 16 two-input functions, by preset name where one exists
    @pytest.mark.parametrize("gates", [1, 2, 3])
    @pytest.mark.parametrize("name", TWO_INPUT_TARGETS)
    def test_agrees_with_filtering_route(self, name, gates):
        target = TruthTable.parse(name)
        found = solutions_by_filtering(target, gates)
        result = count_solutions(target, gates)
        assert result.raw == len(found)
        assert result.canonical == len({reference_netlist.canonical_key(circuit) for circuit in found})
        # levels below `gates` are checked by their own parameters
        minimal = minimal_gates(target, gates)
        if minimal.minimal_gates == gates:
            assert minimal.witness == found[0]
            assert (minimal.raw_count, minimal.canonical_count) == (result.raw, result.canonical)
        else:
            assert not found or minimal.minimal_gates < gates

    def test_respects_budget(self):
        with pytest.raises(CapacityError):
            count_solutions(TruthTable.named("and"), 7)

    def test_solution_densities_behind_c3(self):
        # The README's reason why test_c3_generation_trend fails: at each
        # target's minimal gate count NOR is the sparsest, and at a common
        # 5 gates the densities order and > or > xor > nor > xnor.
        at_default = {"and": (2, 36), "or": (12, 576), "nor": (12, 14400),
                      "xor": (32, 14400), "xnor": (512, 518400)}
        for name, (raw, space) in at_default.items():
            gates = DEFAULT_GATES[name]
            assert (count_solutions(TruthTable.named(name), gates).raw,
                    genome_count(2, gates)) == (raw, space), name
        at_five = {"and": 31428, "or": 20544, "xor": 2256, "nor": 1040, "xnor": 512}
        assert genome_count(2, 5) == 518400
        for name, raw in at_five.items():
            assert count_solutions(TruthTable.named(name), 5).raw == raw, name


# Every table of 1, 2 and 3 inputs, at every gate count whose space is
# enumerated here in well under a second. At 4 inputs, looping over all
# 65 536 tables is too slow: the 143 tables that 3 gates realize are
# checked, and AND and parity of 4 inputs, which they do not.
SPACES = [(1, 5), (2, 4), (3, 3), (4, 3)]
UNREALIZED_4 = (0x8000, 0x6996)


class TestEveryTable:
    @pytest.mark.parametrize("n,max_gates", SPACES, ids=[f"n{n}-g{top}" for n, top in SPACES])
    def test_counts_match_the_grouped_space(self, n, max_gates):
        # enumerate each space once and group its genomes by truth table
        found = {}
        for gates in range(1, max_gates + 1):
            for circuit in enumerate_genomes(n, gates):
                found.setdefault((truth_table_of(circuit), gates), []).append(circuit)
        masks = range(1 << (1 << n))
        if n == 4:
            realized = {table.mask for table, _ in found}
            assert len(realized) == 143 and realized.isdisjoint(UNREALIZED_4)
            masks = sorted(realized.union(UNREALIZED_4))
        for mask in masks:
            target = TruthTable.from_mask(n, mask)
            for gates in range(1, max_gates + 1):
                solutions = found.get((target, gates), [])
                keys = {reference_netlist.canonical_key(circuit) for circuit in solutions}
                assert count_solutions(target, gates) == SolutionCount(len(solutions), len(keys)), gates
            solved = [gates for gates in range(1, max_gates + 1) if (target, gates) in found]
            minimal = minimal_gates(target, max_gates)
            if solved:
                first = found[target, solved[0]]
                assert minimal == MinimalityResult(first[0], len(first), len(first))
            else:
                assert minimal == MinimalityResult(None, 0, 0)

    def test_every_three_input_table_at_five_gates(self):
        # minimal_gates(t, 5) for all 256 tables, as the oracle_min3
        # workload queries: minimal gates, counts and witness ids, pinned
        # from the genome-free pass before its last level paired only
        # covering tables
        golden = json.loads((GOLDEN / "oracle-n3-g5.json").read_text())
        assert [entry["rows"] for entry in golden] == [TruthTable.from_mask(3, m).rows for m in range(256)]
        assert Counter(entry["minimal_gates"] for entry in golden) == {
            1: 6, 2: 16, 3: 26, 4: 43, 5: 48, None: 117}
        for entry in golden:
            target = TruthTable(3, entry["rows"])
            result = minimal_gates(target, 5)
            witness = result.witness
            assert {
                "rows": target.rows,
                "minimal_gates": result.minimal_gates,
                "raw_count": result.raw_count,
                "canonical_count": result.canonical_count,
                "witness_ids": None if witness is None else genome_ids(witness),
            } == entry
            assert witness is None or truth_table_of(witness) == target


class TestLastLevel:
    # The last level counts only pairs of tables that cover the target's
    # zero rows; a growth level pairs every table. Asking for one gate more
    # than a table's minimum m moves its witness from the one to the other.
    @pytest.mark.parametrize("n,max_gates,tables", [(2, 5, 16), (3, 4, 91)])
    def test_agrees_with_a_growth_level(self, n, max_gates, tables):
        checked = []
        for mask in range(1 << (1 << n)):
            target = TruthTable.from_mask(n, mask)
            m = minimal_gates(target, max_gates).minimal_gates
            if m is None:
                continue
            at_growth = minimal_gates(target, m + 1)
            assert minimal_gates(target, m) == at_growth
            assert count_solutions(target, m).raw == at_growth.raw_count
            checked.append(mask)
        # every table with a minimum up to max_gates, both constants among them
        assert len(checked) == tables
        assert {0, (1 << (1 << n)) - 1} <= set(checked)


@st.composite
def queries(draw):
    """A table of 1-3 inputs and a gate count the reference scans quickly."""
    n = draw(st.integers(min_value=1, max_value=3))
    mask = draw(st.integers(min_value=0, max_value=(1 << (1 << n)) - 1))
    gates = draw(st.integers(min_value=1, max_value=3 if n == 3 else 4))
    return TruthTable.from_mask(n, mask), gates


class TestMatchesReference:
    # the forward pass over table multisets and the witness search against
    # the genome scan they replaced (tests/reference_oracle.py)
    @settings(max_examples=300, deadline=None)
    @given(queries())
    def test_counts_and_witness(self, query):
        target, gates = query
        assert count_solutions(target, gates) == reference_oracle.count_solutions(target, gates)
        assert minimal_gates(target, gates) == reference_oracle.minimal_gates(target, gates)

    @pytest.mark.parametrize("n,max_gates,minima", [
        (2, 6, {1: 3, 2: 6, 3: 4, 4: 2, 5: 1}),
        # the minimal NAND counts of all 256 3-input tables, up to 4 gates
        (3, 4, {1: 6, 2: 16, 3: 26, 4: 43, None: 165}),
    ])
    def test_every_witness_matches_the_depth_first_search(self, n, max_gates, minima):
        found = Counter()
        for mask in range(1 << (1 << n)):
            target = TruthTable.from_mask(n, mask)
            result = minimal_gates(target, max_gates)
            found[result.minimal_gates] += 1
            if result.minimal_gates is None:
                assert result.witness is None
                assert reference_oracle._witness(target, max_gates) is None
            else:
                assert result.minimal_gates == result.witness.num_gates
                ids = reference_oracle._witness(target, result.minimal_gates)
                assert result.witness == genome_from_ids(n, ids)
        assert found == minima

    # Few 4-input tables have a witness within 3 gates (none of these random
    # ones), so the tables that 2 gates realize are checked as well.
    @pytest.mark.parametrize("masks", [
        sorted({truth_table_of(circuit).mask for circuit in enumerate_genomes(4, 2)}),
        random.Random(4).sample(range(1 << 16), 32),
    ], ids=["realized-at-2", "random"])
    def test_four_inputs(self, masks):
        for mask in masks:
            target = TruthTable.from_mask(4, mask)
            for gates in (1, 2, 3):
                assert count_solutions(target, gates) == reference_oracle.count_solutions(target, gates)
                assert minimal_gates(target, gates) == reference_oracle.minimal_gates(target, gates)

    def test_xnor_at_seven_gates(self):
        # 1.6e9 genomes, past the default budget. The reference's genome
        # scan gives the same counts but takes over a minute, so it is not
        # run here.
        assert count_solutions(TruthTable.named("xnor"), 7, budget=2 * 10**9) == SolutionCount(5_386_848, 344_096)


class TestMinimalGates:
    def test_stores_only_the_witness_and_counts(self):
        # minimal_gates is read from the witness
        assert [f.name for f in fields(MinimalityResult)] == ["witness", "raw_count", "canonical_count"]

    def test_nand_is_one_gate(self):
        result = minimal_gates(TruthTable.named("nand"), 3)
        assert result.minimal_gates == 1
        assert result.witness == genome(2, (x(0), x(1)))  # first in enumeration order

    def test_and_is_two_gates(self):
        target = TruthTable.named("and")
        result = minimal_gates(target, 4)
        assert result.minimal_gates == 2
        assert truth_table_of(result.witness) == target
        assert result.witness == solutions_by_filtering(target, 2)[0]
        assert result.raw_count == result.canonical_count == 2

    @pytest.mark.parametrize("name, gates", sorted(DEFAULT_GATES.items()))
    def test_named_target_gate_counts_are_minimal(self, name, gates):
        # every gate count of the named-target table is the oracle's minimum
        assert minimal_gates(TruthTable.named(name), gates).minimal_gates == gates

    def test_none_up_to_budget(self):
        parity3 = TruthTable(3, "01101001")
        result = minimal_gates(parity3, 2)
        assert result.minimal_gates is None
        assert result.witness is None
        assert result.raw_count == result.canonical_count == 0

    def test_budget_checked_for_all_levels(self):
        # even an easy target is refused when a requested level cannot fit
        with pytest.raises(CapacityError):
            minimal_gates(TruthTable.named("nand"), 7)

    @pytest.mark.parametrize(
        "query",
        [
            lambda: count_solutions(TruthTable.named("and"), 1000),
            lambda: enumerate_genomes(2, 10**6),
            lambda: minimal_gates(TruthTable.named("and"), 10**6),
        ],
        ids=["count-1000", "enumerate-1e6", "minimal-1e6"],
    )
    def test_budget_refused_at_first_level_over_it(self, query):
        # the space is multiplied out level by level, never at the top count
        with pytest.raises(CapacityError, match="^1625702400 genomes at 7 gates exceeds"):
            query()

    def test_rejects_bad_max(self):
        for max_gates in (0, 2.5, True):
            with pytest.raises(ValueError, match="^max_gates: "):
                minimal_gates(TruthTable.named("and"), max_gates)

    @pytest.mark.parametrize(
        "query,field",
        [
            (lambda: count_solutions(TruthTable.named("and"), 0), "num_gates"),
            (lambda: count_solutions(TruthTable.named("and"), 2.5), "num_gates"),
            (lambda: enumerate_genomes(2, 0), "num_gates"),
            (lambda: count_solutions(TruthTable.named("and"), 3, budget=None), "budget"),
            (lambda: count_solutions(TruthTable.named("and"), 3, budget="x"), "budget"),
            (lambda: count_solutions(TruthTable.named("and"), 3, budget=True), "budget"),
            (lambda: count_solutions(TruthTable.named("and"), 3, budget=2.5), "budget"),
            (lambda: minimal_gates(TruthTable.named("and"), 3, budget=0), "budget"),
            (lambda: enumerate_genomes(2, 1, budget=None), "budget"),
        ],
        ids=["count-0", "count-2.5", "enumerate-0", "budget-None", "budget-x", "budget-True",
             "budget-2.5", "minimal-budget-0", "enumerate-budget-None"],
    )
    def test_rejects_bad_gate_count(self, query, field):
        with pytest.raises(ValueError, match=f"^{field}: "):
            query()

    def test_rejects_bad_input_count(self):
        for num_inputs in (0, 2.5, True):
            with pytest.raises(ValueError, match="^num_inputs: "):
                enumerate_genomes(num_inputs, 2)


class TestBuildsOnlyTheWitness:
    @pytest.fixture
    def inits(self, monkeypatch):
        calls = []
        original = NandGenome.__init__

        def spy(self, *args, **kwargs):
            calls.append(args)
            original(self, *args, **kwargs)

        monkeypatch.setattr(NandGenome, "__init__", spy)
        return calls

    def test_count_solutions(self, inits):
        # 800 matching genomes; no genome is built
        assert count_solutions(TruthTable.parse("tt:00000111"), 4) == SolutionCount(800, 16)
        assert len(inits) == 0

    def test_minimal_gates(self, inits):
        result = minimal_gates(TruthTable.named("xor"), 5)
        assert len(inits) == 1 and result.minimal_gates == 4
        assert result.witness == genome(2, (x(0), x(1)), (x(0), g(0)), (x(1), g(0)), (g(1), g(2)))
        assert (result.raw_count, result.canonical_count) == (32, 32)


class TestCrossChecks:
    @pytest.mark.parametrize("name", ["and", "or", "nor", "xor", "xnor", "nand"])
    def test_padding_monotonicity(self, name):
        # a target solvable at G gates is solvable at G+1
        target = TruthTable.named(name)
        minimum = minimal_gates(target, 6).minimal_gates
        assert count_solutions(target, minimum + 1).raw > 0

    def test_minimal_solutions_have_no_dead_gates(self):
        target = TruthTable.named("xor")
        result = minimal_gates(target, 5)
        assert prune_dead_gates(result.witness) == result.witness

    def test_ga_solution_confirmed_by_oracle(self):
        target = TruthTable.named("xor")
        out = run_evolution(GaConfig(num_gates=4, seed=5), target)
        assert out.solved
        assert truth_table_of(out.genome) == target
        # the pruned GA solution appears among the oracle's enumerated ones
        pruned = reference_netlist.prune_dead_gates(out.genome)
        keys = {
            reference_netlist.canonical_key(circuit)
            for circuit in solutions_by_filtering(target, pruned.num_gates)
        }
        assert reference_netlist.canonical_key(out.genome) in keys
        assert canonical_key(out.genome) == reference_netlist.canonical_key(out.genome)
