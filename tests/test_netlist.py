import itertools
import json
import random
import tracemalloc

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nandevolve.bench import ExperimentEntry, parse_spec
from nandevolve.evolve import GaConfig, random_genome, run_evolution, step_generation
from nandevolve.netlist import (
    ArityError,
    CapacityError,
    FormatError,
    InputSource,
    NandGenome,
    StructureError,
    TruthTable,
    canonical_key,
    evaluate,
    export_dot,
    export_json,
    fitness,
    genome_from_ids,
    genome_ids,
    output_mask,
    parse_json,
    prune_dead_gates,
    truth_table_of,
)
from nandevolve.oracle import count_solutions, enumerate_genomes, minimal_gates

import reference_netlist
from conftest import g, genome, genomes, random_valid_genome, x


def brute_force_rows(circuit):
    """Independent table builder: the reference walk (tests/reference_netlist.py)
    on every assignment, one at a time."""
    n = circuit.num_inputs
    rows = []
    for i in range(1 << n):
        assignment = [(i >> k) & 1 for k in range(n)]
        rows.append(str(reference_netlist.evaluate(circuit, assignment)))
    return "".join(rows)


class TestNandSemantics:
    def test_single_gate_matches_nand_on_all_assignments(self):
        nand = genome(2, (x(0), x(1)))
        for a, b in itertools.product((0, 1), repeat=2):
            assert evaluate(nand, (a, b)) == 1 - (a & b)

    def test_examples(self):
        nand = genome(2, (x(0), x(1)))
        assert evaluate(nand, (1, 1)) == 0
        assert evaluate(nand, (0, 1)) == 1

    def test_and_construction(self, and_genome):
        assert evaluate(and_genome, (1, 1)) == 1
        for a, b in itertools.product((0, 1), repeat=2):
            assert evaluate(and_genome, (a, b)) == (a & b)

    def test_wrong_assignment_length(self):
        nand = genome(2, (x(0), x(1)))
        with pytest.raises(ArityError):
            evaluate(nand, (1,))

    @pytest.mark.parametrize("assignment", ["00", ["0", "0"], (2, 0), (None, 1)])
    def test_values_must_be_bits(self, assignment):
        nand = genome(2, (x(0), x(1)))
        with pytest.raises(ValueError, match="^assignment: expected bits 0 or 1"):
            evaluate(nand, assignment)

    @pytest.mark.parametrize("assignment", [5, iter([0, 1]), None], ids=["int", "iterator", "None"])
    def test_assignment_must_have_a_length(self, assignment):
        nand = genome(2, (x(0), x(1)))
        with pytest.raises(ValueError, match="^assignment: expected a sequence of bits, got "):
            evaluate(nand, assignment)

    def test_bool_and_float_bits_accepted(self):
        nand = genome(2, (x(0), x(1)))
        assert evaluate(nand, (True, False)) == 1
        assert evaluate(nand, (1.0, 0.0)) == 1

    def test_evaluates_beyond_the_table_cap(self):
        # 17 inputs is past MAX_INPUTS for tables, not for one assignment
        wide = NandGenome(17, ((x(0), x(16)), (g(0), x(5))))
        assert evaluate(wide, [1] * 17) == 1
        assert evaluate(wide, [0] * 5 + [1] + [0] * 11) == 0


class TestTruthTable:
    def test_nand_table(self):
        assert truth_table_of(genome(2, (x(0), x(1)))).rows == "1110"

    def test_and_table(self, and_genome):
        # expected rows derived by evaluating all 4 assignments with &
        expected = "".join(str((i & 1) & (i >> 1)) for i in range(4))
        assert expected == "0001"
        assert truth_table_of(and_genome).rows == expected

    def test_xor_table(self, xor_genome):
        expected = "".join(str((i & 1) ^ (i >> 1)) for i in range(4))
        assert expected == "0110"
        assert truth_table_of(xor_genome).rows == expected

    def test_matches_per_assignment_evaluation(self):
        rng = random.Random(4711)
        for _ in range(200):
            circuit = random_valid_genome(rng, rng.randrange(1, 4), rng.randrange(1, 7))
            assert truth_table_of(circuit).rows == brute_force_rows(circuit)

    def test_deterministic(self, xor_genome):
        assert truth_table_of(xor_genome) == truth_table_of(xor_genome)

    def test_row_order_convention(self):
        # rows[i] takes input k from bit k of i, so input 0 alone gives 0101
        assert truth_table_of(genome(2, (x(0), x(0)))).rows == "1010"  # not x0
        assert truth_table_of(genome(2, (x(1), x(1)))).rows == "1100"  # not x1

    def test_arity_cap(self):
        with pytest.raises(CapacityError):
            TruthTable(17, "0" * (1 << 17))

    def test_table_extraction_arity_cap(self):
        wide = NandGenome(17, ((x(0), x(16)),))
        with pytest.raises(CapacityError):
            truth_table_of(wide)

    def test_presets(self):
        assert TruthTable.named("and").rows == "0001"
        assert TruthTable.named("or").rows == "0111"
        assert TruthTable.named("nor").rows == "1000"
        assert TruthTable.named("xor").rows == "0110"
        assert TruthTable.named("xnor").rows == "1001"
        assert TruthTable.named("nand").rows == "1110"
        with pytest.raises(FormatError):
            TruthTable.named("nandish")

    def test_parse(self):
        assert TruthTable.parse("XOR") == TruthTable(2, "0110")
        assert TruthTable.parse("tt:01101001") == TruthTable(3, "01101001")
        with pytest.raises(FormatError):
            TruthTable.parse("tt:011")  # not a power of two
        with pytest.raises(FormatError):
            TruthTable.parse("tt:01x0")
        with pytest.raises(FormatError):
            TruthTable.parse("tt:1")  # zero-input table

    @pytest.mark.parametrize("make,value", [
        (TruthTable.parse, 5), (TruthTable.parse, None),
        (TruthTable.named, 5), (TruthTable.parse, b"tt:01"),
    ])
    def test_non_string_target_is_format_error(self, make, value):
        with pytest.raises(FormatError, match="unknown target name"):
            make(value)

    def test_mask_round_trip(self):
        t = TruthTable(3, "01101001")
        assert TruthTable.from_mask(3, t.mask) == t
        assert TruthTable.from_mask(2, 0).rows == "0000"
        assert TruthTable.from_mask(2, 15).rows == "1111"

    @pytest.mark.parametrize("num_inputs,mask,error,text", [
        (2, 99, FormatError, r"mask: expected an integer in \[0, 16\), got 99"),
        (2, 16, FormatError, "mask: "),
        (2, -1, FormatError, "mask: "),
        (2, 2.5, FormatError, "mask: "),
        (2, True, FormatError, "mask: "),
        (2.5, 1, FormatError, "num_inputs: expected an integer >= 1, got 2.5"),
        (-1, 1, FormatError, "num_inputs: expected an integer >= 1, got -1"),
        (17, 1, CapacityError, "arity 17 exceeds"),
        (16, -1, FormatError, r"mask: expected an integer in \[0, 2\*\*65536\), got -1$"),
    ], ids=["99", "16", "negative", "float", "bool", "float-arity", "negative-arity", "17-inputs",
            "bound-at-16-inputs"])
    def test_from_mask_checks_arguments(self, num_inputs, mask, error, text):
        with pytest.raises(error, match=f"^{text}"):
            TruthTable.from_mask(num_inputs, mask)


@pytest.mark.parametrize("call", [
    lambda rng: minimal_gates("and", 2),
    lambda rng: count_solutions("and", 2),
    lambda rng: fitness(genome(2, (x(0), x(1))), "and"),
    lambda rng: run_evolution(GaConfig(num_gates=2), "and"),
    lambda rng: step_generation([], "and", rng, GaConfig(num_gates=2)),
    lambda rng: ExperimentEntry(label="x", target="and", num_gates=2),
], ids=["minimal_gates", "count_solutions", "fitness", "run_evolution", "step_generation",
        "ExperimentEntry"])
def test_target_must_be_a_truth_table(call):
    # checked before any use of the target and before any RNG draw
    rng = random.Random(0)
    state = rng.getstate()
    with pytest.raises(ValueError, match="^target: expected a TruthTable, got 'and'$"):
        call(rng)
    assert rng.getstate() == state


AND = TruthTable.named("and")
HUGE = 10**5000  # over Python's 4300-digit limit for int-to-str conversion

# Every integer argument, checked by netlist.require_int:
# (where, field, minimum, error type, call with the value in that field)
INTEGER_ARGUMENTS = [
    ("GaConfig", "num_gates", 1, ValueError, lambda v: GaConfig(num_gates=v)),
    ("GaConfig", "population_size", 2, ValueError, lambda v: GaConfig(1, population_size=v)),
    ("GaConfig", "max_generations", 0, ValueError, lambda v: GaConfig(1, max_generations=v)),
    ("GaConfig", "seed", 0, ValueError, lambda v: GaConfig(1, seed=v)),
    ("ExperimentEntry", "runs", 1, ValueError, lambda v: ExperimentEntry("and", AND, 2, runs=v)),
    ("ExperimentEntry", "base_seed", 0, ValueError,
     lambda v: ExperimentEntry("and", AND, 2, base_seed=v)),
    ("random_genome", "num_inputs", 1, ValueError, lambda v: random_genome(random.Random(0), v, 1)),
    ("random_genome", "num_gates", 1, ValueError, lambda v: random_genome(random.Random(0), 2, v)),
    ("enumerate_genomes", "num_inputs", 1, ValueError, lambda v: enumerate_genomes(v, 1)),
    ("enumerate_genomes", "num_gates", 1, ValueError, lambda v: enumerate_genomes(2, v)),
    ("count_solutions", "num_gates", 1, ValueError, lambda v: count_solutions(AND, v)),
    ("minimal_gates", "max_gates", 1, ValueError, lambda v: minimal_gates(AND, v)),
    ("count_solutions", "budget", 1, ValueError, lambda v: count_solutions(AND, 1, budget=v)),
    ("NandGenome", "num_inputs", 1, StructureError, lambda v: NandGenome(v, ((x(0), x(0)),))),
    ("InputSource", "index", 0, StructureError, lambda v: InputSource("external", v)),
    ("TruthTable", "num_inputs", 1, FormatError, lambda v: TruthTable(v, "0001")),
    ("from_mask", "num_inputs", 1, FormatError, lambda v: TruthTable.from_mask(v, 1)),
    ("from_mask", "mask", 0, FormatError, lambda v: TruthTable.from_mask(2, v)),
]


@pytest.mark.parametrize("value", [True, 2.5, "1", None, "minimum - 1", -HUGE],
                         ids=["bool", "float", "str", "None", "below", "huge"])
@pytest.mark.parametrize("where,field,minimum,error,call", INTEGER_ARGUMENTS,
                         ids=[f"{where}.{field}" for where, field, *_ in INTEGER_ARGUMENTS])
def test_one_integer_rule(where, field, minimum, error, call, value):
    if value == "minimum - 1":
        value = minimum - 1
    with pytest.raises(error) as info:
        call(value)
    assert type(info.value) is error
    assert str(info.value).startswith(f"{field}: expected an integer ")


@pytest.mark.parametrize("error,start,call", [
    (FormatError, "mask: ", lambda: TruthTable.from_mask(2, HUGE)),
    (FormatError, "unknown target name ", lambda: TruthTable.named(HUGE)),
    (CapacityError, "arity ", lambda: TruthTable.from_mask(HUGE, 1)),
    (CapacityError, "arity ", lambda: TruthTable(HUGE, "01")),
    (StructureError, "num_inputs: ", lambda: NandGenome(-HUGE, ((x(0), x(0)),))),
    (StructureError, "index: ", lambda: InputSource("external", -HUGE)),
    (StructureError, "gates[0][0]: external index ", lambda: NandGenome(2, ((x(HUGE), x(0)),))),
    (StructureError, "gates[0][0]: gate index ", lambda: NandGenome(2, ((g(HUGE), x(0)),))),
    (StructureError, "ids: ", lambda: genome_from_ids(2, [HUGE, 0])),
    (ValueError, "num_gates: ", lambda: GaConfig(num_gates=-HUGE)),
    (ValueError, "mutation_rate: ", lambda: GaConfig(num_gates=1, mutation_rate=HUGE)),
    (ValueError, "num_gates: ", lambda: count_solutions(AND, -HUGE)),
    (ValueError, "budget: ", lambda: minimal_gates(AND, 1, budget=-HUGE)),
    (ValueError, "assignment: ", lambda: evaluate(genome(2, (x(0), x(1))), [HUGE, 0])),
    (CapacityError, "<int too long to show> genomes at 1 gates exceeds the budget of ",
     lambda: enumerate_genomes(10**4400, 1, budget=10**4400)),
])
def test_messages_show_a_huge_int(error, start, call):
    # repr of an int over 4300 digits raises ValueError; the message must
    # still be built, with the value shown as fixed text
    with pytest.raises(error) as info:
        call()
    assert type(info.value) is error
    assert str(info.value).startswith(start)
    assert "<int too long to show>" in str(info.value)


@pytest.mark.parametrize("parse", [parse_json, parse_spec], ids=["parse_json", "parse_spec"])
@pytest.mark.parametrize("text", ['{"inputs": %s}', '{"entries": [%s]}', "%s"],
                         ids=["field", "array", "top-level"])
def test_an_integer_literal_over_the_digit_limit_is_format_error(parse, text):
    with pytest.raises(FormatError, match=r"^invalid JSON: an integer literal is longer than \d+ digits$"):
        parse(text % ("1" * 5001))


class TestFitness:
    def test_perfect(self, and_genome):
        assert fitness(and_genome, TruthTable.named("and")) == 1.0

    def test_partial(self):
        assert fitness(genome(2, (x(0), x(1))), TruthTable.named("xor")) == 0.75

    def test_zero(self):
        # NAND complements AND on every row
        assert fitness(genome(2, (x(0), x(1))), TruthTable.named("and")) == 0.0

    def test_quantized(self):
        rng = random.Random(99)
        allowed = {0.0, 0.25, 0.5, 0.75, 1.0}
        target = TruthTable.named("xor")
        for _ in range(300):
            circuit = random_valid_genome(rng, 2, rng.randrange(1, 7))
            assert fitness(circuit, target) in allowed

    def test_arity_mismatch(self):
        with pytest.raises(ArityError):
            fitness(genome(2, (x(0), x(1))), TruthTable(3, "01101001"))


class TestValidity:
    def test_rejects_forward_reference(self):
        with pytest.raises(StructureError, match=r"gates\[0\]\[1\]: gate index 0 must be below 0"):
            genome(2, (x(0), g(0)))  # gate 0 cannot read any gate

    def test_rejects_self_reference(self):
        with pytest.raises(StructureError, match=r"gates\[1\]\[0\]: gate index 1 must be below 1"):
            genome(2, (x(0), x(1)), (g(1), x(0)))

    def test_rejects_external_out_of_range(self):
        with pytest.raises(StructureError, match=r"gates\[0\]\[1\]: external index 2 out of range"):
            genome(2, (x(0), x(2)))

    def test_rejects_empty(self):
        with pytest.raises(StructureError, match=r"^gates: "):
            NandGenome(2, ())

    @pytest.mark.parametrize("pair", [(x(0),), (x(0), x(1), x(0))])
    def test_rejects_gate_that_is_not_a_pair(self, pair):
        with pytest.raises(StructureError, match=r"^gates\[1\]: expected a pair of sources, got "):
            NandGenome(2, ((x(0), x(1)), pair))

    def test_rejects_gates_that_are_not_a_sequence(self):
        with pytest.raises(StructureError, match=r"^gates: expected a sequence of gate pairs, got 5"):
            NandGenome(2, 5)
        with pytest.raises(StructureError, match=r"^gates\[0\]: expected a pair of sources, got 5"):
            NandGenome(2, (5,))

    def test_rejects_bad_arity(self):
        with pytest.raises(StructureError, match=r"^num_inputs: "):
            NandGenome(0, ((x(0), x(0)),))

    def test_rejects_bad_source(self):
        with pytest.raises(StructureError, match="unknown source type 'wire'"):
            InputSource("wire", 0)
        with pytest.raises(StructureError, match="index: expected an integer >= 0"):
            InputSource("gate", -1)

    @pytest.mark.parametrize(
        "pairs",
        [
            ((x(0), g(0)),),
            ((x(0), x(1)), (g(1), x(0))),
            ((x(0), x(1)), (x(1), x(3))),
            ((x(0), x(1)), (g(0), x(1), x(0))),
        ],
    )
    def test_parse_json_reports_constructor_text(self, pairs):
        doc = {
            "inputs": 2,
            "gates": [[{"type": src.kind, "index": src.index} for src in pair] for pair in pairs],
        }
        with pytest.raises(StructureError) as built:
            NandGenome(2, pairs)
        with pytest.raises(FormatError) as parsed:
            parse_json(json.dumps(doc))
        assert str(parsed.value) == str(built.value)


class TestAlleleIds:
    @settings(max_examples=300, deadline=None)
    @given(genomes(max_inputs=4))
    def test_round_trip(self, circuit):
        ids = genome_ids(circuit)
        assert len(ids) == 2 * circuit.num_gates
        assert genome_from_ids(circuit.num_inputs, ids) == circuit

    def test_decodes_with_the_allele_table(self, xor_genome):
        assert genome_from_ids(2, [0, 1, 0, 2, 1, 2, 3, 4]) == xor_genome

    @pytest.mark.parametrize("ids", [[0], [0, 1, 2], [0, -1], [0, 3]])
    def test_rejects_ids_outside_the_table(self, ids):
        with pytest.raises(StructureError, match=r"^ids: "):
            genome_from_ids(2, ids)

    @pytest.mark.parametrize("call", [
        lambda: random_genome(random.Random(0), 10**6, 1),
        lambda: canonical_key(NandGenome(10**6, ((x(5), x(999_999)),))),
        lambda: prune_dead_gates(NandGenome(10**6, ((x(5), x(999_999)),))),
    ], ids=["random_genome", "canonical_key", "prune_dead_gates"])
    def test_cost_follows_the_ids_not_num_inputs(self, call):
        # a table of all 10**6 external sources would take over 100 MiB
        tracemalloc.start()
        try:
            call()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1 << 20

    def test_forward_id_fails_in_the_constructor(self):
        # id 3 is gate 1, which gate 1 cannot read
        with pytest.raises(StructureError, match=r"gates\[1\]\[1\]: gate index 1 must be below 1"):
            genome_from_ids(2, [0, 1, 0, 3])


# The id-level walk and prune must agree with the object-level reference
# (tests/reference_netlist.py), which they replaced.
class TestMatchesReference:
    @settings(max_examples=1000, deadline=None)
    @given(genomes(max_inputs=4))
    def test_output_mask_matches_every_assignment(self, circuit):
        mask = output_mask(circuit)
        for i in range(1 << circuit.num_inputs):
            assignment = [(i >> k) & 1 for k in range(circuit.num_inputs)]
            assert (mask >> i) & 1 == reference_netlist.evaluate(circuit, assignment)
            assert evaluate(circuit, assignment) == reference_netlist.evaluate(circuit, assignment)

    @settings(max_examples=500, deadline=None)
    @given(genomes(max_inputs=4), st.data())
    def test_fitness_counts_matching_rows(self, circuit, data):
        # the score formula (netlist.scorer) against the reference walk, row by row
        n = circuit.num_inputs
        target = TruthTable.from_mask(n, data.draw(st.integers(0, (1 << (1 << n)) - 1)))
        agree = sum(r == t for r, t in zip(brute_force_rows(circuit), target.rows))
        assert fitness(circuit, target) == agree / (1 << n)

    @settings(max_examples=1000, deadline=None)
    @given(genomes(max_inputs=4))
    def test_prune_and_key_match(self, circuit):
        assert prune_dead_gates(circuit) == reference_netlist.prune_dead_gates(circuit)
        assert canonical_key(circuit) == reference_netlist.canonical_key(circuit)


class TestPrune:
    def test_all_live_is_identity(self, and_genome):
        assert prune_dead_gates(and_genome) == and_genome

    def test_drops_dead_gate(self):
        padded = genome(2, (x(0), x(0)), (x(0), x(1)), (g(1), g(1)))
        assert prune_dead_gates(padded) == genome(2, (x(0), x(1)), (g(0), g(0)))

    @settings(max_examples=1000, deadline=None)
    @given(genomes())
    def test_preserves_function(self, circuit):
        assert truth_table_of(prune_dead_gates(circuit)) == truth_table_of(circuit)

    def test_keeps_diamond_sharing(self, xor_genome):
        assert prune_dead_gates(xor_genome) == xor_genome


class TestCanonicalKey:
    def test_dead_gate_does_not_change_key(self, and_genome):
        padded = genome(2, (x(0), x(0)), (x(0), x(1)), (g(1), g(1)))
        assert canonical_key(padded) == canonical_key(genome(2, (x(0), x(1)), (g(0), g(0))))
        assert canonical_key(padded) == canonical_key(and_genome)

    def test_distinct_structures_distinct_keys(self, and_genome, xor_genome):
        assert canonical_key(and_genome) != canonical_key(xor_genome)

    def test_stable(self, xor_genome):
        assert canonical_key(xor_genome) == canonical_key(xor_genome)
        assert isinstance(canonical_key(xor_genome), bytes)


class TestJson:
    def test_round_trip_examples(self, and_genome, xor_genome):
        for circuit in (and_genome, xor_genome):
            assert parse_json(export_json(circuit)) == circuit

    @settings(max_examples=1000, deadline=None)
    @given(genomes())
    def test_round_trip(self, circuit):
        assert parse_json(export_json(circuit)) == circuit

    def test_schema_shape(self, and_genome):
        doc = json.loads(export_json(and_genome))
        assert doc == {
            "inputs": 2,
            "gates": [
                [{"type": "external", "index": 0}, {"type": "external", "index": 1}],
                [{"type": "gate", "index": 0}, {"type": "gate", "index": 0}],
            ],
        }

    def test_rejects_forward_reference(self):
        text = (
            '{"inputs": 2, "gates": [[{"type": "gate", "index": 2}, '
            '{"type": "external", "index": 0}]]}'
        )
        with pytest.raises(FormatError, match=r"gates\[0\]\[0\]"):
            parse_json(text)

    def test_rejects_unknown_type(self):
        text = '{"inputs": 2, "gates": [[{"type": "wire", "index": 0}, {"type": "external", "index": 1}]]}'
        with pytest.raises(FormatError, match="unknown source type"):
            parse_json(text)

    def test_rejects_out_of_range_external(self):
        text = '{"inputs": 2, "gates": [[{"type": "external", "index": 5}, {"type": "external", "index": 1}]]}'
        with pytest.raises(FormatError, match="out of range"):
            parse_json(text)

    def test_rejects_wrong_field_types(self):
        bad = [
            '{"inputs": "two", "gates": [[{"type": "external", "index": 0}, {"type": "external", "index": 0}]]}',
            '{"inputs": 2, "gates": [[{"type": "external", "index": "0"}, {"type": "external", "index": 0}]]}',
            '{"inputs": 2, "gates": [[{"type": "external", "index": true}, {"type": "external", "index": 0}]]}',
            '{"inputs": 2, "gates": [{"type": "external", "index": 0}]}',
            '{"inputs": 2, "gates": []}',
            '{"gates": [[{"type": "external", "index": 0}, {"type": "external", "index": 0}]]}',
            '{"inputs": 2}',
            "[1, 2]",
        ]
        for text in bad:
            with pytest.raises(FormatError):
                parse_json(text)

    def test_rejects_invalid_json_with_position(self):
        with pytest.raises(FormatError, match="line 1"):
            parse_json("{nope")


class TestDot:
    def test_xor_dot_structure(self, xor_genome):
        dot = export_dot(xor_genome)
        lines = dot.splitlines()
        assert lines[0] == "digraph nand_circuit {"
        gate_nodes = [ln for ln in lines if ln.strip().startswith("g") and "shape=box" in ln]
        input_nodes = [ln for ln in lines if ln.strip().startswith("x") and "shape=circle" in ln]
        edges = [ln for ln in lines if "->" in ln]
        assert len(gate_nodes) == 4
        assert len(input_nodes) == 2
        assert len(edges) == 8  # two per gate
        # exactly the last gate carries the output marker
        marked = [ln for ln in gate_nodes if "peripheries=2" in ln]
        assert len(marked) == 1 and "g3" in marked[0]

    def test_edges_point_source_to_gate(self, and_genome):
        dot = export_dot(and_genome)
        assert "  x0 -> g0;" in dot
        assert "  x1 -> g0;" in dot
        assert "  g0 -> g1;" in dot
