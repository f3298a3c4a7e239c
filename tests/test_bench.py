import csv
import io
import re
import statistics
from dataclasses import fields
from xml.etree import ElementTree

import pytest

import nandevolve.bench as bench_mod
from nandevolve.bench import (
    CSV_COLUMNS,
    EntryReport,
    ExperimentEntry,
    default_experiment_spec,
    parse_spec,
    run_entry,
    run_experiment,
    to_csv,
    to_svg,
    to_table,
)
from nandevolve.evolve import GaConfig, Individual, RunOutcome, run_evolution
from nandevolve.netlist import FormatError, TruthTable, canonical_key, genome_from_ids, truth_table_of


def small_spec(runs=4, base_seed=100):
    return (
        ExperimentEntry("and", TruthTable.named("and"), 2, runs=runs, base_seed=base_seed),
        ExperimentEntry("or", TruthTable.named("or"), 3, runs=runs, base_seed=base_seed),
    )


class TestDefaultSpec:
    def test_entries(self):
        spec = default_experiment_spec(base_seed=42)
        assert [e.label for e in spec] == ["and", "or", "nor", "xor", "xnor"]
        assert [e.num_gates for e in spec] == [2, 3, 4, 4, 5]
        for entry in spec:
            assert entry.population_size == 10
            assert entry.mutation_rate == 0.10
            assert entry.runs == 10
            assert entry.base_seed == 42

    def test_protocol_defaults_are_gaconfigs(self):
        config = GaConfig(num_gates=1)
        for entry in default_experiment_spec():
            assert entry.population_size == config.population_size
            assert entry.mutation_rate == config.mutation_rate
            assert entry.max_generations == config.max_generations


class TestRunExperiment:
    def test_report_shape_and_determinism(self):
        spec = small_spec()
        report = run_experiment(spec)
        assert len(report) == 2
        for entry, er in zip(spec, report):
            assert er.entry == entry
            assert er.runs == tuple(
                run_evolution(GaConfig(num_gates=entry.num_gates, seed=seed), entry.target)
                for seed in (100, 101, 102, 103)
            )
        assert report == run_experiment(spec)

    def test_aggregates_recomputable_from_rows(self):
        report = run_experiment(small_spec(runs=8))
        for er in report:
            solved = [r.generations for r in er.runs if r.solved]
            assert er.solve_count == len(solved)
            assert er.exhausted_count == len(er.runs) - len(solved)
            assert er.mean == statistics.mean(solved)
            assert er.median == statistics.median(solved)
            assert er.stddev == statistics.stdev(solved)
            assert er.min == min(solved)
            assert er.max == max(solved)
            assert er.distinct_solution_count == len({canonical_key(r.genome) for r in er.runs if r.solved})

    def test_single_run_matches_run_evolution(self):
        entry = ExperimentEntry("xor", TruthTable.named("xor"), 4, runs=1, base_seed=7)
        er = run_entry(entry)
        outcome = run_evolution(GaConfig(num_gates=4, seed=7), TruthTable.named("xor"))
        assert er.runs == (outcome,)
        assert er.mean == er.median == outcome.generations
        assert er.stddev is None
        # Over several runs, run i is the whole outcome of config_for_run(i).
        entry = ExperimentEntry("xnor", TruthTable.named("xnor"), 5, runs=4, base_seed=11,
                                max_generations=50)
        assert run_entry(entry).runs == tuple(
            run_evolution(entry.config_for_run(i), entry.target) for i in range(entry.runs)
        )

    def test_entry_order_does_not_change_outcomes(self):
        spec = small_spec()
        flipped = tuple(reversed(spec))
        by_label = {er.entry.label: er for er in run_experiment(spec)}
        by_label_flipped = {er.entry.label: er for er in run_experiment(flipped)}
        assert by_label == by_label_flipped

    def test_exhausted_runs_recorded_not_raised(self):
        # max_generations 0 leaves only generation-0 luck
        entry = ExperimentEntry(
            "and", TruthTable.named("and"), 2, runs=12, base_seed=0, max_generations=0
        )
        er = run_entry(entry)
        assert er.exhausted_count >= 1
        assert er.solve_count + er.exhausted_count == 12
        assert er.solve_count >= 1
        assert er.mean == 0  # solved runs all solved at generation 0
        for outcome in er.runs:
            if not outcome.solved:
                assert outcome.genome is None and outcome.generations == 0

    def test_config_errors_name_the_entry(self):
        with pytest.raises(ValueError, match="^population_size: "):
            ExperimentEntry("and", TruthTable.named("and"), 2, population_size=1, runs=2)

    @pytest.mark.parametrize("label", [None, 5, b"and"])
    def test_label_must_be_a_string(self, label):
        with pytest.raises(ValueError, match=f"^label: expected a string, got {re.escape(repr(label))}$"):
            ExperimentEntry(label, TruthTable.named("and"), 2)

    def test_distinct_solutions_are_sound(self):
        er = run_entry(ExperimentEntry("or", TruthTable.named("or"), 3, runs=10, base_seed=42))
        keys = set()
        for outcome in er.runs:
            if outcome.solved:
                assert truth_table_of(outcome.genome) == TruthTable.named("or")
                keys.add(canonical_key(outcome.genome))
        assert er.distinct_solution_count == len(keys)


class TestEntryReport:
    """The report built directly from hand-made outcomes, without the GA."""

    # Two AND circuits with different live structure, at 2 and 3 gates.
    AND_2 = genome_from_ids(2, [0, 1, 2, 2])
    AND_3 = genome_from_ids(2, [0, 1, 0, 1, 2, 3])

    def report(self, *runs):
        entry = ExperimentEntry("and", TruthTable.named("and"), 3, runs=len(runs), max_generations=9)
        return EntryReport(entry, runs)

    def test_stores_only_entry_and_runs(self):
        assert [f.name for f in fields(EntryReport)] == ["entry", "runs"]

    def test_mixed_runs(self):
        er = self.report(RunOutcome(3, Individual(self.AND_2, 1.0)),
                         RunOutcome(9, Individual(self.AND_2, 0.75)),
                         RunOutcome(7, Individual(self.AND_3, 1.0)))
        assert (er.solve_count, er.exhausted_count) == (2, 1)
        assert er.mean == er.median == 5
        assert er.stddev == statistics.stdev([3, 7])
        assert (er.min, er.max) == (3, 7)
        assert er.distinct_solution_count == 2

    def test_all_exhausted(self):
        er = self.report(*[RunOutcome(9, Individual(self.AND_2, 0.5)) for _ in range(4)])
        assert (er.solve_count, er.exhausted_count) == (0, 4)
        assert (er.mean, er.median, er.stddev, er.min, er.max) == (None,) * 5
        assert er.distinct_solution_count == 0

    def test_one_solved_run_has_no_stddev(self):
        er = self.report(RunOutcome(4, Individual(self.AND_3, 1.0)))
        assert er.mean == er.median == er.min == er.max == 4
        assert er.stddev is None


class TestCsv:
    def test_row_counts_and_header(self):
        report = run_experiment(small_spec(runs=3))
        text = to_csv(report)
        rows = list(csv.reader(io.StringIO(text)))
        assert rows[0] == CSV_COLUMNS
        kinds = [row[0] for row in rows[1:]]
        assert kinds.count("run") == 6
        assert kinds.count("summary") == 2
        assert text.endswith("\n") and "\r" not in text

    def test_byte_identical_across_invocations(self):
        spec = small_spec()
        assert to_csv(run_experiment(spec)) == to_csv(run_experiment(spec))

    def test_default_experiment_row_counts(self):
        # five targets x ten runs -> 50 run rows plus 5 summary rows
        text = to_csv(run_experiment(default_experiment_spec(base_seed=42)))
        kinds = [row[0] for row in csv.reader(io.StringIO(text))][1:]
        assert kinds.count("run") == 50
        assert kinds.count("summary") == 5

    def test_empty_report_is_header_only(self):
        text = to_csv(run_experiment(()))
        assert text == ",".join(CSV_COLUMNS) + "\n"

    def test_run_and_summary_fields(self):
        report = run_experiment(small_spec(runs=5))
        rows = list(csv.DictReader(io.StringIO(to_csv(report))))
        run_rows = [r for r in rows if r["kind"] == "run" and r["target"] == "and"]
        summary = [r for r in rows if r["kind"] == "summary" and r["target"] == "and"][0]
        assert len(run_rows) == 5
        for i, row in enumerate(run_rows):
            assert row["run_index"] == str(i)
            assert row["seed"] == str(100 + i)
            assert row["solved"] in {"0", "1"}
            assert row["mean"] == row["stddev"] == row["solve_count"] == ""
            if row["solved"] == "1":
                assert row["distinct_key"] != ""
                bytes.fromhex(row["distinct_key"])  # valid hex
        # the summary mean is the arithmetic mean of the solved run rows
        solved_gens = [int(r["generations"]) for r in run_rows if r["solved"] == "1"]
        assert summary["mean"] == str(statistics.mean(solved_gens))
        assert summary["solve_count"] == str(len(solved_gens))
        assert summary["seed"] == "" and summary["distinct_key"] == ""
        assert summary["mutation_rate"] == "0.1"


class TestRendering:
    def test_svg_deterministic_with_bar_per_entry(self):
        report = run_experiment(small_spec())
        svg = to_svg(report)
        assert svg == to_svg(report)
        assert svg.count("<rect") == 2
        assert svg.startswith("<svg ") or svg.startswith("<svg\n")
        assert "and" in svg and "or" in svg

    def test_table_lists_each_entry(self):
        report = run_experiment(small_spec())
        table = to_table(report)
        lines = table.splitlines()
        assert lines[0].startswith("target")
        assert len(lines) == 4  # header, rule, two entries

    def test_svg_handles_empty_report(self):
        svg = to_svg(run_experiment(()))
        assert "<svg" in svg

    def test_svg_escapes_the_label(self):
        entry = ExperimentEntry("a<b&c", TruthTable.named("and"), 2, runs=2)
        root = ElementTree.fromstring(to_svg(run_experiment((entry,))))
        texts = [el.text for el in root.iter("{http://www.w3.org/2000/svg}text")]
        assert "a<b&c" in texts


class TestArgumentTypes:
    @pytest.mark.parametrize("call", [run_entry, lambda v: run_experiment([v])],
                             ids=["run_entry", "run_experiment"])
    def test_entry_must_be_an_experiment_entry(self, call):
        with pytest.raises(ValueError, match="^entry: expected an ExperimentEntry, got 5$"):
            call(5)

    def test_every_entry_checked_before_the_first_run(self, monkeypatch):
        calls = []
        monkeypatch.setattr(bench_mod, "run_evolution", lambda *args: calls.append(args))
        with pytest.raises(ValueError, match="^entry: "):
            run_experiment([small_spec()[0], 5])
        assert calls == []

    def test_entries_may_be_any_iterable(self):
        spec = small_spec(runs=2)
        assert run_experiment(iter(spec)) == run_experiment(spec)

    @pytest.mark.parametrize("render", [to_csv, to_table, to_svg])
    def test_reports_must_be_entry_reports(self, render):
        report = run_experiment(small_spec(runs=1))
        with pytest.raises(ValueError, match=r"^reports\[2\]: expected an EntryReport, got 5$"):
            render([*report, 5])

    @pytest.mark.parametrize("render", [to_csv, to_table, to_svg])
    def test_reports_may_be_any_iterable(self, render):
        report = run_experiment(small_spec(runs=2))
        assert render(iter(report)) == render(report)


class TestParseSpec:
    def test_round_trip_fields(self):
        text = """
        {"entries": [
          {"target": "xnor", "num_gates": 5, "population_size": 20,
           "mutation_rate": 0.1, "runs": 3, "base_seed": 9, "max_generations": 500}
        ]}
        """
        spec = parse_spec(text)
        entry = spec[0]
        assert entry.label == "xnor"
        assert entry.target == TruthTable.named("xnor")
        assert entry.num_gates == 5
        assert entry.population_size == 20
        assert entry.runs == 3
        assert entry.base_seed == 9
        assert entry.max_generations == 500

    def test_defaults_applied(self):
        spec = parse_spec('{"entries": [{"target": "tt:0110", "num_gates": 4}]}')
        entry = spec[0]
        assert entry.label == "tt:0110"
        assert entry.population_size == 10
        assert entry.mutation_rate == 0.10
        assert entry.runs == 10
        assert entry.base_seed == 0

    @pytest.mark.parametrize(
        "text,fragment",
        [
            ('{"entries": [{"target": "and"}]}', "entries[0].num_gates"),
            ('{"entries": [{"num_gates": 2}]}', "entries[0].target"),
            ('{"entries": [{"target": "and", "num_gates": 2, "runs": 0}]}', "entries[0].runs"),
            ('{"entries": [{"target": "and", "num_gates": 2, "mutation_rate": 2}]}', "mutation_rate"),
            ('{"entries": [{"target": "blub", "num_gates": 2}]}', "entries[0].target: unknown target name"),
            ('{"entries": [{"target": 5, "num_gates": 2}]}', "entries[0].target: unknown target name"),
            ('{"entries": 5}', "entries"),
            ("[]", "entries"),
            ("{nope", "line 1"),
            ('{"entries": [{"target": "and", "num_gates": 2, "base_seed": "x"}]}', "entries[0].base_seed"),
            ('{"entries": [{"target": "and", "num_gates": 2, "population_size": 1}]}',
             "entries[0].population_size"),
            ('{"entries": [{"target": "and", "num_gates": 2, "mutation_rate": true}]}', "mutation_rate"),
            ('{"entries": [{"target": "and", "num_gates": 2, "runs": 3, "base_seed": 18446744073709551614}]}',
             "entries[0].base_seed"),
            ('{"entries": [{"target": "and", "num_gates": 2, "popualtion_size": 50}]}',
             "entries[0].popualtion_size: unknown field"),
        ],
    )
    def test_field_level_diagnostics(self, text, fragment):
        with pytest.raises(FormatError, match=fragment.replace("[", r"\[").replace("]", r"\]")):
            parse_spec(text)

    def test_integer_rate_written_as_float(self):
        spec = parse_spec(
            '{"entries": [{"target": "and", "num_gates": 2, "mutation_rate": 1,'
            ' "runs": 1, "max_generations": 0}]}'
        )
        built = (ExperimentEntry("and", TruthTable.named("and"), 2, mutation_rate=1, runs=1, max_generations=0),)
        for s in (spec, built):
            rows = list(csv.DictReader(io.StringIO(to_csv(run_experiment(s)))))
            assert [row["mutation_rate"] for row in rows] == ["1.0", "1.0"]
