import csv
import io
import json
from pathlib import Path

import pytest

from nandevolve import bench
from nandevolve.cli import main
from nandevolve.netlist import export_json, parse_json, truth_table_of

from conftest import g, genome, x

# exact stdout of `oracle`, exact stdout and stderr of `evolve --trace`, and
# the exact CSV, SVG and table of `bench --paper-defaults`: a change to the
# oracle scan, the GA loop or the bench writers must keep these bytes
GOLDEN = Path(__file__).with_name("golden")


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def netlist_from_stdout(out):
    # stdout carries a status line followed by the netlist JSON
    first, _, rest = out.partition("\n")
    assert first.startswith("solved at generation ")
    return parse_json(rest)


class TestEvolve:
    def test_and_two_gates(self, capsys):
        code, out, _ = run_cli(capsys, "evolve", "--target", "and", "--gates", "2",
                               "--pop", "10", "--seed", "1")
        assert code == 0
        circuit = netlist_from_stdout(out)
        assert truth_table_of(circuit).rows == "0001"

    def test_xor_truth_table_literal(self, capsys):
        code, out, _ = run_cli(capsys, "evolve", "--target", "tt:0110", "--gates", "4",
                               "--pop", "10", "--seed", "7")
        assert code == 0
        assert truth_table_of(netlist_from_stdout(out)).rows == "0110"

    def test_paper_defaults_pick_gate_count(self, capsys):
        code, out, _ = run_cli(capsys, "evolve", "--target", "xor", "--seed", "3")
        assert code == 0
        circuit = netlist_from_stdout(out)
        assert circuit.num_gates == 4

    @pytest.mark.parametrize("name", [*sorted(bench.DEFAULT_GATES), "XNOR"])
    def test_named_target_defaults_to_its_minimal_gates(self, capsys, name):
        given = run_cli(capsys, "evolve", "--target", name, "--seed", "5")
        explicit = run_cli(capsys, "evolve", "--target", name, "--seed", "5",
                           "--gates", str(bench.DEFAULT_GATES[name.lower()]))
        assert given == explicit and given[0] == 0

    def test_exhausted_exit_code(self, capsys):
        # seed 1 has no generation-0 AND solution
        code, out, _ = run_cli(capsys, "evolve", "--target", "and", "--gates", "2",
                               "--max-gen", "0", "--seed", "1")
        assert code == 2
        assert "best fitness" in out

    def test_deterministic_stdout(self, capsys):
        args = ("evolve", "--target", "xnor", "--gates", "5", "--seed", "11")
        _, first, _ = run_cli(capsys, *args)
        _, second, _ = run_cli(capsys, *args)
        assert first == second

    def test_export_files(self, capsys, tmp_path):
        json_path = tmp_path / "circuit.json"
        dot_path = tmp_path / "circuit.dot"
        code, out, _ = run_cli(capsys, "evolve", "--target", "and", "--gates", "2", "--seed", "1",
                               "--export-json", str(json_path), "--export-dot", str(dot_path))
        assert code == 0
        assert "{" not in out  # netlist went to the file, not stdout
        circuit = parse_json(json_path.read_text())
        assert truth_table_of(circuit).rows == "0001"
        assert "digraph" in dot_path.read_text()

    def test_trace_on_stderr(self, capsys):
        code, out, err = run_cli(capsys, "evolve", "--target", "and", "--gates", "2",
                                 "--seed", "1", "--trace")
        assert code == 0
        lines = err.splitlines()
        assert lines[0] == "generation,best_fitness,mean_fitness"
        assert len(lines) >= 2
        assert lines[1].startswith("0,")

    @pytest.mark.parametrize("argv,exit_code,golden", [
        (("--target", "xor", "--seed", "7"), 0, "evolve-xor-seed7"),
        (("--target", "tt:00010111", "--gates", "6", "--seed", "2", "--max-gen", "40"), 2,
         "evolve-tt00010111-6-seed2"),
    ])
    def test_trace_matches_golden_bytes(self, capsys, argv, exit_code, golden):
        code, out, err = run_cli(capsys, "evolve", *argv, "--trace")
        assert code == exit_code
        assert out == (GOLDEN / f"{golden}.stdout").read_text()
        assert err == (GOLDEN / f"{golden}.stderr").read_text()

    def test_missing_gates_is_usage_error(self, capsys):
        code, _, err = run_cli(capsys, "evolve", "--target", "tt:0110")
        assert code == 64
        assert "--gates" in err

    def test_bad_target_is_data_error(self, capsys):
        code, _, err = run_cli(capsys, "evolve", "--target", "zzz", "--gates", "2")
        assert code == 65
        assert "zzz" in err
        code, _, _ = run_cli(capsys, "evolve", "--target", "tt:011", "--gates", "2")
        assert code == 65

    def test_unknown_flag_exits_64(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["evolve", "--bogus"])
        assert exc.value.code == 64

    def test_bad_config_value_is_data_error(self, capsys):
        code, _, _ = run_cli(capsys, "evolve", "--target", "and", "--gates", "2", "--pop", "1")
        assert code == 65


class TestBench:
    def test_paper_defaults_csv(self, capsys, tmp_path):
        out_path = tmp_path / "runs.csv"
        code, out, _ = run_cli(capsys, "bench", "--paper-defaults", "--seed", "42",
                               "--runs", "2", "--out", str(out_path))
        assert code == 0
        assert out.startswith("target")  # summary table on stdout
        rows = list(csv.reader(io.StringIO(out_path.read_text())))
        kinds = [row[0] for row in rows[1:]]
        assert kinds.count("run") == 10  # 5 targets x 2 runs
        assert kinds.count("summary") == 5

    def test_same_command_same_bytes(self, capsys, tmp_path):
        a, b, c = tmp_path / "a.csv", tmp_path / "b.csv", tmp_path / "c.csv"
        run_cli(capsys, "bench", "--paper-defaults", "--seed", "42", "--runs", "2", "--out", str(a))
        run_cli(capsys, "bench", "--paper-defaults", "--seed", "42", "--runs", "2", "--out", str(b))
        # the tuning flags spelled out at their defaults change nothing
        run_cli(capsys, "bench", "--paper-defaults", "--seed", "42", "--runs", "2", "--pop", "10",
                "--mutation", "0.1", "--max-gen", "100000", "--out", str(c))
        assert a.read_bytes() == b.read_bytes() == c.read_bytes()

    @pytest.mark.parametrize("argv,golden", [
        (("--runs", "5", "--seed", "42"), "bench-paper-runs5-seed42"),
        # four of the five entries have no solved run: empty aggregate cells
        (("--runs", "2", "--seed", "3", "--max-gen", "0"), "bench-paper-runs2-seed3-gen0"),
    ])
    def test_paper_defaults_match_golden_bytes(self, capsys, tmp_path, argv, golden):
        csv_path, svg_path = tmp_path / "runs.csv", tmp_path / "chart.svg"
        code, out, _ = run_cli(capsys, "bench", "--paper-defaults", *argv,
                               "--out", str(csv_path), "--plot", str(svg_path))
        assert code == 0
        assert out == (GOLDEN / f"{golden}.table").read_text()
        assert csv_path.read_bytes() == (GOLDEN / f"{golden}.csv").read_bytes()
        assert svg_path.read_bytes() == (GOLDEN / f"{golden}.svg").read_bytes()

    def test_csv_to_stdout_and_plot(self, capsys, tmp_path):
        plot = tmp_path / "chart.svg"
        spec = tmp_path / "spec.json"
        spec.write_text(json.dumps({"entries": [
            {"target": "and", "num_gates": 2, "runs": 3, "base_seed": 5}
        ]}))
        code, out, _ = run_cli(capsys, "bench", "--spec", str(spec), "--plot", str(plot))
        assert code == 0
        rows = list(csv.reader(io.StringIO(out)))
        assert len(rows) == 1 + 3 + 1  # header, runs, summary
        assert plot.read_text().startswith("<svg")

    def test_spec_runs_count(self, capsys, tmp_path):
        spec = tmp_path / "spec.json"
        spec.write_text(json.dumps({"entries": [
            {"target": "or", "num_gates": 3, "runs": 30, "base_seed": 1, "max_generations": 5000}
        ]}))
        code, out, _ = run_cli(capsys, "bench", "--spec", str(spec))
        rows = [row for row in csv.reader(io.StringIO(out)) if row and row[0] == "run"]
        assert code == 0 and len(rows) == 30

    def test_seed_flag_overrides_spec_file(self, capsys, tmp_path):
        spec = tmp_path / "spec.json"
        spec.write_text(json.dumps({"entries": [
            {"target": "and", "num_gates": 2, "runs": 2, "base_seed": 1}
        ]}))
        _, out, _ = run_cli(capsys, "bench", "--spec", str(spec), "--seed", "500")
        rows = list(csv.DictReader(io.StringIO(out)))
        assert [r["seed"] for r in rows if r["kind"] == "run"] == ["500", "501"]

    @pytest.mark.parametrize("flag, value", [("--runs", "5"), ("--pop", "50"), ("--mutation", "0.2"),
                                             ("--max-gen", "7")])
    def test_tuning_flag_with_spec_is_usage_error(self, capsys, monkeypatch, tmp_path, flag, value):
        calls = []
        monkeypatch.setattr(bench, "run_evolution", lambda *args: calls.append(args))
        spec = tmp_path / "spec.json"
        spec.write_text(json.dumps({"entries": [{"target": "and", "num_gates": 2, "runs": 2}]}))
        code, out, err = run_cli(capsys, "bench", "--spec", str(spec), flag, value)
        assert code == 64 and flag in err and "--paper-defaults" in err
        assert out == "" and calls == []

    def test_unknown_spec_field_is_data_error(self, capsys, tmp_path):
        spec = tmp_path / "spec.json"
        spec.write_text(json.dumps({"entries": [{"target": "and", "num_gates": 2, "popualtion_size": 50}]}))
        code, out, err = run_cli(capsys, "bench", "--spec", str(spec))
        assert code == 65 and "entries[0].popualtion_size: unknown field" in err
        assert out == ""

    def test_bad_last_seed_fails_before_any_run(self, capsys, monkeypatch):
        calls = []
        monkeypatch.setattr(bench, "run_evolution", lambda *args: calls.append(args))
        code, _, err = run_cli(capsys, "bench", "--paper-defaults", "--runs", "3",
                               "--seed", "18446744073709551614")
        assert code == 65 and "base_seed" in err
        assert calls == []

    @pytest.mark.parametrize("flag", ["--out", "--plot"])
    def test_unwritable_output_fails_before_any_run(self, capsys, monkeypatch, tmp_path, flag):
        calls = []
        monkeypatch.setattr(bench, "run_evolution", lambda *args: calls.append(args))
        code, _, err = run_cli(capsys, "bench", "--paper-defaults", "--runs", "30",
                               flag, str(tmp_path / "missing" / "x"))
        assert code == 66 and "cannot access file" in err
        assert calls == []

    def test_malformed_spec_is_data_error(self, capsys, tmp_path):
        spec = tmp_path / "spec.json"
        spec.write_text('{"entries": [{"target": "and"}]}')
        code, _, err = run_cli(capsys, "bench", "--spec", str(spec))
        assert code == 65
        assert "entries[0].num_gates" in err

    def test_spec_target_over_the_arity_cap_is_budget_error(self, capsys, tmp_path):
        spec = tmp_path / "spec.json"
        spec.write_text(json.dumps({"entries": [{"target": "tt:" + "0" * (1 << 17), "num_gates": 2}]}))
        code, _, err = run_cli(capsys, "bench", "--spec", str(spec))
        assert code == 3 and "17" in err

    def test_missing_spec_file(self, capsys, tmp_path):
        code, _, _ = run_cli(capsys, "bench", "--spec", str(tmp_path / "nope.json"))
        assert code == 66

    def test_spec_and_paper_defaults_conflict(self, capsys, tmp_path):
        with pytest.raises(SystemExit) as exc:
            main(["bench", "--spec", "x.json", "--paper-defaults"])
        assert exc.value.code == 64


class TestOracle:
    def test_and_minimal_two_gates(self, capsys):
        code, out, _ = run_cli(capsys, "oracle", "--target", "and", "--max-gates", "3")
        assert code == 0
        doc = json.loads(out)
        assert doc["target"] == "0001"
        assert doc["minimal_gates"] == 2
        assert doc["raw_count"] == 2 and doc["canonical_count"] == 2
        witness = parse_json(json.dumps(doc["witness"]))
        assert truth_table_of(witness).rows == "0001"

    def test_xnor_minimal_five_gates(self, capsys):
        code, out, _ = run_cli(capsys, "oracle", "--target", "xnor", "--max-gates", "6")
        assert code == 0
        doc = json.loads(out)
        assert doc["minimal_gates"] == 5
        assert truth_table_of(parse_json(json.dumps(doc["witness"]))).rows == "1001"

    def test_three_input_parity_none_within_two_gates(self, capsys):
        code, out, _ = run_cli(capsys, "oracle", "--target", "tt:01101001", "--max-gates", "2")
        assert code == 0
        doc = json.loads(out)
        assert doc["minimal_gates"] is None
        assert doc["witness"] is None

    @pytest.mark.parametrize("target,max_gates,golden", [
        ("xnor", "6", "oracle-xnor-6.json"),
        ("tt:01101001", "3", "oracle-tt01101001-3.json"),
        ("tt:00010000", "5", "oracle-tt00010000-5.json"),
    ])
    def test_stdout_matches_golden_bytes(self, capsys, target, max_gates, golden):
        code, out, _ = run_cli(capsys, "oracle", "--target", target, "--max-gates", max_gates)
        assert code == 0
        assert out == (GOLDEN / golden).read_text()

    # the first 3-input minima past 5 gates: majority and or3 need 6
    @pytest.mark.parametrize("target", ["tt:00010111", "tt:01111111"])
    def test_six_gate_minimum_matches_golden_bytes(self, capsys, target):
        code, out, _ = run_cli(capsys, "oracle", "--target", target, "--max-gates", "6",
                               "--budget", "1000000000")
        assert code == 0
        assert out == (GOLDEN / f"oracle-{target.replace(':', '')}-6.json").read_text()

    def test_budget_exit_code(self, capsys):
        code, _, err = run_cli(capsys, "oracle", "--target", "and", "--max-gates", "9")
        assert code == 3
        assert "budget" in err

    def test_bad_max_gates_is_data_error(self, capsys):
        code, _, err = run_cli(capsys, "oracle", "--target", "and", "--max-gates", "0")
        assert code == 65 and "max_gates" in err

    def test_bad_budget_is_data_error(self, capsys):
        code, _, err = run_cli(capsys, "oracle", "--target", "and", "--max-gates", "2", "--budget", "0")
        assert code == 65 and "budget: " in err


class TestShow:
    def test_prints_truth_table(self, capsys, tmp_path):
        path = tmp_path / "and.json"
        path.write_text(export_json(genome(2, (x(0), x(1)), (g(0), g(0)))))
        code, out, _ = run_cli(capsys, "show", "--netlist", str(path))
        assert code == 0
        assert out == "0001\n"

    def test_dot_export(self, capsys, tmp_path):
        path = tmp_path / "nand.json"
        path.write_text(export_json(genome(2, (x(0), x(1)))))
        dot = tmp_path / "nand.dot"
        code, _, _ = run_cli(capsys, "show", "--netlist", str(path), "--export-dot", str(dot))
        assert code == 0
        assert "x0 -> g0;" in dot.read_text()

    def test_unreadable_file(self, capsys, tmp_path):
        code, _, _ = run_cli(capsys, "show", "--netlist", str(tmp_path / "missing.json"))
        assert code == 66

    def test_invalid_netlist_is_data_error(self, capsys, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text('{"inputs": 2, "gates": [[{"type": "gate", "index": 2}, {"type": "external", "index": 0}]]}')
        code, _, err = run_cli(capsys, "show", "--netlist", str(path))
        assert code == 65
        assert "gates[0][0]" in err
