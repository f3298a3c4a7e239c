"""Command-line surface: evolve one circuit, run experiment batches, query
the exhaustive oracle, or inspect a saved netlist.

Exit codes: 0 success, 2 evolution exhausted, 3 enumeration budget exceeded,
64 usage, 65 malformed data, 66 unreadable file.
"""

from __future__ import annotations

import argparse
import json
import sys

from .bench import (
    DEFAULT_GATES,
    ExperimentEntry,
    default_experiment_spec,
    parse_spec,
    run_experiment,
    to_csv,
    to_svg,
    to_table,
    with_base_seed,
)
from .evolve import GaConfig, run_evolution
from .netlist import (
    CapacityError,
    FormatError,
    StructureError,
    TruthTable,
    export_dot,
    export_json,
    parse_json,
    truth_table_of,
)
from .oracle import DEFAULT_BUDGET, minimal_gates

EXIT_OK = 0
EXIT_EXHAUSTED = 2
EXIT_BUDGET = 3
EXIT_USAGE = 64
EXIT_DATA = 65
EXIT_NOFILE = 66


class _Parser(argparse.ArgumentParser):
    """argparse parser whose usage failures exit with code 64."""

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(EXIT_USAGE, f"{self.prog}: error: {message}\n")


class _UsageError(Exception):
    """Flag combination errors detected after parsing."""


def _write(path: str, text: str):
    with open(path, "w") as fh:
        fh.write(text)


# GA flags of evolve and bench, each setting the GaConfig (and ExperimentEntry)
# field of the same name: (flag, field, type, help text)
_GA_FLAGS = (
    ("--pop", "population_size", int, "population size"),
    ("--mutation", "mutation_rate", float, "mutation rate"),
    ("--max-gen", "max_generations", int, "generation cap"),
)
# bench flags that set one field of every --paper-defaults entry
_TUNING_FLAGS = (("--runs", "runs", int, "runs per target"), *_GA_FLAGS)


def _target_flag(parser):
    parser.add_argument(
        "--target",
        required=True,
        help="target function: and|or|nor|xor|xnor|nand, or tt:BITS with the "
        "row for assignment i at position i (input 0 = least significant bit "
        "of i; e.g. and is tt:0001)",
    )


def build_parser() -> _Parser:
    parser = _Parser(prog="nandevolve")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("evolve", help="evolve one circuit for a target")
    _target_flag(p)
    p.add_argument("--gates", type=int,
                   help="NAND gates per genome (default: a named target's minimal count)")
    for flag, field, kind, what in _GA_FLAGS:
        p.add_argument(flag, dest=field, type=kind, default=getattr(GaConfig, field),
                       help=f"{what} (default %(default)s)")
    p.add_argument("--seed", type=int, default=GaConfig.seed, help="RNG seed (default %(default)s)")
    p.add_argument("--trace", action="store_true",
                   help="emit per-generation CSV (generation,best_fitness,mean_fitness) on stderr")
    p.add_argument("--export-json", metavar="PATH", help="write the solution netlist JSON here instead of stdout")
    p.add_argument("--export-dot", metavar="PATH", help="write a Graphviz rendering of the solution")
    p.set_defaults(func=cmd_evolve)

    p = sub.add_parser("bench", help="run an experiment batch and emit CSV")
    src = p.add_mutually_exclusive_group(required=True)
    src.add_argument("--spec", metavar="PATH", help="JSON experiment spec file")
    src.add_argument("--paper-defaults", action="store_true",
                     help="the five standard targets at their minimal gate counts")
    p.add_argument("--seed", type=int, default=None,
                   help="base seed (run i uses base+i); overrides spec-file seeds")
    for flag, field, kind, what in _TUNING_FLAGS:
        p.add_argument(flag, dest=field, type=kind,
                       help=f"{what} with --paper-defaults (default {getattr(ExperimentEntry, field)})")
    p.add_argument("--out", metavar="PATH", help="write CSV here (default: stdout)")
    p.add_argument("--plot", metavar="PATH", help="write an SVG bar chart of mean generations")
    p.set_defaults(func=cmd_bench)

    p = sub.add_parser("oracle", help="find a target's minimal gate count by exhaustive search")
    _target_flag(p)
    p.add_argument("--max-gates", type=int, required=True, help="largest gate count to search")
    p.add_argument("--budget", type=int, default=DEFAULT_BUDGET,
                   help=f"max genomes to enumerate per gate count (default {DEFAULT_BUDGET})")
    p.set_defaults(func=cmd_oracle)

    p = sub.add_parser("show", help="print the truth table of a saved netlist")
    p.add_argument("--netlist", metavar="PATH", required=True, help="netlist JSON file")
    p.add_argument("--export-dot", metavar="PATH", help="write a Graphviz rendering")
    p.set_defaults(func=cmd_show)

    return parser


def cmd_evolve(args) -> int:
    label = args.target.lower()
    target = TruthTable.parse(label)
    gates = DEFAULT_GATES.get(label) if args.gates is None else args.gates
    if gates is None:
        raise _UsageError("--gates is required for a tt: target")
    ga_fields = {field: getattr(args, field) for _, field, _, _ in _GA_FLAGS}
    config = GaConfig(gates, seed=args.seed, **ga_fields)
    outcome = run_evolution(config, target, trace=args.trace)
    if args.trace:
        print("generation,best_fitness,mean_fitness", file=sys.stderr)
        for point in outcome.trace:
            print(f"{point.generation},{point.best_fitness},{point.mean_fitness}", file=sys.stderr)
    if not outcome.solved:
        print(
            f"exhausted at generation {outcome.generations}; "
            f"best fitness {outcome.best.fitness}"
        )
        return EXIT_EXHAUSTED
    print(f"solved at generation {outcome.generations}")
    text = export_json(outcome.genome)
    if args.export_json:
        _write(args.export_json, text + "\n")
    else:
        print(text)
    if args.export_dot:
        _write(args.export_dot, export_dot(outcome.genome))
    return EXIT_OK


def cmd_bench(args) -> int:
    given = [(flag, field) for flag, field, _, _ in _TUNING_FLAGS if getattr(args, field) is not None]
    if args.spec:
        if given:
            flags = ", ".join(flag for flag, _ in given)
            raise _UsageError(f"{flags}: only with --paper-defaults (a spec file sets these per entry)")
        with open(args.spec) as fh:
            entries = parse_spec(fh.read())
    else:
        entries = default_experiment_spec(**{field: getattr(args, field) for _, field in given})
    if args.seed is not None:
        entries = with_base_seed(entries, args.seed)
    for path in (args.out, args.plot):
        if path:
            open(path, "a").close()  # an unwritable path fails before any run
    reports = run_experiment(entries)
    csv_text = to_csv(reports)
    if args.out:
        _write(args.out, csv_text)
        print(to_table(reports), end="")
    else:
        print(csv_text, end="")
    if args.plot:
        _write(args.plot, to_svg(reports))
    return EXIT_OK


def cmd_oracle(args) -> int:
    target = TruthTable.parse(args.target)
    result = minimal_gates(target, args.max_gates, args.budget)
    doc = {
        "target": target.rows,
        "minimal_gates": result.minimal_gates,
        "witness": json.loads(export_json(result.witness)) if result.witness else None,
        "raw_count": result.raw_count,
        "canonical_count": result.canonical_count,
    }
    print(json.dumps(doc, indent=2))
    return EXIT_OK


def cmd_show(args) -> int:
    with open(args.netlist) as fh:
        genome = parse_json(fh.read())
    print(truth_table_of(genome).rows)
    if args.export_dot:
        _write(args.export_dot, export_dot(genome))
    return EXIT_OK


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except _UsageError as exc:
        print(f"{parser.prog}: error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except CapacityError as exc:
        print(f"{parser.prog}: budget error: {exc}", file=sys.stderr)
        return EXIT_BUDGET
    except (FormatError, StructureError, ValueError) as exc:
        print(f"{parser.prog}: data error: {exc}", file=sys.stderr)
        return EXIT_DATA
    except OSError as exc:
        print(f"{parser.prog}: cannot access file: {exc}", file=sys.stderr)
        return EXIT_NOFILE


if __name__ == "__main__":
    sys.exit(main())
