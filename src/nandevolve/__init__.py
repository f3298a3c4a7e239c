"""Evolve feed-forward NAND circuits that realize arbitrary single-output
truth tables, with an exhaustive enumeration oracle and experiment harness."""

from .netlist import (
    ArityError,
    CapacityError,
    CircuitError,
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
    parse_json,
    prune_dead_gates,
    truth_table_of,
)
from .evolve import GaConfig, Individual, RunOutcome, breed, random_genome, run_evolution
from .oracle import MinimalityResult, SolutionCount, count_solutions, enumerate_genomes, minimal_gates
from .bench import ExperimentEntry, default_experiment_spec, run_experiment

__all__ = [
    "ArityError",
    "CapacityError",
    "CircuitError",
    "FormatError",
    "InputSource",
    "NandGenome",
    "StructureError",
    "TruthTable",
    "canonical_key",
    "evaluate",
    "export_dot",
    "export_json",
    "fitness",
    "parse_json",
    "prune_dead_gates",
    "truth_table_of",
    "GaConfig",
    "Individual",
    "RunOutcome",
    "breed",
    "random_genome",
    "run_evolution",
    "MinimalityResult",
    "SolutionCount",
    "count_solutions",
    "enumerate_genomes",
    "minimal_gates",
    "ExperimentEntry",
    "default_experiment_spec",
    "run_experiment",
]
