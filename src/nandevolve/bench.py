"""Experiment harness: batches of seeded evolution runs with aggregated
generation statistics, distinct-solution tallies, and CSV/SVG/text output.

Per-run seeds derive additively from each entry's base seed (base + run
index), so outcomes are independent of entry order and execution order,
and repeated invocations produce byte-identical files.
"""

from __future__ import annotations

import csv
import io
import statistics
from dataclasses import dataclass, fields, replace

from .evolve import SEED_LIMIT, GaConfig, run_evolution
from .netlist import (FormatError, NandGenome, TruthTable, _load_json, canonical_key, require_int,
                      require_table)

# Minimal NAND-gate counts per two-input target, used by the default
# experiment (and / or / nor / xor / xnor at 2/3/4/4/5 gates).
DEFAULT_GATES = {"and": 2, "or": 3, "nor": 4, "xor": 4, "xnor": 5, "nand": 1}

DEFAULT_TARGET_ORDER = ("and", "or", "nor", "xor", "xnor")

CSV_COLUMNS = [
    "kind", "target", "num_gates", "population_size", "mutation_rate",
    "seed", "run_index", "solved", "generations", "distinct_key",
    "mean", "median", "stddev", "min", "max", "solve_count", "exhausted_count",
]


@dataclass(frozen=True)
class ExperimentEntry:
    """One batch: `runs` seeded evolutions of the same target and config.

    Every field the batch needs is checked when the entry is built: `target`
    (a TruthTable), `runs`, the run seeds base_seed .. base_seed + runs - 1
    (all below SEED_LIMIT), and the GA fields through run 0's GaConfig, whose
    float rate is kept.
    Each ValueError starts with the field name.
    """

    label: str
    target: TruthTable
    num_gates: int
    population_size: int = GaConfig.population_size
    mutation_rate: float = GaConfig.mutation_rate
    runs: int = 10
    base_seed: int = 0
    max_generations: int = GaConfig.max_generations

    def __post_init__(self):
        require_table(self.target)
        require_int("runs", self.runs, 1)
        require_int("base_seed", self.base_seed, 0, SEED_LIMIT - self.runs + 1)
        object.__setattr__(self, "mutation_rate", self.config_for_run(0).mutation_rate)

    def config_for_run(self, run_index: int) -> GaConfig:
        return GaConfig(
            num_gates=self.num_gates,
            population_size=self.population_size,
            mutation_rate=self.mutation_rate,
            max_generations=self.max_generations,
            seed=self.base_seed + run_index,
        )


# The keys of a spec-file entry: every ExperimentEntry field but the label,
# which is the target text.
_SPEC_FIELDS = tuple(f.name for f in fields(ExperimentEntry) if f.name != "label")


@dataclass(frozen=True)
class RunRecord:
    run_index: int
    seed: int
    solved: bool
    generations: int
    genome: NandGenome | None
    key: bytes | None


@dataclass(frozen=True)
class EntryReport:
    """All run rows of one entry plus aggregates over the solved runs."""

    entry: ExperimentEntry
    runs: tuple[RunRecord, ...]
    solve_count: int
    exhausted_count: int
    mean: float | None
    median: float | None
    stddev: float | None
    min: int | None
    max: int | None
    distinct_solution_count: int


def default_experiment_spec(**fields) -> tuple[ExperimentEntry, ...]:
    """The default five-target experiment: each two-input function at its
    minimal gate count. `fields` (population_size, mutation_rate, runs,
    base_seed, max_generations) go to every ExperimentEntry unchanged."""
    return tuple(
        ExperimentEntry(label=name, target=TruthTable.named(name),
                        num_gates=DEFAULT_GATES[name], **fields)
        for name in DEFAULT_TARGET_ORDER
    )


def run_entry(entry: ExperimentEntry) -> EntryReport:
    records = []
    for i in range(entry.runs):
        config = entry.config_for_run(i)
        outcome = run_evolution(config, entry.target)
        records.append(
            RunRecord(
                run_index=i,
                seed=config.seed,
                solved=outcome.solved,
                generations=outcome.generations,
                genome=outcome.genome,
                key=canonical_key(outcome.genome) if outcome.solved else None,
            )
        )
    solved_gens = [r.generations for r in records if r.solved]
    keys = {r.key for r in records if r.key is not None}
    return EntryReport(
        entry=entry,
        runs=tuple(records),
        solve_count=len(solved_gens),
        exhausted_count=len(records) - len(solved_gens),
        mean=statistics.mean(solved_gens) if solved_gens else None,
        median=statistics.median(solved_gens) if solved_gens else None,
        stddev=statistics.stdev(solved_gens) if len(solved_gens) >= 2 else None,
        min=min(solved_gens) if solved_gens else None,
        max=max(solved_gens) if solved_gens else None,
        distinct_solution_count=len(keys),
    )


def run_experiment(entries: tuple[ExperimentEntry, ...]) -> tuple[EntryReport, ...]:
    """Execute every entry; deterministic for given entries."""
    return tuple(run_entry(entry) for entry in entries)


def _num(value) -> str:
    return "" if value is None else str(value)


def to_csv(reports: tuple[EntryReport, ...]) -> str:
    """One row per run plus one summary row per entry; header mandatory.

    Summary-only columns are empty on run rows and vice versa; lines end
    with a single newline.
    """
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(CSV_COLUMNS)
    for er in reports:
        e = er.entry
        shared = [e.label, str(e.num_gates), str(e.population_size), str(e.mutation_rate)]
        for r in er.runs:
            writer.writerow(
                ["run", *shared, str(r.seed), str(r.run_index),
                 "1" if r.solved else "0", str(r.generations),
                 r.key.hex() if r.key is not None else "",
                 "", "", "", "", "", "", ""]
            )
        writer.writerow(
            ["summary", *shared, "", "", "", "", "",
             _num(er.mean), _num(er.median), _num(er.stddev),
             _num(er.min), _num(er.max), str(er.solve_count), str(er.exhausted_count)]
        )
    return buf.getvalue()


def to_table(reports: tuple[EntryReport, ...]) -> str:
    """Plain aligned summary table, one line per entry."""
    header = (
        f"{'target':<10} {'gates':>5} {'pop':>4} {'runs':>4} {'solved':>6} "
        f"{'mean':>9} {'median':>9} {'stddev':>9} {'min':>6} {'max':>6} {'distinct':>8}"
    )
    lines = [header, "-" * len(header)]
    for er in reports:
        e = er.entry

        def f(v, width=9):
            return f"{v:>{width}.1f}" if v is not None else " " * (width - 1) + "-"

        lines.append(
            f"{e.label:<10} {e.num_gates:>5} {e.population_size:>4} {e.runs:>4} "
            f"{er.solve_count:>6} {f(er.mean)} {f(er.median)} {f(er.stddev)} "
            f"{_num(er.min) or '-':>6} {_num(er.max) or '-':>6} {er.distinct_solution_count:>8}"
        )
    return "\n".join(lines) + "\n"


def to_svg(reports: tuple[EntryReport, ...]) -> str:
    """Bar chart of mean generations per entry with stddev whiskers.

    Hand-rolled SVG so output bytes depend only on the reports.
    """
    bar_w, gap, left, bottom, height = 60, 30, 60, 40, 260
    plot_h = height - bottom - 20
    width = left + len(reports) * (bar_w + gap) + gap
    peak = max(
        ((er.mean or 0.0) + (er.stddev or 0.0) for er in reports), default=0.0
    )
    scale = (plot_h / peak) if peak > 0 else 0.0
    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" height="{height}" '
        f'viewBox="0 0 {width} {height}">',
        f'<line x1="{left}" y1="20" x2="{left}" y2="{height - bottom}" stroke="black"/>',
        f'<line x1="{left}" y1="{height - bottom}" x2="{width - gap}" y2="{height - bottom}" stroke="black"/>',
        f'<text x="12" y="16" font-size="11">mean generations</text>',
    ]
    for i, er in enumerate(reports):
        x = left + gap + i * (bar_w + gap)
        mean = er.mean or 0.0
        h = mean * scale
        y = height - bottom - h
        parts.append(
            f'<rect x="{x}" y="{y:.2f}" width="{bar_w}" height="{h:.2f}" '
            f'fill="steelblue" stroke="black"/>'
        )
        if er.stddev is not None:
            cx = x + bar_w / 2
            y1 = height - bottom - (mean + er.stddev) * scale
            y0 = height - bottom - max(mean - er.stddev, 0.0) * scale
            parts.append(
                f'<line x1="{cx:.2f}" y1="{y1:.2f}" x2="{cx:.2f}" y2="{y0:.2f}" stroke="black"/>'
            )
        parts.append(
            f'<text x="{x + bar_w / 2:.2f}" y="{height - bottom + 16}" '
            f'font-size="11" text-anchor="middle">{er.entry.label}</text>'
        )
        parts.append(
            f'<text x="{x + bar_w / 2:.2f}" y="{y - 4:.2f}" '
            f'font-size="10" text-anchor="middle">{mean:.1f}</text>'
        )
    parts.append("</svg>")
    return "\n".join(parts) + "\n"


def _entry_from_doc(doc, where: str) -> ExperimentEntry:
    if not isinstance(doc, dict):
        raise FormatError(f"{where}: expected an object")
    for key in doc:
        if key not in _SPEC_FIELDS:
            raise FormatError(f"{where}.{key}: unknown field (expected one of {', '.join(_SPEC_FIELDS)})")
    for field in ("target", "num_gates"):
        if field not in doc:
            raise FormatError(f"{where}.{field}: required")
    try:
        target = TruthTable.parse(doc["target"])
    except FormatError as exc:
        raise FormatError(f"{where}.target: {exc}") from None
    label = doc["target"].lower()
    values = {key: value for key, value in doc.items() if key != "target"}
    try:
        return ExperimentEntry(label=label, target=target, **values)
    except ValueError as exc:
        raise FormatError(f"{where}.{exc}") from None


def parse_spec(text: str) -> tuple[ExperimentEntry, ...]:
    """Parse the JSON experiment-spec file:

        {"entries": [{"target": "and" | "tt:BITS", "num_gates": G,
                      "population_size": P, "mutation_rate": R,
                      "runs": N, "base_seed": S, "max_generations": M}, ...]}

    num_gates is required per entry; the rest default to ExperimentEntry's
    defaults, the standard protocol.
    """
    doc = _load_json(text)
    if not isinstance(doc, dict) or "entries" not in doc:
        raise FormatError("top level: expected an object with an 'entries' array")
    if not isinstance(doc["entries"], list):
        raise FormatError("entries: expected an array")
    return tuple(
        _entry_from_doc(entry, f"entries[{i}]") for i, entry in enumerate(doc["entries"])
    )


def with_base_seed(entries: tuple[ExperimentEntry, ...], base_seed: int) -> tuple[ExperimentEntry, ...]:
    """The same entries with every base_seed replaced."""
    return tuple(replace(e, base_seed=base_seed) for e in entries)
