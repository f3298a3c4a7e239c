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
from dataclasses import dataclass, fields

from .evolve import SEED_LIMIT, GaConfig, RunOutcome, run_evolution
from .netlist import (_PRESETS, FormatError, TruthTable, _load_json, _show, canonical_key,
                      require_int, require_type)

# Each named target's minimal NAND-gate count, read from netlist._PRESETS.
DEFAULT_GATES = {name: gates for name, (_, gates) in _PRESETS.items()}

DEFAULT_TARGET_ORDER = ("and", "or", "nor", "xor", "xnor")

CSV_COLUMNS = [
    "kind", "target", "num_gates", "population_size", "mutation_rate",
    "seed", "run_index", "solved", "generations", "distinct_key",
    "mean", "median", "stddev", "min", "max", "solve_count", "exhausted_count",
]


@dataclass(frozen=True)
class ExperimentEntry:
    """One batch: `runs` seeded evolutions of the same target and config.

    Every field the batch needs is checked when the entry is built: `label`
    (a str), `target` (a TruthTable), `runs`, the run seeds base_seed ..
    base_seed + runs - 1 (all below SEED_LIMIT), and the GA fields through
    run 0's GaConfig, whose float rate is kept.
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
        if not isinstance(self.label, str):
            raise ValueError(f"label: expected a string, got {_show(self.label)}")
        require_type("target", self.target, TruthTable)
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
class EntryReport:
    """One batch's result: stores only `entry` and `runs`, run i being
    run_evolution(entry.config_for_run(i), entry.target).

    The aggregates are properties read from the runs. `solve_count` and
    `exhausted_count` count solved and exhausted runs; `mean`, `median`,
    `stddev`, `min` and `max` cover the solved runs' generations and are
    None when no run solved (`stddev` also when only one did);
    `distinct_solution_count` counts the solved genomes' canonical keys.
    Each is recomputed on every read.
    """

    entry: ExperimentEntry
    runs: tuple[RunOutcome, ...]

    def _over_solved(self, stat, least: int = 1):
        """stat of the solved runs' generations, or None below `least` of them."""
        generations = [r.generations for r in self.runs if r.solved]
        return stat(generations) if len(generations) >= least else None

    @property
    def solve_count(self) -> int:
        return self._over_solved(len, 0)

    @property
    def exhausted_count(self) -> int:
        return len(self.runs) - self.solve_count

    @property
    def mean(self) -> float | None:
        return self._over_solved(statistics.mean)

    @property
    def median(self) -> float | None:
        return self._over_solved(statistics.median)

    @property
    def stddev(self) -> float | None:
        return self._over_solved(statistics.stdev, 2)

    @property
    def min(self) -> int | None:
        return self._over_solved(min)

    @property
    def max(self) -> int | None:
        return self._over_solved(max)

    @property
    def distinct_solution_count(self) -> int:
        return len({canonical_key(r.genome) for r in self.runs if r.solved})


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
    """The report of one batch: run i is run_evolution(entry.config_for_run(i),
    entry.target), called through this module's name `run_evolution`, which
    perfbench patches to time each run."""
    require_type("entry", entry, ExperimentEntry)
    return EntryReport(entry, tuple(run_evolution(entry.config_for_run(i), entry.target)
                                    for i in range(entry.runs)))


def run_experiment(entries: tuple[ExperimentEntry, ...]) -> tuple[EntryReport, ...]:
    """Execute every entry; deterministic for given entries. Every entry is
    checked before the first run."""
    entries = tuple(entries)
    for entry in entries:
        require_type("entry", entry, ExperimentEntry)
    return tuple(run_entry(entry) for entry in entries)


def _require_reports(reports) -> tuple[EntryReport, ...]:
    """reports as a tuple, each checked to be an EntryReport."""
    reports = tuple(reports)
    for i, er in enumerate(reports):
        require_type(f"reports[{i}]", er, EntryReport)
    return reports


# The summary-only CSV columns, each the EntryReport property of that name.
_SUMMARY_COLUMNS = [c for c in CSV_COLUMNS if isinstance(getattr(EntryReport, c, None), property)]


def to_csv(reports: tuple[EntryReport, ...]) -> str:
    """One row per run plus one summary row per entry; header mandatory.

    Rows are written by column name; a column a row does not set, or a
    None, is an empty cell. Lines end with a single newline.
    """
    reports = _require_reports(reports)
    buf = io.StringIO()
    writer = csv.DictWriter(buf, CSV_COLUMNS, lineterminator="\n")
    writer.writeheader()
    for er in reports:
        e = er.entry
        shared = {"target": e.label, "num_gates": e.num_gates,
                  "population_size": e.population_size, "mutation_rate": e.mutation_rate}
        for i, r in enumerate(er.runs):
            writer.writerow({"kind": "run", **shared, "seed": e.config_for_run(i).seed, "run_index": i,
                             "solved": int(r.solved), "generations": r.generations,
                             "distinct_key": canonical_key(r.genome).hex() if r.solved else None})
        writer.writerow({"kind": "summary", **shared,
                         **{column: getattr(er, column) for column in _SUMMARY_COLUMNS}})
    return buf.getvalue()


def to_table(reports: tuple[EntryReport, ...]) -> str:
    """Plain aligned summary table, one line per entry."""
    reports = _require_reports(reports)
    header = (
        f"{'target':<10} {'gates':>5} {'pop':>4} {'runs':>4} {'solved':>6} "
        f"{'mean':>9} {'median':>9} {'stddev':>9} {'min':>6} {'max':>6} {'distinct':>8}"
    )
    lines = [header, "-" * len(header)]
    for er in reports:
        e = er.entry

        def f(v, width=9, spec=".1f"):
            return f"{'-' if v is None else format(v, spec):>{width}}"

        lines.append(
            f"{e.label:<10} {e.num_gates:>5} {e.population_size:>4} {e.runs:>4} "
            f"{er.solve_count:>6} {f(er.mean)} {f(er.median)} {f(er.stddev)} "
            f"{f(er.min, 6, '')} {f(er.max, 6, '')} {er.distinct_solution_count:>8}"
        )
    return "\n".join(lines) + "\n"


def _escape(text: str) -> str:
    """xml.sax.saxutils.escape without its import (urllib, about 40 ms)."""
    return text.replace("&", "&amp;").replace("<", "&lt;").replace(">", "&gt;")


def to_svg(reports: tuple[EntryReport, ...]) -> str:
    """Bar chart of mean generations per entry with stddev whiskers.

    Hand-rolled SVG so output bytes depend only on the reports.
    """
    reports = _require_reports(reports)
    bar_w, gap, left, bottom, height = 60, 30, 60, 40, 260
    plot_h = height - bottom - 20
    width = left + len(reports) * (bar_w + gap) + gap
    # Each aggregate is a property recomputed per read, so read it once.
    bars = [(er.entry.label, er.mean or 0.0, er.stddev) for er in reports]
    peak = max((mean + (stddev or 0.0) for _, mean, stddev in bars), default=0.0)
    scale = (plot_h / peak) if peak > 0 else 0.0
    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" height="{height}" '
        f'viewBox="0 0 {width} {height}">',
        f'<line x1="{left}" y1="20" x2="{left}" y2="{height - bottom}" stroke="black"/>',
        f'<line x1="{left}" y1="{height - bottom}" x2="{width - gap}" y2="{height - bottom}" stroke="black"/>',
        f'<text x="12" y="16" font-size="11">mean generations</text>',
    ]
    for i, (label, mean, stddev) in enumerate(bars):
        x = left + gap + i * (bar_w + gap)
        h = mean * scale
        y = height - bottom - h
        parts.append(
            f'<rect x="{x}" y="{y:.2f}" width="{bar_w}" height="{h:.2f}" '
            f'fill="steelblue" stroke="black"/>'
        )
        if stddev is not None:
            cx = x + bar_w / 2
            y1 = height - bottom - (mean + stddev) * scale
            y0 = height - bottom - max(mean - stddev, 0.0) * scale
            parts.append(
                f'<line x1="{cx:.2f}" y1="{y1:.2f}" x2="{cx:.2f}" y2="{y0:.2f}" stroke="black"/>'
            )
        parts.append(
            f'<text x="{x + bar_w / 2:.2f}" y="{height - bottom + 16}" '
            f'font-size="11" text-anchor="middle">{_escape(label)}</text>'
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
