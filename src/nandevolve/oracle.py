"""Exhaustive ground truth over the feed-forward genome space.

Walks every valid genome at a given gate count (lexicographic gene order,
externals before gate outputs) to find minimal realizations of a target,
count its solutions, and independently verify GA results.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import Iterator

from .netlist import (
    CapacityError,
    NandGenome,
    TruthTable,
    _show,
    gene_sizes,
    genome_from_ids,
    input_masks,
    prune_ids,
    require_int,
    require_table,
)

DEFAULT_BUDGET = 100_000_000


def genome_count(num_inputs: int, num_gates: int) -> int:
    """Closed-form size of the genome space: prod_i (n+i)^2."""
    return math.prod(gene_sizes(num_inputs, num_gates))


def _check_budget(num_inputs: int, num_gates: int, budget: int):
    """Refuse (CapacityError) at the first gate count up to num_gates whose
    space exceeds the budget, before any larger space is multiplied out."""
    require_int("num_inputs", num_inputs, 1)
    require_int("num_gates", num_gates, 1)
    require_int("budget", budget, 1)
    for gates in range(1, num_gates + 1):
        count = genome_count(num_inputs, gates)
        if count > budget:
            raise CapacityError(
                f"{_show(count)} genomes at {gates} gates exceeds the budget of {_show(budget)}"
            )


def enumerate_genomes(num_inputs: int, num_gates: int,
                      budget: int = DEFAULT_BUDGET) -> Iterator[NandGenome]:
    """Stream every valid genome exactly once, in lexicographic gene order.

    Refuses at call time (CapacityError) when the space exceeds the budget;
    never truncates silently.
    """
    _check_budget(num_inputs, num_gates, budget)
    return (genome_from_ids(num_inputs, ids)
            for ids in itertools.product(*map(range, gene_sizes(num_inputs, num_gates))))


def _scan_solutions(num_inputs: int, num_gates: int, target_mask: int) -> Iterator[tuple[int, ...]]:
    """Allele-id tuples (lex order) of genomes whose output table equals
    target_mask. Tables are tracked incrementally as int bitmasks, so only
    the matching leaves are materialized."""
    full = (1 << (1 << num_inputs)) - 1
    tables = list(input_masks(num_inputs))
    genes = [0] * (2 * num_gates)

    def rec(i: int) -> Iterator[tuple[int, ...]]:
        size = num_inputs + i
        if i == num_gates - 1:
            for a in range(size):
                ta = tables[a]
                for b in range(size):
                    if ~(ta & tables[b]) & full == target_mask:
                        genes[2 * i] = a
                        genes[2 * i + 1] = b
                        yield tuple(genes)
        else:
            for a in range(size):
                ta = tables[a]
                for b in range(size):
                    genes[2 * i] = a
                    genes[2 * i + 1] = b
                    tables.append(~(ta & tables[b]) & full)
                    yield from rec(i + 1)
                    tables.pop()

    return rec(0)


@dataclass(frozen=True)
class SolutionCount:
    """Solutions at an exact gate count: raw genomes, and structurally
    distinct ones after dead-gate pruning."""

    raw: int
    canonical: int


@dataclass(frozen=True)
class MinimalityResult:
    """Smallest gate count realizing a target, or None up to max_gates.

    witness is the first solution in enumeration order at that count;
    raw_count / canonical_count tally all solutions at that count.
    """

    minimal_gates: int | None
    witness: NandGenome | None
    raw_count: int
    canonical_count: int


def _solve_level(target: TruthTable, num_gates: int) -> tuple[NandGenome | None, int, int]:
    """(first solution in enumeration order or None, raw count, canonical
    count) of the genomes with exactly num_gates gates realizing target.
    At a fixed arity, equal pruned id lists mean equal canonical_key bytes,
    so only the witness is built as a NandGenome."""
    n = target.num_inputs
    witness = None
    raw = 0
    keys = set()
    for ids in _scan_solutions(n, num_gates, target.mask):
        if witness is None:
            witness = genome_from_ids(n, ids)
        raw += 1
        keys.add(tuple(prune_ids(n, ids)))
    return witness, raw, len(keys)


def count_solutions(target: TruthTable, num_gates: int,
                    budget: int = DEFAULT_BUDGET) -> SolutionCount:
    """Count genomes with exactly num_gates gates realizing the target."""
    require_table(target)
    _check_budget(target.num_inputs, num_gates, budget)
    _, raw, canonical = _solve_level(target, num_gates)
    return SolutionCount(raw=raw, canonical=canonical)


def minimal_gates(target: TruthTable, max_gates: int,
                  budget: int = DEFAULT_BUDGET) -> MinimalityResult:
    """Search gate counts 1..max_gates for the smallest realization.

    The whole search must fit the budget (checked up front, so results
    never depend on how far a cheap target happened to get).
    """
    require_table(target)
    require_int("max_gates", max_gates, 1)
    _check_budget(target.num_inputs, max_gates, budget)
    for gates in range(1, max_gates + 1):
        witness, raw, canonical = _solve_level(target, gates)
        if witness is not None:
            return MinimalityResult(gates, witness, raw, canonical)
    return MinimalityResult(None, None, 0, 0)
