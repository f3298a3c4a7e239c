"""Exhaustive ground truth over the feed-forward genome space.

Covers every valid genome at a given gate count (lexicographic gene order,
externals before gate outputs) to find minimal realizations of a target,
count its solutions, and independently verify GA results.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import Iterator

from .netlist import (
    _INPUTS_LIMIT,
    CapacityError,
    NandGenome,
    TruthTable,
    _show,
    gene_sizes,
    genome_from_ids,
    ids_tables,
    input_masks,
    require_int,
    require_type,
)

DEFAULT_BUDGET = 100_000_000


def genome_count(num_inputs: int, num_gates: int) -> int:
    """Closed-form size of the genome space: prod_i (n+i)^2."""
    return math.prod(gene_sizes(num_inputs, num_gates))


def _check_budget(num_inputs: int, num_gates: int, budget: int):
    """Refuse (CapacityError) at the first gate count up to num_gates whose
    space exceeds the budget, before any larger space is multiplied out."""
    require_int("num_inputs", num_inputs, 1, _INPUTS_LIMIT)
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


def _solve_level(target: TruthTable, num_gates: int) -> tuple[tuple[int, ...] | None, int, int]:
    """(allele ids of the first solution in enumeration order or None, raw
    count, all-live count) of the genomes with exactly num_gates gates
    realizing target. A solution is all-live when every inner gate id
    n .. n+num_gates-2 occurs among its ids: each inner gate then feeds a
    later gate, so every gate is reachable backward from the output.

    Each prefix (the first num_gates-1 gates, in enumerate_genomes' order)
    is walked once. The output gate NAND(u, v) is the target exactly when
    u & v == zeros, the target's zero rows, so only tables covering zeros
    are paired."""
    n = target.num_inputs
    full = (1 << (1 << n)) - 1
    zeros = full ^ target.mask
    inputs = input_masks(n)
    inner = frozenset(range(n, n + num_gates - 1))
    first = None
    raw = live = 0
    for prefix in itertools.product(*map(range, gene_sizes(n, num_gates - 1))):
        tables = ids_tables(prefix, inputs, full)
        cover = [k for k, t in enumerate(tables) if t & zeros == zeros]
        for a in cover:
            ta = tables[a]
            for b in cover:
                if ta & tables[b] == zeros:
                    ids = (*prefix, a, b)
                    if first is None:
                        first = ids
                    raw += 1
                    live += inner.issubset(ids)
    return first, raw, live


def count_solutions(target: TruthTable, num_gates: int,
                    budget: int = DEFAULT_BUDGET) -> SolutionCount:
    """Count genomes with exactly num_gates gates realizing the target.

    Every solution prunes to an all-live solution of at most num_gates
    gates, and every such one is the pruned form of a solution (dead gates
    put in front of it), so canonical is the all-live counts summed over
    gate counts 1..num_gates.
    """
    require_type("target", target, TruthTable)
    _check_budget(target.num_inputs, num_gates, budget)
    raw = canonical = 0
    for gates in range(1, num_gates + 1):
        _, raw, live = _solve_level(target, gates)
        canonical += live
    return SolutionCount(raw=raw, canonical=canonical)


def minimal_gates(target: TruthTable, max_gates: int,
                  budget: int = DEFAULT_BUDGET) -> MinimalityResult:
    """Search gate counts 1..max_gates for the smallest realization.

    The whole search must fit the budget (checked up front, so results
    never depend on how far a cheap target happened to get). Smaller gate
    counts hold no solutions and a minimal solution has no dead gate, so
    the canonical count (see count_solutions) equals the raw count.
    """
    require_type("target", target, TruthTable)
    require_int("max_gates", max_gates, 1)
    _check_budget(target.num_inputs, max_gates, budget)
    for gates in range(1, max_gates + 1):
        first, raw, live = _solve_level(target, gates)
        if first is not None:
            return MinimalityResult(gates, genome_from_ids(target.num_inputs, first), raw, live)
    return MinimalityResult(None, None, 0, 0)
