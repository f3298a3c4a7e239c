"""Exact ground truth over the feed-forward genome space.

Answers what a scan of every valid genome at a gate count would (in
lexicographic gene order, externals before gate outputs): minimal
realizations of a target, its solution counts, checks of GA results. It
walks no genomes: one forward pass over multisets of truth tables gives
the counts and, from the first prefix of each multiset, the witness.
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
    """Smallest realization of a target up to max_gates.

    witness is the first solution in enumeration order at the smallest gate
    count that has one, and minimal_gates is its gate count; raw_count /
    canonical_count tally all solutions at that count. With no solution,
    witness and minimal_gates are None and both counts are 0.
    """

    witness: NandGenome | None
    raw_count: int
    canonical_count: int

    @property
    def minimal_gates(self) -> int | None:
        return None if self.witness is None else self.witness.num_gates


def _levels(target: TruthTable, num_gates: int) -> Iterator[tuple[int, tuple[int, ...] | None]]:
    """Yield (raw count, first solution's tables or None) for every gate
    count 1..num_gates, in one forward pass over multisets of truth tables
    instead of genomes.

    How many ways the remaining genes can finish a prefix depends only on
    the multiset of tables it has computed (inputs, then gates). Level k
    maps each such multiset, a sorted tuple with repeats, to the number of
    k-gate prefixes that compute it and the tables of the first of them in
    enumerate_genomes' order. A gate is wired from an ordered pair of
    positions, so tables u and v are paired in mult(u)·mult(v) ways; the
    pairs whose NAND is the target give the raw count of the next gate
    count, and no level past the last is built. At the last level only
    those pairs are counted: NAND(u, v) is the target exactly when
    u & v == zeros, the target's zero rows, so only tables that cover
    zeros are paired.

    Pairs are taken over the first prefix's tables in gene order, and a
    multiset keeps the tables of its first visit. Any later prefix with the
    same multiset is beaten by the first one and a pair making the same
    table, so by induction the states are visited in the order of their
    first prefixes, and the first state that reaches the target holds the
    first solution."""
    full = (1 << (1 << target.num_inputs)) - 1
    mask = target.mask
    zeros = full & ~mask
    inputs = input_masks(target.num_inputs)
    states = {tuple(sorted(inputs)): [1, inputs]}
    for gates in range(1, num_gates + 1):
        raw = 0
        first = None
        grown = {}
        for state, (ways, tables) in states.items():
            if gates == num_gates:
                cover = [u for u in tables if u & zeros == zeros]
                hits = sum(u & v == zeros for u in cover for v in cover)
            else:
                outs = {}
                for u in tables:
                    for v in tables:
                        t = ~(u & v) & full
                        outs[t] = outs.get(t, 0) + 1
                hits = outs.get(mask, 0)
                for t, pairs in outs.items():
                    key = tuple(sorted((*state, t)))
                    if key in grown:
                        grown[key][0] += ways * pairs
                    else:
                        grown[key] = [ways * pairs, (*tables, t)]
            if hits:
                raw += ways * hits
                first = first or (*tables, mask)
        yield raw, first
        states = grown


def count_solutions(target: TruthTable, num_gates: int,
                    budget: int = DEFAULT_BUDGET) -> SolutionCount:
    """Count genomes with exactly num_gates gates realizing the target.

    Every solution prunes to an all-live solution of at most num_gates
    gates, and every such one is the pruned form of a solution (dead gates
    put in front of it), so canonical is the all-live counts L(j) summed
    over gate counts 1..num_gates. A k-gate solution is an all-live j-gate
    one with k-j dead gates among the first k-1 positions, and a dead gate
    at position i has (n+i)^2 wirings, so raw(k) = Σ_j L(j)·e[k-j], with
    e[d] the elementary symmetric polynomial of degree d in (n+i)^2 for
    i < k-1. Each L(k) follows from raw(k) and the smaller L(j).
    """
    require_type("target", target, TruthTable)
    _check_budget(target.num_inputs, num_gates, budget)
    e = [1]
    live = []
    for gates, (raw, _) in enumerate(_levels(target, num_gates), 1):
        live.append(raw - sum(count * e[gates - j] for j, count in enumerate(live, 1)))
        square = (target.num_inputs + gates - 1) ** 2
        e = [low + square * high for low, high in zip(e + [0], [0] + e)]
    return SolutionCount(raw=raw, canonical=sum(live))


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
    for raw, first in _levels(target, max_gates):
        if raw:
            break
    else:
        return MinimalityResult(None, 0, 0)
    # Each gate's ids are the first pair making its table: a smaller one
    # would give an earlier genome with the same tables.
    n = target.num_inputs
    full = (1 << (1 << n)) - 1
    ids = []
    for i in range(n, len(first)):
        ids += next(pair for pair in itertools.product(range(i), repeat=2)
                    if ~(first[pair[0]] & first[pair[1]]) & full == first[i])
    return MinimalityResult(genome_from_ids(n, ids), raw, raw)
