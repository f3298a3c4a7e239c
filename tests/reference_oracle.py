"""Reference oracles: the searches `nandevolve.oracle` used before one
forward pass over multisets of truth tables gave every count and witness.

`_solve_level` walks every prefix genome of one gate count with the one
gate walk and pairs the tables that cover the target's zero rows.
`_witness` is the depth-first witness search with a dead-state memo that
ran beside the forward pass until the pass kept each multiset's first
prefix. The differential tests in test_oracle.py require the table-level
oracle to agree with them on every count and witness. Kept as they were;
do not optimise them.
"""

from __future__ import annotations

import itertools

from nandevolve.netlist import TruthTable, gene_sizes, genome_from_ids, ids_tables, input_masks
from nandevolve.oracle import MinimalityResult, SolutionCount


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


def _witness(target: TruthTable, num_gates: int) -> tuple[int, ...] | None:
    """Allele ids of the first genome with exactly num_gates gates realizing
    target, in enumerate_genomes' order, or None.

    Depth-first over the genes in that order, with an explicit stack of
    wiring iterators. Whether a prefix can be finished depends only on the
    set of tables it has computed and the gates left, so a prefix with no
    finish is remembered as (gates left, frozenset(tables)) and every
    later prefix with the same key is skipped."""
    n = target.num_inputs
    full = (1 << (1 << n)) - 1
    tables = list(input_masks(n))
    ids = []
    dead = set()
    stack = [itertools.product(range(n), repeat=2)]
    while stack:
        left = num_gates - len(ids) // 2
        for a, b in stack[-1]:
            t = ~(tables[a] & tables[b]) & full
            if left == 1:
                if t == target.mask:
                    return (*ids, a, b)
            elif (left - 1, frozenset((*tables, t))) not in dead:
                tables.append(t)
                ids += (a, b)
                stack.append(itertools.product(range(len(tables)), repeat=2))
                break
        else:
            dead.add((left, frozenset(tables)))
            stack.pop()
            tables.pop()
            del ids[-2:]
    return None


def count_solutions(target: TruthTable, num_gates: int) -> SolutionCount:
    """Raw count at num_gates and all-live counts summed over 1..num_gates."""
    raw = canonical = 0
    for gates in range(1, num_gates + 1):
        _, raw, live = _solve_level(target, gates)
        canonical += live
    return SolutionCount(raw=raw, canonical=canonical)


def minimal_gates(target: TruthTable, max_gates: int) -> MinimalityResult:
    """First gate count 1..max_gates with a solution, its first solution in
    enumeration order, and its counts."""
    for gates in range(1, max_gates + 1):
        first, raw, live = _solve_level(target, gates)
        if first is not None:
            return MinimalityResult(gates, genome_from_ids(target.num_inputs, first), raw, live)
    return MinimalityResult(None, None, 0, 0)
