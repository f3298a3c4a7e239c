"""Object-level reference circuit walks: the implementations
`nandevolve.netlist` used before its walk and its dead-gate prune moved to
allele-id lists (`ids_tables`, `prune_ids`).

Each function here walks `InputSource` objects gate by gate. The
differential tests in test_netlist.py and the oracle cross-checks in
test_oracle.py require the id-level code to agree with them exactly.
The functions below are kept as they were; do not optimise them.
"""

from __future__ import annotations

from nandevolve.netlist import EXTERNAL, GATE, ArityError, InputSource, NandGenome


def evaluate(genome: NandGenome, assignment) -> int:
    """Output bit of the circuit for one input assignment."""
    if len(assignment) != genome.num_inputs:
        raise ArityError(
            f"assignment has {len(assignment)} bits, genome expects {genome.num_inputs}"
        )
    bits = [1 if v else 0 for v in assignment]
    values: list[int] = []
    for a, b in genome.gates:
        va = bits[a.index] if a.kind == EXTERNAL else values[a.index]
        vb = bits[b.index] if b.kind == EXTERNAL else values[b.index]
        values.append(1 - (va & vb))
    return values[-1]


def prune_dead_gates(genome: NandGenome) -> NandGenome:
    """Drop gates unreachable backward from the output gate, reindexed densely.

    The realized truth table is unchanged.
    """
    live: set[int] = set()
    stack = [genome.num_gates - 1]
    while stack:
        i = stack.pop()
        if i in live:
            continue
        live.add(i)
        for src in genome.gates[i]:
            if src.kind == GATE:
                stack.append(src.index)
    order = sorted(live)
    remap = {old: new for new, old in enumerate(order)}
    gates = tuple(
        tuple(src if src.kind == EXTERNAL else InputSource.gate(remap[src.index]) for src in genome.gates[old])
        for old in order
    )
    return NandGenome(genome.num_inputs, gates)


def canonical_key(genome: NandGenome) -> bytes:
    """Deterministic byte serialization of the dead-gate-pruned structure.

    Equal keys <=> identical pruned netlists. Distinct keys say nothing
    about functional equivalence.
    """
    pruned = prune_dead_gates(genome)
    parts = [str(pruned.num_inputs)]
    for a, b in pruned.gates:
        parts.append(f"{a!r}.{b!r}")
    return "|".join(parts).encode("ascii")
