"""Object-based reference GA: the implementation `nandevolve.evolve` used
before its generation loop moved to flat allele-id lists.

Every child here is a validated `NandGenome` scored through `fitness`. The
differential tests in test_evolve.py require the allele-id core to agree
with it exactly: same outcomes, same per-generation rows, same RNG state
afterwards.
The functions below are kept as they were; do not optimise them.
"""

from __future__ import annotations

import random

from nandevolve.evolve import GaConfig, Individual, RunOutcome
from nandevolve.netlist import ArityError, InputSource, NandGenome, TruthTable, fitness


def sources(num_inputs: int, count: int) -> tuple[InputSource, ...]:
    """Allele table: the sources of allele ids 0..count-1, external input k
    for k < num_inputs, otherwise gate k - num_inputs."""
    return tuple(InputSource.external(k) if k < num_inputs else InputSource.gate(k - num_inputs)
                 for k in range(count))


def random_source(rng: random.Random, num_inputs: int, gate_index: int) -> InputSource:
    """Uniform draw from a gate input's allele space: num_inputs externals
    plus the gate_index earlier gates."""
    count = num_inputs + gate_index
    return sources(num_inputs, count)[rng.randrange(count)]


def random_genome(rng: random.Random, num_inputs: int, num_gates: int) -> NandGenome:
    """Genome with every gene drawn uniformly and independently."""
    gates = tuple(
        (random_source(rng, num_inputs, i), random_source(rng, num_inputs, i))
        for i in range(num_gates)
    )
    return NandGenome(num_inputs, gates)


def breed(parent_a: NandGenome, parent_b: NandGenome, rng: random.Random,
          mutation_rate: float = GaConfig.mutation_rate) -> NandGenome:
    """Child genome: per gene, parent_a's allele with probability
    (1-mutation_rate)/2, parent_b's with the same, otherwise a fresh uniform
    draw from that position's full allele space."""
    if parent_a.num_inputs != parent_b.num_inputs or parent_a.num_gates != parent_b.num_gates:
        raise ArityError("parents must agree on num_inputs and num_gates")
    n = parent_a.num_inputs
    split = (1.0 - mutation_rate) / 2.0
    gates = []
    for i, (pair_a, pair_b) in enumerate(zip(parent_a.gates, parent_b.gates)):
        child_pair = []
        for gene_a, gene_b in zip(pair_a, pair_b):
            u = rng.random()
            if u < split:
                child_pair.append(gene_a)
            elif u < 2.0 * split:
                child_pair.append(gene_b)
            else:
                child_pair.append(random_source(rng, n, i))
        gates.append(tuple(child_pair))
    return NandGenome(n, tuple(gates))


def _evaluated(genome: NandGenome, target: TruthTable) -> Individual:
    return Individual(genome, fitness(genome, target))


def _fresh_population(rng: random.Random, target: TruthTable, config: GaConfig) -> list[Individual]:
    return [
        _evaluated(random_genome(rng, target.num_inputs, config.num_gates), target)
        for _ in range(config.population_size)
    ]


def step_generation(population: list[Individual], target: TruthTable,
                    rng: random.Random, config: GaConfig) -> list[Individual]:
    """One generational replacement.

    Members with fitness 0 are culled from the breeding pool; each child's
    two parents are independent uniform draws (with replacement) from the
    pool. If the whole population has zero fitness the population is
    reinitialized randomly instead. Output size always equals the input size.
    """
    pool = [ind for ind in population if ind.fitness > 0.0]
    if not pool:
        return _fresh_population(rng, target, config)
    children = []
    for _ in range(config.population_size):
        parent_a = pool[rng.randrange(len(pool))]
        parent_b = pool[rng.randrange(len(pool))]
        child = breed(parent_a.genome, parent_b.genome, rng, config.mutation_rate)
        children.append(_evaluated(child, target))
    return children


def run_evolution(config: GaConfig, target: TruthTable, on_generation=None) -> RunOutcome:
    """Evolve until some member has fitness 1 or max_generations is reached.

    The initial random population is generation 0 and is checked before any
    breeding, so a lucky initialization reports generation 0. If given,
    on_generation(generation, best_fitness, mean_fitness) is called once per
    scored generation. All randomness comes from one stream seeded with
    config.seed; identical inputs give a bit-identical outcome and calls.
    """
    rng = random.Random(config.seed)
    population = _fresh_population(rng, target, config)
    best: Individual | None = None
    generation = 0
    while True:
        if on_generation is not None:
            fits = [ind.fitness for ind in population]
            on_generation(generation, max(fits), sum(fits) / len(fits))
        for ind in population:
            if ind.fitness == 1.0:
                return RunOutcome(generations=generation, best=ind)
            if best is None or ind.fitness > best.fitness:
                best = ind
        if generation == config.max_generations:
            return RunOutcome(generations=generation, best=best)
        population = step_generation(population, target, rng, config)
        generation += 1
