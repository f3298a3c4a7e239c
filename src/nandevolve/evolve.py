"""Genetic algorithm over NAND genomes.

Each generation, members with zero fitness are culled and the survivors
get equal breeding opportunity; children inherit each gene from one parent
(45%), the other parent (45%), or a fresh uniform mutation (10%), and the
new children wholly replace the old population. The run ends when some
member realizes the target exactly.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

from .netlist import ArityError, InputSource, NandGenome, TruthTable, fitness, sources

# Seeds are unsigned 64-bit integers.
SEED_LIMIT = 2**64


def require_int(name: str, value, minimum: int, limit: int | None = None) -> None:
    """Raise ValueError naming the field unless value is an int (not a bool)
    in [minimum, limit)."""
    if (not isinstance(value, int) or isinstance(value, bool) or value < minimum
            or (limit is not None and value >= limit)):
        bounds = f">= {minimum}" if limit is None else f"in [{minimum}, {limit})"
        raise ValueError(f"{name}: expected an integer {bounds}, got {value!r}")


def require_rate(name: str, value) -> float:
    """Return value as a float if it is a number (not a bool) in [0, 1];
    otherwise raise ValueError naming the field."""
    if not isinstance(value, (int, float)) or isinstance(value, bool) or not 0.0 <= value <= 1.0:
        raise ValueError(f"{name}: expected a number in [0, 1], got {value!r}")
    return float(value)


@dataclass(frozen=True)
class GaConfig:
    """All knobs of one evolution run. Defaults: population 10, mutation
    0.10, so each gene has a 45% chance of coming from either parent."""

    num_gates: int
    num_inputs: int = 2
    population_size: int = 10
    mutation_rate: float = 0.10
    max_generations: int = 100_000
    seed: int = 0

    def __post_init__(self):
        require_int("num_gates", self.num_gates, 1)
        require_int("num_inputs", self.num_inputs, 1)
        require_int("population_size", self.population_size, 2)
        object.__setattr__(self, "mutation_rate", require_rate("mutation_rate", self.mutation_rate))
        require_int("max_generations", self.max_generations, 0)
        require_int("seed", self.seed, 0, SEED_LIMIT)

    @property
    def crossover_split(self) -> float:
        """Per-parent inheritance probability; 2*split + mutation_rate == 1."""
        return (1.0 - self.mutation_rate) / 2.0


@dataclass(frozen=True)
class Individual:
    genome: NandGenome
    fitness: float


@dataclass(frozen=True)
class GenPoint:
    """One trace row: population fitness summary at a generation."""

    generation: int
    best_fitness: float
    mean_fitness: float


@dataclass(frozen=True)
class RunOutcome:
    """Result of one evolution run.

    When solved, `generations` is the generation at which a perfect member
    first existed (the initial population is generation 0) and `genome` is
    that member. When exhausted, `generations` is the last generation
    examined (== max_generations) and `genome` is None; `best` always holds
    the best individual seen (ties: earliest generation, lowest index).
    """

    solved: bool
    generations: int
    genome: NandGenome | None
    best: Individual
    trace: tuple[GenPoint, ...] | None = None


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
        _evaluated(random_genome(rng, config.num_inputs, config.num_gates), target)
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


def run_evolution(config: GaConfig, target: TruthTable, trace: bool = False) -> RunOutcome:
    """Evolve until some member has fitness 1 or max_generations is reached.

    The initial random population is generation 0 and is checked before any
    breeding, so a lucky initialization reports generation 0. All randomness
    comes from one stream seeded with config.seed; identical inputs give a
    bit-identical outcome, trace included.
    """
    if target.num_inputs != config.num_inputs:
        raise ArityError(
            f"target has {target.num_inputs} inputs, config expects {config.num_inputs}"
        )
    rng = random.Random(config.seed)
    population = _fresh_population(rng, target, config)
    points: list[GenPoint] | None = [] if trace else None
    best: Individual | None = None
    generation = 0
    while True:
        if points is not None:
            fits = [ind.fitness for ind in population]
            points.append(GenPoint(generation, max(fits), sum(fits) / len(fits)))
        for ind in population:
            if ind.fitness == 1.0:
                return RunOutcome(
                    solved=True,
                    generations=generation,
                    genome=ind.genome,
                    best=ind,
                    trace=tuple(points) if points is not None else None,
                )
            if best is None or ind.fitness > best.fitness:
                best = ind
        if generation == config.max_generations:
            return RunOutcome(
                solved=False,
                generations=generation,
                genome=None,
                best=best,
                trace=tuple(points) if points is not None else None,
            )
        population = step_generation(population, target, rng, config)
        generation += 1
