"""Genetic algorithm over NAND genomes.

Each generation, members with zero fitness are culled and the survivors
get equal breeding opportunity; children inherit each gene from one parent
(45%), the other parent (45%), or a fresh uniform mutation (10%), and the
new children wholly replace the old population. The run ends when some
member realizes the target exactly.
"""

from __future__ import annotations

import random
from collections.abc import Callable
from dataclasses import dataclass

from .netlist import (_INPUTS_LIMIT, ArityError, NandGenome, TruthTable, _show, gene_sizes,
                      genome_from_ids, genome_ids, require_int, require_rate, require_type, scorer)

# Seeds are unsigned 64-bit integers.
SEED_LIMIT = 2**64


@dataclass(frozen=True)
class GaConfig:
    """All knobs of one evolution run; the number of circuit inputs is the
    target's. Defaults: population 10, mutation 0.10, so each gene has a
    45% chance of coming from either parent."""

    num_gates: int
    population_size: int = 10
    mutation_rate: float = 0.10
    max_generations: int = 100_000
    seed: int = 0

    def __post_init__(self):
        require_int("num_gates", self.num_gates, 1)
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
    """A genome with its fitness; each is checked when the member is built."""

    genome: NandGenome
    fitness: float

    def __post_init__(self):
        require_type("genome", self.genome, NandGenome)
        require_rate("fitness", self.fitness)


@dataclass(frozen=True)
class RunOutcome:
    """Result of one evolution run: `best` is the best individual seen
    (ties: earliest generation, lowest index), and the run is solved when
    its fitness is 1.

    When solved, `generations` is the generation at which a perfect member
    first existed (the initial population is generation 0) and `genome` is
    that member. When exhausted, `generations` is the last generation
    examined (== max_generations) and `genome` is None.
    """

    generations: int
    best: Individual

    @property
    def solved(self) -> bool:
        return self.best.fitness == 1.0

    @property
    def genome(self) -> NandGenome | None:
        return self.best.genome if self.solved else None


def _random_ids(rng: random.Random, sizes: tuple[int, ...]) -> list[int]:
    """Fresh genome as allele ids: one uniform randrange per gene."""
    randrange = rng.randrange
    return [randrange(size) for size in sizes]


def _breed_ids(ids_a: list[int], ids_b: list[int], rng: random.Random,
               sizes: tuple[int, ...], split: float) -> list[int]:
    """Child allele ids: per gene one random() u; ids_a's allele if
    u < split, ids_b's if u < 2*split, otherwise a fresh randrange."""
    random_, randrange = rng.random, rng.randrange
    both = 2.0 * split
    return [
        a if (u := random_()) < split else b if u < both else randrange(size)
        for a, b, size in zip(ids_a, ids_b, sizes)
    ]


def _next_generation(population: list[list[int]], fits: list[float], rng: random.Random,
                     sizes: tuple[int, ...], split: float, size: int) -> list[list[int]]:
    """Children of one generational replacement: members with fitness 0
    are culled from the breeding pool, and each of the `size` children has
    two parents drawn uniformly, with replacement, from the pool. If the
    whole population has fitness 0, `size` random members are drawn
    instead."""
    pool = [ids for ids, fit in zip(population, fits) if fit > 0.0]
    if not pool:
        return [_random_ids(rng, sizes) for _ in range(size)]
    randrange, k = rng.randrange, len(pool)
    return [_breed_ids(pool[randrange(k)], pool[randrange(k)], rng, sizes, split) for _ in range(size)]


def random_genome(rng: random.Random, num_inputs: int, num_gates: int) -> NandGenome:
    """Genome with every gene drawn uniformly and independently."""
    require_type("rng", rng, random.Random)
    require_int("num_inputs", num_inputs, 1, _INPUTS_LIMIT)
    require_int("num_gates", num_gates, 1)
    return genome_from_ids(num_inputs, _random_ids(rng, gene_sizes(num_inputs, num_gates)))


def breed(parent_a: NandGenome, parent_b: NandGenome, rng: random.Random,
          mutation_rate: float = GaConfig.mutation_rate) -> NandGenome:
    """Child genome: per gene, parent_a's allele with probability
    (1-mutation_rate)/2, parent_b's with the same, otherwise a fresh uniform
    draw from that position's full allele space."""
    require_type("parent_a", parent_a, NandGenome)
    require_type("parent_b", parent_b, NandGenome)
    require_type("rng", rng, random.Random)
    split = (1.0 - require_rate("mutation_rate", mutation_rate)) / 2.0
    if parent_a.num_inputs != parent_b.num_inputs or parent_a.num_gates != parent_b.num_gates:
        raise ArityError("parents must agree on num_inputs and num_gates")
    n = parent_a.num_inputs
    child = _breed_ids(genome_ids(parent_a), genome_ids(parent_b), rng,
                       gene_sizes(n, parent_a.num_gates), split)
    return genome_from_ids(n, child)


def step_generation(population: list[Individual], target: TruthTable,
                    rng: random.Random, config: GaConfig) -> list[Individual]:
    """One generational replacement.

    Members with fitness 0 are culled from the breeding pool; each child's
    two parents are independent uniform draws (with replacement) from the
    pool. If the whole population has zero fitness the population is
    reinitialized randomly instead. It returns config.population_size
    children, whatever the size of the population given.

    run_evolution does not call it. It stays because the tests pin the
    generation rule through it, and perfbench's tracer wraps it by name
    for the `evolve.step_generation.*` layer metrics.
    """
    require_type("config", config, GaConfig)
    require_type("target", target, TruthTable)
    require_type("rng", rng, random.Random)
    if not isinstance(population, (list, tuple)):
        raise ValueError(
            f"population: expected a list or tuple of Individuals, got {_show(population)}"
        )
    n, num_gates = target.num_inputs, config.num_gates
    for i, ind in enumerate(population):
        require_type(f"population[{i}]", ind, Individual)
        if ind.fitness > 0.0 and (ind.genome.num_inputs != n or ind.genome.num_gates != num_gates):
            raise ArityError(f"breeding members must have {n} inputs and {_show(num_gates)} gates")
    children = _next_generation(
        [genome_ids(ind.genome) for ind in population], [ind.fitness for ind in population],
        rng, gene_sizes(n, num_gates), config.crossover_split, config.population_size,
    )
    score = scorer(target)
    return [Individual(genome_from_ids(n, ids), score(ids)) for ids in children]


def run_evolution(config: GaConfig, target: TruthTable,
                  on_generation: Callable[[int, float, float], object] | None = None) -> RunOutcome:
    """Evolve until some member has fitness 1 or max_generations is reached.

    The initial random population is generation 0 and is checked before any
    breeding, so a lucky initialization reports generation 0. If given,
    on_generation(generation, best_fitness, mean_fitness) is called once per
    scored generation, before the next one is bred. All randomness comes
    from one stream seeded with config.seed; identical inputs give a
    bit-identical outcome and calls. Members are allele-id lists (see
    netlist._source); only the genomes returned are built as NandGenome.
    """
    require_type("config", config, GaConfig)
    require_type("target", target, TruthTable)
    if on_generation is not None and not callable(on_generation):
        raise ValueError(f"on_generation: expected a callable or None, got {_show(on_generation)}")
    n, size = target.num_inputs, config.population_size
    sizes = gene_sizes(n, config.num_gates)
    split = config.crossover_split
    score = scorer(target)
    rng = random.Random(config.seed)
    population = [_random_ids(rng, sizes) for _ in range(size)]
    best_ids: list[int] = []
    best_fitness = -1.0
    generation = 0
    while True:
        fits = [score(ids) for ids in population]
        top = max(fits)
        if on_generation is not None:
            on_generation(generation, top, sum(fits) / len(fits))
        # The first member reaching a new best wins ties: earliest
        # generation, then lowest index.
        if top > best_fitness:
            best_ids, best_fitness = population[fits.index(top)], top
        if top == 1.0 or generation == config.max_generations:
            return RunOutcome(generation, Individual(genome_from_ids(n, best_ids), best_fitness))
        population = _next_generation(population, fits, rng, sizes, split, size)
        generation += 1
