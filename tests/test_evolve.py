import random
import re
import sys
from collections import Counter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import stats

import nandevolve.evolve as evolve_mod
from nandevolve.evolve import (
    GaConfig,
    Individual,
    breed,
    random_genome,
    run_evolution,
    step_generation,
)
from nandevolve.netlist import (
    ArityError,
    EXTERNAL,
    GATE,
    InputSource,
    NandGenome,
    TruthTable,
    fitness,
    genome_from_ids,
    truth_table_of,
)

import reference_ga
from conftest import g, genome, x


def assert_feed_forward(circuit):
    """Re-check the wiring rules without trusting constructor validation."""
    assert circuit.num_inputs >= 1 and circuit.num_gates >= 1
    for i, pair in enumerate(circuit.gates):
        for src in pair:
            if src.kind == EXTERNAL:
                assert 0 <= src.index < circuit.num_inputs
            else:
                assert src.kind == GATE and 0 <= src.index < i


class TestGaConfig:
    def test_split_and_mutation_sum_to_one(self):
        cfg = GaConfig(num_gates=2, mutation_rate=0.10)
        assert 2.0 * cfg.crossover_split + cfg.mutation_rate == 1.0

    def test_defaults(self):
        cfg = GaConfig(num_gates=5)
        assert cfg.population_size == 10
        assert cfg.mutation_rate == 0.10
        assert cfg.max_generations == 100_000

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"num_gates": 0},
            {"num_gates": 2, "population_size": 1},
            {"num_gates": 2, "mutation_rate": -0.1},
            {"num_gates": 2, "mutation_rate": 1.5},
            {"num_gates": 2, "max_generations": -1},
            {"num_gates": 2, "seed": -1},
            {"num_gates": 2, "seed": 2**64},
            {"num_gates": 2.5},
            {"num_gates": 2, "population_size": True},
            {"num_gates": 2, "mutation_rate": "0.1"},
            {"num_gates": 2, "seed": 1.0},
            {"num_gates": 2, "max_generations": None},
            {"num_gates": True},
        ],
    )
    def test_rejects_bad_values(self, kwargs):
        with pytest.raises(ValueError):
            GaConfig(**kwargs)


class TestRandomSource:
    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_is_one_draw_from_the_allele_table(self, n):
        # every gene of a fresh genome is one randrange over its gate's allele table
        num_gates = 5
        table = reference_ga.sources(n, n + num_gates - 1)
        for k, src in enumerate(table):
            assert src == (InputSource.external(k) if k < n else InputSource.gate(k - n))
        rng, twin = random.Random(n), random.Random(n)
        for _ in range(200):
            circuit = random_genome(rng, n, num_gates)
            for i, pair in enumerate(circuit.gates):
                for src in pair:
                    assert src == table[twin.randrange(n + i)]
        assert rng.getstate() == twin.getstate()


class TestRandomGenome:
    def test_single_gate_alleles_are_external(self):
        rng = random.Random(0)
        seen = set()
        for _ in range(4000):
            circuit = random_genome(rng, 2, 1)
            for src in circuit.gates[0]:
                assert src.kind == EXTERNAL
            seen.add(circuit)
        assert len(seen) == 4  # both genes range over {x0, x1}

    def test_uniform_over_genome_space(self):
        # (n=2, G=3) has 2^2 * 3^2 * 4^2 = 576 genomes
        rng = random.Random(2024)
        counts = Counter(random_genome(rng, 2, 3) for _ in range(100_000))
        assert len(counts) == 576
        expect = 100_000 / 576
        chi2 = sum((c - expect) ** 2 / expect for c in counts.values())
        assert chi2 < stats.chi2.ppf(0.9999, 575)

    def test_valid_and_deterministic(self):
        for seed in range(20):
            a = random_genome(random.Random(seed), 3, 6)
            b = random_genome(random.Random(seed), 3, 6)
            assert a == b
            assert_feed_forward(a)

    @pytest.mark.parametrize(
        "num_inputs, num_gates, field",
        [(0, 3, "num_inputs"), (2.5, 2, "num_inputs"), (True, 2, "num_inputs"),
         (2, 0, "num_gates"), (2, 1.5, "num_gates"), (2, None, "num_gates")],
    )
    def test_rejects_bad_shape_before_drawing(self, num_inputs, num_gates, field):
        rng = random.Random(4)
        state = rng.getstate()
        # num_inputs has NandGenome's upper bound, num_gates none
        bounds = f"in [1, {sys.maxsize + 1})" if field == "num_inputs" else ">= 1"
        with pytest.raises(ValueError, match=f"^{field}: expected an integer {re.escape(bounds)}, got "):
            random_genome(rng, num_inputs, num_gates)
        assert rng.getstate() == state


class TestBreed:
    def test_identical_parents_no_mutation(self):
        rng = random.Random(1)
        parent = random_genome(rng, 2, 4)
        for _ in range(10):
            assert breed(parent, parent, rng, mutation_rate=0.0) == parent

    def test_crossover_purity(self):
        # with mutation off, every child gene comes from a parent
        rng = random.Random(8)
        for _ in range(10_000):
            pa = random_genome(rng, 2, 3)
            pb = random_genome(rng, 2, 3)
            child = breed(pa, pb, rng, mutation_rate=0.0)
            for child_pair, a_pair, b_pair in zip(child.gates, pa.gates, pb.gates):
                for gene, gene_a, gene_b in zip(child_pair, a_pair, b_pair):
                    assert gene == gene_a or gene == gene_b

    def test_full_mutation_matches_uniform_sampling(self):
        # mutation_rate 1 turns breeding into per-position uniform resampling
        pa = NandGenome(2, ((x(0), x(0)), (x(0), x(0))))
        pb = NandGenome(2, ((x(1), x(1)), (x(1), x(1))))
        rng = random.Random(7)
        counts = Counter(breed(pa, pb, rng, mutation_rate=1.0) for _ in range(100_000))
        assert len(counts) == 36  # 2^2 * 3^2
        expect = 100_000 / 36
        chi2 = sum((c - expect) ** 2 / expect for c in counts.values())
        assert chi2 < stats.chi2.ppf(0.9999, 35)

    def test_mutation_rate_calibration(self):
        # Parents disagree everywhere and use only external alleles; gate 2
        # has 4 alleles, so a mutation reproduces a parental value half the
        # time and the observed "neither parent" rate must be corrected by
        # s/(s-2) = 2.
        pa = NandGenome(2, ((x(0), x(0)), (x(0), x(0)), (x(0), x(0))))
        pb = NandGenome(2, ((x(1), x(1)), (x(1), x(1)), (x(1), x(1))))
        rng = random.Random(12345)
        neither = 0
        draws = 0
        for _ in range(50_000):
            child = breed(pa, pb, rng, mutation_rate=0.10)
            for gene in child.gates[2]:
                draws += 1
                if gene not in (x(0), x(1)):
                    neither += 1
        assert draws == 100_000
        assert abs(neither / draws * 2 - 0.10) <= 0.005

    def test_shape_mismatch(self):
        rng = random.Random(0)
        with pytest.raises(ArityError):
            breed(random_genome(rng, 2, 2), random_genome(rng, 2, 3), rng)
        with pytest.raises(ArityError):
            breed(random_genome(rng, 2, 2), random_genome(rng, 3, 2), rng)

    @pytest.mark.parametrize("mutation_rate", [2.0, -1.0, "x", None, True])
    def test_rejects_bad_rate_before_drawing(self, mutation_rate):
        rng = random.Random(6)
        parent = random_genome(rng, 2, 3)
        state = rng.getstate()
        with pytest.raises(ValueError, match=r"^mutation_rate: expected a number in \[0, 1\]"):
            breed(parent, parent, rng, mutation_rate)
        assert rng.getstate() == state


def evaluated(circuit, target):
    return Individual(circuit, fitness(circuit, target))


def traced(run, config, target):
    """(outcome, rows) of one run, each row the on_generation arguments."""
    rows = []
    outcome = run(config, target, lambda *row: rows.append(row))
    return outcome, rows


class TestStepGeneration:
    def test_population_size_preserved(self):
        target = TruthTable.named("xor")
        cfg = GaConfig(num_gates=4, population_size=10, seed=0)
        rng = random.Random(3)
        population = [evaluated(random_genome(rng, 2, 4), target) for _ in range(10)]
        for _ in range(5):
            population = step_generation(population, target, rng, cfg)
            assert len(population) == 10

    def test_all_zero_population_is_reinitialized(self):
        # a NAND gate is the exact complement of AND, so fitness is 0
        target = TruthTable.named("and")
        zero = evaluated(genome(2, (x(0), x(1))), target)
        assert zero.fitness == 0.0
        cfg = GaConfig(num_gates=1, population_size=6, seed=0)
        rng = random.Random(5)
        children = step_generation([zero] * 6, target, rng, cfg)
        assert len(children) == 6
        assert any(ind.genome != zero.genome for ind in children)

    def test_single_member_pool_breeds_with_itself(self):
        target = TruthTable.named("and")
        keeper = evaluated(genome(2, (x(0), x(1)), (g(0), g(0))), target)  # fitness 1 stand-in
        culled = evaluated(genome(2, (x(0), x(1))), target)  # fitness 0
        cfg = GaConfig(num_gates=2, population_size=8, mutation_rate=0.0, seed=0)
        children = step_generation([culled, keeper, culled], target, random.Random(2), cfg)
        assert len(children) == 8
        assert all(ind.genome == keeper.genome for ind in children)

    def test_children_are_evaluated(self):
        target = TruthTable.named("or")
        rng = random.Random(11)
        cfg = GaConfig(num_gates=3, population_size=10, seed=0)
        population = [evaluated(random_genome(rng, 2, 3), target) for _ in range(10)]
        for ind in step_generation(population, target, rng, cfg):
            assert ind.fitness == fitness(ind.genome, target)


AND = TruthTable.named("and")


def step_and(population, rng):
    """step_generation toward AND at 2 gates, 4 members."""
    return step_generation(population, AND, rng, GaConfig(num_gates=2, population_size=4))


class TestArgumentTypes:
    @pytest.mark.parametrize("call, message", [
        (lambda rng, parent, pop: random_genome(None, 2, 2), "^rng: expected a Random, got None$"),
        (lambda rng, parent, pop: breed(parent, parent, None), "^rng: expected a Random, got None$"),
        (lambda rng, parent, pop: step_and(pop, None), "^rng: expected a Random, got None$"),
        (lambda rng, parent, pop: breed(5, 5, rng), "^parent_a: expected a NandGenome, got 5$"),
        (lambda rng, parent, pop: breed(parent, 5, rng), "^parent_b: expected a NandGenome, got 5$"),
        (lambda rng, parent, pop: step_and(5, rng),
         "^population: expected a list or tuple of Individuals, got 5$"),
        (lambda rng, parent, pop: step_and([5], rng), r"^population\[0\]: expected an Individual, got 5$"),
        (lambda rng, parent, pop: step_and([*pop, 5], rng),
         r"^population\[1\]: expected an Individual, got 5$"),
    ], ids=["random_genome-rng", "breed-rng", "step_generation-rng", "breed-parent_a",
            "breed-parent_b", "step_generation-population", "step_generation-member",
            "step_generation-later-member"])
    def test_checked_before_any_draw(self, call, message):
        rng = random.Random(8)
        parent = random_genome(rng, 2, 2)
        population = [evaluated(parent, AND)]
        state = rng.getstate()
        with pytest.raises(ValueError, match=message):
            call(rng, parent, population)
        assert rng.getstate() == state

    def test_tuple_population_breeds_like_a_list(self):
        rng = random.Random(9)
        population = [evaluated(random_genome(rng, 2, 2), AND) for _ in range(4)]
        as_list = step_and(population, random.Random(1))
        assert step_and(tuple(population), random.Random(1)) == as_list

    @pytest.mark.parametrize("genome_arg, fitness_arg, message", [
        (5, 0.5, "^genome: expected a NandGenome, got 5$"),
        (genome(2, (x(0), x(1))), "x", r"^fitness: expected a number in \[0, 1\], got 'x'$"),
        (genome(2, (x(0), x(1))), 7.0, r"^fitness: expected a number in \[0, 1\], got 7.0$"),
        (genome(2, (x(0), x(1))), float("nan"), r"^fitness: expected a number in \[0, 1\], got nan$"),
        (genome(2, (x(0), x(1))), True, r"^fitness: expected a number in \[0, 1\], got True$"),
    ])
    def test_individual_checked_when_built(self, genome_arg, fitness_arg, message):
        with pytest.raises(ValueError, match=message):
            Individual(genome_arg, fitness_arg)


class TestRunEvolution:
    def test_nand_target_solves_at_generation_zero(self):
        # half of all 1-gate genomes are already NAND, so ten random members
        # miss only with probability 2^-10
        target = TruthTable.named("nand")
        for seed in range(10):
            out = run_evolution(GaConfig(num_gates=1, seed=seed), target)
            assert out.solved and out.generations == 0

    def test_and_target_solves(self):
        target = TruthTable.named("and")
        for seed in range(5):
            out = run_evolution(GaConfig(num_gates=2, seed=seed), target)
            assert out.solved
            assert truth_table_of(out.genome) == target

    def test_generation_cap(self):
        # seed 1 has no AND solution in its initial population
        out = run_evolution(GaConfig(num_gates=2, max_generations=0, seed=1), TruthTable.named("and"))
        assert not out.solved
        assert out.generations == 0
        assert out.genome is None
        assert 0.0 < out.best.fitness < 1.0

    def test_solved_genome_reverifies(self):
        target = TruthTable.named("xor")
        out = run_evolution(GaConfig(num_gates=4, seed=3), target)
        assert out.solved
        assert out.best.fitness == 1.0
        assert truth_table_of(out.genome) == target

    def test_arity_comes_from_the_target(self):
        # a default GaConfig runs on a 3-input target (parity3 needs 8 gates)
        target = TruthTable(3, "01101001")
        out = run_evolution(GaConfig(num_gates=8, seed=1, max_generations=5), target)
        assert out.best.genome.num_inputs == 3 and out.best.genome.num_gates == 8
        assert out.best.fitness == fitness(out.best.genome, target)

    def test_seed_determinism_including_trace(self):
        cfg = GaConfig(num_gates=4, seed=77)
        target = TruthTable.named("xor")
        first, rows = traced(run_evolution, cfg, target)
        assert (first, rows) == traced(run_evolution, cfg, target)
        assert [row[0] for row in rows] == list(range(first.generations + 1))
        assert rows[-1][1] == 1.0

    def test_rows_stream_while_the_run_goes(self, monkeypatch):
        # parity3 at 8 gates: no solution within the first four generations.
        # Each row comes after exactly `generation` breeding steps, and an
        # exception from the callback stops the run at once.
        cfg = GaConfig(num_gates=8, seed=1, max_generations=50)
        target = TruthTable(3, "01101001")
        bred, calls = [], []
        real_next = evolve_mod._next_generation

        def counting_next(*args):
            bred.append(None)
            return real_next(*args)

        class Stop(Exception):
            pass

        def stop_at_three(generation, best_fitness, mean_fitness):
            calls.append((generation, len(bred)))
            if generation == 3:
                raise Stop

        monkeypatch.setattr(evolve_mod, "_next_generation", counting_next)
        with pytest.raises(Stop):
            run_evolution(cfg, target, stop_at_three)
        assert calls == [(0, 0), (1, 1), (2, 2), (3, 3)] and len(bred) == 3
        outcome, rows = traced(run_evolution, cfg, target)
        assert outcome.generations > 3 and [row[0] for row in rows[:4]] == [0, 1, 2, 3]

    @pytest.mark.parametrize("on_generation", [True, "x"])
    def test_on_generation_must_be_callable(self, on_generation):
        with pytest.raises(ValueError, match=f"^on_generation: expected a callable or None, "
                                             f"got {re.escape(repr(on_generation))}$"):
            run_evolution(GaConfig(num_gates=2), TruthTable.named("and"), on_generation)

    @pytest.mark.parametrize("config", [None, "x", {"num_gates": 2}])
    def test_config_must_be_a_gaconfig(self, config):
        # checked before any RNG draw, like the target
        target = TruthTable.named("and")
        message = f"^config: expected a GaConfig, got {re.escape(repr(config))}$"
        with pytest.raises(ValueError, match=message):
            run_evolution(config, target)
        rng = random.Random(4)
        state = rng.getstate()
        with pytest.raises(ValueError, match=message):
            step_generation([evaluated(genome(2, (x(0), x(1))), target)], target, rng, config)
        assert rng.getstate() == state

    def test_different_seeds_differ(self):
        target = TruthTable.named("xnor")
        outs = {run_evolution(GaConfig(num_gates=5, seed=s), target).generations for s in range(6)}
        assert len(outs) > 1

    @pytest.mark.parametrize("target_name, max_generations", [("xor", 100_000), ("xnor", 200)])
    def test_builds_only_the_returned_genome(self, monkeypatch, target_name, max_generations):
        # members are allele-id lists; one NandGenome is built, for the result
        built = []
        real_init = NandGenome.__post_init__

        def counting_init(self):
            built.append(self)
            real_init(self)

        monkeypatch.setattr(NandGenome, "__post_init__", counting_init)
        cfg = GaConfig(num_gates=4, seed=5, max_generations=max_generations)
        out = run_evolution(cfg, TruthTable.named(target_name))
        assert out.generations > 10
        assert built == [out.best.genome]

    def test_zero_fitness_members_never_breed(self, monkeypatch):
        target = TruthTable.named("nor")
        seen_parents = []
        real_breed = evolve_mod._breed_ids

        def spying_breed(ids_a, ids_b, rng, sizes, split):
            seen_parents.append(ids_a)
            seen_parents.append(ids_b)
            return real_breed(ids_a, ids_b, rng, sizes, split)

        monkeypatch.setattr(evolve_mod, "_breed_ids", spying_breed)
        out = run_evolution(GaConfig(num_gates=4, seed=9, max_generations=2000), target)
        assert out.solved and seen_parents
        for parent in seen_parents:
            assert fitness(genome_from_ids(2, parent), target) > 0.0

    def test_every_genome_in_run_is_valid(self, monkeypatch):
        target = TruthTable.named("xor")
        checked = []
        real_breed = evolve_mod._breed_ids

        def spying_breed(ids_a, ids_b, rng, sizes, split):
            child = real_breed(ids_a, ids_b, rng, sizes, split)
            assert len(child) == 8
            for k, allele in enumerate(child):
                assert 0 <= allele < 2 + k // 2
            circuit = genome_from_ids(2, child)
            assert_feed_forward(circuit)
            checked.append(circuit)
            return child

        monkeypatch.setattr(evolve_mod, "_breed_ids", spying_breed)
        out = run_evolution(GaConfig(num_gates=4, seed=13, max_generations=2000), target)
        assert out.solved
        assert len(checked) >= 10


# Differential tests: the allele-id core must reproduce the object-based
# reference GA (tests/reference_ga.py) exactly, RNG state included.
seeds = st.integers(min_value=0, max_value=2**64 - 1)
arities = st.integers(min_value=1, max_value=4)
gate_counts = st.integers(min_value=1, max_value=6)
population_sizes = st.integers(min_value=2, max_value=10)
rates = st.one_of(st.sampled_from([0.0, 0.1, 1.0]), st.floats(min_value=0.0, max_value=1.0))
targets = arities.flatmap(
    lambda n: st.integers(min_value=0, max_value=(1 << (1 << n)) - 1).map(
        lambda mask: TruthTable.from_mask(n, mask)
    )
)


class TestMatchesReference:
    @settings(max_examples=300, deadline=None)
    @given(target=targets, num_gates=gate_counts, population_size=population_sizes,
           mutation_rate=rates, max_generations=st.integers(min_value=0, max_value=50),
           seed=seeds, trace=st.booleans())
    def test_run_evolution(self, target, num_gates, population_size, mutation_rate,
                           max_generations, seed, trace):
        cfg = GaConfig(num_gates=num_gates, population_size=population_size,
                       mutation_rate=mutation_rate, max_generations=max_generations, seed=seed)
        if trace:
            assert traced(run_evolution, cfg, target) == traced(reference_ga.run_evolution, cfg, target)
        else:
            assert run_evolution(cfg, target) == reference_ga.run_evolution(cfg, target)

    @settings(max_examples=100, deadline=None)
    @given(seed=seeds, num_inputs=arities, num_gates=gate_counts)
    def test_random_genome(self, seed, num_inputs, num_gates):
        rng, twin = random.Random(seed), random.Random(seed)
        for _ in range(5):
            assert random_genome(rng, num_inputs, num_gates) == reference_ga.random_genome(
                twin, num_inputs, num_gates)
        assert rng.getstate() == twin.getstate()

    @settings(max_examples=100, deadline=None)
    @given(seed=seeds, num_inputs=arities, num_gates=gate_counts, mutation_rate=rates)
    def test_breed(self, seed, num_inputs, num_gates, mutation_rate):
        rng, twin = random.Random(seed), random.Random(seed)
        pa = reference_ga.random_genome(twin, num_inputs, num_gates)
        pb = reference_ga.random_genome(twin, num_inputs, num_gates)
        rng.setstate(twin.getstate())
        for _ in range(5):
            assert breed(pa, pb, rng, mutation_rate) == reference_ga.breed(pa, pb, twin, mutation_rate)
        assert rng.getstate() == twin.getstate()

    @settings(max_examples=100, deadline=None)
    @given(seed=seeds, target=targets, num_gates=gate_counts, mutation_rate=rates,
           culled=st.lists(st.booleans(), min_size=2, max_size=10))
    def test_step_generation(self, seed, target, num_gates, mutation_rate, culled):
        # culled members get fitness 0, so small and empty breeding pools occur
        n = target.num_inputs
        cfg = GaConfig(num_gates=num_gates, population_size=len(culled),
                       mutation_rate=mutation_rate, seed=0)
        rng, twin = random.Random(seed), random.Random(seed)
        population = [
            Individual(circuit, 0.0 if cull else fitness(circuit, target))
            for circuit, cull in ((reference_ga.random_genome(twin, n, num_gates), cull) for cull in culled)
        ]
        rng.setstate(twin.getstate())
        expected = population
        for _ in range(3):
            population = step_generation(population, target, rng, cfg)
            expected = reference_ga.step_generation(expected, target, twin, cfg)
            assert population == expected
        assert rng.getstate() == twin.getstate()
