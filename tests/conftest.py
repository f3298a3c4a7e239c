import random

import pytest
from hypothesis import strategies as st

from nandevolve.netlist import InputSource, NandGenome, genome_from_ids


def x(i):
    return InputSource.external(i)


def g(i):
    return InputSource.gate(i)


def genome(num_inputs, *pairs):
    return NandGenome(num_inputs, tuple(pairs))


def random_valid_genome(rng: random.Random, num_inputs, num_gates):
    ids = [rng.randrange(num_inputs + i) for i in range(num_gates) for _ in range(2)]
    return genome_from_ids(num_inputs, ids)


@st.composite
def genomes(draw, max_inputs=3, max_gates=8):
    n = draw(st.integers(min_value=1, max_value=max_inputs))
    num_gates = draw(st.integers(min_value=1, max_value=max_gates))
    ids = [
        draw(st.integers(min_value=0, max_value=n + i - 1))
        for i in range(num_gates)
        for _ in range(2)
    ]
    return genome_from_ids(n, ids)


# the four-gate exclusive-or construction: NAND(NAND(x0, NAND(x0,x1)), NAND(x1, NAND(x0,x1)))
@pytest.fixture
def xor_genome():
    return genome(2, (x(0), x(1)), (x(0), g(0)), (x(1), g(0)), (g(1), g(2)))


# NAND followed by a self-NAND inverter realizes AND
@pytest.fixture
def and_genome():
    return genome(2, (x(0), x(1)), (g(0), g(0)))
