"""Feed-forward NAND circuit model.

A circuit is a fixed-order list of two-input NAND gates. Each gate input
(a "gene") names its source: an external circuit input or the output of a
strictly earlier gate, so every circuit is acyclic by construction. The
output of the whole circuit is the output of the last gate.
"""

from __future__ import annotations

import json
import sys
from collections.abc import Callable
from dataclasses import dataclass
from functools import lru_cache
from itertools import repeat

# Truth tables are manipulated as integer bitmasks (bit i = output for input
# assignment i), so arity is capped where 2^n rows stay enumerable.
MAX_INPUTS = 16

# Bound on num_inputs: no list is indexed past sys.maxsize, and it prints.
_INPUTS_LIMIT = sys.maxsize + 1

EXTERNAL = "external"
GATE = "gate"


class CircuitError(Exception):
    """Base class for all errors raised by nandevolve."""


class StructureError(CircuitError):
    """Genome wiring violates the feed-forward rules."""


class ArityError(CircuitError):
    """Input counts disagree (genome vs. assignment or target)."""


class CapacityError(CircuitError):
    """Requested work exceeds an arity or enumeration budget."""


class FormatError(CircuitError):
    """Malformed external representation (JSON netlist, target string)."""


def _show(value) -> str:
    """repr(value) for an error message; it cannot fail. repr raises
    ValueError on an int over Python's int-to-str digit limit, alone or
    inside a container: a power of two (a bound such as 2**65536) then
    shows as 2**k, anything else as fixed text."""
    try:
        return repr(value)
    except ValueError:
        if isinstance(value, int) and value > 0 and value & (value - 1) == 0:
            return f"2**{value.bit_length() - 1}"
        return "<int too long to show>"


def require_int(name: str, value, minimum: int, limit: int | None = None,
                error: type[Exception] = ValueError) -> None:
    """Raise `error` naming the field unless value is an int (not a bool)
    in [minimum, limit). The one integer check of every argument."""
    if (not isinstance(value, int) or isinstance(value, bool) or value < minimum
            or (limit is not None and value >= limit)):
        bounds = f">= {minimum}" if limit is None else f"in [{minimum}, {_show(limit)})"
        raise error(f"{name}: expected an integer {bounds}, got {_show(value)}")


def require_rate(name: str, value) -> float:
    """Return value as a float if it is a number (not a bool) in [0, 1];
    otherwise raise ValueError naming the field."""
    if not isinstance(value, (int, float)) or isinstance(value, bool) or not 0.0 <= value <= 1.0:
        raise ValueError(f"{name}: expected a number in [0, 1], got {_show(value)}")
    return float(value)


def _load_json(text: str):
    """json.loads, with every malformed document a FormatError naming its
    cause: a syntax error's position, undecodable bytes, an integer literal
    over Python's int-to-str digit limit (a bare ValueError from json) or a
    document that is not text (a bare TypeError from json)."""
    try:
        return json.loads(text)
    except TypeError:
        raise FormatError(
            f"invalid JSON: expected a str, bytes or bytearray document, got {type(text).__name__}"
        ) from None
    except json.JSONDecodeError as exc:
        raise FormatError(f"invalid JSON at line {exc.lineno} column {exc.colno}: {exc.msg}") from None
    except UnicodeDecodeError as exc:
        raise FormatError(f"invalid JSON: byte {exc.start} is not {exc.encoding} text ({exc.reason})") from None
    except ValueError:
        raise FormatError(
            f"invalid JSON: an integer literal is longer than {sys.get_int_max_str_digits()} digits"
        ) from None


@dataclass(frozen=True)
class InputSource:
    """One allele: where a gate input is wired from."""

    kind: str
    index: int

    def __post_init__(self):
        if self.kind not in (EXTERNAL, GATE):
            raise StructureError(f"unknown source type {_show(self.kind)}")
        require_int("index", self.index, 0, error=StructureError)

    @classmethod
    def external(cls, index: int) -> "InputSource":
        return cls(EXTERNAL, index)

    @classmethod
    def gate(cls, index: int) -> "InputSource":
        return cls(GATE, index)

    def __repr__(self):
        return f"{'x' if self.kind == EXTERNAL else 'g'}{self.index}"


@lru_cache(maxsize=4096)
def _source(num_inputs: int, k: int) -> InputSource:
    """Source of allele id k: external input k if k < num_inputs, otherwise
    gate k - num_inputs. Cached per id, so a genome costs what its ids do,
    whatever num_inputs is."""
    return InputSource.external(k) if k < num_inputs else InputSource.gate(k - num_inputs)


@dataclass(frozen=True)
class NandGenome:
    """An immutable NAND netlist: `num_inputs` externals feeding `gates`.

    Gate i may reference external inputs or gates with index < i only;
    the circuit output is the output of the last gate.
    """

    num_inputs: int
    gates: tuple[tuple[InputSource, InputSource], ...]

    def __post_init__(self):
        n = self.num_inputs
        require_int("num_inputs", n, 1, _INPUTS_LIMIT, error=StructureError)
        gates = self.gates
        if not isinstance(gates, (tuple, list)):
            raise StructureError(f"gates: expected a sequence of gate pairs, got {_show(gates)}")
        if not gates:
            raise StructureError("gates: at least one gate is required")
        # The location text is built only when a check fails; pair.index
        # finds the slot, as equal sources fail alike.
        for i, pair in enumerate(gates):
            if not isinstance(pair, (tuple, list)) or len(pair) != 2:
                raise StructureError(f"gates[{i}]: expected a pair of sources, got {_show(pair)}")
            for src in pair:
                if not isinstance(src, InputSource):
                    problem = f"expected an InputSource, got {_show(src)}"
                elif src.kind == EXTERNAL:
                    if src.index < n:
                        continue
                    problem = f"external index {_show(src.index)} out of range for {_show(n)} inputs"
                elif src.index < i:
                    continue
                else:
                    problem = f"gate index {_show(src.index)} must be below {i} (feed-forward)"
                raise StructureError(f"gates[{i}][{pair.index(src)}]: {problem}")
        object.__setattr__(self, "gates", tuple(map(tuple, gates)))

    @property
    def num_gates(self) -> int:
        return len(self.gates)


def gene_sizes(num_inputs: int, num_gates: int) -> tuple[int, ...]:
    """Allele-space size of every gene, in gene order: both genes of gate i
    range over the num_inputs + i ids below it (see _source)."""
    # Built from a list: a tuple built from a generator is resized as it
    # grows, and on CPython 3.11 repeated calls then keep about 0.6 MiB of
    # RSS that is never returned (every oracle query calls this).
    return tuple([num_inputs + i for i in range(num_gates) for _ in range(2)])


def genome_from_ids(num_inputs: int, ids) -> NandGenome:
    """Genome whose gate i is wired from allele ids ids[2i] and ids[2i+1]
    (see _source); NandGenome checks the feed-forward rule. num_inputs must
    already be an int >= 1, as TruthTable, random_genome and the oracle
    check it."""
    count = num_inputs + len(ids) // 2
    if len(ids) % 2 or (ids and not 0 <= min(ids) <= max(ids) < count):
        raise StructureError(
            f"ids: expected pairs of allele ids in [0, {_show(count)}), got {_show(ids)}"
        )
    srcs = map(_source, repeat(num_inputs), ids)
    return NandGenome(num_inputs, tuple(zip(srcs, srcs)))


def genome_ids(genome: NandGenome) -> list[int]:
    """The genome's allele ids in gene order; inverse of genome_from_ids."""
    n = genome.num_inputs
    return [src.index if src.kind == EXTERNAL else n + src.index for pair in genome.gates for src in pair]


# The named two-input targets: name -> (rows, minimal gate count), each
# count the oracle's minimum (minimal_gates). The one home of both facts.
_PRESETS = {
    "and": ("0001", 2),
    "or": ("0111", 3),
    "nor": ("1000", 4),
    "xor": ("0110", 4),
    "xnor": ("1001", 5),
    "nand": ("1110", 1),
}


def _check_arity(num_inputs) -> None:
    """TruthTable's rule for num_inputs, checked before any 1 << num_inputs."""
    require_int("num_inputs", num_inputs, 1, error=FormatError)
    if num_inputs > MAX_INPUTS:
        raise CapacityError(f"arity {_show(num_inputs)} exceeds the {MAX_INPUTS}-input limit")


@dataclass(frozen=True)
class TruthTable:
    """A single-output boolean function of `num_inputs` variables.

    rows[i] is the output bit for the assignment where bit k of the row
    index i gives the value of external input k (input 0 least significant).
    """

    num_inputs: int
    rows: str

    def __post_init__(self):
        _check_arity(self.num_inputs)
        if not isinstance(self.rows, str) or len(self.rows) != 1 << self.num_inputs:
            raise FormatError(
                f"rows must be a bit string of length {1 << self.num_inputs}, got {_show(self.rows)}"
            )
        if set(self.rows) - {"0", "1"}:
            raise FormatError(f"rows may contain only '0' and '1', got {_show(self.rows)}")

    @property
    def mask(self) -> int:
        """Rows packed into an int, bit i = rows[i]."""
        return int(self.rows[::-1], 2)

    @classmethod
    def from_mask(cls, num_inputs: int, mask: int) -> "TruthTable":
        """Table whose rows[i] is bit i of mask, 0 <= mask < 2**(2**num_inputs)."""
        _check_arity(num_inputs)
        rows = 1 << num_inputs
        require_int("mask", mask, 0, 1 << rows, error=FormatError)
        return cls(num_inputs, format(mask, f"0{rows}b")[::-1])

    @classmethod
    def named(cls, name: str) -> "TruthTable":
        """One of the two-input presets: and, or, nor, xor, xnor, nand."""
        try:
            return cls(2, _PRESETS[name.lower()][0])
        except (AttributeError, KeyError, TypeError):
            raise FormatError(
                f"unknown target name {_show(name)} (choose from {', '.join(sorted(_PRESETS))})"
            ) from None

    @classmethod
    def parse(cls, text: str) -> "TruthTable":
        """Parse a preset name or a 'tt:BITS' literal in canonical row order."""
        if isinstance(text, str) and text.lower().startswith("tt:"):
            bits = text[3:]
            if not bits or set(bits) - {"0", "1"}:
                raise FormatError(f"tt: literal must be a nonempty bit string, got {_show(bits)}")
            n = len(bits).bit_length() - 1
            if 1 << n != len(bits):
                raise FormatError(f"tt: literal length {len(bits)} is not a power of two")
            if n < 1:
                raise FormatError("tt: literal needs at least 2 rows")
            return cls(n, bits)
        return cls.named(text)


def require_type(name: str, value, kind: type) -> None:
    """Raise ValueError naming the argument unless value is a `kind`. A
    target name or tt: text must go through TruthTable.parse first."""
    if not isinstance(value, kind):
        article = "an" if kind.__name__[0] in "AEIOU" else "a"
        raise ValueError(f"{name}: expected {article} {kind.__name__}, got {_show(value)}")


@lru_cache(maxsize=None)
def input_masks(num_inputs: int) -> tuple[int, ...]:
    """Bitmask of each external input over all 2^n assignments."""
    rows = 1 << num_inputs
    masks = []
    for k in range(num_inputs):
        block = 1 << k
        ones = (1 << block) - 1
        m = 0
        for start in range(block, rows, 2 * block):
            m |= ones << start
        masks.append(m)
    return tuple(masks)


def ids_tables(ids, inputs, full: int) -> list[int]:
    """Values of the circuit wired by allele ids `ids` (see _source) when
    input k carries inputs[k]: the inputs, then one per gate (the output
    last), so an allele id indexes the list. Values are bitmasks over many
    assignments (full = 2^rows - 1) or single bits (full = 1)."""
    values = list(inputs)
    pairs = iter(ids)
    for a, b in zip(pairs, pairs):
        values.append(~(values[a] & values[b]) & full)
    return values


def scorer(target: TruthTable) -> Callable[[list[int]], float]:
    """fitness() on the allele ids of a genome with target.num_inputs
    inputs: (rows - wrong rows) / rows."""
    rows = 1 << target.num_inputs
    full = (1 << rows) - 1
    wanted = target.mask
    inputs = input_masks(target.num_inputs)

    def score(ids) -> float:
        return (rows - (ids_tables(ids, inputs, full)[-1] ^ wanted).bit_count()) / rows

    return score


def output_mask(genome: NandGenome) -> int:
    """Truth table of the genome's output gate, packed as an int bitmask."""
    require_type("genome", genome, NandGenome)
    n = genome.num_inputs
    _check_arity(n)
    return ids_tables(genome_ids(genome), input_masks(n), (1 << (1 << n)) - 1)[-1]


def evaluate(genome: NandGenome, assignment) -> int:
    """Output bit of the circuit for one input assignment."""
    require_type("genome", genome, NandGenome)
    try:
        size = len(assignment)
    except TypeError:
        raise ValueError(f"assignment: expected a sequence of bits, got {_show(assignment)}") from None
    if size != genome.num_inputs:
        raise ArityError(f"assignment has {size} bits, genome expects {_show(genome.num_inputs)}")
    if any(v not in (0, 1) for v in assignment):
        raise ValueError(f"assignment: expected bits 0 or 1, got {_show(assignment)}")
    return ids_tables(genome_ids(genome), [1 if v else 0 for v in assignment], 1)[-1]


def truth_table_of(genome: NandGenome) -> TruthTable:
    """Exhaustive evaluation over all 2^n assignments."""
    require_type("genome", genome, NandGenome)
    return TruthTable.from_mask(genome.num_inputs, output_mask(genome))


def fitness(genome: NandGenome, target: TruthTable) -> float:
    """Fraction of truth-table rows where the circuit matches the target.

    Always an exact multiple of 2^-n, so comparisons against 0.0 and 1.0
    are exact; 1.0 means the circuit realizes the target.
    """
    require_type("genome", genome, NandGenome)
    require_type("target", target, TruthTable)
    if genome.num_inputs != target.num_inputs:
        raise ArityError(
            f"genome has {_show(genome.num_inputs)} inputs, target has {target.num_inputs}"
        )
    return scorer(target)(genome_ids(genome))


def prune_ids(num_inputs: int, ids) -> list[int]:
    """Allele ids of the gates reachable backward from the output gate, in
    gene order and renumbered densely; the realized truth table is
    unchanged. Feed-forward wiring lets one backward pass find them;
    external ids keep their number."""
    n = num_inputs
    live = {n + len(ids) // 2 - 1}
    for k in reversed(range(len(ids))):
        if n + k // 2 in live:
            live.add(ids[k])
    new_id = {old: new for new, old in enumerate(sorted(a for a in live if a >= n), n)}
    return [a if a < n else new_id[a] for k, a in enumerate(ids) if n + k // 2 in live]


def prune_dead_gates(genome: NandGenome) -> NandGenome:
    """Drop gates unreachable backward from the output gate, reindexed densely.

    The realized truth table is unchanged.
    """
    require_type("genome", genome, NandGenome)
    n = genome.num_inputs
    return genome_from_ids(n, prune_ids(n, genome_ids(genome)))


def canonical_key(genome: NandGenome) -> bytes:
    """Deterministic byte serialization of the dead-gate-pruned structure.

    Equal keys <=> identical pruned netlists. Distinct keys say nothing
    about functional equivalence.
    """
    require_type("genome", genome, NandGenome)
    n = genome.num_inputs
    srcs = map(_source, repeat(n), prune_ids(n, genome_ids(genome)))
    parts = [str(n), *(f"{a!r}.{b!r}" for a, b in zip(srcs, srcs))]
    return "|".join(parts).encode("ascii")


def _genome_doc(genome: NandGenome) -> dict:
    return {
        "inputs": genome.num_inputs,
        "gates": [[{"type": src.kind, "index": src.index} for src in pair] for pair in genome.gates],
    }


def export_json(genome: NandGenome) -> str:
    """Render the genome in the JSON netlist format (see parse_json)."""
    require_type("genome", genome, NandGenome)
    return json.dumps(_genome_doc(genome), indent=2)


def _parse_source(obj, where: str) -> InputSource:
    if not isinstance(obj, dict):
        raise FormatError(f"{where}: expected an object, got {type(obj).__name__}")
    for field in ("type", "index"):
        if field not in obj:
            raise FormatError(f"{where}: missing field {field!r}")
    try:
        return InputSource(obj["type"], obj["index"])
    except StructureError as exc:
        raise FormatError(f"{where}: {exc}") from None


def parse_json(text: str) -> NandGenome:
    """Parse the JSON netlist format:

        {"inputs": n, "gates": [[SRC, SRC], ...]}

    where SRC is {"type": "external"|"gate", "index": k}. Gates are listed
    in index order and the last gate is the circuit output. Forward/self
    gate references, out-of-range indices, unknown source types, and wrong
    field types are rejected with the offending location in the message;
    wiring errors carry the same text as NandGenome's StructureError.
    """
    doc = _load_json(text)
    if not isinstance(doc, dict):
        raise FormatError(f"top level: expected an object, got {type(doc).__name__}")
    for field in ("inputs", "gates"):
        if field not in doc:
            raise FormatError(f"top level: missing field {field!r}")
    gates_doc = doc["gates"]
    if not isinstance(gates_doc, list):
        raise FormatError(f"gates: expected an array, got {type(gates_doc).__name__}")
    gates = []
    for i, pair in enumerate(gates_doc):
        if not isinstance(pair, list):
            raise FormatError(f"gates[{i}]: expected an array, got {type(pair).__name__}")
        gates.append(tuple(_parse_source(obj, f"gates[{i}][{j}]") for j, obj in enumerate(pair)))
    try:
        return NandGenome(doc["inputs"], tuple(gates))
    except StructureError as exc:
        raise FormatError(str(exc)) from None


def export_dot(genome: NandGenome) -> str:
    """Render the circuit as a Graphviz digraph.

    Inputs are nodes x<k>, gates are nodes g<j> with edges source -> gate;
    the output gate is marked with peripheries=2 and an "out" xlabel.
    """
    require_type("genome", genome, NandGenome)
    out = genome.num_gates - 1
    lines = ["digraph nand_circuit {", "  rankdir=LR;"]
    for k in range(genome.num_inputs):
        lines.append(f'  x{k} [shape=circle, label="x{k}"];')
    for j in range(genome.num_gates):
        mark = ', peripheries=2, xlabel="out"' if j == out else ""
        lines.append(f'  g{j} [shape=box, label="NAND g{j}"{mark}];')
    for j, (a, b) in enumerate(genome.gates):
        lines.append(f"  {a!r} -> g{j};")
        lines.append(f"  {b!r} -> g{j};")
    lines.append("}")
    return "\n".join(lines) + "\n"
