"""Output checks made apart from the program.

The evaluator reads an extracted netlist only as plain tuples — inputs
``(var, name)``, two-input AND gates ``(out_var, fanin0, fanin1)`` over
AIGER literals, outputs ``(literal, name)`` — and simulates it with
Python-integer bit lanes: lane ``k`` of every signal is its value under
operand pair ``k``.  It shares no code with ``repro.aig.simulate``.

Every check returns a list of problems; an empty list means it passed.
"""

from __future__ import annotations

import hashlib
import random
from dataclasses import dataclass
from typing import Dict, List, Sequence, Tuple

#: An FA block as ``((x, y, z), sum_literal, carry_literal)``.
Block = Tuple[Tuple[int, int, int], int, int]


@dataclass(frozen=True)
class Netlist:
    inputs: Tuple[Tuple[int, str], ...]
    gates: Tuple[Tuple[int, int, int], ...]
    outputs: Tuple[Tuple[int, str], ...]


def netlist_from_aig(aig) -> Netlist:
    """Snapshot of a live ``repro.aig.AIG``'s gate list."""
    return Netlist(
        inputs=tuple((var, aig.input_names[var]) for var in aig.inputs),
        gates=tuple((gate.out_var, gate.fanin0, gate.fanin1)
                    for gate in aig.gates),
        outputs=tuple(zip(aig.outputs, aig.output_names)))


def netlist_from_wire(wire: Dict) -> Netlist:
    """The same snapshot from an artifact's ``extracted_aig`` record."""
    return Netlist(
        inputs=tuple((var, name) for var, name in wire["inputs"]),
        gates=tuple((out, f0, f1) for out, f0, f1 in wire["gates"]),
        outputs=tuple((lit, name) for lit, name in wire["outputs"]))


def blocks_from_records(records) -> List[Block]:
    """FA blocks from ``FABlockRecord`` objects."""
    return [(tuple(record.inputs), record.sum_lit, record.carry_lit)
            for record in records]


def blocks_from_wire(rows) -> List[Block]:
    """FA blocks from an artifact's ``fa_blocks`` rows."""
    return [(tuple(inputs), sum_lit, carry_lit)
            for inputs, sum_lit, carry_lit in rows]


def operand_pairs(width: int, seed: int, count: int = 192
                  ) -> List[Tuple[int, int]]:
    """Corner cases (0, 1, all-ones crossed) plus ``count`` seeded pairs."""
    top = (1 << width) - 1
    corners = (0, 1, top)
    pairs = [(a, b) for a in corners for b in corners]
    rng = random.Random(f"perfbench-{seed}-{width}")
    pairs += [(rng.getrandbits(width), rng.getrandbits(width))
              for _ in range(count)]
    return pairs


def expected_product(a: int, b: int, width: int, signed: bool) -> int:
    """The ``2*width``-bit product the multiplier must output."""
    if signed:
        a -= (a >> (width - 1)) << width
        b -= (b >> (width - 1)) << width
    return (a * b) & ((1 << (2 * width)) - 1)


class LaneSimulator:
    """Bit-parallel evaluation of one netlist over a batch of operands."""

    def __init__(self, netlist: Netlist, width: int,
                 pairs: Sequence[Tuple[int, int]]) -> None:
        self.netlist = netlist
        self.width = width
        self.pairs = list(pairs)
        self.mask = (1 << len(self.pairs)) - 1
        self.value: Dict[int, int] = {0: 0}
        for var, name in netlist.inputs:
            port, bit = name[0], int(name[1:])
            lanes = 0
            for lane, (a, b) in enumerate(self.pairs):
                lanes |= (((a if port == "a" else b) >> bit) & 1) << lane
            self.value[var] = lanes
        for out_var, fanin0, fanin1 in netlist.gates:
            self.value[out_var] = self.lit(fanin0) & self.lit(fanin1)

    def lit(self, literal: int) -> int:
        lanes = self.value[literal >> 1]
        return lanes ^ self.mask if literal & 1 else lanes

    def products(self) -> List[int]:
        """Per-lane output words; bit ``k`` comes from output ``p<k>``."""
        words = [0] * len(self.pairs)
        for literal, name in self.netlist.outputs:
            bit = int(name[1:])
            lanes = self.lit(literal)
            for lane in range(len(self.pairs)):
                words[lane] |= ((lanes >> lane) & 1) << bit
        return words


def check_product(sim: LaneSimulator, signed: bool, label: str) -> List[str]:
    """The netlist outputs ``a*b`` on every simulated operand pair."""
    names = sorted(name for _, name in sim.netlist.outputs)
    want_names = sorted(f"p{bit}" for bit in range(2 * sim.width))
    if names != want_names:
        return [f"{label}: outputs {names} are not p0..p{2 * sim.width - 1}"]
    for (a, b), word in zip(sim.pairs, sim.products()):
        want = expected_product(a, b, sim.width, signed)
        if word != want:
            return [f"{label}: {a}*{b} gave {word:#x}, want {want:#x}"]
    return []


def check_fa_blocks(sim: LaneSimulator, blocks: Sequence[Block],
                    label: str) -> List[str]:
    """Every FA block has sum = XOR3 and carry = MAJ3 of its inputs."""
    for index, (inputs, sum_lit, carry_lit) in enumerate(blocks):
        x, y, z = (sim.lit(literal) for literal in inputs)
        if sim.lit(sum_lit) != x ^ y ^ z:
            return [f"{label}: FA block {index} sum is not XOR3"]
        if sim.lit(carry_lit) != (x & y) | (x & z) | (y & z):
            return [f"{label}: FA block {index} carry is not MAJ3"]
    return []


def check_netlist(netlist: Netlist, blocks: Sequence[Block], width: int,
                  signed: bool, max_fas: int, seed: int,
                  label: str) -> List[str]:
    """Product, FA blocks and ``0 < exact FAs <= max_fas``."""
    sim = LaneSimulator(netlist, width, operand_pairs(width, seed))
    problems = check_product(sim, signed, label)
    problems += check_fa_blocks(sim, blocks, label)
    if not 0 < len(blocks) <= max_fas:
        problems.append(f"{label}: {len(blocks)} exact FAs outside "
                        f"(0, {max_fas}]")
    return problems


def result_digest(netlist: Netlist, blocks: Sequence[Block]) -> str:
    """Digest of gates, outputs and FA blocks (warm must equal cold)."""
    text = repr((netlist.gates, netlist.outputs, list(blocks)))
    return hashlib.sha256(text.encode()).hexdigest()
