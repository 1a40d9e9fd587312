"""Instruction latency model.

Latencies are issue-slot costs in cycles, loosely shaped after Volta-class
throughput ratios (ALU 1, SFU transcendentals ~4, DIV ~8, global LD ~20 with
a per-extra-segment coalescing penalty). Absolute values are not calibrated
to silicon — only relative shape matters for reproducing the paper's trends.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.ir.instructions import Opcode

_DEFAULT_LATENCIES = {
    Opcode.CONST: 1,
    Opcode.MOV: 1,
    Opcode.SEL: 1,
    Opcode.ADD: 1,
    Opcode.SUB: 1,
    Opcode.MUL: 1,
    Opcode.DIV: 8,
    Opcode.REM: 8,
    Opcode.MIN: 1,
    Opcode.MAX: 1,
    Opcode.AND: 1,
    Opcode.OR: 1,
    Opcode.XOR: 1,
    Opcode.SHL: 1,
    Opcode.SHR: 1,
    Opcode.NEG: 1,
    Opcode.NOT: 1,
    Opcode.FMA: 1,
    Opcode.SQRT: 4,
    Opcode.SIN: 4,
    Opcode.COS: 4,
    Opcode.EXP: 4,
    Opcode.LOG: 4,
    Opcode.FLOOR: 1,
    Opcode.ABS: 1,
    Opcode.CMPLT: 1,
    Opcode.CMPLE: 1,
    Opcode.CMPGT: 1,
    Opcode.CMPGE: 1,
    Opcode.CMPEQ: 1,
    Opcode.CMPNE: 1,
    Opcode.TID: 1,
    Opcode.LANE: 1,
    Opcode.WARPID: 1,
    Opcode.RAND: 2,
    Opcode.CTAID: 1,
    Opcode.CTADIM: 1,
    Opcode.NCTA: 1,
    Opcode.LD: 20,
    Opcode.ST: 4,
    Opcode.ATOMADD: 20,
    # Shared memory: on-chip, no coalescing model — flat latency well under
    # the global LD/ST/ATOMADD costs.
    Opcode.SHLD: 4,
    Opcode.SHST: 2,
    Opcode.SHATOM: 6,
    Opcode.BRA: 1,
    Opcode.CBR: 1,
    Opcode.RET: 2,
    Opcode.EXIT: 1,
    Opcode.CALL: 2,
    Opcode.BSSY: 1,
    Opcode.BSYNC: 1,
    Opcode.BSYNCSOFT: 1,
    Opcode.BBREAK: 1,
    Opcode.BMOV: 1,
    Opcode.BARCNT: 1,
    Opcode.PREDICT: 0,
    Opcode.WARPSYNC: 1,
    Opcode.CTASYNC: 1,
    Opcode.NOP: 1,
    Opcode.DELAY: 0,  # cost comes from the immediate operand
}


@dataclass
class CostModel:
    """Per-opcode latencies plus the memory coalescing model.

    A memory access by ``n`` active lanes touching ``s`` distinct
    ``segment_words``-sized segments costs ``base + (s - 1) * segment_cost``
    cycles. The base models per-instruction issue + latency exposure (what
    divergent serialization wastes: each extra issue pays it again); the
    per-segment increment models bandwidth, which is conserved no matter
    how the lanes are scheduled. Keeping the increment small relative to
    the base is what lets repacking amortize gather latency, the effect
    that makes memory-bound XSBench profitable on real hardware.
    """

    latencies: dict = field(default_factory=lambda: dict(_DEFAULT_LATENCIES))
    segment_words: int = 8          # 32-byte segments of 4-byte words
    load_segment_cost: int = 2
    store_segment_cost: int = 2

    def latency(self, opcode):
        return self.latencies.get(opcode, 1)

    def memory_cost(self, opcode, addresses):
        """Cycles for a LD/ST/ATOMADD over the active lanes' addresses."""
        base = self.latency(opcode)
        if not addresses:
            return base
        segments = {int(addr) // self.segment_words for addr in addresses}
        per_segment = (
            self.store_segment_cost
            if opcode is Opcode.ST
            else self.load_segment_cost
        )
        return base + (len(segments) - 1) * per_segment

    def scaled(self, factor):
        """A copy with all latencies scaled (for sensitivity studies)."""
        clone = CostModel(
            latencies={
                # Nonzero latencies never scale below one cycle.
                op: (max(1, int(round(lat * factor))) if lat > 0 else 0)
                for op, lat in self.latencies.items()
            },
            segment_words=self.segment_words,
            load_segment_cost=self.load_segment_cost,
            store_segment_cost=self.store_segment_cost,
        )
        return clone


DEFAULT_COST_MODEL = CostModel()


def cost_key(cost_model):
    """Every field value of ``cost_model`` as one hashable tuple."""
    return (
        tuple(sorted((op.value, lat) for op, lat in cost_model.latencies.items())),
        cost_model.segment_words,
        cost_model.load_segment_cost,
        cost_model.store_segment_cost,
    )
