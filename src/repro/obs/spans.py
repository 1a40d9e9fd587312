"""Pass-pipeline spans: timed phases with IR before/after deltas.

``ReconvergenceCompiler.compile`` wraps each phase (optimize, pdom-sync,
SR insertion, deconfliction, allocation, verify...) in a :class:`Span`
that records wall time plus the module's shape (blocks / instructions /
barrier instructions) before and after — so a pass report answers "what
did this phase change and what did it cost" at a glance, and the Chrome
trace exporter renders the pipeline on its own track next to the
simulator's events.
"""

from __future__ import annotations

import time
from contextlib import contextmanager
from dataclasses import dataclass
from operator import attrgetter

from repro.ir.instructions import BARRIER_OPS, Opcode

__all__ = ["IRStats", "Span", "SpanRecorder", "module_stats"]


@dataclass(frozen=True)
class IRStats:
    """The shape of a module at one instant."""

    functions: int = 0
    blocks: int = 0
    instructions: int = 0
    barrier_instructions: int = 0

    def delta(self, other):
        """Per-field ``other - self`` as a dict (the span's IR delta)."""
        return {
            "functions": other.functions - self.functions,
            "blocks": other.blocks - self.blocks,
            "instructions": other.instructions - self.instructions,
            "barrier_instructions": (
                other.barrier_instructions - self.barrier_instructions
            ),
        }


#: The opcodes ``Instruction.is_barrier_op`` is true for.
_BARRIER_LIKE = BARRIER_OPS | {Opcode.BMOV}
_opcode = attrgetter("opcode")


def module_stats(module):
    """Count functions/blocks/instructions/barrier-ops of ``module``.

    Runs before and after every pass, so the per-instruction test is a
    C-level ``map`` over opcodes rather than a property call each.
    """
    functions = blocks = instructions = barrier_instructions = 0
    is_barrier = _BARRIER_LIKE.__contains__
    for function in module:
        functions += 1
        blocks += len(function.blocks)
        for block in function.blocks:
            instrs = block.instructions
            instructions += len(instrs)
            barrier_instructions += sum(map(is_barrier, map(_opcode, instrs)))
    return IRStats(
        functions=functions,
        blocks=blocks,
        instructions=instructions,
        barrier_instructions=barrier_instructions,
    )


@dataclass
class Span:
    """One timed pipeline phase."""

    name: str
    start: float            # seconds, relative to the recorder's epoch
    end: float = 0.0
    before: IRStats = None
    after: IRStats = None

    @property
    def duration(self):
        return self.end - self.start

    @property
    def ir_delta(self):
        if self.before is None or self.after is None:
            return {}
        return self.before.delta(self.after)

    def describe(self):
        text = f"{self.name}: {self.duration * 1e3:.2f} ms"
        delta = {k: v for k, v in self.ir_delta.items() if v}
        if delta:
            text += " (" + ", ".join(
                f"{k} {v:+d}" for k, v in sorted(delta.items())
            ) + ")"
        return text

    def to_dict(self):
        return {
            "name": self.name,
            "start": self.start,
            "duration": self.duration,
            "ir_delta": self.ir_delta,
        }


class SpanRecorder:
    """Collects :class:`Span` objects; hand it a module to get IR deltas."""

    def __init__(self, clock=time.perf_counter):
        self._clock = clock
        self._epoch = clock()
        self.spans = []

    @contextmanager
    def span(self, name, module=None, before=None):
        """Time the body as span ``name``; with ``module``, record its
        stats before and after. ``before`` supplies already-known
        before-stats (the previous span's ``after`` when nothing touched
        the module in between) and saves one walk."""
        if before is None and module is not None:
            before = module_stats(module)
        record = Span(name=name, start=self._clock() - self._epoch,
                      before=before)
        try:
            yield record
        finally:
            record.end = self._clock() - self._epoch
            record.after = module_stats(module) if module is not None else None
            self.spans.append(record)

    def describe(self):
        return "\n".join(span.describe() for span in self.spans)
