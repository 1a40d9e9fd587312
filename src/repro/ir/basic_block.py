"""Basic blocks: named straight-line instruction sequences.

A block's successors are derived from its terminator's symbolic targets;
predecessor sets are maintained by the owning :class:`repro.ir.Function`.

Blocks carry an ``attrs`` dict. Keys used by the library:

* ``label`` — source-level reconvergence label (target of ``Predict``),
* ``region_start`` — True if a prediction region starts here,
* ``comment`` — free-form note preserved by the printer.
"""

from __future__ import annotations

from repro.errors import IRError
from repro.ir.instructions import Instruction, Opcode


class BasicBlock:
    """A named basic block inside a function."""

    def __init__(self, name, function=None, attrs=None):
        self.name = name
        self.function = function
        self.instructions = []
        self.attrs = dict(attrs or {})

    # ------------------------------------------------------------------
    # Structure queries
    # ------------------------------------------------------------------
    @property
    def terminator(self):
        """The block's terminator, or None if the block is unterminated."""
        if self.instructions and self.instructions[-1].is_terminator:
            return self.instructions[-1]
        return None

    def successor_names(self):
        term = self.terminator
        if term is None:
            return []
        return term.block_targets()

    def successors(self):
        """Successor BasicBlock objects (requires an owning function)."""
        if self.function is None:
            raise IRError(f"block {self.name} is not attached to a function")
        return [self.function.block(name) for name in self.successor_names()]

    @property
    def label(self):
        """Source-level reconvergence label attached to this block, if any."""
        return self.attrs.get("label")

    # ------------------------------------------------------------------
    # Mutation
    # ------------------------------------------------------------------
    def append(self, instr):
        """Append an instruction; refuses to add past a terminator."""
        if not isinstance(instr, Instruction):
            raise IRError(f"expected Instruction, got {instr!r}")
        if self.terminator is not None:
            raise IRError(f"block {self.name} already terminated; cannot append")
        self.instructions.append(instr)
        return instr

    def insert(self, index, instr):
        """Insert an instruction at ``index`` (may not displace terminator rule)."""
        if not isinstance(instr, Instruction):
            raise IRError(f"expected Instruction, got {instr!r}")
        if instr.is_terminator and index != len(self.instructions):
            raise IRError("terminators may only be appended at block end")
        self.instructions.insert(index, instr)
        return instr

    def prepend(self, instr):
        """Insert an instruction at the top of the block."""
        return self.insert(0, instr)

    def insert_before_terminator(self, instr):
        """Insert just before the terminator (or append if unterminated)."""
        if self.terminator is None:
            return self.append(instr)
        return self.insert(len(self.instructions) - 1, instr)

    def remove(self, instr):
        self.instructions.remove(instr)

    def index_of(self, instr):
        for i, existing in enumerate(self.instructions):
            if existing is instr:
                return i
        raise IRError(f"instruction {instr!r} not in block {self.name}")

    # ------------------------------------------------------------------
    # Misc
    # ------------------------------------------------------------------
    def copy_into(self, function):
        """Deep-copy this block into ``function`` (same name)."""
        clone = BasicBlock(self.name, function=function, attrs=self.attrs)
        clone.instructions = [instr.copy() for instr in self.instructions]
        return clone

    def __iter__(self):
        return iter(self.instructions)

    def __len__(self):
        return len(self.instructions)

    def __repr__(self):
        return f"<BasicBlock {self.name} ({len(self.instructions)} instrs)>"


def count_static_instructions(blocks, *, ignore=frozenset({Opcode.NOP, Opcode.PREDICT})):
    """Total instruction count over ``blocks``, skipping marker opcodes."""
    return sum(
        1
        for block in blocks
        for instr in block.instructions
        if instr.opcode not in ignore
    )
