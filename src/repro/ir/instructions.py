"""Instruction set of the repro IR.

The IR is a register machine over per-thread dynamic values (Python ints and
floats), with explicit control flow (every basic block ends in exactly one
terminator) and Volta-style named convergence-barrier instructions:

* ``bssy``   — join a convergence barrier (paper: ``JoinBarrier`` /
  ``RejoinBarrier``),
* ``bsync``  — wait on a convergence barrier (paper: ``WaitBarrier``),
* ``bbreak`` — withdraw from a convergence barrier (paper: ``CancelBarrier``),
* ``bsync.soft`` — threshold wait used by the soft-barrier lowering (§4.6),
* ``bmov`` / ``barcnt`` — barrier-register copy and arrived-thread count,
  mirroring the barrier-register indirection of Figure 6.

Operands are :class:`Reg`, :class:`Imm`, :class:`Barrier`, :class:`BlockRef`
or :class:`FuncRef`. Branch targets are symbolic block names resolved by the
owning function.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

from repro.errors import IRError


class Opcode(enum.Enum):
    """All opcodes understood by the IR, verifier and simulator."""

    # Data movement / constants.
    CONST = "const"
    MOV = "mov"
    SEL = "sel"

    # Integer / float arithmetic (dynamically typed, like PTX virtual regs).
    ADD = "add"
    SUB = "sub"
    MUL = "mul"
    DIV = "div"
    REM = "rem"
    MIN = "min"
    MAX = "max"
    AND = "and"
    OR = "or"
    XOR = "xor"
    SHL = "shl"
    SHR = "shr"
    NEG = "neg"
    NOT = "not"
    FMA = "fma"

    # Transcendental / unary math (SFU-class latencies).
    SQRT = "sqrt"
    SIN = "sin"
    COS = "cos"
    EXP = "exp"
    LOG = "log"
    FLOOR = "floor"
    ABS = "abs"

    # Comparisons producing 0/1 predicates.
    CMPLT = "cmplt"
    CMPLE = "cmple"
    CMPGT = "cmpgt"
    CMPGE = "cmpge"
    CMPEQ = "cmpeq"
    CMPNE = "cmpne"

    # Thread identity and randomness.
    TID = "tid"
    LANE = "lane"
    WARPID = "warpid"
    RAND = "rand"

    # Grid identity (launch-uniform within one CTA).
    CTAID = "ctaid"
    CTADIM = "ctadim"
    NCTA = "nctas"

    # Memory.
    LD = "ld"
    ST = "st"
    ATOMADD = "atomadd"

    # Per-CTA shared memory.
    SHLD = "shld"
    SHST = "shst"
    SHATOM = "shatom"

    # Control flow (terminators, except CALL).
    BRA = "bra"
    CBR = "cbr"
    RET = "ret"
    EXIT = "exit"
    CALL = "call"

    # Convergence barriers (Volta BSSY / BSYNC / BREAK).
    BSSY = "bssy"
    BSYNC = "bsync"
    BSYNCSOFT = "bsync.soft"
    BBREAK = "bbreak"
    BMOV = "bmov"
    BARCNT = "barcnt"

    # Markers and miscellany.
    PREDICT = "predict"
    WARPSYNC = "warpsync"
    CTASYNC = "ctasync"
    NOP = "nop"
    DELAY = "delay"

    # Members are singletons compared by identity, so identity hashing is
    # consistent with equality and skips Enum.__hash__, a Python-level
    # call made on every ``opcode in SOME_SET`` test.
    __hash__ = object.__hash__


@dataclass(frozen=True)
class Reg:
    """A virtual register, unique by name within a function."""

    name: str

    def __post_init__(self):
        # Register lookups hash a Reg several times per issue slot; cache
        # the dataclass hash (same value, so set orders are unchanged).
        object.__setattr__(self, "_hash", hash((self.name,)))

    def __hash__(self):
        return self._hash

    def __repr__(self):
        return f"%{self.name}"


@dataclass(frozen=True)
class Imm:
    """An immediate integer or float operand."""

    value: object

    def __repr__(self):
        return repr(self.value)


@dataclass(frozen=True)
class Barrier:
    """A named convergence-barrier register (e.g. ``$b0``)."""

    name: str

    def __repr__(self):
        return f"${self.name}"


@dataclass(frozen=True)
class BlockRef:
    """A symbolic reference to a basic block by name (e.g. ``^loop``)."""

    name: str

    def __repr__(self):
        return f"^{self.name}"


@dataclass(frozen=True)
class FuncRef:
    """A symbolic reference to a function by name (e.g. ``@foo``)."""

    name: str

    def __repr__(self):
        return f"@{self.name}"


#: Opcodes that terminate a basic block.
TERMINATORS = frozenset({Opcode.BRA, Opcode.CBR, Opcode.RET, Opcode.EXIT})

#: Binary arithmetic opcodes: dst = op(a, b).
BINARY_OPS = frozenset(
    {
        Opcode.ADD,
        Opcode.SUB,
        Opcode.MUL,
        Opcode.DIV,
        Opcode.REM,
        Opcode.MIN,
        Opcode.MAX,
        Opcode.AND,
        Opcode.OR,
        Opcode.XOR,
        Opcode.SHL,
        Opcode.SHR,
        Opcode.CMPLT,
        Opcode.CMPLE,
        Opcode.CMPGT,
        Opcode.CMPGE,
        Opcode.CMPEQ,
        Opcode.CMPNE,
    }
)

#: Unary arithmetic opcodes: dst = op(a).
UNARY_OPS = frozenset(
    {
        Opcode.MOV,
        Opcode.NEG,
        Opcode.NOT,
        Opcode.SQRT,
        Opcode.SIN,
        Opcode.COS,
        Opcode.EXP,
        Opcode.LOG,
        Opcode.FLOOR,
        Opcode.ABS,
    }
)

#: Opcodes that define their destination register.
HAS_DST = (
    BINARY_OPS
    | UNARY_OPS
    | frozenset(
        {
            Opcode.CONST,
            Opcode.SEL,
            Opcode.FMA,
            Opcode.TID,
            Opcode.LANE,
            Opcode.WARPID,
            Opcode.RAND,
            Opcode.CTAID,
            Opcode.CTADIM,
            Opcode.NCTA,
            Opcode.LD,
            Opcode.ATOMADD,
            Opcode.SHLD,
            Opcode.SHATOM,
            Opcode.BARCNT,
        }
    )
)

#: Barrier-manipulating opcodes (first operand is a barrier or barrier reg).
BARRIER_OPS = frozenset(
    {
        Opcode.BSSY,
        Opcode.BSYNC,
        Opcode.BSYNCSOFT,
        Opcode.BBREAK,
        Opcode.BARCNT,
    }
)

#: Sources of thread-divergent values for the divergence analysis.
DIVERGENT_SOURCES = frozenset(
    {Opcode.TID, Opcode.LANE, Opcode.RAND, Opcode.ATOMADD, Opcode.SHATOM}
)


class Instruction:
    """One IR instruction: ``dst = opcode(operands)`` plus attributes.

    ``attrs`` carries optional provenance metadata. Keys used by the library:

    * ``origin`` — which pass inserted the instruction (``"pdom"``, ``"sr"``,
      ``"soft"``, ``"deconflict"``, ``"frontend"``),
    * ``role`` — paper primitive name (``"join"``, ``"wait"``, ``"rejoin"``,
      ``"cancel"``),
    * ``comment`` — free-form note preserved by the printer.
    """

    __slots__ = ("opcode", "dst", "operands", "attrs")

    def __init__(self, opcode, dst=None, operands=None, attrs=None):
        if not isinstance(opcode, Opcode):
            raise IRError(f"opcode must be an Opcode, got {opcode!r}")
        self.opcode = opcode
        self.dst = dst
        self.operands = list(operands or [])
        self.attrs = dict(attrs or {})

    @property
    def is_terminator(self):
        return self.opcode in TERMINATORS

    @property
    def is_barrier_op(self):
        return self.opcode in BARRIER_OPS or self.opcode is Opcode.BMOV

    def uses(self):
        """Registers read by this instruction."""
        return [op for op in self.operands if isinstance(op, Reg)]

    def defs(self):
        """Registers written by this instruction."""
        return [self.dst] if self.dst is not None else []

    def block_targets(self):
        """Symbolic branch targets (empty for non-branches)."""
        return [op.name for op in self.operands if isinstance(op, BlockRef)]

    def replace_block_target(self, old, new):
        """Rewrite branch targets named ``old`` to ``new``."""
        self.operands = [
            BlockRef(new) if isinstance(op, BlockRef) and op.name == old else op
            for op in self.operands
        ]

    def barrier_operand(self):
        """The barrier operand of a barrier op (``Barrier`` or ``Reg``)."""
        if not self.is_barrier_op:
            raise IRError(f"{self.opcode.value} has no barrier operand")
        if not self.operands:
            raise IRError(f"{self.opcode.value} is missing its barrier operand")
        return self.operands[0]

    def copy(self):
        # The constructor copies operands and attrs.
        return Instruction(self.opcode, self.dst, self.operands, self.attrs)

    def __repr__(self):
        parts = []
        if self.dst is not None:
            parts.append(f"{self.dst!r} = ")
        parts.append(self.opcode.value)
        if self.operands:
            parts.append(" " + ", ".join(repr(op) for op in self.operands))
        return "".join(parts)

    def __eq__(self, other):
        if not isinstance(other, Instruction):
            return NotImplemented
        return (
            self.opcode == other.opcode
            and self.dst == other.dst
            and self.operands == other.operands
        )

    def __hash__(self):
        return hash((self.opcode, self.dst, tuple(self.operands)))


def make(opcode, dst=None, *operands, **attrs):
    """Convenience constructor: ``make(Opcode.ADD, r, a, b, origin="sr")``."""
    return Instruction(opcode, dst=dst, operands=list(operands), attrs=attrs)
