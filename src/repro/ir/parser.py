"""Textual IR parser (inverse of :mod:`repro.ir.printer`).

Grammar (line-oriented)::

    module    := function*
    function  := 'func' '@' NAME '(' params? ')' 'kernel'? '{' block+ '}'
    block     := NAME ':' attrs? NEWLINE instruction*
    instr     := ('%' NAME '=')? OPCODE operands? attrs?
    operand   := '%' NAME | '$' NAME | '^' NAME | '@' NAME | NUMBER
    attrs     := '!{' NAME '=' value (',' NAME '=' value)* '}'
"""

from __future__ import annotations

import re

from repro.errors import ParseError
from repro.ir.basic_block import BasicBlock
from repro.ir.function import Function, Module
from repro.ir.instructions import (
    Barrier,
    BlockRef,
    FuncRef,
    Imm,
    Instruction,
    Opcode,
    Reg,
)
from repro.ir.verifier import verify_module

_OPCODES_BY_NAME = {op.value: op for op in Opcode}

_TOKEN_RE = re.compile(
    r"""
    (?P<ws>\s+)
  | (?P<comment>;[^\n]*)
  | (?P<string>"(?:[^"\\]|\\.)*")
  | (?P<number>-?\d+\.\d+(?:[eE][+-]?\d+)?|-?\d+[eE][+-]?\d+|-?\d+)
  | (?P<sigil>[%$^@])
  | (?P<attrs>!\{)
  | (?P<punct>[(){}=:,])
  | (?P<name>[A-Za-z_][A-Za-z0-9_.\-]*)
    """,
    re.VERBOSE,
)


class _Lexer:
    """Tokenizes the IR text, tracking line numbers for error messages."""

    def __init__(self, text):
        self.tokens = []
        line = 1
        pos = 0
        while pos < len(text):
            match = _TOKEN_RE.match(text, pos)
            if match is None:
                raise ParseError(f"unexpected character {text[pos]!r}", line=line)
            kind = match.lastgroup
            value = match.group()
            line += value.count("\n")
            if kind not in ("ws", "comment"):
                self.tokens.append((kind, value, line))
            pos = match.end()
        self.index = 0

    def peek(self):
        if self.index < len(self.tokens):
            return self.tokens[self.index]
        return ("eof", "", -1)

    def next(self):
        token = self.peek()
        self.index += 1
        return token

    def expect(self, kind, value=None):
        token = self.next()
        if token[0] != kind or (value is not None and token[1] != value):
            want = value or kind
            raise ParseError(f"expected {want!r}, got {token[1]!r}", line=token[2])
        return token

    def accept(self, kind, value=None):
        token = self.peek()
        if token[0] == kind and (value is None or token[1] == value):
            self.index += 1
            return token
        return None


def _parse_number(text):
    if re.fullmatch(r"-?\d+", text):
        return int(text)
    return float(text)


def _parse_attr_value(lexer):
    token = lexer.next()
    kind, value, line = token
    if kind == "string":
        return value[1:-1].replace('\\"', '"')
    if kind == "number":
        return _parse_number(value)
    if kind == "name" and value in ("true", "false"):
        return value == "true"
    raise ParseError(f"bad attribute value {value!r}", line=line)


def _parse_attrs(lexer):
    """Parse ``!{k=v, ...}`` if present; returns a dict."""
    attrs = {}
    if not lexer.accept("attrs"):
        return attrs
    while True:
        key = lexer.expect("name")[1]
        lexer.expect("punct", "=")
        attrs[key] = _parse_attr_value(lexer)
        if lexer.accept("punct", ","):
            continue
        lexer.expect("punct", "}")
        break
    return attrs


def _parse_operand(lexer):
    token = lexer.next()
    kind, value, line = token
    if kind == "sigil":
        name = lexer.expect("name")[1]
        if value == "%":
            return Reg(name)
        if value == "$":
            return Barrier(name)
        if value == "^":
            return BlockRef(name)
        if value == "@":
            return FuncRef(name)
    if kind == "number":
        return Imm(_parse_number(value))
    raise ParseError(f"bad operand {value!r}", line=line)


def _parse_instruction(lexer):
    dst = None
    if lexer.peek()[:2] == ("sigil", "%"):
        # Could be `%dst = op ...`; registers never begin instructions
        # otherwise, so a leading % always introduces a destination.
        lexer.next()
        dst = Reg(lexer.expect("name")[1])
        lexer.expect("punct", "=")
    token = lexer.expect("name")
    opcode_name = token[1]
    # `bsync.soft` lexes as a single name thanks to '.' in NAME.
    opcode = _OPCODES_BY_NAME.get(opcode_name)
    if opcode is None:
        raise ParseError(f"unknown opcode {opcode_name!r}", line=token[2])
    operands = []
    while lexer.peek()[0] in ("sigil", "number"):
        # `%name =` is the next instruction's destination, not an operand.
        if lexer.peek()[:2] == ("sigil", "%"):
            after = (
                lexer.tokens[lexer.index + 2][:2]
                if lexer.index + 2 < len(lexer.tokens)
                else ("eof", "")
            )
            if after == ("punct", "="):
                break
        operands.append(_parse_operand(lexer))
        if not lexer.accept("punct", ","):
            break
    attrs = _parse_attrs(lexer)
    return Instruction(opcode, dst=dst, operands=operands, attrs=attrs)


def _at_block_header(lexer):
    """A block header is `NAME ':'`."""
    token = lexer.peek()
    if token[0] != "name":
        return False
    nxt = (
        lexer.tokens[lexer.index + 1]
        if lexer.index + 1 < len(lexer.tokens)
        else ("eof", "", -1)
    )
    return nxt[:2] == ("punct", ":")


def _parse_function(lexer):
    lexer.expect("name", "func")
    lexer.expect("sigil", "@")
    name = lexer.expect("name")[1]
    lexer.expect("punct", "(")
    params = []
    while not lexer.accept("punct", ")"):
        lexer.expect("sigil", "%")
        params.append(Reg(lexer.expect("name")[1]))
        lexer.accept("punct", ",")
    is_kernel = lexer.accept("name", "kernel") is not None
    function = Function(name, params=params, is_kernel=is_kernel)
    lexer.expect("punct", "{")
    while not lexer.accept("punct", "}"):
        if not _at_block_header(lexer):
            token = lexer.peek()
            raise ParseError(
                f"expected block header, got {token[1]!r}", line=token[2]
            )
        block_name = lexer.expect("name")[1]
        lexer.expect("punct", ":")
        attrs = _parse_attrs(lexer)
        block = BasicBlock(block_name, attrs=attrs)
        function.add_block(block)
        while lexer.peek()[0] != "eof" and not _at_block_header(lexer):
            if lexer.peek()[:2] == ("punct", "}"):
                break
            block.instructions.append(_parse_instruction(lexer))
    return function


def parse_module(text, name="module"):
    """Parse a full module from IR text and verify it (everything but
    definitions before uses, which the simulator checks per read): text
    that parses but is not well-formed IR, such as a ``cbr`` with one
    target, raises :class:`~repro.errors.VerifierError` here rather
    than failing inside a later pass."""
    lexer = _Lexer(text)
    module = Module(name)
    while lexer.peek()[0] != "eof":
        module.add(_parse_function(lexer))
    verify_module(module, check_defs=False)
    return module


def parse_function(text):
    """Parse a single function from IR text."""
    module = parse_module(text)
    functions = list(module)
    if len(functions) != 1:
        raise ParseError(f"expected exactly one function, got {len(functions)}")
    return functions[0]
