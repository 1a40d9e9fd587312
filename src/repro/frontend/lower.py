"""AST → IR lowering.

Variables are non-SSA: each source variable maps to one virtual register,
and assignments compile to ``mov``. Control flow lowers to the obvious CFG
shapes; ``Label`` starts a fresh block carrying the ``label`` attribute;
``Predict`` lowers to the ``predict`` pseudo-instruction at its program
point. Loop conditions are evaluated in the loop header, so a divergent
trip count shows up as a divergent header branch — the shape the detection
heuristics look for.
"""

from __future__ import annotations

from repro.errors import ParseError, TransformError
from repro.frontend import ast_nodes as A
from repro.ir import Function, IRBuilder, Module, Opcode

_BIN_OPS = {
    "+": Opcode.ADD,
    "-": Opcode.SUB,
    "*": Opcode.MUL,
    "/": Opcode.DIV,
    "%": Opcode.REM,
    "<": Opcode.CMPLT,
    "<=": Opcode.CMPLE,
    ">": Opcode.CMPGT,
    ">=": Opcode.CMPGE,
    "==": Opcode.CMPEQ,
    "!=": Opcode.CMPNE,
    "and": Opcode.AND,
    "or": Opcode.OR,
    "xor": Opcode.XOR,
    "shl": Opcode.SHL,
    "shr": Opcode.SHR,
    "min": Opcode.MIN,
    "max": Opcode.MAX,
    # call-syntax aliases for bitwise ops ('and'/'or' are keywords)
    "bitand": Opcode.AND,
    "bitor": Opcode.OR,
}

_UN_OPS = {
    "-": Opcode.NEG,
    "!": Opcode.NOT,
    "floor": Opcode.FLOOR,
    "sqrt": Opcode.SQRT,
    "sin": Opcode.SIN,
    "cos": Opcode.COS,
    "exp": Opcode.EXP,
    "log": Opcode.LOG,
    "abs": Opcode.ABS,
}

_NULLARY_INTRINSICS = {
    "tid": Opcode.TID,
    "lane": Opcode.LANE,
    "warpid": Opcode.WARPID,
    "rand": Opcode.RAND,
    "ctaid": Opcode.CTAID,
    "ctadim": Opcode.CTADIM,
    "nctas": Opcode.NCTA,
}


#: Every builtin called by name, with its argument count. A call with
#: another count raises :class:`~repro.errors.ParseError` naming the
#: builtin; ``@name(...)`` always calls a user function.
_BUILTIN_ARITY = {
    **dict.fromkeys(_NULLARY_INTRINSICS, 0),
    **{name: 1 for name in _UN_OPS if name.isidentifier()},
    **{name: 2 for name in _BIN_OPS if name.isidentifier()},
    "ld": 1,
    "shld": 1,
    "hash01": 1,
    "atomadd": 2,
    "shatom": 2,
    "shst": 2,
    "fma": 3,
}


def _check_arity(name, args):
    arity = _BUILTIN_ARITY.get(name)
    if arity is not None and len(args) != arity:
        plural = "" if arity == 1 else "s"
        raise ParseError(
            f"builtin {name}() takes {arity} argument{plural}, "
            f"got {len(args)}"
        )


class _FunctionLowerer:
    """Lowers one FuncDecl into an IR Function."""

    def __init__(self, decl, program, module):
        self.decl = decl
        self.program = program
        self.module = module
        self.function = Function(decl.name, is_kernel=decl.is_kernel)
        self.builder = IRBuilder(self.function)
        self.env = {}
        self.loop_stack = []   # (continue_block, break_block)
        self.pending_label = None

    # ------------------------------------------------------------------
    def lower(self):
        self.builder.new_block("entry", switch=True)
        for name in self.decl.params:
            reg = self.function.new_reg(name)
            self.function.params.append(reg)
            self.env[name] = reg
        self.lower_block(self.decl.body)
        current = self.builder.block
        if current.terminator is None:
            if self.decl.is_kernel:
                self.builder.exit()
            else:
                self.builder.ret()
        self._prune_unterminated()
        return self.function

    def _prune_unterminated(self):
        """Give any unterminated block (e.g. after a Break) a terminator."""
        for block in self.function.blocks:
            if block.terminator is None:
                saved = self.builder.block
                self.builder.block = block
                if self.decl.is_kernel:
                    self.builder.exit()
                else:
                    self.builder.ret()
                self.builder.block = saved

    # ------------------------------------------------------------------
    # Expressions
    # ------------------------------------------------------------------
    def lower_expr(self, expr):
        if isinstance(expr, A.Num):
            return self.builder.const(expr.value)
        if isinstance(expr, A.Var):
            reg = self.env.get(expr.name)
            if reg is None:
                raise TransformError(
                    f"@{self.decl.name}: undefined variable {expr.name!r}"
                )
            return reg
        if isinstance(expr, A.Bin):
            opcode = _BIN_OPS.get(expr.op)
            if opcode is None:
                raise TransformError(f"unknown binary op {expr.op!r}")
            left = self.lower_expr(expr.left)
            right = self.lower_expr(expr.right)
            return self.builder.binop(opcode, left, right)
        if isinstance(expr, A.Un):
            opcode = _UN_OPS.get(expr.op)
            if opcode is None:
                raise TransformError(f"unknown unary op {expr.op!r}")
            return self.builder.unop(opcode, self.lower_expr(expr.operand))
        if isinstance(expr, A.CallExpr):
            return self.lower_call(expr)
        raise TransformError(f"cannot lower expression {expr!r}")

    def lower_call(self, expr):
        name, args = expr.name, expr.args
        _check_arity(name, args)
        if name in _NULLARY_INTRINSICS:
            return self.builder._emit_value(_NULLARY_INTRINSICS[name], [], name)
        if name in _UN_OPS:
            return self.builder.unop(_UN_OPS[name], self.lower_expr(args[0]))
        if name in _BIN_OPS:
            # Named binary ops usable in call syntax: min(a,b), max(a,b),
            # xor(a,b), shl(a,b), shr(a,b), and(a,b), or(a,b), mod(a,b)...
            return self.builder.binop(
                _BIN_OPS[name],
                self.lower_expr(args[0]),
                self.lower_expr(args[1]),
            )
        if name == "ld":
            return self.builder.load(self.lower_expr(args[0]))
        if name == "atomadd":
            return self.builder.atom_add(
                self.lower_expr(args[0]), self.lower_expr(args[1])
            )
        if name == "shld":
            return self.builder.shared_load(self.lower_expr(args[0]))
        if name == "shatom":
            return self.builder.shared_atom_add(
                self.lower_expr(args[0]), self.lower_expr(args[1])
            )
        if name == "fma":
            return self.builder.fma(*[self.lower_expr(a) for a in args])
        if name == "hash01":
            # Stateless pseudo-random in [0, 1) derived from the argument:
            # frac(sin(x * 12.9898 + 78.233) * 43758.5453). Deterministic in
            # its input, so task-keyed workloads are schedule-invariant.
            x = self.lower_expr(args[0])
            t = self.builder.fma(x, 12.9898, 78.233)
            s = self.builder.mul(self.builder.unop(Opcode.SIN, t), 43758.5453)
            f = self.builder.unop(Opcode.FLOOR, s)
            return self.builder.unop(Opcode.ABS, self.builder.sub(s, f))
        # User function call.
        if name.startswith("@"):
            name = name[1:]
        try:
            self.program.function(name)
        except KeyError:
            raise TransformError(
                f"@{self.decl.name}: call to unknown function {name!r}"
            ) from None
        values = [self.lower_expr(a) for a in args]
        return self.builder.call(name, values)

    # ------------------------------------------------------------------
    # Statements
    # ------------------------------------------------------------------
    def lower_block(self, blk):
        for stmt in blk.statements:
            self.lower_stmt(stmt)

    def _start_labeled_block(self, label_name, hint):
        """Break the current block so the next statement starts a labeled one."""
        target = self.builder.new_block(hint, attrs={"label": label_name})
        if self.builder.block.terminator is None:
            self.builder.bra(target)
        self.builder.set_block(target)

    def lower_stmt(self, stmt):
        if isinstance(stmt, A.Label):
            self._start_labeled_block(stmt.name, f"L.{stmt.name}")
            self.lower_stmt(stmt.statement)
            return
        if isinstance(stmt, A.Block):
            self.lower_block(stmt)
            return
        if isinstance(stmt, A.Let):
            value = self.lower_expr(stmt.value)
            reg = self.function.new_reg(stmt.name)
            self.env[stmt.name] = reg
            self.builder.mov_to(reg, value)
            return
        if isinstance(stmt, A.Assign):
            reg = self.env.get(stmt.name)
            if reg is None:
                raise TransformError(
                    f"@{self.decl.name}: assignment to undeclared "
                    f"variable {stmt.name!r}"
                )
            self.builder.mov_to(reg, self.lower_expr(stmt.value))
            return
        if isinstance(stmt, A.Store):
            self.builder.store(
                self.lower_expr(stmt.address), self.lower_expr(stmt.value)
            )
            return
        if isinstance(stmt, A.ExprStmt):
            # shst is statement-only, like the 'store' keyword: it produces
            # no value, so it cannot appear inside an expression.
            expr = stmt.expr
            if isinstance(expr, A.CallExpr) and expr.name == "shst":
                _check_arity(expr.name, expr.args)
                self.builder.shared_store(
                    self.lower_expr(expr.args[0]),
                    self.lower_expr(expr.args[1]),
                )
                return
            self.lower_expr(stmt.expr)
            return
        if isinstance(stmt, A.If):
            self._lower_if(stmt)
            return
        if isinstance(stmt, A.While):
            self._lower_while(stmt)
            return
        if isinstance(stmt, A.For):
            self._lower_for(stmt)
            return
        if isinstance(stmt, A.Break):
            if not self.loop_stack:
                raise TransformError("break outside a loop")
            self.builder.bra(self.loop_stack[-1][1])
            self.builder.new_block("after.break", switch=True)
            return
        if isinstance(stmt, A.Continue):
            if not self.loop_stack:
                raise TransformError("continue outside a loop")
            self.builder.bra(self.loop_stack[-1][0])
            self.builder.new_block("after.continue", switch=True)
            return
        if isinstance(stmt, A.Return):
            if self.decl.is_kernel:
                self.builder.exit()
            else:
                value = (
                    self.lower_expr(stmt.value) if stmt.value is not None else None
                )
                self.builder.ret(value)
            self.builder.new_block("after.return", switch=True)
            return
        if isinstance(stmt, A.Predict):
            if stmt.target.startswith("@"):
                self.builder.predict_call(stmt.target[1:])
            else:
                self.builder.predict(stmt.target)
            if stmt.threshold is not None:
                self.builder.block.instructions[-1].attrs["threshold"] = int(
                    stmt.threshold
                )
            return
        if isinstance(stmt, A.Warpsync):
            self.builder.warpsync()
            return
        if isinstance(stmt, A.Ctasync):
            self.builder.ctasync()
            return
        if isinstance(stmt, A.DelayStmt):
            self.builder.delay(stmt.cycles)
            return
        raise TransformError(f"cannot lower statement {stmt!r}")

    def _lower_if(self, stmt):
        cond = self.lower_expr(stmt.cond)
        then_block = self.builder.new_block("then")
        join_block = self.builder.new_block("join")
        if stmt.else_body is not None:
            else_block = self.builder.new_block("else")
            self.builder.cbr(cond, then_block, else_block)
        else:
            self.builder.cbr(cond, then_block, join_block)
        self.builder.set_block(then_block)
        self.lower_block(stmt.then_body)
        if self.builder.block.terminator is None:
            self.builder.bra(join_block)
        if stmt.else_body is not None:
            self.builder.set_block(else_block)
            self.lower_block(stmt.else_body)
            if self.builder.block.terminator is None:
                self.builder.bra(join_block)
        self.builder.set_block(join_block)

    def _lower_while(self, stmt):
        header = self.builder.new_block("while.head")
        body = self.builder.new_block("while.body")
        exit_block = self.builder.new_block("while.exit")
        self.builder.bra(header)
        self.builder.set_block(header)
        cond = self.lower_expr(stmt.cond)
        self.builder.cbr(cond, body, exit_block)
        self.builder.set_block(body)
        self.loop_stack.append((header, exit_block))
        self.lower_block(stmt.body)
        self.loop_stack.pop()
        if self.builder.block.terminator is None:
            self.builder.bra(header)
        self.builder.set_block(exit_block)

    def _lower_for(self, stmt):
        start = self.lower_expr(stmt.start)
        induction = self.function.new_reg(stmt.var)
        self.env[stmt.var] = induction
        self.builder.mov_to(induction, start)
        header = self.builder.new_block("for.head")
        body = self.builder.new_block("for.body")
        latch = self.builder.new_block("for.latch")
        exit_block = self.builder.new_block("for.exit")
        self.builder.bra(header)
        self.builder.set_block(header)
        stop = self.lower_expr(stmt.stop)
        self.builder.cbr(self.builder.lt(induction, stop), body, exit_block)
        self.builder.set_block(body)
        self.loop_stack.append((latch, exit_block))
        self.lower_block(stmt.body)
        self.loop_stack.pop()
        if self.builder.block.terminator is None:
            self.builder.bra(latch)
        self.builder.set_block(latch)
        self.builder.mov_to(induction, self.builder.add(induction, 1))
        self.builder.bra(header)
        self.builder.set_block(exit_block)


def lower_program(program, module_name="program"):
    """Lower a full AST Program to an IR Module."""
    module = Module(module_name)
    for decl in program.functions:
        module.add(_FunctionLowerer(decl, program, module).lower())
    _remove_unreachable_blocks(module)
    return module


def _remove_unreachable_blocks(module):
    """Drop blocks with no path from entry (break/return leftovers)."""
    from repro.analysis.cfg_utils import CFGView, reachable_from

    for function in module:
        view = CFGView.of_function(function)
        keep = reachable_from(view)
        for block in list(function.blocks):
            if block.name not in keep:
                function.remove_block(block.name)


def lower_kernel(decl, program=None, module_name="program"):
    """Lower one kernel declaration (plus helper functions) to a Module."""
    program = program or A.Program(functions=[decl])
    if decl not in program.functions:
        program.functions.append(decl)
    return lower_program(program, module_name=module_name)
