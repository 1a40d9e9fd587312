"""Recursive-descent parser for the textual kernel language.

Grammar sketch::

    program    := function*
    function   := ('kernel' | 'func') NAME '(' params? ')' block
    block      := '{' statement* '}'
    statement  := 'let' NAME '=' expr ';'
                | NAME '=' expr ';'
                | 'store' '(' expr ',' expr ')' ';'
                | 'if' '(' expr ')' block ('else' block)?
                | 'while' '(' expr ')' block
                | 'for' NAME 'in' expr '..' expr block
                | 'break' ';'  |  'continue' ';'
                | 'return' expr? ';'
                | 'predict' (NAME | @NAME) (',' NUMBER)? ';'
                | 'label' NAME ':' statement
                | 'warpsync' ';'
                | 'ctasync' ';'
                | 'delay' '(' NUMBER ')' ';'
                | expr ';'
    expr       := or_expr; standard precedence with 'and'/'or', comparisons,
                  additive, multiplicative, unary, call/parenthesized atoms.

Example::

    kernel axpy(n) {
        let i = tid();
        if (i < n) { store(i, ld(i) * 2.0 + 1.0); }
    }
"""

from __future__ import annotations

from repro.errors import ParseError
from repro.frontend import ast_nodes as A
from repro.frontend.lexer import tokenize

_COMPARISONS = ("<", "<=", ">", ">=", "==", "!=")


class _Parser:
    def __init__(self, tokens):
        self.tokens = tokens
        self.index = 0
        #: The current token, ``tokens[index]`` (the last is ``eof``,
        #: which ``next`` never moves past).
        self.token = tokens[0]

    # -- token plumbing -------------------------------------------------
    def peek(self, offset=0):
        if not offset:
            return self.token
        return self.tokens[min(self.index + offset, len(self.tokens) - 1)]

    def next(self):
        token = self.token
        if token.kind != "eof":
            self.index += 1
            self.token = self.tokens[self.index]
        return token

    def accept(self, kind, text=None):
        token = self.token
        if token.kind == kind and (text is None or token.text == text):
            return self.next()
        return None

    def expect(self, kind, text=None):
        token = self.next()
        if token.kind != kind or (text is not None and token.text != text):
            want = text or kind
            raise ParseError(
                f"expected {want!r}, got {token.text!r}", line=token.line
            )
        return token

    # -- declarations ---------------------------------------------------
    def parse_program(self):
        functions = []
        while self.token.kind != "eof":
            functions.append(self.parse_function())
        return A.Program(functions=functions)

    def parse_function(self):
        keyword = self.next()
        if keyword.kind != "keyword" or keyword.text not in ("kernel", "func"):
            raise ParseError(
                f"expected 'kernel' or 'func', got {keyword.text!r}",
                line=keyword.line,
            )
        name = self.expect("name").text
        self.expect("op", "(")
        params = []
        while not self.accept("op", ")"):
            params.append(self.expect("name").text)
            self.accept("op", ",")
        body = self.parse_block()
        return A.FuncDecl(
            name=name, params=params, body=body, is_kernel=keyword.text == "kernel"
        )

    # -- statements -----------------------------------------------------
    def parse_block(self):
        self.expect("op", "{")
        statements = []
        while not self.accept("op", "}"):
            statements.append(self.parse_statement())
        return A.Block(statements)

    def parse_statement(self):
        token = self.token
        if token.kind == "keyword":
            handler = _STATEMENTS.get(token.text)
            if handler is not None:
                return handler(self)
        if token.kind == "name" and self.peek(1)[:2] == ("op", "="):
            name = self.next().text
            self.expect("op", "=")
            value = self.parse_expr()
            self.expect("op", ";")
            return A.Assign(name, value)
        expr = self.parse_expr()
        self.expect("op", ";")
        return A.ExprStmt(expr)

    def _stmt_let(self):
        self.next()
        name = self.expect("name").text
        self.expect("op", "=")
        value = self.parse_expr()
        self.expect("op", ";")
        return A.Let(name, value)

    def _stmt_store(self):
        self.next()
        self.expect("op", "(")
        address = self.parse_expr()
        self.expect("op", ",")
        value = self.parse_expr()
        self.expect("op", ")")
        self.expect("op", ";")
        return A.Store(address, value)

    def _stmt_if(self):
        self.next()
        self.expect("op", "(")
        cond = self.parse_expr()
        self.expect("op", ")")
        then_body = self.parse_block()
        else_body = None
        if self.accept("keyword", "else"):
            else_body = self.parse_block()
        return A.If(cond, then_body, else_body)

    def _stmt_while(self):
        self.next()
        self.expect("op", "(")
        cond = self.parse_expr()
        self.expect("op", ")")
        return A.While(cond, self.parse_block())

    def _stmt_for(self):
        self.next()
        var = self.expect("name").text
        self.expect("keyword", "in")
        start = self.parse_expr()
        self.expect("op", "..")
        stop = self.parse_expr()
        return A.For(var, start, stop, self.parse_block())

    def _stmt_break(self):
        self.next()
        self.expect("op", ";")
        return A.Break()

    def _stmt_continue(self):
        self.next()
        self.expect("op", ";")
        return A.Continue()

    def _stmt_return(self):
        self.next()
        if self.accept("op", ";"):
            return A.Return(None)
        value = self.parse_expr()
        self.expect("op", ";")
        return A.Return(value)

    def _stmt_predict(self):
        self.next()
        token = self.next()
        if token.kind == "at":
            target = token.text  # "@foo"
        elif token.kind == "name":
            target = token.text
        else:
            raise ParseError(
                f"predict needs a label or @function, got {token.text!r}",
                line=token.line,
            )
        threshold = None
        if self.accept("op", ","):
            threshold = int(self.expect("number").text)
        self.expect("op", ";")
        return A.Predict(target, threshold)

    def _stmt_label(self):
        self.next()
        name = self.expect("name").text
        self.expect("op", ":")
        return A.Label(name, self.parse_statement())

    def _stmt_warpsync(self):
        self.next()
        self.expect("op", ";")
        return A.Warpsync()

    def _stmt_ctasync(self):
        self.next()
        self.expect("op", ";")
        return A.Ctasync()

    def _stmt_delay(self):
        self.next()
        self.expect("op", "(")
        cycles = int(float(self.expect("number").text))
        self.expect("op", ")")
        self.expect("op", ";")
        return A.DelayStmt(cycles)

    # -- expressions ----------------------------------------------------
    def parse_expr(self):
        return self._parse_or()

    def _parse_or(self):
        node = self._parse_and()
        while self.accept("keyword", "or"):
            node = A.Bin("or", node, self._parse_and())
        return node

    def _parse_and(self):
        node = self._parse_cmp()
        while self.accept("keyword", "and"):
            node = A.Bin("and", node, self._parse_cmp())
        return node

    def _parse_cmp(self):
        node = self._parse_add()
        token = self.token
        if token.kind == "op" and token.text in _COMPARISONS:
            self.next()
            node = A.Bin(token.text, node, self._parse_add())
        return node

    def _parse_add(self):
        node = self._parse_mul()
        while True:
            token = self.token
            if token.kind == "op" and token.text in ("+", "-"):
                self.next()
                node = A.Bin(token.text, node, self._parse_mul())
            else:
                return node

    def _parse_mul(self):
        node = self._parse_unary()
        while True:
            token = self.token
            if token.kind == "op" and token.text in ("*", "/", "%"):
                self.next()
                node = A.Bin(token.text, node, self._parse_unary())
            else:
                return node

    def _parse_unary(self):
        token = self.token
        if token.kind == "op" and token.text in ("-", "!"):
            self.next()
            return A.Un(token.text, self._parse_unary())
        return self._parse_atom()

    def _parse_atom(self):
        token = self.next()
        if token.kind == "number":
            text = token.text
            value = float(text) if any(c in text for c in ".eE") else int(text)
            return A.Num(value)
        if token.kind == "at":
            # @foo(args): explicit user-function call.
            name = token.text
            self.expect("op", "(")
            return A.CallExpr(name, self._parse_args())
        if token.kind == "name":
            if self.accept("op", "("):
                return A.CallExpr(token.text, self._parse_args())
            return A.Var(token.text)
        if token.kind == "op" and token.text == "(":
            node = self.parse_expr()
            self.expect("op", ")")
            return node
        raise ParseError(f"unexpected token {token.text!r}", line=token.line)

    def _parse_args(self):
        args = []
        while not self.accept("op", ")"):
            args.append(self.parse_expr())
            self.accept("op", ",")
        return args


#: Statement keyword -> its parse method.
_STATEMENTS = {
    name[len("_stmt_"):]: method
    for name, method in vars(_Parser).items()
    if name.startswith("_stmt_")
}


def parse_kernel_source(source):
    """Parse kernel-language source text into an AST Program."""
    return _Parser(tokenize(source)).parse_program()


def compile_kernel_source(source, module_name="program"):
    """Parse and lower kernel-language source to an IR Module."""
    from repro.frontend.lower import lower_program

    return lower_program(parse_kernel_source(source), module_name=module_name)
