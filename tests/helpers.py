"""Shared builders for the test suite."""

from __future__ import annotations

import os
import signal
from dataclasses import fields

from repro.engine import EngineConfig
from repro.ir import Function, IRBuilder, Module

ENGINE_FIELDS = frozenset(field.name for field in fields(EngineConfig))


def split_engine(kwargs):
    """Split keyword arguments into ``engine_config`` overrides and the
    rest (machine arguments)."""
    engine = {k: v for k, v in kwargs.items() if k in ENGINE_FIELDS}
    rest = {k: v for k, v in kwargs.items() if k not in ENGINE_FIELDS}
    return engine, rest


def simple_kernel(name="k", body=None):
    """A kernel with a single block: body(builder) then exit."""
    module = Module("test")
    fn = Function(name, is_kernel=True)
    module.add(fn)
    builder = IRBuilder(fn)
    builder.new_block("entry", switch=True)
    if body is not None:
        body(builder)
    builder.exit()
    return module


def diamond_function(divergent=True):
    """entry -> (then|else) -> join -> exit, with an optionally divergent
    branch predicate."""
    module = Module("test")
    fn = Function("k", is_kernel=True)
    module.add(fn)
    b = IRBuilder(fn)
    b.new_block("entry", switch=True)
    pred_src = b.tid() if divergent else b.const(1)
    pred = b.lt(pred_src, 16)
    then_block = b.new_block("then")
    else_block = b.new_block("else")
    join = b.new_block("join")
    b.cbr(pred, then_block, else_block)
    b.set_block(then_block)
    b.const(1.0, hint="x")
    b.bra(join)
    b.set_block(else_block)
    b.const(2.0, hint="y")
    b.bra(join)
    b.set_block(join)
    b.store(b.tid(), 0.0)
    b.exit()
    return module, fn


def loop_function(trip_reg_divergent=True, n=4):
    """entry -> head -> body -> head; head -> exit. Divergent or uniform
    trip count."""
    module = Module("test")
    fn = Function("k", is_kernel=True)
    module.add(fn)
    b = IRBuilder(fn)
    b.new_block("entry", switch=True)
    tid = b.tid()
    limit = b.add(b.rem(tid, n), 1) if trip_reg_divergent else b.const(n)
    i = b.mov(0, hint="i")
    head = b.new_block("head")
    body = b.new_block("body")
    exit_block = b.new_block("exit")
    b.bra(head)
    b.set_block(head)
    b.cbr(b.lt(i, limit), body, exit_block)
    b.set_block(body)
    b.mov_to(i, b.add(i, 1))
    b.bra(head)
    b.set_block(exit_block)
    b.store(tid, i)
    b.exit()
    return module, fn


def listing1_module(n_iters=16, expensive=12, prob=0.25, with_predict=True):
    """The paper's Listing 1: loop with a divergent condition guarding an
    expensive then-block, labeled L1."""
    module = Module("listing1")
    fn = Function("k", is_kernel=True)
    module.add(fn)
    b = IRBuilder(fn)
    b.new_block("entry", switch=True)
    tid = b.tid()
    i = b.mov(0, hint="i")
    acc = b.mov(0.0, hint="acc")
    if with_predict:
        b.predict("L1")
    head = b.new_block("head")
    prolog = b.new_block("prolog")
    then_block = b.new_block("then", attrs={"label": "L1"})
    epilog = b.new_block("epilog")
    exit_block = b.new_block("exit")
    b.bra(head)
    b.set_block(head)
    b.cbr(b.lt(i, n_iters), prolog, exit_block)
    b.set_block(prolog)
    cond = b.lt(b.rand(), prob)
    b.cbr(cond, then_block, epilog)
    b.set_block(then_block)
    for _ in range(expensive):
        b.mov_to(acc, b.fma(acc, 1.0000001, 0.5))
    b.bra(epilog)
    b.set_block(epilog)
    b.mov_to(i, b.add(i, 1))
    b.bra(head)
    b.set_block(exit_block)
    b.store(tid, acc)
    b.exit()
    return module


def loop_merge_source(tasks=6, trip_hi=24, inner_fma=8, epilog_fma=2):
    """Textual Loop Merge kernel used across tests."""
    body = "\n".join(
        "            acc = fma(acc, 1.0000001, 0.5);" for _ in range(inner_fma)
    )
    epilog = "\n".join(
        "        acc = fma(acc, 0.999, 0.01);" for _ in range(epilog_fma)
    )
    return f"""
kernel lm(n_tasks) {{
    let acc = 0.0;
    let t = tid();
    predict L1;
    while (t < n_tasks) {{
        let u = hash01(t * 1.7);
        let trips = floor(u * u * {trip_hi}.0) + 1;
        let j = 0;
        while (j < trips) {{
            label L1: acc = fma(acc, 1.0000001, 0.5);
{body}
            j = j + 1;
        }}
{epilog}
        t = t + 32;
    }}
    store(tid(), acc);
}}
"""


def die_in_worker(kind):
    """End the calling process abruptly: ``os._exit(3)`` for ``"exit"``,
    a self-sent ``SIGKILL`` for ``"sigkill"``. A pool task that kills
    its worker."""
    if kind == "exit":
        os._exit(3)
    os.kill(os.getpid(), signal.SIGKILL)


class DiesWhenUnpickled:
    """A task argument that kills whichever process unpickles it: passed
    to a pool, it takes down the worker that receives the task."""

    def __init__(self, kind):
        self.kind = kind

    def __reduce__(self):
        return die_in_worker, (self.kind,)
