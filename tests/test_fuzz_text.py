"""Malformed kernel text fails with a typed error.

A derandomized mutation fuzz of the two text front-ends: one- and
two-edit mutations of corpus kernel sources go through
``compile_kernel_source``, and mutations of the same kernels' printed IR
through ``parse_module`` and an ``sr`` compile. A mutant may compile, or
fail; every failure must be a :mod:`repro.errors` exception, never a
bare ``TypeError``/``IndexError`` from deep inside a lowering or a pass.
"""

import random
import re

import pytest

from repro.core import compile_sr
from repro.errors import ReproError
from repro.frontend import compile_kernel_source
from repro.ir import parse_module
from repro.ir.printer import format_module
from repro.workloads import get_workload
from repro.workloads.corpus import generate_corpus

#: Mutations per kernel and front-end.
MUTANTS = 150

#: Edit units: whitespace, words (with an IR sigil or dots), numbers,
#: and single other characters.
_PIECES = re.compile(r"\s+|[%$^@]?[A-Za-z_][\w.]*|\d+(?:\.\d+)?|\S")


def _kernels():
    """One corpus app per category, and two Table 2 workloads (memory
    ops, atomics, a device function): ``(name, source)``."""
    seen = {}
    for app in generate_corpus():
        seen.setdefault(app.category, (app.name, app.source))
    kernels = sorted(seen.values())
    for name in ("funccall", "rsbench"):
        kernels.append((name, get_workload(name).source()))
    return kernels


KERNELS = _kernels()


def _mutants(text, seed):
    """``MUTANTS`` texts, each one or two edits away from ``text``: an
    edit deletes a piece, replaces it with another piece of the text, or
    inserts another piece after it."""
    rng = random.Random(seed)
    pieces = _PIECES.findall(text)
    significant = [i for i, piece in enumerate(pieces) if not piece.isspace()]
    for _ in range(MUTANTS):
        edited = list(pieces)
        for _ in range(rng.choice((1, 2))):
            at = rng.choice(significant)
            other = pieces[rng.choice(significant)]
            edit = rng.randrange(3)
            if edit == 0:
                edited[at] = ""
            elif edit == 1:
                edited[at] = other
            else:
                edited[at] = f"{edited[at]} {other}"
        yield "".join(edited)


def _escapes(run, text, seed):
    """The mutants of ``text`` on which ``run`` raised anything but a
    :mod:`repro.errors` exception, described."""
    escapes = []
    for mutant in _mutants(text, seed):
        try:
            run(mutant)
        except ReproError:
            pass
        except Exception as exc:  # noqa: BLE001 - what the test looks for
            escapes.append(f"{type(exc).__name__}: {exc}\n{mutant}")
    return escapes


@pytest.mark.parametrize(
    "name,source", KERNELS, ids=[name for name, _ in KERNELS]
)
class TestTextMutations:
    def test_kernel_source(self, name, source):
        escapes = _escapes(compile_kernel_source, source, seed=name)
        assert not escapes, (
            f"{len(escapes)} of {MUTANTS} mutants escaped; first:\n"
            + escapes[0]
        )

    def test_printed_ir(self, name, source):
        text = format_module(compile_kernel_source(source, module_name=name))
        escapes = _escapes(
            lambda mutant: compile_sr(parse_module(mutant, name=name)),
            text,
            seed=name,
        )
        assert not escapes, (
            f"{len(escapes)} of {MUTANTS} mutants escaped; first:\n"
            + escapes[0]
        )
