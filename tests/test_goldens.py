"""Golden-trace regression corpus.

Each file under ``tests/goldens/`` freezes one workload's complete
observable behaviour — per-thread store traces, retired-instruction
counts, cycles, SIMT efficiency, and issue counts — for both compile
modes at a fixed seed. Unlike the differential tests (which compare two
live configurations against each other), the goldens catch drift that
affects *every* configuration at once: a cost-model tweak, a compiler
pass reordering, an executor semantics change.

``compile_digests.json`` freezes the compiler's output instead: the
sha256 of the printed module and of the compile report for every
Section 5.4 corpus app (``baseline`` and ``auto``) and every Figure 7
workload (``baseline``, ``sr`` and ``auto``). A compiler change that is
meant to be a pure speed-up must leave it untouched.

``frontend_digests.json`` freezes the front-end's output the same way:
the sha256 of every lowered module (its printed IR and each function's
register and block counters, which name what later passes add) for the
Section 5.4 corpus, every registered workload at its defaults and at the
conformance corpus's parameters, the grid corpus and the example
kernels.

Regenerate deliberately after an intended behaviour change with::

    PYTHONPATH=src python -m pytest tests/test_goldens.py --update-goldens

and review the JSON diff like any other code change.
"""

import hashlib
import json
from pathlib import Path

import pytest

from tests.test_conformance import CORPUS, MODES, _compiled, _launch
from repro.core import ReconvergenceCompiler
from repro.frontend import compile_kernel_source
from repro.ir.printer import format_module
from repro.simt import GPUMachine
from repro.workloads import (
    FIGURE7_WORKLOADS,
    get_workload,
    grid_corpus,
    workload_names,
)
from repro.workloads.corpus import generate_corpus

GOLDEN_DIR = Path(__file__).parent / "goldens"
COMPILE_DIGESTS = GOLDEN_DIR / "compile_digests.json"
FRONTEND_DIGESTS = GOLDEN_DIR / "frontend_digests.json"
EXAMPLE_KERNELS = Path(__file__).parent.parent / "examples" / "kernels"
SEED = 2020


def _capture(name):
    """The JSON-serializable golden record for one workload."""
    workload = get_workload(name, **CORPUS[name])
    record = {
        "workload": name,
        "params": CORPUS[name],
        "seed": SEED,
        "modes": {},
    }
    for mode in MODES:
        compiled = _compiled(workload, mode)
        launch = _launch(workload, compiled, GPUMachine, None, seed=SEED)
        record["modes"][mode] = {
            "store_traces": {
                str(tid): [[addr, value] for addr, value in trace]
                for tid, trace in sorted(launch.store_traces().items())
            },
            "retired": {
                str(tid): n
                for tid, n in sorted(launch.retired_per_thread().items())
            },
            "cycles": launch.cycles,
            "simt_efficiency": launch.simt_efficiency,
            "issued": launch.profiler.issued,
            "barrier_issues": launch.profiler.barrier_issues,
        }
    return record


def _normalize(record):
    """Round-trip through JSON so tuple-vs-list and int-key differences
    between a fresh capture and a loaded golden can't mask (or fake) a
    mismatch."""
    return json.loads(json.dumps(record, sort_keys=True))


@pytest.mark.parametrize("name", sorted(CORPUS))
def test_golden_traces(name, update_goldens):
    path = GOLDEN_DIR / f"{name}.json"
    record = _capture(name)
    if update_goldens:
        GOLDEN_DIR.mkdir(exist_ok=True)
        path.write_text(json.dumps(record, indent=2, sort_keys=True) + "\n")
        return
    assert path.exists(), (
        f"missing golden {path.name}; regenerate with --update-goldens"
    )
    golden = json.loads(path.read_text())
    assert _normalize(record) == golden, (
        f"{name} drifted from its golden trace; if the change is intended, "
        f"rerun with --update-goldens and review the diff"
    )


def test_goldens_cover_full_corpus():
    """Every corpus workload has a committed golden, and no stale goldens
    linger for workloads that left the corpus."""
    committed = {p.stem for p in GOLDEN_DIR.glob("*.json")}
    assert committed - {COMPILE_DIGESTS.stem, FRONTEND_DIGESTS.stem} == set(
        CORPUS
    )


def _digest(text):
    return hashlib.sha256(text.encode()).hexdigest()


def _compile_record(compiled):
    return {
        "module": _digest(format_module(compiled.module)),
        "report": _digest(compiled.report.describe()),
    }


def _capture_compile_digests():
    """Digests of every corpus app and Figure 7 workload compile, by mode."""
    compiler = ReconvergenceCompiler()
    corpus = {}
    for app in generate_corpus():
        corpus[app.name] = {
            mode: _compile_record(compiler.compile(app.module(), mode=mode))
            for mode in ("baseline", "auto")
        }
    figure7 = {}
    for name in FIGURE7_WORKLOADS:
        workload = get_workload(name)
        figure7[name] = {
            mode: _compile_record(compiler.compile(
                workload.module(), mode=mode,
                threshold=workload.sr_threshold,
            ))
            for mode in ("baseline", "sr", "auto")
        }
    return {"corpus": corpus, "figure7": figure7}


def test_compile_output_digests(update_goldens):
    """Every compile prints the same module and report as when the golden
    was recorded. Running this under ``REPRO_VERIFY_EACH_PASS=1`` also
    verifies every intermediate module of every compile."""
    record = _capture_compile_digests()
    if update_goldens:
        COMPILE_DIGESTS.write_text(
            json.dumps(record, indent=1, sort_keys=True) + "\n"
        )
        return
    assert COMPILE_DIGESTS.exists(), (
        f"missing golden {COMPILE_DIGESTS.name}; regenerate with "
        f"--update-goldens"
    )
    golden = json.loads(COMPILE_DIGESTS.read_text())
    assert record.keys() == golden.keys()
    for group in golden:
        assert record[group].keys() == golden[group].keys()
        drifted = sorted(
            f"{name}/{mode}"
            for name, modes in golden[group].items()
            for mode, digests in modes.items()
            if record[group][name].get(mode) != digests
        )
        assert not drifted, (
            f"compile output drifted for {len(drifted)} compiles, "
            f"first {drifted[:5]}; if intended, rerun with --update-goldens"
        )


def _module_digest(module):
    counters = "".join(
        f"; @{fn.name} regs={fn._reg_counter} blocks={fn._block_counter}\n"
        for fn in module
    )
    return _digest(format_module(module) + "\n" + counters)


def _capture_frontend_digests():
    """Digests of every module the front-end lowers for the corpus apps,
    the workloads, the grid apps and the example kernels."""
    workloads = {}
    for name in workload_names():
        workloads[name] = _module_digest(get_workload(name).module())
        if name in CORPUS:
            workloads[f"{name}[conformance]"] = _module_digest(
                get_workload(name, **CORPUS[name]).module()
            )
    return {
        "corpus": {
            app.name: _module_digest(app.module()) for app in generate_corpus()
        },
        "workloads": workloads,
        "grid": {app.name: _module_digest(app.module()) for app in grid_corpus()},
        "examples": {
            path.name: _module_digest(
                compile_kernel_source(path.read_text(), module_name=path.stem)
            )
            for path in sorted(EXAMPLE_KERNELS.glob("*.srk"))
        },
    }


def test_frontend_output_digests(update_goldens):
    """Every kernel source lowers to the same module as when the golden
    was recorded: a front-end change meant as a pure speed-up must leave
    it untouched."""
    record = _capture_frontend_digests()
    if update_goldens:
        FRONTEND_DIGESTS.write_text(
            json.dumps(record, indent=1, sort_keys=True) + "\n"
        )
        return
    assert FRONTEND_DIGESTS.exists(), (
        f"missing golden {FRONTEND_DIGESTS.name}; regenerate with "
        f"--update-goldens"
    )
    golden = json.loads(FRONTEND_DIGESTS.read_text())
    assert record.keys() == golden.keys()
    drifted = sorted(
        f"{group}/{name}"
        for group in golden
        for name in golden[group].keys() | record[group].keys()
        if record[group].get(name) != golden[group].get(name)
    )
    assert not drifted, (
        f"front-end output drifted for {len(drifted)} modules, first "
        f"{drifted[:5]}; if intended, rerun with --update-goldens"
    )
