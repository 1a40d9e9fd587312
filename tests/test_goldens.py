"""Golden-trace regression corpus.

Each file under ``tests/goldens/`` freezes one workload's complete
observable behaviour — per-thread store traces, retired-instruction
counts, cycles, SIMT efficiency, and issue counts — for both compile
modes at a fixed seed. Unlike the differential tests (which compare two
live configurations against each other), the goldens catch drift that
affects *every* configuration at once: a cost-model tweak, a compiler
pass reordering, an executor semantics change.

Regenerate deliberately after an intended behaviour change with::

    PYTHONPATH=src python -m pytest tests/test_goldens.py --update-goldens

and review the JSON diff like any other code change.
"""

import json
from pathlib import Path

import pytest

from tests.test_conformance import CORPUS, MODES, _compiled, _launch
from repro.simt import GPUMachine
from repro.workloads import get_workload

GOLDEN_DIR = Path(__file__).parent / "goldens"
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
    assert committed == set(CORPUS)
