"""Grid-sized corpus variants: divergent kernels at 10^5+ threads.

The Table 2 workloads run a handful of warps — enough to reproduce the
paper's per-warp SIMT-efficiency trends, far too small to exercise the
grid launch hierarchy. This corpus scales the same divergence *shapes*
(path-length divergence, branchy control flow) to grid scale: each app
launches ``GRID_DIM x CTA_DIM = 100,352`` threads, writes one cell per
global tid, and keeps its memory footprint provably CTA-disjoint so
:class:`repro.simt.grid.GridLaunch` may shard CTAs across the worker pool.

Kernels deliberately avoid ``ctaid()``/shared memory: every app must be
*launch-shape invariant* — a flat ``GPUMachine.launch`` of all 10^5
threads produces bit-identical per-thread store traces to any grid
factorization of the same range. That equality is what
``tests/test_grid.py::TestGridCorpus`` pins at a reduced grid, for the
flat, serial-grid and pool-sharded launches; perfbench's ``grid``
workload times the full grid (CTA-cooperative kernels are exercised by
the conformance and grid test suites instead, where serial-vs-sharded
parity is the oracle).

These apps live in their own registry, not the Table 2 one: every
existing sweep iterates ``workload_names()``, and a 10^5-thread app
there would multiply the cost of each of those benchmarks by ~400x.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.errors import WorkloadError
from repro.frontend.parser import compile_kernel_source

#: The default grid factorization: 392 CTAs x 256 threads = 100,352.
GRID_CTA_DIM = 256
GRID_GRID_DIM = 392

GRID_REGISTRY = {}


@dataclass
class GridApp:
    """One grid-scale application: source, kernel entry, memory setup."""

    name: str
    source: str
    kernel_name: str
    #: words of output per thread (the setup allocates n_threads * this)
    out_words_per_thread: int = 1
    _module: object = field(default=None, repr=False)

    def module(self):
        if self._module is None:
            self._module = compile_kernel_source(
                self.source, module_name=self.name
            )
        return self._module

    def setup(self, memory, n_threads):
        """Allocate the output region; returns the kernel argument tuple."""
        out = memory.alloc(n_threads * self.out_words_per_thread, name="out")
        return (out,)


def _register(app):
    if app.name in GRID_REGISTRY:
        raise WorkloadError(f"duplicate grid app name {app.name!r}")
    GRID_REGISTRY[app.name] = app
    return app


def grid_corpus():
    """The grid apps in name order."""
    return [GRID_REGISTRY[name] for name in sorted(GRID_REGISTRY)]


def get_grid_app(name):
    try:
        return GRID_REGISTRY[name]
    except KeyError:
        raise WorkloadError(
            f"unknown grid app {name!r}; available: {sorted(GRID_REGISTRY)}"
        ) from None


# ---------------------------------------------------------------------------
# The corpus. hash01 keyed on the global tid keeps every app deterministic
# and schedule-invariant; per-thread writes go to out + tid, so the
# launch-time memory proof (classify_launch) shows warp, hence CTA,
# disjointness.
# ---------------------------------------------------------------------------

_register(GridApp(
    name="grid_path",
    kernel_name="grid_path",
    source="""
kernel grid_path(out) {
    // Path-length divergence at grid scale: each thread walks a
    // hash-keyed number of fma steps (the pathtracer/rsbench shape).
    let t = tid();
    let x = 0.5;
    let trips = floor(hash01(t * 3.7) * 8.0) + 2;
    let j = 0;
    while (j < trips) {
        x = fma(x, 1.0001, 0.3);
        x = fma(x, 0.9999, 0.1);
        j = j + 1;
    }
    store(out + t, x);
}
""",
))

_register(GridApp(
    name="grid_branch",
    kernel_name="grid_branch",
    source="""
kernel grid_branch(out) {
    // Unbalanced if/else divergence at grid scale (the mummer/meiyamd5
    // shape): half the warp takes the expensive arm each iteration.
    let t = tid();
    let x = 0.25;
    for i in 0..4 {
        if (hash01(t * 7.1 + i) < 0.5) {
            x = fma(x, 1.0002, 0.2);
            x = fma(x, 0.9998, 0.05);
        } else {
            x = fma(x, 0.9997, 0.4);
        }
    }
    store(out + t, x);
}
""",
))
