"""Grid-scale launches: CTAs scheduled onto simulated SMs.

A :class:`GridLaunch` partitions ``grid_dim * cta_dim`` threads into
``grid_dim`` CTAs and runs each one as an ordinary
:meth:`~repro.simt.machine.GPUMachine.launch` under a per-CTA
:class:`~repro.simt.cta.CTAContext` carrying its global tid/warp bases and
shared-memory budget. Because the flat ``launch()`` *is* the degenerate
single-CTA grid, a ``GridLaunch(grid_dim=1)`` is bit-identical to calling
``launch()`` directly — same thread ids, warp ids, RNG streams, traces and
profiler numbers.

**Execution semantics.** CTAs are independent by the programming model: the
only cross-CTA channel is global memory, and the grid defines CTA execution
as *atomic in cta_id order* on the shared :class:`GlobalMemory`. That
serialization is deterministic, and whenever
:func:`repro.analysis.memeffects.classify_launch`, run over the grid's
whole global thread range, proves the CTAs' global footprints pairwise
disjoint it is also equal to every other order — which
licenses sharding CTA ranges across the persistent worker pool
(:mod:`repro.harness.parallel`). The grid is cut into
:data:`CHUNKS_PER_WORKER` small contiguous chunks per worker, and an idle
worker takes the next one, so no worker waits on an oversized last task.
Each chunk carries the module as IR text (parsed once per process) and
the launch memory pickled once by the parent (decoded once per worker
and launch). A worker runs its chunk against a private copy of that
memory, which notes the addresses it writes, and ships back per-CTA
traces plus the cells the chunk changed
(:meth:`GlobalMemory.changes_since` over those addresses); the parent
applies the write-deltas (disjoint by proof) in chunk order, which keeps
the serial loop's cell order, and folds worker engine counters through
the :func:`~repro.harness.parallel.run_tasks_observed` aggregation path.
``REPRO_GRID=0`` (or ``engine_config(grid=False)``, :mod:`repro.engine`)
forces the serial in-process CTA loop, as do ``jobs<=1``, a single CTA,
and a ``"guarded"`` classification. Every CTA carries the grid's
classification on its :class:`~repro.simt.cta.CTAContext`: it covers the
CTA's global tid range, so a ``"disjoint"`` grid's CTAs may run their
warps one at a time, and a ``"guarded"`` grid's CTAs keep them
interleaved (running only memory-free segments ahead).

**SM model.** CTAs issue round-robin onto ``n_sms`` simulated SMs
(CTA ``i`` lands on SM ``i % n_sms``). Each SM is occupancy-limited: it
keeps ``resident = min(max_ctas_per_sm, max_warps_per_sm // warps_per_cta)``
CTAs resident at once and runs them in waves — a wave's time is its slowest
CTA, an SM's time is the sum of its waves, and the grid's
:attr:`~GridResult.cycles` is the busiest SM. This is the coarse
occupancy-throughput model (no intra-SM warp interleaving across CTAs);
per-CTA cycle counts remain exact.
"""

from __future__ import annotations

import gc
import pickle
from dataclasses import dataclass, field

from repro.engine import current_engine
from repro.errors import LaunchError
from repro.obs import counters as _counters
from repro.obs.counters import ENGINE_COUNTERS
from repro.simt.cta import CTAContext
from repro.simt.machine import GPUMachine, check_int
from repro.simt.memory import GlobalMemory
from repro.simt.warp import WARP_SIZE

__all__ = [
    "GridLaunch",
    "GridResult",
]

#: Volta-style SM envelope (see ROADMAP): 96 kB of shared memory is
#: 12288 8-byte words.
DEFAULT_N_SMS = 80
DEFAULT_MAX_CTAS_PER_SM = 32
DEFAULT_MAX_WARPS_PER_SM = 64
DEFAULT_MAX_SHARED_WORDS = 12288

#: Pool tasks per worker in a sharded launch. At 16, each grid-corpus app
#: (392 CTAs on two workers) is 32 tasks of 12 or 13 CTAs: the workers
#: finish within one small chunk of each other, and the parent unpickles
#: each result while the workers run the rest (docs/performance.md).
CHUNKS_PER_WORKER = 16


@dataclass
class GridResult:
    """Everything observable about one grid launch.

    ``cta_records`` holds one dict per CTA in ``cta_id`` order with the
    per-CTA observables (``store_traces``, ``retired``, ``cycles``,
    ``issued``, ``active_sum``) — the same shape whether the CTA ran
    in-process or on a pool worker, so consumers never care where it ran.
    """

    kernel: str
    grid_dim: int
    cta_dim: int
    n_threads: int
    memory: GlobalMemory
    cta_records: list
    sm_schedule: list
    cycles: int
    issued: int
    active_sum: int
    sharded: bool
    jobs: int
    classification: str
    counters: dict = field(default=None, repr=False)

    @property
    def simt_efficiency(self):
        if self.issued == 0:
            return 1.0
        return self.active_sum / (self.issued * WARP_SIZE)

    def store_traces(self):
        """Per-thread ordered (addr, value) store lists over the whole grid,
        keyed by global tid (CTA tids never collide — each CTA owns
        ``[cta_id*cta_dim, (cta_id+1)*cta_dim)``)."""
        merged = {}
        for record in self.cta_records:
            merged.update(record["store_traces"])
        return merged

    def retired_per_thread(self):
        merged = {}
        for record in self.cta_records:
            merged.update(record["retired"])
        return merged

    def summary(self):
        """Grid digest for reports and ``tools.stats``."""
        return {
            "kernel": self.kernel,
            "grid_dim": self.grid_dim,
            "cta_dim": self.cta_dim,
            "n_threads": self.n_threads,
            "issued": self.issued,
            "cycles": self.cycles,
            "simt_efficiency": self.simt_efficiency,
            "sharded": self.sharded,
            "jobs": self.jobs,
            "classification": self.classification,
            "sm_schedule": self.sm_schedule,
            "counters": dict(self.counters or {}),
        }


# ----------------------------------------------------------------------
# Worker side of the pool-sharded path. Module-level so the pool can ship
# it by reference (fork) or qualified name (spawn).
# ----------------------------------------------------------------------

#: (module name, IR text) -> parsed Module, per worker process. A sweep
#: re-submits the same module to the same worker many times; parsing once
#: per process mirrors the compile cache's role on the parent.
_WORKER_MODULES = {}


def _worker_module(text, name):
    key = (name, text)
    module = _WORKER_MODULES.get(key)
    if module is None:
        from repro.ir import parse_module

        module = parse_module(text, name=name)
        _WORKER_MODULES[key] = module
    return module


def _cta_context(cta_id, grid_dim, cta_dim, shared_words, classification):
    """CTA ``cta_id``'s context: global tid/warp bases, and the grid's
    memory proof, which covers every CTA's tid range at once."""
    return CTAContext(
        cta_id=cta_id,
        grid_dim=grid_dim,
        cta_dim=cta_dim,
        tid_base=cta_id * cta_dim,
        warp_base=cta_id * cta_dim // WARP_SIZE,
        shared_words=shared_words,
        classification=classification,
    )


def _cta_record(cta_id, result):
    return {
        "cta_id": cta_id,
        "store_traces": result.store_traces(),
        "retired": result.retired_per_thread(),
        "cycles": result.cycles,
        "issued": result.profiler.issued,
        "active_sum": result.profiler.active_sum,
    }


#: The last launch memory this worker decoded: ``[pickled cells, cells]``.
#: Every chunk of a launch carries the same bytes, so a worker decodes
#: them once per launch, not once per chunk.
_WORKER_SNAPSHOT = [None, None]


def _worker_snapshot(blob):
    if _WORKER_SNAPSHOT[0] != blob:
        _WORKER_SNAPSHOT[:] = [blob, pickle.loads(blob)]
    return _WORKER_SNAPSHOT[1]


class _ChunkMemory(GlobalMemory):
    """A chunk's private copy of the launch memory that notes each address
    a store or an atomic writes (a kernel writes global memory only
    through those two), so the chunk's write-delta costs its own writes,
    not a pass over every cell of the launch memory."""

    def __init__(self, cells):
        super().__init__()
        self.apply(cells)
        self.written = {}

    def store(self, addr, value):
        key = int(addr)
        self._cells[key] = value
        self.written[key] = None

    def atom_add(self, addr, value):
        self.written[int(addr)] = None
        return super().atom_add(addr, value)


def _run_cta_range(
    module_text, module_name, kernel_name, args, cta_ids,
    grid_dim, cta_dim, shared_words, snapshot, machine_kwargs,
):
    """Run a contiguous CTA range on a private memory holding the parent's
    pre-launch cells, pickled in ``snapshot`` (a kernel never allocates,
    so the cells are all a CTA can see); return ``(records, writes)``,
    where ``writes`` are the cells the range changed, in the order they
    appeared.

    A disjoint-proven CTA sees exactly what it would have seen in-process
    (it never reads another CTA's writes — that is what ``"disjoint"``
    means). The parent applies each chunk's writes afterwards.
    """
    before = _worker_snapshot(snapshot)
    memory = _ChunkMemory(before)
    module = _worker_module(module_text, module_name)
    machine = GPUMachine(module, **machine_kwargs)
    records = []
    for cta_id in cta_ids:
        # Only a disjoint grid shards, so its proof rides along.
        cta = _cta_context(
            cta_id, grid_dim, cta_dim, shared_words, "disjoint"
        )
        result = machine.launch(
            kernel_name, cta_dim, args, memory=memory, cta=cta
        )
        records.append(_cta_record(cta_id, result))
    return records, memory.changes_since(before, memory.written)


def _chunk(items, parts):
    """Split ``items`` into at most ``parts`` contiguous, balanced chunks."""
    parts = max(1, min(parts, len(items)))
    size, extra = divmod(len(items), parts)
    chunks, start = [], 0
    for i in range(parts):
        end = start + size + (1 if i < extra else 0)
        chunks.append(items[start:end])
        start = end
    return chunks


class GridLaunch:
    """A ``grid_dim x cta_dim`` kernel launch over simulated SMs.

    Construction validates the hierarchy against the SM envelope; one
    instance can launch many kernels (it holds no per-launch state).

    ``machine_kwargs`` are forwarded to every :class:`GPUMachine` built for
    the grid — scheduler, seed, observability; engine settings come from
    :func:`repro.engine.current_engine`, which pool workers receive from
    the parent. When the launch shards onto the worker pool the kwargs
    cross a process boundary, so they must be plain picklable values
    there (``sink`` is parent-only and never forwarded to workers).
    """

    def __init__(
        self,
        module,
        grid_dim,
        cta_dim,
        *,
        n_sms=DEFAULT_N_SMS,
        max_ctas_per_sm=DEFAULT_MAX_CTAS_PER_SM,
        max_warps_per_sm=DEFAULT_MAX_WARPS_PER_SM,
        max_shared_words=DEFAULT_MAX_SHARED_WORDS,
        shared_words=0,
        jobs=None,
        **machine_kwargs,
    ):
        check_int(grid_dim, "grid_dim")
        check_int(cta_dim, "cta_dim")
        if grid_dim < 1:
            raise LaunchError(f"grid needs at least one CTA, got {grid_dim}")
        if cta_dim < 1:
            raise LaunchError(
                f"CTA needs at least one thread, got {cta_dim}"
            )
        if grid_dim > 1 and cta_dim % WARP_SIZE != 0:
            # Whole warps must not span CTAs, or the grid's warp membership
            # (and with it the classify_launch warp envelopes and RNG-free warp
            # identity) would diverge from the flat launch of the same
            # thread range.
            raise LaunchError(
                f"multi-CTA grids need cta_dim to be a multiple of "
                f"{WARP_SIZE}, got {cta_dim}"
            )
        if n_sms < 1:
            raise LaunchError(f"grid needs at least one SM, got {n_sms}")
        warps_per_cta = -(-cta_dim // WARP_SIZE)
        if warps_per_cta > max_warps_per_sm:
            raise LaunchError(
                f"one CTA of {cta_dim} threads is {warps_per_cta} warps, "
                f"over the SM limit of {max_warps_per_sm}"
            )
        if shared_words > max_shared_words:
            raise LaunchError(
                f"CTA shared memory of {shared_words} words exceeds the "
                f"SM limit of {max_shared_words}"
            )
        self.module = module
        self.grid_dim = grid_dim
        self.cta_dim = cta_dim
        self.n_sms = n_sms
        self.max_ctas_per_sm = max_ctas_per_sm
        self.max_warps_per_sm = max_warps_per_sm
        self.shared_words = shared_words
        self.jobs = jobs
        self.machine_kwargs = dict(machine_kwargs)
        self.warps_per_cta = warps_per_cta
        #: CTAs an SM keeps resident at once (the occupancy limit).
        self.resident_ctas = min(
            max_ctas_per_sm, max_warps_per_sm // warps_per_cta
        )

    # ------------------------------------------------------------------
    def _sm_schedule(self, cycles_by_cta):
        """Round-robin CTA issue over occupancy-limited SMs.

        Returns ``(schedule, grid_cycles, peak_resident_warps)`` where
        ``schedule`` has one entry per *used* SM.
        """
        by_sm = {}
        for cta_id in range(self.grid_dim):
            by_sm.setdefault(cta_id % self.n_sms, []).append(cta_id)
        schedule = []
        grid_cycles = 0
        peak_warps = 0
        for sm, ctas in sorted(by_sm.items()):
            waves = _chunk(ctas, -(-len(ctas) // self.resident_ctas))
            sm_cycles = sum(
                max(cycles_by_cta[cta_id] for cta_id in wave)
                for wave in waves
            )
            resident = max(len(wave) for wave in waves)
            peak_warps = max(peak_warps, resident * self.warps_per_cta)
            grid_cycles = max(grid_cycles, sm_cycles)
            schedule.append({
                "sm": sm,
                "ctas": ctas,
                "waves": len(waves),
                "resident_ctas": resident,
                "resident_warps": resident * self.warps_per_cta,
                "cycles": sm_cycles,
            })
        return schedule, grid_cycles, peak_warps

    # ------------------------------------------------------------------
    def launch(self, kernel_name, args=(), memory=None):
        """Run the whole grid; returns a :class:`GridResult`."""
        from repro.analysis.memeffects import classify_launch
        from repro.harness.parallel import resolve_jobs

        memory = memory if memory is not None else GlobalMemory()
        total_threads = self.grid_dim * self.cta_dim
        jobs = resolve_jobs(self.jobs)
        # Grid launches number tids and warps exactly as the flat launch
        # of ``total_threads`` would (warps never span CTAs), so pairwise
        # warp disjointness over the whole range implies CTA disjointness.
        classification = classify_launch(
            self.module, kernel_name, args, total_threads
        )
        shard = (
            self.grid_dim > 1
            and jobs > 1
            and classification == "disjoint"
            and current_engine().grid
        )

        before = _counters.snapshot()
        if shard:
            records = self._launch_sharded(kernel_name, args, memory, jobs)
        else:
            records = self._launch_serial(
                kernel_name, args, memory, classification
            )
        ENGINE_COUNTERS.grid_ctas_launched += self.grid_dim

        cycles_by_cta = {r["cta_id"]: r["cycles"] for r in records}
        schedule, grid_cycles, peak_warps = self._sm_schedule(cycles_by_cta)
        # Occupancy is a high-water mark, not a flow: record the peak, don't
        # accumulate it.
        if peak_warps > ENGINE_COUNTERS.grid_sm_occupancy:
            ENGINE_COUNTERS.grid_sm_occupancy = peak_warps
        counters = _counters.delta(_counters.snapshot(), before)
        counters = {name: value for name, value in counters.items() if value}

        return GridResult(
            kernel=kernel_name,
            grid_dim=self.grid_dim,
            cta_dim=self.cta_dim,
            n_threads=total_threads,
            memory=memory,
            cta_records=records,
            sm_schedule=schedule,
            cycles=grid_cycles,
            issued=sum(r["issued"] for r in records),
            active_sum=sum(r["active_sum"] for r in records),
            sharded=shard,
            jobs=jobs if shard else 1,
            classification=classification,
            counters=counters,
        )

    # ------------------------------------------------------------------
    def _launch_serial(self, kernel_name, args, memory, classification):
        """The always-correct path: CTAs run atomically in cta_id order on
        the shared memory, in this process."""
        machine = GPUMachine(self.module, **self.machine_kwargs)
        records = []
        for cta_id in range(self.grid_dim):
            cta = _cta_context(
                cta_id, self.grid_dim, self.cta_dim, self.shared_words,
                classification,
            )
            result = machine.launch(
                kernel_name, self.cta_dim, args, memory=memory, cta=cta,
            )
            records.append(_cta_record(cta_id, result))
        return records

    def _launch_sharded(self, kernel_name, args, memory, jobs):
        """Shard disjoint-proven CTA chunks across the worker pool.

        The parent holds the collector policy
        (:func:`~repro.harness.parallel.collector_policy`) while it waits
        and merges: the merge unpickles every worker's records and keeps
        them, so at the default young-generation threshold the collector
        runs hundreds of times and finds nothing. The caller's thresholds
        come back however the launch ends."""
        from repro.harness.parallel import (
            collector_policy,
            run_tasks_observed,
            task,
        )
        from repro.ir import format_module

        module_text = format_module(self.module)
        module_name = getattr(self.module, "name", "module")
        snapshot = pickle.dumps(memory.snapshot(), pickle.HIGHEST_PROTOCOL)
        worker_kwargs = {
            key: value for key, value in self.machine_kwargs.items()
            if key != "sink"  # parent-local object; never crosses the fork
        }
        tasks = [
            task(
                _run_cta_range, module_text, module_name, kernel_name,
                tuple(args), chunk, self.grid_dim, self.cta_dim,
                self.shared_words, snapshot, worker_kwargs,
            )
            for chunk in _chunk(
                list(range(self.grid_dim)), jobs * CHUNKS_PER_WORKER
            )
        ]
        thresholds = collector_policy()
        try:
            # Results come back in chunk order, whichever worker ran each.
            results, _reports = run_tasks_observed(tasks, jobs=jobs)
            records = []
            for chunk_records, writes in results:
                records.extend(chunk_records)
                # Disjointness proves no two chunks wrote the same cell,
                # and chunk order puts new cells where the serial loop
                # would.
                memory.apply(writes)
        finally:
            gc.set_threshold(*thresholds)
        ENGINE_COUNTERS.grid_pool_sharded_ctas += self.grid_dim
        return records
