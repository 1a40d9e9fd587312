"""nvprof-style counters: SIMT efficiency, cycles, per-block profiles.

SIMT efficiency is the average fraction of active lanes per issued warp
instruction (the metric of Figures 7–9). The per-block visit and activity
profile feeds the profile-guided variant of the Section 4.5 heuristics.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.obs.events import IssueEvent
from repro.simt.warp import WARP_SIZE


@dataclass
class BlockProfile:
    """Execution profile of one basic block."""

    issues: int = 0          # issued instructions attributed to the block
    active_sum: int = 0      # total active lanes over those issues
    visits: int = 0          # times the block was entered (index 0 issued)
    cycles: int = 0

    @property
    def average_active(self):
        return self.active_sum / self.issues if self.issues else 0.0


class Profiler:
    """Aggregates issue-level counters over an entire launch."""

    def __init__(self, trace=False):
        self.issued = 0
        self.active_sum = 0
        self.cycles_sum = 0
        self.opcode_counts = {}
        self.block_profiles = {}    # (function, block) -> BlockProfile
        self.warp_cycles = {}       # warp_id -> cycles
        self.barrier_issues = 0
        #: issue slots retired through fused segments and the number of
        #: segments executed (diagnostics only — deliberately NOT part of
        #: summary(), which must be invariant under fusion).
        self.fused_issues = 0
        self.fused_segments = 0
        #: warp-batching diagnostics (repro.simt.batch): lockstep epochs
        #: attempted and epochs rolled back by the write-set guard. Like
        #: the fused_* counters these describe the engine, not the
        #: simulated program, so summary() excludes them.
        self.batch_epochs = 0
        self.batch_rollbacks = 0
        #: FootprintMemory diagnostics for the batcher's guarded epochs:
        #: slots replayed per-slot after a rollback and the largest
        #: single-burst footprint (words) any guarded epoch touched.
        self.batch_replayed_slots = 0
        self.batch_peak_footprint = 0
        #: non-forced-pick attribution (``sched.*`` counters): why serial
        #: slots could not take the forced-pick fast lanes (segment
        #: fusion, batching). ``tie`` counts convergence size ties
        #: (non-strict-largest), ``multi_group`` counts divergent warps
        #: under singleton-only policies, ``observed`` counts slots
        #: issued with no segment engine at all (metrics, sink, or trace
        #: attached, or fastpath/segments off). Engine telemetry: varies
        #: with knobs while results stay identical.
        self.nonforced_tie = 0
        self.nonforced_multi_group = 0
        self.nonforced_observed = 0
        #: SoA diagnostics (repro.simt.soa): pure chunks executed as numpy
        #: vector columns vs thread-major while SoA was enabled (narrow
        #: group or no bit-identical vector form). Engine-only, excluded
        #: from summary() like the other layer counters.
        self.soa_chunks = 0
        self.soa_fallback_chunks = 0
        #: segment-JIT diagnostics (repro.simt.jit): fused segments
        #: executed through compiled code, tier-up attempts, and codegen
        #: deopts during this launch. Engine-only, excluded from
        #: summary() like the other layer counters.
        self.jit_segments = 0
        self.jit_tierups = 0
        self.jit_deopts = 0
        #: when tracing, every issue as a cycle-stamped IssueEvent (which
        #: unpacks as the legacy ``(warp_id, function, block, lanes)`` tuple)
        self.trace = [] if trace else None
        #: LaunchMetrics attached by the machine when metrics are enabled
        self.metrics = None

    def record(self, warp_id, pc, opcode, active, cycles, is_barrier_op=False,
               lanes=None):
        function, block, index = pc
        if self.trace is not None:
            self.trace.append(
                IssueEvent(
                    warp_id=warp_id,
                    function=function,
                    block=block,
                    index=index,
                    opcode=opcode,
                    lanes=lanes or frozenset(),
                    ts=self.warp_cycles.get(warp_id, 0),
                    dur=cycles,
                    active=active,
                )
            )
        self.issued += 1
        self.active_sum += active
        self.cycles_sum += cycles
        self.opcode_counts[opcode] = self.opcode_counts.get(opcode, 0) + 1
        key = (function, block)
        profile = self.block_profiles.get(key)
        if profile is None:
            profile = BlockProfile()
            self.block_profiles[key] = profile
        profile.issues += 1
        profile.active_sum += active
        profile.cycles += cycles
        if index == 0:
            profile.visits += 1
        self.warp_cycles[warp_id] = self.warp_cycles.get(warp_id, 0) + cycles
        if is_barrier_op:
            self.barrier_issues += 1

    def record_segment(self, warp_id, pc, segment, active, cycles):
        """Batched accounting for one fused segment: exactly what ``n``
        per-instruction ``record`` calls would have accumulated, in O(1)
        per counter. Segments never contain barrier ops, and fusion is
        disabled while tracing, so neither path appears here.
        """
        n = segment.n
        self.issued += n
        self.active_sum += active * n
        self.cycles_sum += cycles
        counts = self.opcode_counts
        for opcode, count in segment.opcode_counts:
            counts[opcode] = counts.get(opcode, 0) + count
        key = (pc[0], pc[1])
        profile = self.block_profiles.get(key)
        if profile is None:
            profile = BlockProfile()
            self.block_profiles[key] = profile
        profile.issues += n
        profile.active_sum += active * n
        profile.cycles += cycles
        if pc[2] == 0:
            profile.visits += 1
        self.warp_cycles[warp_id] = self.warp_cycles.get(warp_id, 0) + cycles
        self.fused_issues += n
        self.fused_segments += 1

    @property
    def simt_efficiency(self):
        """Average active-lane fraction per issued instruction (0..1)."""
        if self.issued == 0:
            return 1.0
        return self.active_sum / (self.issued * WARP_SIZE)

    @property
    def total_cycles(self):
        """Kernel runtime: the slowest warp (warps execute in parallel)."""
        if not self.warp_cycles:
            return 0
        return max(self.warp_cycles.values())

    def block_profile(self, function, block):
        return self.block_profiles.get((function, block), BlockProfile())

    def region_efficiency(self, keys):
        """SIMT efficiency restricted to a set of (function, block) keys."""
        issued = sum(self.block_profiles[k].issues for k in keys if k in self.block_profiles)
        active = sum(self.block_profiles[k].active_sum for k in keys if k in self.block_profiles)
        if issued == 0:
            return 1.0
        return active / (issued * WARP_SIZE)

    @property
    def avg_active_lanes(self):
        """Average active lanes per issued instruction (0..WARP_SIZE)."""
        return self.active_sum / self.issued if self.issued else 0.0

    def opcode_issues(self):
        """Per-opcode issue counts keyed by mnemonic, sorted descending."""
        counts = {
            getattr(op, "value", str(op)): n
            for op, n in self.opcode_counts.items()
        }
        return dict(sorted(counts.items(), key=lambda kv: (-kv[1], kv[0])))

    def engine_counters(self):
        """This launch's engine-layer counters, namespaced like
        :data:`repro.obs.counters.COUNTERS`. These describe how the
        *engine* executed the launch (fusion coverage, batch epochs), not
        the simulated program — results are identical whatever they say.
        """
        fused = self.fused_issues
        fallback = self.issued - fused
        total = fused + fallback
        return {
            "segments.fused_instrs": fused,
            "segments.fallback_instrs": fallback,
            "segments.fused_segments": self.fused_segments,
            "segments.coverage": fused / total if total else 0.0,
            "batch.epochs": self.batch_epochs,
            "batch.rollbacks": self.batch_rollbacks,
            "batch.replayed_slots": self.batch_replayed_slots,
            "batch.peak_footprint": self.batch_peak_footprint,
            "sched.nonforced_tie": self.nonforced_tie,
            "sched.nonforced_multi_group": self.nonforced_multi_group,
            "sched.nonforced_observed": self.nonforced_observed,
            "soa.vector_chunks": self.soa_chunks,
            "soa.fallback_chunks": self.soa_fallback_chunks,
            "jit.executed_segments": self.jit_segments,
            "jit.tierups": self.jit_tierups,
            "jit.deopts": self.jit_deopts,
        }

    def summary(self):
        """Launch digest; stall attribution appears when metrics were on.

        The ``counters`` and ``nonforced_picks`` entries are engine
        telemetry (fusion coverage, batch epochs, why picks were not
        forced) and therefore *vary* with engine knobs even though every
        other field is invariant; consumers comparing summaries across
        engine configurations must drop both (as the conformance
        fingerprint does).
        """
        return {
            "nonforced_picks": {
                "tie": self.nonforced_tie,
                "multi_group": self.nonforced_multi_group,
                "observed": self.nonforced_observed,
            },
            "issued": self.issued,
            "cycles": self.total_cycles,
            "simt_efficiency": self.simt_efficiency,
            "barrier_issues": self.barrier_issues,
            "avg_active_lanes": self.avg_active_lanes,
            "opcode_issues": self.opcode_issues(),
            "stall_cycles": (
                self.metrics.stall_cycles() if self.metrics is not None else {}
            ),
            "counters": self.engine_counters(),
        }
