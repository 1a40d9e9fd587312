"""nvprof-style counters: SIMT efficiency, cycles, per-block profiles.

SIMT efficiency is the average fraction of active lanes per issued warp
instruction (the metric of Figures 7–9). The per-block visit and activity
profile feeds the profile-guided variant of the Section 4.5 heuristics.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.ir.instructions import Opcode
from repro.simt.warp import WARP_SIZE


#: ``Profiler.multiwarp`` value -> the engine counter that counts it. The
#: interleave reasons and the independent launches sum to the multi-warp
#: launches.
MULTIWARP_COUNTERS = {
    "independent": "batch.independent_launches",
    "engine": "batch.interleaved_engine",
    "scheduler": "batch.interleaved_scheduler",
    "cta": "batch.interleaved_cta",
    "memory": "batch.interleaved_memory",
}


#: Opcode -> the ``segments.fallback_*`` counter that counts its unfused
#: issues; every other opcode counts in ``segments.fallback_other``. The
#: counters sum to ``segments.fallback_instrs``.
FALLBACK_COUNTERS = {
    Opcode.CBR: "segments.fallback_cbr",
    Opcode.BRA: "segments.fallback_bra",
    Opcode.BSSY: "segments.fallback_bssy",
    Opcode.BBREAK: "segments.fallback_bbreak",
    Opcode.BSYNC: "segments.fallback_bsync",
    Opcode.BSYNCSOFT: "segments.fallback_bsync_soft",
}
_FALLBACK_OTHER = "segments.fallback_other"


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


class _Totals:
    """Launch-wide counters derived from the per-PC and per-segment ones."""

    __slots__ = ("issued", "active_sum", "cycles_sum", "barrier_issues",
                 "fused_issues", "opcode_counts", "block_profiles")

    def __init__(self, pc_stats, segment_stats):
        issued = active_sum = cycles_sum = barrier_issues = fused = 0
        opcodes = {}
        blocks = {}
        for (function, block, index), (n, active, cycles, opcode,
                                       is_barrier_op) in pc_stats.items():
            issued += n
            active_sum += active
            cycles_sum += cycles
            if is_barrier_op:
                barrier_issues += n
            opcodes[opcode] = opcodes.get(opcode, 0) + n
            profile = blocks.get((function, block))
            if profile is None:
                profile = blocks[(function, block)] = BlockProfile()
            profile.issues += n
            profile.active_sum += active
            profile.cycles += cycles
            if index == 0:
                profile.visits += n
        for out, (runs, active, cycles) in segment_stats.items():
            n = out.n
            fused += runs * n
            active_sum += active * n
            cycles_sum += cycles
            barrier_issues += runs * out.barrier_ops
            for opcode, count in out.opcode_counts:
                opcodes[opcode] = opcodes.get(opcode, 0) + runs * count
            key = (out.fname, out.bname)
            profile = blocks.get(key)
            if profile is None:
                profile = blocks[key] = BlockProfile()
            profile.issues += runs * n
            profile.active_sum += active * n
            profile.cycles += cycles
            if out.start == 0:
                profile.visits += runs
        self.issued = issued + fused
        self.active_sum = active_sum
        self.cycles_sum = cycles_sum
        self.barrier_issues = barrier_issues
        self.fused_issues = fused
        self.opcode_counts = opcodes
        self.block_profiles = blocks


class Profiler:
    """Aggregates issue-level counters over an entire launch.

    The issue path only bumps per-PC and per-segment counters; every
    launch-wide total (``issued``, ``opcode_counts``, ``block_profiles``,
    ...) is derived from them on first read and memoized until the next
    record.
    """

    def __init__(self):
        #: pc -> [issues, active_sum, cycles, opcode, is_barrier_op]; the
        #: decoded slot bumps the first three in place on every issue
        #: after the first at that PC (``record`` creates the entry).
        self.pc_stats = {}
        #: segment exit -> [runs, active_sum, cycles]: the fused runs that
        #: left their segment through that exit. ``active_sum`` sums the
        #: group size once per run (each of a run's ``n`` issues had that
        #: many lanes active).
        self.segment_stats = {}
        #: the memoized derived totals; every record resets it to None
        self.derived = None
        #: warp_id -> cycles, filled by ``finish`` from ``Warp.cycles`` at
        #: launch end.
        self.warp_cycles = {}
        #: how a multi-warp launch ran (``GPUMachine._multiwarp_mode``):
        #: "independent", or why it stayed interleaved; None for one
        #: warp. Engine telemetry, reported through MULTIWARP_COUNTERS.
        self.multiwarp = None
        #: why serial slots could not fuse (``sched.*`` counters):
        #: ``multi_group`` counts divergent slots under a policy with
        #: shared state (round-robin), which fuses lone groups only;
        #: ``observed`` counts slots issued with no segment engine at all
        #: (metrics or a sink attached, or fastpath/segments off).
        #: Engine telemetry: varies with knobs while results stay
        #: identical.
        self.nonforced_multi_group = 0
        self.nonforced_observed = 0
        #: fused slots an interleaved launch ran ahead of their round
        #: (``GPUMachine._run_interleaved``): the slots a run-ahead
        #: segment owes after its first. Engine telemetry, like the above.
        self.ahead_instrs = 0
        #: LaunchMetrics attached by the machine when metrics are enabled
        self.metrics = None

    def record(self, pc, opcode, active, cycles, is_barrier_op=False):
        """Account one issue of ``opcode`` at ``pc`` with ``active`` lanes.

        The decoded slot (``GPUMachine._issuer``) inlines the common case
        (a PC already seen) as three in-place adds on ``pc_stats``.
        """
        self.derived = None
        stats = self.pc_stats.get(pc)
        if stats is None:
            self.pc_stats[pc] = [1, active, cycles, opcode, is_barrier_op]
        else:
            stats[0] += 1
            stats[1] += active
            stats[2] += cycles

    def record_segment(self, out, active, cycles):
        """Account one fused run by ``active`` lanes that left its segment
        through ``out`` (a :class:`~repro.simt.segments.SegmentExit`): the
        same totals its ``out.n`` per-instruction records would give,
        barrier ops (``out.barrier_ops``) included.
        """
        self.derived = None
        stats = self.segment_stats.get(out)
        if stats is None:
            self.segment_stats[out] = [1, active, cycles]
        else:
            stats[0] += 1
            stats[1] += active
            stats[2] += cycles

    def finish(self, warps):
        """Close the launch: take each warp's cycles from the warp."""
        for warp in warps:
            self.warp_cycles[warp.warp_id] = warp.cycles

    def _totals(self):
        totals = self.derived
        if totals is None:
            totals = self.derived = _Totals(self.pc_stats, self.segment_stats)
        return totals

    @property
    def issued(self):
        return self._totals().issued

    @property
    def active_sum(self):
        return self._totals().active_sum

    @property
    def cycles_sum(self):
        return self._totals().cycles_sum

    @property
    def barrier_issues(self):
        return self._totals().barrier_issues

    @property
    def opcode_counts(self):
        """Opcode -> issue count."""
        return self._totals().opcode_counts

    @property
    def block_profiles(self):
        """(function, block) -> :class:`BlockProfile`."""
        return self._totals().block_profiles

    @property
    def fused_issues(self):
        """Issue slots retired through fused segments (engine diagnostics
        only: deliberately NOT part of summary(), which must be invariant
        under fusion)."""
        return self._totals().fused_issues

    @property
    def fused_segments(self):
        """Fused segment runs executed (engine diagnostics, like
        ``fused_issues``)."""
        return sum(stats[0] for stats in self.segment_stats.values())

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
        *engine* executed the launch (fusion coverage, warp order), not
        the simulated program — results are identical whatever they say.
        """
        fused = self.fused_issues
        fallback = self.issued - fused
        total = fused + fallback
        # Unfused issues by opcode, straight from the per-PC records (the
        # issue path pays nothing for them).
        by_opcode = dict.fromkeys(FALLBACK_COUNTERS.values(), 0)
        by_opcode[_FALLBACK_OTHER] = 0
        for n, _active, _cycles, opcode, _barrier in self.pc_stats.values():
            name = FALLBACK_COUNTERS.get(opcode, _FALLBACK_OTHER)
            by_opcode[name] += n
        return {
            "segments.fused_instrs": fused,
            "segments.fallback_instrs": fallback,
            **by_opcode,
            "segments.fused_segments": self.fused_segments,
            "segments.coverage": fused / total if total else 0.0,
            **{
                name: int(self.multiwarp == mode)
                for mode, name in MULTIWARP_COUNTERS.items()
            },
            "batch.ahead_instrs": self.ahead_instrs,
            "sched.nonforced_multi_group": self.nonforced_multi_group,
            "sched.nonforced_observed": self.nonforced_observed,
            # Every fused segment runs compiled code (repro.simt.jit).
            "jit.executed_segments": self.fused_segments,
        }

    def summary(self):
        """Launch digest; stall attribution appears when metrics were on.

        ``counters`` is the one engine-telemetry field (fusion coverage,
        warp order, why slots did not fuse) and therefore *varies* with
        engine knobs even though every other field is invariant;
        consumers comparing summaries across engine configurations must
        drop it (as the conformance fingerprint does).
        """
        return {
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
