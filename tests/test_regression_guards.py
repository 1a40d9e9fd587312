"""Regression guards for subtle bugs fixed during development.

Each test pins a failure mode that once existed, so refactors cannot
silently reintroduce it.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

from repro.engine import engine_config
from repro.errors import DeadlockError
from repro.frontend import compile_kernel_source
from repro.ir import parse_module, format_module
from repro.simt import SCHEDULERS, GPUMachine, GlobalMemory
from repro.workloads import get_workload


class TestWorkQueueAliasing:
    """A dynamic work queue must not share memory with output cells: a
    finished thread's store would corrupt the queue while other threads
    still poll it, double-processing tasks (found via the none-mode
    checksum test)."""

    @pytest.mark.parametrize("name", ("rsbench", "xsbench"))
    def test_queue_region_disjoint_from_output(self, name):
        workload = get_workload(name)
        memory = GlobalMemory()
        workload.setup(memory)
        queue_base, queue_size = memory.region("queue")
        out_base, out_size = memory.region("out")
        assert queue_base + queue_size <= out_base or out_base + out_size <= queue_base

    @pytest.mark.parametrize("name", ("rsbench", "xsbench"))
    def test_tasks_processed_exactly_once(self, name):
        # The queue counter ends at n_tasks + n_threads (each thread's
        # final failing grab), never higher.
        workload = get_workload(name)
        result = workload.run(mode="none")
        queue_base, _ = result.launch.memory.region("queue")
        n_tasks = workload.params["n_tasks"]
        assert result.launch.memory.load(queue_base) == n_tasks + workload.n_threads


class TestParserLineAmbiguity:
    """The IR text format is newline-free for the lexer; `%dst =` on the
    next line must not be consumed as an operand of the previous
    instruction (an early parser bug)."""

    def test_zero_operand_op_before_dst(self):
        text = """
func @k() kernel {
entry:
  %a = tid
  %b = add %a, 1
  exit
}
"""
        module = parse_module(text)
        fn = module.function("k")
        tid_instr = fn.block("entry").instructions[0]
        assert tid_instr.operands == []
        assert format_module(parse_module(format_module(module))) == format_module(module)


class TestCostScalingFloor:
    """Scaling latencies below 1 must clamp, not round to zero (which made
    whole kernels free and inverted speedups)."""

    def test_half_scale_keeps_alu_nonzero(self):
        from repro.ir import Opcode
        from repro.simt import CostModel

        model = CostModel().scaled(0.5)
        assert model.latency(Opcode.ADD) >= 1
        assert model.latency(Opcode.PREDICT) == 0  # zero stays zero


class TestSoftBarrierDegenerateThreshold:
    """Threshold <= 1 must never park (a pool of one would self-release
    anyway, but parking costs scheduler churn and once risked stalls)."""

    def test_threshold_one_runs_to_completion(self):
        module = compile_kernel_source(
            """
kernel k() {
    let acc = 0.0;
    let t = tid();
    predict L1, 1;
    for i in 0..6 {
        if (hash01(t + i) < 0.5) {
            label L1: acc = acc + 1.0;
        }
    }
    store(t, acc);
}
"""
        )
        from repro.core import compile_sr

        prog = compile_sr(module)
        result = GPUMachine(prog.module).launch("k", 32)
        assert result.simt_efficiency > 0


class TestDetectorSideRegions:
    """An if-without-else must not treat the join block as the 'else
    side' (once made every cheap guard look like a huge candidate)."""

    def test_join_side_is_empty(self):
        from repro.analysis.cfg_utils import CFGView
        from repro.analysis.dominators import compute_post_dominators
        from repro.core.autodetect import _side_region
        from repro.analysis.loops import compute_loops

        module = compile_kernel_source(
            """
kernel k() {
    let x = 0.0;
    for i in 0..4 {
        if (hash01(i) < 0.5) { x = x + 1.0; }
        x = x * 2.0;
    }
    store(0, x);
}
"""
        )
        fn = module.function("k")
        view = CFGView.of_function(fn)
        pdom = compute_post_dominators(view)
        nest = compute_loops(view)
        branch = next(
            b.name
            for b in fn.blocks
            if b.terminator.opcode.value == "cbr" and b.name != "for.head"
        )
        succs = view.succs[branch]
        join = pdom.nearest_common_post_dominator(succs)
        loop = nest.innermost_containing(branch)
        assert _side_region(view, branch, join, loop, join=join) == set()


#: Minimized form of the serial-engine deadlock the multiwarp hypothesis
#: fuzzer surfaced in the telemetry PR (the conformance fuzz asserts
#: *parity* on whatever the shrinker finds; this pins the shape itself so
#: the repro survives shrink-database loss). An atomadd ticket decides
#: which of two soft barriers each lane parks on — barrier membership is
#: data-dependent on the global interleaving, the "ticket-dependent"
#: kernels of the generator. Every lane joins both barriers, the ticket
#: splits each warp's lanes across the two waits, and neither barrier can
#: release: parked < members on both, and each soft threshold (32) exceeds
#: the arrivals the other barrier's captives will ever provide — the
#: Section 4.3 conflicting-barrier deadlock.
TICKET_DEADLOCK_IR = """
func @k() kernel {
entry:
  %t = tid
  bssy $spec
  bssy $pdom
  %one = const 1
  %cell = const 900
  %ticket = atomadd %cell, %one
  %half = const 48
  %p = cmplt %ticket, %half
  cbr %p, ^low, ^high
low:
  bsync.soft $spec, 32
  bra ^join
high:
  bsync.soft $pdom, 32
  bra ^join
join:
  st %t, %ticket
  exit
}
"""


class TestTicketDependentDeadlock:
    """The serial engine must *detect* the cross-barrier stall as a
    DeadlockError (not spin or mis-release), and every optimized engine
    must reproduce the identical deadlock."""

    N_THREADS = 96  # three warps contending for tickets

    def _launch(self, warp_batch, **machine_kwargs):
        module = parse_module(TICKET_DEADLOCK_IR)
        with engine_config(warp_batch=warp_batch):
            machine = GPUMachine(module, **machine_kwargs)
            return machine.launch("k", self.N_THREADS)

    def test_serial_engine_deadlocks_with_split_membership(self):
        with pytest.raises(DeadlockError) as exc_info:
            self._launch(warp_batch=False)
        exc = exc_info.value
        # The stalled warp reports every non-exited lane with the barrier
        # it is parked on; the ticket split strands both barriers with
        # parked < members (16 + 16 lanes, threshold 32 unreachable).
        assert len(exc.waiting) == 32
        barriers = {name for _, name in exc.waiting}
        assert barriers == {"spec", "pdom"}
        by_barrier = {
            name: sum(1 for _, b in exc.waiting if b == name)
            for name in barriers
        }
        assert by_barrier == {"spec": 16, "pdom": 16}
        assert "conflicting barriers" in str(exc)

    @pytest.mark.parametrize("scheduler", sorted(SCHEDULERS))
    def test_every_engine_deadlocks_identically(self, scheduler):
        with pytest.raises(DeadlockError) as serial:
            self._launch(scheduler=scheduler, warp_batch=False)
        with pytest.raises(DeadlockError) as batched:
            self._launch(scheduler=scheduler, warp_batch=True)
        assert batched.value.warp_id == serial.value.warp_id
        assert sorted(batched.value.waiting) == sorted(serial.value.waiting)

    def test_deadlock_is_deterministic_across_repeats(self):
        """Ticket assignment is part of the deterministic schedule, so
        the stalled warp and lane split never vary run to run."""
        outcomes = set()
        for _ in range(3):
            with pytest.raises(DeadlockError) as exc_info:
                self._launch(warp_batch=False)
            outcomes.add(
                (exc_info.value.warp_id, tuple(sorted(exc_info.value.waiting)))
            )
        assert len(outcomes) == 1


class TestNoNumpyImport:
    """The package is pure Python: importing it and running a launch must
    not pull numpy in (it once did, through a vectorized execution layer,
    at a measurable start-up and memory cost)."""

    def test_import_and_launch_leave_numpy_unloaded(self):
        src = Path(__file__).resolve().parents[1] / "src"
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            filter(None, (str(src), env.get("PYTHONPATH")))
        )
        script = (
            "import sys\n"
            "import repro, repro.harness, repro.tools.stats\n"
            "from repro.workloads import get_workload\n"
            "get_workload('mcb', steps=4).run(mode='sr')\n"
            "print('numpy' in sys.modules)\n"
        )
        out = subprocess.run(
            [sys.executable, "-c", script], env=env, check=True,
            capture_output=True, text=True,
        ).stdout
        assert out.strip() == "False"
