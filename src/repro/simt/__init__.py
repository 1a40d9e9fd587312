"""Volta-style SIMT warp simulator with convergence barriers."""

from repro.simt.barrier_state import ALL_MEMBERS, BarrierFile, ConvergenceBarrier
from repro.simt.costs import DEFAULT_COST_MODEL, CostModel
from repro.simt.executor import Executor
from repro.simt.fastpath import (
    DecodedInstruction,
    DecodedProgram,
    decode_program,
)
from repro.simt.batch import WarpBatcher
from repro.simt.cta import CTASYNC_BARRIER, CTAContext
from repro.simt.grid import GridLaunch, GridResult
from repro.simt.machine import DEFAULT_MAX_ISSUES, GPUMachine, LaunchResult
from repro.simt.segments import Segment, SegmentTable
from repro.simt.memory import GlobalMemory, SharedMemory
from repro.simt.profiler import BlockProfile, Profiler
from repro.simt.rng import XorShift32, mix_seed
from repro.simt.reference import run_reference_launch, run_reference_thread
from repro.simt.stack_machine import StackGPUMachine
from repro.simt.scheduler import (
    SCHEDULERS,
    ConvergenceScheduler,
    OldestFirstScheduler,
    RoundRobinScheduler,
    make_scheduler,
)
from repro.simt.warp import WARP_SIZE, Frame, Thread, ThreadState, Warp

__all__ = [
    "ALL_MEMBERS",
    "BarrierFile",
    "BlockProfile",
    "CTASYNC_BARRIER",
    "CTAContext",
    "ConvergenceBarrier",
    "ConvergenceScheduler",
    "CostModel",
    "DEFAULT_COST_MODEL",
    "DEFAULT_MAX_ISSUES",
    "DecodedInstruction",
    "DecodedProgram",
    "Executor",
    "Frame",
    "GPUMachine",
    "GlobalMemory",
    "GridLaunch",
    "GridResult",
    "LaunchResult",
    "OldestFirstScheduler",
    "Profiler",
    "RoundRobinScheduler",
    "SCHEDULERS",
    "Segment",
    "SegmentTable",
    "SharedMemory",
    "StackGPUMachine",
    "Thread",
    "ThreadState",
    "WARP_SIZE",
    "Warp",
    "WarpBatcher",
    "XorShift32",
    "decode_program",
    "make_scheduler",
    "mix_seed",
    "run_reference_launch",
    "run_reference_thread",
]
