"""Host speed sampled while a job runs, so its time can be given at a
reference speed.

The shared VM the benchmark was built on changes speed by a factor of
two within seconds, and by more between hours: a fixed pure-Python loop
took 0.14 s to 0.27 s within one minute, in the same process, with CPU
time equal to wall time (no steal). Raw host seconds of one job then
say more about the host's phase than about the simulator.

So every measured job samples the host's speed as it runs. A CPU-time
interval timer (``ITIMER_PROF``) interrupts the job every
:data:`SAMPLE_CPU_S` of CPU time and runs :func:`probe`, a fixed
pure-Python loop that imports nothing from the simulator. The probe's
duration against :data:`REFERENCE_PROBE_NS` is the host's speed at that
moment. Pool workers forked by the job arm their own timer and append
their samples to ``speed-<pid>.jsonl`` in the job's output directory
(the pool ends workers without running exit hooks). Because the timer
counts CPU time, a worker samples only while it works.

A job's time at reference speed is its host time times the mean sampled
speed: the work done, in units of what the reference host does per
second (:func:`at_reference`). Set-up is sampled the same way, more
densely (:data:`SETUP_SAMPLE_CPU_S`), and its probes' own time is taken
out of it.
"""

from __future__ import annotations

import json
import os
import signal
import time

#: Iterations of :func:`probe`; about 2 ms on the reference host.
PROBE_LOOPS = 16_000
#: :func:`probe`'s duration on the reference host, a 2-vCPU Intel Xeon VM
#: in its fast phase. Any fixed value serves: it only sets the scale.
REFERENCE_PROBE_NS = 2_000_000
#: CPU seconds between samples: about 2% of a job goes to probing.
SAMPLE_CPU_S = 0.1
#: CPU seconds between samples during set-up, which lasts only 0.2-0.5 s;
#: the probes' own time is taken out of the set-up time.
SETUP_SAMPLE_CPU_S = 0.02


def probe():
    """Fixed interpreter work: dict reads and writes, list growth,
    small-int arithmetic, as the simulator's own loops do."""
    table = {}
    items = []
    for i in range(PROBE_LOOPS):
        key = i & 63
        table[key] = table.get(key, 0) + i % 7
        items.append(key)
        if len(items) == 16:
            items.clear()
    return table


def timed_probe():
    """``(start, duration)`` of one :func:`probe`, in monotonic ns."""
    start = time.monotonic_ns()
    probe()
    return start, time.monotonic_ns() - start


def mean_speed(durations_ns):
    """Mean host speed over the probes, relative to the reference host
    (1.0 if there are none)."""
    if not durations_ns:
        return 1.0
    return sum(REFERENCE_PROBE_NS / d for d in durations_ns) / len(durations_ns)


def at_reference(seconds, durations_ns):
    """``seconds`` of host time expressed at reference speed, from the
    probe durations sampled over it."""
    return seconds * mean_speed(durations_ns)


class SpeedSampler:
    """Probe samples of this process and of the workers it forks."""

    def __init__(self, out_dir):
        self.out_dir = out_dir
        self.pid = os.getpid()
        self.samples = []

    def install(self, fork_children):
        """Set the handler and, with ``fork_children``, arm the timer in
        every child forked from now on (call before the job forks its
        pool). :meth:`start` arms this process's own timer."""
        signal.signal(signal.SIGPROF, self._on_timer)
        if fork_children:
            os.register_at_fork(after_in_child=self.start)

    @staticmethod
    def start(interval_s=SAMPLE_CPU_S):
        signal.setitimer(signal.ITIMER_PROF, interval_s, interval_s)

    @staticmethod
    def stop():
        signal.setitimer(signal.ITIMER_PROF, 0, 0)

    def _on_timer(self, _signum, _frame):
        sample = timed_probe()
        if os.getpid() == self.pid:
            self.samples.append(sample)
            return
        path = os.path.join(self.out_dir, f"speed-{os.getpid()}.jsonl")
        with open(path, "a") as handle:
            handle.write(json.dumps(sample) + "\n")

    def durations(self, start_ns, end_ns):
        """Probe durations of every process, for probes that started in
        ``[start_ns, end_ns]``."""
        samples = list(self.samples)
        for entry in sorted(os.listdir(self.out_dir)):
            if entry.startswith("speed-") and entry.endswith(".jsonl"):
                with open(os.path.join(self.out_dir, entry)) as handle:
                    # A worker ended mid-write leaves a line without "\n".
                    samples.extend(json.loads(line) for line in handle if line.endswith("\n"))
        return [d for start, d in samples if start_ns <= start <= end_ns]
