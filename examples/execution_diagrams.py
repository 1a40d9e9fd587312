#!/usr/bin/env python
"""Regenerate the Figure 1 execution cartoons from real traces.

Runs the Listing 1 kernel under PDOM synchronization and under Speculative
Reconvergence with an event sink attached, then draws lane x time diagrams: the
expensive block ('#') appears as scattered narrow slots under PDOM
(serialized duplicate execution, Figure 1a) and as wide vertical bands
under SR (converged waves, Figure 1b).

Run: ``python examples/execution_diagrams.py``
"""

from repro import GPUMachine, compile_baseline, compile_kernel_source, compile_sr
from repro.harness.timeline import convergence_series, render_timeline
from repro.obs import ListSink

KERNEL = """
kernel listing1(n_iters) {
    let acc = 0.0;
    let t = tid();
    predict L1, 12;
    for i in 0..40 {
        let u = hash01(t * 977.0 + i * 83.0);
        if (u < 0.12) {
            label L1: acc = acc + 0.5;
            acc = fma(acc, 0.999, 0.5); acc = fma(acc, 0.999, 0.5);
            acc = fma(acc, 0.999, 0.5); acc = fma(acc, 0.999, 0.5);
            acc = fma(acc, 0.999, 0.5); acc = fma(acc, 0.999, 0.5);
            acc = fma(acc, 0.999, 0.5); acc = fma(acc, 0.999, 0.5);
            acc = fma(acc, 0.999, 0.5); acc = fma(acc, 0.999, 0.5);
            acc = fma(acc, 0.999, 0.5); acc = fma(acc, 0.999, 0.5);
            acc = fma(acc, 0.999, 0.5); acc = fma(acc, 0.999, 0.5);
            acc = fma(acc, 0.999, 0.5); acc = fma(acc, 0.999, 0.5);
            acc = fma(acc, 0.999, 0.5); acc = fma(acc, 0.999, 0.5);
        }
        acc = acc * 0.9999;
    }
    store(t, acc);
}
"""


def main():
    module = compile_kernel_source(KERNEL)
    for title, program in (
        ("(a) PDOM synchronization — Expensive() serialized", compile_baseline(module)),
        ("(b) Speculative Reconvergence — Expensive() in converged waves", compile_sr(module)),
    ):
        sink = ListSink()
        launch = GPUMachine(program.module, sink=sink).launch(
            "listing1", 32, args=(40,)
        )
        print(f"=== {title}")
        print(f"    SIMT efficiency {launch.simt_efficiency:.1%}, "
              f"cycles {launch.cycles}")
        print(render_timeline(
            sink.events, width=90, highlight="L.L1", legend=False
        ))
        waves = convergence_series(sink.events, "L.L1")
        first = [w for i, w in enumerate(waves) if i % 9 == 0][:12]
        print(f"    active lanes at the Expensive() block (sampled): {first}")
        print()


if __name__ == "__main__":
    main()
