"""The Section 5.4 application corpus.

"Of the 520 CUDA applications we studied, 75 had a SIMT efficiency of less
than about 80%. Our implementation detected non-trivial opportunity in 16
applications, and 5 showed significant improvement in SIMT efficiency and
runtime."

The paper's corpus is a proprietary trace database; we reproduce the
*funnel* with a parametric generator that emits 520 small kernels across
four ground-truth categories:

* ``uniform``    — no thread-varying control flow (high SIMT efficiency);
* ``mild``       — divergence too cheap/balanced to drop efficiency < 80%;
* ``disjoint``   — badly divergent, but the diverged paths share no common
  code (the first category of Section 3 — nothing for SR to exploit);
* ``detectable`` — Loop Merge / Iteration Delay shapes; a ``strong``
  subset has expensive common code (significant upside), the rest are
  marginal and may see no change or regress, as the paper observes.

Each kernel is deterministic given the corpus seed, so the funnel counts
are reproducible.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field

from repro.core.pipeline import ReconvergenceCompiler
from repro.frontend.parser import compile_kernel_source
from repro.simt.machine import GPUMachine
from repro.simt.memory import GlobalMemory

CATEGORY_COUNTS = {
    "uniform": 350,
    "mild": 95,
    "disjoint": 59,
    "detectable": 16,
}
STRONG_DETECTABLE = 5  # of the detectable apps, how many have big upside


@dataclass
class CorpusApp:
    """One generated application."""

    name: str
    category: str       # ground truth: uniform | mild | disjoint | detectable
    strong: bool        # detectable apps with significant expected upside
    source: str
    kernel_name: str
    _module: object = field(default=None, repr=False)

    def module(self):
        if self._module is None:
            self._module = compile_kernel_source(self.source, module_name=self.name)
        return self._module

    def run(self, mode="baseline", threshold=None, auto_options=None, seed=2020):
        compiler = ReconvergenceCompiler()
        compiled = compiler.compile(
            self.module(), mode=mode, threshold=threshold,
            auto_options=auto_options,
        )
        machine = GPUMachine(compiled.module, seed=seed)
        launch = machine.launch(self.kernel_name, 32, args=(), memory=GlobalMemory())
        return compiled, launch


def _uniform_source(rng, name):
    trips = rng.randint(6, 20)
    work = rng.randint(3, 8)
    body = "\n".join("        x = fma(x, 1.0001, 0.3);" for _ in range(work))
    return f"""
kernel {name}() {{
    let x = 0.0;
    for i in 0..{trips} {{
{body}
    }}
    store(tid(), x);
}}
"""


def _mild_source(rng, name):
    trips = rng.randint(8, 16)
    prob = rng.uniform(0.3, 0.7)
    return f"""
kernel {name}() {{
    let x = 0.0;
    let t = tid();
    for i in 0..{trips} {{
        x = fma(x, 1.0001, 0.3);
        x = fma(x, 1.0001, 0.3);
        x = fma(x, 1.0001, 0.3);
        if (hash01(t * 7.0 + i) < {prob:.3f}) {{
            x = x + 0.01;
        }}
        x = fma(x, 1.0001, 0.3);
        x = fma(x, 1.0001, 0.3);
    }}
    store(t, x);
}}
"""


def _disjoint_source(rng, name):
    trips = rng.randint(8, 18)
    cost_a = rng.randint(8, 16)
    cost_b = rng.randint(8, 16)
    # Both sides are the same kind of work (fma chains) so the paths are
    # genuinely disjoint-but-balanced: nothing for SR to merge.
    then_body = "\n".join("            x = fma(x, 0.999, 0.5);" for _ in range(cost_a))
    else_body = "\n".join("            y = fma(y, 1.001, 0.3);" for _ in range(cost_b))
    return f"""
kernel {name}() {{
    let x = 0.0;
    let y = 1.0;
    let t = tid();
    for i in 0..{trips} {{
        if (hash01(t * 13.0 + i * 3.0) < 0.5) {{
{then_body}
        }} else {{
{else_body}
        }}
    }}
    store(t, x + y);
}}
"""


def _detectable_source(rng, name, strong):
    # Loop Merge shape: outer task loop + divergent-trip inner loop.
    # Strong apps pull work from a dynamic queue (memory cell 0) so load
    # imbalance does not leave a long low-occupancy tail; weak apps have a
    # cheap inner loop relative to their refill, so SR regresses on them —
    # "many examples with compiler-detected opportunity see no change or
    # even regression" (Section 5.4).
    if strong:
        inner_cost = rng.randint(14, 20)
        trip_hi = rng.randint(40, 64)
        refill = 2
        tasks = rng.randint(6, 8)
        next_task = "task = atomadd(0, 1);"
        first_task = "let task = atomadd(0, 1);"
        out = "store(tid() + 64, x);"
    else:
        inner_cost = rng.randint(3, 5)
        trip_hi = rng.randint(8, 14)
        refill = rng.randint(4, 8)
        tasks = rng.randint(4, 6)
        next_task = "task = task + 32;"
        first_task = "let task = tid();"
        out = "store(tid(), x);"
    body = "\n".join("            x = fma(x, 1.0001, 0.4);" for _ in range(inner_cost))
    prolog = "\n".join("        x = fma(x, 0.999, 0.05);" for _ in range(refill))
    return f"""
kernel {name}() {{
    let x = 0.0;
    {first_task}
    while (task < {tasks * 32}) {{
{prolog}
        let u = hash01(task * 3.33);
        let trips = floor(u * u * {trip_hi}.0) + 1;
        let j = 0;
        while (j < trips) {{
            x = fma(x, 1.0001, 0.4);
{body}
            j = j + 1;
        }}
        {next_task}
    }}
    {out}
}}
"""


def generate_corpus(counts=None, seed=520, strong=STRONG_DETECTABLE):
    """Generate the corpus; returns a list of :class:`CorpusApp`."""
    counts = dict(CATEGORY_COUNTS if counts is None else counts)
    rng = random.Random(seed)
    apps = []
    makers = {
        "uniform": lambda r, n, s: _uniform_source(r, n),
        "mild": lambda r, n, s: _mild_source(r, n),
        "disjoint": lambda r, n, s: _disjoint_source(r, n),
        "detectable": _detectable_source,
    }
    for category in ("uniform", "mild", "disjoint", "detectable"):
        for index in range(counts.get(category, 0)):
            name = f"app_{category}_{index:03d}"
            is_strong = category == "detectable" and index < strong
            source = makers[category](rng, name, is_strong)
            apps.append(
                CorpusApp(
                    name=name,
                    category=category,
                    strong=is_strong,
                    source=source,
                    kernel_name=name,
                )
            )
    return apps


@dataclass
class FunnelResult:
    """Measured Section 5.4 funnel."""

    total: int
    low_efficiency: int          # SIMT efficiency < cutoff
    detected: int                # autodetect accepted >= 1 candidate
    significant: int             # detected AND speedup >= significance
    rows: list = field(default_factory=list)

    def describe(self):
        return (
            f"{self.total} apps -> {self.low_efficiency} below cutoff -> "
            f"{self.detected} detected -> {self.significant} significant"
        )


def run_funnel(
    apps,
    efficiency_cutoff=0.8,
    significance=1.10,
    auto_options=None,
):
    """Measure the paper's funnel over ``apps``.

    For every app: run the PDOM baseline; if automatic detection accepts a
    candidate, compile in ``auto`` mode and rerun; an app is *significant*
    when auto-SR speeds it up by ``significance`` or better.

    When detection accepts nothing, the ``auto`` program prints the same
    IR as the baseline, so its launch is a launch-memo hit
    (:mod:`repro.simt.memo`) as long as the baseline program is alive:
    only detected apps simulate twice.
    """
    rows = []
    low = detected = significant = 0
    for app in apps:
        base_program, baseline = app.run(mode="baseline")
        base_eff = baseline.simt_efficiency
        row = {
            "name": app.name,
            "category": app.category,
            "strong": app.strong,
            "baseline_eff": base_eff,
            "baseline_cycles": baseline.cycles,
            "detected": False,
            "auto_eff": None,
            "speedup": None,
        }
        if base_eff < efficiency_cutoff:
            low += 1
        compiled, auto_launch = app.run(mode="auto", auto_options=auto_options)
        del base_program  # held until the auto launch returned
        accepted = [c for c in compiled.report.auto_candidates if c.accepted]
        if accepted:
            detected += 1
            row["detected"] = True
            row["auto_eff"] = auto_launch.simt_efficiency
            row["speedup"] = baseline.cycles / auto_launch.cycles
            if row["speedup"] >= significance:
                significant += 1
        rows.append(row)
    return FunnelResult(
        total=len(apps),
        low_efficiency=low,
        detected=detected,
        significant=significant,
        rows=rows,
    )
