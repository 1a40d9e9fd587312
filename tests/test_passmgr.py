"""The pass manager: registry, pipelines, AnalysisManager, debug toolkit.

Pins the ISSUE 3 acceptance property directly: the AnalysisManager reuses
a cached divergence analysis across non-invalidating passes and
recomputes it after a CFG-mutating pass; and the four compile modes are
plain registered pipeline descriptions executed by the PassManager.
"""

import io
import json
import pickle

import pytest

from repro import compile_kernel_source
from repro.core import (
    ALL_ANALYSES,
    MODE_PIPELINES,
    MODES,
    PASS_REGISTRY,
    AnalysisManager,
    Pass,
    PassContext,
    PassManager,
    PipelineError,
    ReconvergenceCompiler,
    bisect_pipeline,
    compile_cached,
    compile_sr,
    format_pipeline,
    list_passes,
    parse_pipeline,
    pipeline_for_mode,
    record_pipeline_trace,
)
from repro.engine import engine_config
from repro.errors import ConfigError, TransformError
from repro.obs import counters as obs_counters
from repro.ir.printer import format_module

from .helpers import diamond_function

PREDICTED = """
kernel k() {
    let acc = 0.0;
    let t = tid();
    predict L1;
    for i in 0..6 {
        if (hash01(t * 13.0 + i) < 0.3) {
            label L1: acc = acc + 1.0;
        }
    }
    store(t, acc);
}
"""


def predicted_module():
    return compile_kernel_source(PREDICTED)


class TestPipelineParsing:
    def test_simple_list(self):
        specs = parse_pipeline("pdom-sync,allocate,verify")
        assert [s.name for s in specs] == ["pdom-sync", "allocate", "verify"]
        assert format_pipeline(specs) == "pdom-sync,allocate,verify"

    def test_options_and_positional(self):
        specs = parse_pipeline("deconflict[static],optimize[max-iterations=3]")
        assert specs[0].options_dict() == {"strategy": "static"}
        assert specs[1].options_dict() == {"max_iterations": 3}
        # Canonical form spells the positional option out.
        assert format_pipeline(specs) == (
            "deconflict[strategy=static],optimize[max-iterations=3]"
        )

    def test_unknown_pass_rejected_eagerly(self):
        with pytest.raises(PipelineError, match="unknown pass"):
            parse_pipeline("pdom-sync,no-such-pass")

    def test_unknown_option_rejected(self):
        specs = parse_pipeline("allocate[budget=3]")
        with pytest.raises(PipelineError, match="unknown option"):
            PASS_REGISTRY.create(specs[0].name, specs[0].options_dict())

    def test_positional_on_optionless_pass_rejected(self):
        with pytest.raises(PipelineError, match="no positional option"):
            parse_pipeline("verify[fast]")

    def test_malformed(self):
        with pytest.raises(PipelineError):
            parse_pipeline("pdom-sync,[x]")
        with pytest.raises(PipelineError):
            parse_pipeline("deconflict[static")

    def test_empty_pipeline(self):
        assert parse_pipeline("") == []


class TestRegistry:
    def test_mode_pipelines_are_registered(self):
        # Acceptance: every compile mode is a registered pipeline description.
        for mode in MODES:
            description = pipeline_for_mode(mode)
            for spec in parse_pipeline(description):
                assert spec.name in PASS_REGISTRY

    def test_listing_is_deterministic_one_line_docs(self):
        listing = list_passes()
        lines = listing.splitlines()
        assert lines == sorted(lines)
        names = [line.split()[0] for line in lines]
        assert "pdom-sync" in names and "deconflict" in names
        assert listing == list_passes()

    def test_unknown_mode(self):
        with pytest.raises(TransformError, match="unknown compile mode"):
            pipeline_for_mode("turbo")

    def test_no_memory_summary_pass_or_analysis(self):
        # The launch-time proof (repro.analysis.memeffects) is not a
        # compiler pass: it runs against concrete launch arguments.
        assert "mem-effects" not in PASS_REGISTRY
        with pytest.raises(PipelineError, match="unknown pass"):
            parse_pipeline("strip-directives,mem-effects")
        module, _ = diamond_function()
        with pytest.raises(PipelineError, match="unknown analysis"):
            AnalysisManager(module).get("memeffects")


class TestAnalysisManager:
    def test_hit_then_recompute_after_mutation(self):
        module, fn = diamond_function()
        am = AnalysisManager(module)
        first = am.get("divergence")
        assert am.get("divergence") is first
        assert (am.hits, am.misses) == (1, 1)
        # Structural mutation (token safety net): drop a block's worth of
        # structure by renaming nothing but adding an instruction count
        # change via strip of the terminator — simplest: new function name
        # is too invasive; just mutate a block's instruction list.
        block = fn.blocks[0]
        block.instructions.append(block.instructions[-1])
        try:
            assert am.get("divergence") is not None
            assert am.misses == 2
        finally:
            block.instructions.pop()

    def test_invalidate_preserved_entries_survive(self):
        module, _ = diamond_function()
        am = AnalysisManager(module)
        am.get("divergence")
        am.get("cfg")
        am.invalidate(preserved={"divergence"})
        assert am.cached("divergence") is not None
        assert am.cached("cfg") is None
        assert am.invalidated == 1
        am.invalidate(preserved=ALL_ANALYSES)
        assert am.cached("divergence") is not None

    def test_unknown_analysis(self):
        module, _ = diamond_function()
        with pytest.raises(PipelineError, match="unknown analysis"):
            AnalysisManager(module).get("entropy")

    def test_reuse_across_non_invalidating_passes(self):
        # Acceptance criterion, end to end: pdom-sync preserves all
        # analyses, so a second pdom-sync reuses the cached divergence.
        program = ReconvergenceCompiler(allocate=False, verify=False).compile(
            predicted_module(), mode="sr",
            pipeline="pdom-sync,pdom-sync,strip-directives",
        )
        stats = program.report.analysis_stats
        assert stats["misses"] == 1
        assert stats["hits"] == 1

    def test_recompute_after_cfg_mutating_pass(self):
        # ...and a CFG-mutating pass (optimize merges blocks) in between
        # forces a recompute.
        program = ReconvergenceCompiler(allocate=False, verify=False).compile(
            predicted_module(), mode="sr",
            pipeline="pdom-sync,optimize,pdom-sync,strip-directives",
        )
        stats = program.report.analysis_stats
        assert stats["misses"] == 2
        assert stats["hits"] == 0
        assert stats["invalidated"] >= 1


class TestCompilerFacade:
    def test_mode_resolution_matches_legacy(self):
        # The façade's sr output is bit-identical to an explicit run of
        # the registered sr pipeline.
        module = predicted_module()
        by_mode = ReconvergenceCompiler().compile(module, mode="sr")
        explicit = ReconvergenceCompiler().compile(
            module, pipeline=pipeline_for_mode("sr")
        )
        assert format_module(by_mode.module) == format_module(explicit.module)
        assert by_mode.report.pipeline == explicit.report.pipeline

    def test_report_records_canonical_pipeline(self):
        program = ReconvergenceCompiler().compile(
            predicted_module(), mode="baseline"
        )
        assert program.report.pipeline == (
            "pdom-sync,strip-directives,allocate,verify"
        )

    def test_constructor_flags_shape_pipeline(self):
        compiler = ReconvergenceCompiler(
            optimize=True, allocate=False, verify=False
        )
        specs = compiler.resolve_pipeline("none")
        assert format_pipeline(specs) == "optimize,strip-directives"

    def test_env_pipeline_override(self, monkeypatch):
        monkeypatch.setenv("REPRO_PIPELINE", "strip-directives,verify")
        program = ReconvergenceCompiler().compile(predicted_module(), mode="sr")
        assert program.report.pipeline == "strip-directives,verify"
        assert [s.name for s in program.report.spans] == [
            "strip-directives", "verify",
        ]

    def test_unknown_mode_still_rejected(self):
        with pytest.raises(TransformError, match="unknown compile mode"):
            ReconvergenceCompiler().compile(predicted_module(), mode="bogus")

    def test_deconflict_strategy_option_overrides_compiler(self):
        program = ReconvergenceCompiler(deconfliction="dynamic").compile(
            predicted_module(), mode="sr",
            pipeline="collect-predictions,pdom-sync,sr-insert,"
                     "deconflict[static],strip-directives,allocate,verify",
        )
        assert all(
            r.strategy == "static"
            for r in program.report.deconfliction_reports
        )

    def test_mode_pipelines_cover_all_modes(self):
        assert set(MODE_PIPELINES) == set(MODES)


class TestDescribe:
    def test_describe_includes_pdom_and_auto(self):
        # Satellite: pdom_reports and auto_candidates used to be omitted.
        program = ReconvergenceCompiler().compile(
            predicted_module(), mode="auto",
            auto_options={"auto_threshold": 4},
        )
        text = program.report.describe()
        assert program.report.pdom_reports
        assert "pdom@k:" in text
        assert program.report.auto_candidates
        assert "auto: " in text

    def test_describe_lists_every_pdom_function(self):
        program = ReconvergenceCompiler().compile(
            predicted_module(), mode="baseline"
        )
        for name in program.report.pdom_reports:
            assert f"pdom@{name}:" in program.report.describe()

    def test_pdom_report_describe_no_divergence(self):
        module, _ = diamond_function(divergent=False)
        program = ReconvergenceCompiler().compile(module, mode="baseline")
        assert "no divergent branches" in program.report.pdom_reports["k"].describe()


class TestDebugToolkit:
    def test_stop_after(self):
        program = ReconvergenceCompiler(stop_after="pdom-sync").compile(
            predicted_module(), mode="sr"
        )
        names = [s.name for s in program.report.spans]
        assert names[-1] == "pdom-sync"
        assert "sr-insert" not in names
        # Predict directives are still present mid-compilation.
        assert any(
            instr.opcode.value == "predict"
            for fn in program.module
            for blk in fn.blocks
            for instr in blk.instructions
        )

    def test_print_after_all(self):
        stream = io.StringIO()
        manager = PassManager(
            "strip-directives,verify",
            print_after_all=True,
            print_stream=stream,
        )
        manager.run(predicted_module().clone())
        text = stream.getvalue()
        assert "; IR after strip-directives" in text
        assert "; IR after verify" in text
        assert "func @k" in text

    def test_verify_each_names_failing_pass(self):
        class BreakerPass(Pass):
            name = "breaker"
            description = "test-only: damages the module"

            def run(self, module, ctx):
                for fn in module:
                    fn.blocks[0].instructions.pop()  # drop the terminator
                    break

        PASS_REGISTRY._passes["breaker"] = BreakerPass
        try:
            manager = PassManager("breaker,verify", verify_each=True)
            with pytest.raises(TransformError, match="after pass 'breaker'"):
                manager.run(predicted_module().clone())
        finally:
            del PASS_REGISTRY._passes["breaker"]

    def test_env_flags(self, monkeypatch):
        monkeypatch.setenv("REPRO_STOP_AFTER", "pdom-sync")
        manager = PassManager("pdom-sync,allocate")
        assert manager.stop_after == "pdom-sync"
        monkeypatch.setenv("REPRO_VERIFY_EACH_PASS", "1")
        assert PassManager("verify").verify_each is True

    def test_spans_cover_every_pass(self):
        program = compile_sr(predicted_module())
        span_names = [s.name for s in program.report.spans]
        for spec in parse_pipeline(program.report.pipeline):
            assert spec.name in span_names


class TestBisector:
    def test_trace_round_trips_through_json(self, tmp_path):
        module = predicted_module()
        pipeline = pipeline_for_mode("sr")
        trace = record_pipeline_trace(module, pipeline)
        path = tmp_path / "trace.json"
        path.write_text(json.dumps(trace))
        golden = json.loads(path.read_text())
        assert not bisect_pipeline(module, pipeline, golden).divergent

    def test_finds_first_diverging_pass(self):
        module = predicted_module()
        golden = record_pipeline_trace(module, pipeline_for_mode("sr"))
        altered = (
            "collect-predictions,pdom-sync,sr-insert,"
            "deconflict[static],strip-directives,allocate,verify"
        )
        result = bisect_pipeline(module, altered, golden)
        assert result.divergent
        assert result.pass_index == 3
        assert "deconflict" in result.pass_name

    def test_reports_missing_and_extra_passes(self):
        module = predicted_module()
        golden = record_pipeline_trace(module, "strip-directives,allocate")
        shorter = bisect_pipeline(module, "strip-directives", golden)
        assert shorter.divergent and "missing-pass" in shorter.reason
        longer = bisect_pipeline(
            module, "strip-directives,allocate,verify,lint", golden
        )
        assert longer.divergent and "extra-pass" in longer.reason

    def test_ir_divergence_detected(self):
        module = predicted_module()
        golden = record_pipeline_trace(module, "pdom-sync,strip-directives")
        # Same pass names, different output: assume_all_divergent barriers
        # extra branches.
        result = bisect_pipeline(
            module,
            "pdom-sync[assume-all-divergent=true],strip-directives",
            golden,
        )
        assert result.divergent
        # The spec text differs too, so the mismatch is caught at pass 0.
        assert result.pass_index == 0


@pytest.fixture
def cache_moves():
    """The compile cache on, whatever the environment; yields a function
    returning the ``(hits, misses)`` counted since the test started."""
    with engine_config(compile_cache=True):
        before = obs_counters.snapshot()

        def moved():
            delta = obs_counters.delta(obs_counters.snapshot(), before)
            return delta["program_cache.hit"], delta["program_cache.miss"]

        yield moved


class TestProgramCachePipelineKeys:
    # The pipeline description and pass options are part of the key.

    def test_distinct_pipelines_distinct_entries(self, cache_moves):
        module = predicted_module()
        a = compile_cached(module, mode="sr")
        b = compile_cached(
            module, mode="sr",
            pipeline="collect-predictions,pdom-sync,sr-insert,"
                     "deconflict[static],strip-directives,allocate,verify",
        )
        assert cache_moves() == (0, 2)
        assert a is not b

    def test_pass_option_changes_distinct_entries(self, cache_moves):
        module = predicted_module()
        compile_cached(module, pipeline="strip-directives,allocate")
        compile_cached(module, pipeline="strip-directives,allocate,verify")
        assert cache_moves() == (0, 2)

    def test_repeated_compile_hits(self, cache_moves):
        module = predicted_module()
        pipeline = "pdom-sync,strip-directives,allocate,verify"
        first = compile_cached(module, mode="baseline", pipeline=pipeline)
        second = compile_cached(module, mode="baseline", pipeline=pipeline)
        assert first is second
        assert cache_moves() == (1, 1)

    def test_env_pipeline_distinguishes_entries(self, cache_moves,
                                                monkeypatch):
        module = predicted_module()
        compile_cached(module, mode="sr")
        monkeypatch.setenv("REPRO_PIPELINE", "strip-directives,verify")
        program = compile_cached(module, mode="sr")
        assert cache_moves() == (0, 2)
        assert program.report.pipeline == "strip-directives,verify"
        monkeypatch.delenv("REPRO_PIPELINE")
        assert compile_cached(module, mode="sr").report.pipeline != (
            "strip-directives,verify"
        )
        assert cache_moves() == (1, 2)

    def test_compile_cached_forwards_pipeline(self):
        program = compile_cached(
            predicted_module(), mode="sr", pipeline="strip-directives,verify"
        )
        assert program.report.pipeline == "strip-directives,verify"


class TestCompileCacheOff:
    def test_each_call_compiles_afresh(self):
        """With the compile cache off every call compiles, counts one
        miss, and prints the same IR as the cached compile."""
        module = predicted_module()
        with engine_config(compile_cache=True):
            cached = compile_cached(module, mode="sr")
        with engine_config(compile_cache=False):
            before = obs_counters.snapshot()
            first = compile_cached(module, mode="sr")
            second = compile_cached(module, mode="sr")
            moved = obs_counters.delta(obs_counters.snapshot(), before)
        assert moved["program_cache.miss"] == 2
        assert moved["program_cache.hit"] == 0
        assert len({id(cached), id(first), id(second)}) == 3
        assert format_module(first.module) == format_module(cached.module)
        assert format_module(second.module) == format_module(cached.module)


class TestDebugFlags:
    @pytest.mark.parametrize(
        "raw, expected",
        [("", False), ("0", False), ("Off", False), ("1", True),
         ("TRUE", True), (" on ", True)],
    )
    def test_spellings(self, monkeypatch, raw, expected):
        monkeypatch.setenv("REPRO_VERIFY_EACH_PASS", raw)
        monkeypatch.setenv("REPRO_PRINT_AFTER_ALL", raw)
        manager = PassManager("verify")
        assert manager.verify_each is expected
        assert manager.print_after_all is expected

    @pytest.mark.parametrize(
        "name", ["REPRO_VERIFY_EACH_PASS", "REPRO_PRINT_AFTER_ALL"]
    )
    @pytest.mark.parametrize("raw", ["2", "yes", "maybe"])
    def test_bad_values_name_the_variable(self, monkeypatch, name, raw):
        monkeypatch.setenv(name, raw)
        with pytest.raises(ConfigError, match=name):
            PassManager("verify")


class TestPassContext:
    def test_standalone_context_gets_report_and_namer(self):
        ctx = PassContext()
        assert ctx.report is not None
        assert ctx.namer is not None

    def test_pass_manager_runs_sr_pipeline_standalone(self):
        module = predicted_module().clone()
        ctx = PassContext(mode="sr")
        PassManager(pipeline_for_mode("sr")).run(module, ctx)
        assert ctx.report.predictions
        assert ctx.report.allocation


class TestCompileReport:
    def test_report_pickles_and_compares_equal(self):
        report = ReconvergenceCompiler().compile(predicted_module()).report
        copy = pickle.loads(pickle.dumps(report))
        assert copy == report
        copy.pass_stats = {"extra": 1}
        assert copy != report
