"""The engine configuration (:mod:`repro.engine`): strict parsing of the
``REPRO_*`` engine variables, the ``engine_config`` override, and how the
worker pool keys on and hands out the config."""

import multiprocessing
import os
import subprocess
import sys
from dataclasses import FrozenInstanceError, fields
from pathlib import Path

import pytest

from repro.engine import EngineConfig, current_engine, engine_config
from repro.errors import ConfigError
from repro.harness import parallel
from repro.harness.parallel import resolve_jobs, run_tasks, shutdown_pool, task

FIELDS = [field.name for field in fields(EngineConfig)]


def _flipped(value):
    return not value


class TestFromEnv:
    def test_defaults(self):
        assert EngineConfig.from_env({}) == EngineConfig()
        assert EngineConfig() == EngineConfig(
            fastpath=True, segments=True, warp_batch=True, grid=True,
        )
        assert len(FIELDS) == 4

    @pytest.mark.parametrize("field", FIELDS)
    def test_each_field_reads_its_variable(self, field):
        default = getattr(EngineConfig(), field)
        raw = str(int(_flipped(default)))
        config = EngineConfig.from_env({f"REPRO_{field.upper()}": raw})
        assert getattr(config, field) == _flipped(default)

    @pytest.mark.parametrize("raw, expected", [
        ("1", True), ("true", True), ("ON", True), (" True\n", True),
        ("0", False), ("false", False), ("Off", False), ("  0 ", False),
    ])
    def test_flags_ignore_case_and_whitespace(self, raw, expected):
        assert EngineConfig.from_env({"REPRO_FASTPATH": raw}).fastpath is expected
        assert EngineConfig.from_env({"REPRO_GRID": raw}).grid is expected

    def test_empty_value_keeps_the_default(self):
        config = EngineConfig.from_env(
            {"REPRO_SEGMENTS": "", "REPRO_GRID": "  "}
        )
        assert config == EngineConfig()

    @pytest.mark.parametrize("name, raw", [
        ("REPRO_FASTPATH", "no"),
        ("REPRO_SEGMENTS", "yes"),
        ("REPRO_WARP_BATCH", "2"),
        ("REPRO_GRID", "of"),
    ])
    def test_bad_values_name_the_variable(self, name, raw):
        with pytest.raises(ConfigError) as excinfo:
            EngineConfig.from_env({name: raw})
        assert name in str(excinfo.value)
        assert repr(raw) in str(excinfo.value)

    def test_unknown_repro_names_are_ignored(self):
        # perfbench's leave-one-out table still sets retired layers'
        # variables, and an old shell may still set the retired
        # compile-cache switch, to any value.
        env = {"REPRO_SOA": "0", "REPRO_SPEC": "0", "REPRO_JOBS": "4"}
        for stale in ("0", "disabled"):
            env["REPRO_COMPILE_CACHE"] = stale
            assert EngineConfig.from_env(env) == EngineConfig()

    @pytest.mark.parametrize("env", [
        {"REPRO_JIT": "0"},
        {"REPRO_JIT": "maybe"},
        {"REPRO_JIT_THRESHOLD": "0"},
        {"REPRO_JIT_THRESHOLD": "abc"},
    ])
    def test_retired_jit_names_are_ignored(self, env):
        # Compiled segments are switched by REPRO_SEGMENTS alone; the old
        # JIT variables (still set by perfbench --loo) must neither
        # change the config nor raise.
        assert EngineConfig.from_env(env) == EngineConfig()

    def test_bad_value_fails_the_import_with_a_typed_error(self):
        src = Path(__file__).resolve().parents[1] / "src"
        env = dict(os.environ, PYTHONPATH=str(src), REPRO_SEGMENTS="abc")
        proc = subprocess.run(
            [sys.executable, "-c", "import repro.simt"], env=env,
            capture_output=True, text=True,
        )
        assert proc.returncode != 0
        assert "repro.errors.ConfigError: REPRO_SEGMENTS='abc'" in proc.stderr

    def test_resolve_jobs_uses_the_same_error(self, monkeypatch):
        monkeypatch.setenv("REPRO_JOBS", "abc")
        with pytest.raises(ConfigError, match="REPRO_JOBS='abc'"):
            resolve_jobs()
        monkeypatch.setenv("REPRO_JOBS", " 3 ")
        assert resolve_jobs() == 3


class TestEngineConfig:
    def test_frozen_and_hashable(self):
        config = EngineConfig()
        with pytest.raises(FrozenInstanceError):
            config.segments = False
        assert hash(config) == hash(EngineConfig())

    def test_unknown_override_is_rejected(self):
        with pytest.raises(TypeError):
            with engine_config(soa=False):
                pass

    def test_engine_config_restores_on_exit(self):
        before = current_engine()
        with engine_config(segments=False, grid=False) as active:
            assert current_engine() is active
            assert (active.segments, active.grid) == (False, False)
            with engine_config(segments=True):
                assert current_engine().segments is True
                assert current_engine().grid is False
            assert current_engine() is active
        assert current_engine() is before
        with pytest.raises(RuntimeError):
            with engine_config(segments=False):
                raise RuntimeError("boom")
        assert current_engine() is before


@pytest.fixture
def fresh_pool():
    shutdown_pool()
    yield
    shutdown_pool()


class TestPool:
    @pytest.mark.parametrize("field", FIELDS)
    def test_every_field_is_in_the_pool_key(self, field):
        """A field added to EngineConfig is in the key without any
        bookkeeping: flipping any field must change it."""
        before = parallel._pool_key(2)
        with engine_config(**{field: _flipped(getattr(current_engine(), field))}):
            assert parallel._pool_key(2) != before
        assert parallel._pool_key(2) == before

    def test_spawned_workers_get_in_process_overrides(
        self, fresh_pool, monkeypatch
    ):
        """Where ``fork`` is unavailable the pool falls back to ``spawn``,
        whose workers re-import everything and re-parse the environment:
        the initializer must still hand them the parent's settings."""
        get_context = multiprocessing.get_context

        def no_fork(method=None):
            if method == "fork":
                raise ValueError("cannot find context for 'fork'")
            return get_context(method)

        monkeypatch.setattr(multiprocessing, "get_context", no_fork)
        with engine_config(segments=False, grid=False):
            configs = run_tasks([task(current_engine)] * 2, jobs=2)
        assert [(c.segments, c.grid) for c in configs] == [(False, False)] * 2
