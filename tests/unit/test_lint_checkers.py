"""Behavioural tests for the built-in reprolint checkers, driven by
small synthetic source trees written to ``tmp_path``."""

from __future__ import annotations

import pathlib
import textwrap

from repro.lint import LintConfig, lint_paths


def _lint(tmp_path: pathlib.Path, rules, files: dict[str, str], **overrides):
    for rel, source in files.items():
        path = tmp_path / rel
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(textwrap.dedent(source))
    config = LintConfig(rules=tuple(rules), **overrides)
    return lint_paths([tmp_path], tmp_path, config=config)


class TestUnitsRL001:
    def test_flags_conversion_arithmetic(self, tmp_path):
        result = _lint(
            tmp_path,
            ["RL001"],
            {
                "mod.py": """\
                def f(hz, byps, bits):
                    a = hz / 1e9
                    b = byps * 8
                    c = 1024**2
                    d = 2**30
                    e = bits >= 1e6
                    return a, b, c, d, e
                """
            },
        )
        assert len(result.findings) == 5
        assert {f.rule for f in result.findings} == {"RL001"}

    def test_bare_magnitudes_are_not_conversions(self, tmp_path):
        result = _lint(
            tmp_path,
            ["RL001"],
            {
                "mod.py": """\
                INSTRUCTIONS_PER_ITERATION = 1.0e9
                BANDWIDTH = 1e6
                EIGHT = 8
                """
            },
        )
        assert result.ok

    def test_count_of_units_constants_allowed(self, tmp_path):
        result = _lint(
            tmp_path,
            ["RL001"],
            {
                "mod.py": """\
                from repro.units import GIB

                CAPACITY = 8 * GIB
                """
            },
        )
        assert result.ok

    def test_allowlisted_module_exempt(self, tmp_path):
        source = "def ghz(v):\n    return v * 1e9\n"
        flagged = _lint(tmp_path / "a", ["RL001"], {"conv.py": source})
        assert not flagged.ok
        exempt = _lint(
            tmp_path / "b",
            ["RL001"],
            {"units.py": source},
            units_allowed=("units.py",),
        )
        assert exempt.ok


class TestDeterminismRL002:
    def test_flags_entropy_and_clock_sources(self, tmp_path):
        result = _lint(
            tmp_path,
            ["RL002"],
            {
                "mod.py": """\
                import os
                import random
                import time
                import numpy as np
                from datetime import datetime


                def f():
                    return (
                        random.gauss(0, 1),
                        np.random.default_rng(),
                        time.time(),
                        datetime.now(),
                        os.urandom(8),
                    )
                """
            },
        )
        assert len(result.findings) == 5
        assert {f.rule for f in result.findings} == {"RL002"}

    def test_from_import_alias_resolved(self, tmp_path):
        result = _lint(
            tmp_path,
            ["RL002"],
            {
                "mod.py": """\
                from random import random as draw


                def f():
                    return draw()
                """
            },
        )
        assert len(result.findings) == 1
        assert "random.random" in result.findings[0].message

    def test_perf_counter_and_named_streams_allowed(self, tmp_path):
        result = _lint(
            tmp_path,
            ["RL002"],
            {
                "mod.py": """\
                import time

                from repro import rng


                def f(seed):
                    t0 = time.perf_counter()
                    gen = rng.derive(seed, "stream")
                    return gen.random(), time.perf_counter() - t0
                """
            },
        )
        assert result.ok

    def test_allowlisted_rng_module_exempt(self, tmp_path):
        source = "import numpy as np\n\n\ndef derive(seed):\n    return np.random.default_rng(seed)\n"
        assert not _lint(tmp_path / "a", ["RL002"], {"mod.py": source}).ok
        assert _lint(
            tmp_path / "b",
            ["RL002"],
            {"rng.py": source},
            determinism_allowed=("rng.py",),
        ).ok


_FORK_TEMPLATE = """\
_STATE = {{}}
_LOG = []


def _helper(key, value):
{helper_body}


def worker(shard):
    _helper(len(shard), sum(shard))
    return sum(shard)


def parent_side():
    global _STATE
    _STATE = {{}}


def run(pool, shards):
    return [pool.submit(worker, s) for s in shards]
"""


class TestForkSafetyRL003:
    def test_flags_mutations_reachable_from_worker(self, tmp_path):
        result = _lint(
            tmp_path,
            ["RL003"],
            {
                "mod.py": _FORK_TEMPLATE.format(
                    helper_body="    _STATE[key] = value\n    _LOG.append(key)"
                )
            },
        )
        assert len(result.findings) == 2
        names = {f.message.split("'")[1] for f in result.findings}
        assert names == {"_STATE", "_LOG"}

    def test_parent_side_mutation_not_flagged(self, tmp_path):
        # parent_side() rebinds _STATE but is never handed to the pool
        result = _lint(
            tmp_path,
            ["RL003"],
            {"mod.py": _FORK_TEMPLATE.format(helper_body="    return None")},
        )
        assert result.ok

    def test_local_shadowing_not_flagged(self, tmp_path):
        result = _lint(
            tmp_path,
            ["RL003"],
            {
                "mod.py": """\
                _STATE = {}


                def worker(shard):
                    _STATE = {}
                    _STATE[0] = sum(shard)
                    return _STATE


                def run(pool, shards):
                    return [pool.submit(worker, s) for s in shards]
                """
            },
        )
        assert result.ok

    def test_no_pool_means_no_entry_points(self, tmp_path):
        result = _lint(
            tmp_path,
            ["RL003"],
            {
                "mod.py": """\
                _STATE = {}


                def mutate(key, value):
                    _STATE[key] = value
                """
            },
        )
        assert result.ok


class TestAtomicIoRL004:
    def test_scoped_module_flags_every_bare_write(self, tmp_path):
        result = _lint(
            tmp_path,
            ["RL004"],
            {
                "store.py": """\
                import json


                def put(path, payload):
                    with open(path, "w") as fh:
                        json.dump(payload, fh)
                """
            },
            atomic_modules=("store.py",),
        )
        # both the truncating open() and the stream dump are bare writes
        assert len(result.findings) == 2
        assert {f.rule for f in result.findings} == {"RL004"}

    def test_marker_scopes_writes_outside_atomic_modules(self, tmp_path):
        result = _lint(
            tmp_path,
            ["RL004"],
            {
                "mod.py": """\
                def save(checkpoint_path, text):
                    with open(checkpoint_path, "w") as fh:
                        fh.write(text)


                def unrelated(report_path, text):
                    with open(report_path, "w") as fh:
                        fh.write(text)
                """
            },
        )
        assert len(result.findings) == 1
        assert "checkpoint_path" in result.findings[0].message

    def test_tmp_rename_idiom_passes(self, tmp_path):
        result = _lint(
            tmp_path,
            ["RL004"],
            {
                "store.py": """\
                import os
                import pathlib


                def put(path, blob):
                    tmp = pathlib.Path(str(path) + ".tmp")
                    tmp.write_bytes(blob)
                    os.replace(tmp, path)
                """
            },
            atomic_modules=("store.py",),
        )
        assert result.ok

    def test_memory_buffer_staging_passes(self, tmp_path):
        result = _lint(
            tmp_path,
            ["RL004"],
            {
                "store.py": """\
                import io
                import json
                import os
                import pathlib


                def put(path, payload):
                    buffer = io.StringIO()
                    json.dump(payload, buffer)
                    tmp = pathlib.Path(str(path) + ".tmp")
                    tmp.write_text(buffer.getvalue())
                    os.replace(tmp, path)
                """
            },
            atomic_modules=("store.py",),
        )
        assert result.ok

    def test_pid_only_temp_name_is_flagged(self, tmp_path):
        result = _lint(
            tmp_path,
            ["RL004"],
            {
                "store.py": """\
                import os


                def put(path, blob):
                    tmp = path.with_name(f".{path.name}.tmp{os.getpid()}")
                    tmp.write_bytes(blob)
                    os.replace(tmp, path)
                """
            },
            atomic_modules=("store.py",),
        )
        assert len(result.findings) == 1
        assert "os.getpid() alone" in result.findings[0].message

    def test_thread_unique_temp_name_passes(self, tmp_path):
        result = _lint(
            tmp_path,
            ["RL004"],
            {
                "store.py": """\
                import os
                import threading as th


                def put(path, blob):
                    tmp = path.with_name(
                        f".{path.name}.tmp{os.getpid()}-{th.get_ident()}"
                    )
                    tmp.write_bytes(blob)
                    os.replace(tmp, path)
                """
            },
            atomic_modules=("store.py",),
        )
        assert result.ok

    def test_string_replace_is_not_a_rename(self, tmp_path):
        # text.replace() must not satisfy the tmp+rename requirement
        result = _lint(
            tmp_path,
            ["RL004"],
            {
                "store.py": """\
                def put(path, text):
                    cleaned = text.replace("a", "b")
                    with open(path, "w") as fh:
                        fh.write(cleaned)
                """
            },
            atomic_modules=("store.py",),
        )
        assert len(result.findings) == 1


    _LEDGER = """\
    class Ledger:
        def _append(self, line):
            with open(self.path, "a") as fh:
                fh.write(line)

        def _rewrite(self, line):
            with open(self.path, "w") as fh:
                fh.write(line)


    def journal(path, line):
        with open(path, "a") as fh:
            fh.write(line)
    """

    def test_append_is_flagged_without_the_named_appender(self, tmp_path):
        result = _lint(
            tmp_path,
            ["RL004"],
            {"ledger.py": self._LEDGER},
            atomic_modules=("ledger.py",),
        )
        assert [f.line for f in result.findings] == [3, 7, 12]

    def test_append_at_a_checkpoint_path_is_flagged(self, tmp_path):
        result = _lint(
            tmp_path,
            ["RL004"],
            {
                "mod.py": """\
                def log(checkpoint_path, line):
                    with open(checkpoint_path, "a") as fh:
                        fh.write(line)
                """
            },
        )
        assert len(result.findings) == 1
        assert "checkpoint_path" in result.findings[0].message


_OBS_CONFIG = {"obs_entry_points": ("pipe.stage",)}


class TestObsCoverageRL005:
    def test_uninstrumented_entry_point_flagged(self, tmp_path):
        result = _lint(
            tmp_path,
            ["RL005"],
            {"pipe.py": "def stage(x):\n    return x\n"},
            **_OBS_CONFIG,
        )
        assert len(result.findings) == 1
        assert "stage" in result.findings[0].message

    def test_direct_span_passes(self, tmp_path):
        result = _lint(
            tmp_path,
            ["RL005"],
            {
                "pipe.py": """\
                from repro import obs


                def stage(x):
                    with obs.span("stage"):
                        return x
                """
            },
            **_OBS_CONFIG,
        )
        assert result.ok

    def test_depth_one_delegation_passes(self, tmp_path):
        result = _lint(
            tmp_path,
            ["RL005"],
            {
                "pipe.py": """\
                from repro import obs


                def _impl(x):
                    with obs.span("stage"):
                        return x


                def stage(x):
                    return _impl(x)
                """
            },
            **_OBS_CONFIG,
        )
        assert result.ok

    def test_counter_only_delegation_is_flagged(self, tmp_path):
        # a counter is not a span: the trace of stage() would be blank
        result = _lint(
            tmp_path,
            ["RL005"],
            {
                "pipe.py": """\
                from repro import obs


                def _impl(x):
                    obs.add("pipe.calls")
                    return x


                def stage(x):
                    obs.add("pipe.stages")
                    return _impl(x)
                """
            },
            **_OBS_CONFIG,
        )
        assert len(result.findings) == 1
        assert "stage() has no repro.obs span" in result.findings[0].message

    def test_missing_entry_point_is_config_drift(self, tmp_path):
        result = _lint(
            tmp_path,
            ["RL005"],
            {"pipe.py": "def renamed(x):\n    return x\n"},
            **_OBS_CONFIG,
        )
        assert len(result.findings) == 1
        assert "not found" in result.findings[0].message

    def test_unscanned_module_skipped(self, tmp_path):
        result = _lint(
            tmp_path,
            ["RL005"],
            {"other.py": "def stage(x):\n    return x\n"},
            **_OBS_CONFIG,
        )
        assert result.ok


class TestAsyncBlockingRL006:
    def test_direct_blocking_call_flagged(self, tmp_path):
        result = _lint(
            tmp_path,
            ["RL006"],
            {
                "mod.py": """\
                import time


                async def nap():
                    time.sleep(1)
                """
            },
        )
        assert [f.rule for f in result.findings] == ["RL006"]
        assert "sleep" in result.findings[0].message

    def test_transitive_chain_flagged_with_path(self, tmp_path):
        result = _lint(
            tmp_path,
            ["RL006"],
            {
                "mod.py": """\
                import subprocess


                def run_tool():
                    subprocess.run(["true"])


                def wrapper():
                    run_tool()


                async def go():
                    wrapper()
                """
            },
        )
        assert [f.rule for f in result.findings] == ["RL006"]
        assert "wrapper -> run_tool -> run" in result.findings[0].message

    def test_to_thread_boundary_is_clean(self, tmp_path):
        result = _lint(
            tmp_path,
            ["RL006"],
            {
                "mod.py": """\
                import asyncio
                import time


                def work():
                    time.sleep(1)


                async def go():
                    await asyncio.to_thread(work)
                """
            },
        )
        assert result.ok

    def test_run_in_executor_boundary_is_clean(self, tmp_path):
        result = _lint(
            tmp_path,
            ["RL006"],
            {
                "mod.py": """\
                import asyncio
                import time


                def work():
                    time.sleep(1)


                async def go():
                    loop = asyncio.get_running_loop()
                    await loop.run_in_executor(None, work)
                """
            },
        )
        assert result.ok

    def test_awaiting_async_helper_is_clean(self, tmp_path):
        result = _lint(
            tmp_path,
            ["RL006"],
            {
                "mod.py": """\
                import asyncio
                import time


                def work():
                    time.sleep(1)


                async def helper():
                    return await asyncio.to_thread(work)


                async def go():
                    return await helper()
                """
            },
        )
        assert result.ok

    def test_blocking_method_heuristic_on_untyped_receiver(self, tmp_path):
        result = _lint(
            tmp_path,
            ["RL006"],
            {
                "mod.py": """\
                async def read(path):
                    return path.read_text()
                """
            },
        )
        assert [f.rule for f in result.findings] == ["RL006"]
        assert "read_text" in result.findings[0].message

    def test_explicit_lock_acquire_flagged(self, tmp_path):
        result = _lint(
            tmp_path,
            ["RL006"],
            {
                "mod.py": """\
                import threading

                _L = threading.Lock()


                async def go():
                    _L.acquire()
                """
            },
        )
        assert [f.rule for f in result.findings] == ["RL006"]

    def test_asyncio_sleep_is_clean(self, tmp_path):
        result = _lint(
            tmp_path,
            ["RL006"],
            {
                "mod.py": """\
                import asyncio


                async def nap():
                    await asyncio.sleep(1)
                """
            },
        )
        assert result.ok


class TestLockGuardRL007:
    def test_unlocked_attribute_access_flagged(self, tmp_path):
        result = _lint(
            tmp_path,
            ["RL007"],
            {
                "mod.py": """\
                import threading


                class Box:
                    def __init__(self):
                        self._lock = threading.Lock()
                        self.items = []  # guarded-by: _lock

                    def good(self):
                        with self._lock:
                            self.items.append(1)

                    def bad(self):
                        self.items.append(2)
                """
            },
        )
        assert [f.rule for f in result.findings] == ["RL007"]
        assert "bad()" in result.findings[0].message

    def test_writes_only_guard_allows_lock_free_reads(self, tmp_path):
        result = _lint(
            tmp_path,
            ["RL007"],
            {
                "mod.py": """\
                import threading

                _L = threading.Lock()
                TABLE = {}  # guarded-by: _L (writes)


                def read(key):
                    return TABLE.get(key)


                def write(key, value):
                    TABLE[key] = value
                """
            },
        )
        assert [f.rule for f in result.findings] == ["RL007"]
        assert "write" in result.findings[0].message

    def test_requires_lock_function_and_call_sites(self, tmp_path):
        result = _lint(
            tmp_path,
            ["RL007"],
            {
                "mod.py": """\
                import threading

                _L = threading.Lock()
                STATE = {}  # guarded-by: _L


                def _flush_locked():  # guarded-by: _L
                    STATE.clear()


                def good():
                    with _L:
                        _flush_locked()


                def bad():
                    _flush_locked()
                """
            },
        )
        assert [f.rule for f in result.findings] == ["RL007"]
        assert "_flush_locked" in result.findings[0].message
        assert result.findings[0].line > 10  # the call site, not the body

    def test_event_loop_guard_worker_reachability(self, tmp_path):
        result = _lint(
            tmp_path,
            ["RL007"],
            {
                "mod.py": """\
                import asyncio


                class App:
                    def __init__(self):
                        self.inflight = 0  # guarded-by: event-loop

                    async def handle(self):
                        self.inflight += 1  # fine: runs on the loop
                        await asyncio.to_thread(self.work)
                        self.inflight -= 1

                    def work(self):
                        self.inflight += 1  # raced from a worker thread
                """
            },
        )
        assert [f.rule for f in result.findings] == ["RL007"]
        assert "work()" in result.findings[0].message
        assert "event-loop" in result.findings[0].message

    def test_init_is_exempt(self, tmp_path):
        result = _lint(
            tmp_path,
            ["RL007"],
            {
                "mod.py": """\
                import threading


                class Box:
                    def __init__(self):
                        self._lock = threading.Lock()
                        self.items = []  # guarded-by: _lock
                        self.items.append(0)
                """
            },
        )
        assert result.ok


class TestLockOrderRL008:
    def test_opposite_nesting_is_a_cycle(self, tmp_path):
        result = _lint(
            tmp_path,
            ["RL008"],
            {
                "mod.py": """\
                import threading

                _A = threading.Lock()
                _B = threading.Lock()


                def forward():
                    with _A:
                        with _B:
                            pass


                def backward():
                    with _B:
                        with _A:
                            pass
                """
            },
        )
        assert [f.rule for f in result.findings] == ["RL008"]
        assert "lock-order cycle" in result.findings[0].message

    def test_cycle_through_call_graph(self, tmp_path):
        result = _lint(
            tmp_path,
            ["RL008"],
            {
                "mod.py": """\
                import threading

                _A = threading.Lock()
                _B = threading.Lock()


                def take_b():
                    with _B:
                        pass


                def take_a():
                    with _A:
                        pass


                def forward():
                    with _A:
                        take_b()


                def backward():
                    with _B:
                        take_a()
                """
            },
        )
        assert [f.rule for f in result.findings] == ["RL008"]
        assert "lock-order cycle" in result.findings[0].message

    def test_consistent_order_is_clean(self, tmp_path):
        result = _lint(
            tmp_path,
            ["RL008"],
            {
                "mod.py": """\
                import threading

                _A = threading.Lock()
                _B = threading.Lock()


                def one():
                    with _A:
                        with _B:
                            pass


                def two():
                    with _A:
                        with _B:
                            pass
                """
            },
        )
        assert result.ok

    def test_instance_lock_self_edge_is_not_a_cycle(self, tmp_path):
        result = _lint(
            tmp_path,
            ["RL008"],
            {
                "mod.py": """\
                import threading


                class Node:
                    def __init__(self, peer):
                        self._lock = threading.Lock()
                        self.peer = peer

                    def poke(self):
                        with self._lock:
                            other_total(self.peer)


                def other_total(node):
                    with node._lock:
                        pass
                """
            },
        )
        assert result.ok, "\n".join(f.render() for f in result.findings)

    def test_module_lock_reacquire_via_call_is_fatal(self, tmp_path):
        result = _lint(
            tmp_path,
            ["RL008"],
            {
                "mod.py": """\
                import threading

                _L = threading.Lock()


                def inner():
                    with _L:
                        pass


                def outer():
                    with _L:
                        inner()
                """
            },
        )
        assert [f.rule for f in result.findings] == ["RL008"]

    def test_requires_lock_helper_is_sanctioned(self, tmp_path):
        result = _lint(
            tmp_path,
            ["RL008"],
            {
                "mod.py": """\
                import threading

                _L = threading.Lock()


                def _drop_locked():  # guarded-by: _L
                    pass


                def outer():
                    with _L:
                        _drop_locked()
                """
            },
        )
        assert result.ok

    def test_await_under_thread_lock_flagged(self, tmp_path):
        result = _lint(
            tmp_path,
            ["RL008"],
            {
                "mod.py": """\
                import asyncio
                import threading

                _L = threading.Lock()


                async def bad():
                    with _L:
                        await asyncio.sleep(0)


                async def good():
                    with _L:
                        pass
                    await asyncio.sleep(0)
                """
            },
        )
        assert [f.rule for f in result.findings] == ["RL008"]
        assert "awaits while holding" in result.findings[0].message
