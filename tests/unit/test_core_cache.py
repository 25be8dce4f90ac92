"""Persistent result cache: fingerprint semantics, rejection, atomicity.

The cache's one correctness obligation: it must never return results for
inputs other than the ones requested.  Staleness is handled by keying —
any mutation of the machine spec, workload calibration, model parameters
or grid changes the fingerprint — and residual hazards (collisions,
foreign files, torn writes) are caught by comparing the embedded identity
document, degrading to a miss.
"""

import io
import json
import multiprocessing
import struct
import sys
import threading

import numpy as np
import pytest

from repro.core.cache import (
    ALIGN,
    ARRAY_FIELDS,
    FORMAT_VERSION,
    MAGIC,
    ResultCache,
    atomic_write_json,
    entry_identity,
    fingerprint,
)
from repro.core.configspace import ConfigSpace
from repro.core.vectorized import _compute, clear_evaluation_cache
from repro.core.whatif import WhatIf
from repro.cli.main import main
from tests.conftest import config

SPACE = ConfigSpace(
    node_counts=(1, 2, 4),
    core_counts=(1, 8),
    frequencies_hz=(1.2e9, 1.8e9),
)


@pytest.fixture(scope="module")
def model(xeon_sim, model_cache):
    return model_cache(xeon_sim, "SP")


@pytest.fixture(scope="module")
def arm_model(arm_sim, model_cache):
    return model_cache(arm_sim, "CP")


@pytest.fixture(scope="module")
def result(model):
    return _compute(model, SPACE, None, "bracketed", True)


@pytest.fixture
def cache(tmp_path):
    return ResultCache(tmp_path / "cache")


def _identity(model, space=SPACE, cls="A", queueing="bracketed", overlap=True):
    return entry_identity(model, space, cls, queueing, overlap)


def _v1_entry(identity, result) -> bytes:
    """A format-1 entry exactly as the old ``.npz`` writer produced it."""
    buffer = io.BytesIO()
    np.savez(
        buffer,
        identity=json.dumps(identity, sort_keys=True),
        class_name=result.class_name,
        **{name: getattr(result, name) for name in ARRAY_FIELDS},
    )
    return buffer.getvalue()


# ----------------------------------------------------------------------
# round trip
# ----------------------------------------------------------------------


def test_round_trip_bit_identical(cache, model, result):
    identity = _identity(model)
    assert cache.get(identity) is None  # cold
    path = cache.put(identity, result)
    assert path.exists() and path.suffix == ".eval"
    loaded = cache.get(identity)
    assert loaded is not None
    assert loaded.class_name == result.class_name
    for name in ARRAY_FIELDS:
        assert np.array_equal(getattr(loaded, name), getattr(result, name)), name
    assert cache.stats() == {
        "hits": 1, "misses": 1, "writes": 1, "rejected": 0, "entries": 1,
    }


def test_loaded_arrays_are_readonly(cache, model, result):
    cache.put(_identity(model), result)
    loaded = cache.get(_identity(model))
    with pytest.raises(ValueError):
        loaded.times_s[0] = 0.0


def test_round_trip_every_field_bits_dtype_and_readonly(cache, model, result):
    cache.put(_identity(model), result)
    loaded = cache.get(_identity(model))
    for name in ARRAY_FIELDS:
        ours, theirs = getattr(loaded, name), getattr(result, name)
        assert ours.dtype == theirs.dtype, name
        assert ours.shape == theirs.shape, name
        assert ours.tobytes() == theirs.tobytes(), name
        assert not ours.flags.writeable, name
        assert ours.flags.aligned, name


def test_every_array_is_64_byte_aligned(cache, model, result):
    blob = cache.put(_identity(model), result).read_bytes()
    (length,) = struct.unpack_from("<Q", blob, len(MAGIC))
    start = len(MAGIC) + 8 + length
    header = json.loads(blob[len(MAGIC) + 8 : start])
    assert start % ALIGN == 0
    assert [name for name, _, _ in header["fields"]] == list(ARRAY_FIELDS)
    for name, _, offset in header["fields"]:
        assert (start + offset) % ALIGN == 0, name
    assert header["n"] == len(result)
    assert header["identity"] == _identity(model)


def test_rehydrated_configs_match_space(cache, model, result):
    cache.put(_identity(model), result)
    loaded = cache.get(_identity(model))
    assert loaded.space is None
    assert loaded.configs == tuple(SPACE)


# ----------------------------------------------------------------------
# fingerprint sensitivity: every input mutation re-keys the entry
# ----------------------------------------------------------------------


def test_fingerprint_changes_on_model_params(cache, model):
    """A what-if variant (machine mutation) addresses a different entry."""
    base = cache.digest(_identity(model))
    for factor in (2.0, 0.5):
        tweaked = WhatIf(model).memory_bandwidth(factor)
        assert cache.digest(_identity(tweaked)) != base
    assert cache.digest(_identity(WhatIf(model).idle_power(0.5))) != base


def test_fingerprint_changes_on_machine_and_workload(cache, model, arm_model):
    """Different cluster + program calibration → different entry."""
    assert cache.digest(_identity(arm_model, cls="A")) != cache.digest(
        _identity(model, cls="A")
    )


def test_fingerprint_changes_on_grid(cache, model):
    base = cache.digest(_identity(model))
    wider = ConfigSpace(
        node_counts=(1, 2, 4, 8),
        core_counts=SPACE.core_counts,
        frequencies_hz=SPACE.frequencies_hz,
    )
    assert cache.digest(_identity(model, space=wider)) != base
    # the same points as an explicit list are a different space identity
    explicit = tuple(SPACE)
    assert cache.digest(_identity(model, space=explicit)) != base


def test_fingerprint_changes_on_options(cache, model):
    base = cache.digest(_identity(model))
    assert cache.digest(_identity(model, cls="B")) != base
    assert cache.digest(_identity(model, queueing="mg1")) != base
    assert cache.digest(_identity(model, overlap=False)) != base


def test_fingerprint_changes_on_format_version(cache, model, monkeypatch):
    base = cache.digest(_identity(model))
    monkeypatch.setattr("repro.core.cache.FORMAT_VERSION", FORMAT_VERSION + 1)
    assert cache.digest(_identity(model)) != base


# ----------------------------------------------------------------------
# rejection: wrong/foreign/torn files degrade to a miss, never to data
# ----------------------------------------------------------------------


def test_stale_entry_rejected(cache, model, result):
    """A file whose embedded identity differs is rejected as a miss."""
    identity = _identity(model)
    other = _identity(model, cls="B")
    cache.put(other, result)
    # adversarial setup: plant the wrong entry at this identity's path
    cache.path_for(other).rename(cache.path_for(identity))
    assert cache.get(identity) is None
    assert cache.stats()["rejected"] == 1


def test_corrupt_entry_rejected(cache, model):
    path = cache.path_for(_identity(model))
    path.write_bytes(b"this is not an npz archive")
    assert cache.get(_identity(model)) is None
    assert cache.stats()["rejected"] == 1


def test_truncated_entry_rejected(cache, model, result):
    identity = _identity(model)
    path = cache.put(identity, result)
    blob = path.read_bytes()
    path.write_bytes(blob[: len(blob) // 2])  # simulate a torn write
    assert cache.get(identity) is None
    assert cache.stats()["rejected"] == 1


def test_foreign_npz_rejected(cache, model, result):
    """npz archives at the entry path (foreign, or a real format-1 entry
    carrying the requested identity) are rejected, never decoded."""
    identity = _identity(model)
    path = cache.path_for(identity)
    buffer = io.BytesIO()
    np.savez(buffer, unrelated=np.arange(3))
    path.write_bytes(buffer.getvalue())
    assert cache.get(identity) is None
    assert cache.stats()["rejected"] == 1
    path.write_bytes(_v1_entry(identity, result))
    assert cache.get(identity) is None
    assert cache.stats()["rejected"] == 2


def _wrong_magic(blob):
    return b"NOTREPRO" + blob[len(MAGIC) :]


def _header_past_eof(blob):
    return MAGIC + struct.pack("<Q", len(blob)) + blob[len(MAGIC) + 8 :]


@pytest.mark.parametrize(
    "damage",
    [
        _wrong_magic,
        _header_past_eof,
        lambda blob: blob[:-1],
        lambda blob: blob + b"\0",
        lambda blob: blob[: len(MAGIC) + 4],
        lambda blob: b"",
    ],
    ids=[
        "wrong_magic",
        "header_past_eof",
        "truncated_one_byte",
        "trailing_bytes",
        "short_preamble",
        "empty",
    ],
)
def test_malformed_entry_rejected(cache, model, result, damage):
    identity = _identity(model)
    path = cache.put(identity, result)
    path.write_bytes(damage(path.read_bytes()))
    assert cache.get(identity) is None
    assert cache.stats()["rejected"] == 1
    assert cache.stats()["misses"] == 1


# ----------------------------------------------------------------------
# concurrent writers: atomic rename, last complete write wins
# ----------------------------------------------------------------------


def _concurrent_put(task):
    directory, identity, result = task
    return str(ResultCache(directory).put(identity, result))


def test_concurrent_writers_race_benignly(tmp_path, model, result):
    directory = tmp_path / "cache"
    identity = _identity(model)
    ctx = multiprocessing.get_context("fork")
    with ctx.Pool(4) as pool:
        paths = pool.map(
            _concurrent_put, [(directory, identity, result)] * 8
        )
    assert len(set(paths)) == 1  # everyone addressed the same entry
    cache = ResultCache(directory)
    # exactly one complete entry, no temp droppings left behind
    assert [p.name for p in cache.entries()] == [
        f"{cache.digest(identity)}.eval"
    ]
    assert list(directory.glob(".*tmp*")) == []
    loaded = cache.get(identity)
    assert loaded is not None
    assert np.array_equal(loaded.times_s, result.times_s)


def _hammer(write, threads=4, repeats=50):
    """Run ``write`` ``repeats`` times in each of ``threads`` threads
    (more threads than this host's cores, with a short switch interval
    so the threads interleave inside each write); returns the errors."""
    errors = []
    barrier = threading.Barrier(threads)

    def worker():
        barrier.wait()
        for _ in range(repeats):
            try:
                write()
            except Exception as exc:  # collected, asserted by the caller
                errors.append(exc)

    pool = [threading.Thread(target=worker) for _ in range(threads)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for thread in pool:
            thread.start()
        for thread in pool:
            thread.join(timeout=120)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in pool)
    return errors


def test_threaded_writers_of_one_entry_race_benignly(tmp_path, model, result):
    """Engine-pool threads of one process putting the same identity
    (e.g. pareto and evaluate_space on one grid) must not share a temp
    file: no exception, one complete entry, no temp leftovers."""
    cache = ResultCache(tmp_path / "cache")
    identity = _identity(model)
    assert _hammer(lambda: cache.put(identity, result)) == []
    assert [p.name for p in cache.entries()] == [
        f"{cache.digest(identity)}.eval"
    ]
    assert list(cache.directory.glob(".*tmp*")) == []
    assert cache.writes == 200
    loaded = cache.get(identity)
    assert loaded is not None
    assert loaded.times_s.tobytes() == result.times_s.tobytes()


def test_failed_write_leaves_no_temp_file(cache, model, result, monkeypatch):
    def fail(src, dst):
        raise OSError("disk full")

    monkeypatch.setattr("repro.core.cache.os.replace", fail)
    with pytest.raises(OSError):
        cache.put(_identity(model), result)
    assert list(cache.directory.iterdir()) == []


def test_threaded_doc_writers_race_benignly(tmp_path):
    cache = ResultCache(tmp_path / "cache")
    assert _hammer(lambda: cache.put_doc(DOC_IDENTITY, DOC_PAYLOAD)) == []
    assert len(cache.entries()) == 1
    assert list(cache.directory.glob(".*tmp*")) == []
    assert cache.get_doc(DOC_IDENTITY) == DOC_PAYLOAD


def test_clear_removes_entries(cache, model, result):
    cache.put(_identity(model), result)
    cache.put(_identity(model, cls="B"), result)
    assert cache.stats()["entries"] == 2
    assert cache.clear() == 2
    assert cache.entries() == []


def test_clear_sweeps_orphaned_format_1_entries(cache, model, result):
    """v1 ``.npz`` entries are never read again after the format bump:
    they are not counted as entries, and clear() reclaims them."""
    cache.put(_identity(model), result)
    cache.put_doc(DOC_IDENTITY, DOC_PAYLOAD)
    orphan = cache.directory / "0123456789abcdef.npz"
    orphan.write_bytes(_v1_entry(_identity(model), result))
    assert orphan not in cache.entries()
    assert cache.stats()["entries"] == 2
    assert cache.clear() == 3
    assert list(cache.directory.iterdir()) == []


# ----------------------------------------------------------------------
# CLI round trips: cold → warm → invalidated
# ----------------------------------------------------------------------


def _pareto_args(tmp_path, program="SP"):
    return [
        "--cache-dir",
        str(tmp_path / "cli-cache"),
        "pareto",
        "--cluster",
        "xeon",
        "--program",
        program,
        "--extrapolate",
    ]


def test_cli_cold_warm_invalidated_round_trip(tmp_path, capsys):
    cache_dir = tmp_path / "cli-cache"

    clear_evaluation_cache()
    assert main(_pareto_args(tmp_path)) == 0
    cold_out = capsys.readouterr().out
    entries_after_cold = sorted(p.name for p in cache_dir.glob("*.eval"))
    assert len(entries_after_cold) == 1

    # warm: same inputs, fresh process state → served from disk, same text
    clear_evaluation_cache()
    assert main(_pareto_args(tmp_path)) == 0
    warm_out = capsys.readouterr().out
    assert warm_out == cold_out
    assert sorted(p.name for p in cache_dir.glob("*.eval")) == entries_after_cold

    # invalidated: a different program re-keys instead of reusing
    clear_evaluation_cache()
    assert main(_pareto_args(tmp_path, program="BT")) == 0
    entries_after_bt = sorted(p.name for p in cache_dir.glob("*.eval"))
    assert len(entries_after_bt) == 2
    assert set(entries_after_cold) < set(entries_after_bt)


# ----------------------------------------------------------------------
# generic JSON artifact entries (the pipeline store's substrate)
# ----------------------------------------------------------------------

DOC_IDENTITY = {"kind": "repro_pipeline_stage", "stage": "s", "inputs": {}}
DOC_PAYLOAD = {"outputs": {"x": [1, 2, 3]}, "output_digests": {"x": "abc"}}


def test_doc_round_trip(cache):
    assert cache.get_doc(DOC_IDENTITY) is None  # cold
    path = cache.put_doc(DOC_IDENTITY, DOC_PAYLOAD)
    assert path.exists() and path.suffix == ".json"
    assert cache.get_doc(DOC_IDENTITY) == DOC_PAYLOAD
    assert cache.stats()["hits"] == 1 and cache.stats()["misses"] == 1


def test_contains_probes_both_entry_kinds(cache, model, result):
    assert not cache.contains(DOC_IDENTITY)
    cache.put_doc(DOC_IDENTITY, DOC_PAYLOAD)
    assert cache.contains(DOC_IDENTITY)
    eval_identity = _identity(model)
    assert not cache.contains(eval_identity)
    cache.put(eval_identity, result)
    assert cache.contains(eval_identity)
    assert len(cache.entries()) == 2


def test_identity_holding_tuples_hits_its_own_doc(cache):
    """A stored identity reads back with lists where the request holds
    tuples; the two are the same canonical JSON, so the entry hits."""
    identity = dict(DOC_IDENTITY, params={"probes": ((1, 2),), "axes": (3,)})
    cache.put_doc(identity, DOC_PAYLOAD)
    assert cache.get_doc(identity) == DOC_PAYLOAD
    assert cache.stats()["rejected"] == 0


def test_foreign_doc_rejected(cache):
    """A document whose embedded identity differs degrades to a miss."""
    other = dict(DOC_IDENTITY, stage="other")
    cache.put_doc(other, DOC_PAYLOAD)
    cache.doc_path_for(other).rename(cache.doc_path_for(DOC_IDENTITY))
    assert cache.get_doc(DOC_IDENTITY) is None
    assert cache.stats()["rejected"] == 1


def test_corrupt_doc_rejected(cache):
    cache.doc_path_for(DOC_IDENTITY).write_text("{not json", encoding="utf-8")
    assert cache.get_doc(DOC_IDENTITY) is None
    assert cache.stats()["rejected"] == 1


def test_torn_doc_rejected(cache):
    path = cache.put_doc(DOC_IDENTITY, DOC_PAYLOAD)
    text = path.read_text()
    path.write_text(text[: len(text) // 2])  # simulate a torn write
    assert cache.get_doc(DOC_IDENTITY) is None
    assert cache.stats()["rejected"] == 1


def test_doc_without_payload_key_rejected(cache):
    cache.doc_path_for(DOC_IDENTITY).write_text(
        json.dumps({"identity": DOC_IDENTITY}), encoding="utf-8"
    )
    assert cache.get_doc(DOC_IDENTITY) is None
    assert cache.stats()["rejected"] == 1


def _concurrent_put_doc(task):
    directory, identity, payload = task
    return str(ResultCache(directory).put_doc(identity, payload))


def test_concurrent_doc_writers_race_benignly(tmp_path):
    """Two pipeline stages racing on one artifact key: one valid entry,
    no torn reads, no temp droppings."""
    directory = tmp_path / "cache"
    ctx = multiprocessing.get_context("fork")
    with ctx.Pool(4) as pool:
        paths = pool.map(
            _concurrent_put_doc, [(directory, DOC_IDENTITY, DOC_PAYLOAD)] * 8
        )
    assert len(set(paths)) == 1  # everyone addressed the same entry
    cache = ResultCache(directory)
    assert [p.name for p in cache.entries()] == [
        f"{cache.digest(DOC_IDENTITY)}.json"
    ]
    assert list(directory.glob(".*tmp*")) == []
    assert cache.get_doc(DOC_IDENTITY) == DOC_PAYLOAD


# ----------------------------------------------------------------------
# the shared fingerprint and atomic-write helpers
# ----------------------------------------------------------------------


class TestFingerprint:
    def test_stable_across_key_order(self):
        assert fingerprint({"a": 1, "b": 2}) == fingerprint({"b": 2, "a": 1})

    def test_sensitive_to_values(self):
        assert fingerprint({"a": 1}) != fingerprint({"a": 2})

    def test_short_hex(self):
        digest = fingerprint({"x": [1, 2, 3]})
        assert len(digest) == 16
        int(digest, 16)  # valid hex


class TestAtomicWrite:
    def test_writes_valid_json_and_no_temp_left(self, tmp_path):
        path = tmp_path / "ck.json"
        atomic_write_json(path, {"k": 1.5})
        assert json.loads(path.read_text()) == {"k": 1.5}
        assert list(tmp_path.iterdir()) == [path]

    def test_replaces_existing_content(self, tmp_path):
        path = tmp_path / "ck.json"
        atomic_write_json(path, {"old": True})
        atomic_write_json(path, {"new": True})
        assert json.loads(path.read_text()) == {"new": True}
