"""Tests for the content-addressed artifact store."""

import multiprocessing
import pathlib
import pickle
import shutil

import pytest

import repro
from repro.core.store import (
    ArtifactStore,
    active_store,
    code_fingerprint,
    read_through,
    source_fingerprint,
    stable_fingerprint,
    swap_store,
)

PACKAGE = pathlib.Path(repro.__file__).resolve().parent


def _edited_package_fingerprint(tmp_path) -> str:
    """The fingerprint of a copy of the package with one byte changed."""
    copy = tmp_path / "repro"
    shutil.copytree(PACKAGE, copy, ignore=shutil.ignore_patterns("__pycache__"))
    assert source_fingerprint(copy) == code_fingerprint()
    module = copy / "core" / "store.py"
    data = bytearray(module.read_bytes())
    data[-1] ^= 1
    module.write_bytes(bytes(data))
    return source_fingerprint(copy)

KEY = {"kind": "flashmem-run", "model": "ViT", "device": "OnePlus 12", "config": "abc"}


class TestAddressing:
    def test_fingerprint_stable_and_sensitive(self):
        assert stable_fingerprint({"a": 1}) == stable_fingerprint({"a": 1})
        assert stable_fingerprint({"a": 1}) != stable_fingerprint({"a": 2})
        # Sets are canonicalised, so insertion order is irrelevant.
        assert stable_fingerprint({"s": {"x", "y"}}) == stable_fingerprint({"s": {"y", "x"}})

    def test_paths_partition_by_kind_and_key(self, tmp_path):
        store = ArtifactStore(tmp_path)
        a = store.path_for(KEY)
        b = store.path_for({**KEY, "model": "ResNet50"})
        c = store.path_for({**KEY, "kind": "compiled"})
        assert a.parent.name == "flashmem-run"
        assert c.parent.name == "compiled"
        assert len({a, b, c}) == 3

    def test_schema_version_addresses_fresh_entries(self, tmp_path):
        """An entry saved by one version of the code is a miss for another."""
        old = ArtifactStore(tmp_path / "store")
        assert old.schema == code_fingerprint()
        new = ArtifactStore(tmp_path / "store", schema=_edited_package_fingerprint(tmp_path))
        old.save(KEY, {"v": 1})
        assert new.load(KEY) is None  # plain miss, not a quarantine
        assert new.stats.corrupt == 0
        assert old.load(KEY) == {"v": 1}

    def test_code_fingerprint_tracks_every_source_byte(self, tmp_path):
        assert _edited_package_fingerprint(tmp_path) != code_fingerprint()
        # A renamed module moves it too, even with identical bytes.
        copy = tmp_path / "repro"
        before = source_fingerprint(copy)
        (copy / "cli.py").rename(copy / "cli2.py")
        assert source_fingerprint(copy) != before


class TestRoundTrip:
    def test_miss_then_hit_bit_for_bit(self, tmp_path):
        store = ArtifactStore(tmp_path)
        value = {"latency": 123.456789, "samples": [(0.0, 0), (1.5, 2**31)]}
        assert store.load(KEY) is None
        store.save(KEY, value)
        loaded = ArtifactStore(tmp_path).load(KEY)  # fresh instance = fresh process view
        assert pickle.dumps(loaded) == pickle.dumps(value)
        assert store.stats.snapshot() == {"hits": 0, "misses": 1, "stores": 1, "corrupt": 0}

    def test_atomic_save_leaves_no_tmp(self, tmp_path):
        store = ArtifactStore(tmp_path)
        store.save(KEY, list(range(100)))
        assert not list(tmp_path.rglob("*.tmp"))

    def test_contains(self, tmp_path):
        store = ArtifactStore(tmp_path)
        assert not store.contains(KEY)
        store.save(KEY, 1)
        assert store.contains(KEY)
        assert len(store) == 1

    def test_load_many_matches_individual_loads(self, tmp_path):
        store = ArtifactStore(tmp_path)
        keys = [{**KEY, "model": m} for m in ("ViT", "ResNet50", "GPTN-S")]
        store.save(keys[0], "a")
        store.save(keys[2], "c")
        assert store.load_many(keys) == ["a", None, "c"]
        assert store.stats.hits == 2 and store.stats.misses == 1
        assert store.load_many([]) == []


class TestQuarantine:
    def test_corrupt_entry_quarantined_with_warning(self, tmp_path):
        store = ArtifactStore(tmp_path)
        path = store.save(KEY, {"v": 1})
        path.write_bytes(b"not a pickle")
        with pytest.warns(RuntimeWarning, match="quarantined corrupt artifact"):
            assert store.load(KEY) is None
        assert not path.exists()
        assert path.with_name(path.name + ".corrupt").exists()
        assert store.stats.corrupt == 1
        # Re-saving works and the entry is readable again.
        store.save(KEY, {"v": 2})
        assert store.load(KEY) == {"v": 2}

    def test_key_mismatch_is_quarantined(self, tmp_path):
        store = ArtifactStore(tmp_path)
        path = store.path_for(KEY)
        path.parent.mkdir(parents=True, exist_ok=True)
        # A validly pickled envelope whose key does not match its address.
        path.write_bytes(pickle.dumps({"schema": store.schema, "key": {"kind": "other"},
                                       "value": 42}))
        with pytest.warns(RuntimeWarning, match="quarantined"):
            assert store.load(KEY) is None
        assert store.stats.corrupt == 1


def _counting_compute(value):
    """A ``compute`` for :func:`read_through` that records each call."""
    calls = []

    def compute():
        calls.append(value)
        return value

    return compute, calls


class TestReadThrough:
    @pytest.fixture(autouse=True)
    def _no_active_store(self):
        previous = swap_store(None)
        yield
        swap_store(previous)

    def test_without_store_computes_every_call(self, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        compute, calls = _counting_compute({"v": 1})
        assert read_through(KEY, compute) == {"v": 1}
        assert read_through(KEY, compute) == {"v": 1}
        assert len(calls) == 2
        assert not list(tmp_path.iterdir())  # nothing written anywhere

    def test_first_call_saves_second_loads(self, tmp_path):
        store = ArtifactStore(tmp_path)
        swap_store(store)
        compute, calls = _counting_compute({"v": 1})
        assert read_through(KEY, compute) == {"v": 1}
        assert store.stats.snapshot() == {"hits": 0, "misses": 1, "stores": 1, "corrupt": 0}
        assert read_through(KEY, compute) == {"v": 1}
        assert len(calls) == 1
        assert store.stats.hits == 1 and store.stats.stores == 1

    def test_corrupt_entry_recomputed_and_resaved(self, tmp_path):
        store = ArtifactStore(tmp_path)
        swap_store(store)
        path = store.save(KEY, {"v": 0})
        path.write_bytes(b"not a pickle")
        compute, calls = _counting_compute({"v": 1})
        with pytest.warns(RuntimeWarning, match="quarantined corrupt artifact"):
            assert read_through(KEY, compute) == {"v": 1}
        assert len(calls) == 1 and store.stats.corrupt == 1
        assert path.with_name(path.name + ".corrupt").exists()
        assert ArtifactStore(tmp_path).load(KEY) == {"v": 1}  # re-saved

    def test_swap_store_returns_previous(self, tmp_path):
        first, second = ArtifactStore(tmp_path / "a"), ArtifactStore(tmp_path / "b")
        assert swap_store(first) is None
        assert active_store() is first
        assert swap_store(second) is first
        assert swap_store(None) is second
        assert active_store() is None


def _hammer_store(root, worker_id, iterations):
    store = ArtifactStore(root)
    for i in range(iterations):
        store.save(KEY, {"worker": worker_id, "i": i, "pad": list(range(500))})


class TestConcurrency:
    def test_racing_writers_never_corrupt(self, tmp_path):
        """Two processes hammering the same key: the entry always loads."""
        procs = [
            multiprocessing.Process(target=_hammer_store, args=(tmp_path, w, 50))
            for w in range(2)
        ]
        for p in procs:
            p.start()
        for p in procs:
            p.join()
        assert all(p.exitcode == 0 for p in procs)
        loaded = ArtifactStore(tmp_path).load(KEY)
        assert loaded is not None and loaded["worker"] in (0, 1) and loaded["i"] == 49
        assert not list(tmp_path.rglob("*.corrupt"))
