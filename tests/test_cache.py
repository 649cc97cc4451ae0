import json
import os

import pytest

from ramops.cache import ComponentStore


def test_interleaved_writers_of_one_key_both_succeed(tmp_path, monkeypatch):
    directory = str(tmp_path)
    first, second = ComponentStore(directory), ComponentStore(directory)
    real_dump = json.dump
    interleaved = []

    def dump_with_second_writer(obj, fh, **kwargs):
        # the second writer starts and finishes while the first is writing
        if not interleaved:
            interleaved.append(True)
            second.put("k", {"writer": 2})
        real_dump(obj, fh, **kwargs)

    monkeypatch.setattr(json, "dump", dump_with_second_writer)
    first.put("k", {"writer": 1})
    monkeypatch.undo()

    assert interleaved
    assert os.listdir(directory) == ["k.json"]
    assert ComponentStore(directory).get("k")["writer"] == 1


def test_failed_write_leaves_no_file(tmp_path, monkeypatch):
    def failing_dump(obj, fh, **kwargs):
        raise OSError("disk full")

    monkeypatch.setattr(json, "dump", failing_dump)
    with pytest.raises(OSError):
        ComponentStore(str(tmp_path)).put("k", {"x": 1})
    monkeypatch.undo()
    assert os.listdir(tmp_path) == []


def test_store_without_directory_keeps_nothing():
    store = ComponentStore()
    store.put("k", {"x": 1})
    assert store.get("k") is None
    assert vars(store) == {"directory": None}


def test_directory_store_reads_its_file_on_every_get(tmp_path):
    store = ComponentStore(str(tmp_path))
    store.put("k", {"x": 1})
    assert store.get("k")["x"] == 1
    path = tmp_path / "k.json"
    path.write_bytes(path.read_bytes().replace(b'"x":1', b'"x":2'))
    assert store.get("k") is None


def test_store_holds_only_its_directory(tmp_path):
    directory = str(tmp_path)
    store = ComponentStore(directory)
    store.put("k", {"x": 1})
    assert store.info() == {"directory": directory, "disk_entries": ["k"]}
    assert vars(store) == {"directory": directory}


def test_clear_removes_temporary_files_of_killed_writers(tmp_path):
    store = ComponentStore(str(tmp_path))
    store.put("k", {"x": 1})
    # what a writer killed between mkstemp and os.replace leaves behind
    (tmp_path / "k.q3x9_a1z.tmp").write_bytes(b'{"sha256":"')
    (tmp_path / "notes.txt").write_text("not the store's")
    assert store.clear() == 2
    assert os.listdir(tmp_path) == ["notes.txt"]
