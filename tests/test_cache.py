import hashlib
import io
import json
import os

import pytest

from ramops.cache import SCHEMA_VERSION, ComponentStore
from ramops.graphalg import R_PRESENTATION, algebra_basis
from ramops.labels import standard_labels


def test_interleaved_writers_of_one_key_both_succeed(tmp_path, monkeypatch):
    directory = str(tmp_path)
    first, second = ComponentStore(directory), ComponentStore(directory)
    real_chmod = os.chmod
    interleaved = []

    def chmod_with_second_writer(path, mode):
        # the first writer has written its temporary file but not renamed
        # it: the second writer starts and finishes now
        if not interleaved:
            interleaved.append(True)
            second.put("k", {"writer": 2})
        real_chmod(path, mode)

    monkeypatch.setattr(os, "chmod", chmod_with_second_writer)
    first.put("k", {"writer": 1})
    monkeypatch.undo()

    assert interleaved
    assert os.listdir(directory) == ["k.json"]
    assert ComponentStore(directory).get("k")["writer"] == 1


def test_failed_write_leaves_no_file(tmp_path, monkeypatch):
    def failing_chmod(path, mode):
        # the temporary file is written and not yet renamed
        assert os.listdir(tmp_path) == [os.path.basename(path)]
        raise OSError("disk full")

    monkeypatch.setattr(os, "chmod", failing_chmod)
    with pytest.raises(OSError):
        ComponentStore(str(tmp_path)).put("k", {"x": 1})
    monkeypatch.undo()
    assert os.listdir(tmp_path) == []


def test_payload_file_bytes_match_the_streamed_encoding(tmp_path, monkeypatch):
    # the file body must be what json.dump into a stream wrote before put
    # encoded with json.dumps: a real payload, R forest at n = 4
    payloads = {}
    real_put = ComponentStore.put

    def recording_put(self, key, payload):
        payloads[key] = payload
        real_put(self, key, payload)

    monkeypatch.setattr(ComponentStore, "put", recording_put)
    algebra_basis(R_PRESENTATION, standard_labels(4), "forest", ComponentStore(str(tmp_path)))
    monkeypatch.undo()
    key = next(k for k, p in payloads.items() if len(p["monomials"]) > 100)
    text = io.StringIO()
    json.dump({**payloads[key], "schema_version": SCHEMA_VERSION}, text, sort_keys=True, separators=(",", ":"))
    body = text.getvalue().encode("utf-8")
    digest = hashlib.sha256(body).hexdigest().encode()
    assert (tmp_path / f"{key}.json").read_bytes() == b'{"sha256":"' + digest + b'",' + body[1:]


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


def test_foreign_files_survive_clear_and_stay_out_of_info(tmp_path):
    store = ComponentStore(str(tmp_path))
    store.put("k", {"x": 1})
    (tmp_path / "k.q3x9_a1z.tmp").write_bytes(b"")
    # files of others: JSON without the checksum head, temporaries not
    # named by put, a note
    (tmp_path / "package.json").write_text('{"name": "not the store\'s"}')
    (tmp_path / "notes.tmp").write_text("not the store's")
    (tmp_path / "notes.txt").write_text("not the store's")
    assert store.info()["disk_entries"] == ["k"]
    assert store.clear() == 2
    assert sorted(os.listdir(tmp_path)) == ["notes.tmp", "notes.txt", "package.json"]
