import hashlib
import io
import json
import os
import tracemalloc

import pytest

from ramops import quotient
from ramops.cache import _BATCH, _HEAD, SCHEMA_VERSION, ComponentStore
from ramops.cli import main
from ramops.graphalg import R_PRESENTATION, GraphComponent, algebra_basis
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
    # the file body must be what json.dump into a stream writes: a real
    # payload, R forest at n = 4, whose rows put takes as an iterator
    payloads = {}
    real_put = ComponentStore.put

    def recording_put(self, key, payload):
        assert not isinstance(payload["rows"], list)  # made as they are written
        rows = []

        def kept(lazy_rows):
            for row in lazy_rows:
                rows.append(row)
                yield row

        payloads[key] = {**payload, "rows": rows}
        real_put(self, key, {**payload, "rows": kept(payload["rows"])})

    monkeypatch.setattr(ComponentStore, "put", recording_put)
    algebra_basis(R_PRESENTATION, standard_labels(4), "forest", ComponentStore(str(tmp_path)))
    monkeypatch.undo()
    key = next(k for k, p in payloads.items() if len(p["monomials"]) > 100)
    assert len(payloads[key]["rows"]) > 1
    text = io.StringIO()
    json.dump({**payloads[key], "schema_version": SCHEMA_VERSION}, text, sort_keys=True, separators=(",", ":"))
    body = text.getvalue().encode("utf-8")
    digest = hashlib.sha256(body).hexdigest().encode()
    assert (tmp_path / f"{key}.json").read_bytes() == b'{"sha256":"' + digest + b'",' + body[1:]


def _long_payload():
    """A payload whose long members span several write batches, one of them
    an exact multiple of the batch size, with one "p/q" entry among its
    rows and one empty list."""
    rows = [[k, k + 1, 1, -k] for k in range(2 * _BATCH + 3)]
    rows[_BATCH + 1][-1] = "7/5"
    return {
        "kind": "graph-component",
        "n": 9,
        "monomials": list(range(3 * _BATCH)),
        "pivots": list(range(0, 4 * _BATCH + 14, 2)),
        "rows": rows,
        "basis": list(range(1, 8 * _BATCH - 2, 2)),
        "dims": [],
    }


@pytest.mark.parametrize("lazy_rows", (False, True))
def test_streamed_payload_bytes_equal_one_shot_encoding(lazy_rows, tmp_path):
    payload = _long_payload()
    assert len(payload["monomials"]) % _BATCH == 0
    assert all(len(payload[k]) > 2 * _BATCH for k in ("monomials", "pivots", "rows", "basis"))
    given = {**payload, "rows": iter(payload["rows"])} if lazy_rows else payload
    ComponentStore(str(tmp_path)).put("k", given)
    body = json.dumps({**payload, "schema_version": SCHEMA_VERSION}, sort_keys=True, separators=(",", ":")).encode()
    digest = hashlib.sha256(body).hexdigest().encode()
    assert (tmp_path / "k.json").read_bytes() == b'{"sha256":"' + digest + b'",' + body[1:]
    assert ComponentStore(str(tmp_path)).get("k") == {**payload, "schema_version": SCHEMA_VERSION}


class _FailingFile:
    """A file whose third write raises, as on a disk that fills up
    while the body is streamed."""

    def __init__(self, fh):
        self.fh, self.writes = fh, 0

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.fh.close()

    def write(self, data):
        self.writes += 1
        if self.writes == 3:
            raise OSError(28, "No space left on device")
        return self.fh.write(data)

    def seek(self, offset):
        return self.fh.seek(offset)


def test_write_failing_partway_through_the_stream_leaves_no_file(tmp_path, monkeypatch, capsys):
    real_fdopen = os.fdopen
    monkeypatch.setattr(os, "fdopen", lambda fd, mode: _FailingFile(real_fdopen(fd, mode)))
    with pytest.raises(OSError):
        ComponentStore(str(tmp_path)).put("k", _long_payload())
    assert os.listdir(tmp_path) == []
    # the CLI reports the failed write on one line and exits 2
    cache_dir = tmp_path / "cache"
    assert main(["ralg-dims", "--n", "3", "--cache-dir", str(cache_dir)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("file error: ") and err.count("\n") == 1
    assert os.listdir(cache_dir) == []


def test_temporary_holds_its_digest_before_it_is_renamed(tmp_path, monkeypatch):
    real_replace = os.replace
    checked = []

    def checking_replace(src, dst):
        with open(src, "rb") as fh:
            data = fh.read()
        head, body = data[: len(_HEAD) + 64 + 2], data[len(_HEAD) + 64 + 2 :]
        digest = hashlib.sha256(b"{" + body).hexdigest().encode()
        assert head == _HEAD + digest + b'",'
        checked.append(dst)
        real_replace(src, dst)

    monkeypatch.setattr(os, "replace", checking_replace)
    ComponentStore(str(tmp_path)).put("k", _long_payload())
    assert checked == [str(tmp_path / "k.json")]


def test_payload_write_holds_about_one_batch_in_memory(tmp_path):
    # a one-shot encoding of the R(5) forest payload (137 KB on disk) holds
    # about 2.9 MB while it is written, a streamed one about one batch
    comp = algebra_basis(R_PRESENTATION, standard_labels(5), "forest", ComponentStore())
    fields = {"mode": "forest"}
    key = f"{quotient._prefix(GraphComponent, R_PRESENTATION, fields)}-n5"
    store = ComponentStore(str(tmp_path))
    tracemalloc.start()
    try:
        start = tracemalloc.get_traced_memory()[0]
        store.put(key, {**quotient._header(GraphComponent, R_PRESENTATION, 5, fields), **quotient._encode(comp)})
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert os.path.getsize(tmp_path / f"{key}.json") > 100_000
    assert peak - start < 1_000_000


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
