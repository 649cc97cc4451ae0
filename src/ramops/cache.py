"""Component cache: payload files in a directory, nothing kept in memory.

Quotient components (ambient monomials + echelon rows + dimension table,
in the layout of ``quotient``'s payload codec) are
expensive at arity 4+ and are reused heavily, so they are cached under a
key that includes the presentation hash: editing a presentation invalidates
its entries automatically.  Payloads are versioned JSON files; a payload
with the wrong schema version or hash is ignored rather than trusted.  The
store holds no payload itself: ``get`` reads and checks the file on every
call, and the decoded component is memoized by ``quotient``.  A store
without a directory keeps nothing, so its components are rebuilt once the
memos are cleared.

A payload file is one JSON object whose first member is the SHA-256 of the
rest, ``{"sha256":"<hex>",<body>`` where ``{<body>`` is the payload's
compact JSON with sorted keys.  ``put`` streams it: after a head with a
placeholder digest it writes the body member by member, each list (or
iterator, such as lazily made echelon rows) in batches of ``_BATCH``
items, hashing each piece as it goes, so a write holds one batch of text
at a time, never the whole body.  It then writes the digest into the head
and only then renames the file onto its key, so no reader sees the
placeholder.  ``get`` hashes the bytes where they were read, before
decoding the file, and treats a mismatch as a miss: an edit that leaves
the payload well-formed, such as a changed coefficient, is rebuilt rather
than trusted.  The file decodes to the payload and its ``sha256`` member.

``info`` and ``clear`` act on the store's own files only: payload files
that start with the checksum head, and the temporaries of writers,
``<key>.<random>.tmp``.  Other files in the directory are left alone.
"""

from __future__ import annotations

import hashlib
import json
import os
import re
import tempfile
from collections.abc import Iterator
from contextlib import suppress
from itertools import islice

SCHEMA_VERSION = 2

_HEAD = b'{"sha256":"'
_DIGEST_END = len(_HEAD) + 64  # hex digits

# the encoding of ``json.dumps(payload, sort_keys=True, separators=(",", ":"))``
_ENCODER = json.JSONEncoder(sort_keys=True, separators=(",", ":"))
_BATCH = 256  # list items encoded per piece of a streamed write


def _pieces(payload: dict) -> Iterator[str]:
    """The payload's compact JSON after its opening brace, in pieces of at
    most one member head or one batch of list items."""
    sep = ""
    for key in sorted(payload):
        value = payload[key]
        yield sep + _ENCODER.encode(key) + ":"
        sep = ","
        if not isinstance(value, (list, Iterator)):
            yield _ENCODER.encode(value)
            continue
        items, lead = iter(value), "["
        while batch := list(islice(items, _BATCH)):
            yield lead + _ENCODER.encode(batch)[1:-1]
            lead = ","
        yield "[]" if lead == "[" else "]"
    yield "}"


def _checked_text(data: bytes) -> str | None:
    """The text of a stored file, None unless its checksum holds; raises
    ``ValueError`` unless the file is UTF-8."""
    if not data.startswith(_HEAD) or data[_DIGEST_END : _DIGEST_END + 2] != b'",':
        return None
    digest = hashlib.sha256(b"{")
    digest.update(memoryview(data)[_DIGEST_END + 2 :])
    if digest.hexdigest().encode() != data[len(_HEAD) : _DIGEST_END]:
        return None
    return data.decode("utf-8")


def _has_head(path: str) -> bool:
    try:
        with open(path, "rb") as fh:
            return fh.read(len(_HEAD)) == _HEAD
    except OSError:
        return False


# the names ``put`` gives its temporaries: mkstemp's eight random characters
_TEMPORARY = re.compile(r".+\.[a-z0-9_]{8}\.tmp")

_ENV_VAR = "RAMOPS_CACHE_DIR"
_DEFAULT_DIRNAME = ".ramops-cache"


def resolve_cache_dir(flag_value: str | None) -> str:
    """Cache directory from flag, else environment, else ``./.ramops-cache``."""
    return flag_value or os.environ.get(_ENV_VAR) or _DEFAULT_DIRNAME


class ComponentStore:
    """Maps cache keys to component payloads (plain JSON-able dicts, whose
    lists ``put`` also takes as iterators) stored as checked files; without
    a directory, ``put`` drops the payload."""

    def __init__(self, directory: str | None = None):
        self.directory = directory

    def _path(self, key: str) -> str:
        return os.path.join(self.directory, key + ".json")  # type: ignore[arg-type]

    def get(self, key: str) -> dict | None:
        if not self.directory:
            return None
        try:
            with open(self._path(key), "rb") as fh:
                text = _checked_text(fh.read())
            if text is None:
                return None
            payload = json.loads(text)
            del payload["sha256"]
        except (OSError, ValueError):
            return None
        if payload.get("schema_version") != SCHEMA_VERSION:
            return None
        return payload

    def put(self, key: str, payload: dict) -> None:
        if not self.directory:
            return
        payload = {**payload, "schema_version": SCHEMA_VERSION}
        os.makedirs(self.directory, exist_ok=True)
        # one temporary file per writer, so that concurrent writers of a
        # key never replace or truncate each other's half-written file
        fd, tmp = tempfile.mkstemp(dir=self.directory, prefix=key + ".", suffix=".tmp")
        try:
            with os.fdopen(fd, "wb") as fh:
                fh.write(_HEAD + b"0" * (_DIGEST_END - len(_HEAD)) + b'",')
                digest = hashlib.sha256(b"{")
                for piece in _pieces(payload):
                    data = piece.encode("utf-8")
                    digest.update(data)
                    fh.write(data)
                fh.seek(len(_HEAD))
                fh.write(digest.hexdigest().encode())
            os.chmod(tmp, 0o644)  # mkstemp creates the file readable by its owner only
            os.replace(tmp, self._path(key))
        except BaseException:
            with suppress(OSError):
                os.remove(tmp)
            raise

    def _files(self) -> tuple[list[str], list[str]]:
        """The names of the store's payload files, ``<key>.json`` starting
        with the checksum head, and of its writers' temporaries,
        ``<key>.<random>.tmp``: no other file in the directory is the store's."""
        payloads: list[str] = []
        temporaries: list[str] = []
        if self.directory and os.path.isdir(self.directory):
            for name in sorted(os.listdir(self.directory)):
                if name.endswith(".json") and _has_head(os.path.join(self.directory, name)):
                    payloads.append(name)
                elif _TEMPORARY.fullmatch(name):
                    temporaries.append(name)
        return payloads, temporaries

    def info(self) -> dict:
        payloads, _ = self._files()
        return {"directory": self.directory, "disk_entries": [name[:-5] for name in payloads]}

    def clear(self) -> int:
        """Delete the payload files, and the temporary files of writers that
        died before renaming theirs; returns how many were removed."""
        payloads, temporaries = self._files()
        for name in payloads + temporaries:
            os.remove(os.path.join(self.directory, name))  # type: ignore[arg-type]
        return len(payloads) + len(temporaries)


_default_store = ComponentStore()


def default_store() -> ComponentStore:
    return _default_store
