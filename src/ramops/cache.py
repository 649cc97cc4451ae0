"""Component cache: in-memory always, optionally persisted to a directory.

Quotient components (monomial list + reducer rows + dimension table) are
expensive at arity 4+ and are reused heavily, so they are cached under a
key that includes the presentation hash: editing a presentation invalidates
its entries automatically.  On-disk payloads are versioned JSON; a payload
with the wrong schema version or hash is ignored rather than trusted.
"""

from __future__ import annotations

import json
import os
import tempfile
from contextlib import suppress

SCHEMA_VERSION = 1

_ENV_VAR = "RAMOPS_CACHE_DIR"
_DEFAULT_DIRNAME = ".ramops-cache"


def resolve_cache_dir(flag_value: str | None, use_default: bool = False) -> str | None:
    """Cache directory from flag, else environment, else optional local default."""
    if flag_value:
        return flag_value
    env = os.environ.get(_ENV_VAR)
    if env:
        return env
    if use_default:
        return _DEFAULT_DIRNAME
    return None


class ComponentStore:
    """Maps cache keys to component payloads (plain JSON-able dicts)."""

    def __init__(self, directory: str | None = None):
        self.directory = directory
        self._memory: dict[str, dict] = {}

    def _path(self, key: str) -> str:
        return os.path.join(self.directory, key + ".json")  # type: ignore[arg-type]

    def get(self, key: str) -> dict | None:
        if key in self._memory:
            return self._memory[key]
        if self.directory:
            path = self._path(key)
            if os.path.exists(path):
                try:
                    with open(path, "r", encoding="utf-8") as fh:
                        payload = json.load(fh)
                except (OSError, json.JSONDecodeError):
                    return None
                if payload.get("schema_version") != SCHEMA_VERSION:
                    return None
                self._memory[key] = payload
                return payload
        return None

    def put(self, key: str, payload: dict) -> None:
        payload = dict(payload)
        payload["schema_version"] = SCHEMA_VERSION
        self._memory[key] = payload
        if self.directory:
            os.makedirs(self.directory, exist_ok=True)
            # one temporary file per writer, so that concurrent writers of a
            # key never replace or truncate each other's half-written file
            fd, tmp = tempfile.mkstemp(dir=self.directory, prefix=key + ".", suffix=".tmp")
            try:
                with os.fdopen(fd, "w", encoding="utf-8") as fh:
                    json.dump(payload, fh, sort_keys=True, separators=(",", ":"))
                os.chmod(tmp, 0o644)  # mkstemp creates the file readable by its owner only
                os.replace(tmp, self._path(key))
            except BaseException:
                with suppress(OSError):
                    os.remove(tmp)
                raise

    def info(self) -> dict:
        entries = sorted(self._memory)
        on_disk: list[str] = []
        if self.directory and os.path.isdir(self.directory):
            on_disk = sorted(
                name[:-5] for name in os.listdir(self.directory) if name.endswith(".json")
            )
        return {
            "directory": self.directory,
            "memory_entries": entries,
            "disk_entries": on_disk,
        }

    def clear(self) -> int:
        """Drop memory entries and delete on-disk payloads; returns files removed."""
        self._memory.clear()
        removed = 0
        if self.directory and os.path.isdir(self.directory):
            for name in sorted(os.listdir(self.directory)):
                if name.endswith(".json"):
                    os.remove(os.path.join(self.directory, name))
                    removed += 1
        return removed


_default_store = ComponentStore()


def default_store() -> ComponentStore:
    return _default_store
