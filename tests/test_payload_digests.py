"""Payload bytes depend only on ``ENGINE_FORMAT``.

The graph payloads of R (forest at n <= 5, full at n <= 4) and of the
Arnold fixture (both modes at n <= 5), built into a fresh store, must carry
the digests in ``tests/data/payload_digests_v<ENGINE_FORMAT>.json``: per
cache key, the SHA-256 of the payload body, as the file's checksum head
records it.  A change that alters payload bytes on purpose bumps
``ENGINE_FORMAT`` and regenerates the golden:

    PYTHONPATH=src python tests/test_payload_digests.py
"""

import json
import os
import sys
import tempfile

from ramops.cache import ComponentStore
from ramops.graphalg import ARNOLD_PRESENTATION, R_PRESENTATION, GraphComponent, algebra_basis
from ramops.labels import standard_labels
from ramops.quotient import ENGINE_FORMAT, clear_memos

BUILDS = (
    (R_PRESENTATION, "forest", 5),
    (R_PRESENTATION, "full", 4),
    (ARNOLD_PRESENTATION, "forest", 5),
    (ARNOLD_PRESENTATION, "full", 5),
)
GOLDEN = os.path.join(os.path.dirname(os.path.abspath(__file__)), "data", f"payload_digests_v{ENGINE_FORMAT}.json")


def payload_digests(directory: str) -> dict[str, str]:
    """Build every payload of ``BUILDS`` into a store on the empty
    directory; the checksum head of each payload file, by cache key."""
    store = ComponentStore(directory)
    for pres, mode, top in BUILDS:
        for n in range(1, top + 1):
            algebra_basis(pres, standard_labels(n), mode, store)
    digests = {}
    for name in sorted(os.listdir(directory)):
        with open(os.path.join(directory, name), encoding="utf-8") as fh:
            digests[name[: -len(".json")]] = json.load(fh)["sha256"]
    return digests


def test_payload_bytes_match_the_golden_of_the_engine_format(tmp_path):
    with open(GOLDEN, encoding="utf-8") as fh:
        golden = json.load(fh)
    assert payload_digests(str(tmp_path)) == golden, (
        "payload bytes changed: if that is meant, bump ENGINE_FORMAT and "
        "regenerate the golden (see this module's docstring)"
    )


def test_every_payload_decodes_to_its_cold_build(tmp_path, monkeypatch):
    payload_digests(str(tmp_path))
    clear_memos()
    cold_store = ComponentStore()
    cold = {
        (pres, mode, n): algebra_basis(pres, standard_labels(n), mode, cold_store)
        for pres, mode, top in BUILDS
        for n in range(1, top + 1)
    }

    def no_build(*args, **kwargs):
        raise AssertionError("a stored component must be decoded, not built")

    monkeypatch.setattr(GraphComponent, "ambient_and_span", no_build)
    store = ComponentStore(str(tmp_path))
    for (pres, mode, n), built in cold.items():
        loaded = algebra_basis(pres, standard_labels(n), mode, store)
        assert loaded.masks == built.masks
        assert loaded.reducer.pivots == built.reducer.pivots and loaded.reducer.rows == built.reducer.rows
        assert loaded.basis_positions == built.basis_positions and loaded.basis == built.basis
        assert loaded.dims == built.dims


if __name__ == "__main__":
    with tempfile.TemporaryDirectory() as directory:
        digests = payload_digests(directory)
    with open(GOLDEN, "w", encoding="utf-8") as fh:
        json.dump(digests, fh, indent=2, sort_keys=True)
        fh.write("\n")
    sys.stdout.write(f"{len(digests)} digests written to {GOLDEN}\n")
