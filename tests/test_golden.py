"""The records of ``golden.RUNS`` match the digests pinned in ``golden.json``.

A change that moves a record on purpose re-pins the table with
``PYTHONPATH=src python tests/golden.py`` and says why in its change notes.
"""

import json

from golden import FILES, TABLE, digests, moved


def test_every_record_matches_its_pinned_digest():
    changed = moved(json.loads(TABLE.read_text()), digests())
    assert not changed, "digests moved: " + ", ".join(changed)


def test_moved_names_each_file_that_differs():
    pinned = {"s1": dict.fromkeys(FILES, "a"), "s2": dict.fromkeys(FILES, "b")}
    current = {"s1": {**pinned["s1"], "laps.csv": "c"}, "s3": pinned["s2"]}
    assert moved(pinned, current) == ["s1/laps.csv"] + [
        f"{name}/{file}" for name in ("s2", "s3") for file in FILES
    ]
