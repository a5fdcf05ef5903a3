"""The records of ``golden.RUNS`` match the digests pinned in ``golden.json``.

A change that moves a record on purpose re-pins the table with
``PYTHONPATH=src python tests/golden.py`` and says why in its change notes.
"""

import json

from golden import FILES, RUNS, TABLE, digests, moved, report


def test_every_record_matches_its_pinned_digest():
    changed = moved(json.loads(TABLE.read_text()), digests())
    assert not changed, "digests moved: " + ", ".join(changed)


def test_moved_names_each_file_that_differs():
    pinned = {"s1": dict.fromkeys(FILES, "a"), "s2": dict.fromkeys(FILES, "b")}
    current = {"s1": {**pinned["s1"], "laps.csv": "c"}, "s3": pinned["s2"]}
    assert moved(pinned, current) == ["s1/laps.csv"] + [
        f"{name}/{file}" for name in ("s2", "s3") for file in FILES
    ]


def test_report_gives_the_stats_of_each_run_that_moved():
    stats = {"frozen_frac": 0.5, "convergence_time_s": None, "max_t_l": 60.0}
    pinned = {"s1": {**dict.fromkeys(FILES, "a"), "stats": stats}, "s2": dict.fromkeys(FILES, "b")}
    current = {
        "s1": {**pinned["s1"], "cycles.csv": "c", "stats": {**stats, "frozen_frac": 0.25}},
        "s2": pinned["s2"],
    }
    assert report(pinned, current) == [
        "moved s1/cycles.csv",
        "s1: frozen_frac 0.5 -> 0.25, convergence_time_s None -> None, max_t_l 60.0 -> 60.0",
        f"golden.json: 1 of {len(RUNS) * len(FILES)} entries moved",
    ]
