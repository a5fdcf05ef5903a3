import csv
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mhmr.errors import ConfigurationError, MetricDomainError
from mhmr.metrics import (
    DEFAULT_STRESS_WINDOW,
    DISCRETE_STRESS_CONDITION,
    ConditionTimeline,
    ScriptedTrace,
    StressTrace,
    check_profile,
    discrete_stress_to_condition,
    load_stress_trace,
    stress_to_condition,
)
from mhmr.scenario import Event


def make_trace(values, period=1.0):
    values = np.asarray(values, dtype=float)
    times = np.arange(len(values)) * period
    return StressTrace(times, values)


class TestStressCondition:
    def test_all_relaxed_is_full_condition(self):
        trace = make_trace([0] * 40)
        assert stress_to_condition(trace, DEFAULT_STRESS_WINDOW, 39.0) == 1.0

    def test_all_stressed_is_zero_condition(self):
        trace = make_trace([1] * 40)
        assert stress_to_condition(trace, DEFAULT_STRESS_WINDOW, 39.0) == 0.0

    def test_moving_average_inversion(self):
        # Last 30 samples at t=39: indices 10..39 -> 10 stressed of 30.
        values = [0] * 20 + [1] * 10 + [0] * 10
        trace = make_trace(values)
        cond = stress_to_condition(trace, 30, 39.0)
        assert cond == pytest.approx(1.0 - 10 / 30, abs=1e-12)

    def test_window_one_tracks_instantaneous(self):
        values = [0, 1, 0, 1, 1, 0]
        trace = make_trace(values)
        for i, v in enumerate(values):
            assert stress_to_condition(trace, 1, float(i)) == 1.0 - v

    def test_short_history_uses_available_samples(self):
        trace = make_trace([1, 1, 0, 0])
        # Only two samples at or before t=1.
        assert stress_to_condition(trace, 30, 1.0) == 0.0

    def test_window_lipschitz_bound(self, rng):
        # Consecutive outputs can move by at most 2/window: one sample
        # enters and one leaves the average.
        values = rng.integers(0, 2, size=200)
        trace = make_trace(values)
        window = 25
        prev = stress_to_condition(trace, window, float(window))
        for t in range(window + 1, 200):
            cur = stress_to_condition(trace, window, float(t))
            assert abs(cur - prev) <= 2.0 / window + 1e-12
            prev = cur

    @settings(max_examples=300, deadline=None)
    @given(
        values=st.lists(st.sampled_from([0.0, 1.0]), min_size=1, max_size=200),
        window=st.integers(1, 60),
        period=st.sampled_from([0.5, 0.35, 1.0]),
        data=st.data(),
    )
    def test_prefix_count_matches_mean_of_window(self, values, window, period, data):
        trace = make_trace(values, period)
        lo, hi = trace.span
        t = data.draw(st.one_of(st.sampled_from(trace.times.tolist()), st.floats(lo, hi)))
        end = int(np.searchsorted(trace.times, t, side="right"))
        recent = trace.values[max(0, end - window) : end]
        assert stress_to_condition(trace, window, t) == 1.0 - float(np.mean(recent))

    @settings(max_examples=300, deadline=None)
    @given(
        values=st.lists(st.sampled_from([0.0, 1.0]), min_size=1, max_size=200),
        window=st.one_of(st.integers(1, 60), st.just(2**70)),
        period=st.sampled_from([0.5, 0.35, 1.0]),
        data=st.data(),
    )
    def test_array_of_times_matches_the_scalar_calls(self, values, window, period, data):
        trace = make_trace(values, period)
        lo, hi = trace.span
        grid = trace.grid
        midpoints = [(a + b) / 2 for a, b in zip(grid, grid[1:])] or [lo]
        time = st.one_of(
            st.sampled_from(grid),  # at samples
            st.sampled_from(midpoints),  # between samples
            st.sampled_from([lo, hi]),  # at both span ends
            st.floats(lo, hi),
        )
        times = data.draw(st.lists(time, min_size=1, max_size=50))
        conditions = stress_to_condition(trace, window, np.array(times))
        assert conditions.shape == (len(times),)
        scalar = [stress_to_condition(trace, window, t) for t in times]
        assert all(type(c) is float for c in scalar)
        assert [c.hex() for c in conditions.tolist()] == [c.hex() for c in scalar]

    def test_time_outside_span_raises(self):
        trace = make_trace([0, 1])
        with pytest.raises(ConfigurationError):
            stress_to_condition(trace, 5, -1.0)
        with pytest.raises(ConfigurationError):
            stress_to_condition(trace, 5, 10.0)

    def test_nonbinary_trace_rejected(self):
        with pytest.raises(MetricDomainError):
            make_trace([0, 0.5, 1])

    def test_discrete_levels(self):
        assert discrete_stress_to_condition("low") == 0.75
        assert discrete_stress_to_condition("Medium") == 0.5
        assert discrete_stress_to_condition("HIGH") == 0.25
        with pytest.raises(MetricDomainError):
            discrete_stress_to_condition("extreme")
        assert set(DISCRETE_STRESS_CONDITION) == {"low", "medium", "high"}


def level_timeline(path):
    """The timeline of one level-row ``trace`` event at time 0."""
    profile = {"type": "trace", "path": str(path)}
    return ConditionTimeline([Event(0.0, "robot", 1, "robot_condition", profile)], 1)


class TestScriptedTrace:
    def test_step_hold(self, tmp_path):
        # Rows 5 s after the event, so offsets before the first row are read.
        p = tmp_path / "levels.csv"
        p.write_text("time_s,stress\n5,low\n15,medium\n25,high\n")
        timeline = level_timeline(p)
        assert timeline.at(0.0) == (0.75, 15.0)  # before the first row
        assert timeline.at(5.0) == (0.75, 15.0)
        assert timeline.at(14.99) == (0.75, 15.0)
        assert timeline.at(15.0) == (0.5, 25.0)
        assert timeline.at(20.0) == (0.5, 25.0)
        assert timeline.at(105.0) == (0.25, math.inf)  # after the last

    def test_rejects_unsorted(self):
        with pytest.raises(ConfigurationError):
            ScriptedTrace(np.array([0.0, 0.0]), np.array([1.0, 1.0]))


class TestLoaders:
    def test_binary_stress_csv(self, tmp_path):
        p = tmp_path / "stress.csv"
        p.write_text("time_s,stress\n0,0\n1,1\n2,1\n3,0\n")
        trace = load_stress_trace(p)
        assert isinstance(trace, StressTrace)
        assert trace.values.tolist() == [0.0, 1.0, 1.0, 0.0]

    def test_discrete_stress_csv(self, tmp_path):
        p = tmp_path / "levels.csv"
        p.write_text("time_s,stress\n0,low\n30,high\n60,medium\n")
        trace = load_stress_trace(p)
        assert isinstance(trace, ScriptedTrace)
        assert trace.values.tolist() == [0.75, 0.25, 0.5]
        timeline = level_timeline(p)
        assert timeline.at(0.0) == (0.75, 30.0)
        assert timeline.at(45.0) == (0.25, 60.0)
        assert timeline.at(60.0) == (0.5, math.inf)
        assert timeline.at(90.0) == (0.5, math.inf)

    def test_nonuniform_binary_rejected(self, tmp_path):
        p = tmp_path / "bad.csv"
        p.write_text("time_s,stress\n0,0\n1,1\n5,1\n")
        with pytest.raises(ConfigurationError):
            load_stress_trace(p)

    def test_missing_header_rejected(self, tmp_path):
        p = tmp_path / "bad.csv"
        p.write_text("t,s\n0,0\n")
        with pytest.raises(ConfigurationError):
            load_stress_trace(p)

    @pytest.mark.parametrize(
        "rows",
        [
            "0,low\nnan,high\n2,medium\n",
            "-inf,1\n",
            "0,0\ninf,1\n",
            # Checked before the uniform-period and increasing-time checks.
            "0,0\nnan,1\n1,0\n",
            "0,low\ninf,high\n2,medium\n",
        ],
        ids=["nan", "-inf", "inf", "nan_binary", "inf_level"],
    )
    def test_non_finite_time_rejected(self, tmp_path, rows):
        p = tmp_path / "bad.csv"
        p.write_text("time_s,stress\n" + rows)
        # The message, not the path: pytest's directory names the test.
        with pytest.raises(ConfigurationError, match="timestamps must be finite"):
            load_stress_trace(p)


def dictreader_load_stress_trace(path):
    """Reference: ``load_stress_trace`` as it was written with ``csv.DictReader``."""
    times, raw = [], []
    with open(path, newline="") as fh:
        reader = csv.DictReader(fh, restval="")
        if reader.fieldnames is None or "time_s" not in reader.fieldnames or "stress" not in reader.fieldnames:
            raise ConfigurationError(f"{path}: expected header 'time_s,stress'")
        for row in reader:
            times.append(float(row["time_s"]))
            raw.append(row["stress"].strip())
    if not raw:
        raise ConfigurationError(f"{path}: stress trace has no rows")
    if all(v in ("0", "1") for v in raw):
        # The trace's own time checks (finite, then increasing) come before
        # the period check.
        trace = StressTrace(np.asarray(times), np.array([float(v) for v in raw]))
        periods = np.diff(trace.times)
        if periods.size and not np.allclose(periods, periods[0]):
            raise ConfigurationError(f"{path}: stress trace sample period is not uniform")
        return trace
    values = np.array([discrete_stress_to_condition(v) for v in raw])
    return ScriptedTrace(np.asarray(times), values)


def load_outcome(loader, path):
    """What ``loader`` makes of ``path``: the trace's type, times and values,
    or the type and message of what it raises."""
    try:
        trace = loader(path)
    except Exception as exc:  # every outcome is compared
        return type(exc), str(exc)
    return type(trace), trace.times.tolist(), trace.values.tolist()


@pytest.mark.parametrize(
    "content",
    [
        "time_s,stress\n\n0,1\n\n1,0\n2,1\n\n",
        "\ntime_s,stress\n0,1\n",
        "stress,time_s\n1,0\n0,1\n",
        "time_s,stress,note\n0,1,calm\n1,0,\n",
        "time_s,stress,stress\n0,0,1\n1,1,0\n",
        "time_s,stress,stress\n0,0,1\n1,1\n",
        "time_s,stress\n0,1\n1\n",
        "time_s,stress\n0, 1 \n1,0 \n",
        "time_s,level\n0,1\n",
        "",
        "time_s,stress\n",
        "time_s,stress\n0,low\n30, HIGH\n60,medium\n",
    ],
    ids=[
        "blank_lines", "blank_first_line", "stress_first", "extra_column", "duplicated_stress",
        "duplicated_stress_short_row", "row_missing_stress", "spaces", "no_stress_header",
        "empty_file", "header_only", "levels",
    ],
)
def test_loader_reads_rows_as_dictreader_does(tmp_path, content):
    path = tmp_path / "trace.csv"
    path.write_text(content)
    expected = load_outcome(dictreader_load_stress_trace, path)
    assert load_outcome(load_stress_trace, path) == expected


def _csv_field(text, quote):
    """``text`` as one CSV field, quoted when asked or when it must be."""
    if quote or any(c in text for c in ',"\r\n'):
        return '"' + text.replace('"', '""') + '"'
    return text


@st.composite
def trace_files(draw):
    """Text of a trace file in the corners of the CSV dialect: blank lines,
    CRLF or CR line ends, quoted fields, extra, duplicated and missing
    columns, short rows and padded fields; binary and level rows; bad,
    non-finite and off-grid times; an empty file and a header alone."""
    if draw(st.integers(0, 15)) == 0:
        return ""
    header = draw(
        st.sampled_from(
            [
                ["time_s", "stress"],
                ["stress", "time_s"],
                ["time_s", "stress", "note"],
                ["note", "time_s", "stress"],
                ["time_s", "stress", "stress"],
                ["time_s", "level"],
            ]
        )
    )
    stress = draw(
        st.sampled_from(
            [
                ["0", "1"],
                ["0", "1", " 1 ", "0 ", "\t1"],
                ["low", "medium", "high", "HIGH", " Low "],
                ["0", "1", "low", "extreme", "", "1.0", "1,0"],
            ]
        )
    )
    period = draw(st.sampled_from([0.5, 0.1, 1 / 3, 2.0]))
    eol = draw(st.sampled_from(["\n", "\r\n", "\r"]))
    lines = [""] if draw(st.integers(0, 15)) == 0 else []
    lines.append(",".join(_csv_field(name, draw(st.integers(0, 9)) == 0) for name in header))
    for k in range(draw(st.integers(0, 12))):
        time = repr(k * period)
        if draw(st.integers(0, 7)) == 0:
            time = draw(
                st.sampled_from(
                    ["nan", "inf", "-inf", "x", "", " 7 ", "1_0", repr(k * period * (1 + 1e-7)),
                     repr(k * period + 0.01), repr(-k * period)]
                )
            )
        row = [
            time if name == "time_s" else draw(st.sampled_from(stress)) if name == "stress" else "calm"
            for name in header
        ]
        if draw(st.integers(0, 9)) == 0:
            row = row[: draw(st.integers(0, len(row) - 1))]
        if draw(st.integers(0, 9)) == 0:
            row.append("extra")
        lines.append(",".join(_csv_field(f, draw(st.integers(0, 7)) == 0) for f in row))
        if draw(st.integers(0, 7)) == 0:
            lines.append("")
    return eol.join(lines) + (eol if draw(st.booleans()) else "")


@settings(max_examples=400, deadline=None)
@given(content=trace_files())
def test_loader_reads_generated_files_as_dictreader_does(tmp_path_factory, content):
    path = tmp_path_factory.mktemp("trace") / "trace.csv"
    path.write_bytes(content.encode())
    expected = load_outcome(dictreader_load_stress_trace, path)
    assert load_outcome(load_stress_trace, path) == expected


@pytest.mark.parametrize("long_row_first", [False, True])
def test_two_faults_report_the_earlier_row(tmp_path, long_row_first):
    # A bad time and, seven rows away, a field over csv's size limit: the
    # rows are read in one pass, yet the fault of the earlier row is the one
    # reported, as a row-by-row read reports it.
    rows = [f"{k},0" for k in range(10)]
    long_field = "1" * (csv.field_size_limit() + 1)
    bad, long = (8, 1) if long_row_first else (1, 8)
    rows[bad] = "x,0"
    rows[long] = f"{long},{long_field}"
    path = tmp_path / "trace.csv"
    path.write_text("time_s,stress\n" + "\n".join(rows) + "\n")
    outcome = load_outcome(load_stress_trace, path)
    assert outcome == load_outcome(dictreader_load_stress_trace, path)
    if long_row_first:
        assert outcome[0] is csv.Error
    else:
        assert outcome == (ValueError, "could not convert string to float: 'x'")


def write_trace_csv(path, values, period=1.0):
    """A ``time_s,stress`` file with the samples of ``make_trace(values, period)``."""
    trace = make_trace(values, period)
    rows = [f"{t!r},{int(v)}" for t, v in zip(trace.times.tolist(), trace.values.tolist())]
    path.write_text("\n".join(["time_s,stress", *rows]) + "\n")


def stress_timeline(path, window):
    profile = {"type": "stress_trace", "path": str(path)}
    return ConditionTimeline([Event(0.0, "operator", 1, "operator_condition", profile)], window)


def next_change_reference(grid, conditions):
    """For each count ``k`` of passed samples, the time of the first sample
    at or after ``k`` (never sample 0) whose condition differs from the one
    before it, found by a forward scan; ``inf`` if there is none."""
    out = []
    for k in range(len(grid) + 1):
        j = max(k, 1)
        while j < len(grid) and conditions[j] == conditions[j - 1]:
            j += 1
        out.append(grid[j] if j < len(grid) else math.inf)
    return out


@settings(max_examples=300, deadline=None)
@given(
    values=st.lists(st.sampled_from([0, 1]), min_size=1, max_size=300),
    window=st.integers(1, 40),
    period=st.sampled_from([0.5, 0.35, 1.0]),
)
def test_load_prepares_what_the_scalar_path_gives(tmp_path_factory, values, window, period):
    path = tmp_path_factory.mktemp("trace") / "op.csv"
    write_trace_csv(path, values, period)
    timeline = stress_timeline(path, window)
    (grid, held, next_change), = timeline._traces.values()
    trace = load_stress_trace(path)
    assert grid == trace.grid
    conditions = [stress_to_condition(trace, window, t) for t in grid]
    assert [c.hex() for c in held] == [c.hex() for c in conditions]
    assert next_change == next_change_reference(grid, conditions)


class TestConditionTimeline:
    def test_human_stress_pipeline(self, tmp_path):
        write_trace_csv(tmp_path / "op.csv", [0] * 20 + [1] * 10 + [0] * 10)
        timeline = stress_timeline(tmp_path / "op.csv", DEFAULT_STRESS_WINDOW)
        assert timeline.at(39.0)[0] == pytest.approx(1.0 - 10 / 30, abs=1e-12)

    def test_fuzz_values_in_unit_interval(self, rng, tmp_path):
        for k in range(100):
            n = int(rng.integers(5, 60))
            write_trace_csv(tmp_path / f"op{k}.csv", rng.integers(0, 2, size=n))
            timeline = stress_timeline(tmp_path / f"op{k}.csv", int(rng.integers(1, 40)))
            t = float(rng.uniform(0, n - 1))
            assert 0.0 <= timeline.at(t)[0] <= 1.0

    @pytest.mark.parametrize(
        "profile",
        [
            {"type": "pulse", "value": 0.5},
            {"type": "step"},
            {"type": "step", "value": 10**309},
            {"type": "step", "value": float("nan")},
            {"type": "ramp", "value": 0.5, "duration": float("inf")},
            {"type": "ramp", "value": 0.5},
            {"type": "stress_trace", "path": ["op.csv"]},
            # Not a JSON object.
            [["type", "step"], ["value", 0.8]],
            None,
            "step",
        ],
    )
    def test_bad_profile_rejected_naming_target(self, profile):
        with pytest.raises(ConfigurationError, match="robot 2 performance"):
            check_profile(profile, "robot 2 performance")

    @pytest.mark.parametrize(
        "profile, key",
        [
            ({"type": "step", "value": 0.8, "duration": 3}, "duration"),
            ({"type": "step", "valeu": 0.3, "value": 0.8}, "valeu"),
            ({"type": "ramp", "value": 0.8, "duration": 3, "path": "op.csv"}, "path"),
            ({"type": "trace", "path": "op.csv", "value": 0.5}, "value"),
            ({"type": "stress_trace", "path": "op.csv", "window": 4}, "window"),
        ],
    )
    def test_unknown_profile_key_rejected_naming_key_and_target(self, profile, key):
        with pytest.raises(ConfigurationError, match=rf"'{key}' .*robot 2 performance"):
            check_profile(profile, "robot 2 performance")
