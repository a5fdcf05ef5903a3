import copy
import csv
import dataclasses
import hashlib
import json
import math
import re

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import mhmr.scenario
from mhmr.errors import ConfigurationError, MetricDomainError
from mhmr.geometry import partition_from_workload, strips
from mhmr.patrol import REGION_CHANGE_TOL, assign_region, change_regions
from mhmr.scenario import (
    BUILTIN_SCRIPT_NAMES,
    CycleRow,
    Event,
    LapRow,
    RunRecord,
    ScenarioParams,
    ScenarioRunner,
    ScenarioScript,
    TopologyEdit,
    TrajectoryRow,
    build_topology,
    builtin_script,
    run_scenario,
    sweep_scripts,
)


def allocation_only_script(
    name="unit", m=4, duration_s=60.0, events=(), K=5.0, placement="center", **params
):
    return ScenarioScript.from_dict(
        {
            "name": name,
            "topology": {"m": m, "pattern": "none"},
            "workspace": {"origin": [0.0, 0.0], "width": 20.0, "height": 5.0},
            "params": {"K": K, "tau": 0.5, **params},
            "placement": placement,
            "mode": "allocation-only",
            "duration_s": duration_s,
            "events": list(events),
        }
    )


def step_event(time_s, target, metric, value):
    return {
        "time_s": time_s,
        "target": target,
        "metric": metric,
        "profile": {"type": "step", "value": value},
    }


class TestBuildTopology:
    def test_alternating_pattern(self):
        team = build_topology({"m": 10, "pattern": "alternating"})
        assert team.m == 10 and team.h == 5
        assert team.operators_of(3) == (3,)
        assert team.is_autonomous(8)

    def test_explicit_edges(self):
        team = build_topology({"m": 3, "h": 2, "edges": [[1, 1], [2, 2]]})
        assert team.operators_of(1) == (1,)
        assert team.is_autonomous(3)

    def test_rejects_unknown_pattern(self):
        with pytest.raises(ConfigurationError):
            build_topology({"m": 3, "pattern": "ring"})


class TestValidation:
    def test_nonexistent_robot_named(self):
        with pytest.raises(ConfigurationError, match="robot 99"):
            allocation_only_script(events=[step_event(1.0, "robot:99", "robot_condition", 0.5)])

    def test_operator_metric_on_robot_rejected(self):
        with pytest.raises(ConfigurationError):
            allocation_only_script(events=[step_event(1.0, "robot:1", "operator_condition", 0.5)])

    def test_event_after_duration_rejected(self):
        with pytest.raises(ConfigurationError):
            allocation_only_script(
                duration_s=10.0, events=[step_event(20.0, "robot:1", "robot_condition", 0.5)]
            )

    def test_out_of_range_event_value_rejected(self):
        with pytest.raises(ConfigurationError):
            allocation_only_script(
                events=[step_event(1.0, "robot:1", "robot_condition", 1.5)]
            )

    def test_placement_length_mismatch(self):
        data = allocation_only_script(m=3).to_dict()
        with pytest.raises(ConfigurationError):
            ScenarioScript.from_dict({**data, "placement": [[0, 0]]})

    def test_infeasible_team_fails_before_it_is_built(self, monkeypatch):
        data = builtin_script("s3").to_dict()
        data["topology"]["m"] = 2**64
        monkeypatch.setattr(mhmr.scenario, "build_topology", lambda spec: pytest.fail("built"))
        with pytest.raises(ConfigurationError, match="safety_gap"):
            ScenarioScript.from_dict(data)

    @pytest.mark.parametrize("placement", ["bogus", None, 3, {"x": 1}])
    def test_unknown_placement_rejected(self, placement):
        with pytest.raises(ConfigurationError, match="unknown placement"):
            allocation_only_script(placement=placement)

    def test_replace_checks_the_new_script(self):
        script = builtin_script("s3")
        with pytest.raises(ConfigurationError, match="nonexistent operator 5"):
            dataclasses.replace(script, topology={"m": 4, "pattern": "alternating"})
        with pytest.raises(ConfigurationError, match="unknown placement"):
            dataclasses.replace(script, placement="bogus")

    def test_left_out_keys_take_the_dataclass_defaults(self):
        script = ScenarioScript.from_dict(
            {"topology": {"m": 2}, "workspace": {"width": 4, "height": 1}, "duration_s": 1}
        )
        assert (script.name, script.events, script.params) == ("unnamed", (), ScenarioParams())
        assert script.workspace.origin == (0.0, 0.0) and script.workspace.safety_gap == 0.0
        assert (script.mode, script.placement) == ("full-sim", "center")
        assert (script.allocation_enabled, script.record_trajectory) == (True, False)
        assert script.team == build_topology({"m": 2, "pattern": "none"})


class TestSerialization:
    @pytest.mark.parametrize("name", BUILTIN_SCRIPT_NAMES)
    def test_json_round_trip(self, name, tmp_path):
        script = builtin_script(name)
        path = tmp_path / f"{name}.json"
        script.to_json(path)
        loaded = ScenarioScript.from_json(path)
        assert loaded.to_dict() == script.to_dict()

    def test_malformed_dict_rejected(self):
        with pytest.raises(ConfigurationError):
            ScenarioScript.from_dict({"name": "x"})

    # A JSON object, even one of event objects, a string, null and a number.
    @pytest.mark.parametrize("events", [{}, "", {"x": {}}, None, 5])
    def test_events_must_be_a_list(self, events):
        data = {**builtin_script("s3").to_dict(), "events": events}
        with pytest.raises(ConfigurationError, match=r"^events must be a JSON list, not \w+$"):
            ScenarioScript.from_dict(data)

    # A value of each JSON type but an object, with the word an error line names it by.
    NOT_OBJECTS = [(None, "null"), ([], "array"), ("", "string"), (5, "number"),
                   (0.5, "number"), (True, "boolean")]

    @pytest.mark.parametrize("value, word", NOT_OBJECTS)
    @pytest.mark.parametrize("section", ["", "workspace", "params", "topology"])
    def test_a_section_that_is_not_an_object_is_named_by_its_json_type(self, section, value, word):
        data = {**builtin_script("s3").to_dict(), section: value} if section else value
        where = section or "a scenario script"
        with pytest.raises(ConfigurationError, match=rf"^{where} must be a JSON object, not {word}$"):
            ScenarioScript.from_dict(data)

    @pytest.mark.parametrize(
        "events, word", [(None, "null"), ({}, "object"), ("", "string"), (5, "number"), (False, "boolean")]
    )
    def test_events_that_are_not_a_list_are_named_by_their_json_type(self, events, word):
        data = {**builtin_script("s3").to_dict(), "events": events}
        with pytest.raises(ConfigurationError, match=rf"^events must be a JSON list, not {word}$"):
            ScenarioScript.from_dict(data)

    # A value of each JSON type but a string, with the word an error line names it by.
    NOT_STRINGS = [(None, "null"), (5, "number"), (0.5, "number"), (True, "boolean"),
                   ([], "array"), ({}, "object")]

    @pytest.mark.parametrize("value, word", NOT_STRINGS)
    def test_a_name_that_is_not_a_string_is_named_by_its_json_type(self, value, word):
        data = {**builtin_script("s3").to_dict(), "name": value}
        with pytest.raises(ConfigurationError, match=rf"^name must be a JSON string, not {word}$"):
            ScenarioScript.from_dict(data)
        with pytest.raises(ConfigurationError, match=rf"^name must be a JSON string, not {word}$"):
            dataclasses.replace(builtin_script("s3"), name=value)

    @pytest.mark.parametrize("value, word", NOT_STRINGS)
    @pytest.mark.parametrize("key", ["target", "metric"])
    def test_an_event_target_or_metric_that_is_not_a_string_is_named_by_its_json_type(
        self, key, value, word
    ):
        data = builtin_script("s3").to_dict()
        data["events"][0][key] = value
        with pytest.raises(ConfigurationError, match=rf"^event {key} must be a JSON string, not {word}$"):
            ScenarioScript.from_dict(data)

    @pytest.mark.parametrize("name", ["", ".", "..", "../escape", "a/b", "/abs", "a\\b", "..\\up", "a\0b"])
    def test_a_name_must_be_one_directory_name(self, name):
        data = {**builtin_script("s3").to_dict(), "name": name}
        with pytest.raises(ConfigurationError, match=r"^name .* must be one directory name"):
            ScenarioScript.from_dict(data)

    @pytest.mark.parametrize("name", ["s3", "a..b", "...", ".hidden", "run 2"])
    def test_a_name_of_one_directory_loads(self, name):
        data = {**builtin_script("s3").to_dict(), "name": name}
        assert ScenarioScript.from_dict(data).name == name

    @pytest.mark.parametrize(
        "section, key",
        [("", "mdoe"), ("workspace", "widht"), ("params", "kk"), ("topology", "patern")],
    )
    def test_an_unknown_key_is_named_with_its_section(self, section, key):
        data = builtin_script("s3").to_dict()
        (data[section] if section else data)[key] = 1
        where = section or "a scenario script"
        with pytest.raises(ConfigurationError, match=rf"^unknown key '{key}' in {where}; expected one of \["):
            ScenarioScript.from_dict(data)

    @pytest.mark.parametrize(
        "section, key",
        [("", "topology"), ("", "workspace"), ("", "duration_s"), ("workspace", "width"),
         ("workspace", "height"), ("event", "target"), ("event", "time_s"), ("event", "profile")],
    )
    def test_a_missing_key_is_named_with_its_section(self, section, key):
        data = builtin_script("s3").to_dict()
        del (data["events"][0] if section == "event" else data[section] if section else data)[key]
        where = {"": "a scenario script", "event": "an event"}.get(section, section)
        with pytest.raises(ConfigurationError, match=rf"^missing key '{key}' in {where}$"):
            ScenarioScript.from_dict(data)

    def test_wrong_schema_version_rejected(self):
        data = builtin_script("s3").to_dict()
        data["schema_version"] = 99
        with pytest.raises(ConfigurationError):
            ScenarioScript.from_dict(data)

    def test_unknown_builtin(self):
        with pytest.raises(ConfigurationError):
            builtin_script("s9")

    # 0.01 is shorter than one 0.05 s step, so the run would hold one cycle.
    @pytest.mark.parametrize("value", [math.nan, math.inf, -1.0, 0.0, 0.01])
    def test_bad_duration_rejected(self, value):
        data = builtin_script("s3").to_dict()
        data["duration_s"] = value
        with pytest.raises(ConfigurationError, match="duration_s"):
            ScenarioScript.from_dict(data)

    # A NaN duration would act as a step and an infinite one would never move.
    @pytest.mark.parametrize("duration", [math.nan, math.inf, -math.inf, 0.0, -2.0])
    def test_ramp_duration_must_be_finite_and_positive(self, duration):
        data = builtin_script("s1").to_dict()
        data["events"][-1]["profile"]["duration"] = duration
        with pytest.raises(ConfigurationError, match="ramp profile needs a finite positive"):
            ScenarioScript.from_dict(data)

    @pytest.mark.parametrize(
        "key, value",
        [
            ("width", math.nan),
            ("width", math.inf),
            ("height", math.inf),
            ("safety_gap", math.nan),
            ("origin", [math.nan, 0.0]),
            ("origin", [0.0, -math.inf]),
            ("origin", [0.0]),
        ],
    )
    def test_bad_workspace_rejected(self, key, value):
        data = builtin_script("s3").to_dict()
        data["workspace"][key] = value
        with pytest.raises(ConfigurationError, match="workspace"):
            ScenarioScript.from_dict(data)

    @pytest.mark.parametrize(
        "key, value",
        [
            ("duration_s", "120"),
            ("duration_s", True),
            ("workspace.width", "20"),
            ("workspace.height", True),
            ("workspace.safety_gap", "0.01"),
            ("workspace.origin", ["0", 0.0]),
            ("workspace.origin", [0.0, False]),
            ("workspace.origin", "00"),
        ],
    )
    def test_numbers_must_be_numbers(self, key, value):
        data = builtin_script("s3").to_dict()
        section, _, leaf = key.rpartition(".")
        (data[section] if section else data)[leaf] = value
        with pytest.raises(ConfigurationError, match=rf"^{key} must be"):
            ScenarioScript.from_dict(data)

    def test_integer_numbers_are_stored_as_floats(self):
        data = builtin_script("s3").to_dict()
        data["duration_s"] = 120
        data["workspace"].update(origin=[0, 0], width=20, height=5)
        script = ScenarioScript.from_dict(data)
        assert type(script.duration_s) is float and type(script.workspace.width) is float
        assert json.dumps(script.to_dict()) == json.dumps(builtin_script("s3").to_dict())
        assert '"duration_s": 120.0' in json.dumps(run_scenario(script).summary)

    @pytest.mark.parametrize("field", ["allocation_enabled", "record_trajectory"])
    @pytest.mark.parametrize("value", ["false", "False", "true", 0, 1, None])
    def test_flags_must_be_bools(self, field, value):
        data = builtin_script("s3").to_dict()
        data[field] = value
        with pytest.raises(ConfigurationError, match=rf"^{field} must be true or false"):
            ScenarioScript.from_dict(data)

    @pytest.mark.parametrize(
        "event",
        [
            {"time_s": "0"},
            {"time_s": True},
            {"time_s": 10**309},
            {"profile": {"type": "step", "value": "0.5"}},
            {"profile": {"type": "step", "value": True}},
            {"profile": {"type": "step", "value": 10**309}},
            {"profile": {"type": "ramp", "value": 1.0, "duration": "70"}},
            {"profile": {"type": "ramp", "value": 1.0, "duration": True}},
            # ``int`` reads these target ids as 10, 8, 3 and 1.
            {"target": "robot:1_0"},
            {"target": "robot: 8"},
            {"target": "robot:+3"},
            {"target": "robot:\u0661"},
            # A key of another profile type, a misspelled key, and a profile
            # that ``dict`` would read from a list of pairs.
            {"profile": {"type": "step", "value": 0.8, "duration": 3}},
            {"profile": {"type": "step", "value": 0.8, "valeu": 0.3}},
            {"profile": [["type", "step"], ["value", 0.8]]},
        ],
        ids=[
            "text_time", "bool_time", "huge_time", "text_value", "bool_value", "huge_value",
            "text_duration", "bool_duration", "underscore_id", "space_id", "plus_id",
            "non_ascii_id", "step_duration", "misspelled_key", "pairs_profile",
        ],
    )
    def test_event_numbers_must_be_real_numbers(self, event):
        data = builtin_script("s3").to_dict()
        data["events"][0].update(event)
        # A bad target id is named by the target string: it has no agent yet.
        named = repr(event["target"]) if "target" in event else "operator 3 operator_condition"
        with pytest.raises(ConfigurationError, match=re.escape(named)):
            ScenarioScript.from_dict(data)

    def test_integer_event_numbers_load(self):
        data = builtin_script("s3").to_dict()
        data["events"][0].update(time_s=0, profile={"type": "ramp", "value": 1, "duration": 2})
        [event, *_] = ScenarioScript.from_dict(data).events
        assert (event.time_s, event.profile["value"], event.profile["duration"]) == (0, 1, 2)


#: s3 plus a ramp event: every kind of field a script has.
FUZZ_BASE = builtin_script("s3").to_dict()
FUZZ_BASE["events"].append(
    {"time_s": 10.0, "target": "robot:3", "metric": "robot_condition",
     "profile": {"type": "ramp", "value": 0.2, "duration": 5.0}}
)


def json_paths(node, path=()):
    """Every path into a JSON document, the root ``()`` included."""
    yield path
    if isinstance(node, (dict, list)):
        for key, child in node.items() if isinstance(node, dict) else enumerate(node):
            yield from json_paths(child, path + (key,))


DELETE = object()
json_values = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=8),
    lambda children: st.lists(children, max_size=4)
    | st.dictionaries(st.text(max_size=8), children, max_size=4),
    max_leaves=8,
)


@settings(max_examples=300, deadline=None)
@given(
    path=st.sampled_from(list(json_paths(FUZZ_BASE))),
    value=st.one_of(st.just(DELETE), json_values),
)
@example(path=(), value=[])
@example(path=("workspace",), value=[20, 5])
@example(path=("workspace",), value=None)
@example(path=("schema_version",), value="1")
@example(path=("duration_s",), value=1e308)
@example(path=("events", 0), value=None)
@example(path=("events",), value={})
@example(path=("mdoe",), value="allocation-only")
def test_fuzzed_script_loads_or_is_rejected(path, value):
    """One field of a script, at any depth, replaced, added or deleted:
    loading and setting up a run succeed or raise ``ConfigurationError``."""
    data = copy.deepcopy(FUZZ_BASE)
    if not path:
        data = {} if value is DELETE else value
    else:
        *parents, key = path
        node = data
        for part in parents:
            node = node[part]
        if value is DELETE:
            del node[key]
        else:
            node[key] = value
    try:
        ScenarioRunner(ScenarioScript.from_dict(data))
    except ConfigurationError:
        pass


class TestScenarioParams:
    @pytest.mark.parametrize(
        "name, value",
        [
            ("v_max", 0.0),
            ("tau_star", 0.0),
            ("sim_dt", 0.0),
            ("K", 0.0),
            ("K", -1.0),
            ("K", math.nan),
            ("K", "abc"),
            ("K", True),
            ("tau", 0.0),
            ("tau_star", math.inf),
            ("v_max", math.nan),
            ("sim_dt", -0.05),
            ("window", 0),
            ("window", 2.5),
            ("window", True),
            ("window", "30"),
            ("window", np.int64(5)),
        ],
    )
    def test_rejects_bad_value(self, name, value):
        with pytest.raises(ConfigurationError, match=rf"params\.{name}\b"):
            ScenarioParams(**{name: value})

    def test_window_is_a_json_integer(self, tmp_path):
        # A numpy integer would build and then fail to write as JSON.
        script = builtin_script("s3")
        with pytest.raises(ConfigurationError, match=r"^params\.window must be an integer >= 1"):
            dataclasses.replace(script.params, window=np.int64(5))
        script = dataclasses.replace(script, params=dataclasses.replace(script.params, window=5))
        script.to_json(tmp_path / "s3.json")
        assert ScenarioScript.from_json(tmp_path / "s3.json").params.window == 5

    @pytest.mark.parametrize("tau, sim_dt", [(0.01, 0.05), (0.12, 0.05), (0.5, 0.3)])
    def test_tau_must_be_whole_multiple_of_sim_dt(self, tau, sim_dt):
        with pytest.raises(ConfigurationError, match=r"params\.tau\b"):
            ScenarioParams(tau=tau, sim_dt=sim_dt)

    @pytest.mark.parametrize("tau, sim_dt", [(0.05, 0.05), (0.3, 0.05), (0.5, 0.05), (1.0, 0.1)])
    def test_accepts_whole_multiples(self, tau, sim_dt):
        assert ScenarioParams(tau=tau, sim_dt=sim_dt).tau == tau

    @pytest.mark.parametrize("name", ["psi", "lap_tolerance"])
    def test_removed_knobs_are_unknown_fields(self, name):
        data = builtin_script("s3").to_dict()
        data["params"][name] = 0.1
        with pytest.raises(ConfigurationError, match=name):
            ScenarioScript.from_dict(data)

    def test_to_dict_writes_every_field(self):
        params = builtin_script("s3").to_dict()["params"]
        assert params == {
            "K": 5.0, "tau": 0.5, "tau_star": 65.0, "v_max": 0.8, "window": 30, "sim_dt": 0.05
        }

    def test_sweep_rejects_nonpositive_k(self):
        with pytest.raises(ConfigurationError, match=r"params\.K\b"):
            sweep_scripts(builtin_script("s3"), "K", [1.0, 0.0])


class TestRunBasics:
    def test_no_events_stays_uniform(self):
        record = run_scenario(allocation_only_script(duration_s=10.0))
        for row in record.cycles:
            assert row.sigma == pytest.approx((0.25,) * 4, abs=1e-15)
        assert record.summary["converged"] is True
        assert record.summary["total_initial_error"] == 0.0

    def test_shares_always_sum_to_one(self):
        script = builtin_script("s3")
        record = run_scenario(script)
        for row in record.cycles:
            assert abs(math.fsum(row.sigma) - 1.0) <= 1e-9

    def test_event_causality(self):
        script = allocation_only_script(
            duration_s=30.0,
            events=[step_event(15.0, "robot:2", "robot_condition", 0.5)],
        )
        record = run_scenario(script)
        for row in record.cycles:
            if row.time_s < 15.0:
                assert row.sigma_proposed == pytest.approx((0.25,) * 4, abs=1e-15)
            if row.time_s >= 15.0:
                assert row.sigma_proposed[1] < 0.25
        assert record.cycles[-1].sigma[1] < 0.25

    def test_replay_is_byte_identical(self, tmp_path):
        script = builtin_script("s3")
        a = run_scenario(script).write(tmp_path / "a")
        b = run_scenario(script).write(tmp_path / "b")
        assert (a / "cycles.csv").read_bytes() == (b / "cycles.csv").read_bytes()
        assert (a / "summary.json").read_bytes() == (b / "summary.json").read_bytes()

    def test_allocation_disabled_freezes_shares(self):
        script = builtin_script("s3")
        script = ScenarioScript.from_dict(
            {**script.to_dict(), "allocation_enabled": False}
        )
        record = run_scenario(script)
        assert record.cycles[-1].sigma == pytest.approx((0.1,) * 10, abs=1e-15)


class TestDeterioratedTeamEquilibria:
    """The m=10 team with operators 3/5 at 0.8, robot 3 at 0.6 (or failed)
    and robot 8 at 0.75 must settle at the closed-form shares."""

    def test_deteriorated_equilibrium(self):
        record = run_scenario(builtin_script("s3"))
        final = record.summary["final_sigma"]
        assert final[2] == pytest.approx(0.054036, abs=1e-6)
        assert final[4] == pytest.approx(0.084056, abs=1e-6)
        assert final[7] == pytest.approx(0.073878, abs=1e-6)
        for i in (0, 1, 3, 5, 6, 8, 9):
            assert final[i] == pytest.approx(0.112576, abs=1e-6)
        assert record.summary["converged"] is True

    def test_failed_robot_share_is_exact_zero(self):
        record = run_scenario(builtin_script("s4"))
        final = record.summary["final_sigma"]
        assert final[2] == 0.0
        assert final[4] == pytest.approx(0.088858, abs=1e-6)
        assert final[7] == pytest.approx(0.078098, abs=1e-6)
        for i in (0, 1, 3, 5, 6, 8, 9):
            assert final[i] == pytest.approx(0.119006, abs=1e-6)
        assert abs(math.fsum(final) - 1.0) <= 1e-9


class TestFullSim:
    def test_short_patrol_run_records_laps(self):
        data = builtin_script("s1").to_dict()
        data["duration_s"] = 150.0
        data["events"] = []
        record = run_scenario(ScenarioScript.from_dict(data))
        assert record.laps, "expected completed laps in 150 s"
        assert all(lap.lap_time_s > 0 for lap in record.laps)
        assert record.summary["max_t_l"] is not None
        # Healthy team on 30x12 with gaps: each strip's lap fits the 65 s
        # threshold plus tolerance.
        assert record.summary["max_t_l"] <= 65.0 + 10.0

    def test_second_run_gives_the_same_laps(self):
        data = builtin_script("s1").to_dict()
        data["duration_s"] = 150.0
        data["events"] = []
        runner = ScenarioRunner(ScenarioScript.from_dict(data))
        laps = list(runner.run().laps)
        summary = dict(runner.record.summary)
        assert len(laps) == 6
        assert runner.run().laps == laps
        assert runner.record.summary == summary

    def test_trajectory_recording(self):
        data = builtin_script("s1").to_dict()
        data["duration_s"] = 20.0
        data["events"] = []
        data["record_trajectory"] = True
        record = run_scenario(ScenarioScript.from_dict(data))
        assert record.trajectory
        times = {tr.time_s for tr in record.trajectory}
        # Decimated to twice a second, not every integration step.
        assert len(times) <= 41

    def test_positions_follow_the_fleet(self):
        runner = ScenarioRunner(builtin_script("s1"))
        start = runner.positions.tolist()
        runner.run_until(10.0)
        moved = runner.positions.tolist()
        assert moved == runner.fleet.positions().tolist()
        # Robots patrol their strips' bottom edges to the right.
        assert all(x > x0 for (x, _), (x0, _) in zip(moved, start))


def test_allocation_only_positions_stay_an_array():
    runner = ScenarioRunner(builtin_script("s3"))
    start = runner.positions.copy()
    runner.run_until(10.0)
    assert runner.positions.shape == (10, 2)
    np.testing.assert_array_equal(runner.positions, start)
    runner.apply_topology_edit(TopologyEdit(kind="add_robot", robot_id=11, position=(1.0, 2.0)))
    assert runner.positions.shape == (11, 2)
    np.testing.assert_array_equal(runner.positions[-1], (1.0, 2.0))


class RebuildingRunner(ScenarioRunner):
    """Reference: rebuilds the partition and reassigns every robot's region
    on every cycle, also when the shares have not moved, and so refreshes
    the velocities on every cycle too."""

    def _assign_regions(self):
        regions = partition_from_workload(self.workspace, self.sigma)
        for state, region in zip(self.robots, regions):
            assign_region(state, region)
        return True


class TestRegionsFollowShares:
    EDITS = {
        "none": [],
        "add_robot": [(100.0, TopologyEdit("add_robot", 4, (2,), (5.0, 5.0)))],
        "remove_robot": [(100.0, TopologyEdit("remove_robot", 3))],
    }

    @pytest.mark.parametrize("edits", sorted(EDITS))
    @pytest.mark.parametrize("name", ["s1", "s2"])
    def test_unchanged_shares_skip_region_assignment(self, tmp_path, monkeypatch, name, edits):
        changes = []

        def recording_change_regions(fleet, bounds):
            moved = change_regions(fleet, bounds)
            # The cycle being run is the one after the recorded rows.
            changes.append((len(runner.record.cycles), moved.nonzero()[0].tolist()))
            return moved

        data = builtin_script(name).to_dict()
        data["duration_s"] = 250.0
        data["events"] = [ev for ev in data["events"] if ev["time_s"] <= 250.0]
        data["record_trajectory"] = True
        records = {}
        for label, cls in (("rebuilding", RebuildingRunner), ("skipping", ScenarioRunner)):
            changes.clear()
            with monkeypatch.context() as patch:
                patch.setattr(mhmr.scenario, "change_regions", recording_change_regions)
                runner = cls(ScenarioScript.from_dict(data))
                for t, edit in self.EDITS[edits]:
                    runner.run_until(t)
                    runner.apply_topology_edit(edit)
                records[label] = runner.run().write(tmp_path / label)
        for file in ("cycles.csv", "laps.csv", "trajectory.csv", "summary.json"):
            skipping = (records["skipping"] / file).read_bytes()
            assert skipping == (records["rebuilding"] / file).read_bytes(), file
        # After set-up, the skipping runner changed regions once per cycle
        # whose shares differ from the cycle before, and each time exactly
        # the robots whose strip differs from the one they last entered.
        sigmas = [(1 / 3,) * 3] + [tuple(row.sigma.tolist()) for row in runner.record.cycles]
        assert changes == regions_entered(runner.workspace, sigmas)
        # The skip path: a cycle whose shares equal the cycle before's makes
        # no change_regions call.
        kept = [k for k, (a, b) in enumerate(zip(sigmas, sigmas[1:])) if a == b]
        assert kept and not {k for k, _ in changes} & set(kept)
        assert len(changes) < len(sigmas) // 2


def strip_bounds(workspace, sigma, m):
    """``(x, y, width, height)`` of each of ``m`` robots' strips of the shares
    ``sigma`` (a robot past its end has a zero share), ``None`` for none."""
    shares = np.array(sigma + (0.0,) * (m - len(sigma)))
    placed, x, width = strips(workspace, shares)
    bounds = [None] * m
    for i, left, w in zip(placed.tolist(), x.tolist(), width.tolist()):
        bounds[i] = (left, workspace.origin[1], w, workspace.height)
    return bounds


def regions_entered(workspace, sigmas):
    """``(cycle, robots)`` for each cycle whose shares differ from those of
    the cycle before (``sigmas[0]`` are the shares at set-up): the robots
    whose strip differs from the one they last entered.  A strip differs when
    it is gained or lost, or when a bound has moved by more than
    ``REGION_CHANGE_TOL``; an added robot enters with no strip."""
    entered = strip_bounds(workspace, sigmas[0], len(sigmas[0]))
    changes = []
    for cycle, (before, after) in enumerate(zip(sigmas, sigmas[1:])):
        if before == after:
            continue
        entered += [None] * (len(after) - len(entered))
        moved = []
        for i, new in enumerate(strip_bounds(workspace, after, len(after))):
            old = entered[i]
            if (old is None) != (new is None) or (
                old is not None and max(abs(a - b) for a, b in zip(old, new)) > REGION_CHANGE_TOL
            ):
                moved.append(i)
                entered[i] = new
        changes.append((cycle, moved))
    return changes


class RecomputingRunner(ScenarioRunner):
    """Reference: proposes an allocation and sets the velocities at every
    cycle, also when the snapshot and the regions are those of the cycle
    before."""

    def _allocation_cycle(self, t):
        self._proposed_of = self._step_v_of = None
        super()._allocation_cycle(t)


#: s1 with every robot failed from 100 s to 150 s: no agent is capable, so
#: each of those cycles raises ``NoCapableAgentError`` on the same snapshot.
INCAPABLE = {
    **builtin_script("s1").to_dict(),
    "name": "incapable",
    "duration_s": 250.0,
    "events": [
        step_event(time_s, f"robot:{rid}", "robot_condition", value)
        for time_s, value in ((100.0, 0.0), (150.0, 1.0))
        for rid in (1, 2, 3)
    ],
}


class TestKeptProposalAndVelocities:
    """A runner that keeps a snapshot's proposal and velocities writes the
    bytes of one that computes them at every cycle."""

    FILES = ("cycles.csv", "laps.csv", "summary.json", "trajectory.csv")

    def records(self, tmp_path, data, edits=()):
        """``(record, directory written)`` of the reference run, then of the
        runner's, with trajectories."""
        script = dataclasses.replace(ScenarioScript.from_dict(data), record_trajectory=True)
        records = []
        for cls in (RecomputingRunner, ScenarioRunner):
            runner = cls(script)
            for t, edit in edits:
                runner.run_until(t)
                runner.apply_topology_edit(edit)
            record = runner.run()
            records.append((record, record.write(tmp_path / cls.__name__)))
        return records

    def assert_same_bytes(self, records):
        (_, reference), (_, kept) = records
        for file in self.FILES:
            path = kept / file
            assert path.exists() == (reference / file).exists(), file
            if path.exists():
                assert path.read_bytes() == (reference / file).read_bytes(), file

    @pytest.mark.parametrize("name", BUILTIN_SCRIPT_NAMES)
    def test_builtin_scripts(self, tmp_path, name):
        self.assert_same_bytes(self.records(tmp_path, builtin_script(name).to_dict()))

    def test_s1_without_allocation(self, tmp_path):
        data = {**builtin_script("s1").to_dict(), "allocation_enabled": False}
        self.assert_same_bytes(self.records(tmp_path, data))

    @pytest.mark.parametrize("edits", ["add_robot", "remove_robot"])
    @pytest.mark.parametrize("name", ["s1", "s2"])
    def test_topology_edits(self, tmp_path, name, edits):
        data = builtin_script(name).to_dict()
        data["duration_s"] = 250.0
        data["events"] = [ev for ev in data["events"] if ev["time_s"] <= 250.0]
        self.assert_same_bytes(self.records(tmp_path, data, TestRegionsFollowShares.EDITS[edits]))

    def test_incapable_team(self, tmp_path):
        records = self.records(tmp_path, INCAPABLE)
        self.assert_same_bytes(records)
        _, (record, _) = records
        noted = [row.cycle for row in record.cycles if row.note]
        # Cycles 200 to 299 see the one snapshot of the failed team.
        assert noted == list(range(200, 300))
        assert record.summary["allocation_errors"] == 100


class TestDynamicTopology:
    def test_add_robot_transitions_to_uniform(self):
        # m=4 -> 5 keeps every stationary robot clear of the proposed strip
        # boundaries, so the transition is not frozen by q_f = 0.
        script = allocation_only_script(m=4, duration_s=60.0)
        runner = ScenarioRunner(script)
        runner.run_until(10.0)
        runner.apply_topology_edit(
            TopologyEdit(kind="add_robot", robot_id=5, position=(18.0, 2.5))
        )
        record = runner.run()
        final = record.summary["final_sigma"]
        assert len(final) == 5
        np.testing.assert_allclose(final, 0.2, atol=1e-3)

    def test_remove_robot_reallocates_to_survivors(self):
        script = allocation_only_script(m=3, duration_s=120.0)
        runner = ScenarioRunner(script)
        runner.run_until(10.0)
        runner.apply_topology_edit(TopologyEdit(kind="remove_robot", robot_id=2))
        record = runner.run()
        final = record.summary["final_sigma"]
        assert final[1] == 0.0
        assert final[0] == pytest.approx(0.5, abs=1e-6)
        assert final[2] == pytest.approx(0.5, abs=1e-6)

    def test_disconnect_and_reconnect_operator(self):
        script = ScenarioScript.from_dict(
            {
                "name": "edge",
                "topology": {"m": 2, "h": 1, "edges": [[1, 1]]},
                "workspace": {"origin": [0.0, 0.0], "width": 20.0, "height": 5.0},
                "params": {"K": 5.0, "tau": 0.5},
                "placement": "center",
                "mode": "allocation-only",
                "duration_s": 90.0,
                "events": [],
            }
        )
        runner = ScenarioRunner(script)
        runner.run_until(5.0)
        runner.apply_topology_edit(
            TopologyEdit(kind="remove_edge", robot_id=1, operator_ids=(1,))
        )
        runner.run_until(40.0)
        # Disconnected teleoperation is a failure: the share drains away.
        assert runner.sigma.shares[0] < 1e-6
        runner.apply_topology_edit(
            TopologyEdit(kind="add_edge", robot_id=1, operator_ids=(1,))
        )
        record = runner.run()
        final = record.summary["final_sigma"]
        np.testing.assert_allclose(final, 0.5, atol=1e-3)

    def test_operator_gained_then_lost_disconnects(self):
        runner = ScenarioRunner(allocation_only_script(m=3))
        runner.apply_topology_edit(TopologyEdit("add_edge", 2, operator_ids=(9,)))
        assert runner.topology.operators_of(2) == (9,)
        assert runner.disconnected == set()
        # Robot 2 was autonomous at the start; losing the operator it gained
        # is still a failure, not a return to autonomy.
        runner.apply_topology_edit(TopologyEdit("remove_edge", 2, operator_ids=(9,)))
        assert runner.topology.operators_of(2) == ()
        assert runner.disconnected == {2}
        assert runner.snapshot_at(0.0).robot_condition[2] == 0.0
        runner.apply_topology_edit(TopologyEdit("add_edge", 2, operator_ids=(9,)))
        assert runner.disconnected == set()

    def test_remove_robot_adds_no_operator(self):
        runner = ScenarioRunner(allocation_only_script(m=3))
        team = runner.topology
        edit = TopologyEdit("remove_robot", 3, operator_ids=(9,))
        assert runner.apply_topology_edit(edit) is team
        assert runner.forced_failed == {3}
        assert runner.disconnected == set()
        assert team.operator_ids == () and team.operators_of(3) == ()

    def test_add_existing_robot_rejected(self):
        runner = ScenarioRunner(allocation_only_script(m=3))
        with pytest.raises(ConfigurationError):
            runner.apply_topology_edit(TopologyEdit(kind="add_robot", robot_id=2))

    def test_remove_missing_edge_rejected(self):
        runner = ScenarioRunner(allocation_only_script(m=3))
        with pytest.raises(ConfigurationError):
            runner.apply_topology_edit(
                TopologyEdit(kind="remove_edge", robot_id=1, operator_ids=(7,))
            )

    @pytest.mark.parametrize("kind", ["add_edge", "remove_edge", "remove_robot"])
    @pytest.mark.parametrize("operator_ids", [(), (3,)])
    def test_edit_of_an_unknown_robot_rejected(self, kind, operator_ids):
        runner = ScenarioRunner(builtin_script("s3"))
        runner.run_until(1.0)
        team, snapshot = runner.topology, runner.snapshot_at(1.0)
        with pytest.raises(ConfigurationError, match="^robot 42 does not exist$"):
            runner.apply_topology_edit(TopologyEdit(kind, 42, operator_ids))
        # The team and the kept snapshot are left as they were.
        assert runner.topology is team and runner.snapshot_at(1.0) is snapshot

    @pytest.mark.parametrize(
        "edit",
        [
            dict(kind="add_robot", robot_id=11.5),
            dict(kind="add_robot", robot_id=True),
            dict(kind="remove_robot", robot_id="3"),
            dict(kind="add_edge", robot_id=1, operator_ids=(1.7,)),
            dict(kind="add_edge", robot_id=1, operator_ids=(False,)),
            dict(kind="remove_edge", robot_id=1, operator_ids=1),
        ],
        ids=["fractional_robot", "bool_robot", "text_robot", "fractional_operator",
             "bool_operator", "bare_operator"],
    )
    def test_edit_ids_must_be_integers(self, edit):
        with pytest.raises(ConfigurationError, match="integer robot and operator ids"):
            TopologyEdit(**edit)

    @pytest.mark.parametrize(
        "position",
        [(math.nan, 1.0), (1.0, math.inf), (1.0,), (1.0, 2.0, 3.0), ("1", 2.0), (True, 2.0), 5],
    )
    def test_edit_position_must_be_a_finite_point(self, position):
        with pytest.raises(ConfigurationError, match="position of two finite numbers"):
            TopologyEdit(kind="add_robot", robot_id=11, position=position)

    def test_valid_edits_build(self):
        assert TopologyEdit("add_robot", 11, [1, 2], [1, 2.5]).position == [1, 2.5]
        assert TopologyEdit("remove_robot", 3).position is None


class TestTimelines:
    @pytest.mark.parametrize("value", [1.5, -0.25, float("nan")])
    def test_condition_outside_unit_interval_is_rejected(self, monkeypatch, value):
        script = allocation_only_script(
            m=3, events=[step_event(0.0, "robot:2", "performance", 0.5)]
        )
        runner = ScenarioRunner(script)
        ((*_, timeline),) = runner._timelines
        monkeypatch.setattr(timeline, "at", lambda t: (value, math.inf))
        with pytest.raises(MetricDomainError, match="robot 2 performance"):
            runner.snapshot_at(0.0)

    def test_ramp_profile_interpolates(self):
        script = allocation_only_script(
            duration_s=40.0,
            events=[
                step_event(0.0, "robot:1", "robot_condition", 0.4),
                {
                    "time_s": 10.0,
                    "target": "robot:1",
                    "metric": "robot_condition",
                    "profile": {"type": "ramp", "value": 1.0, "duration": 20.0},
                },
            ],
        )
        runner = ScenarioRunner(script)
        assert runner.snapshot_at(5.0).robot_condition[1] == pytest.approx(0.4)
        assert runner.snapshot_at(20.0).robot_condition[1] == pytest.approx(0.7)
        assert runner.snapshot_at(35.0).robot_condition[1] == pytest.approx(1.0)

    def test_stress_trace_event_drives_operator(self, tmp_path):
        trace = tmp_path / "op.csv"
        rows = ["time_s,stress"] + [f"{i},{1 if i < 30 else 0}" for i in range(60)]
        trace.write_text("\n".join(rows) + "\n")
        script = ScenarioScript.from_dict(
            {
                "name": "stress",
                "topology": {"m": 2, "h": 1, "edges": [[1, 1]]},
                "workspace": {"origin": [0.0, 0.0], "width": 20.0, "height": 5.0},
                "params": {"K": 5.0, "tau": 0.5, "window": 30},
                "placement": "center",
                "mode": "allocation-only",
                "duration_s": 60.0,
                "events": [
                    {
                        "time_s": 0.0,
                        "target": "operator:1",
                        "metric": "operator_condition",
                        "profile": {"type": "stress_trace", "path": "op.csv"},
                    }
                ],
            }
        )
        runner = ScenarioRunner(script, base_dir=tmp_path)
        assert runner.snapshot_at(29.0).operator_condition[1] == 0.0
        assert runner.snapshot_at(59.0).operator_condition[1] == 1.0


class TestSweeps:
    def test_singleton_sweep_matches_run(self):
        base = builtin_script("s3")
        [record] = [run_scenario(s) for s in sweep_scripts(base, "K", [5.0])]
        direct = run_scenario(base)
        assert record.summary["final_sigma"] == direct.summary["final_sigma"]
        assert record.summary["convergence_time_s"] == direct.summary["convergence_time_s"]

    def test_k_sweep_names_and_params(self):
        scripts = sweep_scripts(builtin_script("s3"), "K", [1.0, 5.0])
        assert [s.params.K for s in scripts] == [1.0, 5.0]
        assert len({s.name for s in scripts}) == 2

    def test_m_sweep_scales_team(self):
        scripts = sweep_scripts(builtin_script("s3"), "m", [10, 20, 20.0])
        assert [s.team.m for s in scripts] == [10, 20, 20]
        assert [s.name for s in scripts] == ["s3_m10", "s3_m20", "s3_m20"]
        # s3's events name operator 5, which a team of 4 does not have.
        with pytest.raises(ConfigurationError, match="nonexistent operator 5"):
            sweep_scripts(builtin_script("s3"), "m", [10, 4])

    @pytest.mark.parametrize("value", [8.7, 0, -1.0, 0.5, math.nan, math.inf, True, "20"])
    def test_m_sweep_rejects_non_whole_values(self, value):
        with pytest.raises(ConfigurationError, match="whole number"):
            sweep_scripts(builtin_script("s3"), "m", [value])

    def test_m_sweep_rejects_explicit_edges(self):
        with pytest.raises(ConfigurationError):
            sweep_scripts(builtin_script("s1"), "m", [4])

    def test_unknown_axis(self):
        with pytest.raises(ConfigurationError):
            sweep_scripts(builtin_script("s3"), "tau", [1.0])

    def test_summary_rows(self):
        scripts = sweep_scripts(builtin_script("s3"), "K", [1.0, 5.0])
        assert [s.params.K for s in scripts] == [1.0, 5.0]
        summaries = [run_scenario(s).summary for s in scripts]
        assert [s["name"] for s in summaries] == ["s3_K1", "s3_K5"]
        assert all(s["converged"] for s in summaries)
        # Larger K converges faster on the same disturbance.
        assert summaries[1]["convergence_time_s"] < summaries[0]["convergence_time_s"]


class TestRunRecordFiles:
    def test_written_files_parse(self, tmp_path):
        record = run_scenario(builtin_script("s4"))
        out = record.write(tmp_path / "out")
        header = (out / "cycles.csv").read_text().splitlines()[0].split(",")
        assert "sigma_r3" in header and "q_f" in header and "K_e" in header
        summary = json.loads((out / "summary.json").read_text())
        assert summary["final_sigma"][2] == 0.0
        assert summary["m"] == 10

    def test_written_bytes_of_a_hand_built_record(self, tmp_path):
        # The first row is from before robot 2 joined: its robot 2 cells are nan.
        record = RunRecord(robot_ids=(1, 2))
        record.cycles = [
            CycleRow(0, 0.0, (1.0,), (1.0,), math.nan, 0.0, (1.0,), (0.0,), 0.0),
            CycleRow(
                1, 0.5, (0.5, -0.0), (math.nan, 0.1 + 0.2), math.inf, -math.inf,
                (5e-324, 1e16), (2.0, -1.5e-7), 1.0, note='no agent: a, "b"',
            ),
            CycleRow(2, 1.0, (0.5, 0.5), (0.5, 0.5), 0.25, 1.0, (1.0, 1.0), (0.8, 0.8), 1e-300),
        ]
        record.laps = [LapRow(1, 0, 65.25, True), LapRow(2, 3, 1e-7, False)]
        record.trajectory = [
            TrajectoryRow(0.5, 1, -0.0, 12.0, math.nan),
            TrajectoryRow(1.0, 2, 1 / 3, -math.inf, 0.8),
        ]
        record.summary = {"name": "x", "max_t_l": None, "final_sigma": [0.5, 0.5]}
        out = record.write(tmp_path / "out")
        assert (out / "cycles.csv").read_text() == (
            "cycle,time_s,sigma_r1,sigma_r2,sigma_prop_r1,sigma_prop_r2,q_f,K_e,"
            "kappa_r1,kappa_r2,v_r1,v_r2,transition_error,note\n"
            "0,0,1,nan,1,nan,nan,0,1,nan,0,nan,0,\n"
            '1,0.5,0.5,-0,nan,0.3,inf,-inf,4.94065645841e-324,1e+16,2,-1.5e-07,1,'
            '"no agent: a, ""b"""\n'
            "2,1,0.5,0.5,0.5,0.5,0.25,1,1,1,0.8,0.8,1e-300,\n"
        )
        assert (out / "laps.csv").read_text() == (
            "robot,lap,lap_time_s,transitional\n1,0,65.25,1\n2,3,1e-07,0\n"
        )
        assert (out / "trajectory.csv").read_text() == (
            "time_s,robot,x,y,v\n0.5,1,-0,12,nan\n1,2,0.333333333333,-inf,0.8\n"
        )
        assert (out / "summary.json").read_text() == (
            '{\n  "final_sigma": [\n    0.5,\n    0.5\n  ],\n'
            '  "max_t_l": null,\n  "name": "x"\n}\n'
        )

    def test_rows_from_before_an_added_robot_are_padded(self, tmp_path):
        runner = ScenarioRunner(builtin_script("s3"))
        runner.run_until(10.0)
        runner.apply_topology_edit(TopologyEdit("add_robot", 11))
        record = runner.run()
        with open(record.write(tmp_path / "out") / "cycles.csv", newline="") as fh:
            header, *rows = csv.reader(fh)
        assert len(header) == 50 and {len(row) for row in rows} == {50}
        # Robot 11's four cells are nan up to the edit, and numbers from then on.
        columns = [i for i, name in enumerate(header) if name.endswith("_r11")]
        before = [row for row in rows if float(row[1]) <= 10.0]
        assert len(before) == 21
        assert all(row[i] == "nan" for row in before for i in columns)
        assert all(row[i] != "nan" for row in rows[21:] for i in columns)

    @settings(max_examples=50, deadline=None)
    @given(m=st.integers(1, 3), data=st.data())
    def test_every_cell_is_format_12g(self, tmp_path_factory, m, data):
        floats = st.floats(allow_nan=True, allow_infinity=True)

        def x():
            return data.draw(floats)

        def xs():
            return tuple(x() for _ in range(m))

        row = CycleRow(7, x(), xs(), xs(), x(), x(), xs(), xs(), x())
        lap = LapRow(2, 1, x(), False)
        tr = TrajectoryRow(x(), 3, x(), x(), x())
        record = RunRecord(robot_ids=tuple(range(1, m + 1)))
        record.cycles, record.laps, record.trajectory = [row], [lap], [tr]
        out = record.write(tmp_path_factory.mktemp("cells"))

        def body(name):
            with open(out / name, newline="") as fh:
                return list(csv.reader(fh))[1:]

        def g(value):
            return format(float(value), ".12g")

        assert body("cycles.csv") == [
            ["7", g(row.time_s), *map(g, row.sigma), *map(g, row.sigma_proposed), g(row.q_f)]
            + [g(row.K_e), *map(g, row.kappa), *map(g, row.v), g(row.transition_error), ""]
        ]
        assert body("laps.csv") == [["2", "1", g(lap.lap_time_s), "0"]]
        assert body("trajectory.csv") == [[g(tr.time_s), "3", g(tr.x), g(tr.y), g(tr.v)]]

    @pytest.mark.parametrize(
        "name, edit",
        [("s1", None), ("s3", None), ("s1", TopologyEdit("add_robot", 4, (2,), (5.0, 5.0))),
         ("s3", TopologyEdit("add_robot", 11))],
        ids=["full-sim", "allocation-only", "full-sim-add_robot", "allocation-only-add_robot"],
    )
    def test_rows_keep_the_cycles_read_only_arrays(self, name, edit):
        runner = ScenarioRunner(builtin_script(name))
        runner.run_until(10.0)
        if edit is not None:
            runner.apply_topology_edit(edit)
            # The proposed shares a row may keep if the next cycle proposes none.
            assert not runner.sigma_proposed.flags.writeable
            runner.run_until(10.5)
        row = runner.record.cycles[-1]
        assert row.sigma is runner.sigma.shares
        assert row.sigma_proposed is runner.sigma_proposed
        assert row.kappa is runner.snapshot_at(row.time_s).columns(runner.topology).kappa
        assert len(row.v) == runner.topology.m
        for values in (row.sigma, row.sigma_proposed, row.kappa, row.v):
            with pytest.raises(ValueError, match="read-only"):
                values[0] = 0.5

    def test_write_without_trajectory_removes_an_earlier_one(self, tmp_path):
        record = RunRecord(robot_ids=(1,))
        record.trajectory = [TrajectoryRow(0.0, 1, 0.0, 0.0, 0.0)]
        out = record.write(tmp_path / "out")
        assert (out / "trajectory.csv").exists()
        record.trajectory = []
        record.write(out)
        assert sorted(f.name for f in out.iterdir()) == ["cycles.csv", "laps.csv", "summary.json"]

    def test_s1_trajectory_bytes_pinned(self, tmp_path):
        script = dataclasses.replace(builtin_script("s1"), record_trajectory=True)
        out = run_scenario(script).write(tmp_path / "out")
        digest = hashlib.sha256((out / "trajectory.csv").read_bytes()).hexdigest()
        assert digest == "2156dd8ba2a8008934f80ea8ca7ba5852685bbf4aa309d97caacfc48b5a49a8d"

    def test_note_is_one_csv_field(self, tmp_path):
        data = builtin_script("s3").to_dict()
        data["duration_s"] = 3.0
        data["events"] = [
            step_event(1.0, f"robot:{r}", "robot_condition", 0.0) for r in range(1, 11)
        ]
        record = run_scenario(ScenarioScript.from_dict(data))
        notes = [row.note for row in record.cycles if row.note]
        assert len(notes) == 5 and "," in notes[0]
        with open(record.write(tmp_path / "out") / "cycles.csv", newline="") as fh:
            header, *rows = csv.reader(fh)
        assert {len(row) for row in rows} == {len(header)} == {46}
        assert [row[-1] for row in rows if row[-1]] == notes
