import contextlib
import csv
import io
import json
import re
import urllib.parse

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from mhmr import cli
from mhmr.cli import main
from mhmr.errors import MhmrError
from mhmr.scenario import ScenarioScript, builtin_script, run_scenario, sweep_scripts


@pytest.fixture
def s3_script(tmp_path):
    path = tmp_path / "s3.json"
    builtin_script("s3").to_json(path)
    return path


def out_lines(capsys):
    return dict(
        line.split("=", 1) for line in capsys.readouterr().out.splitlines() if "=" in line
    )


class TestValidate:
    def test_valid_script(self, s3_script, capsys):
        assert main(["validate", "--script", str(s3_script)]) == 0
        assert out_lines(capsys)["valid"] == "true"

    def test_missing_file(self, tmp_path, capsys):
        assert main(["validate", "--script", str(tmp_path / "nope.json")]) == 1

    def test_malformed_script(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps({"name": "x"}))
        assert main(["validate", "--script", str(bad)]) == 1

    def test_bad_event_target(self, tmp_path, capsys):
        data = builtin_script("s3").to_dict()
        data["events"][0]["target"] = "robot:42"
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(data))
        assert main(["validate", "--script", str(bad)]) == 1

    @pytest.mark.parametrize(
        "edit, text",
        [
            (None, "[]"),
            (None, '{"name": '),
            (None, b"\xff{}"),
            ({"workspace": [20, 5]}, None),
            ({"workspace": None}, None),
            ({"schema_version": 1.9}, None),
            ({"schema_version": "1"}, None),
            ({"schema_version": True}, None),
            ({"schema_version": 1.0}, None),
        ],
        ids=[
            "list", "broken_json", "not_utf8", "workspace_list", "workspace_null",
            "version_fraction", "version_text", "version_bool", "version_float",
        ],
    )
    def test_malformed_file_is_an_error_line(self, tmp_path, capsys, edit, text):
        bad = tmp_path / "bad.json"
        if edit is not None:
            bad.write_text(json.dumps({**builtin_script("s3").to_dict(), **edit}))
        elif isinstance(text, bytes):
            bad.write_bytes(text)
        else:
            bad.write_text(text)
        assert main(["validate", "--script", str(bad)]) == 1
        captured = capsys.readouterr()
        assert captured.err.startswith("error: ")
        assert "valid=true" not in captured.out


class TestRun:
    def test_run_writes_outputs(self, s3_script, tmp_path, capsys):
        out = tmp_path / "out"
        assert main(["run", "--script", str(s3_script), "--out", str(out)]) == 0
        assert (out / "cycles.csv").exists()
        assert (out / "laps.csv").exists()
        assert (out / "summary.json").exists()
        lines = out_lines(capsys)
        assert lines["converged"] == "true"
        assert lines["m"] == "10"

    def test_default_out_respects_env(self, s3_script, tmp_path, capsys, monkeypatch):
        monkeypatch.setenv("MHMR_OUTPUT_ROOT", str(tmp_path / "root"))
        assert main(["run", "--script", str(s3_script)]) == 0
        assert (tmp_path / "root" / "s3" / "summary.json").exists()

    def test_override_equals_edited_script(self, s3_script, tmp_path, capsys):
        out = tmp_path / "a"
        assert (
            main(
                [
                    "run",
                    "--script",
                    str(s3_script),
                    "--override",
                    "params.K=1.0",
                    "--out",
                    str(out),
                ]
            )
            == 0
        )
        edited = builtin_script("s3").to_dict()
        edited["params"]["K"] = 1.0
        record = run_scenario(ScenarioScript.from_dict(edited))
        written = json.loads((out / "summary.json").read_text())
        assert written["final_sigma"] == record.summary["final_sigma"]
        assert written["convergence_time_s"] == record.summary["convergence_time_s"]

    def test_unknown_override_field(self, s3_script, capsys):
        assert main(["run", "--script", str(s3_script), "--override", "params.zeta=1"]) == 1

    def test_malformed_override(self, s3_script, capsys):
        assert main(["run", "--script", str(s3_script), "--override", "params.K"]) == 1


def write_script(tmp_path, data, name="script.json"):
    path = tmp_path / name
    path.write_text(json.dumps(data))
    return path


class TestParamsCheckedAtLoad:
    @pytest.mark.parametrize(
        "params, name",
        [({"K": 0}, "K"), ({"tau": 0.01, "sim_dt": 0.05}, "tau"), ({"window": 2.5}, "window")],
    )
    def test_validate_rejects_bad_params(self, tmp_path, capsys, params, name):
        data = builtin_script("s3").to_dict()
        data["params"].update(params)
        path = write_script(tmp_path, data)
        assert main(["validate", "--script", str(path)]) == 1
        captured = capsys.readouterr()
        assert "valid=true" not in captured.out
        assert captured.err.startswith(f"error: params.{name} ")

    def test_removed_param_override_rejected(self, s3_script, capsys):
        assert main(["run", "--script", str(s3_script), "--override", "params.psi=0.2"]) == 1
        assert "params.psi" in capsys.readouterr().err

    def test_stress_trace_run_with_fractional_window(self, tmp_path, capsys):
        rows = ["time_s,stress"] + [f"{i},{i % 2}" for i in range(60)]
        (tmp_path / "op.csv").write_text("\n".join(rows) + "\n")
        data = {
            "name": "stress",
            "topology": {"m": 2, "h": 1, "edges": [[1, 1]]},
            "workspace": {"origin": [0.0, 0.0], "width": 20.0, "height": 5.0},
            "params": {"K": 5.0, "tau": 0.5, "window": 2.5},
            "mode": "allocation-only",
            "duration_s": 10.0,
            "events": [
                {
                    "time_s": 0.0,
                    "target": "operator:1",
                    "metric": "operator_condition",
                    "profile": {"type": "stress_trace", "path": "op.csv"},
                }
            ],
        }
        path = write_script(tmp_path, data)
        assert main(["run", "--script", str(path), "--out", str(tmp_path / "out")]) == 1
        assert capsys.readouterr().err.startswith("error: params.window ")
        assert not (tmp_path / "out").exists()


def stress_trace_script(trace_name):
    return {
        "name": "stress",
        "topology": {"m": 2, "h": 1, "edges": [[1, 1]]},
        "workspace": {"origin": [0.0, 0.0], "width": 20.0, "height": 5.0},
        "params": {"K": 5.0, "tau": 0.5},
        "mode": "allocation-only",
        "duration_s": 10.0,
        "events": [
            {
                "time_s": 0.0,
                "target": "operator:1",
                "metric": "operator_condition",
                "profile": {"type": "stress_trace", "path": trace_name},
            }
        ],
    }


class TestScriptCheckedAtLoad:
    @pytest.mark.parametrize(
        "name, edit",
        [
            ("s1", lambda d: d["events"][-1]["profile"].update(duration=float("nan"))),
            ("s1", lambda d: d["events"][-1]["profile"].update(duration=float("inf"))),
            ("s3", lambda d: d.update(duration_s=0.01)),
        ],
        ids=["ramp_nan_duration", "ramp_inf_duration", "duration_below_sim_dt"],
    )
    def test_validate_rejects(self, tmp_path, capsys, name, edit):
        data = builtin_script(name).to_dict()
        edit(data)
        path = write_script(tmp_path, data)
        assert main(["validate", "--script", str(path)]) == 1
        captured = capsys.readouterr()
        assert "valid=true" not in captured.out
        assert captured.err.startswith("error: ")

    @pytest.mark.parametrize(
        "key, value",
        [
            ("duration_s", "120"),
            ("duration_s", True),
            ("workspace.width", "20"),
            ("workspace.origin", [0, "0"]),
        ],
    )
    def test_validate_rejects_text_or_bool_numbers(self, tmp_path, capsys, key, value):
        data = builtin_script("s3").to_dict()
        section, _, leaf = key.rpartition(".")
        (data[section] if section else data)[leaf] = value
        assert main(["validate", "--script", str(write_script(tmp_path, data))]) == 1
        captured = capsys.readouterr()
        assert "valid=true" not in captured.out
        assert captured.err.startswith(f"error: {key} must be")

    @pytest.mark.parametrize("command", ["validate", "run"])
    @pytest.mark.parametrize(
        "content",
        [
            None,
            "time,level\n0,1\n",
            "time_s,stress\nsoon,1\n",
            "time_s,stress\n0\n",
            'time_s,stress\n0,"' + "1" * 200_000 + '"\n',
            "time_s,stress\n0,0\n1,1\n3,0\n",
        ],
        ids=["missing", "bad_header", "bad_time", "short_row", "oversized_field", "uneven_period"],
    )
    def test_bad_trace_file(self, tmp_path, capsys, command, content):
        if content is not None:
            (tmp_path / "op.csv").write_text(content)
        path = write_script(tmp_path, stress_trace_script("op.csv"))
        argv = [command, "--script", str(path)]
        if command == "run":
            argv += ["--out", str(tmp_path / "out")]
        assert main(argv) == 1
        captured = capsys.readouterr()
        assert "valid=true" not in captured.out
        assert captured.err.startswith("error: stress_trace for operator 1 ")
        # The file is named once, whether or not the loader's message names it.
        assert captured.err.count("op.csv") == 1
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize(
        "rows",
        ["0,low\nnan,high\n2,medium\n", "-inf,1\n", "0,0\nnan,1\n1,0\n"],
        ids=["nan_level", "inf_binary", "nan_binary"],
    )
    def test_validate_rejects_non_finite_trace_time(self, tmp_path, capsys, rows):
        # A NaN sample time passed the strictly-increasing check and made the
        # timeline's bound NaN, so robot 3 kept its first level for the run.
        (tmp_path / "health.csv").write_text("time_s,stress\n" + rows)
        data = builtin_script("s3").to_dict()
        data["events"].append(
            {"time_s": 0.0, "target": "robot:3", "metric": "robot_condition",
             "profile": {"type": "trace", "path": "health.csv"}}
        )
        assert main(["validate", "--script", str(write_script(tmp_path, data))]) == 1
        captured = capsys.readouterr()
        assert "valid=true" not in captured.out
        assert captured.err.startswith("error: trace for robot 3 ")
        assert "timestamps must be finite" in captured.err

    @pytest.mark.parametrize("command", ["validate", "run"])
    def test_infeasible_safety_gap(self, tmp_path, capsys, command):
        # Allocation-only with explicit placement builds no partition at load,
        # so only the check on the script catches the 2 gaps of 0.6 m in 1 m.
        data = builtin_script("s3").to_dict()
        data.update(
            topology={"m": 3, "pattern": "none"},
            workspace={"origin": [0.0, 0.0], "width": 1.0, "height": 5.0, "safety_gap": 0.6},
            placement=[[0.1, 1.0], [0.5, 1.0], [0.9, 1.0]],
            events=[],
        )
        path = write_script(tmp_path, data)
        argv = [command, "--script", str(path)]
        if command == "run":
            argv += ["--out", str(tmp_path / "out")]
        assert main(argv) == 1
        captured = capsys.readouterr()
        assert "valid=true" not in captured.out
        assert captured.err.startswith("error: workspace.safety_gap = 0.6 ")
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize(
        "point",
        [[6.0, 2.0, 1.0], [6.0], [6.0, "a"], [6.0, float("nan")], [True, 2.0], 6.0],
        ids=["three_coordinates", "one_coordinate", "text", "nan", "bool", "number"],
    )
    def test_validate_rejects_bad_placement(self, tmp_path, capsys, point):
        data = builtin_script("s3").to_dict()
        data.update(topology={"m": 3, "pattern": "none"}, events=[])
        data["placement"] = [[1.0, 2.0], [4.0, 2.0], point]
        path = write_script(tmp_path, data)
        assert main(["validate", "--script", str(path)]) == 1
        captured = capsys.readouterr()
        assert captured.err.startswith("error: placement entry ")

    def test_validate_accepts_good_trace_file(self, tmp_path, capsys):
        rows = ["time_s,stress"] + [f"{i},{i % 2}" for i in range(20)]
        (tmp_path / "op.csv").write_text("\n".join(rows) + "\n")
        path = write_script(tmp_path, stress_trace_script("op.csv"))
        assert main(["validate", "--script", str(path)]) == 0
        assert out_lines(capsys)["valid"] == "true"

    @pytest.mark.parametrize("command", ["validate", "run"])
    @pytest.mark.parametrize(
        "profile",
        [{"type": "stress_trace"}, {"type": "trace", "path": 5}, {"type": "trace", "path": ""}],
        ids=["no_path", "number_path", "empty_path"],
    )
    def test_trace_profile_without_path(self, tmp_path, capsys, command, profile):
        data = stress_trace_script("op.csv")
        data["events"][0]["profile"] = profile
        path = write_script(tmp_path, data)
        argv = [command, "--script", str(path)]
        if command == "run":
            argv += ["--out", str(tmp_path / "out")]
        assert main(argv) == 1
        captured = capsys.readouterr()
        assert "valid=true" not in captured.out
        assert captured.err.startswith(f"error: {profile['type']} for operator 1 ")
        assert not (tmp_path / "out").exists()

    # One misspelled key per section: each used to load with the default.
    @pytest.mark.parametrize(
        "section, key, value",
        [
            ((), "mdoe", "allocation-only"),
            (("workspace",), "safetygap", 0.5),
            (("params",), "sim_td", 0.1),
            (("topology",), "patern", "none"),
            (("events", 0), "profle", {"type": "step", "value": 0.5}),
        ],
        ids=["script", "workspace", "params", "topology", "event"],
    )
    def test_validate_rejects_unknown_key(self, tmp_path, capsys, section, key, value):
        data = builtin_script("s3").to_dict()
        node = data
        for part in section:
            node = node[part]
        node[key] = value
        assert main(["validate", "--script", str(write_script(tmp_path, data))]) == 1
        captured = capsys.readouterr()
        assert "valid=true" not in captured.out
        assert captured.err.startswith("error: ") and f"'{key}'" in captured.err

    @pytest.mark.parametrize("command", ["validate", "run"])
    @pytest.mark.parametrize(
        "topology, key",
        [
            ({"m": "abc"}, "m"),
            ({"m": 2.7}, "m"),
            ({"m": True}, "m"),
            ({"m": 0}, "m"),
            ({"pattern": "none"}, "m"),
            ({"m": 2, "h": -1, "edges": []}, "h"),
            ({"m": 2, "h": 1.0, "edges": []}, "h"),
            ({"m": 2, "h": 1, "edges": [[1]]}, "edges"),
            ({"m": 2, "h": 1, "edges": [[1, 1.5]]}, "edges"),
            ({"m": 2, "h": 1, "edges": [[1, False]]}, "edges"),
            ({"m": 2, "edges": "11"}, "edges"),
        ],
    )
    def test_malformed_topology(self, tmp_path, capsys, command, topology, key):
        data = builtin_script("s3").to_dict()
        data.update(topology=topology, events=[])
        path = write_script(tmp_path, data)
        argv = [command, "--script", str(path)]
        if command == "run":
            argv += ["--out", str(tmp_path / "out")]
        assert main(argv) == 1
        captured = capsys.readouterr()
        assert "valid=true" not in captured.out
        assert captured.err.startswith(f"error: topology.{key} ")
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize(
        "edit, line",
        [
            (lambda d: d.update(params=None), "params must be a JSON object, not null"),
            (lambda d: d.update(workspace=[20, 5]), "workspace must be a JSON object, not array"),
            (lambda d: d["params"].update(kk=1), "unknown key 'kk' in params; "),
            (lambda d: d["workspace"].update(widht=1), "unknown key 'widht' in workspace; "),
            (lambda d: d.update(mdoe=1), "unknown key 'mdoe' in a scenario script; "),
            (lambda d: d.pop("workspace"), "missing key 'workspace' in a scenario script\n"),
            (lambda d: d.pop("duration_s"), "missing key 'duration_s' in a scenario script\n"),
            (lambda d: d["events"][0].pop("target"), "missing key 'target' in an event\n"),
            (lambda d: d.update(name=None), "name must be a JSON string, not null\n"),
            (lambda d: d["events"][0].update(target=3), "event target must be a JSON string, not number\n"),
            (lambda d: d["events"][0].update(metric=None), "event metric must be a JSON string, not null\n"),
        ],
        ids=[
            "params_null", "workspace_array", "params_key", "workspace_key", "script_key",
            "no_workspace", "no_duration", "no_target", "name_null", "target_number", "metric_null",
        ],
    )
    def test_a_wrongly_shaped_section_is_named_in_json_words(self, tmp_path, capsys, edit, line):
        data = builtin_script("s3").to_dict()
        edit(data)
        assert main(["validate", "--script", str(write_script(tmp_path, data))]) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: {line}")
        assert "__init__" not in err and "**" not in err

    def test_a_name_that_leaves_the_output_root_is_rejected(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setenv("MHMR_OUTPUT_ROOT", str(tmp_path / "root" / "runs"))
        data = {**builtin_script("s3").to_dict(), "name": "../escape"}
        assert main(["run", "--script", str(write_script(tmp_path, data))]) == 1
        assert capsys.readouterr().err.startswith("error: name '../escape' must be one directory name")
        assert not (tmp_path / "root").exists()


class TestFlagsCheckedAtLoad:
    @pytest.mark.parametrize("command", ["validate", "run"])
    @pytest.mark.parametrize("field", ["allocation_enabled", "record_trajectory"])
    def test_string_flag_in_script(self, tmp_path, capsys, command, field):
        data = builtin_script("s3").to_dict()
        data[field] = "false"
        argv = [command, "--script", str(write_script(tmp_path, data))]
        if command == "run":
            argv += ["--out", str(tmp_path / "out")]
        assert main(argv) == 1
        captured = capsys.readouterr()
        assert "valid=true" not in captured.out
        assert captured.err.startswith(f'error: {field} must be true or false, got "false"')
        assert not (tmp_path / "out").exists()

    def test_string_flag_override(self, s3_script, tmp_path, capsys):
        out = tmp_path / "out"
        argv = ["run", "--script", str(s3_script), "--out", str(out)]
        assert main(argv + ["--override", "allocation_enabled=False"]) == 1
        assert capsys.readouterr().err.startswith("error: allocation_enabled must be true or false")
        assert not out.exists()
        # JSON ``false`` is a bool, and turns allocation off.
        assert main(argv + ["--override", "allocation_enabled=false"]) == 0
        assert json.loads((out / "summary.json").read_text())["allocation_enabled"] is False


profile_fields = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(-2, 2),
    st.integers(10**308, 10**310),
    st.floats(allow_nan=True, allow_infinity=True),
    st.sampled_from(["0.5", "nan", "missing.csv"]),
    st.text(alphabet="ab.", max_size=4),
    st.lists(st.integers(0, 1), max_size=2),
)
profile_types = st.one_of(
    st.sampled_from(["step", "ramp", "trace", "stress_trace", "pulse"]), profile_fields
)


# Numbers written as JSON strings or bools, which a script must not pass off as numbers.
text_or_bool_numbers = st.one_of(st.booleans(), st.sampled_from(["0", "0.5", "1", "nan"]))


@settings(max_examples=200, deadline=None)
@given(
    profile=st.fixed_dictionaries(
        {},
        optional={
            "type": profile_types,
            "value": st.one_of(profile_fields, text_or_bool_numbers),
            "duration": st.one_of(profile_fields, text_or_bool_numbers),
            "path": profile_fields,
        },
    ),
    time_s=st.one_of(st.sampled_from([0.0, 0, 2.5]), text_or_bool_numbers),
)
@example(profile={"type": "stress_trace"}, time_s=0.0)
@example(profile={"type": "trace", "path": 5}, time_s=0.0)
@example(profile={"type": "step", "value": 10**309}, time_s=0.0)
@example(profile={"type": "ramp", "value": 0.5, "duration": float("nan")}, time_s=0.0)
@example(profile={"type": "step", "value": "0.5"}, time_s=0.0)
@example(profile={"type": "ramp", "value": True, "duration": 1.0}, time_s=0.0)
@example(profile={"type": "ramp", "value": 0.5, "duration": "1"}, time_s=0.0)
@example(profile={"type": "step", "value": 0.5}, time_s=True)
@example(profile={"type": "step", "value": 0.5}, time_s="0")
def test_validate_never_raises_on_fuzzed_profile(tmp_path_factory, profile, time_s):
    data = stress_trace_script("op.csv")
    data["events"][0].update(profile=profile, time_s=time_s)
    path = write_script(tmp_path_factory.mktemp("fuzz"), data)
    stderr = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(stderr):
        code = main(["validate", "--script", str(path)])
    assert code in (0, 1)
    if code == 1:
        assert stderr.getvalue().startswith("error: ")
    numbers = [time_s]
    if profile.get("type") in ("step", "ramp"):
        numbers.append(profile.get("value"))
    if profile.get("type") == "ramp":
        numbers.append(profile.get("duration"))
    if any(isinstance(n, (str, bool)) for n in numbers):
        assert code == 1


class TestSweep:
    def test_k_sweep_writes_summary(self, s3_script, tmp_path, capsys):
        out = tmp_path / "sweep"
        code = main(
            [
                "sweep",
                "--script",
                str(s3_script),
                "--axis",
                "K",
                "--values",
                "1,5",
                "--out",
                str(out),
            ]
        )
        assert code == 0
        rows = (out / "sweep_summary.csv").read_text().splitlines()
        assert rows[0].startswith("K,converged,convergence_time_s")
        assert len(rows) == 3
        k1 = rows[1].split(",")
        k5 = rows[2].split(",")
        assert float(k5[2]) < float(k1[2])  # larger K converges faster

    @pytest.mark.parametrize("jobs", ["1", "2"])
    def test_trace_path_relative_to_script(self, tmp_path, capsys, monkeypatch, jobs):
        # Run from the parent directory: trace paths resolve against the
        # script's directory, as for ``run`` and ``validate``.
        sub = tmp_path / "sub"
        sub.mkdir()
        rows = ["time_s,stress"] + [f"{i},{i % 2}" for i in range(20)]
        (sub / "op.csv").write_text("\n".join(rows) + "\n")
        path = write_script(sub, stress_trace_script("op.csv"))
        monkeypatch.chdir(tmp_path)
        argv = ["sweep", "--script", str(path.relative_to(tmp_path)), "--axis", "K",
                "--values", "1,5", "--out", "sweep", "--jobs", jobs]
        assert main(argv) == 0
        assert len((tmp_path / "sweep" / "sweep_summary.csv").read_text().splitlines()) == 3

    def test_jobs_never_exceed_scripts(self, s3_script, tmp_path, capsys, monkeypatch):
        # A process pool may start all ``max_workers`` processes up front.
        started = []
        mapped = []
        swept = []

        class InProcessPool:
            def __init__(self, max_workers):
                started.append(max_workers)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def map(self, fn, *iterables):
                mapped.append((fn, *map(list, iterables)))
                return map(fn, *mapped[-1][1:])

        def recorded_sweep_scripts(*args):
            swept.append(sweep_scripts(*args))
            return swept[-1]

        monkeypatch.setattr(cli.concurrent.futures, "ProcessPoolExecutor", InProcessPool)
        monkeypatch.setattr(cli, "sweep_scripts", recorded_sweep_scripts)
        argv = ["sweep", "--script", str(s3_script), "--axis", "K", "--values", "1,5"]
        assert main(argv + ["--out", str(tmp_path / "j64"), "--jobs", "64"]) == 0
        assert started == [2]
        # The workers run the checked scripts themselves, not a copy rebuilt
        # from their dictionaries.
        [(fn, scripts, base_dirs)] = mapped
        assert fn is run_scenario
        assert all(isinstance(s, ScenarioScript) for s in scripts)
        assert [id(s) for s in scripts] == [id(s) for s in swept[0]]
        assert base_dirs == [s3_script.parent] * 2
        assert main(argv + ["--out", str(tmp_path / "j1"), "--jobs", "1"]) == 0
        assert started == [2]
        summary = "sweep_summary.csv"
        assert (tmp_path / "j64" / summary).read_bytes() == (tmp_path / "j1" / summary).read_bytes()

    @pytest.mark.parametrize(
        "values, message",
        [
            # s3's events name operator 5, which a team of 4 does not have.
            ("20,4", "event targets nonexistent operator 5"),
            ("10,2001", "workspace.safety_gap = 0.01 is infeasible"),
        ],
    )
    def test_bad_variant_fails_before_any_run(
        self, s3_script, tmp_path, capsys, monkeypatch, values, message
    ):
        monkeypatch.setattr(cli, "run_scenario", lambda *args, **kwargs: pytest.fail("ran"))
        out = tmp_path / "sweep"
        argv = ["sweep", "--script", str(s3_script), "--axis", "m", "--values", values,
                "--out", str(out)]
        assert main(argv) == 1
        # The error names the variant at fault, the last value.
        variant = values.rpartition(",")[2]
        assert capsys.readouterr().err.startswith(f"error: sweep m = {variant}: {message}")
        assert not out.exists()

    def test_empty_values(self, s3_script, capsys):
        assert (
            main(["sweep", "--script", str(s3_script), "--axis", "K", "--values", ","]) == 1
        )
        assert capsys.readouterr().err == "error: sweep needs at least one value\n"

    def test_jobs_give_byte_identical_outputs(self, s3_script, tmp_path, capsys):
        # ``--jobs 2`` runs a real process pool.
        argv = ["sweep", "--script", str(s3_script), "--axis", "K", "--values", "1,5"]
        assert main(argv + ["--out", str(tmp_path / "j1"), "--jobs", "1"]) == 0
        assert main(argv + ["--out", str(tmp_path / "j2"), "--jobs", "2"]) == 0
        files = sorted(p.relative_to(tmp_path / "j1") for p in (tmp_path / "j1").rglob("*"))
        assert sorted(p.relative_to(tmp_path / "j2") for p in (tmp_path / "j2").rglob("*")) == files
        assert len([f for f in files if f.name == "cycles.csv"]) == 2
        for name in files:
            if (tmp_path / "j1" / name).is_file():
                assert (tmp_path / "j1" / name).read_bytes() == (tmp_path / "j2" / name).read_bytes()

    @pytest.mark.parametrize("jobs", ["0", "-5"])
    def test_jobs_below_one_fails_before_any_run(
        self, s3_script, tmp_path, capsys, monkeypatch, jobs
    ):
        monkeypatch.setattr(cli, "run_scenario", lambda *args, **kwargs: pytest.fail("ran"))
        out = tmp_path / "sweep"
        argv = ["sweep", "--script", str(s3_script), "--axis", "K", "--values", "1,5",
                "--out", str(out), "--jobs", jobs]
        assert main(argv) == 1
        assert capsys.readouterr().err == f"error: --jobs must be >= 1, got {jobs}\n"
        assert not out.exists()

    def test_values_naming_one_run_fail_before_any_run(
        self, s3_script, tmp_path, capsys, monkeypatch
    ):
        monkeypatch.setattr(cli, "run_scenario", lambda *args, **kwargs: pytest.fail("ran"))
        out = tmp_path / "sweep"
        argv = ["sweep", "--script", str(s3_script), "--axis", "K",
                "--values", "0.1,0.1000000000001", "--out", str(out)]
        assert main(argv) == 1
        assert capsys.readouterr().err == (
            "error: sweep K = 0.1 and 0.1000000000001 both name the run 's3_K0.1'\n"
        )
        assert not out.exists()

    @pytest.mark.parametrize(
        "axis, values, message",
        [
            ("m", "8.7", "m must be a whole number >= 1, got 8.7"),
            ("m", "10,0", "m must be a whole number >= 1, got 0.0"),
            ("m", "abc", "sweep value 'abc' is not a finite number"),
            ("m", "10, nan", "sweep value 'nan' is not a finite number"),
            ("m", "inf", "sweep value 'inf' is not a finite number"),
            ("K", "1e999", "sweep value '1e999' is not a finite number"),
        ],
    )
    def test_bad_values(self, s3_script, tmp_path, capsys, axis, values, message):
        out = tmp_path / "sweep"
        argv = ["sweep", "--script", str(s3_script), "--axis", axis, "--values", values,
                "--out", str(out)]
        assert main(argv) == 1
        assert capsys.readouterr().err == f"error: {message}\n"
        assert not out.exists()


class TestDemo:
    def test_s4_reports_exact_zero(self, capsys):
        assert main(["demo", "s4"]) == 0
        assert out_lines(capsys)["sigma_r3_zero"] == "PASS"

    def test_s3_reports_equilibrium(self, capsys):
        assert main(["demo", "s3"]) == 0
        assert out_lines(capsys)["equilibrium_match"] == "PASS"

    def test_demo_writes_out(self, tmp_path, capsys):
        out = tmp_path / "demo"
        assert main(["demo", "s3", "--out", str(out)]) == 0
        assert (out / "summary.json").exists()


class TestExitCodes:
    def test_usage_error(self, capsys):
        assert main([]) == 1
        assert main(["run"]) == 1

    def test_runtime_error_is_exit_two(self, monkeypatch, capsys):
        import mhmr.cli as cli

        def boom(*args, **kwargs):
            raise MhmrError("simulated runtime failure")

        monkeypatch.setattr(cli, "run_scenario", boom)
        assert main(["demo", "s3"]) == 2
        assert capsys.readouterr().err == "runtime error: simulated runtime failure\n"


# One stdout line: ``key=value`` fields separated by single spaces.
KEY_VALUE_LINE = re.compile(r"^\w+=\S*( \w+=\S*)*$")


class TestOutputGrammar:
    @pytest.mark.parametrize(
        "argv",
        [
            ["run", "--script", "{s3}", "--out", "{tmp}/run"],
            ["validate", "--script", "{s3}"],
            ["sweep", "--script", "{s3}", "--axis", "K", "--values", "1,5", "--out", "{tmp}/sweep"],
            *(["demo", name] for name in ("s1", "s2", "s3", "s4")),
            *(["demo", name, "--out", "{tmp}/demo"] for name in ("s1", "s2", "s3", "s4")),
            ["demo", "s4", "--out", "{tmp}/my out"],
        ],
        ids=lambda argv: "-".join(a for a in argv if not a.startswith(("-", "{"))),
    )
    def test_every_line_is_key_value_with_unique_keys(self, s3_script, tmp_path, capsys, argv):
        argv = [a.format(s3=s3_script, tmp=tmp_path) for a in argv]
        assert main(argv) == 0
        lines = capsys.readouterr().out.splitlines()
        assert lines
        assert [line for line in lines if not KEY_VALUE_LINE.match(line)] == []
        # A line of several fields is a row of the one table a command may
        # print (the sweep's per-value lines): its rows share their keys.
        fields = [tuple(f.partition("=")[0] for f in line.split(" ")) for line in lines]
        rows = {keys for keys in fields if len(keys) > 1}
        assert len(rows) <= 1
        keys = [keys[0] for keys in fields if len(keys) == 1] + [k for row in rows for k in row]
        assert len(keys) == len(set(keys)), keys

    @pytest.mark.parametrize(
        "name, encoded",
        [
            ("my out", "my%20out"),
            ("a\tb%20c", "a%09b%2520c"),
            ("no\u00a0break", "no%C2%A0break"),
            ("plain-name_1.0", "plain-name_1.0"),
        ],
    )
    def test_whitespace_and_percent_in_a_value_are_percent_encoded(
        self, tmp_path, capsys, name, encoded
    ):
        out = tmp_path / name
        assert main(["demo", "s4", "--out", str(out)]) == 0
        last = capsys.readouterr().out.splitlines()[-1]
        assert last == f"out={tmp_path}/{encoded}"
        assert urllib.parse.unquote(last.partition("=")[2]) == str(out)


@st.composite
def small_scripts(draw):
    """Valid scripts of 1 to 6 robots running at most 5 s, with step and
    ramp events on any agent metric."""
    m = draw(st.integers(1, 6))
    pattern = draw(st.sampled_from(["none", "alternating"]))
    duration_s = draw(st.floats(0.05, 5.0))
    metrics = [(f"robot:{r}", metric) for r in range(1, m + 1)
               for metric in ("robot_condition", "performance")]
    if pattern == "alternating":
        metrics += [(f"operator:{o}", "operator_condition") for o in range(1, m + 1, 2)]
    profiles = st.one_of(
        st.fixed_dictionaries({"type": st.just("step"), "value": st.floats(0.0, 1.0)}),
        st.fixed_dictionaries(
            {"type": st.just("ramp"), "value": st.floats(0.0, 1.0),
             "duration": st.floats(0.01, 10.0)}
        ),
    )
    events = draw(
        st.lists(
            st.builds(
                lambda time_s, agent, profile: {
                    "time_s": time_s, "target": agent[0], "metric": agent[1], "profile": profile
                },
                st.floats(0.0, duration_s),
                st.sampled_from(metrics),
                profiles,
            ),
            max_size=6,
        )
    )
    data = builtin_script("s3").to_dict()
    data.update(
        name="fuzz",
        topology={"m": m, "pattern": pattern},
        mode=draw(st.sampled_from(["full-sim", "allocation-only"])),
        placement=draw(st.sampled_from(["center", "left", "perimeter"])),
        duration_s=duration_s,
        events=events,
    )
    return data


@settings(max_examples=150, deadline=None)
@given(data=small_scripts(), trajectory=st.booleans())
def test_run_completes_and_writes_whole_rows(tmp_path_factory, data, trajectory):
    tmp = tmp_path_factory.mktemp("fuzz_run")
    out = tmp / "out"
    argv = ["run", "--script", str(write_script(tmp, data)), "--out", str(out)]
    stderr = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(stderr):
        code = main(argv + ["--trajectory"] * trajectory)
    assert (code, stderr.getvalue()) == (0, "")
    files = sorted(out.glob("*.csv"))
    assert {f.name for f in files} >= {"cycles.csv", "laps.csv"}
    for path in files:
        with open(path, newline="") as fh:
            header, *rows = csv.reader(fh)
        assert [len(row) for row in rows] == [len(header)] * len(rows), path.name
