"""CLI argument hardening: bad inputs fail fast with clear errors.

Every failure mode here used to (or plausibly could) surface as a deep
traceback from inside the engine stack; the contract pinned by this
module is that they all exit through :class:`SystemExit` with a
message naming the offending argument — a non-zero exit code and no
stack trace for the operator to dig through.
"""

import json

import pytest

from repro.cli import SCHED_POLICIES, build_parser, main
from repro.sim.runner import JOBS_ENV


class TestJobsArgument:
    @pytest.mark.parametrize("command", ["scenario", "fleet", "sched",
                                         "fig4", "all"])
    @pytest.mark.parametrize("jobs", ["0", "-2"])
    def test_non_positive_jobs_rejected(self, command, jobs):
        with pytest.raises(SystemExit, match="--jobs must be >= 1"):
            main([command, "--jobs", jobs])

    def test_jobs_warns_on_serial_commands(self):
        import argparse

        from repro.cli import _apply_jobs
        with pytest.warns(UserWarning, match="no effect"):
            _apply_jobs(argparse.Namespace(experiment="fig1", jobs=2))

    def test_sched_counts_as_a_sweep_command(self, monkeypatch):
        import argparse
        import warnings

        from repro.cli import _apply_jobs
        monkeypatch.delenv(JOBS_ENV, raising=False)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            _apply_jobs(argparse.Namespace(experiment="sched", jobs=3))
        import os
        assert os.environ[JOBS_ENV] == "3"


class TestShardLeavesArgument:
    @pytest.mark.parametrize("command", ["fleet", "sched"])
    @pytest.mark.parametrize("value", ["0", "-4"])
    def test_non_positive_shard_leaves_rejected(self, command, value):
        scenario = "mixed-fleet-1k" if command == "fleet" \
            else "batch-backlog-1k"
        with pytest.raises(SystemExit, match="positive leaf count"):
            main([command, scenario, "--shard-leaves", value])

    def test_error_is_raised_before_any_simulation(self):
        # A bad shard size on a nonexistent scenario still reports the
        # shard size first: validation is eager, nothing was resolved
        # or run.
        with pytest.raises(SystemExit, match="positive leaf count"):
            main(["fleet", "no-such-scenario", "--shard-leaves", "0"])


class TestUnknownScenarios:
    @pytest.mark.parametrize("command", ["scenario", "fleet", "sched"])
    def test_unknown_name_lists_registered_scenarios(self, command):
        with pytest.raises(SystemExit,
                           match="unknown scenario 'no-such-scenario'"):
            main([command, "no-such-scenario"])

    @pytest.mark.parametrize("command", ["scenario", "fleet", "sched"])
    def test_missing_spec_file_is_a_clean_error(self, command, tmp_path):
        path = tmp_path / "nope.yaml"
        with pytest.raises(SystemExit, match="cannot read spec file"):
            main([command, str(path)])

    def test_unsupported_extension_is_a_clean_error(self, tmp_path):
        path = tmp_path / "spec.toml"
        path.write_text("x = 1\n")
        with pytest.raises(SystemExit, match="unsupported spec file"):
            main(["scenario", str(path)])

    @pytest.mark.parametrize("command", ["scenario", "fleet", "sched"])
    def test_no_argument_asks_for_one(self, command):
        with pytest.raises(SystemExit, match="registered"):
            main([command])


class TestShapeMismatches:
    def test_sched_rejects_member_scenarios(self):
        with pytest.raises(SystemExit, match="not schedule-shaped"):
            main(["sched", "diurnal-spike"])

    def test_sched_hints_fleet_command_for_fleet_scenarios(self):
        with pytest.raises(SystemExit, match="'fleet' command"):
            main(["sched", "follow-the-sun"])

    def test_fleet_hints_sched_command_for_schedule_scenarios(self):
        with pytest.raises(SystemExit, match="'sched' command"):
            main(["fleet", "diurnal-scavenger"])

    @pytest.mark.parametrize("flags", [["--trace"], ["--profile"]])
    def test_sweep_scenarios_write_trace_and_profile(self, flags, tmp_path,
                                                     capsys, monkeypatch):
        # A sweep scenario runs as one batch of members, so each flag
        # must produce its output rather than be accepted and ignored.
        from repro.obs import PROFILE_ENV, TRACE_ENV, read_jsonl
        for name in (TRACE_ENV, PROFILE_ENV):
            # Set, not deleted, so teardown restores what main() exports.
            monkeypatch.setenv(name, "0")
        spec = tmp_path / "sweep.json"
        spec.write_text(json.dumps({
            "name": "tiny-sweep", "duration_s": 60, "warmup_s": 10,
            "sweep": {"lc_tasks": ["websearch"], "be_tasks": ["brain"],
                      "loads": [0.3, 0.6]}}))
        trace = tmp_path / "trace.jsonl"
        args = flags + [str(trace)] if flags == ["--trace"] else flags
        main(["scenario", str(spec)] + args)
        captured = capsys.readouterr()
        if flags == ["--trace"]:
            assert read_jsonl(str(trace))
        else:
            assert not trace.exists()
            # Two cells run as one batch: physics reads per layer.
            assert "phase" in captured.err and "power" in captured.err
        assert captured.out.startswith("websearch: worst-case tail")

    def test_cluster_scenarios_write_trace_and_profile(self, tmp_path,
                                                       capsys,
                                                       monkeypatch):
        from repro.obs import PROFILE_ENV, TRACE_ENV, read_jsonl
        for name in (TRACE_ENV, PROFILE_ENV):
            # Set, not deleted, so teardown restores what main() exports.
            monkeypatch.setenv(name, "0")
        monkeypatch.setenv(JOBS_ENV, "1")
        spec = tmp_path / "cluster.json"
        spec.write_text(json.dumps({
            "name": "tiny-cluster", "duration_s": 60, "warmup_s": 10,
            "cluster": {"leaves": 2}}))
        trace = tmp_path / "trace.jsonl"
        main(["scenario", str(spec), "--trace", str(trace), "--profile"])
        captured = capsys.readouterr()
        assert read_jsonl(str(trace))
        assert "phase" in captured.err and "power" in captured.err
        assert captured.out.startswith("root SLO:")

    def test_sched_policy_choices_are_enforced_by_argparse(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            build_parser().parse_args(["sched", "batch-backlog-1k",
                                       "--policy", "fifo"])
        assert excinfo.value.code == 2
        assert "slack-greedy" in capsys.readouterr().err
        # The CLI mirrors the policy tuple to keep parser construction
        # import-light; this pin fails if the mirror ever drifts.
        from repro.sched.policies import POLICIES
        assert SCHED_POLICIES == POLICIES


class TestCheckpointErrors:
    """A checkpoint that cannot be read is a message, not a traceback."""

    @pytest.mark.parametrize("command, scenario, snapshot", [
        ("scenario", "diurnal-spike", "missing.npz"),
        ("fleet", "follow-the-sun", "missing"),
        ("sched", "diurnal-scavenger", "missing"),
    ])
    def test_missing_resume_is_a_clean_error(self, command, scenario,
                                             snapshot, tmp_path):
        with pytest.raises(SystemExit,
                           match=f"^{command}: cannot read .*checkpoint"):
            main([command, scenario, "--resume",
                  str(tmp_path / snapshot)])


class TestScenarioCheckpointRoundTrip:
    """A sweep and a cluster saved mid-run by ``repro scenario`` and
    resumed from that snapshot print the straight run's report."""

    @pytest.mark.parametrize("shape", [
        {"sweep": {"lc_tasks": ["websearch"], "be_tasks": ["brain"],
                   "loads": [0.3, 0.6]}},
        {"cluster": {"leaves": 2}},
    ], ids=["sweep", "cluster"])
    def test_save_and_resume_print_the_straight_report(
            self, shape, tmp_path, capsys, monkeypatch):
        monkeypatch.setenv(JOBS_ENV, "1")
        spec = tmp_path / "spec.json"
        spec.write_text(json.dumps(dict(
            {"name": "round-trip", "duration_s": 40, "warmup_s": 10},
            **shape)))
        snapshot = str(tmp_path / "ck")
        documents = []
        for flags in ([], ["--checkpoint", snapshot, "--checkpoint-at",
                           "20"], ["--resume", snapshot]):
            main(["scenario", str(spec), "--json"] + flags)
            documents.append(json.loads(capsys.readouterr().out))
        assert documents[1] == documents[0]
        assert documents[2] == documents[0]


class TestBadSpecFiles:
    def test_invalid_spec_content_is_a_clean_error(self, tmp_path,
                                                   monkeypatch):
        monkeypatch.setenv(JOBS_ENV, "1")
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({"name": "bad", "members": [
            {"lc": "websearch", "be": "no-such-task"}]}))
        with pytest.raises(SystemExit, match="unknown BE workload"):
            main(["scenario", str(path)])

    def test_schedule_spec_errors_name_the_field(self, tmp_path,
                                                 monkeypatch):
        monkeypatch.setenv(JOBS_ENV, "1")
        path = tmp_path / "bad_sched.json"
        path.write_text(json.dumps({
            "name": "bad", "duration_s": 60, "warmup_s": 10,
            "schedule": {
                "fleet": {"clusters": [
                    {"name": "only", "leaves": 2, "managed": False,
                     "trace": {"kind": "constant", "load": 0.4}}]},
                "jobs": [{"name": "j", "demand_core_s": -1}],
            }}))
        with pytest.raises(SystemExit, match="demand_core_s"):
            main(["sched", str(path)])
