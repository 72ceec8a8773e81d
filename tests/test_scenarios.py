"""Tests for the declarative scenario subsystem.

Covers the load → validate → compile round trip, unknown-field and
invalid-value rejection, the YAML-subset parser (including equivalence
with PyYAML where available), injection/spike semantics, the example
spec files, and the golden-parity guarantee that the fig4 scenario
reproduces the hand-wired sweep numbers.
"""

import collections
import dataclasses
import glob
import json
import os

import pytest

from repro.scenarios import (FleetSpec, ScenarioError, ScenarioSpec,
                             ServerSpec, ShardSpec, TraceSpec, WorkloadSpec,
                             compile_scenario, load_scenario, loads_scenario,
                             parse_simple_yaml, registry, run_scenario)
from repro.scenarios.library import fig4_scenario, fig8_scenario
from repro.sim.batch import BatchColocationSim
from repro.sim.engine import ColocationSim

EXAMPLES = os.path.join(os.path.dirname(__file__), os.pardir, "examples",
                        "scenarios")


class TestSpecRoundTrip:
    def test_minimal_member_scenario(self):
        spec = load_scenario({
            "name": "t", "members": [{"lc": "websearch", "be": "brain"}]})
        assert spec.controller == "heracles"
        assert spec.members[0].trace.kind == "constant"
        assert spec.member_seed(0) == 0

    def test_member_seed_derivation(self):
        spec = load_scenario({
            "name": "t", "seed": 10,
            "members": [{"lc": "websearch"},
                        {"lc": "websearch", "seed": 99}]})
        assert spec.member_seed(0) == 10
        assert spec.member_seed(1) == 99

    def test_member_controller_override(self):
        spec = load_scenario({
            "name": "t", "controller": "none",
            "members": [{"lc": "websearch", "be": "brain",
                         "controller": "static-conservative"},
                        {"lc": "memkeyval"}]})
        assert spec.member_controller(0) == "static-conservative"
        assert spec.member_controller(1) == "none"

    def test_server_overrides_compose(self):
        spec = load_scenario({
            "name": "t", "server": {"sockets": 1, "link_gbps": 40.0},
            "members": [{"lc": "websearch"}]})
        machine = spec.server.to_machine_spec()
        assert machine.sockets == 1
        assert machine.nic.link_gbps == 40.0
        # Untouched fields keep the paper's defaults.
        assert machine.socket.cores == 18

    def test_every_server_override_reaches_the_machine(self):
        overrides = {"sockets": 1, "cores": 16, "threads_per_core": 1,
                     "llc_mb": 40.0, "llc_ways": 16, "dram_bw_gbps": 50.0,
                     "tdp_watts": 100.0, "idle_watts": 15.0,
                     "link_gbps": 40.0, "nominal_ghz": 2.2,
                     "max_turbo_ghz": 3.0, "all_core_turbo_ghz": 2.6,
                     "min_ghz": 1.1}
        assert set(overrides) == {
            f.name for f in dataclasses.fields(ServerSpec)}
        stock = ServerSpec().to_machine_spec()
        for name, value in overrides.items():
            machine = ServerSpec(**{name: value}).to_machine_spec()
            assert machine != stock, name

    def test_full_tree_from_dict(self):
        spec = load_scenario({
            "name": "t", "duration_s": 120, "warmup_s": 30, "seed": 2,
            "members": [{
                "lc": "websearch", "be": "stream-DRAM",
                "trace": {"kind": "diurnal", "low": 0.1, "high": 0.9,
                          "period_s": 600,
                          "spikes": [{"at_s": 60, "duration_s": 30,
                                      "load": 0.95}]}}],
            "injections": [{"at_s": 10, "action": "enable_be"},
                           {"at_s": 10, "action": "set_be_cores",
                            "value": 4}]})
        assert spec.members[0].trace.spikes[0].load == 0.95
        assert spec.injections[1].value == 4


class TestSpecRejection:
    def test_unknown_scenario_field(self):
        with pytest.raises(ScenarioError, match="unknown field.*'colour'"):
            load_scenario({"name": "t", "colour": "red",
                           "members": [{"lc": "websearch"}]})

    def test_unknown_member_field(self):
        with pytest.raises(ScenarioError, match=r"members\[0\].*'cpus'"):
            load_scenario({"name": "t",
                           "members": [{"lc": "websearch", "cpus": 4}]})

    def test_unknown_trace_field_for_kind(self):
        # 'low' belongs to diurnal traces, not constant ones.
        with pytest.raises(ScenarioError, match="'low'"):
            load_scenario({"name": "t", "members": [
                {"lc": "websearch",
                 "trace": {"kind": "constant", "low": 0.2}}]})

    def test_unknown_trace_kind(self):
        with pytest.raises(ScenarioError, match="unknown trace kind"):
            load_scenario({"name": "t", "members": [
                {"lc": "websearch", "trace": {"kind": "sawtooth"}}]})

    def test_unknown_lc_and_be(self):
        with pytest.raises(ScenarioError, match="unknown LC workload"):
            load_scenario({"name": "t", "members": [{"lc": "nope"}]})
        with pytest.raises(ScenarioError, match="unknown BE workload"):
            load_scenario({"name": "t", "members": [
                {"lc": "websearch", "be": "nope"}]})

    def test_invalid_load_value(self):
        with pytest.raises(ScenarioError, match="load must be in"):
            load_scenario({"name": "t", "members": [
                {"lc": "websearch",
                 "trace": {"kind": "constant", "load": 1.5}}]})

    def test_invalid_controller_and_engine(self):
        with pytest.raises(ScenarioError, match="unknown controller"):
            load_scenario({"name": "t", "controller": "magic",
                           "members": [{"lc": "websearch"}]})
        with pytest.raises(ScenarioError,
                           match="unknown field\\(s\\) 'engine'"):
            load_scenario({"name": "t", "engine": "gpu",
                           "members": [{"lc": "websearch"}]})

    def test_shape_must_be_unique(self):
        with pytest.raises(ScenarioError, match="exactly one of"):
            load_scenario({"name": "t"})
        with pytest.raises(ScenarioError, match="exactly one of"):
            load_scenario({"name": "t",
                           "members": [{"lc": "websearch"}],
                           "sweep": {"lc_tasks": ["websearch"]}})

    def test_warmup_must_fit_duration(self):
        with pytest.raises(ScenarioError, match="warmup_s"):
            load_scenario({"name": "t", "duration_s": 100, "warmup_s": 100,
                           "members": [{"lc": "websearch"}]})

    def test_injection_validation(self):
        with pytest.raises(ScenarioError, match="requires a 'value'"):
            load_scenario({"name": "t", "members": [{"lc": "websearch"}],
                           "injections": [{"at_s": 1,
                                           "action": "set_be_cores"}]})
        with pytest.raises(ScenarioError, match="takes no 'value'"):
            load_scenario({"name": "t", "members": [{"lc": "websearch"}],
                           "injections": [{"at_s": 1, "action": "enable_be",
                                           "value": 2}]})
        with pytest.raises(ScenarioError, match="unknown action"):
            load_scenario({"name": "t", "members": [{"lc": "websearch"}],
                           "injections": [{"at_s": 1, "action": "explode"}]})

    def test_bad_server_override(self):
        with pytest.raises(ScenarioError, match="invalid hardware"):
            load_scenario({"name": "t", "server": {"llc_ways": 1},
                           "members": [{"lc": "websearch"}]})

    def test_type_errors(self):
        with pytest.raises(ScenarioError, match="expected an integer"):
            load_scenario({"name": "t", "seed": 1.5,
                           "members": [{"lc": "websearch"}]})
        with pytest.raises(ScenarioError, match="expected a number"):
            load_scenario({"name": "t", "duration_s": "long",
                           "members": [{"lc": "websearch"}]})


def _fleet_data(**cluster):
    """A minimal fleet scenario mapping with one cluster's fields."""
    return {"name": "t", "duration_s": 60, "warmup_s": 0,
            "fleet": {"clusters": [dict({"name": "a", "leaves": 8},
                                        **cluster)]}}


def _sweep_data(**over):
    """A two-cell sweep scenario mapping plus top-level fields."""
    return dict({"name": "t", "duration_s": 40, "warmup_s": 0,
                 "sweep": {"loads": [0.3, 0.6]}}, **over)


def _cluster_data(**over):
    """A two-leaf, two-arm cluster scenario mapping plus top-level
    fields."""
    return dict({"name": "t", "duration_s": 40, "warmup_s": 0,
                 "cluster": {"leaves": 2}}, **over)


#: One bad-input row per annotation kind the decoder handles, plus a
#: cross-field rule, each at a nested path: (id, scenario data, dotted
#: path, kind word).
DECODER_REJECTS = [
    ("int", _fleet_data(leaves="8"),
     "scenario.fleet.clusters[0].leaves", "expected an integer, got '8'"),
    ("float", {"name": "t", "members": [
        {"lc": "websearch", "trace": {"kind": "constant", "load": "hi"}}]},
     "scenario.members[0].trace.load", "expected a number"),
    ("bool", _fleet_data(managed="yes"),
     "scenario.fleet.clusters[0].managed", "expected a bool"),
    ("str", {"name": "t", "members": [{"lc": 5}]},
     "scenario.members[0].lc", "expected a string"),
    ("list", {"name": "t", "sweep": {"loads": 0.5}},
     "scenario.sweep.loads", "expected a list"),
    ("list-element", _fleet_data(be_mix=["brain", 7]),
     "scenario.fleet.clusters[0].be_mix[1]", "expected a string"),
    ("nested-spec", _fleet_data(server=["sockets", 1]),
     "scenario.fleet.clusters[0].server", "expected a mapping"),
    ("missing-required", {"name": "t", "fleet": {"clusters": [
        {"name": "a"}]}},
     "scenario.fleet.clusters[0]", "missing required field 'leaves'"),
    ("static-without-be", {"name": "t", "controller": "static-optimistic",
                           "members": [{"lc": "websearch"}]},
     "scenario.members[0]", "the member has no 'be'"),
    ("sweep-controller", {"name": "t", "controller": "static-optimistic",
                          "sweep": {"lc_tasks": ["websearch"]}},
     "scenario.controller", "sweep scenarios run Heracles"),
    ("cluster-controller", {"name": "t", "controller": "static-optimistic",
                            "cluster": {"leaves": 2}},
     "scenario.controller", "cluster scenarios run Heracles"),
    ("cluster-engine", {"name": "t", "cluster": {"leaves": 2,
                                                 "engine": "scalar"}},
     "scenario.cluster", "unknown field(s) 'engine'"),
    ("top-level-engine", {"name": "t", "engine": "batch",
                          "members": [{"lc": "websearch"}]},
     "scenario", "unknown field(s) 'engine'"),
    ("sweep-injection-cluster", _sweep_data(injections=[
        {"at_s": 1, "action": "leaf_crash", "cluster": "a"}]),
     "scenario.injections[0].cluster", "have no clusters"),
    ("sweep-injection-leaf", _sweep_data(injections=[
        {"at_s": 1, "action": "leaf_crash", "leaf": 2}]),
     "scenario.injections[0].leaf", "out of range for 2 member(s)"),
    ("cluster-injection-arm", _cluster_data(injections=[
        {"at_s": 1, "action": "leaf_crash", "cluster": "canary"}]),
     "scenario.injections[0].cluster", "unknown cluster 'canary'"),
    ("cluster-injection-leaf", _cluster_data(injections=[
        {"at_s": 1, "action": "leaf_crash", "leaf": 0}]),
     "scenario.injections[0].leaf", "fleet-wide injection cannot name"),
    ("cluster-spill_dir", _cluster_data(checkpoint={"spill_dir": "spill"}),
     "scenario.checkpoint.spill_dir", "nothing to spill"),
]


class TestDecoder:
    """The one spec decoder: annotations drive decoding, and every spec
    in a loaded tree is validated exactly once."""

    @pytest.mark.parametrize("name", registry.names())
    def test_registered_scenarios_round_trip(self, name):
        spec = registry.get(name)
        data = json.loads(json.dumps(spec.to_data()))
        assert ScenarioSpec.from_dict(data) == spec

    @pytest.mark.parametrize("data,path,kind",
                             [row[1:] for row in DECODER_REJECTS],
                             ids=[row[0] for row in DECODER_REJECTS])
    def test_bad_input_names_path_and_kind(self, data, path, kind):
        with pytest.raises(ScenarioError) as info:
            ScenarioSpec.from_dict(data)
        assert str(info.value).startswith(f"{path}: ")
        assert kind in str(info.value)

    def test_each_spec_validated_once(self, monkeypatch):
        data = json.loads(json.dumps(
            registry.get("mixed-fleet-1k").to_data()))
        calls = collections.Counter()
        for cls in (TraceSpec, ShardSpec, FleetSpec):
            def counted(self, ctx, _validate=cls.validate,
                        _name=cls.__name__):
                calls[_name] += 1
                _validate(self, ctx)
            monkeypatch.setattr(cls, "validate", counted)
        spec = ScenarioSpec.from_dict(data)
        clusters = spec.fleet.clusters
        assert calls == {"TraceSpec": len(clusters),
                         "ShardSpec": len(clusters), "FleetSpec": 1}


SAMPLE_YAML = """
# comment
name: sample            # trailing comment
duration_s: 120
warmup_s: 30
server:
  link_gbps: 40.0
members:
  - lc: websearch
    be: brain
    trace:
      kind: diurnal
      low: 0.2
      high: 0.8
      period_s: 600
      spikes:
        - {at_s: 20, duration_s: 10, load: 0.95}
  - lc: memkeyval
    be: iperf
    trace: {kind: constant, load: 0.4}
injections:
  - at_s: 15
    action: enable_be
"""


class TestYamlSubsetParser:
    def test_structures(self):
        data = parse_simple_yaml(SAMPLE_YAML)
        assert data["name"] == "sample"
        assert data["server"] == {"link_gbps": 40.0}
        assert data["members"][0]["trace"]["spikes"] == [
            {"at_s": 20, "duration_s": 10, "load": 0.95}]
        assert data["members"][1]["trace"] == {"kind": "constant",
                                               "load": 0.4}
        assert data["injections"] == [{"at_s": 15, "action": "enable_be"}]

    def test_scalars(self):
        data = parse_simple_yaml(
            "a: true\nb: false\nc: null\nd: 3\ne: 3.5\nf: 'x y'\ng: plain\n"
            "h: [1, 2.5, yes]\n")
        assert data == {"a": True, "b": False, "c": None, "d": 3, "e": 3.5,
                        "f": "x y", "g": "plain", "h": [1, 2.5, "yes"]}

    def test_matches_pyyaml(self):
        yaml = pytest.importorskip("yaml")
        for path in sorted(glob.glob(os.path.join(EXAMPLES, "*.yaml"))):
            with open(path) as handle:
                text = handle.read()
            assert parse_simple_yaml(text) == yaml.safe_load(text), path
        assert parse_simple_yaml(SAMPLE_YAML) == yaml.safe_load(SAMPLE_YAML)

    def test_rejects_tabs_and_mixed_levels(self):
        with pytest.raises(ScenarioError, match="tabs"):
            parse_simple_yaml("a:\n\tb: 1\n")
        with pytest.raises(ScenarioError, match="cannot mix"):
            parse_simple_yaml("- a\nb: 1\n")

    def test_rejects_unterminated_flow(self):
        with pytest.raises(ScenarioError, match="unterminated"):
            parse_simple_yaml("a: [1, 2\n")


class TestLoader:
    def test_yaml_and_json_files(self, tmp_path):
        yml = tmp_path / "s.yaml"
        yml.write_text("name: y\nmembers:\n  - lc: websearch\n")
        assert load_scenario(yml).name == "y"
        jsn = tmp_path / "s.json"
        jsn.write_text('{"name": "j", "members": [{"lc": "websearch"}]}')
        assert load_scenario(jsn).name == "j"

    def test_bad_extension_and_missing_file(self, tmp_path):
        with pytest.raises(ScenarioError, match="extension"):
            load_scenario(tmp_path / "s.toml")
        with pytest.raises(ScenarioError, match="cannot read"):
            load_scenario(tmp_path / "absent.yaml")

    def test_invalid_json(self):
        with pytest.raises(ScenarioError, match="invalid JSON"):
            loads_scenario("{nope", fmt="json")


class TestRegistry:
    def test_shipped_scenarios_present(self):
        names = registry.names()
        for expected in ("fig4", "fig8", "mixed-fleet", "diurnal-spike"):
            assert expected in names
        for name in names:
            spec = registry.get(name)
            spec.validate()
            assert registry.description(name)

    def test_unknown_name_lists_choices(self):
        with pytest.raises(ScenarioError, match="registered scenarios"):
            registry.get("nope")

    def test_description_falls_back_to_spec(self):
        from repro.scenarios.registry import (_DESCRIPTIONS, _REGISTRY,
                                              register)
        from repro.scenarios.spec import ScenarioSpec, WorkloadSpec
        register("tmp-desc-test", lambda: ScenarioSpec(
            name="tmp-desc-test", description="from the spec",
            members=(WorkloadSpec(lc="websearch"),)))
        try:
            assert registry.description("tmp-desc-test") == "from the spec"
        finally:
            _REGISTRY.pop("tmp-desc-test")
            _DESCRIPTIONS.pop("tmp-desc-test")


class TestCompiler:
    def test_single_member_lowers_to_scalar(self):
        spec = load_scenario({
            "name": "t", "duration_s": 60, "warmup_s": 10,
            "members": [{"lc": "websearch", "be": "brain"}]})
        compiled = compile_scenario(spec)
        assert compiled.kind == "single"
        sim = compiled.build()
        assert isinstance(sim, ColocationSim)
        assert sim.controller is not None  # Heracles attached

    def test_multi_member_lowers_to_batch(self):
        spec = registry.get("mixed-fleet")
        spec = dataclasses.replace(spec, duration_s=60.0, warmup_s=20.0)
        compiled = compile_scenario(spec)
        assert compiled.kind == "batch"
        sim = compiled.build()
        assert isinstance(sim, BatchColocationSim)
        assert sim.n == 3
        result = compiled.run()
        assert len(result.members) == 3
        assert all(len(m.history) == 60 for m in result.members)
        assert "memkeyval" in result.render()

    def test_sweep_scenario_is_one_batch(self, monkeypatch):
        """A multi-cell sweep builds one batch of its cells, in ``lc x be
        x load`` order at the scenario seed, and calls no sweep
        runner; its grid and its members hold the same histories."""
        from repro.fleet import simulator
        from repro.sim import runner
        built = []
        real_init = BatchColocationSim.__init__

        def counting_init(sim, *args, **kwargs):
            built.append(sim)
            real_init(sim, *args, **kwargs)

        def no_runner(*args, **kwargs):
            raise AssertionError("a sweep called run_sweep")

        monkeypatch.setattr(BatchColocationSim, "__init__", counting_init)
        monkeypatch.setattr(runner, "run_sweep", no_runner)
        monkeypatch.setattr(simulator, "run_sweep", no_runner)
        spec = fig4_scenario(lc_tasks=("websearch", "memkeyval"),
                             be_tasks=("brain",), loads=(0.3, 0.6),
                             duration_s=40.0, warmup_s=10.0, seed=5)
        compiled = compile_scenario(spec)
        assert compiled.kind == "sweep"
        result = compiled.run(processes=2)
        assert len(built) == 1 and built[0].n == 4
        assert [(m.lc, m.be, m.seed, m.controller)
                for m in result.members] == \
            [("websearch", "brain", 5, "heracles")] * 2 \
            + [("memkeyval", "brain", 5, "heracles")] * 2
        cells = [cell for grid in result.sweeps.values()
                 for cell in grid.results["brain"]]
        assert [(c.lc_name, c.load) for c in cells] == [
            ("websearch", 0.3), ("websearch", 0.6),
            ("memkeyval", 0.3), ("memkeyval", 0.6)]
        assert all(c.history is m.history
                   for c, m in zip(cells, result.members))

    def test_cluster_scenario_is_one_fleet(self, monkeypatch):
        """Both arms run in one ShardedFleetSim, one cluster per arm in
        ``arms`` order; the result reports arms, not a fleet."""
        from repro.scenarios import compiler
        real = compiler.ShardedFleetSim
        built = []

        def counting(*args, **kwargs):
            built.append(real(*args, **kwargs))
            return built[-1]

        monkeypatch.setattr(compiler, "ShardedFleetSim", counting)
        spec = load_scenario({"name": "t", "duration_s": 40,
                              "warmup_s": 0, "seed": 4,
                              "cluster": {"leaves": 2,
                                          "arms": ["baseline", "managed"]}})
        fleet_spec = compile_scenario(spec).lowered.fleet
        assert [(c.name, c.managed, c.seed) for c in fleet_spec.clusters] \
            == [("baseline", False, 4), ("managed", True, 4)]
        result = run_scenario(spec, processes=1)
        assert len(built) == 1
        assert list(result.cluster_arms) == ["baseline", "managed"]
        assert result.fleet is None and "fleet" not in result.to_dict()

    def test_sweep_and_cluster_take_checkpoint_and_injections(self):
        """Both stanzas are checked against the lowered form: a sweep
        injection targets a cell by grid index, a cluster injection an
        arm by name, and a sweep may spill."""
        sweep = load_scenario(_sweep_data(
            injections=[{"at_s": 5, "action": "straggler", "value": 0.5,
                         "leaf": 1}],
            checkpoint={"save": "ck", "at_s": 20, "spill_dir": "spill"}))
        lowered = compile_scenario(sweep).lowered
        assert [(m.lc, m.be, m.trace.load, m.seed)
                for m in lowered.members] == [
            ("websearch", "brain", 0.3, 0), ("websearch", "brain", 0.6, 0)]
        assert lowered.sweep is None
        assert lowered.injections == sweep.injections
        assert lowered.checkpoint == sweep.checkpoint
        cluster = load_scenario(_cluster_data(
            server={"cores": 8},
            injections=[{"at_s": 5, "action": "leaf_crash",
                         "cluster": "managed", "leaf": 1}],
            checkpoint={"resume": "ck"}))
        lowered = compile_scenario(cluster).lowered
        assert lowered.cluster is None and not lowered.members
        assert [(c.name, c.leaves, c.managed, c.server.cores)
                for c in lowered.fleet.clusters] == [
            ("managed", 2, True, 8), ("baseline", 2, False, 8)]
        assert lowered.server.is_default()
        assert lowered.injections == cluster.injections
        assert lowered.checkpoint == cluster.checkpoint

    def test_controller_none_leaves_be_disabled(self):
        spec = load_scenario({
            "name": "t", "controller": "none", "duration_s": 30,
            "warmup_s": 0,
            "members": [{"lc": "websearch", "be": "brain"}]})
        result = run_scenario(spec)
        assert result.members[0].mean_be_throughput() == 0.0

    def test_static_baseline_controller(self):
        spec = load_scenario({
            "name": "t", "controller": "static-conservative",
            "duration_s": 30, "warmup_s": 0,
            "members": [{"lc": "websearch", "be": "brain"}]})
        sim = compile_scenario(spec).build()
        sim.run(30)
        assert sim.actuators.be_cores == 2  # the conservative grant

    def test_injections_fire_at_time(self):
        """An injection fires at the start of the tick at its ``at_s``,
        so that tick's record already shows it: on either engine, and
        only on the member a leaf target names."""
        grant = [{"at_s": 20, "action": "enable_be"},
                 {"at_s": 20, "action": "set_be_cores", "value": 6}]
        member = {"lc": "memkeyval", "be": "stream-DRAM"}
        spec = load_scenario({
            "name": "t", "controller": "none", "duration_s": 40,
            "warmup_s": 0, "members": [member], "injections": grant})
        cores = run_scenario(spec).members[0].history.column("be_cores")
        assert list(cores) == [0] * 20 + [6] * 20
        spec = load_scenario({
            "name": "t", "controller": "none", "duration_s": 40,
            "warmup_s": 0, "members": [member, member],
            "injections": [dict(inj, leaf=1) for inj in grant]})
        untargeted, targeted = (m.history.column("be_cores")
                                for m in run_scenario(spec).members)
        assert list(untargeted) == [0] * 40
        assert list(targeted) == [0] * 20 + [6] * 20

    def test_spike_overlay_changes_offered_load(self):
        spec = load_scenario({
            "name": "t", "controller": "none", "duration_s": 30,
            "warmup_s": 0,
            "members": [{
                "lc": "websearch",
                "trace": {"kind": "constant", "load": 0.3,
                          "spikes": [{"at_s": 10, "duration_s": 5,
                                      "load": 0.9}]}}]})
        history = run_scenario(spec).members[0].history
        loads = history.column("load")
        assert loads[5] == pytest.approx(0.3)
        assert loads[12] == pytest.approx(0.9)
        assert loads[20] == pytest.approx(0.3)

    def test_seed_override_changes_trajectory(self):
        base = load_scenario({
            "name": "t", "duration_s": 60, "warmup_s": 0,
            "members": [{"lc": "websearch", "be": "brain"}]})
        a = run_scenario(base).members[0].history
        b = run_scenario(dataclasses.replace(base, seed=123)).members[0]\
            .history
        assert a.column("tail_latency_ms")[5] != \
            b.column("tail_latency_ms")[5]


class TestGoldenParity:
    """The fig4 scenario reproduces the hand-wired fig4 numbers."""

    def test_fig4_scenario_matches_hand_wired(self):
        from repro.experiments.common import baseline_cell, run_colocation
        from repro.hardware.spec import default_machine_spec
        from repro.workloads.latency_critical import make_lc_workload

        loads = (0.3, 0.7)
        scenario = fig4_scenario(lc_tasks=("websearch",),
                                 be_tasks=("brain",), loads=loads,
                                 duration_s=300.0)
        grid = compile_scenario(scenario).run(processes=1).sweeps[
            "websearch"]

        machine = default_machine_spec()
        hand = [run_colocation("websearch", "brain", load,
                               duration_s=300.0, spec=machine, seed=0)
                for load in loads]
        lc = make_lc_workload("websearch", machine)
        hand_baseline = [baseline_cell(lc, load, machine) for load in loads]

        for ours, theirs in zip(grid.results["brain"], hand):
            assert ours.max_slo_fraction == pytest.approx(
                theirs.max_slo_fraction, abs=1e-6)
            assert ours.mean_emu == pytest.approx(theirs.mean_emu, abs=1e-6)
            assert ours.history.worst_window_slo(skip_s=240.0) == \
                pytest.approx(theirs.history.worst_window_slo(skip_s=240.0),
                              abs=1e-6)
        for ours, theirs in zip(grid.baseline_slo, hand_baseline):
            assert ours == pytest.approx(theirs, abs=1e-6)

    def test_fig8_scenario_matches_hand_wired_arm(self):
        from repro.cluster.cluster import WebsearchCluster
        from repro.workloads.traces import DiurnalTrace

        scenario = fig8_scenario(leaves=2, duration_s=600.0 * 72,
                                 time_compression=72.0, seed=3)
        result = compile_scenario(scenario).run(processes=1)
        trace = DiurnalTrace(low=0.20, high=0.90, period_s=600.0,
                             noise_sigma=0.02, seed=3)
        cluster = WebsearchCluster(leaves=2, trace=trace, seed=3)
        history = cluster.run(600.0)
        assert result.cluster_arms["managed"].mean_emu() == pytest.approx(
            history.mean_emu(), abs=1e-6)
        assert result.root_slo_ms == pytest.approx(cluster.root_slo_ms,
                                                   abs=1e-6)


class TestExampleSpecs:
    def test_all_examples_load_and_validate(self):
        paths = sorted(glob.glob(os.path.join(EXAMPLES, "*")))
        assert len(paths) >= 3
        for path in paths:
            spec = load_scenario(path)
            spec.validate()

    def test_novel_mix_runs_through_batched_backend(self):
        spec = load_scenario(os.path.join(EXAMPLES,
                                          "three_way_be_mix.yaml"))
        spec = dataclasses.replace(spec, duration_s=60.0, warmup_s=20.0)
        compiled = compile_scenario(spec)
        assert compiled.kind == "batch"
        result = compiled.run()
        assert {m.lc for m in result.members} == {"websearch", "memkeyval"}
        assert all(m.mean_emu() > 0 for m in result.members)

    def test_injection_example_runs(self):
        spec = load_scenario(os.path.join(EXAMPLES, "late_antagonist.json"))
        # Shortening the run must also drop the injections that now
        # fall outside it: at_s >= duration_s is a validation error.
        spec = dataclasses.replace(
            spec, duration_s=400.0, warmup_s=50.0,
            injections=tuple(i for i in spec.injections if i.at_s < 400.0))
        history = run_scenario(spec).members[0].history
        cores = history.column("be_cores")
        assert cores[100] == 0 and cores[320] == 8


class TestCliScenario:
    def test_list(self, capsys):
        from repro.cli import main
        assert main(["scenario", "--list"]) == 0
        out = capsys.readouterr().out
        assert "fig4" in out and "mixed-fleet" in out

    def test_run_spec_file(self, tmp_path, capsys):
        from repro.cli import main
        path = tmp_path / "mini.yaml"
        path.write_text(
            "name: mini\nduration_s: 30\nwarmup_s: 5\n"
            "members:\n  - lc: websearch\n    be: brain\n"
            "    trace: {kind: constant, load: 0.4}\n")
        assert main(["scenario", str(path)]) == 0
        out = capsys.readouterr().out
        assert "scenario mini" in out and "websearch" in out

    def test_registry_name_wins_over_cwd_entry(self, tmp_path,
                                               monkeypatch, capsys):
        # A stray directory named like a registered scenario must not
        # shadow the registry lookup (it previously made the CLI exit
        # with "unsupported spec file extension").
        from repro.cli import main
        from repro.scenarios.registry import (_DESCRIPTIONS, _REGISTRY,
                                              register)
        from repro.scenarios.spec import ScenarioSpec, TraceSpec, \
            WorkloadSpec
        register("tmp-cli-test", lambda: ScenarioSpec(
            name="tmp-cli-test", duration_s=20.0, warmup_s=5.0,
            controller="none",
            members=(WorkloadSpec(lc="websearch",
                                  trace=TraceSpec(load=0.3)),)),
            "cli shadow test")
        (tmp_path / "tmp-cli-test").mkdir()
        monkeypatch.chdir(tmp_path)
        try:
            assert main(["scenario", "tmp-cli-test"]) == 0
            assert "tmp-cli-test" in capsys.readouterr().out
        finally:
            _REGISTRY.pop("tmp-cli-test")
            _DESCRIPTIONS.pop("tmp-cli-test")

    def test_unknown_scenario_exits(self):
        from repro.cli import main
        with pytest.raises(SystemExit, match="registered scenarios"):
            main(["scenario", "nope"])

    def test_missing_argument_exits(self):
        from repro.cli import main
        with pytest.raises(SystemExit, match="registered name"):
            main(["scenario"])

    def test_seed_override(self, capsys):
        from repro.cli import main
        spec_dict = ("name: s\nduration_s: 30\nwarmup_s: 5\n"
                     "members:\n  - lc: websearch\n    be: brain\n")
        import tempfile
        with tempfile.NamedTemporaryFile("w", suffix=".yaml",
                                         delete=False) as handle:
            handle.write(spec_dict)
            path = handle.name
        try:
            assert main(["scenario", path, "--seed", "9"]) == 0
        finally:
            os.unlink(path)
