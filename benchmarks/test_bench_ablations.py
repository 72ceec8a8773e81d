"""Ablation benches for the design choices DESIGN.md calls out.

1. **Coordinated vs single-mechanism control** — disabling one
   subcontroller either breaks the SLO or wastes EMU, demonstrating the
   paper's claim (a): "coordinated management of multiple isolation
   mechanisms is key to achieving high utilization without SLO
   violations".
2. **Offline DRAM model robustness** — perturbing the model (the
   websearch binary changed between profiling and evaluation, §5.2)
   must not produce violations.
3. **Slack-band sensitivity** — shrinking the guard band trades safety
   for throughput; widening it trades throughput for safety.
"""

from conftest import regenerate

import repro
from repro.core import HeraclesConfig, HeraclesController
from repro.core.dram_model import profile_lc_dram_model
from repro.workloads.latency_critical import make_lc_workload


def run_with(disabled=None, lc="websearch", be="streetview", load=0.45,
             duration=700.0, config=None, dram_model=None, seed=3):
    sim = repro.build_colocation(lc, be, load=load, seed=seed)
    controller = HeraclesController.for_sim(sim, config=config,
                                            dram_model=dram_model)
    if disabled:
        setattr(getattr(controller, disabled), "step", lambda now_s: None)
    history = sim.run(duration)
    return (history.worst_window_slo(skip_s=240),
            history.mean_emu(skip_s=240),
            history.max_slo_fraction(skip_s=60))


def test_bench_ablation_subcontrollers(benchmark):
    def sweep():
        results = {"full": run_with(None)}
        # Disabling the network loop against a network-hungry BE task.
        results["no network ctrl"] = run_with(
            "network", lc="memkeyval", be="iperf", load=0.45)
        results["full (memkeyval+iperf)"] = run_with(
            None, lc="memkeyval", be="iperf", load=0.45)
        # Disabling the core&memory loop: BE stays at its initial grant.
        results["no core/mem ctrl"] = run_with("core_memory")
        # Disabling the power loop against a power virus.
        results["no power ctrl"] = run_with(
            "power", lc="websearch", be="cpu_pwr", load=0.45)
        return results

    results = regenerate(benchmark, sweep)
    print()
    for name, (slo, emu, peak) in results.items():
        print(f"{name:<28} worst tail {slo * 100:>5.0f}% of SLO "
              f"(peak {peak * 100:>5.0f}%), EMU {emu * 100:>4.0f}%")
    # Full controller: safe (no violation even instantaneously).
    assert results["full"][2] <= 1.0
    assert results["full (memkeyval+iperf)"][2] <= 1.0
    # Without the network loop, iperf's mice flows break memkeyval:
    # the top-level safety net contains each breach with a disable +
    # cooldown cycle, so the symptom is recurring instantaneous
    # violations plus collapsed colocation throughput.
    assert results["no network ctrl"][2] > 1.3
    assert (results["no network ctrl"][1]
            < results["full (memkeyval+iperf)"][1] - 0.10)
    # Without the core/memory loop there is no growth: EMU collapses.
    assert results["no core/mem ctrl"][1] < results["full"][1] - 0.10


def test_bench_ablation_stale_dram_model(benchmark):
    def sweep():
        lc = make_lc_workload("websearch")
        fresh = profile_lc_dram_model(lc)
        out = {}
        for scale in (0.8, 1.0, 1.3, 1.6):
            out[scale] = run_with(None, dram_model=fresh.perturbed(scale))
        return out

    results = regenerate(benchmark, sweep)
    print()
    for scale, (slo, emu, _) in results.items():
        print(f"model x{scale:<4} worst tail {slo * 100:>5.0f}% of SLO, "
              f"EMU {emu * 100:>4.0f}%")
    # Heracles is resilient to a stale model (§5.2): no violations even
    # at +/-60% model error.
    assert all(slo <= 1.0 for slo, _, _ in results.values())


def test_bench_ablation_slack_bands(benchmark):
    def sweep():
        out = {}
        for guard in (0.05, 0.15, 0.30):
            config = HeraclesConfig(growth_guard=guard)
            out[guard] = run_with(None, config=config)
        return out

    results = regenerate(benchmark, sweep)
    print()
    for guard, (slo, emu, _) in results.items():
        print(f"growth guard {guard:.2f}: worst tail {slo * 100:>5.0f}% "
              f"of SLO, EMU {emu * 100:>4.0f}%")
    guards = sorted(results)
    # Wider guard -> lower worst-case latency (more safety margin).
    assert results[guards[-1]][0] <= results[guards[0]][0] + 0.05
