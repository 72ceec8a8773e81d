"""Shared benchmark configuration.

Each benchmark regenerates one paper artefact (table/figure) at reduced
resolution and prints the rows/series the paper reports, so a benchmark
run doubles as the reproduction harness.  pytest-benchmark measures the
regeneration cost; `pedantic` with one round keeps total runtime sane.
"""

import os

import numpy as np


#: Where benchmarks write their JSON measurements by default: a
#: git-ignored directory, so a plain ``pytest`` run never rewrites the
#: committed ``BENCH_PR*.json`` snapshots at the repository root.
OUT_DIR = os.path.join(os.path.dirname(os.path.abspath(__file__)), "out")
os.makedirs(OUT_DIR, exist_ok=True)


def regenerate(benchmark, fn, *args, **kwargs):
    """Run an artefact generator once under the benchmark timer."""
    return benchmark.pedantic(fn, args=args, kwargs=kwargs,
                              rounds=1, iterations=1, warmup_rounds=0)


def capture_leaves(monkeypatch):
    """Keep the per-leaf telemetry of the fleet runs that follow.

    Wraps the fleet roll-up's ``assemble_cluster``; the returned dict
    maps each cluster name to its ``[0, leaves)`` record.  Call again
    before the next run to capture it separately.
    """
    from repro.fleet import assemble_cluster, simulator
    leaves = {}

    def assemble(shards, total_leaves=None):
        record = assemble_cluster(shards, total_leaves)
        leaves[record.cluster] = record
        return record

    monkeypatch.setattr(simulator, "assemble_cluster", assemble)
    return leaves


def assert_same_leaves(got, want, what):
    """Bitwise equality of two captures' per-leaf arrays, by cluster."""
    assert sorted(got) == sorted(want), f"{what}: cluster sets differ"
    for name, record in want.items():
        for field in ("times_s", "tails_ms", "emus", "be_norm",
                      "be_cores"):
            assert np.array_equal(getattr(got[name], field),
                                  getattr(record, field)), (
                f"cluster {name!r}: per-leaf {field} diverged {what}")
