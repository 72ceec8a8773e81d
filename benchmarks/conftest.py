"""Shared benchmark configuration.

Each benchmark regenerates one paper artefact (table/figure) at reduced
resolution and prints the rows/series the paper reports, so a benchmark
run doubles as the reproduction harness.  pytest-benchmark measures the
regeneration cost; `pedantic` with one round keeps total runtime sane.
"""

import os


#: Where benchmarks write their JSON measurements by default: a
#: git-ignored directory, so a plain ``pytest`` run never rewrites the
#: committed ``BENCH_PR*.json`` snapshots at the repository root.
OUT_DIR = os.path.join(os.path.dirname(os.path.abspath(__file__)), "out")
os.makedirs(OUT_DIR, exist_ok=True)


def regenerate(benchmark, fn, *args, **kwargs):
    """Run an artefact generator once under the benchmark timer."""
    return benchmark.pedantic(fn, args=args, kwargs=kwargs,
                              rounds=1, iterations=1, warmup_rounds=0)
