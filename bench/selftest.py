"""Self-tests of the benchmark itself.

    python3 bench/selftest.py          # or: python3 -m pytest bench/selftest.py
"""

import json
import sys
from pathlib import Path

import pytest

import layers
import reference as ref
import run
import workloads
from tracer import Tracer

LIB = run.load_library()


def test_traced_and_untraced_cli_output_identical():
    argvs = [["profile", "--n", "40", "--q", "3", "--k-min", "0", "--k-max", "120",
              "--backend", "float"],
             ["profile", "--n", "8", "--q", "4", "--k-min", "0", "--k-max", "30",
              "--backend", "exact"]]
    plain = [workloads.run_cli(LIB, argv) for argv in argvs]
    originals = {name: getattr(LIB.bounds, name) for name in vars(LIB.bounds)}
    tracer = Tracer(run.PACKAGE, layers.MODULES, layers.COUNTERS)
    run.clear_caches(LIB)
    tracer.install()
    try:
        traced = [workloads.run_cli(LIB, argv) for argv in argvs]
    finally:
        tracer.uninstall()
    assert traced == plain
    stats = tracer.snapshot()["stats"]
    assert stats["cli.main"][0] == 2
    assert stats["radial.float_power_step"][0] == 120
    # re-exports and `from ... import` bindings were wrapped, then restored
    assert "spectral.spectrum" in stats and "bounds.upper_bound_lemma_rhs" in stats
    assert {name: getattr(LIB.bounds, name) for name in vars(LIB.bounds)} == originals


@pytest.mark.parametrize("q", [2, 3, 4, 5])
def test_reference_equals_oracle_on_tiny_schemes(q):
    for n in range(1, 6):
        params = LIB.scheme.make_scheme(n, q)
        w = ref.class_sizes(n, q)
        for k, num in ref.exact_trajectory(n, q, 12):
            masses = ref.exact_masses(n, q, k, num)
            assert tuple(masses) == LIB.radial.kstep_oracle(params, k).mass
            assert ref.exact_tv(n, q, k, num, w) == LIB.bounds.tv_to_uniform(params, k, "exact")


@pytest.mark.parametrize("name", workloads.NAMES)
def test_plan_is_a_function_of_the_seed(name):
    assert workloads.plan(name, 7) == workloads.plan(name, 7)
    assert workloads.plan(name, 7) != workloads.plan(name, 8)


def test_benchmark_json_matches_the_runner():
    spec = json.loads((Path(run.ROOT) / "BENCHMARK.json").read_text())
    assert tuple(w["name"] for w in spec["workloads"]) == workloads.NAMES
    assert [m["name"] for m in spec["per_layer"]] == list(layers.PER_LAYER)
    assert [m["unit"] for m in spec["per_layer"]] == [layers.unit(m) for m in layers.PER_LAYER]
    assert [m["name"] for m in spec["end_to_end"]] == list(run.END_TO_END)


if __name__ == "__main__":
    sys.exit(pytest.main([__file__, "-q"]))
