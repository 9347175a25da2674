"""Self-tests of the benchmark's tracing and metric names.

Run from the repository root:  python3 -m pytest -q perfbench/tests
"""

from __future__ import annotations

import inspect
import json
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(BENCH), str(BENCH.parent / "src")]

import run as bench  # noqa: E402
from hostprobe import REFERENCE_S, HostProbe  # noqa: E402
from tracing import LAYERS, Tracer, layer_modules, metric_names  # noqa: E402
from workloads import WORKLOADS  # noqa: E402


def bindings(tracer: Tracer) -> dict:
    """Every name a traced run may rebind: module attributes, the values of
    module-level dicts, and the two patched constructors."""
    found = {}
    for ns in tracer.namespaces:
        for attr, obj in vars(ns).items():
            found[(ns.__name__, attr)] = obj
            if isinstance(obj, dict) and not attr.startswith("__"):
                for key, value in obj.items():
                    found[(ns.__name__, attr, key)] = value
    for module, cls in (("prob", "Dist"), ("quantum", "DensityMatrix")):
        found[(module, cls, "__post_init__")] = vars(
            getattr(tracer.modules[module], cls))["__post_init__"]
    return found


def unwrapped_public_functions(modules) -> list[str]:
    layer_names = {m.__name__ for m in modules.values()}
    return [f"{short}.{attr}"
            for short, module in modules.items()
            for attr, obj in vars(module).items()
            if not attr.startswith("_") and inspect.isfunction(obj)
            and obj.__module__ in layer_names]


def short_run(workload: str, seconds: float, tmp_path: Path, tracer=None):
    from kanext import cli

    csv_path = tmp_path / "lorenz.csv"
    stream = bench.Stream(workload, 7, csv_path)
    client = bench.Client(cli, csv_path)
    return bench.timed_loop(client, stream, 0, seconds, HostProbe(), tracer)


def test_untraced_run_leaves_every_name_identical(tmp_path):
    probe = Tracer()
    before = bindings(probe)
    for workload in ("cli_mix", "sweep_quantum"):
        short_run(workload, 0.2, tmp_path)
    after = bindings(probe)
    assert before.keys() == after.keys()
    assert all(after[k] is v for k, v in before.items())


def test_traced_run_wraps_every_public_name_and_restores_them(tmp_path):
    tracer = Tracer()
    before = bindings(tracer)
    tracer.install()
    try:
        assert unwrapped_public_functions(layer_modules()) == []
    finally:
        tracer.uninstall()
    records = short_run("cli_mix", 0.3, tmp_path, tracer)
    after = bindings(tracer)
    assert all(after[k] is v for k, v in before.items())
    names = {span[0] for span in tracer.spans}
    assert {"cli.main", "theories.rand_uniform_oracle", "quantum.eig_hermitian",
            "prob.Dist.__post_init__", "theories.map_object"} <= names
    traced = {r.index for r in records if r.traced}
    assert traced and len(traced) < len(records)
    assert {span[4] for span in tracer.spans} == traced


def test_layers_cover_every_kanext_module():
    import pkgutil

    import kanext

    found = {m.name for m in pkgutil.iter_modules(kanext.__path__)}
    assert found == set(LAYERS)


def test_benchmark_json_matches_reported_metrics():
    spec = json.loads((BENCH.parent / "BENCHMARK.json").read_text())
    assert [m["name"] for m in spec["per_layer"]] == [n for n, _ in metric_names()]
    assert [m["unit"] for m in spec["per_layer"]] == [u for _, u in metric_names()]
    assert {w["name"] for w in spec["workloads"]} == set(WORKLOADS)
    assert [m["name"] for m in spec["end_to_end"]] == list(bench.END_TO_END)


def test_host_slowdown_is_the_median_of_the_probes_around_a_command():
    probe = HostProbe()
    probe.times = [REFERENCE_S * f for f in (1.0, 1.2, 5.0, 1.4, 1.6)]
    # after 3 probes: the two before (1.2, 5.0) and the two after (1.4, 1.6)
    assert abs(probe.slowdown_near(3) - 1.5) < 1e-12
    # at either end of the run fewer probes lie on one side
    assert abs(probe.slowdown_near(5) - 1.5) < 1e-12
    assert abs(probe.slowdown_near(1) - 1.2) < 1e-12
