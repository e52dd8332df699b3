"""Tests of the benchmark itself: wrappers, generators, tiny runs."""

import json
import sys

import pytest

import run
import tracing
import workloads
from irschain import cli, deployment, metrics, params


def _bindings():
    return {(name, attr): value
            for name, module in sys.modules.items()
            if name == "irschain" or name.startswith("irschain.")
            for attr, value in vars(module).items() if callable(value)}


def test_wrappers_cover_every_binding_and_restore_the_originals():
    before = _bindings()
    tracer = tracing.Tracer()
    with tracer.installed():
        # bound by name in deployment and cli, not only where defined
        assert deployment.objective is not before["irschain.metrics", "objective"]
        assert cli.derive_link_budget is not before["irschain.params", "derive_link_budget"]
        cli.evaluate_point(metrics.WIT, params.SystemParams())
    assert _bindings() == before
    totals = tracer.layer_totals()
    assert totals["cli.evaluate_point"][0] == 1
    assert totals["params.validate"][0] >= 1
    assert totals["metrics.objective"][0] >= params.SystemParams().num_irs


def test_wrappers_restore_after_an_exception():
    before = _bindings()
    with pytest.raises(RuntimeError), tracing.Tracer().installed():
        raise RuntimeError
    assert _bindings() == before


def test_self_time_excludes_children():
    tracer = tracing.Tracer()
    with tracer.installed():
        cli.evaluate_point(metrics.WPT, params.SystemParams())
    names, parent, start, end = tracer._arrays()
    root = list(names).index(tracing.TARGETS.index("cli.evaluate_point"))
    self_ns = tracer.layer_totals()["cli.evaluate_point"][1]
    assert 0 < self_ns < end[root] - start[root]


@pytest.mark.parametrize("name", workloads.WORKLOADS)
def test_generators_are_deterministic_in_the_seed(name):
    assert workloads.generate(name, 3) == workloads.generate(name, 3)
    assert workloads.generate(name, 3) != workloads.generate(name, 4)


def test_long_chain_times_power_transfer_draws_in_double_range():
    items, probe = workloads.generate("long-chain", 0)
    assert items and probe
    assert all(mode == metrics.WPT for mode, _ in items)
    assert max(p.num_irs for _, p in items) > 100
    for _, p in items:
        gain = (p.pirs_elements * params.derive_link_budget(p).kappa_i) ** (2 * (p.num_irs - 1))
        assert gain > workloads.LONG_CHAIN_MIN_CHAIN_GAIN


def test_failed_checks_and_value_errors_count_as_failed_operations():
    loop = run.Loop("oracle", 0)
    loop.check = lambda item, error: False
    loop.step()
    assert (loop.attempted, loop.failed) == (1, 1)

    def underflow(item):
        raise ValueError("linear_to_db requires a positive ratio")

    loop.op = underflow
    loop.step()
    assert (loop.attempted, loop.failed) == (2, 2)


@pytest.fixture
def tiny(monkeypatch, tmp_path):
    monkeypatch.setattr(run, "SETUP_REPEATS", 1)
    monkeypatch.setattr(run, "WARMUP_S", 0.0)
    monkeypatch.setattr(run, "BLOCK_S", 0.01)
    monkeypatch.setattr(run, "SPAN_DIR", tmp_path)
    monkeypatch.setattr(workloads, "ORACLE_NP", (16, 36, 64))


def _metric_units(path, key):
    with open(path) as f:
        return {m["name"]: m["unit"] for m in json.load(f)[key]}


@pytest.mark.parametrize("trace,key", [(0, "end_to_end"), (1, "per_layer")])
@pytest.mark.parametrize("name", workloads.WORKLOADS)
def test_tiny_run_prints_every_metric_with_its_unit(tiny, capsys, name, trace, key):
    expected = _metric_units(run.ROOT / "BENCHMARK.json", key)
    assert run.main(["--workload", name, "--seed", "1", "--seconds", "0.05",
                     "--trace", str(trace)]) == 0
    info_line, result_line = capsys.readouterr().out.splitlines()[-2:]
    result = json.loads(result_line)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    assert {m: v["unit"] for m, v in result["metrics"].items()} == expected
    assert json.loads(info_line)["environment"]["host"] == "unpinned, shared host"
