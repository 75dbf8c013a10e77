"""Tests of the benchmark's own arithmetic and tracer hygiene.

    PYTHONPATH=src python -m pytest -q bench/test_bench.py
"""

from __future__ import annotations

import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH))
sys.path.insert(0, str(BENCH.parent / "src"))

import spans  # noqa: E402
from layers import per_layer_metrics  # noqa: E402
from spans import Span, Tracer, profile, self_times  # noqa: E402


def _tree():
    """op [0, 10] holds a [1, 4] (child b [2, 3]) and c [5, 9], whose two
    worker-thread children d [5, 8] and e [6, 9.5] overlap each other and
    run past c's end."""
    return [
        Span(1, None, "op0", "op", 0, 0.0, 10.0),
        Span(2, 1, "op0", "model.a", 0, 1.0, 4.0),
        Span(3, 2, "op0", "losses.b", 0, 2.0, 3.0),
        Span(4, 1, "op0", "mixing.c", 0, 5.0, 9.0),
        Span(5, 4, "op0", "sampling.d", 1, 5.0, 8.0),
        Span(6, 4, "op0", "sampling.d", 2, 6.0, 9.5),
    ]


def test_self_time_subtracts_the_union_of_children():
    own = self_times(_tree())
    assert own[3] == pytest.approx(1.0)
    assert own[2] == pytest.approx(2.0)      # 3 s minus b's 1 s
    assert own[4] == pytest.approx(0.0)      # d and e cover all of c; overlap counted once
    assert own[5] == pytest.approx(3.0)
    assert own[6] == pytest.approx(3.5)
    assert own[1] == pytest.approx(3.0)      # 10 s minus a (3 s) and c (4 s)


def test_profile_aggregates_by_name_and_layer():
    prof = profile(_tree())
    assert prof.wall == pytest.approx(10.0)
    assert prof.calls["sampling.d"] == 2
    assert prof.total["sampling.d"] == pytest.approx(6.5)
    assert prof.self_s["sampling.d"] == pytest.approx(6.5)
    assert prof.coverage == pytest.approx(0.7)
    layers = prof.layer_self()
    assert layers == pytest.approx({"model": 2.0, "losses": 1.0, "mixing": 0.0,
                                    "sampling": 6.5})
    assert "op" not in layers


def test_profile_needs_exactly_one_root():
    with pytest.raises(ValueError):
        profile(_tree()[1:])


def test_per_layer_metrics_on_a_hand_built_op():
    tree = _tree() + [Span(7, 1, "op0", "mixing.mc_xi_aug_histogram", 0, 9.0, 10.0),
                      Span(8, 7, "op0", "mixing.mc_chunk", 1, 9.0, 10.0)]
    metrics = per_layer_metrics([profile(tree)], profile([Span(1, None, "setup", "op", 0,
                                                               0.0, 1.0)]),
                                pairs=[((1.0, 2.0), (1.0, 2.5))], one_thread=[], streams=1)
    assert metrics["trace.overhead"][0] == pytest.approx(0.25)
    assert metrics["mixing.mc.busy_s"][0] == pytest.approx(1.0)
    assert metrics["mixing.mc.parallel_eff"][0] == pytest.approx(1.0)
    assert metrics["mixing.mc.speedup_vs_1thread"][0] == 0.0
    assert metrics["sampling.draw_batch.calls"][0] == 0


def _namespaces():
    pkg, mods = spans._modules()
    return {mod.__name__: dict(vars(mod)) for mod in (pkg, *mods.values())}


def test_every_wrapper_is_removed_after_a_traced_run(tmp_path):
    from unimix_lt import cli, model, sampling

    before = _namespaces()
    original = sampling.draw_batch
    tracer = Tracer()
    with tracer:
        assert model.draw_batch is not original and sampling.draw_batch is model.draw_batch
        assert spans.wrapped_attributes()
        rc = tracer.run_op("op0", cli.main, ["verify-dist", "--classes", "10", "--trials",
                                             "2000", "--out", str(tmp_path / "mc")])
    assert rc == 0
    assert spans.wrapped_attributes() == []
    after = _namespaces()
    assert after.keys() == before.keys()
    for name in before:
        changed = [a for a in before[name] if after[name].get(a) is not before[name][a]]
        assert changed == [], f"{name}: {changed}"
    names = {s.name for s in tracer.spans}
    assert {"op", "cli.cmd_verify_dist", "mixing.mc_xi_aug_histogram", "mixing.mc_chunk",
            "sampling.draw_classes", "cli.write"} <= names


def test_worker_thread_spans_nest_under_the_pool_owner(tmp_path):
    from unimix_lt import cli

    tracer = Tracer()
    with tracer:
        tracer.run_op("op0", cli.main, ["verify-dist", "--classes", "10", "--trials", "4000",
                                        "--streams", "4", "--out", str(tmp_path / "mc")])
    by_id = {s.id: s for s in tracer.spans}
    chunks = [s for s in tracer.spans if s.name == "mixing.mc_chunk"]
    assert len(chunks) == 4
    assert {by_id[s.parent].name for s in chunks} == {"mixing.mc_xi_aug_histogram"}


def test_calls_are_counted_through_every_importing_module(tmp_path):
    """check_prior is bound in theory, sampling, mixing, losses, data and config."""
    from unimix_lt import cli

    cfg = tmp_path / "train.json"
    cfg.write_text('{"classes": 3, "n_max": 20, "rho": 4, "t1_steps": 3, "t2_steps": 5, '
                   '"batch_size": 8}')
    tracer = Tracer()
    with tracer:
        rc = tracer.run_op("op0", cli.main, ["train", "--config", str(cfg),
                                             "--out", str(tmp_path / "run")])
    assert rc == 0
    prof = profile(tracer.spans)
    # two draw_batch calls per mixed step, one per plain step; each checks the
    # prior itself and again inside draw_classes
    assert prof.calls["sampling.draw_batch"] == 3 * 2 + 2
    assert prof.calls["theory.check_prior"] >= 2 * prof.calls["sampling.draw_batch"]
    assert prof.calls["losses.softmax"] == prof.calls["losses.batch_grad"] == 8
    assert prof.calls["model.forward_cached"] == 5
    dims = 16 * 64 + 64 * 64 + 64 * 3  # default 16 features, hidden 64-64, 3 classes
    assert prof.extra["model.forward_cached"]["flops"] == 5 * 2 * 8 * dims


def test_benchmark_json_lists_every_per_layer_metric():
    import json

    with open(BENCH.parent / "BENCHMARK.json") as fh:
        declared = {m["name"]: m["unit"] for m in json.load(fh)["per_layer"]}
    root = profile([Span(1, None, "op0", "op", 0, 0.0, 1.0)])
    produced = per_layer_metrics([root], root, [((1.0, 1.0), (1.0, 1.0))], [], streams=1)
    assert declared == {name: unit for name, (_, unit) in produced.items()}


def test_a_call_that_raises_still_leaves_its_span():
    tracer = Tracer()

    def boom():
        raise ValueError("bad input")

    with pytest.raises(ValueError):
        tracer.run_op("op0", boom)
    assert [s.name for s in tracer.spans] == ["op"]
    assert profile(tracer.spans).coverage == pytest.approx(0.0)


def test_op_cost_is_cpu_over_the_bracketing_reference_runs():
    from run import op_costs

    ops = [(9.0, 4.0), (9.0, 6.0)]  # (wall, cpu) seconds
    assert op_costs(ops, [1.0, 3.0, 1.0]) == [pytest.approx(2.0), pytest.approx(3.0)]
    with pytest.raises(ValueError):
        op_costs(ops, [1.0, 3.0])
