"""Per-layer metrics from traced ops.

Every metric is the median over the run's traced ops of a per-op value, so
counts read "per CLI command". A layer the workload bypasses reads 0.
"""

from __future__ import annotations

import os
import statistics

from spans import MODULES, OpProfile

SELF_TIMES = (
    "sampling.draw_batch", "sampling.draw_classes", "theory.check_prior",
    "theory.emit_density_curves", "mixing.unimix_factor", "mixing.mc_xi_aug_histogram",
    "losses.batch_loss", "losses.batch_grad", "model.forward", "model.backward",
    "model.sgd_step", "model.predict_proba", "model.save_model", "model.load_model",
    *(f"calibration.{m}" for m in ("evaluate_predictions", "ece", "mce", "ace", "tace", "sce",
                                   "brier", "confusion_matrix", "reliability_bins",
                                   "batch_density")),
    "data.load_csv", "data.gen_lt_gaussians", "cli.write", "config.build_training_run",
)

# The trainer calls the cached forward/backward passes directly; eval goes
# through the public wrappers. Both count as the layer's pass.
SPANS_OF = {"model.forward": ("model.forward", "model.forward_cached"),
            "model.backward": ("model.backward", "model.backward_cached")}

CALLS = ("sampling.draw_batch", "theory.check_prior", "mixing.unimix_factor",
         "losses.batch_loss", "losses.batch_grad", "losses.softmax",
         "calibration.check_inputs", "streams.derive_rng")


def _median(values) -> float:
    values = list(values)
    return float(statistics.median(values)) if values else 0.0


def _percentile(values: list[float], q: float) -> float:
    """Nearest-rank percentile; 0 for no values."""
    if not values:
        return 0.0
    ordered = sorted(values)
    return ordered[min(len(ordered) - 1, int(q * len(ordered)))]


def _mc(prof: OpProfile, workers: int) -> tuple[float, float, float]:
    """(busy, wait, efficiency) of the Monte Carlo worker pool in one op."""
    wall = prof.total.get("mixing.mc_xi_aug_histogram", 0.0)
    busy = prof.total.get("mixing.mc_chunk", 0.0)
    if wall == 0.0:
        return 0.0, 0.0, 0.0
    return busy, workers * wall - busy, busy / (workers * wall)


def per_layer_metrics(profiles: list[OpProfile], setup: OpProfile,
                      pairs, one_thread: list[OpProfile],
                      streams: int) -> dict[str, tuple[float, str]]:
    """All per-layer metrics as name -> (value, unit).

    `pairs` holds ((wall, cpu) untraced, (wall, cpu) traced) for adjacent ops;
    the tracing overhead is their median CPU-time ratio, minus 1.
    """
    out: dict[str, tuple[float, str]] = {}

    def med(fn) -> float:
        return _median(fn(p) for p in profiles)

    for name in CALLS:
        out[f"{name}.calls"] = (med(lambda p: p.calls.get(name, 0)), "count")
    for metric in SELF_TIMES:
        names = SPANS_OF.get(metric, (metric,))
        out[f"{metric}.self_s"] = (med(lambda p: sum(p.self_s.get(n, 0.0) for n in names)), "s")
    draws = [d for p in profiles for d in p.durations.get("sampling.draw_batch", [])]
    out["sampling.draw_batch.p50_us"] = (_percentile(draws, 0.50) * 1e6, "us")
    out["sampling.draw_batch.p99_us"] = (_percentile(draws, 0.99) * 1e6, "us")

    fb_names = SPANS_OF["model.forward"] + SPANS_OF["model.backward"]

    def gflops(p: OpProfile) -> float:
        seconds = sum(p.self_s.get(n, 0.0) for n in fb_names)
        flops = sum(p.extra.get(n, {}).get("flops", 0.0) for n in fb_names)
        return flops / seconds / 1e9 if seconds else 0.0

    out["model.matmul_gflop_s"] = (med(gflops), "GFLOP/s")

    def rows_per_s(p: OpProfile) -> float:
        seconds = p.total.get("data.load_csv", 0.0)
        return p.extra.get("data.load_csv", {}).get("rows", 0) / seconds if seconds else 0.0

    out["data.load_csv.rows_per_s"] = (med(rows_per_s), "1/s")
    out["data.save_csv.self_s"] = (setup.self_s.get("data.save_csv", 0.0), "s")
    out["cli.write.bytes"] = (med(lambda p: p.extra.get("cli.write", {}).get("bytes", 0)),
                              "bytes")

    workers = min(streams, int(os.environ.get("UNIMIX_LT_THREADS", 0) or os.cpu_count() or 1))
    mc = [_mc(p, workers) for p in profiles]
    out["mixing.mc.busy_s"] = (_median(m[0] for m in mc), "s")
    out["mixing.mc.wait_s"] = (_median(m[1] for m in mc), "s")
    out["mixing.mc.parallel_eff"] = (_median(m[2] for m in mc), "ratio")
    multi = med(lambda p: p.total.get("mixing.mc_xi_aug_histogram", 0.0))
    single = _median(p.total.get("mixing.mc_xi_aug_histogram", 0.0) for p in one_thread)
    out["mixing.mc.speedup_vs_1thread"] = (single / multi if multi and single else 0.0,
                                           "ratio")

    for module in MODULES:
        out[f"{module}.self_s"] = (med(lambda p: p.layer_self().get(module, 0.0)), "s")
    out["trace.coverage"] = (med(lambda p: p.coverage), "ratio")
    out["trace.overhead"] = (_median(traced[1] / plain[1] - 1.0 for plain, traced in pairs),
                             "ratio")
    out["trace.op_wall_s"] = (med(lambda p: p.wall), "s")
    return out
