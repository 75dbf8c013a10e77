"""unimix-lt benchmark: one workload per process, driven through `cli.main`.

    python3 bench/run.py --workload train_mixed --seed 1 --seconds 30 --trace 0

Run from the repository root. With `--trace 0` it times whole CLI
commands and prints the end-to-end metrics; with `--trace 1` it alternates
untraced and traced ops and prints the per-layer metrics. The last line of
stdout is one JSON object {correct, attempted, failed, metrics}. Details
(per-op times, artifact SHA-256s, machine info, and for traced runs the
span file and self-time table) go to `.bench_runs/results/`.

Times are process CPU seconds, which leave out hypervisor steal on a shared
host; wall times are recorded beside them. The host's own speed still drifts
by a quarter over tens of minutes, so throughput is reported against a fixed
reference kernel timed just before and just after every op (`Reference`).
Set-up is timed in fresh child processes (`--setup-child`), several times,
and reported as the median.
BLAS is pinned to one thread: the workloads' matrices are small, and a
second BLAS thread only spins against the Monte Carlo worker threads.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

BLAS_THREADS = "1"
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = BLAS_THREADS
os.environ.pop("UNIMIX_LT_THREADS", None)

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
RUNS = ROOT / ".bench_runs"
REQUIRED = (ROOT / "src" / "unimix_lt" / "cli.py", ROOT / "configs" / "unimix_bayias.json")

MIN_OPS = 3
REFERENCE_SHARE = 0.25  # reference time between two ops, as a share of one op


def _fail(message: str) -> None:
    print(f"bench: {message}", file=sys.stderr)
    sys.exit(2)


def _program_path() -> None:
    missing = [str(p.relative_to(ROOT)) for p in REQUIRED if not p.is_file()]
    if missing:
        _fail(f"run from a unimix-lt checkout; missing {missing}")
    sys.path.insert(0, str(ROOT / "src"))


def _sha256(path: Path) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for block in iter(lambda: fh.read(1 << 20), b""):
            h.update(block)
    return h.hexdigest()


# ---------------------------------------------------------------- reference

class Reference:
    """A fixed kernel, independent of the program, timed between ops.

    Neighbours on a shared host change its speed by up to a quarter over
    minutes, and CPU time moves with it. An op's CPU time over the mean of
    the reference windows that bracket it cancels most of that drift: the
    ratio is the op's cost in reference runs. A window repeats the kernel
    until it lasts about REFERENCE_SHARE of an op, so that one burst of
    host speed does not decide it. The kernel mixes an interpreter loop,
    many small numpy calls and a sort, as the workloads do; of the
    candidates tried, it tracked both `train` and `eval` ops best.
    """

    def __init__(self):
        import numpy as np
        rng = np.random.default_rng(0)
        self.np = np
        # 2.3 MB in all, so peak_rss_mb stays the program's
        self.pool = rng.random((10_000, 16))
        self.weights = [rng.random((16, 64)), rng.random((64, 64)), rng.random((64, 10))]
        self.values = rng.random(1 << 17)

    def run(self, repeats: int = 1) -> float:
        """Run the kernel `repeats` times; return the mean CPU seconds of one run."""
        np, cpu = self.np, time.process_time()
        for _ in range(repeats):
            acc = 0
            for i in range(300_000):
                acc += i * i % 7
            rng = np.random.default_rng(1)
            for _ in range(150):  # a small MLP's forward pass and softmax on a batch
                h = self.pool[rng.integers(0, len(self.pool), 128)]
                for w in self.weights:
                    h = np.maximum(h @ w, 0.0)
                h = np.exp(h - h.max(axis=1, keepdims=True))
                h /= h.sum(axis=1, keepdims=True)
            for _ in range(8):
                np.sort(self.values)
        return (time.process_time() - cpu) / repeats


def op_costs(ops: list[tuple[float, float]], refs: list[float]) -> list[float]:
    """Each op's CPU time in reference runs; `refs[i]`, `refs[i + 1]` bracket op i."""
    if len(refs) != len(ops) + 1:
        raise ValueError("every op needs a reference run before and after it")
    return [cpu / ((refs[i] + refs[i + 1]) / 2) for i, (_, cpu) in enumerate(ops)]


# ------------------------------------------------------------------- set-up

def setup_child(workload: str, seed: int, inputs: Path) -> None:
    """Import the program and generate the inputs; print the seconds it took."""
    start, cpu = time.perf_counter(), time.process_time()
    from workloads import WORKLOADS
    WORKLOADS[workload](ROOT, seed).setup(inputs)
    print(json.dumps({"wall_s": time.perf_counter() - start,
                      "cpu_s": time.process_time() - cpu}))


def timed_setups(wl, seed: int, work: Path) -> tuple[list[dict], Path]:
    """Set up `wl.setup_repeats` times in child processes; all must agree byte for byte."""
    samples, digests = [], []
    for k in range(wl.setup_repeats):
        inputs = work / f"inputs{k}"
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--setup-child",
             "--workload", wl.name, "--seed", str(seed), "--dir", str(inputs)],
            cwd=ROOT, capture_output=True, text=True, timeout=170)
        if proc.returncode != 0:
            raise RuntimeError(f"set-up {k} failed: {proc.stderr.strip()[-500:]}")
        samples.append(json.loads(proc.stdout.strip().splitlines()[-1]))
        digests.append({str(p.relative_to(inputs)): _sha256(p)
                        for p in sorted(inputs.rglob("*")) if p.is_file()})
        if k > 0:
            shutil.rmtree(work / f"inputs{k - 1}")
    if any(d != digests[0] for d in digests):
        raise RuntimeError("repeated set-ups produced different inputs")
    return samples, inputs


# ---------------------------------------------------------------------- ops

class OpRunner:
    """Runs ops, hashes their deterministic artifacts and checks them."""

    def __init__(self, wl, inputs: Path, work: Path):
        from unimix_lt import cli
        self.cli, self.wl, self.inputs, self.work = cli, wl, inputs, work
        self.count = 0
        self.failed = 0  # ops with a non-zero exit or a failed output check
        self.problems: list[str] = []  # any entry makes the run incorrect
        self.reference: dict[str, str] | None = None
        self.first_out: Path | None = None

    def run(self, call=None) -> tuple[float, float]:
        """One op; returns its (wall, process CPU) seconds.

        `call(fn, argv)` may wrap the command, as the traced run does.
        """
        out = self.work / f"op{self.count}"
        argv = self.wl.argv(self.inputs, out)
        self.count += 1
        start, cpu = time.perf_counter(), time.process_time()
        try:
            rc = call(self.cli.main, argv) if call else self.cli.main(argv)
            error = None if rc == 0 else f"exit code {rc}"
        except Exception as exc:  # a traceback instead of an exit code
            error = f"uncaught {type(exc).__name__}: {exc}"
        wall, cpu = time.perf_counter() - start, time.process_time() - cpu
        problems = [error] if error else self._check(out)
        if problems:
            self.failed += 1
            self.problems += [f"op {self.count - 1}: {p}" for p in problems]
        if self.first_out is None:
            self.first_out = out
        else:
            shutil.rmtree(out, ignore_errors=True)
        return wall, cpu

    def _check(self, out: Path) -> list[str]:
        missing = [a for a in self.wl.artifacts if not (out / a).is_file()]
        if missing:
            return [f"missing artifacts {missing}"]
        digests = {a: _sha256(out / a) for a in self.wl.artifacts}
        if self.reference is None:
            self.reference = digests
        differ = [a for a in digests if digests[a] != self.reference[a]]
        problems = [f"{a} differs from the first op's" for a in differ]
        return problems + self.wl.check(out)


def machine_info() -> dict:
    import numpy as np
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": os.environ["OPENBLAS_NUM_THREADS"],
        "UNIMIX_LT_THREADS": os.environ.get("UNIMIX_LT_THREADS", "unset"),
        "machine": platform.machine(),
    }


def _deadline_loop(seconds: float, step) -> None:
    """Call `step()` until `seconds` have passed, and at least MIN_OPS times."""
    start, n = time.perf_counter(), 0
    while n < MIN_OPS or time.perf_counter() - start < seconds:
        step()
        n += 1


# ------------------------------------------------------------------ untraced

def run_untraced(wl, seed: int, seconds: float, work: Path) -> tuple[dict, dict]:
    setups, inputs = timed_setups(wl, seed, work)
    runner = OpRunner(wl, inputs, work)
    reference = Reference()
    one_ref = reference.run()  # also the reference's warm-up
    warmup = runner.run()
    repeats = max(1, round(REFERENCE_SHARE * warmup[1] / one_ref))
    ops: list[tuple[float, float]] = []
    refs = [reference.run(repeats)]

    def step():
        ops.append(runner.run())
        refs.append(reference.run(repeats))

    _deadline_loop(seconds, step)
    peak_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / 1e6
    try:
        quality = wl.quality(inputs, runner.first_out)
    except (OSError, RuntimeError, ValueError, KeyError) as exc:
        runner.problems.append(f"quality check: {exc}")
        quality = {"quality_score": 0.0}
    wall_s = statistics.median(w for w, _ in ops)
    cpu_s = statistics.median(c for _, c in ops)
    costs = op_costs(ops, refs)
    metrics = {
        "setup_s": (statistics.median(s["cpu_s"] for s in setups), "s"),
        "items_per_ref": (wl.items / statistics.median(costs), "1/ref"),
        "peak_rss_mb": (peak_mb, "MB"),
        "success_rate": (1.0 - runner.failed / runner.count, "ratio"),
        "quality_score": (quality["quality_score"], "ratio"),
    }
    details = {"setup_samples_s": setups, "warmup_wall_cpu_s": warmup,
               "op_wall_cpu_s": ops, "op_median_wall_s": wall_s, "op_median_cpu_s": cpu_s,
               "reference_cpu_s": refs, "reference_repeats": repeats, "op_cost_refs": costs,
               "items_per_cpu_s": wl.items / cpu_s,
               "ops": len(ops), "quality": quality,
               "wall_items_per_s": wl.items / wall_s, "runner": runner}
    return metrics, details


# -------------------------------------------------------------------- traced

def run_traced(wl, seed: int, seconds: float, work: Path) -> tuple[dict, dict]:
    import layers
    import spans

    tracer = spans.Tracer()
    inputs = work / "inputs"
    with tracer:
        tracer.run_op("setup", wl.setup, inputs)
    runner = OpRunner(wl, inputs, work)
    runner.run()  # warm-up, untraced
    pairs: list[tuple[float, float]] = []
    single_thread: list[str] = []
    wrapper_leaks: list[str] = []

    def traced(op: str):
        def call(fn, argv):
            with tracer:
                return tracer.run_op(op, fn, argv)
        times = runner.run(call)
        wrapper_leaks.extend(spans.wrapped_attributes())
        return times

    def cycle():
        n = len(pairs)
        pairs.append((runner.run(), traced(f"op{n}")))
        if wl.name == "verify_mc":  # the same problem on one worker thread
            os.environ["UNIMIX_LT_THREADS"] = "1"
            try:
                traced(f"op{n}-1thread")
            finally:
                os.environ.pop("UNIMIX_LT_THREADS")
            single_thread.append(f"op{n}-1thread")

    _deadline_loop(seconds, cycle)
    if wrapper_leaks:
        runner.problems.append(f"trace wrappers left installed: {sorted(set(wrapper_leaks))}")
    grouped = spans.by_op(tracer.spans)
    profiles = [spans.profile(grouped[f"op{n}"]) for n in range(len(pairs))]
    one_thread = [spans.profile(grouped[op]) for op in single_thread]
    metrics = layers.per_layer_metrics(profiles, spans.profile(grouped["setup"]),
                                       pairs, one_thread, streams=getattr(wl, "streams", 1))
    median_op = sorted(range(len(profiles)), key=lambda i: profiles[i].wall)[len(profiles) // 2]
    table = (f"{wl.name}: traced op {median_op} of {len(profiles)} (median wall); shares are "
             f"of op wall, and worker-thread spans overlap\n"
             + spans.self_time_table(profiles[median_op])
             + f"\n\ntrace.coverage = {metrics['trace.coverage'][0]:.4f}  "
             f"trace.overhead = {metrics['trace.overhead'][0]:+.4f}  (medians over ops)")
    details = {"pairs_s": pairs, "tracer": tracer, "runner": runner, "table": table,
               "coverage_per_op": [p.coverage for p in profiles]}
    return metrics, details


# ---------------------------------------------------------------------- main

def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-child", action="store_true", help=argparse.SUPPRESS)
    parser.add_argument("--dir", help=argparse.SUPPRESS)
    args = parser.parse_args()
    _program_path()
    if args.setup_child:
        setup_child(args.workload, args.seed, Path(args.dir))
        return 0

    from workloads import WORKLOADS
    if args.workload not in WORKLOADS:
        _fail(f"unknown workload {args.workload!r}; choose from {sorted(WORKLOADS)}")
    wl = WORKLOADS[args.workload](ROOT, args.seed)
    tag = f"{wl.name}-seed{args.seed}-trace{args.trace}"
    work = RUNS / f"{tag}-{os.getpid()}"
    results = RUNS / "results"
    results.mkdir(parents=True, exist_ok=True)
    try:
        run = run_traced if args.trace else run_untraced
        metrics, details = run(wl, args.seed, args.seconds, work)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    runner = details.pop("runner")
    tracer = details.pop("tracer", None)
    correct = not runner.problems
    summary = {"workload": wl.name, "seed": args.seed, "seconds": args.seconds,
               "trace": args.trace, "correct": correct, "problems": runner.problems,
               "artifact_sha256": runner.reference, "machine": machine_info(),
               "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
               **details}
    with open(results / f"{tag}.json", "w") as fh:
        json.dump(summary, fh, indent=2, sort_keys=True)
    if tracer is not None:
        tracer.write_spans(results / f"{tag}.spans.jsonl")
        (results / f"{tag}.table.txt").write_text(details["table"] + "\n")
        print(details["table"])
    if not args.trace:
        print(f"{wl.name} {wl.throughput} = {details['wall_items_per_s']:.6g} {wl.item}/s "
              f"(wall clock, median of {details['ops']} ops)")
        print(f"{wl.name} items_per_cpu_s = {details['items_per_cpu_s']:.6g} {wl.item}/s "
              f"(process CPU, median of {details['ops']} ops; one reference run took "
              f"{statistics.median(details['reference_cpu_s']):.4g} s)")
        print(f"{wl.name} error_rate = {runner.failed / runner.count:.6g} "
              f"({runner.failed} of {runner.count} ops)")
        for key, value in sorted(details["quality"].items()):
            if key != "quality_score":
                print(f"{wl.name} {key} = {value:.6g}")
    for name, (value, unit) in metrics.items():
        print(f"{wl.name} {name} = {value:.6g} {unit}")
    for problem in runner.problems:
        print(f"FAILED {problem}", file=sys.stderr)
    print(json.dumps({"correct": correct, "attempted": runner.count, "failed": runner.failed,
                      "metrics": {k: {"value": v, "unit": u}
                                  for k, (v, u) in metrics.items()}}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
