"""Outside-in span tracing of the unimix_lt layers.

`Tracer.install()` replaces each traced function with a timing wrapper in
every unimix_lt module namespace that holds it, so calls made through
`from .x import f` bindings and through module globals looked up at call
time are both seen. `Tracer.uninstall()` puts the originals back. Spans
stay in memory until `write_spans` saves them. Nothing under `src/`
changes.

A span is (id, parent, op, name, thread, start, end, extra). A span
opened on a worker thread whose own stack is empty takes as parent the
innermost open span of the thread that started the op, so the Monte Carlo
chunks nest under `mc_xi_aug_histogram`.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import itertools
import json
import threading
import time
from collections import defaultdict
from dataclasses import astuple, dataclass

PACKAGE = "unimix_lt"
MODULES = ("streams", "theory", "data", "sampling", "mixing", "losses", "model",
           "calibration", "config", "cli", "circles")

# Private functions that carry a named layer's work, traced besides `__all__`.
PRIVATE = {
    "model": ("_forward_cached", "_backward_cached"),
    "mixing": ("_mc_chunk",),
    "calibration": ("_check_inputs",),
    "cli": ("_atomic_write", "_write_csv", "_write_json", "cmd_gen_data",
            "cmd_verify_dist", "cmd_train", "cmd_eval", "cmd_circles_demo", "cmd_report"),
}

# Span names that differ from "<module>.<function without leading _>".
RENAMED = {("cli", "_atomic_write"): "cli.write"}

MARK = "__bench_traced__"
SPAN_FIELDS = ["id", "parent", "op", "name", "thread", "start", "end", "extra"]


@dataclass
class Span:
    id: int
    parent: int | None
    op: str
    name: str
    thread: int
    start: float
    end: float
    extra: dict | None = None

    @property
    def duration(self) -> float:
        return self.end - self.start


def _ace_name(args, kwargs) -> str:
    """ACE and TACE are one function; the threshold argument tells them apart."""
    threshold = kwargs.get("threshold", args[3] if len(args) > 3 else 0.0)
    return "calibration.tace" if threshold > 0 else "calibration.ace"


def _layer_flops(args, kwargs, result) -> dict:
    """Computed multiply-add flops of a dense forward or backward pass."""
    params, x = args[0], args[1]
    rows = x[0].shape[0] if isinstance(x, list) else (x.shape[0] if x.ndim > 1 else 1)
    dims = params.layer_dims
    weights = sum(a * b for a, b in zip(dims[:-1], dims[1:]))
    if isinstance(x, list):  # backward: weight grads plus delta propagation
        weights += sum(a * b for a, b in zip(dims[1:-1], dims[2:]))
    return {"flops": 2 * rows * weights}


def _write_bytes(args, kwargs, result) -> dict:
    return {"bytes": args[0].stat().st_size}


def _rows(args, kwargs, result) -> dict:
    return {"rows": int(result.num_samples)}


NAMERS = {"calibration.adaptive_calibration_error": _ace_name}
ANNOTATORS = {"model.forward_cached": _layer_flops, "model.backward_cached": _layer_flops,
              "cli.write": _write_bytes, "data.load_csv": _rows}


def _modules():
    pkg = importlib.import_module(PACKAGE)
    return pkg, {m: importlib.import_module(f"{PACKAGE}.{m}") for m in MODULES}


def traced_functions() -> list[tuple[str, object]]:
    """(span name, function) for every traced function."""
    _, mods = _modules()
    out = []
    for mod_name, mod in mods.items():
        public = getattr(mod, "__all__", None) or [a for a in vars(mod) if not a.startswith("_")]
        names = list(public) + list(PRIVATE.get(mod_name, ()))
        for attr in names:
            fn = getattr(mod, attr)
            if not inspect.isfunction(fn) or fn.__module__ != mod.__name__:
                continue
            span_name = RENAMED.get((mod_name, attr), f"{mod_name}.{attr.lstrip('_')}")
            out.append((span_name, fn))
    return out


def wrapped_attributes() -> list[str]:
    """Every unimix_lt module attribute that currently holds a trace wrapper."""
    pkg, mods = _modules()
    found = []
    for mod in (pkg, *mods.values()):
        found += [f"{mod.__name__}.{a}" for a, v in vars(mod).items()
                  if getattr(v, MARK, False)]
    return found


class Tracer:
    def __init__(self):
        self.spans: list[Span] = []
        self.op = ""
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._op_stack: list[int] = []
        self._patched: list[tuple[object, str, object]] = []

    # ------------------------------------------------------------ recording
    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def call(self, name: str, fn, args, kwargs, annotate=None):
        stack = self._stack()
        if stack:
            parent = stack[-1]
        else:
            parent = self._op_stack[-1] if self._op_stack else None
        span_id = next(self._ids)
        stack.append(span_id)
        start = time.perf_counter()
        try:
            result = fn(*args, **kwargs)
        finally:  # a call that raises still leaves its span
            end = time.perf_counter()
            stack.pop()
            span = Span(span_id, parent, self.op, name, threading.get_ident(), start, end)
            self.spans.append(span)
        if annotate is not None:
            span.extra = annotate(args, kwargs, result)
        return result

    def run_op(self, op: str, fn, *args):
        """Run one benchmark op under a root span named "op"."""
        self.op = op
        self._op_stack = self._stack()
        return self.call("op", fn, args, {})

    def _wrapper(self, span_name: str, fn):
        namer = NAMERS.get(span_name)
        annotate = ANNOTATORS.get(span_name)
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            name = span_name if namer is None else namer(args, kwargs)
            return tracer.call(name, fn, args, kwargs, annotate)

        setattr(wrapper, MARK, True)
        return wrapper

    # ------------------------------------------------------------- patching
    def install(self) -> None:
        if self._patched:
            raise RuntimeError("tracer already installed")
        pkg, mods = _modules()
        namespaces = (pkg, *mods.values())
        for span_name, fn in traced_functions():
            wrapper = self._wrapper(span_name, fn)
            for ns in namespaces:
                for attr, value in list(vars(ns).items()):
                    if value is fn:
                        setattr(ns, attr, wrapper)
                        self._patched.append((ns, attr, fn))

    def uninstall(self) -> None:
        for ns, attr, fn in reversed(self._patched):
            setattr(ns, attr, fn)
        self._patched.clear()

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.uninstall()
        return False

    # --------------------------------------------------------------- output
    def write_spans(self, path) -> None:
        """JSON lines: a header naming the fields, then one array per span."""
        with open(path, "w") as fh:
            fh.write(json.dumps({"fields": SPAN_FIELDS}) + "\n")
            for span in self.spans:
                fh.write(json.dumps(astuple(span)) + "\n")


# ------------------------------------------------------------------ analysis

def _covered(intervals, lo: float, hi: float) -> float:
    """Length of the union of `intervals`, clipped to [lo, hi]."""
    total, reach = 0.0, lo
    for start, end in sorted(intervals):
        start, end = max(start, reach), min(end, hi)
        if end > start:
            total += end - start
            reach = end
    return total


def self_times(spans) -> dict[int, float]:
    """Span id -> duration minus the part of its interval its children cover."""
    children = defaultdict(list)
    for s in spans:
        if s.parent is not None:
            children[s.parent].append((s.start, s.end))
    return {s.id: s.duration - _covered(children[s.id], s.start, s.end) for s in spans}


@dataclass
class OpProfile:
    """Per-name aggregates of one op's spans."""

    wall: float
    calls: dict[str, int]
    total: dict[str, float]
    self_s: dict[str, float]
    durations: dict[str, list[float]]
    extra: dict[str, dict[str, float]]

    @property
    def coverage(self) -> float:
        """Share of op wall time inside some layer span (1 - op self / wall)."""
        return 1.0 - self.self_s.get("op", 0.0) / self.wall

    def layer_self(self) -> dict[str, float]:
        """Module -> summed self time, the op root excluded."""
        out: dict[str, float] = defaultdict(float)
        for name, value in self.self_s.items():
            if name != "op":
                out[name.split(".")[0]] += value
        return dict(out)


def profile(spans) -> OpProfile:
    """Aggregate the spans of a single op (exactly one root named "op")."""
    roots = [s for s in spans if s.name == "op"]
    if len(roots) != 1:
        raise ValueError(f"expected one op root span, got {len(roots)}")
    own = self_times(spans)
    calls: dict[str, int] = defaultdict(int)
    total: dict[str, float] = defaultdict(float)
    self_s: dict[str, float] = defaultdict(float)
    durations: dict[str, list[float]] = defaultdict(list)
    extra: dict[str, dict[str, float]] = defaultdict(lambda: defaultdict(float))
    for s in spans:
        calls[s.name] += 1
        total[s.name] += s.duration
        self_s[s.name] += own[s.id]
        durations[s.name].append(s.duration)
        for key, value in (s.extra or {}).items():
            extra[s.name][key] += value
    return OpProfile(roots[0].duration, dict(calls), dict(total), dict(self_s),
                     dict(durations), {k: dict(v) for k, v in extra.items()})


def by_op(spans) -> dict[str, list[Span]]:
    out: dict[str, list[Span]] = defaultdict(list)
    for s in spans:
        out[s.op].append(s)
    return dict(out)


def self_time_table(prof: OpProfile) -> str:
    """Text table of every span name by self time, with shares of op wall."""
    lines = [f"{'span':44s} {'calls':>7s} {'total_s':>9s} {'self_s':>9s} {'share':>7s}"]
    rows = sorted(prof.self_s.items(), key=lambda kv: -kv[1])
    for name, value in rows:
        lines.append(f"{name:44s} {prof.calls[name]:7d} {prof.total[name]:9.4f} "
                     f"{value:9.4f} {value / prof.wall:7.1%}")
    lines.append("")
    lines.append(f"{'layer':44s} {'':7s} {'':9s} {'self_s':>9s} {'share':>7s}")
    for layer, value in sorted(prof.layer_self().items(), key=lambda kv: -kv[1]):
        lines.append(f"{layer:44s} {'':7s} {'':9s} {value:9.4f} {value / prof.wall:7.1%}")
    return "\n".join(lines)
