"""Traced in-process round of the roadfl CLI, one round per process.

    python3 perfbench/tracer.py SPEC.json

SPEC.json is written by run.py. It names the CLI argument lists to run
(each once without tracing and once with it, in the order the spec
gives), the warm-up argument lists, and where to write the span file
and the metrics. The process imports roadfl.cli first, timing the
import before anything else pulls in numpy.

Spans come from outside the package: the public functions of cli,
analytic, optimizer, mcsim and flsim are replaced by wrappers for the
traced pass, and so are the names cli binds from them (simulate_rounds,
compare_to_poisson, run_fl, proxy_correlation). analytic is the bottom
layer, so a call it makes into itself stays inside the caller's span.
The per-participant delay draws in flsim are counted, not spanned, so
run_fl's self time keeps them. Spans stay in memory until the pass
ends and are then written to one CSV file.
"""

import json
import resource
import sys
import time


def main() -> int:
    spec = json.loads(open(sys.argv[1]).read())
    started = time.perf_counter()
    import roadfl.cli as cli
    import_s = time.perf_counter() - started
    import_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    from roadfl import analytic, flsim, mcsim, optimizer
    modules = {"cli": cli, "analytic": analytic, "optimizer": optimizer,
               "mcsim": mcsim, "flsim": flsim}

    for argv in spec["warmup"]:
        _call(cli, argv)

    recorder = Recorder()
    passes = {}
    failures = []
    for traced in spec["order"]:
        commands = spec["traced"] if traced else spec["untraced"]
        undo = install(recorder, modules) if traced else []
        try:
            begin = time.perf_counter()
            for run_id, (name, argv) in enumerate(commands):
                recorder.run_id = run_id
                code = _call(cli, argv)
                if code != 0:
                    failures.append(f"{'traced' if traced else 'untraced'} {name}: exit {code}")
            passes[traced] = time.perf_counter() - begin
        finally:
            for module, attr, original in undo:
                setattr(module, attr, original)

    recorder.write(spec["spans"], [name for name, _ in spec["traced"]])
    metrics = layer_metrics(recorder, {name: i for i, (name, _) in enumerate(spec["traced"])})
    metrics["cli.import_s"] = import_s
    metrics["cli.import_rss_mb"] = import_rss_mb
    metrics["trace.overhead_s"] = passes[True] - passes[False]
    with open(spec["metrics"], "w") as fh:
        json.dump({"metrics": metrics, "failures": failures}, fh)
    return 0


def _call(cli, argv) -> int:
    try:
        return cli.main(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else 1


class Recorder:
    """Spans as parallel arrays: name, parent, run, start, end, items.

    items is the work a call was handed: the number of (h, t) points for
    an analytic curve, the number of delays drawn, the SGD steps asked.
    """

    def __init__(self) -> None:
        from array import array
        self.names: list[str] = []
        self.name = array("i")
        self.parent = array("i")
        self.run = array("i")
        self.start = array("q")
        self.end = array("q")
        self.items = array("q")
        self.stack: list[int] = []
        self.layers: list[str] = []
        self.run_id = 0
        self.counts: dict[str, int] = {}
        self.peak_alloc: list[int] = []

    def name_id(self, name: str) -> int:
        self.names.append(name)
        return len(self.names) - 1

    def write(self, path: str, run_names: list[str]) -> None:
        origin = self.start[0] if self.start else 0
        with open(path, "w") as fh:
            fh.write("run,span,parent,name,start_ns,end_ns,items\n")
            for i in range(len(self.start)):
                fh.write(f"{run_names[self.run[i]]},{i},{self.parent[i]},"
                         f"{self.names[self.name[i]]},{self.start[i] - origin},"
                         f"{self.end[i] - origin},{self.items[i]}\n")


def _items_of(fn):
    """Extractor of a call's work count from its arguments, or None."""
    import inspect

    import numpy as np

    sig = inspect.signature(fn)
    names = list(sig.parameters)

    def arg(name, args, kwargs):
        if name in kwargs:
            return kwargs[name]
        i = names.index(name)
        return args[i] if i < len(args) else sig.parameters[name].default

    if "t" in names:
        return lambda a, k: int(np.prod(np.broadcast_shapes(
            np.shape(arg("h", a, k)) if "h" in names else (), np.shape(arg("t", a, k)))))
    if "size" in names:
        return lambda a, k: arg("size", a, k) or 1
    if "h_steps" in names:
        return lambda a, k: arg("h_steps", a, k)
    return None


def _span_wrapper(rec: Recorder, layer: str, name: str, fn):
    import functools
    import tracemalloc
    from time import perf_counter_ns

    nid = rec.name_id(f"{layer}.{name}")
    leaf = layer == "analytic"
    items_of = _items_of(fn)
    track_alloc = (layer, name) == ("mcsim", "simulate_rounds")

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        layers = rec.layers
        if leaf and layers and layers[-1] == layer:
            return fn(*args, **kwargs)
        idx = len(rec.start)
        rec.name.append(nid)
        rec.parent.append(rec.stack[-1] if rec.stack else -1)
        rec.run.append(rec.run_id)
        rec.items.append(items_of(args, kwargs) if items_of else 1)
        rec.end.append(0)
        rec.stack.append(idx)
        layers.append(layer)
        if track_alloc:
            tracemalloc.start()
        rec.start.append(perf_counter_ns())
        try:
            return fn(*args, **kwargs)
        finally:
            rec.end[idx] = perf_counter_ns()
            if track_alloc:
                rec.peak_alloc.append(tracemalloc.get_traced_memory()[1])
                tracemalloc.stop()
            rec.stack.pop()
            layers.pop()
    return wrapper


def _count_wrapper(rec: Recorder, key: str, fn):
    import functools

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        rec.counts[key] = rec.counts.get(key, 0) + 1
        return fn(*args, **kwargs)
    return wrapper


def public_functions(module):
    import inspect
    names = getattr(module, "__all__", None) or [n for n in vars(module) if not n.startswith("_")]
    for name in names:
        value = getattr(module, name)
        if inspect.isfunction(value) and value.__module__ == module.__name__:
            yield name, value


def install(rec: Recorder, modules: dict) -> list:
    """Wrap every public function and cli's bindings of them; return the
    (module, attribute, original) triples that undo it."""
    undo = []
    wrappers = {}
    for layer, module in modules.items():
        for name, fn in list(public_functions(module)):
            wrappers[fn] = _span_wrapper(rec, layer, name, fn)
            undo.append((module, name, fn))
            setattr(module, name, wrappers[fn])
    cli = modules["cli"]
    for name, value in list(vars(cli).items()):
        if callable(value) and value in wrappers:
            undo.append((cli, name, value))
            setattr(cli, name, wrappers[value])
    flsim = modules["flsim"]
    draw = flsim.sample_computing_delay
    undo.append((flsim, "sample_computing_delay", draw))
    flsim.sample_computing_delay = _count_wrapper(rec, "flsim.delay_draws", draw)
    return undo


def layer_metrics(rec: Recorder, runs: dict[str, int]) -> dict[str, float]:
    import numpy as np

    name = np.frombuffer(rec.name, dtype=np.int32)
    parent = np.frombuffer(rec.parent, dtype=np.int32)
    run = np.frombuffer(rec.run, dtype=np.int32)
    start = np.frombuffer(rec.start, dtype=np.int64)
    dur = (np.frombuffer(rec.end, dtype=np.int64) - start) / 1e9
    items = np.frombuffer(rec.items, dtype=np.int64)
    nested = parent >= 0
    child_time = np.bincount(parent[nested], weights=dur[nested], minlength=dur.size)
    label = np.array(rec.names, dtype=object)[name] if name.size else np.array([], dtype=object)
    layer = np.array([s.split(".", 1)[0] for s in label], dtype=object)

    def spans(span_name: str, command: str):
        return (label == span_name) & (run == runs[command])

    def in_layer(layer_name: str, command: str):
        return (layer == layer_name) & (run == runs[command])

    m = {}
    sweep = spans("cli.cmd_sweep", "sweep")
    m["cli.sweep_self_s"] = float((dur - child_time)[sweep].sum())

    opt = in_layer("analytic", "optimize")
    m["analytic.optimize_calls"] = int(opt.sum())
    m["analytic.optimize_s"] = float(dur[opt].sum())
    swp = in_layer("analytic", "sweep")
    m["analytic.sweep_points"] = int(items[swp].sum())
    m["analytic.sweep_s"] = float(dur[swp].sum())

    search = spans("optimizer.optimize_schedule", "optimize")
    m["optimizer.optimize_schedule_s"] = float(dur[search].sum())
    inner = 0.0
    for i in np.flatnonzero(search):
        end = start[i] + dur[i] * 1e9
        inner += float(dur[opt & (start >= start[i]) & (start <= end)].sum())
    m["optimizer.self_s"] = m["optimizer.optimize_schedule_s"] - inner

    sim = spans("mcsim.simulate_rounds", "validate")
    m["mcsim.simulate_rounds_s"] = float(dur[sim].sum())
    m["mcsim.attempts"] = int(items[spans("mcsim.sample_computing_delay", "validate")].sum())
    m["mcsim.attempts_per_s"] = (m["mcsim.attempts"] / m["mcsim.simulate_rounds_s"]
                                 if m["mcsim.simulate_rounds_s"] else 0.0)
    m["mcsim.peak_alloc_mb"] = max(rec.peak_alloc, default=0) / 2**20
    compare = spans("mcsim.compare_to_poisson", "validate")
    m["mcsim.compare_to_poisson_s"] = float(dur[compare].sum())

    fl = spans("flsim.run_fl", "fl")
    m["flsim.run_fl_s"] = float(dur[fl].sum())
    m["flsim.run_fl_self_s"] = float((dur - child_time)[fl].sum())
    m["flsim.delay_draws"] = rec.counts.get("flsim.delay_draws", 0)
    for fn in ("local_sgd", "aggregate", "mse_loss"):
        sel = spans(f"flsim.{fn}", "fl")
        m[f"flsim.{fn}_s"] = float(dur[sel].sum())
        m[f"flsim.{fn}_calls"] = int(sel.sum())
    m["flsim.sgd_steps"] = int(items[spans("flsim.local_sgd", "fl")].sum())
    m["flsim.generate_task_s"] = float(dur[spans("flsim.generate_task", "fl")].sum())
    m["flsim.proxy_correlation_s"] = float(dur[spans("flsim.proxy_correlation", "fl")].sum())
    return m


if __name__ == "__main__":
    sys.exit(main())
