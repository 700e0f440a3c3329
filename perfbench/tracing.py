"""Outside-in tracing of lqa's layers, installed only in a traced run.

`Tracer.install` replaces public functions of `lqa.data`, `lqa.tensor`,
`lqa.nn`, `lqa.optim` and `lqa.bench` (and, on first sight of a model, each
layer's forward and backward) with wrappers that record a span: name, start,
end and the index of the enclosing span. Spans stay in memory and are written
once, when the run ends. Nothing inside the program is edited.

`summarise` turns the spans of several traced runs into the per-layer
metrics named in the benchmark README.
"""

import bisect
import time

import numpy as np

_now = time.perf_counter

# span names of the calls that make up a step's compute; the rest of a
# clock-to-clock step interval is loop bookkeeping
STEP_COMPUTE = ("nn.grad", "optim.lqa", "optim.sgd", "optim.adam")


def _batch_bytes(batch):
    return sum(getattr(batch, f).nbytes for f in ("indices", "inputs", "labels"))


class Tracer:
    def __init__(self):
        self.spans = []  # [name, start, end, parent index or -1]
        self.epochs = []  # [seconds, bytes] per epoch_batches call
        self.train_bytes = []
        self._stack = []
        self._models = []

    def span(self, name, fn):
        spans, stack = self.spans, self._stack

        def timed(*args, **kwargs):
            idx = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(idx)
            start = _now()
            try:
                return fn(*args, **kwargs)
            finally:
                spans[idx] = [name, start, _now(), parent]
                stack.pop()

        return timed

    def install(self, bench, data, nn, optim, tensor):
        data.load_mnist = self._load(data.load_mnist)
        data.epoch_batches = self._epoch_batches(data.epoch_batches)
        tensor.Rng.permutation = self.span("tensor.permutation", tensor.Rng.permutation)
        nn.backward = self._model_entry("nn.grad", nn.backward)
        nn.forward_loss = self._model_entry("nn.forward", nn.forward_loss)
        nn.make_loss_probe = self._probe_factory(nn.make_loss_probe)
        optim.lqa_step = self.span("optim.lqa", optim.lqa_step)
        optim.make_baseline = self._baseline_factory(optim.make_baseline)
        bench.emit_csv = self.span("bench.emit_csv", bench.emit_csv)

    def _load(self, fn):
        timed = self.span("data.load", fn)

        def load(*args, **kwargs):
            result = timed(*args, **kwargs)
            train = result[0]
            self.train_bytes.append(train.inputs.nbytes + train.labels.nbytes)
            return result

        return load

    def _epoch_batches(self, fn):
        timed = self.span("data.epoch_batches", fn)

        def epoch_batches(*args, **kwargs):
            entry = [0.0, 0]
            self.epochs.append(entry)
            start = _now()
            result = timed(*args, **kwargs)
            entry[0] += _now() - start
            if isinstance(result, (list, tuple)):
                entry[1] = sum(_batch_bytes(b) for b in result)
                return result
            # a lazy epoch (planned for the data path) is timed draw by draw
            return self._lazy_batches(iter(result), entry)

        return epoch_batches

    def _lazy_batches(self, it, entry):
        # a generator of batches: time each draw and count what it materialises
        draw = self.span("data.epoch_batches.next", lambda: next(it, None))
        while True:
            start = _now()
            batch = draw()
            entry[0] += _now() - start
            if batch is None:
                return
            entry[1] += _batch_bytes(batch)
            yield batch

    def _model_entry(self, name, fn):
        timed = self.span(name, fn)

        def entry(model, *args, **kwargs):
            if not any(m is model for m in self._models):
                self._instrument(model)
            return timed(model, *args, **kwargs)

        return entry

    def _instrument(self, model):
        self._models.append(model)
        for i, layer in enumerate(model.layers):
            tag = f"nn.{i}-{type(layer).__name__}"
            layer.forward = self.span(tag + ".fwd", layer.forward)
            layer.backward = self.span(tag + ".bwd", layer.backward)

    def _probe_factory(self, make):
        def make_loss_probe(*args, **kwargs):
            probe = make(*args, **kwargs)
            timed = self.span("nn.probe", probe)
            # probe(0) returns the known loss without a forward pass; only
            # the probes that run a forward are timed
            return lambda s: probe(s) if float(s) == 0.0 else timed(s)

        return make_loss_probe

    def _baseline_factory(self, make):
        def make_baseline(name, *args, **kwargs):
            stepper = make(name, *args, **kwargs)
            stepper.step = self.span(f"optim.{name}", stepper.step)
            return stepper

        return make_baseline

    def dump(self):
        return {"spans": self.spans, "epochs": self.epochs, "train_bytes": self.train_bytes}


def _median(values, scale=1.0):
    return scale * float(np.median(values)) if len(values) else None


def _loop_ms(spans, stamps):
    """Per step: clock-to-clock time minus the top-level compute spans in it."""
    inner = [0.0] * (len(stamps) - 1)
    for name, start, end, parent in spans:
        if parent == -1 and name in STEP_COMPUTE:
            k = bisect.bisect_right(stamps, start) - 1
            if 0 <= k < len(inner):
                inner[k] += end - start
    return [1e3 * (b - a - c) for a, b, c in zip(stamps, stamps[1:], inner)]


def summarise(runs):
    """Per-layer metrics from traced runs.

    `runs` holds dicts with the child's "trace" dump and "stamps" (the step
    clock). Timings are medians per call in ms unless the name says
    otherwise; a name whose layer never ran is absent from the result.
    """
    durations = {}
    loop = []
    lqa_self = []
    epochs, train_bytes = [], []
    for run in runs:
        trace = run["trace"]
        spans = trace["spans"]
        probe_time = {}
        for name, start, end, parent in spans:
            durations.setdefault(name, []).append(end - start)
            if name == "nn.probe" and parent >= 0:
                probe_time[parent] = probe_time.get(parent, 0.0) + (end - start)
        for idx, (name, start, end, _) in enumerate(spans):
            if name == "optim.lqa":
                lqa_self.append(end - start - probe_time.get(idx, 0.0))
        loop.extend(_loop_ms(spans, run["stamps"]))
        epochs.extend(trace["epochs"])
        train_bytes.extend(trace["train_bytes"])

    def ms(name):
        return _median(durations.get(name, []), 1e3)

    grad = durations.get("nn.grad", [])
    out = {
        "data.load_s": _median(durations.get("data.load", [])),
        "data.train_mb": _median(train_bytes, 2.0**-20),
        "data.epoch_batches_ms": _median([e[0] for e in epochs], 1e3),
        "data.epoch_mb": _median([e[1] for e in epochs], 2.0**-20),
        "tensor.permutation_ms": ms("tensor.permutation"),
        "nn.grad_ms": ms("nn.grad"),
        "nn.grad_ms_p90": 1e3 * float(np.percentile(grad, 90)) if grad else None,
        "nn.forward_ms": ms("nn.forward"),
        "nn.probe_ms": ms("nn.probe"),
        "optim.lqa.update_ms": _median(lqa_self, 1e3),
        "optim.sgd.update_ms": ms("optim.sgd"),
        "optim.adam.update_ms": ms("optim.adam"),
        "bench.loop_ms": _median(loop),
        "bench.emit_csv_ms": ms("bench.emit_csv"),
    }
    if out["nn.probe_ms"] is not None and out["nn.forward_ms"] is not None:
        out["nn.probe_arith_ms"] = out["nn.probe_ms"] - out["nn.forward_ms"]
    for name in durations:
        if name.startswith("nn.") and name.endswith((".fwd", ".bwd")):
            out[name + "_ms"] = ms(name)
    return {k: v for k, v in out.items() if v is not None}
