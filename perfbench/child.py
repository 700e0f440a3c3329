"""One `lqa.run_training` call in a fresh process.

    python3 perfbench/child.py SPEC_JSON

SPEC_JSON names the checkout root, the training config, the step count, the
output directory and whether to trace. The child times the call through the
`clock` it passes to `run_training`, records its own peak RSS when the call
returns, and writes `result.json` to the output directory. Two light hooks run
in every run, traced or not, to feed the correctness checks: one saves the
parameters, batch ids and gradient of the first and last `nn.backward` call
straight to disk, the other keeps the losses each LQA probe returns.
"""

import json
import os
import resource
import sys
import time

import numpy as np

ZOO = ("sgd-m", "sgd-nag", "adagrad", "rmsprop")
ZOO_CALLS = 10


class CheckHooks:
    def __init__(self, out_dir, last_step):
        self.out_dir = out_dir
        self.last_step = last_step
        self.calls = 0
        self.losses = {}
        self.probes = []

    def _save(self, tag, what, array):
        np.save(os.path.join(self.out_dir, f"{tag}_{what}.npy"), array)

    def install(self, nn):
        backward, make_probe = nn.backward, nn.make_loss_probe

        def hooked_backward(model, batch, params, *args, **kwargs):
            self.calls += 1
            tag = {1: "first", self.last_step: "last"}.get(self.calls)
            if tag:
                self._save(tag, "params", params)
                self._save(tag, "indices", batch.indices)
            loss, grad = backward(model, batch, params, *args, **kwargs)
            if tag:
                self._save(tag, "grad", grad)
                self.losses[tag] = float(loss)
            return loss, grad

        def hooked_make_probe(*args, **kwargs):
            probe = make_probe(*args, **kwargs)
            seen = []
            self.probes.append(seen)

            def recorded(s):
                value = probe(s)
                seen.append((float(s), float(value)))
                return value

            return recorded

        nn.backward = hooked_backward
        nn.make_loss_probe = hooked_make_probe


def time_zoo(make_baseline, out_dir):
    """Median ms of each other baseline's step on the run's last params and gradient."""
    params = np.load(os.path.join(out_dir, "last_params.npy"))
    grad = np.load(os.path.join(out_dir, "last_grad.npy"))
    out = {}
    for name in ZOO:
        stepper = make_baseline(name, 0.01, params.size)
        p, times = params, []
        for _ in range(ZOO_CALLS):
            start = time.perf_counter()
            stepped = stepper.step(p, grad)
            times.append(time.perf_counter() - start)
            p = p if stepped is None else stepped
        out[name] = 1e3 * float(np.median(times))
    return out


def main(spec):
    sys.path.insert(0, os.path.join(spec["root"], "src"))
    from lqa import bench, data, nn, optim, tensor

    make_baseline = optim.make_baseline
    tracer = None
    if spec["trace"]:
        from tracing import Tracer

        tracer = Tracer()
        tracer.install(bench, data, nn, optim, tensor)
    hooks = CheckHooks(spec["out_dir"], spec["steps"])
    hooks.install(nn)

    config = bench.TrainConfig(**spec["config"])
    stamps = []
    perf = time.perf_counter

    def clock():
        t = perf()
        stamps.append(t)
        return t

    status = "ok"
    start = perf()
    try:
        bench.run_training(config, clock=clock)
    except bench.TrainingDiverged as exc:
        status = f"diverged: {exc}"
    end = perf()
    peak_kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss

    result = {
        "status": status,
        "setup_s": stamps[0] - start if stamps else None,
        "wall_s": end - start,
        "stamps": stamps,
        "peak_rss_mb": peak_kib / 1024.0,
        "losses": hooks.losses,
        "probes": hooks.probes,
    }
    if tracer is not None:
        result["trace"] = tracer.dump()
        if spec["config"]["optimizer"] == "sgd" and status == "ok":
            result["zoo_ms"] = time_zoo(make_baseline, spec["out_dir"])
    with open(os.path.join(spec["out_dir"], "result.json"), "w") as f:
        json.dump(result, f)


if __name__ == "__main__":
    main(json.loads(sys.argv[1]))
