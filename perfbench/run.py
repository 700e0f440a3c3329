"""Outside-in benchmark of lqa's training loop.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout. Each workload trains one of the
paper's models on seeded synthetic MNIST-shaped IDX files through the public
`lqa.run_training` API, once with each of `lqa`, `sgd` and `adam`; those three
runs are one round. Every run is its own child process, run one at a time with
BLAS and OpenMP pinned to one thread: a closed loop from a single process, a
batch job rather than a server. Rounds repeat until the next one would end
past `--seconds`.

With `--trace 0` the command prints the end-to-end metrics. With `--trace 1`
it runs one untraced round as the reference and then traced rounds, and
prints the per-layer metrics. Every run is checked (see checks.py); a run
that diverges or fails a check counts as failed. The last line of standard
output is one JSON object: correct, attempted, failed and metrics.
"""

import argparse
import json
import os
import shutil
import subprocess
import sys
import time

import numpy as np

import checks
import inputs
import tracing

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORK = os.path.join(ROOT, ".perfbench_work")

OPTIMIZERS = ("lqa", "sgd", "adam")
LR = {"sgd": 0.05, "adam": 0.001}
BATCH = 64
TRIM = 0.1  # share of values cut from each end before a time's mean
CHILD_TIMEOUT_S = 60
PINS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")

# why each workload is here: see README.md
WORKLOADS = {
    "logreg-mnist60k": dict(model="logreg", n_train=60000, n_test=10000, epochs=1),
    "mlp-mnist": dict(model="mlp", n_train=1024, n_test=1000, epochs=2),
    "lenet5-mnist": dict(model="lenet5", n_train=1024, n_test=1000, epochs=2),
}
TINY = {
    "logreg-mnist60k": dict(n_train=1280, n_test=64),
    "mlp-mnist": dict(n_train=256, n_test=64),
    "lenet5-mnist": dict(n_train=256, n_test=64),
}
# runs whose final epoch_loss must be below their first train_loss: LQA's
# greedy rate blows up the MLP's loss on a few seeds and LeNet-5's on many (README)
PROGRESS = {("logreg", "lqa"), ("logreg", "sgd"), ("logreg", "adam"), ("mlp", "sgd"), ("mlp", "adam")}

MODEL_LAYERS = {
    "logreg": ("Dense",),
    "mlp": ("Dense", "Relu", "Dense", "Relu", "Dense"),
    "lenet5": (
        "SpatialZeroPad", "Conv2d", "Relu", "MaxPool2", "Conv2d", "Relu", "MaxPool2",
        "Flatten", "Dense", "Relu", "Dense", "Relu", "Dense",
    ),
}

END_TO_END = [("setup_s", "s"), ("wall_s", "s"), ("peak_rss_mb", "MB")] + [
    (f"{opt}_step_ms", "ms") for opt in OPTIMIZERS
]


def _layer_metrics():
    names = []
    for layers in MODEL_LAYERS.values():
        for i, cls in enumerate(layers):
            for part in ("fwd", "bwd"):
                name = f"nn.{i}-{cls}.{part}_ms"
                if name not in names:
                    names.append(name)
    return [(n, "ms") for n in names]


PER_LAYER = (
    [
        ("data.load_s", "s"),
        ("data.train_mb", "MB"),
        ("data.epoch_batches_ms", "ms"),
        ("data.epoch_mb", "MB"),
        ("tensor.permutation_ms", "ms"),
        ("nn.grad_ms", "ms"),
        ("nn.grad_ms_p90", "ms"),
        ("nn.forward_ms", "ms"),
        ("nn.probe_ms", "ms"),
        ("nn.probe_arith_ms", "ms"),
    ]
    + _layer_metrics()
    + [(f"optim.{opt}.update_ms", "ms") for opt in OPTIMIZERS]
    + [(f"optim.{name}.update_ms", "ms") for name in ("sgd-m", "sgd-nag", "adagrad", "rmsprop")]
    + [
        ("optim.lqa.accepted_share", "ratio"),
        ("bench.loop_ms", "ms"),
        ("bench.emit_csv_ms", "ms"),
    ]
    + [(f"bench.{opt}_step_ms_p90", "ms") for opt in OPTIMIZERS]
    + [(f"mem.{opt}.peak_rss_mb", "MB") for opt in OPTIMIZERS]
)


def environment():
    """What each run records about the machine and the code it measured."""
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    sha = "none (not a git checkout)"
    if os.path.isdir(os.path.join(ROOT, ".git")):
        env = dict(os.environ, GIT_DIR=os.path.join(ROOT, ".git"))
        got = subprocess.run(
            ["git", "rev-parse", "HEAD"], capture_output=True, text=True, env=env, cwd=ROOT
        )
        sha = got.stdout.strip() or sha
    return {
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "threads": {k: "1" for k in PINS},
        "nproc": os.cpu_count(),
        "git_sha": sha,
        "python": sys.version.split()[0],
    }


class Bench:
    def __init__(self, workload, seed, tiny):
        self.name = workload
        self.wl = dict(WORKLOADS[workload], **(TINY[workload] if tiny else {}))
        self.seed = seed
        self.steps = self.wl["epochs"] * (self.wl["n_train"] // BATCH)
        self.run_dir = os.path.join(WORK, "runs", f"{workload}-seed{seed}")
        self.attempted = 0
        self.failed = 0
        self.problems = []
        self.data_dir = self.train = None
        self.reference = None  # the untraced round that traced runs must reproduce

    def prepare(self):
        self.data_dir, self.train = inputs.ensure(
            os.path.join(WORK, "inputs"), self.seed, self.wl["n_train"], self.wl["n_test"]
        )
        shutil.rmtree(os.path.join(WORK, "runs"), ignore_errors=True)
        os.makedirs(self.run_dir)

    def config(self, optimizer):
        return dict(
            model=self.wl["model"], dataset="mnist", optimizer=optimizer,
            lr=LR.get(optimizer), batch_size=BATCH, epochs=self.wl["epochs"],
            seed=self.seed, data_dir=self.data_dir,
        )

    def run_child(self, optimizer, traced, index):
        out_dir = os.path.join(self.run_dir, f"{index:03d}-{optimizer}-{'traced' if traced else 'plain'}")
        os.makedirs(out_dir)
        config = dict(self.config(optimizer), out=os.path.join(out_dir, "metrics.csv"))
        spec = dict(root=ROOT, config=config, steps=self.steps, out_dir=out_dir, trace=traced)
        env = dict(os.environ, **{k: "1" for k in PINS})
        self.attempted += 1
        try:
            proc = subprocess.run(
                [sys.executable, os.path.join(HERE, "child.py"), json.dumps(spec)],
                cwd=ROOT, env=env, capture_output=True, text=True, timeout=CHILD_TIMEOUT_S,
            )
        except subprocess.TimeoutExpired:
            return self._fail(optimizer, f"no result within {CHILD_TIMEOUT_S} s")
        if proc.returncode != 0:
            return self._fail(optimizer, f"exit {proc.returncode}: {proc.stderr.strip()[-600:]}")
        with open(os.path.join(out_dir, "result.json")) as f:
            result = json.load(f)
        if result["status"] != "ok":
            return self._fail(optimizer, result["status"])
        result["rows"] = checks.read_rows(config["out"])
        problems = self.check(optimizer, result, out_dir)
        for name in os.listdir(out_dir):
            if name.endswith(".npy"):
                os.remove(os.path.join(out_dir, name))
        if traced:
            problems += checks.check_identical(result["rows"], self.reference[optimizer]["rows"])
        if problems:
            self.problems.extend(f"{optimizer}: {p}" for p in problems)
            return self._fail(optimizer, "; ".join(problems))
        return result

    def _fail(self, optimizer, why):
        self.failed += 1
        print(f"run failed: {self.name} {optimizer}: {why}", file=sys.stderr)
        return None

    def check(self, optimizer, result, out_dir):
        model, rows = self.wl["model"], result["rows"]
        problems = checks.check_rows(rows, optimizer, self.steps, model, (model, optimizer) in PROGRESS)
        if len(result["stamps"]) != len(rows) + 1:
            problems.append(f"{len(result['stamps'])} clock calls for {len(rows)} steps")
        if optimizer == "lqa":
            problems += checks.check_lqa_rates(rows, result["probes"], 0.01, 1e-6, 10.0, 1e-12)
        images, labels = self.train
        for tag in ("first",) if model == "lenet5" else ("first", "last"):
            saved = {
                w: np.load(os.path.join(out_dir, f"{tag}_{w}.npy"))
                for w in ("params", "indices", "grad")
            }
            idx = saved["indices"]
            problems += checks.check_step(
                model, f"{tag} step", saved["params"], images[idx] / 255.0,
                labels[idx].astype(np.int64), result["losses"][tag], saved["grad"],
            )
        return problems

    def round(self, traced):
        base = self.attempted
        return {opt: self.run_child(opt, traced, base + i) for i, opt in enumerate(OPTIMIZERS)}

    def rounds(self, traced, deadline):
        """At least one round, then more until the next would end after `deadline`."""
        done = []
        while True:
            t0 = time.perf_counter()
            done.append(self.round(traced))
            now = time.perf_counter()
            if now + (now - t0) > deadline:
                return done


def _median(values):
    return float(np.median(values))


def end_to_end(rounds):
    whole = [r for r in rounds if all(r.values())]
    if not whole:
        raise SystemExit("no round finished without a failed run")
    runs = [res for r in whole for res in r.values()]
    metrics = {
        "setup_s": _median([res["setup_s"] for res in runs]),
        "wall_s": _trimmed_mean([sum(res["wall_s"] for res in r.values()) for r in whole]),
        "peak_rss_mb": _median([max(res["peak_rss_mb"] for res in r.values()) for r in whole]),
    }
    for opt in OPTIMIZERS:
        metrics[f"{opt}_step_ms"] = _trimmed_mean(step_ms([r[opt] for r in whole]))
    return metrics


def _trimmed_mean(values, share=TRIM):
    """Mean of `values` with the lowest and highest `share` of them cut off.

    Times are bimodal on a shared host (fast and slow stretches of seconds to
    minutes, about 1.6x apart), and a median jumps between the two modes as
    their shares shift around one half; a trimmed mean moves with the shares.
    For step times the cut also drops each epoch's first step, which includes
    the epoch's batch gather.
    """
    ordered = np.sort(values)
    cut = int(len(ordered) * share)
    return float(ordered[cut : len(ordered) - cut].mean())


def step_ms(results):
    return [1e3 * (b - a) for res in results for a, b in zip(res["stamps"], res["stamps"][1:])]


def per_layer(reference, traced):
    runs = [res for r in traced for res in r.values() if res]
    out = tracing.summarise(runs)
    for opt in OPTIMIZERS:
        out[f"bench.{opt}_step_ms_p90"] = float(np.percentile(step_ms([reference[opt]]), 90))
        out[f"mem.{opt}.peak_rss_mb"] = reference[opt]["peak_rss_mb"]
    zoo = [res["zoo_ms"] for res in runs if "zoo_ms" in res]
    for name in zoo[0] if zoo else ():
        out[f"optim.{name}.update_ms"] = _median([z[name] for z in zoo])
    verdicts = [row["lqa_verdict"] for r in traced if r["lqa"] for row in r["lqa"]["rows"]]
    out["optim.lqa.accepted_share"] = verdicts.count("accepted") / len(verdicts)
    return out


def overhead(reference, traced):
    """Traced minus untraced median step time per optimizer, in ms."""
    return {
        opt: _median(step_ms([r[opt] for r in traced if r[opt]])) - _median(step_ms([reference[opt]]))
        for opt in OPTIMIZERS
    }


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true", help="smoke-test sizes")
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join(ROOT, "src", "lqa", "bench.py")):
        print(f"error: no lqa sources under {ROOT}/src; run from a source checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, os.path.join(ROOT, "src"))

    bench = Bench(args.workload, args.seed, args.tiny)
    bench.prepare()
    env = environment()
    deadline = time.perf_counter() + args.seconds
    record = {"workload": args.workload, "seed": args.seed, "trace": args.trace, "env": env}
    if args.trace:
        reference = bench.reference = bench.round(False)
        if not all(reference.values()):
            raise SystemExit("the untraced reference round has a failed run")
        traced = bench.rounds(True, deadline)
        values = per_layer(reference, traced)
        record["trace_overhead_ms"] = overhead(reference, traced)
        names, rounds = PER_LAYER, 1 + len(traced)
        for name, _ in PER_LAYER:
            values.setdefault(name, 0.0)  # a layer this workload's model does not have
    else:
        done = bench.rounds(False, deadline)
        values, names, rounds = end_to_end(done), END_TO_END, len(done)

    metrics = {name: {"value": values[name], "unit": unit} for name, unit in names}
    result = {
        "correct": not bench.problems,
        "attempted": bench.attempted,
        "failed": bench.failed,
        "metrics": metrics,
    }
    record.update(result, rounds=rounds, problems=bench.problems)
    os.makedirs(os.path.join(WORK, "results"), exist_ok=True)
    path = os.path.join(WORK, "results", f"{args.workload}-seed{args.seed}-trace{args.trace}.json")
    with open(path, "w") as f:
        json.dump(record, f, indent=1)

    print(f"workload {args.workload}  seed {args.seed}  trace {args.trace}  rounds {rounds}")
    print(
        f"env: numpy {env['numpy']}, blas {env['blas']}, threads "
        + " ".join(f"{k}=1" for k in PINS)
        + f", nproc {env['nproc']}, git {env['git_sha']}"
    )
    if args.trace:
        print("trace overhead (traced - untraced step median, ms): " + json.dumps(record["trace_overhead_ms"]))
    for p in bench.problems:
        print(f"check failed: {p}")
    for name, m in metrics.items():
        print(f"{name} {m['value']:.6g} {m['unit']}")
    print(f"attempted {bench.attempted} runs, failed {bench.failed}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
