"""Run one workload in this process and print its result as one JSON line.

``run.py`` starts this file in a fresh child process with BLAS/OpenMP pinned
to one thread and ``src`` on ``PYTHONPATH``; it is not meant to be run alone.

With ``--trace 0`` the set-up runs ``SETUP_REPEATS`` times and the workload
is then measured for ``--seconds``; the result holds the end-to-end metrics.
With ``--trace 1`` the first half of the time is measured untraced and the
second half traced (a fresh traced set-up first), which gives the per-layer
metrics and the cost of tracing itself.  Spans are written to
``.perfbench/trace-<workload>-seed<seed>.jsonl`` at the end.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import shutil
import statistics
import tempfile
from collections import Counter, defaultdict
from pathlib import Path
from time import perf_counter, process_time

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
OUT_DIR = ROOT / ".perfbench"

SETUP_REPEATS = 5
# inference time after each main unit, as a share of that unit's time
INFER_PER_MAIN = 1 / 3
# inference units per run at least, so that their median has ten samples
MIN_INFER_UNITS = 10

LAYER_KINDS = ("dense-conv", "tt-conv", "naive-tt-conv", "dense-fc", "tt-fc",
               "relu", "max-pool", "batch-norm", "zero-pad")
COST_KINDS = ("tt-conv", "naive-tt-conv", "dense-conv")
TT_FUNCTIONS = ("tt.tt_svd", "tt.tt_full", "kernels.ttconv_from_dense",
                "kernels.naive_ttconv_from_dense", "kernels.ttconv_to_dense",
                "kernels.naive_ttconv_to_dense", "ttmatrix.ttm_from_dense",
                "ttmatrix.ttm_full", "ttmatrix.ttm_matvec")
IO_FUNCTIONS = {"ttcv": "ttconv", "tt": "tt", "ttm": "ttmatrix"}
SETUP_FUNCTIONS = ("data.stripes_vs_blobs", "config.load_config", "config.build_network")


def _check_library():
    import ttconv

    src = (ROOT / "src").resolve()
    if src not in Path(ttconv.__file__).resolve().parents:
        raise SystemExit(f"ttconv was imported from {ttconv.__file__}, not from {src}")


def measure(wl, seconds, tracer=None):
    """Main units, each followed by inference units for a share of its time,
    until ``seconds`` of wall time have passed.  Interleaving spreads the
    inference samples over the whole run rather than one stretch of it."""
    from workloads import Tally

    wl.tally = Tally()
    phase = tracer.phase if tracer else (lambda name: contextlib.nullcontext())

    def run(name, unit, check):
        with phase(name):
            unit()
        with phase("bench.check"):
            check()

    start = perf_counter()
    infer_units = 0
    while perf_counter() - start < seconds:
        t = perf_counter()
        run("bench.main", wl.main_unit, wl.check_main)
        now = perf_counter()
        until = now + INFER_PER_MAIN * (now - t)
        while True:
            run("bench.infer", wl.infer_unit, wl.check_infer)
            infer_units += 1
            if perf_counter() >= until:
                break
    for _ in range(infer_units, MIN_INFER_UNITS):
        run("bench.infer", wl.infer_unit, wl.check_infer)
    return wl.tally


def end_to_end(wl, tally, setup_s):
    return {
        "setup_s": statistics.median(setup_s),
        "step_ms_p50": statistics.median(tally.step_ms),
        "work_per_s": tally.main_items / tally.main_s,
        "infer_per_s": statistics.median(tally.infer_rates),
        "compression_ratio": wl.compression_ratio(),
    }


def readable(wl, tally):
    """The same numbers under their workload-specific names, for people."""
    out = {"step_ms_p50.samples": (len(tally.step_ms), "count")}
    if wl.net is not None:
        out["train_samples_per_s"] = (tally.main_items / tally.main_s, "samples/s")
        out["infer_images_per_s"] = (statistics.median(tally.infer_rates), "images/s")
    else:
        out["compress_mparams_per_s"] = (tally.main_items / tally.main_s / 1e6, "Mparams/s")
        out["matvec_per_s"] = (statistics.median(tally.infer_rates), "vectors/s")
    out.update(wl.report())
    return out


def install_spans(tracer):
    from ttconv import config, data, io, kernels, nn, tt, ttmatrix

    modules = {"config": config, "data": data, "kernels": kernels, "tt": tt,
               "ttmatrix": ttmatrix, "nn": nn}
    for name in TT_FUNCTIONS + SETUP_FUNCTIONS + ("nn.train", "nn.evaluate"):
        module, attr = name.split(".")
        tracer.patch_function(modules[module], attr, name)
    for fmt, stem in IO_FUNCTIONS.items():
        tracer.patch_function(io, f"save_{stem}", f"io.{fmt}.save")
        tracer.patch_function(io, f"load_{stem}", f"io.{fmt}.load")
    tracer.patch_method(nn.Network, "build", "nn.build")


def per_layer(wl, tracer, untraced, traced):
    from costs import forward_flops_per_image

    count, self_s, incl_s = Counter(), defaultdict(float), defaultdict(float)
    layer_s = defaultdict(float)       # layer index -> fwd + bwd self time
    fwd_s = defaultdict(float)         # layer index -> fwd self time
    fwd_images = defaultdict(int)      # layer index -> images through fwd
    setup_count, setup_s = Counter(), defaultdict(float)
    eval_in_main = 0.0
    for name, phase, dur, own, span in tracer.table():
        if phase == "bench.setup":
            setup_count[name] += 1
            setup_s[name] += own
            continue
        if phase == "bench.check":
            continue
        count[name] += 1
        self_s[name] += own
        incl_s[name] += dur
        if "layer" in span and not name.endswith(".eval"):
            layer_s[span["layer"]] += own
            if name.endswith(".fwd"):
                fwd_s[span["layer"]] += own
                fwd_images[span["layer"]] += span["b"]
        if name == "nn.evaluate" and phase == "bench.main":
            eval_in_main += dur

    for name in wl.expected_spans:
        if not count[name] + setup_count[name]:
            raise RuntimeError(f"traced run saw no call of {name}")
    layers = wl.net.layers if wl.net is not None else []
    for kind in {layer.kind for layer in layers}:
        for part in ("fwd", "bwd", "eval"):
            if not count[f"nn.{kind}.{part}"]:
                raise RuntimeError(f"traced run saw no nn.{kind}.{part}")

    def per(name, n):
        return 1e3 * self_s[name] / n if n else 0.0

    steps, evals = count["nn.sgd_step"], count["nn.evaluate"]
    train_s = incl_s["nn.train"] - eval_in_main
    m = {}
    for kind in LAYER_KINDS:
        fwd, bwd, ev = (f"nn.{kind}.{part}" for part in ("fwd", "bwd", "eval"))
        m[f"nn.{kind}.fwd_ms"] = per(fwd, steps)
        m[f"nn.{kind}.bwd_ms"] = per(bwd, steps)
        m[f"nn.{kind}.eval_ms"] = per(ev, evals)
        m[f"nn.{kind}.calls"] = count[fwd] + count[bwd] + count[ev]
        m[f"nn.{kind}.step_share"] = (self_s[fwd] + self_s[bwd]) / train_s if train_s else 0.0

    shapes = tracer.input_shapes
    dense_at = {(shapes[i], layer.ell, layer.out_channels): i
                for i, layer in enumerate(layers) if layer.kind == "dense-conv"}
    for kind in ("tt-conv", "naive-tt-conv"):
        num = den = 0.0
        for i, layer in enumerate(layers):
            j = dense_at.get((shapes[i], layer.ell, layer.out_channels)) if layer.kind == kind else None
            if j is not None:
                num += layer_s[i]
                den += layer_s[j]
        m[f"nn.{kind}.dense_ratio"] = num / den if den else 0.0
    for kind in COST_KINDS:
        gflop = flops_done = secs = 0.0
        for i, layer in enumerate(layers):
            if layer.kind == kind:
                per_image = forward_flops_per_image(layer, shapes[i])
                gflop += per_image * wl.batch / 1e9
                flops_done += per_image * fwd_images[i]
                secs += fwd_s[i]
        m[f"kernels.{kind}.fwd_gflop"] = gflop
        m[f"nn.{kind}.fwd_gflops_per_s"] = flops_done / secs / 1e9 if secs else 0.0

    m["nn.loss_ms"] = per("nn.loss", steps)
    m["nn.sgd_step_ms"] = per("nn.sgd_step", steps)
    m["nn.evaluate_ms"] = 1e3 * incl_s["nn.evaluate"] / evals if evals else 0.0
    p90 = statistics.quantiles(untraced.step_ms, n=10)[-1] if layers else 0.0
    m["nn.step_ms_p90"] = p90
    m["nn.step_ms_p90.samples"] = len(untraced.step_ms) if layers else 0

    for name in TT_FUNCTIONS:
        m[f"{name}.ms"] = per(name, count[name])
    m["tt.tt_svd.calls"] = count["tt.tt_svd"]
    file_bytes = getattr(wl, "file_bytes", {})
    for fmt in IO_FUNCTIONS:
        m[f"io.{fmt}.save_ms"] = per(f"io.{fmt}.save", count[f"io.{fmt}.save"])
        m[f"io.{fmt}.load_ms"] = per(f"io.{fmt}.load", count[f"io.{fmt}.load"])
        sizes = file_bytes.get(fmt)
        m[f"io.{fmt}.bytes"] = statistics.fmean(sizes) if sizes else 0.0
    for name in SETUP_FUNCTIONS + ("nn.build",):
        m[f"{name}.ms"] = 1e3 * setup_s[name] / setup_count[name] if setup_count[name] else 0.0
    m["trace.overhead_frac"] = (statistics.median(traced.step_ms)
                                / statistics.median(untraced.step_ms) - 1.0)
    return m


def environment():
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    pins = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "threads": {k: os.environ.get(k) for k in pins},
    }


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args()
    _check_library()

    from spans import Tracer
    from workloads import WORKLOADS

    OUT_DIR.mkdir(exist_ok=True)
    scratch = tempfile.mkdtemp(prefix=f"{args.workload}-", dir=OUT_DIR)
    try:
        wl = WORKLOADS[args.workload](args.seed, scratch)
        if not args.trace:
            setup_s = []
            for _ in range(SETUP_REPEATS):
                start = process_time()
                wl.setup()
                setup_s.append(process_time() - start)
            tally = measure(wl, args.seconds)
            wl.check_final()
            metrics = end_to_end(wl, tally, setup_s)
        else:
            wl.setup()
            untraced = measure(wl, args.seconds / 2)
            tracer = Tracer(f"{args.workload}:{args.seed}:{os.getpid()}")
            install_spans(tracer)
            try:
                with tracer.phase("bench.setup"):
                    wl.setup()
                wl.tracer = tracer
                if wl.net is not None:
                    tracer.instrument_network(wl.net)
                tally = traced = measure(wl, args.seconds / 2, tracer)
            finally:
                tracer.restore()
                wl.tracer = None
            wl.check_final()
            metrics = per_layer(wl, tracer, untraced, traced)
            tracer.dump(OUT_DIR / f"trace-{args.workload}-seed{args.seed}.jsonl",
                        {"env": environment(), "seed": args.seed})
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
    print(json.dumps({
        "attempted": wl.attempted,
        "failed": wl.failed,
        "metrics": metrics,
        "readable": readable(wl, tally),
        "env": environment(),
    }))


if __name__ == "__main__":
    main()
