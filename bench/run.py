#!/usr/bin/env python3
"""Benchmark of the hybridseg library.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout; the library is imported from
``src/``. Workloads (``bench/README.md`` says why each exists):

  train_binary     ``train.train`` at the acceptance configuration on binary ellipses
  train_mc_paired  the same loop with three classes, multi_lesion data, paired skips
  infer_mc64       ``cli.run`` predict requests and evals on a 64x64 three-class dataset
  all              the three above in turn, in this one process

Each workload is one closed-loop client: the next call starts when the
previous one has returned. Inputs are made from ``--seed``. Set-up runs
``SETUP_REPEATS`` times; then whole units (one ``train.train`` call, or one
cycle of predict requests plus one eval) run until ``--seconds`` have passed.
Every output is checked; an operation whose output fails a check still
counts in the timings, and the result says `correct: false`.

``--trace 0`` runs the library exactly as shipped and reports the end-to-end
metrics. ``--trace 1`` wraps the public functions of every library module
(``tracer.py``) during set-up and every second unit, and reports the
per-layer metrics (``layers.py``). Either way the last line of standard output is one
JSON object with the keys correct, attempted, failed and metrics. A record
of the run, with the host, goes to ``.bench_out/``.
"""

import os
import sys

# Fixed before NumPy loads so every host runs BLAS the same way; one thread
# is never more than the host has, and leaves a core for the rest of it.
BLAS_THREADS = 1
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = str(BLAS_THREADS)

import argparse  # noqa: E402
import contextlib  # noqa: E402
import csv  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import tempfile  # noqa: E402
import time  # noqa: E402
import traceback  # noqa: E402
from dataclasses import replace  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
OUT = ROOT / ".bench_out"
sys.path.insert(0, str(ROOT / "src"))

import numpy as np  # noqa: E402

from hybridseg import cli  # noqa: E402
from hybridseg import data as D  # noqa: E402
from hybridseg import model as M  # noqa: E402
from hybridseg import train as TR  # noqa: E402
# Bound now, so the output checks never show up in a trace.
from hybridseg.model import count_flops, forward  # noqa: E402
from hybridseg.pgm import read_image, read_mask  # noqa: E402
from hybridseg.tensor import Tensor  # noqa: E402
from hybridseg.train import lr_schedule  # noqa: E402

import layers  # noqa: E402
from tracer import Tracer  # noqa: E402

SETUP_REPEATS = 5

# 9 samples with val_fraction 0.1 leave 1 for validation and 8 to train:
# 40 augmented views, five full batches of 8, per epoch. early_stop_patience
# above the epoch budget makes every call do the same work.
TRAIN_SAMPLES = 9
TRAIN_VIEWS_PER_EPOCH = 5 * (TRAIN_SAMPLES - 1)
TRAIN_CFG = TR.TrainConfig(max_epochs=2, early_stop_patience=3, batch_size=8,
                           val_fraction=0.1)

# Each cycle predicts every image PREDICT_PASSES times, then evals them all:
# enough predict requests that more than ten lie beyond their p90 in one run.
INFER_IMAGES = 12
INFER_CLASSES = 3
PREDICT_PASSES = 2
# The deployed model is the same for every seed and only the requests vary:
# per-class Hausdorff work follows the predicted masks, and a model drawn
# from the workload seed would make eval cost swing from seed to seed.
CHECKPOINT_SEED = 0


def _quiet(argv):
    """cli.run with its progress line kept off the benchmark's output."""
    with contextlib.redirect_stdout(io.StringIO()):
        return cli.run(argv)


class TrainWorkload:
    """One unit is one ``train.train`` call with ``out_dir`` set, as
    ``hybridseg train`` makes it."""

    def __init__(self, seed, family, num_classes, skip_sequence_mode):
        self.seed = seed
        self.spec = D.SynthSpec(image_size=32, family=family,
                                num_classes=num_classes, count=TRAIN_SAMPLES)
        self.model_cfg = M.ModelConfig(
            input_height=32, input_width=32, base_channels=8,
            num_classes=num_classes, window_size=4, num_heads=4,
            transformer_placement="skips_and_dense",
            skip_sequence_mode=skip_sequence_mode,
        )
        self.train_cfg = replace(TRAIN_CFG, seed=seed)
        self.call_s = []
        self.views = []
        self.best_val_j = None

    def setup(self, work):
        """Make the dataset and warm up with a one-step, one-epoch run."""
        self.work = work
        self.dataset = D.synth_dataset(self.spec, self.seed)
        TR.train(self.model_cfg, replace(self.train_cfg, max_epochs=1),
                 self.dataset[:2])

    def prepare_checks(self):
        pass

    def unit(self):
        """Returns (seconds in the library, operations, failed checks)."""
        out_dir = self.work / "train"
        shutil.rmtree(out_dir, ignore_errors=True)
        t0 = time.perf_counter()
        res = TR.train(self.model_cfg, self.train_cfg, self.dataset,
                       out_dir=out_dir)
        dt = time.perf_counter() - t0
        self.call_s.append(dt)
        self.views.append(TRAIN_VIEWS_PER_EPOCH * res.epochs_run)
        problems = self._check(res, out_dir)
        return dt, 1, ["train.train: " + "; ".join(problems)] if problems else []

    def _check(self, res, out_dir):
        problems = []
        if res.aborted:
            problems.append("train aborted")
        if res.epochs_run != self.train_cfg.max_epochs or \
                len(res.log_rows) != res.epochs_run:
            problems.append(f"ran {res.epochs_run} epochs, logged "
                            f"{len(res.log_rows)}")
        lr, history = self.train_cfg.initial_lr, []
        for row in res.log_rows:
            if row["lambda_b"] != self.train_cfg.schedule.lambda_b(row["epoch"]):
                problems.append(f"epoch {row['epoch']}: lambda_b off schedule")
            if row["lr"] != lr:
                problems.append(f"epoch {row['epoch']}: lr off schedule")
            if not 0.0 <= row["val_J"] <= 1.0:
                problems.append(f"epoch {row['epoch']}: val_J {row['val_J']}")
            history.append(row["val_J"])
            lr = lr_schedule(history, lr, self.train_cfg)
        if self.best_val_j is None:
            self.best_val_j = res.best_val_j
        elif res.best_val_j != self.best_val_j:
            problems.append(f"best_val_J {res.best_val_j!r} differs from "
                            f"the first call's {self.best_val_j!r}")
        for name in ("checkpoint/tensors.bin", "log.csv"):
            if not (out_dir / name).is_file():
                problems.append(f"{name} not written")
        return problems

    def trace_units(self, stats):
        """Per-layer metrics are per training step."""
        return stats.get("train.adam_step", (0,))[0]

    def report(self):
        """(gated metrics, named metrics for people) from the timed units."""
        rates = [v / s for v, s in zip(self.views, self.call_s)]
        gated = {
            "items_per_s": (statistics.median(rates), "items/s"),
            "request_p50_s": (statistics.median(self.call_s), "s"),
        }
        named = {
            "train_samples_per_s": (statistics.median(rates), "samples/s",
                                    f"median of {len(rates)} train.train calls"),
            "train_best_val_J": (self.best_val_j, "1", "identical in every call"),
        }
        return gated, named


class InferWorkload:
    """One unit is a cycle: PREDICT_PASSES predict requests per dataset
    image, then one eval with overlays over the whole dataset, all through
    ``cli.run``."""

    def __init__(self, seed):
        self.seed = seed
        self.model_cfg = M.ModelConfig(
            input_height=64, input_width=64, base_channels=8,
            num_classes=INFER_CLASSES, window_size=4, num_heads=4,
            transformer_placement="skips_and_dense",
        )
        self.predict_s = []
        self.eval_rates = []

    def setup(self, work):
        """Write the PGM dataset and a seeded checkpoint; warm up with one
        predict request."""
        self.work = work
        self.data_dir = work / "data"
        self.ckpt = work / "checkpoint"
        rc = _quiet(["synth", "--set", "image_size=64", "--set",
                     "family=multi_lesion", "--set",
                     f"num_classes={INFER_CLASSES}", "--set",
                     f"count={INFER_IMAGES}", "--out", str(self.data_dir),
                     "--seed", str(self.seed)])
        if rc != 0:
            raise RuntimeError(f"synth exited {rc}")
        self.params = M.build(self.model_cfg, CHECKPOINT_SEED)
        M.save_checkpoint(self.params, self.ckpt)
        (work / "masks").mkdir()
        rc = _quiet(self._predict_argv(0))
        if rc != 0:
            raise RuntimeError(f"warm-up predict exited {rc}")

    def _image(self, i):
        return self.data_dir / f"img_{i:04d}.pgm"

    def _predict_argv(self, i):
        return ["predict", "--checkpoint", str(self.ckpt), "--image",
                str(self._image(i)), "--out",
                str(self.work / "masks" / f"img_{i:04d}.pgm")]

    def prepare_checks(self):
        """Argmax of a batch-1 forward of every image as the PGM holds it."""
        self.reference = [
            forward(self.params, Tensor(read_image(self._image(i)).pixels[None]),
                    training=False).data[0].argmax(axis=0)
            for i in range(INFER_IMAGES)
        ]

    def unit(self):
        """Returns (seconds in the library, operations, failed checks)."""
        problems = []
        spent = 0.0
        for i in list(range(INFER_IMAGES)) * PREDICT_PASSES:
            argv = self._predict_argv(i)
            Path(argv[-1]).unlink(missing_ok=True)  # no stale mask can pass
            t0 = time.perf_counter()
            rc = _quiet(argv)
            dt = time.perf_counter() - t0
            spent += dt
            self.predict_s.append(dt)
            found = self._check_mask(i, rc, Path(argv[-1]))
            if found:
                problems.append(found)
        report = self.work / "report.csv"
        argv = ["eval", "--checkpoint", str(self.ckpt), "--data",
                str(self.data_dir), "--report", str(report),
                "--overlay-dir", str(self.work / "overlays")]
        report.unlink(missing_ok=True)
        t0 = time.perf_counter()
        rc = _quiet(argv)
        dt = time.perf_counter() - t0
        spent += dt
        self.eval_rates.append(INFER_IMAGES / dt)
        found = self._check_report(rc, report)
        if found:
            problems.append(found)
        return spent, INFER_IMAGES * PREDICT_PASSES + 1, problems

    def _check_mask(self, i, rc, path):
        if rc != 0:
            return f"predict {i} exited {rc}"
        try:
            labels = read_mask(path, INFER_CLASSES).labels
        except (OSError, ValueError) as exc:  # missing, or FormatError
            return f"predict {i}: {exc}"
        if not np.array_equal(labels, self.reference[i]):
            return f"predict {i}: mask differs from the reference argmax"
        return None

    def _check_report(self, rc, path):
        if rc != 0:
            return f"eval exited {rc}"
        try:
            with open(path, newline="") as fh:
                rows = list(csv.reader(fh))
        except OSError as exc:
            return f"eval report: {exc}"
        header, body = rows[0], rows[1:]
        if header[:3] != ["image", "J", "D"] or len(body) != INFER_IMAGES + 1:
            return f"eval report has header {header[:3]} and {len(body)} rows"
        names = [r[0] for r in body]
        if names != [f"img_{i:04d}" for i in range(INFER_IMAGES)] + ["mean±std"]:
            return "eval report rows are not one per image plus the mean"
        for r in body:
            for cell in r[1:3]:
                value = float(cell.split("±")[0]) if cell else -1.0
                if not 0.0 <= value <= 100.0:
                    return f"eval report {r[0]}: J/D cell {cell!r}"
        return None

    def trace_units(self, stats):
        """Per-layer metrics are per request."""
        return stats.get("cli.run", (0,))[0]

    def report(self):
        lat = self.predict_s
        p50 = statistics.median(lat)
        p90 = statistics.quantiles(lat, n=10)[-1]
        gated = {
            "items_per_s": (statistics.median(self.eval_rates), "items/s"),
            "request_p50_s": (p50, "s"),
        }
        named = {
            "predict_p50_s": (p50, "s/request", f"{len(lat)} requests"),
            "predict_p90_s": (p90, "s/request",
                              f"{sum(x > p90 for x in lat)} of {len(lat)} "
                              f"requests beyond it"),
            "eval_images_per_s": (statistics.median(self.eval_rates), "images/s",
                                  f"median of {len(self.eval_rates)} evals of "
                                  f"{INFER_IMAGES} images"),
        }
        return gated, named


WORKLOADS = {
    "train_binary": lambda seed: TrainWorkload(seed, "ellipse", 1, "single"),
    "train_mc_paired": lambda seed: TrainWorkload(seed, "multi_lesion", 3,
                                                  "paired"),
    "infer_mc64": InferWorkload,
}


def host_record(seed):
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (TypeError, KeyError):  # NumPy before 1.26 prints only
        blas = {}
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "blas": blas.get("name", "unknown"),
        "blas_version": blas.get("version", "unknown"),
        "blas_threads": BLAS_THREADS,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "seed": seed,
    }


def run_workload(name, seed, seconds, trace):
    """Set up, run units until ``seconds`` have passed, and return the
    result object plus lines for people."""
    wl = WORKLOADS[name](seed)
    tracer = Tracer() if trace else None
    problems = []
    attempted = 0
    setup_s, untraced_s, traced_s = [], [], []
    OUT.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=OUT) as tmp:
        if tracer:
            tracer.begin_phase("setup")
            tracer.install()
        try:
            for i in range(SETUP_REPEATS):
                t0 = time.perf_counter()
                wl.setup(Path(tmp) / f"setup{i}")
                setup_s.append(time.perf_counter() - t0)
        finally:
            if tracer:
                tracer.uninstall()
                tracer.end_phase()
        wl.prepare_checks()

        # A traced run alternates untraced and traced units, so both see
        # the same host conditions and their ratio is the tracing overhead.
        deadline = time.perf_counter() + seconds
        units = 0
        while True:
            tracing = tracer is not None and units % 2 == 1
            if tracing:
                tracer.begin_phase("units")
                tracer.install()
            try:
                spent, ops, found = wl.unit()
            except Exception:  # a crash fails the unit; keep measuring
                traceback.print_exc()
                spent, ops, found = None, 1, ["unit raised"]
            finally:
                if tracing:
                    tracer.uninstall()
                    tracer.end_phase()
            units += 1
            attempted += ops
            problems += found
            if spent is not None:
                (traced_s if tracing else untraced_s).append(spent)
            if time.perf_counter() >= deadline and (tracer is None or traced_s):
                break
    return _result(name, seed, wl, tracer, attempted, problems, setup_s,
                   untraced_s, traced_s)


def _result(name, seed, wl, tracer, attempted, problems, setup_s, untraced_s,
            traced_s):
    failed = len(problems)
    lines = [f"workload {name} seed {seed}: {failed} of {attempted} "
             f"operations failed"]
    lines += [f"  check failed: {p}" for p in problems]
    if not untraced_s or (tracer is not None and not traced_s):
        print("\n".join(lines))
        raise SystemExit("no unit completed: nothing was measured")
    if tracer is None:
        gated, named = wl.report()
        gated["setup_s"] = (statistics.median(setup_s), "s")
        gated["peak_rss_mb"] = (
            resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB")
        named = {
            "setup_s": (gated["setup_s"][0], "s",
                        f"median of {SETUP_REPEATS} set-ups"),
            **named,
            "peak_rss_mb": (gated["peak_rss_mb"][0], "MB", "whole process"),
            "failed_ratio": (failed / attempted, "1",
                             f"{failed} failed of {attempted} attempted"),
        }
        for key, (value, unit, note) in named.items():
            lines.append(f"  {key:<22} {value:<12.6g} {unit:<10} {note}")
        metrics = {k: {"value": v, "unit": u} for k, (v, u) in gated.items()}
    else:
        stats = tracer.span_stats("units")
        units = wl.trace_units(stats)
        backward = (tracer.replay_backward(units)
                    if isinstance(wl, TrainWorkload) else {})
        values = layers.per_layer(
            tracer, units, SETUP_REPEATS, backward,
            count_flops(wl.model_cfg),
            statistics.median(traced_s) / statistics.median(untraced_s),
        )
        unit_name = "step" if isinstance(wl, TrainWorkload) else "request"
        lines.append(f"  per-layer metrics per {unit_name} over {units} "
                     f"{unit_name}s ({layers.NOTE})")
        for key, (value, unit) in values.items():
            lines.append(f"  {key:<40} {value:<14.6g} {unit}")
        metrics = {k: {"value": v, "unit": u} for k, (v, u) in values.items()}
        tracer.save(OUT / f"{name}-seed{seed}-spans.npz")
    result = {"correct": failed == 0, "attempted": attempted, "failed": failed,
              "metrics": metrics}
    record = {"workload": name, "host": host_record(seed), "problems": problems,
              **result}
    trace = int(tracer is not None)
    (OUT / f"{name}-seed{seed}-trace{trace}.json").write_text(
        json.dumps(record, indent=1) + "\n")
    return result, lines


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=sorted(WORKLOADS) + ["all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    names = sorted(WORKLOADS) if args.workload == "all" else [args.workload]
    print("host " + json.dumps(host_record(args.seed)))
    results = {}
    for name in names:
        result, lines = run_workload(name, args.seed, args.seconds, args.trace)
        print("\n".join(lines), flush=True)
        results[name] = result
    if args.workload == "all":  # peak_rss_mb is then the process peak so far
        final = {
            "correct": all(r["correct"] for r in results.values()),
            "attempted": sum(r["attempted"] for r in results.values()),
            "failed": sum(r["failed"] for r in results.values()),
            "metrics": {f"{n}.{k}": v for n, r in results.items()
                        for k, v in r["metrics"].items()},
        }
    else:
        final = results[args.workload]
    print(json.dumps(final))
    return 0


if __name__ == "__main__":
    sys.exit(main())
