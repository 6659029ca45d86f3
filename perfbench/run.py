"""Benchmark of groupshare: set-up, training, prediction, checkpoints and
cross-validation, end to end and per layer.

    python3 perfbench/run.py --workload share-wide --seed 1 --seconds 40 --trace 0

Run from the root of a source checkout; the program is imported from
``src/``. A run writes its inputs (dataset, text embeddings, group TSV,
INI files) under ``perfbench/out/`` and then repeats one cycle, in one
process, as many times as fit in ``--seconds`` (CYCLE_SECONDS; at least
two cycles):

  1. set-up: ``config.load_config``, ``config.load_run_inputs`` and
     ``model.init_params``, from the files a user would pass;
  2. ``evaluation.train_model`` on the training documents;
  3. ``model.predict`` on the held-out documents;
  4. ``model.save_checkpoint`` and ``model.load_checkpoint``;
  5. ``groupshare evaluate --config ...`` through ``cli.main``.

Short operations repeat within a cycle, a fixed number of times per
workload, part before and part after ``evaluate`` (REPEATS).

Each metric is the median of its samples over all cycles. Interleaving
the phases makes every metric sample the whole run, so a slow spell of
the machine moves all of them a little instead of one of them a lot.

Every output is checked (see checks.py); the cycles must also agree on
every output byte for byte. An operation that raises, or an ``evaluate``
that exits with a code other than 0, counts as failed; after a raise the
run stops cycling, and it exits with code 1 if some metric then has no
sample. The last line of standard output is one JSON
object with the end-to-end metrics (``--trace 0``) or the per-layer
metrics (``--trace 1``). A traced run wraps the program's public
functions (spans.py) in every other cycle, so the tracing overhead is
measured in the same run. Details, and spans when traced, are written
to ``perfbench/out/``.
"""

import os
import sys

# One BLAS thread. The program itself is single-threaded; OpenBLAS by
# default starts a thread per core, which on a 2-core machine made the
# small matrix products slower and their timings less steady. Must be
# set before numpy is imported.
BLAS_THREADS = "1"
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = BLAS_THREADS

import argparse  # noqa: E402
import hashlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import time  # noqa: E402
from contextlib import nullcontext, redirect_stdout  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(HERE, "out")

MIN_CYCLES = 2
# Run time budgeted per cycle. A run makes seconds // CYCLE_SECONDS
# cycles, a number fixed by its arguments: a count that followed the
# clock made two cycles in some runs and three in others, and a median
# of two samples is their mean, which one fast or slow spell of the
# machine moves. A cycle takes about 21 s, 13 s and 7 s on the reference
# machine; at 40 s a run makes 2, 3 and 4 cycles, which keeps the three
# workloads' runs within about two minutes together.
CYCLE_SECONDS = {"share-wide": 21, "long-docs": 13, "cv-short": 9}
# Calls of each phase per cycle before and after evaluate (train and
# evaluate: one, before), so that short operations give many samples
# from two moments of every cycle: the machine has fast and slow spells
# of a few seconds, which move a block of samples together. The counts
# are fixed rather than timed: the first save and load of a block run
# slower than the ones after it (on share-wide 0.16 s and 0.6 s against
# 0.07 s and 0.4 s), and a median over a mix of the two that changes
# from run to run moves with the mix. share-wide saves and loads once
# per cycle, as a user does once per process.
REPEATS = {
    "share-wide": {"setup": (1, 0), "predict": (1, 1), "checkpoint": (1, 0)},
    "long-docs": {"setup": (2, 1), "predict": (1, 0), "checkpoint": (20, 20)},
    "cv-short": {"setup": (2, 1), "predict": (4, 4), "checkpoint": (5, 5)},
}
CHECK_SAMPLE = 12           # held-out documents checked by the reference pass
CHECK_RELOAD = 200          # held-out documents predicted by a reloaded model


def _rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def _digest(tensors: dict) -> str:
    import numpy as np

    h = hashlib.blake2b()
    for name in sorted(tensors):
        h.update(name.encode())
        h.update(memoryview(np.ascontiguousarray(tensors[name])))
    return h.hexdigest()


class PhaseFailed(Exception):
    """An operation raised; the rest of its cycle cannot run."""


def run(wl, seed, seconds, trace, work):
    import numpy as np

    import checks
    import inputs
    from groupshare import cli, config, evaluation, model
    from spans import Tracer

    failures = []

    def verify(check, *args):
        try:
            return check(*args)
        except checks.CheckFailed as e:
            failures.append(f"{check.__name__}: {e}")
            return None

    def same(key, value, what):
        if first.setdefault(key, value) != value:
            failures.append(f"cycle {cycle}: {what} differs from cycle 0")

    paths = inputs.write_inputs(wl, seed, work)
    ckpt = os.path.join(work, "model.ckpt")
    tracer = Tracer() if trace else None
    samples = {k: [] for k in ("setup", "train", "train_traced", "predict",
                               "save", "load", "evaluate")}
    first, found = {}, {}
    attempted = failed = 0
    errors = []

    def repeat(name, key, op, block=0):
        """Call ``op`` REPEATS[wl.name][name][block] times (train and
        evaluate: once); time each call as one sample of ``key`` unless
        ``key`` is None, in which case ``op`` records its own samples.
        Returns the last result; raises PhaseFailed, after counting the
        failure, if ``op`` raises."""
        nonlocal attempted, failed
        result = None
        for _ in range(REPEATS[wl.name].get(name, (1, 0))[block]):
            attempted += 1
            with phase(f"bench.{name}"):
                t0 = time.perf_counter()
                try:
                    result = op()
                except Exception as e:  # counted, reported, run stops
                    failed += 1
                    errors.append(f"cycle {cycle} {name}: {e!r}")
                    raise PhaseFailed from e
                dt = time.perf_counter() - t0
            if key:
                samples[key].append(dt)
        return result

    def setup():
        run_cfg = config.load_config(paths["config"])
        dataset, vocab, pretrained, table = config.load_run_inputs(run_cfg)
        cfg = config.model_config(run_cfg, dataset.num_classes,
                                  pretrained.shape[1])
        model.init_params(cfg, vocab, pretrained, table)
        return config.experiment_config(run_cfg, cfg), dataset, vocab, \
            pretrained, table

    def checkpoint():
        t0 = time.perf_counter()
        model.save_checkpoint(ckpt, params, opt)
        t1 = time.perf_counter()
        loaded = model.load_checkpoint(ckpt)
        samples["save"].append(t1 - t0)
        samples["load"].append(time.perf_counter() - t1)
        if "checkpoint_mb" not in found:
            found["checkpoint_mb"] = os.path.getsize(ckpt) / 1e6
            _, reprobs = model.predict(loaded[0], test_docs[:CHECK_RELOAD])
            verify(checks.check_checkpoint, (params, opt), loaded,
                   probs[:CHECK_RELOAD], reprobs)
        os.remove(ckpt)     # every save writes a new file

    def evaluate():
        """Times a successful ``evaluate``; counts one that exits non-zero
        as failed and returns None."""
        nonlocal failed
        out = io.StringIO()
        t0 = time.perf_counter()
        with redirect_stdout(out):
            code = cli.main(["evaluate", "--config", paths["eval_config"]])
        dt = time.perf_counter() - t0
        if code != 0:
            failed += 1
            errors.append(f"cycle {cycle} evaluate: exit code {code}")
            return None
        samples["evaluate"].append(dt)
        return out.getvalue()

    cycles = max(MIN_CYCLES, seconds // CYCLE_SECONDS[wl.name])
    cycle = 0
    vocab = table = None
    while cycle < cycles:
        traced = trace and cycle % 2 == 0
        phase = tracer.span if traced else (lambda name: nullcontext())
        try:
            with tracer.installed() if traced else nullcontext():
                exp, dataset, vocab, pretrained, table = \
                    repeat("setup", "setup", setup)
                test_docs = dataset.documents[: wl.n_test]
                train_idx = np.arange(wl.n_test, wl.n_test + wl.n_train)

                params, opt = repeat(
                    "train", "train_traced" if traced else "train",
                    lambda: evaluation.train_model(exp.model, dataset, vocab,
                                                   pretrained, train_idx, exp,
                                                   group_table=table))
                same("model", _digest(checks.param_tensors(params, opt)),
                     "trained model")

                labels, probs = repeat(
                    "predict", "predict", lambda: model.predict(params, test_docs))
                same("probs", probs.tobytes(), "predicted probabilities")
                if cycle == 0:
                    found["train_peak_rss_mb"] = _rss_mb()
                    found.update(_check_model(checks, verify, wl, seed, dataset,
                                              pretrained, params, labels, probs))

                repeat("checkpoint", None, checkpoint)

                report = repeat("evaluate", None, evaluate)
                if report is not None:
                    same("report", report, "evaluate report")
                    if "cv_mean" not in found:
                        found["cv_mean"] = verify(
                            checks.check_report, report, wl.eval_docs,
                            wl.eval_replications, wl.eval_folds)

                repeat("predict", "predict",
                       lambda: model.predict(params, test_docs), block=1)
                repeat("checkpoint", None, checkpoint, block=1)
                repeat("setup", "setup", setup, block=1)
                del params, opt
        except PhaseFailed:
            break
        cycle += 1

    med = statistics.median
    details = {
        "workload": wl.name, "seed": seed, "seconds": seconds, "trace": trace,
        "cycles": cycle, "blas_threads": BLAS_THREADS,
        "nproc": os.cpu_count(), "numpy": np.__version__,
        "vocab_rows": vocab.num_rows if vocab else 0,
        "grouped_words": len(table.membership) if table else 0,
        "groups": table.group_count if table else 0,
        "multi_group_words": sum(len(g) > 1 for g in table.membership.values())
        if table else 0,
        "failures": failures, "errors": errors, "samples": samples, **found,
    }
    missing = [k for k in ("setup", "train", "predict", "save", "load",
                           "evaluate") if not samples[k]]
    if (missing or (trace and not samples["train_traced"])
            or not {"checkpoint_mb", "train_peak_rss_mb"} <= found.keys()):
        return attempted, failed, None, details
    if trace:
        import layers

        metrics = layers.per_layer_metrics(tracer.spans, samples, wl, failures)
        tracer.write(os.path.join(OUT, f"{wl.name}-seed{seed}.spans.jsonl"))
    else:
        metrics = {
            "setup_s": (med(samples["setup"]), "s"),
            "train_docs_per_s": (wl.n_train * inputs.EPOCHS
                                 / med(samples["train"]), "docs/s"),
            "predict_docs_per_s": (wl.n_test / med(samples["predict"]),
                                   "docs/s"),
            "evaluate_s": (med(samples["evaluate"]), "s"),
            "checkpoint_save_s": (med(samples["save"]), "s"),
            "checkpoint_load_s": (med(samples["load"]), "s"),
            "checkpoint_mb": (found["checkpoint_mb"], "MB"),
            "train_peak_rss_mb": (found["train_peak_rss_mb"], "MB"),
            "peak_rss_mb": (_rss_mb(), "MB"),
        }
    return attempted, failed, metrics, details


def _check_model(checks, verify, wl, seed, dataset, pretrained, params,
                 labels, probs):
    """Checks of the first cycle's trained model and its predictions."""
    import numpy as np

    import inputs

    n_test = wl.n_test
    test_docs = dataset.documents[:n_test]
    sample = np.random.default_rng([seed, 7]).choice(n_test, CHECK_SAMPLE,
                                                     replace=False)
    verify(checks.check_predictions, params, test_docs, labels, probs, sample)
    out = {
        "heldout_accuracy_auc": verify(checks.check_quality,
                                       dataset.labels[:n_test], labels, probs,
                                       inputs.NOISE),
        "accuracy_ceiling": checks.bayes_ceiling(dataset.labels[:n_test],
                                                 inputs.NOISE),
    }
    if params.is_shared:
        shared = params.channel2
        train_docs = dataset.documents[n_test : n_test + wl.n_train]
        verify(checks.check_tied_rows, shared.values, shared.table,
               shared.groups.vectors)
        out["moved_group_share"] = verify(
            checks.check_groups_moved, shared.table, pretrained,
            shared.groups.vectors, train_docs)
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "groupshare", "__init__.py")):
        print(f"error: no groupshare sources under {SRC}; run from the root "
              f"of a source checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    import inputs

    wl = inputs.WORKLOADS.get(args.workload)
    if wl is None:
        print(f"error: unknown workload {args.workload!r}; expected one of "
              f"{sorted(inputs.WORKLOADS)}", file=sys.stderr)
        return 2
    if args.seconds < 1:
        print("error: --seconds must be at least 1", file=sys.stderr)
        return 2

    os.makedirs(OUT, exist_ok=True)
    work = os.path.join(OUT, f"work-{wl.name}-{args.seed}-{os.getpid()}")
    try:
        attempted, failed, metrics, details = run(wl, args.seed, args.seconds,
                                                  bool(args.trace), work)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    for error in details["errors"]:
        print(f"operation failed: {error}", file=sys.stderr)
    for failure in details["failures"]:
        print(f"check failed: {failure}", file=sys.stderr)
    correct = not details["failures"]
    details.update(correct=correct, attempted=attempted, failed=failed,
                   metrics=metrics)
    name = f"{wl.name}-seed{args.seed}-trace{args.trace}.json"
    with open(os.path.join(OUT, name), "w", encoding="utf-8") as f:
        json.dump(details, f, indent=1, sort_keys=True)
    if metrics is None:
        print("error: failed operations left some metric without a sample",
              file=sys.stderr)
        return 1
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
