"""Per-layer metrics from the spans of a traced run.

Per-step figures cover the training steps of the traced rounds only and
use self times, so that they add up to the mean step time; set-up
figures are medians over the set-up repeats; ``evaluation.*`` figures
are means over the folds of the ``evaluate`` run.
"""

import statistics

import numpy as np

from inputs import EPOCHS
from spans import SpanIndex

# per-step metric -> the span names whose self time it sums
STEP_SELF = {
    "hashing.sync_ms_per_step": ("hashing.sync_forward",),
    "hashing.aggregate_ms_per_step": ("hashing.aggregate_gradients",),
    "nnet.conv_forward_ms_per_step": ("nnet.conv_forward",),
    "nnet.conv_backward_ms_per_step": ("nnet.conv_backward",),
    "nnet.maxpool_ms_per_step": ("nnet.maxpool1", "nnet.maxpool1_backward"),
    "nnet.adadelta_ms_per_step": ("nnet.adadelta_update",),
    "model.forward_self_ms_per_step": ("model.forward",),
    "model.backward_self_ms_per_step": ("model.backward",),
    "model.zero_gradients_ms_per_step": ("model.zero_gradients",),
    "model.apply_gradients_self_ms_per_step": ("model.apply_gradients",),
    "model.batch_gradients_self_ms_per_step": ("model.batch_gradients",),
    "model.train_step_self_ms_per_step": ("model.train_step",),
}

# set-up metric -> span name, inclusive time per set-up, median
SETUP = {
    "config.load_run_inputs_s": "config.load_run_inputs",
    "corpus.load_dataset_s": "corpus.load_dataset",
    "corpus.load_pretrained_s": "corpus.load_pretrained",
    "groups.load_groups_s": "groups.load_groups",
    "groups.init_group_embeddings_s": "groups.init_group_embeddings",
    "hashing.build_routing_s": "hashing.build_routing",
}


def _roots(ix, name):
    return [i for i, s in enumerate(ix.spans) if s[3] == -1 and s[0] == name]


def per_layer_metrics(spans, samples, wl, failures):
    ix = SpanIndex(spans)
    med = statistics.median
    out = {}

    for metric, name in SETUP.items():
        per_setup = [sum(ix.duration[i] for i in ix.named(name, under=r))
                     for r in _roots(ix, "bench.setup")]
        out[metric] = (float(med(per_setup)), "s")

    steps = [i for r in _roots(ix, "bench.train")
             for i in ix.named("model.train_step", under=r)]
    n = len(steps)
    self_by_name, counts = {}, {}
    for step in steps:
        for i in [step] + ix.descendants(step):
            name = ix.spans[i][0]
            self_by_name[name] = self_by_name.get(name, 0.0) + ix.self_time[i]
            for key, value in (ix.spans[i][4] or {}).items():
                counts[name, key] = counts.get((name, key), 0) + value
    for metric, names in STEP_SELF.items():
        out[metric] = (1e3 * sum(self_by_name.get(x, 0.0) for x in names) / n,
                       "ms")
    covered = {x for names in STEP_SELF.values() for x in names}
    if set(self_by_name) - covered:
        failures.append(f"spans under a step not in any per-step metric: "
                        f"{sorted(set(self_by_name) - covered)}")
    step_ms = [1e3 * ix.duration[i] for i in steps]
    parts = sum(out[m][0] for m in STEP_SELF)
    if abs(parts - np.mean(step_ms)) > 1e-6 * np.mean(step_ms):
        failures.append(f"per-step self times add up to {parts} ms, "
                        f"steps take {np.mean(step_ms)} ms")
    out["model.train_step_ms.p50"] = (float(np.percentile(step_ms, 50)), "ms")
    out["model.train_step_ms.p90"] = (float(np.percentile(step_ms, 90)), "ms")

    rows = counts["model.train_step", "rows_touched"] / n
    out["nnet.adadelta_elements_per_step"] = (
        counts["nnet.adadelta_update", "elements"] / n, "count")
    out["model.grad_elements_per_step"] = (
        counts["model.zero_gradients", "grad_elements"] / n, "count")
    out["model.rows_touched_per_step"] = (rows, "count")
    # share of the dense embedding gradient that belongs to touched rows
    emb = counts["model.zero_gradients", "emb_grad_elements"] / n
    channels = 1 if wl.channel2_mode == "none" else 2
    out["model.touched_row_share"] = (rows * wl.dim * channels / emb, "ratio")

    predict = [ix.duration[i] for r in _roots(ix, "bench.predict")
               for i in ix.named("model.predict", under=r)]
    out["model.predict_ms_per_doc"] = (1e3 * med(predict) / wl.n_test, "ms")
    for metric, name in (("model.save_checkpoint_s", "model.save_checkpoint"),
                         ("model.load_checkpoint_s", "model.load_checkpoint")):
        vals = [ix.duration[i] for r in _roots(ix, "bench.checkpoint")
                for i in ix.named(name, under=r)]
        out[metric] = (med(vals), "s")

    evaluate = _roots(ix, "bench.evaluate")
    for metric, name in (("evaluation.fold_init_s", "model.init_params"),
                         ("evaluation.train_model_s_per_fold",
                          "evaluation.train_model"),
                         ("evaluation.evaluate_fold_s",
                          "evaluation.evaluate_fold")):
        vals = [ix.duration[i] for r in evaluate for i in ix.named(name, under=r)]
        out[metric] = (float(np.mean(vals)), "s")

    untraced = med(samples["train"])
    traced = med(samples["train_traced"])
    docs = wl.n_train * EPOCHS
    out["trace.overhead_train_docs_per_s"] = (docs / traced - docs / untraced,
                                              "docs/s")
    out["trace.overhead_pct"] = (100.0 * (traced - untraced) / untraced, "%")
    return out
