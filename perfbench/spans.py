"""Span tracing from outside the program.

``Tracer.installed`` replaces public functions of the groupshare modules
with wrappers that record one span each: name, start, end and the span
that was open when it was called. Each function is wrapped under the
name the caller looks it up by, in the module that calls it (``model``
imports ``conv_forward`` by name, so ``model.conv_forward`` is what a
training step calls). A few wrappers also record counts where the work
happens. Spans stay in memory until the run writes them out.
"""

import json
import time
from contextlib import contextmanager

import numpy as np

from groupshare import cli, config, evaluation, hashing, model

# (module, attribute, span name); span names follow the defining module
WRAPPED = [
    (config, "load_dataset", "corpus.load_dataset"),
    (config, "load_pretrained", "corpus.load_pretrained"),
    (config, "load_groups", "groups.load_groups"),
    (config, "load_run_inputs", "config.load_run_inputs"),
    (cli, "load_run_inputs", "config.load_run_inputs"),
    (model, "init_group_embeddings", "groups.init_group_embeddings"),
    (hashing, "build_routing", "hashing.build_routing"),
    (model, "sync_forward", "hashing.sync_forward"),
    (model, "aggregate_gradients", "hashing.aggregate_gradients"),
    (model, "conv_forward", "nnet.conv_forward"),
    (model, "conv_backward", "nnet.conv_backward"),
    (model, "maxpool1", "nnet.maxpool1"),
    (model, "maxpool1_backward", "nnet.maxpool1_backward"),
    (model, "adadelta_update", "nnet.adadelta_update"),
    (model, "init_params", "model.init_params"),
    (evaluation, "init_params", "model.init_params"),
    (model, "forward", "model.forward"),
    (model, "backward", "model.backward"),
    (model, "zero_gradients", "model.zero_gradients"),
    (model, "batch_gradients", "model.batch_gradients"),
    (model, "apply_gradients", "model.apply_gradients"),
    (evaluation, "train_step", "model.train_step"),
    (model, "predict", "model.predict"),
    (evaluation, "predict", "model.predict"),
    (model, "save_checkpoint", "model.save_checkpoint"),
    (model, "load_checkpoint", "model.load_checkpoint"),
    (evaluation, "train_model", "evaluation.train_model"),
    (cli, "train_model", "evaluation.train_model"),
    (evaluation, "evaluate_fold", "evaluation.evaluate_fold"),
    (cli, "run_experiment", "evaluation.run_experiment"),
]


def _train_step_counts(args):
    docs = args[2]
    return {"rows_touched": int(np.unique(np.concatenate(docs)).size)}


def _zero_gradients_counts(result):
    params_size = sum(g.size for g in result.values())
    emb = sum(result[k].size for k in ("emb_p", "ch2") if k in result)
    return {"grad_elements": int(params_size), "emb_grad_elements": int(emb)}


# span name -> (counts from the arguments, counts from the result)
COUNTERS = {
    "model.train_step": (_train_step_counts, None),
    "model.zero_gradients": (None, _zero_gradients_counts),
    "nnet.adadelta_update": (lambda args: {"elements": int(args[0].size)}, None),
}


class Tracer:
    """Records spans as [name, start, end, parent index, counts]."""

    def __init__(self):
        self.spans = []
        self._stack = []

    def _open(self, name, counts=None):
        idx = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, time.perf_counter(), None, parent, counts])
        self._stack.append(idx)
        return idx

    def _close(self, idx):
        self.spans[idx][2] = time.perf_counter()
        self._stack.pop()

    @contextmanager
    def span(self, name):
        idx = self._open(name)
        try:
            yield
        finally:
            self._close(idx)

    def _wrap(self, name, fn):
        from_args, from_result = COUNTERS.get(name, (None, None))

        def traced(*args, **kwargs):
            idx = self._open(name, from_args(args) if from_args else None)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(idx)
            if from_result:
                self.spans[idx][4] = from_result(result)
            return result

        return traced

    @contextmanager
    def installed(self):
        """Wrap every function of WRAPPED for the duration of the block."""
        saved = [(mod, attr, getattr(mod, attr)) for mod, attr, _ in WRAPPED]
        for (mod, attr, fn), (_, _, name) in zip(saved, WRAPPED):
            setattr(mod, attr, self._wrap(name, fn))
        try:
            yield
        finally:
            for mod, attr, fn in saved:
                setattr(mod, attr, fn)

    def write(self, path):
        with open(path, "w", encoding="utf-8") as f:
            for i, (name, start, end, parent, counts) in enumerate(self.spans):
                f.write(json.dumps({"id": i, "name": name, "start": start,
                                    "end": end, "parent": parent,
                                    "counts": counts}) + "\n")


class SpanIndex:
    """Children lists and self times over a finished span list."""

    def __init__(self, spans):
        self.spans = spans
        self.children = [[] for _ in spans]
        for i, s in enumerate(spans):
            if s[3] >= 0:
                self.children[s[3]].append(i)
        self.duration = [s[2] - s[1] for s in spans]
        self.self_time = [
            d - sum(self.duration[c] for c in kids)
            for d, kids in zip(self.duration, self.children)
        ]

    def named(self, name, under=None):
        """Indices of spans called ``name``, optionally below span ``under``."""
        pool = range(len(self.spans)) if under is None else self.descendants(under)
        return [i for i in pool if self.spans[i][0] == name]

    def descendants(self, idx):
        out, todo = [], list(self.children[idx])
        while todo:
            i = todo.pop()
            out.append(i)
            todo.extend(self.children[i])
        return out
