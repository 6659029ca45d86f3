"""The program names that the benchmark in ``perfbench/`` relies on.

``perfbench/spans.py`` wraps functions by the module attribute that the
caller looks them up by, and ``perfbench/checks.py`` and
``perfbench/run.py`` read a few views of a trained model. A change that
renames or removes one of them breaks the benchmark, not the program, so
this test runs the traced calls on a tiny model, and the benchmark's
reads on a tied and a free model, and fails first.
"""

import importlib.util
import os

import numpy as np

from groupshare import evaluation, model
from groupshare.corpus import random_pretrained
from groupshare.groups import groups_from_tsv
from helpers import random_group_tsv, random_words, vocab_of

BENCH_DIR = os.path.join(os.path.dirname(os.path.abspath(__file__)), "..",
                         "perfbench")


def load_bench(name):
    """A module of ``perfbench/``, loaded by path."""
    spec = importlib.util.spec_from_file_location(
        f"bench_{name}", os.path.join(BENCH_DIR, f"{name}.py"))
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_traced_names_and_read_views_exist(tmp_path):
    spans = load_bench("spans")
    checks = load_bench("checks")
    for mod, attr, _ in spans.WRAPPED:
        assert callable(getattr(mod, attr, None)), f"{mod.__name__}.{attr}"

    rng = np.random.default_rng(3)
    words = random_words(rng, 12)
    vocab = vocab_of(words)
    table = groups_from_tsv(random_group_tsv(rng, words, 4, 30), vocab)
    config = model.ModelConfig(num_classes=2, embedding_dim=4,
                               filter_heights=(2, 3), filters_per_height=3)
    docs = [np.array(rng.integers(0, vocab.num_tokens, size=6), dtype=np.int64)
            for _ in range(6)]
    labels = np.array([0, 1] * 3, dtype=np.int64)
    path = tmp_path / "tiny.ckpt"

    tracer = spans.Tracer()
    with tracer.installed():
        params = model.init_params(config, vocab,
                                   random_pretrained(vocab, 4, seed=1),
                                   group_table=table)
        opt = model.Optimizer()
        evaluation.train_step(params, opt, docs, labels)
        model.predict(params, docs)
        model.save_checkpoint(path, params, opt)
        loaded, loaded_opt = model.load_checkpoint(path)

    # the per-step figures are self times of the spans under each step
    ix = spans.SpanIndex(tracer.spans)
    (step,) = ix.named("model.train_step")
    for name in ("hashing.sync_forward", "hashing.aggregate_gradients",
                 "nnet.adadelta_update"):
        assert ix.named(name, under=step), name

    for p in (params, loaded):
        assert p.is_shared
        shared = p.channel2
        assert shared is p.ch2
        np.testing.assert_array_equal(p.channel2_values(), shared.values)
        assert shared.values.shape == (vocab.num_rows, 4)
        assert shared.routing.grouped_ids.size > 0
        assert isinstance(shared.table.membership, dict)
        assert shared.table.members == table.members
        word = int(shared.routing.grouped_ids[0])
        assert shared.table.groups_of(word) == table.membership[word]

    # a free second channel, as on long-docs: the views give its matrix
    free_config = model.ModelConfig(num_classes=2, embedding_dim=4,
                                    filter_heights=(2, 3), filters_per_height=3,
                                    channel2_mode="random")
    free = model.init_params(free_config, vocab,
                             random_pretrained(vocab, 4, seed=1))
    free_opt = model.Optimizer()
    evaluation.train_step(free, free_opt, docs, labels)
    assert not free.is_shared
    assert isinstance(free.channel2, np.ndarray)
    np.testing.assert_array_equal(free.channel2, free.channel2_values())
    np.testing.assert_array_equal(free.channel2, free.ch2.private)

    # what checks.py reads of each model: every tensor a checkpoint
    # restores, and the parameters its reference pass scores with
    for p, o, ch2_name in ((params, opt, "ch2/values"),
                           (loaded, loaded_opt, "ch2/values"),
                           (free, free_opt, "ch2/matrix")):
        tensors = checks.param_tensors(p, o)
        assert tensors[ch2_name].shape == (vocab.num_rows, 4)
        assert {f"opt/{name}/sq_grad" for name in o.states} <= set(tensors)
        _, probs = model.predict(p, docs)
        for i, doc in enumerate(docs):
            np.testing.assert_allclose(checks.reference_probs(p, doc), probs[i],
                                       rtol=1e-9, atol=1e-12)
