"""Command line entry points.

    groupshare build-vocab      tokenize a dataset into a vocabulary file
    groupshare build-groups     compile a resource into canonical group TSV
    groupshare train            train one model on a full dataset
    groupshare evaluate         replicated cross-validation report
    groupshare predict          label new documents with a checkpoint
    groupshare inspect-sharing  show how a word's row maps onto groups

All subcommands exit 0 on success and 1 on any error, printing the
reason to stderr.
"""

import argparse
import sys
from collections import Counter
from contextlib import contextmanager, nullcontext

import numpy as np

from .config import (
    experiment_config,
    load_config,
    load_run_inputs,
    model_config,
)
from .corpus import load_dataset, load_vocabulary, save_vocabulary
from .evaluation import run_experiment, train_model
from .files import write_whole
from .groups import GROUP_KINDS, MESH_PREFIX_DEPTH, load_groups, write_groups_tsv
from .hashing import routes
from .model import load_checkpoint, predict, write_checkpoint


def _cmd_build_vocab(args) -> int:
    with write_whole(args.out) as out:
        _, vocab = load_dataset(args.dataset)
        save_vocabulary(vocab, out)
    print(f"tokens={vocab.num_tokens}")
    return 0


def _cmd_build_groups(args) -> int:
    with write_whole(args.out) as out:
        vocab = load_vocabulary(args.vocab)
        table = load_groups(args.input, args.kind, vocab, args.prefix_depth)
        write_groups_tsv(table, vocab, out)
    grouped = len(table.membership)
    coverage = 100.0 * grouped / vocab.num_tokens
    print(f"groups={table.group_count}")
    print(f"grouped_words={grouped}")
    print(f"coverage={coverage:.1f}%")
    print(f"oov_skipped={table.oov_skipped}")
    print(f"multiword_skipped={table.multiword_skipped}")
    hist = Counter(len(gids) for gids in table.membership.values())
    for k in sorted(hist):
        print(f"words_in_{k}_groups={hist[k]}")
    return 0


def _run_inputs(args):
    """(experiment config, dataset, vocab, pretrained, group table) of the
    run config ``args.config``."""
    run = load_config(args.config)
    dataset, vocab, pretrained, group_table = load_run_inputs(run)
    config = model_config(run, dataset.num_classes, pretrained.shape[1])
    return experiment_config(run, config), dataset, vocab, pretrained, group_table


def _cmd_train(args) -> int:
    def log(epoch, loss):
        print(f"epoch={epoch} loss={loss:.6f}")

    with write_whole(args.out, binary=True) as out:
        exp, dataset, vocab, pretrained, group_table = _run_inputs(args)
        all_idx = np.arange(len(dataset), dtype=np.int64)
        params, opt = train_model(
            exp.model, dataset, vocab, pretrained, all_idx, exp,
            group_table=group_table, log=log,
        )
        write_checkpoint(out, params, opt)
    print(f"saved={args.out}")
    return 0


def _cmd_evaluate(args) -> int:
    with write_whole(args.out) if args.out else nullcontext() as out:
        text = run_experiment(*_run_inputs(args)).render()
        if out:
            out.write(text)
    sys.stdout.write(text)
    return 0


def _cmd_predict(args) -> int:
    with write_whole(args.out) as out:
        params, _ = load_checkpoint(args.checkpoint)
        vocab = params.vocab
        if args.vocab and load_vocabulary(args.vocab) != vocab:
            raise ValueError(
                "vocabulary file does not match the checkpoint vocabulary")
        docs = []
        with open(args.input, "r", encoding="utf-8") as f:
            for lineno, line in enumerate(f, start=1):
                tokens = line.split()
                if not tokens:
                    raise ValueError(f"line {lineno}: empty document")
                docs.append(vocab.ids(tokens))
        if not docs:
            raise ValueError("input file holds no documents")
        labels, probs = predict(params, docs)
        if params.config.num_classes == 2:
            scores = probs[:, 1]
        else:
            scores = probs.max(axis=1)
        for label, score in zip(labels, scores):
            out.write(f"{int(label)}\t{score:.6f}\n")
    print(f"predicted={len(docs)}")
    return 0


def _cmd_inspect_sharing(args) -> int:
    params, _ = load_checkpoint(args.checkpoint)
    if not params.is_shared:
        raise ValueError("checkpoint has no shared second channel")
    shared = params.ch2
    wid = params.vocab.lookup(args.word)
    if wid is None:
        raise ValueError(f"word {args.word!r} is not in the vocabulary")
    gids = shared.table.groups_of(wid)
    if not gids:
        print(f"word={args.word} id={wid} private row (no groups)")
        return 0
    print(f"word={args.word} id={wid} groups={len(gids)}")
    for gid in gids:
        print(f"group={gid} key={shared.table.group_keys[gid]}")
    flat, signs = routes(shared, np.flatnonzero(shared.routing.grouped_ids == wid))
    print("dim\tgroup_key\tsign")
    for j, (gid, sgn) in enumerate(zip(flat[0] // shared.dim, signs[0])):
        print(f"{j}\t{shared.table.group_keys[gid]}\t{'+1' if sgn > 0 else '-1'}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="groupshare",
        description="Text classification with group-hashed embedding sharing.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("build-vocab", help="extract a vocabulary from a dataset")
    p.add_argument("--dataset", required=True)
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_build_vocab)

    p = sub.add_parser("build-groups", help="compile a group resource to TSV")
    p.add_argument("--kind", required=True,
                   choices=GROUP_KINDS)
    p.add_argument("--input", required=True)
    p.add_argument("--vocab", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--prefix-depth", type=int, default=MESH_PREFIX_DEPTH)
    p.set_defaults(func=_cmd_build_groups)

    p = sub.add_parser("train", help="train on the full dataset")
    p.add_argument("--config", required=True)
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_train)

    p = sub.add_parser("evaluate", help="replicated cross-validation")
    p.add_argument("--config", required=True)
    p.add_argument("--out", default="")
    p.set_defaults(func=_cmd_evaluate)

    p = sub.add_parser("predict", help="classify documents with a checkpoint")
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--input", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--vocab", default="")
    p.set_defaults(func=_cmd_predict)

    p = sub.add_parser("inspect-sharing", help="show a word's group routing")
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--word", required=True)
    p.set_defaults(func=_cmd_inspect_sharing)
    return parser


@contextmanager
def _sigterm_exits():
    """While the block runs on the main thread, SIGTERM raises SystemExit,
    so that ``write_whole`` removes its temporary file; the previous
    handler comes back afterwards."""
    # Imported here: at the top they would load before numpy does.
    import signal
    import threading

    if threading.current_thread() is not threading.main_thread():
        yield
        return

    def _exit(signum, frame):
        raise SystemExit(128 + signum)

    previous = signal.signal(signal.SIGTERM, _exit)
    try:
        yield
    finally:
        signal.signal(signal.SIGTERM, previous)


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    with _sigterm_exits():
        try:
            return args.func(args)
        except Exception as e:
            print(f"error: {e}", file=sys.stderr)
            return 1


if __name__ == "__main__":
    sys.exit(main())
