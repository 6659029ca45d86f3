import os
import signal
import subprocess
import sys
import time

import numpy as np
import pytest

from groupshare import cli
from groupshare.cli import main
from groupshare.model import load_checkpoint
from helpers import SRC


def write_dataset(tmp_path, n=24):
    rng = np.random.default_rng(7)
    pos = ["great", "fine", "super", "nice"]
    neg = ["awful", "poor", "dire", "grim"]
    lines = []
    for i in range(n):
        pool = pos if i % 2 else neg
        toks = [pool[int(j)] for j in rng.integers(0, 4, size=4)]
        lines.append(f"{i % 2}\t" + " ".join(toks))
    path = tmp_path / "data.tsv"
    path.write_text("\n".join(lines) + "\n")
    groups = tmp_path / "groups.tsv"
    groups.write_text(
        "".join(f"plus\t{w}\n" for w in pos) + "".join(f"minus\t{w}\n" for w in neg)
    )
    return path, groups


def write_config(tmp_path, data, groups, **overrides):
    values = {
        "dataset": str(data),
        "groups": str(groups),
        "embedding_dim": 4,
        "heights": "1,2",
        "filters": 2,
        "epochs": 2,
        "batch": 8,
        "folds": 3,
        "reps": 1,
        "mode": "group_init_share",
        "dropout": 0.5,
        "seed": 11,
    }
    values.update(overrides)
    text = (
        "[data]\n"
        f"dataset = {values['dataset']}\n"
        f"groups = {values['groups']}\n"
        f"embedding_dim = {values['embedding_dim']}\n"
        "[model]\n"
        f"filter_heights = {values['heights']}\n"
        f"filters_per_height = {values['filters']}\n"
        f"dropout = {values['dropout']}\n"
        f"channel2_mode = {values['mode']}\n"
        "[train]\n"
        f"epochs = {values['epochs']}\n"
        f"batch_size = {values['batch']}\n"
        "[eval]\n"
        f"folds = {values['folds']}\n"
        f"replications = {values['reps']}\n"
        "[run]\n"
        f"seed = {values['seed']}\n"
    )
    path = tmp_path / "run.ini"
    path.write_text(text)
    return path


def test_build_vocab(tmp_path, capsys):
    data, _ = write_dataset(tmp_path)
    out = tmp_path / "vocab.txt"
    assert main(["build-vocab", "--dataset", str(data), "--out", str(out)]) == 0
    words = out.read_text().splitlines()
    assert len(words) == len(set(words)) == 8
    assert "tokens=8" in capsys.readouterr().out


def test_build_groups_stats_and_idempotence(tmp_path, capsys):
    data, groups = write_dataset(tmp_path)
    vocab = tmp_path / "vocab.txt"
    main(["build-vocab", "--dataset", str(data), "--out", str(vocab)])
    out = tmp_path / "canon.tsv"
    rc = main(["build-groups", "--kind", "tsv", "--input", str(groups),
               "--vocab", str(vocab), "--out", str(out)])
    assert rc == 0
    printed = capsys.readouterr().out
    assert "groups=2" in printed
    assert "coverage=100.0%" in printed
    assert "words_in_1_groups=8" in printed
    first = out.read_bytes()
    twice = tmp_path / "canon2.tsv"
    main(["build-groups", "--kind", "tsv", "--input", str(out),
          "--vocab", str(vocab), "--out", str(twice)])
    assert twice.read_bytes() == first


def test_build_groups_mesh_depth(tmp_path, capsys):
    data = tmp_path / "d.tsv"
    data.write_text("1\taaa bbb\n0\tccc\n")
    vocab = tmp_path / "v.txt"
    main(["build-vocab", "--dataset", str(data), "--out", str(vocab)])
    mesh = tmp_path / "mesh.txt"
    mesh.write_text("C01.100.200\taaa\nC01.100.300\tbbb\nC02.5\tccc\n")
    out = tmp_path / "g.tsv"
    rc = main(["build-groups", "--kind", "mesh", "--input", str(mesh),
               "--vocab", str(vocab), "--out", str(out), "--prefix-depth", "2"])
    assert rc == 0
    assert "groups=2" in capsys.readouterr().out
    assert "C01.100\taaa" in out.read_text()


def test_build_groups_refuses_a_prefix_depth_below_one(tmp_path, capsys):
    data, groups = write_dataset(tmp_path)
    vocab = tmp_path / "v.txt"
    main(["build-vocab", "--dataset", str(data), "--out", str(vocab)])
    out = tmp_path / "g.tsv"
    for kind in ("tsv", "mesh"):
        for depth in ("0", "-5"):
            capsys.readouterr()
            rc = main(["build-groups", "--kind", kind, "--input", str(groups),
                       "--vocab", str(vocab), "--out", str(out),
                       "--prefix-depth", depth])
            assert rc == 1
            assert capsys.readouterr().err.startswith(
                f"error: prefix depth must be at least 1, got {depth}")
            assert not out.exists()


def test_train_predict_cycle(tmp_path, capsys):
    data, groups = write_dataset(tmp_path)
    cfg = write_config(tmp_path, data, groups)
    ckpt = tmp_path / "model.ckpt"
    assert main(["train", "--config", str(cfg), "--out", str(ckpt)]) == 0
    out = capsys.readouterr().out
    assert "epoch=0 loss=" in out and "epoch=1 loss=" in out
    assert f"saved={ckpt}" in out

    params, _ = load_checkpoint(ckpt)
    assert params.step_count == 2 * 3  # 2 epochs x ceil(24/8) batches

    new_docs = tmp_path / "new.txt"
    new_docs.write_text("great nice\nawful grim\nmystery words\n")
    pred = tmp_path / "pred.tsv"
    assert main(["predict", "--checkpoint", str(ckpt), "--input", str(new_docs),
                 "--out", str(pred)]) == 0
    lines = pred.read_text().splitlines()
    assert len(lines) == 3
    for line in lines:
        label, score = line.split("\t")
        assert label in ("0", "1")
        assert 0.0 <= float(score) <= 1.0


def test_predict_vocab_crosscheck(tmp_path, capsys):
    data, groups = write_dataset(tmp_path)
    cfg = write_config(tmp_path, data, groups)
    ckpt = tmp_path / "model.ckpt"
    main(["train", "--config", str(cfg), "--out", str(ckpt)])
    vocab = tmp_path / "vocab.txt"
    main(["build-vocab", "--dataset", str(data), "--out", str(vocab)])
    new_docs = tmp_path / "new.txt"
    new_docs.write_text("great nice\n")
    pred = tmp_path / "pred.tsv"
    capsys.readouterr()
    assert main(["predict", "--checkpoint", str(ckpt), "--input", str(new_docs),
                 "--out", str(pred), "--vocab", str(vocab)]) == 0
    other = tmp_path / "other_vocab.txt"
    other.write_text("completely\ndifferent\n")
    rc = main(["predict", "--checkpoint", str(ckpt), "--input", str(new_docs),
               "--out", str(pred), "--vocab", str(other)])
    assert rc == 1
    assert "does not match" in capsys.readouterr().err


def test_evaluate_writes_stable_report(tmp_path, capsys):
    data, groups = write_dataset(tmp_path)
    cfg = write_config(tmp_path, data, groups, mode="none", dropout=0.0,
                       epochs=1)
    out1 = tmp_path / "r1.txt"
    out2 = tmp_path / "r2.txt"
    assert main(["evaluate", "--config", str(cfg), "--out", str(out1)]) == 0
    stdout_text = capsys.readouterr().out
    assert main(["evaluate", "--config", str(cfg), "--out", str(out2)]) == 0
    assert out1.read_bytes() == out2.read_bytes()
    text = out1.read_text()
    assert stdout_text == text
    assert text.startswith("metric=accuracy replications=1 folds=3")
    assert "overall mean=" in text
    assert text.count("fold=") == 3


def test_evaluate_has_no_jobs_flag(tmp_path, capsys):
    data, groups = write_dataset(tmp_path)
    cfg = write_config(tmp_path, data, groups)
    with pytest.raises(SystemExit) as exit_info:
        main(["evaluate", "--config", str(cfg), "--out", "", "--jobs", "2"])
    assert exit_info.value.code == 2
    assert "unrecognized arguments: --jobs 2" in capsys.readouterr().err


def test_inspect_sharing(tmp_path, capsys):
    data, groups = write_dataset(tmp_path)
    cfg = write_config(tmp_path, data, groups)
    ckpt = tmp_path / "model.ckpt"
    main(["train", "--config", str(cfg), "--out", str(ckpt)])
    capsys.readouterr()
    assert main(["inspect-sharing", "--checkpoint", str(ckpt),
                 "--word", "great"]) == 0
    out = capsys.readouterr().out
    assert "word=great" in out
    assert "groups=1" in out
    assert "key=plus" in out
    # one line per embedding dimension
    dim_lines = [l for l in out.splitlines() if l and l[0].isdigit()]
    assert len(dim_lines) == 4
    for line in dim_lines:
        _, key, sgn = line.split("\t")
        assert key in ("plus", "minus")
        assert sgn in ("+1", "-1")

    rc = main(["inspect-sharing", "--checkpoint", str(ckpt), "--word", "zzz"])
    assert rc == 1
    assert "not in the vocabulary" in capsys.readouterr().err


def test_inspect_sharing_of_a_word_in_several_groups(tmp_path, capsys):
    # every dim line against the scalar hash_dim / sign oracle
    from groupshare.hashing import hash_dim, sign

    data, groups = write_dataset(tmp_path)
    with open(groups, "a") as f:
        f.write("strong\tgreat\nstrong\tawful\nmixed\tgreat\nmixed\tpoor\n")
    cfg = write_config(tmp_path, data, groups, embedding_dim=9)
    ckpt = tmp_path / "model.ckpt"
    main(["train", "--config", str(cfg), "--out", str(ckpt)])
    capsys.readouterr()
    params, _ = load_checkpoint(str(ckpt))
    shared = params.ch2
    wid = params.vocab.lookup("great")
    gids = shared.table.groups_of(wid)
    assert len(gids) == 3
    assert main(["inspect-sharing", "--checkpoint", str(ckpt),
                 "--word", "great"]) == 0
    out = capsys.readouterr().out
    assert f"groups={len(gids)}" in out
    dim_lines = [l for l in out.splitlines() if l and l[0].isdigit()]
    assert len(dim_lines) == 9
    picked = set()
    for j, line in enumerate(dim_lines):
        gid = gids[hash_dim(wid, j, len(gids), shared.spec)]
        sgn = "+1" if sign(wid, j, shared.spec) > 0 else "-1"
        assert line == f"{j}\t{shared.table.group_keys[gid]}\t{sgn}"
        picked.add(gid)
    assert len(picked) > 1


def test_inspect_sharing_needs_shared_checkpoint(tmp_path, capsys):
    data, groups = write_dataset(tmp_path)
    cfg = write_config(tmp_path, data, groups, mode="none")
    ckpt = tmp_path / "plain.ckpt"
    main(["train", "--config", str(cfg), "--out", str(ckpt)])
    capsys.readouterr()
    rc = main(["inspect-sharing", "--checkpoint", str(ckpt), "--word", "great"])
    assert rc == 1
    assert "no shared" in capsys.readouterr().err


def test_errors_exit_nonzero(tmp_path, capsys):
    assert main(["train", "--config", str(tmp_path / "nope.ini"),
                 "--out", str(tmp_path / "x.ckpt")]) == 1
    assert "error:" in capsys.readouterr().err
    assert main(["predict", "--checkpoint", str(tmp_path / "nope.ckpt"),
                 "--input", str(tmp_path / "a"), "--out", str(tmp_path / "b")]) == 1
    capsys.readouterr()


@pytest.mark.parametrize("command, loader", [("predict", "load_checkpoint"),
                                             ("evaluate", "load_run_inputs"),
                                             ("train", "load_run_inputs"),
                                             ("build-vocab", "load_dataset"),
                                             ("build-groups", "load_vocabulary")])
def test_an_unwritable_out_fails_before_any_input_is_read(
        command, loader, tmp_path, capsys, monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError(f"{loader} was called")

    monkeypatch.setattr(cli, loader, refuse)
    data, groups = write_dataset(tmp_path)
    config = ["--config", str(write_config(tmp_path, data, groups))]
    inputs = {
        "predict": ["--checkpoint", str(tmp_path / "m.ckpt"),
                    "--input", str(tmp_path / "docs.txt")],
        "evaluate": config,
        "train": config,
        "build-vocab": ["--dataset", str(data)],
        "build-groups": ["--kind", "tsv", "--input", str(groups),
                         "--vocab", str(tmp_path / "vocab.txt")],
    }[command]
    before = sorted(os.listdir(tmp_path))
    out = tmp_path / "missing" / "out.txt"
    assert main([command, *inputs, "--out", str(out)]) == 1
    assert capsys.readouterr().err.startswith(f"error: cannot write {out}: ")
    assert sorted(os.listdir(tmp_path)) == before


def test_sigterm_removes_the_temporary_output(tmp_path):
    data, groups = write_dataset(tmp_path)
    config = write_config(tmp_path, data, groups, epochs=100000)
    out = tmp_path / "model.ckpt"
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [SRC] + [p for p in [os.environ.get("PYTHONPATH")] if p]))
    child = subprocess.Popen(
        [sys.executable, "-m", "groupshare.cli", "train",
         "--config", str(config), "--out", str(out)],
        env=env, stdout=subprocess.DEVNULL, stderr=subprocess.PIPE)
    try:
        deadline = time.monotonic() + 60
        while not list(tmp_path.glob("*.tmp")):
            assert child.poll() is None, child.stderr.read()
            assert time.monotonic() < deadline, "no temporary file appeared"
            time.sleep(0.02)
        child.send_signal(signal.SIGTERM)
        assert child.wait(timeout=60) != 0
    finally:
        child.kill()
        child.wait()
        child.stderr.close()
    assert not list(tmp_path.glob("*.tmp"))
    assert not out.exists()
