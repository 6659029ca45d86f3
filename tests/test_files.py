import errno
import os

import pytest

from groupshare import files
from groupshare.cli import build_parser
from groupshare.corpus import load_dataset, save_vocabulary
from groupshare.groups import groups_from_tsv, write_groups_tsv
from groupshare.model import Optimizer, save_checkpoint
from test_cli import write_config, write_dataset
from test_model import tiny_setup


class HalfWrites:
    """A file whose first write stores half of its data and then fails, as
    on a disk that fills up."""

    def __init__(self, f):
        self.f = f

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.f.close()

    def write(self, data):
        view = data if isinstance(data, str) else memoryview(data).cast("B")
        self.f.write(view[: len(view) // 2])
        self.f.flush()
        raise OSError(errno.ENOSPC, "No space left on device")


# Each builder makes a writer's inputs and returns the write, a function
# of the target path.

def _checkpoint(tmp_path):
    params = tiny_setup(seed=3, mode="group_init_share")[0]
    return lambda out: save_checkpoint(out, params, Optimizer())


def _vocabulary(tmp_path):
    vocab = load_dataset(write_dataset(tmp_path)[0])[1]
    return lambda out: save_vocabulary(vocab, out)


def _groups_tsv(tmp_path):
    data, groups = write_dataset(tmp_path)
    vocab = load_dataset(data)[1]
    table = groups_from_tsv(groups.read_text().splitlines(), vocab)
    return lambda out: write_groups_tsv(table, vocab, out)


def _run(*argv):
    """A subcommand, with its error raised rather than printed."""
    args = build_parser().parse_args(argv)
    args.func(args)


def _predict(tmp_path):
    params = tiny_setup(seed=3, mode="group_init_share")[0]
    ckpt = tmp_path / "model.ckpt"
    save_checkpoint(ckpt, params, Optimizer())
    docs = tmp_path / "docs.txt"
    docs.write_text(" ".join(params.vocab.words[:3]) + "\n")
    return lambda out: _run("predict", "--checkpoint", str(ckpt),
                            "--input", str(docs), "--out", str(out))


def _evaluate(tmp_path):
    cfg = write_config(tmp_path, *write_dataset(tmp_path), epochs=1, folds=2)
    return lambda out: _run("evaluate", "--config", str(cfg), "--out", str(out))


@pytest.mark.parametrize("build", [_checkpoint, _vocabulary, _groups_tsv,
                                   _predict, _evaluate])
def test_a_failed_write_keeps_the_old_file(build, tmp_path, monkeypatch):
    write = build(tmp_path)
    out = tmp_path / "out"
    write(out)
    assert out.stat().st_size > 0
    assert not [name for name in os.listdir(tmp_path) if name.endswith(".tmp")]
    out.write_bytes(b"the old file\n")
    listing = sorted(os.listdir(tmp_path))
    real_open = open
    monkeypatch.setattr(files, "open",
                        lambda *a, **k: HalfWrites(real_open(*a, **k)),
                        raising=False)
    with pytest.raises(OSError, match="No space left"):
        write(out)
    assert out.read_bytes() == b"the old file\n"
    assert sorted(os.listdir(tmp_path)) == listing


def test_a_replaced_file_keeps_its_link_and_permissions(tmp_path):
    real, link = tmp_path / "real.txt", tmp_path / "link.txt"
    real.write_text("old\n")
    real.chmod(0o600)
    link.symlink_to(real)
    with files.write_whole(link) as f:
        f.write("new\n")
    assert link.is_symlink() and real.read_text() == "new\n"
    assert real.stat().st_mode & 0o777 == 0o600
    assert sorted(os.listdir(tmp_path)) == ["link.txt", "real.txt"]


def test_an_unwritable_target_fails_at_once_naming_it(tmp_path):
    out = tmp_path / "missing" / "out.txt"
    with pytest.raises(OSError, match=f"cannot write {out}: No such file"):
        with files.write_whole(out):
            pytest.fail("the block ran")
    assert os.listdir(tmp_path) == []
