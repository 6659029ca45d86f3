import dataclasses

import numpy as np
import pytest

from groupshare.config import (
    RunConfig,
    experiment_config,
    load_config,
    load_run_inputs,
    model_config,
    parse_config,
)
from groupshare.evaluation import ExperimentConfig
from groupshare.model import ModelConfig, Optimizer

# the INI schema: section -> its keys
SECTIONS = {
    "data": ("dataset", "pretrained", "pretrained_format", "embedding_dim",
             "groups", "groups_kind", "mesh_prefix_depth"),
    "model": ("filter_heights", "filters_per_height", "dropout",
              "channel2_mode", "signing"),
    "train": ("epochs", "batch_size", "rho", "eps", "downsampling"),
    "eval": ("folds", "replications", "metric", "stratified"),
    "run": ("seed",),
}


def ini_text(cfg):
    """Every key of ``cfg`` as an INI file, section by section."""
    lines = []
    for section, keys in SECTIONS.items():
        lines.append(f"[{section}]")
        for key in keys:
            value = getattr(cfg, key)
            if isinstance(value, bool):
                value = "true" if value else "false"
            elif isinstance(value, tuple):
                value = ",".join(str(h) for h in value)
            lines.append(f"{key} = {value}".rstrip())
        lines.append("")
    return "\n".join(lines)


def test_empty_text_yields_defaults():
    cfg = parse_config("")
    assert cfg == RunConfig()
    assert cfg.filter_heights == (3, 4, 5)
    assert cfg.channel2_mode == "group_init_share"
    assert cfg.epochs == 20 and cfg.batch_size == 50
    assert cfg.rho == 0.95 and cfg.eps == 1e-6
    assert cfg.folds == 10 and cfg.replications == 5


def test_partial_file_overrides_some_keys():
    cfg = parse_config(
        "[model]\nfilter_heights = 1\ndropout = 0.25\n"
        "[run]\nseed = 42\n"
    )
    assert cfg.filter_heights == (1,)
    assert cfg.dropout == 0.25
    assert cfg.seed == 42
    assert cfg.epochs == 20  # untouched default


def test_unknown_sections_and_keys_are_rejected():
    with pytest.raises(ValueError, match="unknown config sections"):
        parse_config("[optimizer]\nlr = 1\n")
    with pytest.raises(ValueError, match=r"unknown keys in \[model\]"):
        parse_config("[model]\nlearning_rate = 0.1\n")
    with pytest.raises(ValueError, match=r"unknown keys in \[data\]"):
        parse_config("[data]\nDataset = x\n")  # keys are case-sensitive


def test_value_conversion_errors():
    with pytest.raises(ValueError, match="not an integer"):
        parse_config("[train]\nepochs = many\n")
    with pytest.raises(ValueError, match="not a number"):
        parse_config("[train]\nrho = high\n")
    with pytest.raises(ValueError, match="true"):
        parse_config("[train]\ndownsampling = yes\n")
    with pytest.raises(ValueError, match="comma-separated"):
        parse_config("[model]\nfilter_heights = 3;4\n")
    with pytest.raises(ValueError, match="at least one"):
        parse_config("[model]\nfilter_heights = ,\n")


def test_semantic_validation():
    with pytest.raises(ValueError, match="channel2_mode"):
        parse_config("[model]\nchannel2_mode = tied\n")
    with pytest.raises(ValueError, match="metric"):
        parse_config("[eval]\nmetric = f1\n")
    with pytest.raises(ValueError, match="pretrained_format"):
        parse_config("[data]\npretrained_format = json\n")
    with pytest.raises(ValueError, match="groups_kind"):
        parse_config("[data]\ngroups_kind = wordnet\n")
    with pytest.raises(ValueError, match="dropout"):
        parse_config("[model]\ndropout = 1.5\n")
    with pytest.raises(ValueError, match="filter heights must be distinct"):
        parse_config("[model]\nfilter_heights = 3,4,3\n")
    with pytest.raises(ValueError, match="rho"):
        parse_config("[train]\nrho = 1.0\n")
    with pytest.raises(ValueError, match="eps"):
        parse_config("[train]\neps = inf\n")
    with pytest.raises(ValueError, match="eps"):
        parse_config("[train]\neps = nan\n")
    with pytest.raises(ValueError, match="folds"):
        parse_config("[eval]\nfolds = 1\n")


def test_dump_parse_round_trip():
    rng = np.random.default_rng(12)
    for trial in range(15):
        cfg = RunConfig(
            dataset=f"data{trial}.tsv",
            pretrained="" if trial % 2 else "emb.txt",
            pretrained_format="binary" if trial % 3 == 0 else "text",
            embedding_dim=int(rng.integers(0, 50)),
            groups="groups.tsv",
            groups_kind=["tsv", "brown", "mesh", "sentilex"][trial % 4],
            mesh_prefix_depth=int(rng.integers(1, 5)),
            filter_heights=tuple(
                sorted(set(int(h) for h in rng.integers(1, 8, size=3)))
            ),
            filters_per_height=int(rng.integers(1, 200)),
            dropout=float(rng.uniform(0, 0.9)),
            channel2_mode=["none", "random", "group_init_no_share",
                           "group_init_share"][trial % 4],
            signing=bool(trial % 2),
            epochs=int(rng.integers(1, 50)),
            batch_size=int(rng.integers(1, 100)),
            rho=float(rng.uniform(0.5, 0.99)),
            eps=float(10.0 ** -rng.integers(3, 9)),
            downsampling=bool(trial % 3),
            folds=int(rng.integers(2, 12)),
            replications=int(rng.integers(1, 8)),
            metric="auc" if trial % 2 else "accuracy",
            stratified=bool(trial % 2),
            seed=int(rng.integers(0, 10**9)),
        )
        text = ini_text(cfg)
        assert parse_config(text) == cfg
        assert ini_text(parse_config(text)) == text


def test_dump_echoes_every_key():
    # the round trip above covers every RunConfig field
    assert sorted(k for keys in SECTIONS.values() for k in keys) == sorted(
        f.name for f in dataclasses.fields(RunConfig))
    text = ini_text(RunConfig())
    assert parse_config(text) == RunConfig()
    for key in (
        "dataset", "pretrained", "pretrained_format", "embedding_dim",
        "groups", "groups_kind", "mesh_prefix_depth", "filter_heights",
        "filters_per_height", "dropout", "channel2_mode", "signing",
        "epochs", "batch_size", "rho", "eps", "downsampling", "folds",
        "replications", "metric", "stratified", "seed",
    ):
        assert f"\n{key} =" in text
    for section in ("data", "model", "train", "eval", "run"):
        assert f"[{section}]" in text


def test_load_config_reads_files(tmp_path):
    path = tmp_path / "run.ini"
    path.write_text("[run]\nseed = 7\n")
    assert load_config(path).seed == 7


def test_model_and_experiment_config_mapping():
    run = RunConfig(filter_heights=(2, 3), filters_per_height=5, dropout=0.1,
                    channel2_mode="random", signing=False, epochs=3,
                    batch_size=9, folds=4, replications=2, metric="auc",
                    stratified=False, downsampling=True, seed=77,
                    rho=0.9, eps=1e-5)
    mc = model_config(run, num_classes=3, embedding_dim=6)
    assert mc.num_classes == 3
    assert mc.embedding_dim == 6
    assert mc.filter_heights == (2, 3)
    assert mc.filters_per_height == 5
    assert mc.dropout_rate == 0.1
    assert mc.channel2_mode == "random"
    assert mc.signing_enabled is False
    assert mc.seed == 77
    ec = experiment_config(run, mc)
    assert ec.epochs == 3 and ec.batch_size == 9
    assert ec.folds == 4 and ec.replications == 2
    assert ec.metric == "auc" and ec.stratified is False
    assert ec.downsampling is True
    assert ec.rho == 0.9 and ec.eps == 1e-5
    assert ec.seed == 77


def test_ini_defaults_equal_the_dataclass_defaults():
    mc = model_config(RunConfig(), 2, 1)
    assert mc == ModelConfig(2, 1)
    ec = experiment_config(RunConfig(), mc)
    assert ec == ExperimentConfig(model=mc)
    opt = Optimizer()
    assert (opt.rho, opt.eps) == (ec.rho, ec.eps)


def write_tiny_dataset(tmp_path):
    data = tmp_path / "data.tsv"
    data.write_text("1\tgood fine\n0\tbad poor\n1\tfine good\n0\tpoor bad\n")
    return data


def test_load_run_inputs_random_embeddings(tmp_path):
    data = write_tiny_dataset(tmp_path)
    run = RunConfig(dataset=str(data), embedding_dim=5, channel2_mode="none")
    dataset, vocab, pretrained, table = load_run_inputs(run)
    assert len(dataset) == 4
    assert pretrained.shape == (vocab.num_rows, 5)
    assert table is None
    again = load_run_inputs(run)[2]
    np.testing.assert_array_equal(pretrained, again)


def test_load_run_inputs_needs_dim_or_file(tmp_path):
    data = write_tiny_dataset(tmp_path)
    run = RunConfig(dataset=str(data), channel2_mode="none")
    with pytest.raises(ValueError, match="embedding_dim"):
        load_run_inputs(run)
    with pytest.raises(ValueError, match="dataset"):
        load_run_inputs(RunConfig())


def test_load_run_inputs_pretrained_and_groups(tmp_path):
    data = write_tiny_dataset(tmp_path)
    emb = tmp_path / "emb.txt"
    emb.write_text("2 3\ngood 1 2 3\nbad -1 -2 -3\n")
    grp = tmp_path / "groups.tsv"
    grp.write_text("plus\tgood\nplus\tfine\nminus\tbad\nminus\tpoor\n")
    run = RunConfig(dataset=str(data), pretrained=str(emb), groups=str(grp))
    dataset, vocab, pretrained, table = load_run_inputs(run)
    assert pretrained.shape[1] == 3
    assert table.group_count == 2
    conflicted = dataclasses.replace(run, embedding_dim=7)
    with pytest.raises(ValueError, match="width"):
        load_run_inputs(conflicted)
    missing = dataclasses.replace(run, groups="")
    with pytest.raises(ValueError, match="groups path"):
        load_run_inputs(missing)


def test_load_run_inputs_mesh_depth(tmp_path):
    data = tmp_path / "data.tsv"
    data.write_text("1\tcolitis\n0\tasthma\n1\tcolitis\n0\tasthma\n")
    grp = tmp_path / "mesh.tsv"
    grp.write_text("C06.552.150.125\tcolitis\nC08.127.108\tasthma\n")
    run = RunConfig(dataset=str(data), embedding_dim=4, groups=str(grp),
                    groups_kind="mesh", mesh_prefix_depth=2)
    _, _, _, table = load_run_inputs(run)
    assert table.group_keys == ["C06.552", "C08.127"]


def test_group_file_is_read_only_for_grouped_modes(tmp_path):
    data = write_tiny_dataset(tmp_path)
    grp = tmp_path / "groups.tsv"
    grp.write_text("no tab on this line\n")
    for mode in ("none", "random"):
        run = RunConfig(dataset=str(data), embedding_dim=3, groups=str(grp),
                        channel2_mode=mode)
        assert load_run_inputs(run)[3] is None
    for mode in ("group_init_no_share", "group_init_share"):
        run = RunConfig(dataset=str(data), embedding_dim=3, groups=str(grp),
                        channel2_mode=mode)
        with pytest.raises(ValueError, match="line 1"):
            load_run_inputs(run)
