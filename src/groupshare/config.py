"""Run configuration files.

INI syntax with five sections, [data], [model], [train], [eval] and
[run], whose keys _SECTIONS lists. Every key is a RunConfig field and
has its default, the default of the setting it feeds; unknown sections
or keys are rejected outright so typos cannot silently fall back to
defaults.
"""

import configparser
from dataclasses import dataclass, fields

from .corpus import load_dataset, load_pretrained, random_pretrained
from .evaluation import ExperimentConfig
from .groups import GROUP_KINDS, MESH_PREFIX_DEPTH, load_groups
from .model import GROUPED_MODES, ModelConfig, Optimizer
from .seeding import derive_seed


@dataclass(frozen=True)
class RunConfig:
    dataset: str = ""
    pretrained: str = ""
    pretrained_format: str = "text"
    embedding_dim: int = 0
    groups: str = ""
    groups_kind: str = "tsv"
    mesh_prefix_depth: int = MESH_PREFIX_DEPTH
    filter_heights: tuple = ModelConfig.filter_heights
    filters_per_height: int = ModelConfig.filters_per_height
    dropout: float = ModelConfig.dropout_rate
    channel2_mode: str = ModelConfig.channel2_mode
    signing: bool = ModelConfig.signing_enabled
    epochs: int = ExperimentConfig.epochs
    batch_size: int = ExperimentConfig.batch_size
    rho: float = ExperimentConfig.rho
    eps: float = ExperimentConfig.eps
    downsampling: bool = ExperimentConfig.downsampling
    folds: int = ExperimentConfig.folds
    replications: int = ExperimentConfig.replications
    metric: str = ExperimentConfig.metric
    stratified: bool = ExperimentConfig.stratified
    seed: int = ExperimentConfig.seed


# section -> its keys, each a RunConfig field whose type is the key's kind
_SECTIONS = {
    "data": ("dataset", "pretrained", "pretrained_format", "embedding_dim",
             "groups", "groups_kind", "mesh_prefix_depth"),
    "model": ("filter_heights", "filters_per_height", "dropout",
              "channel2_mode", "signing"),
    "train": ("epochs", "batch_size", "rho", "eps", "downsampling"),
    "eval": ("folds", "replications", "metric", "stratified"),
    "run": ("seed",),
}
_KINDS = {f.name: f.type for f in fields(RunConfig)}

_EMB_FORMATS = ("text", "binary")


def _convert(kind: type, raw: str, where: str):
    raw = raw.strip()
    if kind is str:
        return raw
    if kind is int:
        try:
            return int(raw)
        except ValueError:
            raise ValueError(f"{where}: {raw!r} is not an integer") from None
    if kind is float:
        try:
            return float(raw)
        except ValueError:
            raise ValueError(f"{where}: {raw!r} is not a number") from None
    if kind is bool:
        if raw == "true":
            return True
        if raw == "false":
            return False
        raise ValueError(f"{where}: expected 'true' or 'false', got {raw!r}")
    # tuple: the filter heights
    try:
        heights = tuple(int(p) for p in raw.split(",") if p.strip() != "")
    except ValueError:
        raise ValueError(
            f"{where}: expected comma-separated integers, got {raw!r}"
        ) from None
    if not heights:
        raise ValueError(f"{where}: needs at least one filter height")
    return heights


def _validate(cfg: RunConfig) -> RunConfig:
    """Check every setting before any input file is read.

    The settings of the model, the experiment and the optimizer are
    checked by building those objects; the class count and the width,
    which only the data decides, get the stand-ins 2 and 1.
    """
    if cfg.pretrained_format not in _EMB_FORMATS:
        raise ValueError(
            f"pretrained_format must be one of {_EMB_FORMATS}, "
            f"got {cfg.pretrained_format!r}"
        )
    if cfg.groups_kind not in GROUP_KINDS:
        raise ValueError(
            f"groups_kind must be one of {GROUP_KINDS}, got {cfg.groups_kind!r}"
        )
    if cfg.embedding_dim < 0:
        raise ValueError("embedding_dim cannot be negative")
    if cfg.mesh_prefix_depth < 1:
        raise ValueError("mesh_prefix_depth must be at least 1")
    experiment_config(cfg, model_config(cfg, num_classes=2, embedding_dim=1))
    Optimizer(rho=cfg.rho, eps=cfg.eps)
    return cfg


def parse_config(text: str) -> RunConfig:
    cp = configparser.ConfigParser(interpolation=None)
    cp.optionxform = str
    cp.read_string(text)
    unknown_sections = set(cp.sections()) - set(_SECTIONS)
    if unknown_sections:
        raise ValueError(f"unknown config sections: {sorted(unknown_sections)}")
    values = {}
    for section, keys in _SECTIONS.items():
        if not cp.has_section(section):
            continue
        unknown = set(cp.options(section)) - set(keys)
        if unknown:
            raise ValueError(
                f"unknown keys in [{section}]: {sorted(unknown)}"
            )
        for key in keys:
            if cp.has_option(section, key):
                values[key] = _convert(
                    _KINDS[key], cp.get(section, key), f"[{section}] {key}"
                )
    return _validate(RunConfig(**values))


def load_config(path) -> RunConfig:
    with open(path, "r", encoding="utf-8") as f:
        return parse_config(f.read())


def model_config(run: RunConfig, num_classes: int, embedding_dim: int) -> ModelConfig:
    return ModelConfig(
        num_classes=num_classes,
        embedding_dim=embedding_dim,
        filter_heights=run.filter_heights,
        filters_per_height=run.filters_per_height,
        dropout_rate=run.dropout,
        channel2_mode=run.channel2_mode,
        signing_enabled=run.signing,
        seed=run.seed,
    )


def experiment_config(run: RunConfig, model: ModelConfig) -> ExperimentConfig:
    return ExperimentConfig(
        model=model,
        epochs=run.epochs,
        batch_size=run.batch_size,
        folds=run.folds,
        replications=run.replications,
        stratified=run.stratified,
        downsampling=run.downsampling,
        metric=run.metric,
        rho=run.rho,
        eps=run.eps,
        seed=run.seed,
    )


def load_run_inputs(run: RunConfig):
    """Materialize (dataset, vocab, pretrained, group_table) for a run.

    With no pretrained path, embedding_dim must be set and the first
    channel starts from seeded uniform random vectors. The group file is
    read only for the modes that start from groups; for the others the
    table is None.
    """
    if not run.dataset:
        raise ValueError("config has no [data] dataset path")
    dataset, vocab = load_dataset(run.dataset)

    if run.pretrained:
        pretrained = load_pretrained(
            run.pretrained, vocab, format=run.pretrained_format,
            oov_seed=derive_seed(run.seed, "oov"),
        )
        if run.embedding_dim and pretrained.shape[1] != run.embedding_dim:
            raise ValueError(
                f"embedding_dim={run.embedding_dim} but pretrained file "
                f"has width {pretrained.shape[1]}"
            )
    else:
        if run.embedding_dim < 1:
            raise ValueError(
                "config needs either a pretrained path or a positive "
                "embedding_dim"
            )
        pretrained = random_pretrained(
            vocab, run.embedding_dim, seed=derive_seed(run.seed, "emb")
        )

    group_table = None
    if run.channel2_mode in GROUPED_MODES:
        if not run.groups:
            raise ValueError(
                f"channel2_mode={run.channel2_mode} needs a [data] groups path"
            )
        group_table = load_groups(run.groups, run.groups_kind, vocab,
                                  run.mesh_prefix_depth)
    return dataset, vocab, pretrained, group_table
