"""Cross-validated evaluation: folds, downsampling, metrics, experiments.

An experiment runs R replications of stratified k-fold cross-validation
over one dataset. Every replication reshuffles the folds with its own
derived seed; every fold trains a fresh model. Fold metrics are averaged
within a replication, and the report states the mean, minimum, and
maximum of those replication averages.
"""

import dataclasses
from dataclasses import dataclass, field

import numpy as np

from .corpus import Dataset, Vocabulary
from .groups import GroupTable
from .model import ModelConfig, Optimizer, init_params, predict, train_step
from .seeding import derive_seed, make_rng


def kfold_split(labels, k: int, seed: int, stratified: bool = True):
    """Split indices 0..n-1 into k test folds.

    Stratified splits permute each class separately and deal its
    instances round-robin across folds (fold f takes every k-th instance
    from the f-th on), so fold class ratios track the corpus. Every class
    must have at least k instances. Unstratified splits permute
    everything once and cut contiguous chunks, the first n % k folds
    getting one extra. Fold index arrays come back sorted.
    """
    labels = np.asarray(labels)
    n = labels.shape[0]
    if k < 2:
        raise ValueError("need at least 2 folds")
    if n < k:
        raise ValueError(f"cannot split {n} instances into {k} folds")
    rng = np.random.default_rng(seed)
    if stratified:
        perms = []
        for cls in np.unique(labels):
            idx = np.flatnonzero(labels == cls)
            if idx.size < k:
                raise ValueError(
                    f"class {cls} has {idx.size} instances, fewer than k={k}"
                )
            perms.append(rng.permutation(idx))
        folds = [np.concatenate([perm[f::k] for perm in perms]) for f in range(k)]
    else:
        folds = np.array_split(rng.permutation(n), k)
    return [np.sort(fold).astype(np.int64, copy=False) for fold in folds]


def downsample(indices, labels, seed: int) -> np.ndarray:
    """Balance a two-class index set by subsampling the majority class.

    Keeps every minority instance and draws an equal number of majority
    instances without replacement. Returns sorted indices.
    """
    indices = np.asarray(indices, dtype=np.int64)
    labels = np.asarray(labels)
    present = np.unique(labels[indices])
    if present.size != 2:
        raise ValueError(
            f"downsampling needs exactly 2 classes, found {present.size}"
        )
    a = indices[labels[indices] == present[0]]
    b = indices[labels[indices] == present[1]]
    minority, majority = (a, b) if a.size <= b.size else (b, a)
    if minority.size == majority.size:
        return np.sort(indices)
    rng = np.random.default_rng(seed)
    kept = rng.choice(majority, size=minority.size, replace=False)
    return np.sort(np.concatenate([minority, kept]))


def accuracy(y_true, y_pred) -> float:
    y_true = np.asarray(y_true)
    y_pred = np.asarray(y_pred)
    if y_true.shape != y_pred.shape or y_true.size == 0:
        raise ValueError("label arrays must be non-empty and equal-shaped")
    return float(np.count_nonzero(y_true == y_pred) / y_true.size)


def average_ranks(values) -> np.ndarray:
    """1-based ranks of ``values``, tied values sharing their mean rank."""
    _, inverse, counts = np.unique(values, return_inverse=True, return_counts=True)
    return (np.cumsum(counts) - (counts - 1) / 2.0)[inverse]


def auc(y_true, scores) -> float:
    """Probability a positive outranks a negative, ties counting half.

    Computed from tie-averaged ranks: (sum of positive ranks minus
    P(P+1)/2) / (P * N). Needs both classes present; labels must be 0/1.
    """
    y_true = np.asarray(y_true)
    scores = np.asarray(scores, dtype=np.float64)
    if y_true.shape != scores.shape or y_true.size == 0:
        raise ValueError("labels and scores must be non-empty and equal-shaped")
    if set(np.unique(y_true)) - {0, 1}:
        raise ValueError("labels for this metric must be 0 or 1")
    p = int(np.count_nonzero(y_true == 1))
    n = int(np.count_nonzero(y_true == 0))
    if p == 0 or n == 0:
        raise ValueError("metric undefined with a single class")
    ranks = average_ranks(scores)
    return float((ranks[y_true == 1].sum() - p * (p + 1) / 2.0) / (p * n))


METRICS = ("accuracy", "auc")


@dataclass(frozen=True)
class ExperimentConfig:
    model: ModelConfig
    epochs: int = 20
    batch_size: int = 50
    folds: int = 10
    replications: int = 5
    stratified: bool = True
    downsampling: bool = False
    metric: str = "accuracy"
    rho: float = Optimizer.rho
    eps: float = Optimizer.eps
    seed: int = ModelConfig.seed

    def __post_init__(self):
        if self.epochs < 1 or self.batch_size < 1:
            raise ValueError("epochs and batch_size must be positive")
        if self.folds < 2 or self.replications < 1:
            raise ValueError("need folds >= 2 and replications >= 1")
        if self.metric not in METRICS:
            raise ValueError(f"unknown metric {self.metric!r}; expected {METRICS}")


@dataclass(frozen=True)
class FoldRecord:
    replication: int
    fold: int
    value: float
    train_size: int
    test_size: int


@dataclass
class ExperimentReport:
    metric: str
    replications: int
    folds: int
    records: list = field(default_factory=list)

    def replication_means(self) -> list:
        out = []
        for r in range(self.replications):
            vals = [rec.value for rec in self.records if rec.replication == r]
            out.append(float(np.mean(vals)))
        return out

    @property
    def mean(self) -> float:
        return float(np.mean(self.replication_means()))

    @property
    def min(self) -> float:
        return float(np.min(self.replication_means()))

    @property
    def max(self) -> float:
        return float(np.max(self.replication_means()))

    def render(self) -> str:
        """Full text report; identical runs produce identical bytes."""
        lines = [
            f"metric={self.metric} replications={self.replications} "
            f"folds={self.folds}"
        ]
        means = self.replication_means()
        for r in range(self.replications):
            lines.append(f"rep={r} mean={means[r]:.6f}")
            for rec in self.records:
                if rec.replication != r:
                    continue
                lines.append(
                    f"rep={r} fold={rec.fold} value={rec.value:.6f} "
                    f"train={rec.train_size} test={rec.test_size}"
                )
        lines.append(
            f"overall mean={self.mean:.6f} min={self.min:.6f} max={self.max:.6f}"
        )
        return "\n".join(lines) + "\n"


def train_model(config: ModelConfig, dataset: Dataset, vocab: Vocabulary,
                pretrained: np.ndarray, train_idx, exp: ExperimentConfig,
                group_table: GroupTable = None, rep: int = 0, fold: int = 0,
                log=None):
    """Train one model on the given indices; returns (params, optimizer)."""
    params = init_params(config, vocab, pretrained, group_table=group_table)
    opt = Optimizer(rho=exp.rho, eps=exp.eps)
    labels = dataset.labels
    train_idx = np.asarray(train_idx, dtype=np.int64)
    for epoch in range(exp.epochs):
        epoch_idx = train_idx
        if exp.downsampling:
            epoch_idx = downsample(
                train_idx, labels, derive_seed(exp.seed, "down", rep, fold, epoch)
            )
        order = make_rng(exp.seed, "shuffle", rep, fold, epoch).permutation(epoch_idx)
        losses = []
        for start in range(0, order.size, exp.batch_size):
            batch = order[start : start + exp.batch_size]
            docs = [dataset.documents[i] for i in batch]
            losses.append(train_step(params, opt, docs, labels[batch]))
        if log is not None:
            log(epoch, float(np.mean(losses)))
    return params, opt


def evaluate_fold(params, dataset: Dataset, test_idx, metric: str) -> float:
    docs = [dataset.documents[i] for i in test_idx]
    y_true = dataset.labels[np.asarray(test_idx, dtype=np.int64)]
    y_pred, probs = predict(params, docs)
    if metric == "accuracy":
        return accuracy(y_true, y_pred)
    return auc(y_true, probs[:, 1])


def run_experiment(exp: ExperimentConfig, dataset: Dataset, vocab: Vocabulary,
                   pretrained: np.ndarray,
                   group_table: GroupTable = None) -> ExperimentReport:
    """R replications of k-fold cross-validation with fresh models.

    Every split is made, and checked against the metric and the
    downsampling, before the first fold trains.
    """
    if exp.metric == "auc" and dataset.num_classes != 2:
        raise ValueError(
            f"metric auc needs two classes; the dataset has {dataset.num_classes}"
        )
    if exp.downsampling and dataset.num_classes != 2:
        raise ValueError(
            f"downsampling needs two classes; the dataset has {dataset.num_classes}"
        )
    labels = dataset.labels
    splits = []
    for rep in range(exp.replications):
        folds = kfold_split(
            labels, exp.folds, derive_seed(exp.seed, "folds", rep),
            stratified=exp.stratified,
        )
        for fold_id, test_idx in enumerate(folds):
            in_train = np.ones(len(dataset), dtype=bool)
            in_train[test_idx] = False
            train_idx = np.flatnonzero(in_train)
            for needs, what, part, idx in (
                    (exp.downsampling, "downsampling", "training split", train_idx),
                    (exp.metric == "auc", "metric auc", "test fold", test_idx)):
                classes = np.unique(labels[idx]).size
                if needs and classes != 2:
                    raise ValueError(f"{what} needs both classes in every {part}; "
                                     f"replication {rep} fold {fold_id} has {classes}")
            splits.append((rep, fold_id, train_idx, test_idx))

    report = ExperimentReport(
        metric=exp.metric, replications=exp.replications, folds=exp.folds
    )
    for rep, fold_id, train_idx, test_idx in splits:
        config = dataclasses.replace(
            exp.model, seed=derive_seed(exp.seed, "model", rep, fold_id)
        )
        params, _ = train_model(
            config, dataset, vocab, pretrained, train_idx, exp,
            group_table=group_table, rep=rep, fold=fold_id,
        )
        value = evaluate_fold(params, dataset, test_idx, exp.metric)
        report.records.append(
            FoldRecord(
                replication=rep,
                fold=fold_id,
                value=value,
                train_size=int(train_idx.size),
                test_size=int(test_idx.size),
            )
        )
    return report
