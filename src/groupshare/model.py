"""Two-channel convolutional text classifier.

Channel one is an ordinary trainable embedding matrix initialized from
pretrained vectors. Channel two is configurable:

  * "none":               single-channel model;
  * "random":             second matrix with uniform random init;
  * "group_init_no_share": second matrix initialized through the group
                           hash routing, then trained as a free matrix;
  * "group_init_share":    second matrix stays tied to the group
                           parameters for the whole run (the full
                           weight-sharing scheme).

Each channel feeds its own filter bank; pooled features from both
channels are concatenated, passed through dropout, and classified by a
softmax layer. Training uses per-parameter Adadelta.
"""

import json
import os
import struct
import uuid
from dataclasses import dataclass, field, asdict

import numpy as np

from .corpus import Vocabulary
from .groups import GroupTable, init_group_embeddings
from .hashing import (
    HashSpec,
    SharedEmbedding,
    aggregate_gradients,
    init_shared,
    sync_forward,
)
from .nnet import (
    AdadeltaState,
    FilterBank,
    adadelta_update,
    conv_backward,
    conv_forward,
    dropout,
    init_filter_bank,
    maxpool1,
    maxpool1_backward,
    softmax_xent,
    softmax_xent_backward,
)
from .seeding import derive_seed, make_rng

CHANNEL2_MODES = ("none", "random", "group_init_no_share", "group_init_share")


@dataclass(frozen=True)
class ModelConfig:
    num_classes: int
    embedding_dim: int
    filter_heights: tuple = (3, 4, 5)
    filters_per_height: int = 100
    dropout_rate: float = 0.5
    channel2_mode: str = "group_init_share"
    signing_enabled: bool = True
    seed: int = 1

    def __post_init__(self):
        if self.num_classes < 2:
            raise ValueError("need at least two classes")
        if self.embedding_dim < 1:
            raise ValueError("embedding dimension must be positive")
        if not self.filter_heights or any(h < 1 for h in self.filter_heights):
            raise ValueError("filter heights must be positive")
        if self.filters_per_height < 1:
            raise ValueError("filters_per_height must be positive")
        if not (0.0 <= self.dropout_rate < 1.0):
            raise ValueError("dropout rate must lie in [0, 1)")
        if self.channel2_mode not in CHANNEL2_MODES:
            raise ValueError(
                f"unknown channel2_mode {self.channel2_mode!r}; "
                f"expected one of {CHANNEL2_MODES}"
            )
        object.__setattr__(self, "filter_heights", tuple(self.filter_heights))

    @property
    def max_height(self) -> int:
        return max(self.filter_heights)


@dataclass
class ModelParams:
    config: ModelConfig
    vocab: Vocabulary
    emb_pretrained: np.ndarray
    channel2: object            # None | np.ndarray | SharedEmbedding
    bank_p: FilterBank
    bank_s: FilterBank          # None when channel2_mode == "none"
    softmax_w: np.ndarray       # (num_features, num_classes)
    softmax_b: np.ndarray       # (num_classes,)
    step_count: int = 0

    @property
    def is_shared(self) -> bool:
        return isinstance(self.channel2, SharedEmbedding)

    def channel2_values(self):
        return self.channel2.values if self.is_shared else self.channel2

    def num_features(self) -> int:
        n = self.bank_p.num_features()
        if self.bank_s is not None:
            n += self.bank_s.num_features()
        return n


def init_params(config: ModelConfig, vocab: Vocabulary, pretrained: np.ndarray,
                group_table: GroupTable = None) -> ModelParams:
    """Build fresh parameters; all randomness derives from config.seed."""
    pretrained = np.asarray(pretrained, dtype=np.float64)
    expected = (vocab.num_rows, config.embedding_dim)
    if pretrained.shape != expected:
        raise ValueError(
            f"pretrained matrix shape {pretrained.shape} does not match "
            f"expected {expected}"
        )
    emb_p = pretrained.copy()

    mode = config.channel2_mode
    if mode == "none":
        channel2 = None
    elif mode == "random":
        rng = make_rng(config.seed, "ch2_random")
        channel2 = rng.uniform(-0.25, 0.25, size=emb_p.shape)
        channel2[vocab.pad_id] = 0.0
    else:
        if group_table is None:
            raise ValueError(f"channel2_mode {mode!r} needs a group table")
        spec = HashSpec(
            seed=derive_seed(config.seed, "hash"),
            signing_enabled=config.signing_enabled,
        )
        group_emb = init_group_embeddings(group_table, emb_p)
        shared = init_shared(group_table, group_emb, emb_p, spec)
        channel2 = shared if mode == "group_init_share" else shared.values.copy()

    def make_bank(label):
        bank = FilterBank()
        for h in config.filter_heights:
            sub = init_filter_bank(
                [h], config.filters_per_height, config.embedding_dim,
                make_rng(config.seed, label, h),
            )
            bank.weights[h] = sub.weights[h]
            bank.biases[h] = sub.biases[h]
        return bank

    bank_p = make_bank("bank_p")
    bank_s = None if mode == "none" else make_bank("bank_s")

    num_features = bank_p.num_features() + (bank_s.num_features() if bank_s else 0)
    params = ModelParams(
        config=config,
        vocab=vocab,
        emb_pretrained=emb_p,
        channel2=channel2,
        bank_p=bank_p,
        bank_s=bank_s,
        softmax_w=np.zeros((num_features, config.num_classes), dtype=np.float64),
        softmax_b=np.zeros(config.num_classes, dtype=np.float64),
    )
    return params


def pad_document(ids: np.ndarray, min_len: int, pad_id: int) -> np.ndarray:
    ids = np.asarray(ids, dtype=np.int64)
    if ids.shape[0] >= min_len:
        return ids
    tail = np.full(min_len - ids.shape[0], pad_id, dtype=np.int64)
    return np.concatenate([ids, tail])


@dataclass
class ForwardCache:
    ids: np.ndarray
    mask: np.ndarray
    channels: list      # per channel: (grad_key, bank_key, per-height caches)
    dropped: np.ndarray
    drop_mask: np.ndarray


def forward(doc_ids: np.ndarray, params: ModelParams, train: bool = False,
            dropout_rng: np.random.Generator = None):
    """Logits for one document. Documents must be padded to max height.

    Pooling covers the windows that fit inside the real tokens; a
    document shorter than a filter keeps its single pad-completed
    window. Extra trailing padding therefore never changes the logits.
    """
    config = params.config
    ids = np.asarray(doc_ids, dtype=np.int64)
    if ids.ndim != 1 or ids.shape[0] < config.max_height:
        raise ValueError(
            f"document must be 1-D with at least {config.max_height} tokens "
            f"(pad it first)"
        )
    mask = (ids != params.vocab.pad_id).astype(np.float64)
    real_len = int(mask.sum())
    if real_len == 0:
        raise ValueError("document is all padding")

    matrices = [("emb_p", "bank_p", params.emb_pretrained, params.bank_p)]
    if params.channel2 is not None:
        matrices.append(("ch2", "bank_s", params.channel2_values(), params.bank_s))

    channels = []
    pieces = []
    for grad_key, bank_key, matrix, bank in matrices:
        x = matrix[ids] * mask[:, None]
        per_height = []
        for h in config.filter_heights:
            out, cache = conv_forward(x, bank.weights[h], bank.biases[h])
            n_windows = out.shape[0]
            n_valid = max(real_len - h + 1, 1)
            pooled, idx = maxpool1(out[:n_valid])
            per_height.append((h, cache, idx, n_valid, n_windows))
            pieces.append(pooled)
        channels.append((grad_key, bank_key, per_height))

    feat = np.concatenate(pieces)
    dropped, drop_mask = dropout(feat, config.dropout_rate, train, dropout_rng)
    logits = dropped @ params.softmax_w + params.softmax_b
    return logits, ForwardCache(
        ids=ids, mask=mask, channels=channels, dropped=dropped, drop_mask=drop_mask
    )


def zero_gradients(params: ModelParams) -> dict:
    """Gradient accumulators keyed like the parameters they mirror.

    The embedding gradients come from ``np.zeros``, which can hand out
    pages the system zeroes lazily, as a batch touches only a few rows.
    """
    grads = {
        "emb_p": np.zeros(params.emb_pretrained.shape),
        "softmax/W": np.zeros_like(params.softmax_w),
        "softmax/b": np.zeros_like(params.softmax_b),
    }
    if params.channel2 is not None:
        grads["ch2"] = np.zeros(params.channel2_values().shape)
    for bank_key, bank in (("bank_p", params.bank_p), ("bank_s", params.bank_s)):
        if bank is None:
            continue
        for h in params.config.filter_heights:
            grads[f"{bank_key}/W/{h}"] = np.zeros_like(bank.weights[h])
            grads[f"{bank_key}/b/{h}"] = np.zeros_like(bank.biases[h])
    return grads


def backward(d_logits: np.ndarray, cache: ForwardCache, params: ModelParams,
             grads: dict) -> None:
    """Accumulate gradients for one document into ``grads``."""
    config = params.config
    grads["softmax/W"] += np.outer(cache.dropped, d_logits)
    grads["softmax/b"] += d_logits
    d_feat = params.softmax_w @ d_logits
    if cache.drop_mask is not None:
        d_feat = d_feat * cache.drop_mask

    f = config.filters_per_height
    pos = 0
    for grad_key, bank_key, per_height in cache.channels:
        dx_total = None
        for h, conv_cache, idx, n_valid, n_windows in per_height:
            d_pool = d_feat[pos : pos + f]
            pos += f
            d_conv = np.zeros((n_windows, f), dtype=np.float64)
            d_conv[:n_valid] = maxpool1_backward(d_pool, idx, n_valid)
            dx, d_w, d_b = conv_backward(d_conv, conv_cache)
            grads[f"{bank_key}/W/{h}"] += d_w
            grads[f"{bank_key}/b/{h}"] += d_b
            dx_total = dx if dx_total is None else dx_total + dx
        np.add.at(grads[grad_key], cache.ids, dx_total * cache.mask[:, None])


def batch_gradients(params: ModelParams, docs, labels, train: bool = True,
                    dropout_rng: np.random.Generator = None):
    """Mean loss and mean gradients over a batch of documents."""
    if len(docs) == 0:
        raise ValueError("empty batch")
    if len(docs) != len(labels):
        raise ValueError("documents and labels disagree in length")
    pad_to = params.config.max_height
    grads = zero_gradients(params)
    total_loss = 0.0
    batch_ids = []
    for doc, label in zip(docs, labels):
        ids = pad_document(doc, pad_to, params.vocab.pad_id)
        batch_ids.append(ids)
        logits, cache = forward(ids, params, train=train, dropout_rng=dropout_rng)
        loss, probs = softmax_xent(logits, int(label))
        total_loss += loss
        backward(softmax_xent_backward(probs, int(label)), cache, params, grads)
    scale = 1.0 / len(docs)
    # embedding rows outside the batch hold +0.0, which scaling leaves as is
    rows = np.unique(np.concatenate(batch_ids))
    for key in grads:
        if key in ("emb_p", "ch2"):
            grads[key][rows] *= scale
        else:
            grads[key] *= scale
    return total_loss * scale, grads


@dataclass
class Optimizer:
    """Named Adadelta accumulators, one per parameter tensor."""

    rho: float = 0.95
    eps: float = 1e-6
    states: dict = field(default_factory=dict)

    def state(self, name: str, shape) -> AdadeltaState:
        st = self.states.get(name)
        if st is None:
            st = AdadeltaState.zeros(shape)
            self.states[name] = st
        return st

    def update(self, name: str, param: np.ndarray, grad: np.ndarray) -> None:
        adadelta_update(param, grad, self.state(name, param.shape),
                        rho=self.rho, eps=self.eps)


def apply_gradients(params: ModelParams, opt: Optimizer, grads: dict) -> None:
    """One Adadelta step on every parameter tensor.

    Every gradient is checked for shape and finiteness before any tensor
    moves, so a bad gradient raises ValueError and leaves the parameters,
    the accumulators and the step count as they were.
    """
    config = params.config
    updates = [("emb_p", params.emb_pretrained, grads["emb_p"])]
    shared = params.channel2 if params.is_shared else None
    private = None
    if shared is not None:
        group_grad = aggregate_gradients(grads["ch2"], shared)
        updates.append(("group_emb", shared.groups.vectors, group_grad))
        if shared.private_ids.size:
            private = shared.values[shared.private_ids]
            updates.append(("ch2_private", private, grads["ch2"][shared.private_ids]))
    elif params.channel2 is not None:
        updates.append(("ch2", params.channel2, grads["ch2"]))

    for bank_key, bank in (("bank_p", params.bank_p), ("bank_s", params.bank_s)):
        if bank is None:
            continue
        for h in config.filter_heights:
            updates.append((f"{bank_key}/W/{h}", bank.weights[h],
                            grads[f"{bank_key}/W/{h}"]))
            updates.append((f"{bank_key}/b/{h}", bank.biases[h],
                            grads[f"{bank_key}/b/{h}"]))
    updates.append(("softmax/W", params.softmax_w, grads["softmax/W"]))
    updates.append(("softmax/b", params.softmax_b, grads["softmax/b"]))

    for name, param, grad in updates:
        if np.shape(grad) != param.shape:
            raise ValueError(f"gradient shape does not match parameter {name}")
        if not np.isfinite(grad).all():
            raise ValueError(f"non-finite gradient for {name}")
    for name, param, grad in updates:
        opt.update(name, param, grad)
    if private is not None:
        shared.values[shared.private_ids] = private


def train_step(params: ModelParams, opt: Optimizer, docs, labels) -> float:
    """One mini-batch step: sync tied rows, compute gradients, update.

    The dropout stream is derived from (seed, step counter), so resuming
    from a checkpoint replays the identical sequence of masks.
    """
    if params.is_shared:
        sync_forward(params.channel2)
    rng = None
    if params.config.dropout_rate > 0.0:
        rng = make_rng(params.config.seed, "dropout", params.step_count)
    loss, grads = batch_gradients(params, docs, labels, train=True, dropout_rng=rng)
    if not np.isfinite(loss):
        raise RuntimeError(f"non-finite loss at step {params.step_count}")
    apply_gradients(params, opt, grads)
    params.step_count += 1
    return float(loss)


def predict(params: ModelParams, docs):
    """Labels and class probabilities for a document list."""
    if params.is_shared:
        sync_forward(params.channel2)
    pad_to = params.config.max_height
    n = len(docs)
    labels = np.zeros(n, dtype=np.int64)
    probs = np.zeros((n, params.config.num_classes), dtype=np.float64)
    for i, doc in enumerate(docs):
        ids = pad_document(doc, pad_to, params.vocab.pad_id)
        logits, _ = forward(ids, params, train=False)
        shifted = np.exp(logits - logits.max())
        probs[i] = shifted / shifted.sum()
        labels[i] = int(np.argmax(probs[i]))
    return labels, probs


def loss_on(params: ModelParams, docs, labels) -> float:
    """Mean evaluation-mode loss (no dropout, tied rows synced)."""
    if params.is_shared:
        sync_forward(params.channel2)
    pad_to = params.config.max_height
    total = 0.0
    for doc, label in zip(docs, labels):
        ids = pad_document(doc, pad_to, params.vocab.pad_id)
        logits, _ = forward(ids, params, train=False)
        loss, _ = softmax_xent(logits, int(label))
        total += loss
    return float(total / len(docs))


CHECKPOINT_MAGIC = b"GWSCKP01"
CHECKPOINT_VERSION = 1


class CheckpointError(ValueError):
    pass


def _collect_tensors(params: ModelParams, opt: Optimizer):
    tensors = [("emb_p", params.emb_pretrained)]
    if params.is_shared:
        shared = params.channel2
        table = shared.table
        flat = np.array(
            [w for ws in table.members for w in ws], dtype=np.int64
        )
        offsets = np.zeros(table.group_count + 1, dtype=np.int64)
        for gid, ws in enumerate(table.members):
            offsets[gid + 1] = offsets[gid] + len(ws)
        tensors.append(("group/members_flat", flat))
        tensors.append(("group/offsets", offsets))
        tensors.append(("group/vectors", shared.groups.vectors))
        tensors.append(("ch2/private_ids", shared.private_ids))
        tensors.append(("ch2/private_values", shared.values[shared.private_ids]))
    elif params.channel2 is not None:
        tensors.append(("ch2/matrix", params.channel2))
    for bank_key, bank in (("bank_p", params.bank_p), ("bank_s", params.bank_s)):
        if bank is None:
            continue
        for h in params.config.filter_heights:
            tensors.append((f"{bank_key}/W/{h}", bank.weights[h]))
            tensors.append((f"{bank_key}/b/{h}", bank.biases[h]))
    tensors.append(("softmax/W", params.softmax_w))
    tensors.append(("softmax/b", params.softmax_b))
    for name in sorted(opt.states):
        st = opt.states[name]
        tensors.append((f"opt/{name}/sq_grad", st.sq_grad))
        tensors.append((f"opt/{name}/sq_delta", st.sq_delta))
    return tensors


def save_checkpoint(path, params: ModelParams, opt: Optimizer) -> None:
    """Write a checkpoint; an existing file at ``path`` is replaced whole.

    The bytes go to a temporary file in the target's directory, which then
    replaces ``path``, so a write that fails midway leaves no partial
    checkpoint behind.
    """
    tensors = _collect_tensors(params, opt)
    header = {
        "format_version": CHECKPOINT_VERSION,
        "config": asdict(params.config),
        "vocab_words": list(params.vocab.words),
        "vocab_hash": params.vocab.content_hash(),
        "step_count": params.step_count,
        "opt": {"rho": opt.rho, "eps": opt.eps},
        "tensors": [
            [name, str(arr.dtype), list(arr.shape)] for name, arr in tensors
        ],
    }
    if params.is_shared:
        shared = params.channel2
        header["hash_spec"] = asdict(shared.spec)
        header["group_keys"] = list(shared.table.group_keys)
        header["group_stats"] = {
            "oov_skipped": shared.table.oov_skipped,
            "multiword_skipped": shared.table.multiword_skipped,
        }
    blob = json.dumps(header, sort_keys=True).encode("utf-8")
    tmp = f"{os.fspath(path)}.{uuid.uuid4().hex}.tmp"
    try:
        with open(tmp, "xb") as f:
            f.write(CHECKPOINT_MAGIC)
            f.write(struct.pack("<Q", len(blob)))
            f.write(blob)
            for _, arr in tensors:
                f.write(np.ascontiguousarray(arr))
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def load_checkpoint(path):
    """Rebuild (params, optimizer) from a checkpoint file.

    The header is read and every tensor size checked against the file
    size first; each tensor is then read straight into its own array.
    """
    with open(path, "rb") as f:
        size = os.fstat(f.fileno()).st_size
        pos = len(CHECKPOINT_MAGIC) + 8
        if size < pos:
            raise CheckpointError(f"{path}: file too short to be a checkpoint")
        prefix = f.read(pos)
        if prefix[: len(CHECKPOINT_MAGIC)] != CHECKPOINT_MAGIC:
            raise CheckpointError(f"{path}: bad magic bytes")
        (header_len,) = struct.unpack("<Q", prefix[len(CHECKPOINT_MAGIC) :])
        if pos + header_len > size:
            raise CheckpointError(f"{path}: truncated header")
        header = json.loads(f.read(header_len).decode("utf-8"))
        pos += header_len
        if header.get("format_version") != CHECKPOINT_VERSION:
            raise CheckpointError(
                f"{path}: unsupported format version {header.get('format_version')}"
            )

        layout = []
        for name, dtype, shape in header["tensors"]:
            dtype = np.dtype(dtype)
            count = int(np.prod(shape)) if shape else 1
            pos += count * dtype.itemsize
            if pos > size:
                raise CheckpointError(f"{path}: truncated payload at tensor {name}")
            layout.append((name, dtype, shape))
        if pos != size:
            raise CheckpointError(f"{path}: trailing bytes after payload")

        tensors = {}
        for name, dtype, shape in layout:
            arr = np.empty(shape, dtype=dtype)
            if f.readinto(arr.reshape(-1).view(np.uint8)) != arr.nbytes:
                raise CheckpointError(f"{path}: truncated payload at tensor {name}")
            tensors[name] = arr

    cfg_dict = dict(header["config"])
    cfg_dict["filter_heights"] = tuple(cfg_dict["filter_heights"])
    config = ModelConfig(**cfg_dict)
    words = tuple(header["vocab_words"])
    vocab = Vocabulary(words=words, index={w: i for i, w in enumerate(words)})
    if vocab.content_hash() != header["vocab_hash"]:
        raise CheckpointError(f"{path}: vocabulary hash mismatch")

    def bank_from(bank_key):
        bank = FilterBank()
        for h in config.filter_heights:
            bank.weights[h] = tensors[f"{bank_key}/W/{h}"]
            bank.biases[h] = tensors[f"{bank_key}/b/{h}"]
        return bank

    mode = config.channel2_mode
    if mode == "none":
        channel2 = None
    elif mode == "group_init_share":
        flat = tensors["group/members_flat"]
        offsets = tensors["group/offsets"]
        members = [
            [int(w) for w in flat[offsets[g] : offsets[g + 1]]]
            for g in range(len(offsets) - 1)
        ]
        membership = {}
        for gid, ws in enumerate(members):
            for w in ws:
                membership.setdefault(w, []).append(gid)
        stats = header.get("group_stats", {})
        table = GroupTable(
            vocab_size=vocab.num_rows,
            group_keys=list(header["group_keys"]),
            members=members,
            membership=membership,
            oov_skipped=int(stats.get("oov_skipped", 0)),
            multiword_skipped=int(stats.get("multiword_skipped", 0)),
        )
        table.validate()
        spec = HashSpec(**header["hash_spec"])
        from .groups import GroupEmbeddings
        from .hashing import build_routing

        group_emb = GroupEmbeddings(vectors=tensors["group/vectors"])
        routing = build_routing(table, config.embedding_dim, spec)
        values = np.zeros((vocab.num_rows, config.embedding_dim), dtype=np.float64)
        private_ids = tensors["ch2/private_ids"]
        values[private_ids] = tensors["ch2/private_values"]
        channel2 = SharedEmbedding(
            values=values, table=table, groups=group_emb, spec=spec,
            routing=routing, private_ids=private_ids,
        )
        channel2.sync()
    else:
        channel2 = tensors["ch2/matrix"]

    params = ModelParams(
        config=config,
        vocab=vocab,
        emb_pretrained=tensors["emb_p"],
        channel2=channel2,
        bank_p=bank_from("bank_p"),
        bank_s=None if mode == "none" else bank_from("bank_s"),
        softmax_w=tensors["softmax/W"],
        softmax_b=tensors["softmax/b"],
        step_count=int(header["step_count"]),
    )
    opt = Optimizer(rho=float(header["opt"]["rho"]), eps=float(header["opt"]["eps"]))
    for name in header["tensors"]:
        tname = name[0]
        if tname.startswith("opt/") and tname.endswith("/sq_grad"):
            base = tname[len("opt/") : -len("/sq_grad")]
            opt.states[base] = AdadeltaState(
                sq_grad=tensors[tname],
                sq_delta=tensors[f"opt/{base}/sq_delta"],
            )
    return params, opt
