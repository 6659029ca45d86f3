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

Every second channel is a SharedEmbedding; a free matrix is one over a
table with no groups, in which every row is private.

Each channel feeds its own filter bank; pooled features from both
channels are concatenated, passed through dropout, and classified by a
softmax layer. Training uses per-parameter Adadelta.
"""

import json
import math
import os
import struct
from dataclasses import dataclass, field, asdict
from functools import partial

import numpy as np

from .corpus import Vocabulary, random_pretrained
from .files import write_whole
from .groups import GroupEmbeddings, GroupTable, init_group_embeddings
from .hashing import (
    HashSpec,
    SharedEmbedding,
    aggregate_gradients,
    build_routing,
    init_shared,
    locate,
    sync_forward,
    unshared,
)
from .nnet import (
    EPS,
    RHO,
    AdadeltaState,
    FilterBank,
    adadelta_update,
    conv_backward,
    conv_forward,
    dropout,
    maxpool1,
    maxpool1_backward,
    padded_rows,
    rows_product,
    softmax,
    softmax_xent,
    softmax_xent_backward,
)
from .seeding import derive_seed, make_rng

CHANNEL2_MODES = ("none", "random", "group_init_no_share", "group_init_share")
# the modes whose second channel starts from a group table
GROUPED_MODES = ("group_init_no_share", "group_init_share")


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
        if len(set(self.filter_heights)) != len(self.filter_heights):
            # each height names one filter bank and one checkpoint tensor
            raise ValueError("filter heights must be distinct")
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

    @property
    def num_features(self) -> int:
        """Width of the pooled features: one per filter of each channel."""
        channels = 1 if self.channel2_mode == "none" else 2
        return channels * len(self.filter_heights) * self.filters_per_height


@dataclass
class ModelParams:
    config: ModelConfig
    vocab: Vocabulary
    emb_pretrained: np.ndarray
    ch2: SharedEmbedding        # None when channel2_mode == "none"
    bank_p: FilterBank
    bank_s: FilterBank          # None when channel2_mode == "none"
    softmax_w: np.ndarray       # (num_features, num_classes)
    softmax_b: np.ndarray       # (num_classes,)
    step_count: int = 0

    @property
    def is_shared(self) -> bool:
        """The second channel is tied to group rows."""
        return self.config.channel2_mode == "group_init_share"

    @property
    def channel2(self):
        """Read-only view: the SharedEmbedding when it is tied, a copy of the
        matrix of a free channel, None without a second channel."""
        return self.ch2 if self.is_shared else self.channel2_values()

    def channel2_values(self):
        return None if self.ch2 is None else self.ch2.values


def hash_spec(config: ModelConfig) -> HashSpec:
    """The routing's hash spec: the config's seed and signing switch."""
    return HashSpec(seed=derive_seed(config.seed, "hash"),
                    signing_enabled=config.signing_enabled)


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
    spec = hash_spec(config)
    if mode in GROUPED_MODES:
        if group_table is None:
            raise ValueError(f"channel2_mode {mode!r} needs a group table")
        group_emb = init_group_embeddings(group_table, emb_p)
        ch2 = init_shared(group_table, group_emb, emb_p, spec)
        if mode == "group_init_no_share":
            ch2 = unshared(ch2.values, spec)
    elif mode == "random":
        matrix = random_pretrained(vocab, config.embedding_dim,
                                   seed=derive_seed(config.seed, "ch2_random"))
        ch2 = unshared(matrix, spec)
    else:
        ch2 = None

    def make_bank(label):
        """Weights ~ N(0, 0.1) from one stream per height, biases 0.1."""
        bank = FilterBank()
        f = config.filters_per_height
        for h in config.filter_heights:
            bank.weights[h] = make_rng(config.seed, label, h).normal(
                0.0, 0.1, size=(f, h, config.embedding_dim))
            bank.biases[h] = np.full(f, 0.1)
        return bank

    return ModelParams(
        config=config, vocab=vocab, emb_pretrained=emb_p, ch2=ch2,
        bank_p=make_bank("bank_p"),
        bank_s=None if mode == "none" else make_bank("bank_s"),
        softmax_w=np.zeros((config.num_features, config.num_classes)),
        softmax_b=np.zeros(config.num_classes),
    )


# Bounds of a block: a run of consecutive documents that goes through
# one projection per channel and filter height. A block holds at most
# BLOCK_WORDS distinct words and BLOCK_POSITIONS padded token positions,
# and at least one document. A training batch of the paper's size (50
# documents) is one block; the position bound keeps the (documents,
# windows, filters) responses of a long call at the size of such a
# batch's, and the word bound keeps the projections small.
BLOCK_WORDS = 1024
BLOCK_POSITIONS = 16384


def pad_block(docs, min_len: int, pad_id: int) -> np.ndarray:
    """Documents as the rows of one id matrix, padded to the longest of
    them and to at least ``min_len`` tokens."""
    width = max([min_len] + [len(doc) for doc in docs])
    ids = np.full((len(docs), width), pad_id, dtype=np.int64)
    for row, doc in zip(ids, docs):
        row[: len(doc)] = doc
    return ids


def distinct_words(docs) -> np.ndarray:
    """The ascending distinct ids of a list of id arrays."""
    return np.unique(np.concatenate([np.empty(0, np.int64), *docs]))


def blocks(params: ModelParams, docs):
    """Yield (start, ids, words) over the blocks of ``docs``.

    ``ids`` holds ``docs[start:start + len(ids)]`` padded by ``pad_block``
    to at least the maximum filter height, and ``words`` their ascending
    distinct ids. A block grows while it stays within BLOCK_POSITIONS and
    BLOCK_WORDS.
    """
    min_len = params.config.max_height
    lengths = [len(doc) for doc in docs]
    start = 0
    while start < len(docs):
        width = max(min_len, lengths[start])
        end = start + 1
        while end < len(docs):
            grown = max(width, lengths[end])
            if (end + 1 - start) * grown > BLOCK_POSITIONS:
                break
            width, end = grown, end + 1
        words, first = np.unique(np.concatenate(docs[start:end]), return_index=True)
        if words.size > BLOCK_WORDS:
            # cut before the document that brings word BLOCK_WORDS + 1
            over = np.partition(first, BLOCK_WORDS)[BLOCK_WORDS]
            ends = np.cumsum(lengths[start:end])
            end = start + max(1, int(np.searchsorted(ends, over, side="right")))
            words = distinct_words(docs[start:end])
        yield start, pad_block(docs[start:end], min_len, params.vocab.pad_id), words
        start = end


def channel_rows(params: ModelParams, words: np.ndarray) -> list:
    """Each channel's embedding rows of the ascending ids ``words``, in a
    matrix of ``padded_rows(len(words) + 1)`` rows whose rows from
    ``len(words)`` on are zero: row ``len(words)`` is what a PAD position
    reads."""
    n = len(words)
    shape = (padded_rows(n + 1), params.config.embedding_dim)
    rows = [np.zeros(shape)]
    np.take(params.emb_pretrained, words, axis=0, out=rows[0][:n])
    if params.ch2 is not None:
        rows.append(np.zeros(shape))
        rows[1][:n] = sync_forward(params.ch2, words)
    return rows


@dataclass
class ForwardCache:
    slots: np.ndarray   # (documents, length) row of each position in the rows
    n_words: int
    n_rows: int         # rows of each channel's row matrix
    channels: list      # per channel: (grad_key, bank_key, per-height caches)
    dropped: np.ndarray
    drop_mask: np.ndarray


def forward(ids: np.ndarray, params: ModelParams, words: np.ndarray, rows: list,
            dropout_rng: np.random.Generator = None, for_backward: bool = False):
    """Logits for a block of documents padded to one length.

    ``ids`` is (documents, length), with length at least the maximum
    filter height; returns ((documents, classes) logits, the cache that
    ``backward`` reads, or None unless ``for_backward``). ``words`` holds
    every id in the block but PAD, ascending, and ``rows`` is
    ``channel_rows(params, words)``; PAD positions read +0.0. Dropout runs
    when ``dropout_rng`` is given (training) and not without it
    (evaluation). Pooling covers the windows that fit inside each
    document's real tokens; a document shorter than a filter keeps its
    single pad-completed window. Extra trailing padding therefore never
    changes the logits. The ReLU runs on the pooled features: it is
    monotone, so the max of the rectified windows is the rectified max.

    Without ``for_backward`` (evaluation) the pool takes the max alone;
    the winning windows, which only ``backward`` reads, are found only
    with it. Both give the same logits. Each filter height's window
    responses are formed and pooled in runs of the fewest whole documents
    that hold ``nnet.TILE_VALUES`` values (4 MiB), the block's last run
    perhaps fewer.
    """
    config = params.config
    ids = np.asarray(ids, dtype=np.int64)
    if ids.ndim != 2 or ids.shape[1] < config.max_height:
        raise ValueError(
            f"a block must be (documents, length) with length at least "
            f"{config.max_height} (pad it first)"
        )
    real = ids != params.vocab.pad_id
    real_len = real.sum(axis=1)
    if (real_len == 0).any():
        raise ValueError("document is all padding")

    slots = np.where(real, np.searchsorted(words, ids), len(words))
    pool = maxpool1 if for_backward else partial(maxpool1, index=False)
    banks = [("emb_p", "bank_p", params.bank_p), ("ch2", "bank_s", params.bank_s)]
    channels = []
    pieces = []
    for (grad_key, bank_key, bank), table in zip(banks, rows):  # one per channel
        per_height = []
        for h in config.filter_heights:
            pooled, idx, cache = conv_forward(
                table, slots, np.maximum(real_len - h + 1, 1), bank.weights[h],
                bank.biases[h], pool)
            pooled = np.maximum(pooled, 0.0)
            per_height.append((h, cache, idx, pooled))
            pieces.append(pooled)
        channels.append((grad_key, bank_key, per_height))

    feat = np.concatenate(pieces, axis=1)
    dropped, drop_mask = dropout(feat, config.dropout_rate, dropout_rng)
    logits = rows_product(dropped, params.softmax_w) + params.softmax_b
    if not for_backward:
        return logits, None
    return logits, ForwardCache(slots=slots, n_words=len(words), n_rows=len(rows[0]),
                                channels=channels,
                                dropped=dropped, drop_mask=drop_mask)


def dense_tensors(params: ModelParams) -> list:
    """(name, tensor) of the filter banks and the softmax layer: the
    parameters that every step updates whole."""
    out = []
    for bank_key, bank in (("bank_p", params.bank_p), ("bank_s", params.bank_s)):
        if bank is not None:
            for h in params.config.filter_heights:
                out += [(f"{bank_key}/W/{h}", bank.weights[h]),
                        (f"{bank_key}/b/{h}", bank.biases[h])]
    return out + [("softmax/W", params.softmax_w), ("softmax/b", params.softmax_b)]


def zero_gradients(params: ModelParams, n_rows: int) -> dict:
    """Gradient accumulators keyed like the parameters they mirror.

    The embedding gradients hold ``n_rows`` rows, one for each of the
    batch's ascending distinct word ids, in that order.
    """
    grads = {name: np.zeros_like(t) for name, t in dense_tensors(params)}
    keys = ("emb_p",) if params.ch2 is None else ("emb_p", "ch2")
    for key in keys:
        grads[key] = np.zeros((n_rows, params.config.embedding_dim))
    return grads


def backward(d_logits: np.ndarray, cache: ForwardCache, params: ModelParams,
             grads: dict, at: np.ndarray) -> None:
    """Accumulate the gradients of a block's summed loss into ``grads``;
    ``d_logits`` is (documents, classes), and ``at`` gives the embedding
    gradient rows of the ``words`` that ``forward`` was given."""
    grads["softmax/W"] += cache.dropped.T @ d_logits
    grads["softmax/b"] += d_logits.sum(axis=0)
    d_feat = d_logits @ params.softmax_w.T
    if cache.drop_mask is not None:
        d_feat = d_feat * cache.drop_mask

    f = params.config.filters_per_height
    pos = 0
    for grad_key, bank_key, per_height in cache.channels:
        d_rows = 0.0
        for h, conv_cache, idx, pooled in per_height:
            # through the ReLU, which passes gradient where it passed input
            d_pre = d_feat[:, pos : pos + f] * (pooled > 0.0)
            pos += f
            d_proj = maxpool1_backward(d_pre, idx, cache.slots, h, cache.n_rows)
            dx, d_w, d_b = conv_backward(d_proj, conv_cache)
            grads[f"{bank_key}/W/{h}"] += d_w
            grads[f"{bank_key}/b/{h}"] += d_b
            d_rows = d_rows + dx
        grads[grad_key][at] += d_rows[: cache.n_words]


def batch_gradients(params: ModelParams, docs, labels,
                    dropout_rng: np.random.Generator = None):
    """Mean loss and mean gradients over a batch of documents, with
    dropout drawn from ``dropout_rng`` when it is given.

    Returns (loss, grads, words): ``grads["emb_p"]`` and ``grads["ch2"]``
    hold the gradient rows of the ascending word ids ``words`` only; the
    gradient of every other embedding row is +0.0.
    """
    if len(docs) == 0:
        raise ValueError("empty batch")
    if len(docs) != len(labels):
        raise ValueError("documents and labels disagree in length")
    labels = np.asarray(labels, dtype=np.int64)
    parts = list(blocks(params, docs))
    words = distinct_words([block_words for _, _, block_words in parts])
    grads = zero_gradients(params, len(words))
    total_loss = 0.0
    for start, ids, block_words in parts:
        block_labels = labels[start : start + len(ids)]
        logits, cache = forward(ids, params, block_words,
                                channel_rows(params, block_words),
                                dropout_rng=dropout_rng, for_backward=True)
        loss, probs = softmax_xent(logits, block_labels)
        total_loss += loss.sum()
        backward(softmax_xent_backward(probs, block_labels), cache, params, grads,
                 np.searchsorted(words, block_words))
    scale = 1.0 / len(docs)
    for grad in grads.values():
        grad *= scale
    return total_loss * scale, grads, words


@dataclass
class Optimizer:
    """Named Adadelta accumulators, one per parameter tensor."""

    rho: float = RHO
    eps: float = EPS
    states: dict = field(default_factory=dict)

    def __post_init__(self):
        # NaN fails both comparisons
        if not 0.0 < self.rho < 1.0:
            raise ValueError(f"rho must lie in (0, 1), got {self.rho}")
        if not 0.0 < self.eps < math.inf:
            raise ValueError(f"eps must be positive and finite, got {self.eps}")

    def state(self, name: str, shape) -> AdadeltaState:
        st = self.states.get(name)
        if st is None:
            st = AdadeltaState.zeros(shape)
            self.states[name] = st
        return st


def apply_gradients(params: ModelParams, opt: Optimizer, grads: dict,
                    words: np.ndarray) -> None:
    """One Adadelta step on every parameter tensor.

    ``grads`` and ``words`` are as ``batch_gradients`` returns them. The
    embedding rows outside ``words`` and the group rows their words do
    not route to have a +0.0 gradient, so they only decay their
    accumulators; the step works on the other rows alone.

    Every gradient is checked for shape and finiteness before any tensor
    moves, so a bad gradient raises ValueError and leaves the parameters,
    the accumulators and the step count as they were.
    """
    # (state name, parameter, gradient, rows of the parameter); rows
    # slice(None): the whole tensor
    updates = [("emb_p", params.emb_pretrained, grads["emb_p"], words)]
    shared = params.ch2
    if shared is not None:
        groups, group_grad = aggregate_gradients(grads["ch2"], words, shared)
        updates.append(("group_emb", shared.groups.vectors, group_grad, groups))
        which, at = locate(shared.private_ids, words)
        updates.append(("ch2_private", shared.private, grads["ch2"][which], at))
    updates += [(name, param, grads[name], slice(None))
                for name, param in dense_tensors(params)]

    for name, param, grad, rows in updates:
        shape = param.shape if isinstance(rows, slice) else (len(rows),) + param.shape[1:]
        if np.shape(grad) != shape:
            raise ValueError(f"gradient shape does not match parameter {name}")
        if not np.isfinite(grad).all():
            raise ValueError(f"non-finite gradient for {name}")
    for name, param, grad, rows in updates:
        adadelta_update(param, grad, opt.state(name, param.shape), rho=opt.rho,
                        eps=opt.eps, rows=rows)


def train_step(params: ModelParams, opt: Optimizer, docs, labels) -> float:
    """One mini-batch step: compute gradients, update.

    The dropout stream is derived from (seed, step counter), so resuming
    from a checkpoint replays the identical sequence of masks.
    """
    rng = make_rng(params.config.seed, "dropout", params.step_count)
    loss, grads, words = batch_gradients(params, docs, labels, dropout_rng=rng)
    if not np.isfinite(loss):
        raise RuntimeError(f"non-finite loss at step {params.step_count}")
    apply_gradients(params, opt, grads, words)
    params.step_count += 1
    return float(loss)


def _eval_logits(params: ModelParams, docs):
    """Yield (start, logits) over the blocks of ``docs``, in evaluation
    mode: no dropout, and pooled by max alone."""
    for start, ids, words in blocks(params, docs):
        logits, _ = forward(ids, params, words, channel_rows(params, words))
        yield start, logits


def predict(params: ModelParams, docs):
    """Labels and class probabilities for a document list.

    A document's probabilities do not depend on the other documents in
    the list: ``predict(docs[a:b])`` gives the bytes of
    ``predict(docs)[a:b]``.
    """
    probs = np.zeros((len(docs), params.config.num_classes), dtype=np.float64)
    for start, logits in _eval_logits(params, docs):
        probs[start : start + len(logits)] = softmax(logits)[0]
    return probs.argmax(axis=1), probs


def loss_on(params: ModelParams, docs, labels) -> float:
    """Mean evaluation-mode loss (no dropout)."""
    labels = np.asarray(labels, dtype=np.int64)
    total = 0.0
    for start, logits in _eval_logits(params, docs):
        loss, _ = softmax_xent(logits, labels[start : start + len(logits)])
        total += loss.sum()
    return float(total / len(docs))


CHECKPOINT_MAGIC = b"GWSCKP01"
CHECKPOINT_VERSION = 2


class CheckpointError(ValueError):
    pass


def _parameters(params: ModelParams) -> list:
    """(optimizer state name, checkpoint tensor name, tensor) of every
    trained tensor, in checkpoint order."""
    out = [("emb_p", "emb_p", params.emb_pretrained)]
    if params.ch2 is not None:
        out += [("group_emb", "group/vectors", params.ch2.groups.vectors),
                ("ch2_private", "ch2/private_values", params.ch2.private)]
    return out + [(name, name, t) for name, t in dense_tensors(params)]


def _collect_tensors(params: ModelParams, opt: Optimizer):
    tensors = [(name, t) for _, name, t in _parameters(params)]
    if params.ch2 is not None:
        table = params.ch2.table
        tensors[1:1] = [        # the group structure follows emb_p
            ("group/members_flat", table.flat), ("group/offsets", table.offsets)]
    for name in sorted(opt.states):
        st = opt.states[name]
        tensors.append((f"opt/{name}/sq_grad", st.sq_grad))
        tensors.append((f"opt/{name}/sq_delta", st.sq_delta))
    return tensors


def save_checkpoint(path, params: ModelParams, opt: Optimizer) -> None:
    """Write a checkpoint; an existing file at ``path`` is replaced whole,
    and a write that fails midway leaves no partial checkpoint behind."""
    with write_whole(path, binary=True) as f:
        write_checkpoint(f, params, opt)


def write_checkpoint(f, params: ModelParams, opt: Optimizer) -> None:
    """Write a checkpoint into the binary file ``f``."""
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
    shared = params.ch2
    if shared is not None:
        header["hash_spec"] = asdict(shared.spec)
        header["group_keys"] = list(shared.table.group_keys)
        header["group_stats"] = {
            "oov_skipped": shared.table.oov_skipped,
            "multiword_skipped": shared.table.multiword_skipped,
        }
    blob = json.dumps(header, sort_keys=True).encode("utf-8")
    f.write(CHECKPOINT_MAGIC)
    f.write(struct.pack("<Q", len(blob)))
    f.write(blob)
    for _, arr in tensors:
        f.write(np.ascontiguousarray(arr))


TENSOR_DTYPES = ("float64", "int64")


def load_checkpoint(path):
    """Rebuild (params, optimizer) from a checkpoint file.

    The header, and the form and size of every tensor entry against the
    file size, are checked first; each tensor is then read straight into
    its own array. Whatever is wrong with the file, the error raised is
    CheckpointError.
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
        try:
            header = json.loads(f.read(header_len).decode("utf-8"))
        except ValueError as e:     # UnicodeDecodeError, JSONDecodeError
            raise CheckpointError(f"{path}: header is not UTF-8 JSON ({e})") from None
        if not isinstance(header, dict):
            raise CheckpointError(f"{path}: header is not a JSON object")
        if header.get("format_version") != CHECKPOINT_VERSION:
            raise CheckpointError(
                f"{path}: unsupported format version {header.get('format_version')}"
            )
        if not isinstance(header.get("tensors"), list):
            raise CheckpointError(f"{path}: header has no tensor list")
        pos += header_len

        for entry in header["tensors"]:
            if not (isinstance(entry, list) and len(entry) == 3
                    and isinstance(entry[0], str) and entry[1] in TENSOR_DTYPES
                    and isinstance(entry[2], list)
                    and all(type(n) is int and n >= 0 for n in entry[2])):
                raise CheckpointError(f"{path}: malformed tensor entry {str(entry)[:80]}")
            name, dtype, shape = entry
            pos += math.prod(shape) * np.dtype(dtype).itemsize
            if pos > size:
                raise CheckpointError(f"{path}: truncated payload at tensor {name}")
        if pos != size:
            raise CheckpointError(f"{path}: trailing bytes after payload")

        tensors = {}
        for name, dtype, shape in header["tensors"]:
            arr = np.empty(shape, dtype=dtype)
            if f.readinto(arr.reshape(-1).view(np.uint8)) != arr.nbytes:
                raise CheckpointError(f"{path}: truncated payload at tensor {name}")
            tensors[name] = arr

    try:
        return _restore(path, header, tensors)
    except CheckpointError:
        raise
    except (AttributeError, IndexError, KeyError, OverflowError, TypeError,
            ValueError) as e:
        raise CheckpointError(
            f"{path}: header and tensors do not form a model ({e!r})"
        ) from e


def _restore(path, header: dict, tensors: dict):
    config = ModelConfig(**header["config"])
    vocab = Vocabulary(header["vocab_words"])
    if vocab.content_hash() != header["vocab_hash"]:
        raise CheckpointError(f"{path}: vocabulary hash mismatch")
    step_count = header["step_count"]
    if type(step_count) is not int or step_count < 0:
        raise CheckpointError(f"{path}: bad step count {step_count!r}")

    dim = config.embedding_dim
    f = config.filters_per_height

    def tensor(name, shape, dtype=np.float64):
        """The named tensor, checked against the shape the config implies
        (None: any length on that axis)."""
        arr = tensors[name]
        if arr.dtype != dtype or len(arr.shape) != len(shape) or any(
                want is not None and got != want
                for got, want in zip(arr.shape, shape)):
            raise CheckpointError(
                f"{path}: tensor {name} is {arr.dtype}{list(arr.shape)}, "
                f"expected {np.dtype(dtype)}{list(shape)}"
            )
        return arr

    def bank_from(bank_key):
        bank = FilterBank()
        for h in config.filter_heights:
            bank.weights[h] = tensor(f"{bank_key}/W/{h}", (f, h, dim))
            bank.biases[h] = tensor(f"{bank_key}/b/{h}", (f,))
        return bank

    emb_p = tensor("emb_p", (vocab.num_rows, dim))
    mode = config.channel2_mode
    ch2 = None
    if mode != "none":
        group_keys = list(header["group_keys"])
        flat = tensor("group/members_flat", (None,), np.int64)
        offsets = tensor("group/offsets", (len(group_keys) + 1,), np.int64)
        if offsets[0] != 0 or offsets[-1] != flat.size:
            raise CheckpointError(
                f"{path}: group/offsets do not span group/members_flat")
        members = [flat[offsets[g] : offsets[g + 1]].tolist()
                   for g in range(len(group_keys))]
        stats = header["group_stats"]
        table = GroupTable(
            vocab.num_rows, group_keys, members,
            oov_skipped=int(stats["oov_skipped"]),
            multiword_skipped=int(stats["multiword_skipped"]),
        )
        if table.group_count and mode != "group_init_share":
            raise CheckpointError(f"{path}: a {mode} channel has groups")
        spec = hash_spec(config)
        if HashSpec(**header["hash_spec"]) != spec:
            raise CheckpointError(f"{path}: hash_spec does not match the config")
        ch2 = SharedEmbedding(
            private=tensor("ch2/private_values", (None, dim)), table=table,
            groups=GroupEmbeddings(
                vectors=tensor("group/vectors", (len(group_keys), dim))),
            spec=spec, routing=build_routing(table),
        )

    params = ModelParams(
        config=config,
        vocab=vocab,
        emb_pretrained=emb_p,
        ch2=ch2,
        bank_p=bank_from("bank_p"),
        bank_s=None if mode == "none" else bank_from("bank_s"),
        softmax_w=tensor("softmax/W", (config.num_features, config.num_classes)),
        softmax_b=tensor("softmax/b", (config.num_classes,)),
        step_count=step_count,
    )
    opt = Optimizer(rho=float(header["opt"]["rho"]), eps=float(header["opt"]["eps"]))
    for state, _, param in _parameters(params):
        # a step gives every parameter a state; a missing one raises KeyError
        if step_count or f"opt/{state}/sq_grad" in tensors:
            opt.states[state] = AdadeltaState(
                sq_grad=tensor(f"opt/{state}/sq_grad", param.shape),
                sq_delta=tensor(f"opt/{state}/sq_delta", param.shape),
            )
    names = [name for name, _ in _collect_tensors(params, opt)]
    if names != [entry[0] for entry in header["tensors"]]:
        raise CheckpointError(f"{path}: tensors differ from the model's: "
                              f"{sorted(set(names) ^ set(tensors))}")
    return params, opt
