"""Hash-routed weight sharing between word embeddings and group rows.

Each grouped word i draws every coordinate j of its shared embedding row
from one of its groups: a hash of (word, dimension) picks which of the
word's groups supplies coordinate j, and a second hash contributes a
fixed sign. With group vectors g and the word's ascending group-id list
G(i):

    E_shared[i, j] = g[G(i)[h(i, j) mod |G(i)|], j] * sign(i, j)

No grouped row or routed coordinate is stored: ``routes`` hashes the
coordinates of the words a caller reads, where it reads them, and maps
gradients back: every group coordinate accumulates the signed gradients
of the word coordinates it feeds. Words in no group keep a private row
that trains independently; with no groups at all the embedding is an
ordinary free matrix.

The mixing function is the 64-bit avalanche finalizer used by murmur-type
hashes (xor-shift and multiply rounds). It is versioned so stored models
can detect an incompatible routing.
"""

import operator
from dataclasses import dataclass

import numpy as np

from .groups import GroupEmbeddings, GroupTable

MIXER_VERSION = 1

_GOLDEN = np.uint64(0x9E3779B97F4A7C15)
_DIM_SALT = np.uint64(0xC2B2AE3D27D4EB4F)
_SIGN_SALT = np.uint64(0x5851F42D4C957F2D)
_M1 = np.uint64(0xFF51AFD7ED558CCD)
_M2 = np.uint64(0xC4CEB9FE1A85EC53)
_SHIFT = np.uint64(33)


@dataclass(frozen=True)
class HashSpec:
    """Seed and switches that pin down the routing."""

    seed: int = 0
    signing_enabled: bool = True
    mixer_version: int = MIXER_VERSION

    def __post_init__(self):
        if not 0 <= operator.index(self.seed) < 1 << 64:
            raise ValueError(f"hash seed {self.seed} is outside [0, 2**64)")
        if self.mixer_version != MIXER_VERSION:
            raise ValueError(
                f"unsupported mixer version {self.mixer_version} "
                f"(this build implements {MIXER_VERSION})"
            )


def _fmix64(x: np.ndarray) -> np.ndarray:
    """One avalanche round; its caller ignores the multiplies' overflow."""
    x ^= x >> _SHIFT
    x *= _M1
    x ^= x >> _SHIFT
    x *= _M2
    x ^= x >> _SHIFT
    return x


def _mix(seed: np.uint64, word, dim) -> np.ndarray:
    word = np.asarray(word, dtype=np.uint64)
    dim = np.asarray(dim, dtype=np.uint64)
    with np.errstate(over="ignore"):
        h = _fmix64(seed ^ _GOLDEN)
        h = _fmix64(h ^ (word * _GOLDEN))
        h = _fmix64(h ^ (dim * _DIM_SALT))
    return h


def hash_dim(word_id, dim, num_groups, spec: HashSpec):
    """Position in the word's ascending group list feeding coordinate dim.

    Accepts scalars or arrays (broadcast together). num_groups must be
    positive; one group always routes to position 0.
    """
    k = np.asarray(num_groups, dtype=np.int64)
    if (k <= 0).any():
        raise ValueError("num_groups must be positive")
    h = _mix(np.uint64(spec.seed), word_id, dim)
    out = (h % k.astype(np.uint64)).astype(np.int64)
    return int(out) if out.ndim == 0 else out


def sign(word_id, dim, spec: HashSpec):
    """Deterministic +1/-1 factor for a word/dimension pair.

    With signing disabled the factor is +1 everywhere.
    """
    out = _signs(word_id, dim, spec).astype(np.int64)
    return int(out) if out.ndim == 0 else out


def _signs(word_id, dim, spec: HashSpec) -> np.ndarray:
    """sign() as int8: -1 where the top bit of the sign hash is set."""
    word = np.asarray(word_id, dtype=np.uint64)
    dim = np.asarray(dim, dtype=np.uint64)
    if not spec.signing_enabled:
        return np.ones(np.broadcast(word, dim).shape, dtype=np.int8)
    top = _mix(np.uint64(spec.seed) ^ _SIGN_SALT, word, dim) >> np.uint64(63)
    return 1 - 2 * top.astype(np.int8)


@dataclass
class Routing:
    """Which words share and through which groups; no coordinate is stored.

    grouped_ids: (G,) ascending word ids that belong to at least one group;
    private_ids: ascending ids of the other words, which keep a private row;
    groups:      (G, max groups of a word) int64: row r holds the ascending
                 group ids of word grouped_ids[r], zero-padded;
    counts:      (G,) int64 number of groups of each grouped word.
    """

    grouped_ids: np.ndarray
    private_ids: np.ndarray
    groups: np.ndarray
    counts: np.ndarray


def build_routing(table: GroupTable) -> Routing:
    """The grouped and private words of ``table`` and each word's groups."""
    words = table.flat
    gids = np.repeat(np.arange(table.group_count), np.diff(table.offsets))
    order = np.lexsort((gids, words))       # by word, then ascending group
    per_word = np.bincount(words, minlength=table.vocab_size)
    grouped, private = np.flatnonzero(per_word), np.flatnonzero(per_word == 0)
    counts = per_word[grouped]
    first = np.cumsum(counts) - counts      # where each word starts in order
    groups = np.zeros((grouped.size, int(counts.max(initial=1))), dtype=np.int64)
    row = np.repeat(np.arange(grouped.size), counts)
    groups[row, np.arange(words.size) - first[row]] = gids[order]
    return Routing(grouped, private, groups, counts)


@dataclass
class SharedEmbedding:
    """Embedding whose grouped rows are read from group parameters.

    ``sync_forward`` reads a grouped word's row from ``groups`` through
    the routing. The rows of the ungrouped words (``private_ids``) are the
    rows of ``private``, ordinary parameters. Over a table with no groups
    every row is private: a free matrix (see ``unshared``).
    """

    private: np.ndarray
    table: GroupTable
    groups: GroupEmbeddings
    spec: HashSpec
    routing: Routing

    def __post_init__(self):
        want = (self.private_ids.size, self.groups.dim)
        if self.private.shape != want:
            raise ValueError(f"private rows are {self.private.shape}, not {want}")

    @property
    def private_ids(self) -> np.ndarray:
        return self.routing.private_ids

    @property
    def dim(self) -> int:
        return self.private.shape[1]

    @property
    def values(self) -> np.ndarray:
        """The whole (vocab_size, d) matrix, built afresh on each read."""
        return sync_forward(self)


def locate(sorted_ids: np.ndarray, ids) -> tuple:
    """Where the entries of ``ids`` that occur in ``sorted_ids`` sit.

    Both arrays ascend. Returns (positions in ``ids``, positions in
    ``sorted_ids``) of the shared entries.
    """
    at = np.searchsorted(sorted_ids, ids)
    if sorted_ids.size == 0:
        return at[:0], at[:0]
    found = np.flatnonzero(sorted_ids.take(at, mode="clip") == ids)
    return found, at[found]


def routes(shared: SharedEmbedding, at) -> tuple:
    """(flat, signs), each (len(at), d), of the words ``grouped_ids[at]``:
    where each word coordinate reads in the flattened (groups, d) group
    matrix (group id * d + column), and its int8 sign factor."""
    r, dim, spec = shared.routing, shared.dim, shared.spec
    words, counts = r.grouped_ids[at], r.counts[at]
    starts = r.groups[at] * dim     # group id -> start of its row in flat
    dims = np.arange(dim, dtype=np.int64)
    # a word in one group routes every coordinate to it (hash_dim is 0);
    # the hash picks among the groups of the other words only
    flat = np.repeat(starts[:, :1], dim, axis=1)
    multi = np.flatnonzero(counts > 1)
    bucket = hash_dim(words[multi, None], dims[None, :], counts[multi, None], spec)
    flat[multi] = np.take_along_axis(starts[multi], bucket, axis=1)
    flat += dims
    return flat, _signs(words[:, None], dims[None, :], spec)


def init_shared(table: GroupTable, group_embeddings: GroupEmbeddings,
                pretrained: np.ndarray, spec: HashSpec) -> SharedEmbedding:
    """Assemble a shared embedding over a group table.

    Private rows copy the pretrained matrix; grouped rows come from the
    group parameters through the hash routing.
    """
    pretrained = np.asarray(pretrained, dtype=np.float64)
    if pretrained.shape[0] != table.vocab_size:
        raise ValueError(
            f"pretrained matrix has {pretrained.shape[0]} rows, "
            f"table expects {table.vocab_size}"
        )
    if group_embeddings.vectors.shape[0] != table.group_count:
        raise ValueError("group embedding rows do not match group count")
    dim = pretrained.shape[1]
    if group_embeddings.dim != dim:
        raise ValueError("group embedding width does not match pretrained width")
    routing = build_routing(table)
    return SharedEmbedding(private=pretrained[routing.private_ids], table=table,
                           groups=group_embeddings, spec=spec, routing=routing)


def unshared(values: np.ndarray, spec: HashSpec) -> SharedEmbedding:
    """A shared embedding over no groups, whose private rows are
    ``values`` itself: it trains as a free matrix."""
    vocab_size, dim = values.shape
    table = GroupTable(vocab_size, [], [])
    return SharedEmbedding(private=values, table=table, spec=spec,
                           groups=GroupEmbeddings(vectors=np.zeros((0, dim))),
                           routing=build_routing(table))


# Rows per pass of sync_forward: a whole-matrix read holds temporaries of
# this many rows beside its output; a training step's words take one pass.
GATHER_ROWS = 1024


def sync_forward(shared: SharedEmbedding, words=None) -> np.ndarray:
    """The embedding rows of the ascending ids ``words`` (None: every row).
    A grouped coordinate is ``take(vectors, flat) * signs`` (see routes)."""
    r = shared.routing
    words = np.arange(shared.table.vocab_size) if words is None else np.asarray(words)
    out = np.empty((words.size, shared.dim))
    for lo in range(0, words.size, GATHER_ROWS):
        block, dest = words[lo : lo + GATHER_ROWS], out[lo : lo + GATHER_ROWS]
        which, at = locate(r.private_ids, block)
        dest[which] = shared.private[at]
        which, at = locate(r.grouped_ids, block)
        flat, signs = routes(shared, at)
        dest[which] = np.take(shared.groups.vectors, flat) * signs
    return out


def aggregate_gradients(grad_rows: np.ndarray, words,
                        shared: SharedEmbedding) -> tuple:
    """Fold the embedding gradient rows of ``words`` onto the group rows.

    ``words`` holds ascending word ids and ``grad_rows`` their (len(words),
    d) gradient rows; every other word's gradient is zero. Every group
    coordinate sums the signed gradients of the word coordinates it
    feeds, accumulated in ascending word-id order from +0.0, so zero
    terms change no bit. Returns (groups, rows): the ascending ids of the
    groups that the grouped words among ``words`` route to, and their
    (len(groups), d) gradient; every other group's gradient is +0.0.
    """
    grad_rows = np.asarray(grad_rows)
    words = np.asarray(words)
    n, dim = shared.groups.vectors.shape
    if grad_rows.shape != (words.size, dim):
        raise ValueError("gradient shape does not match the words and the "
                         "embedding width")
    which, at = locate(shared.routing.grouped_ids, words)
    feeding, signs = routes(shared, at)
    feeding //= dim
    touched = np.zeros(n, dtype=bool)
    touched[feeding] = True
    groups = np.flatnonzero(touched)
    local = np.zeros(n, dtype=np.int64)
    local[groups] = np.arange(groups.size)
    flat = local[feeding]
    flat *= dim
    flat += np.arange(dim)
    signed = grad_rows[which] * signs
    out = np.bincount(flat.ravel(), weights=signed.ravel(),
                      minlength=groups.size * dim)
    return groups, out.reshape(groups.size, dim)
