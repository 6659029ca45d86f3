"""Hash-routed weight sharing between word embeddings and group rows.

Each grouped word i draws every coordinate j of its shared embedding row
from one of its groups: a hash of (word, dimension) picks which of the
word's groups supplies coordinate j, and a second hash contributes a
fixed sign. With group vectors g and the word's ascending group-id list
G(i):

    E_shared[i, j] = g[G(i)[h(i, j) mod |G(i)|], j] * sign(i, j)

No grouped row is stored; every read goes through the routing. The same
routing maps gradients back: every group coordinate accumulates the
signed gradients of the word coordinates it feeds. Words in no group
keep a private row that trains independently; with no groups at all the
embedding is an ordinary free matrix.

The mixing function is the 64-bit avalanche finalizer used by murmur-type
hashes (xor-shift and multiply rounds). It is versioned so stored models
can detect an incompatible routing.
"""

from dataclasses import dataclass
from itertools import chain

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
        if self.mixer_version != MIXER_VERSION:
            raise ValueError(
                f"unsupported mixer version {self.mixer_version} "
                f"(this build implements {MIXER_VERSION})"
            )


def _fmix64(x: np.ndarray) -> np.ndarray:
    """One avalanche round; its caller ignores the multiplies' overflow."""
    x = x ^ (x >> _SHIFT)
    x = x * _M1
    x = x ^ (x >> _SHIFT)
    x = x * _M2
    x = x ^ (x >> _SHIFT)
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
    """Precomputed coordinate routing for all grouped words.

    grouped_ids: (G,) ascending word ids that belong to at least one group;
    private_ids: ascending ids of the other words, which keep a private row;
    signs:       (G, d) int8 sign factor of each coordinate;
    flat:        (G, d) int64 position, in the flattened (groups, d) group
                 matrix, of the coordinate feeding each word coordinate:
                 group id * d + column, so the group id is flat // d.
    """

    grouped_ids: np.ndarray
    private_ids: np.ndarray
    signs: np.ndarray
    flat: np.ndarray


def build_routing(table: GroupTable, dim: int, spec: HashSpec) -> Routing:
    """Vectorized routing for every grouped word over ``dim`` coordinates."""
    if table.group_count == 0:
        # a free channel; the work below costs ~100 us on empty arrays
        return Routing(
            grouped_ids=np.zeros(0, dtype=np.int64),
            private_ids=np.arange(table.vocab_size),
            signs=np.ones((0, dim), dtype=np.int8),
            flat=np.zeros((0, dim), dtype=np.int64),
        )
    sizes = [len(ws) for ws in table.members]
    words = np.fromiter(chain.from_iterable(table.members), dtype=np.int64,
                        count=sum(sizes))
    gids = np.repeat(np.arange(len(sizes), dtype=np.int64), sizes)
    order = np.lexsort((gids, words))       # by word, then ascending group
    grouped, first, counts = np.unique(words[order], return_index=True,
                                       return_counts=True)
    private = np.setdiff1d(np.arange(table.vocab_size), grouped)
    # row r holds the ascending group ids of word grouped[r], zero-padded
    padded = np.zeros((grouped.size, int(counts.max())), dtype=np.int64)
    row = np.repeat(np.arange(grouped.size), counts)
    padded[row, np.arange(words.size) - first[row]] = gids[order]
    padded *= dim           # group id -> start of its row in the flat matrix

    dims = np.arange(dim, dtype=np.int64)
    # a word in one group routes every coordinate to it (hash_dim is 0);
    # the hash picks among the groups of the other words only
    flat = np.repeat(padded[:, :1], dim, axis=1)
    multi = np.flatnonzero(counts > 1)
    bucket = hash_dim(grouped[multi, None], dims[None, :], counts[multi, None], spec)
    flat[multi] = np.take_along_axis(padded[multi], bucket, axis=1)
    flat += dims
    signs = _signs(grouped[:, None], dims[None, :], spec)
    return Routing(grouped_ids=grouped, private_ids=private, signs=signs,
                   flat=flat)


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
    routing = build_routing(table, dim, spec)
    return SharedEmbedding(private=pretrained[routing.private_ids], table=table,
                           groups=group_embeddings, spec=spec, routing=routing)


def unshared(values: np.ndarray, spec: HashSpec) -> SharedEmbedding:
    """A shared embedding over no groups, whose private rows are
    ``values`` itself: it trains as a free matrix."""
    vocab_size, dim = values.shape
    table = GroupTable(vocab_size, [], [])
    return SharedEmbedding(
        private=values, table=table,
        groups=GroupEmbeddings(vectors=np.zeros((0, dim))), spec=spec,
        routing=build_routing(table, dim, spec),
    )


# Rows per pass of sync_forward: a whole-matrix read holds temporaries of
# this many rows beside its output; a training step's words take one pass.
GATHER_ROWS = 1024


def sync_forward(shared: SharedEmbedding, words=None) -> np.ndarray:
    """The embedding rows of the ascending ids ``words`` (None: every row).
    A grouped coordinate is ``take(vectors, flat) * signs``."""
    r = shared.routing
    words = np.arange(shared.table.vocab_size) if words is None else np.asarray(words)
    out = np.empty((words.size, shared.dim))
    for lo in range(0, words.size, GATHER_ROWS):
        block, dest = words[lo : lo + GATHER_ROWS], out[lo : lo + GATHER_ROWS]
        which, at = locate(r.private_ids, block)
        dest[which] = shared.private[at]
        which, at = locate(r.grouped_ids, block)
        dest[which] = np.take(shared.groups.vectors, r.flat[at]) * r.signs[at]
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
    r = shared.routing
    which, at = locate(r.grouped_ids, words)
    feeding = r.flat[at]
    feeding //= dim
    touched = np.zeros(n, dtype=bool)
    touched[feeding] = True
    groups = np.flatnonzero(touched)
    local = np.zeros(n, dtype=np.int64)
    local[groups] = np.arange(groups.size)
    flat = local[feeding]
    flat *= dim
    flat += np.arange(dim)
    signed = grad_rows[which] * r.signs[at]
    out = np.bincount(flat.ravel(), weights=signed.ravel(),
                      minlength=groups.size * dim)
    return groups, out.reshape(groups.size, dim)
