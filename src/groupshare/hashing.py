"""Hash-routed weight sharing between word embeddings and group rows.

Each grouped word i draws every coordinate j of its shared embedding row
from one of its groups: a hash of (word, dimension) picks which of the
word's groups supplies coordinate j, and a second hash contributes a
fixed sign. With group vectors g and the word's ascending group-id list
G(i):

    E_shared[i, j] = g[G(i)[h(i, j) mod |G(i)|], j] * sign(i, j)

The same routing maps gradients back: every group coordinate accumulates
the signed gradients of the word coordinates it feeds. Words in no group
keep a private row that trains independently.

The mixing function is the 64-bit avalanche finalizer used by murmur-type
hashes (xor-shift and multiply rounds). It is versioned so stored models
can detect an incompatible routing.
"""

from dataclasses import dataclass, field

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
    with np.errstate(over="ignore"):
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
    word = np.asarray(word_id, dtype=np.uint64)
    dim = np.asarray(dim, dtype=np.uint64)
    if not spec.signing_enabled:
        out = np.ones(np.broadcast(word, dim).shape, dtype=np.int64)
        return 1 if out.ndim == 0 else out
    h = _mix(np.uint64(spec.seed) ^ _SIGN_SALT, word, dim)
    out = np.where((h >> np.uint64(63)).astype(bool), np.int64(-1), np.int64(1))
    return int(out) if out.ndim == 0 else out


@dataclass
class Routing:
    """Precomputed coordinate routing for all grouped words.

    grouped_ids: (G,) ascending word ids that belong to at least one group;
    group_rows:  (G, d) int32 group id feeding each coordinate;
    signs:       (G, d) int8 matching sign factors;
    flat:        (G, d) position of each feeding coordinate in the
                 flattened group matrix, group_rows * d + column.
    """

    grouped_ids: np.ndarray
    group_rows: np.ndarray
    signs: np.ndarray
    flat: np.ndarray


def build_routing(table: GroupTable, dim: int, spec: HashSpec) -> Routing:
    """Vectorized routing for every grouped word over ``dim`` coordinates."""
    grouped = np.array(table.grouped_word_ids(), dtype=np.int64)
    if grouped.size == 0:
        return Routing(
            grouped_ids=grouped,
            group_rows=np.zeros((0, dim), dtype=np.int32),
            signs=np.ones((0, dim), dtype=np.int8),
            flat=np.zeros((0, dim), dtype=np.int64),
        )
    counts = np.array([len(table.membership[w]) for w in grouped], dtype=np.int64)
    kmax = int(counts.max())
    padded = np.zeros((grouped.size, kmax), dtype=np.int64)
    for row, w in enumerate(grouped):
        gids = table.membership[w]
        padded[row, : len(gids)] = gids

    dims = np.arange(dim, dtype=np.int64)
    h = _mix(np.uint64(spec.seed), grouped[:, None], dims[None, :])
    bucket = (h % counts.astype(np.uint64)[:, None]).astype(np.int64)
    flat = np.take_along_axis(padded, bucket, axis=1)
    group_rows = flat.astype(np.int32)
    flat *= dim
    flat += dims
    signs = sign(grouped[:, None], dims[None, :], spec).astype(np.int8)
    return Routing(grouped_ids=grouped, group_rows=group_rows, signs=signs,
                   flat=flat)


@dataclass
class SharedEmbedding:
    """Embedding matrix whose grouped rows are views onto group parameters.

    ``values`` is the materialized (vocab_size, d) matrix used by the
    network. Rows of grouped words are rebuilt from ``groups`` by sync();
    rows of ungrouped words (``private_ids``) are ordinary parameters.
    """

    values: np.ndarray
    table: GroupTable
    groups: GroupEmbeddings
    spec: HashSpec
    routing: Routing
    private_ids: np.ndarray = field(default=None)

    def __post_init__(self):
        if self.private_ids is None:
            grouped = set(int(w) for w in self.routing.grouped_ids)
            self.private_ids = np.array(
                [w for w in range(self.table.vocab_size) if w not in grouped],
                dtype=np.int64,
            )

    @property
    def dim(self) -> int:
        return self.values.shape[1]

    def sync(self) -> None:
        """Rebuild grouped rows of ``values`` from the group parameters."""
        r = self.routing
        if r.grouped_ids.size == 0:
            return
        self.values[r.grouped_ids] = np.take(self.groups.vectors, r.flat) * r.signs


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
    shared = SharedEmbedding(
        values=pretrained.copy(),
        table=table,
        groups=group_embeddings,
        spec=spec,
        routing=build_routing(table, dim, spec),
    )
    shared.sync()
    return shared


def sync_forward(shared: SharedEmbedding) -> None:
    """Refresh the materialized matrix before using it in a forward pass."""
    shared.sync()


def aggregate_gradients(grad_values: np.ndarray, shared: SharedEmbedding) -> np.ndarray:
    """Fold a (vocab_size, d) embedding gradient onto the group rows.

    Every group coordinate sums the signed gradients of the word
    coordinates it feeds, accumulated in ascending word-id order.
    Returns a (group_count, d) array.

    Only grouped words with a nonzero (or NaN) gradient entry are folded:
    the sums start at +0.0, so the zero terms left out change no bit.
    """
    grad_values = np.asarray(grad_values)
    if grad_values.shape != shared.values.shape:
        raise ValueError("gradient shape does not match embedding shape")
    r = shared.routing
    n, dim = shared.groups.vectors.shape
    if r.grouped_ids.size == 0:
        return np.zeros((n, dim), dtype=np.float64)
    words = np.flatnonzero(grad_values.any(axis=1))
    rows = np.searchsorted(r.grouped_ids, words)
    rows = rows[r.grouped_ids.take(rows, mode="clip") == words]
    signed = grad_values[r.grouped_ids[rows]] * r.signs[rows]
    out = np.bincount(r.flat[rows].ravel(), weights=signed.ravel(),
                      minlength=n * dim)
    return out.reshape(n, dim)
