"""Word group tables built from external lexical resources.

A group table maps vocabulary word ids to small sets of group ids. Four
source formats are supported:

  * canonical TSV: "group_key<TAB>word" per line;
  * hierarchical bit-string clusters: "bitstring<TAB>word<TAB>count",
    one group per distinct bit string;
  * tree-coded concept vocabularies: "tree_number<TAB>word" where the
    group key is the tree number truncated to a fixed dot-separated depth;
  * scored sentiment lexicons: "pos<TAB>id<TAB>score_pos<TAB>score_neg<TAB>terms"
    where a group keeps only entries with a nonzero positive or negative
    score, and terms drop their "#sense" suffix.

Group ids are dense integers assigned in order of first surviving
appearance in the source file. Words outside the vocabulary are skipped
and counted. Empty groups are never materialized.
"""

from collections import defaultdict
from dataclasses import dataclass, field
from itertools import chain

import numpy as np
import scipy.sparse

from .corpus import Vocabulary


@dataclass
class GroupTable:
    """Membership structure between word ids and group ids.

    ``members`` lists each group's word ids in strictly ascending order;
    no group is empty and every id lies in [0, vocab_size). Construction
    checks this and derives ``membership`` (word id -> ascending group
    ids) in the same pass over the members, so a table that exists is
    valid and its views agree. The int64 array ``flat`` holds the members
    of every group in group-id order, group g's at
    ``flat[offsets[g]:offsets[g + 1]]``.
    """

    vocab_size: int
    group_keys: list
    members: list            # group id -> ascending list of word ids
    oov_skipped: int = 0
    multiword_skipped: int = 0
    membership: dict = field(init=False, repr=False)
    flat: np.ndarray = field(init=False, repr=False, compare=False)
    offsets: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if len(self.group_keys) != len(self.members):
            raise ValueError("group_keys and members disagree on group count")
        membership = {}
        for gid, ws in enumerate(self.members):
            if not ws:
                raise ValueError(f"group {gid} is empty")
            prev = -1
            for w in ws:
                if not 0 <= w < self.vocab_size:
                    raise ValueError(f"group {gid} member {w} outside vocabulary")
                if w <= prev:
                    raise ValueError(f"group {gid} members not strictly ascending")
                prev = w
                membership.setdefault(w, []).append(gid)
        self.membership = membership
        self.offsets = np.cumsum([0] + [len(ws) for ws in self.members],
                                 dtype=np.int64)
        self.flat = np.fromiter(chain.from_iterable(self.members), dtype=np.int64,
                                count=int(self.offsets[-1]))

    @property
    def group_count(self) -> int:
        return len(self.members)

    def groups_of(self, word_id: int) -> list:
        return self.membership.get(int(word_id), [])


def _table(pairs, vocab: Vocabulary, multiword_skipped: int = 0) -> GroupTable:
    """The table of (group key, word) pairs. A key takes the next group id
    at its first pair whose word is in the vocabulary, so no group is
    empty; each distinct out-of-vocabulary word is counted once."""
    members, oov = defaultdict(set), set()
    for key, word in pairs:
        wid = vocab.index.get(word)
        if wid is None:
            oov.add(word)
        else:
            members[key].add(wid)
    return GroupTable(vocab.num_rows, list(members),
                      [sorted(ws) for ws in members.values()],
                      oov_skipped=len(oov), multiword_skipped=multiword_skipped)


def _iter_lines(lines):
    for lineno, line in enumerate(lines, start=1):
        line = line.rstrip("\n")
        if not line:
            continue
        yield lineno, line


def groups_from_tsv(lines, vocab: Vocabulary) -> GroupTable:
    """Canonical "group_key<TAB>word" lines."""
    pairs = []
    for lineno, line in _iter_lines(lines):
        parts = line.split("\t")
        if len(parts) != 2 or not parts[0] or not parts[1]:
            raise ValueError(f"line {lineno}: expected 'group_key<TAB>word'")
        pairs.append((parts[0], parts[1]))
    return _table(pairs, vocab)


def groups_from_brown(lines, vocab: Vocabulary) -> GroupTable:
    """Hierarchical cluster output: "bitstring<TAB>word<TAB>count"."""
    pairs = []
    for lineno, line in _iter_lines(lines):
        parts = line.split("\t")
        if len(parts) != 3:
            raise ValueError(
                f"line {lineno}: expected 'bitstring<TAB>word<TAB>count'"
            )
        bits, word, count = parts
        if not bits or set(bits) - {"0", "1"}:
            raise ValueError(f"line {lineno}: bit string {bits!r} is not binary")
        try:
            int(count)
        except ValueError:
            raise ValueError(f"line {lineno}: count {count!r} is not an integer") from None
        pairs.append((bits, word))
    return _table(pairs, vocab)


def mesh_prefix(tree_number: str, depth: int) -> str:
    """Truncate a dot-separated tree number to its first ``depth`` parts.

    "C06.552.150.125" at depth 3 becomes "C06.552.150"; numbers with fewer
    parts are kept whole.
    """
    parts = tree_number.split(".")
    if not parts[0] or not parts[0][0].isalpha() or not parts[0][1:].isdigit():
        raise ValueError(f"malformed tree number {tree_number!r}")
    for p in parts[1:]:
        if not p.isdigit():
            raise ValueError(f"malformed tree number {tree_number!r}")
    return ".".join(parts[:depth])


MESH_PREFIX_DEPTH = 3     # dot-separated parts of a tree number that name its group


def _check_prefix_depth(depth: int) -> None:
    if depth < 1:
        raise ValueError(f"prefix depth must be at least 1, got {depth}")


def groups_from_mesh(lines, vocab: Vocabulary,
                     prefix_depth: int = MESH_PREFIX_DEPTH) -> GroupTable:
    """Tree-coded concepts: "tree_number<TAB>word", grouped by prefix."""
    _check_prefix_depth(prefix_depth)
    pairs = []
    for lineno, line in _iter_lines(lines):
        parts = line.split("\t")
        if len(parts) != 2 or not parts[0] or not parts[1]:
            raise ValueError(f"line {lineno}: expected 'tree_number<TAB>word'")
        try:
            key = mesh_prefix(parts[0], prefix_depth)
        except ValueError as e:
            raise ValueError(f"line {lineno}: {e}") from None
        pairs.append((key, parts[1]))
    return _table(pairs, vocab)


def groups_from_sentiment_lexicon(lines, vocab: Vocabulary) -> GroupTable:
    """Scored synset lexicon; one group per synset that carries sentiment.

    Line layout: "pos<TAB>id<TAB>pos_score<TAB>neg_score<TAB>term#1 term#2".
    Synsets whose two scores are both zero are dropped. Terms lose their
    "#sense" suffix; multiword terms (containing '_') are skipped and
    counted. Lines starting with '#' are comments.
    """
    pairs, multiword = [], 0
    for lineno, line in _iter_lines(lines):
        if line.startswith("#"):
            continue
        parts = line.split("\t")
        if len(parts) < 5:
            raise ValueError(
                f"line {lineno}: expected at least 5 tab-separated fields"
            )
        pos, syn_id, pos_score, neg_score, terms = (
            parts[0], parts[1], parts[2], parts[3], parts[4],
        )
        try:
            p = float(pos_score)
            n = float(neg_score)
        except ValueError:
            raise ValueError(f"line {lineno}: non-numeric sentiment score") from None
        if p == 0.0 and n == 0.0:
            continue
        key = f"{pos}#{syn_id}"
        for term in terms.split():
            word = term.partition("#")[0]
            if not word:
                raise ValueError(f"line {lineno}: empty term")
            if "_" in word:
                multiword += 1
                continue
            pairs.append((key, word))
    return _table(pairs, vocab, multiword)


_LOADERS = {
    "tsv": groups_from_tsv,
    "brown": groups_from_brown,
    "mesh": groups_from_mesh,
    "sentilex": groups_from_sentiment_lexicon,
}
GROUP_KINDS = tuple(_LOADERS)


def load_groups(path, kind: str, vocab: Vocabulary,
                prefix_depth: int = MESH_PREFIX_DEPTH) -> GroupTable:
    """Dispatch on resource kind; see the per-format functions. The mesh
    prefix depth must be at least 1 whatever the kind, as the INI's
    ``mesh_prefix_depth`` must."""
    loader = _LOADERS.get(kind)
    if loader is None:
        raise ValueError(
            f"unknown groups kind {kind!r}; expected one of {sorted(_LOADERS)}"
        )
    _check_prefix_depth(prefix_depth)
    extra = (prefix_depth,) if kind == "mesh" else ()
    with open(path, "r", encoding="utf-8") as f:
        return loader(f, vocab, *extra)


def write_groups_tsv(table: GroupTable, vocab: Vocabulary, f) -> None:
    """Dump a table in the canonical TSV form into the text file ``f``.

    Lines come out in group-id order with ascending members, so loading
    the file again rebuilds an identical table and a second dump is
    byte-identical.
    """
    for gid, ws in enumerate(table.members):
        key = table.group_keys[gid]
        for w in ws:
            f.write(f"{key}\t{vocab.words[w]}\n")


@dataclass
class GroupEmbeddings:
    """One d-dimensional parameter row per group."""

    vectors: np.ndarray  # (group_count, d)

    @property
    def dim(self) -> int:
        return self.vectors.shape[1]


def init_group_embeddings(table: GroupTable, pretrained: np.ndarray) -> GroupEmbeddings:
    """Each group row is the arithmetic mean of its members' pretrained rows.

    Accumulation runs over members in ascending word-id order from +0.0,
    summing first and dividing once, so the result is reproducible bit
    for bit: a CSR product sums each row's entries in index order.
    """
    pretrained = np.asarray(pretrained, dtype=np.float64)
    if pretrained.shape[0] < table.vocab_size:
        raise ValueError(
            f"pretrained matrix has {pretrained.shape[0]} rows, "
            f"table expects {table.vocab_size}"
        )
    rows = scipy.sparse.csr_array(
        (np.ones(table.flat.size), table.flat, table.offsets),
        shape=(table.group_count, pretrained.shape[0]))
    return GroupEmbeddings(vectors=rows @ pretrained / np.diff(table.offsets)[:, None])
