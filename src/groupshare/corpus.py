"""Datasets, vocabularies, and pretrained embedding files.

Input conventions:
  * dataset file: UTF-8, one document per line, "label<TAB>token token ...",
    tokens already whitespace-separated by upstream preprocessing;
  * embedding text format: header line "V d", then "word v1 ... vd" per line;
  * embedding binary format: ASCII header "V d\\n", then per word the word's
    UTF-8 bytes, a single space, d little-endian float32 values, and an
    optional newline.

Every vocabulary reserves two extra row ids beyond its tokens: an UNK row
for tokens unseen at build time and a PAD row whose vector stays zero and
is masked out of convolutions. Matrices produced here therefore have
``vocab.num_rows == vocab.num_tokens + 2`` rows.
"""

from dataclasses import dataclass, field

import hashlib

import numpy as np


UNK_TOKEN = "<unk>"
PAD_TOKEN = "<pad>"
_RESERVED = (UNK_TOKEN, PAD_TOKEN)


@dataclass(frozen=True)
class Vocabulary:
    """Bijection between corpus tokens and dense integer ids.

    Token ids occupy [0, num_tokens); the UNK and PAD rows sit at
    num_tokens and num_tokens + 1. ``words`` must be non-empty, distinct
    and free of the reserved tokens; ``index`` is derived from it.
    """

    words: tuple
    index: dict = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        object.__setattr__(self, "words", tuple(self.words))
        object.__setattr__(self, "index", {w: i for i, w in enumerate(self.words)})
        if not self.words:
            raise ValueError("vocabulary is empty")
        if len(self.index) != len(self.words):
            raise ValueError("vocabulary contains duplicate tokens")
        for w in _RESERVED:
            if w in self.index:
                raise ValueError(f"vocabulary contains reserved token {w!r}")

    @property
    def num_tokens(self) -> int:
        return len(self.words)

    @property
    def unk_id(self) -> int:
        return len(self.words)

    @property
    def pad_id(self) -> int:
        return len(self.words) + 1

    @property
    def num_rows(self) -> int:
        """Row count of embedding matrices over this vocabulary."""
        return len(self.words) + 2

    def lookup(self, word: str):
        """Id for a word, the reserved rows included; None if absent."""
        if word == UNK_TOKEN:
            return self.unk_id
        if word == PAD_TOKEN:
            return self.pad_id
        return self.index.get(word)

    def ids(self, tokens) -> np.ndarray:
        """int64 ids of ``tokens``; a token outside the vocabulary reads UNK."""
        unk = self.unk_id
        return np.array([self.index.get(t, unk) for t in tokens], dtype=np.int64)

    def content_hash(self) -> str:
        """SHA-256 of the words in id order, each followed by a newline."""
        text = "\n".join(self.words + ("",))
        return hashlib.sha256(text.encode("utf-8")).hexdigest()


@dataclass
class Dataset:
    """Encoded documents with dense integer labels."""

    documents: list
    labels: np.ndarray
    num_classes: int

    def __len__(self) -> int:
        return len(self.documents)


def build_vocabulary(docs) -> Vocabulary:
    """Collect the distinct tokens of ``docs`` into a Vocabulary, with ids
    in order of first occurrence."""
    if not docs:
        raise ValueError("cannot build a vocabulary from an empty corpus")
    return Vocabulary(tuple(dict.fromkeys(tok for doc in docs for tok in doc)))


def parse_line(line: str, lineno: int):
    """Split one dataset line into (raw label, token list)."""
    if "\t" not in line:
        raise ValueError(f"line {lineno}: expected 'label<TAB>tokens', got no tab")
    label, _, rest = line.partition("\t")
    label = label.strip()
    if not label:
        raise ValueError(f"line {lineno}: empty label")
    tokens = rest.split()
    if not tokens:
        raise ValueError(f"line {lineno}: document has no tokens")
    return label, tokens


def _split_lines(lines, ids):
    """Raw labels, and the token ids ``ids(tokens)`` gives, of each
    non-blank dataset line."""
    raw_labels, documents = [], []
    for lineno, line in enumerate(lines, start=1):
        line = line.rstrip("\n")
        if line:
            label, tokens = parse_line(line, lineno)
            raw_labels.append(label)
            documents.append(ids(tokens))
    return raw_labels, documents


def encode(lines, vocab: Vocabulary) -> Dataset:
    """Encode raw dataset lines against a vocabulary.

    Unknown tokens map to the UNK id. Labels that all parse as non-negative
    integers are used verbatim (num_classes = max + 1); otherwise the
    distinct label strings are sorted and densely renumbered.
    """
    return _dataset(*_split_lines(lines, vocab.ids))


def _dataset(raw_labels, documents) -> Dataset:
    """The Dataset of encoded documents and their raw labels."""
    if not documents:
        raise ValueError("dataset is empty")

    def _as_int(s):
        try:
            v = int(s)
        except ValueError:
            return None
        return v if v >= 0 else None

    ints = [_as_int(s) for s in raw_labels]
    if all(v is not None for v in ints):
        labels = np.array(ints, dtype=np.int64)
        num_classes = int(labels.max()) + 1
    else:
        mapping = {s: i for i, s in enumerate(sorted(set(raw_labels)))}
        labels = np.array([mapping[s] for s in raw_labels], dtype=np.int64)
        num_classes = len(mapping)
    return Dataset(documents=documents, labels=labels, num_classes=num_classes)


def load_dataset(path):
    """Read a dataset file, build its vocabulary, and encode it.

    Each line is split once: a token takes the next id at its first
    occurrence, the order ``build_vocabulary`` gives.
    """
    index = {}

    def ids(tokens):
        return np.array([index.setdefault(t, len(index)) for t in tokens],
                        dtype=np.int64)

    with open(path, "r", encoding="utf-8") as f:
        raw_labels, documents = _split_lines(f, ids)
    if not documents:
        raise ValueError("cannot build a vocabulary from an empty corpus")
    vocab = Vocabulary(tuple(index))
    return _dataset(raw_labels, documents), vocab


# Random rows (out-of-vocabulary words, random embeddings) are drawn
# uniformly from [-OOV_BOUND, OOV_BOUND].
OOV_BOUND = 0.25


def load_pretrained(path, vocab: Vocabulary, format: str = "text",
                    oov_seed: int = 0) -> np.ndarray:
    """Load pretrained vectors into a (num_rows, d) float64 matrix.

    File entries not in the vocabulary are ignored, and a word the file
    holds more than once takes its last entry. Vocabulary tokens (and the
    UNK row) missing from the file are drawn uniformly in ascending row
    order from one generator seeded with ``oov_seed``, so the result is
    reproducible. The PAD row is zero.
    """
    if format == "text":
        words, values = _read_text_embeddings(path)
    elif format == "binary":
        words, values = _read_binary_embeddings(path)
    else:
        raise ValueError(f"unknown embedding format {format!r}")

    dim = values.shape[1]
    last = dict(zip(words, range(len(words))))  # a repeated word: its last entry
    pairs = [(idx, entry) for word, entry in last.items()
             if (idx := vocab.lookup(word)) is not None and idx != vocab.pad_id]
    ids, entries = np.array(pairs, dtype=np.int64).reshape(-1, 2).T
    matrix = np.zeros((vocab.num_rows, dim), dtype=np.float64)
    # every entry kept, in file order: assign the values without a copy
    matrix[ids] = values if len(entries) == len(values) else values[entries]
    present = np.zeros(vocab.num_rows, dtype=bool)
    present[ids] = True
    present[vocab.pad_id] = True  # stays zero
    rng = np.random.default_rng(oov_seed)
    missing = ~present
    matrix[missing] = rng.uniform(-OOV_BOUND, OOV_BOUND,
                                  size=(np.count_nonzero(missing), dim))
    return matrix


def random_pretrained(vocab: Vocabulary, dim: int, seed: int = 0) -> np.ndarray:
    """Fully random embedding matrix using the OOV distribution; PAD zero."""
    if dim <= 0:
        raise ValueError("embedding dimension must be positive")
    rng = np.random.default_rng(seed)
    matrix = rng.uniform(-OOV_BOUND, OOV_BOUND, size=(vocab.num_rows, dim))
    matrix[vocab.pad_id] = 0.0
    return matrix


def _parse_header(line, format: str):
    """(V, d) from the "V d" header line, str or bytes, of a ``format`` file."""
    fields = line.split()
    if len(fields) != 2:
        raise ValueError(f"embedding {format} header must be 'V d'")
    try:
        count, dim = int(fields[0]), int(fields[1])
    except ValueError:
        raise ValueError(f"embedding {format} header must be two integers") from None
    if dim <= 0:
        raise ValueError("embedding dimension must be positive")
    return count, dim


def _read_text_embeddings(path):
    """(words, (count, d) float32 values) of a text embedding file.

    Python splits off each line's word, and ``np.loadtxt`` parses all the
    values in C. A file that this bulk pass refuses for any reason goes to
    ``_read_text_lines``, the per-line reader: it decides which files are
    accepted and what each error says, and its result stands when it
    accepts a file the bulk pass does not (values such as ``1_000``, which
    Python's float takes and numpy's parser does not).
    """
    try:
        return _read_text_bulk(path)
    except ValueError:
        pass
    return _read_text_lines(path)


def _read_text_bulk(path):
    """``_read_text_lines`` in two passes over the file, words then values;
    raises a bare ValueError wherever the two readers could differ."""
    with open(path, "r", encoding="utf-8") as f:
        count, dim = _parse_header(f.readline(), "text")
        start = f.tell()
        words = []
        for line in f:
            line = line.rstrip("\n")
            if not line:
                continue
            head = line.split(None, 1)
            if not head:
                raise ValueError("whitespace-only line")
            words.append(head[0])
        if len(words) != count:
            raise ValueError("entry count differs from the header")
        if not count:
            return words, np.zeros((0, dim), dtype=np.float32)
        f.seek(start)
        # No usecols: it would ignore extra fields. The converter keeps the
        # word column, so loadtxt refuses a line whose field count differs
        # from the first line's.
        table = np.loadtxt(f, dtype=np.float32, comments=None, ndmin=2,
                           converters={0: lambda word: 0.0})
    if table.shape != (count, dim + 1) or not np.isfinite(table).all():
        raise ValueError("shape or value check failed")
    return words, table[:, 1:]


def _read_text_lines(path):
    """The per-line reference reader of text embedding files."""
    with open(path, "r", encoding="utf-8") as f:
        count, dim = _parse_header(f.readline(), "text")
        words, rows = [], []
        for lineno, line in enumerate(f, start=2):
            line = line.rstrip("\n")
            if not line:
                continue
            parts = line.split()
            if len(parts) != dim + 1:
                raise ValueError(
                    f"line {lineno}: expected 1 word + {dim} values, got {len(parts)} fields"
                )
            try:
                # payload resolution is float32 in both file formats
                vec = np.array(parts[1:], dtype=np.float32)
            except ValueError:
                raise ValueError(f"line {lineno}: non-numeric embedding value") from None
            if not np.isfinite(vec).all():
                raise ValueError(f"line {lineno}: non-finite embedding value")
            words.append(parts[0])
            rows.append(vec)
    if len(words) != count:
        raise ValueError(
            f"header announces {count} entries but file holds {len(words)}"
        )
    return words, np.array(rows, dtype=np.float32).reshape(count, dim)


def _read_binary_embeddings(path):
    """(words, (count, d) float32 values) of a binary embedding file."""
    with open(path, "rb") as f:
        blob = f.read()
    nl = blob.find(b"\n")
    if nl < 0:
        raise ValueError("binary embedding file has no header line")
    count, dim = _parse_header(blob[:nl], "binary")
    pos = nl + 1
    words, vectors = [], []
    error = None
    try:
        for _ in range(count):
            sp = blob.find(b" ", pos)
            if sp < 0:
                raise ValueError("binary embedding payload truncated (no word terminator)")
            word = blob[pos:sp].decode("utf-8")
            pos = sp + 1
            end = pos + 4 * dim
            if end > len(blob):
                raise ValueError("binary embedding payload truncated (vector bytes)")
            words.append(word)
            vectors.append(blob[pos:end])
            pos = end
            if blob[pos:pos + 1] == b"\n":
                pos += 1
    except ValueError as e:
        error = e  # a non-finite value in an earlier entry is reported first
    values = np.frombuffer(b"".join(vectors), dtype="<f4").reshape(len(words), dim)
    bad = np.flatnonzero(~np.isfinite(values).all(axis=1))
    if bad.size:
        raise ValueError(f"non-finite embedding value for word {words[bad[0]]!r}")
    if error is not None:
        raise error
    if pos != len(blob):
        raise ValueError("binary embedding file has trailing bytes after payload")
    return words, values


def save_vocabulary(vocab: Vocabulary, f) -> None:
    """One token per line, in id order, into the text file ``f``. Reserved
    rows are implicit."""
    for w in vocab.words:
        f.write(w)
        f.write("\n")


def load_vocabulary(path) -> Vocabulary:
    with open(path, "r", encoding="utf-8") as f:
        words = [ln.rstrip("\n") for ln in f if ln.rstrip("\n")]
    try:
        return Vocabulary(tuple(words))
    except ValueError as e:
        raise ValueError(f"vocabulary file {path}: {e}") from None
