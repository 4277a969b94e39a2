"""Corpus and feature ingestion: parsing, the split protocol
(`build_corpus`, which filters, splits and maps ids to item rows in one
pass), negative sampling, and the planted-cluster synthetic data
generator. Past parsing, items are rows: `Corpus` holds each user's
training and test items as row arrays once, with the ids by row in
`items`; a feature table is (ids, matrix), and the features a model reads
are one {content slice: (n_items, width) matrix} dict, each matrix
row-aligned by one gather from its table; the negative sampler draws
rows. Ids come back only at the edges: checkpoint headers,
feature-missing warnings and the (id, score) pairs of a ranker's
`rank(u)`."""

import math
from dataclasses import dataclass, field, fields

import numpy as np

from . import numkit
from .errors import ConfigError, EmptyCorpusError, ParseError, SamplingError

# each content slice's feature file, in slice order, with the range its
# values are min-max scaled onto at load
RANGES = {"visual": (0.0, 0.5), "textual": (-0.5, 0.5)}


@dataclass
class Corpus:
    users: tuple            # user ids, input order
    items: np.ndarray       # item ids by row, ascending (object array)
    train_rows: dict        # user -> (m,) intp item rows, chronological
    test_rows: dict         # user -> intp item rows held out, new items only,
                            # first occurrence each, in order (may be empty)
    user_index: dict = field(init=False)  # user id -> row of every per-user array

    def __post_init__(self):
        self.user_index = {u: j for j, u in enumerate(self.users)}

    @property
    def n_items(self) -> int:
        return len(self.items)

    def candidate_rows(self, u: str) -> np.ndarray:
        """Rows of the items the user never interacted with in training,
        ascending (so in ascending id order)."""
        keep = np.ones(self.n_items, dtype=bool)
        keep[self.train_rows[u]] = False
        return np.flatnonzero(keep)

    def eval_users(self) -> list:
        """Users with at least one test item."""
        return [u for u in self.users if len(self.test_rows[u])]


def _text_lines(path):
    """(line number, line without its newline) over a UTF-8 text file;
    bytes that are not UTF-8 raise ParseError."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            for lineno, line in enumerate(fh, start=1):
                yield lineno, line.rstrip("\n")
    except UnicodeDecodeError as exc:
        raise ParseError(f"{path}: not UTF-8 text ({exc.reason})") from exc


def parse_sequence_file(path) -> dict:
    """Read `user<TAB>item,item,...` lines into an ordered user->sequence map."""
    raw = {}
    for lineno, line in _text_lines(path):
        if not line:
            continue
        parts = line.split("\t")
        if len(parts) != 2 or not parts[0] or not parts[1]:
            raise ParseError(f"{path}:{lineno}: expected 'user<TAB>item,item,...'")
        items = [tok for tok in parts[1].split(",") if tok]
        if not items:
            raise ParseError(f"{path}:{lineno}: empty item list")
        if parts[0] in raw:
            raise ParseError(f"{path}:{lineno}: duplicate user id {parts[0]!r}")
        raw[parts[0]] = items
    return raw


MIN_LEN, SPLIT_FRAC = 2, 0.9  # the protocol's defaults


def split_problems(min_len, split_frac) -> list:
    """What is wrong with the split settings, one message each."""
    problems = []
    if not numkit.is_count(min_len, 2):
        problems.append(f"min_len must be an integer >= 2, got {min_len!r}")
    if not (isinstance(split_frac, (int, float)) and 0.0 < split_frac < 1.0):
        problems.append(f"split_frac must be in (0,1), got {split_frac!r}")
    return problems


def build_corpus(raw_seqs: dict, min_len: int, split_frac: float) -> Corpus:
    """The split protocol, in one pass over already-parsed sequences: a
    user with fewer than min_len items is dropped; the first
    ceil(split_frac * n) items are the training sequence; the test list
    keeps the first occurrence of each remaining item not trained on. A
    user may end up with an empty test list: they stay in the corpus for
    training but are skipped by evaluation. Each id is coded once, in
    first-seen order, while its user is split; the codes are renumbered
    into rows of the ascending item table at the end."""
    problems = split_problems(min_len, split_frac)
    if problems:
        raise ConfigError("; ".join(problems))
    code = {}  # item id -> first-seen code
    users, train, test = [], {}, {}
    for u, seq in raw_seqs.items():
        if len(seq) < min_len:
            continue
        n_train = math.ceil(split_frac * len(seq))
        codes = [code.setdefault(it, len(code)) for it in seq]
        train[u] = codes[:n_train]
        owned = set(train[u])
        # dict.fromkeys keeps each test item's first occurrence, in order
        test[u] = [c for c in dict.fromkeys(codes[n_train:]) if c not in owned]
        users.append(u)
    if not users:
        raise EmptyCorpusError(f"no user has >= {min_len} interactions")
    items = sorted(code)
    row_of = np.empty(len(items), dtype=np.intp)  # code -> row
    row_of[[code[it] for it in items]] = np.arange(len(items))
    return Corpus(tuple(users), np.array(items, dtype=object),
                  {u: row_of[train[u]] for u in users},
                  {u: row_of[test[u]] for u in users})


def load_corpus(seq_path, min_len: int, split_frac: float) -> Corpus:
    return build_corpus(parse_sequence_file(seq_path), min_len, split_frac)


# ---------------------------------------------------------------------------
# features

@dataclass
class FeatureTable:
    """One modality: row j of `matrix` is the normalized vector of item
    `ids[j]`, in the order the table lists its items."""

    ids: list
    matrix: np.ndarray      # (len(ids), dim)

    @property
    def dim(self) -> int:
        return self.matrix.shape[1]


def normalize_minmax(matrix: np.ndarray, lo: float, hi: float) -> np.ndarray:
    """Per-dimension min-max rescaling onto [lo, hi]; constant dims map to lo."""
    mn = matrix.min(axis=0)
    mx = matrix.max(axis=0)
    span = mx - mn
    safe = np.where(span > 0.0, span, 1.0)
    out = lo + (hi - lo) * (matrix - mn) / safe
    out[:, span == 0.0] = lo
    return out


# value tokens converted per numpy call in `load_features`: large enough
# that the call overhead vanishes, small enough that the tokens held as
# str objects (about 70 bytes each) stay a small part of the process
FLOAT_CHUNK = 1 << 12


def load_features(path, lo: float, hi: float) -> FeatureTable:
    """Parse a `#dims F` header plus `item<TAB>f1 f2 ...` rows, then min-max
    normalize each dimension onto [lo, hi] over all items in the file.
    Each line's structure is checked as it is read, and the value tokens
    are converted FLOAT_CHUNK at a time by `_floats`. A bad file is
    reported at its first bad line, as a line-by-line parse would: a
    non-numeric token before that line is named first."""
    ids, linenos, seen = [], [], set()
    blocks, tokens, first = [], [], 0  # tokens of the lines linenos[first:]
    lines = _text_lines(path)
    toks = next(lines, (1, ""))[1].split()
    try:
        # isdecimal, not isdigit: int() rejects digits such as superscripts
        dim = (int(toks[1]) if len(toks) == 2 and toks[0] == "#dims"
               and toks[1].isdecimal() else 0)
    except ValueError:  # more digits than int() converts
        dim = 0
    if dim < 1:  # so a zero-width matrix only ever means "no file given"
        raise ParseError(f"{path}:1: expected '#dims <F>' header with F >= 1")
    problem = None
    try:
        for lineno, line in lines:
            if not line:
                continue
            parts = line.split("\t")
            if len(parts) != 2:
                problem = ParseError(f"{path}:{lineno}: expected 'item<TAB>values'")
                break
            values = parts[1].split()
            if len(values) != dim:
                problem = ParseError(
                    f"{path}:{lineno}: {len(values)} values, header says {dim}")
                break
            tokens += values
            linenos.append(lineno)
            if parts[0] in seen:
                problem = ParseError(
                    f"{path}:{lineno}: duplicate item id {parts[0]!r}")
                break
            seen.add(parts[0])
            ids.append(parts[0])
            if len(tokens) >= FLOAT_CHUNK:
                blocks.append(_floats(path, tokens, linenos[first:], dim))
                tokens, first = [], len(linenos)
    except ParseError as exc:  # the text stops being UTF-8
        problem = exc
    blocks.append(_floats(path, tokens, linenos[first:], dim))
    if problem is not None:
        raise problem
    if not ids:
        raise ParseError(f"{path}: no feature rows")
    matrix = np.concatenate(blocks)
    finite = np.isfinite(matrix)
    if not finite.all():
        j, k = np.argwhere(~finite)[0]
        raise ParseError(f"{path}:{linenos[j]}: non-finite value {matrix[j, k]}")
    return FeatureTable(ids, normalize_minmax(matrix, lo, hi))


def _floats(path, tokens: list, linenos: list, dim: int) -> np.ndarray:
    """(len(linenos), dim) matrix of the lines' value tokens, `dim` a line,
    in one numpy call. numpy reads a str element with float() itself, so
    this accepts and rejects exactly what a per-token float() does, to the
    bit; a rejected token is a ParseError at the first line holding one."""
    try:
        return np.array(tokens, dtype=np.float64).reshape(-1, dim)
    except ValueError:
        for j, lineno in enumerate(linenos):
            try:
                [float(v) for v in tokens[j * dim:(j + 1) * dim]]
            except ValueError as exc:
                raise ParseError(
                    f"{path}:{lineno}: non-numeric token ({exc})") from exc
        raise


def _aligned(items: np.ndarray, table: FeatureTable | None):
    """(len(items), dim) matrix whose row j is the vector of items[j], and
    the ids the table lacks, in row order: one gather from the table's
    rows plus a zero row, which a lacking item reads. No table (None) gives
    a zero-width matrix, which lacks nothing."""
    if table is None:
        return np.zeros((len(items), 0)), []
    row = {it: j for j, it in enumerate(table.ids)}
    src = np.array([row.get(it, -1) for it in items.tolist()], dtype=np.intp)
    padded = np.vstack([table.matrix, np.zeros((1, table.dim))])
    return padded[src], items[src < 0].tolist()


def build_feature_store(corpus: Corpus, tables: dict) -> tuple:
    """(features, missing) of the {content slice: FeatureTable or None}
    tables: the features are {slice: matrix}, row j of each holding the
    vector of corpus.items[j] and zeros for an item its table lacks;
    missing is {slice: the lacking ids, in row order}, for the load
    report."""
    feats, missing = {}, {}
    for name, table in tables.items():
        feats[name], missing[name] = _aligned(corpus.items, table)
    return feats, missing


# ---------------------------------------------------------------------------
# negative sampling

def sample_negative(c: Corpus, u: str, owned: frozenset,
                    rng: np.random.Generator) -> int:
    """Row of a uniform draw from the items the user never trained on, by
    rejection: one rng.integers(n_items) per try. `owned` is the set of
    the user's training rows, which the caller builds once per visit."""
    n = c.n_items
    if len(owned) >= n:
        raise SamplingError(f"user {u!r} owns every item; no negatives exist")
    while True:
        q = int(rng.integers(n))
        if q not in owned:
            return q


def sample_triples(c: Corpus, u: str, n: int,
                   rng: np.random.Generator) -> np.ndarray:
    """(n,) negative rows for user u, one `sample_negative` draw each, in
    order. A pairwise step t = 2..m of the user's m-item training sequence
    pairs the positive train_rows[u][t-1] with entry t-2 of m - 1 such
    rows; an mf visit pairs train_rows[u][k] with entry k of m."""
    owned = frozenset(c.train_rows[u].tolist())
    return np.array([sample_negative(c, u, owned, rng) for _ in range(n)],
                    dtype=np.intp)


# ---------------------------------------------------------------------------
# synthetic corpus with planted cluster structure

@dataclass
class SynthSpec:
    """Generator config. Items belong to clusters; each user walks a
    cluster-level Markov chain (stay with prob self_prob, otherwise jump
    uniformly). A cold pool per cluster is only drawn in the tail of each
    sequence, planting low-frequency test items with informative features;
    warm tail draws can be concentrated onto the first tail_pool common
    items per cluster so the rest of the test set keeps high frequency."""

    users: int
    items: int
    clusters: int
    seq_len: int
    f_dim_visual: int
    f_dim_textual: int
    noise_sigma: float
    seed: int
    self_prob: float = 0.85
    tail_fraction: float = 0.1
    cold_fraction: float = 0.0
    cold_prob: float = 0.0
    tail_pool: int = 0

    def __post_init__(self):
        ints = [(f.name, getattr(self, f.name)) for f in fields(self) if f.type is int]
        bad = [f"{name} must be an integer, got {v!r}" for name, v in ints
               if not numkit.is_int(v)]
        reals = [(f.name, getattr(self, f.name)) for f in fields(self) if f.type is float]
        bad += [f"{name} must be a finite real number, got {v!r}"
                for name, v in reals if not numkit.is_real(v)]
        if bad:
            raise ConfigError("; ".join(bad))
        problems = []
        if self.users < 1:
            problems.append("users must be >= 1")
        if self.clusters < 1 or self.clusters > self.items:
            problems.append("need 1 <= clusters <= items")
        if self.seq_len < MIN_LEN:
            problems.append(f"seq_len must be >= {MIN_LEN}")
        if self.f_dim_visual < 1 or self.f_dim_textual < 1:
            problems.append("feature dims must be >= 1")
        problems += [f"items x {name} is too large to allocate"
                     for name in ("f_dim_visual", "f_dim_textual")
                     if not numkit.fits_float64((self.items, getattr(self, name)))]
        if self.noise_sigma < 0:
            problems.append("noise_sigma must be >= 0")
        if self.seed < 0:
            problems.append("seed must be >= 0")
        if not 0.0 <= self.self_prob <= 1.0:
            problems.append("self_prob must be in [0,1]")
        if not 0.0 <= self.cold_fraction < 1.0:
            problems.append("cold_fraction must be in [0,1)")
        if not 0.0 <= self.cold_prob <= 1.0:
            problems.append("cold_prob must be in [0,1]")
        if not 0.0 <= self.tail_fraction <= 1.0:
            problems.append("tail_fraction must be in [0,1]")
        if self.tail_pool < 0:
            problems.append("tail_pool must be >= 0")
        if problems:
            raise ConfigError("; ".join(problems))

    @classmethod
    def from_json(cls, obj: dict) -> "SynthSpec":
        """A missing field raises the constructor's TypeError."""
        unknown = set(obj) - set(cls.__dataclass_fields__)
        if unknown:
            raise ConfigError(f"unknown generator fields: {sorted(unknown)}")
        return cls(**obj)

    def item_id(self, j: int) -> str:
        width = max(4, len(str(self.items - 1)))
        return f"i{j:0{width}d}"

    def user_id(self, j: int) -> str:
        width = max(4, len(str(self.users - 1)))
        return f"u{j:0{width}d}"

    def item_cluster(self, j: int) -> int:
        return j % self.clusters

    def cluster_pools(self) -> list:
        """Per cluster, (common item indices, cold item indices)."""
        members = [[] for _ in range(self.clusters)]
        for j in range(self.items):
            members[self.item_cluster(j)].append(j)
        pools = []
        for mem in members:
            n_cold = int(len(mem) * self.cold_fraction)
            if n_cold >= len(mem):
                n_cold = len(mem) - 1
            pools.append((mem[:len(mem) - n_cold], mem[len(mem) - n_cold:]))
        return pools


def synth_raw(spec: SynthSpec, rng: np.random.Generator):
    """Generate raw sequences plus normalized feature tables.

    Returns (raw_seqs, {content slice: FeatureTable}). Draw order is fixed
    (centroids, item noise, then per-user walks) so a seed pins everything.
    """
    k = spec.clusters
    cen_v = rng.normal(0.0, 1.0, (k, spec.f_dim_visual))
    cen_t = rng.normal(0.0, 1.0, (k, spec.f_dim_textual))
    clusters = np.array([spec.item_cluster(j) for j in range(spec.items)])
    feats_v = cen_v[clusters] + spec.noise_sigma * rng.normal(0.0, 1.0, (spec.items, spec.f_dim_visual))
    feats_t = cen_t[clusters] + spec.noise_sigma * rng.normal(0.0, 1.0, (spec.items, spec.f_dim_textual))
    feats_v = normalize_minmax(feats_v, *RANGES["visual"])
    feats_t = normalize_minmax(feats_t, *RANGES["textual"])

    pools = spec.cluster_pools()
    tail_start = math.ceil((1.0 - spec.tail_fraction) * spec.seq_len)
    raw_seqs = {}
    for uj in range(spec.users):
        cluster = int(rng.integers(k))
        seq = []
        for s in range(spec.seq_len):
            if s > 0 and k > 1:
                if rng.random() >= spec.self_prob:
                    hop = int(rng.integers(k - 1))
                    cluster = hop if hop < cluster else hop + 1
            common, cold = pools[cluster]
            pool = common
            if s >= tail_start:
                # tail draws: planted low-frequency items with prob
                # cold_prob, otherwise a concentrated head of the common
                # pool so the remainder of the test set stays warm
                if cold and rng.random() < spec.cold_prob:
                    pool = cold
                elif spec.tail_pool:
                    pool = common[:min(spec.tail_pool, len(common))]
            seq.append(spec.item_id(pool[int(rng.integers(len(pool)))]))
        raw_seqs[spec.user_id(uj)] = seq

    ids = [spec.item_id(j) for j in range(spec.items)]  # ascending
    return raw_seqs, {"visual": FeatureTable(ids, feats_v),
                      "textual": FeatureTable(ids, feats_t)}


def synth_corpus(spec: SynthSpec, rng: np.random.Generator):
    """Planted-structure corpus plus aligned features, split and filtered
    by build_corpus with the protocol's defaults."""
    raw_seqs, tables = synth_raw(spec, rng)
    corpus = build_corpus(raw_seqs, MIN_LEN, SPLIT_FRAC)
    return corpus, build_feature_store(corpus, tables)[0]


# ---------------------------------------------------------------------------
# writers (cmd_synth emits files in the formats the loaders read)

def write_sequences(path, raw_seqs: dict) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        for u, seq in raw_seqs.items():
            fh.write(f"{u}\t{','.join(seq)}\n")


def write_features(path, table: FeatureTable) -> None:
    """One line per item, in the table's order."""
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(f"#dims {table.dim}\n")
        for it, vec in zip(table.ids, table.matrix.tolist()):
            vals = " ".join(map(repr, vec))
            fh.write(f"{it}\t{vals}\n")
