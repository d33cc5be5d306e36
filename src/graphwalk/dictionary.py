"""Mention dictionary: normalization, prior probabilities, longest-match scan."""

from __future__ import annotations

import re
import sqlite3
import struct
import threading
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .errors import DataError
from .tsv import read_tsv

_MAGIC = b"GWDICT1"
# one candidate as stored by both backends: article id, count, prior
_TRIPLE = struct.Struct("<IQd")
_HEADER = struct.Struct("<QQQQ")  # entries, max token length, string bytes, triples
_OFFSET = struct.Struct("<QII")   # per entry: string offset, string length, triples
_OFFSET_DTYPE = np.dtype([("offset", "<u8"), ("length", "<u4"), ("triples", "<u4")])
_TRIPLE_DTYPE = np.dtype([("article", "<u4"), ("count", "<u8"), ("prior", "<f8")])
_WS_RE = re.compile(r"\s+")


class Candidate(NamedTuple):
    article: int
    count: int
    prior: float


@dataclass(frozen=True)
class DictEntry:
    mention: str                       # already normalized
    candidates: tuple[Candidate, ...]  # sorted by descending prior, ties by id

    @property
    def top(self) -> Candidate:
        return self.candidates[0]


def normalize_mention(raw: str) -> str:
    """Lowercase, drop parenthesized text, collapse whitespace, trim.

    Nested parentheses are removed up to the matching closer; an unmatched
    opener removes everything to the end of the string. Returns "" when
    nothing survives, which callers treat as no-mention.
    """
    out = []
    depth = 0
    for ch in raw:
        if ch == "(":
            depth += 1
        elif ch == ")" and depth > 0:
            depth -= 1
        elif depth == 0:
            out.append(ch)
    return _WS_RE.sub(" ", "".join(out)).strip().lower()


class Dictionary:
    """In-memory mention -> candidate-article store with prior probabilities."""

    def __init__(self, entries: dict[str, DictEntry]):
        self.entries = entries
        self.max_token_len = max((len(m.split()) for m in entries), default=0)

    def __len__(self) -> int:
        return len(self.entries)

    def get(self, mention: str):
        """Exact lookup by already-normalized mention."""
        return self.entries.get(mention)

    def lookup(self, raw: str):
        """Normalize then look up; None when absent or nothing survives."""
        m = normalize_mention(raw)
        return self.entries.get(m) if m else None

    @classmethod
    def from_counts(cls, counts: dict[str, dict[int, int]]) -> "Dictionary":
        """Merge raw-mention counts under normalization and compute priors."""
        merged: dict[str, dict[int, int]] = {}
        for raw, per_article in counts.items():
            m = normalize_mention(raw)
            if not m:
                continue
            slot = merged.setdefault(m, {})
            for article, count in per_article.items():
                if count > 0:
                    slot[article] = slot.get(article, 0) + count
        entries: dict[str, DictEntry] = {}
        for m in sorted(merged):
            per_article = merged[m]
            total = sum(per_article.values())
            if total <= 0:
                continue
            cands = sorted(((a, c, c / total) for a, c in per_article.items()),
                           key=lambda t: (-t[2], t[0]))
            entries[m] = DictEntry(m, tuple(Candidate(*t) for t in cands))
        return cls(entries)

    @classmethod
    def build(cls, counts_path: str, n_nodes: int | None = None) -> "Dictionary":
        """Load a ``dict_counts.tsv`` file (mention, article_id, count)."""
        counts: dict[str, dict[int, int]] = {}
        for lineno, cols in read_tsv(counts_path, 3, 3):
            try:
                article, count = int(cols[1]), int(cols[2])
            except ValueError:
                raise DataError(f"{counts_path}:{lineno}: bad integer") from None
            if n_nodes is not None and not 0 <= article < n_nodes:
                raise DataError(f"{counts_path}:{lineno}: unknown article id {article}")
            slot = counts.setdefault(cols[0], {})
            slot[article] = slot.get(article, 0) + count
        return cls.from_counts(counts)

    def save(self, path: str) -> None:
        """Write the binary snapshot: string table, entry offsets, triples."""
        mentions = sorted(self.entries)
        strtab = bytearray()
        offsets = bytearray()
        triples = bytearray()
        n_triples = 0
        for m in mentions:
            mb = m.encode("utf-8")
            offsets += _OFFSET.pack(len(strtab), len(mb), len(self.entries[m].candidates))
            strtab += mb
            for c in self.entries[m].candidates:
                triples += _TRIPLE.pack(c.article, c.count, c.prior)
                n_triples += 1
        with open(path, "wb") as fh:
            fh.write(_MAGIC)
            fh.write(_HEADER.pack(len(mentions), self.max_token_len, len(strtab), n_triples))
            fh.write(bytes(offsets))
            fh.write(bytes(strtab))
            fh.write(bytes(triples))

    @classmethod
    def load(cls, path: str, n_nodes: int | None = None) -> "Dictionary":
        """Read a ``save`` file; a short, padded or undecodable one is a DataError,
        and so is a candidate article id >= ``n_nodes`` when that is given."""
        with open(path, "rb") as fh:
            data = fh.read()
        if not data.startswith(_MAGIC):
            raise DataError(f"{path}: not a dictionary snapshot")
        try:
            n_entries, _max_len, strtab_len, n_triples = _HEADER.unpack_from(data, len(_MAGIC))
            offs_at = len(_MAGIC) + _HEADER.size
            strtab_at = offs_at + n_entries * _OFFSET.size
            triples_at = strtab_at + strtab_len
            if triples_at + n_triples * _TRIPLE.size != len(data):
                raise ValueError("snapshot size does not match its header")
            spans = np.frombuffer(data, _OFFSET_DTYPE, n_entries, offs_at)
            bounds = np.zeros(n_entries + 1, dtype=np.uint64)
            np.cumsum(spans["length"], out=bounds[1:])
            if not np.array_equal(spans["offset"], bounds[:-1]) or bounds[-1] != strtab_len:
                raise ValueError("entry strings do not tile the string table")
            strtab = data[strtab_at:triples_at]
            triples = list(map(Candidate._make, _TRIPLE.iter_unpack(data[triples_at:])))
            entries: dict[str, DictEntry] = {}
            pos = 0
            for str_off, str_len, n_cand in spans.tolist():
                m = strtab[str_off:str_off + str_len].decode("utf-8")
                entries[m] = DictEntry(m, tuple(triples[pos:pos + n_cand]))
                pos += n_cand
        except (struct.error, ValueError):
            raise DataError(f"{path}: truncated or corrupt snapshot") from None
        if pos != n_triples:
            raise DataError(f"{path}: truncated or corrupt snapshot")
        if n_nodes is not None and n_triples:
            articles = np.frombuffer(data, _TRIPLE_DTYPE, n_triples, triples_at)["article"]
            _check_articles(path, int(articles.max()), n_nodes)
        return cls(entries)


class SqliteDictionary:
    """Dictionary served from a sqlite file without loading it into memory.

    Read-only and safe for concurrent readers (one connection per thread).
    With ``n_nodes`` given, a row naming a candidate article id >= ``n_nodes``
    is a DataError when it is read.
    """

    def __init__(self, path: str, n_nodes: int | None = None):
        self._path = path
        self._n_nodes = n_nodes
        self._local = threading.local()
        row = self._conn().execute(
            "SELECT value FROM meta WHERE key='max_token_len'").fetchone()
        if row is None:
            raise DataError(f"{path}: not a dictionary database")
        self.max_token_len = int(row[0])

    def _conn(self) -> sqlite3.Connection:
        conn = getattr(self._local, "conn", None)
        if conn is None:
            conn = sqlite3.connect(f"file:{self._path}?mode=ro", uri=True)
            self._local.conn = conn
        return conn

    def get(self, mention: str):
        row = self._conn().execute(
            "SELECT candidates FROM entries WHERE mention=?", (mention,)).fetchone()
        if row is None:
            return None
        # a u32 candidate count, then the triples
        cands = tuple(map(Candidate._make, _TRIPLE.iter_unpack(row[0][4:])))
        if self._n_nodes is not None and cands:
            _check_articles(self._path, max(c.article for c in cands), self._n_nodes)
        return DictEntry(mention, cands)

    def lookup(self, raw: str):
        m = normalize_mention(raw)
        return self.get(m) if m else None

    @classmethod
    def create(cls, dictionary: Dictionary, path: str) -> "SqliteDictionary":
        conn = sqlite3.connect(path)
        try:
            conn.execute("DROP TABLE IF EXISTS entries")
            conn.execute("DROP TABLE IF EXISTS meta")
            conn.execute("CREATE TABLE meta (key TEXT PRIMARY KEY, value TEXT)")
            conn.execute("CREATE TABLE entries (mention TEXT PRIMARY KEY, candidates BLOB)")
            conn.execute("INSERT INTO meta VALUES ('max_token_len', ?)",
                         (str(dictionary.max_token_len),))
            for m in sorted(dictionary.entries):
                cands = dictionary.entries[m].candidates
                blob = struct.pack("<I", len(cands)) + b"".join(
                    _TRIPLE.pack(c.article, c.count, c.prior) for c in cands)
                conn.execute("INSERT INTO entries VALUES (?, ?)", (m, blob))
            conn.commit()
        finally:
            conn.close()
        return cls(path)


def _check_articles(path: str, max_article: int, n_nodes: int) -> None:
    if max_article >= n_nodes:
        raise DataError(f"{path}: candidate article id {max_article} is outside "
                        f"the graph's {n_nodes} nodes")


def longest_match_scan(store, tokens: list[str]):
    """Greedy left-to-right extraction of the longest dictionary mentions.

    Returns a list of ((start, end), DictEntry) with disjoint, ordered spans
    over ``tokens``. Candidate spans are joined on single spaces and
    normalized before lookup, so raw tokens may carry case or parenthesized
    noise; tokens that match nothing are consumed one at a time.
    """
    matches = []
    i, n = 0, len(tokens)
    max_len = store.max_token_len
    while i < n:
        hit = None
        for length in range(min(max_len, n - i), 0, -1):
            m = normalize_mention(" ".join(tokens[i:i + length]))
            if not m:
                continue
            entry = store.get(m)
            if entry is not None:
                hit = ((i, i + length), entry)
                break
        if hit is not None:
            matches.append(hit)
            i = hit[0][1]
        else:
            i += 1
    return matches
