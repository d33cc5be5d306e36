"""Mention dictionary: normalization, prior probabilities, longest-match scan."""

from __future__ import annotations

import re
import sqlite3
import struct
import threading
from collections.abc import Mapping
from dataclasses import dataclass
from itertools import repeat
from types import MappingProxyType
from typing import NamedTuple

import numpy as np

from .errors import DataError
from .tsv import read_tsv

_MAGIC = b"GWDICT1"
# one candidate as stored by both backends: article id, count, prior
_TRIPLE = struct.Struct("<IQd")
_COUNT = struct.Struct("<I")  # a sqlite row's candidate count, before its triples
_HEADER = struct.Struct("<QQQQ")  # entries, max token length, string bytes, triples
_OFFSET = struct.Struct("<QII")   # per entry: string offset, string length, triples
_OFFSET_DTYPE = np.dtype([("offset", "<u8"), ("length", "<u4"), ("triples", "<u4")])
_TRIPLE_DTYPE = np.dtype([("article", "<u4"), ("count", "<u8"), ("prior", "<f8")])
_WS_RE = re.compile(r"\s+")
# whitespace other than the single space ``normalize_mention`` leaves; every
# such character is also one that ``str.isprintable`` rejects
_OTHER_WS_RE = re.compile(r"[^\S ]")
# integer totals below this sum and divide exactly in float64
_EXACT_TOTAL = 2.0 ** 53
# mentions read per fetch when a sqlite dictionary is opened
_FETCH_ROWS = 8192
# guards the one-time decoding of a dictionary's ``entries``
_ENTRIES_LOCK = threading.Lock()


class Candidate(NamedTuple):
    article: int
    count: int
    prior: float


@dataclass(frozen=True)
class DictEntry:
    mention: str                       # already normalized
    candidates: tuple[Candidate, ...]  # sorted by descending prior, ties by id


def normalize_mention(raw: str) -> str:
    """Lowercase, drop parenthesized text, collapse whitespace, trim.

    Nested parentheses are removed up to the matching closer; an unmatched
    opener removes everything to the end of the string. Returns "" when
    nothing survives, which callers treat as no-mention.
    """
    if "(" in raw:  # without an opener the loop below copies ``raw`` unchanged
        out = []
        depth = 0
        for ch in raw:
            if ch == "(":
                depth += 1
            elif ch == ")" and depth > 0:
                depth -= 1
            elif depth == 0:
                out.append(ch)
        raw = "".join(out)
    return _WS_RE.sub(" ", raw).strip().lower()


class Dictionary:
    """Mention -> candidate-article store with prior probabilities.

    Held as the bytes of a GWDICT1 snapshot, whether built from entries or
    loaded from a file, plus an index of its mentions: a lookup unpacks only
    the candidates of the mention it hits, and ``entries`` is decoded in full
    the first time someone reads it.
    """

    def __init__(self, entries: Mapping[str, DictEntry]):
        """Pack ``entries`` by sorted mention. A ValueError when ``_pack``
        or, with ``load``'s message, ``load`` would reject them."""
        self._index(_pack((m, entries[m].candidates) for m in sorted(entries)))

    def _index(self, data: bytes) -> None:
        """Hold a GWDICT1 snapshot and index its mentions: mention -> row, and
        the triples of row r at ``_triples[_first[r]:_first[r + 1]]`` (in
        triples, not bytes). A ValueError when the bytes are short, padded or
        undecodable, or are not what ``from_counts`` could have written (see
        ``_check_candidates``)."""
        if not data.startswith(_MAGIC):
            raise ValueError("not a dictionary snapshot")
        try:
            n_entries, max_len, strtab_len, n_triples = _HEADER.unpack_from(data, len(_MAGIC))
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
            first = np.zeros(n_entries + 1, dtype=np.int64)
            np.cumsum(spans["triples"], out=first[1:])
            if first[-1] != n_triples:
                raise ValueError("entry candidates do not tile the triples")
            strtab = data[strtab_at:triples_at]
            ends = bounds.tolist()
            mentions = [strtab[a:b].decode("utf-8") for a, b in zip(ends, ends[1:])]
        except (struct.error, ValueError):
            raise ValueError("truncated or corrupt snapshot") from None
        rows = dict(zip(mentions, range(n_entries)))
        if len(rows) != n_entries:
            raise ValueError("a mention has two entries")
        if max_len != _max_tokens(mentions):
            raise ValueError("the header's max token length does not match the mentions")
        _check_candidates(np.frombuffer(data, _TRIPLE_DTYPE, n_triples, triples_at),
                          spans["triples"], first)
        self._data, self._triples, self._entries = data, memoryview(data)[triples_at:], None
        self._rows, self._first, self.max_token_len = rows, first.tolist(), max_len

    def __len__(self) -> int:
        return len(self._rows)

    @property
    def entries(self) -> Mapping[str, DictEntry]:
        """Every entry by mention, read-only, decoded once on first read."""
        entries = self._entries
        if entries is None:
            with _ENTRIES_LOCK:
                entries = self._entries
                if entries is None:
                    entries = self._entries = MappingProxyType(self._build_entries())
        return entries

    def _build_entries(self) -> dict[str, DictEntry]:
        return {m: DictEntry(m, _candidates(self._block(r))) for m, r in self._rows.items()}

    def _block(self, row: int) -> memoryview:
        first, size = self._first, _TRIPLE.size
        return self._triples[first[row] * size:first[row + 1] * size]

    def _find(self, mention: str):
        # the body of both get and lookup, so that a wrapper counting calls
        # to get (as perfbench's tracer does) counts exact lookups only
        row = self._rows.get(mention)
        return None if row is None else DictEntry(mention, _candidates(self._block(row)))

    def get(self, mention: str):
        """Exact lookup by already-normalized mention."""
        return self._find(mention)

    def lookup(self, raw: str):
        """Normalize then look up; None when absent or nothing survives."""
        m = normalize_mention(raw)
        return self._find(m) if m else None

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

        def triples(per_article: dict[int, int]) -> list[tuple[int, int, float]]:
            total = sum(per_article.values())
            return sorted(((a, c, c / total) for a, c in per_article.items()),
                          key=lambda t: (-t[2], t[0]))

        d = cls.__new__(cls)
        d._index(_pack((m, triples(p)) for m, p in sorted(merged.items()) if p))
        return d

    @classmethod
    def build(cls, counts_path: str, n_nodes: int | None = None) -> "Dictionary":
        """Load a ``dict_counts.tsv`` file (mention, article_id, count).

        A negative id or count (or id >= ``n_nodes``) is a DataError; zero counts add nothing."""
        counts: dict[str, dict[int, int]] = {}
        for lineno, cols in read_tsv(counts_path, 3, 3, header="mention\t"):
            try:
                article, count = int(cols[1]), int(cols[2])
            except ValueError:
                raise DataError(f"{counts_path}:{lineno}: bad integer") from None
            if article < 0 or n_nodes is not None and article >= n_nodes:
                raise DataError(f"{counts_path}:{lineno}: unknown article id {article}")
            if count < 0:
                raise DataError(f"{counts_path}:{lineno}: negative count {count}")
            slot = counts.setdefault(cols[0], {})
            slot[article] = slot.get(article, 0) + count
        try:
            return cls.from_counts(counts)
        except ValueError as exc:
            raise DataError(f"{counts_path}: {exc}") from None

    def save(self, path: str) -> None:
        """Write the snapshot bytes."""
        with open(path, "wb") as fh:
            fh.write(self._data)

    @classmethod
    def load(cls, path: str, n_nodes: int | None = None) -> "Dictionary":
        """Read a ``save`` file, keeping its bytes and decoding only its
        mentions. A DataError when ``_index`` rejects the bytes, or when a
        candidate article id is >= ``n_nodes`` and that is given."""
        with open(path, "rb") as fh:
            data = fh.read()
        d = cls.__new__(cls)
        try:
            d._index(data)
        except ValueError as exc:
            raise DataError(f"{path}: {exc}") from None
        if n_nodes is not None and len(d._triples):
            articles = np.frombuffer(d._triples, _TRIPLE_DTYPE)["article"]
            _check_articles(path, int(articles.max()), n_nodes)
        return d


class SqliteDictionary:
    """Dictionary served from a sqlite file without loading it into memory.

    Read-only and safe for concurrent readers (one connection per thread).
    A sqlite error, text that is not UTF-8, a mention that is not text or not
    in normalized form, or a missing, non-integer or negative
    ``max_token_len``, or one that is not the longest mention's token count,
    is a DataError naming the file when it is opened (one pass over the
    mentions, a fetch at a time), and so is a row
    read that is not a nonzero u32 candidate count then that many triples,
    whose triples ``load`` would reject (see ``_check_candidates``) or, with
    ``n_nodes`` given, that names a candidate article id >= ``n_nodes``.
    """

    def __init__(self, path: str, n_nodes: int | None = None):
        self._path = path
        self._n_nodes = n_nodes
        self._local = threading.local()
        row = self._row("SELECT value FROM meta WHERE key='max_token_len'", ())
        try:
            self.max_token_len = int(str(row[0]))
            if self.max_token_len < 0:
                raise ValueError
        except (TypeError, ValueError):  # no row, or not an integer >= 0
            raise DataError(f"{path}: not a dictionary database: bad max_token_len") from None
        longest, cursor = 0, self._read(lambda conn: conn.execute("SELECT mention FROM entries"))
        while rows := self._read(lambda _: cursor.fetchmany(_FETCH_ROWS)):
            try:
                longest = max(longest, _max_tokens([m for m, in rows]))
            except ValueError as exc:
                raise DataError(f"{path}: {exc}") from None
        if self.max_token_len != longest:
            raise DataError(f"{path}: max_token_len does not match the mentions")

    def _row(self, sql: str, args: tuple):
        """The first row of ``sql`` on this thread's connection, or None."""
        return self._read(lambda conn: conn.execute(sql, args).fetchone())

    def _read(self, fetch):
        """``fetch(conn)`` on this thread's connection; a sqlite error, or text
        that is not UTF-8, is a DataError."""
        try:
            conn = getattr(self._local, "conn", None)
            if conn is None:
                conn = self._local.conn = sqlite3.connect(f"file:{self._path}?mode=ro", uri=True)
            return fetch(conn)
        except sqlite3.DatabaseError as exc:
            raise DataError(f"{self._path}: {exc}") from None
        except UnicodeDecodeError:  # sqlite3 decoding a corrupt file's error message
            raise DataError(f"{self._path}: corrupt database: text that is not UTF-8") from None

    def get(self, mention: str):
        row = self._row("SELECT candidates FROM entries WHERE mention=?", (mention,))
        if row is None:
            return None
        blob = row[0] if isinstance(row[0], bytes) else b""
        count = _COUNT.unpack_from(blob)[0] if len(blob) >= _COUNT.size else 0
        if count == 0 or len(blob) != _COUNT.size + count * _TRIPLE.size:
            raise DataError(f"{self._path}: entry {mention!r}: candidates are not a nonzero "
                            f"u32 count then that many triples")
        triples = np.frombuffer(blob, _TRIPLE_DTYPE, count, _COUNT.size)
        try:
            _check_candidates(triples, np.array([count]), np.array([0, count]))
        except ValueError as exc:
            raise DataError(f"{self._path}: entry {mention!r}: {exc}") from None
        if self._n_nodes is not None:
            _check_articles(self._path, int(triples["article"].max()), self._n_nodes)
        return DictEntry(mention, _candidates(blob[_COUNT.size:]))

    def lookup(self, raw: str):
        m = normalize_mention(raw)
        return self.get(m) if m else None

    @classmethod
    def create(cls, dictionary: Dictionary, path: str) -> "SqliteDictionary":
        """Write one row per mention: the u32 candidate count, then the
        mention's triples as the snapshot holds them."""
        first = dictionary._first
        conn = sqlite3.connect(path)
        try:
            conn.execute("DROP TABLE IF EXISTS entries")
            conn.execute("DROP TABLE IF EXISTS meta")
            conn.execute("CREATE TABLE meta (key TEXT PRIMARY KEY, value TEXT)")
            conn.execute("CREATE TABLE entries (mention TEXT PRIMARY KEY, candidates BLOB)")
            conn.execute("INSERT INTO meta VALUES ('max_token_len', ?)",
                         (str(dictionary.max_token_len),))
            conn.executemany("INSERT INTO entries VALUES (?, ?)",
                             ((m, _COUNT.pack(first[r + 1] - first[r]) + dictionary._block(r))
                              for m, r in dictionary._rows.items()))
            conn.commit()
        finally:
            conn.close()
        return cls(path)


def _pack(rows) -> bytes:
    """GWDICT1 snapshot bytes of ``(mention, triples)`` rows in sorted mention
    order, each triple an (article, count, prior): the header, then per
    entry its string offset, length and triple count, the string table and
    the triples. A ValueError for an id or count its u32 and u64 cannot hold."""
    strtab, offsets, triples, max_len = bytearray(), bytearray(), bytearray(), 0
    try:
        for m, cands in rows:
            mb = m.encode("utf-8")
            offsets += _OFFSET.pack(len(strtab), len(mb), len(cands))
            strtab += mb
            for t in cands:
                triples += _TRIPLE.pack(*t)
            max_len = max(max_len, len(m.split()))
    except struct.error:
        raise ValueError("an article id or count is out of GWDICT1's u32/u64 range") from None
    header = _HEADER.pack(len(offsets) // _OFFSET.size, max_len, len(strtab),
                          len(triples) // _TRIPLE.size)
    return b"".join((_MAGIC, header, offsets, strtab, triples))


def _candidates(block) -> tuple[Candidate, ...]:
    """Decode a run of packed triples."""
    return tuple(map(Candidate._make, _TRIPLE.iter_unpack(block)))


def _check_candidates(triples: np.ndarray, per_entry: np.ndarray, first: np.ndarray) -> None:
    """What ``from_counts`` writes: every entry has candidates, every count is
    positive, every prior is count / entry total, and candidates run by
    descending prior, ties by ascending article id. A ValueError if not."""
    if not per_entry.size:
        return
    if per_entry.min() == 0:
        raise ValueError("an entry has no candidates")
    counts, priors, articles = triples["count"], triples["prior"], triples["article"]
    if counts.min() == 0:
        raise ValueError("candidate priors do not match their counts")
    starts = first[:-1]
    # from_counts stores Python's exactly rounded c / total. Float64 sums of
    # integers are exact below 2**53 and never round below it, so for rows
    # with smaller totals numpy's float64 division gives the same priors bit
    # for bit; the rare rows at or above 2**53 are checked with Python ints
    totals = np.add.reduceat(counts.astype(np.float64), starts)
    wrong = np.logical_or.reduceat(priors != counts / np.repeat(totals, per_entry), starts)
    for r in np.flatnonzero(totals >= _EXACT_TOTAL).tolist():
        row = slice(first[r], first[r + 1])
        cs = counts[row].tolist()
        total = sum(cs)
        wrong[r] = priors[row].tolist() != [c / total for c in cs]
    if wrong.any():
        raise ValueError("candidate priors do not match their counts")
    same_row = np.ones(len(triples) - 1, dtype=bool)
    same_row[first[1:-1] - 1] = False
    ahead = (priors[:-1] > priors[1:]) | ((priors[:-1] == priors[1:])
                                          & (articles[:-1] < articles[1:]))
    if np.any(same_row & ~ahead):
        raise ValueError("candidates are not ordered by prior, then article id")


def _max_tokens(mentions: list) -> int:
    """The token count of the longest of ``mentions``; a ValueError naming
    the first one that is not text or that ``normalize_mention`` would change.

    Its fixed points are the non-empty strings with no "(", no upper case and
    no whitespace but single inner spaces. That is checked over the mentions
    joined and bracketed by "(", which no fixed point holds; only a list that
    fails is searched mention by mention.
    """
    try:
        text = f"({'('.join(mentions)}("
    except TypeError:  # a mention that is not text
        text = "(("
    if (text.count("(") != len(mentions) + 1 or "((" in text or "( " in text
            or " (" in text or "  " in text or text.lower() != text
            or not text.isprintable() and _OTHER_WS_RE.search(text)):
        for m in mentions:
            if not isinstance(m, str) or not m or normalize_mention(m) != m:
                raise ValueError(f"mention {m!r} is not in normalized form")
    # a normalized mention has one token more than it has spaces
    return max(map(str.count, mentions, repeat(" ")), default=-1) + 1


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
