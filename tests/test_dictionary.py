from __future__ import annotations

import re
import struct
import sys
import tempfile
import threading
import time
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import graphwalk as gw
from graphwalk.dictionary import (Candidate, DictEntry, Dictionary, SqliteDictionary, _pack,
                                  longest_match_scan, normalize_mention)
from graphwalk.errors import DataError

from conftest import LIONS_COUNTS, LIONS_SENTENCE


# --- normalization ---------------------------------------------------------

def test_normalize_strips_parenthetical():
    assert normalize_mention("Gotham (magazine)") == "gotham"


def test_normalize_identity_on_plain_lowercase():
    assert normalize_mention("gotham") == "gotham"


def test_normalize_collapses_whitespace():
    assert normalize_mention("  A  (x) B ") == "a b"


def test_normalize_nested_and_unmatched_parens():
    assert normalize_mention("a (b (c) d) e") == "a e"
    assert normalize_mention("a (b c") == "a"
    assert normalize_mention("a) b") == "a) b"


def test_normalize_can_empty_out():
    assert normalize_mention("(everything)") == ""
    assert normalize_mention("   ") == ""


@given(st.text(max_size=60))
@settings(max_examples=200, deadline=None)
def test_normalize_idempotent_and_lowercase(raw):
    once = normalize_mention(raw)
    assert normalize_mention(once) == once
    assert once == once.lower()
    assert "  " not in once
    assert once == once.strip()


# --- build / priors --------------------------------------------------------

def test_priors_are_count_ratios():
    d = Dictionary.from_counts({"m": {1: 3, 2: 1}})
    entry = d.get("m")
    assert [c.prior for c in entry.candidates] == [0.75, 0.25]
    assert entry.candidates[0].article == 1


def test_gotham_entry_priors_round_to_published_values():
    counts = {"gotham": {0: 32, 1: 15, 2: 35, 3: 1, 4: 1}}  # total 84
    entry = Dictionary.from_counts(counts).get("gotham")
    by_article = {c.article: c.prior for c in entry.candidates}
    assert round(by_article[0], 2) == 0.38
    assert round(by_article[1], 2) == 0.18


def test_single_candidate_prior_is_one():
    entry = Dictionary.from_counts({"m": {7: 7}}).get("m")
    assert entry.candidates == (gw.Candidate(7, 7, 1.0),)


def test_zero_count_candidates_dropped():
    d = Dictionary.from_counts({"m": {1: 0, 2: 5}, "gone": {3: 0}})
    assert d.get("m").candidates == (gw.Candidate(2, 5, 1.0),)
    assert d.get("gone") is None


def test_candidates_sorted_by_prior_then_id():
    entry = Dictionary.from_counts({"m": {5: 2, 3: 2, 1: 6}}).get("m")
    assert [c.article for c in entry.candidates] == [1, 3, 5]


def test_raw_mentions_merge_under_normalization():
    d = Dictionary.from_counts({"Gotham": {0: 20}, "gotham (city)": {0: 12, 1: 4}})
    entry = d.get("gotham")
    assert {c.article: c.count for c in entry.candidates} == {0: 32, 1: 4}


def test_priors_sum_to_one_on_random_entries():
    rng = np.random.default_rng(8)
    counts = {}
    for i in range(500):
        n_cand = int(rng.integers(1, 8))
        counts[f"m{i}"] = {int(a): int(rng.integers(1, 100))
                           for a in rng.choice(1000, n_cand, replace=False)}
    d = Dictionary.from_counts(counts)
    for entry in d.entries.values():
        total = sum(c.prior for c in entry.candidates)
        assert abs(total - 1.0) <= 1e-9
        assert all(0.0 < c.prior <= 1.0 for c in entry.candidates)


# --- lookup ----------------------------------------------------------------

@pytest.fixture()
def gotham_dict():
    return Dictionary.from_counts({
        "gotham": {0: 32, 1: 15, 2: 35, 3: 1, 4: 1},
        "new york city": {3: 10},
        "new york": {3: 4, 5: 2},
        "york": {6: 3},
        "cape town": {7: 9},
    })


def test_lookup_normalizes(gotham_dict):
    assert gotham_dict.lookup("Gotham") == gotham_dict.get("gotham")
    assert gotham_dict.lookup("Gotham (magazine)") == gotham_dict.get("gotham")


def test_lookup_absent(gotham_dict):
    assert gotham_dict.lookup("zzqx") is None


def test_lookup_equals_lookup_of_normalized(gotham_dict):
    for raw in ("Gotham", "NEW YORK", "new  york (state)", "(x)", "cape Town"):
        assert gotham_dict.lookup(raw) == gotham_dict.lookup(normalize_mention(raw))


# --- longest-match scan ----------------------------------------------------

def test_scan_prefers_longest_match(gotham_dict):
    matches = longest_match_scan(gotham_dict, ["new", "york", "city", "is", "big"])
    assert [(span, e.mention) for span, e in matches] == [((0, 3), "new york city")]


def test_scan_matches_inside_stream(gotham_dict):
    matches = longest_match_scan(Dictionary.from_counts({"york": {6: 1}}),
                                 ["new", "york"])
    assert [(span, e.mention) for span, e in matches] == [((1, 2), "york")]


def test_scan_empty_tokens(gotham_dict):
    assert longest_match_scan(gotham_dict, []) == []


def test_scan_normalizes_spans(gotham_dict):
    matches = longest_match_scan(gotham_dict, ["Cape", "Town,"])
    # trailing punctuation is not stripped by normalization; single tokens fail
    assert matches == []
    matches = longest_match_scan(gotham_dict, ["Cape", "Town", "(legislative)"])
    assert [e.mention for _, e in matches] == ["cape town"]


def test_scan_against_naive_quadratic_matcher():
    rng = np.random.default_rng(21)
    vocab = [f"w{i}" for i in range(12)]
    for _ in range(40):
        mentions = {}
        for _ in range(rng.integers(2, 10)):
            length = int(rng.integers(1, 4))
            words = rng.choice(vocab, length).tolist()
            mentions[" ".join(words)] = {int(rng.integers(0, 50)): 1}
        d = Dictionary.from_counts(mentions)
        tokens = rng.choice(vocab, int(rng.integers(0, 25))).tolist()

        def naive(tokens):
            out, i = [], 0
            while i < len(tokens):
                best = None
                for j in range(len(tokens), i, -1):
                    m = normalize_mention(" ".join(tokens[i:j]))
                    if m and d.get(m) is not None and (j - i) <= d.max_token_len:
                        best = (i, j)
                        break
                if best:
                    out.append(best)
                    i = best[1]
                else:
                    i += 1
            return out

        got = [span for span, _ in longest_match_scan(d, tokens)]
        assert got == naive(tokens)
        # spans are disjoint, ordered, and within bounds
        prev_end = 0
        for start, end in got:
            assert prev_end <= start < end <= len(tokens)
            prev_end = end


# --- persistence -----------------------------------------------------------

def test_snapshot_roundtrip(tmp_path, gotham_dict):
    path = tmp_path / "dict.gwdict"
    gotham_dict.save(str(path))
    loaded = Dictionary.load(str(path))
    assert loaded.entries == gotham_dict.entries
    assert loaded.max_token_len == gotham_dict.max_token_len
    path2 = tmp_path / "dict2.gwdict"
    loaded.save(str(path2))
    assert path.read_bytes() == path2.read_bytes()


def test_snapshot_rejects_garbage(tmp_path):
    path = tmp_path / "bad.gwdict"
    path.write_bytes(b"whatever")
    with pytest.raises(DataError):
        Dictionary.load(str(path))


def test_sqlite_backend_matches_memory(tmp_path, gotham_dict):
    db = SqliteDictionary.create(gotham_dict, str(tmp_path / "dict.sqlite"))
    assert db.max_token_len == gotham_dict.max_token_len
    for mention in list(gotham_dict.entries) + ["absent"]:
        assert db.get(mention) == gotham_dict.get(mention)
    assert db.lookup("Gotham (magazine)") == gotham_dict.lookup("Gotham")
    matches_mem = longest_match_scan(gotham_dict, ["new", "york", "city"])
    matches_db = longest_match_scan(db, ["new", "york", "city"])
    assert [(s, e.mention) for s, e in matches_mem] == [(s, e.mention) for s, e in matches_db]


def test_sqlite_backend_serves_concurrent_readers(tmp_path, gotham_dict):
    db = SqliteDictionary.create(gotham_dict, str(tmp_path / "dict.sqlite"))
    mentions = list(gotham_dict.entries) * 25

    def reader(mention):
        return db.get(mention).candidates

    with ThreadPoolExecutor(max_workers=8) as pool:
        results = list(pool.map(reader, mentions))
    for mention, cands in zip(mentions, results):
        assert cands == gotham_dict.get(mention).candidates


def test_build_from_counts_file(tmp_path):
    path = tmp_path / "dict_counts.tsv"
    path.write_text("mention\tarticle_id\tcount\nm\t1\t3\nm\t2\t1\n",
                    encoding="utf-8")
    d = Dictionary.build(str(path))
    assert [c.prior for c in d.get("m").candidates] == [0.75, 0.25]


def test_build_rejects_bad_rows(tmp_path):
    path = tmp_path / "dict_counts.tsv"
    path.write_text("mention\tarticle_id\tcount\nm\tx\t3\n", encoding="utf-8")
    with pytest.raises(DataError, match=r":2"):
        Dictionary.build(str(path))
    path.write_text("mention\tarticle_id\tcount\nm\t99\t3\n", encoding="utf-8")
    with pytest.raises(DataError):
        Dictionary.build(str(path), n_nodes=10)


def test_build_rejects_negative_counts_and_drops_zero_counts(tmp_path):
    path = tmp_path / "dict_counts.tsv"
    path.write_text("mention\tarticle_id\tcount\nfoo\t1\t5\nfoo\t1\t-3\n", encoding="utf-8")
    with pytest.raises(DataError, match=re.escape(f"{path}:3: negative count -3")):
        Dictionary.build(str(path))
    path.write_text("mention\tarticle_id\tcount\nfoo\t1\t5\nfoo\t2\t0\nbar\t3\t0\n",
                    encoding="utf-8")
    d = Dictionary.build(str(path))
    assert d.get("foo").candidates == (Candidate(1, 5, 1.0),)
    assert d.get("bar") is None


def test_load_rejects_entry_strings_that_do_not_tile_the_string_table(tmp_path):
    d = Dictionary.from_counts({"alpha": {0: 1}, "beta": {1: 1}})
    path = tmp_path / "dict.gwdict"
    d.save(str(path))
    data = bytearray(path.read_bytes())
    length_at = len(b"GWDICT1") + 32 + 8  # the first entry's string length
    assert int.from_bytes(data[length_at:length_at + 4], "little") == len("alpha")
    data[length_at:length_at + 4] = (len("alpha") + 4).to_bytes(4, "little")
    path.write_bytes(bytes(data))
    with pytest.raises(DataError, match="truncated or corrupt snapshot"):
        Dictionary.load(str(path))


def test_load_rejects_truncated_snapshot(tmp_path, gotham_dict):
    path = tmp_path / "dict.gwdict"
    gotham_dict.save(str(path))
    path.write_bytes(path.read_bytes()[:-7])
    with pytest.raises(DataError, match="truncated"):
        Dictionary.load(str(path))


def test_article_ids_are_checked_against_the_node_count(tmp_path):
    d = Dictionary.from_counts({"alpha": {2: 3, 0: 1}, "beta": {4: 1}})
    path = tmp_path / "dict.gwdict"
    d.save(str(path))
    db = tmp_path / "dict.sqlite"
    SqliteDictionary.create(d, str(db))
    assert Dictionary.load(str(path), n_nodes=5).entries == d.entries
    assert SqliteDictionary(str(db), n_nodes=5).get("beta") == d.get("beta")
    with pytest.raises(DataError, match="article id 4 is outside the graph's 4 nodes"):
        Dictionary.load(str(path), n_nodes=4)
    narrow = SqliteDictionary(str(db), n_nodes=4)
    assert narrow.get("alpha") == d.get("alpha")
    with pytest.raises(DataError, match="dict.sqlite: candidate article id 4"):
        narrow.get("beta")


# --- loaded snapshots ------------------------------------------------------

_HEADER_AT = len(b"GWDICT1")
_TRIPLE_SIZE = 20


def _triples_at(blob: bytes) -> int:
    n_entries, _, strtab_len, _ = struct.unpack_from("<QQQQ", blob, _HEADER_AT)
    return _HEADER_AT + 32 + n_entries * 16 + strtab_len


def _random_counts(seed: int, top: int) -> dict:
    rng = np.random.default_rng(seed)
    return {f"w{i} x{i % 7}" if i % 3 else f"w{i}":
            {int(a): int(rng.integers(1, top))
             for a in rng.choice(50, int(rng.integers(1, 6)), replace=False)}
            for i in range(300)}


@pytest.mark.parametrize("counts", [
    LIONS_COUNTS,
    {"smith": {1: 6, 2: 3}, "white house": {3: 9}, "john smith": {1: 4},
     "gotham": {10: 32, 11: 15, 12: 35, 13: 1, 14: 1}, "café crème": {4: 2, 5: 2}},
    _random_counts(3, 100),
    _random_counts(4, 2 ** 50),  # totals close below 2**53
], ids=["lions", "cascade", "random", "large_counts"])
def test_loaded_dictionary_serves_what_from_counts_built(tmp_path, counts):
    built = Dictionary.from_counts(counts)
    path = tmp_path / "dict.gwdict"
    built.save(str(path))
    loaded = Dictionary.load(str(path))
    assert len(loaded) == len(built)
    assert loaded.max_token_len == built.max_token_len
    probes = list(built.entries) + ["absent", "lions franchise", ""]
    for m in probes + [m.upper() for m in probes] + [m.title() for m in probes]:
        assert loaded.get(m) == built.get(m)
        assert loaded.lookup(m) == built.lookup(m)
    for tokens in (LIONS_SENTENCE.split(), "the John Smith of White House".split(),
                   " ".join(built.entries).split()):
        assert longest_match_scan(loaded, tokens) == longest_match_scan(built, tokens)
    # saving a loaded dictionary writes the bytes it was loaded from
    again = tmp_path / "again.gwdict"
    loaded.save(str(again))
    assert again.read_bytes() == path.read_bytes()
    assert loaded.entries == built.entries


def test_entries_are_read_only_and_a_changed_dictionary_is_built_anew(tmp_path, gotham_dict):
    path = tmp_path / "dict.gwdict"
    gotham_dict.save(str(path))
    d = Dictionary.load(str(path))
    zeta = DictEntry("zeta", (Candidate(3, 1, 1.0),))
    with pytest.raises(TypeError):
        d.entries["zeta"] = zeta
    assert d.get("zeta") is None
    grown = Dictionary({**d.entries, "zeta": zeta})
    assert grown.get("zeta") == zeta
    assert grown.lookup("Zeta") == zeta
    assert len(grown) == len(gotham_dict) + 1
    grown.save(str(path))
    reloaded = Dictionary.load(str(path))
    assert reloaded.get("zeta") == zeta
    assert reloaded.entries == grown.entries


def test_saving_a_longer_added_mention_reloads(tmp_path, gotham_dict):
    path = tmp_path / "dict.gwdict"
    gotham_dict.save(str(path))
    loaded = Dictionary.load(str(path))
    longest = " ".join(["zoo"] * (loaded.max_token_len + 2))
    d = Dictionary({**loaded.entries, longest: DictEntry(longest, (Candidate(3, 1, 1.0),))})
    d.save(str(path))
    reloaded = Dictionary.load(str(path))
    assert reloaded.max_token_len == loaded.max_token_len + 2
    assert reloaded.get(longest) == d.entries[longest]
    assert longest_match_scan(reloaded, longest.split()) == [
        ((0, len(longest.split())), reloaded.get(longest))]


def test_entries_are_built_once_under_concurrent_readers(tmp_path, gotham_dict, monkeypatch):
    path = tmp_path / "dict.gwdict"
    gotham_dict.save(str(path))
    d = Dictionary.load(str(path))
    builds = []
    build = Dictionary._build_entries
    mentions = list(gotham_dict.entries) + ["absent"]

    def slow_build(self):
        builds.append(threading.get_ident())
        time.sleep(0.01)  # keep the other readers inside the race window
        return build(self)

    monkeypatch.setattr(Dictionary, "_build_entries", slow_build)
    barrier = threading.Barrier(8)

    def reader(i):
        barrier.wait(timeout=10)
        got = []
        for _ in range(20):
            got.append([d.get(m) for m in mentions])
            if i % 2:
                got.append([d.entries.get(m) for m in mentions])
        return got

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        with ThreadPoolExecutor(max_workers=8) as pool:
            results = [f.result(timeout=30) for f in [pool.submit(reader, i) for i in range(8)]]
    finally:
        sys.setswitchinterval(interval)
    assert len(builds) == 1
    want = [gotham_dict.get(m) for m in mentions]
    assert all(got == want for result in results for got in result)


def test_load_rejects_an_entry_without_candidates(tmp_path):
    # one entry with one triple, edited into the same entry with none
    path = tmp_path / "dict.gwdict"
    Dictionary.from_counts({"x": {1: 1}}).save(str(path))
    blob = bytearray(path.read_bytes())
    struct.pack_into("<Q", blob, _HEADER_AT + 24, 0)  # the header's triple count
    struct.pack_into("<I", blob, _HEADER_AT + 32 + 12, 0)  # the entry's triple count
    path.write_bytes(bytes(blob[:-_TRIPLE_SIZE]))
    with pytest.raises(DataError, match=re.escape(f"{path}: an entry has no candidates")):
        Dictionary.load(str(path))


def _bump_count(blob: bytearray, at: int) -> None:
    count_at = at + 4
    count = int.from_bytes(blob[count_at:count_at + 8], "little")
    blob[count_at:count_at + 8] = (count + 1).to_bytes(8, "little")


def _nudge_prior(blob: bytearray, at: int) -> None:
    (prior,) = struct.unpack_from("<d", blob, at + 12)
    struct.pack_into("<d", blob, at + 12, np.nextafter(prior, 0.0))


def _swap_first_two(blob: bytearray, at: int) -> None:
    a, b = blob[at:at + _TRIPLE_SIZE], blob[at + _TRIPLE_SIZE:at + 2 * _TRIPLE_SIZE]
    blob[at:at + 2 * _TRIPLE_SIZE] = b + a


def _zero_count(blob: bytearray, at: int) -> None:
    blob[at + 4:at + 12] = bytes(8)


def _raise_max_token_len(blob: bytearray, at: int) -> None:
    struct.pack_into("<Q", blob, _HEADER_AT + 8, 3)


@pytest.mark.parametrize("counts, corrupt, message", [
    ({"m": {1: 3, 2: 1}}, _bump_count, "candidate priors do not match their counts"),
    ({"m": {1: 3, 2: 1}}, _nudge_prior, "candidate priors do not match their counts"),
    ({"m": {1: 3, 2: 1}}, _zero_count, "candidate priors do not match their counts"),
    ({"m": {7: 1}}, _zero_count, "candidate priors do not match their counts"),
    ({"m": {1: 3, 2: 1}}, _swap_first_two, "not ordered by prior, then article id"),
    ({"m": {1: 2, 2: 2}}, _swap_first_two, "not ordered by prior, then article id"),
    ({"a b": {1: 1}}, _raise_max_token_len, "max token length does not match"),
], ids=["count", "prior", "zero_count", "zero_single_count", "prior_order", "tie_order",
        "max_token_len"])
def test_load_rejects_numbers_from_counts_could_not_have_written(tmp_path, counts, corrupt,
                                                                 message):
    path = tmp_path / "dict.gwdict"
    Dictionary.from_counts(counts).save(str(path))
    blob = bytearray(path.read_bytes())
    corrupt(blob, _triples_at(bytes(blob)))
    path.write_bytes(bytes(blob))
    with pytest.raises(DataError, match=re.escape(str(path)) + ": .*" + message):
        Dictionary.load(str(path))


def test_load_rejects_a_mention_stored_twice(tmp_path):
    path = tmp_path / "dict.gwdict"
    Dictionary.from_counts({"aa": {1: 1}, "ab": {2: 1}}).save(str(path))
    blob = path.read_bytes()
    path.write_bytes(blob.replace(b"aaab", b"aaaa"))
    with pytest.raises(DataError, match="a mention has two entries"):
        Dictionary.load(str(path))


_ONE = (Candidate(1, 1, 1.0),)
_UNNORMALIZED = ["Zeta  (x)", "Zeta abcd", "zeta(abcd", "zeta\tabcd", "zeta  bcd",
                 " zeta bcd", "zeta bcd ", "zet\u00a0abcd"]  # nine UTF-8 bytes each


@pytest.mark.parametrize("mention", [*_UNNORMALIZED, "", "\u03a3"])
def test_constructor_rejects_a_mention_not_in_normalized_form(mention):
    with pytest.raises(ValueError, match="is not in normalized form"):
        Dictionary({"ok go": DictEntry("ok go", _ONE), mention: DictEntry(mention, _ONE)})


@pytest.mark.parametrize("mention", _UNNORMALIZED)
def test_load_rejects_a_mention_not_in_normalized_form(tmp_path, mention):
    # written as a normalized mention of the same byte length, then overwritten
    path = tmp_path / "dict.gwdict"
    Dictionary({m: DictEntry(m, _ONE) for m in ("ok go", "zeta abcd")}).save(str(path))
    path.write_bytes(path.read_bytes().replace(b"zeta abcd", mention.encode("utf-8")))
    with pytest.raises(DataError, match=re.escape(f"{path}: mention {mention!r} is not in "
                                                  "normalized form")):
        Dictionary.load(str(path), n_nodes=5)


@given(st.lists(st.text(alphabet=" \t\x1c\u00a0\u200b()aAz\u03a3\u03c3\u0130", max_size=6),
                min_size=1, max_size=4, unique=True))
@settings(max_examples=300, deadline=None)
def test_a_dictionary_takes_exactly_the_mentions_build_can_write(mentions):
    fixed = all(m and normalize_mention(m) == m for m in mentions)
    try:
        Dictionary({m: DictEntry(m, _ONE) for m in mentions})
    except ValueError:
        assert not fixed
    else:
        assert fixed


def _from_counts_could_write(entries: dict) -> bool:
    """The oracle: normalized mentions, each with candidates whose counts are
    positive, whose priors are count / total exactly, in descending prior,
    ties by ascending article id."""
    for m, entry in entries.items():
        cands = entry.candidates
        if not m or normalize_mention(m) != m or not cands:
            return False
        if any(c.count <= 0 for c in cands):
            return False
        total = sum(c.count for c in cands)
        if any(c.prior != c.count / total for c in cands):
            return False
        keys = [(-c.prior, c.article) for c in cands]
        if keys != sorted(set(keys)):
            return False
    return True


@st.composite
def _entry_maps(draw):
    """Small maps of from_counts-shaped entries, one of which may be spoiled."""
    mentions = st.one_of(st.sampled_from(["a", "zz", "a b", "b a z"]),
                         st.text(alphabet="az A(\t", max_size=4))
    counts = st.dictionaries(st.integers(0, 9), st.integers(1, 5), min_size=1, max_size=4)
    entries = {}
    for m, per_article in draw(st.dictionaries(mentions, counts, max_size=4)).items():
        total = sum(per_article.values())
        entries[m] = DictEntry(m, tuple(sorted(
            (Candidate(a, c, c / total) for a, c in per_article.items()),
            key=lambda c: (-c.prior, c.article))))
    how = draw(st.sampled_from(["none", "empty", "zero_count", "shuffle", "ulp_up",
                                "ulp_down"]))
    if how == "none" or not entries:
        return entries
    m = draw(st.sampled_from(sorted(entries)))
    cands = list(entries[m].candidates)
    i = draw(st.integers(0, len(cands) - 1))
    if how == "empty":
        cands = []
    elif how == "zero_count":
        cands[i] = cands[i]._replace(count=0)
    elif how == "shuffle":
        cands = draw(st.permutations(cands))
    else:
        toward = 2.0 if how == "ulp_up" else 0.0
        cands[i] = cands[i]._replace(prior=float(np.nextafter(cands[i].prior, toward)))
    entries[m] = DictEntry(m, tuple(cands))
    return entries


@given(_entry_maps())
@settings(max_examples=300, deadline=None)
def test_the_constructor_takes_exactly_what_load_takes_and_both_round_trip(entries):
    ok = _from_counts_could_write(entries)
    with tempfile.TemporaryDirectory() as tmp:
        path = f"{tmp}/dict.gwdict"
        with open(path, "wb") as fh:  # the bytes the constructor checks
            fh.write(_pack((m, entries[m].candidates) for m in sorted(entries)))
        try:
            d = Dictionary(entries)
        except ValueError as exc:
            assert not ok
            with pytest.raises(DataError, match=re.escape(f"{path}: {exc}") + "$"):
                Dictionary.load(path)
            return
        assert ok
        d.save(path)
        assert Dictionary.load(path).entries == entries
        db = SqliteDictionary.create(d, f"{tmp}/dict.sqlite")
        assert db.max_token_len == d.max_token_len
        assert {m: db.get(m) for m in entries} == entries


def test_priors_of_totals_from_2_53_on_load_as_from_counts_wrote_them(tmp_path):
    # numpy divides float64 copies of count and total: that is Python's exact
    # c / total only while totals stay below 2**53. Past it the two differ,
    # and load must still accept what from_counts wrote
    big, total = 2 ** 53 + 1, 2 ** 53 + 2
    assert np.float64(big) / np.float64(total) != big / total
    counts = {"m": {1: big, 2: 1}, "n": {3: 2 ** 64 - 1, 4: 2 ** 64 - 1}, "o": {5: 3}}
    built = Dictionary.from_counts(counts)
    path = tmp_path / "dict.gwdict"
    built.save(str(path))
    assert Dictionary.load(str(path)).entries == built.entries


_FLIP_COUNTS = dict(LIONS_COUNTS, **{
    "gotham": {0: 32, 1: 15, 2: 35, 3: 1, 4: 1}, "new york city": {3: 10},
    "new york": {3: 4, 5: 2}, "fletch er": {4: 2, 3: 8, 2: 2}})


@given(bit=st.integers(min_value=0))
@settings(max_examples=400, deadline=None)
def test_any_single_bit_flip_is_rejected_or_loads_a_sound_dictionary(tmp_path_factory, bit):
    path = tmp_path_factory.getbasetemp() / "flip.gwdict"
    Dictionary.from_counts(_FLIP_COUNTS).save(str(path))
    blob = bytearray(path.read_bytes())
    bit %= 8 * len(blob)
    blob[bit // 8] ^= 1 << (bit % 8)
    path.write_bytes(bytes(blob))
    n_nodes = 6
    try:
        loaded = Dictionary.load(str(path), n_nodes=n_nodes)
    except DataError:
        return
    entries = Dictionary.load(str(path)).entries  # a fresh materialization
    assert len(loaded) == len(entries)
    assert loaded.max_token_len == max(len(m.split()) for m in entries)
    for mention, entry in entries.items():
        assert mention and normalize_mention(mention) == mention
        assert loaded.get(mention) == entry
        cands = entry.candidates
        assert cands and all(0 <= c.article < n_nodes for c in cands)
        assert abs(sum(c.prior for c in cands) - 1.0) <= 1e-9
        keys = [(-c.prior, c.article) for c in cands]
        assert keys == sorted(set(keys))
