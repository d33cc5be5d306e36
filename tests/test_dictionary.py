from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import graphwalk as gw
from graphwalk.dictionary import (Dictionary, SqliteDictionary,
                                  longest_match_scan, normalize_mention)
from graphwalk.errors import DataError


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
    assert entry.top.article == 1


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
    assert gotham_dict.lookup("Gotham") is gotham_dict.get("gotham")
    assert gotham_dict.lookup("Gotham (magazine)") is gotham_dict.get("gotham")


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
    from concurrent.futures import ThreadPoolExecutor

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
