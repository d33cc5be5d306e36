from __future__ import annotations

import os
import random
import tempfile
from collections import Counter
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from graphwalk import ingest
from graphwalk.errors import DataError
from graphwalk.ingest import (REDIRECT_DEPTH_CAP, AnchorRecord, PageRecord, RawLinkRecord,
                              RedirectMap, disambiguation_targets,
                              expand_disambiguation_anchors,
                              iter_anchors, iter_links, read_pages, resolve_redirects,
                              run_ingest)

from conftest import write_tsv


def pages_of(*records):
    return {r.title: r for r in records}


ART = lambda pid, t: PageRecord(pid, t, "article")
CAT = lambda pid, t: PageRecord(pid, t, "category")
RED = lambda pid, t, target: PageRecord(pid, t, "redirect", target)
DIS = lambda pid, t: PageRecord(pid, t, "disambiguation")


# --- redirect resolution ---------------------------------------------------

def test_single_hop_redirect():
    pages = pages_of(ART(0, "A"), ART(1, "X"), RED(2, "R", "A"))
    tallies = Counter()
    out = list(resolve_redirects(RedirectMap.of_pages(pages),
                                 [RawLinkRecord("X", "R", "H")], tallies))
    assert out == [RawLinkRecord("X", "A", "H")]
    assert not tallies


def test_redirect_chain_follows_to_fixed_point():
    pages = pages_of(ART(0, "A"), ART(1, "X"),
                     RED(2, "R1", "R2"), RED(3, "R2", "A"))
    out = list(resolve_redirects(RedirectMap.of_pages(pages),
                                 [RawLinkRecord("X", "R1", "H")], Counter()))
    assert out == [RawLinkRecord("X", "A", "H")]


def test_redirect_cycle_drops_and_tallies():
    pages = pages_of(ART(0, "X"), RED(1, "R1", "R2"), RED(2, "R2", "R1"))
    tallies = Counter()
    out = list(resolve_redirects(RedirectMap.of_pages(pages),
                                 [RawLinkRecord("X", "R1", "H")], tallies))
    assert out == []
    assert tallies["links_dropped_redirect_cycle"] == 1


def test_redirect_chain_beyond_cap_counts_as_cycle():
    pages = {"X": ART(0, "X"), "A": ART(1, "A")}
    for i in range(30):
        pages[f"R{i}"] = RED(10 + i, f"R{i}", f"R{i+1}" if i < 29 else "A")
    tallies = Counter()
    out = list(resolve_redirects(RedirectMap.of_pages(pages),
                                 [RawLinkRecord("X", "R0", "H")], tallies))
    assert out == []
    assert tallies["links_dropped_redirect_cycle"] == 1
    # a short chain through the same map still resolves
    out = list(resolve_redirects(RedirectMap.of_pages(pages),
                                 [RawLinkRecord("X", "R28", "H")], Counter()))
    assert out == [RawLinkRecord("X", "A", "H")]


def chain_to_missing_pages():
    """X plus the redirect chain R0 -> ... -> R29 -> Missing (not a page)."""
    pages = {"X": ART(0, "X")}
    for i in range(30):
        pages[f"R{i}"] = RED(10 + i, f"R{i}", f"R{i+1}" if i < 29 else "Missing")
    return pages


def test_redirect_resolution_is_query_order_invariant():
    # titles within the cap must resolve identically whether or not an
    # over-long chain was walked through them first
    def build():
        pages = {"A": ART(1, "A")}
        for i in range(30):
            pages[f"R{i}"] = RED(10 + i, f"R{i}", f"R{i+1}" if i < 29 else "A")
        return RedirectMap.of_pages(pages)

    fresh = {t: build().resolve(t) for t in [f"R{i}" for i in range(30)]}
    warmed = build()
    warmed.resolve("R0")  # walks deep into the chain and overflows the cap
    for i in range(30):
        assert warmed.resolve(f"R{i}") == fresh[f"R{i}"], f"R{i}"
    # exact boundary: 16 hops resolves, 17 does not
    assert fresh["R14"] == ("A", "ok")
    assert fresh["R13"] == (None, "cycle")
    # a chain that leaves the known titles past the cap is a cycle from its
    # start, however far along it an earlier query began
    rmap = RedirectMap.of_pages(chain_to_missing_pages())
    assert rmap.resolve("R20") == (None, "unknown")
    assert rmap.resolve("R5") == (None, "cycle")


def naive_resolve(targets, title):
    """The chain rule spelled out: hop up to REDIRECT_DEPTH_CAP + 1 times,
    then judge the whole path (a repeat or too many hops first)."""
    path = [title]
    while (len(path) <= REDIRECT_DEPTH_CAP + 1 and len(set(path)) == len(path)
           and path[-1] in targets and targets[path[-1]] is not None):
        path.append(targets[path[-1]])
    if len(set(path)) < len(path) or len(path) > REDIRECT_DEPTH_CAP + 1:
        return None, "cycle"
    if path[-1] not in targets:
        return None, "unknown"
    return path[-1], "ok"


@st.composite
def redirect_targets(draw):
    """A random title -> target map plus one chain of 10 to 25 hops that ends
    at a final title, an unknown title or a loop back into itself."""
    n = draw(st.integers(1, 12))
    titles = [f"t{i}" for i in range(n)]
    anywhere = st.sampled_from(titles + ["u0", "u1"])
    targets = {t: draw(st.none() | anywhere) for t in titles}
    length = draw(st.integers(10, 25))
    for i in range(length):
        targets[f"c{i}"] = f"c{i+1}"
    targets[f"c{length}"] = draw(st.none() | anywhere
                                 | st.sampled_from([f"c{i}" for i in range(length)]))
    return targets


@given(redirect_targets(), st.randoms(use_true_random=False))
@settings(max_examples=300, deadline=None)
def test_redirect_map_equals_a_naive_bounded_walk(targets, rnd):
    rmap = RedirectMap(targets)
    queries = list(targets) + ["u0", "u1"]
    rnd.shuffle(queries)
    for title in queries:
        assert rmap.resolve(title) == naive_resolve(targets, title), title


def test_unknown_title_drops_and_tallies():
    pages = pages_of(ART(0, "X"))
    tallies = Counter()
    out = list(resolve_redirects(RedirectMap.of_pages(pages),
                                 [RawLinkRecord("X", "Nope", "H")], tallies))
    assert out == []
    assert tallies["links_dropped_unknown_title"] == 1


def test_resolution_self_loop_dropped():
    pages = pages_of(ART(0, "A"), RED(1, "R", "A"))
    tallies = Counter()
    out = list(resolve_redirects(RedirectMap.of_pages(pages),
                                 [RawLinkRecord("A", "R", "H")], tallies))
    assert out == []
    assert tallies["links_dropped_self_loop"] == 1


def test_a_resolved_link_holds_the_page_tables_titles(tmp_path):
    # each line's own split strings would otherwise stay alive, two per link
    write_tsv(tmp_path / "p.tsv", "page_id\ttitle\tkind\tredirect_target",
              [(0, "Alpha_City", "article", ""), (1, "Beta_City", "article", "")])
    write_tsv(tmp_path / "l.tsv", "src_title\tdst_title\tkind",
              [("Alpha_City", "Beta_City", "H"), ("Beta_City", "Alpha_City", "I")])
    pages = read_pages(str(tmp_path / "p.tsv"))
    out = list(resolve_redirects(RedirectMap.of_pages(pages), iter_links(str(tmp_path / "l.tsv")),
                                 Counter()))
    assert [(r.src_title, r.dst_title, r.kind) for r in out] == [
        ("Alpha_City", "Beta_City", "H"), ("Beta_City", "Alpha_City", "I")]
    for rec in out:
        assert rec.src_title is pages[rec.src_title].title
        assert rec.dst_title is pages[rec.dst_title].title
        assert not hasattr(rec, "__dict__")


def test_resolution_is_idempotent():
    rng = random.Random(7)
    pages = {}
    for i in range(10):
        pages[f"A{i}"] = ART(i, f"A{i}")
    for i in range(8):
        target = f"A{rng.randrange(10)}" if i % 3 else f"R{(i + 1) % 8}"
        pages[f"R{i}"] = RED(100 + i, f"R{i}", target)
    links = [RawLinkRecord(f"{'AR'[i % 2]}{i % 8}", f"A{(i * 3) % 10}", "H")
             for i in range(40)]
    once = list(resolve_redirects(RedirectMap.of_pages(pages), links, Counter()))
    twice = list(resolve_redirects(RedirectMap.of_pages(pages), once, Counter()))
    assert once == twice


# --- disambiguation expansion ----------------------------------------------

def test_anchor_to_disambiguation_page_expands():
    pages = pages_of(DIS(0, "D"), ART(1, "Java_language"), ART(2, "Java_island"))
    dmap = {"D": ["Java_island", "Java_language"]}
    tallies = Counter()
    out = list(expand_disambiguation_anchors(
        pages, [AnchorRecord("java", "D", 5)], dmap, tallies))
    assert out == [AnchorRecord("java", "Java_island", 5),
                   AnchorRecord("java", "Java_language", 5)]


def test_anchor_to_article_passes_through():
    pages = pages_of(ART(0, "Paris"))
    out = list(expand_disambiguation_anchors(
        pages, [AnchorRecord("paris", "Paris", 9)], {}, Counter()))
    assert out == [AnchorRecord("paris", "Paris", 9)]


def test_empty_expansion_drops_and_tallies():
    pages = pages_of(DIS(0, "D"))
    tallies = Counter()
    out = list(expand_disambiguation_anchors(
        pages, [AnchorRecord("x", "D", 2)], {}, tallies))
    assert out == []
    assert tallies["anchors_dropped_empty_expansion"] == 1


def test_expansion_map_built_from_links():
    pages = pages_of(DIS(0, "D"), ART(1, "A"), ART(2, "B"), CAT(3, "K"))
    links = [RawLinkRecord("D", "A", "H"), RawLinkRecord("D", "B", "H"),
             RawLinkRecord("D", "K", "C"), RawLinkRecord("A", "B", "H")]
    out = list(expand_disambiguation_anchors(pages,
                                             [AnchorRecord("d", "D", 1)],
                                             disambiguation_targets(pages, links),
                                             Counter()))
    assert {r.dst_title for r in out} == {"A", "B"}


# --- full runs over TSV files ----------------------------------------------

@pytest.fixture()
def corpus(tmp_path):
    pages = [
        (0, "Gotham_City", "article", ""),
        (1, "Gotham_(magazine)", "article", ""),
        (2, "New_York_City", "article", ""),
        (3, "Batman", "article", ""),
        (4, "Comics", "category", ""),
        (5, "Gotham", "disambiguation", ""),
        (6, "NYC", "redirect", "New_York_City"),
        (7, "Old_Gotham", "redirect", "Gotham_City"),
        (8, "Loop_A", "redirect", "Loop_B"),
        (9, "Loop_B", "redirect", "Loop_A"),
        (10, "Template_Junk", "template", ""),
        (11, "Gotham_(comics)", "redirect", "Gotham"),
    ]
    links = [
        ("Batman", "Gotham_City", "H"),
        ("Batman", "Gotham_City", "H"),          # duplicate collapses
        ("Batman", "NYC", "H"),                  # via redirect
        ("Gotham_City", "Batman", "H"),
        ("Gotham_City", "Comics", "C"),
        ("Batman", "Gotham_City", "I"),
        ("Gotham", "Gotham_City", "H"),          # disambiguation outgoing
        ("Gotham", "Gotham_(magazine)", "H"),
        ("Batman", "Missing_Page", "H"),         # unknown target
        ("Batman", "Loop_A", "H"),               # redirect cycle
        ("Comics", "Batman", "C"),               # C must end at category
    ]
    anchors = [
        ("Gotham", "Gotham_City", 20),
        ("gotham", "Gotham_City", 12),
        ("gotham", "Gotham_(magazine)", 15),
        ("gotham", "Gotham", 2),                 # expands via disambiguation
        ("the big apple", "NYC", 7),             # via redirect
        ("nowhere", "Missing_Page", 3),          # dropped
        ("(only parens)", "Batman", 4),          # empty mention
        ("gc", "Gotham_(comics)", 4),            # redirect into a disambiguation
    ]
    write_tsv(tmp_path / "pages.tsv", "page_id\ttitle\tkind\tredirect_target", pages)
    write_tsv(tmp_path / "links.tsv", "src_title\tdst_title\tkind", links)
    write_tsv(tmp_path / "anchors.tsv", "anchor_text\tdst_title\tcount", anchors)
    return tmp_path


def read_lines(path):
    return path.read_text(encoding="utf-8").splitlines()


def test_run_ingest_outputs(corpus):
    out = corpus / "out"
    report = run_ingest(str(corpus / "pages.tsv"), str(corpus / "links.tsv"),
                        str(corpus / "anchors.tsv"), str(out))
    # node universe: 4 articles + 1 category, ordered by page id
    nodes = read_lines(out / "nodes.tsv")
    assert nodes == ["id\ttitle\tkind",
                     "0\tGotham_City\tarticle",
                     "1\tGotham_(magazine)\tarticle",
                     "2\tNew_York_City\tarticle",
                     "3\tBatman\tarticle",
                     "4\tComics\tcategory"]
    assert read_lines(out / "edges.H.tsv") == ["src_id\tdst_id", "0\t3", "3\t0", "3\t2"]
    assert read_lines(out / "edges.I.tsv") == ["src_id\tdst_id", "3\t0"]
    assert read_lines(out / "edges.C.tsv") == ["src_id\tdst_id", "0\t4"]

    tallies = report["tallies"]
    assert tallies["pages_dropped_namespace"] == 1
    assert tallies["links_duplicates_collapsed"] == 1
    assert tallies["links_dropped_unknown_title"] == 1
    assert tallies["links_dropped_redirect_cycle"] == 1
    assert tallies["links_dropped_kind_mismatch"] == 1
    assert tallies["links_dropped_disambiguation_endpoint"] == 2
    assert report["anchor_count_conservation"] is True

    counts = {}
    for line in read_lines(out / "dict_counts.tsv")[1:]:
        mention, article, count = line.split("\t")
        counts[(mention, int(article))] = int(count)
    # case-folded aggregation plus the expanded disambiguation anchor
    assert counts[("gotham", 0)] == 20 + 12 + 2
    assert counts[("gotham", 1)] == 15 + 2
    # anchor through a redirect lands on the target article
    assert counts[("the big apple", 2)] == 7
    # redirect into a disambiguation page resolves first, then expands
    assert counts[("gc", 0)] == 4
    assert counts[("gc", 1)] == 4
    # title sources with no anchors enter with pseudo-count 1
    assert counts[("batman", 3)] == 1
    assert counts[("new york city", 2)] == 1
    assert counts[("nyc", 2)] == 1        # redirect title
    assert counts[("old gotham", 0)] == 1
    # the magazine's title folds into the existing "gotham" entry, which
    # already has anchors, so no pseudo-count is added anywhere
    assert not any(m.startswith("gotham_") for m, _ in counts)


def test_ingest_is_order_invariant(corpus, tmp_path):
    out1 = tmp_path / "o1"
    run_ingest(str(corpus / "pages.tsv"), str(corpus / "links.tsv"),
               str(corpus / "anchors.tsv"), str(out1))

    rng = random.Random(3)
    shuffled = tmp_path / "shuffled"
    shuffled.mkdir()
    for name in ("pages.tsv", "links.tsv", "anchors.tsv"):
        lines = read_lines(corpus / name)
        body = lines[1:]
        rng.shuffle(body)
        (shuffled / name).write_text("\n".join([lines[0]] + body) + "\n",
                                     encoding="utf-8")
    out2 = tmp_path / "o2"
    run_ingest(str(shuffled / "pages.tsv"), str(shuffled / "links.tsv"),
               str(shuffled / "anchors.tsv"), str(out2))
    for name in ("nodes.tsv", "edges.H.tsv", "edges.I.tsv", "edges.C.tsv",
                 "dict_counts.tsv", "ingest_report.json"):
        assert (out1 / name).read_bytes() == (out2 / name).read_bytes(), name

    # a link into an over-long chain is a cycle whether or not a link into
    # the chain's tail came first
    pages = [(p.page_id, p.title, p.kind, p.redirect_target or "")
             for p in chain_to_missing_pages().values()]
    chain = tmp_path / "chain"
    chain.mkdir()
    write_tsv(chain / "pages.tsv", "page_id\ttitle\tkind\tredirect_target", pages)
    write_tsv(chain / "anchors.tsv", "anchor_text\tdst_title\tcount", [])
    reports = []
    for order in (["R20", "R5"], ["R5", "R20"]):
        write_tsv(chain / "links.tsv", "src_title\tdst_title\tkind",
                  [("X", dst, "H") for dst in order])
        out = chain / f"out_{order[0]}"
        report = run_ingest(str(chain / "pages.tsv"), str(chain / "links.tsv"),
                            str(chain / "anchors.tsv"), str(out))
        assert report["tallies"]["links_dropped_redirect_cycle"] == 1
        assert report["tallies"]["links_dropped_unknown_title"] == 1
        reports.append((out / "ingest_report.json").read_bytes())
    assert reports[0] == reports[1]


def test_anchor_count_conservation_on_random_corpus(tmp_path):
    rng = random.Random(17)
    titles = [f"Art_{i}" for i in range(20)]
    pages = [(i, t, "article", "") for i, t in enumerate(titles)]
    pages.append((50, "Dis", "disambiguation", ""))
    pages.append((51, "Red", "redirect", "Art_0"))
    links = [("Dis", rng.choice(titles), "H") for _ in range(4)]
    anchors = []
    for i in range(60):
        target = rng.choice(titles + ["Dis", "Red", "Ghost"])
        anchors.append((f"m{rng.randrange(12)}", target, rng.randrange(1, 9)))
    write_tsv(tmp_path / "pages.tsv", "page_id\ttitle\tkind\tredirect_target", pages)
    write_tsv(tmp_path / "links.tsv", "src_title\tdst_title\tkind", links)
    write_tsv(tmp_path / "anchors.tsv", "anchor_text\tdst_title\tcount", anchors)
    report = run_ingest(str(tmp_path / "pages.tsv"), str(tmp_path / "links.tsv"),
                        str(tmp_path / "anchors.tsv"), str(tmp_path / "out"))
    t = report["tallies"]
    assert t["anchor_counts_in"] == sum(a[2] for a in anchors)
    assert report["anchor_count_conservation"] is True
    assert (t["anchor_counts_kept_pre_expansion"] + t["anchor_counts_dropped"]
            == t["anchor_counts_in"])


def test_empty_inputs_produce_valid_headers(tmp_path):
    write_tsv(tmp_path / "pages.tsv", "page_id\ttitle\tkind\tredirect_target", [])
    write_tsv(tmp_path / "links.tsv", "src_title\tdst_title\tkind", [])
    write_tsv(tmp_path / "anchors.tsv", "anchor_text\tdst_title\tcount", [])
    run_ingest(str(tmp_path / "pages.tsv"), str(tmp_path / "links.tsv"),
               str(tmp_path / "anchors.tsv"), str(tmp_path / "out"))
    for kind in "HIC":
        assert read_lines(tmp_path / "out" / f"edges.{kind}.tsv") == ["src_id\tdst_id"]
    assert read_lines(tmp_path / "out" / "dict_counts.tsv") == ["mention\tarticle_id\tcount"]


# --- validation ------------------------------------------------------------

def test_read_pages_validation(tmp_path):
    write_tsv(tmp_path / "p.tsv", "page_id\ttitle\tkind\tredirect_target",
              [(0, "A", "article", ""), (1, "R", "redirect", "")])
    with pytest.raises(DataError, match="redirect without target"):
        read_pages(str(tmp_path / "p.tsv"))

    write_tsv(tmp_path / "p.tsv", "page_id\ttitle\tkind\tredirect_target",
              [(0, "A", "article", ""), (1, "A", "article", "")])
    with pytest.raises(DataError, match="duplicate title"):
        read_pages(str(tmp_path / "p.tsv"))

    write_tsv(tmp_path / "p.tsv", "page_id\ttitle\tkind\tredirect_target",
              [("x", "A", "article", "")])
    with pytest.raises(DataError, match=r":2"):
        read_pages(str(tmp_path / "p.tsv"))


def test_read_pages_drops_control_characters(tmp_path):
    (tmp_path / "p.tsv").write_text(
        "page_id\ttitle\tkind\tredirect_target\n0\tBad\x01Title\tarticle\n1\tGood\tarticle\n",
        encoding="utf-8")
    tallies = Counter()
    pages = read_pages(str(tmp_path / "p.tsv"), tallies)
    assert list(pages) == ["Good"]
    assert tallies["pages_rejected_control_chars"] == 1


def test_iter_anchors_rejects_bad_counts(tmp_path):
    write_tsv(tmp_path / "a.tsv", "anchor_text\tdst_title\tcount", [("m", "T", 0)])
    with pytest.raises(DataError, match=r":2"):
        list(iter_anchors(str(tmp_path / "a.tsv")))


def test_redirect_map_statuses():
    pages = pages_of(ART(0, "A"), RED(1, "R", "A"), RED(2, "Bad", "Ghost"),
                     RED(3, "C1", "C2"), RED(4, "C2", "C1"))
    rmap = RedirectMap.of_pages(pages)
    assert rmap.resolve("A") == ("A", "ok")
    assert rmap.resolve("R") == ("A", "ok")
    assert rmap.resolve("Bad") == (None, "unknown")
    assert rmap.resolve("C1") == (None, "cycle")
    assert rmap.resolve("Ghost") == (None, "unknown")


def test_iter_links_rejects_unknown_kind(tmp_path):
    write_tsv(tmp_path / "l.tsv", "src_title\tdst_title\tkind",
              [("A", "B", "H"), ("A", "C", "X")])
    with pytest.raises(DataError, match=r"l\.tsv:3: bad link kind 'X'"):
        list(iter_links(str(tmp_path / "l.tsv")))


def set_based_edge_lists(pages, resolved_links, node_ids, out_dir, tallies):
    """The edge-file oracle: one set of (src, dst) id pairs per kind, each
    repeat tallied as it arrives, written in sorted order."""
    arcs = {k: set() for k in "HIC"}
    for rec in resolved_links:
        if not ingest._classify_link(rec, pages, tallies):
            continue
        pair = (node_ids[rec.src_title], node_ids[rec.dst_title])
        if pair in arcs[rec.kind]:
            tallies["links_duplicates_collapsed"] += 1
        else:
            arcs[rec.kind].add(pair)
    for kind in "HIC":
        with open(os.path.join(out_dir, f"edges.{kind}.tsv"), "w", encoding="utf-8") as fh:
            fh.write("src_id\tdst_id\n")
            for src, dst in sorted(arcs[kind]):
                fh.write(f"{src}\t{dst}\n")
        tallies[f"edges_{kind}"] = len(arcs[kind])


@st.composite
def link_corpora(draw):
    """Articles and categories under shuffled page ids, a disambiguation page
    and a redirect, and links among them (and one unknown title) drawn from a
    small pool, so that repeats within and across H, I and C are common;
    sometimes with every repeat removed."""
    titles = [f"Art_{i}" for i in range(draw(st.integers(1, 6)))]
    titles += [f"Cat_{i}" for i in range(draw(st.integers(0, 3)))]
    ids = draw(st.permutations(range(len(titles) + 2)))
    pages = [(ids[i], t, "article" if t.startswith("Art") else "category", "")
             for i, t in enumerate(titles)]
    pages += [(ids[-2], "Dis", "disambiguation", ""), (ids[-1], "Red", "redirect", "Art_0")]
    ends = st.sampled_from(titles + ["Dis", "Red", "Gone"])
    links = draw(st.lists(st.tuples(ends, ends, st.sampled_from("HIC")), max_size=60))
    if draw(st.booleans()):
        links = list(dict.fromkeys(links))
    return pages, links


@given(link_corpora())
@settings(max_examples=200, deadline=None)
def test_edge_files_and_report_equal_the_set_based_oracle(corpus):
    pages, links = corpus
    with tempfile.TemporaryDirectory() as tmp:
        write_tsv(f"{tmp}/pages.tsv", "page_id\ttitle\tkind\tredirect_target", pages)
        write_tsv(f"{tmp}/links.tsv", "src_title\tdst_title\tkind", links)
        write_tsv(f"{tmp}/anchors.tsv", "anchor_text\tdst_title\tcount", [])
        inputs = [f"{tmp}/{name}.tsv" for name in ("pages", "links", "anchors")]
        report = run_ingest(*inputs, f"{tmp}/out")
        with mock.patch.object(ingest, "emit_edge_lists", set_based_edge_lists):
            oracle = run_ingest(*inputs, f"{tmp}/oracle")
        assert report == oracle
        for name in ("edges.H.tsv", "edges.I.tsv", "edges.C.tsv", "ingest_report.json"):
            with open(f"{tmp}/out/{name}", "rb") as got, open(f"{tmp}/oracle/{name}", "rb") as want:
                assert got.read() == want.read(), name
    # no key at all, not a zero, when nothing repeats
    collapsed = report["tallies"].get("links_duplicates_collapsed")
    assert collapsed is None or collapsed > 0
