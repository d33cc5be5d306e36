"""Seeded synthetic inputs for the benchmark workloads.

Every generator takes a ``numpy.random.Generator`` and writes plain files;
the program under test only ever sees those files (and, for the walk
workloads, arc arrays passed to ``TypedGraph.from_arcs``). Nothing here
imports graphwalk, so input generation cannot depend on the code it measures.
"""

from __future__ import annotations

import os

import numpy as np


def write_lines(path: str, header: str, lines) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(header + "\n")
        fh.writelines(line + "\n" for line in lines)


# ---------------------------------------------------------------------------
# pipeline: page / link / anchor record files

def pipeline_records(rng: np.random.Generator, out_dir: str, n_pages: int,
                     links_per_page: float = 14.0,
                     anchors_per_page: float = 0.8) -> dict:
    """Write pages.tsv, links.tsv and anchors.tsv; return record counts.

    Page mix: 80% articles, 10% categories, 8% redirects, 2% disambiguation
    pages, plus a few pages of a foreign kind and titles with control
    characters. Redirects include short chains, one two-page cycle and one
    chain longer than ingest's 16-hop cap. About a third of hyperlinks are
    reciprocated. A small fixed share of links and anchors hit each of
    ingest's drop paths (unknown titles, cycles, self-loops, kind
    mismatches, disambiguation endpoints, duplicates, empty mentions,
    category targets, empty disambiguation expansions).
    """
    n_art = int(0.80 * n_pages)
    n_cat = int(0.10 * n_pages)
    n_red = max(40, int(0.08 * n_pages))
    n_dis = max(6, int(0.02 * n_pages))
    arts = [f"Article_{i:06d}" for i in range(n_art)]
    cats = [f"Category:Topic_{i:05d}" for i in range(n_cat)]
    dis = [f"Name_{i:05d}_(disambiguation)" for i in range(n_dis)]
    reds = [f"Redirect_{i:06d}" for i in range(n_red)]
    foreign = [f"Template:Box_{i}" for i in range(5)]
    bad = [f"Bad\x07Title_{i}" for i in range(2)]

    # redirect targets: 0<->1 is a cycle, 2..20 is a 19-hop chain (over the
    # cap), then short chains, article targets, a few categories and unknowns
    targets: list[str] = [reds[1], reds[0]]
    targets += [reds[i + 1] for i in range(2, 20)] + [arts[0]]
    for i in range(21, n_red):
        r = i % 25
        if r == 0:
            targets.append(f"Missing_target_{i}")
        elif r == 1:
            targets.append(cats[int(rng.integers(n_cat))])
        elif r < 6:
            targets.append(reds[i - 1])          # chain through the previous redirect
        else:
            targets.append(arts[int(rng.integers(n_art))])

    titles = arts + cats + reds + dis + foreign + bad
    kinds = (["article"] * n_art + ["category"] * n_cat + ["redirect"] * n_red
             + ["disambiguation"] * n_dis + ["template"] * len(foreign)
             + ["article"] * len(bad))
    redirect_of = dict(zip(reds, targets))
    ids = rng.permutation(len(titles)) + 1
    write_lines(os.path.join(out_dir, "pages.tsv"), "page_id\ttitle\tkind\tredirect_target",
                (f"{pid}\t{t}\t{k}\t{redirect_of.get(t, '')}"
                 for pid, t, k in zip(ids.tolist(), titles, kinds)))

    # links
    n_links = int(links_per_page * n_pages)
    n_special = max(3, n_links // 1000)
    n_c = n_art + n_cat
    n_i = n_links // 20
    n_h_base = (n_links - n_c - n_i - 10 * n_special) * 3 // 4
    src = rng.integers(0, n_art, size=n_h_base)
    dst = (rng.random(n_h_base) ** 2 * n_art).astype(np.int64)
    ok = src != dst
    src, dst = src[ok], dst[ok]
    back = rng.random(src.size) < 1.0 / 3.0
    links = [f"{arts[s]}\t{arts[d]}\tH" for s, d in zip(src.tolist(), dst.tolist())]
    links += [f"{arts[d]}\t{arts[s]}\tH" for s, d in zip(src[back].tolist(), dst[back].tolist())]
    i_src = rng.integers(0, n_art, size=n_i).tolist()
    i_dst = rng.integers(0, n_art, size=n_i).tolist()
    links += [f"{arts[s]}\t{arts[d]}\tI" for s, d in zip(i_src, i_dst) if s != d]
    art_cat = rng.integers(0, n_cat, size=n_art).tolist()
    links += [f"{a}\t{cats[c]}\tC" for a, c in zip(arts, art_cat)]
    cat_parent = rng.integers(0, n_cat, size=n_cat).tolist()
    links += [f"{c}\t{cats[p]}\tC" for c, p in zip(cats, cat_parent) if cats[p] != c]

    def pick(seq, k):
        return [seq[j] for j in rng.integers(0, len(seq), size=k).tolist()]

    art_reds = [r for r in reds[21:] if redirect_of[r].startswith("Article_")]
    special = []
    special += [f"{a}\t{r}\tH" for a, r in zip(pick(arts, n_special), pick(art_reds, n_special))]
    special += [f"{redirect_of[r]}\t{r}\tH" for r in pick(art_reds, n_special)]     # self-loop after resolution
    special += [f"{a}\tMissing_page_{j}\tH" for j, a in enumerate(pick(arts, n_special))]
    special += [f"{a}\t{reds[j % 3]}\tH" for j, a in enumerate(pick(arts, n_special))]  # cycle / over cap
    special += [f"{a}\t{a}\tH" for a in pick(arts, n_special)]
    special += [f"{a}\t{c}\tH" for a, c in zip(pick(arts, n_special), pick(cats, n_special))]
    special += [f"{c}\t{a}\tC" for a, c in zip(pick(arts, n_special), pick(cats, n_special))]
    special += [f"{a}\t{d}\tH" for a, d in zip(pick(arts, n_special), pick(dis, n_special))]
    for d in dis[:-2]:   # the last two disambiguation pages link nowhere
        special += [f"{d}\t{a}\tH" for a in pick(arts, int(rng.integers(2, 5)))]
    links += special
    links += pick(links, n_special)   # exact duplicates
    order = rng.permutation(len(links))
    write_lines(os.path.join(out_dir, "links.tsv"), "src_title\tdst_title\tkind",
                (links[j] for j in order.tolist()))

    # anchors: a shared vocabulary, so mentions get several candidates
    n_anchors = int(anchors_per_page * n_pages)
    vocab = max(10, n_anchors // 3)
    texts = [f"Term {j:05d}" for j in rng.integers(0, vocab, size=n_anchors).tolist()]
    dst_art = (rng.random(n_anchors) ** 2 * n_art).astype(np.int64).tolist()
    dsts = [arts[j] for j in dst_art]
    roll = rng.random(n_anchors)
    for j in np.flatnonzero(roll < 0.05).tolist():
        dsts[j] = art_reds[j % len(art_reds)]
    for j in np.flatnonzero((roll >= 0.05) & (roll < 0.08)).tolist():
        dsts[j] = dis[j % (n_dis - 2)]
    counts = (1 + rng.geometric(0.3, size=n_anchors)).tolist()
    anchors = [f"{t}\t{d}\t{c}" for t, d, c in zip(texts, dsts, counts)]
    anchors += [f"Lost {j}\tMissing_page_{j}\t2" for j in range(n_special)]
    anchors += [f"Loop {j}\t{reds[j % 3]}\t3" for j in range(n_special)]
    anchors += [f"Topic {j}\t{c}\t1" for j, c in enumerate(pick(cats, n_special))]
    anchors += [f"(misc {j})\t{a}\t1" for j, a in enumerate(pick(arts, n_special))]
    anchors += [f"Empty {j}\t{dis[-1 - j % 2]}\t4" for j in range(n_special)]
    order = rng.permutation(len(anchors))
    write_lines(os.path.join(out_dir, "anchors.tsv"), "anchor_text\tdst_title\tcount",
                (anchors[j] for j in order.tolist()))
    return {"pages": len(titles), "links": len(links), "anchors": len(anchors)}


# ---------------------------------------------------------------------------
# walk graphs: the acceptance-suite c10 generator plus planted topics

def c10_arcs(rng: np.random.Generator, n: int, arcs_per_node: float = 10.6):
    """Uniform sources, heavy-tailed targets (x**3), no self-loops."""
    m = int(n * arcs_per_node)
    src = rng.integers(0, n, size=m, dtype=np.int64)
    dst = (rng.random(m) ** 3 * n).astype(np.int64)
    keep = src != dst
    return src[keep], dst[keep]


def planted_topics(rng: np.random.Generator, n: int, n_topics: int, size: int,
                   intra: int = 6, adjacent: int = 1):
    """Disjoint topic node sets on a ring, with reciprocated arcs inside each
    topic and to the next topic. Returns (topics[n_topics, size], src, dst)."""
    topics = rng.choice(n, size=n_topics * size, replace=False).reshape(n_topics, size)
    srcs, dsts = [], []
    for t in range(n_topics):
        members, nxt = topics[t], topics[(t + 1) % n_topics]
        for fanout, pool in ((intra, members), (adjacent, nxt)):
            s = np.repeat(members, fanout)
            d = rng.choice(pool, size=s.size)
            srcs += [s, d]
            dsts += [d, s]
    src = np.concatenate(srcs).astype(np.int64)
    dst = np.concatenate(dsts).astype(np.int64)
    keep = src != dst
    return topics, src[keep], dst[keep]


def node_title(i: int) -> str:
    return f"N{i:07d}"


def write_nodes(path: str, n: int) -> None:
    write_lines(path, "id\ttitle\tkind", (f"{i}\t{node_title(i)}\tarticle" for i in range(n)))


def filler_counts(rng: np.random.Generator, n: int, n_mentions: int,
                  prefix: str) -> dict[str, dict[int, int]]:
    """Dictionary filler: 1- to 3-token mentions with heavy-tailed candidate
    counts (Zipf) and anchor counts (geometric)."""
    counts: dict[str, dict[int, int]] = {}
    n_tok = rng.choice([1, 2, 3], size=n_mentions, p=[0.6, 0.3, 0.1])
    n_cand = np.minimum(rng.zipf(2.3, size=n_mentions), 60)
    words = rng.integers(0, 4 * n_mentions, size=(n_mentions, 3))
    arts = rng.integers(0, n, size=int(n_cand.sum()))
    cnts = rng.geometric(0.2, size=arts.size)
    pos = 0
    for j in range(n_mentions):
        mention = " ".join(f"{prefix}{w:06d}" for w in words[j, :n_tok[j]].tolist())
        slot = counts.setdefault(mention, {})
        for a, c in zip(arts[pos:pos + n_cand[j]].tolist(), cnts[pos:pos + n_cand[j]].tolist()):
            slot[a] = slot.get(a, 0) + c
        pos += n_cand[j]
    return counts


# ---------------------------------------------------------------------------
# relatedness pairs

def rel_inputs(rng: np.random.Generator, n: int, topics: np.ndarray, n_pairs: int,
               repetition: float = 1.6, unknown_share: float = 0.03):
    """Term dictionary counts and scored pairs with planted gold.

    Each term has a main sense inside its topic and, for every other term, a
    weaker second sense anywhere in the graph. Gold is 1 for two terms of the
    same topic, 0.5 for adjacent topics on the ring and 0 otherwise. Each
    term appears in about ``repetition`` pairs; about ``unknown_share`` of
    pairs carry a term that is not in the dictionary.
    Returns (counts, pairs, unknown_pair_indices).
    """
    n_topics, size = topics.shape
    n_terms = max(4, round(2 * n_pairs / repetition))
    term_topic = np.arange(n_terms) % n_topics
    terms = [f"term{j:05d}" for j in range(n_terms)]
    counts: dict[str, dict[int, int]] = {}
    for j, t in enumerate(term_topic.tolist()):
        main = int(topics[t, rng.integers(size)])
        slot = {main: int(rng.integers(8, 30))}
        if j % 2 == 0:
            other = int(rng.integers(n))
            slot[other] = slot.get(other, 0) + int(rng.integers(1, 6))
        counts[terms[j]] = slot

    used = np.zeros(n_terms)
    seen = set()
    pairs = []
    for p in range(n_pairs):
        rel = p % 3                                   # same, adjacent, far
        a = int(np.argmin(used + rng.random(n_terms) * 0.5))
        ta = term_topic[a]
        dist = np.minimum((term_topic - ta) % n_topics, (ta - term_topic) % n_topics)
        want = {0: dist == 0, 1: dist == 1, 2: dist >= 2}[rel]
        want[a] = False
        for b0, b1 in seen:
            if b0 == a:
                want[b1] = False
            if b1 == a:
                want[b0] = False
        if not want.any():
            want = np.ones(n_terms, dtype=bool)
            want[a] = False
        cand = np.flatnonzero(want)
        b = int(cand[np.argmin(used[cand] + rng.random(cand.size) * 0.5)])
        used[a] += 1
        used[b] += 1
        seen.add((a, b))
        d = min((term_topic[a] - term_topic[b]) % n_topics, (term_topic[b] - term_topic[a]) % n_topics)
        gold = 1.0 if d == 0 else 0.5 if d == 1 else 0.0
        pairs.append([terms[a], terms[b], gold])
    n_unknown = max(1, round(unknown_share * n_pairs))
    unknown = sorted(rng.choice(n_pairs, size=n_unknown, replace=False).tolist())
    for k, p in enumerate(unknown):
        pairs[p][1 if k % 2 else 0] = f"unknown{k:03d}"
    return counts, [tuple(p) for p in pairs], unknown


# ---------------------------------------------------------------------------
# NED documents and queries

def ned_inputs(rng: np.random.Generator, n: int, topics: np.ndarray, out_dir: str,
               n_docs: int, queries_per_doc: int, doc_tokens: int):
    """Ambiguous query mentions in topical documents, with planted gold.

    Each document is about one topic. Its query mentions are two-token
    mentions whose gold sense is a node of that topic; their distractor
    senses lie elsewhere and often carry the higher prior, so
    most-frequent-sense is wrong on a share of queries. Context is made of
    monosemous mentions of topic nodes, polysemous mentions and non-dictionary
    filler words. Document 0 also carries one query for each fallback of the
    candidate cascade (leading "the", dropped middle token) and one NIL query;
    one more query sits in a document with no other mention.
    Returns the dictionary counts; writes queries.tsv and doc files.
    """
    n_topics, size = topics.shape
    counts: dict[str, dict[int, int]] = {}
    for t in range(n_topics):
        for v in topics[t].tolist():
            counts[f"m{v:07d}"] = {v: int(rng.integers(1, 20))}
    rows = []
    q = 0
    for d in range(n_docs):
        topic = topics[d % n_topics]
        segments: list[tuple[list[str], int | None]] = []   # (tokens, query index)
        for k in range(queries_per_doc):
            gold = int(topic[rng.integers(size)])
            slot = {gold: int(rng.integers(5, 30))}
            for a in rng.integers(0, n, size=1 + k % 3).tolist():
                slot[a] = slot.get(a, 0) + int(rng.integers(1, 20))
            mention = [f"a{q:05d}", f"b{q:05d}"]
            counts[" ".join(mention)] = slot
            if d == 0 and k == 0:
                tokens = ["the"] + mention
            elif d == 0 and k == 1:
                tokens = [mention[0], "x", mention[1]]
            else:
                tokens = list(mention)
            segments.append((tokens, q))
            rows.append([f"q{q:05d}", " ".join(tokens), f"doc{d}.txt", None, node_title(gold)])
            q += 1
        if d == 0:
            segments.append((["nil00000"], q))
            rows.append([f"q{q:05d}", "nil00000", "doc0.txt", None, ""])
            q += 1
        n_mono = doc_tokens // 12
        for v in rng.choice(topic, size=n_mono).tolist():
            segments.append(([f"m{v:07d}"], None))
        for k in range(doc_tokens // 40):
            mention = f"p{d:02d}{k:04d}"
            slot = {int(topic[rng.integers(size)]): 5}
            slot[int(rng.integers(n))] = int(rng.integers(1, 8))
            counts[mention] = slot
            segments.append(([mention], None))
        used = sum(len(s[0]) for s in segments)
        segments += [([f"f{w:05d}"], None) for w in rng.integers(0, 99999, size=max(0, doc_tokens - used)).tolist()]
        order = rng.permutation(len(segments)).tolist()
        tokens, offset = [], 0
        for j in order:
            toks, qi = segments[j]
            if qi is not None:
                rows[qi][3] = offset
            for tok in toks:
                tokens.append(tok)
                offset += len(tok) + 1
        with open(os.path.join(out_dir, f"doc{d}.txt"), "w", encoding="utf-8") as fh:
            fh.write(" ".join(tokens) + "\n")
    # a query whose document holds no other mention takes the prior fallback
    filler = [f"f{w:05d}" for w in rng.integers(0, 99999, size=40).tolist()]
    with open(os.path.join(out_dir, "bare.txt"), "w", encoding="utf-8") as fh:
        fh.write(" ".join(filler[:20] + ["a00002", "b00002"] + filler[20:]) + "\n")
    rows.append([f"q{q:05d}", "a00002 b00002", "bare.txt", sum(len(f) + 1 for f in filler[:20]),
                 rows[2][4]])
    write_lines(os.path.join(out_dir, "queries.tsv"),
                "query_id\tmention\tcontext_file\tchar_offset\tgold_title",
                ("\t".join(str(c) for c in row) for row in rows))
    return counts
