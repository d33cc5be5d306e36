"""Ingest pre-extracted page/link/anchor records into edge lists and counts.

Inputs are TSV files with a one-line header: ``pages.tsv`` (page_id, title,
kind, optional redirect_target), ``links.tsv`` (src_title, dst_title, kind)
and ``anchors.tsv`` (anchor_text, dst_title, count). Outputs are per-kind
edge files over dense node ids, a nodes table, aggregated dictionary counts
and a JSON report of everything that was dropped along the way.

Processing is single-pass per file and all aggregation is commutative, so
inputs may be sharded and the outputs merged.
"""

from __future__ import annotations

import json
import os
import re
from array import array
from collections import Counter
from dataclasses import dataclass
from typing import Iterable, Iterator

from .dictionary import normalize_mention
from .errors import DataError
from .graph import TypedGraph
from .tsv import read_tsv

PAGE_KINDS = ("article", "category", "redirect", "disambiguation")
LINK_KINDS = ("H", "I", "C")

REDIRECT_DEPTH_CAP = 16  # chains longer than this count as cycles

_CONTROL_RE = re.compile(r"[\x00-\x1f\x7f]")


@dataclass(frozen=True, slots=True)
class PageRecord:
    page_id: int
    title: str
    kind: str
    redirect_target: str | None = None


@dataclass(frozen=True, slots=True)
class RawLinkRecord:
    src_title: str
    dst_title: str
    kind: str


@dataclass(frozen=True, slots=True)
class AnchorRecord:
    anchor_text: str
    dst_title: str
    count: int


def read_pages(path: str, tallies: Counter | None = None) -> dict[str, PageRecord]:
    """Parse pages.tsv into a title-keyed map.

    Structural problems (bad ids, missing redirect targets, duplicates) are
    hard errors; pages outside the accepted namespaces and titles with
    embedded control characters are dropped and tallied.
    """
    tallies = tallies if tallies is not None else Counter()
    pages: dict[str, PageRecord] = {}
    seen_ids: set[int] = set()
    for lineno, cols in read_tsv(path, 3, 4):
        try:
            page_id = int(cols[0])
        except ValueError:
            raise DataError(f"{path}:{lineno}: bad page id {cols[0]!r}") from None
        title, kind = cols[1], cols[2]
        target = cols[3] if len(cols) == 4 and cols[3] != "" else None
        if page_id < 0 or not title:
            raise DataError(f"{path}:{lineno}: bad page record")
        if kind not in PAGE_KINDS:
            tallies["pages_dropped_namespace"] += 1
            continue
        if kind == "redirect" and target is None:
            raise DataError(f"{path}:{lineno}: redirect without target")
        if kind != "redirect" and target is not None:
            raise DataError(f"{path}:{lineno}: redirect_target on non-redirect")
        if _CONTROL_RE.search(title) or (target and _CONTROL_RE.search(target)):
            tallies["pages_rejected_control_chars"] += 1
            continue
        if title in pages:
            raise DataError(f"{path}:{lineno}: duplicate title {title!r}")
        if page_id in seen_ids:
            raise DataError(f"{path}:{lineno}: duplicate page id {page_id}")
        seen_ids.add(page_id)
        pages[title] = PageRecord(page_id, title, kind, target)
    return pages


def iter_links(path: str) -> Iterator[RawLinkRecord]:
    for lineno, cols in read_tsv(path, 3, 3):
        if cols[2] not in LINK_KINDS:
            raise DataError(f"{path}:{lineno}: bad link kind {cols[2]!r}")
        yield RawLinkRecord(cols[0], cols[1], cols[2])


def iter_anchors(path: str) -> Iterator[AnchorRecord]:
    for lineno, cols in read_tsv(path, 3, 3):
        try:
            count = int(cols[2])
        except ValueError:
            raise DataError(f"{path}:{lineno}: bad count {cols[2]!r}") from None
        if count < 1:
            raise DataError(f"{path}:{lineno}: anchor count must be >= 1")
        yield AnchorRecord(cols[0], cols[1], count)


class RedirectMap:
    """Every known title's redirect chain, followed once to its end.

    ``targets`` maps every known title to its redirect target, or to None
    when the title is not a redirect. ``resolve`` returns (final_title,
    status) where status is "ok", "unknown" (the title, or a hop from it
    within the cap, is not a known title) or "cycle" (a loop, or more than
    REDIRECT_DEPTH_CAP hops from the queried title). The table of results
    is built in the constructor, so a result depends only on the title.
    """

    def __init__(self, targets: dict[str, str | None]):
        self._table = {title: _follow(targets, title) for title in targets}

    @classmethod
    def of_pages(cls, pages: dict[str, PageRecord]) -> "RedirectMap":
        return cls({title: page.redirect_target for title, page in pages.items()})

    def resolve(self, title: str) -> tuple[str | None, str]:
        return self._table.get(title, (None, "unknown"))


def _follow(targets: dict[str, str | None], title: str) -> tuple[str | None, str]:
    """One known title's chain; a loop or an over-long chain is a cycle even
    when it would later leave the known titles."""
    chain = [title]
    while (nxt := targets[chain[-1]]) is not None:
        if nxt in chain or len(chain) > REDIRECT_DEPTH_CAP:
            return None, "cycle"
        if nxt not in targets:
            return None, "unknown"
        chain.append(nxt)
    return chain[-1], "ok"


def resolve_redirects(rmap: RedirectMap, links: Iterable[RawLinkRecord],
                      tallies: Counter) -> Iterator[RawLinkRecord]:
    """Rewrite link endpoints through redirect chains.

    Emitted records hold the redirect table's titles, shared by every link,
    not the line's own copies, and never a redirect-kind endpoint. Records
    through a cycle or an unknown title are dropped and tallied, as are
    self-loops produced by the resolution.
    """
    for rec in links:
        src, src_status = rmap.resolve(rec.src_title)
        dst, dst_status = rmap.resolve(rec.dst_title)
        if "cycle" in (src_status, dst_status):
            tallies["links_dropped_redirect_cycle"] += 1
            continue
        if src is None or dst is None:
            tallies["links_dropped_unknown_title"] += 1
            continue
        if src == dst:
            tallies["links_dropped_self_loop"] += 1
            continue
        yield RawLinkRecord(src, dst, rec.kind)


def disambiguation_targets(pages: dict[str, PageRecord],
                           resolved_links: Iterable[RawLinkRecord]) -> dict[str, list[str]]:
    """Outgoing article targets per disambiguation page, from resolved H links."""
    targets: dict[str, set[str]] = {}
    for rec in resolved_links:
        if rec.kind != "H":
            continue
        src = pages.get(rec.src_title)
        dst = pages.get(rec.dst_title)
        if src and dst and src.kind == "disambiguation" and dst.kind == "article":
            targets.setdefault(rec.src_title, set()).add(rec.dst_title)
    return {title: sorted(arts) for title, arts in targets.items()}


def expand_disambiguation_anchors(pages: dict[str, PageRecord],
                                  anchors: Iterable[AnchorRecord],
                                  dmap: dict[str, list[str]],
                                  tallies: Counter) -> Iterator[AnchorRecord]:
    """Fan anchors pointing at a disambiguation page out to its articles.

    Each replacement record carries the original count. Anchors to ordinary
    pages pass through; a disambiguation page without outgoing article links
    drops the anchor. ``dmap`` is the map from disambiguation_targets().
    """
    for rec in anchors:
        page = pages.get(rec.dst_title)
        if page is not None and page.kind == "disambiguation":
            articles = dmap.get(rec.dst_title, [])
            if not articles:
                tallies["anchors_dropped_empty_expansion"] += 1
                tallies["anchor_counts_dropped_empty_expansion"] += rec.count
                continue
            for art in articles:
                yield AnchorRecord(rec.anchor_text, art, rec.count)
        else:
            yield rec


def _classify_link(rec: RawLinkRecord, pages: dict[str, PageRecord],
                   tallies: Counter) -> bool:
    """Keep only links whose endpoint kinds match the edge kind."""
    src_kind = pages[rec.src_title].kind
    dst_kind = pages[rec.dst_title].kind
    if "disambiguation" in (src_kind, dst_kind):
        tallies["links_dropped_disambiguation_endpoint"] += 1
        return False
    if rec.kind in ("H", "I"):
        ok = src_kind == "article" and dst_kind == "article"
    else:  # C ends at a category
        ok = dst_kind == "category" and src_kind in ("article", "category")
    if not ok:
        tallies["links_dropped_kind_mismatch"] += 1
    return ok


def emit_edge_lists(pages: dict[str, PageRecord],
                    resolved_links: Iterable[RawLinkRecord],
                    node_ids: dict[str, int], out_dir: str,
                    tallies: Counter) -> None:
    """Write per-kind edge files over dense node ids, sorted and deduplicated by from_arcs."""
    arcs = {k: (array("q"), array("q")) for k in LINK_KINDS}
    for rec in resolved_links:
        if _classify_link(rec, pages, tallies):
            src, dst = arcs[rec.kind]
            src.append(node_ids[rec.src_title])
            dst.append(node_ids[rec.dst_title])
    for kind, (src, dst) in arcs.items():
        g = TypedGraph.from_arcs(len(node_ids), src, dst)
        if len(src) > g.n_arcs:
            tallies["links_duplicates_collapsed"] += len(src) - g.n_arcs
        with open(os.path.join(out_dir, f"edges.{kind}.tsv"), "w", encoding="utf-8") as fh:
            fh.write("src_id\tdst_id\n")
            for u in g.out_degrees().nonzero()[0].tolist():
                fh.writelines(f"{u}\t{v}\n" for v in g.neighbors_of(u).tolist())
        tallies[f"edges_{kind}"] = g.n_arcs


def emit_anchor_counts(pages: dict[str, PageRecord], rmap: RedirectMap,
                       anchors: Iterable[AnchorRecord], dmap: dict[str, list[str]],
                       node_ids: dict[str, int], out_path: str, tallies: Counter,
                       title_pseudo_count: int = 1) -> None:
    """Aggregate anchors into (normalized mention, article id) counts.

    Anchor targets are redirect-resolved first, disambiguation targets are
    expanded, and counts are summed per pair. Titles and redirects that never
    occur as anchors for their page enter with a configurable pseudo-count.
    Count conservation is tracked pre-expansion via the tallies.
    """
    pre: dict[tuple[str, str], int] = {}
    for rec in anchors:
        tallies["anchor_counts_in"] += rec.count
        tallies["anchors_read"] += 1
        dst, status = rmap.resolve(rec.dst_title)
        if dst is None:
            key = ("anchors_dropped_redirect_cycle" if status == "cycle"
                   else "anchors_dropped_unknown_title")
            tallies[key] += 1
            tallies["anchor_counts_dropped"] += rec.count
            continue
        if pages[dst].kind == "category":
            tallies["anchors_dropped_category_target"] += 1
            tallies["anchor_counts_dropped"] += rec.count
            continue
        mention = normalize_mention(rec.anchor_text)
        if not mention:
            tallies["anchors_dropped_empty_mention"] += 1
            tallies["anchor_counts_dropped"] += rec.count
            continue
        pre[(mention, dst)] = pre.get((mention, dst), 0) + rec.count
        tallies["anchor_counts_kept_pre_expansion"] += rec.count

    # titles and redirects as dictionary sources, only where no anchor exists
    pseudo: dict[tuple[str, str], int] = {}
    for title in pages:
        final, _ = rmap.resolve(title)
        if final is None or pages[final].kind == "category":
            continue
        # underscores in titles are word separators
        mention = normalize_mention(title.replace("_", " "))
        if mention and (mention, final) not in pre:
            key = (mention, final)
            if key not in pseudo:
                pseudo[key] = title_pseudo_count
                tallies["dict_pseudo_count_entries"] += 1

    records = (AnchorRecord(mention, title, count)
               for (mention, title), count in (pre | pseudo).items())
    agg: dict[tuple[str, int], int] = {}
    for rec in expand_disambiguation_anchors(pages, records, dmap, tallies):
        key = (rec.anchor_text, node_ids[rec.dst_title])
        agg[key] = agg.get(key, 0) + rec.count

    with open(out_path, "w", encoding="utf-8") as fh:
        fh.write("mention\tarticle_id\tcount\n")
        for (mention, article), count in sorted(agg.items()):
            fh.write(f"{mention}\t{article}\t{count}\n")
    tallies["dict_pairs"] = len(agg)


def run_ingest(pages_path: str, links_path: str, anchors_path: str,
               out_dir: str, title_pseudo_count: int = 1) -> dict:
    """Full ingest pass; writes all outputs and returns the report dict."""
    os.makedirs(out_dir, exist_ok=True)
    tallies: Counter = Counter()

    pages = read_pages(pages_path, tallies)
    for page in pages.values():
        tallies[f"pages_{page.kind}"] += 1
    rmap = RedirectMap.of_pages(pages)

    resolved = list(resolve_redirects(rmap, iter_links(links_path), tallies))
    tallies["links_resolved"] = len(resolved)
    dmap = disambiguation_targets(pages, resolved)

    # dense node ids over articles and categories, ordered by page id
    node_pages = sorted((p for p in pages.values() if p.kind in ("article", "category")),
                        key=lambda p: p.page_id)
    node_ids = {p.title: i for i, p in enumerate(node_pages)}
    with open(os.path.join(out_dir, "nodes.tsv"), "w", encoding="utf-8") as fh:
        fh.write("id\ttitle\tkind\n")
        for i, page in enumerate(node_pages):
            fh.write(f"{i}\t{page.title}\t{page.kind}\n")

    emit_edge_lists(pages, resolved, node_ids, out_dir, tallies)
    emit_anchor_counts(pages, rmap, iter_anchors(anchors_path), dmap, node_ids,
                       os.path.join(out_dir, "dict_counts.tsv"), tallies,
                       title_pseudo_count)

    report = {
        "nodes": len(node_pages),
        "tallies": dict(sorted(tallies.items())),
        "anchor_count_conservation": (
            tallies["anchor_counts_in"]
            == tallies["anchor_counts_kept_pre_expansion"] + tallies["anchor_counts_dropped"]),
        "title_pseudo_count": title_pseudo_count,
    }
    with open(os.path.join(out_dir, "ingest_report.json"), "w", encoding="utf-8") as fh:
        json.dump(report, fh, indent=2, sort_keys=True)
        fh.write("\n")
    return report
