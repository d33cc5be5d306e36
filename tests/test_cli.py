from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import shutil
import sqlite3
import struct
import subprocess
import sys
import tempfile
from contextlib import closing

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from graphwalk import evaluation as eval_mod
from graphwalk import graph as graph_mod
from graphwalk import relatedness as rel_mod
from graphwalk.cli import main
from graphwalk.dictionary import Candidate, DictEntry, Dictionary, SqliteDictionary
from graphwalk.errors import DataError
from graphwalk.ned import CachedHttpResolver

from conftest import LIONS_SENTENCE, MUTATIONS, table_bytes, write_lions_corpus, write_tsv


@pytest.fixture(scope="module")
def workspace(tmp_path_factory):
    """Ingested + built data directory over the hand-crafted corpus."""
    root = tmp_path_factory.mktemp("ws")
    files = write_lions_corpus(root)
    ingest_dir = root / "ingested"
    assert main(["ingest", "--pages", str(files["pages"]),
                 "--links", str(files["links"]),
                 "--anchors", str(files["anchors"]),
                 "--out", str(ingest_dir)]) == 0
    data_dir = root / "data"
    assert main(["build", "--ingest-dir", str(ingest_dir),
                 "--out", str(data_dir), "--specs", "Hr,Hu",
                 "--sqlite-dict"]) == 0

    ctx = root / "doc.txt"
    ctx.write_text(LIONS_SENTENCE, encoding="utf-8")
    queries = root / "queries.tsv"
    rows = ["query_id\tmention\tcontext_file\tchar_offset\tgold_title"]
    for i in range(8):
        rows.append(f"q{i}\tLions\tdoc.txt\t\tHighveld_Lions")
    rows.append("q8\tCape Town\tdoc.txt\t\tCape_Town")
    rows.append("q9\tZzqx Unknown\tdoc.txt\t\tNIL")
    queries.write_text("\n".join(rows) + "\n", encoding="utf-8")

    pairs = root / "pairs.tsv"
    write_tsv(pairs, "term1\tterm2\tgold", [
        ("alan kourie", "lions", 3.0),
        ("cape town", "lions", 2.0),
        ("fletcher", "cape town", 1.5),
        ("alan kourie", "cape town", 0.5),
    ])
    return {"root": root, "ingest": ingest_dir, "data": data_dir,
            "queries": queries, "pairs": pairs}


def test_build_is_deterministic(workspace, tmp_path):
    other = tmp_path / "data2"
    assert main(["build", "--ingest-dir", str(workspace["ingest"]),
                 "--out", str(other), "--specs", "Hr,Hu", "--sqlite-dict"]) == 0
    for name in ("graph.Hr.gwkb", "graph.Hu.gwkb", "dict.gwdict", "nodes.tsv"):
        assert (workspace["data"] / name).read_bytes() == (other / name).read_bytes()


# sha256 of the files `build` writes for the workspace, of the predictions
# of `rel` and of `ned --workers 1` for each system, and of the reports of
# those runs, of one rel sweep cell, of `eval` for each task, of `eval --task
# ned --redirects` and of a pooled two-dataset `eval` for each task (build
# files and ppr predictions recorded at commit 4e9fd21, the last three
# reports at 4f5da0a, the rest at c7c1170). A
# change meant to keep outputs byte-identical must reproduce them; one that
# alters an output on purpose records its new digest here
GOLDEN_DIGESTS = {
    "nodes.tsv": "63dc0917f9d1b4691acf02ccfc9d73ecb61d3adc167831c13ef6a17737180cbd",
    "graph.Hr.gwkb": "f8b1ca5e1cf84eb416b276301ef22b359c04d0622c12bc749301cae15481348a",
    "graph.Hu.gwkb": "3fae06203fb6cea1a4467cf8664c9612177c81980f9edfb83c9da0b967b8776e",
    "dict.gwdict": "445ee290caf71820ec1cd28edd2109aa8747e403bcbd498d8f9ca47a071438e8",
    "dict.sqlite rows": "4c838780022b27630eb1d2fa1dc47a977901f7f1a1edaa8f67b996dacd35a2eb",
    "rel.tsv": "eb0e44d89a706e221213905520c842a1d1a764ab47f976232ab9ed6d10b163c1",
    "ned.tsv": "0e46491b0a173a00bbee142757f714ec0f18b5e35aff2d78977405917d66ba2f",
    "ned.ngd.tsv": "057eeeb140dd98132e072763d543f0b7ad62e219e97fbc18cca5507c4e3346b5",
    "ned.mfs.tsv": "d44ce4aa5b6238ea602f0577b5c229fb65803ef6469b6189042f5059aa564ba6",
    "rel.json": "e0f5edbfb4f77c728431069005dd3e2c770cc3418c22cf4417271c6b32d573ca",
    "ned.json": "cb1ab4fe026cca3090edc4be0344ebfa8137989ee9ed4c34e3e6d9f8fff75908",
    "ned.ngd.json": "27d6dcd3682d20aa660d515fe32e970b67471e100fc43b62a1ed1b776a524992",
    "ned.mfs.json": "5ea983e4fd32f983ee2bfbcaf09d50ff1aa336572f181897ca3e671b6c06f8a7",
    "sweep/Hr_a0.85_i30_k5000_P.json":
        "c581b8ebfdef6ac36f78650a4ac5afe09b52d779f2aa1aeb538f56d5a518a445",
    "sweep/summary.csv": "322e02dbaf234dbbb2e71e19a4ef19266faebcbdb11a12db061d5cdbbeaf53e8",
    "eval.rel.json": "0918221c560eebf6cdc3bdb7fa16d9086bb3921d563b64b1686e9e0a3e05ab94",
    "eval.ned.json": "7b7eb00f40039781fad5c85377cd68572941c26371926724dac8b6c9c9f5bb68",
    "eval.ned.redirects.json":
        "e01ca1553036dd08e40c836919f0769092868765bedcade8b0279eccb7250afb",
    "eval.rel.pooled.json":
        "5bb6167d0f7838dff59fd26b64b7c3de783e673bc351d20fbadd9ebb0a6f433b",
    "eval.ned.pooled.json":
        "df5dee34a0bfeeabe0c08b2e35ca60249aedcfe279adf180f6ef42bdc74d5ee4",
}

# every run reads the workspace through relative paths, from a copy of it,
# so that no tmp path enters the reports (they record dataset, data and
# baseline paths)
DIGEST_RUNS = [
    ["rel", "--data", "data", "--pairs", "pairs.tsv", "--system", "ngd",
     "--out", "rel.ngd.tsv"],
    ["rel", "--data", "data", "--pairs", "pairs.tsv", "--out", "rel.tsv",
     "--report", "rel.json", "--baseline", "rel.ngd.tsv", "--workers", "1"],
    *(["ned", "--data", "data", "--queries", "queries.tsv", "--system", system,
       "--out", name + ".tsv", "--report", name + ".json", "--workers", "1"]
      for system, name in (("ppr", "ned"), ("ngd", "ned.ngd"), ("mfs", "ned.mfs"))),
    ["sweep", "--data", "data", "--task", "rel", "--dataset", "pairs.tsv",
     "--out", "sweep", "--workers", "1"],
    ["eval", "--task", "rel", "--dataset", "pairs.tsv", "--preds", "rel.tsv",
     "--baseline", "rel.ngd.tsv", "--report", "eval.rel.json"],
    ["eval", "--task", "ned", "--dataset", "queries.tsv", "--preds", "ned.tsv",
     "--baseline", "ned.mfs.tsv", "--report", "eval.ned.json"],
    ["eval", "--task", "ned", "--dataset", "queries.tsv", "--preds", "ned.tsv",
     "--redirects", "redirects.tsv", "--baseline", "ned.mfs.tsv",
     "--report", "eval.ned.redirects.json"],
    # each task's dataset in two halves, run apart and evaluated pooled
    *(["rel", "--data", "data", "--pairs", f"pairs.{half}.tsv", "--out", f"rel.{half}.tsv",
       "--workers", "1"] for half in "ab"),
    *(["ned", "--data", "data", "--queries", f"queries.{half}.tsv",
       "--out", f"ned.{half}.tsv", "--workers", "1"] for half in "ab"),
    ["eval", "--task", "rel", "--dataset", "pairs.a.tsv", "--dataset", "pairs.b.tsv",
     "--preds", "rel.a.tsv", "--preds", "rel.b.tsv", "--baseline", "rel.ngd.tsv",
     "--report", "eval.rel.pooled.json"],
    ["eval", "--task", "ned", "--dataset", "queries.a.tsv", "--dataset", "queries.b.tsv",
     "--preds", "ned.a.tsv", "--preds", "ned.b.tsv", "--baseline", "ned.mfs.tsv",
     "--report", "eval.ned.pooled.json"],
]
RUN_OUTPUTS = ["rel.tsv", "ned.tsv", "ned.ngd.tsv", "ned.mfs.tsv", "rel.json", "ned.json",
               "ned.ngd.json", "ned.mfs.json", "sweep/Hr_a0.85_i30_k5000_P.json",
               "sweep/summary.csv", "eval.rel.json", "eval.ned.json",
               "eval.ned.redirects.json", "eval.rel.pooled.json", "eval.ned.pooled.json"]


def _sqlite_rows_digest(path) -> str:
    """The sqlite dictionary's rows, not its file bytes (which depend on the
    sqlite library): meta and entries, each in key order."""
    h = hashlib.sha256()
    with closing(sqlite3.connect(path)) as conn:
        for table in ("meta", "entries"):
            for key, value in conn.execute(f"SELECT * FROM {table} ORDER BY 1"):
                value = value if isinstance(value, bytes) else value.encode("utf-8")
                h.update(b"%s\t%d\t%s\n" % (key.encode("utf-8"), len(value), value))
    return h.hexdigest()


def test_workspace_outputs_match_the_recorded_digests(workspace, tmp_path, monkeypatch):
    data = workspace["data"]
    shutil.copytree(data, tmp_path / "data")
    for name in ("pairs.tsv", "queries.tsv", "doc.txt"):
        shutil.copyfile(workspace["root"] / name, tmp_path / name)
    for name, cut in (("pairs", 2), ("queries", 5)):
        header, *rows = (tmp_path / f"{name}.tsv").read_text().splitlines(keepends=True)
        (tmp_path / f"{name}.a.tsv").write_text(header + "".join(rows[:cut]))
        (tmp_path / f"{name}.b.tsv").write_text(header + "".join(rows[cut:]))
    # a two-step chain that turns the mfs baseline's rugby team into the gold
    (tmp_path / "redirects.tsv").write_text(
        "old_title\tnew_title\nB&I_Lions\tLions_Tour_1997\nLions_Tour_1997\tHighveld_Lions\n")
    monkeypatch.chdir(tmp_path)
    for argv in DIGEST_RUNS:
        assert main(argv) == 0
    files = {name: data / name
             for name in ("nodes.tsv", "graph.Hr.gwkb", "graph.Hu.gwkb", "dict.gwdict")}
    files.update((name, tmp_path / name) for name in RUN_OUTPUTS)
    digests = {name: hashlib.sha256(path.read_bytes()).hexdigest()
               for name, path in files.items()}
    digests["dict.sqlite rows"] = _sqlite_rows_digest(data / "dict.sqlite")
    assert digests == GOLDEN_DIGESTS


def test_build_reads_each_edge_file_once(workspace, tmp_path, monkeypatch):
    """Specs that share a kind share its parsed edge file and derived parts,
    and each snapshot equals the spec built on its own."""
    loads = []
    load = graph_mod.load_edge_file

    def counted(path, nodes, kind):
        loads.append(kind)
        return load(path, nodes, kind)

    monkeypatch.setattr(graph_mod, "load_edge_file", counted)
    out = tmp_path / "data"
    assert main(["build", "--ingest-dir", str(workspace["ingest"]), "--out", str(out),
                 "--specs", "Hr,Hu,HrCu"]) == 0
    assert sorted(loads) == ["C", "H"]
    nodes = graph_mod.load_nodes(str(out / "nodes.tsv"))
    for spec in ("Hr", "Hu", "HrCu"):
        alone = tmp_path / f"{spec}.gwkb"
        graph_mod.save_snapshot(graph_mod.build_graph(spec, str(workspace["ingest"]), nodes),
                                str(alone))
        assert (out / f"graph.{spec}.gwkb").read_bytes() == alone.read_bytes()


def test_importing_the_cli_does_not_import_scipy_stats():
    """Every command starts from ``import graphwalk.cli``; scipy.stats alone
    would add about 50 MiB and 0.6 s to each start."""
    probe = "import graphwalk.cli, sys; print('scipy.stats' in sys.modules)"
    src = os.path.dirname(os.path.dirname(graph_mod.__file__))
    done = subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True,
                          check=True, env={**os.environ, "PYTHONPATH": src})
    assert done.stdout.strip() == "False"


def test_build_rejects_unknown_spec_token(workspace, tmp_path, capsys):
    rc = main(["build", "--ingest-dir", str(workspace["ingest"]),
               "--out", str(tmp_path / "x"), "--specs", "Qd"])
    assert rc == 1
    assert "usage error" in capsys.readouterr().err


def test_missing_snapshot_is_a_data_error(workspace, tmp_path, capsys):
    rc = main(["ned", "--data", str(workspace["data"]), "--spec", "HrCu",
               "--queries", str(workspace["queries"]),
               "--out", str(tmp_path / "p.tsv")])
    assert rc == 2
    assert "graphwalk build" in capsys.readouterr().err


@pytest.mark.parametrize("name,header", [("edges.H.tsv", "src_id\t"),
                                         ("dict_counts.tsv", "mention\t")])
def test_build_rejects_a_file_without_its_header_line(workspace, tmp_path, capsys, name,
                                                      header):
    """Without its header the first row was skipped unseen: an edge went
    missing, or a mention's count, and the build exited 0."""
    ingest = tmp_path / "ingested"
    shutil.copytree(workspace["ingest"], ingest)
    text = (ingest / name).read_text(encoding="utf-8")
    assert text.startswith(header)
    (ingest / name).write_text(text.split("\n", 1)[1], encoding="utf-8")
    rc = main(["build", "--ingest-dir", str(ingest), "--out", str(tmp_path / "data"),
               "--specs", "Hr"])
    assert rc == 2
    assert f"{ingest / name}: missing header line" in capsys.readouterr().err


def test_a_node_table_one_row_short_names_both_files(workspace, tmp_path, capsys):
    data = tmp_path / "data"
    shutil.copytree(workspace["data"], data)
    lines = (data / "nodes.tsv").read_text(encoding="utf-8").splitlines(keepends=True)
    (data / "nodes.tsv").write_text("".join(lines[:-1]), encoding="utf-8")
    rc = main(["rel", "--data", str(data), "--pairs", str(workspace["pairs"]),
               "--out", str(tmp_path / "rel.tsv")])
    assert rc == 2
    err = capsys.readouterr().err
    assert str(data / "nodes.tsv") in err
    assert str(data / "graph.Hr.gwkb") in err
    n = len(lines) - 1  # rows below the header
    assert f"{n} nodes" in err and f"has {n - 1}" in err


def _mutant_run(command: str, workdir: str, workspace, out: str) -> list[str]:
    if command == "build":
        return ["build", "--ingest-dir", workdir, "--out", out, "--specs", "Hr,HrCu"]
    if command == "rel":
        return ["rel", "--data", workdir, "--pairs", str(workspace["pairs"]), "--out", out]
    return ["ned", "--data", workdir, "--queries", str(workspace["queries"]), "--out", out,
            "--workers", "1"]


@given(st.sampled_from([("build", "nodes.tsv"), ("build", "edges.H.tsv"),
                        ("build", "edges.C.tsv"), ("rel", "nodes.tsv"),
                        ("ned", "nodes.tsv")]),
       st.sampled_from(MUTATIONS[1:]), st.integers(0, 100))
@settings(max_examples=150, deadline=None, derandomize=True)
def test_a_mutated_node_or_edge_file_exits_0_or_names_the_file(workspace, target, mutation,
                                                              pick):
    command, name = target
    with tempfile.TemporaryDirectory() as tmp:
        workdir = os.path.join(tmp, "in")
        shutil.copytree(workspace["ingest" if command == "build" else "data"], workdir)
        path = os.path.join(workdir, name)
        with open(path, encoding="utf-8") as fh:
            header, *lines = fh.read().splitlines()
        with open(path, "wb") as fh:
            fh.write(table_bytes(header, [line.split("\t") for line in lines], mutation, pick))
        err = io.StringIO()
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
            rc = main(_mutant_run(command, workdir, workspace, os.path.join(tmp, "out")))
    assert rc in (0, 2)
    assert rc == 0 or path in err.getvalue()


@pytest.fixture(scope="module")
def outside_ids_data(workspace, tmp_path_factory):
    """A copy of the built data whose dictionary sends "lions" to node 999,
    outside the graph, in both the snapshot and the sqlite backend."""
    data = tmp_path_factory.mktemp("outside") / "data"
    shutil.copytree(workspace["data"], data)
    loaded = Dictionary.load(str(data / "dict.gwdict"))
    d = Dictionary({**loaded.entries, "lions": DictEntry("lions", (Candidate(999, 1, 1.0),))})
    d.save(str(data / "dict.gwdict"))
    (data / "dict.sqlite").unlink()
    SqliteDictionary.create(d, str(data / "dict.sqlite"))
    return data


@pytest.mark.parametrize("backend", ["dict.gwdict", "dict.sqlite"])
@pytest.mark.parametrize("command,system", [("rel", "ppr"), ("rel", "ngd"), ("ned", "ppr"),
                                            ("ned", "ngd"), ("ned", "mfs")])
def test_dictionary_ids_outside_the_graph_are_a_data_error(
        workspace, outside_ids_data, tmp_path, capsys, command, system, backend):
    inputs = (["--pairs", str(workspace["pairs"])] if command == "rel"
              else ["--queries", str(workspace["queries"]), "--workers", "2"])
    sqlite = ["--sqlite-dict"] if backend == "dict.sqlite" else []
    rc = main([command, "--data", str(outside_ids_data), "--system", system,
               "--out", str(tmp_path / "out.tsv")] + inputs + sqlite)
    assert rc == 2
    err = capsys.readouterr().err
    assert str(outside_ids_data / backend) in err
    assert "999" in err


def misprice_lions(db) -> None:
    """Keep the counts (55, 45) of the "lions" row but give it priors 0.1 and
    0.9: no longer count over total, and out of prior order."""
    with closing(sqlite3.connect(db)) as conn:
        blob = conn.execute("SELECT candidates FROM entries WHERE mention = 'lions'").fetchone()[0]
        triples = [(a, c, p) for (a, c, _), p in zip(struct.iter_unpack("<IQd", blob[4:]),
                                                     (0.1, 0.9))]
        conn.execute("UPDATE entries SET candidates = ? WHERE mention = 'lions'",
                     (blob[:4] + b"".join(struct.pack("<IQd", *t) for t in triples),))
        conn.commit()


def flip_a_table_name(db) -> None:
    """Flip the top bit of a byte of the schema's "meta": not UTF-8 any more."""
    raw = bytearray(db.read_bytes())
    raw[raw.index(b"tablemetameta") + len(b"tablem")] ^= 0x80
    db.write_bytes(bytes(raw))


@pytest.mark.parametrize("sql, message", [
    (None, "file is not a database"),
    ("DELETE FROM meta", "not a dictionary database: bad max_token_len"),
    ("UPDATE meta SET value = 'two'", "not a dictionary database: bad max_token_len"),
    ("UPDATE entries SET candidates = x'0100000000' WHERE mention = 'lions'",
     "entry 'lions': candidates are not a nonzero u32 count then that many triples"),
    ("UPDATE entries SET candidates = x'00000000' WHERE mention = 'lions'",
     "entry 'lions': candidates are not a nonzero u32 count then that many triples"),
    ("UPDATE entries SET candidates = substr(candidates, 1, 24) WHERE mention = 'lions'",
     "entry 'lions': candidates are not a nonzero u32 count then that many triples"),
    ("UPDATE entries SET candidates = 'text' WHERE mention = 'lions'",
     "entry 'lions': candidates are not a nonzero u32 count then that many triples"),
    ("DROP TABLE entries", "no such table: entries"),
    ("UPDATE meta SET value = '-1'", "not a dictionary database: bad max_token_len"),
    (misprice_lions, "entry 'lions': candidate priors do not match their counts"),
    (flip_a_table_name, "corrupt database: text that is not UTF-8"),
    ("UPDATE entries SET mention = NULL WHERE mention = 'lions'",
     "mention None is not in normalized form"),
    ("UPDATE entries SET mention = x'6c696f6e73' WHERE mention = 'lions'",
     "mention b'lions' is not in normalized form"),
    ("UPDATE entries SET mention = '' WHERE mention = 'lions'",
     "mention '' is not in normalized form"),
], ids=["not_a_database", "no_max_token_len", "text_max_token_len", "five_byte_blob",
        "zero_count", "count_beyond_the_blob", "text_blob", "no_entries_table",
        "negative_max_token_len", "priors_not_count_over_total", "schema_not_utf8",
        "null_mention", "blob_mention", "empty_mention"])
def test_a_broken_sqlite_dictionary_is_a_data_error(workspace, tmp_path, capsys, sql,
                                                     message):
    data = tmp_path / "data"
    shutil.copytree(workspace["data"], data)
    db = data / "dict.sqlite"
    if sql is None:
        db.write_bytes(b"not a database " * 100)
    elif callable(sql):
        sql(db)
    else:
        with closing(sqlite3.connect(db)) as conn:
            conn.execute(sql)
            conn.commit()
    rc = main(["rel", "--data", str(data), "--pairs", str(workspace["pairs"]),
               "--out", str(tmp_path / "out.tsv"), "--sqlite-dict"])
    assert rc == 2
    assert f"data error: {db}: {message}" in capsys.readouterr().err


def test_a_query_id_repeated_across_pooled_datasets_names_the_later_dataset(
        workspace, tmp_path, capsys):
    again = tmp_path / "again.tsv"
    shutil.copy(workspace["queries"], again)
    shutil.copy(workspace["root"] / "doc.txt", tmp_path)
    preds = tmp_path / "preds.tsv"
    assert main(["ned", "--data", str(workspace["data"]), "--queries", str(workspace["queries"]),
                 "--out", str(preds), "--system", "mfs"]) == 0
    rc = main(["eval", "--task", "ned", "--dataset", str(workspace["queries"]),
               "--dataset", str(again), "--preds", str(preds)])
    assert rc == 2
    assert (f"data error: {again}: query id 'q0' is in an earlier dataset; query ids must "
            f"not repeat across the pooled datasets") in capsys.readouterr().err


def test_a_missing_prediction_names_the_prediction_files(workspace, tmp_path, capsys):
    preds = tmp_path / "preds.tsv"
    assert main(["ned", "--data", str(workspace["data"]), "--queries", str(workspace["queries"]),
                 "--out", str(preds), "--system", "mfs"]) == 0
    header, *rows = preds.read_text(encoding="utf-8").splitlines(keepends=True)
    first, second = tmp_path / "first.tsv", tmp_path / "second.tsv"
    first.write_text(header + "".join(rows[:5]), encoding="utf-8")
    second.write_text(header + "".join(r for r in rows[5:] if not r.startswith("q8\t")),
                      encoding="utf-8")
    rc = main(["eval", "--task", "ned", "--dataset", str(workspace["queries"]),
               "--preds", str(first), "--preds", str(second)])
    assert rc == 2
    assert (f"data error: predictions {first}+{second}: no prediction for query 'q8'"
            in capsys.readouterr().err)


@pytest.mark.parametrize("command", ["rel", "sweep"])
def test_a_report_over_a_dataset_without_gold_names_the_dataset(workspace, tmp_path, capsys,
                                                                command):
    pairs = tmp_path / "pairs.tsv"
    write_tsv(pairs, "term1\tterm2", [("alan kourie", "lions"), ("cape town", "lions")])
    if command == "rel":
        argv = ["rel", "--pairs", str(pairs), "--out", str(tmp_path / "out.tsv"),
                "--report", str(tmp_path / "r.json")]
    else:
        argv = ["sweep", "--task", "rel", "--dataset", str(pairs), "--out", str(tmp_path / "s")]
    assert main(argv + ["--data", str(workspace["data"]), "--workers", "1"]) == 2
    assert (f"data error: {pairs}: cannot write a report: dataset has no gold scores"
            in capsys.readouterr().err)


@pytest.mark.parametrize("max_token_len", ["1", "4"])
def test_a_sqlite_max_token_len_that_is_not_the_longest_mention_is_a_data_error(
        workspace, tmp_path, capsys, max_token_len):
    # the longest mention has 3 tokens; with 1, the scan never tried the
    # two-token context mentions "alan kourie" and "cape town", and q0 scored
    # 0.0915 instead of the 0.0693 that both dictionary files give
    data = tmp_path / "data"
    shutil.copytree(workspace["data"], data)
    argv = ["ned", "--data", str(data), "--queries", str(workspace["queries"])]
    assert main(argv + ["--out", str(tmp_path / "gwdict.tsv")]) == 0
    assert main(argv + ["--out", str(tmp_path / "sqlite.tsv"), "--sqlite-dict"]) == 0
    assert (tmp_path / "sqlite.tsv").read_bytes() == (tmp_path / "gwdict.tsv").read_bytes()
    db = data / "dict.sqlite"
    with closing(sqlite3.connect(db)) as conn:
        conn.execute("UPDATE meta SET value = ? WHERE key = 'max_token_len'", (max_token_len,))
        conn.commit()
    assert main(argv + ["--out", str(tmp_path / "out.tsv"), "--sqlite-dict"]) == 2
    assert (f"data error: {db}: max_token_len does not match the mentions"
            in capsys.readouterr().err)
    assert not (tmp_path / "out.tsv").exists()


def test_a_sqlite_mention_not_in_normalized_form_is_a_data_error(workspace, tmp_path, capsys):
    # the store is read by normalized mention, so "Cape Town" was never found:
    # q8 came out NIL and q0 scored 0.0924 instead of 0.0693
    data = tmp_path / "data"
    shutil.copytree(workspace["data"], data)
    db = data / "dict.sqlite"
    with closing(sqlite3.connect(db)) as conn:
        conn.execute("UPDATE entries SET mention = 'Cape Town' WHERE mention = 'cape town'")
        conn.commit()
    rc = main(["ned", "--data", str(data), "--queries", str(workspace["queries"]),
               "--out", str(tmp_path / "out.tsv"), "--sqlite-dict"])
    assert rc == 2
    assert (f"data error: {db}: mention 'Cape Town' is not in normalized form"
            in capsys.readouterr().err)
    assert not (tmp_path / "out.tsv").exists()


def test_sqlite_dict_without_a_database_is_a_data_error(workspace, tmp_path, capsys):
    data = tmp_path / "data"
    shutil.copytree(workspace["data"], data)
    (data / "dict.sqlite").unlink()
    rc = main(["rel", "--data", str(data), "--pairs", str(workspace["pairs"]),
               "--out", str(tmp_path / "out.tsv"), "--sqlite-dict"])
    assert rc == 2
    assert (f"missing dictionary database {data / 'dict.sqlite'}; run 'graphwalk build "
            f"--sqlite-dict' first") in capsys.readouterr().err
    assert not (tmp_path / "out.tsv").exists()


def test_a_run_served_from_the_resolver_cache_never_writes_it(workspace, tmp_path,
                                                              monkeypatch):
    # a shared, pre-filled cache may sit where the run cannot write
    (tmp_path / "doc.txt").write_text(LIONS_SENTENCE, encoding="utf-8")
    queries = tmp_path / "queries.tsv"
    queries.write_text("query_id\tmention\tcontext_file\n"
                       "q0\tZzqx One\tdoc.txt\nq1\tZzqx Two\tdoc.txt\n", encoding="utf-8")
    cache = tmp_path / "cache.json"
    cache.write_text(json.dumps({"Zzqx One": "Cape_Town", "Zzqx Two": None}), encoding="utf-8")

    def unwritable(self):
        raise OSError("read-only file system")

    def no_fetch(self, mention):
        raise AssertionError(f"fetched {mention!r}")

    monkeypatch.setattr(CachedHttpResolver, "_save", unwritable)
    monkeypatch.setattr(CachedHttpResolver, "_fetch", no_fetch)
    assert main(["ned", "--data", str(workspace["data"]), "--queries", str(queries),
                 "--out", str(tmp_path / "out.tsv"), "--workers", "2",
                 "--resolver-url", "http://example.invalid/{query}",
                 "--resolver-cache", str(cache)]) == 0
    lines = (tmp_path / "out.tsv").read_text(encoding="utf-8").splitlines()
    assert [line.split("\t")[1] for line in lines[1:]] == ["Cape_Town", "NIL"]


def test_ned_end_to_end_and_worker_determinism(workspace, tmp_path):
    out1 = tmp_path / "p1.tsv"
    out2 = tmp_path / "p2.tsv"
    rep1 = tmp_path / "r1.json"
    rep2 = tmp_path / "r2.json"
    assert main(["ned", "--data", str(workspace["data"]),
                 "--queries", str(workspace["queries"]),
                 "--out", str(out1), "--report", str(rep1),
                 "--workers", "1"]) == 0
    assert main(["ned", "--data", str(workspace["data"]),
                 "--queries", str(workspace["queries"]),
                 "--out", str(out2), "--report", str(rep2),
                 "--workers", "8"]) == 0
    assert out1.read_bytes() == out2.read_bytes()
    assert rep1.read_bytes() == rep2.read_bytes()

    lines = out1.read_text().splitlines()
    assert lines[1].startswith("q0\tHighveld_Lions\t")
    assert lines[-1].startswith("q9\tNIL\t0\t")
    report = json.loads(rep1.read_text())
    assert report["metric"] == "accuracy"
    assert report["value"] == 1.0
    assert report["n"] == 9  # q9's gold is NIL
    assert report["extras"]["nil_predictions"] == 1


def test_ned_defaults_match_standard_config(workspace, tmp_path):
    rep = tmp_path / "r.json"
    assert main(["ned", "--data", str(workspace["data"]),
                 "--queries", str(workspace["queries"]),
                 "--out", str(tmp_path / "p.tsv"), "--report", str(rep)]) == 0
    config = json.loads(rep.read_text())["config"]
    assert config["graph_spec"] == "Hr"
    assert config["alpha"] == 0.85
    assert config["iterations"] == 15
    assert config["prior_init"] is True


def test_mfs_and_ngd_systems(workspace, tmp_path):
    for system, expect in (("mfs", "B&I_Lions"), ("ngd", "B&I_Lions")):
        out = tmp_path / f"{system}.tsv"
        assert main(["ned", "--data", str(workspace["data"]),
                     "--queries", str(workspace["queries"]),
                     "--out", str(out), "--system", system]) == 0
        assert out.read_text().splitlines()[1].split("\t")[1] == expect


def test_rel_end_to_end(workspace, tmp_path):
    out = tmp_path / "rel.tsv"
    rep = tmp_path / "rel.json"
    assert main(["rel", "--data", str(workspace["data"]),
                 "--pairs", str(workspace["pairs"]),
                 "--out", str(out), "--report", str(rep)]) == 0
    lines = out.read_text().splitlines()
    assert lines[0] == "term1\tterm2\tgold\tscore"
    assert len(lines) == 5
    report = json.loads(rep.read_text())
    assert report["metric"] == "spearman"
    assert report["config"]["iterations"] == 30
    assert report["config"]["k"] == 5000
    # identical rerun reproduces the report bit for bit
    rep2 = tmp_path / "rel2.json"
    assert main(["rel", "--data", str(workspace["data"]),
                 "--pairs", str(workspace["pairs"]),
                 "--out", str(tmp_path / "rel2.tsv"), "--report", str(rep2)]) == 0
    assert rep.read_bytes() == rep2.read_bytes()


def test_rel_ngd_system_and_unknown_zero(workspace, tmp_path):
    pairs = tmp_path / "pairs.tsv"
    write_tsv(pairs, "term1\tterm2\tgold", [
        ("alan kourie", "lions", 3.0),
        ("cape town", "lions", 2.0),
        ("zzqx", "lions", 1.0),
        ("fletcher", "cape town", 0.5),
    ])
    out = tmp_path / "ngd.tsv"
    assert main(["rel", "--data", str(workspace["data"]), "--system", "ngd",
                 "--pairs", str(pairs), "--out", str(out),
                 "--on-unknown", "zero"]) == 0
    rows = [line.split("\t") for line in out.read_text().splitlines()[1:]]
    assert rows[2][3] == "0"


def test_rel_reports_over_the_gold_pairs_as_eval_does(workspace, tmp_path, capsys):
    pairs = tmp_path / "pairs.tsv"
    write_tsv(pairs, "term1\tterm2\tgold", [
        ("alan kourie", "lions", 3.0),
        ("cape town", "lions", 2.0),
        ("fletcher", "lions", ""),
        ("fletcher", "cape town", 1.5),
        ("alan kourie", "cape town", 0.5),
    ])
    out, rep = tmp_path / "rel.tsv", tmp_path / "rel.json"
    assert main(["rel", "--data", str(workspace["data"]), "--pairs", str(pairs),
                 "--out", str(out), "--report", str(rep)]) == 0
    assert len(out.read_text().splitlines()) == 6  # the blank-gold pair is scored too
    report = json.loads(rep.read_text())
    assert report["n"] == 4
    assert main(["eval", "--task", "rel", "--dataset", str(pairs),
                 "--preds", str(out)]) == 0
    rel_line, eval_line = capsys.readouterr().out.splitlines()
    assert rel_line == f"spearman {report['value']:.4f} on 4 pairs"
    assert eval_line == f"spearman {report['value']:.4f} on n=4"


def test_rel_sweep_cell_reports_record_on_unknown(workspace, tmp_path):
    pairs = tmp_path / "pairs.tsv"
    write_tsv(pairs, "term1\tterm2\tgold", [
        ("alan kourie", "lions", 3.0),
        ("cape town", "lions", 2.0),
        ("zzqx", "lions", 1.0),
        ("fletcher", "cape town", 1.5),
        ("alan kourie", "cape town", 0.5),
    ])
    reports = {}
    for policy in ("skip", "zero"):
        out = tmp_path / policy
        assert main(["sweep", "--data", str(workspace["data"]), "--task", "rel",
                     "--dataset", str(pairs), "--out", str(out),
                     "--on-unknown", policy]) == 0
        (path,) = out.glob("*.json")
        reports[policy] = json.loads(path.read_text())
    assert reports["skip"]["config"]["on_unknown"] == "skip"
    assert reports["zero"]["config"]["on_unknown"] == "zero"
    assert (reports["skip"]["n"], reports["zero"]["n"]) == (4, 5)


def test_rel_and_rel_sweep_outputs_do_not_depend_on_workers(workspace, tmp_path,
                                                            monkeypatch):
    outputs = []
    for workers in (["--workers", "1"], ["--workers", "2"], []):
        out, rep = tmp_path / f"rel{len(outputs)}.tsv", tmp_path / f"rel{len(outputs)}.json"
        assert main(["rel", "--data", str(workspace["data"]),
                     "--pairs", str(workspace["pairs"]),
                     "--out", str(out), "--report", str(rep), *workers]) == 0
        outputs.append((out.read_bytes(), rep.read_bytes()))
    assert outputs[1] == outputs[0] and outputs[2] == outputs[0]

    # sweep --workers N walks each cell on N threads, as rel and ned do
    walk_workers = []
    score_pairs = rel_mod.score_pairs

    def spy(*args):
        walk_workers.append(args[-1])
        return score_pairs(*args)

    monkeypatch.setattr(rel_mod, "score_pairs", spy)
    sweeps = []
    for workers in ("1", "2"):
        out = tmp_path / f"sweep{workers}"
        assert main(["sweep", "--data", str(workspace["data"]), "--task", "rel",
                     "--dataset", str(workspace["pairs"]), "--out", str(out),
                     "--alphas", "0.5,0.85", "--workers", workers]) == 0
        sweeps.append({p.name: p.read_bytes() for p in out.iterdir()})
    assert sweeps[0] == sweeps[1]
    assert walk_workers == [1, 1, 2, 2]


def test_iters_alias_runs_a_single_iteration(workspace, tmp_path):
    rep = tmp_path / "r.json"
    assert main(["ned", "--data", str(workspace["data"]),
                 "--queries", str(workspace["queries"]),
                 "--out", str(tmp_path / "p.tsv"), "--report", str(rep),
                 "--iters", "1"]) == 0
    assert json.loads(rep.read_text())["config"]["iterations"] == 1


def test_no_prior_flag_flips_initialization(workspace, tmp_path):
    rep = tmp_path / "r.json"
    assert main(["ned", "--data", str(workspace["data"]),
                 "--queries", str(workspace["queries"]),
                 "--out", str(tmp_path / "p.tsv"), "--report", str(rep),
                 "--no-prior"]) == 0
    assert json.loads(rep.read_text())["config"]["prior_init"] is False


def test_config_file_and_flag_precedence(workspace, tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("alpha=0.75\niterations=5\n# comment\nk=none\n",
                   encoding="utf-8")
    rep = tmp_path / "r.json"
    assert main(["ned", "--data", str(workspace["data"]),
                 "--queries", str(workspace["queries"]),
                 "--out", str(tmp_path / "p.tsv"), "--report", str(rep),
                 "--config", str(cfg), "--iterations", "7"]) == 0
    config = json.loads(rep.read_text())["config"]
    assert config["alpha"] == 0.75       # from the file
    assert config["iterations"] == 7     # flag wins
    assert config["k"] is None


def test_k_none_flag_overrides_the_config_file_and_the_default(workspace, tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("k=3\n", encoding="utf-8")
    ks = {}
    for name, flags in (("default", []), ("config", ["--config", str(cfg)]),
                        ("none", ["--k", "none"]),
                        ("config_none", ["--config", str(cfg), "--k", "none"])):
        rep = tmp_path / f"{name}.json"
        assert main(["rel", "--data", str(workspace["data"]), "--pairs", str(workspace["pairs"]),
                     "--out", str(tmp_path / f"{name}.tsv"), "--report", str(rep),
                     *flags]) == 0
        ks[name] = json.loads(rep.read_text())["config"]["k"]
    assert ks == {"default": 5000, "config": 3, "none": None, "config_none": None}


def test_sweep_prior_values_parse_as_the_prior_key_does(workspace, tmp_path):
    summaries = []
    for priors in ("P,noP", "true,0"):
        out = tmp_path / priors.replace(",", "_")
        assert main(["sweep", "--data", str(workspace["data"]), "--task", "ned",
                     "--dataset", str(workspace["queries"]), "--out", str(out),
                     "--iters", "5", "--priors", priors]) == 0
        summaries.append((out / "summary.csv").read_bytes())
        assert sorted(p.name for p in out.glob("*.json")) == [
            "Hr_a0.85_i5_knone_P.json", "Hr_a0.85_i5_knone_noP.json"]
    assert summaries[0] == summaries[1]


def test_sqlite_dictionary_backend_matches(workspace, tmp_path):
    out_mem = tmp_path / "mem.tsv"
    out_db = tmp_path / "db.tsv"
    assert main(["ned", "--data", str(workspace["data"]),
                 "--queries", str(workspace["queries"]),
                 "--out", str(out_mem)]) == 0
    assert main(["ned", "--data", str(workspace["data"]),
                 "--queries", str(workspace["queries"]),
                 "--out", str(out_db), "--sqlite-dict"]) == 0
    assert out_mem.read_bytes() == out_db.read_bytes()


def test_eval_command_with_baseline(workspace, tmp_path):
    ppr_preds = tmp_path / "ppr.tsv"
    mfs_preds = tmp_path / "mfs.tsv"
    for system, out in (("ppr", ppr_preds), ("mfs", mfs_preds)):
        assert main(["ned", "--data", str(workspace["data"]),
                     "--queries", str(workspace["queries"]),
                     "--out", str(out), "--system", system]) == 0
    rep = tmp_path / "cmp.json"
    assert main(["eval", "--task", "ned", "--dataset", str(workspace["queries"]),
                 "--preds", str(ppr_preds), "--baseline", str(mfs_preds),
                 "--resamples", "1000", "--seed", "5",
                 "--report", str(rep)]) == 0
    report = json.loads(rep.read_text())
    assert report["value"] == 1.0
    assert report["significance"][0]["p_value"] < 0.05


def test_redirect_map_applies_to_predictions(workspace, tmp_path):
    redirects = tmp_path / "redir.tsv"
    redirects.write_text("old\tnew\nHighveld_Lions\tLions_cricket\n",
                         encoding="utf-8")
    queries = tmp_path / "q.tsv"
    queries.write_text(
        "query_id\tmention\tcontext_file\tchar_offset\tgold_title\n"
        f"q0\tLions\tdoc.txt\t\tLions_cricket\n", encoding="utf-8")
    (tmp_path / "doc.txt").write_text(LIONS_SENTENCE, encoding="utf-8")
    rep = tmp_path / "r.json"
    assert main(["ned", "--data", str(workspace["data"]),
                 "--queries", str(queries), "--out", str(tmp_path / "p.tsv"),
                 "--report", str(rep), "--redirects", str(redirects)]) == 0
    assert json.loads(rep.read_text())["value"] == 1.0


def test_sweep_grid_resume_and_summary(workspace, tmp_path):
    out = tmp_path / "sweep"
    argv = ["sweep", "--data", str(workspace["data"]), "--task", "ned",
            "--dataset", str(workspace["queries"]), "--out", str(out),
            "--alphas", "0.5,0.85", "--iters", "1,5,15", "--workers", "2"]
    assert main(argv) == 0
    reports = sorted(p.name for p in out.glob("*.json"))
    assert len(reports) == 6
    summary = (out / "summary.csv").read_text().splitlines()
    assert len(summary) == 7  # header + 6 cells
    assert summary[0].startswith("cell,graph,alpha,iterations,k,prior")

    # resumable: wipe one cell, rerun, everything is restored
    victim = reports[0].removesuffix(".json")
    (out / f"{victim}.json").unlink()
    (out / f"{victim}.done").unlink()
    before = {p.name: p.read_bytes() for p in out.glob("*.json")}
    assert main(argv) == 0
    after = {p.name: p.read_bytes() for p in out.glob("*.json")}
    assert sorted(after) == reports
    for name, blob in before.items():
        assert after[name] == blob


def test_sweep_cells_with_alphas_alike_to_six_digits_each_run(workspace, tmp_path, capsys):
    out = tmp_path / "sweep"
    alphas = (0.1234567, 0.9234571, 0.9234569)
    assert main(["sweep", "--data", str(workspace["data"]), "--task", "ned",
                 "--dataset", str(workspace["queries"]), "--out", str(out),
                 "--alphas", ",".join(map(repr, alphas)), "--iters", "1"]) == 0
    printed = capsys.readouterr().out.splitlines()
    names = [f"Hr_a{a!r}_i1_knone_P" for a in alphas]
    assert printed[:3] == [f"{name}: done" for name in names]
    rows = (out / "summary.csv").read_text().splitlines()[1:]
    assert [row.split(",")[:3] for row in rows] == [[n, "Hr", repr(a)] for n, a in zip(names, alphas)]
    for name, alpha in zip(names, alphas):
        assert json.loads((out / f"{name}.json").read_text())["config"]["alpha"] == alpha


def test_sweep_runs_a_repeated_axis_value_once(workspace, tmp_path, capsys):
    out = tmp_path / "sweep"
    assert main(["sweep", "--data", str(workspace["data"]), "--task", "ned",
                 "--dataset", str(workspace["queries"]), "--out", str(out),
                 "--iters", "15,15", "--alphas", "0.85,0.850"]) == 0
    assert capsys.readouterr().out.splitlines()[0] == "Hr_a0.85_i15_knone_P: done"
    assert len((out / "summary.csv").read_text().splitlines()) == 2  # header + 1 cell


def test_sweep_empty_grid_is_usage_error(workspace, tmp_path, capsys):
    rc = main(["sweep", "--data", str(workspace["data"]), "--task", "ned",
               "--dataset", str(workspace["queries"]),
               "--out", str(tmp_path / "s"), "--alphas", ","])
    assert rc == 1
    assert "usage error" in capsys.readouterr().err


def test_sweep_cell_reports_echo_their_config(workspace, tmp_path):
    out = tmp_path / "sweep"
    assert main(["sweep", "--data", str(workspace["data"]), "--task", "ned",
                 "--dataset", str(workspace["queries"]), "--out", str(out),
                 "--alphas", "0.85", "--iters", "5"]) == 0
    (report_path,) = out.glob("*.json")
    config = json.loads(report_path.read_text())["config"]
    assert config["alpha"] == 0.85
    assert config["iterations"] == 5
    assert config["graph_spec"] == "Hr"


def test_a_sweep_cell_reports_what_rel_and_ned_report(workspace, tmp_path):
    data = str(workspace["data"])
    for task, flag in (("rel", "--pairs"), ("ned", "--queries")):
        dataset = str(workspace["pairs" if task == "rel" else "queries"])
        run_report, out = tmp_path / f"{task}.json", tmp_path / f"{task}_sweep"
        assert main([task, "--data", data, flag, dataset, "--out", str(tmp_path / task),
                     "--report", str(run_report)]) == 0
        assert main(["sweep", "--data", data, "--task", task, "--dataset", dataset,
                     "--out", str(out)]) == 0
        (cell_report,) = out.glob("*.json")
        assert cell_report.read_bytes() == run_report.read_bytes()


@pytest.mark.parametrize("blob", ['{"metric": "spear', '[1, 2]', '{"metric": "accuracy"}',
                                  "\udcff", None],
                         ids=["cut_short", "not_an_object", "missing_keys", "not_utf8",
                              "deleted"])
def test_a_finished_sweep_cell_with_a_malformed_report_is_a_data_error(
        workspace, tmp_path, capsys, blob):
    out = tmp_path / "sweep"
    argv = ["sweep", "--data", str(workspace["data"]), "--task", "ned",
            "--dataset", str(workspace["queries"]), "--out", str(out), "--iters", "1"]
    assert main(argv) == 0
    (report,) = out.glob("*.json")
    if blob is None:
        report.unlink()
    else:
        report.write_bytes(blob.encode("utf-8", "surrogateescape"))
    capsys.readouterr()
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert f"{report}: malformed cell report; delete {report.with_suffix('.done')} " in err


@pytest.mark.parametrize("task", ["rel", "ned"])
def test_a_sweep_over_a_dataset_without_gold_is_the_report_data_error(
        workspace, tmp_path, capsys, task):
    dataset = tmp_path / "nogold.tsv"
    if task == "rel":
        write_tsv(dataset, "term1\tterm2", [("alan kourie", "lions"), ("cape town", "lions")])
        run = ["rel", "--pairs", str(dataset)]
    else:
        shutil.copy(workspace["root"] / "doc.txt", tmp_path / "doc.txt")
        write_tsv(dataset, "query_id\tmention\tcontext_file", [("q0", "Lions", "doc.txt")])
        run = ["ned", "--queries", str(dataset)]
    data = ["--data", str(workspace["data"])]
    assert main([*run, *data, "--out", str(tmp_path / "p.tsv"),
                 "--report", str(tmp_path / "r.json")]) == 2
    run_err = capsys.readouterr().err
    assert "cannot write a report" in run_err
    out = tmp_path / "sweep"
    assert main(["sweep", *data, "--task", task, "--dataset", str(dataset),
                 "--out", str(out)]) == 2
    assert capsys.readouterr().err == run_err
    assert list(out.iterdir()) == []


def test_sweep_cells_run_in_turn_and_print_as_they_finish(workspace, tmp_path, capsys,
                                                         monkeypatch):
    run_eval, printed = eval_mod.run_eval, []

    def spy(*args, **kwargs):
        printed.append(capsys.readouterr().out)
        if len(printed) == 3:
            raise DataError("third cell fails")
        return run_eval(*args, **kwargs)

    monkeypatch.setattr(eval_mod, "run_eval", spy)
    assert main(["sweep", "--data", str(workspace["data"]), "--task", "ned",
                 "--dataset", str(workspace["queries"]), "--out", str(tmp_path / "s"),
                 "--iters", "1,2,3,4", "--workers", "2"]) == 2
    assert printed == ["", "Hr_a0.85_i1_knone_P: done\n", "Hr_a0.85_i2_knone_P: done\n"]
    assert "third cell fails" in capsys.readouterr().err


def test_usage_error_for_unknown_flag(capsys):
    rc = main(["ned", "--nonsense"])
    assert rc == 1


def test_invalid_utf8_in_a_tsv_file_is_a_data_error(tmp_path, capsys):
    files = write_lions_corpus(tmp_path)
    pages = files["pages"].read_bytes().splitlines(keepends=True)
    pages[3] = pages[3].replace(b"\tarticle", b"\xff\tarticle")
    files["pages"].write_bytes(b"".join(pages))
    rc = main(["ingest", "--pages", str(files["pages"]), "--links", str(files["links"]),
               "--anchors", str(files["anchors"]), "--out", str(tmp_path / "out")])
    assert rc == 2
    assert f"{files['pages']}:4: invalid UTF-8" in capsys.readouterr().err


def test_invalid_utf8_in_a_context_file_is_a_data_error(workspace, tmp_path, capsys):
    (tmp_path / "doc.txt").write_bytes(b"lions in cape \xc3town")
    queries = tmp_path / "q.tsv"
    write_tsv(queries, "query_id\tmention\tcontext_file", [("q0", "Lions", "doc.txt")])
    rc = main(["ned", "--data", str(workspace["data"]), "--queries", str(queries),
               "--out", str(tmp_path / "p.tsv")])
    assert rc == 2
    err = capsys.readouterr().err
    assert f"{queries}:2: context file {tmp_path / 'doc.txt'}: invalid UTF-8 at byte 14" in err
    assert not (tmp_path / "p.tsv").exists()


def test_invalid_utf8_in_a_config_file_is_a_data_error(workspace, tmp_path, capsys):
    cfg = tmp_path / "bad.cfg"
    cfg.write_bytes(b"alpha=0.75\n# comment\niterations=\xff5\n")
    rc = main(["ned", "--data", str(workspace["data"]),
               "--queries", str(workspace["queries"]),
               "--out", str(tmp_path / "p.tsv"), "--config", str(cfg)])
    assert rc == 2
    assert f"{cfg}:3: invalid UTF-8" in capsys.readouterr().err
    assert not (tmp_path / "p.tsv").exists()


def test_negative_title_pseudo_count_is_a_usage_error(tmp_path, capsys):
    files = write_lions_corpus(tmp_path)
    argv = ["ingest", "--pages", str(files["pages"]), "--links", str(files["links"]),
            "--anchors", str(files["anchors"])]
    assert main(argv + ["--out", str(tmp_path / "neg"), "--title-pseudo-count", "-1"]) == 1
    assert "usage error: --title-pseudo-count must be >= 0" in capsys.readouterr().err
    assert not (tmp_path / "neg").exists()
    # zero writes zero-count rows, which build accepts and drops
    assert main(argv + ["--out", str(tmp_path / "zero"), "--title-pseudo-count", "0"]) == 0
    assert "\t0\n" in (tmp_path / "zero" / "dict_counts.tsv").read_text()
    assert main(["build", "--ingest-dir", str(tmp_path / "zero"),
                 "--out", str(tmp_path / "data")]) == 0


def test_a_gold_score_that_is_not_finite_is_a_data_error(workspace, tmp_path, capsys):
    pairs = tmp_path / "pairs.tsv"
    write_tsv(pairs, "term1\tterm2\tgold", [("alan kourie", "lions", "3.0"),
                                              ("cape town", "lions", "nan")])
    rc = main(["rel", "--data", str(workspace["data"]), "--pairs", str(pairs),
               "--out", str(tmp_path / "p.tsv")])
    assert rc == 2
    assert f"{pairs}:3: bad gold score 'nan'" in capsys.readouterr().err


def test_data_error_for_missing_file(tmp_path, capsys):
    rc = main(["ingest", "--pages", str(tmp_path / "nope.tsv"),
               "--links", str(tmp_path / "nope.tsv"),
               "--anchors", str(tmp_path / "nope.tsv"),
               "--out", str(tmp_path / "out")])
    assert rc == 2


REL_GOLD = [("a", "b", 3.0), ("c", "d", 2.0), ("e", "f", 1.0), ("g", "h", 0.5),
            ("i", "j", 0.2)]


@pytest.mark.parametrize("scores, base_scores, message", [
    ([0.9, 0.4, 0.7, 0.1, 0.3], [0.1, 0.6, 0.5, "NA", "NA"],
     "needs 4 scored gold pairs on each side, got 5 and 3"),
    ([0.5] * 5, [0.1, 0.6, 0.5, 0.2, 0.3], "zero variance in ranks"),
    ([0.9, "zz", 0.7, 0.1, 0.3], [0.1, 0.6, 0.5, 0.2, 0.3], "preds.tsv:3: bad score 'zz'"),
    (None, None, "predictions: need at least 2 pairs"),  # `rel --report`, one gold pair
], ids=["baseline_under_4_pairs", "constant_scores", "non_numeric_score",
        "rel_report_one_pair"])
def test_scoring_errors_are_data_errors(workspace, tmp_path, capsys, scores,
                                        base_scores, message):
    pairs = tmp_path / "pairs.tsv"
    if scores is None:
        write_tsv(pairs, "term1\tterm2\tgold", [("alan kourie", "lions", 3.0)])
        argv = ["rel", "--data", str(workspace["data"]), "--pairs", str(pairs),
                "--out", str(tmp_path / "out.tsv"), "--report", str(tmp_path / "r.json")]
    else:
        write_tsv(pairs, "term1\tterm2\tgold", REL_GOLD)
        for name, column in (("preds.tsv", scores), ("base.tsv", base_scores)):
            write_tsv(tmp_path / name, "term1\tterm2\tgold\tscore",
                      [(*row, s) for row, s in zip(REL_GOLD, column)])
        argv = ["eval", "--task", "rel", "--dataset", str(pairs),
                "--preds", str(tmp_path / "preds.tsv"),
                "--baseline", str(tmp_path / "base.tsv")]
    assert main(argv) == 2
    assert message in capsys.readouterr().err


@pytest.mark.parametrize("command, flags, config, code, message", [
    ("rel", ["--alpha", "1.5"], None, 1, "alpha must be in (0,1)"),
    ("ned", ["--iterations", "-1"], None, 1, "iterations must be >= 0"),
    ("sweep", ["--alphas", "1.5"], None, 1, "alpha must be in (0,1)"),
    ("ned", [], "alpha=abc\n", 2, "run.cfg:1: bad value 'abc' for 'alpha'"),
    ("rel", [], "# walk\nprior=maybe\n", 2, "run.cfg:2: bad value 'maybe' for 'prior'"),
    ("sweep", ["--task", "rel", "--system", "mfs"], None, 1,
     "--system for --task rel must be one of ppr, ngd, got 'mfs'"),
    ("ned", [], "alpha=0.7\nalhpa=0.7\n", 2, "run.cfg:2: unknown key 'alhpa'"),
    ("rel", [], "seed=3\n", 2, "run.cfg:1: unknown key 'seed'"),
    ("rel", ["--seed", "1"], None, 1, "unrecognized arguments: --seed 1"),
    ("ned", ["--seed", "1"], None, 1, "unrecognized arguments: --seed 1"),
    ("sweep", ["--seed", "1"], None, 1, "unrecognized arguments: --seed 1"),
    ("sweep", ["--on-unknown", "zero"], None, 1, "--on-unknown applies to --task rel only"),
    ("sweep", ["--priors", "P,maybe"], None, 1, "bad sweep value in 'P,maybe' for prior"),
    ("rel", [], "alpha=1.5\n", 2, "run.cfg:1: alpha must be in (0,1), got 1.5"),
    ("ned", [], "# walk\niterations=-1\n", 2, "run.cfg:2: iterations must be >= 0"),
    ("rel", [], "k=5\nk=0\n", 2, "run.cfg:2: k must be >= 1 or None"),
    ("rel", ["--workers", "0"], None, 1, "argument --workers: must be an integer >= 1, got '0'"),
    ("ned", ["--workers", "-3"], None, 1, "argument --workers: must be an integer >= 1, got '-3'"),
    ("sweep", ["--workers", "x"], None, 1, "argument --workers: must be an integer >= 1, got 'x'"),
    ("ned", ["--k", "10"], None, 1, "unrecognized arguments: --k 10"),
    ("ned", [], "# walk\nk=10\n", 2, "run.cfg:2: k applies to rel only"),
    ("sweep", ["--ks", "10,100"], None, 1, "--ks applies to --task rel only"),
], ids=["alpha_flag", "negative_iterations", "sweep_alphas", "config_alpha",
        "config_prior", "sweep_system_for_task", "config_typo_key", "config_seed_key",
        "rel_seed", "ned_seed", "sweep_seed", "ned_sweep_on_unknown", "sweep_priors",
        "config_alpha_range", "config_iterations_range", "config_k_range",
        "rel_zero_workers", "ned_negative_workers", "sweep_text_workers", "ned_k",
        "ned_config_k", "ned_sweep_ks"])
def test_bad_walk_parameters_stop_before_any_output(workspace, tmp_path, capsys, command,
                                                    flags, config, code, message):
    inputs = {"rel": ["--pairs", str(workspace["pairs"])],
              "ned": ["--queries", str(workspace["queries"])],
              "sweep": ["--task", "ned", "--dataset", str(workspace["queries"])]}
    out = tmp_path / "out"
    argv = [command, "--data", str(workspace["data"]), *inputs[command],
            "--out", str(out), *flags]
    if config is not None:
        (tmp_path / "run.cfg").write_text(config, encoding="utf-8")
        argv += ["--config", str(tmp_path / "run.cfg")]
    assert main(argv) == code
    assert message in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("flag, value", [
    ("--resamples", "999"), ("--resamples", "0"), ("--seed", "-1"),
])
def test_eval_resamples_and_seed_are_checked_at_the_flag(workspace, tmp_path, capsys,
                                                          flag, value):
    preds = tmp_path / "p.tsv"
    assert main(["ned", "--data", str(workspace["data"]),
                 "--queries", str(workspace["queries"]), "--out", str(preds)]) == 0
    report = tmp_path / "r.json"
    assert main(["eval", "--task", "ned", "--dataset", str(workspace["queries"]),
                 "--preds", str(preds), "--baseline", str(preds),
                 "--report", str(report), flag, value]) == 1
    assert f"usage error: {flag} must be >= " in capsys.readouterr().err
    assert not report.exists()


@pytest.mark.parametrize("flag, value", [
    ("--redirects", "redirects.tsv"), ("--resamples", "1000"), ("--seed", "0"),
])
def test_ned_only_eval_flags_are_usage_errors_with_task_rel(workspace, tmp_path, capsys,
                                                            flag, value):
    preds = tmp_path / "p.tsv"
    assert main(["rel", "--data", str(workspace["data"]),
                 "--pairs", str(workspace["pairs"]), "--out", str(preds)]) == 0
    (tmp_path / "redirects.tsv").write_text("old_title\tnew_title\nA\tB\n", encoding="utf-8")
    report = tmp_path / "r.json"
    assert main(["eval", "--task", "rel", "--dataset", str(workspace["pairs"]),
                 "--preds", str(preds), "--report", str(report),
                 flag, str(tmp_path / value) if flag == "--redirects" else value]) == 1
    assert f"usage error: {flag} applies to --task ned only" in capsys.readouterr().err
    assert not report.exists()
