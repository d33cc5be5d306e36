from __future__ import annotations

import hashlib
import json
import shutil
import sqlite3
from contextlib import closing

import pytest

from graphwalk import evaluation as eval_mod
from graphwalk import relatedness as rel_mod
from graphwalk.cli import main
from graphwalk.dictionary import Candidate, DictEntry, Dictionary, SqliteDictionary
from graphwalk.errors import DataError

from conftest import LIONS_SENTENCE, write_lions_corpus, write_tsv


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


# sha256 of the files `build` writes for the workspace and of the ppr
# predictions of `rel` and `ned --workers 1` on it (recorded at commit
# 4e9fd21). A change meant to keep outputs byte-identical must reproduce
# them; one that alters an output on purpose records its new digest here
GOLDEN_DIGESTS = {
    "nodes.tsv": "63dc0917f9d1b4691acf02ccfc9d73ecb61d3adc167831c13ef6a17737180cbd",
    "graph.Hr.gwkb": "f8b1ca5e1cf84eb416b276301ef22b359c04d0622c12bc749301cae15481348a",
    "graph.Hu.gwkb": "3fae06203fb6cea1a4467cf8664c9612177c81980f9edfb83c9da0b967b8776e",
    "dict.gwdict": "445ee290caf71820ec1cd28edd2109aa8747e403bcbd498d8f9ca47a071438e8",
    "dict.sqlite rows": "4c838780022b27630eb1d2fa1dc47a977901f7f1a1edaa8f67b996dacd35a2eb",
    "rel.tsv": "eb0e44d89a706e221213905520c842a1d1a764ab47f976232ab9ed6d10b163c1",
    "ned.tsv": "0e46491b0a173a00bbee142757f714ec0f18b5e35aff2d78977405917d66ba2f",
}


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


def test_workspace_outputs_match_the_recorded_digests(workspace, tmp_path):
    data = workspace["data"]
    assert main(["rel", "--data", str(data), "--pairs", str(workspace["pairs"]),
                 "--out", str(tmp_path / "rel.tsv"), "--workers", "1"]) == 0
    assert main(["ned", "--data", str(data), "--queries", str(workspace["queries"]),
                 "--system", "ppr", "--out", str(tmp_path / "ned.tsv"),
                 "--workers", "1"]) == 0
    files = {name: data / name
             for name in ("nodes.tsv", "graph.Hr.gwkb", "graph.Hu.gwkb", "dict.gwdict")}
    files.update({"rel.tsv": tmp_path / "rel.tsv", "ned.tsv": tmp_path / "ned.tsv"})
    digests = {name: hashlib.sha256(path.read_bytes()).hexdigest()
               for name, path in files.items()}
    digests["dict.sqlite rows"] = _sqlite_rows_digest(data / "dict.sqlite")
    assert digests == GOLDEN_DIGESTS


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
        if task == "rel":
            assert cell_report.read_bytes() == run_report.read_bytes()
        else:
            run = json.loads(run_report.read_text())
            assert run["config"].pop("include_target") is True
            assert json.loads(cell_report.read_text()) == run


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
    ("sweep", [], "k=5\nk=0\n", 2, "run.cfg:2: k must be >= 1 or None"),
    ("rel", ["--workers", "0"], None, 1, "argument --workers: must be an integer >= 1, got '0'"),
    ("ned", ["--workers", "-3"], None, 1, "argument --workers: must be an integer >= 1, got '-3'"),
    ("sweep", ["--workers", "x"], None, 1, "argument --workers: must be an integer >= 1, got 'x'"),
], ids=["alpha_flag", "negative_iterations", "sweep_alphas", "config_alpha",
        "config_prior", "sweep_system_for_task", "config_typo_key", "config_seed_key",
        "rel_seed", "ned_seed", "sweep_seed", "ned_sweep_on_unknown", "sweep_priors",
        "config_alpha_range", "config_iterations_range", "config_k_range",
        "rel_zero_workers", "ned_negative_workers", "sweep_text_workers"])
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
