from __future__ import annotations

import json
import shutil

import pytest

from graphwalk.cli import main
from graphwalk.dictionary import Candidate, DictEntry, Dictionary, SqliteDictionary

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
    d = Dictionary.load(str(data / "dict.gwdict"))
    d.entries["lions"] = DictEntry("lions", (Candidate(999, 1, 1.0),))
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
], ids=["alpha_flag", "negative_iterations", "sweep_alphas", "config_alpha",
        "config_prior", "sweep_system_for_task"])
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
