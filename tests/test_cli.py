import json

import numpy as np
import pytest

from hypbo import chemistry
from hypbo.cli import EXIT_CONFIG, EXIT_OK, EXIT_RUNTIME, main


def test_bench_smoke(tmp_path, capsys):
    out = tmp_path / "bench"
    rc = main([
        "bench", "--objective", "sphere:2", "--hypothesis", "good",
        "--trials", "2", "--iters", "4", "--n-init", "3", "--out", str(out),
    ])
    assert rc == EXIT_OK
    assert (out / "summary.json").exists()
    assert (out / "regret.svg").exists()
    assert (out / "trace_hypbo_0.csv").exists()
    assert (out / "trace_random_search_1.csv").exists()
    text = capsys.readouterr().out
    assert "mean final simple regret" in text
    assert str(out) in text


def test_bench_methods_subset(tmp_path):
    out = tmp_path / "v"
    rc = main([
        "bench", "--objective", "sphere:1", "--methods", "vanilla_bo",
        "--trials", "1", "--iters", "3", "--out", str(out),
    ])
    assert rc == EXIT_OK
    assert (out / "trace_vanilla_bo_0.csv").exists()
    assert not (out / "trace_hypbo_0.csv").exists()


def test_run_ini_roundtrip(tmp_path, capsys):
    out = tmp_path / "from_ini"
    ini = tmp_path / "exp.ini"
    ini.write_text(
        "[objective]\nkey = sphere:2\n\n"
        "[hypotheses]\nkeys = good\n\n"
        "[engine]\nn_init = 3\ni_max = 4\nseed = 1\n\n"
        "[methods]\nuse = hypbo, random_search\ntrials = 2\n\n"
        f"[output]\ndir = {out}\n"
    )
    assert main(["run", str(ini)]) == EXIT_OK
    meta = json.loads((out / "summary.json").read_text())
    assert meta["config"]["objective"] == "sphere:2"
    assert meta["config"]["seed"] == 1
    assert meta["config"]["methods"] == ["hypbo", "random_search"]


def test_run_missing_config_is_config_error(tmp_path, capsys):
    rc = main(["run", str(tmp_path / "nope.ini")])
    assert rc == EXIT_CONFIG
    assert "config error" in capsys.readouterr().err


@pytest.mark.parametrize("gamma", ["nan", "inf"])
def test_run_non_finite_gamma_is_config_error(tmp_path, capsys, gamma):
    out = tmp_path / "never"
    ini = tmp_path / "exp.ini"
    ini.write_text(
        "[objective]\nkey = sphere:2\n\n[hypotheses]\nkeys = good\n\n"
        f"[engine]\ngamma = {gamma}\n\n[output]\ndir = {out}\n"
    )
    assert main(["run", str(ini)]) == EXIT_CONFIG
    assert "gamma" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize(
    "option,value,message",
    [
        ("standin_rows", "5", "standin_rows"),
        ("standin_noise_sd", "-1", "standin_noise_sd"),
        ("standin_noise_sd", "nan", "standin_noise_sd"),
        ("standin_noise_sd", "inf", "standin_noise_sd"),
    ],
)
def test_run_bad_standin_is_config_error(tmp_path, capsys, option, value, message):
    out = tmp_path / "never"
    ini = tmp_path / "exp.ini"
    ini.write_text(
        f"[objective]\nkey = standin\n{option} = {value}\n\n"
        f"[hypotheses]\nkeys = what_they_knew\n\n[output]\ndir = {out}\n"
    )
    assert main(["run", str(ini)]) == EXIT_CONFIG
    assert message in capsys.readouterr().err
    assert not out.exists()


def test_her_too_few_standin_rows_is_config_error(tmp_path, capsys):
    out = tmp_path / "never"
    rc = main(["her", "--standin", "5", "--trials", "1", "--out", str(out)])
    assert rc == EXIT_CONFIG
    assert "standin_rows" in capsys.readouterr().err
    assert not out.exists()


def test_bench_unknown_objective_is_config_error(tmp_path, capsys):
    rc = main([
        "bench", "--objective", "mystery:4", "--trials", "1",
        "--iters", "2", "--out", str(tmp_path / "x"),
    ])
    assert rc == EXIT_CONFIG


def test_bench_hypbo_without_hypothesis_is_config_error(tmp_path, capsys):
    rc = main([
        "bench", "--objective", "sphere:2", "--methods", "hypbo",
        "--trials", "1", "--iters", "2", "--out", str(tmp_path / "x"),
    ])
    assert rc == EXIT_CONFIG
    assert "hypothesis" in capsys.readouterr().err


def test_her_standin_smoke(tmp_path, capsys):
    out = tmp_path / "her"
    rc = main([
        "her", "--standin", "30", "--hypotheses", "what_they_knew",
        "--trials", "1", "--iters", "3", "--out", str(out),
    ])
    assert rc == EXIT_OK
    assert (out / "trace_hypbo_0.csv").exists()
    assert (out / "summary.json").exists()


def test_her_csv_data(tmp_path):
    d = chemistry.generate_standin_dataset(30, np.random.default_rng(0))
    csv_path = tmp_path / "bench.csv"
    chemistry.write_csv(d, csv_path)
    out = tmp_path / "res"
    rc = main([
        "her", "--data", str(csv_path), "--hypotheses", "bizarro_world",
        "--trials", "1", "--iters", "3", "--out", str(out),
    ])
    assert rc == EXIT_OK
    meta = json.loads((out / "summary.json").read_text())
    assert meta["config"]["objective"] == "bench.csv"
    assert meta["config"]["objective_kind"] == "oracle"


def test_her_requires_data_or_standin(capsys):
    rc = main(["her", "--trials", "1"])
    assert rc == EXIT_CONFIG
    assert "--data" in capsys.readouterr().err


def test_her_missing_csv_is_config_error(tmp_path, capsys):
    rc = main(["her", "--data", str(tmp_path / "absent.csv"), "--trials", "1"])
    assert rc == EXIT_CONFIG


def test_her_malformed_csv_is_runtime_error(tmp_path, capsys):
    bad = tmp_path / "bad.csv"
    bad.write_text("P10,HER\n5.0,1.0\n")
    rc = main(["her", "--data", str(bad), "--trials", "1", "--iters", "2",
               "--out", str(tmp_path / "o")])
    assert rc == EXIT_RUNTIME
    assert "error" in capsys.readouterr().err


def test_report_roundtrip(tmp_path, capsys):
    out = tmp_path / "rep"
    main([
        "bench", "--objective", "sphere:1", "--methods", "random_search",
        "--trials", "2", "--iters", "3", "--out", str(out),
    ])
    before = json.loads((out / "summary.json").read_text())
    assert main(["report", str(out)]) == EXIT_OK
    after = json.loads((out / "summary.json").read_text())
    assert before == after


@pytest.mark.parametrize("edit", ["drop", "string"])
def test_report_bad_optimum_value_is_config_error(tmp_path, capsys, edit):
    out = tmp_path / "rep"
    main([
        "bench", "--objective", "sphere:1", "--methods", "random_search",
        "--trials", "1", "--iters", "2", "--out", str(out),
    ])
    meta = json.loads((out / "summary.json").read_text())
    if edit == "drop":
        del meta["optimum_value"]
    else:
        meta["optimum_value"] = "high"
    (out / "summary.json").write_text(json.dumps(meta))
    assert main(["report", str(out)]) == EXIT_CONFIG
    assert "optimum_value" in capsys.readouterr().err


def test_report_empty_dir_is_config_error(tmp_path, capsys):
    assert main(["report", str(tmp_path)]) == EXIT_CONFIG


def test_parser_requires_subcommand(capsys):
    with pytest.raises(SystemExit):
        main([])
