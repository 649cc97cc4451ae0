import json
import os
import subprocess
import sys

import pytest

from ramops.cli import main
from ramops.graphalg import R_PRESENTATION
from ramops.ram import operad_dims, presentation
from ramops.ramanujan import predicted_dims
from ramops.reports import canonical_json, make_report
from ramops.suites import run_suite

PKG_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def run_cli(*argv):
    return main(list(argv))


def run_subprocess(*argv):
    return subprocess.run(
        [sys.executable, "-m", "ramops.cli", *argv],
        capture_output=True,
        text=True,
        cwd=PKG_ROOT,
    )


def test_dims_command_matches_prediction(capsys):
    assert run_cli("dims", "--operad", "ram", "--n", "3") == 0
    out = capsys.readouterr().out
    assert "PASS dims_match_prediction" in out
    assert "total 17" in out


def test_dims_json_report(capsys, tmp_path):
    out_file = tmp_path / "report.json"
    assert run_cli("dims", "--operad", "poisson", "--n", "3", "--out", str(out_file)) == 0
    report = json.loads(out_file.read_text())
    assert report["schema_version"] == 1
    assert report["command"] == "dims"
    assert report["tables"]["poisson_dims_n3"] == [[0, 0, 1], [0, 1, 3], [0, 2, 2]]
    assert report["verdicts"][0]["pass"] is True


def test_ralg_dims_command(capsys):
    assert run_cli("ralg-dims", "--n", "3", "--ambient", "forest") == 0
    out = capsys.readouterr().out
    assert "total 17" in out


def test_ralg_dims_full_bound(capsys):
    assert run_cli("ralg-dims", "--n", "5", "--ambient", "full") == 2


def test_ralg_dims_honours_max_arity(capsys):
    assert run_cli("ralg-dims", "--n", "4", "--max-arity", "3") == 2


def test_ramanujan_command(capsys):
    assert run_cli("ramanujan", "--n", "2") == 0
    out = capsys.readouterr().out
    assert '"1 + x + y"' in out


def test_ramanujan_takes_no_engine_options(capsys):
    for option in (["--cache-dir", "x"], ["--max-arity", "3"], ["--timings"]):
        assert run_cli("ramanujan", "--n", "2", *option) == 2


def test_verify_exit_codes_and_content(capsys):
    assert run_cli("verify", "--suite", "lemmas", "--n", "3") == 0
    out = capsys.readouterr().out
    assert "FAIL" not in out
    assert "arnold_hilbert_series" in out


def test_conjecture_command(capsys, tmp_path):
    out_file = tmp_path / "conj.json"
    assert run_cli("conjecture", "--n", "2", "--out", str(out_file)) == 0
    report = json.loads(out_file.read_text())
    assert report["tables"]["isomorphism_n2"] is True
    out = capsys.readouterr().out
    assert "isomorphism=True" in out


def test_conjecture_resource_bound():
    assert run_cli("conjecture", "--n", "9") == 2


def test_resource_bound_before_any_build_reports_no_partial_progress(capsys, tmp_path):
    # the bound is checked before anything is built, so a fresh process has
    # no arity to report
    assert run_cli("dims", "--operad", "ram", "--n", "7", "--cache-dir", str(tmp_path)) == 2
    err = capsys.readouterr().err
    assert "arity 7 exceeds the configured bound 6" in err
    assert "partial progress" not in err


def test_unknown_flag_is_usage_error():
    assert run_cli("dims", "--operad", "unknown-operad", "--n", "2") == 2
    assert run_cli("nonsense") == 2


def test_bad_parameters_are_usage_errors():
    assert run_cli("dims", "--operad", "ram", "--n", "0") == 2
    assert run_cli("ramanujan", "--n", "0") == 2
    assert run_cli("verify", "--suite", "hopf", "--n", "9") == 2


@pytest.mark.parametrize(
    "suite,n", [("hopf", "0"), ("cooperad", "-5"), ("differentials", "1"), ("lemmas", "0")]
)
def test_verify_below_arity_2_is_a_usage_error(suite, n, capsys):
    # no suite has a check below arity 2: an empty pass would be vacuous
    assert run_cli("verify", "--suite", suite, "--n", n) == 2
    assert "n must be >= 2" in capsys.readouterr().err


def test_cache_info_and_clear(tmp_path, capsys):
    cache_dir = str(tmp_path / "cache")
    # a stored component: operad components are rewritings and write no payload
    assert run_cli("ralg-dims", "--n", "2", "--cache-dir", cache_dir) == 0
    files = os.listdir(cache_dir)
    assert files and all(f.endswith(".json") for f in files)
    capsys.readouterr()
    assert run_cli("cache", "info", "--dir", cache_dir) == 0
    out = capsys.readouterr().out
    assert "disk_entries" in out
    assert run_cli("cache", "clear", "--dir", cache_dir) == 0
    assert os.listdir(cache_dir) == []


@pytest.mark.parametrize("below", ("", "sub"))
def test_unusable_cache_dir_exits_2(below, tmp_path, capsys):
    # exit code 1 means a failed check: a cache path under or at a regular
    # file is reported on one line, with no traceback
    blocker = tmp_path / "file"
    blocker.write_text("")
    cache_dir = str(blocker / below) if below else str(blocker)
    assert run_cli("ralg-dims", "--n", "3", "--cache-dir", cache_dir) == 2
    err = capsys.readouterr().err
    assert err.startswith("file error: ") and err.count("\n") == 1


def test_cache_roundtrip_preserves_results(tmp_path):
    cache_dir = str(tmp_path / "cache")
    first = run_subprocess("dims", "--operad", "ram", "--n", "3", "--cache-dir", cache_dir, "--json")
    second = run_subprocess("dims", "--operad", "ram", "--n", "3", "--cache-dir", cache_dir, "--json")
    assert first.returncode == 0 and second.returncode == 0
    assert first.stdout == second.stdout


def test_package_runs_as_a_module():
    result = subprocess.run(
        [sys.executable, "-m", "ramops", "ramanujan", "--n", "2"],
        capture_output=True,
        text=True,
        cwd=PKG_ROOT,
    )
    assert result.returncode == 0, result.stderr
    assert result.stdout.strip()


def test_golden_report_bytes():
    golden = os.path.join(os.path.dirname(os.path.abspath(__file__)), "data", "golden_ramanujan_n3.json")
    with open(golden, "r", encoding="utf-8") as fh:
        expected = fh.read()
    result = run_subprocess("ramanujan", "--n", "3", "--json")
    assert result.returncode == 0
    assert result.stdout == expected


@pytest.mark.parametrize(
    "argv, golden",
    [
        (("dims", "--operad", "ram", "--n", "3"), "golden_dims_ram_n3.json"),
        (("conjecture", "--n", "3"), "golden_conjecture_n3.json"),
        (("conjecture", "--n", "4"), "golden_conjecture_n4.json"),
        (("ralg-dims", "--n", "3", "--ambient", "full", "--rank-report"), "golden_ralg_dims_full_n3.json"),
        (("verify", "--suite", "lemmas", "--n", "3"), "golden_verify_lemmas_n3.json"),
    ],
)
def test_json_report_matches_golden_bytes(capsys, argv, golden):
    with open(os.path.join(PKG_ROOT, "tests", "data", golden), "r", encoding="utf-8") as fh:
        expected = fh.read()
    assert run_cli(*argv, "--json") == 0
    assert capsys.readouterr().out == expected


def test_dims_ram_n7_report_matches_golden_bytes(capsys):
    # `ramops dims --operad ram --n 7 --max-arity 7 --json`, written when the
    # dims came from the 468,593 listed basis trees; they are counted now
    with open(os.path.join(PKG_ROOT, "tests", "data", "golden_dims_ram_n7.json"), encoding="utf-8") as fh:
        expected = fh.read()
    assert run_cli("dims", "--operad", "ram", "--n", "7", "--max-arity", "7", "--json") == 0
    assert capsys.readouterr().out == expected


@pytest.mark.parametrize(
    "argv",
    [
        ("dims", "--operad", "ram", "--n", "3"),
        ("ralg-dims", "--n", "3"),
        ("verify", "--suite", "lemmas", "--n", "3"),
        ("conjecture", "--n", "3"),
    ],
)
def test_timings_add_only_the_total(capsys, argv):
    assert run_cli(*argv, "--json") == 0
    plain = json.loads(capsys.readouterr().out)
    assert run_cli(*argv, "--json", "--timings") == 0
    timed = json.loads(capsys.readouterr().out)
    timings = timed.pop("timings")
    assert list(timings) == ["total"] and isinstance(timings["total"], float)
    assert plain.pop("timings") is None and timed == plain


def test_conjecture_at_arity_six_is_recorded():
    # `ramops conjecture --n 6 --max-arity 6 --json`, about 100 s and 1.3 GB
    # cold: read back against the prediction and the operad side's dims
    with open(os.path.join(PKG_ROOT, "tests", "data", "golden_conjecture_n6.json"), encoding="utf-8") as fh:
        report = json.load(fh)
    assert report["presentation_hashes"] == {"ram": presentation("ram").hash, R_PRESENTATION.name: R_PRESENTATION.hash}
    assert all(v["pass"] for v in report["verdicts"]) and report["tables"]["isomorphism_n6"] is True
    blocks = report["tables"]["conjecture_blocks_n6"]
    assert {(h, w): dual for h, w, _, dual, _, _ in blocks} == predicted_dims(6)
    assert {(h, w): dim for h, w, dim, _, _, _ in blocks} == operad_dims("ram", 6)
    assert all(rank == dim == dual and iso == 1 for _, _, dim, dual, rank, iso in blocks)


def test_verify_all_n4_report_matches_golden_bytes():
    # the canonical report of run_suite("all", 4, seed=0), 809 verdicts
    golden = os.path.join(os.path.dirname(os.path.abspath(__file__)), "data", "golden_verify_all_n4.json")
    with open(golden, "r", encoding="utf-8") as fh:
        expected = fh.read()
    verdicts, tables = run_suite("all", 4, seed=0)
    report = make_report("verify", {"suite": "all", "n": 4}, verdicts, tables, seed=0)
    assert len(verdicts) == 809
    assert canonical_json(report) == expected


def test_verify_reports_are_byte_identical_across_processes():
    a = run_subprocess("verify", "--suite", "all", "--n", "2", "--json")
    b = run_subprocess("verify", "--suite", "all", "--n", "2", "--json")
    assert a.returncode == 0 and b.returncode == 0
    assert a.stdout == b.stdout
    assert a.stdout.strip()
    report = json.loads(a.stdout)
    assert report["seed"] == 0
    assert all(v["pass"] for v in report["verdicts"])
