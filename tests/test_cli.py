import hashlib
import io
import json
import os
import subprocess
import sys
import tempfile
import time
from contextlib import redirect_stderr, redirect_stdout
from itertools import islice
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import faadibruno.cli as cli
from faadibruno import bell, coefficients, diffalg, symfunc
from faadibruno.cli import main
from faadibruno.partitions import (
    DEFAULT_WEIGHT_CAP,
    CapExceeded,
    Partition,
    enumerate_partitions,
)

SRC = str(Path(__file__).resolve().parent.parent / "src")
BENCH = Path(__file__).resolve().parent.parent / "bench"


def run_cli(*args, expect: int = 0):
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC + os.pathsep + env.get("PYTHONPATH", "")
    proc = subprocess.run(
        [sys.executable, "-m", "faadibruno", *args],
        capture_output=True,
        text=True,
        env=env,
    )
    assert proc.returncode == expect, (proc.returncode, proc.stderr, proc.stdout)
    return proc


def test_expand_pretty_example():
    proc = run_cli("expand", "--n", "1", "--s", "1", "--format", "pretty")
    assert proc.stdout == "f'·g·φ' + f·g'·φ''\n"


def test_expand_json_roundtrip():
    proc = run_cli("expand", "--n", "2", "--s", "1", "--format", "json")
    data = json.loads(proc.stdout)
    assert data["n"] == 2 and data["s"] == 1
    coeffs = {
        (t["f"], t["g"], tuple(sorted(t["y"].items()))): int(t["coeff"]) for t in data["terms"]
    }
    assert coeffs[(1, 1, (("1", 1), ("2", 1)))] == 2
    assert len(data["terms"]) == 5


def test_expand_verify_flag():
    run_cli("expand", "--n", "4", "--s", "2", "--verify", "--format", "json")


def test_coeff_csv_example():
    proc = run_cli("coeff", "--n", "0", "--s", "3", "--format", "csv")
    assert proc.stdout == "0,,1\n"


def test_coeff_json_schema():
    proc = run_cli("coeff", "--n", "2", "--s", "1", "--format", "json")
    data = json.loads(proc.stdout)
    assert data == {
        "n": 2,
        "s": 1,
        "entries": [
            {"r": 0, "parts": [2], "coeff": "1"},
            {"r": 0, "parts": [1, 1], "coeff": "1"},
            {"r": 1, "parts": [3], "coeff": "1"},
            {"r": 1, "parts": [2, 1], "coeff": "2"},
            {"r": 2, "parts": [2, 2], "coeff": "1"},
        ],
    }


def test_coeff_verify_flag():
    run_cli("coeff", "--n", "5", "--s", "2", "--verify")


def test_partitions_listing():
    proc = run_cli("partitions", "--n", "4", "--format", "json")
    data = json.loads(proc.stdout)
    assert data["count"] == 5
    assert data["partitions"][0] == {"parts": [4]}
    proc = run_cli("partitions", "--n", "0", "--format", "pretty")
    assert proc.stdout == "0\n"


def test_bell_subcommand():
    proc = run_cli("bell", "--n", "2", "--k", "2", "--r", "1", "--s", "0", "--format", "json")
    data = json.loads(proc.stdout)
    assert data["terms"] == [{"y": {"1": 2}, "coeff": "2"}]


def test_stirling_subcommand():
    proc = run_cli("stirling", "--n-max", "2", "--format", "csv")
    assert "2,2,1,2" in proc.stdout.splitlines()


def test_check_subcommand():
    proc = run_cli(
        "check", "--f", "0,0,1", "--g", "0,1", "--phi", "0,0,1", "--n", "2", "--s", "1",
        "--format", "json",
    )
    report = json.loads(proc.stdout)
    assert report["equal"] is True
    assert report["lhs"] == ["0", "0", "0", "40"]


@pytest.mark.parametrize(
    "f, g, phi", [("-1,2", "1", "-1/2"), ("-3/4", "-2,0,1", "1,1"), ("-1", "0,1", "-0,1")]
)
def test_negative_literals_need_no_equals_sign(f, g, phi):
    order = ["--n", "3", "--s", "1"]
    spaced = run_main(["check", "--f", f, "--g", g, "--phi", phi, *order])
    joined = run_main(["check", f"--f={f}", f"--g={g}", f"--phi={phi}", *order])
    assert spaced == joined and spaced[0] in (0, 1) and spaced[2] == ""


def test_a_flag_is_not_read_as_a_literal():
    code, stdout, stderr = run_main(["check", "--f", "--g", "1", "--phi", "0,1", "--n", "2"])
    assert (code, stdout) == (2, b"")
    assert "argument --f: expected one argument" in stderr


def test_usage_errors_exit_2():
    run_cli("expand", expect=2)  # missing --n
    run_cli("expand", "--n", "-1", expect=2)
    run_cli("expand", "--n", "2", "--format", "csv", expect=2)
    run_cli("partitions", "--n", "200", expect=2)  # cap exceeded
    run_cli("nonsense", expect=2)


def test_cap_flag_moves_limit():
    run_cli("partitions", "--n", "15", "--cap", "10", expect=2)
    proc = run_cli("partitions", "--n", "15", "--cap", "15", "--format", "json")
    assert json.loads(proc.stdout)["count"] == 176


def test_stirling_respects_cap():
    proc = run_cli("stirling", "--n-max", "12", "--cap", "5", expect=2)
    assert proc.stdout == ""
    assert proc.stderr.startswith("error: ") and proc.stderr.count("\n") == 1
    proc = run_cli("stirling", "--n-max", "5", "--cap", "5", "--format", "csv")
    assert proc.stdout.count("\n") == 56  # one line per 0 <= r <= k <= n <= 5


def test_verify_small_bounds_pass():
    proc = run_cli("verify", "--max-n", "2", "--max-s", "1", "--trials", "2", "--format", "json")
    report = json.loads(proc.stdout)
    assert report["passed"] is True
    keys = [r["key"] for r in report["identities"]]
    assert "derivative_oracle_matches_formula" in keys
    assert "stirling_convolution_unweighted" in keys


def test_verify_deterministic_output(tmp_path):
    first = tmp_path / "a.json"
    second = tmp_path / "b.json"
    run_cli("verify", "--max-n", "3", "--max-s", "1", "--trials", "3", "--seed", "9",
            "--out", str(first))
    run_cli("verify", "--max-n", "3", "--max-s", "1", "--trials", "3", "--seed", "9",
            "--out", str(second))
    assert first.read_bytes() == second.read_bytes()


def test_out_file_matches_stdout(tmp_path):
    target = tmp_path / "table.json"
    run_cli("coeff", "--n", "2", "--s", "1", "--format", "json", "--out", str(target))
    direct = run_cli("coeff", "--n", "2", "--s", "1", "--format", "json")
    assert target.read_text(encoding="utf-8") == direct.stdout


# sha256 of `partitions --n N --format F` stdout, recorded before listings streamed
PARTITION_LISTING_SHA256 = {
    (0, "json"): "509b2e063f61de7523e9ccee71446c7e1317138f314753b9f19e62ae2fd6a9b6",
    (0, "csv"): "01ba4719c80b6fe911b091a7c05124b64eeece964e09c058ef8f9805daca546b",
    (0, "latex"): "12318b90b7605a29271fd3076af4bac083deb568ed3eb5d5e27be6c5c75ce287",
    (0, "pretty"): "9a271f2a916b0b6ee6cecb2426f0b3206ef074578be55d9bc94f6f3fe3ab86aa",
    (1, "json"): "357149f1b710bf43c1984980c4fb44caef04290aa386aa1987332293e911c1d8",
    (1, "csv"): "4355a46b19d348dc2f57c046f8ef63d4538ebb936000f3c9ee954a27460dd865",
    (1, "latex"): "66141a73bc411e73113b61984eca2bdee822bd4a2ca613116dd51b7c64edc714",
    (1, "pretty"): "4355a46b19d348dc2f57c046f8ef63d4538ebb936000f3c9ee954a27460dd865",
    (12, "json"): "b84ba4521d8ddff27c2b4708c1b3627f7b8726473ad0fa0d6e6ac7aab2c3dd4c",
    (12, "csv"): "7b9d9e2e04af5d1906b33f92846fc6f688cccde84c2684cf5780237077e90d6f",
    (12, "latex"): "fbe4068f487491f6354777fc9aedc643fe8278dd416f2d43dd9c137163900685",
    (12, "pretty"): "cf1f0e63ba24ef5ed086b382b0053836552b4ef0828747f904a08ee18c23fd15",
    # recorded at 1c2eacd, while JSON rows were still dicts run through json
    (50, "json"): "65c80a028108725ce3f4d0f68c6a2cac4da0e7954caaa85f80cf63148163919c",
    # recorded at d71324f, while every line was still rendered along the walk;
    # the csv listing at n = 50 is pinned by bench/golden.json
    (30, "json"): "b3bf0da5b7cbd842c1c01644b7bd7aadbfeaebc3e36f1af5ea12062e8b317a5b",
    (30, "csv"): "1342a7dbe82d72fc4e459d9831056ff9a2d6072f5e4d3313869b2b4f9aeb20ec",
    (30, "latex"): "2192909605f08e609a9bcd48df09c0d4288d85f652f29ac88b1061c406760d7b",
    (30, "pretty"): "9a515b9cf14dad5600b8834a6e518ccc25ead89c920b4195319e24002b6371e1",
    (50, "latex"): "4a6203e2c4d225f15e5eb787e24c001520f483bb9aa557782202334461073ce0",
    (50, "pretty"): "394103aaf60ae25bee7abb02f111b58d8e8c90f7a94de72a69916238801fcc14",
}


@pytest.mark.parametrize("n, fmt", sorted(PARTITION_LISTING_SHA256))
def test_partitions_listing_bytes_unchanged(n, fmt, tmp_path, capsysbinary):
    argv = ["partitions", "--n", str(n), "--format", fmt]
    assert main(argv) == 0
    stdout = capsysbinary.readouterr().out
    assert hashlib.sha256(stdout).hexdigest() == PARTITION_LISTING_SHA256[(n, fmt)]
    target = tmp_path / "listing"
    assert main([*argv, "--out", str(target)]) == 0
    assert target.read_bytes() == stdout


def _rendered_lines(partitions, fmt):
    """Each partition's listing line, rendered from its own parts."""
    if fmt == "json":
        # each item's text as json.dumps renders it in a list one level deep
        head, foot = '{\n  "partitions": [', "\n  ]\n}"
        items = ({"partitions": [{"parts": list(p.parts)}]} for p in partitions)
        return ",".join(json.dumps(item, indent=2)[len(head) : -len(foot)] for item in items)
    joined = {"csv": " ", "pretty": "+", "latex": "+"}[fmt]
    texts = [joined.join(map(str, p.parts)) for p in partitions]
    if fmt == "csv":
        return "".join(f"{text}\n" for text in texts)
    lead, end = ("$", "$ \\\\") if fmt == "latex" else ("", "")
    return "".join(f"{lead}{text or '0'}{end}\n" for text in texts)


LISTING_FORMATS = st.sampled_from(["csv", "pretty", "latex", "json"])


# n up to 32 passes the heaviest block of every format (weight 19 to 27)
@settings(max_examples=40, deadline=None)
@given(st.integers(0, 32), LISTING_FORMATS)
def test_listing_rendered_along_the_walk_equals_the_per_partition_rendering(n, fmt):
    code, stdout, stderr = run_main(["partitions", "--n", str(n), "--format", fmt])
    assert (code, stderr) == (0, "")
    if fmt == "json":
        items = [{"parts": list(p.parts)} for p in enumerate_partitions(n)]
        document = {"n": n, "count": len(items), "partitions": items}
        expected = json.dumps(document, indent=2, ensure_ascii=False) + "\n"
    else:
        expected = _rendered_lines(enumerate_partitions(n), fmt)
    if fmt == "latex":
        expected = f"\\begin{{tabular}}{{l}}\n{expected}\\end{{tabular}}\n"
    assert stdout.decode("utf-8") == expected


@pytest.mark.parametrize("fmt", ["csv", "pretty", "latex", "json"])
def test_listing_pieces_past_the_default_cap_match_the_walk(fmt):
    # --cap lets a listing pass weight 64; its first pieces already walk
    # prefixes above the blocks and render remainders of 1s from their count
    n = 3 * DEFAULT_WEIGHT_CAP
    lead, sep, end, between, _empty = cli._LISTING[fmt]
    text = between.join(islice(cli._listing_pieces(n, *cli._LISTING[fmt]), 200))
    partitions = islice(enumerate_partitions(n, cap=n), text.count(end))
    assert text == _rendered_lines(partitions, fmt)
    # a prefix's last 1 and a block's 1s make a run of at most heaviest + 1
    heaviest = len(cli._listing_blocks(sep, end + between + lead, n)) - 1
    assert f"{sep}1" * (heaviest + 2) in text


def test_listing_work_is_pinned_without_a_clock(monkeypatch):
    # one piece per prefix whose remainder has a block, where a listing written
    # line by line would write 204,226; and the memo holds as many blocks at
    # n = 64 as at n = 50, none over the byte bound
    real, memos, written = cli._listing_blocks, [], []

    def blocks(*args):
        memos.append(real(*args))
        return memos[-1]

    monkeypatch.setattr(cli, "_listing_blocks", blocks)
    monkeypatch.setattr(cli, "_write", lambda chunks, out: written.append(sum(1 for _ in chunks)))
    assert main(["partitions", "--n", "50", "--format", "csv"]) == 0
    assert written == [1965]
    for fmt in ("csv", "json"):
        for n in (50, 64):
            next(cli._listing_pieces(n, *cli._LISTING[fmt]))
    assert list(map(len, memos)) == [28, 28, 28, 20, 20]
    assert max(len(text) for memo in memos for text, _ in memo) <= cli._BLOCK_BYTES


def test_benchmark_listing_matches_its_golden_digest(capsysbinary):
    # the listing the benchmark times, checked against the digest it checks
    argv = "partitions --n 50 --format csv"
    golden = json.loads((BENCH / "golden.json").read_text(encoding="utf-8"))
    assert main(argv.split()) == 0
    stdout = capsysbinary.readouterr().out
    assert hashlib.sha256(stdout).hexdigest() == golden["digests"][argv]


@pytest.mark.parametrize("seed", range(4))
def test_benchmark_verify_matches_its_golden_digest(seed, capsysbinary):
    # the four verify reports the benchmark times, checked against its digests
    argv = f"verify --max-n 7 --max-s 3 --trials 50 --seed {seed}"
    golden = json.loads((BENCH / "golden.json").read_text(encoding="utf-8"))
    assert main(argv.split()) == 0
    stdout = capsysbinary.readouterr().out
    assert hashlib.sha256(stdout).hexdigest() == golden["digests"][argv]


def test_benchmark_tracer_completes_on_a_coeff_and_a_verify_command(tmp_path):
    # bench/tracer.py wraps names of the package by name; a renamed or removed
    # one breaks a traced benchmark run, so run it here on two short commands
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC + os.pathsep + env.get("PYTHONPATH", "")
    out = tmp_path / "raw.json"
    commands = ["coeff --n 4 --s 1 --verify --format csv", "verify --max-n 2 --max-s 1 --trials 2"]
    for argv in commands:
        proc = subprocess.run(
            [sys.executable, str(BENCH / "tracer.py"), "--out", str(out), "--cmd", "0", "--"]
            + argv.split(),
            capture_output=True,
            text=True,
            env=env,
        )
        assert proc.returncode == 0, (argv, proc.stderr)
        raw = json.loads(out.read_text(encoding="utf-8"))
        if argv.startswith("coeff"):
            # one partition handed to the coefficient layer per row
            assert raw["counts"]["partitions.yielded"] == len(proc.stdout.splitlines()) == 19


COEFF_ROWS = st.lists(
    st.tuples(
        st.integers(),
        st.lists(st.integers(1, 10**6), max_size=6).map(lambda p: sorted(p, reverse=True)),
        st.integers(),
    ),
    max_size=6,
)
STIRLING_ROWS = st.lists(st.tuples(*[st.integers()] * 4), max_size=6)


@settings(max_examples=60, deadline=None)
@given(COEFF_ROWS, STIRLING_ROWS)
def test_json_rows_write_the_bytes_of_the_whole_document(coeff_rows, stirling_rows):
    # each table's json item template on drawn rows: no rows, one row, empty
    # parts and integers of any size alike
    tables = [
        (
            coefficients,
            "coefficient_table",
            [(r, Partition(parts), c) for r, parts, c in coeff_rows],
            ["coeff", "--n", "3", "--s", "1"],
            {
                "n": 3,
                "s": 1,
                "entries": [{"r": r, "parts": p, "coeff": str(c)} for r, p, c in coeff_rows],
            },
        ),
        (
            bell,
            "stirling_table",
            stirling_rows,
            ["stirling", "--n-max", "2"],
            {
                "n_max": 2,
                "entries": [
                    {"n": n, "k": k, "r": r, "value": str(v)} for n, k, r, v in stirling_rows
                ],
            },
        ),
    ]
    for module, table, rows, argv, document in tables:
        # the handler reads the builder from its defining module as it runs
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(module, table, lambda *args, rows=rows, **kwargs: iter(rows))
            code, stdout, stderr = run_main([*argv, "--format", "json"])
        assert (code, stderr) == (0, "")
        assert stdout.decode("utf-8") == json.dumps(document, indent=2, ensure_ascii=False) + "\n"


def test_json_rows_read_at_most_one_row_ahead_of_what_they_write():
    read = []

    def lines():
        for k in range(5):
            read.append(k)
            yield f"\n    {k}"

    rows = cli._json_rows(lambda rows: {"entries": rows}, lines())
    assert next(rows) == '{\n  "entries": '
    assert read == []
    for written in range(1, 6):
        next(rows)
        assert len(read) - written in (0, 1)
    assert list(rows) == ["\n  ]\n}\n"]


@pytest.mark.parametrize(
    "argv",
    [
        ["partitions", "--n", "3", "--format", "csv"],  # streamed listing
        ["partitions", "--n", "3", "--format", "json"],  # streamed document
        ["coeff", "--n", "2", "--s", "1"],
    ],
)
def test_unwritable_out_exits_2(argv, tmp_path):
    target = tmp_path / "missing" / "listing"
    proc = run_cli(*argv, "--out", str(target), expect=2)
    assert proc.stdout == ""
    assert proc.stderr.startswith("error: ") and proc.stderr.count("\n") == 1
    assert "Traceback" not in proc.stderr


def test_deep_recurrence_is_computed():
    # the recurrence cross-check walks a decrement chain 1,500 deep
    proc = run_cli("coeff", "--n", "1", "--s", "1500", "--cap", "5000", "--verify")
    assert proc.stdout == "n=1 s=1500\n  r=0  1                  1\n  r=1  1501               1\n"
    assert proc.stderr == ""


# sha256 of the two `coeff-tables` benchmark commands' stdout, copied from
# bench/golden.json, which recorded them at d081a56
COEFF_TABLE_SHA256 = {
    "--n 10 --s 4": "9ee99b13e0e9977b047868ac67dbc2e58293c04bd765b34061c8633bc4c92c49",
    "--n 22 --s 0": "3328b85cbd5087eec0c671f89f97323d5fab7d09d91638ccdae3a67571aca63b",
}


@pytest.mark.parametrize("args", sorted(COEFF_TABLE_SHA256))
def test_verified_coeff_table_bytes_unchanged(args, capsysbinary):
    assert main(["coeff", *args.split(), "--verify", "--format", "csv"]) == 0
    stdout = capsysbinary.readouterr().out
    assert hashlib.sha256(stdout).hexdigest() == COEFF_TABLE_SHA256[args]


# sha256 of `check ...` stdout, recorded before polynomials became integer
# numerators over one common denominator; every coefficient prints as reduced p/q
CHECK_REPORT_SHA256 = {
    "--f 0,0,1 --g 0,1 --phi 0,0,1 --n 2 --s 1":
        "f38ee269bddf89a263b180fa48afa5ab40a796cb63a6ff5022e6f09cf5c03115",
    "--f 1,2/3,0,5 --g 0,1/2 --phi 1/3,1,1 --n 3 --s 1":
        "03905028e57584c0427efefc1ae80082b18a6e196bdb8ebb0b64398be834c23f",
    "--f 1,2/3,0,5 --g 0,1/2 --phi 1/3,1/2,1 --n 3 --s 1":
        "697ddf131a291c057e673b564d18268987f96551647b6ff6bacc5fec5b053921",
    "--f 1,2/3,0,5 --g 0,1/2 --phi 1/3,1,1 --n 0 --s 2":
        "52b2256492d8bf0fb3004d3b9966f23bd58bb1ee7870ebc3970a0e1b89112075",
}


@pytest.mark.parametrize("args", sorted(CHECK_REPORT_SHA256))
def test_check_report_bytes_unchanged(args, capsysbinary):
    assert main(["check", *args.split()]) == 0
    stdout = capsysbinary.readouterr().out
    assert hashlib.sha256(stdout).hexdigest() == CHECK_REPORT_SHA256[args]


# sha256 of stdout for the verify report and every polynomial and table writer,
# recorded at 2e78a05, before the verify suites and the sparse polynomials were
# rebuilt on shared machinery
OUTPUT_SHA256 = {
    "verify --max-n 4 --max-s 2 --trials 5 --seed 0":
        "796ca1ae1049929beb6a54a0267562ea9516915750baa7670a8065e6a50a10d6",
    "verify --max-n 5 --max-s 2 --trials 20 --seed 0":
        "5e86318ded60d861337bda3431c8d3a0ca05a6aaf104ebfe071abbc385d9b861",
    "expand --n 6 --s 2 --format pretty":
        "31a0fd72a700350b69975e560566ed2d3262719907a6f7d4771d19dee3f22dfb",
    "expand --n 6 --s 2 --format latex":
        "bd601f47e352b4e895feb9f79a42693469de7b87bc4ee61ba7b49060258961b5",
    "expand --n 6 --s 2 --format json":
        "cb252564020d206af7318280ece7d058319b7c772cb6e2ee9f892a18ac638889",
    "bell --n 7 --k 3 --r 1 --s 2 --format pretty":
        "8d8b02777af9ac5099bd8e8c4ffa1c118dab0f10b7e241737fdbd9a360c6eced",
    "bell --n 7 --k 3 --r 1 --s 2 --format latex":
        "da061a403260b813e3b974794cfcea023eade5d07fe1ad24059e9bc11b156dc3",
    "bell --n 7 --k 3 --r 1 --s 2 --format json":
        "2323e8a051080467bdb87a275d6acf734dc5fe5ae88e3a9216f7ad129a4cb69a",
    "stirling --n-max 6 --format pretty":
        "0acc5b184c070ec644e06e5c24e8037805fef2a3de93079c1ae41a4cc6461723",
    "stirling --n-max 6 --format csv":
        "e964f0b60f7de3d87a0eea16d708ce91bd0aa3311bc6fa37b8ffdc57ee516323",
    "stirling --n-max 6 --format latex":
        "d3c31d6db514804ccb09d78c9720061ac642894654915213c3faef48fe7dee7f",
    "stirling --n-max 6 --format json":
        "a1d3982ef5cf31dc5041daec3aabc2c19168dc5ddf6a4b38e3a79b45acd878da",
    "coeff --n 5 --s 2 --format pretty":
        "68d1ed5d81d9f097d0c32382b9b45fd2661a3ca662623b1ecfb716c4f3f5e073",
    "coeff --n 5 --s 2 --format latex":
        "554bdb3d8c5aa0839f6a57868f768dfc70bcfebaa28f810bc9e4d87e9937034d",
    "coeff --n 5 --s 2 --format json":
        "fc2f0b1482cc174e900444f822e00c2168495dda5c4f54be3d2a0bdc424ab4c6",
    # one-row tables and a verified pretty table, recorded at 02a18da, before
    # the table renderers moved into the CLI's one row writer
    "coeff --n 0 --s 3 --format json":
        "c0409614c868cfeeb8cc00a9d45b77a07bdf3fcc6bcd66e22ff606de193442c0",
    "coeff --n 0 --s 3 --format latex":
        "0127c4d623962fadaca42c8f730cda807c84d9eec1a8c90fe4449abb7f550a0f",
    "coeff --n 0 --s 3 --format pretty":
        "28c3136a7050e887b30b6c3a0ba1a2742701ef73bdb39a2ec303d542a5c60992",
    "coeff --n 3 --s 1 --verify --format pretty":
        "e9ab18adc020b870e8f179e128a8ae8663c31c3353eb2ae30b21b96213c6c279",
    "stirling --n-max 0 --format pretty":
        "b66229d27f0b330b7247588113debce609cd1523e70348ad241eb7c11ff4047d",
    "stirling --n-max 0 --format csv":
        "c24a57d06dd145e8a8d3a09fba215892976dc8aef183a0697a8ebe4bcfa9013e",
    "stirling --n-max 0 --format latex":
        "bb48962f1bc9f656b663d313b7dd709d6b8ce0281c4cd4a637cb8b44581156fb",
    "stirling --n-max 0 --format json":
        "c34eae8ee1abf6ab9413f033ef19d8553d4f5ba641714bc907e5bd887fac221e",
    # recorded at 3cac714, while the modified Stirling numbers were still a
    # memoized partition sum, before they became binom(k, r) * S(n, k)
    "stirling --n-max 20 --format pretty":
        "501f9b77a7213b927ecb33d170b2ade7b29cc67ab378f60feeb29be346de7383",
    "stirling --n-max 20 --format csv":
        "f950a91803bda331cf2873a633d2b0155c0725fdc35613aa3d0dae85c62cf4ff",
    "stirling --n-max 20 --format latex":
        "13f3fd9b183dbdd5e20242fbc91ac59a1842f164689afca372b6a0149360d0fe",
    "stirling --n-max 20 --format json":
        "bb2c021a159208b18cb7905b230c86d3ec1831c2e4895a18f16b9edc98df6854",
    # verified tables at s > 0, recorded at 9b5544e, while each coefficient was
    # still rebuilt per entry and the recurrence memo was keyed on (parts, r)
    "coeff --n 20 --s 2 --verify --format csv":
        "d189476825a479db6c7d813e1203d71fc6ce11a79cdfc827f7eda8e750a25717",
    "coeff --n 12 --s 3 --verify --format json":
        "b0416a3b28beacae36ccdfd3a0f61885b99372342c15749fa5ee5936b6d48029",
    # a polynomial with no terms, and one whose y and z maps are empty,
    # recorded at 44cd6a6, while terms were still encoded as dicts
    "bell --n 2 --k 3 --format json":
        "40610d5e33cc3ccfca0e5ba604e882a0fdfc43a2bb8176a2cd23941cb3339adf",
    "expand --n 0 --s 0 --format json":
        "127daf490a9cf4a6ee7b78ad03e48eefa5e249659fbdef54f6629ce579ac85ce",
    # the empty product prints as 1, recorded at 39e93b8, while each term
    # renderer still carried its own copy of that rule
    "bell --n 0 --k 0 --format pretty":
        "4355a46b19d348dc2f57c046f8ef63d4538ebb936000f3c9ee954a27460dd865",
    "bell --n 0 --k 0 --format latex":
        "4355a46b19d348dc2f57c046f8ef63d4538ebb936000f3c9ee954a27460dd865",
    # tables whose folded elementary vectors fill wide slots (about 400 bits at
    # (8, 7)), recorded at 0a514bb, while the fold kept that vector as a tuple
    "coeff --n 30 --s 0 --format csv":
        "b42bbc3ae3a860a51af5e1216a852aa6be5edd5500008148e16619f828e4e177",
    "coeff --n 8 --s 7 --format csv":
        "16c8901e70c83afd6905ab84e6f088d0d7d859c63aef5951187d0cf6acf11211",
    "bell --n 30 --k 10 --r 2 --s 0 --format json":
        "cf4d2e9502872ed2eeec083730d5115e277a439094a927677c5d56e0339e1db9",
}


@pytest.mark.parametrize("args", sorted(OUTPUT_SHA256))
def test_output_bytes_unchanged(args, capsysbinary):
    assert main(args.split()) == 0
    stdout = capsysbinary.readouterr().out
    assert hashlib.sha256(stdout).hexdigest() == OUTPUT_SHA256[args]


@pytest.mark.parametrize(
    "argv, message",
    [
        (["expand", "--n", "2", "--s", "1"], "csv output is not defined for expansions\n"),
        (["bell", "--n", "3", "--k", "2"], "csv output is not defined for Bell polynomials\n"),
    ],
)
def test_polynomial_csv_is_refused(argv, message, capsys):
    assert main([*argv, "--format", "csv"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == message


@pytest.mark.parametrize(
    "argv, message",
    [
        (
            ["expand", "--n", "2", "--s", "1", "--verify"],
            "csv output is not defined for expansions\n",
        ),
        (["bell", "--n", "64", "--k", "16"], "csv output is not defined for Bell polynomials\n"),
        # over the cap as well: the refusal on the flags comes first
        (["expand", "--n", "70"], "csv output is not defined for expansions\n"),
    ],
)
def test_polynomial_csv_is_refused_before_any_work(argv, message, monkeypatch, capsys):
    def never(*args, **kwargs):
        raise AssertionError("a refused format must not build a polynomial")

    for module, builder in (
        (diffalg, "formula_expansion"),
        (diffalg, "nth_derivative_expansion"),
        (bell, "modified_partial_bell"),
    ):
        monkeypatch.setattr(module, builder, never)
    assert main([*argv, "--format", "csv"]) == 2
    captured = capsys.readouterr()
    assert (captured.out, captured.err) == ("", message)


def test_over_cap_csv_expansion_stderr_is_pinned():
    proc = run_cli("expand", "--n", "70", "--format", "csv", expect=2)
    assert (proc.stdout, proc.stderr) == ("", "csv output is not defined for expansions\n")


# the package's modules a fresh interpreter holds after importing the package,
# or after running one command in process, and whether fractions is loaded:
# work done before the first byte, counted without a clock
STARTUP_PROBE = """
import sys
import faadibruno
if sys.argv[1:]:
    from faadibruno.cli import main
    assert main(sys.argv[1:]) == 0
print(*sorted(m for m in sys.modules if m.partition(".")[0] == "faadibruno"), file=sys.stderr)
print("fractions" in sys.modules, file=sys.stderr)
"""


def loaded(*modules):
    return {"faadibruno", *(f"faadibruno.{m}" for m in modules)}


LISTING = ("cli", "partitions")
TABLE = (*LISTING, "coefficients", "symfunc")
EVERY_MODULE = {p.stem for p in Path(SRC, "faadibruno").glob("*.py")} - {"__init__", "__main__"}


@pytest.mark.parametrize(
    "argv, modules, fractions",
    [
        ([], loaded(), False),
        (["partitions", "--n", "5", "--format", "csv"], loaded(*LISTING), False),
        (["partitions", "--n", "5", "--format", "json"], loaded(*LISTING), False),
        (["coeff", "--n", "4", "--s", "1", "--verify"], loaded(*TABLE), False),
        (["expand", "--n", "2", "--s", "1"], loaded(*TABLE, "diffalg", "sparse"), False),
        (["bell", "--n", "3", "--k", "2"], loaded(*TABLE, "bell", "sparse"), False),
        (["stirling", "--n-max", "3"], loaded(*TABLE, "bell", "sparse"), False),
        (
            ["check", "--f", "1,2", "--g", "1", "--phi", "0,1", "--n", "2"],
            loaded(*TABLE, "diffalg", "polynomials", "sparse"),
            True,
        ),
        (["verify", "--max-n", "1", "--max-s", "0", "--trials", "1"], loaded(*EVERY_MODULE), True),
    ],
)
def test_each_command_loads_only_the_modules_it_runs(argv, modules, fractions):
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC + os.pathsep + env.get("PYTHONPATH", "")
    proc = subprocess.run(
        [sys.executable, "-c", STARTUP_PROBE, *argv],
        stdout=subprocess.DEVNULL,
        stderr=subprocess.PIPE,
        text=True,
        env=env,
    )
    assert proc.returncode == 0, proc.stderr
    names, has_fractions = proc.stderr.splitlines()
    assert set(names.split()) == modules
    assert has_fractions == str(fractions)


def run_main(argv):
    """(exit code, stdout bytes, stderr text) of one in-process run; argparse exits count."""
    out, err = io.TextIOWrapper(io.BytesIO(), encoding="utf-8"), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as exc:
            code = exc.code
    out.flush()
    return code, out.buffer.getvalue(), err.getvalue()


def assert_out_file_holds(argv, stdout):
    with tempfile.TemporaryDirectory() as tmp:
        target = Path(tmp) / "out"
        assert run_main([*argv, "--out", str(target)]) == (0, b"", "")
        assert target.read_bytes() == stdout


def test_verified_expansion_mismatch_writes_the_difference(monkeypatch):
    # the closed formula one too high on its first term, in terms() order; the
    # document's bytes were recorded at 44cd6a6, while it was a dict encoded whole
    real = diffalg.formula_expansion

    def first_term_one_too_high(n, s, cap):
        poly = real(n, s, cap=cap)
        (mono, _coeff), *_rest = poly.terms()
        return poly + diffalg.DiffPolynomial.term(mono)

    monkeypatch.setattr(diffalg, "formula_expansion", first_term_one_too_high)
    argv = ["expand", "--n", "4", "--s", "2", "--verify", "--format", "json"]
    code, stdout, stderr = run_main(argv)
    assert (code, len(stdout), stderr) == (1, 175, "")
    assert hashlib.sha256(stdout).hexdigest() == (
        "2893250f1dac865982ddec2690a6d2ab6807efb5500de342efd7a2d27c26c104"
    )
    assert json.loads(stdout)["difference"] == [
        {"f": 4, "g": 0, "y": {"1": 4}, "z": {}, "coeff": "1"}
    ]


def test_verified_coeff_mismatch_leaves_the_rows_already_checked(monkeypatch):
    argv = ["coeff", "--n", "3", "--s", "1", "--verify", "--format"]
    clean = {}
    for fmt in ("csv", "json"):
        code, clean[fmt], _stderr = run_main([*argv, fmt])
        assert code == 0
    real = coefficients.constrained_coefficients

    def off_by_one(n, r, s, cap):
        return ((lam, c + (r == 1)) for lam, c in real(n, r, s, cap=cap))

    monkeypatch.setattr(coefficients, "constrained_coefficients", off_by_one)
    failed = {}
    for fmt in ("csv", "json"):
        code, failed[fmt], stderr = run_main([*argv, fmt])
        assert code == 1
        assert stderr.startswith("verification failure: ") and stderr.count("\n") == 1
    # the rows stream out as they are checked: every r = 0 row, then the failure
    checked = [row for row in clean["csv"].splitlines(keepends=True) if row.startswith(b"0,")]
    assert len(checked) == 3
    assert failed["csv"] == b"".join(checked)
    # the json document ends, unclosed, after the same three items
    document = json.loads(clean["json"])
    entries = [entry for entry in document["entries"] if entry["r"] == 0]
    assert len(entries) == 3
    whole = json.dumps({**document, "entries": entries}, indent=2, ensure_ascii=False)
    assert whole.endswith("\n  ]\n}")
    assert failed["json"].decode("utf-8") == whole[: -len("\n  ]\n}")]


@pytest.mark.parametrize(
    "module, builder, argv",
    [
        (coefficients, "coefficient_table", ["coeff", "--n", "40", "--s", "0", "--verify"]),
        (diffalg, "formula_expansion", ["expand", "--n", "40", "--s", "0"]),
        (bell, "modified_partial_bell", ["bell", "--n", "64", "--k", "16", "--format", "json"]),
    ],
)
def test_running_out_of_memory_exits_2_with_one_error_line(module, builder, argv, monkeypatch):
    # the builder raises as an exhausted allocator would; no memory is used up
    def exhausted(*args, **kwargs):
        raise MemoryError

    monkeypatch.setattr(module, builder, exhausted)
    assert run_main(argv) == (2, b"", "error: out of memory\n")


HUGE = str(2**63)  # one past the largest argument of math.perm and math.factorial


@pytest.mark.parametrize(
    "argv, written",
    [
        pytest.param(["coeff", "--n", "1", "--s", HUGE, "--format", "csv"], b"0,1,1\n", id="c-s"),
        pytest.param(["bell", "--n", "1", "--k", "1", "--r", "1", "--s", HUGE], b"", id="bell-s"),
        pytest.param(["coeff", "--n", HUGE, "--s", "0", "--format", "csv"], b"", id="c-n"),
        pytest.param(["expand", "--n", HUGE, "--s", "0"], b"", id="expand-n"),
    ],
)
def test_an_overflow_under_a_raised_cap_exits_2_with_one_error_line(argv, written):
    # the rows written before the overflow stay written, as after running out of memory
    code, stdout, stderr = run_main([*argv, "--cap", "99999999999999999999999"])
    assert (code, stdout) == (2, written)
    assert stderr.startswith("error: ") and stderr.count("\n") == 1


SMALL_VERIFY = ["verify", "--max-n", "3", "--max-s", "1", "--trials", "2"]


def _newton_residuals_raising(error):
    # the newton_identity_residual_zero suite's function raises on its multiset (3, 1)
    real = symfunc.newton_residuals

    def raising(b, r_max):
        if b == (3, 1):
            raise error
        return real(b, r_max)

    return raising


@pytest.mark.parametrize(
    "error", [ValueError("bad residual"), ZeroDivisionError("division by zero"), KeyError(3)]
)
def test_an_exception_inside_a_suite_fails_that_suite_and_exits_1(error, monkeypatch):
    # a library fault is a falsified check, not a bad flag, and the run goes on past it
    clean = json.loads(run_main(SMALL_VERIFY)[1])
    monkeypatch.setattr(symfunc, "newton_residuals", _newton_residuals_raising(error))
    code, stdout, stderr = run_main(SMALL_VERIFY)
    assert (code, stderr) == (1, "")
    report = json.loads(stdout)
    assert report["passed"] is False
    for before, after in zip(clean["identities"], report["identities"], strict=True):
        if before["key"] != "newton_identity_residual_zero":
            assert after == before
            continue
        assert after["failures"] == 1 and after["instances"] <= before["instances"]
        assert after["counterexample"] == {"error": f"{type(error).__name__}: {error}"}


@pytest.mark.parametrize(
    "error, line",
    [
        (CapExceeded("residual reaches weight 9 > cap 8"), "residual reaches weight 9 > cap 8"),
        (MemoryError(), "out of memory"),
        (RecursionError("maximum recursion depth exceeded"), "maximum recursion depth exceeded"),
    ],
)
def test_a_resource_error_inside_a_suite_still_exits_2(error, line, monkeypatch):
    monkeypatch.setattr(symfunc, "newton_residuals", _newton_residuals_raising(error))
    assert run_main(SMALL_VERIFY) == (2, b"", f"error: {line}\n")


@pytest.mark.parametrize("fmt", ["json", "csv", "latex", "pretty"])
@pytest.mark.parametrize(
    "argv", [["coeff", "--n", "40", "--s", "4"], ["stirling", "--n-max", "65"]]
)
def test_over_cap_table_writes_no_byte_and_no_out_file(argv, fmt, tmp_path):
    target = tmp_path / "table"
    for out in ([], ["--out", str(target)]):
        code, stdout, stderr = run_main([*argv, "--format", fmt, *out])
        assert (code, stdout) == (2, b"")
        assert stderr.startswith("error: table (n") and stderr.count("\n") == 1
    assert not target.exists()


FORMAT_FLAGS = st.sampled_from(["json", "csv", "latex", "pretty"])
TABLE_ARGV = st.one_of(
    st.builds(lambda n: ["partitions", "--n", str(n)], st.integers(0, 15)),
    st.builds(
        lambda n, s: ["coeff", "--n", str(n), "--s", str(s)], st.integers(0, 6), st.integers(0, 3)
    ),
    st.builds(lambda n: ["stirling", "--n-max", str(n)], st.integers(0, 8)),
)


@settings(max_examples=60, deadline=None)
@given(TABLE_ARGV, FORMAT_FLAGS, st.integers(1, 20))
def test_row_writer_exits_cleanly_and_out_matches_stdout(argv, fmt, cap):
    argv = [*argv, "--format", fmt, "--cap", str(cap)]
    code, stdout, stderr = run_main(argv)
    assert code in (0, 2), (code, stderr)
    assert "Traceback" not in stderr
    if code == 2:
        assert stdout == b"" and stderr.startswith("error: ")
        return
    assert stdout.endswith(b"\n") and stderr == ""
    if fmt == "json":
        text = stdout.decode("utf-8")
        assert json.dumps(json.loads(text), indent=2, ensure_ascii=False) + "\n" == text
    assert_out_file_holds(argv, stdout)


POLYNOMIAL_ARGV = st.one_of(
    st.integers(0, 6).flatmap(
        lambda n: st.builds(
            lambda k, r, s: ["bell", "--n", str(n), "--k", str(k), "--r", str(r), "--s", str(s)],
            st.integers(0, n + 1),
            st.integers(0, n + 1),
            st.integers(0, 2),
        )
    ),
    st.builds(
        lambda n, s, verify: ["expand", "--n", str(n), "--s", str(s)] + ["--verify"] * verify,
        st.integers(0, 4),
        st.integers(0, 2),
        st.booleans(),
    ),
)


@settings(max_examples=60, deadline=None)
@given(POLYNOMIAL_ARGV, FORMAT_FLAGS, st.integers(1, 20))
def test_polynomial_writers_exit_cleanly_and_out_matches_stdout(argv, fmt, cap):
    argv = [*argv, "--format", fmt, "--cap", str(cap)]
    code, stdout, stderr = run_main(argv)
    assert code in (0, 1, 2), (code, stderr)
    assert "Traceback" not in stderr
    if code == 2:
        # one line: a cap error, or the csv refusal, which has no "error: " prefix
        assert stdout == b"" and stderr.endswith("\n") and stderr.count("\n") == 1
        assert stderr.startswith(("error: ", "csv output is not defined for ")), stderr
    elif code == 0:
        assert_out_file_holds(argv, stdout)


# a polynomial literal of degree <= 3 ("" is the zero polynomial), lowest degree first
POLYNOMIAL_LITERAL = st.lists(
    st.fractions(min_value=-3, max_value=3, max_denominator=4), max_size=4
).map(lambda coeffs: ",".join(map(str, coeffs)))
REPORT_ARGV = st.one_of(
    st.builds(
        # spaced from its flag, though a literal may start with a minus sign
        lambda f, g, phi, n, s: [
            "check", "--f", f, "--g", g, "--phi", phi, "--n", str(n), "--s", str(s)
        ],
        POLYNOMIAL_LITERAL,
        POLYNOMIAL_LITERAL,
        POLYNOMIAL_LITERAL,
        st.integers(0, 4),
        st.integers(0, 2),
    ),
    st.builds(
        lambda n, s, trials, seed: [
            "verify", "--max-n", str(n), "--max-s", str(s), "--trials", str(trials),
            "--seed", str(seed),
        ],
        st.integers(0, 3),
        st.integers(0, 1),
        st.integers(0, 3),
        st.integers(0, 3),
    ),
)


@settings(max_examples=60, deadline=None)
@given(REPORT_ARGV, FORMAT_FLAGS, st.integers(1, 20))
def test_report_writers_exit_cleanly_and_out_matches_stdout(argv, fmt, cap):
    # the theorem holds and every suite passes, so a report never exits 1
    argv = [*argv, "--format", fmt, "--cap", str(cap)]
    code, stdout, stderr = run_main(argv)
    assert code in (0, 2), (code, stderr)
    assert "Traceback" not in stderr
    if code == 2:
        # one line: a cap error, or the JSON-only refusal, which has no "error: " prefix
        assert stdout == b"" and stderr.endswith("\n") and stderr.count("\n") == 1
        assert stderr.startswith("error: ") or stderr == f"{argv[0]} reports are JSON only\n"
        return
    report = json.loads(stdout)
    assert report["equal" if argv[0] == "check" else "passed"] is True
    assert stderr == ""
    assert_out_file_holds(argv, stdout)


def test_seed_belongs_to_verify_alone():
    code, stdout, stderr = run_main(["partitions", "--n", "3", "--seed", "1"])
    assert (code, stdout) == (2, b"")
    assert "unrecognized arguments: --seed 1" in stderr


@pytest.mark.parametrize(
    "order", [["--n", "10000000"], ["--n", "1000000000"], ["--n", "1", "--s", "10000000"]]
)
def test_check_refuses_an_over_cap_order_before_any_work(order):
    start = time.perf_counter()
    code, stdout, stderr = run_main(["check", "--f", "0,1", "--g", "1", "--phi", "0,1", *order])
    assert time.perf_counter() - start < 1.0
    assert (code, stdout) == (2, b"")
    assert stderr.startswith("error: formula expansion (n=") and stderr.endswith(" > cap 64\n")
    assert stderr.count("\n") == 1
