import contextlib
import csv
import io
import json
import subprocess
import sys
import time
import warnings
from importlib import resources

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from conftest import partitions
from twistlab import cli, criteria, errors, mullineux, search, specht
from twistlab.cli import main
from twistlab.partitions import Partition


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_mull_example(capsys):
    code, out, _ = run_cli(capsys, "mull", "--p", "5", "--lambda", "15,15")
    assert code == 0
    assert json.loads(out)["mullineux"] == [10, 10, 10]


def test_mull_with_symbol(capsys, monkeypatch):
    # the map is read off the symbol the payload shows; a second strip is waste
    strips = []
    mullineux_symbol = mullineux.mullineux_symbol

    def counting(lam, p):
        strips.append(lam)
        return mullineux_symbol(lam, p)

    monkeypatch.setattr(cli, "mullineux_symbol", counting)
    monkeypatch.setattr(mullineux, "mullineux_symbol", counting)
    code, out, _ = run_cli(capsys, "mull", "--p", "5", "--lambda", "15,15", "--show-symbol")
    assert code == 0
    assert len(strips) == 1
    payload = {"p": 5, "input": [15, 15], "mullineux": [10, 10, 10],
               "symbol": {"a": [5] * 6, "r": [2] * 6}}
    assert out == json.dumps(payload, indent=2) + "\n"


def test_tau_prints_a_bare_array(capsys):
    code, out, _ = run_cli(capsys, "tau", "--p", "5", "--n", "20")
    assert code == 0
    assert json.loads(out) == [4, 4, 4, 4, 4]


def test_domain_error_exits_one(capsys):
    code, _, err = run_cli(capsys, "mull", "--p", "3", "--lambda", "2,2,2")
    assert code == 1
    assert "NotPRegular" in err


@pytest.mark.parametrize(
    "argv, error",
    [
        (("mull", "--p", "4", "--lambda", "2,1"), "NotPrime"),
        (("specht", "h0", "--p", "4", "--lambda", "2,1"), "NotPrime"),
        (("specht", "h0", "--p", "131", "--lambda", "2,1"), "Overflow"),
    ],
)
def test_bad_primes_exit_one(capsys, argv, error):
    code, out, err = run_cli(capsys, *argv)
    assert code == 1
    assert out == ""
    assert err.startswith(f"{error}: ")


@pytest.mark.parametrize(
    "argv, error",
    [
        ("abacus --p 0 --lambda 2,1", "HypothesisViolated"),
        ("abacus --p -3 --lambda 2,1", "HypothesisViolated"),
        ("abacus --p 1 --lambda 2,1", "HypothesisViolated"),
        ("search census --p 0 --d 4", "HypothesisViolated"),
        ("search census --p 1 --d 4", "HypothesisViolated"),
        ("search census --p 3 --d -1", "HypothesisViolated"),
        ("search fixed-points --p 1 --d 4", "NotPrime"),
        ("search fixed-points --p 4 --d 100", "NotPrime"),
        ("search fixed-points --p 5 --d -2", "HypothesisViolated"),
        ("search p-image --p 1 --d 4", "NotPrime"),
        ("search ks-stability --p 9 --d 1000", "NotPrime"),
        ("tau --p 5 --n 0", "HypothesisViolated"),
        ("tau --p 5 --n -3", "HypothesisViolated"),
        ("search multi-twist --p 5 --lambda 2,1 --max-b 1", "HypothesisViolated"),
        ("search multi-twist --p 0 --lambda 2,1 --max-b 2", "NotPrime"),
        ("search multi-twist --p -2 --lambda 2,1 --max-b 3", "NotPrime"),
        ("tau --p 3 --n 5 --out no-such-directory/x.json", "TwistlabError"),
        ("tau --p 3 --n 5 --out .", "TwistlabError"),
    ],
)
def test_bad_inputs_name_a_twistlab_error(capsys, argv, error):
    code, out, err = run_cli(capsys, *argv.split())
    assert code == 1
    assert out == ""
    assert err.startswith(f"{error}: ")
    assert issubclass(getattr(errors, error), errors.TwistlabError)


_FUZZ_P = st.integers(min_value=-2, max_value=200)


def _arg(lam):
    return ",".join(map(str, lam.parts))


_FUZZ_ARGV = st.one_of(
    st.builds(
        lambda command, p, lam: [*command, "--p", str(p), "--lambda", _arg(lam)],
        st.sampled_from(
            [("mull",), ("mull", "--show-symbol"), ("symbol",), ("specht", "h0"), ("abacus",),
             ("hat",), ("h0",), ("specht", "decomposable")]
        ),
        _FUZZ_P,
        partitions(max_size=5),
    ),
    st.builds(
        lambda command, p, lam, mu: [*command, "--p", str(p), "--lam", _arg(lam), "--mu", _arg(mu)],
        st.sampled_from([("ks-ext",), ("specht", "hom")]),
        _FUZZ_P,
        partitions(max_size=5),
        partitions(max_size=5),
    ),
    st.builds(lambda d, r: ["murphy", "--d", str(d), "--r", str(r)], st.integers(-2, 40),
              st.integers(-2, 12)),
    st.builds(lambda p, n: ["tau", "--p", str(p), "--n", str(n)], _FUZZ_P, st.integers(-3, 30)),
    st.builds(
        lambda which, p, d: ["search", which, "--p", str(p), "--d", str(d)],
        st.sampled_from(["census", "fixed-points", "p-image", "persistence", "ks-stability"]),
        _FUZZ_P,
        st.integers(-2, 8),
    ),
    st.builds(
        lambda p, lam, b: ["search", "multi-twist", "--p", str(p), "--lambda", _arg(lam),
                           "--max-b", str(b)],
        _FUZZ_P,
        partitions(max_size=4),
        st.integers(-1, 4),
    ),
)


@settings(max_examples=400, deadline=None)
@given(argv=_FUZZ_ARGV)
def test_fuzzed_primes_and_shapes_end_in_an_exit_code(argv):
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as exc:
            code = exc.code
    assert code in (0, 1, 2, 64), (argv, err.getvalue())
    assert "Traceback" not in err.getvalue()
    if code == 1:
        # every refusal names the TwistlabError behind it
        name = err.getvalue().split(":", 1)[0]
        assert issubclass(getattr(errors, name, type(None)), errors.TwistlabError), (argv, name)


def test_malformed_partition_is_a_usage_error(capsys):
    with pytest.raises(SystemExit) as info:
        main(["mull", "--p", "5", "--lambda", "3,9"])
    assert info.value.code == 64
    with pytest.raises(SystemExit) as info:
        main(["mull", "--p", "5", "--lambda", "4,x"])
    assert info.value.code == 64


@pytest.mark.parametrize(
    "argv",
    [
        "abacus --p 2 --lambda 99999999999999999999",
        "mull --p 3 --lambda 99999999999999999999,5",
        "ks-ext --p 3 --lam 9223372036854775808 --mu 2",
        "specht hom --p 2 --lam 2 --mu 99999999999999999999",
    ],
)
def test_parts_past_64_bits_are_usage_errors(capsys, argv):
    with pytest.raises(SystemExit) as info:
        main(argv.split())
    err = capsys.readouterr().err
    assert info.value.code == 64
    assert "Overflow: part " in err and "Traceback" not in err


@pytest.mark.parametrize(
    "argv, code, error",
    [
        ("abacus --p 2 --lambda 100000000", 0, None),
        ("abacus --p 2 --lambda 9223372036854775807", 0, None),
        ("abacus --p 1000000007 --lambda 3,1 --beads 2", 0, None),
        ("abacus --p 2 --lambda 1 --beads 10000000", 1, "TooLarge"),
        ("abacus --p 1000000007 --lambda 3,1", 0, None),
        ("hat --p 1000000007 --lambda 3,1", 1, "TooLarge"),
        ("hat --p 1000003 --lambda 3,1", 1, "TooLarge"),
        ("tau --p 3 --n 10000000", 1, "TooLarge"),
        ("tau --p 3 --n 1000000000", 1, "TooLarge"),
        ("tau --p 100003 --n 1000000000", 1, "TooLarge"),
        ("specht h0 --p 2 --lambda 2000", 1, "TooLarge"),
        ("specht h0 --p 2 --lambda 20000", 1, "TooLarge"),
        ("specht h0 --p 2 --lambda 1000000000", 1, "TooLarge"),
        ("specht hom --p 2 --lam 1000000 --mu 1000000", 1, "TooLarge"),
        ("murphy --d 201 --r 100", 1, "TooLarge"),
        ("murphy --d 321 --r 160", 1, "TooLarge"),
        ("search census --p 2 --d 80", 1, "TooLarge"),
        ("search fixed-points --p 2 --d 90", 1, "TooLarge"),
        ("search ks-stability --p 3 --d 20000", 1, "TooLarge"),
        ("symbol --p 3 --lambda 29999999,1", 1, "TooLarge"),
        ("symbol --p 3 --lambda 999999999999,1", 1, "TooLarge"),
        ("mull --p 3 --lambda 999999999999,1 --show-symbol", 1, "TooLarge"),
    ],
)
def test_huge_abacus_calls_end_quickly(capsys, argv, code, error):
    # every command whose input size once escaped a budget, the abacus first;
    # the m((n)) run at p = 100003 makes about 20 single steps of 10^5 rows
    # before the row-step budget refuses it
    seconds = 5.0 if argv == "tau --p 100003 --n 1000000000" else 1.0
    start = time.perf_counter()
    got, out, err = run_cli(capsys, *argv.split())
    assert time.perf_counter() - start < seconds
    assert got == code and "Traceback" not in err
    if error:
        assert (out, err.split(":")[0]) == ("", error)
    else:
        assert err.splitlines()[-1].endswith("not drawn)")
        assert len(err) < 50_000


# scans that once ran unbounded, each with the class it must end in
_RUNAWAY_SCANS = [
    ("search census --p 2 --d 80", "TooLarge"),
    ("search fixed-points --p 2 --d 90", "TooLarge"),
    ("search persistence --p 2 --d 1000000000000000000", "TooLarge"),
    ("search ks-stability --p 3 --d 20000", "TooLarge"),
    ("search multi-twist --p 2 --lambda '' --max-b 100000", "TooLarge"),
    ("search multi-twist --p 3 --lambda 1 --max-b 1000000000", "Overflow"),
]


def test_runaway_scans_exit_one_in_a_subprocess():
    # a subprocess with a timeout, so a scan that escapes its budget fails
    # this test instead of hanging the run
    for argv, error in _RUNAWAY_SCANS:
        args = [arg.strip("'") for arg in argv.split()]
        proc = subprocess.run([sys.executable, "-m", "twistlab.cli", *args],
                              capture_output=True, text=True, timeout=2)
        assert proc.returncode == 1, argv
        assert (proc.stdout, proc.stderr.split(":")[0]) == ("", error), argv


def test_conjugate_past_the_row_limit_is_refused(tmp_path, capsys):
    assert Partition((100_000,)).conjugate() == Partition([1] * 100_000)
    with pytest.raises(errors.TooLarge):
        Partition((10**6,)).conjugate()
    # m((10^12)) at p = 3 is (5*10^11, 5*10^11): cheap to map, too long to transpose
    fixture = {"id": "big", "kind": "mull", "expected": [1],
               "inputs": {"p": 3, "lambda": [10**12], "conjugate": True}}
    path = tmp_path / "big.json"
    path.write_text(json.dumps([fixture]))
    code, out, err = run_cli(capsys, "verify", str(path))
    assert (code, out) == (1, "")
    assert err.splitlines()[-1].startswith("TooLarge: fixture 'big': ")


def test_symbol_rows_write_the_columns_out_once(capsys, monkeypatch):
    expanded = []
    columns = mullineux.MullineuxSymbol.columns

    def counting(sym):
        expanded.append(sym)
        return columns.fget(sym)

    monkeypatch.setattr(mullineux.MullineuxSymbol, "columns", property(counting))
    for argv in (["symbol", "--p", "5", "--lambda", "15,15"],
                 ["mull", "--p", "5", "--lambda", "15,15", "--show-symbol"]):
        expanded.clear()
        code, out, _ = run_cli(capsys, *argv)
        assert code == 0 and len(expanded) == 1, argv
        rows = json.loads(out)
        assert rows.get("symbol", rows)["a"] == [5] * 6


def test_unknown_subcommand_is_a_usage_error(capsys):
    with pytest.raises(SystemExit) as info:
        main(["frobnicate"])
    assert info.value.code == 64


# one value for each argument key of cli._ARGS that a command can require
_MINIMAL = {"p": "3", "n": "5", "d": "4", "r": "2", "lambda": "2,1", "lam": "2,1",
            "mu": "2,1", "max_b": "2"}


def _minimal_argv(name, keys):
    argv = name.split()
    for key in keys:
        if key in _MINIMAL:
            argv += ["--" + key.replace("_", "-"), _MINIMAL[key]]
    return argv


@pytest.mark.parametrize("name", list(cli._COMMANDS))
def test_every_declared_command_reaches_its_handler(name):
    row = cli._COMMANDS[name]
    args = cli._build_parser().parse_args(_minimal_argv(name, row.keys))
    assert args.handler is row.handler
    # the handler reads its inputs by argument key, and every flagged key is parsed under it
    assert {key for key in row.keys if cli._ARGS[key][0]} <= set(vars(args))


def test_main_builds_the_parser_once_per_process(capsys, monkeypatch):
    built = []
    init = cli._Parser.__init__

    def counting(self, *args, **kwargs):
        built.append(kwargs.get("prog"))
        init(self, *args, **kwargs)

    monkeypatch.setattr(cli._Parser, "__init__", counting)
    cli._build_parser.cache_clear()
    for _ in range(2):
        assert run_cli(capsys, "tau", "--p", "3", "--n", "5")[0] == 0
    assert built.count("twistlab") == 1


@pytest.mark.parametrize("argv", [[], ["specht"], ["search", "census"], ["mull"]])
def test_help_from_the_shared_parser_matches_a_fresh_build(capsys, argv):
    outs = []
    for _ in range(2):
        with pytest.raises(SystemExit) as info:
            main(argv + ["--help"])
        assert info.value.code == 0
        outs.append(capsys.readouterr().out)
    with pytest.raises(SystemExit):
        cli._build_parser.__wrapped__().parse_args(argv + ["--help"])
    assert outs[0] == outs[1] == capsys.readouterr().out


@pytest.mark.parametrize("which", list(search._SCANS))
def test_each_scan_requires_exactly_its_inputs(capsys, which):
    keys = search._SCANS[which][1]
    argv = _minimal_argv(f"search {which}", keys)
    assert len(argv) == 2 + 2 * len(keys)  # a flag for every input the scan reads
    code, out, _ = run_cli(capsys, *argv)
    assert code in (0, 2) and json.loads(out)["search"] == which
    for i in range(2, len(argv), 2):
        with pytest.raises(SystemExit) as info:
            main(argv[:i] + argv[i + 2:])
        assert info.value.code == 64
        assert f"the following arguments are required: {argv[i]}" in capsys.readouterr().err


def test_hat_and_symbol_commands(capsys):
    code, out, _ = run_cli(capsys, "hat", "--p", "3", "--lambda", "4,2,1")
    payload = json.loads(out)
    assert code == 0
    assert payload["holds"] is True
    assert payload["mullineux_of_hat"] == payload["expected"] == [8, 4, 2]

    code, out, _ = run_cli(capsys, "symbol", "--p", "5", "--lambda", "15,15")
    assert json.loads(out) == {"p": 5, "lambda": [15, 15], "a": [5] * 6, "r": [2] * 6}


def test_hat_maps_the_hat_once(capsys, monkeypatch):
    # the image m(hat lam) decides "holds" as well; a second map is waste
    maps = []
    mullineux_map = mullineux.mullineux_map

    def counting(lam, p):
        maps.append(lam)
        return mullineux_map(lam, p)

    monkeypatch.setattr(cli, "mullineux_map", counting)
    monkeypatch.setattr(mullineux, "mullineux_map", counting)
    code, out, _ = run_cli(capsys, "hat", "--p", "3", "--lambda", "4,2,1")
    assert code == 0
    assert len(maps) == 1
    payload = {
        "p": 3,
        "lambda": [4, 2, 1],
        "hat": [4, 4, 2, 2, 1, 1],
        "mullineux_of_hat": [8, 4, 2],
        "expected": [8, 4, 2],
        "holds": True,
    }
    assert out == json.dumps(payload, indent=2) + "\n"


def test_abacus_picture_goes_to_stderr(capsys):
    code, out, err = run_cli(capsys, "abacus", "--p", "3", "--lambda", "4,2,1")
    assert code == 0
    payload = json.loads(out)
    assert payload["core"] == [1]
    assert payload["weight"] == 2
    assert set("o.\n") >= set(err)


def test_ks_and_h0_certificates(capsys):
    code, out, _ = run_cli(capsys, "ks-ext", "--p", "3", "--lam", "20,9", "--mu", "26,3")
    payload = json.loads(out)
    assert (payload["result"], payload["certificate"]) == (1, 1)

    code, out, _ = run_cli(capsys, "h0", "--p", "3", "--lambda", "8,4,3")
    payload = json.loads(out)
    assert payload["result"] is False
    assert payload["certificate"] == 2


def test_murphy_command(capsys):
    code, out, _ = run_cli(capsys, "murphy", "--d", "13", "--r", "4")
    payload = json.loads(out)
    assert payload["result"] == {"end_dim": 3, "indecomposable": False}
    assert payload["certificate"] == {"summands": 2}


def test_murphy_counts_the_summands_once(capsys, monkeypatch):
    # the certificate and the indecomposable flag read one count
    counted = []
    summand_count = criteria.murphy_summand_count

    def counting(d, r):
        counted.append((d, r))
        return summand_count(d, r)

    monkeypatch.setattr(cli, "murphy_summand_count", counting)
    monkeypatch.setattr(criteria, "murphy_summand_count", counting)
    code, out, _ = run_cli(capsys, "murphy", "--d", "13", "--r", "4")
    assert code == 0 and counted == [(13, 4)]
    payload = {"inputs": {"d": 13, "r": 4}, "result": {"end_dim": 3, "indecomposable": False},
               "certificate": {"summands": 2}}
    assert out == json.dumps(payload, indent=2) + "\n"


def test_specht_subcommands(capsys):
    code, out, _ = run_cli(capsys, "specht", "hom", "--p", "2", "--lam", "3,1,1", "--mu", "3,1,1")
    assert json.loads(out)["result"] == 2

    code, out, _ = run_cli(capsys, "specht", "decomposable", "--p", "2", "--lambda", "5,1,1")
    payload = json.loads(out)
    assert payload["result"] is True
    assert payload["method"] == "enumerated"

    code, out, _ = run_cli(capsys, "specht", "h0", "--p", "3", "--lambda", "2,2")
    assert json.loads(out)["result"] == 1


def test_decomposable_past_the_idempotent_budget_exits_one(capsys, monkeypatch):
    monkeypatch.setattr(specht, "_IDEMPOTENT_WORK", 1)
    code, out, err = run_cli(capsys, "specht", "decomposable", "--p", "2", "--lambda", "5,1,1")
    assert (code, out) == (1, "")
    assert err.startswith("TooLarge: ")


def test_scans_are_looked_up_when_they_run(capsys, monkeypatch):
    calls = []
    real = search.census

    def spy(*args):
        calls.append(args)
        return real(*args)

    monkeypatch.setattr(search, "census", spy)
    code, _, _ = run_cli(capsys, "search", "census", "--p", "3", "--d", "4")
    fixture = {"kind": "search", "inputs": {"search": "census", "d": 5, "p": 2},
               "expected": {"counterexamples": 0}}
    assert code == 0 and cli._answer(fixture) == {"counterexamples": 0}
    assert calls == [(4, 3), (5, 2)]


def test_specht_h0_answers_thin_shapes_through_the_conjugate(capsys):
    # (1^9) has 362,880 tabloids; its conjugate (9) has one
    code, out, err = run_cli(capsys, "specht", "h0", "--p", "2", "--lambda", ",".join("1" * 9))
    assert (code, err) == (0, "")
    assert json.loads(out) == {"dims": [1], "result": 1, "method": "enumerated"}
    code, out, _ = run_cli(capsys, "specht", "h0", "--p", "3", "--lambda", ",".join("1" * 9))
    assert json.loads(out)["result"] == 0


def test_search_exit_codes_and_payload(capsys):
    code, out, _ = run_cli(capsys, "search", "fixed-points", "--p", "5", "--d", "6")
    payload = json.loads(out)
    assert code == 0
    assert [h["lambda"] for h in payload["hits"]] == [[3, 3], [2, 2, 2]]

    code, out, _ = run_cli(capsys, "search", "persistence", "--p", "3", "--d", "8")
    assert code == 0
    assert json.loads(out)["counterexamples"] == []


def test_csv_carries_the_same_data_as_json(capsys):
    _, out_json, _ = run_cli(capsys, "murphy", "--d", "9", "--r", "4")
    _, out_csv, _ = run_cli(capsys, "murphy", "--d", "9", "--r", "4", "--format", "csv")
    payload = json.loads(out_json)
    header, row = list(csv.reader(io.StringIO(out_csv)))
    rebuilt = {key: json.loads(value) for key, value in zip(header, row)}
    assert rebuilt == payload


def test_csv_search_rows_match_hits(capsys):
    _, out_json, _ = run_cli(capsys, "search", "multi-twist", "--p", "5", "--lambda", "2,1", "--max-b", "3")
    _, out_csv, _ = run_cli(
        capsys, "search", "multi-twist", "--p", "5", "--lambda", "2,1", "--max-b", "3",
        "--format", "csv",
    )
    hits = json.loads(out_json)["hits"]
    rows = list(csv.DictReader(io.StringIO(out_csv)))
    assert len(rows) == len(hits)
    for row, hit in zip(rows, hits):
        assert row["kind"] == "hit"
        for key, value in hit.items():
            assert json.loads(row[key]) == value


def test_table_format_renders(capsys):
    code, out, _ = run_cli(capsys, "murphy", "--d", "9", "--r", "4", "--format", "table")
    assert code == 0
    assert "end_dim" in out


def test_out_writes_the_same_bytes(tmp_path, capsys):
    target = tmp_path / "result.json"
    run_cli(capsys, "tau", "--p", "5", "--n", "20", "--out", str(target))
    _, out, _ = run_cli(capsys, "tau", "--p", "5", "--n", "20")
    assert target.read_text() == out


def test_verify_packaged_fixtures(capsys):
    code, out, err = run_cli(capsys, "verify")
    assert code == 0
    payload = json.loads(out)
    assert payload["failed"] == []
    assert payload["checked"] == payload["passed"] > 20
    assert sum(line.startswith("ok ") for line in err.splitlines()) == payload["checked"]


def test_verify_empty_file(tmp_path, capsys):
    empty = tmp_path / "none.json"
    empty.write_text("")
    code, out, _ = run_cli(capsys, "verify", str(empty))
    assert code == 0
    assert json.loads(out) == {"checked": 0, "passed": 0, "failed": []}


def test_verify_flags_a_tampered_value(tmp_path, capsys):
    fixtures = [
        {
            "id": "tau-good",
            "kind": "tau",
            "inputs": {"p": 5, "n": 20},
            "expected": [4, 4, 4, 4, 4],
            "source": "check",
        },
        {
            "id": "tau-tampered",
            "kind": "tau",
            "inputs": {"p": 5, "n": 20},
            "expected": [5, 5, 5, 5],
            "source": "check",
        },
    ]
    path = tmp_path / "fx.json"
    path.write_text(json.dumps(fixtures))
    code, out, err = run_cli(capsys, "verify", str(path))
    assert code == 1
    assert json.loads(out)["failed"] == ["tau-tampered"]
    assert "FAIL tau-tampered" in err


def test_verify_rejects_a_file_that_is_not_utf8(tmp_path, capsys):
    path = tmp_path / "latin1.json"
    path.write_bytes(b'[{"id": "caf\xe9"}]\xff')
    code, out, err = run_cli(capsys, "verify", str(path))
    assert code == 1
    assert out == ""
    assert err.startswith("TwistlabError: ") and "utf-8" in err


def test_verify_reports_parse_errors_with_line_numbers(tmp_path, capsys):
    path = tmp_path / "broken.json"
    path.write_text('[\n{"id": "x",}\n]')
    code, _, err = run_cli(capsys, "verify", str(path))
    assert code == 1
    assert "line 2" in err


@pytest.mark.parametrize(
    "fixtures, named",
    [
        ([{"id": "x", "inputs": {}}], "'x'"),
        ([{"id": "x", "kind": "tau", "expected": [4]}], "'x'"),
        ([{"id": "x", "kind": "tau", "inputs": {"p": 5}}], "'x'"),
        ([{"id": "x", "kind": "tau", "inputs": {"p": 5}, "expected": [4]}], "'x'"),
        ([{"kind": "tau", "inputs": {}, "expected": []}], "index 0"),
        ([7], "index 0"),
        ({"id": "x"}, "JSON list"),
    ],
)
def test_verify_rejects_malformed_fixtures(tmp_path, capsys, fixtures, named):
    path = tmp_path / "fx.json"
    path.write_text(json.dumps(fixtures))
    code, out, err = run_cli(capsys, "verify", str(path))
    assert code == 1
    assert out == ""
    assert err.startswith("TwistlabError: ")
    assert named in err


@pytest.mark.parametrize(
    "fixture, complaint",
    [
        ({"kind": "mull", "inputs": {"p": "a", "lambda": [2, 1]}, "expected": [2, 1]},
         "input 'p' must be an integer"),
        ({"kind": "mull", "inputs": {"p": True, "lambda": [2, 1]}, "expected": [2, 1]},
         "input 'p' must be an integer"),
        ({"kind": "mull", "inputs": {"p": 3, "lambda": "ab"}, "expected": [2, 1]},
         "input 'lambda' must be a list of integers"),
        ({"kind": "mull", "inputs": {"p": 3, "lambda": [2, 1], "conjugate": 1},
          "expected": [2, 1]}, "input 'conjugate' must be a boolean"),
        ({"kind": "murphy", "inputs": {"d": None, "r": 2}, "expected": {}},
         "input 'd' must be an integer"),
        ({"kind": "tau", "inputs": {"p": 5, "n": 20, "d": 3}, "expected": [4]},
         "takes no input 'd'"),
        ({"kind": "search", "inputs": {"search": "census", "d": "8", "p": 3},
          "expected": {"hit_count": 1}}, "input 'd' must be an integer"),
        ({"kind": "search", "inputs": {"search": ["census"], "d": 8, "p": 3},
          "expected": {"hit_count": 1}}, "unknown search"),
        ({"kind": "search", "inputs": {"search": "census", "d": 8, "p": 3},
          "expected": {"hits": 1}}, "'expected' must be a non-empty dict"),
        ({"kind": "specht", "inputs": {"p": 3, "lambda": [2, 1]}, "expected": 5},
         "'expected' must be a non-empty dict"),
        ({"kind": "specht", "inputs": {"p": 3, "lambda": [2, 1]}, "expected": {}},
         "'expected' must be a non-empty dict"),
        ({"kind": "frob", "inputs": {}, "expected": 0}, "unknown fixture kind 'frob'"),
        ({"kind": "search", "inputs": {"search": "census", "d": 0, "p": 2},
          "expected": {"pairs": []}}, "a census search has no 'pairs'"),
        ({"kind": "search", "inputs": {"search": "multi-twist", "lambda": [2, 1], "p": 5,
          "max_b": 3}, "expected": {"hit_lambdas": []}}, "a multi-twist search has no"),
        ({"kind": "specht", "inputs": {"p": 2, "lambda": [3, 1, 1], "mu": [3, 1, 1]},
          "expected": {"end_dim": 2}}, "takes 'mu' exactly when it expects 'hom_dim'"),
        ({"kind": "specht", "inputs": {"p": 2, "lambda": [3, 1, 1]},
          "expected": {"hom_dim": 2}}, "takes 'mu' exactly when it expects 'hom_dim'"),
    ],
)
def test_verify_checks_input_types_per_kind(tmp_path, capsys, fixture, complaint):
    path = tmp_path / "fx.json"
    path.write_text(json.dumps([{"id": "typed", **fixture}]))
    code, out, err = run_cli(capsys, "verify", str(path))
    assert (code, out) == (1, "")
    assert err.startswith("TwistlabError: fixture 'typed': ")
    assert complaint in err


def test_verify_refuses_a_repeated_id_before_any_fixture_runs(tmp_path, capsys):
    tau_5 = {"kind": "tau", "inputs": {"p": 3, "n": 5}, "expected": [2, 2, 1]}
    fixtures = [
        {"id": "a", **tau_5},
        {"id": "b", "kind": "search", "inputs": {"search": "persistence", "d": 8, "p": 3},
         "expected": {"hit_count": 6}},
        {"id": "a", **tau_5},
    ]
    path = tmp_path / "fx.json"
    path.write_text(json.dumps(fixtures))
    code, out, err = run_cli(capsys, "verify", str(path))
    assert (code, out) == (1, "")
    assert err == "TwistlabError: duplicate fixture id 'a'\n"


def test_verify_names_the_fixture_a_domain_error_came_from(tmp_path, capsys):
    fixtures = [
        {"id": "thin", "kind": "specht", "inputs": {"p": 2, "lambda": [1] * 9},
         "expected": {"invariants": 1}},
        {"id": "bad-prime", "kind": "mull", "inputs": {"p": 4, "lambda": [2]}, "expected": [2]},
    ]
    path = tmp_path / "fx.json"
    path.write_text(json.dumps(fixtures))
    code, out, err = run_cli(capsys, "verify", str(path))
    assert (code, out) == (1, "")
    assert "ok   thin" in err
    assert err.splitlines()[-1] == "NotPrime: fixture 'bad-prime': 4 is not prime"


_FUZZ_JUNK = st.one_of(st.none(), st.booleans(), st.text(max_size=3), st.floats(-3, 3),
                       st.lists(st.text(max_size=2), max_size=2), st.just({}))
_FUZZ_PARTS = partitions(max_size=5).map(lambda lam: list(lam.parts))
_FUZZ_INPUTS = {
    "p": _FUZZ_P, "n": st.integers(-3, 30), "d": st.integers(-2, 8), "r": st.integers(-2, 12),
    "max_b": st.integers(-1, 4), "lambda": partitions(max_size=4).map(lambda lam: list(lam.parts)),
    "lam": _FUZZ_PARTS, "mu": _FUZZ_PARTS, "conjugate": st.booleans(),
    "search": st.sampled_from(["census", "fixed-points", "p-image", "persistence",
                               "ks-stability", "multi-twist", "nope"]),
}
# the inputs each kind takes ("x" is no kind); each is left out now and then
_FUZZ_KINDS = {
    "mull": ("lambda", "p", "conjugate"), "tau": ("n", "p"), "ks": ("p", "lam", "mu"),
    "murphy": ("d", "r"), "h0": ("lambda", "p"), "specht": ("lambda", "p", "mu"),
    "search": ("search", "d", "p"), "x": ("p",),
}
_FUZZ_EXPECTED = st.one_of(
    _FUZZ_JUNK,
    st.integers(0, 3),
    _FUZZ_PARTS,
    st.dictionaries(
        st.sampled_from(["hom_dim", "decomposable", "invariants", "end_dim", "hit_count",
                         "counterexamples", "pairs", "hit_lambdas", "indecomposable"]),
        st.one_of(st.integers(0, 3), st.booleans(), st.just([])),
        max_size=3,
    ),
)


@st.composite
def _fuzz_fixture(draw):
    kind = draw(st.sampled_from(sorted(_FUZZ_KINDS)))
    now_and_then = st.integers(0, 9).map(lambda x: x == 9)
    takes = _FUZZ_KINDS[kind]
    if kind == "search" and draw(st.booleans()):
        takes = ("search", "lambda", "p", "max_b")
    keys = [key for key in takes if not draw(now_and_then)]
    if draw(now_and_then):  # one input the kind does not take
        keys.append(draw(st.sampled_from(sorted(_FUZZ_INPUTS))))
    inputs = {key: draw(_FUZZ_INPUTS[key]) for key in keys}
    if "max_b" in keys and "search" in keys and draw(st.booleans()):
        inputs["search"] = "multi-twist"
    if keys and draw(now_and_then):  # one input of the wrong type
        inputs[draw(st.sampled_from(keys))] = draw(_FUZZ_JUNK)
    return {"id": draw(st.sampled_from(["a", "b"])), "kind": kind, "inputs": inputs,
            "expected": draw(_FUZZ_EXPECTED)}


@settings(max_examples=200, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(fixtures=st.lists(_fuzz_fixture(), max_size=2))
def test_fuzzed_fixture_files_end_in_an_exit_code(tmp_path, fixtures):
    path = tmp_path / "fx.json"  # rewritten by every example
    path.write_text(json.dumps(fixtures))
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(["verify", str(path)])
    assert code in (0, 1), (fixtures, err.getvalue())
    assert "Traceback" not in err.getvalue()
    if code == 1 and out.getvalue() == "":
        # a refusal names the TwistlabError behind it; a mismatch prints a payload
        name = err.getvalue().splitlines()[-1].split(":", 1)[0]
        assert issubclass(getattr(errors, name, type(None)), errors.TwistlabError), (fixtures, name)
    elif code == 1:
        assert json.loads(out.getvalue())["failed"], fixtures


def test_verify_rejects_a_fixture_naming_an_unknown_scan(tmp_path, capsys):
    fixtures = [
        {"id": "x", "kind": "search", "inputs": {"search": "nope", "d": 4, "p": 3},
         "expected": {"hit_count": 0}},
    ]
    path = tmp_path / "fx.json"
    path.write_text(json.dumps(fixtures))
    code, out, err = run_cli(capsys, "verify", str(path))
    assert code == 1
    assert out == ""
    assert err.startswith("TwistlabError: ")
    assert "'nope'" in err


_PACKAGED = {
    fx["id"]: fx
    for fx in json.loads(resources.files("twistlab").joinpath("data/fixtures.json").read_bytes())
}
# a fixture kind, or a key of a specht fixture's expected dict -> the command
# that answers it and the payload key its expected value is compared with
_ANSWERED_BY = {
    "mull": ("mull", "mullineux"), "tau": ("tau", None), "ks": ("ks-ext", "result"),
    "murphy": ("murphy", "result"), "h0": ("h0", "result"),
    "hom_dim": ("specht hom", "result"), "end_dim": ("specht hom", "result"),
    "decomposable": ("specht decomposable", "result"), "invariants": ("specht h0", "result"),
}


def _answer_on_the_command_line(capsys, fx):
    """What the command line says for a fixture, in the shape of its expected value."""

    def payload(command, inputs):
        argv = command.split()
        for key, value in inputs.items():
            text = ",".join(map(str, value)) if isinstance(value, list) else str(value)
            argv += ["--" + key.replace("_", "-"), text]
        code, out, _ = run_cli(capsys, *argv)
        assert code == 0, argv
        return json.loads(out)

    inputs = dict(fx["inputs"])
    if fx["kind"] == "search":
        report = payload(f"search {inputs.pop('search')}", inputs)
        hits = report["hits"]
        reads = {"hit_count": lambda: len(hits),
                 "counterexamples": lambda: len(report["counterexamples"]),
                 "pairs": lambda: sorted([h["a"], h["b"]] for h in hits),
                 "hit_lambdas": lambda: [h["lambda"] for h in hits]}
        return {key: reads[key]() for key in fx["expected"]}
    if fx["kind"] == "specht":
        got = {}
        for key in fx["expected"]:
            command, part = _ANSWERED_BY[key]
            if command == "specht hom":  # End(S^lambda) is Hom(S^lambda, S^lambda)
                lam = inputs["lambda"]
                mu = inputs["mu"] if key == "hom_dim" else lam
                given = {"p": inputs["p"], "lam": lam, "mu": mu}
            else:
                given = inputs
            got[key] = payload(command, given)[part]
        return got
    command, part = _ANSWERED_BY[fx["kind"]]
    conjugate = inputs.pop("conjugate", False)
    got = payload(command, inputs)
    got = got if part is None else got[part]
    return list(Partition(got).conjugate().parts) if conjugate else got


def test_every_packaged_fixture_kind_is_covered():
    kinds = {fx["kind"] for fx in _PACKAGED.values()}
    specht_keys = {key for fx in _PACKAGED.values() if fx["kind"] == "specht"
                   for key in fx["expected"]}
    assert len(_PACKAGED) == 28
    assert kinds == {row.kind for row in cli._COMMANDS.values()} - {None}
    assert specht_keys == {"hom_dim", "end_dim", "decomposable", "invariants"}
    assert any(fx["inputs"].get("conjugate") for fx in _PACKAGED.values())


@pytest.mark.parametrize("which", ["p-image", "census", *_PACKAGED])
def test_fixture_scans_match_the_command_line(tmp_path, capsys, which):
    # a packaged fixture, or a scan fixture made from the command line's own count
    fx = _PACKAGED.get(which)
    if fx is None:
        _, out, _ = run_cli(capsys, "search", which, "--p", "3", "--d", "9")
        fx = {"id": "x", "kind": "search", "inputs": {"search": which, "d": 9, "p": 3},
              "expected": {"hit_count": len(json.loads(out)["hits"]), "counterexamples": 0}}
    assert _answer_on_the_command_line(capsys, fx) == fx["expected"]
    path = tmp_path / "fx.json"
    path.write_text(json.dumps([fx]))
    code, out, _ = run_cli(capsys, "verify", str(path))
    assert code == 0
    assert json.loads(out)["passed"] == 1


def test_verify_closes_its_file(tmp_path):
    path = tmp_path / "fx.json"
    path.write_text(json.dumps([_PACKAGED["tau-p5-n20"]]))
    with warnings.catch_warnings(record=True) as caught, \
            contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        warnings.simplefilter("always", ResourceWarning)
        assert main(["verify", str(path)]) == 0
    assert [str(w.message) for w in caught] == []


def test_specht_hom_builds_one_module_when_lam_is_mu(capsys, monkeypatch):
    builds = []
    build_specht = specht.build_specht

    def counting(lam, p):
        builds.append(lam)
        return build_specht(lam, p)

    monkeypatch.setattr(cli, "build_specht", counting)
    code, out, _ = run_cli(capsys, "specht", "hom", "--p", "2", "--lam", "3,1,1", "--mu", "3,1,1")
    assert code == 0
    assert out == json.dumps({"dims": [6, 6], "result": 2, "method": "enumerated"}, indent=2) + "\n"
    assert builds == [Partition((3, 1, 1))]
    builds.clear()
    run_cli(capsys, "specht", "hom", "--p", "2", "--lam", "3,1,1", "--mu", "2,2,1")
    assert len(builds) == 2


def test_console_entry_point_runs():
    proc = subprocess.run(
        [sys.executable, "-m", "twistlab.cli", "tau", "--p", "5", "--n", "10"],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0
    assert json.loads(proc.stdout) == [4, 4, 2]
