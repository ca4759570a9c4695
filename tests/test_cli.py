"""Command-line surface: compute, verify, breakdown, table loading."""

import ast
import hashlib
import importlib
import inspect
import io
import os
import shutil
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

import multicover
from multicover import cli, localize
from multicover.cli import _print_breakdown, _row_equals, load_reference_table, main
from multicover.exact import FactoredRational, parse_factored
from multicover.fixedpoints import enumerate_configurations
from multicover.localize import configuration_contribution, multiple_cover_invariant
from oracles import pairwise_invariant

# the engine's d = 10 value, as frozen for the benchmark
FROZEN_D10 = (
    "-(19^2*61^2*79377601^2*58524074773^2*70797734099^2)"
    "/(2^69*5^57*7^2*11^2*23^2*29^2)"
)
# the shipped table, where the CLI opens it: beside cli.py
SHIPPED_TABLE = Path(multicover.__file__).parent / "data" / "reference_table.txt"


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_compute_plain(capsys):
    code, out, _ = run(capsys, "compute", "2")
    assert code == 0
    assert out.strip() == "-1/200"


@pytest.mark.parametrize(
    "degree, expected",
    [
        (2, "-1/(2^3*5^2)"),
        (4, "-(3^6*7^2*233^2)/(2^44*11^2)"),
        (
            11,
            "-(17^2*438938983141369^2*180676454678820675709^2)"
            "/(2^14*5^2*11^61*13^2*29^2*31^2)",
        ),
    ],
    ids=["2", "4", "11"],
)
def test_compute_factored(capsys, degree, expected):
    code, out, _ = run(capsys, "compute", str(degree), "--factored")
    assert code == 0
    assert out.strip() == expected


def test_compute_output_reparses_exactly(capsys):
    for flags in ([], ["--factored"]):
        code, out, _ = run(capsys, "compute", "3", *flags)
        assert code == 0
        value = parse_factored(out.strip()) if flags else Fraction(out.strip())
        assert value == multiple_cover_invariant(3)


def test_compute_rejects_low_degree(capsys):
    code, out, err = run(capsys, "compute", "1")
    assert code == 2
    assert out == ""
    assert "degree must be at least 2" in err


def test_compute_respects_degree_cap(capsys):
    # polynomial state sum for plain values; factoring is not polynomial
    for argv, cap in ((("61",), 60), (("13", "--factored"), 12)):
        code, out, err = run(capsys, "compute", *argv)
        assert code == 2
        assert out == ""
        assert "degree must be at least 2" in err
        assert f"at most {cap}" in err


def test_compute_above_table_matches_frozen(capsys):
    # plain values above the shipped table come from the state sum alone;
    # d = 10..13 are the values the benchmark froze (read, never written here)
    frozen = Path(__file__).resolve().parents[1] / "bench" / "data" / "frozen.txt"
    rows = [line.split("\t") for line in frozen.read_text(encoding="utf-8").splitlines()]
    values = {fields[0]: fields[1] for fields in rows if len(fields) == 3}
    for d in ("10", "11", "12", "13"):
        code, out, _ = run(capsys, "compute", d)
        assert code == 0
        assert out == f"{values[d]}\n"


def test_compute_max_degree_option_removed(capsys):
    with pytest.raises(SystemExit) as excinfo:
        main(["compute", "5", "--max-degree", "12"])
    assert excinfo.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "unrecognized arguments: --max-degree 12" in captured.err


def test_breakdown_double_cover(capsys):
    code, out, _ = run(capsys, "compute", "2", "--breakdown")
    assert code == 0
    records = [r for r in out.strip().split("\n\n") if r.startswith("config=")]
    assert len(records) == 4
    assert "factor.zero.smooth[base->1]=-2/3*a^-1" in out
    assert "factor.zero.step1.main=-1/2*a^-3" in out
    assert "factor.zero.smooth[base->1]=-2/5*a^-1" in out
    assert "factor.zero.step1.main=1/2*a^-3" in out
    assert out.strip().endswith("sum=-1/200")
    totals = [
        Fraction(line.split("=", 1)[1])
        for line in out.splitlines()
        if line.startswith("total=")
    ]
    assert sum(totals) == Fraction(-1, 200)


def test_breakdown_mismatch_raises(monkeypatch, capsys):
    # a state sum the records do not add up to stops the command before its sum line
    n3 = multiple_cover_invariant(3)
    monkeypatch.setattr(cli, "multiple_cover_invariant", lambda d: n3 + 1)
    with pytest.raises(AssertionError) as excinfo:
        main(["compute", "3", "--breakdown"])
    assert str(excinfo.value) == "breakdown records do not sum to the invariant"
    assert "sum=" not in capsys.readouterr().out


@pytest.mark.parametrize("argv", [(), ("--factored",)])
def test_breakdown_degree_cap(capsys, argv):
    # degree 9 would write 5.6M records; the breakdown cap wins over --factored's
    code, out, err = run(capsys, "compute", "9", "--breakdown", *argv)
    assert code == 2
    assert out == ""
    assert "degree must be at least 2" in err
    assert "at most 8" in err


def test_breakdown_record_count_degree_three(capsys):
    # 4 chains per side, frozen by the enumeration regression
    code, out, _ = run(capsys, "compute", "3", "--breakdown")
    assert code == 0
    assert out.count("config=") == 16


def test_breakdown_factored_sum(capsys):
    code, out, _ = run(capsys, "compute", "3", "--breakdown", "--factored")
    assert code == 0
    assert out.count("config=") == 16
    assert out.endswith("\n\nsum=-(5^2*43^2)/(3^13*7^2)\n")


def test_verify_single_row(capsys):
    code, out, _ = run(capsys, "verify", "--max-degree", "2")
    assert code == 0
    assert out.strip() == "d=2 PASS"


def test_verify_through_degree_five(capsys):
    code, out, _ = run(capsys, "verify", "--max-degree", "5")
    assert code == 0
    assert out.splitlines() == [f"d={d} PASS" for d in range(2, 6)]


def test_verify_full_table(capsys):
    code, out, _ = run(capsys, "verify")
    assert code == 0
    assert out.splitlines() == [f"d={d} PASS" for d in range(2, 10)]


def test_verify_detects_perturbed_table(tmp_path, capsys):
    table = tmp_path / "table.txt"
    table.write_text("2\t-1/(2^3*5^2)\n3\t-1/(2^3*5^2)\n", encoding="utf-8")
    code, out, _ = run(capsys, "verify", "--max-degree", "3", "--table", str(table))
    assert code == 1
    lines = out.splitlines()
    assert lines[0] == "d=2 PASS"
    assert lines[1].startswith("d=3 FAIL")


def test_verify_prints_long_expected_row_factored(tmp_path, capsys):
    # 2^20000 has 6021 digits, past the interpreter's int-to-str limit
    table = tmp_path / "table.txt"
    table.write_text("2\t2^20000\n", encoding="utf-8")
    code, out, err = run(capsys, "verify", "--max-degree", "2", "--table", str(table))
    assert code == 1
    assert out == "d=2 FAIL computed=-1/200 expected=2^20000\n"
    assert err == ""


@pytest.mark.parametrize(
    "text",
    [
        *("-1/(2^3*5^2)", "1/(2^3*5^2)", "-1/(2^3*5^3)", "-1/(2^3*5)", "-3/(2^3*5^2)"),
        *("-1/(2^3)", "-1", "(2^1000*3^500)/(5^300)", "2^1001/(5^300)", "2^99999"),
    ],
)
def test_row_equals_matches_expanded_value(text):
    # the size test in front of the expansion never rejects an equal row
    row = FactoredRational.from_text(text)
    big = Fraction(2**1000 * 3**500, 5**300)
    for q in (Fraction(-1, 200), Fraction(1, 200), Fraction(-3, 200), Fraction(-1, 8), big, -big):
        assert _row_equals(row, q) == (row.value() == q), (text, q)


def test_verify_never_expands_a_huge_row(tmp_path):
    # expanding 2^99999999999 takes about 12.5 GB; the child runs under a
    # 1 GiB address-space cap, so a verify that expands the row fails here
    # with a MemoryError instead of exhausting the machine
    import resource

    table = tmp_path / "table.txt"
    table.write_text("2\t2^99999999999\n", encoding="utf-8")
    cap = 1 << 30
    done = subprocess.run(
        [*CLI, "verify", "--max-degree", "2", "--table", str(table)],
        capture_output=True,
        env=CLI_ENV,
        preexec_fn=lambda: resource.setrlimit(resource.RLIMIT_AS, (cap, cap)),
        timeout=60,
    )
    assert done.stderr == b""
    assert done.returncode == 1
    assert done.stdout == b"d=2 FAIL computed=-1/200 expected=2^99999999999\n"


def test_verify_range_check(capsys):
    code, _, err = run(capsys, "verify", "--max-degree", "10")
    assert code == 2
    assert "between 2 and 9" in err


def test_verify_range_follows_table(tmp_path, capsys):
    table = tmp_path / "table.txt"
    table.write_text(SHIPPED_TABLE.read_text(encoding="utf-8") + f"10\t{FROZEN_D10}\n")
    code, out, _ = run(capsys, "verify", "--max-degree", "10", "--table", str(table))
    assert code == 0
    assert out.splitlines()[-1] == "d=10 PASS"
    code, default_out, _ = run(capsys, "verify", "--table", str(table))
    assert code == 0
    assert default_out == out


def test_verify_range_capped_like_compute(tmp_path, capsys):
    table = tmp_path / "table.txt"
    table.write_text("2\t-1/(2^3*5^2)\n61\t-1/(2^3*5^2)\n", encoding="utf-8")
    code, out, err = run(capsys, "verify", "--max-degree", "61", "--table", str(table))
    assert code == 2
    assert out == ""
    assert "between 2 and 60" in err


def test_verify_missing_row(tmp_path, capsys):
    table = tmp_path / "table.txt"
    table.write_text("2\t-1/(2^3*5^2)\n", encoding="utf-8")
    code, out, err = run(capsys, "verify", "--max-degree", "4", "--table", str(table))
    assert code == 2
    assert out == ""  # the range is checked before d = 2 is evaluated
    assert err == "table has no row for d=3\n"  # the lowest missing degree


def test_malformed_table_rejected(tmp_path, capsys):
    table = tmp_path / "table.txt"
    table.write_text("2\t-1/(4^3)\n", encoding="utf-8")
    code, _, err = run(capsys, "verify", "--max-degree", "2", "--table", str(table))
    assert code == 2
    assert "cannot load table" in err


def test_duplicate_table_row_rejected(tmp_path, capsys):
    table = tmp_path / "table.txt"
    table.write_text("2\t-1/(2^3*5^2)\n2\t-1/(2^3*5^3)\n", encoding="utf-8")
    code, out, err = run(capsys, "verify", "--max-degree", "2", "--table", str(table))
    assert code == 2
    assert out == ""
    assert "cannot load table" in err
    assert "duplicate row for d=2" in err


@pytest.mark.parametrize("degree", ["٢", "+0_2"])
def test_non_ascii_table_degree_rejected(tmp_path, capsys, degree):
    table = tmp_path / "table.txt"
    table.write_text(f"{degree}\t-1/(2^3*5^2)\n", encoding="utf-8")
    code, out, err = run(capsys, "verify", "--max-degree", "2", "--table", str(table))
    assert code == 2
    assert out == ""
    assert "cannot load table" in err
    assert "malformed degree" in err


def test_table_not_utf8_rejected(tmp_path, capsys):
    # a UTF-16 byte-order mark is not UTF-8: a bad table, not a mismatch
    table = tmp_path / "table.txt"
    table.write_bytes(b"\xff\xfe2\t-1/(2^3*5^2)\n")
    code, out, err = run(capsys, "verify", "--max-degree", "2", "--table", str(table))
    assert code == 2
    assert out == ""
    assert f"cannot load table: {table}:1: 'utf-8' codec can't decode byte 0xff" in err


@pytest.mark.parametrize("degree", ["0", "1"])
def test_table_degree_below_two_rejected(tmp_path, capsys, degree):
    # covers start at degree 2, and verify never reaches such a row
    text = SHIPPED_TABLE.read_text(encoding="utf-8")
    table = tmp_path / "table.txt"
    table.write_text(text + f"{degree}\t-1/(2^3*5^2)\n", encoding="utf-8")
    code, out, err = run(capsys, "verify", "--table", str(table))
    assert code == 2
    assert out == ""
    lineno = len(text.splitlines()) + 1
    assert f"cannot load table: {table}:{lineno}: degree {degree} is below 2" in err


@pytest.mark.parametrize(
    "row, fields",
    [("3 -1", 1), ("2\t-1/(2^3*5^2)\textra", 3)],
    ids=["no-tab", "two-tabs"],
)
def test_table_row_field_count_rejected(tmp_path, capsys, row, fields):
    table = tmp_path / "table.txt"
    table.write_text(f"2\t-1/(2^3*5^2)\n{row}\n", encoding="utf-8")
    code, out, err = run(capsys, "verify", "--max-degree", "2", "--table", str(table))
    assert code == 2
    assert out == ""
    assert f"cannot load table: {table}:2: expected degree<TAB>value, found {fields} fields" in err


def test_shipped_table_shape():
    table = load_reference_table()
    assert sorted(table.rows) == list(range(2, 10))
    assert table.rows[2].value() == Fraction(-1, 200)
    # comments and blank lines are ignored by the loader
    assert table.rows[9].value().denominator % 3**96 == 0


def test_shipped_table_loads_from_a_copied_package(tmp_path):
    # an installed copy of the package, alone on the path and without site,
    # from another working directory: the table is the file beside cli.py,
    # opened with no importlib.resources
    site = tmp_path / "site"
    shutil.copytree(
        SHIPPED_TABLE.parents[1], site / "multicover", ignore=shutil.ignore_patterns("__pycache__")
    )
    cwd = tmp_path / "elsewhere"
    cwd.mkdir()
    code = (
        "import sys, multicover; from multicover.cli import load_reference_table; "
        "print(multicover.__file__); print(sorted(load_reference_table().rows)); "
        "print('importlib.resources' in sys.modules)"
    )
    done = subprocess.run(
        [sys.executable, "-S", "-c", code],
        capture_output=True,
        text=True,
        cwd=cwd,
        env=dict(os.environ, PYTHONPATH=str(site)),
        check=True,
        timeout=60,
    )
    assert done.stdout.splitlines() == [
        str(site / "multicover" / "__init__.py"),
        str(list(range(2, 10))),
        "False",
    ]


def test_import_loads_no_dataclasses_inspect_or_typing():
    # every command pays at start-up for what importing the CLI loads;
    # dataclasses alone (it imports inspect, ast, dis and tokenize) and the
    # methods it generates cost about 13 ms per process (CPython 3.11, shared
    # 2-vCPU VM), so the value classes are plain Record subclasses and the
    # annotations need no typing; random costs about 4 ms of a ~50 ms import
    # under -S and only factoring draws curves, so exact._ecm imports it
    code = (
        "import multicover.cli, sys; "
        "print([m for m in ('dataclasses', 'inspect', 'typing', 'random') if m in sys.modules])"
    )
    done = subprocess.run(
        [sys.executable, "-S", "-c", code],
        capture_output=True,
        text=True,
        env=dict(os.environ, PYTHONPATH=str(SHIPPED_TABLE.parents[2])),
        check=True,
        timeout=60,
    )
    assert done.stdout == "[]\n"


# sha256 of the stdout that refactors must keep byte-identical; change a
# digest only together with an intended change of the printed output
@pytest.mark.parametrize(
    "argv, digest",
    [
        (
            ("compute", "5", "--breakdown"),
            "29b264a1a1e4174613930dd45875adba9962ce4d33b5f2e5d06bad33324a57ef",
        ),
        (
            ("compute", "6", "--breakdown"),
            "9d07c313ba3d37cdb8473858c3c36778abce4b224726dff8d9e6e8bcbfc6017b",
        ),
        (
            ("compute", "10", "--factored"),
            "b31fe30a46d704205421d6bff41beaad0dfe544a45f94cdd56930726e019c8ae",
        ),
        (
            ("compute", "2"),
            "c82413c0c71aab56aec336b431d5ceb81072fb3c4bea33cc63e22db8dfe421fe",
        ),
        (
            ("verify",),
            "090f3c868e583a843c73546c2a8993f098f75ad503db7105ca184ae1d2af47e6",
        ),
    ],
    ids=["breakdown5", "breakdown6", "factored10", "plain2", "verify"],
)
def test_golden_stdout(capsys, argv, digest):
    code, out, _ = run(capsys, *argv)
    assert code == 0
    assert hashlib.sha256(out.encode("utf-8")).hexdigest() == digest


def test_state_count_at_degree_ten():
    # the README's "157 states at degree 10", read from the state table
    localize._TABLE.clear()
    multiple_cover_invariant(10)
    assert sum(len(sums) for _, _, sums in localize._TABLE.values()) == 157


def test_side_records_at_degree_five(monkeypatch):
    # 37 chains per side at degree 5: the breakdown and the pairwise sum each
    # trace and multiply a chain once for both sides, not once per configuration
    traced = []
    real_chain_factors = localize.chain_factors
    monkeypatch.setattr(
        localize, "chain_factors", lambda chain: traced.append(chain) or real_chain_factors(chain)
    )
    for evaluate in (
        lambda: _print_breakdown(5, io.StringIO()),
        lambda: pairwise_invariant(5),
    ):
        traced.clear()
        evaluate()
        assert len(traced) == 37


def test_breakdown_records_match_configuration_contribution():
    # the breakdown pairs side records without the per-configuration API;
    # each record must still read as that API reports the configuration
    out = io.StringIO()
    _print_breakdown(4, out)
    records = out.getvalue().split("\n\n")
    assert records.pop() == ""
    configurations = enumerate_configurations(4)
    assert len(records) == len(configurations)
    for record, cfg in zip(records, configurations):
        report = configuration_contribution(cfg)
        assert record.split("\n") == [
            "config=" + cfg.describe(),
            *(f"factor.{label}={value}" for label, value in report.per_factor_trace),
            f"total={report.total.coeff}",
        ]


CLI = [sys.executable, "-m", "multicover.cli"]
CLI_ENV = dict(os.environ, PYTHONPATH=str(Path(multicover.__file__).resolve().parents[1]))


def _peak_rss_kb():
    """This process's resident high-water mark (``VmHWM``), or None where
    ``/proc/self/status`` does not report it."""
    try:
        with open("/proc/self/status", encoding="ascii") as status:
            lines = [line for line in status if line.startswith("VmHWM:")]
    except OSError:
        return None
    return int(lines[0].split()[1]) if lines else None


def _child_peak_growth_kb(statement):
    """Growth of a child process's own ``VmHWM`` across ``statement``, in kB,
    with its stdout discarded.  The child reads its own high-water mark: a
    child's ru_maxrss can carry the parent's from before its exec."""
    code = (
        "import os, sys\n"
        "from multicover.cli import main\n"
        "from oracles import pairwise_invariant\n"
        "from test_cli import _peak_rss_kb\n"
        "out, sys.stdout = sys.stdout, open(os.devnull, 'w')\n"
        "before = _peak_rss_kb()\n"
        f"{statement}\n"
        "out.write(str(_peak_rss_kb() - before))\n"
    )
    paths = os.pathsep.join([CLI_ENV["PYTHONPATH"], str(Path(__file__).parent)])
    done = subprocess.run(
        [sys.executable, "-c", code],
        stdout=subprocess.PIPE,
        env=dict(CLI_ENV, PYTHONPATH=paths),
        check=True,
        timeout=300,
    )
    return int(done.stdout)


@pytest.mark.skipif(_peak_rss_kb() is None, reason="needs VmHWM in /proc/self/status")
def test_breakdown_memory_stays_flat():
    # the degree-7 breakdown writes 87025 records; they are paired from the
    # 295 chains as they go, so the peak does not grow with the record count
    growth = _child_peak_growth_kb("assert main(['compute', '7', '--breakdown']) == 0")
    assert growth < 6 * 1024  # kB; 12.4 MB when the configuration list was held whole


@pytest.mark.skipif(_peak_rss_kb() is None, reason="needs VmHWM in /proc/self/status")
def test_pairwise_memory_stays_flat():
    # the pairwise sum keeps each of the 2364 degree-9 chains' two checked
    # coefficients, not its factor traces, and nothing once it returns
    growth = _child_peak_growth_kb("pairwise_invariant(9)")
    assert growth < 6 * 1024  # kB; 18.9 MB when every chain's record was kept


def test_closed_stdout_ends_quietly():
    # the reader keeps one line and closes the pipe, as ``| head -1`` does;
    # the degree-6 breakdown (12 MB) is far larger than any pipe buffer
    child = subprocess.Popen(
        [*CLI, "compute", "6", "--breakdown"],
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        env=CLI_ENV,
    )
    assert child.stdout.readline().startswith(b"config=")
    child.stdout.close()
    err = child.stderr.read()
    child.stderr.close()
    assert child.wait(timeout=120) == 141
    assert err == b""


def test_stdout_closed_at_start_is_discarded():
    # ``multicover compute 2 --breakdown >&-``: descriptor 1 is closed
    done = subprocess.run(
        [*CLI, "compute", "2", "--breakdown"],
        stderr=subprocess.PIPE,
        env=CLI_ENV,
        preexec_fn=lambda: os.close(1),
        timeout=120,
    )
    assert (done.returncode, done.stderr) == (0, b"")


@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="needs /dev/full")
def test_write_error_exits_ioerr():
    # ``multicover compute 2 > /dev/full``: every write fails with ENOSPC
    with open("/dev/full", "w") as full:
        done = subprocess.run(
            [*CLI, "compute", "2"], stdout=full, stderr=subprocess.PIPE, env=CLI_ENV, timeout=120
        )
    assert done.returncode == 74
    assert done.stderr.decode().splitlines() == [
        "cannot write output: [Errno 28] No space left on device"
    ]


def test_traced_bench_wraps_defined_names():
    # the span tracer of the traced bench run wraps each name of its WRAPPED
    # table by getattr(multicover.<layer>, name), and from_text as a
    # classmethod, so a renamed layer function would break every traced run;
    # the table is read as data, without importing the bench
    spans = Path(__file__).resolve().parents[1] / "bench" / "spans.py"
    (table,) = [
        node.value
        for node in ast.parse(spans.read_text(encoding="utf-8")).body
        if isinstance(node, ast.Assign) and ast.unparse(node.targets[0]) == "WRAPPED"
    ]
    wrapped = ast.literal_eval(table)
    assert wrapped
    missing = [
        f"{layer}.{name}"
        for layer, names in wrapped.items()
        for name in names
        if not callable(getattr(importlib.import_module(f"multicover.{layer}"), name, None))
    ]
    assert missing == []
    assert isinstance(inspect.getattr_static(FactoredRational, "from_text"), classmethod)
