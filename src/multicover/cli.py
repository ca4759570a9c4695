"""Command-line front end.

``compute <d> [--factored] [--breakdown]`` prints the exact invariant for
2 <= d <= 60, or up to 12 with ``--factored`` and 8 with ``--breakdown``;
``verify [--max-degree N] [--table PATH]`` checks computed values against
the shipped reference table row by row.

Exit codes: 0 success / all rows pass, 1 verification mismatch, 2 usage
error, 74 standard output could not be written (``EX_IOERR``, for example
a full disk), 141 standard output closed before the output was complete
(the status a shell gives a process ended by SIGPIPE).
"""

from __future__ import annotations

import argparse
import itertools
import os
import sys
from fractions import Fraction

from ._record import Record
from .contributions import base_contribution
from .exact import FactoredFormatError, FactoredRational, _parse_int, format_factored
from .fixedpoints import enumerate_chains
from .localize import _chain_record, multiple_cover_invariant

__all__ = ["ReferenceTable", "load_reference_table", "main"]

# compute's highest degree per output mode: the state sum is polynomial in d
# (about 0.4 s at d = 60), factoring is not (about 8 s at d = 14, over 90 s at
# d = 18), and a breakdown writes 697225 records at d = 8, 8 times more per degree
MAX_DEGREE = {"plain": 60, "--factored": 12, "--breakdown": 8}
WRITE_ERROR = 74  # EX_IOERR of sysexits.h
CLOSED_STDOUT = 141  # 128 + SIGPIPE, as a shell reports a process it killed


class ReferenceTable(Record):
    """Known invariants by degree, as parsed factored rationals."""

    def __init__(self, rows: dict[int, FactoredRational]):
        self.__dict__["rows"] = rows


def load_reference_table(path: str | None = None) -> ReferenceTable:
    """Parse the table at ``path``, or else ``data/reference_table.txt`` beside this module."""
    source = path
    if path is None:  # the shipped table, labelled by its file name
        source = "reference_table.txt"
        path = os.path.join(os.path.dirname(__file__), "data", source)
    with open(path, "rb") as handle:
        data = handle.read()
    rows: dict[int, FactoredRational] = {}
    for lineno, raw in enumerate(data.splitlines(), 1):
        try:  # decoded line by line, so a byte that is not UTF-8 gets source:line too
            line = raw.decode("utf-8").strip()
            if not line or line.startswith("#"):
                continue
            fields = line.split("\t")
            if len(fields) != 2:
                raise FactoredFormatError(f"expected degree<TAB>value, found {len(fields)} fields")
            d_text, value_text = fields
            d = _parse_int(d_text, "degree")
            if d < 2:
                raise FactoredFormatError(f"degree {d} is below 2, the lowest cover degree")
            if d in rows:
                raise FactoredFormatError(f"duplicate row for d={d}")
            rows[d] = FactoredRational.from_text(value_text)
        except ValueError as exc:
            raise FactoredFormatError(f"{source}:{lineno}: {exc}") from exc
    return ReferenceTable(rows)


def _print_breakdown(d: int, out) -> Fraction:
    """Write one record per configuration, one write each, pairing the chains
    as it goes (zero side outer, as ``enumerate_configurations`` lists them).
    Each chain is rendered up front, so a chain whose power of ``a`` is wrong
    raises before the first record; a record is then one product of two
    checked side coefficients.  Returns (Σ zero)·(Σ infinity) of those, which
    by exact distributivity is the records' totals summed."""
    base = base_contribution(d)
    rendered = [_render(chain, base) for chain in enumerate_chains(d)]
    for (zero, (lines0, coeff0), _), (infinity, _, (lines1, coeff1)) in itertools.product(
        rendered, repeat=2
    ):
        out.write(  # the config= line is Configuration.describe(), from the rendered names
            f"config=zero:[{zero}] infinity:[{infinity}]\n{lines0}{lines1}total={coeff0 * coeff1}\n\n"
        )
    return sum(z for _, (_, z), _ in rendered) * sum(i for _, _, (_, i) in rendered)


def _render(chain, base) -> tuple:
    """A chain's description, then its factor lines and checked coefficient
    on the zero side, led by the base factor ``base``, and on the infinity side."""
    return chain.describe(), *(
        ("".join(f"factor.{label}={value}\n" for label, value in trace), coeff)
        for trace, coeff in _chain_record(chain, base)
    )


def _cmd_compute(args) -> int:
    d = args.degree
    mode = "--breakdown" if args.breakdown else "--factored" if args.factored else "plain"
    cap = MAX_DEGREE[mode]
    if not 2 <= d <= cap:
        print(f"degree must be at least 2 and at most {cap} for {mode} output", file=sys.stderr)
        return 2
    value = multiple_cover_invariant(d)
    text = format_factored(value) if args.factored else str(value)
    if args.breakdown:
        if _print_breakdown(d, sys.stdout) != value:
            raise AssertionError("breakdown records do not sum to the invariant")
        text = f"sum={text}"
    print(text)
    return 0


def _row_equals(row: FactoredRational, q: Fraction) -> bool:
    """Whether a table row's value is q.  Each power of a prime p has at
    least bit_length(p) - 1 bits, so a row whose bits must pass q's is a
    mismatch found without expanding it; any other row expands to at most
    twice q's bits, however large its text makes it (``2^99999999999``)."""
    factors = row.numerator_factors + row.denominator_factors
    floor_bits = sum(e * (p.bit_length() - 1) for p, e in factors)
    return floor_bits <= q.numerator.bit_length() + q.denominator.bit_length() and row.value() == q


def _cmd_verify(args) -> int:
    try:
        table = load_reference_table(args.table)
    except (OSError, FactoredFormatError) as exc:
        print(f"cannot load table: {exc}", file=sys.stderr)
        return 2
    # up to the table's highest row, capped as plain compute is; 2..9 always
    top = min(max([9, *table.rows]), MAX_DEGREE["plain"])
    max_degree = top if args.max_degree is None else args.max_degree
    if not 2 <= max_degree <= top:
        print(f"--max-degree must be between 2 and {top}", file=sys.stderr)
        return 2
    missing = [d for d in range(2, max_degree + 1) if d not in table.rows]
    if missing:  # before any row is evaluated, so a usage error prints no PASS
        print(f"table has no row for d={missing[0]}", file=sys.stderr)
        return 2
    status = 0
    for d in range(2, max_degree + 1):
        computed = multiple_cover_invariant(d)
        if _row_equals(table.rows[d], computed):
            print(f"d={d} PASS")
        else:  # the row as factored text: its value may have too many digits for str()
            print(f"d={d} FAIL computed={computed} expected={table.rows[d].text()}")
            status = 1
    return status


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="multicover",
        description="Exact multiple-cover invariants of the local rational curve",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    compute = sub.add_parser("compute", help="compute the invariant for one degree")
    compute.add_argument("degree", type=int)
    compute.add_argument("--factored", action="store_true", help="factored output")
    compute.add_argument(
        "--breakdown", action="store_true", help="per-configuration records"
    )
    compute.set_defaults(func=_cmd_compute)

    verify = sub.add_parser("verify", help="check against the reference table")
    verify.add_argument("--max-degree", type=int, default=None)
    verify.add_argument("--table", default=None, help="alternative table file")
    verify.set_defaults(func=_cmd_verify)

    return parser


def main(argv=None) -> int:
    if sys.stdout is None:  # started with descriptor 1 closed
        sys.stdout = open(os.devnull, "w", encoding="utf-8")
    args = _build_parser().parse_args(argv)
    try:
        status = args.func(args)
        sys.stdout.flush()
        return status
    except OSError as exc:
        # the reader went away (``| head``) or the write failed; send what is
        # still buffered to devnull so the interpreter's last flush does not
        # fail again
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        if isinstance(exc, BrokenPipeError):
            return CLOSED_STDOUT
        print(f"cannot write output: {exc}", file=sys.stderr)
        return WRITE_ERROR


if __name__ == "__main__":
    sys.exit(main())
