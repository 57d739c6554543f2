"""Compare two CSV files with the same header, cell by cell.

Usage, from the repository root:

    python3 tools/csv_diff.py parent.csv change.csv
    python3 tools/csv_diff.py --tol 1e-10 parent.csv change.csv

Leading lines that read 'name = value' are read as a one-row table with
the names as its header, and the CSV after them, if any, as a second
table: `ringladder gs` prints only such lines, `ringladder fm-oracle` two
of them and then a CSV.  For each column it prints how many cells differ in
their text and the largest |difference| among those that both parse as
numbers.  The exit status is 0 when the files are byte-identical, 1 when
they are not, and 2 when the layouts, the headers or the row counts differ
or a file cannot be read.  With --tol X the status is 0 also when every
cell that differs parses as a number on both sides and moved by at most X.
"""

from __future__ import annotations

import argparse
import csv
import io
import math
import sys


def read(path: str) -> tuple[bytes, list[list[list[str]]]]:
    """The file's bytes and its tables, each a header row and data rows."""
    with open(path, "rb") as fh:
        raw = fh.read()
    lines = raw.decode().splitlines()
    named = next((i for i, line in enumerate(lines) if " = " not in line), len(lines))
    tables = []
    if named:
        names, values = zip(*(line.split(" = ", 1) for line in lines[:named]))
        tables.append([list(names), list(values)])
    if named < len(lines):
        tables.append(list(csv.reader(io.StringIO("\n".join(lines[named:])))))
    return raw, tables


def number(text: str) -> float:
    """The cell as a float, NaN when it is not a number."""
    try:
        return float(text)
    except ValueError:
        return math.nan


def column_diffs(
    a: list[list[str]], b: list[list[str]], tol: float = math.inf
) -> list[tuple[str, int, float | None, int]]:
    """(column, cells whose text differs, largest numeric |delta| or None,
    differing cells that are not two numbers within tol)."""
    if not a or not b or a[0] != b[0]:
        raise ValueError("the headers differ")
    if len(a) != len(b):
        raise ValueError(f"the row counts differ: {len(a) - 1} and {len(b) - 1}")
    header = a[0]
    for row in a[1:] + b[1:]:
        if len(row) != len(header):
            raise ValueError(f"a data row has {len(row)} cells for {len(header)} columns")
    out = []
    for j, name in enumerate(header):
        cells = [(ra[j], rb[j]) for ra, rb in zip(a[1:], b[1:]) if ra[j] != rb[j]]
        deltas = [abs(number(p) - number(q)) for p, q in cells]
        outside = sum(1 for d in deltas if not d <= tol)  # NaN: not two numbers
        deltas = [d for d in deltas if not math.isnan(d)]
        out.append((name, len(cells), max(deltas) if deltas else None, outside))
    return out


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("a", help="first CSV file")
    ap.add_argument("b", help="second CSV file")
    ap.add_argument("--tol", type=float, default=None,
                    help="pass when every differing cell is numeric and within this")
    args = ap.parse_args(argv)
    try:
        (raw_a, a), (raw_b, b) = read(args.a), read(args.b)
        if raw_a == raw_b:
            print("the files are byte-identical")
            return 0
        if not a or len(a) != len(b):
            raise ValueError("the layouts differ")
        tol = math.inf if args.tol is None else args.tol
        diffs = [d for ta, tb in zip(a, b) for d in column_diffs(ta, tb, tol)]
    except (OSError, ValueError, csv.Error) as exc:
        print(f"csv_diff: {exc}", file=sys.stderr)
        return 2
    width = max(len(name) for name, *_ in diffs)
    print(f"{'column':<{width}}  cells  max|delta|")
    for name, count, delta, _ in diffs:
        shown = "-" if delta is None else format(delta, ".3g")
        print(f"{name:<{width}}  {count:>5}  {shown}")
    total = sum(count for _, count, _, _ in diffs)
    print(f"{total} of {sum((len(t) - 1) * len(t[0]) for t in a)} cells differ")
    if args.tol is None:
        return 1
    outside = sum(n for *_, n in diffs)
    if outside:
        print(f"{outside} cells are not numbers within --tol {args.tol:g}")
        return 1
    print(f"every differing cell is numeric and within --tol {args.tol:g}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
