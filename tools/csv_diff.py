"""Compare two CSV files with the same header, cell by cell.

Usage, from the repository root:

    python3 tools/csv_diff.py parent.csv change.csv

A file whose every line reads 'name = value', as `ringladder gs` prints,
is read as a one-row table with the names as its header.  For each column
it prints how many cells differ in their text and the largest |difference|
among those that both parse as numbers.  The exit status is 0 when the
files are byte-identical, 1 when they are not, and 2 when the headers or
the row counts differ or a file cannot be read.
"""

from __future__ import annotations

import argparse
import csv
import io
import math
import sys


def read(path: str) -> tuple[bytes, list[list[str]]]:
    with open(path, "rb") as fh:
        raw = fh.read()
    text = raw.decode()
    lines = text.splitlines()
    if lines and all(" = " in line for line in lines):
        names, values = zip(*(line.split(" = ", 1) for line in lines))
        return raw, [list(names), list(values)]
    return raw, list(csv.reader(io.StringIO(text)))


def number(text: str) -> float:
    """The cell as a float, NaN when it is not a number."""
    try:
        return float(text)
    except ValueError:
        return math.nan


def column_diffs(a: list[list[str]], b: list[list[str]]) -> list[tuple[str, int, float | None]]:
    """(column, cells whose text differs, largest numeric |delta| or None)."""
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
        deltas = [d for d in deltas if not math.isnan(d)]
        out.append((name, len(cells), max(deltas) if deltas else None))
    return out


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("a", help="first CSV file")
    ap.add_argument("b", help="second CSV file")
    args = ap.parse_args(argv)
    try:
        (raw_a, a), (raw_b, b) = read(args.a), read(args.b)
        if raw_a == raw_b:
            print("the files are byte-identical")
            return 0
        diffs = column_diffs(a, b)
    except (OSError, ValueError, csv.Error) as exc:
        print(f"csv_diff: {exc}", file=sys.stderr)
        return 2
    width = max(len(name) for name, _, _ in diffs)
    print(f"{'column':<{width}}  cells  max|delta|")
    for name, count, delta in diffs:
        shown = "-" if delta is None else format(delta, ".3g")
        print(f"{name:<{width}}  {count:>5}  {shown}")
    total = sum(count for _, count, _ in diffs)
    print(f"{total} of {(len(a) - 1) * len(a[0])} cells differ")
    return 1


if __name__ == "__main__":
    sys.exit(main())
