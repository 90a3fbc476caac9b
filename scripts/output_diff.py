"""How far each changed output moved: the largest change per numeric column.

    python scripts/output_diff.py BASE HEAD

BASE and HEAD are two output directories of the same runs (for example
`mfequil all` at a base commit and at a change).  For every file that is in
both and differs, it prints one line per numeric column: the largest
|head - base| over the column, relative to the column's max |base value|,
so a true 0 elsewhere in the column does not blow the ratio up; columns
that did not move are not printed.  A CSV column is a header name; a JSON
column is a key path, with the indices of lists dropped, so a list of
numbers is one column.  A column whose base values are all 0 prints its
absolute change.  A file in one tree only, one whose columns or lengths
differ, and one that is neither CSV nor JSON is named without numbers.
Nothing is imported from the package.
"""

from __future__ import annotations

import csv
import json
import sys
from pathlib import Path


def _number(text: str) -> float | None:
    try:
        return float(text)
    except ValueError:
        return None


def _csv_columns(path: Path) -> dict[str, list]:
    with path.open(newline="", encoding="utf-8") as fh:
        rows = list(csv.reader(fh))
    header, body = (rows[0], rows[1:]) if rows else ([], [])
    return {name: [row[i] if i < len(row) else "" for row in body]
            for i, name in enumerate(header)}


def _json_columns(node, key: str = "", out: dict | None = None) -> dict[str, list]:
    out = {} if out is None else out
    if isinstance(node, dict):
        for k, v in node.items():
            _json_columns(v, f"{key}.{k}" if key else str(k), out)
    elif isinstance(node, list):
        for v in node:
            _json_columns(v, f"{key}[]", out)
    else:
        out.setdefault(key, []).append(node)
    return out


def _numeric(values: list) -> list[float] | None:
    """The column as floats, or None when an entry is not a number."""
    out = []
    for v in values:
        if isinstance(v, bool) or v is None:
            return None
        x = v if isinstance(v, (int, float)) else _number(str(v))
        if x is None:
            return None
        out.append(float(x))
    return out


def column_changes(base: Path, head: Path) -> list[tuple[str, str]] | None:
    """(column, largest change) per numeric column of two CSV or JSON files,
    or None when the file is neither or the two do not have the same columns
    and lengths."""
    if base.suffix == ".csv":
        cols_a, cols_b = _csv_columns(base), _csv_columns(head)
    elif base.suffix == ".json":
        try:
            cols_a = _json_columns(json.loads(base.read_text(encoding="utf-8")))
            cols_b = _json_columns(json.loads(head.read_text(encoding="utf-8")))
        except ValueError:
            return None
    else:
        return None
    if cols_a.keys() != cols_b.keys() or any(len(cols_a[k]) != len(cols_b[k]) for k in cols_a):
        return None
    out = []
    for name in cols_a:
        a, b = _numeric(cols_a[name]), _numeric(cols_b[name])
        if a is None or b is None or a == b:
            continue
        change = max(abs(y - x) for x, y in zip(a, b))
        scale = max(abs(x) for x in a)
        out.append((name, f"{change / scale:.3g} relative" if scale else f"{change:.3g} absolute"))
    return out


def main(argv: list[str] | None = None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if len(argv) != 2:
        print(__doc__.strip().splitlines()[2].strip(), file=sys.stderr)
        return 2
    base, head = (Path(a) for a in argv)
    files_a = {p.relative_to(base) for p in base.rglob("*") if p.is_file()}
    files_b = {p.relative_to(head) for p in head.rglob("*") if p.is_file()}
    for rel in sorted(files_a ^ files_b):
        print(f"{rel}: only in {'BASE' if rel in files_a else 'HEAD'}")
    for rel in sorted(files_a & files_b):
        if (base / rel).read_bytes() == (head / rel).read_bytes():
            continue
        changes = column_changes(base / rel, head / rel)
        if not changes:
            print(f"{rel}: differs, " + ("no numeric column moved" if changes == []
                                         else "no column-wise comparison"))
        for name, change in changes or []:
            print(f"{rel}\t{name}\t{change}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
