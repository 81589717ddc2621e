"""pointset.csv as it was written and read before `udfield.serialize` took
both directions, kept verbatim as differential-test oracles:
`write_pointset_csv`, which reduced every entry and formatted every line
on its own, and `read_exact_csv`, the exact-column reader of `count
--method exact` (then `cli._count_exact_csv`), which made one Fraction per
fractional entry and laid the rows out through `stack_rows`.

The only edits: the reader is a function of the CSV path and the field
degree n, which it took from `args.csv` and `K.n`, and it returns
`(rows, denom)` where it went on to count them; the imports are
absolute.
"""

from udfield.errors import ParseError
from udfield.linalg import stack_rows
from udfield.serialize import _reduced_str, float17, open_file, parse_frac


def write_pointset_csv(ps, path: str):
    """Columns: index, re/im float positions (within the certified bound of
    counting.planar_image; exact zeros print as 0), exact coordinates, each
    in lowest terms."""
    n = ps.field.n
    header = "index,re,im," + ",".join(f"c{i}" for i in range(n))
    lines = [header]
    for idx, (row, (x, y)) in enumerate(zip(ps.rows, ps.planar)):
        coords = ",".join(_reduced_str(c, ps.denom) for c in row)
        lines.append(f"{idx},{float17(x)},{float17(y)},{coords}")
    with open_file(path, "w") as fh:
        fh.write("\n".join(lines) + "\n")


def read_exact_csv(path: str, n: int):
    def entry(text):
        # int() reads a subset of what Fraction() reads, with the same value
        try:
            return int(text)
        except ValueError:
            return parse_frac(text)

    entries = []
    with open_file(path) as fh:
        cols = [c.strip() for c in fh.readline().split(",")]
        if any(f"c{i}" not in cols for i in range(n)):
            raise ParseError(f"{path}: needs exact coordinate columns c0..c{n - 1}")
        idxs = [cols.index(f"c{i}") for i in range(n)]
        for lineno, line in enumerate(fh, start=2):
            parts = line.split(",")
            if len(parts) != len(cols):
                if not line.strip():
                    continue
                raise ParseError(f"line {lineno}: {len(parts)} fields, "
                                 f"header has {len(cols)}")
            try:
                entries.extend([entry(parts[t]) for t in idxs])
            except ParseError as exc:
                raise ParseError(f"line {lineno}: {exc}") from None
    rows, denom = stack_rows([((q.numerator,), q.denominator) for q in entries], n)
    return rows, denom
