"""Command-line front end: partition listings, coefficient tables, expansions,
Bell/Stirling output, concrete checks, and the verification suites.

Exit codes: 0 success, 1 verification failure, 2 usage or resource error
(cap violations, an unwritable --out file, running out of memory), 130 an
interrupt.  Output is byte-deterministic for identical flags and seed.
"""

from __future__ import annotations

import argparse
import json
import sys
from itertools import chain
from typing import Iterable, Iterator

# each handler imports the modules it runs, so a command loads no other layer
from .partitions import DEFAULT_WEIGHT_CAP, CapExceeded, partition_count_dp

FORMATS = ("json", "csv", "latex", "pretty")


def _nonneg(text: str) -> int:
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"not an integer: {text!r}") from None
    if value < 0:
        raise argparse.ArgumentTypeError("value must be non-negative")
    return value


def _positive(text: str) -> int:
    value = _nonneg(text)
    if value == 0:
        raise argparse.ArgumentTypeError("value must be positive")
    return value


def _polynomial(text: str):
    from .polynomials import RationalPolynomial
    try:
        return RationalPolynomial.from_string(text)
    except (ValueError, ZeroDivisionError) as exc:
        raise argparse.ArgumentTypeError(f"bad polynomial literal {text!r}: {exc}") from None


# argparse takes a value that starts with "-" for an option unless it is a
# plain number; after these flags, "-" and a digit or "." open a polynomial literal
_LITERAL_FLAGS = ("--f", "--g", "--phi")


def _join_literals(argv: list[str]) -> list[str]:
    """argv with each negative literal joined to its flag, as in --f=-1,2."""
    joined: list[str] = []
    for arg in argv:
        opens = arg[:1] == "-" and (arg[1:2].isdigit() or arg[1:2] == ".")
        if joined and joined[-1] in _LITERAL_FLAGS and opens:
            joined[-1] += f"={arg}"
        else:
            joined.append(arg)
    return joined


def build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--format", choices=FORMATS, default="pretty")
    common.add_argument("--cap", type=_positive, default=DEFAULT_WEIGHT_CAP)
    common.add_argument("--out", metavar="FILE", default=None)
    # refused=(formats a command has no form for, the stderr line refusing them before any work)
    common.set_defaults(refused=((), ""))

    parser = argparse.ArgumentParser(
        prog="faadibruno",
        description="Exact expansions of higher-order derivatives of "
        "(f o phi) * (g o phi^(s)), with verification suites.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("partitions", parents=[common], help="list the partitions of n")
    p.add_argument("--n", type=_nonneg, required=True)
    p.set_defaults(run=_cmd_partitions)

    p = sub.add_parser("coeff", parents=[common], help="coefficient table for (n, s)")
    p.add_argument("--n", type=_nonneg, required=True)
    p.add_argument("--s", type=_nonneg, default=0)
    p.add_argument("--verify", action="store_true", help="cross-check against the recurrence")
    p.set_defaults(run=_cmd_coeff)

    p = sub.add_parser("expand", parents=[common], help="closed-formula expansion for (n, s)")
    p.add_argument("--n", type=_nonneg, required=True)
    p.add_argument("--s", type=_nonneg, default=0)
    p.add_argument("--verify", action="store_true", help="compare against the symbolic oracle")
    p.set_defaults(run=_cmd_expand, refused=(("csv",), "csv output is not defined for expansions"))

    p = sub.add_parser("bell", parents=[common], help="modified partial Bell polynomial")
    p.add_argument("--n", type=_nonneg, required=True)
    p.add_argument("--k", type=_nonneg, required=True)
    p.add_argument("--r", type=_nonneg, default=0)
    p.add_argument("--s", type=_nonneg, default=0)
    p.set_defaults(
        run=_cmd_bell, refused=(("csv",), "csv output is not defined for Bell polynomials")
    )

    p = sub.add_parser("stirling", parents=[common], help="modified Stirling number table")
    p.add_argument("--n-max", type=_nonneg, required=True)
    p.set_defaults(run=_cmd_stirling)

    p = sub.add_parser("check", parents=[common], help="concrete polynomial check of the expansion")
    p.add_argument("--f", type=_polynomial, required=True, metavar="COEFFS")
    p.add_argument("--g", type=_polynomial, required=True, metavar="COEFFS")
    p.add_argument("--phi", type=_polynomial, required=True, metavar="COEFFS")
    p.add_argument("--n", type=_nonneg, required=True)
    p.add_argument("--s", type=_nonneg, default=0)
    p.set_defaults(run=_cmd_check, refused=(("csv", "latex"), "check reports are JSON only"))

    p = sub.add_parser("verify", parents=[common], help="run every identity suite")
    p.add_argument("--max-n", type=_nonneg, default=5)
    p.add_argument("--max-s", type=_nonneg, default=2)
    p.add_argument("--trials", type=_nonneg, default=20)
    p.add_argument("--seed", type=_nonneg, default=0)
    p.set_defaults(run=_cmd_verify, refused=(("csv", "latex"), "verify reports are JSON only"))

    return parser


def _write(chunks: Iterable[str], out: str | None) -> None:
    # UTF-8 bytes straight to stdout or the file: byte-deterministic and locale-proof
    data = (chunk.encode("utf-8") for chunk in chunks)
    if out is None:
        sys.stdout.buffer.writelines(data)
        sys.stdout.flush()
    else:
        with open(out, "wb") as handle:
            handle.writelines(data)


# json.dumps(data, indent=2, ensure_ascii=False), with one encoder for every call
_JSON = json.JSONEncoder(indent=2, ensure_ascii=False)
_json_text = _JSON.encode


def _json_rows(frame, lines) -> Iterator[str]:
    """The text of _json_text(frame(list of items)) + newline, one item line at a time.

    frame is a top-level object whose values are scalars and the item list,
    so the list sits one level deep; each of *lines* is one item's text at
    that depth, from the line break before it, and they are joined by commas.
    """
    hole = "<rows>"
    head, _, foot = _json_text(frame(hole)).partition(_json_text(hole))
    yield head
    opening, close = "[", "[]"
    for line in lines:
        yield opening + line
        opening, close = ",", "\n  ]"
    yield f"{close}{foot}\n"


def _json_field(values, brackets="[]") -> str:
    # a list of numbers, or with brackets "{}" an exponent map ((index, exponent),
    # ...) as the object {"index": exponent}, as json.dumps with indent 2 renders
    # it in a field of a list item
    if not values:
        return brackets
    line = str if brackets == "[]" else '"{0[0]}": {0[1]}'.format
    lines = ",\n        ".join(map(line, values))
    return f"{brackets[0]}\n        {lines}\n      {brackets[1]}"


# The json item of an expansion term (monomial, coefficient).  Every term the
# CLI writes has integer f and g orders: an expansion monomial carries one F
# and one G factor.
def _diff_item(term) -> str:
    (f, g, y, z), coeff = term
    return (f'\n    {{\n      "f": {f},\n      "g": {g},\n      "y": {_json_field(y, "{}")},'
            f'\n      "z": {_json_field(z, "{}")},\n      "coeff": "{coeff}"\n    }}')


def _emit_rows(rows, args, *, frame, json, csv, pretty, latex, tabular, title=()) -> int:
    """Write a table or listing in args.format: the one writer for every table.

    Every format is streamed row by row, so memory stays flat however many
    rows there are, and every row is its format's template call.  json writes
    the bytes of one document, frame(list of items), as json.dumps with indent
    2 would (see _json_rows).  csv, pretty and latex write one line per row,
    newline included: pretty after the fixed head lines *title*, latex
    between the fixed head lines *tabular* (the tabular opening and any
    column-header row) and the tabular close.
    """
    if args.format == "json":
        _write(_json_rows(frame, map(json, rows)), args.out)
        return 0
    head, line, foot = {
        "csv": ((), csv, ()),
        "pretty": (title, pretty, ()),
        "latex": (tabular, latex, (r"\end{tabular}",)),
    }[args.format]
    fixed = "{}\n".format
    _write(chain(map(fixed, head), map(line, rows), map(fixed, foot)), args.out)
    return 0


# A listing block is the text of the partitions of m into parts <= k, in walk
# order: each part preceded by the separator, the lines joined by the delimiter
# end + between + lead.  The k-led lines are sep + k followed by the block of
# m - k into parts <= k, a copy of that head after each of its delimiters, so
# each line is prefixed by one str.replace, not one Python step per partition.
# No delimiter occurs inside a line, which holds only digits and separators.
# Blocks are kept only up to the first weight whose block passes this many
# bytes, whatever the listing's n; heavier prefixes are walked.
_BLOCK_BYTES = 1 << 16


def _listing_blocks(sep: str, delimiter: str, most: int) -> list:
    """[(text, starts)] for m = 0, 1, ... up to *most* or the byte bound.

    text is the block of every partition of m; it opens with the m-led
    lines, so the block of parts <= k is its suffix text[starts[k]:].
    """
    blocks = [("", [0])]
    for m in range(1, most + 1):
        led, starts, offset = [], [0] * (m + 1), 0
        for k in range(m, 0, -1):
            rest, rest_starts = blocks[m - k]
            head = f"{sep}{k}"
            lines = head + rest[rest_starts[min(k, m - k)]:].replace(delimiter, delimiter + head)
            starts[k], offset = offset, offset + len(lines) + len(delimiter)
            led.append(lines)
        text = delimiter.join(led)
        if len(text) > _BLOCK_BYTES:
            break
        blocks.append((text, starts))
    return blocks


def _listing_pieces(
    n: int, lead: str, sep: str, end: str, between: str, empty: str
) -> Iterator[str]:
    """The listing lines of the partitions of n, in walk order, a run of them per piece.

    A line is lead, the parts joined by sep, then end; the empty partition's
    line is *empty*.  The lines within a piece are joined by *between*.
    Prefixes whose remainder has a block are rendered from it in one piece;
    heavier ones are walked on an explicit stack, largest part first, and a
    remainder of 1s is rendered from its count.
    """
    if n == 0:
        yield empty
        return
    delimiter = end + between + lead
    blocks = _listing_blocks(sep, delimiter, n)
    light = len(blocks) - 1  # the heaviest remainder with a block
    # (the rendered prefix, the weight left, the largest part allowed)
    stack = [(str(k), n - k, min(k, n - k)) for k in range(1, n + 1)]
    while stack:
        head, m, k = stack.pop()
        if m <= light:
            text, starts = blocks[m]
            yield lead + head + text[starts[k]:].replace(delimiter, delimiter + head) + end
        elif k == 1:
            yield lead + head + f"{sep}1" * m + end
        else:
            stack.extend((f"{head}{sep}{j}", m - j, min(j, m - j)) for j in range(1, k + 1))


# format -> (lead, separator, end, between, the empty partition's line) of a
# listing line; a json line is one item of the document's "partitions" list
_LISTING = {
    "csv": ("", " ", "\n", "", "\n"),
    "pretty": ("", "+", "\n", "", "0\n"),
    "latex": ("$", "+", "$ \\\\\n", "", "$0$ \\\\\n"),
    "json": ('\n    {\n      "parts": [\n        ', ",\n        ", "\n      ]\n    }", ",",
             '\n    {\n      "parts": []\n    }'),
}


def _cmd_partitions(args) -> int:
    # the json frame takes the count from the DP before the first line
    n = args.n
    CapExceeded.check(n, args.cap, "partition enumeration")
    return _emit_rows(
        _listing_pieces(n, *_LISTING[args.format]),
        args,
        frame=lambda items: {
            "n": n,
            "count": partition_count_dp(n)[n],
            "partitions": items,
        },
        **dict.fromkeys(FORMATS, str),  # the rows are runs of lines
        tabular=(r"\begin{tabular}{l}",),
    )


def _emit_polynomial(poly, header: dict, item, args) -> int:
    # json writes {**header, "terms": [item(term), ...]}, one term at a time
    if args.format == "json":
        text = _json_rows(lambda items: {**header, "terms": items}, map(item, poly.terms()))
    else:
        text = (poly.latex() if args.format == "latex" else poly.pretty(), "\n")
    _write(text, args.out)
    return 0


def _cmd_coeff(args) -> int:
    from .coefficients import coefficient_table
    n, s = args.n, args.s
    item = '\n    {{\n      "r": {},\n      "parts": {},\n      "coeff": "{}"\n    }}'.format
    return _emit_rows(
        coefficient_table(n, s, verify=args.verify, cap=args.cap),
        args,
        frame=lambda items: {"n": n, "s": s, "entries": items},
        json=lambda e: item(e[0], _json_field(e[1].parts), e[2]),
        csv=lambda e: f"{e[0]},{' '.join(map(str, e[1].parts))},{e[2]}\n",
        pretty=lambda e: f"  r={e[0]}  {'+'.join(map(str, e[1].parts)) or '0':<18} {e[2]}\n",
        latex=lambda e: f"{e[0]} & ({', '.join(map(str, e[1].parts))}) & {e[2]} \\\\\n",
        title=(f"n={n} s={s}",),
        tabular=(r"\begin{tabular}{rll}", r"$r$ & $\lambda$ & $C$ \\ \hline"),
    )


def _cmd_expand(args) -> int:
    from .diffalg import formula_expansion, nth_derivative_expansion
    expansion = formula_expansion(args.n, args.s, cap=args.cap)
    if args.verify:
        oracle = nth_derivative_expansion(args.n, args.s, cap=args.cap)
        if expansion != oracle:
            head = {"equal": False, "n": args.n, "s": args.s}
            terms = map(_diff_item, (expansion - oracle).terms())
            _write(_json_rows(lambda items: {**head, "difference": items}, terms), args.out)
            return 1
    return _emit_polynomial(expansion, {"n": args.n, "s": args.s}, _diff_item, args)


def _cmd_bell(args) -> int:
    from .bell import modified_partial_bell
    poly = modified_partial_bell(args.n, args.k, args.r, args.s, cap=args.cap)
    header = {"n": args.n, "k": args.k, "r": args.r, "s": args.s}
    item = '\n    {{\n      "y": {},\n      "coeff": "{}"\n    }}'.format
    return _emit_polynomial(poly, header, lambda t: item(_json_field(t[0], "{}"), t[1]), args)


def _cmd_stirling(args) -> int:
    from .bell import stirling_table
    item = ('\n    {{\n      "n": {0[0]},\n      "k": {0[1]},\n      "r": {0[2]},'
            '\n      "value": "{0[3]}"\n    }}').format
    return _emit_rows(
        stirling_table(args.n_max, cap=args.cap),
        args,
        frame=lambda items: {"n_max": args.n_max, "entries": items},
        json=item,
        csv="{0[0]},{0[1]},{0[2]},{0[3]}\n".format,
        pretty="S~({0[0]},{0[1]},{0[2]}) = {0[3]}\n".format,
        latex="{0[0]} & {0[1]} & {0[2]} & {0[3]} \\\\\n".format,
        tabular=(r"\begin{tabular}{rrrr}", r"$n$ & $k$ & $r$ & $\widetilde{S}$ \\ \hline"),
    )


def _cmd_check(args) -> int:
    from .polynomials import check_main_theorem
    report = check_main_theorem(args.f, args.g, args.phi, args.n, args.s, cap=args.cap)
    _write((_json_text(report), "\n"), args.out)
    return 0 if report["equal"] else 1


def _cmd_verify(args) -> int:
    from .verification import run_all
    report = run_all(
        max_n=args.max_n, max_s=args.max_s, seed=args.seed, trials=args.trials, cap=args.cap
    )
    _write((_json_text(report), "\n"), args.out)
    return 0 if report["passed"] else 1


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(_join_literals(sys.argv[1:] if argv is None else argv))
    refused, line = args.refused
    if args.format in refused:
        print(line, file=sys.stderr)
        return 2
    try:
        return args.run(args)
    except (ValueError, OSError, OverflowError, RecursionError) as exc:  # CapExceeded: a ValueError
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except ArithmeticError as exc:  # a CrossCheckError or IntegralityError: an identity failed
        print(f"verification failure: {exc}", file=sys.stderr)
        return 1
    except MemoryError:
        print("error: out of memory", file=sys.stderr)
        return 2
    except KeyboardInterrupt:
        print("error: interrupted", file=sys.stderr)
        return 130


if __name__ == "__main__":
    raise SystemExit(main())
