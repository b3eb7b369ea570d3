"""Command-line surface: build arrangements, evaluate spreads, print
bound tables, certify optima, run erasure simulations, render grids.

Exit codes: 0 success, 2 validation error, 3 budget refusal.  Errors are
one line on stderr, prefixed ``spreadlab: error:``.  All output is
byte-stable for fixed flags and seed.
"""

from __future__ import annotations

import argparse
import json
import sys

import numpy as np

from . import bounds as bounds_mod
from .core import Arrangement, Shape, SliceSpec, max_spread
from .diagonal import blocked_diagonal, diagonal_in_cube
from .herringbone import HerringboneSpec, herringbone_recursive
from .merge import herringbone_merge
from .oracle import FULL, MONOTONE, BudgetExceededError, SearchConfig, brute_force_optimal
from .oracle import default_budget
from .quantizer_sim import ChannelSystem, simulate

RENDER_CAP = 40


class CliError(Exception):
    def __init__(self, message: str, code: int = 2):
        super().__init__(message)
        self.code = code


def parse_shape(text: str) -> Shape:
    try:
        sizes = tuple(int(part) for part in text.lower().split("x"))
    except ValueError:
        raise CliError(f"cannot parse shape {text!r}; expected like 3x3x3")
    if any(n < 1 for n in sizes):
        raise CliError(f"shape extents must be positive, got {text!r}")
    return Shape(sizes)


def _require_cubic(shape: Shape, method: str) -> int:
    if not shape.is_cubic:
        raise CliError(f"method {method} needs a cubic shape, got {shape}")
    return shape.sizes[0]


def _require_budget(count: int, what: str) -> None:
    """Refuse work that allocates `count` items before allocating any."""
    budget = default_budget()
    if count > budget:
        raise BudgetExceededError(f"{count} {what} exceed budget {budget}", estimate=count)


def _dump_json(doc: dict) -> str:
    return json.dumps(doc, sort_keys=True, separators=(",", ":")) + "\n"


def _write_out(text: str, out: str | None) -> None:
    if out in (None, "-"):
        sys.stdout.write(text)
    else:
        with open(out, "w", encoding="utf-8") as fh:
            fh.write(text)


def _load_arrangement(path: str) -> Arrangement:
    try:
        if path == "-":
            return Arrangement.from_json(sys.stdin.read())
        with open(path, encoding="utf-8") as fh:
            return Arrangement.from_json(fh.read())
    except FileNotFoundError:
        raise CliError(f"no such file: {path}")
    except (ValueError, KeyError, TypeError, OverflowError) as exc:
        raise CliError(f"bad arrangement file {path}: {exc}")


def _build(args) -> str:
    shape = parse_shape(args.shape)
    _require_budget(shape.cell_count, "cells")
    method = args.method
    m = args.m
    if m is not None and not 1 <= m <= shape.cell_count:
        raise CliError(f"--m must be in 1..{shape.cell_count} for shape {shape}")
    if method == "herringbone":
        arr = herringbone_recursive(HerringboneSpec(shape))
        if m is not None:
            arr = Arrangement.from_value_order(shape, arr.cells[:m])
    elif method == "rowmajor":
        cells = list(shape.cells())
        arr = Arrangement.from_value_order(shape, cells[: m or len(cells)])
    elif method == "replicate":
        n = _require_cubic(shape, method)
        if m is not None and m != n:
            raise CliError(f"replicate places exactly n={n} values")
        arr = Arrangement.from_value_order(shape, [(i,) * shape.k for i in range(n)])
    elif method == "merge":
        n = _require_cubic(shape, method)
        if m is not None and m != shape.cell_count:
            raise CliError("merge fills the cube completely; drop --m")
        arr = herringbone_merge(n, shape.k)
    elif method == "diagonal":
        n = _require_cubic(shape, method)
        arr = diagonal_in_cube(n, shape.k, m if m is not None else shape.cell_count)
    elif method == "blocked":
        n = _require_cubic(shape, method)
        arr = blocked_diagonal(n, shape.k, m if m is not None else shape.cell_count)
    else:  # pragma: no cover - argparse restricts choices
        raise CliError(f"unknown method {method}")
    return arr.to_json() + "\n"


def _slice_doc(spec: SliceSpec) -> dict:
    return {"free_dims": list(spec.free_dims), "fixed": {str(d): c for d, c in spec.fixed}}


def _spread(args) -> str:
    arr = _load_arrangement(args.arrangement)
    if not 1 <= args.l <= arr.shape.k:
        raise CliError(f"--l must be in 1..{arr.shape.k}")
    report = max_spread(arr, args.l, per_slice=args.per_slice)
    if args.format == "json":
        doc = {
            "l": report.l,
            "max_spread": report.max_spread,
            "witness": _slice_doc(report.witness),
        }
        if report.per_slice is not None:
            doc["per_slice"] = [
                {**_slice_doc(s), "spread": v} for s, v in report.per_slice.items()
            ]
        return _dump_json(doc)
    lines = [f"l={report.l} max_spread={report.max_spread} witness={report.witness}"]
    if report.per_slice is not None:
        lines += [f"{s} {v}" for s, v in report.per_slice.items()]
    return "\n".join(lines) + "\n"


def _bounds(args) -> str:
    shape = parse_shape(args.shape)
    _require_budget(shape.cell_count, "cells")
    n = _require_cubic(shape, "bounds")
    k = shape.k
    ls = tuple(range(1, (args.l_max or 1) + 1))
    report = bounds_mod.bounds_report(n, k, ls=ls)
    if args.format == "json":
        return _dump_json(report.to_json_dict())
    if args.format == "csv":
        lines = ["n,k,l,theorem1_lb,exact_pairing_lb,merge_ub"]
        lines += [",".join(str(v) for v in row) for row in report.csv_rows()]
        return "\n".join(lines) + "\n"
    lines = [
        f"n={n} k={k}",
        f"theorem1_lb={report.theorem1_lb}",
        f"merge_ub={report.merge_ub}",
    ]
    for l in sorted(report.exact_pairing_lb):
        lines.append(f"exact_pairing_lb[l={l}]={report.exact_pairing_lb[l]}")
    for l in sorted(report.multi_failure):
        lines.append(f"multi_failure[l={l}]={report.multi_failure[l]}")
    return "\n".join(lines) + "\n"


def _oracle(args) -> str:
    shape = parse_shape(args.shape)
    cfg = SearchConfig(
        shape=shape,
        m=args.m,
        l=args.l,
        mode=args.mode,
        budget=args.budget,
    )
    value, witness = brute_force_optimal(cfg)
    doc = {
        "optimal_spread": value,
        "l": args.l,
        "mode": args.mode,
        "witness": witness.to_json_dict(),
    }
    if args.out:
        _write_out(witness.to_json() + "\n", args.out)
        return f"optimal_spread={value}\n"
    return _dump_json(doc)


def _simulate(args) -> str:
    _require_budget(args.trials, "trials")
    arr = _load_arrangement(args.arrangement)
    # one slice reduction (and one decoder table) per failure pattern
    _require_budget((2**arr.shape.k - 2) * arr.shape.cell_count, "failure-pattern cells")
    report = simulate(
        ChannelSystem(arr),
        p=args.p,
        trials=args.trials,
        seed=args.seed,
        forced_mask=args.force_pattern,
    )
    return _dump_json(report.to_json_dict())


def _render(args) -> str:
    arr = _load_arrangement(args.arrangement)
    if arr.shape.k != 2:
        raise CliError("render shows 2-D arrangements only")
    rows, cols = arr.shape.sizes
    out_lines = []
    plot_lines = ["x,y,value"]
    for (i, j), v in np.ndenumerate(arr.grid):
        if v != -1:
            plot_lines.append(f"{i},{j},{v}")
    if args.plot_data:
        _write_out("\n".join(plot_lines) + "\n", args.plot_data)
    if rows <= RENDER_CAP and cols <= RENDER_CAP:
        width = max(2, len(str(max(arr.m - 1, 0))))
        for i in range(rows):
            out_lines.append(
                " ".join(
                    f"{'.' * width if arr.grid[i, j] == -1 else arr.grid[i, j]:>{width}}"
                    for j in range(cols)
                )
            )
        return "\n".join(out_lines) + "\n"
    if not args.plot_data:
        raise CliError(
            f"grid exceeds {RENDER_CAP}x{RENDER_CAP}; pass --plot-data FILE for triples"
        )
    return f"grid exceeds {RENDER_CAP}x{RENDER_CAP}; plot data written\n"


def _oracle_cell(n: int, k: int, budget: int | None) -> str:
    shape = Shape((n,) * k)
    try:
        cfg = SearchConfig(shape=shape, mode=FULL, budget=budget)
        value, _ = brute_force_optimal(cfg)
        return str(value)
    except BudgetExceededError:
        pass
    if shape.cell_count <= 16:
        try:
            cfg = SearchConfig(shape=shape, mode=MONOTONE, budget=budget)
            value, _ = brute_force_optimal(cfg)
            return str(value)
        except BudgetExceededError:
            pass
    return ""


def _table(args) -> str:
    budget = default_budget()
    # the largest row builds n_max^k_max cells; with n_max >= 2 a power past
    # budget.bit_length() already exceeds the budget, so none larger is computed
    reach = min(args.k_max, budget.bit_length() + 1)
    if args.n_max >= 2 and args.k_max >= 2 and args.n_max**reach > budget:
        raise BudgetExceededError(f"rows up to {args.n_max}^{args.k_max} cells exceed budget {budget}")
    lines = ["n,k,l,theorem1_lb,exact_pairing_lb,merge_ub" + (",oracle_opt" if args.oracle else "")]
    for k in range(2, args.k_max + 1) if args.n_max >= 2 else ():  # no rows: skip the k loop
        for n in range(2, args.n_max + 1):
            row = [
                n,
                k,
                1,
                bounds_mod.theorem1_lower_bound(n, k),
                bounds_mod.exact_pairing_lb(n, k, 1),
                bounds_mod.merge_upper_bound(n, k),
            ]
            text = ",".join(str(v) for v in row)
            if args.oracle:
                text += "," + _oracle_cell(n, k, args.budget)
            lines.append(text)
    return "\n".join(lines) + "\n"


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="spreadlab",
        description="Constructions, bounds, oracles, and erasure simulations "
        "for low-spread integer arrangements.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("build", help="construct an arrangement, emit JSON")
    p.add_argument("--shape", required=True)
    p.add_argument(
        "--method",
        required=True,
        choices=["herringbone", "merge", "diagonal", "blocked", "rowmajor", "replicate"],
    )
    p.add_argument("--m", type=int)
    p.add_argument("--out")
    p.set_defaults(func=_build)

    p = sub.add_parser("spread", help="evaluate worst l-slice spread of a JSON arrangement")
    p.add_argument("--arrangement", required=True, help="file path or - for stdin")
    p.add_argument("--l", type=int, default=1)
    p.add_argument("--per-slice", action="store_true")
    p.add_argument("--format", choices=["text", "json"], default="text")
    p.set_defaults(func=_spread)

    p = sub.add_parser("bounds", help="closed-form bound report for one cube")
    p.add_argument("--shape", required=True)
    p.add_argument("--l-max", type=int, default=1)
    p.add_argument("--format", choices=["text", "json", "csv"], default="text")
    p.set_defaults(func=_bounds)

    p = sub.add_parser("oracle", help="certify the optimal spread by exhaustive search")
    p.add_argument("--shape", required=True)
    p.add_argument("--m", type=int)
    p.add_argument("--l", type=int, default=1)
    p.add_argument("--mode", choices=[FULL, MONOTONE], default=FULL)
    p.add_argument("--budget", type=int)
    p.add_argument("--out", help="write the witness arrangement here")
    p.set_defaults(func=_oracle)

    p = sub.add_parser("simulate", help="seeded Monte-Carlo erasure run")
    p.add_argument("--arrangement", required=True)
    p.add_argument("--p", type=float, default=0.1)
    p.add_argument("--trials", type=int, default=10000)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--force-pattern", type=int)
    p.set_defaults(func=_simulate)

    p = sub.add_parser("render", help="print a 2-D arrangement as an aligned grid")
    p.add_argument("--arrangement", required=True)
    p.add_argument("--plot-data", help="also write x,y,value triples here")
    p.set_defaults(func=_render)

    p = sub.add_parser("table", help="lower/upper bound comparison table")
    p.add_argument("--n-max", type=int, default=9)
    p.add_argument("--k-max", type=int, default=4)
    p.add_argument("--oracle", action="store_true")
    p.add_argument("--budget", type=int)
    p.set_defaults(func=_table)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        text = args.func(args)
    except CliError as exc:
        print(f"spreadlab: error: {exc}", file=sys.stderr)
        return exc.code
    except BudgetExceededError as exc:
        print(f"spreadlab: error: budget refusal: {exc}", file=sys.stderr)
        return 3
    except (ValueError, KeyError) as exc:
        print(f"spreadlab: error: {exc}", file=sys.stderr)
        return 2
    if getattr(args, "command", "") == "build":
        _write_out(text, args.out)
    else:
        sys.stdout.write(text)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
