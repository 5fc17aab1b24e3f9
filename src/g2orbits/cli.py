"""Command-line interface.

Subcommands:
    table        octonion multiplication table as JSON
    derivations  the 14 basis derivations and structure constants as JSON
    roots        the 12 roots with exact lengths as JSON
    classify     orbit-type report for one Cartan element
    scan         lattice census over a ball of given radius
    check        run the full verification suite

Exit codes: 0 success, 2 invalid input, 3 internal invariant violation
(or a failing verification in `check`); the `g2orbits` script also exits 1
when its stdout is closed early, as by `g2orbits scan ... | head`.
"""

from __future__ import annotations

import argparse
import json
import sys
from fractions import Fraction

from .cayley import MULT_TABLE
from .derivations import derivation_basis
from .errors import InternalInvariantError, SumNonzeroError
from .linalg import MAX_EXPONENT, _exponent_out_of_bounds
from .orbits import CONVENTION_DEFAULT, classify, conventions, scan
from .roots import CartanElement, root_system


# bound on each --tau literal, checked with linalg's on its exponent
TAU_MAX_CHARS = 100

# bound on scan --radius: a scan streams its rows in constant memory, so a
# run at the bound (120,601 points) needs no more memory than one at radius 6
SCAN_MAX_RADIUS = 200


class _InputError(Exception):
    """Invalid command-line input (exit code 2)."""


def _parse_tau(text: str, project: bool) -> CartanElement:
    parts = [p.strip() for p in text.split(",")]
    if len(parts) != 3:
        raise _InputError(f"--tau needs 3 comma-separated rationals, got {text!r}")
    for p in parts:
        if len(p) > TAU_MAX_CHARS or _exponent_out_of_bounds(p):
            raise _InputError(
                f"--tau literal {p[:24]!r} is out of bounds: at most {TAU_MAX_CHARS} characters"
                f" and a decimal exponent of magnitude at most {MAX_EXPONENT}"
            )
    try:
        vals = [Fraction(p) for p in parts]
    except (ValueError, ZeroDivisionError) as exc:
        raise _InputError(f"bad rational in --tau: {exc}") from None
    total = sum(vals)
    if total != 0:
        if not project:
            # surfaced as SUM_NONZERO with exit code 2
            raise SumNonzeroError(
                f"components sum to {total}; pass --project to remove the mean"
            )
        mean = total / 3
        vals = [v - mean for v in vals]
    return CartanElement(vals)


def cmd_table(args) -> int:
    basis_names = [f"e{i}" for i in range(8)]
    display = [
        [("" if s > 0 else "-") + basis_names[k] for k, s in row] for row in MULT_TABLE
    ]
    products = [[[str(s) if i == k else "0" for i in range(8)] for k, s in row] for row in MULT_TABLE]
    print(json.dumps({"basis": basis_names, "display": display, "products": products}, indent=2))
    return 0


def cmd_derivations(args) -> int:
    b = derivation_basis()
    matrices = [[[str(v) for v in d.matrix.row(i)] for i in range(8)] for d in b.basis]
    constants = []
    c = b.structure_constants
    for i in range(b.dim):
        for j in range(b.dim):
            for k in range(b.dim):
                if c[i][j][k]:
                    constants.append({"i": i, "j": j, "k": k, "c": str(c[i][j][k])})
    print(json.dumps({"dimension": b.dim, "basis": matrices, "structure_constants": constants}, indent=2))
    return 0


def cmd_roots(args) -> int:
    roots = root_system()
    payload = [
        {
            "coeffs": list(r.coeffs),
            "killing_sq_length": str(r.killing_sq_length),
            "length_class": r.length_class,
        }
        for r in roots
    ]
    print(json.dumps({"roots": payload}, indent=2))
    return 0


def cmd_classify(args) -> int:
    tau = _parse_tau(args.tau, args.project)
    report = classify(tau, convention=args.convention)
    if args.json:
        print(json.dumps(report.to_json_dict(), indent=2))
    else:
        d = report.to_json_dict()
        print("tau:             " + ", ".join(d["tau"]))
        print(f"stabilizer_dim:  {d['stabilizer_dim']}")
        print(f"orbit_type:      {d['orbit_type']}")
        print(f"orbit_label:     {d['orbit_label']}")
        print(f"vanishing_roots: {d['vanishing_roots']}")
        s = d["structure"]
        print(
            "structure:       dim=%d derived_dim=%d center_dim=%d"
            % (s["dim"], s["derived_dim"], s["center_dim"])
        )
        print(f"convention:      {d['convention']}")
    return 0


def cmd_scan(args) -> int:
    if not 1 <= args.radius <= SCAN_MAX_RADIUS:
        raise _InputError(f"--radius must be between 1 and {SCAN_MAX_RADIUS}, got {args.radius}")
    census = scan(args.radius)
    lines = census.json_lines() if args.format == "json" else census.csv_rows()
    for line in lines:
        print(line)
    return 0


def cmd_check(args) -> int:
    from .checks import run_all

    return 0 if run_all() else 3


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="g2orbits",
        description="Exact octonion derivation algebra and adjoint orbit classification.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("table", help="octonion multiplication table")
    p.set_defaults(func=cmd_table)

    p = sub.add_parser("derivations", help="basis derivations and structure constants")
    p.set_defaults(func=cmd_derivations)

    p = sub.add_parser("roots", help="the 12 roots with exact Killing lengths")
    p.set_defaults(func=cmd_roots)

    p = sub.add_parser("classify", help="orbit type of one Cartan element")
    p.add_argument("--tau", required=True, help="three rationals, e.g. 1,0,-1 or 1/2,1/2,-1")
    p.add_argument("--project", action="store_true", help="subtract the mean if the sum is nonzero")
    p.add_argument("--json", action="store_true", help="emit the JSON report")
    p.add_argument("--convention", choices=conventions(), default=CONVENTION_DEFAULT,
                   help="label pairing for the two 4-dimensional stabilizer classes")
    p.set_defaults(func=cmd_classify)

    p = sub.add_parser("scan", help="classify all lattice points with max |tau_i| <= radius")
    p.add_argument("--radius", type=int, required=True)
    p.add_argument("--format", choices=("json", "csv"), default="json")
    p.set_defaults(func=cmd_scan)

    p = sub.add_parser("check", help="run the full verification suite")
    p.set_defaults(func=cmd_check)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except _InputError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (SumNonzeroError, InternalInvariantError) as exc:
        print(f"{exc.code}: {exc}", file=sys.stderr)
        return 2 if isinstance(exc, SumNonzeroError) else 3


def run() -> None:
    try:
        code = main()
        sys.stdout.flush()
    except BrokenPipeError:
        # the reader closed stdout: send the interpreter's final flush to
        # devnull, as the signal module's note on SIGPIPE recommends
        import os
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        sys.exit(1)
    sys.exit(code)


if __name__ == "__main__":
    run()
