"""Command line front end: straighten, schur, verify, ranks, homology.

Exit codes: 0 success, 1 failed verification, 2 unreadable or unparseable
input or unwritable --out file, 3 structurally invalid input, 4 internal
consistency failure (output differentials that do not square to zero).
"""

import argparse
import json
import sys
from fractions import Fraction

from .complexes import (_array, _save_json, _write_json, complex_from_dict,
                        complex_to_dict, generic_ranks, homology_from_ranks,
                        homology_ranks_at_point, validate_complex)
# schur_complex is not called here; perfbench's tracer wraps it in this module
from .schur import SchurBasis, _assemble, schur_complex
from .tableaux import Partition, Tableau, straighten, to_entries

OK, VERIFY_FAILED, PARSE_ERROR, INVALID_INPUT, INTERNAL_ERROR = 0, 1, 2, 3, 4


class CliError(Exception):
    def __init__(self, code, message):
        super().__init__(message)
        self.code = code


def _load(path, what, build):
    """Read the JSON file at path and return build(data).

    what names the contents ("complex" or "tableau") in the messages.  A file
    that cannot be read or decoded exits 2, deeply nested JSON included (a
    RecursionError), and so does a KeyError or TypeError from build; a
    ValueError from build exits 3.
    """
    try:
        with open(path) as fh:
            data = json.load(fh)
    except OSError as exc:
        raise CliError(PARSE_ERROR, "cannot read %s: %s" % (path, exc))
    except (ValueError, RecursionError) as exc:
        # bad JSON or UTF-8, an integer over the digit limit, or nesting too deep
        raise CliError(PARSE_ERROR, "bad JSON in %s: %s" % (path, exc))
    try:
        return build(data)
    except (KeyError, TypeError) as exc:
        raise CliError(PARSE_ERROR, "bad %s file %s: %s" % (what, path, exc))
    except ValueError as exc:
        raise CliError(INVALID_INPUT, "invalid %s in %s: %s" % (what, path, exc))


def _tableau_from_dict(data):
    shape = Partition(_array(data["shape"], "shape"))
    records = [_array(r, "a record") for r in _array(data["entries"], "entries")]
    return Tableau.from_entries(shape, records)


def _emit(data, out):
    """Write the JSON to stdout, or to out by `_save_json`; exit 2 on failure."""
    if not out:
        return _write_json(data, sys.stdout)
    try:
        _save_json(data, out)
    except OSError as exc:  # str(exc) may name the temporary file
        raise CliError(PARSE_ERROR, "cannot write %s: %s" % (out, exc.strerror))


def _parse_point(text):
    coords = []
    # empty text is the point with no coordinates, for a ring with no variables
    for piece in text.split(",") if text.strip() else ():
        piece = piece.strip()
        try:
            if "/" in piece:
                num, den = piece.split("/")
                coords.append(Fraction(int(num), int(den)))
            else:
                coords.append(int(piece))
        except (ValueError, ZeroDivisionError):
            raise CliError(PARSE_ERROR, "bad coordinate %r" % piece)
    return coords


def cmd_straighten(args):
    result = straighten(_load(args.tableau, "tableau", _tableau_from_dict))
    payload = [{"coefficient": c, "tableau": to_entries(t)}
               for t, c in result.items()]
    _emit(payload, args.out)
    return OK


def _parse_shape(text):
    try:
        parts = [int(p) for p in text.split(",")]
    except ValueError as exc:
        raise CliError(PARSE_ERROR, "bad shape %r: %s" % (text, exc))
    try:
        return Partition(parts)
    except ValueError as exc:
        raise CliError(INVALID_INPUT, "invalid shape %r: %s" % (text, exc))


def cmd_schur(args):
    shape = _parse_shape(args.shape)
    f = _load(args.complex, "complex", complex_from_dict)
    problems = validate_complex(f)
    if problems:
        raise ValueError("\n".join(problems))
    if args.conjugate:
        shape = shape.conjugate()
    basis = SchurBasis(shape, f)
    s = _assemble(basis, f)
    problems = validate_complex(s)
    if problems:
        print("internal error: output differentials do not compose to zero",
              file=sys.stderr)
        for p in problems:
            print(p, file=sys.stderr)
        return INTERNAL_ERROR
    payload = complex_to_dict(s)
    payload["shape"] = list(shape)
    payload["basis"] = [
        {"degree": k, "tableaux": [to_entries(t) for t in basis.at(k)]}
        for k in basis.degrees()
    ]
    _emit(payload, args.out)
    print(" <- ".join(str(r) for r in s.ranks))
    return OK


def cmd_verify(args):
    f = _load(args.complex, "complex", complex_from_dict)
    problems = validate_complex(f)
    if problems:
        for p in problems:
            print(p)
        return VERIFY_FAILED
    print("ok")
    return OK


def cmd_ranks(args):
    f = _load(args.complex, "complex", complex_from_dict)
    d_ranks = generic_ranks(f, trials=args.trials, seed=args.seed)
    print("degrees %d..%d, ranks %s" % (
        f.min_degree, f.max_degree, " ".join(str(r) for r in f.ranks)))
    for i, r in enumerate(d_ranks):
        print("rank d_%d = %d" % (f.min_degree + i + 1, r))
    for k, h in zip(f.degrees(), homology_from_ranks(f, d_ranks)):
        print("h_%d = %d" % (k, h))
    return OK


def cmd_homology(args):
    point = _parse_point(args.point)
    f = _load(args.complex, "complex", complex_from_dict)
    for k, h in zip(f.degrees(), homology_ranks_at_point(f, point)):
        print("h_%d = %d" % (k, h))
    return OK


def build_parser():
    parser = argparse.ArgumentParser(
        prog="schurcx",
        description="Schur complexes of free complexes over polynomial rings")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("straighten", help="straighten a tableau file")
    p.add_argument("--tableau", required=True)
    p.add_argument("--out")
    p.set_defaults(func=cmd_straighten)

    p = sub.add_parser("schur", help="build the Schur complex of a complex file")
    p.add_argument("--complex", required=True)
    p.add_argument("--shape", required=True,
                   help="comma separated row lengths, e.g. 3,3,2")
    p.add_argument("--conjugate", action="store_true",
                   help="transpose the shape first")
    p.add_argument("--out")
    p.set_defaults(func=cmd_schur)

    p = sub.add_parser("verify", help="check sizes and d.d == 0")
    p.add_argument("--complex", required=True)
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("ranks", help="generic differential and homology ranks")
    p.add_argument("--complex", required=True)
    p.add_argument("--trials", type=int, default=3)
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=cmd_ranks)

    p = sub.add_parser("homology", help="homology ranks at a point")
    p.add_argument("--complex", required=True)
    p.add_argument("--point", required=True,
                   help="comma separated coordinates, one per variable")
    p.set_defaults(func=cmd_homology)

    return parser


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except CliError as exc:
        print(str(exc), file=sys.stderr)
        return exc.code
    except ValueError as exc:
        print(str(exc), file=sys.stderr)
        return INVALID_INPUT


if __name__ == "__main__":
    sys.exit(main())
