"""Command line interface and the JSON interchange format for root data.

Every command is deterministic: the same configuration produces byte
identical JSON.  Exit codes: 0 success, 1 usage error, 2 validation
error, 3 resource cap exceeded or out of memory, 4 numeric pole or domain
error.

Each call goes through `run`, which tags the result with its command,
loads the call's datum once (`load_datum`: a builtin, a file or `-`;
euler's --trivial wins over a positional datum) and labels it, except
for dual, whose output holds the whole datum as its input.  The `cmd_*`
functions take (args, d) and return only their own fields.

Importing this module loads only ``errors``, ``lattice`` and ``rootdatum``;
each command imports the layer it runs when it runs.  dual, roots and
weyl need nothing more; rho, extend, epsilon and dualdata load
``dualdata``; rfactor, euler and split load ``rfunc``; satake, mult and
oracle load ``satake``.  Of the benchmark's 104 cli-cold calls, that is 29
on ``rootdatum`` only (2 of them error calls), 36 on ``dualdata``, 22 on
``rfunc`` and 17 on ``satake``.  No command loads the standard data-class
module, nor ``inspect``, which it imports.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from fractions import Fraction
from typing import TYPE_CHECKING, Optional, Sequence

from .errors import (
    CapExceededError,
    PoleError,
    UsageError,
    ValidationError,
)
from .lattice import IntMatrix, Laurent, mat_apply, mat_inverse_unimodular
from .rootdatum import (
    BUILTINS,
    DEFAULT_TREE_DEPTH_CAP,
    DEFAULT_WEYL_CAP,
    RootDatum,
    datum_isomorphic,
    dual_datum,
    lookup_datum,
    positive_roots,
    require_valid,
    require_weyl_cap,
    weyl_group,
)

if TYPE_CHECKING:
    from .dualdata import LanglandsDualData

DEFAULT_HEIGHT_CAP = 6
ORACLE_HEIGHT = 4  # oracle's default --max-height: the largest m + n compared
WEYL_CAP_ENV = "HECKEDUAL_MAX_WEYL"


# ---------------------------------------------------------------------------
# datum documents


def _json_int(text: str) -> int:
    # CPython's default limit on the digits of an int read from text (3.11 on), on every version
    if len(text.lstrip("-")) > 4300:
        raise ValidationError("malformed JSON: an integer literal of more than 4300 digits")
    return int(text)


def _refuse_misread(field: str, value, depth: int) -> None:
    # RootDatum would iterate a string by character and read each one by
    # int(), and an object where a vector list or a vector belongs by its keys
    if isinstance(value, str) or depth and isinstance(value, dict):
        kind = "a string" if isinstance(value, str) else "an object"
        raise ValidationError(f"bad datum document: {field} holds {kind}, {json.dumps(value)}")
    if depth and isinstance(value, list):
        for x in value:
            _refuse_misread(field, x, depth - 1)


def parse_datum(doc: bytes | str) -> RootDatum:
    """Parse and validate a JSON datum document; RootDatum reads its
    entries, refusing a boolean or a fractional number.  A string where a
    number or a vector belongs, and an object where a vector list or a
    vector belongs, are refused here."""
    try:
        data = json.loads(doc.decode("utf-8") if isinstance(doc, bytes) else doc, parse_int=_json_int)
    except UnicodeDecodeError as exc:
        raise ValidationError(f"datum document is not UTF-8: {exc}") from None
    except ValueError as exc:  # a JSONDecodeError, or int() under a lower digit limit
        raise ValidationError(f"malformed JSON: {exc}") from None
    except RecursionError:
        raise ValidationError("malformed JSON: arrays or objects nested too deeply") from None
    if not isinstance(data, dict):
        raise ValidationError("datum document must be a JSON object")
    for field, depth in (("rank", 0), ("simple_roots", 2), ("simple_coroots", 2)):
        _refuse_misread(field, data.get(field), depth)
    try:
        datum = RootDatum(
            data["rank"],
            data.get("simple_roots", ()),
            data.get("simple_coroots", ()),
            str(data.get("name", "")),
        )
    except (KeyError, TypeError, ValueError, ValidationError) as exc:
        raise ValidationError(f"bad datum document: {exc}") from None
    return require_valid(datum)


def emit_datum(d: RootDatum) -> dict:
    return {
        "name": d.name,
        "rank": d.rank,
        "simple_roots": [list(v) for v in d.simple_roots],
        "simple_coroots": [list(v) for v in d.simple_coroots],
    }


def load_datum(source: str) -> RootDatum:
    builtin = lookup_datum(source)
    if builtin is not None:
        return builtin
    try:
        if source == "-":
            return parse_datum(sys.stdin.buffer.read())
        if os.path.exists(source):
            with open(source, "rb") as handle:
                return parse_datum(handle.read())
    except OSError as exc:
        raise ValidationError(f"cannot read datum {source!r}: {exc}") from None
    raise ValidationError(
        f"unknown datum {source!r}: not a builtin ({', '.join(sorted(BUILTINS))}, trivial)"
        " and not a readable file")


# ---------------------------------------------------------------------------
# small parsers and serializers


def parse_vector(text: str) -> tuple[int, ...]:
    try:
        return tuple(int(x) for x in text.split(",") if x.strip() != "")
    except ValueError:
        raise ValidationError(f"expected a comma separated integer vector, got {text!r}") from None


def parse_vectors(text: str) -> tuple[tuple[int, ...], ...]:
    return tuple(parse_vector(part) for part in text.split(";") if part.strip() != "")


def parse_fraction(text: str) -> Fraction:
    try:
        return Fraction(text)
    except (ValueError, ZeroDivisionError):
        raise ValidationError(f"expected a rational number, got {text!r}") from None


def parse_fractions(text: str) -> tuple[Fraction, ...]:
    return tuple(parse_fraction(part) for part in text.split(",") if part.strip() != "")


def laurent_json(c: Laurent) -> list[list[int]]:
    return [[e, v] for e, v in c.items()]


def poly_json(poly) -> list:
    return [[list(v), laurent_json(c)] for v, c in poly.items()]


def field_json(x) -> object:
    from .rfunc import QuadExt
    if isinstance(x, QuadExt):
        if x.b == 0:
            return str(x.a)
        return {"a": str(x.a), "b": str(x.b), "rad": str(x.rad)}
    return str(x)


def check_height(vectors: Sequence[Sequence[int]], cap: int):
    for v in vectors:
        if v and max(abs(x) for x in v) > cap:
            raise CapExceededError(
                f"coweight {tuple(v)} exceeds the height cap {cap}; raise --max-height")


def isomorphic_builtin(d: RootDatum) -> Optional[tuple[str, IntMatrix]]:
    """The first builtin by name that d is isomorphic to, with the
    isomorphism from the builtin's lattice to d's, or None."""
    for name, builtin in sorted(BUILTINS.items()):
        iso = datum_isomorphic(d, builtin)
        if iso is not None:
            return name, iso
    return None


def dual_data(args, d: RootDatum) -> LanglandsDualData:
    """Dual data of d, refused like `weyl` when |W| exceeds --max-weyl;
    |W| is counted, not enumerated."""
    from .dualdata import langlands_dual_data
    require_weyl_cap(d, args.max_weyl)
    return langlands_dual_data(d)


# ---------------------------------------------------------------------------
# commands


def cmd_dual(args, d) -> dict:
    return {"input": emit_datum(d), "dual": emit_datum(dual_datum(d))}


def cmd_roots(args, d) -> dict:
    roots, coroots = positive_roots(d)
    return {
        "positive_roots": [list(r) for r in roots],
        "positive_coroots": [list(c) for c in coroots],
        "count": len(roots),
    }


def cmd_weyl(args, d) -> dict:
    words = weyl_group(d, args.max_weyl)
    return {
        "order": len(words),
        # breadth-first by length, so the last word is the longest
        "longest_length": len(words[-1]),
        "words": [list(word) for word in words],
    }


def cmd_rho(args, d) -> dict:
    from .dualdata import solve_rho_weights
    solution = solve_rho_weights(d)
    if solution is None:
        return {"solvable": False}
    particular, kernel = solution
    return {
        "solvable": True,
        "particular": list(particular),
        "kernel_basis": [list(k) for k in kernel],
    }


def cmd_extend(args, d) -> dict:
    from .dualdata import langlands_dual_data
    dd = langlands_dual_data(d)
    out = {
        "extended": emit_datum(dd.ext),
        "r": list(dd.r),
        "delta_index": dd.delta_index,
    }
    found = isomorphic_builtin(dd.ext)
    if found is not None:
        out["isomorphic_builtin"] = found[0]
        out["isomorphism"] = [list(row) for row in found[1]]
    return out


def cmd_epsilon(args, d) -> dict:
    from .dualdata import epsilon_of
    order, t = epsilon_of(d)
    return {
        "order": order,
        "t": list(t),
    }


def cmd_dualdata(args, d) -> dict:
    from .dualdata import decompose_quotient
    dd = dual_data(args, d)
    quotient = decompose_quotient(dd)
    out = {
        "extended": emit_datum(dd.ext),
        "r": list(dd.r),
        "t": list(dd.t),
        "j": list(dd.j),
        "i": list(dd.i),
        "p": list(dd.p),
        "epsilon_order": dd.epsilon_order,
        "cokernel_invariants": list(quotient.cokernel_invariants),
        "kernel_element": {
            "gm_component": quotient.kernel.gm_component,
            "epsilon_order": quotient.kernel.epsilon_order,
            "epsilon_parity": list(quotient.kernel.epsilon_parity),
            "description": quotient.kernel.describe(),
        },
    }
    found = isomorphic_builtin(dd.ext)
    if found is not None:
        inv = mat_inverse_unimodular(found[1])
        out["isomorphic_builtin"] = found[0]
        out["r_transported"] = list(mat_apply(inv, dd.r))
        out["j_transported"] = list(mat_apply(inv, dd.j))
    return out


def cmd_satake(args, d) -> dict:
    from .satake import satake_image
    lam = parse_vector(args.coweight)
    check_height([lam], args.max_height)
    dd = dual_data(args, d)
    image = satake_image(dd, lam)
    return {
        "coweight": list(lam),
        "image": poly_json(image.poly),
        "image_str": str(image.poly),
        "dot_invariant": image.is_dot_invariant(),
    }


def cmd_mult(args, d) -> dict:
    from .satake import structure_polynomials
    lam = parse_vector(args.lhs)
    mu = parse_vector(args.rhs)
    check_height([lam, mu], args.max_height)
    dd = dual_data(args, d)
    expansion = structure_polynomials(dd, lam, mu)
    return {
        "lhs": list(lam),
        "rhs": list(mu),
        "expansion": [[list(nu), laurent_json(c), str(c)] for nu, c in expansion.items()],
    }


def cmd_oracle(args, d) -> dict:
    from .satake import compare_rank1_oracle
    report = compare_rank1_oracle(args.q, args.max_height, args.max_tree_depth)
    return {
        "q": report.q,
        "max_height": report.max_height,
        "entries": [
            {
                "m": e.m, "n": e.n, "d": e.d,
                "exponent": e.exponent,
                "tree_count": e.tree_count,
                "algebra_value": str(e.algebra_value),
                "ok": e.ok,
            }
            for e in report.entries
        ],
        "failures": len(report.failures),
        "observed_coefficient_ring": report.observed_coefficient_ring,
    }


def _build_parameter(args, dd):
    from .rfunc import make_parameter
    values = parse_fractions(args.values) if args.values else ()
    return make_parameter(dd, parse_fraction(args.q), values)


def cmd_rfactor(args, d) -> dict:
    from .rfunc import DualRepresentation, contragredient_rep, local_rfactor
    dd = dual_data(args, d)
    parameter = _build_parameter(args, dd)
    weights = parse_vectors(args.weights)
    tau = DualRepresentation(dd, weights)
    factor = local_rfactor(parameter, tau)
    out = {
        "q": str(parameter.q),
        "weights": [list(w) for w in tau.weights],
        "inverse_roots": [field_json(c) for c in factor.inverse_roots],
        "symbolic": str(factor),
        "contragredient_weights": [list(w) for w in contragredient_rep(dd, tau).weights],
    }
    if args.s is not None:
        out["s"] = args.s
        out["value"] = factor.evaluate(args.s)
    return out


def cmd_euler(args, d) -> dict:
    from .rfunc import DualRepresentation, make_parameter, partial_rfunction, primes_below
    dd = dual_data(args, d)
    if args.weights:
        tau = DualRepresentation(dd, parse_vectors(args.weights))
    else:
        tau = DualRepresentation.trivial(dd)
    if args.primes_below is not None:
        qs = [Fraction(p) for p in primes_below(args.primes_below)]
    elif args.places:
        qs = list(parse_fractions(args.places))
    else:
        raise UsageError("euler needs --places or --primes-below")
    base_values = parse_fractions(args.values) if args.values else ()
    places = []
    for q in qs:
        values = base_values if base_values else (Fraction(1),) * dd.base.rank
        places.append((q, make_parameter(dd, q, values)))
    value = partial_rfunction(places, tau, args.s)
    return {
        "places": [str(q) for q in qs],
        "s": args.s,
        "value": value,
    }


def cmd_split(args, d) -> dict:
    from .rfunc import split_by_sqrt, sqrt_of
    dd = dual_data(args, d)
    parameter = _build_parameter(args, dd)
    root = parse_fraction(args.sqrt) if args.sqrt else sqrt_of(parameter.q)
    if args.sqrt_sign == "minus":
        root = -root
    split = split_by_sqrt(parameter, root)
    return {
        "q": str(parameter.q),
        "sqrt": field_json(root),
        "values": [field_json(v) for v in parameter.values],
        "split_values": [field_json(v) for v in split.values],
        "delta_value": field_json(split.delta_value()),
    }


def run(args) -> dict:
    """Run one parsed call: the result is tagged with its command, and a
    datum command's datum is loaded here once and labelled, before the
    fields that its `cmd_*` returns from (args, d)."""
    result = {"command": args.command}
    d = None
    if "datum" in vars(args):  # every command but oracle
        source = "trivial" if args.trivial else args.datum
        if not source and args.datum_optional:
            raise UsageError(f"{args.command} needs a datum or --trivial")
        d = load_datum(source)
        if args.labelled:
            result["datum"] = d.name or "(file)"
    result.update(args.fn(args, d))
    return result


# ---------------------------------------------------------------------------
# rendering


def render_text(result: dict) -> str:
    lines = []

    def emit(indent, key, value):
        if isinstance(value, dict):
            lines.append(f"{indent}{key}:")
            for k in value:
                emit(indent + "  ", k, value[k])
        elif isinstance(value, list) and value and isinstance(value[0], (dict, list)):
            lines.append(f"{indent}{key}:")
            for item in value:
                if isinstance(item, dict):
                    item = "  ".join(f"{k}={item[k]}" for k in item)
                lines.append(f"{indent}  {item}")
        else:
            lines.append(f"{indent}{key}: {value}")

    for key in result:
        emit("", key, result[key])
    return "\n".join(lines)


# ---------------------------------------------------------------------------
# argument parsing and dispatch


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise UsageError(message)


def _global_options(parser, suppress: bool):
    default = (lambda value: argparse.SUPPRESS) if suppress else (lambda value: value)
    specs = {
        "--format": dict(choices=("text", "json"), default=default("text")),
        # argparse converts a string default (the environment's) with type
        # at parse time, so a bad value is a usage error like a bad flag
        "--max-weyl": dict(type=int, default=default(os.environ.get(WEYL_CAP_ENV, DEFAULT_WEYL_CAP)),
                           help="cap on the Weyl group size"),
        "--max-height": dict(type=int, default=default(None),
                             help=f"cap on coweight coordinates (default {DEFAULT_HEIGHT_CAP}; "
                                  f"for oracle, the height compared, default {ORACLE_HEIGHT})"),
        "--max-tree-depth": dict(type=int, default=default(DEFAULT_TREE_DEPTH_CAP),
                                 help="cap on the oracle tree depth"),
    }
    for flag, kwargs in specs.items():
        parser.add_argument(flag, **kwargs)


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="heckedual",
                     description="root data, extended dual data, spherical expansions, R-factors")
    _global_options(parser, suppress=False)
    # the global flags are accepted after the subcommand as well; they only
    # override the top-level values when given there explicitly.  Every
    # subparser shares these suppressed actions by reference, so the top
    # level keeps its own: a default set on shared actions reaches them all.
    flags = _Parser(add_help=False)
    _global_options(flags, suppress=True)
    # what `run` reads of a datum command, unless its subparser says otherwise:
    # dual's output names its input instead of a label, and only euler's
    # datum may be left out, for --trivial
    parser.set_defaults(labelled=True, datum_optional=False, trivial=False)
    sub = parser.add_subparsers(dest="command", required=True)

    def with_datum(name, help_text):
        p = sub.add_parser(name, help=help_text, parents=[flags])
        p.add_argument("datum", help="builtin name, 'trivial', a JSON file path, or -")
        return p

    with_datum("dual", "dual root datum").set_defaults(fn=cmd_dual, labelled=False)
    with_datum("roots", "positive roots and coroots").set_defaults(fn=cmd_roots)
    with_datum("weyl", "Weyl group order and words").set_defaults(fn=cmd_weyl)
    with_datum("rho", "solve for weights of type rho").set_defaults(fn=cmd_rho)
    with_datum("extend", "extended datum and builtin identification").set_defaults(fn=cmd_extend)
    with_datum("epsilon", "central sign order and the weight t").set_defaults(fn=cmd_epsilon)
    with_datum("dualdata", "full dual-side data and quotient decomposition").set_defaults(fn=cmd_dualdata)

    p = with_datum("satake", "spherical image of a dominant coweight")
    p.add_argument("--coweight", required=True, help="comma separated integers")
    p.set_defaults(fn=cmd_satake)

    p = with_datum("mult", "expansion of a product of basis elements")
    p.add_argument("--lhs", required=True)
    p.add_argument("--rhs", required=True)
    p.set_defaults(fn=cmd_mult)

    p = sub.add_parser("oracle", help="rank-one comparison against the regular tree", parents=[flags])
    p.add_argument("--q", type=int, required=True, choices=(2, 3, 4))
    p.set_defaults(fn=cmd_oracle)

    p = with_datum("rfactor", "local factor of a weight multiset")
    p.add_argument("--weights", required=True, help="semicolon separated extended weights")
    p.add_argument("--values", default="", help="comma separated rational base values")
    p.add_argument("--q", required=True)
    p.add_argument("--s", type=float, default=None)
    p.set_defaults(fn=cmd_rfactor)

    p = sub.add_parser("euler", help="partial Euler product over unramified places", parents=[flags])
    p.add_argument("datum", nargs="?", default=None)
    p.add_argument("--trivial", action="store_true")
    p.add_argument("--primes-below", type=int, default=None)
    p.add_argument("--places", default="")
    p.add_argument("--weights", default="")
    p.add_argument("--values", default="")
    p.add_argument("--s", type=float, required=True)
    p.set_defaults(fn=cmd_euler, datum_optional=True)

    p = with_datum("split", "divide out a square root of q along j")
    p.add_argument("--values", default="")
    p.add_argument("--q", required=True)
    p.add_argument("--sqrt", default="", help="explicit rational root (default: canonical)")
    p.add_argument("--sqrt-sign", choices=("plus", "minus"), default="plus")
    p.set_defaults(fn=cmd_split)

    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        if args.max_height is None:
            args.max_height = ORACLE_HEIGHT if args.fn is cmd_oracle else DEFAULT_HEIGHT_CAP
        if any(getattr(args, cap, 1) <= 0 for cap in ("max_weyl", "max_height", "max_tree_depth")):
            raise UsageError("resource caps must be positive")
        result = run(args)
    except UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 1
    except ValidationError as exc:
        print(f"validation error: {exc}", file=sys.stderr)
        return 2
    except CapExceededError as exc:
        print(f"resource cap: {exc}", file=sys.stderr)
        return 3
    except MemoryError:
        print("resource cap: out of memory", file=sys.stderr)
        return 3
    except (PoleError, ArithmeticError) as exc:
        print(f"numeric error: {exc}", file=sys.stderr)
        return 4
    if args.format == "json":
        print(json.dumps(result, sort_keys=True))
    else:
        print(render_text(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
