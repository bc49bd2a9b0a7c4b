"""Command line interface and the JSON interchange format for root data.

Every command is deterministic: the same configuration produces byte
identical JSON.  Exit codes: 0 success, 1 usage error, 2 validation
error, 3 resource cap exceeded, 4 numeric pole or domain error.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from fractions import Fraction
from typing import Optional, Sequence

from .dualdata import (
    LanglandsDualData,
    decompose_quotient,
    epsilon_of,
    extend_datum,
    langlands_dual_data,
    solve_rho_weights,
)
from .errors import (
    CapExceededError,
    PoleError,
    UsageError,
    ValidationError,
)
from .lattice import IntMatrix, Laurent, mat_apply, mat_inverse_unimodular
from .rootdatum import (
    BUILTINS,
    DEFAULT_WEYL_CAP,
    RootDatum,
    datum_isomorphic,
    dual_datum,
    lookup_datum,
    positive_roots,
    validate_datum,
    weyl_group,
)
from .rfunc import (
    DualRepresentation,
    QuadExt,
    contragredient_rep,
    local_rfactor,
    make_parameter,
    partial_rfunction,
    primes_below,
    split_by_sqrt,
    sqrt_of,
)
from .satake import (
    DEFAULT_TREE_DEPTH_CAP,
    compare_rank1_oracle,
    satake_image,
    structure_polynomials,
)

DEFAULT_HEIGHT_CAP = 6
ORACLE_HEIGHT = 4  # the oracle's trees grow like q^height
WEYL_CAP_ENV = "HECKEDUAL_MAX_WEYL"


# ---------------------------------------------------------------------------
# datum documents


def parse_datum(doc: bytes | str) -> RootDatum:
    """Parse and validate a JSON datum document."""
    try:
        data = json.loads(doc.decode("utf-8") if isinstance(doc, bytes) else doc)
    except UnicodeDecodeError as exc:
        raise ValidationError(f"datum document is not UTF-8: {exc}") from None
    except json.JSONDecodeError as exc:
        raise ValidationError(f"malformed JSON: {exc}") from None
    if not isinstance(data, dict):
        raise ValidationError("datum document must be a JSON object")
    try:
        datum = RootDatum(
            int(data["rank"]),
            tuple(tuple(int(x) for x in v) for v in data.get("simple_roots", ())),
            tuple(tuple(int(x) for x in v) for v in data.get("simple_coroots", ())),
            str(data.get("name", "")),
        )
    except (KeyError, TypeError, ValueError) as exc:
        raise ValidationError(f"bad datum document: {exc}") from None
    issues = validate_datum(datum)
    if issues:
        raise ValidationError("invalid root datum: " + "; ".join(issues))
    return datum


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
    """Dual data of d, refused like `weyl` when |W| exceeds --max-weyl."""
    weyl_group(d, args.max_weyl)
    return langlands_dual_data(d)


# ---------------------------------------------------------------------------
# commands


def cmd_dual(args) -> dict:
    d = load_datum(args.datum)
    return {"command": "dual", "input": emit_datum(d), "dual": emit_datum(dual_datum(d))}


def cmd_roots(args) -> dict:
    d = load_datum(args.datum)
    roots, coroots = positive_roots(d)
    return {
        "command": "roots",
        "datum": d.name or "(file)",
        "positive_roots": [list(r) for r in roots],
        "positive_coroots": [list(c) for c in coroots],
        "count": len(roots),
    }


def cmd_weyl(args) -> dict:
    d = load_datum(args.datum)
    elements = weyl_group(d, args.max_weyl)
    return {
        "command": "weyl",
        "datum": d.name or "(file)",
        "order": len(elements),
        # breadth-first by length, so the last element is the longest
        "longest_length": elements[-1].length,
        "words": [list(w.word) for w in elements],
    }


def cmd_rho(args) -> dict:
    d = load_datum(args.datum)
    solution = solve_rho_weights(d)
    out = {"command": "rho", "datum": d.name or "(file)"}
    if solution is None:
        out["solvable"] = False
    else:
        particular, kernel = solution
        out["solvable"] = True
        out["particular"] = list(particular)
        out["kernel_basis"] = [list(k) for k in kernel]
    return out


def cmd_extend(args) -> dict:
    d = load_datum(args.datum)
    e = extend_datum(d)
    out = {
        "command": "extend",
        "datum": d.name or "(file)",
        "extended": emit_datum(e.ext),
        "r": list(e.r),
        "delta_index": e.delta_index,
    }
    found = isomorphic_builtin(e.ext)
    if found is not None:
        out["isomorphic_builtin"] = found[0]
        out["isomorphism"] = [list(row) for row in found[1]]
    return out


def cmd_epsilon(args) -> dict:
    d = load_datum(args.datum)
    order, t = epsilon_of(d)
    return {
        "command": "epsilon",
        "datum": d.name or "(file)",
        "order": order,
        "t": list(t),
    }


def cmd_dualdata(args) -> dict:
    d = load_datum(args.datum)
    dd = dual_data(args, d)
    quotient = decompose_quotient(dd)
    out = {
        "command": "dualdata",
        "datum": d.name or "(file)",
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


def cmd_satake(args) -> dict:
    d = load_datum(args.datum)
    lam = parse_vector(args.coweight)
    check_height([lam], args.max_height)
    dd = dual_data(args, d)
    image = satake_image(dd, lam)
    return {
        "command": "satake",
        "datum": d.name or "(file)",
        "coweight": list(lam),
        "image": poly_json(image.poly),
        "image_str": str(image.poly),
        "dot_invariant": image.is_dot_invariant(),
    }


def cmd_mult(args) -> dict:
    d = load_datum(args.datum)
    lam = parse_vector(args.lhs)
    mu = parse_vector(args.rhs)
    check_height([lam, mu], args.max_height)
    dd = dual_data(args, d)
    expansion = structure_polynomials(dd, lam, mu)
    return {
        "command": "mult",
        "datum": d.name or "(file)",
        "lhs": list(lam),
        "rhs": list(mu),
        "expansion": [[list(nu), laurent_json(c), str(c)] for nu, c in expansion.items()],
    }


def cmd_oracle(args) -> dict:
    report = compare_rank1_oracle(args.q, args.max_height, args.max_tree_depth)
    return {
        "command": "oracle",
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
    values = parse_fractions(args.values) if args.values else ()
    return make_parameter(dd, parse_fraction(args.q), values)


def cmd_rfactor(args) -> dict:
    d = load_datum(args.datum)
    dd = dual_data(args, d)
    parameter = _build_parameter(args, dd)
    weights = parse_vectors(args.weights)
    tau = DualRepresentation(dd, weights)
    factor = local_rfactor(parameter, tau)
    out = {
        "command": "rfactor",
        "datum": d.name or "(file)",
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


def cmd_euler(args) -> dict:
    if args.trivial:
        d = lookup_datum("trivial")
    elif args.datum:
        d = load_datum(args.datum)
    else:
        raise UsageError("euler needs a datum or --trivial")
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
        "command": "euler",
        "datum": d.name or "(file)",
        "places": [str(q) for q in qs],
        "s": args.s,
        "value": value,
    }


def cmd_split(args) -> dict:
    d = load_datum(args.datum)
    dd = dual_data(args, d)
    parameter = _build_parameter(args, dd)
    root = parse_fraction(args.sqrt) if args.sqrt else sqrt_of(parameter.q)
    if args.sqrt_sign == "minus":
        root = -root
    split = split_by_sqrt(parameter, root)
    return {
        "command": "split",
        "datum": d.name or "(file)",
        "q": str(parameter.q),
        "sqrt": field_json(root),
        "values": [field_json(v) for v in parameter.values],
        "split_values": [field_json(v) for v in split.values],
        "delta_value": field_json(split.delta_value()),
    }


# ---------------------------------------------------------------------------
# rendering


def render_text(result: dict) -> str:
    lines = []

    def emit(prefix, value):
        if isinstance(value, dict):
            lines.append(f"{prefix}:")
            for k in value:
                emit(f"  {k}", value[k])
        elif isinstance(value, list) and value and isinstance(value[0], (dict, list)):
            lines.append(f"{prefix}:")
            for item in value:
                if isinstance(item, dict):
                    body = "  ".join(f"{k}={item[k]}" for k in item)
                    lines.append(f"  {body}")
                else:
                    lines.append(f"  {item}")
        else:
            lines.append(f"{prefix}: {value}")

    for key in result:
        emit(key, result[key])
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
    sub = parser.add_subparsers(dest="command", required=True)

    def with_datum(name, help_text):
        p = sub.add_parser(name, help=help_text, parents=[flags])
        p.add_argument("datum", help="builtin name, 'trivial', a JSON file path, or -")
        return p

    with_datum("dual", "dual root datum").set_defaults(fn=cmd_dual)
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
    p.set_defaults(fn=cmd_euler)

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
        result = args.fn(args)
    except UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 1
    except ValidationError as exc:
        print(f"validation error: {exc}", file=sys.stderr)
        return 2
    except CapExceededError as exc:
        print(f"resource cap: {exc}", file=sys.stderr)
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
