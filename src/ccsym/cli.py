"""Command-line front end.

Subcommands: symbol, tame, factorize, integrate, and verify with the
check families lemma, main-theorem, weil, bilinear, commutator and
identities.  Exit status: 0 on success/pass, 1 when a check fails,
2 on bad input.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import sys

from . import checks
from .algebra import element_to_json, parse_signature
from .chen import QuadratureConfig, iterated_integral, line_integral
from .errors import CcsymError, InputError, InsufficientTruncation
from .forms import DlogForm
from .laurent import factorize
from .parsing import parse_element, parse_ratfunc, parse_scalar, parse_series
from .paths import parse_path
from .ratfunc import SpherePoint
from .symbol import cc_symbol_series, least_trunc, tame_symbol

DEFAULT_ALGEBRA = "gens=;degree=1;scalars=exact"

COMMON = {
    "algebra": dict(default=DEFAULT_ALGEBRA, help="e.g. gens=eps;degree=2;scalars=exact"),
    "json": dict(action="store_true", help="emit JSON output"),
    "trunc": dict(type=int, default=16, help="series truncation order"),
    "steps": dict(type=int, default=1024, help="quadrature steps per path segment"),
    "tol": dict(type=float, default=1e-8, help="check tolerance"),
}

# inclusive resource caps, checked before any work
CAPS = {"--steps": (1, 65536), "--trunc": (1, 256), "--r": (1, 64), "--algebra degree": (1, 64),
        "--algebra monomials": (1, 256), **dict.fromkeys(("--n", "--j", "--k"), (-64, 64))}

TARGETS = {
    "lemma": "local integral identities (ids 3.2-3.6)",
    "main-theorem": "exp of the iterated integral vs the product formula",
    "weil": "exact reciprocity product over the joint support",
    "bilinear": "second-order loop-sum identity",
    "commutator": "quadratic term over a commutator of loops",
    "identities": "shuffle/reversal/composition/homotopy suite",
}


def _radius(text: str) -> float:
    value = complex(parse_scalar(text))
    if value.imag or value.real <= 0:
        raise InputError(f"--radius must be a positive real number, got {text!r}")
    return value.real


def _point_of(text: str) -> SpherePoint:
    if text.strip().lower() in ("inf", "infinity", "oo"):
        return SpherePoint.infinity()
    return SpherePoint.finite(parse_scalar(text))


# one parser per parameter kind of the check table: (flag value, signature)
KINDS = {
    "int": lambda value, sig: value,  # argparse has converted it
    "radius": lambda text, sig: _radius(text),
    "scalar": lambda text, sig: parse_scalar(text),
    "complex": lambda text, sig: complex(parse_scalar(text)),
    "point": lambda text, sig: _point_of(text),
    "element": lambda text, sig: parse_element(text, sig),
    "ratfunc": lambda text, sig: parse_ratfunc(text, sig),
    "form": lambda text, sig: DlogForm(parse_ratfunc(text, sig)),
    "path": lambda text, sig: parse_path(text),
}


def _common(p, *flags):
    for flag in dict.fromkeys(flags):
        p.add_argument(f"--{flag}", **COMMON[flag])


def _target_params(target: str) -> dict:
    """{flag: (Param, ids that take it)} over the checks of a target."""
    params = {}
    for key, check in checks.CHECKS.items():
        for param in check.params if check.target == target else ():
            params.setdefault(param.flag, (param, []))[1].append(key)
    return params


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The parser of every subcommand, built on first use and then shared
    by every call in the process; not to be changed."""
    parser = argparse.ArgumentParser(
        prog="ccsym",
        description="Contou-Carrere symbols and their iterated-integral verification",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("symbol", help="Contou-Carrere symbol of two series")
    _common(p, "algebra", "json", "trunc")
    p.add_argument("--f", required=True, help="Laurent series literal")
    p.add_argument("--g", required=True, help="Laurent series literal")

    p = sub.add_parser("tame", help="tame symbol of two series over C")
    _common(p, "algebra", "trunc")
    p.add_argument("--f", required=True)
    p.add_argument("--g", required=True)

    p = sub.add_parser("factorize", help="canonical product decomposition of a series")
    _common(p, "algebra", "json", "trunc")
    p.add_argument("--f", required=True)

    p = sub.add_parser("integrate", help="integrate dlog forms along a path")
    _common(p, "algebra", "json", "steps", "tol")
    p.add_argument("--f", required=True, help="rational function literal")
    p.add_argument("--g", help="second function: compute the iterated df/f o dg/g")
    p.add_argument("--path", required=True, help="path literal, e.g. circle(0,1/2)")

    verify = sub.add_parser("verify", help="run a verification check")
    vsub = verify.add_subparsers(dest="check", required=True)
    for target, help_ in TARGETS.items():
        p = vsub.add_parser(target, help=help_)
        ids = [key for key, check in checks.CHECKS.items() if check.target == target]
        p.set_defaults(id=target)  # a target with several ids takes --id
        if ids != [target]:
            p.add_argument("--id", required=True, choices=ids)
        _common(p, "json", *(flag for key in ids for flag in checks.CHECKS[key].reads))
        for flag, (param, takers) in _target_params(target).items():
            help_ = f"{param.kind} for id {', '.join(takers)}" if len(ids) > 1 else param.kind
            help_ += f", default {param.default}" if param.default else ""
            p.add_argument(f"--{flag}", type=int if param.kind == "int" else None, help=help_)
    return parser


def check_caps(args, sig):
    """Reject an integer flag, or an algebra's degree or monomial count, outside its cap."""
    values = {f"--{name}": value for name, value in vars(args).items()}
    values["--algebra degree"] = sig.truncation_degree
    # the degree is checked first; past its cap the count alone could take seconds
    degree = min(sig.truncation_degree, CAPS["--algebra degree"][1])
    values["--algebra monomials"] = math.comb(sig.ngens + degree - 1, sig.ngens)
    for name, (lo, hi) in CAPS.items():
        if values.get(name) is not None and not lo <= values[name] <= hi:
            raise InputError(f"{name} must lie in {lo}..{hi}, got {values[name]}")


def verify_flags(args):
    """The chosen check and its {Param: flag value or CLI default}; rejects a
    missing flag and a flag of the target that the chosen id does not take."""
    check = checks.CHECKS[args.id]
    name = args.check if args.id == args.check else f"id {args.id}"
    values = {param: getattr(args, param.flag) for param in check.params}
    taken = {param.flag for param in values}
    for flag in _target_params(args.check):
        if flag not in taken and getattr(args, flag) is not None:
            raise InputError(f"{name} does not take --{flag}")
    for param, value in values.items():
        values[param] = param.default if value is None else value
        if values[param] is None:
            raise InputError(f"{name} needs --{param.flag}")
    return check, values


def _emit_reports(reports, as_json: bool) -> int:
    if as_json:
        if len(reports) == 1:
            print(reports[0].to_json())
        else:
            print(json.dumps([r.to_json_dict() for r in reports], indent=2))
    else:
        for rep in reports:
            print(rep.summary())
    return 0 if all(r.passed for r in reports) else 1


def run(argv) -> int:
    args = build_parser().parse_args(argv)
    sig = parse_signature(getattr(args, "algebra", DEFAULT_ALGEBRA))
    check_caps(args, sig)

    # the series commands compute over Q(i); a float algebra widens what they print
    exact = sig.to_exact()
    floating = exact is not sig
    if args.command in ("symbol", "tame"):
        f = parse_series(args.f, exact, args.trunc)
        g = parse_series(args.g, exact, args.trunc)
        if args.command == "tame":
            value = tame_symbol(f, g)
            print(complex(value) if floating else value)
        else:
            value = cc_symbol_series(f, g, args.trunc)
            value = value.widen() if floating else value
            print(json.dumps(element_to_json(value)) if args.json else value)
        return 0

    if args.command == "factorize":
        fac = _factorize(args.f, exact, args.trunc)
        fac = fac.widen() if floating else fac
        if args.json:
            payload = {
                "nu": fac.nu,
                "a0": element_to_json(fac.a0),
                "neg_factors": {str(j): element_to_json(a) for j, a in sorted(fac.neg_factors.items())},
                "pos_factors": {str(j): element_to_json(a) for j, a in sorted(fac.pos_factors.items())},
                "trunc_order": fac.trunc_order if fac.trunc_order != float("inf") else "inf",
            }
            print(json.dumps(payload, indent=2))
        else:
            print(fac)
        return 0

    if args.command == "integrate":
        cfg = QuadratureConfig(args.steps, args.tol)
        path = parse_path(args.path)
        f = parse_ratfunc(args.f, sig)
        if args.g:
            g = parse_ratfunc(args.g, sig)
            value = iterated_integral([DlogForm(f), DlogForm(g)], path, cfg)
        else:
            value = line_integral(DlogForm(f), path, cfg)
        print(json.dumps(element_to_json(value)) if args.json else value)
        return 0

    check, values = verify_flags(args)
    kwargs = {param.keyword or param.flag: KINDS[param.kind](value, sig) for param, value in values.items()}
    if "steps" in check.reads:
        kwargs["cfg"] = QuadratureConfig(args.steps, args.tol)
    if "trunc" in check.reads:
        kwargs["trunc"] = args.trunc
    result = getattr(checks, check.function)(**kwargs)
    return _emit_reports(result if isinstance(result, list) else [result], args.json)


def _factorize(text: str, sig, trunc: int):
    """The factorization of the series known below x^trunc; when that is too short, the error
    names the least --trunc that suffices, searched by doubling the step from trunc."""
    def attempt(t):
        try:
            return factorize(parse_series(text, sig, t))
        except InsufficientTruncation:
            return None

    if (fac := attempt(trunc)) is None:
        need = least_trunc(lambda t: t - trunc if attempt(t) is None else 0, trunc, trunc + 1, "factorize needs")
        raise InsufficientTruncation(f"truncation order {trunc} too small to factorize; it needs --trunc at least {need}")
    return fac


def main(argv=None) -> int:
    try:
        code = run(sys.argv[1:] if argv is None else argv)
    except CcsymError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    return code


if __name__ == "__main__":
    sys.exit(main())
