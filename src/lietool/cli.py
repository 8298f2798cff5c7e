"""Command-line interface: one binary, machine-readable output.

Subcommands: basis, decompose, xi, eval, check, verify-expansions, simulate,
drift-scan, zoo.  Exit codes: 0 on success (including a computed verdict),
1 when --fail-on-violation is set and the verdict is violated, 2 on usage
errors (an unreadable or malformed input file among them) and on a run whose
state norm exceeds the blow-up guard, 141 (as for
SIGPIPE) when the reader closes standard output early.
Rationals serialize as "p/q" strings; reports echo every numeric default so
runs are reproducible from their output alone.
"""

from __future__ import annotations

import argparse
import json
import os
import sys as _sys
from dataclasses import asdict
from fractions import Fraction

from . import conditions, coord, expansions, simulate, trees
from .zoo import (UnknownSystemError, zoo as build_zoo, zoo_names,
                  zoo_parameters)
from .conditions import Caps
from .controls import PiecewisePolyControl, load_control
from .fields import load_system, system_to_json_dict
from .hall import basis_of_bidegree, decompose, enumerate_basis
from .trees import TreeSyntaxError, parse_tree

USAGE_ERROR = 2
BROKEN_PIPE = 141


class CliError(Exception):
    pass


ZOO_SPEC_FORM = "zoo:NAME:key=value[,key=value...]"


def _load_system(spec: str):
    if not spec.startswith("zoo:"):
        return load_system(spec)
    name, has_params, assignments = spec[4:].partition(":")
    try:
        accepted = zoo_parameters(name)
    except UnknownSystemError as exc:
        raise CliError(str(exc.args[0]))
    params = {}
    for assignment in assignments.split(",") if has_params else ():
        key, _, value = (part.strip() for part in assignment.partition("="))
        if key not in accepted:
            raise CliError(
                f"unknown zoo parameter {key!r} for {name!r} (accepted: "
                f"{', '.join(accepted) or 'none'}); use {ZOO_SPEC_FORM}")
        integer = isinstance(accepted[key], int)
        try:
            params[key] = int(value) if integer else Fraction(value)
        except (ValueError, ZeroDivisionError):
            kind = "an integer" if integer else "a rational p/q"
            raise CliError(f"zoo parameter {key!r} needs {kind}, got "
                           f"{value!r}; use {ZOO_SPEC_FORM}")
    return build_zoo(name, **params)


def _parse_tree_arg(text: str):
    try:
        return parse_tree(text)
    except TreeSyntaxError as exc:
        raise CliError(
            f"bad tree {text!r}: {exc}\n"
            "grammar: TREE := X0 | X1 | (TREE,TREE) | M(n) | W(j,n) | "
            "P(j,k,n) | Q(j,k,l,n) | Qs(j,m,k,n) | Qf(j,m,n) | "
            "R(j,k,l,m,n) | Rs(j,k,l,m,n) | D")


CONTROL_FORMAT_HINT = (
    'control file (JSON): {"type": "piecewise_poly", "t": "1", '
    '"breakpoints": ["0","1/2","1"], "pieces": [["1"],["-1"]]} with '
    'rationals as "p/q" strings and piece coefficients in the local '
    'variable, or {"type": "samples", "t": 1.0, "values": [...]}')


def _load_control(path: str):
    try:
        return load_control(path)
    except (ValueError, KeyError, OSError) as exc:
        raise CliError(f"error: {exc}\n{CONTROL_FORMAT_HINT}")


def _cmd_basis(args) -> int:
    if args.cumulative:
        elements = enumerate_basis(args.n1, args.n0)
    else:
        elements = list(basis_of_bidegree(args.n1, args.n0))
    for element in elements:
        named = trees.named_form(element.tree)
        if named and named != element.tree.text:
            print(f"{element.tree.text}\t{named}")
        else:
            print(element.tree.text)
    return 0


def _cmd_decompose(args) -> int:
    element = decompose(_parse_tree_arg(args.tree))
    for hall_element, coeff in element.items_sorted():
        print(f"{coeff}\t{trees.display_form(hall_element.tree)}")
    return 0


def _cmd_xi(args) -> int:
    tree = _parse_tree_arg(args.bracket)
    u = _load_control(args.control)
    if not args.closed_form:
        value = coord.xi(tree, u)
    elif isinstance(u, PiecewisePolyControl):
        value = coord.xi_closed_form(tree, u)
    else:
        raise CliError("error: --closed-form needs a piecewise_poly control")
    if value.exact is not None:
        print(value.exact)
    else:
        print(f"{value.approx!r}\terror_estimate={value.error_estimate!r}")
    return 0


def _cmd_eval(args) -> int:
    sys_def = _load_system(args.system)
    from .fields import eval_bracket
    value = eval_bracket(sys_def, _parse_tree_arg(args.bracket))
    print("\t".join(str(v) for v in value))
    return 0


CONDITION_GRAMMAR = ("sussmann:<k> | wk:<k>,<m> | wk-screen:<k>,<m> | n2 | "
                     "n3 | sextic | ag:<sigma>,<r>")


def _parse_condition(token: str):
    name, sep, rest = token.partition(":")
    try:
        if name == "sussmann":
            return ("sussmann", int(rest))
        if name in ("wk", "wk-screen"):
            k, m = rest.split(",")
            return (name, int(k), int(m))
        if name in ("n2", "n3", "sextic") and not sep:
            return (name,)
        if name == "ag":
            sigma, r = rest.split(",")
            return ("ag", Fraction(sigma), Fraction(r))
    except (ValueError, ZeroDivisionError):
        raise CliError(
            f"malformed condition {token!r}; use {CONDITION_GRAMMAR}")
    raise CliError(f"unknown condition {token!r}; use {CONDITION_GRAMMAR}")


def _caps_line(caps: Caps) -> str:
    return "caps: " + " ".join(
        f"{key}={value}" for key, value in asdict(caps).items())


def _cmd_check(args) -> int:
    sys_def = _load_system(args.system)
    caps = Caps(max_index=args.cap_index, max_n0=args.cap_n0)
    parsed = _parse_condition(args.condition)
    if parsed[0] == "ag":
        entries = conditions.ag_screen(sys_def, sigma=parsed[1], r=parsed[2],
                                       caps=caps)
        if args.json:
            print(json.dumps({"caps": asdict(caps), "entries": [{
                "bracket": trees.display_form(e.tree), "layer": e.layer,
                "weight": str(e.weight),
                "compensated": e.compensated} for e in entries]}, indent=2))
        else:
            print(_caps_line(caps))
            print(f"ag screen on {sys_def.name}: sigma={parsed[1]} "
                  f"r={parsed[2]}")
            for e in entries:
                print("  " + e.line())
        return 0
    if parsed[0] == "sussmann":
        report = conditions.check_sussmann_stefani(sys_def, parsed[1], caps)
    elif parsed[0] == "wk":
        report = conditions.check_wk_loose(sys_def, parsed[1], parsed[2], caps)
    elif parsed[0] == "wk-screen":
        report = conditions.check_wk_cubic_screen(sys_def, parsed[1],
                                                  parsed[2], caps)
    elif parsed[0] == "n2":
        report = conditions.check_n2(sys_def, caps)
    elif parsed[0] == "n3":
        report = conditions.check_n3(sys_def, caps)
    else:
        report = conditions.check_sextic(sys_def, caps)
    if args.json:
        print(json.dumps(report.to_json_dict(), indent=2))
    else:
        print(_caps_line(caps))
        print(report.summary())
        if report.detail:
            print(f"detail: {report.detail}")
    if args.fail_on_violation and report.verdict == "violated":
        return 1
    return 0


def _cmd_verify_expansions(args) -> int:
    outcomes = expansions.verify_expansions(args.degree, args.trials, args.seed)
    print(f"verify-expansions: degree={args.degree} trials={args.trials} "
          f"seed={args.seed}")
    ok = True
    for name, passed in outcomes:
        print(f"  {'pass' if passed else 'FAIL'}  {name}")
        ok = ok and passed
    return 0 if ok else 1


def _cmd_simulate(args) -> int:
    sys_def = _load_system(args.system)
    u = _load_control(args.control)
    traj = simulate.integrate(sys_def, u, args.step)
    rows = [["time"] + [f"x{i+1}" for i in range(sys_def.dim)]]
    for t, x in zip(traj.times, traj.states):
        rows.append([repr(float(t))] + [repr(float(v)) for v in x])
    text = "\n".join(",".join(r) for r in rows)
    if args.csv:
        with open(args.csv, "w") as fh:
            fh.write(text + "\n")
        print(f"wrote {len(traj.times)} samples to {args.csv}")
    else:
        print(text)
    return 0


_FAMILIES = {
    "s1": conditions.family_s1,
    "n2": conditions.family_n2,
    "n3": conditions.family_n3,
    "sextic": conditions.family_sextic,
}


FAMILY_GRAMMAR = "s1|n2|n3|loose:k,m|sextic"


def _parse_family(token: str):
    if token in _FAMILIES:
        return _FAMILIES[token]()
    name, _, rest = token.partition(":")
    if name == "loose":
        try:
            k, m = (int(x) for x in rest.split(","))
        except ValueError:
            raise CliError(f"malformed family {token!r}; use {FAMILY_GRAMMAR}")
        return conditions.family_loose(k, m)
    raise CliError(f"unknown family {token!r}; use {FAMILY_GRAMMAR}")


def _positive_int(text: str) -> int:
    try:
        value = int(text)
    except ValueError:
        value = 0
    if value < 1:
        raise argparse.ArgumentTypeError(
            f"expected an integer >= 1, got {text!r}")
    return value


def _cmd_drift_scan(args) -> int:
    sys_def = _load_system(args.system)
    fam = _parse_family(args.family)
    try:
        report = simulate.drift_scan(
            sys_def, args.bracket, fam, eps=args.eps, C=args.C,
            beta=args.beta, trials=args.trials, seed=args.seed,
            rho=args.rho, t_max=args.t_max, step=args.step)
    except conditions.MembershipHoldsError as exc:
        print(f"scan refused: {exc}")
        return 0
    if args.json:
        print(json.dumps(report.to_json_dict(), indent=2))
    else:
        print(f"parameters: eps={args.eps} C={args.C} beta={args.beta} "
              f"rho={args.rho} t_max={args.t_max} trials={args.trials} "
              f"seed={args.seed} step={args.step}")
        print(report.line())
    return 0


def _cmd_zoo(args) -> int:
    if args.list or not args.name:
        for name in zoo_names():
            print(name)
        return 0
    sys_def = _load_system(f"zoo:{args.name}")
    payload = system_to_json_dict(sys_def)
    payload["expected_values"] = {
        trees.display_form(parse_tree(k)): [str(x) for x in v]
        for k, v in sys_def.expected_values.items()}
    payload["zero_elsewhere"] = sys_def.zero_elsewhere
    print(json.dumps(payload, indent=2))
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="lietool",
        description="Lie-algebraic obstructions to small-time local "
                    "controllability of scalar-input control-affine systems",
        epilog=CONTROL_FORMAT_HINT)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("basis", help="list Hall-basis elements by bidegree")
    p.add_argument("--n1", type=int, required=True)
    p.add_argument("--n0", type=int, required=True)
    p.add_argument("--exact", action="store_true",
                   help="exact bidegree (the default)")
    p.add_argument("--cumulative", action="store_true",
                   help="list every element with n1 <= N1 and n0 <= N0")
    p.set_defaults(func=_cmd_basis)

    p = sub.add_parser("decompose", help="expand a bracket on the Hall basis")
    p.add_argument("--tree", required=True)
    p.set_defaults(func=_cmd_decompose)

    p = sub.add_parser("xi", help="coordinate of the second kind of a bracket")
    p.add_argument("--bracket", required=True)
    p.add_argument("--control", required=True)
    p.add_argument("--closed-form", action="store_true")
    p.set_defaults(func=_cmd_xi)

    p = sub.add_parser("eval", help="evaluate a bracket of f0, f1 at 0")
    p.add_argument("--system", required=True, help="file or zoo:NAME")
    p.add_argument("--bracket", required=True)
    p.set_defaults(func=_cmd_eval)

    p = sub.add_parser("check", help="run a necessary-condition checker")
    p.add_argument("--system", required=True)
    p.add_argument("--condition", required=True)
    p.add_argument("--cap-n0", type=int, default=12)
    p.add_argument("--cap-index", type=int, default=12)
    p.add_argument("--json", action="store_true")
    p.add_argument("--fail-on-violation", action="store_true")
    p.set_defaults(func=_cmd_check)

    p = sub.add_parser("verify-expansions",
                       help="randomized exact identity checks")
    p.add_argument("--degree", type=_positive_int, default=5)
    p.add_argument("--trials", type=_positive_int, default=20)
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=_cmd_verify_expansions)

    p = sub.add_parser("simulate", help="integrate the controlled system")
    p.add_argument("--system", required=True)
    p.add_argument("--control", required=True)
    p.add_argument("--step", type=float, default=1e-3)
    p.add_argument("--csv")
    p.set_defaults(func=_cmd_simulate)

    p = sub.add_parser("drift-scan", help="empirical drift-inequality scan")
    p.add_argument("--system", required=True)
    p.add_argument("--bracket", required=True)
    p.add_argument("--family", required=True)
    p.add_argument("--eps", type=float, default=0.1)
    p.add_argument("--C", type=float, default=10.0)
    p.add_argument("--beta", type=float, default=1.5)
    p.add_argument("--trials", type=_positive_int, default=200)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--rho", type=float, default=0.1)
    p.add_argument("--t-max", type=float, default=0.1)
    p.add_argument("--step", type=float, default=2e-4)
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=_cmd_drift_scan)

    p = sub.add_parser("zoo", help="catalog of benchmark systems")
    p.add_argument("--list", action="store_true")
    p.add_argument("--name")
    p.set_defaults(func=_cmd_zoo)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return USAGE_ERROR if exc.code not in (0, None) else 0
    try:
        code = args.func(args)
        _sys.stdout.flush()
        return code
    except BrokenPipeError:
        # the reader is gone (e.g. `| head`); point stdout at devnull so the
        # interpreter's final flush does not fail a second time
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, _sys.stdout.fileno())
        return BROKEN_PIPE
    except CliError as exc:
        print(str(exc), file=_sys.stderr)
        return USAGE_ERROR
    except (ValueError, KeyError, OSError) as exc:
        print(f"error: {exc}", file=_sys.stderr)
        return USAGE_ERROR


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
