"""Command-line front end.

Exit codes: 0 success / true verdict, 1 false verdict, 2 input error,
3 budget exhaustion, 4 internal error (traceback on stderr).  Output is JSON
first; --format text renders summaries from the same data.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import traceback

from . import io as mio
from .base import base_from_descriptor, chain_base, rad2nak_base, stable_base
from .decompose import BudgetExceeded, decompose
from .enumerate import enumerate_bounded, enumerate_mono_rad2, kronecker_family
from .mimo import mimo, stable_reduce, transfer
from .quiver import quiver_from_descriptor
from .rep import f_shriek, kopf, l1_kopf
from .suites import DEFAULT_SUITE_ORDER, run_suite

EXIT_OK = 0
EXIT_FALSE = 1
EXIT_INPUT = 2
EXIT_BUDGET = 3
EXIT_INTERNAL = 4


def parse_base(text: str):
    """'chain:poly:2:2', 'rad2nak:2:2', 'stable:<base>', or inline JSON."""
    text = text.strip()
    if text.startswith("{"):
        return base_from_descriptor(json.loads(text))
    parts = text.split(":")
    if parts[0] == "chain" and len(parts) == 4:
        return chain_base(parts[1], int(parts[2]), int(parts[3]))
    if parts[0] == "rad2nak" and len(parts) == 3:
        return rad2nak_base(int(parts[1]), int(parts[2]))
    if parts[0] == "stable" and len(parts) > 1:
        return stable_base(parse_base(":".join(parts[1:])))
    raise ValueError(f"cannot parse base descriptor {text!r}")


def parse_quiver(text: str):
    text = text.strip()
    if text.startswith("{"):
        return quiver_from_descriptor(json.loads(text))
    return quiver_from_descriptor(text)


def _emit(args, data, text_lines=None):
    if getattr(args, "format", "json") == "text" and text_lines is not None:
        out = "\n".join(text_lines) + "\n"
    else:
        out = mio.dumps(data)
    if getattr(args, "output", None):
        with open(args.output, "w") as fh:
            fh.write(out)
    else:
        sys.stdout.write(out)


def _load_rep(args):
    with open(args.input) as fh:
        return mio.representation_from_json(json.load(fh))


def cmd_validate(args):
    rep = _load_rep(args)
    data = mio.representation_to_json(rep)
    again = mio.representation_from_json(data)
    ok = again == rep
    _emit(args, {"ok": ok, "length_vector": rep.length_vector()},
          [f"valid: {ok}"])
    return EXIT_OK if ok else EXIT_FALSE


def cmd_mono_check(args):
    rep = _load_rep(args)
    kernels = l1_kopf(rep)
    failing = {v: mio.module_to_json(k) for v, (k, _) in kernels.items() if not k.is_zero()}
    ok = not failing
    _emit(args, {"mono": ok, "failing_vertices": failing},
          [f"mono: {ok}"] + [f"  vertex {v}: kernel {k['parts']}" for v, k in failing.items()])
    return EXIT_OK if ok else EXIT_FALSE


def cmd_mimo(args):
    rep = _load_rep(args)
    m, p = mimo(rep)
    data = {
        "representation": mio.representation_to_json(m),
        "approximation": {v: mio.morphism_to_json(p.components[v]) for v in rep.quiver.vertices},
    }
    _emit(args, data, [f"approximation computed; vertex lengths {m.length_vector()}"])
    return EXIT_OK


def cmd_fshriek(args):
    with open(args.input) as fh:
        data = json.load(fh)
    if not isinstance(data, dict):
        raise ValueError("input must be a JSON object")
    base = quiver = None
    if "base" not in data:
        if args.base is None:
            raise ValueError("the input has no base; pass --base")
        base = parse_base(args.base)
    if "quiver" not in data:
        if args.quiver is None:
            raise ValueError("the input has no quiver; pass --quiver")
        quiver = parse_quiver(args.quiver)
    base, quiver, modules = mio.vertex_modules_from_json(data, base, quiver)
    rep = f_shriek(base, quiver, modules)
    _emit(args, mio.representation_to_json(rep), [f"path-indexed representation: {rep.length_vector()}"])
    return EXIT_OK


def cmd_kopf(args):
    rep = _load_rep(args)
    tops = {v: mio.module_to_json(c) for v, (c, _) in kopf(rep).items()}
    kers = {v: mio.module_to_json(k) for v, (k, _) in l1_kopf(rep).items()}
    _emit(args, {"kopf": tops, "l1_kopf": kers},
          [f"{v}: top {tops[v]['parts']} kernel {kers[v]['parts']}" for v in tops])
    return EXIT_OK


def cmd_decompose(args):
    rep = _load_rep(args)
    factors = decompose(rep, **_given_budget(args))
    data = {
        "factors": [
            {"representation": mio.representation_to_json(r), "multiplicity": m, "certificate": c}
            for r, m, c in factors
        ]
    }
    _emit(args, data, [f"{len(factors)} pairwise non-isomorphic factor(s)"])
    return EXIT_OK


def cmd_stable_reduce(args):
    rep = _load_rep(args)
    _emit(args, mio.representation_to_json(stable_reduce(rep)), ["reduced"])
    return EXIT_OK


def cmd_transfer(args):
    rep = _load_rep(args)
    target = parse_base(args.base)
    out = transfer(rep, target)
    _emit(args, mio.representation_to_json(out), [f"transferred: {out.length_vector()}"])
    return EXIT_OK


def cmd_enumerate(args):
    base = parse_base(args.base)
    quiver = parse_quiver(args.quiver)
    if args.caps is not None:
        caps = [_cap(x, args.caps) for x in args.caps.split(",")]
        report = enumerate_bounded(quiver, base, caps, mono_only=args.mono_only,
                                   **_given_budget(args))
    else:
        report = enumerate_mono_rad2(quiver, base)
    _emit(args, mio.report_to_json(report),
          [f"classes: {len(report.classes)} (injective {report.counts['injective']}, "
           f"non-injective {report.counts['non_injective']})"])
    return EXIT_OK


def _cap(entry: str, text: str) -> int:
    try:
        return int(entry)
    except ValueError:
        raise ValueError(f"malformed cap {entry!r} in --caps {text!r}: expected comma-separated "
                         "non-negative integers, one per vertex") from None


def cmd_kronecker(args):
    base = parse_base(args.base)
    rep = kronecker_family(base, args.family, args.index, args.param)
    _emit(args, mio.representation_to_json(rep), [f"member: {rep.length_vector()}"])
    return EXIT_OK


def cmd_verify_suite(args):
    names = DEFAULT_SUITE_ORDER if args.suite == "all" else [args.suite]
    results = []
    for name in names:
        kwargs = {"seed": args.seed, **_given_budget(args)}
        if name == "rad2-count":
            kwargs["quiver"] = parse_quiver(args.quiver) if args.quiver else None
            kwargs["base"] = parse_base(args.base) if args.base else None
        results.append(run_suite(name, **kwargs))
    ok = all(r["ok"] for r in results)
    lines = [f"{r['name']}: {'PASS' if r['ok'] else 'FAIL'} ({r['seconds']}s)" for r in results]
    _emit(args, {"ok": ok, "results": results}, lines)
    return EXIT_OK if ok else EXIT_FALSE


def _given_budget(args) -> dict:
    """``budget`` as a keyword when --budget or MONOCAT_BUDGET gives one;
    otherwise none, and each call keeps its library default."""
    return {} if args.budget is None else {"budget": args.budget}


def _budget(text: str) -> int:
    if not text.strip().isdigit():
        raise argparse.ArgumentTypeError(f"budget (--budget or MONOCAT_BUDGET) must be a "
                                         f"non-negative integer, got {text!r}")
    return int(text)


def build_parser():
    parser = argparse.ArgumentParser(prog="monocat",
                                     description="Exact monomorphism-category computations over serial rings")
    sub = parser.add_subparsers(dest="command", required=True)
    # MONOCAT_BUDGET, a string, goes through _budget only when --budget is
    # not given; without either the budget is None (``_given_budget``)
    default_budget = os.environ.get("MONOCAT_BUDGET")

    def common(p, needs_input=True):
        if needs_input:
            p.add_argument("--input", "-i", required=True, help="input JSON file")
        p.add_argument("--output", "-o", help="output file (default stdout)")
        p.add_argument("--format", choices=["json", "text"], default="json")
        p.add_argument("--budget", type=_budget, default=default_budget)

    p = sub.add_parser("validate", help="re-validate and round-trip a representation file")
    common(p)
    p.set_defaults(func=cmd_validate)

    p = sub.add_parser("mono-check", help="test the monomorphism condition")
    common(p)
    p.set_defaults(func=cmd_mono_check)

    p = sub.add_parser("mimo", help="minimal monic approximation")
    common(p)
    p.set_defaults(func=cmd_mimo)

    p = sub.add_parser("fshriek", help="path-indexed representation of vertex modules")
    common(p)
    p.add_argument("--base", help="base descriptor (if absent from the input file)")
    p.add_argument("--quiver", help="quiver descriptor (if absent from the input file)")
    p.set_defaults(func=cmd_fshriek)

    p = sub.add_parser("kopf", help="vertexwise top and in-map kernel")
    common(p)
    p.set_defaults(func=cmd_kopf)

    p = sub.add_parser("decompose", help="Krull-Schmidt decomposition")
    common(p)
    p.set_defaults(func=cmd_decompose)

    p = sub.add_parser("stable-reduce", help="image in the stable category")
    common(p)
    p.set_defaults(func=cmd_stable_reduce)

    p = sub.add_parser("transfer", help="carry a monic representation to another chain ring")
    common(p)
    p.add_argument("--base", required=True, help="target base descriptor")
    p.set_defaults(func=cmd_transfer)

    p = sub.add_parser("enumerate", help="enumerate indecomposable classes")
    common(p, needs_input=False)
    p.add_argument("--base", required=True)
    p.add_argument("--quiver", required=True)
    p.add_argument("--caps", help="comma-separated per-vertex length caps (bounded search)")
    p.add_argument("--mono-only", action="store_true")
    p.set_defaults(func=cmd_enumerate)

    p = sub.add_parser("kronecker", help="explicit Kronecker-quiver family member")
    common(p, needs_input=False)
    p.add_argument("--base", required=True)
    p.add_argument("--family", required=True, choices=["P", "I", "R"])
    p.add_argument("--index", required=True, type=int)
    p.add_argument("--param", help="projective point a:b for the R family")
    p.set_defaults(func=cmd_kronecker)

    p = sub.add_parser("verify-suite", help="run a named verification suite")
    common(p, needs_input=False)
    p.add_argument("--suite", required=True,
                   help="a1..a7, a4-full, p1..p4, rad2-count, or 'all'")
    p.add_argument("--base", help="base for parametrized suites")
    p.add_argument("--quiver", help="quiver for parametrized suites")
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=cmd_verify_suite)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return EXIT_INPUT if exc.code not in (0, None) else EXIT_OK
    try:
        return args.func(args)
    except BudgetExceeded as exc:
        sys.stderr.write(f"budget exhausted: {exc}\n")
        return EXIT_BUDGET
    except (OSError, json.JSONDecodeError, ValueError, KeyError) as exc:
        sys.stderr.write(f"input error: {exc}\n")
        return EXIT_INPUT
    except Exception:
        traceback.print_exc()
        return EXIT_INTERNAL


if __name__ == "__main__":
    sys.exit(main())
