"""Command-line frontend.

Exit codes: 0 on success, 1 when a check/claim fails, 2 on usage errors,
3 when a search hit its node budget before it was exhaustive (for
``verify-paper``: no claim failed, but a claim's search did not finish).
Model arguments accept either a catalog id (``a7[k=2,ident=1]``) or a path
to a model file in the JSON format of ``to_json``.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from dataclasses import fields

from . import __version__
from .algebra import AlgebraError, FiniteAlgebra, from_json, to_json
from .axioms import SYSTEMS, axiom_sentence, failing_axioms, status_vector
from .catalog import build_model, list_models
from .report import (INCONCLUSIVE, PASS, _independence_evidence, _named_env,
                     _witness_str, render_model, run_verification_suite)
from .search import SearchResult, SearchSpec, _search_for
from .terms import (EvalError, ParseError, check_validity, eval_term, free_vars,
                    parse_term)


def _color_enabled() -> bool:
    return sys.stdout.isatty() and not os.environ.get("NO_COLOR")


def _tag(ok: bool) -> str:
    word = "pass" if ok else "FAIL"
    if _color_enabled():
        code = "32" if ok else "31"
        return f"\x1b[{code}m{word}\x1b[0m"
    return word


def _load_model(ref: str) -> FiniteAlgebra:
    if ref.endswith(".json") or os.path.sep in ref:
        with open(ref) as fh:
            return from_json(fh.read())
    return build_model(ref)


def _parse_axiom_list(text: str) -> list[str]:
    """Comma-separated axiom ids with numeric ranges, e.g. "R1,R3-R10,R8p"."""
    out = []
    for item in text.split(","):
        item = item.strip()
        if not item:
            continue
        lo, sep, hi = item.partition("-")
        if sep and lo.startswith("R") and lo[1:].isdigit() and \
           hi.startswith("R") and hi[1:].isdigit():
            if int(lo[1:]) > int(hi[1:]):
                raise ValueError(f"reversed axiom range {item!r}")
            out += (f"R{n}" for n in range(int(lo[1:]), int(hi[1:]) + 1))
        else:
            out.append(item)
    return out


def _parse_env(a: FiniteAlgebra, text: str, variables) -> dict:
    """Bindings "r=2,s=1'" of the term's ``variables`` by element index or name."""
    env = {}
    names = {name: i for i, name in enumerate(a.names)} if a.names else {}
    for item in text.split(","):
        if not item.strip():
            continue
        var, sep, val = item.partition("=")
        if not sep:
            raise EvalError(f"malformed binding {item!r}")
        var, val = var.strip(), val.strip()
        if var in env:
            raise EvalError(f"variable {var!r} bound twice")
        if var not in variables:
            raise EvalError(f"variable {var!r} does not occur in the term")
        index = names.get(val)
        if index is None:
            try:
                index = int(val)
            except ValueError:
                raise EvalError(f"unknown element {val!r}") from None
        elif val.isdecimal() and int(val) < a.size and int(val) != index:
            raise EvalError(f"ambiguous element {val!r}: the name of index {index} "
                            f"or index {int(val)} (named {a.name_of(int(val))})")
        if not 0 <= index < a.size:
            raise EvalError(f"element index {index} out of range")
        env[var] = index
    return env


def cmd_list_models(args) -> int:
    for mid in list_models():
        print(mid)
    return 0


def cmd_show(args) -> int:
    a = _load_model(args.model)
    print(to_json(a) if args.json else render_model(a))
    return 0


def cmd_check(args) -> int:
    a = _load_model(args.model)
    system = SYSTEMS[args.system]
    status = status_vector(a, system)
    failing = failing_axioms(status)
    if args.json:
        doc = {
            "model": args.model,
            "system": args.system,
            "failing": failing,
            "axioms": {
                k: None if w is None else _named_env(a, w)
                for k, w in status.items()
            },
        }
        print(json.dumps(doc, indent=1))
    else:
        for axiom_id, witness in status.items():
            if witness is None:
                print(f"{_tag(True)} {axiom_id}")
            else:
                print(f"{_tag(False)} {axiom_id} at {_witness_str(_named_env(a, witness))}")
    return 1 if failing else 0


def cmd_eval(args) -> int:
    a = _load_model(args.model)
    term = parse_term(args.term)
    env = _parse_env(a, args.let or "", free_vars(term))
    value = eval_term(a, term, env)
    print(a.name_of(value))
    return 0


def cmd_independence(args) -> int:
    a = _load_model(args.model)
    ok, ev = _independence_evidence(
        lambda m, i: check_validity(m, axiom_sentence(i)), a, SYSTEMS[args.system],
        args.target)
    print(f"{_tag(ok)} independence of {args.target} within {args.system}: "
          f"failing = {ev['failing'] or 'none'}")
    if "witness" in ev:
        print(f"  witness: {_witness_str(ev['witness'])}")
    return 0 if ok else 1


def cmd_search(args) -> int:
    hold = list(dict.fromkeys(_parse_axiom_list(args.hold or "")))
    must_hold = tuple(axiom_sentence(i) for i in hold)
    must_fail = tuple(axiom_sentence(i) for i in _parse_axiom_list(args.fail or ""))
    spec = SearchSpec(args.size, must_hold, must_fail, up_to_iso=args.iso,
                      node_limit=args.limit)
    res = _search_for(spec)(spec)
    # every counter of the result, in field order; conflicts by axiom id
    counters = {f.name: getattr(res, f.name) for f in fields(SearchResult)
                if f.name != "models"}
    counters["conflicts"] = dict(zip(hold, res.conflicts))
    if args.json:
        doc = {"size": args.size, **counters,
               "models": [json.loads(to_json(m)) for m in res.models]}
        print(json.dumps(doc, indent=1))
    else:
        for key, value in counters.items():
            if key == "conflicts":
                value = ", ".join(f"{i} {c}" for i, c in value.items()) or "none"
            print(f"{key.replace('_', ' ') + ':':15} {value}")
        for i, m in enumerate(res.models):
            print(f"--- model {i} ---")
            print(render_model(m))
    return 0 if res.exhaustive else 3


def cmd_verify_paper(args) -> int:
    if args.limit is not None and not args.long:
        raise ValueError("--limit applies only with --long")
    report = run_verification_suite(include_long_running=args.long,
                                    long_node_limit=args.limit)
    if args.json:
        print(json.dumps(report.to_dict(), indent=1))
    else:
        print(report.render())
    return {PASS: 0, INCONCLUSIVE: 3}.get(report.overall, 1)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="relalg",
        description="finite relation-algebra workbench")
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("list-models", help="list catalog model ids")
    p.set_defaults(func=cmd_list_models)

    p = sub.add_parser("show", help="print a model's operation tables")
    p.add_argument("model")
    p.add_argument("--json", action="store_true", help="model file format")
    p.set_defaults(func=cmd_show)

    p = sub.add_parser("check", help="axiom status vector of a model")
    p.add_argument("model")
    p.add_argument("--system", choices=sorted(SYSTEMS), default="tarski")
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=cmd_check)

    p = sub.add_parser("eval", help="evaluate a term in a model")
    p.add_argument("model")
    p.add_argument("term")
    p.add_argument("--let", help="bindings, e.g. r=0,s=1'")
    p.set_defaults(func=cmd_eval)

    p = sub.add_parser("independence",
                       help="test that exactly the target axiom fails")
    p.add_argument("model")
    p.add_argument("--target", required=True)
    p.add_argument("--system", choices=sorted(SYSTEMS), default="tarski")
    p.set_defaults(func=cmd_independence)

    p = sub.add_parser("search", help="enumerate models of a sentence set")
    p.add_argument("--size", type=int, required=True)
    p.add_argument("--hold", help="axioms to satisfy, e.g. R1,R3-R10")
    p.add_argument("--fail", help="axioms that must each fail")
    p.add_argument("--iso", action="store_true", help="up to isomorphism; "
                   "with R1-R3 held, the Boolean part is fixed (guided search)")
    p.add_argument("--limit", type=int, help="node limit")
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=cmd_search)

    p = sub.add_parser("verify-paper", help="run the full claim suite")
    p.add_argument("--long", action="store_true",
                   help="include the long-running uniqueness searches")
    p.add_argument("--limit", type=int,
                   help="node limit of each long search (default: no limit)")
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=cmd_verify_paper)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (AlgebraError, ParseError, EvalError, KeyError, OSError,
            ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
