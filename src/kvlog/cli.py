"""Command line front end.

Subcommands cover the library surface: parsing and printing, evaluation,
validity on a model, countermodel search, the two translations, the
binary-to-unary reduction, frame-condition validation, model conversion,
bisimulation checking, derivation checking, soundness fuzzing and model
generation.

Exit codes: 0 for true / accepted / nothing found, 1 for false /
rejected / a finding (countermodel, violation, distinguishing formula,
falsification), 2 for usage and input errors.  Textual reports go to
stdout; --json swaps them for one machine-readable object.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys
from typing import Optional

from .bisim import distinguishing_formula
from .models import (FOKripkeModel, GenParams, TernaryModel, derive_ternary,
                     generate_direct, generate_value_induced, load_model,
                     model_to_json, validate_ternary)
from .proof import SYSTEMS, check_derivation, parse_script, soundness_fuzz
from .semantics import (DEFAULT_BUDGET, BudgetExceededError,
                        counterexample_state, eval_fo, eval_ternary,
                        find_countermodel)
from .syntax import (KvlogError, LanguageError, ParseError, Vocabulary,
                     language_of, parse, parse_infer, print_formula, reduce_r,
                     translate_T, translate_T_inv)
from .transform import to_fo


def _emit(args, payload: dict, lines: list[str]) -> None:
    if args.json:
        print(json.dumps(payload, indent=2, sort_keys=True))
    else:
        for line in lines:
            print(line)


def _load(path: str):
    model, notes = load_model(path)
    for note in notes:
        print(f"note: {note}", file=sys.stderr)
    return model


def _require_ternary(model) -> TernaryModel:
    if not isinstance(model, TernaryModel):
        raise ValueError("this command expects a ternary model")
    return model


def cmd_parse(args) -> int:
    f, vocab = parse_infer(args.formula)
    langs = sorted(language_of(f))
    _emit(args, {"formula": print_formula(f), "languages": langs,
                 "vocab": {"agents": list(vocab.agents),
                           "props": list(vocab.props),
                           "constants": list(vocab.constants)}},
          [f"formula: {print_formula(f)}",
           f"languages: {', '.join(langs) if langs else '(none)'}"])
    return 0


def cmd_check(args) -> int:
    model = _load(args.model)
    f = parse(args.formula, model.vocab)
    if isinstance(model, TernaryModel):
        value = eval_ternary(model, args.state, f)
    else:
        value = eval_fo(model, args.state, f)
    _emit(args, {"state": args.state, "value": value},
          [f"{'true' if value else 'false'} at {args.state}"])
    return 0 if value else 1


def cmd_valid(args) -> int:
    model = _require_ternary(_load(args.model))
    state = counterexample_state(model, parse(args.formula, model.vocab))
    if state is not None:
        _emit(args, {"valid": False, "state": state}, [f"fails at {state}"])
        return 1
    _emit(args, {"valid": True}, ["valid on the model"])
    return 0


def cmd_refute(args) -> int:
    f, vocab = parse_infer(args.formula)
    try:
        hit = find_countermodel(f, args.max_states, vocab,
                                budget=args.budget, workers=args.workers)
    except BudgetExceededError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    if hit is None:
        _emit(args, {"found": False, "max_states": args.max_states},
              [f"no countermodel with at most {args.max_states} states"])
        return 0
    model, state = hit
    _emit(args, {"found": True, "state": state,
                 "model": model_to_json(model)},
          [f"countermodel found, formula fails at {state}:",
           json.dumps(model_to_json(model), indent=2, sort_keys=True)])
    return 1


def cmd_translate(args) -> int:
    f, _ = parse_infer(args.formula)
    out = translate_T(f) if args.dir == "elkv2ml" else translate_T_inv(f)
    _emit(args, {"formula": print_formula(out)}, [print_formula(out)])
    return 0


def cmd_reduce(args) -> int:
    f, _ = parse_infer(args.formula)
    out = reduce_r(f)
    _emit(args, {"formula": print_formula(out)}, [print_formula(out)])
    return 0


def cmd_validate(args) -> int:
    model = _require_ternary(_load(args.model))
    violations = validate_ternary(model)
    payload = {"violations": [
        {"condition": v.cond, "agent": v.agent, "constant": v.constant,
         "witness": list(v.witness)} for v in violations]}
    if not violations:
        _emit(args, payload, ["all frame conditions hold"])
        return 0
    _emit(args, payload, [v.describe() for v in violations])
    return 1


def cmd_convert(args) -> int:
    model = _load(args.model)
    if args.to == "ternary":
        if not isinstance(model, FOKripkeModel):
            raise ValueError("--to ternary expects a value-assignment model")
        out = derive_ternary(model)
        extra = {}
        lines = []
    else:
        model = _require_ternary(model)
        if args.root is None:
            raise ValueError("--to fo needs --root <state>")
        out, root = to_fo(model, args.root, args.depth)
        extra = {"root": root}
        lines = [f"root: {root}"]
    data = model_to_json(out)
    text = json.dumps(data, indent=2, sort_keys=True)
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(text + "\n")
        lines.append(f"written to {args.out}")
    else:
        lines.append(text)
    _emit(args, {"model": data, **extra}, lines)
    return 0


def cmd_bisim(args) -> int:
    m1 = _require_ternary(_load(args.model1))
    m2 = _require_ternary(_load(args.model2))
    f = distinguishing_formula(m1, args.state1, m2, args.state2)
    if f is None:
        _emit(args, {"bisimilar": True},
              [f"{args.state1} and {args.state2} are bisimilar"])
        return 0
    _emit(args, {"bisimilar": False, "formula": print_formula(f)},
          [f"not bisimilar; true at {args.state1}, false at {args.state2}:",
           f"  {print_formula(f)}"])
    return 1


def _system(name: str):
    if name not in SYSTEMS:
        raise ValueError(f"unknown system {name!r}; pick one of {', '.join(SYSTEMS)}")
    return SYSTEMS[name]


def cmd_prove(args) -> int:
    system = _system(args.system)
    with open(args.script, encoding="utf-8") as fh:
        d = parse_script(fh.read())
    result = check_derivation(system, d)
    payload = {"ok": result.ok, "steps": len(d.steps),
               "conclusion": print_formula(d.conclusion())}
    if result.ok:
        _emit(args, payload, [f"accepted: {len(d.steps)} steps, "
                              f"conclusion {payload['conclusion']}"])
        return 0
    payload.update({"step": result.step, "reason": result.reason})
    _emit(args, payload, [result.describe()])
    return 1


def _fuzz_chunk(payload):
    name, trials, seed, start = payload
    return soundness_fuzz(SYSTEMS[name], trials, seed, start=start)


def cmd_fuzz(args) -> int:
    system = _system(args.system)
    if args.workers > 1 and args.trials > 1:
        share = -(-args.trials // args.workers)
        chunks = [(args.system, min(share, args.trials - lo), args.seed, lo)
                  for lo in range(0, args.trials, share)]
        from concurrent.futures import ProcessPoolExecutor  # see find_countermodel
        with ProcessPoolExecutor(max_workers=args.workers) as pool:
            parts = list(pool.map(_fuzz_chunk, chunks))
        report = parts[0]
        for part in parts[1:]:
            report.checks += part.checks
            report.falsifications.extend(part.falsifications)
        report.trials = args.trials
    else:
        report = soundness_fuzz(system, args.trials, args.seed)
    lines = [report.summary()]
    for fals in report.falsifications:
        lines.append(f"trial {fals.trial}: {fals.kind} fails at "
                     f"{fals.state}: {fals.formula}")
    _emit(args, {"system": report.system, "trials": report.trials,
                 "checks": report.checks,
                 "falsifications": [
                     {"trial": fa.trial, "kind": fa.kind,
                      "formula": fa.formula, "state": fa.state}
                     for fa in report.falsifications]},
          lines)
    return 1 if report.falsifications else 0


MAX_GEN_STATES = 30   # above it, gen's time and memory grow steeply
MAX_GEN_VALUES = 1000   # gen builds every value name before anything else


def cmd_gen(args) -> int:
    for name, value, cap in (("states", args.states, MAX_GEN_STATES),
                             ("values", args.values, MAX_GEN_VALUES)):
        if value > cap:
            raise ValueError(f"--{name} {value} is above the cap of {cap}")
    vocab = Vocabulary(agents=tuple(args.agents), props=tuple(args.props),
                       constants=tuple(args.constants))
    params = GenParams(vocab=vocab, num_states=args.states,
                       edge_density=args.density,
                       value_count=args.values, seed=args.seed)
    if args.kind == "direct":
        model = generate_direct(params)
    else:
        fo, ternary = generate_value_induced(params)
        model = fo if args.emit_fo else ternary
    data = model_to_json(model)
    _emit(args, {"model": data},
          [json.dumps(data, indent=2, sort_keys=True)])
    return 0


# --workers above this exits 2: a pool starts all its processes at once
MAX_WORKERS = 32


def _int_at_least(low: int, cap: Optional[int] = None):
    """argparse type for integers >= low, and <= cap if one is given;
    anything else exits 2."""
    def integer(text: str) -> int:
        value = int(text)
        if value < low:
            raise argparse.ArgumentTypeError(
                f"expected an integer >= {low}, got {text!r}")
        if cap is not None and value > cap:
            raise argparse.ArgumentTypeError(
                f"expected an integer <= {cap}, got {text!r}")
        return value
    return integer


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The argparse tree, built on the first call and shared after it.

    Parsing leaves the tree unchanged, and argparse looks up stdout and
    stderr when it prints, so one tree serves every call of `main`.
    """
    top = argparse.ArgumentParser(
        prog="kvlog",
        description="reasoning tools for knowing-value modal logics")
    sub = top.add_subparsers(dest="command", required=True)

    def add(name, fn, help):
        p = sub.add_parser(name, help=help, description=help)
        p.add_argument("--json", action="store_true",
                       help="emit one JSON object instead of text")
        p.set_defaults(fn=fn)
        return p

    p = add("parse", cmd_parse, "parse a formula and report its languages")
    p.add_argument("formula")

    p = add("check", cmd_check, "evaluate a formula at a state of a model")
    p.add_argument("model")
    p.add_argument("state")
    p.add_argument("formula")

    p = add("valid", cmd_valid, "test truth at every state of a model")
    p.add_argument("model")
    p.add_argument("formula")

    p = add("refute", cmd_refute,
            "search small ternary models for a countermodel")
    p.add_argument("formula")
    p.add_argument("--max-states", type=_int_at_least(1), default=3)
    p.add_argument("--budget", type=_int_at_least(0), default=DEFAULT_BUDGET)
    p.add_argument("--workers", type=_int_at_least(1, MAX_WORKERS), default=1)

    p = add("translate", cmd_translate,
            "translate between conditional-value and box languages")
    p.add_argument("--dir", choices=("elkv2ml", "ml2elkv"), required=True)
    p.add_argument("formula")

    p = add("reduce", cmd_reduce,
            "rewrite binary value boxes into the unary language")
    p.add_argument("formula")

    p = add("validate", cmd_validate,
            "report frame-condition violations of a ternary model")
    p.add_argument("model")

    p = add("convert", cmd_convert,
            "convert between value-assignment and ternary models")
    p.add_argument("model")
    p.add_argument("--to", choices=("ternary", "fo"), required=True)
    p.add_argument("--root", help="start state for --to fo")
    p.add_argument("--depth", type=_int_at_least(0), default=2,
                   help="unraveling depth for --to fo")
    p.add_argument("--out", help="write the model here instead of stdout")

    p = add("bisim", cmd_bisim,
            "decide bisimilarity of two pointed models")
    p.add_argument("model1")
    p.add_argument("state1")
    p.add_argument("model2")
    p.add_argument("state2")

    p = add("prove", cmd_prove, "check a derivation script")
    p.add_argument("system", help=", ".join(SYSTEMS))
    p.add_argument("script")

    p = add("fuzz", cmd_fuzz,
            "fuzz axiom schemas and rules for soundness on random models")
    p.add_argument("system", help=", ".join(SYSTEMS))
    p.add_argument("--trials", type=_int_at_least(1), default=50)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--workers", type=_int_at_least(1, MAX_WORKERS), default=1)

    p = add("gen", cmd_gen, "generate a random model as JSON")
    p.add_argument("--kind", choices=("value", "direct"), default="value")
    p.add_argument("--states", type=int, default=4)
    p.add_argument("--density", type=float, default=0.4)
    p.add_argument("--values", type=int, default=2)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--emit-fo", action="store_true",
                   help="with --kind value, emit the value-assignment model")
    p.add_argument("--agents", nargs="+", default=["a", "b"])
    p.add_argument("--props", nargs="+", default=["p", "q"])
    p.add_argument("--constants", nargs="+", default=["c", "d"])

    return top


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.fn(args)
    except ParseError as exc:
        print(f"parse error: {exc}", file=sys.stderr)
        return 2
    except (LanguageError, KvlogError, ValueError, OSError,
            json.JSONDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
