"""End-to-end tests for the command-line interface.

Every test drives ``kvlog.cli.main`` in-process and asserts on the exit code
and the exact text or JSON it emits, so the CLI contract stays frozen.
"""

from __future__ import annotations

import concurrent.futures
import copy
import json
import random
import re
import time

import pytest

from kvlog import semantics
from kvlog.cli import MAX_GEN_STATES, MAX_WORKERS, build_parser, main
from kvlog.models import derive_ternary, load_model, model_to_json
from kvlog.proof import SMLKVR, soundness_fuzz
from kvlog.transform import to_fo


def run(capsys, *args):
    rc = main(list(args))
    captured = capsys.readouterr()
    return rc, captured.out, captured.err


class TestParse:
    def test_reports_formula_and_languages(self, capsys):
        rc, out, err = run(capsys, "parse", "Kv[a](p, c)")
        assert rc == 0 and err == ""
        assert out == "formula: Kv[a](p, c)\nlanguages: ELKvR\n"

    def test_json_payload_names_the_inferred_vocabulary(self, capsys):
        rc, out, _ = run(capsys, "parse", "--json", "Kv[a](p, c)")
        assert rc == 0
        payload = json.loads(out)
        assert payload == {
            "formula": "Kv[a](p, c)",
            "languages": ["ELKvR"],
            "vocab": {"agents": ["a"], "constants": ["c"], "props": ["p"]},
        }

    def test_syntax_errors_exit_2_on_stderr(self, capsys):
        rc, out, err = run(capsys, "parse", "((p")
        assert rc == 2 and out == ""
        assert err == "parse error: expected RPAR, found '' (at column 4)\n"

    @pytest.mark.parametrize("text", [
        "~" * 5000 + "p", "(" * 3000 + "p" + ")" * 3000, "[a]" * 101 + "p"],
        ids=["5000-negations", "3000-parentheses", "101-boxes"])
    def test_deep_nesting_is_a_parse_error(self, capsys, text):
        rc, out, err = run(capsys, "parse", text)
        assert rc == 2 and out == ""
        assert err.startswith("parse error: formula nested deeper than 100 levels")

    def test_nesting_up_to_the_limit_parses(self, capsys):
        rc, out, _ = run(capsys, "parse", "~" * 100 + "p")
        assert rc == 0
        assert out.endswith("languages: ELKvR, MLKv, MLKvB, MLKvR\n")


class TestCheckAndValid:
    def test_truth_exits_0(self, capsys, models_dir):
        rc, out, _ = run(
            capsys, "check", str(models_dir / "binary_vs_unary_left.json"), "s",
            "<a>^c(p, q)",
        )
        assert (rc, out) == (0, "true at s\n")

    def test_falsity_exits_1(self, capsys, models_dir):
        rc, out, _ = run(
            capsys, "check", str(models_dir / "binary_vs_unary_right.json"), "x",
            "<a>^c(p, q)",
        )
        assert (rc, out) == (1, "false at x\n")
        rc, out, _ = run(
            capsys, "check", "--json", str(models_dir / "binary_vs_unary_right.json"),
            "x", "<a>^c(p, q)",
        )
        assert rc == 1
        assert json.loads(out) == {"state": "x", "value": False}

    def test_value_assignment_models_take_conditional_value_formulas(self, capsys, tmp_path):
        rc, out, _ = run(
            capsys, "gen", "--kind", "value", "--states", "3", "--density", "0.7",
            "--values", "2", "--seed", "5", "--emit-fo",
        )
        assert rc == 0
        fo = tmp_path / "fo.json"
        fo.write_text(out)
        rc, out, _ = run(capsys, "check", str(fo), "s0", "Kv[a](T, c)")
        assert (rc, out) == (0, "true at s0\n")

    def test_language_model_mismatch_is_a_usage_error(self, capsys, tmp_path):
        rc, out, _ = run(
            capsys, "gen", "--kind", "value", "--states", "2", "--density", "0.5",
            "--values", "2", "--seed", "1", "--emit-fo",
        )
        fo = tmp_path / "fo.json"
        fo.write_text(out)
        rc, _, err = run(capsys, "check", str(fo), "s0", "[a]^c(p, q)")
        assert rc == 2
        assert err == "error: not an ELKvR formula: [a]^c(p, q)\n"

    def test_unknown_state_is_a_usage_error(self, capsys, models_dir):
        rc, _, err = run(
            capsys, "check", str(models_dir / "binary_vs_unary_left.json"),
            "nosuch", "p",
        )
        assert rc == 2
        assert err == "error: unknown state 'nosuch'\n"

    def test_valid_scans_every_state(self, capsys, models_dir):
        left = str(models_dir / "binary_vs_unary_left.json")
        rc, out, _ = run(capsys, "valid", left, "(p -> p)")
        assert (rc, out) == (0, "valid on the model\n")
        rc, out, _ = run(capsys, "valid", left, "p")
        assert (rc, out) == (1, "fails at s\n")


class TestRefute:
    SPLIT = "(<a>^c(p, q) -> (<a>^c p | <a>^c q))"

    def test_countermodel_is_reported_and_reloads(self, capsys, tmp_path):
        rc, out, _ = run(capsys, "refute", self.SPLIT, "--max-states", "3")
        assert rc == 1
        header, _, body = out.partition(":\n")
        assert header.startswith("countermodel found, formula fails at ")
        state = header.rsplit(" ", 1)[-1]
        saved = tmp_path / "counter.json"
        saved.write_text(body)
        model, _ = load_model(str(saved))
        assert state in model.states

    def test_json_shape_on_success_and_exhaustion(self, capsys):
        rc, out, _ = run(
            capsys, "refute", "--json", self.SPLIT, "--max-states", "3"
        )
        assert rc == 1
        payload = json.loads(out)
        assert payload["found"] is True
        assert payload["model"]["kind"] == "ternary"
        rc, out, _ = run(capsys, "refute", "--json", "(p -> p)", "--max-states", "2")
        assert rc == 0
        assert json.loads(out) == {"found": False, "max_states": 2}

    def test_exhaustion_message_names_the_bound(self, capsys):
        rc, out, _ = run(capsys, "refute", "(p -> p)", "--max-states", "2")
        assert (rc, out) == (0, "no countermodel with at most 2 states\n")

    def test_budget_exhaustion_is_reported(self, capsys):
        rc, _, err = run(
            capsys, "refute", "(p -> p)", "--max-states", "2", "--budget", "1"
        )
        assert rc == 1
        assert err == "error: bound exceeded after 2 models\n"

    def test_json_witness_is_the_same_for_one_and_two_workers(self, capsys):
        outs = [run(capsys, "refute", "--json", "--workers", workers,
                    "(<a>^c (p | q) -> (<a>^c p | <a>^c q))")
                for workers in ("1", "2", "1")]
        assert outs[0][0] == 1 and outs[0] == outs[1] == outs[2]
        assert json.loads(outs[0][1])["state"] == "s1"

    def test_formula_without_constants_builds_no_pair_tables(self, capsys):
        semantics._pair_tables.cache_clear()
        began = time.perf_counter()
        rc, out, err = run(capsys, "refute", "(p | ~p)", "--max-states", "6")
        assert time.perf_counter() - began < 1.0
        assert (rc, out, err) == (0, "no countermodel with at most 6 states\n", "")
        assert semantics._pair_tables.cache_info().currsize == 0

    @pytest.mark.parametrize("workers", ["1", "2"])
    def test_budget_count_is_exact_for_every_worker_count(self, capsys, workers):
        rc, _, err = run(
            capsys, "refute", "([a]^c(p, q) -> [a]^c(q, p))", "--budget", "5000",
            "--workers", workers,
        )
        assert rc == 1
        assert err == "error: bound exceeded after 5001 models\n"


class TestTranslateAndReduce:
    def test_round_trip_between_the_languages(self, capsys):
        rc, out, _ = run(capsys, "translate", "--dir", "elkv2ml", "Kv[a](p, c)")
        assert (rc, out) == (0, "[a]^c ~p\n")
        rc, out, _ = run(capsys, "translate", "--dir", "ml2elkv", "[a]^c ~p")
        assert (rc, out) == (0, "Kv[a](p, c)\n")

    def test_direction_must_match_the_input_language(self, capsys):
        rc, _, err = run(capsys, "translate", "--dir", "ml2elkv", "Kv[a](p, c)")
        assert rc == 2
        assert err == "error: not an MLKvR formula: Kv[a](p, c)\n"

    def test_direction_flag_is_mandatory(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["translate", "Kv[a](p, c)"])
        assert exc.value.code == 2

    def test_reduce_expands_binary_boxes(self, capsys):
        rc, out, _ = run(capsys, "reduce", "[a]^c(p, q)")
        assert rc == 0
        assert out == (
            "~(((<a>^c ~p & <a>~q) | (<a>^c ~q & <a>~p)) | "
            "((((<a>~p & <a>~q) & ~<a>^c ~p) & ~<a>^c ~q) & <a>^c (~p | ~q)))\n"
        )

    def test_reduce_leaves_unary_formulas_alone(self, capsys):
        rc, out, _ = run(capsys, "reduce", "p")
        assert (rc, out) == (0, "p\n")


class TestValidateAndConvert:
    def test_clean_model_passes(self, capsys, models_dir):
        rc, out, _ = run(
            capsys, "validate", str(models_dir / "binary_vs_unary_left.json")
        )
        assert (rc, out) == (0, "all frame conditions hold\n")

    def test_violations_are_listed_one_per_line(self, capsys, models_dir, tmp_path):
        raw = json.loads((models_dir / "binary_vs_unary_left.json").read_text())
        raw["rel"]["a"] = [pair for pair in raw["rel"]["a"] if pair != ["s", "u"]]
        broken = tmp_path / "broken.json"
        broken.write_text(json.dumps(raw))
        rc, out, _ = run(capsys, "validate", str(broken))
        assert rc == 1
        lines = out.splitlines()
        assert lines[0].endswith("violations:") or "INCL" in out
        assert any("INCL" in line for line in lines)

    @pytest.mark.parametrize("change, path", [
        (lambda raw: 5, "top level"),
        (lambda raw: [1, 2], "top level"),
        (lambda raw: {**raw, "states": 5}, "states"),
        (lambda raw: {**raw, "rel": {"a": "s"}}, "rel.a"),
        (lambda raw: {**raw, "rel": {"a": [["s", "t", "u"]]}}, "rel.a[0]"),
    ])
    def test_malformed_json_is_a_usage_error_naming_the_path(
            self, capsys, models_dir, tmp_path, change, path):
        raw = json.loads((models_dir / "binary_vs_unary_left.json").read_text())
        broken = tmp_path / "broken.json"
        broken.write_text(json.dumps(change(raw)))
        rc, out, err = run(capsys, "validate", str(broken))
        assert rc == 2 and out == ""
        assert err.startswith(f"error: model JSON {path} must ")

    @pytest.mark.parametrize("kind, change, message", [
        ("direct", lambda raw: raw["val"].update(nosuch=["p"]),
         "valuation names unknown state 'nosuch'"),
        ("value", lambda raw: raw["vc"].update({"zz,s9": "v0"}),
         "vc names (zz, s9), not a constant and a state"),
    ], ids=["val", "vc"])
    def test_keys_naming_unknown_states_are_usage_errors(
            self, capsys, tmp_path, kind, change, message):
        rc, out, _ = run(capsys, "gen", "--kind", kind, "--states", "2",
                         "--seed", "1", *(["--emit-fo"] if kind == "value" else []))
        raw = json.loads(out)
        change(raw)
        broken = tmp_path / "broken.json"
        broken.write_text(json.dumps(raw))
        rc, out, err = run(capsys, "check", str(broken), "s0", "p")
        assert (rc, out, err) == (2, "", f"error: {message}\n")

    def test_missing_file_is_a_usage_error(self, capsys, tmp_path):
        rc, _, err = run(capsys, "validate", str(tmp_path / "absent.json"))
        assert rc == 2 and err.startswith("error: ")

    def test_fo_to_ternary_matches_the_library_derivation(self, capsys, tmp_path):
        rc, out, _ = run(
            capsys, "gen", "--kind", "value", "--states", "4", "--density", "0.6",
            "--values", "2", "--seed", "7", "--emit-fo",
        )
        fo_path = tmp_path / "fo.json"
        fo_path.write_text(out)
        rc, out, _ = run(capsys, "convert", str(fo_path), "--to", "ternary")
        assert rc == 0
        tern_path = tmp_path / "tern.json"
        tern_path.write_text(out)
        assert load_model(str(tern_path))[0] == derive_ternary(load_model(str(fo_path))[0])

    def test_ternary_to_fo_writes_a_loadable_model(self, capsys, models_dir, tmp_path):
        out_path = tmp_path / "fo.json"
        rc, out, _ = run(
            capsys, "convert", str(models_dir / "binary_vs_unary_left.json"),
            "--to", "fo", "--root", "s", "--depth", "2", "--out", str(out_path),
        )
        assert rc == 0
        assert out == f"root: s.0\nwritten to {out_path}\n"
        reloaded, _ = load_model(str(out_path))
        assert "s.0" in reloaded.states

    def test_to_fo_requires_a_root(self, capsys, models_dir):
        rc, _, err = run(
            capsys, "convert", str(models_dir / "binary_vs_unary_left.json"),
            "--to", "fo",
        )
        assert rc == 2
        assert err == "error: --to fo needs --root <state>\n"


class TestBisim:
    def test_distinguishable_pair_prints_a_distinguisher(self, capsys, models_dir):
        rc, out, _ = run(
            capsys, "bisim",
            str(models_dir / "binary_vs_unary_left.json"), "s",
            str(models_dir / "binary_vs_unary_right.json"), "x",
        )
        assert rc == 1
        assert out == "not bisimilar; true at s, false at x:\n  <a>~p\n"

    def test_a_state_is_bisimilar_to_itself(self, capsys, models_dir):
        left = str(models_dir / "binary_vs_unary_left.json")
        rc, out, _ = run(capsys, "bisim", left, "s", left, "s")
        assert (rc, out) == (0, "s and s are bisimilar\n")

    def test_json_shape(self, capsys, models_dir):
        rc, out, _ = run(
            capsys, "bisim", "--json",
            str(models_dir / "binary_vs_unary_left.json"), "s",
            str(models_dir / "binary_vs_unary_right.json"), "x",
        )
        assert rc == 1
        assert json.loads(out) == {"bisimilar": False, "formula": "<a>~p"}

    @pytest.mark.parametrize("states, named", [
        (("nope", "x"), "'nope' in the first model"),
        (("s", "nope"), "'nope' in the second model"),
        (("nope", "nada"), "'nope' in the first model and 'nada' in the second model"),
    ], ids=["first", "second", "both"])
    def test_unknown_state_names_only_the_unknown_ones(self, capsys, models_dir,
                                                        states, named):
        rc, out, err = run(
            capsys, "bisim",
            str(models_dir / "binary_vs_unary_left.json"), states[0],
            str(models_dir / "binary_vs_unary_right.json"), states[1],
        )
        assert (rc, out, err) == (2, "", f"error: unknown state {named}\n")


class TestProve:
    def test_accepted_script_summarises_the_conclusion(self, capsys, proofs_dir):
        rc, out, _ = run(
            capsys, "prove", "SMLKVr", str(proofs_dir / "axiom_to_nec.kvp")
        )
        assert (rc, out) == (0, "accepted: 12 steps, conclusion [a]^c (p | ~p)\n")

    def test_rejected_script_names_step_and_reason(self, capsys, proofs_dir):
        rc, out, _ = run(
            capsys, "prove", "SMLKVr",
            str(proofs_dir / "negative" / "taut_not_tautology.kvp"),
        )
        assert rc == 1
        assert out == (
            "rejected at step 1: not a propositional tautology: "
            "fails under assignment 01\n"
        )

    def test_json_shape_for_rejection(self, capsys, proofs_dir):
        rc, out, _ = run(
            capsys, "prove", "--json", "SMLKVr",
            str(proofs_dir / "negative" / "taut_not_tautology.kvp"),
        )
        assert rc == 1
        assert json.loads(out) == {
            "conclusion": "(p -> q)",
            "ok": False,
            "reason": "not a propositional tautology: fails under assignment 01",
            "step": 1,
            "steps": 1,
        }

    def test_unknown_system_is_a_usage_error(self, capsys, proofs_dir):
        rc, _, err = run(
            capsys, "prove", "NOPE", str(proofs_dir / "axiom_to_nec.kvp")
        )
        assert rc == 2
        assert err == "error: unknown system 'NOPE'; pick one of SMLKVr, SMLKVb, SMLKV\n"

    def test_unreadable_script_is_a_usage_error(self, capsys, tmp_path):
        bad = tmp_path / "bad.kvp"
        bad.write_text("garbage\n")
        rc, _, err = run(capsys, "prove", "SMLKVr", str(bad))
        assert rc == 2
        assert err == "error: line 1: unreadable line 'garbage'\n"

    @pytest.mark.parametrize("justification, key", [
        ("NECKVB(1, i=a, c=c, side=r &)", "side"),
        ("AX(DISTK, i=a, p=p &, q=q)", "p"),
    ])
    def test_bad_formula_values_name_their_line_and_key(
            self, capsys, tmp_path, justification, key):
        script = tmp_path / "bad.kvp"
        script.write_text(f"1. (p | ~p) BY TAUT\n2. p BY {justification}\n")
        rc, out, err = run(capsys, "prove", "SMLKVb", str(script))
        assert (rc, out) == (2, "")
        assert err == (f"error: line 2: bad value for {key}: "
                       "unexpected '' (at column 4)\n")

    def test_argument_the_rule_does_not_read_is_a_rejection(self, capsys, tmp_path):
        script = tmp_path / "unread.kvp"
        script.write_text("1. (p | ~p) BY TAUT\n2. ((p | ~p) -> (p | ~p)) BY TAUT\n"
                          "3. (p | ~p) BY MP(1, 2, i=a, side=p)\n")
        rc, out, err = run(capsys, "prove", "SMLKVr", str(script))
        assert (rc, out, err) == (1, "rejected at step 3: MP does not read i=\n", "")
        rc, out, _ = run(capsys, "prove", "--json", "SMLKVr", str(script))
        assert rc == 1
        assert json.loads(out) == {"conclusion": "(p | ~p)", "ok": False,
                                   "reason": "MP does not read i=", "step": 3,
                                   "steps": 3}

    def test_repeated_key_is_a_usage_error(self, capsys, tmp_path):
        script = tmp_path / "twice.kvp"
        script.write_text("1. (p | ~p) BY TAUT\n2. [b](p | ~p) BY NECK(1, i=a, i=b)\n")
        rc, out, err = run(capsys, "prove", "SMLKVr", str(script))
        assert (rc, out) == (2, "")
        assert err == "error: line 2: i= is given twice\n"

    @pytest.mark.parametrize("lines, arg", [
        (["([a](p -> q) -> ([a]p -> [a]q)) BY AX(DISTK, i=a, p=p, q=q, =r)"],
         "=r"),
        (["(p | ~p) BY TAUT", "[a](p | ~p) BY NECK(1, i=a, =q)"], "=q"),
        (["(p | ~p) BY TAUT", "(q | ~q) BY SUB(1, =q)"], "=q"),
    ])
    def test_argument_without_a_name_is_a_usage_error(
            self, capsys, tmp_path, lines, arg):
        script = tmp_path / "nameless.kvp"
        script.write_text("".join(f"{k}. {line}\n"
                                  for k, line in enumerate(lines, 1)))
        rc, out, err = run(capsys, "prove", "SMLKVr", str(script))
        assert (rc, out) == (2, "")
        assert err == f"error: line {len(lines)}: unreadable argument {arg!r}\n"


class TestDeepInputs:
    OPERANDS = 3000

    @pytest.mark.parametrize("command, args", [
        ("validate", []), ("check", ["s", "p"]),
        ("convert", ["--to", "fo", "--root", "s"]), ("bisim", ["s", "{}", "s"]),
    ])
    def test_deeply_nested_json_is_a_usage_error(self, capsys, tmp_path,
                                                 command, args):
        path = tmp_path / "deep.json"
        path.write_text("[" * 200_000)
        argv = [str(path)] + [a.format(path) for a in args]
        rc, out, err = run(capsys, command, *argv)
        assert (rc, out) == (2, "")
        assert err == f"error: {path}: JSON nested too deeply to decode\n"

    @pytest.mark.parametrize("op", ["&", "|", "->", "<->"])
    def test_long_chains_run_through_every_formula_command(
            self, capsys, models_dir, op):
        text = f" {op} ".join(["p"] * self.OPERANDS)
        left = str(models_dir / "binary_vs_unary_left.json")
        for argv in (["parse", text], ["check", left, "s", text],
                     ["valid", left, text],
                     ["translate", "--dir", "elkv2ml", text],
                     ["translate", "--dir", "ml2elkv", text],
                     ["reduce", text], ["refute", "--max-states", "1", text]):
            rc, _, err = run(capsys, *argv)
            assert rc in (0, 1) and "Traceback" not in err, argv[:-1]

    def conj_and_printed(self):
        """A conjunction of OPERANDS copies of p, and how it prints."""
        conj = "(" + " & ".join(["p"] * self.OPERANDS) + ")"
        return conj, "(" * (self.OPERANDS - 1) + "p" + " & p)" * (self.OPERANDS - 1)

    def test_deep_proof_steps_are_checked_and_printed(self, capsys, tmp_path):
        conj, printed = self.conj_and_printed()
        taut = f"([a]{conj} -> [a]{conj})"
        conclusion = f"([a]{printed} -> [a]{printed})"
        cases = [
            (f"1. {taut} BY TAUT\n", 0,
             {"ok": True, "steps": 1, "conclusion": conclusion}),
            (f"1. {taut} BY TAUT\n2. [b]{taut} BY NECK(1, i=a)\n", 1,
             {"ok": False, "steps": 2, "conclusion": f"[b]{conclusion}",
              "step": 2, "reason": "stated formula is not the boxed premise"}),
        ]
        for text, code, payload in cases:
            script = tmp_path / "deep.kvp"
            script.write_text(text)
            rc, out, err = run(capsys, "prove", "--json", "SMLKVr", str(script))
            assert (rc, err) == (code, "")
            assert json.loads(out) == payload

    def test_equal_deep_sides_print_as_a_biconditional(self, capsys):
        conj, printed = self.conj_and_printed()
        rc, out, err = run(capsys, "parse",
                           f"(({conj} -> {conj}) & ({conj} -> {conj}))")
        assert (rc, err) == (0, "")
        assert out == (f"formula: ({printed} <-> {printed})\n"
                       "languages: ELKvR, MLKv, MLKvB, MLKvR\n")

    def test_deep_boxed_tautology_is_accepted(self, capsys, tmp_path):
        conj, printed = self.conj_and_printed()
        script = tmp_path / "deep.kvp"
        script.write_text(f"1. ([a]{conj} -> [a]{conj}) BY TAUT\n"
                          f"2. [a]([a]{conj} -> [a]{conj}) BY NECK(1, i=a)\n")
        rc, out, err = run(capsys, "prove", "SMLKVr", str(script))
        assert (rc, err) == (0, "")
        assert out == (f"accepted: 2 steps, conclusion "
                       f"[a]([a]{printed} -> [a]{printed})\n")

    @pytest.mark.parametrize("steps, code", [
        (["({P} -> {P}) BY TAUT", "(({P} -> {P}) -> (q -> ({P} -> {P}))) BY TAUT",
          "(q -> ({P} -> {P})) BY MP(1, 2)"], 0),
        (["({P} -> {P}) BY TAUT", "({Q} -> {Q}) BY SUB(1, p=q)"], 0),
        (["({P} <-> ({P} & T)) BY TAUT",
          "([a]{P} <-> [a]({P} & T)) BY RE(1, at=0)"], 0),
        (["({P} <-> ({P} & T)) BY TAUT",
          "([a]{P} <-> [a]({P} & F)) BY RE(1, at=0)"], 1),
    ], ids=["MP", "SUB", "RE", "RE-mismatch"])
    def test_deep_rule_steps_end_without_a_traceback(self, capsys, tmp_path,
                                                      steps, code):
        conj, _ = self.conj_and_printed()
        script = tmp_path / "deep.kvp"
        script.write_text("".join(
            f"{k}. " + step.format(P=conj, Q=conj.replace("p", "q")) + "\n"
            for k, step in enumerate(steps, start=1)))
        rc, _, err = run(capsys, "prove", "SMLKVr", str(script))
        assert (rc, err) == (code, "")

    def test_parallel_search_takes_a_long_formula(self, capsys):
        text = " & ".join(["(p | ~p)"] * 1500)
        rc, out, err = run(capsys, "refute", "--workers", "2",
                           "--max-states", "2", text)
        assert rc == 0 and "Traceback" not in err
        assert out == "no countermodel with at most 2 states\n"

    def test_reduced_formula_past_the_print_cap_is_a_usage_error(self, capsys):
        rc, out, err = run(capsys, "reduce", "[a]^c(" * 7 + "p" + ", q)" * 7)
        assert (rc, out) == (2, "")
        assert err == ("error: formula prints to 2,089,820 characters, "
                       "over the cap of 1,000,000\n")

    def test_unraveling_past_the_tree_cap_is_a_usage_error(
            self, capsys, tmp_path):
        _, out, _ = run(capsys, "gen", "--kind", "direct", "--states", "2",
                        "--density", "0.9", "--seed", "1", "--agents", "a",
                        "--constants", "c")
        model = tmp_path / "m.json"
        model.write_text(out)
        rc, _, _ = run(capsys, "convert", str(model), "--to", "fo", "--root",
                       "s0", "--depth", "6")
        assert rc == 0
        rc, out, err = run(capsys, "convert", str(model), "--to", "fo",
                           "--root", "s0", "--depth", "12")
        assert (rc, out) == (2, "")
        assert err == ("error: unraveling to depth 12 makes more than "
                       "10,000 states\n")


class TestFuzz:
    def test_summary_line_and_exit_code(self, capsys):
        rc, out, _ = run(capsys, "fuzz", "SMLKV", "--trials", "10", "--seed", "3")
        assert (rc, out) == (
            0, "SMLKV: 10 trials, 151 validity checks, no falsification found\n"
        )

    def test_json_matches_the_library_report(self, capsys):
        rc, out, _ = run(
            capsys, "fuzz", "--json", "SMLKVr", "--trials", "10", "--seed", "3"
        )
        assert rc == 0
        payload = json.loads(out)
        report = soundness_fuzz(SMLKVR, trials=10, seed=3)
        assert payload == {
            "checks": report.checks,
            "falsifications": [],
            "system": "SMLKVr",
            "trials": 10,
        }

    def test_worker_sharding_does_not_change_the_outcome(self, capsys):
        rc, solo, _ = run(capsys, "fuzz", "SMLKV", "--trials", "10", "--seed", "3",
                          "--workers", "1")
        rc2, duo, _ = run(capsys, "fuzz", "SMLKV", "--trials", "10", "--seed", "3",
                          "--workers", "2")
        assert (rc, rc2) == (0, 0)
        assert solo == duo


class TestGen:
    def test_output_is_deterministic_and_reloads(self, capsys, tmp_path):
        args = ("gen", "--kind", "direct", "--states", "3", "--density", "0.7",
                "--values", "2", "--seed", "5")
        rc, first, _ = run(capsys, *args)
        rc2, second, _ = run(capsys, *args)
        assert (rc, rc2) == (0, 0)
        assert first == second
        path = tmp_path / "gen.json"
        path.write_text(first)
        model, _ = load_model(str(path))
        assert len(model.states) == 3

    def test_value_kind_emits_ternary_by_default_and_fo_on_request(self, capsys, tmp_path):
        base = ("gen", "--kind", "value", "--states", "3", "--density", "0.7",
                "--values", "2", "--seed", "5")
        rc, tern_out, _ = run(capsys, *base)
        rc2, fo_out, _ = run(capsys, *base, "--emit-fo")
        assert (rc, rc2) == (0, 0)
        tern_payload, fo_payload = json.loads(tern_out), json.loads(fo_out)
        assert tern_payload["kind"] == "ternary"
        assert "domain" in fo_payload
        tern_path, fo_path = tmp_path / "t.json", tmp_path / "f.json"
        tern_path.write_text(tern_out)
        fo_path.write_text(fo_out)
        assert load_model(str(tern_path))[0] == derive_ternary(load_model(str(fo_path))[0])

    def test_custom_vocabulary_is_respected(self, capsys, tmp_path):
        rc, out, _ = run(
            capsys, "gen", "--kind", "direct", "--states", "2", "--density", "0.5",
            "--values", "1", "--seed", "0", "--agents", "x", "y",
            "--props", "warm", "--constants", "k",
        )
        assert rc == 0
        payload = json.loads(out)
        assert payload["vocab"] == {
            "agents": ["x", "y"], "constants": ["k"], "props": ["warm"]
        }

    def test_invalid_sizes_are_usage_errors(self, capsys):
        rc, _, err = run(capsys, "gen", "--states", "0")
        assert rc == 2 and err.startswith("error: ")

    @pytest.mark.parametrize("kind", ["value", "direct"])
    def test_state_count_above_the_cap_is_a_usage_error(self, capsys, kind):
        start = time.perf_counter()
        rc, out, err = run(capsys, "gen", "--kind", kind, "--density", "1",
                           "--values", "1000", "--states", str(MAX_GEN_STATES + 1))
        assert time.perf_counter() - start < 1.0
        assert (rc, out) == (2, "")
        assert err == (f"error: --states {MAX_GEN_STATES + 1} is above the cap "
                       f"of {MAX_GEN_STATES}\n")
        rc, out, _ = run(capsys, "gen", "--kind", kind, "--json",
                         "--states", str(MAX_GEN_STATES))
        assert rc == 0
        assert len(json.loads(out)["model"]["states"]) == MAX_GEN_STATES


class TestParserReuse:
    """main builds the argparse tree on its first call and keeps it."""

    @staticmethod
    def calls(proofs_dir):
        script = str(proofs_dir / "axiom_to_nec.kvp")
        return [["prove", "SMLKVr"], ["prove", "--json", "SMLKVr", script],
                ["prove", "SMLKVr", script], ["refute", "--max-states", "1", "p"]]

    @staticmethod
    def outcome(capsys, argv):
        try:
            rc = main(argv)
        except SystemExit as exc:
            rc = exc.code
        return rc, capsys.readouterr().out

    def test_later_calls_match_first_calls(self, capsys, proofs_dir):
        first = []
        for argv in self.calls(proofs_dir):
            build_parser.cache_clear()
            first.append(self.outcome(capsys, argv))
        assert [rc for rc, _ in first] == [2, 0, 0, 1]
        build_parser.cache_clear()
        again = [self.outcome(capsys, argv) for argv in self.calls(proofs_dir)]
        assert again == first


class TestArgparseContract:
    def test_missing_subcommand_exits_2(self):
        with pytest.raises(SystemExit) as exc:
            main([])
        assert exc.value.code == 2

    def test_invalid_choice_exits_2(self):
        with pytest.raises(SystemExit) as exc:
            main(["translate", "--dir", "nope", "p"])
        assert exc.value.code == 2

    @pytest.mark.parametrize("argv", [
        ["refute", "p", "--max-states", "-1"],
        ["refute", "p", "--budget", "-1"],
        ["refute", "p", "--workers", "0"],
        ["fuzz", "SMLKV", "--trials", "-3"],
        ["convert", "model.json", "--to", "fo", "--depth", "-1"],
        ["refute", "p", "--budget", "many"],
    ])
    def test_out_of_range_numbers_exit_2(self, capsys, argv):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
        assert f"error: argument {argv[-2]}: " in capsys.readouterr().err

    @pytest.mark.parametrize("command", [["refute", "p"], ["fuzz", "SMLKV"]])
    def test_workers_above_the_cap_exit_2_before_any_pool(
            self, capsys, monkeypatch, command):
        def no_pool(*args, **kwargs):
            raise AssertionError("a process pool was started")
        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", no_pool)
        with pytest.raises(SystemExit) as exc:
            main(command + ["--workers", str(MAX_WORKERS + 1)])
        assert exc.value.code == 2
        assert capsys.readouterr().err.endswith(
            f"error: argument --workers: expected an integer <= {MAX_WORKERS}, "
            f"got '{MAX_WORKERS + 1}'\n")
        args = build_parser().parse_args(command + ["--workers", str(MAX_WORKERS)])
        assert args.workers == MAX_WORKERS


class TestExitCodeContract:
    """Seeded mutants of the shipped formulas, model files and proof
    scripts go through every subcommand: each call exits 0, 1 or 2, and no
    exception escapes main."""

    JUNK = (None, -1, 2.5, True, "", "zz", [], {}, [["s", "t", "t"]])

    @staticmethod
    def mutate_text(rng, text):
        """One or two token edits, each to a word token half the time: drop
        a token, double it, or replace it by another token of the text of
        the same kind (word or symbol)."""
        parts = re.split(r"(\w+|<->|->|\S)", text)   # tokens at odd indices
        words = [i for i in range(1, len(parts), 2) if parts[i].isalnum()]
        for _ in range(rng.randint(1, 2)):
            i = (rng.choice(words) if words and rng.random() < 0.5
                 else rng.randrange(1, len(parts), 2))
            same = [t for t in parts[1::2] if t.isalnum() == parts[i].isalnum()]
            parts[i] = rng.choice(("", parts[i] * 2, rng.choice(same)))
        return "".join(parts)

    @classmethod
    def mutate_json(cls, rng, data):
        """A copy of data with one node dropped, or replaced by a copy of
        another node of data or by junk."""
        data = copy.deepcopy(data)
        slots, stack = [], [data]
        while stack:
            node = stack.pop()
            if isinstance(node, (dict, list)):
                keys = list(node) if isinstance(node, dict) else range(len(node))
                slots += [(node, key) for key in keys]
                stack += [node[key] for key in keys]
        (node, key), (other, at) = rng.choice(slots), rng.choice(slots)
        kind = rng.randrange(4)
        if kind == 0:
            del node[key]
        else:
            node[key] = copy.deepcopy(rng.choice(cls.JUNK) if kind == 1 else other[at])
        return data

    @classmethod
    def calls(cls, rng, tmp_path, models_dir, proofs_dir, left_model):
        left = str(models_dir / "binary_vs_unary_left.json")
        right = str(models_dir / "binary_vs_unary_right.json")
        texts = [path.read_text(encoding="utf-8")
                 for path in sorted(proofs_dir.glob("**/*.kvp"))]
        formulas = [line.split(". ", 1)[1].split(" BY ")[0]
                    for text in texts for line in text.splitlines()
                    if line[:1].isdigit()]
        systems = ["SMLKVr", "SMLKVb", "SMLKV"]
        for _ in range(150):
            f = cls.mutate_text(rng, rng.choice(formulas))
            yield from (["parse", "--json", f], ["reduce", f],
                        ["translate", "--dir", "elkv2ml", f],
                        ["translate", "--dir", "ml2elkv", f],
                        ["refute", "--max-states", "2", "--budget", "300", f],
                        ["check", left, "s", f], ["valid", "--json", left, f])
        sources = [json.loads(path.read_text(encoding="utf-8"))
                   for path in sorted(models_dir.glob("*.json"))]
        sources.append(model_to_json(to_fo(left_model, "s", 1)[0]))
        for k in range(150):
            path, source = tmp_path / f"model{k}.json", rng.choice(sources)
            path.write_text(cls.mutate_text(rng, json.dumps(source))
                            if k % 4 == 3 else
                            json.dumps(cls.mutate_json(rng, source)),
                            encoding="utf-8")
            model, state = str(path), rng.choice(source["states"] + ["zz"])
            f = rng.choice(("<a>^c p", "[a]^c(p, q)", "(<a>p -> <a>^c p)",
                            "Kv[a](p, c)"))
            yield from (["validate", model], ["check", model, state, f],
                        ["valid", model, f], ["convert", model, "--to", "ternary"],
                        ["convert", model, "--to", "fo", "--root", state],
                        ["bisim", model, state, right, "x"],
                        ["bisim", "--json", left, "s", model, state])
        for k in range(60):
            path = tmp_path / f"script{k}.kvp"
            path.write_text(cls.mutate_text(rng, rng.choice(texts)),
                            encoding="utf-8")
            yield ["prove", "--json", rng.choice(systems), str(path)]
        for _ in range(30):
            yield ["fuzz", rng.choice(systems + ["SMLKVx", ""]), "--trials",
                   str(rng.randint(-1, 2)), "--seed", str(rng.randint(-5, 5))]
            yield ["gen", "--kind", rng.choice(("value", "direct")),
                   "--states", str(rng.randint(0, 5)),
                   "--density", str(rng.choice((0, 0.3, 1, 1.5))),
                   "--values", str(rng.randint(0, 3)),
                   "--agents", *rng.sample(["a", "b", "a", ""], 2)]

    def test_mutated_inputs_exit_0_1_or_2(self, capsys, tmp_path, models_dir,
                                          proofs_dir, left_model):
        codes: dict[str, set] = {}
        for argv in self.calls(random.Random(2016), tmp_path, models_dir,
                               proofs_dir, left_model):
            try:
                rc = main(argv)
            except SystemExit as exc:   # argparse's usage errors
                rc = exc.code
            capsys.readouterr()
            assert rc in (0, 1, 2), argv
            codes.setdefault(argv[0], set()).add(rc)
        # all 12 subcommands got mutants past their input checks, and some not
        assert len(codes) == 12 and all(2 in c and c - {2} for c in codes.values())
