"""CLI outputs that must not depend on the hash seed or the worker count.

Each test runs its commands through ``kvlog.cli.main`` in two fresh
interpreters, one with PYTHONHASHSEED=0 and one with PYTHONHASHSEED=1,
since the seed is fixed when an interpreter starts.  Within each
interpreter the runs with ``--workers 1`` and ``--workers 2`` are compared;
then the two interpreters are.  Every comparison is of the exact stdout,
with the exit code.  The fuzz outcomes that tests/test_proof.py pins are
recomputed in two such interpreters too, and compared with the pins.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys

from conftest import ROOT
from test_proof import PINNED_FUZZ

from kvlog.cli import main

# Runs each argv of argv[1] (a JSON list) through main; prints a JSON list
# of [exit code, stdout], one per argv.
_CHILD = """
import contextlib, io, json, sys
from kvlog.cli import main
results = []
for argv in json.loads(sys.argv[1]):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        try:
            rc = main(argv)
        except SystemExit as exc:
            rc = exc.code
    results.append([rc, out.getvalue()])
json.dump(results, sys.stdout)
"""


# Prints a JSON list of test_proof.fuzz_outcome(*key), one per key of
# test_proof.PINNED_FUZZ in sorted order; argv[1] is the tests directory.
_FUZZ_CHILD = """
import json, sys
sys.path.insert(0, sys.argv[1])
from test_proof import PINNED_FUZZ, fuzz_outcome
json.dump([fuzz_outcome(*key) for key in sorted(PINNED_FUZZ)], sys.stdout)
"""


def run_in_child(hashseed: int, code: str, arg: str):
    """The JSON that code prints when run with arg as sys.argv[1] in a fresh
    interpreter with PYTHONHASHSEED=hashseed."""
    env = dict(os.environ, PYTHONHASHSEED=str(hashseed),
               PYTHONPATH=os.pathsep.join(
                   filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")])))
    done = subprocess.run([sys.executable, "-c", code, arg],
                          cwd=ROOT, env=env, capture_output=True, text=True,
                          check=True)
    return json.loads(done.stdout)


def run_with_hashseed(hashseed: int, argvs: list[list[str]]) -> list[tuple]:
    """(exit code, stdout) of each argv, all run in one interpreter."""
    return [tuple(result)
            for result in run_in_child(hashseed, _CHILD, json.dumps(argvs))]


def by_hashseed_and_workers(argvs: list[list[str]]) -> dict:
    """{(hashseed, workers): results} for argvs, each run once with
    --workers 1 and once with --workers 2 appended."""
    runs = {}
    for hashseed in (0, 1):
        results = run_with_hashseed(hashseed, [argv + ["--workers", str(workers)]
                                               for workers in (1, 2)
                                               for argv in argvs])
        runs[hashseed, 1], runs[hashseed, 2] = (results[:len(argvs)],
                                                results[len(argvs):])
    return runs


def test_fuzz_reports_do_not_depend_on_the_hash_seed_or_the_worker_count():
    argvs = [["fuzz", "--json", system, "--trials", "60", "--seed", "3"]
             for system in ("SMLKVr", "SMLKVb", "SMLKV")]
    runs = by_hashseed_and_workers(argvs)
    assert all(rc == 0 for results in runs.values() for rc, _ in results)
    for key in ((0, 2), (1, 1), (1, 2)):
        assert runs[key] == runs[0, 1], key


def test_pinned_fuzz_outcomes_do_not_depend_on_the_hash_seed():
    # the check counts and falsification lists test_proof pins, recomputed
    # under each hash seed; a falsification list shows the order in which
    # formulas were drawn, which a check count alone does not
    keys = sorted(PINNED_FUZZ)
    for hashseed in (0, 1):
        got = run_in_child(hashseed, _FUZZ_CHILD, str(ROOT / "tests"))
        mismatched = [key for key, (checks, found) in zip(keys, got)
                      if (checks, [tuple(f) for f in found]) != PINNED_FUZZ[key]]
        assert len(got) == len(keys) and not mismatched, (hashseed, mismatched)


def test_refute_output_does_not_depend_on_the_hash_seed_or_the_worker_count():
    # the INCL schema and two of the NON_THEOREMS in bench/workloads.py
    formulas = ("(<a>^c(p, p) -> <a>p)",
                "(<a>^c (p | q) -> (<a>^c p | <a>^c q))", "([a]^c p -> p)")
    argvs = [["refute", "--json", "--max-states", "3", f] for f in formulas]
    runs = by_hashseed_and_workers(argvs)
    for key in ((0, 2), (1, 1), (1, 2)):
        assert runs[key] == runs[0, 1], key
    assert [rc for rc, _ in runs[0, 1]] == [0, 1, 1]


def test_model_outputs_do_not_depend_on_the_hash_seed(capsys, tmp_path):
    left = "models/binary_vs_unary_left.json"
    right = "models/binary_vs_unary_right.json"
    gen = ["gen", "--json", "--states", "6", "--density", "0.5", "--seed", "4"]
    assert main(gen + ["--kind", "direct"]) == 0
    direct = tmp_path / "direct.json"
    direct.write_text(json.dumps(json.loads(capsys.readouterr().out)["model"]))
    argvs = [
        ["convert", left, "--to", "fo", "--root", "s", "--depth", "2", "--json"],
        ["convert", str(direct), "--to", "fo", "--root", "s0", "--depth", "2",
         "--json"],
        ["bisim", "--json", left, "s", right, "x"],
        gen + ["--kind", "value"],
        gen + ["--kind", "value", "--emit-fo"],
        gen + ["--kind", "direct"],
        ["validate", "--json", left],
        ["validate", "--json", str(direct)],
    ]
    assert run_with_hashseed(0, argvs) == run_with_hashseed(1, argvs)
