import gc
import io
import json
import os
import signal
import subprocess
import sys
from contextlib import ExitStack, contextmanager, redirect_stdout
from pathlib import Path

import pytest

import defeasidl
from defeasidl import cli, evaluator, oracle
from defeasidl.cli import build_parser, main
from defeasidl.compiler import compile_individual, compile_team
from defeasidl.parser import format_theory, parse_theory
import corpus
from test_check import counting
from test_grounding import rot_theory


def run(*argv):
    buffer = io.StringIO()
    with redirect_stdout(buffer):
        code = main(list(argv))
    return code, buffer.getvalue()


def result_lines(output):
    return [line for line in output.splitlines() if not line.startswith("#")]


TWEETY = str(corpus.path("tweety"))
PLATYPUS = str(corpus.path("platypus"))
NONSTRAT = str(corpus.path("nonstrat"))


class TestValidate:
    def test_tweety_ok(self):
        code, out = run("--no-timings", "validate", TWEETY)
        assert code == 0
        assert "ok:" in out

    def test_superiority_cycle_exits_1(self, tmp_path):
        bad = tmp_path / "cycle.dfl"
        bad.write_text("r1: p => q.\nr1 > r1.\n", encoding="utf-8")
        code, out = run("--no-timings", "validate", str(bad))
        assert code == 1
        assert "superiority-cycle" in out

    def test_missing_file_exits_2(self):
        code, _ = run("--no-timings", "validate", "/nonexistent/nowhere.dfl")
        assert code == 2

    def test_parse_error_exits_1(self, tmp_path):
        bad = tmp_path / "broken.dfl"
        bad.write_text("p(((\n", encoding="utf-8")
        code, out = run("--no-timings", "validate", str(bad))
        assert code == 1
        assert "parse-error" in out

    @pytest.mark.parametrize("text", [
        "p.\np(a).\n",
        "p(a).\np(b, c).\nq(a).\nr1: q(X) => p(X, X).\n",
    ])
    def test_arity_errors_do_not_depend_on_the_hash_seed(self, tmp_path, text):
        # The facts are a frozenset; the first one met fixes the arity the
        # others are checked against, so they must be met in one order.
        path = tmp_path / "arity.dfl"
        path.write_text(text, encoding="utf-8")
        package_root = str(Path(defeasidl.__file__).resolve().parent.parent)
        outputs = set()
        for seed in ("0", "1", "3"):
            done = subprocess.run(
                [sys.executable, "-m", "defeasidl", "--no-timings", "validate", str(path)],
                capture_output=True, text=True, timeout=60,
                env={**os.environ, "PYTHONPATH": package_root, "PYTHONHASHSEED": seed})
            assert done.returncode == 1, done.stderr
            outputs.add(done.stdout)
        assert len(outputs) == 1, outputs
        assert "arity-mismatch" in outputs.pop()


class TestAnalyze:
    def test_tweety(self):
        code, out = run("--no-timings", "analyze", TWEETY)
        assert code == 0
        assert "hierarchical: yes" in out
        assert "team-stratified: yes" in out
        assert "range-restricted: yes" in out

    def test_nonstrat(self):
        code, out = run("--no-timings", "analyze", NONSTRAT)
        assert code == 0
        assert "team-stratified: no" in out
        assert "individual-stratified: yes" in out
        assert "team-call-consistent: yes" in out

    def test_empty_theory_sizes(self, tmp_path):
        empty = tmp_path / "empty.dfl"
        empty.write_text("% nothing here\n", encoding="utf-8")
        code, out = run("--no-timings", "analyze", str(empty))
        assert code == 0
        assert "theory-size: 0" in out and "team-ratio: n/a" in out

    def test_constant_free_variable_theory(self, tmp_path):
        src = tmp_path / "free.dfl"
        src.write_text("r1: p(X) => q(X).\n", encoding="utf-8")
        code, out = run("--no-timings", "analyze", str(src))
        assert code == 0
        assert "locally-hierarchical: undetermined (no constants)" in out


class TestCompile:
    def test_round_trips(self, tmp_path):
        from defeasidl.compiler import compile_team
        from defeasidl.datalog import parse_datalog

        out_path = tmp_path / "tweety.dl"
        code, _ = run("--no-timings", "compile", TWEETY, "--mode", "team", "-o", str(out_path))
        assert code == 0
        reparsed = parse_datalog(out_path.read_text(encoding="utf-8"))
        direct = compile_team(corpus.load("tweety")).program
        assert set(reparsed.clauses) == set(direct.clauses)

    def test_individual_superiority_free_has_no_defeats_units(self, tmp_path):
        src = tmp_path / "plain.dfl"
        src.write_text("r1: a => p.\nr2: b => neg p.\na.\nb.\n", encoding="utf-8")
        out_path = tmp_path / "plain.dl"
        code, _ = run("--no-timings", "compile", str(src), "--mode", "individual", "-o", str(out_path))
        assert code == 0
        lines = out_path.read_text(encoding="utf-8").splitlines()
        assert not any(line.startswith("defeats__") for line in lines)

    def test_invalid_theory_writes_nothing(self, tmp_path):
        src = tmp_path / "bad.dfl"
        src.write_text("r1: p => q.\nr1 > r1.\n", encoding="utf-8")
        out_path = tmp_path / "bad.dl"
        code, _ = run("--no-timings", "compile", str(src), "-o", str(out_path))
        assert code == 1
        assert not out_path.exists()


class TestSolve:
    def test_tweety_wf(self):
        code, out = run("--no-timings", "solve", TWEETY, "--logic", "dpar", "--backend", "wf")
        assert code == 0
        lines = result_lines(out)
        assert "+dpar neg fly(tweety)" in lines
        assert "+dpar fly(freddie)" not in lines
        assert "+Delta bird(tweety)" in lines

    def test_lambda_lines_are_opt_in(self):
        _, without = run("--no-timings", "solve", TWEETY)
        assert not any(l.startswith("+lambda") for l in result_lines(without))
        _, with_lambda = run("--no-timings", "solve", TWEETY, "--show-lambda")
        assert "+lambda fly(freddie)" in result_lines(with_lambda)

    def test_platypus_star_all_backends(self):
        for backend in ("wf", "stratified", "hybrid", "oracle"):
            code, out = run(
                "--no-timings", "solve", PLATYPUS, "--logic", "dpar_star", "--backend", backend
            )
            assert code == 0, backend
            lines = result_lines(out)
            assert "+dpar* mammal(platypus)" not in lines, backend
            assert "+dpar* neg mammal(platypus)" not in lines, backend

    def test_oracle_and_wf_listings_identical(self):
        _, via_oracle = run("--no-timings", "solve", TWEETY, "--backend", "oracle", "--show-lambda")
        _, via_wf = run("--no-timings", "solve", TWEETY, "--backend", "wf", "--show-lambda")
        assert result_lines(via_oracle) == result_lines(via_wf)

    def test_stratified_backend_refuses_nonstratified(self):
        code, out = run("--no-timings", "solve", NONSTRAT, "--backend", "stratified")
        assert code == 1
        assert "not-stratified" in out and "hybrid" in out

    def test_three_valued_refusal_hints_a_backend_that_lists(self):
        argv = ("--no-timings", "solve", NONSTRAT, "--three-valued", "--backend")
        code, out = run(*argv, "stratified")
        assert code == 1
        hint = result_lines(out)[-1]
        assert hint.endswith("not stratified; use --backend wf"), hint
        code, out = run(*argv, hint.rsplit(" ", 1)[1])
        assert code == 0
        assert result_lines(out) == ["+dpar neg q", "-dpar q"]

    def test_hybrid_backend_on_nonstratified(self):
        code, out = run("--no-timings", "solve", NONSTRAT, "--backend", "hybrid")
        assert code == 0
        assert "+dpar neg q" in result_lines(out)
        assert "+dpar q" not in result_lines(out)

    def test_three_valued_listing(self):
        for backend in ("wf", "stratified"):
            code, out = run("--no-timings", "solve", TWEETY, "--backend", backend, "--three-valued")
            assert code == 0, backend
            lines = result_lines(out)
            assert [line for line in lines if line[0] in "-?"] == [
                "-dpar fly(freddie)",
                "-dpar fly(tweety)",
            ], backend

    def test_three_valued_lists_self_supporting_literals(self, tmp_path):
        # p supports only itself, so the well-founded model makes it false;
        # a derivable grounding would drop it from the listing.
        src = tmp_path / "loop.dfl"
        src.write_text("q.\nr1: p => p.\n", encoding="utf-8")
        code, out = run("--no-timings", "solve", str(src), "--three-valued")
        assert code == 0
        assert result_lines(out) == ["+Delta q", "+dpar q", "-dpar p"]

    @pytest.mark.parametrize("name", corpus.names())
    def test_three_valued_keeps_the_true_conclusions(self, name):
        # Plain solve grounds wf and stratified by derivability and
        # --three-valued by self-support; both give the same + lines.  A
        # not-stratified refusal's hint names wf alone under --three-valued.
        path = str(corpus.path(name))
        for logic in ("dpar", "dpar_star"):
            for backend in ("wf", "stratified"):
                argv = ("--no-timings", "solve", path, "--logic", logic, "--backend", backend)
                code, plain = run(*argv)
                code_3v, three_valued = run(*argv, "--three-valued")
                assert code == code_3v, (logic, backend)
                assert [line for line in result_lines(three_valued) if line[0] not in "-?"] == [
                    line.replace("use --backend wf or hybrid", "use --backend wf")
                    for line in result_lines(plain)
                ], (logic, backend)

    def test_rot_solves_by_derivability(self, tmp_path):
        # The self-supporting grounding of t holds 30**3 triples; the
        # derivable one holds the fact's three rotations and the (c, c, c).
        src = tmp_path / "rot.dfl"
        src.write_text(format_theory(rot_theory(30)), encoding="utf-8")
        code, out = run("--no-timings", "solve", str(src), "--backend", "wf")
        assert code == 0
        constants = [f"c{i}" for i in range(30)]
        rotations = ["t(c0, c1, c2)", "t(c1, c2, c0)", "t(c2, c0, c1)"]
        defeasible = [f"e({c})" for c in constants] + rotations
        defeasible += [f"neg t({c}, {c}, {c})" for c in constants]
        assert result_lines(out) == (
            [f"+Delta {lit}" for lit in sorted([f"e({c})" for c in constants] + rotations[:1])]
            + [f"+dpar {lit}" for lit in sorted(defeasible)]
        )

    def test_rot_hybrid_prints_the_wf_conclusions(self, tmp_path):
        # hybrid grounds the floor by derivability and the part above it on
        # demand from the derivable defeasibly atoms; its + lines are those of wf.
        src = tmp_path / "rot.dfl"
        src.write_text(format_theory(rot_theory(20)), encoding="utf-8")
        for logic in ("dpar", "dpar_star"):
            argv = ("--no-timings", "solve", str(src), "--logic", logic, "--backend")
            code, wf = run(*argv, "wf")
            code_hybrid, hybrid = run(*argv, "hybrid")
            assert (code, code_hybrid) == (0, 0), logic
            assert result_lines(hybrid) == result_lines(wf), logic
            assert len(result_lines(wf)) == 20 + 1 + 20 + 3 + 20, logic

    def test_three_valued_rejected_for_hybrid(self):
        code, _ = run("--no-timings", "solve", TWEETY, "--backend", "hybrid", "--three-valued")
        assert code == 2

    def test_empty_universe_exits_1(self, tmp_path):
        src = tmp_path / "vars.dfl"
        src.write_text("r: p(X) => q(X).\n", encoding="utf-8")
        for backend in ("wf", "stratified", "hybrid", "oracle"):
            code, out = run("--no-timings", "solve", str(src), "--backend", backend)
            assert code == 1, backend
            assert result_lines(out) == [
                "error empty-universe: theory has variables but no constants"
            ], backend

    def test_rule_labels_are_not_constants(self, tmp_path):
        # The compiled program holds the labels r0 and r1 as constants; the
        # grounding ranges over the theory's constants, so no conclusion
        # mentions them.
        src = tmp_path / "labels.dfl"
        src.write_text("q(a).\nr0: q(X) -> q(X).\nr1: q(X) => p(X).\n", encoding="utf-8")
        for logic, tag in (("dpar", "dpar"), ("dpar_star", "dpar*")):
            code, out = run("--no-timings", "solve", str(src), "--logic", logic, "--three-valued")
            assert code == 0, logic
            assert result_lines(out) == ["+Delta q(a)", f"+{tag} p(a)", f"+{tag} q(a)"], logic

    def test_hybrid_solve_grounds_once(self, monkeypatch):
        calls = counting(monkeypatch, evaluator, "_ground_clauses")
        for logic in ("dpar", "dpar_star"):
            before = calls[0]
            code, _ = run("--no-timings", "solve", NONSTRAT, "--logic", logic, "--backend", "hybrid")
            assert (code, calls[0] - before) == (0, 1), logic

    def test_backend_picks_the_grounding_seed(self, monkeypatch):
        # Records the predicates each grounding keeps self-supporting and
        # those it grounds on demand from, the ones read back (the floor and
        # the defeasibly predicates): none self-supporting, on demand, for
        # wf and stratified; those above the floor, on demand, for hybrid
        # and check; and those above the floor, self-supporting, for
        # --three-valued.  Check grounds the team program, then the
        # individual program on top of the team grounding's floor.
        kept = []
        real = evaluator._ground_clauses

        def recording(program, constants, *, self_supporting, demand=None, floor=None):
            kept.append((self_supporting, demand))
            return real(program, constants, self_supporting=self_supporting, demand=demand,
                        floor=floor)

        monkeypatch.setattr(evaluator, "_ground_clauses", recording)
        out = compile_team(parse_theory(Path(TWEETY).read_text(encoding="utf-8")))
        upper = out.program.predicates.keys() - out.floor_names
        assert upper and out.floor_names
        defeasibly = {p for p in upper if p.startswith("defeasibly__")}
        assert out.defeasibly_names == defeasibly
        read_back = out.floor_names | defeasibly
        for backend, extra, seed in (
            ("wf", (), (set(), read_back)),
            ("stratified", (), (set(), read_back)),
            ("hybrid", (), (upper, read_back)),
            ("wf", ("--three-valued",), (upper, None)),
            ("stratified", ("--three-valued",), (upper, None)),
        ):
            kept.clear()
            code, _ = run("--no-timings", "solve", TWEETY, "--backend", backend, *extra)
            assert (code, kept) == (0, [seed]), (backend, extra)
        kept.clear()
        assert run("--no-timings", "check", TWEETY)[0] == 0
        indiv = compile_individual(parse_theory(Path(TWEETY).read_text(encoding="utf-8")))
        assert kept == [(upper, read_back),
                        (indiv.program.predicates.keys() - indiv.floor_names,
                         indiv.floor_names | indiv.defeasibly_names)]
        assert indiv.defeasibly_names == defeasibly

    def test_unsafe_theory_exits_1_on_every_compiled_backend(self, tmp_path):
        src = tmp_path / "unsafe.dfl"
        src.write_text("r: => p(X).\nq(a).\n", encoding="utf-8")
        for backend in ("wf", "hybrid", "stratified"):
            code, out = run("--no-timings", "solve", str(src), "--backend", backend)
            assert code == 1, backend
            assert result_lines(out)[-1].startswith("error unsafe-program: "), backend

    def test_long_rule_body_on_every_backend(self, tmp_path):
        # The grounder joins a body without recursion, so its length has no
        # limit; 1,200 positive literals once overflowed Python's stack.
        n = 1200
        src = tmp_path / "long.dfl"
        body = ", ".join(f"e{i}(X)" for i in range(n))
        src.write_text("".join(f"e{i}(a).\n" for i in range(n)) + f"r1: {body} => p(X).\n",
                       encoding="utf-8")
        code, want = run("--no-timings", "solve", str(src), "--backend", "oracle")
        assert code == 0 and "+dpar p(a)" in result_lines(want)
        for backend in ("wf", "hybrid", "stratified"):
            code, out = run("--no-timings", "solve", str(src), "--backend", backend)
            assert (code, result_lines(out)) == (0, result_lines(want)), backend
        program = tmp_path / "long.dl"
        assert run("--no-timings", "compile", str(src), "-o", str(program))[0] == 0
        code, out = run("--no-timings", "eval", str(program), "--semantics", "wf")
        assert code == 0 and "true defeasibly__p(a)" in result_lines(out)


class TestEval:
    def test_wf_unknown(self, tmp_path):
        path = tmp_path / "p.dl"
        path.write_text("p :- not p.\n", encoding="utf-8")
        code, out = run("--no-timings", "eval", str(path), "--semantics", "wf")
        assert code == 0
        assert "unknown p" in result_lines(out)

    def test_wf_vs_fitting_on_positive_loop(self, tmp_path):
        path = tmp_path / "loop.dl"
        path.write_text("p :- p.\n", encoding="utf-8")
        _, wf_out = run("--no-timings", "eval", str(path), "--semantics", "wf")
        _, fit_out = run("--no-timings", "eval", str(path), "--semantics", "fitting")
        assert "false p" in result_lines(wf_out)
        assert "unknown p" in result_lines(fit_out)

    def test_compiled_tweety_under_wf(self, tmp_path):
        out_path = tmp_path / "tweety.dl"
        run("--no-timings", "compile", TWEETY, "-o", str(out_path))
        code, out = run("--no-timings", "eval", str(out_path), "--semantics", "wf")
        assert code == 0
        assert "true defeasibly__not__fly(tweety)" in result_lines(out)

    def test_unsafe_program_exits_1(self, tmp_path):
        path = tmp_path / "unsafe.dl"
        path.write_text("p(X) :- not q(X).\n", encoding="utf-8")
        code, out = run("--no-timings", "eval", str(path))
        assert code == 1
        assert "unsafe-program" in out

    @pytest.mark.parametrize("semantics", ["wf", "fitting", "stratified"])
    def test_one_unsafe_program_message(self, tmp_path, semantics):
        path = tmp_path / "unsafe.dl"
        path.write_text("p(X) :- not q(X).\n", encoding="utf-8")
        code, out = run("--no-timings", "eval", str(path), "--semantics", semantics)
        assert code == 1
        assert result_lines(out) == [
            "error unsafe-program: program is not safe; grounding would not terminate on ground atoms"
        ]

    @pytest.mark.parametrize("semantics", ["wf", "fitting", "stratified"])
    def test_malformed_program_reports_the_token(self, tmp_path, capsys, semantics):
        path = tmp_path / "broken.dl"
        path.write_text("p(a).\nq :- r(.\n", encoding="utf-8")
        code, out = run("--no-timings", "eval", str(path), "--semantics", semantics)
        assert code == 1
        assert result_lines(out) == ["parse-error 2:8: expected a term, found ."]
        assert capsys.readouterr().err == ""


# Values the generator cannot honour, and the message each is refused with.
BAD_GENERATOR_FLAGS = {
    "--variable 3 --constants 0": "argument --constants: must be from 1 to 3, got 0",
    "--constants 5": "argument --constants: must be from 1 to 3, got 5",
    "--max-atoms 0": "argument --max-atoms: must be at least 1, got 0",
    "--max-rules -1": "argument --max-rules: must be at least 0, got -1",
    "--max-superiority -2": "argument --max-superiority: must be at least 0, got -2",
    "--random -3": "argument --random: must be at least 0, got -3",
    "--variable -1": "argument --variable: must be at least 0, got -1",
    "--defeater-ratio 0.9": "argument --defeater-ratio: must be from 0.0 to 0.75, got 0.9",
    "--defeater-ratio nan": "argument --defeater-ratio: must be from 0.0 to 0.75, got nan",
}


class TestCheck:
    def test_corpus_files_agree(self):
        code, out = run("--no-timings", "check", TWEETY, PLATYPUS, NONSTRAT)
        assert code == 0
        assert "all agree" in out

    def test_random_run_agrees(self):
        code, out = run("--no-timings", "check", "--random", "40", "--variable", "10", "--seed", "11")
        assert code == 0
        assert "checked 50 theories: all agree" in out

    def test_unevaluated_theories_are_counted(self, tmp_path):
        src = tmp_path / "unsafe.dfl"
        src.write_text("r: => p(X).\nq(a).\n", encoding="utf-8")
        code, out = run("--no-timings", "check", str(src))
        assert code == 0
        assert result_lines(out)[-1] == "checked 1 theories: all agree (1 not evaluated)"
        code, out = run("--format", "json-lines", "--no-timings", "check", str(src))
        assert code == 0
        final = json.loads(out.splitlines()[-1])
        assert (final["checked"], final["disagreements"], final["skipped_eval"]) == (1, 0, 1)

    @pytest.mark.parametrize("flags", list(BAD_GENERATOR_FLAGS))
    def test_bad_generator_flag_exits_2(self, capsys, flags):
        code, out = run("--no-timings", "check", "--random", "2", *flags.split())
        assert code == 2
        assert "checked" not in out
        assert BAD_GENERATOR_FLAGS[flags] in capsys.readouterr().err

    def test_bad_seed_env_var_exits_2(self, monkeypatch, capsys):
        monkeypatch.setenv("DEFEASIDL_SEED", "abc")
        code, out = run("--no-timings", "check", "--random", "1")
        assert code == 2
        assert "checked" not in out
        assert "DEFEASIDL_SEED must be an integer, got 'abc'" in capsys.readouterr().err

    def test_seed_env_var(self, monkeypatch):
        monkeypatch.setenv("DEFEASIDL_SEED", "123")
        _, out = run("--no-timings", "check", "--random", "1")
        assert "seed=123" in out or '"seed": "123"' in out

    def test_broken_subset_chain_is_a_failure_line(self, monkeypatch, capsys):
        # dpar* as large as lambda breaks the chain on tweety's conflicts.
        monkeypatch.setattr(oracle, "dpar_star_closure", lambda g, delta, lam: set(lam))
        code, out = run("--no-timings", "check", TWEETY)
        assert code == 1
        assert len([line for line in out.splitlines() if line.startswith("  chain: ")]) == 1
        assert capsys.readouterr().err == ""


class TestReporting:
    def test_determinism_without_timings(self):
        first = run("--no-timings", "solve", TWEETY, "--show-lambda")
        second = run("--no-timings", "solve", TWEETY, "--show-lambda")
        assert first == second

    def test_timings_line_present_by_default(self):
        _, out = run("solve", TWEETY)
        assert any(line.startswith("# timings") for line in out.splitlines())

    def test_json_lines_format(self):
        code, out = run("--format", "json-lines", "--no-timings", "validate", TWEETY)
        assert code == 0
        records = [json.loads(line) for line in out.splitlines()]
        kinds = {r["record"] for r in records}
        assert {"command", "input", "result"} <= kinds
        digests = [r["sha256"] for r in records if r["record"] == "input"]
        assert len(digests) == 1 and len(digests[0]) == 64

    def test_bad_flags_exit_2(self):
        code, _ = run("solve", TWEETY, "--backend", "bogus")
        assert code == 2


def test_python_dash_m_runs_the_cli():
    package_root = str(Path(defeasidl.__file__).resolve().parent.parent)
    done = subprocess.run(
        [sys.executable, "-m", "defeasidl", "--help"],
        capture_output=True,
        text=True,
        timeout=60,
        env={**os.environ, "PYTHONPATH": package_root},
    )
    assert done.returncode == 0, done.stderr
    assert "solve" in done.stdout


def test_one_parser_serves_every_request_of_a_process():
    # The parser is built once per process; a json-lines request leaves
    # nothing behind, so a plain request after it prints text, and both
    # print what a fresh process prints.
    package_root = str(Path(defeasidl.__file__).resolve().parent.parent)

    def fresh(*argv):
        done = subprocess.run([sys.executable, "-m", "defeasidl", *argv], capture_output=True,
                              text=True, timeout=60, env={**os.environ, "PYTHONPATH": package_root})
        return done.returncode, done.stdout

    for json_argv in (("--format", "json-lines", "solve", TWEETY),
                      ("solve", TWEETY, "--format", "json-lines")):
        plain_argv = ("solve", TWEETY)
        first = run("--no-timings", *json_argv)
        second = run("--no-timings", *plain_argv)
        assert first == fresh("--no-timings", *json_argv)
        assert second == fresh("--no-timings", *plain_argv)
        assert first[1].startswith("{") and second[1].startswith("# defeasidl solve")
    assert build_parser() is build_parser()


def test_stdout_closed_early_exits_2_quietly(tmp_path):
    # Like ``defeasidl solve big.dfl --show-lambda | head -1``: the reader
    # takes one line and closes the pipe while hundreds of kilobytes, far
    # more than a pipe holds, are still to come.
    path = tmp_path / "big.dfl"
    path.write_text("".join(f"p(c{i}).\n" for i in range(10_000)))
    package_root = str(Path(defeasidl.__file__).resolve().parent.parent)
    child = subprocess.Popen(
        [sys.executable, "-m", "defeasidl", "solve", str(path), "--show-lambda"],
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        env={**os.environ, "PYTHONPATH": package_root},
    )
    try:
        assert child.stdout.readline().startswith(b"# defeasidl solve")
        child.stdout.close()
        err = child.stderr.read()
        assert child.wait(timeout=120) == 2
    finally:
        child.kill()
        child.wait()
    assert b"Traceback" not in err and b"Exception ignored" not in err, err


@contextmanager
def capped_cli(cap_bytes, *argv):
    """``python -m defeasidl`` in a child process whose address space alone
    is capped at ``cap_bytes``; on leaving the block the child is killed, if
    it still runs, and reaped, so a timed-out test leaves nothing behind.

    The child runs with faulthandler on.  When waiting for it times out, it
    is sent SIGABRT first, on which faulthandler writes the Python stack of
    each of its threads to standard error without allocating, and the test
    fails with that stack."""
    resource = pytest.importorskip("resource")

    def cap():
        resource.setrlimit(resource.RLIMIT_AS, (cap_bytes, cap_bytes))
        resource.setrlimit(resource.RLIMIT_CORE, (0, 0))  # the abort leaves no core file

    package_root = str(Path(defeasidl.__file__).resolve().parent.parent)
    child = subprocess.Popen(
        [sys.executable, "-X", "faulthandler", "-m", "defeasidl", *argv, "--no-timings"],
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        text=True,
        env={**os.environ, "PYTHONPATH": package_root},
        preexec_fn=cap,
    )
    try:
        yield child
    except subprocess.TimeoutExpired as exc:
        if exc.cmd != child.args:  # another child's wait timed out
            raise
        child.send_signal(signal.SIGABRT)
        try:
            err = child.communicate(timeout=30)[1]
        except subprocess.TimeoutExpired:
            err = "(none: the child did not stop on SIGABRT)"
        pytest.fail(f"{list(argv)} timed out; its Python stacks:\n{err}", pytrace=False)
    finally:
        child.kill()
        child.communicate()


def test_a_capped_child_that_times_out_fails_with_its_stack(tmp_path):
    # The child blocks opening a FIFO that nothing ever writes to.
    fifo = tmp_path / "never-written.dfl"
    os.mkfifo(fifo)
    with pytest.raises(pytest.fail.Exception) as failed:
        with capped_cli(150 << 20, "check", str(fifo)) as child:
            child.communicate(timeout=3)
    message = str(failed.value)
    assert message.startswith(f"['check', '{fifo}'] timed out; its Python stacks:")
    assert "(most recent call first)" in message


class TestResourceLimits:
    @pytest.mark.parametrize("backend, stage", [("oracle", "conclusions"), ("wf", "ground_program")])
    def test_solve_matches_a_memory_error_itself(self, monkeypatch, backend, stage):
        # Re-raised from cmd_solve's try statement, a MemoryError could spin
        # CPython at the memory cap (see cli.main); main reports the None.
        def exhausted(*args, **kwargs):
            raise MemoryError

        monkeypatch.setattr(cli, stage, exhausted)
        args = build_parser().parse_args(["solve", TWEETY, "--backend", backend])
        with redirect_stdout(io.StringIO()):
            assert cli.cmd_solve(args, cli.Reporter(args, [])) is None

    @pytest.mark.parametrize("semantics, stage", [
        ("wf", "eval_wellfounded"), ("fitting", "eval_fitting"), ("stratified", "eval_stratified"),
    ])
    def test_eval_matches_a_memory_error_itself(self, monkeypatch, tmp_path, semantics, stage):
        # cmd_eval's try statement ends past the 256th instruction too.
        def exhausted(*args, **kwargs):
            raise MemoryError

        monkeypatch.setattr(cli, stage, exhausted)
        path = tmp_path / "p.dl"
        path.write_text("p(a).\nq(X) :- p(X), not r(X).\n")
        args = build_parser().parse_args(["eval", str(path), "--semantics", semantics])
        with redirect_stdout(io.StringIO()):
            assert cli.cmd_eval(args, cli.Reporter(args, [])) is None

    def test_analyze_reach_path_40_under_2_gb(self, tmp_path):
        # 40 edges make 41 constants, so r2 has 41**3 instances; lifting its
        # superiority pair to every instance pair took 118,681,962 pairs.
        path = tmp_path / "reach-path-40.dfl"
        path.write_text(
            "".join(f"edge(n{i}, n{i + 1}).\n" for i in range(40))
            + "r1: edge(X,Y) => path(X,Y).\n"
            "r2: path(X,Z), edge(Z,Y) => path(X,Y).\n"
            "r3: edge(X,Y) => neg path(Y,X).\n"
            "r1 > r3.\nr2 > r3.\n"
        )
        with capped_cli(2_000_000 * 1024, "analyze", str(path)) as child:
            out, err = child.communicate(timeout=120)
        assert child.returncode == 0, err
        assert "locally-hierarchical: no" in result_lines(out)

    def test_exhausted_memory_is_a_typed_error(self, tmp_path):
        # q has 40**6 instances: no subcommand can ground it in 150 MB.
        path = tmp_path / "blowup.dfl"
        path.write_text(
            "".join(f"p(c{i}).\n" for i in range(40))
            + "r: p(A), p(B), p(C), p(D), p(E), p(F) => q(A, B, C, D, E, F).\n"
        )
        commands = [
            ["analyze", str(path)],
            ["solve", str(path), "--backend", "oracle"],
            ["solve", str(path), "--backend", "wf"],
            ["check", str(path)],
        ]
        with ExitStack() as stack:
            children = [stack.enter_context(capped_cli(150 << 20, *argv)) for argv in commands]
            for argv, child in zip(commands, children):
                out, err = child.communicate(timeout=120)
                assert (child.returncode, err) == (1, ""), argv
                assert result_lines(out)[-1] == (
                    "error resource-exhausted: the input needs more memory than is available"
                ), argv


@contextmanager
def collector(enabled):
    """The cyclic collector set to ``enabled`` inside the block, and reset
    to its setting before it on leaving."""
    was = gc.isenabled()
    (gc.enable if enabled else gc.disable)()
    try:
        yield
    finally:
        (gc.enable if was else gc.disable)()


class TestCollectorPause:
    @pytest.mark.parametrize("enabled", [True, False], ids=["caller-on", "caller-off"])
    def test_main_restores_the_callers_setting(self, monkeypatch, tmp_path, enabled):
        broken = tmp_path / "broken.dfl"
        broken.write_text("p(((\n", encoding="utf-8")
        requests = [
            (["solve", TWEETY], 0),
            (["validate", str(broken)], 1),
            (["validate", "/nonexistent/nowhere.dfl"], 2),
            (["solve", TWEETY, "--backend", "nope"], 2),
        ]

        def exhausted(*args, **kwargs):
            raise MemoryError

        def failing(*args, **kwargs):
            raise RuntimeError("planted")

        with collector(enabled):
            for argv, code in requests:
                assert run("--no-timings", *argv)[0] == code, argv
                assert gc.isenabled() is enabled, argv
            monkeypatch.setattr(cli, "ground_program", exhausted)
            code, out = run("--no-timings", "solve", TWEETY)
            assert (code, result_lines(out)[-1]) == (
                1, "error resource-exhausted: the input needs more memory than is available")
            assert gc.isenabled() is enabled
            monkeypatch.setattr(cli, "ground_program", failing)
            with pytest.raises(RuntimeError, match="planted"):
                run("--no-timings", "solve", TWEETY)
            assert gc.isenabled() is enabled

    def test_the_subcommand_runs_with_the_collector_paused(self, monkeypatch):
        seen = []
        real = cli.ground_program

        def spy(*args, **kwargs):
            seen.append(gc.isenabled())
            return real(*args, **kwargs)

        monkeypatch.setattr(cli, "ground_program", spy)
        with collector(True):
            assert run("--no-timings", "solve", TWEETY)[0] == 0
            assert gc.isenabled()
        assert seen == [False]
