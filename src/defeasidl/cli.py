"""Command-line front end.

Subcommands: validate | analyze | compile | solve | eval | check.
Exit codes: 0 on success/agreement, 1 on domain failures (parse errors,
validation errors, disagreements, unusable backends), 2 on environment
failures (missing files, bad flags, standard output closed early).
Output is deterministic for a given input; the trailing timings line can
be suppressed with --no-timings, and --format=json-lines switches every
record to one JSON object per line.
"""

from __future__ import annotations

import argparse
import functools
import gc
import hashlib
import json
import os
import random
import sys
import time
from pathlib import Path

from . import check as checkmod
from . import generator
from .compiler import (
    compile_individual,
    compile_team,
    compiled_size,
    emit_datalog_text,
    read_conclusions,
)
from .datalog import (
    DatalogSyntaxError,
    compute_signing,
    is_call_consistent,
    parse_datalog,
    stratify,
)
from .evaluator import (
    NotStratified,
    UnsafeProgram,
    eval_fitting,
    eval_hybrid,
    eval_stratified,
    eval_wellfounded,
    format_atom,
    ground_program,
)
from .mangling import CONCLUSION_TAGS, TAG_DEFEASIBLY, TAG_DEFINITELY, TAG_LAMBDA
from .oracle import conclusions
from .parser import format_theory, parse_theory
from .theory import (
    DefeasibleTheory,
    EmptyUniverse,
    is_hierarchical,
    is_locally_hierarchical,
    is_range_restricted,
    theory_size,
    validate_theory,
)

OK, DOMAIN_FAILURE, ENV_FAILURE = 0, 1, 2


class Reporter:
    """Accumulates report records and renders them as text or JSON lines."""

    def __init__(self, args: argparse.Namespace, command: list[str]):
        self.fmt = args.format
        self.timings_enabled = not args.no_timings
        self.started = time.perf_counter()
        self.emit_meta("command", {"command": command})

    def emit_meta(self, kind: str, payload: dict) -> None:
        if self.fmt == "json-lines":
            print(json.dumps({"record": kind, **payload}, sort_keys=True))
        else:
            flat = " ".join(f"{k}={v}" for k, v in payload.items() if k != "command")
            if kind == "command":
                print("# defeasidl " + " ".join(payload["command"]))
            else:
                print(f"# {kind} {flat}".rstrip())

    def emit_input(self, path: Path, data: bytes) -> None:
        self.emit_meta("input", {"path": str(path), "sha256": hashlib.sha256(data).hexdigest()})

    def result(self, text: str, **payload) -> None:
        if self.fmt == "json-lines":
            print(json.dumps({"record": "result", "text": text, **payload}, sort_keys=True))
        else:
            print(text)

    def finish(self) -> None:
        if self.timings_enabled:
            elapsed = (time.perf_counter() - self.started) * 1000.0
            self.emit_meta("timings", {"total_ms": f"{elapsed:.1f}"})


def _fail(message: str) -> None:
    print(f"error: {message}", file=sys.stderr)


def _read_file(path_text: str):
    path = Path(path_text)
    try:
        return path, path.read_bytes()
    except OSError as exc:
        _fail(f"cannot read {path_text}: {exc}")
        return path, None


def _load_theory(path_text: str, reporter: Reporter):
    """Returns (theory, exit_code); theory is None when exit_code != OK."""
    path, data = _read_file(path_text)
    if data is None:
        return None, ENV_FAILURE
    reporter.emit_input(path, data)
    parsed = parse_theory(data.decode("utf-8", errors="replace"))
    if isinstance(parsed, list):
        for error in parsed:
            reporter.result(f"parse-error {error}")
        return None, DOMAIN_FAILURE
    return parsed, OK


def _validated_theory(path_text: str, reporter: Reporter):
    theory, code = _load_theory(path_text, reporter)
    if theory is None:
        return None, code
    report = validate_theory(theory)
    for issue in report.warnings:
        reporter.result(f"warning {issue.code}: {issue.message}")
    if not report.ok:
        for issue in report.errors:
            reporter.result(f"error {issue.code}: {issue.message}")
        return None, DOMAIN_FAILURE
    return theory, OK


def cmd_validate(args: argparse.Namespace, reporter: Reporter) -> int:
    theory, code = _validated_theory(args.path, reporter)
    if theory is not None:
        reporter.result(
            f"ok: facts={len(theory.facts)} rules={len(theory.rules)} "
            f"superiority={len(theory.superiority)}"
        )
    return code


def _yesno(flag: bool) -> str:
    return "yes" if flag else "no"


def cmd_analyze(args: argparse.Namespace, reporter: Reporter) -> int:
    theory, code = _validated_theory(args.path, reporter)
    if theory is None:
        return code
    team = compile_team(theory)
    indiv = compile_individual(theory, team)

    try:
        locally = is_locally_hierarchical(theory)
        locally_text = _yesno(locally)
    except EmptyUniverse:
        locally_text = "undetermined (no constants)"
    except MemoryError:  # matched here, not re-raised: see main
        return None
    size = theory_size(theory)
    team_size = compiled_size(team)
    indiv_size = compiled_size(indiv)
    rows = [
        ("hierarchical", _yesno(is_hierarchical(theory) is not None)),
        ("locally-hierarchical", locally_text),
        ("range-restricted", _yesno(is_range_restricted(theory))),
        ("team-stratified", _yesno(stratify(team.program) is not None)),
        ("individual-stratified", _yesno(stratify(indiv.program) is not None)),
        ("team-call-consistent", _yesno(is_call_consistent(team.program))),
        ("team-signing", _yesno(compute_signing(team.program, team.upper_names) is not None)),
        ("individual-signing", _yesno(compute_signing(indiv.program, indiv.upper_names) is not None)),
        ("theory-size", str(size)),
        ("team-size", str(team_size)),
        ("individual-size", str(indiv_size)),
        ("team-ratio", f"{team_size / size:.2f}" if size else "n/a"),
        ("individual-ratio", f"{indiv_size / size:.2f}" if size else "n/a"),
    ]
    for key, value in rows:
        reporter.result(f"{key}: {value}", key=key, value=value)
    return OK


def cmd_compile(args: argparse.Namespace, reporter: Reporter) -> int:
    theory, code = _validated_theory(args.path, reporter)
    if theory is None:
        return code
    out = compile_team(theory) if args.mode == "team" else compile_individual(theory)
    text = emit_datalog_text(out)
    try:
        Path(args.output).write_text(text, encoding="utf-8")
    except OSError as exc:
        _fail(f"cannot write {args.output}: {exc}")
        return ENV_FAILURE
    reporter.result(
        f"wrote {args.output}: {len(out.program.clauses)} clauses, size {compiled_size(out)}"
    )
    return OK


def _conclusion_lines(tag_name, sets, three_valued_extra):
    def texts(lits):  # each literal printed once, so each is turned into text once
        return sorted(map(str, lits))

    labels = {TAG_DEFINITELY: "Delta", TAG_LAMBDA: "lambda", TAG_DEFEASIBLY: tag_name}
    lines = [f"+{labels[tag]} {text}" for tag, lits in sets.items() for text in texts(lits)]
    if three_valued_extra is not None:
        false_lits, unknown_lits = three_valued_extra
        lines += [f"-{tag_name} {text}" for text in texts(false_lits)]
        lines += [f"?{tag_name} {text}" for text in texts(unknown_lits)]
    return lines


def cmd_solve(args: argparse.Namespace, reporter: Reporter) -> int:
    theory, code = _validated_theory(args.path, reporter)
    if theory is None:
        return code
    tag_name = "dpar" if args.logic == "dpar" else "dpar*"
    if args.three_valued and args.backend not in ("wf", "stratified"):
        _fail("--three-valued requires --backend wf or stratified")
        return ENV_FAILURE
    if theory.has_variables() and not theory.constants():
        reporter.result("error empty-universe: theory has variables but no constants")
        return DOMAIN_FAILURE
    # Only the tags printed are read back: +lambda only under --show-lambda.
    tags = CONCLUSION_TAGS if args.show_lambda else (TAG_DEFINITELY, TAG_DEFEASIBLY)
    try:
        if args.backend == "oracle":
            oracle = conclusions(theory)
            closures = {
                TAG_DEFINITELY: oracle.delta,
                TAG_LAMBDA: oracle.lam,
                TAG_DEFEASIBLY: oracle.dpar if args.logic == "dpar" else oracle.dpar_star,
            }
            sets = {tag: closures[tag] for tag in tags}
            extra = None
        else:
            out = compile_team(theory) if args.logic == "dpar" else compile_individual(theory)
            # Atoms decided as under the well-founded semantics are grounded
            # by derivability.  Above the floor, hybrid's Fitting operator
            # needs the atoms its conclusions reach grounded on demand, and the
            # false atoms --three-valued lists need self-support.
            keep = out.upper_names if args.backend == "hybrid" or args.three_valued else frozenset()
            demand = out.defeasibly_names if args.backend == "hybrid" else None
            ground = ground_program(out.program, out.constants, self_supporting=keep, demand=demand)
            if args.backend == "wf":
                interp = eval_wellfounded(out.program, ground)
            elif args.backend == "stratified":
                interp = eval_stratified(out.program, ground)
            else:
                interp = eval_hybrid(out, ground)
            sets = read_conclusions(out, interp.true_set, tags)
            extra = None
            if args.three_valued:
                extra = tuple(read_conclusions(out, atoms, (TAG_DEFEASIBLY,))[TAG_DEFEASIBLY]
                              for atoms in (interp.false_set, interp.unknown_set))
    except NotStratified:
        backends = "wf" if args.three_valued else "wf or hybrid"  # --three-valued refuses hybrid
        reporter.result("error not-stratified: compiled program is not stratified; "
                        f"use --backend {backends}")
        return DOMAIN_FAILURE
    except UnsafeProgram as exc:
        reporter.result(f"error unsafe-program: {exc}")
        return DOMAIN_FAILURE
    except MemoryError:  # matched here, not re-raised: see main
        return None
    for line in _conclusion_lines(tag_name, sets, extra):
        reporter.result(line)
    return OK


def cmd_eval(args: argparse.Namespace, reporter: Reporter) -> int:
    path, data = _read_file(args.path)
    if data is None:
        return ENV_FAILURE
    reporter.emit_input(path, data)
    try:
        program = parse_datalog(data.decode("utf-8", errors="replace"))
    except DatalogSyntaxError as exc:
        reporter.result(f"parse-error {exc}")
        return DOMAIN_FAILURE
    try:
        if args.semantics == "wf":
            interp = eval_wellfounded(program)
        elif args.semantics == "fitting":
            interp = eval_fitting(program)
        else:
            interp = eval_stratified(program)
    except NotStratified as exc:
        reporter.result(f"error not-stratified: {exc}")
        return DOMAIN_FAILURE
    except UnsafeProgram as exc:
        reporter.result(f"error unsafe-program: {exc}")
        return DOMAIN_FAILURE
    except MemoryError:  # matched here, not re-raised: see main
        return None
    for value, atoms in (
        ("true", interp.true_set),
        ("false", interp.false_set),
        ("unknown", interp.unknown_set),
    ):
        for atom in sorted(atoms):
            reporter.result(f"{value} {format_atom(atom)}")
    return OK


def _check_command(args: argparse.Namespace) -> list[str]:
    command = ["check"] + list(args.paths)
    if args.random:
        command += ["--random", str(args.random)]
    if args.variable:
        command += ["--variable", str(args.variable)]
    return command


def cmd_check(args: argparse.Namespace, reporter: Reporter) -> int:
    seed = args.seed
    if seed is None:
        text = os.environ.get("DEFEASIDL_SEED", "20260809")
        try:
            seed = int(text)
        except ValueError:
            _fail(f"DEFEASIDL_SEED must be an integer, got {text!r}")
            return ENV_FAILURE
    reporter.emit_meta("seed", {"seed": str(seed)})

    jobs: list[tuple[str, DefeasibleTheory]] = []
    for path_text in args.paths:
        theory, code = _load_theory(path_text, reporter)
        if theory is None:
            return code
        jobs.append((path_text, theory))
    shape = generator.TheoryShape(
        atoms=args.max_atoms,
        rules=args.max_rules,
        superiority=args.max_superiority,
        defeater_ratio=args.defeater_ratio,
        constants=args.constants,
    )
    rng = random.Random(seed)
    for i in range(args.random):
        jobs.append((f"random-ground-{i:04d}", generator.random_ground_theory(rng, shape)))
    for i in range(args.variable):
        jobs.append((f"random-variable-{i:04d}", generator.random_variable_theory(rng, shape)))

    disagreements = 0
    checked = 0
    skipped_eval = 0
    for name, theory in jobs:
        result = checkmod.check_theory(theory, name)
        checked += 1
        skipped_eval += result.skipped_eval
        if result.agree:
            if args.verbose:
                reporter.result(f"{name}: agree", name=name, agree=True)
            continue
        disagreements += 1
        reporter.result(
            f"{name}: DISAGREE ({len(result.failures)} failures)",
            name=name,
            agree=False,
            failures=result.failures,
        )
        for failure in result.failures:
            reporter.result(f"  {failure}")
        reporter.result("  theory:")
        for line in format_theory(theory).splitlines():
            reporter.result(f"    {line}")
        minimized = checkmod.minimize_failure(theory)
        if minimized is not None:
            reporter.result("  minimized:")
            for line in format_theory(minimized).splitlines():
                reporter.result(f"    {line}")
    reporter.result(
        f"checked {checked} theories: "
        + ("all agree" if disagreements == 0 else f"{disagreements} disagreements")
        + (f" ({skipped_eval} not evaluated)" if skipped_eval else ""),
        checked=checked,
        disagreements=disagreements,
        skipped_eval=skipped_eval,
    )
    return OK if disagreements == 0 else DOMAIN_FAILURE


def _bounded(kind, low, high=None):
    """An argparse type: a ``kind`` value from ``low`` to ``high`` (if given)."""

    def parse(text: str):
        value = kind(text)
        if not (low <= value and (high is None or value <= high)):
            bound = f"at least {low}" if high is None else f"from {low} to {high}"
            raise argparse.ArgumentTypeError(f"must be {bound}, got {text}")
        return value

    parse.__name__ = kind.__name__  # names the type in argparse's "invalid int value"
    return parse


@functools.cache  # built once per process: parse_args does not change it
def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="defeasidl",
        description="Compile defeasible theories to Datalog with negation and reason over them.",
    )
    parser.add_argument("--format", choices=["text", "json-lines"], default="text")
    parser.add_argument("--no-timings", action="store_true", help="suppress the timings record")
    # Accept the report flags on either side of the subcommand.
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument(
        "--format", choices=["text", "json-lines"], default=argparse.SUPPRESS
    )
    common.add_argument("--no-timings", action="store_true", default=argparse.SUPPRESS)

    def add_parser(name: str, **kwargs):
        return sub.add_parser(name, parents=[common], **kwargs)

    sub = parser.add_subparsers(dest="subcommand", required=True)

    p = add_parser("validate", help="parse and validate a .dfl theory")
    p.add_argument("path")
    p.set_defaults(func=cmd_validate, command=lambda a: ["validate", a.path])

    p = add_parser("analyze", help="structural analyses of a theory and its compilations")
    p.add_argument("path")
    p.set_defaults(func=cmd_analyze, command=lambda a: ["analyze", a.path])

    p = add_parser("compile", help="compile a theory to Datalog text")
    p.add_argument("path")
    p.add_argument("--mode", choices=["team", "individual"], default="team")
    p.add_argument("-o", "--output", required=True)
    p.set_defaults(
        func=cmd_compile, command=lambda a: ["compile", a.path, "--mode", a.mode, "-o", a.output]
    )

    p = add_parser("solve", help="list the conclusions of a theory")
    p.add_argument("path")
    p.add_argument("--logic", choices=["dpar", "dpar_star"], default="dpar")
    p.add_argument("--backend", choices=["wf", "stratified", "hybrid", "oracle"], default="wf")
    p.add_argument("--three-valued", action="store_true", help="also list false and unknown conclusions")
    p.add_argument("--show-lambda", action="store_true", help="also list the auxiliary +lambda tags")
    p.set_defaults(
        func=cmd_solve,
        command=lambda a: ["solve", a.path, "--logic", a.logic, "--backend", a.backend],
    )

    p = add_parser("eval", help="evaluate a .dl Datalog program")
    p.add_argument("path")
    p.add_argument("--semantics", choices=["wf", "fitting", "stratified"], default="wf")
    p.set_defaults(func=cmd_eval, command=lambda a: ["eval", a.path, "--semantics", a.semantics])

    p = add_parser("check", help="differential-test the pipeline against the oracle")
    p.add_argument("paths", nargs="*", help="theory files to check")
    # The generator honours only these ranges; any other value is a bad flag.
    count = _bounded(int, 0)
    p.add_argument("--random", type=count, default=0, help="number of random ground theories")
    p.add_argument("--variable", type=count, default=0, help="number of random variable theories")
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--max-atoms", type=_bounded(int, 1), default=8)
    p.add_argument("--max-rules", type=count, default=12)
    p.add_argument("--max-superiority", type=count, default=6)
    p.add_argument(
        "--defeater-ratio",
        type=_bounded(float, 0.0, 1.0 - generator.TheoryShape.strict_ratio),
        default=0.2,
    )
    p.add_argument("--constants", type=_bounded(int, 1, len(generator.CONSTANT_POOL)), default=3)
    p.add_argument("--verbose", action="store_true", help="also report agreeing theories")
    p.set_defaults(func=cmd_check, command=_check_command)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return ENV_FAILURE if exc.code not in (0, None) else OK
    # Each subcommand returns its exit code; the timings record closes its report.
    # cmd_analyze, cmd_solve and cmd_eval return None for a MemoryError rather
    # than re-raise it: re-raised from past the 256th instruction, CPython makes
    # that index a new int and at the memory cap retries that allocation
    # forever, and cmd_analyze, re-raising, could return with no exception set.
    reporter = Reporter(args, args.command(args))
    # The subcommand runs with the cyclic collector paused: the engine's data
    # are acyclic, yet on a large grounding the collector walks them again and
    # again.  The caller's setting comes back on every exit.
    collecting = gc.isenabled()
    gc.disable()
    try:
        code = args.func(args, reporter)
    except MemoryError:
        code = None  # reported below, once the handler has freed the frames of the partial work
    finally:
        if collecting:
            gc.enable()
    if code is None:
        reporter.result("error resource-exhausted: the input needs more memory than is available")
        code = DOMAIN_FAILURE
    reporter.finish()
    return code


def console_main() -> None:
    try:
        code = main()
        sys.stdout.flush()  # a closed reader fails the last write here, not at exit
    except BrokenPipeError:
        # The reader closed standard output early.  Python flushes it again
        # at exit, so point it at the null device to keep that flush quiet.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        code = ENV_FAILURE
    sys.exit(code)


if __name__ == "__main__":
    console_main()
