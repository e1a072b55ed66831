#!/usr/bin/env python3
"""The langx benchmark: one workload per process, closed loop, one thread.

Run from the repository root:

    python3 perfbench/run.py --workload compare-swarm --seed 0 --seconds 28 --trace 0

The workload is set up several times (import langx, load the specs, derive
or load the machine) and the median is reported as `setup_s`.  Then whole
rounds of its operations run back to back until about `--seconds` have
passed.  Meanwhile a timer samples the host's speed, and every set-up and
round is scaled by the speed the host had while it ran.
Every operation's output is checked against the reference semantics in
`reference.py` or against a property it must have.  With `--trace 1` the
calls into langx are wrapped and the per-layer figures are printed instead
of the end-to-end ones.  The last line of stdout is one JSON object.
See README.md for the workloads, metrics and reference figures.
"""

from __future__ import annotations

import argparse
import bisect
import contextlib
import gc
import glob
import importlib
import io
import json
import os
import random
import resource
import signal
import statistics
import sys
import types
from collections import Counter
from dataclasses import dataclass, field
from time import perf_counter, process_time

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import reference  # noqa: E402
from fingerprint import compared_terms, fingerprint  # noqa: E402
from tracing import PER_LAYER, Tracer  # noqa: E402

SETUP_REPEATS = 15
OUT_DIR = ".bench_out"
LANGFUNNY = "fixtures/langfunny.lang"
STLC_CONSTS = "fixtures/stlc_consts.lang"
GOLDEN_CK = "fixtures/golden/langfunny.ck.lang"
MUTANT = os.path.join(OUT_DIR, "langfunny.ck.mutant.lang")
COMPARE_COUNT = 5000
COMPARE_ARGS = ["--count", str(COMPARE_COUNT), "--max-size", "10"]

# Acceptance criterion 12: two order rules of doublyApply retargeted to the
# wrong continuation, so the machine loops on every doublyApply it evaluates.
MUTANT_RETARGET = {
    "<e3 , (doublyApply_3 v1 v2 e4 k)>": "<e3 , (doublyApply_2 v1 v2 e4 k)>",
    "<e4 , (doublyApply_4 v1 v2 v3 k)>": "<e4 , (doublyApply_3 v1 v2 v3 k)>",
}
# Compare seeds whose 5000-term langfunny stream holds exactly one term the
# mutant disagrees on, and that term is (doublyApply (lam x B c) (lam x B c)
# c c) for one constant c.  Across seeds the count of such terms runs from 0
# to 10, each costs 30,000 machine transitions, and the cost of those differs
# by term shape by up to 15%; fixing count and shape keeps one run
# comparable with the next.
MUTANT_SEEDS = (0, 1, 10, 69, 95, 97, 103, 112, 115, 126, 139, 143, 145, 149, 151)

SMALLSTEP_DEPTHS = (20, 40, 60, 80)
MACHINE_DEPTHS = (50, 100, 200, 400)
# Small-step eval of this term fails with RecursionError today: membership
# and decomposition recurse once per nesting level.  Fixed, not seeded.
FAILING_DEPTH = 200
BOUND_NAMES = ("x", "x1", "x2", "x'")

# Times are processor time of this process, so time the host gives to other
# work is not counted.  The host's speed per processor second still drifts by
# a third within minutes (README, "Host speed"), so each set-up and round is
# scaled by the speed the host had while it ran.  A timer samples that speed:
# every SAMPLE_INTERVAL_S of wall time it times a fixed kernel that does not
# call langx.  The end-to-end times are processor seconds at the speed at
# which the kernel takes KERNEL_NOMINAL_S.
SAMPLE_INTERVAL_S = 0.1
KERNEL_NOMINAL_S = 0.004


class BenchError(Exception):
    """The benchmark cannot run here (missing sources, broken fixture)."""


@dataclass
class Round:
    """One round of a workload's operations and what it found."""
    cpu: float = 0.0
    slowdown: float = 1.0
    items: int = 0
    items_time: float = 0.0
    machine_steps: int = 0
    machine_time: float = 0.0
    attempted: int = 0
    failed: int = 0
    errors: list = field(default_factory=list)
    notes: list = field(default_factory=list)


def import_langx():
    """Import langx from ./src afresh, dropping any earlier import."""
    src = os.path.abspath("src")
    if not os.path.isfile(os.path.join(src, "langx", "__init__.py")):
        raise BenchError("src/langx not found: run from the repository root")
    if sys.path[0] != src:
        sys.path.insert(0, src)
    for name in [n for n in sys.modules if n == "langx" or n.startswith("langx.")]:
        del sys.modules[name]
    mods = {name: importlib.import_module(f"langx.{name}")
            for name in ("cli", "parser", "subtyping", "ck", "engine", "ir")}
    if not mods["cli"].__file__.startswith(src):
        raise BenchError(f"langx imported from {mods['cli'].__file__}, not {src}")
    return types.SimpleNamespace(**mods)


def read(path: str) -> str:
    try:
        with open(path, encoding="utf-8") as handle:
            return handle.read()
    except OSError as exc:
        raise BenchError(f"cannot read {path}: {exc.strerror}") from None


def write(path: str, text: str) -> None:
    """Write through a rename, so a reader never sees half a file."""
    os.makedirs(os.path.dirname(path), exist_ok=True)
    partial = f"{path}.{os.getpid()}.partial"
    with open(partial, "w", encoding="utf-8") as handle:
        handle.write(text)
    os.replace(partial, path)


def run_cli(lx, argv: list[str]):
    """langx.cli.main(argv) with stdout and stderr captured."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = lx.cli.main(argv)
    return code, out.getvalue(), err.getvalue()


def records(stdout: str) -> list[dict]:
    return [json.loads(line) for line in stdout.splitlines() if line.startswith("{")]


def nested_identity(names) -> str:
    """(app (lam x int x) ... ci), one application per bound name."""
    text = "ci"
    for name in names:
        text = f"(app (lam {name} int {name}) {text})"
    return text


KERNEL_TEXTS = tuple(nested_identity(["x", "x1"] * k) for k in range(1, 16))


def kernel_time() -> float:
    """Processor seconds the host takes right now to have the reference
    evaluator read, type and evaluate fixed terms, with the collector off so
    that the size of langx's heap does not enter it."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        started = process_time()
        for text in KERNEL_TEXTS:
            term = reference.read_term(text)
            reference.typeof(term, reference.STLC_CONSTS)
            reference.evaluate(term, reference.STLC_CONSTS)
        return process_time() - started
    finally:
        if enabled:
            gc.enable()


class HostSpeed:
    """The host's speed, sampled by a SIGALRM timer while the workload runs.

    `now()` is the process's processor time, less the time the sampler took,
    so no timed span includes the sampler.  The timer counts wall time: a
    timer on processor time (ITIMER_PROF) would make Linux read the process
    clock only at scheduler ticks, 4 ms apart.  The handler runs in the main
    thread between bytecodes; it catches the RecursionError it can meet when
    it interrupts langx near the recursion limit, and drops that sample.
    """

    def __init__(self):
        self.times: list[float] = []     # when each sample was taken, on now()
        self.kernels: list[float] = []   # what the kernel took then
        self.spent = 0.0
        self.busy = False

    def now(self) -> float:
        while True:
            spent = self.spent
            now = process_time()
            if spent == self.spent:     # no sample ran in between
                return now - spent

    def sample(self, *_) -> None:
        if self.busy:
            return
        self.busy = True
        started = process_time()
        try:
            self.kernels.append(kernel_time())
            self.times.append(started - self.spent)
        except RecursionError:
            pass
        finally:
            self.spent += process_time() - started
            self.busy = False

    def start(self) -> None:
        self.sample()
        signal.signal(signal.SIGALRM, self.sample)
        signal.setitimer(signal.ITIMER_REAL, SAMPLE_INTERVAL_S, SAMPLE_INTERVAL_S)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)
        self.sample()

    def slowdown(self, start: float, end: float) -> float:
        """Mean kernel time from the last sample before `start` to the first
        after `end`, over KERNEL_NOMINAL_S."""
        first = max(bisect.bisect_left(self.times, start) - 1, 0)
        last = bisect.bisect_right(self.times, end) + 1
        return statistics.mean(self.kernels[first:last]) / KERNEL_NOMINAL_S


HOST = HostSpeed()


# ---------------------------------------------------------------------------
# workloads


class Workload:
    unit = ""          # what items_per_s counts
    unit_name = ""     # the name the README gives items_per_s here
    lib = None         # library functions the workload calls itself

    def __init__(self, seed: int, tracer: Tracer | None):
        self.seed = seed
        self.rng = random.Random(seed)
        self.tracer = tracer

    def setup(self, lx) -> None:
        self.lx = lx

    def prepare(self) -> None:
        """Checks and inputs that are not part of the timed set-up."""

    def round(self, index: int) -> Round:
        raise NotImplementedError


class CompareWorkload(Workload):
    unit, unit_name = "terms/s", "terms_per_s"
    expect_exit = 0

    def compare_argv(self, compare_seed: int) -> list[str]:
        return ["--format", "structured", "compare", LANGFUNNY,
                *COMPARE_ARGS, "--seed", str(compare_seed)]

    def round(self, index: int) -> Round:
        r = Round(attempted=1)
        compare_seed = self.compare_seed(index)
        started = HOST.now()
        code, out, _ = run_cli(self.lx, self.compare_argv(compare_seed))
        r.cpu = r.items_time = HOST.now() - started
        recs = records(out)
        compared = [rec for rec in recs if rec["kind"] == "compare"]
        summary = next((rec for rec in recs if rec["kind"] == "summary"), {})
        r.items = summary.get("total", 0)
        if code != self.expect_exit:
            r.errors.append(f"compare --seed {compare_seed} exited {code}, "
                            f"expected {self.expect_exit}")
        # guard: well_typed_terms can hand back fewer terms than asked for
        if r.items != COMPARE_COUNT or len(compared) != COMPARE_COUNT:
            r.errors.append(f"compare --seed {compare_seed} compared {r.items} "
                            f"terms ({len(compared)} records), asked for {COMPARE_COUNT}")
        histogram = {"small-step": Counter(), "machine": Counter()}
        disagreeing = []
        for rec in compared:
            term = rec["term"]
            try:
                reference.typeof(reference.read_term(term), reference.LANGFUNNY)
            except reference.RefError as exc:
                r.errors.append(f"compared term {term} is not well typed: {exc}")
                continue
            wrong = {}
            for side, field_name in (("small-step", "source"), ("machine", "machine")):
                histogram[side][rec[field_name].split(" ", 1)[0]] += 1
                problem = reference.check_value(rec[field_name], term, reference.LANGFUNNY)
                if problem:
                    wrong[side] = problem
            if not rec["agree"]:
                disagreeing.append(term)
            self.check_term(r, rec, wrong)
        r.notes.append(
            f"compare --seed {compare_seed}: {r.items} terms in {r.cpu:.3f} s, "
            f"fingerprint {fingerprint(compared_terms(out.splitlines()))}, "
            f"disagreeing {len(disagreeing)}, outcomes "
            + ", ".join(f"{side} {dict(h)}" for side, h in histogram.items()))
        self.check_run(r, recs, disagreeing)
        return r

    def check_term(self, r: Round, rec: dict, wrong: dict) -> None:
        # guard: outcomes_agree counts stuck against out-of-fuel as agreement
        for side, problem in wrong.items():
            r.errors.append(f"{side} wrong on {rec['term']}: {problem}")

    def check_run(self, r: Round, recs: list, disagreeing: list) -> None:
        pass


class CompareSwarm(CompareWorkload):
    name = "compare-swarm"

    def setup(self, lx) -> None:
        super().setup(lx)
        lx.ck.derive_ck(lx.parser.parse_spec(read(LANGFUNNY), filename=LANGFUNNY))

    def compare_seed(self, index: int) -> int:
        return self.seed * 1000 + index


class CompareMutant(CompareWorkload):
    name = "compare-mutant"
    expect_exit = 5

    def setup(self, lx) -> None:
        super().setup(lx)
        lx.parser.parse_spec(read(LANGFUNNY), filename=LANGFUNNY)
        text = read(GOLDEN_CK)
        for needle, replacement in MUTANT_RETARGET.items():
            if text.count(needle) != 1:
                raise BenchError(f"{GOLDEN_CK}: expected one {needle!r}, "
                                 f"found {text.count(needle)}; cannot build the mutant")
            text = text.replace(needle, replacement)
        self.mutant = lx.parser.parse_spec(text, filename=MUTANT)
        write(MUTANT, text)
        self.start = random.Random(self.seed).randrange(len(MUTANT_SEEDS))
        self.unreached: dict[str, str] = {}

    def compare_seed(self, index: int) -> int:
        return MUTANT_SEEDS[(self.start + index) % len(MUTANT_SEEDS)]

    def compare_argv(self, compare_seed: int) -> list[str]:
        argv = super().compare_argv(compare_seed)
        return argv[:4] + ["--ck", MUTANT] + argv[4:]

    def check_term(self, r: Round, rec: dict, wrong: dict) -> None:
        if "small-step" in wrong:
            r.errors.append(f"small-step wrong on {rec['term']}: {wrong['small-step']}")
        if rec["agree"] and "machine" in wrong:
            r.errors.append(f"machine wrong on {rec['term']} but counted as "
                            f"agreeing: {wrong['machine']}")
        if not rec["agree"] and "machine" not in wrong:
            r.errors.append(f"disagreement on {rec['term']} with a correct machine")

    def mutant_outcome(self, text: str) -> str:
        """The mutant machine's outcome, from the library so tracing skips it."""
        lx = self.lx
        term = lx.parser.parse_term(text, self.mutant, concrete=True)
        try:
            lx.engine.ck_eval(lx.ir.MachineConfig(term, lx.engine.MT), self.mutant,
                              fuel=3000)
        except lx.engine.OutOfFuel:
            return "out-of-fuel"
        except lx.engine.StuckMachine:
            return "stuck"
        return "value"

    def check_run(self, r: Round, recs: list, disagreeing: list) -> None:
        found = next((rec for rec in recs if rec["kind"] == "counterexample"), None)
        if found is None:
            r.errors.append("no counterexample reported")
            return
        text = found["term"]
        cx = reference.read_term(text)
        keys = {reference.alpha_key(cx)}
        within = any(keys & {reference.alpha_key(s) for s in
                             reference.subterms(reference.read_term(t))}
                     for t in disagreeing)
        problems = []
        if not within:
            problems.append("is not a subterm of a disagreeing term")
        if reference.free_vars(cx):
            problems.append("is not closed")
        if reference.size(cx) > 10 or found["size"] != reference.size(cx):
            problems.append(f"has {reference.size(cx)} nodes, reported {found['size']}")
        if not (isinstance(cx, tuple) and cx[0] == "doublyApply"):
            problems.append("is not headed by doublyApply")
        try:
            reference.evaluate(cx, reference.LANGFUNNY)
        except reference.RefError as exc:
            problems.append(f"has no reference value: {exc}")
        if text not in self.unreached:
            self.unreached[text] = self.mutant_outcome(text)
        if self.unreached[text] == "value":
            problems.append("reaches a value on the mutant machine")
        for problem in problems:
            r.errors.append(f"counterexample {text} {problem}")
        r.notes.append(f"counterexample {text} ({found['size']} nodes)")


class EvalDeep(Workload):
    """One deep term: nested identity applications under both semantics.

    A round evaluates the small-step ladder with --trace, then the failing
    depth-200 small-step term, then the machine ladder.  items_per_s counts
    small-step reductions; the machine's transitions per second are printed
    as machine_steps_per_s.
    """
    name = "eval-deep"
    unit, unit_name = "steps/s", "smallstep_steps_per_s"

    def setup(self, lx) -> None:
        super().setup(lx)
        self.spec = lx.parser.parse_spec(read(STLC_CONSTS), filename=STLC_CONSTS)
        self.machine_spec = lx.ck.derive_ck(self.spec)
        rng = random.Random(self.seed)
        self.inputs = {}
        for depth in sorted(set(SMALLSTEP_DEPTHS + MACHINE_DEPTHS)):
            names = [rng.choice(BOUND_NAMES) for _ in range(depth)]
            path = os.path.join(OUT_DIR, f"eval-{depth}.term")
            write(path, nested_identity(names))
            self.inputs[depth] = path
        self.failing = os.path.join(OUT_DIR, f"eval-{FAILING_DEPTH}-fixed.term")
        write(self.failing, nested_identity(["x"] * FAILING_DEPTH))

    def prepare(self) -> None:
        # Transitions per depth, counted by the library: start, order and
        # computation once per application.
        lx = self.lx
        for depth in MACHINE_DEPTHS:
            term = lx.parser.parse_term(read(self.inputs[depth]), self.spec, concrete=True)
            _, trace = lx.engine.ck_eval(lx.ir.MachineConfig(term, lx.engine.MT),
                                         self.machine_spec)
            if len(trace) != 3 * depth:
                raise BenchError(f"machine took {len(trace)} transitions at depth "
                                 f"{depth}, expected {3 * depth}")

    def eval(self, r: Round, depth: int, *flags: str):
        r.attempted += 1
        started = HOST.now()
        code, out, _ = run_cli(self.lx, ["--format", "structured", "eval", STLC_CONSTS,
                                         "--term-file", self.inputs[depth], *flags])
        elapsed = HOST.now() - started
        recs = records(out)
        if code != 0 or recs[-1:] != [{"kind": "value", "message": "ci"}]:
            r.errors.append(f"eval {' '.join(flags)} at depth {depth}: exit {code}, "
                            f"last record {recs[-1:]}")
        return elapsed, recs

    def round(self, index: int) -> Round:
        r = Round()
        started = HOST.now()
        for depth in SMALLSTEP_DEPTHS:
            elapsed, recs = self.eval(r, depth, "--trace")
            r.items += depth
            r.items_time += elapsed
            reductions = sum(rec["kind"] == "contextual-reduction" for rec in recs)
            if reductions != depth:
                r.errors.append(f"small-step took {reductions} reductions at depth {depth}")
        self.failing_op(r)
        for depth in MACHINE_DEPTHS:
            before = self.tracer.counts["engine.ck_eval_steps"] if self.tracer else 0
            elapsed, _ = self.eval(r, depth, "--machine", "ck")
            r.machine_steps += 3 * depth
            r.machine_time += elapsed
            if self.tracer:
                taken = self.tracer.counts["engine.ck_eval_steps"] - before
                if taken != 3 * depth:
                    r.errors.append(f"machine took {taken} transitions at depth {depth}")
        r.cpu = HOST.now() - started
        return r

    def failing_op(self, r: Round) -> None:
        r.attempted += 1
        try:
            code, out, _ = run_cli(self.lx, ["--format", "structured", "eval",
                                             STLC_CONSTS, "--term-file", self.failing])
        except RecursionError:
            r.failed += 1
            return
        recs = records(out)
        if code != 0:
            r.failed += 1
        elif recs[-1:] != [{"kind": "value", "message": "ci"}]:
            r.errors.append(f"depth {FAILING_DEPTH} eval gave {recs[-1:]}")


class Transform(Workload):
    """parse_spec, add_subtyping, derive_ck and print_spec over every fixture."""
    name = "transform"
    unit, unit_name = "files/s", "specs_per_s"

    GOLDEN = {
        ("fixtures/stlc.lang", "sub"): "fixtures/golden/stlc.sub.lang",
        ("fixtures/references.lang", "sub"): "fixtures/golden/references.sub.lang",
        ("fixtures/langfunny.lang", "sub"): "fixtures/golden/langfunny.sub.lang",
        ("fixtures/stlc.lang", "ck"): "fixtures/golden/stlc.ck.lang",
        ("fixtures/langfunny.lang", "ck"): "fixtures/golden/langfunny.ck.lang",
    }
    REFUSED = "fixtures/app2.lang"

    def setup(self, lx) -> None:
        super().setup(lx)
        paths = sorted(glob.glob("fixtures/*.lang")) + sorted(glob.glob("fixtures/golden/*.lang"))
        if len(paths) < 11 or self.REFUSED not in paths:
            raise BenchError(f"expected the 11 fixture files, found {len(paths)}")
        self.texts = {path: read(path) for path in paths}
        self.golden = {key: read(path) for key, path in self.GOLDEN.items()}
        # the library calls go through this namespace so tracing can wrap them
        self.lib = types.SimpleNamespace(
            parse_spec=lx.parser.parse_spec, print_spec=lx.parser.print_spec,
            add_subtyping=lx.subtyping.add_subtyping, derive_ck=lx.ck.derive_ck)

    def round(self, index: int) -> Round:
        r = Round()
        lib = self.lib
        lx = self.lx
        order = list(self.texts)
        self.rng.shuffle(order)
        started = HOST.now()
        for path in order:
            text = self.texts[path]
            r.attempted += 1
            outputs = {}
            op_started = HOST.now()
            spec = lib.parse_spec(text, filename=path)
            printed = lib.print_spec(spec)
            try:
                outputs["sub"] = lib.print_spec(lib.add_subtyping(spec))
            except lx.subtyping.SubtypingError:
                outputs["sub"] = None
            if spec.context_category is not None:
                outputs["ck"] = lib.print_spec(lib.derive_ck(spec))
            r.items_time += HOST.now() - op_started
            r.items += 1
            if printed != text:
                r.errors.append(f"print_spec(parse_spec({path})) differs from the file")
            if (outputs["sub"] is None) != (path == self.REFUSED):
                r.errors.append(f"add_subtyping on {path}: refused is "
                                f"{outputs['sub'] is None}")
            for kind, out in outputs.items():
                expected = self.golden.get((path, kind))
                if expected is not None and out != expected:
                    r.errors.append(f"{kind} output of {path} differs from its golden")
        r.attempted += 1
        code, out, err = run_cli(lx, ["add-subtyping", self.REFUSED])
        if code != 2 or out or "MultipleContravariant" not in err:
            r.errors.append(f"add-subtyping {self.REFUSED}: exit {code}, stdout {out!r}")
        r.cpu = HOST.now() - started
        return r


WORKLOADS = {w.name: w for w in (CompareSwarm, CompareMutant, EvalDeep, Transform)}


# ---------------------------------------------------------------------------
# measuring and reporting


def measure(workload: Workload, seconds: float):
    """Set-up times, scaled by the host's slowdown, and the timed rounds."""
    HOST.start()
    try:
        setups = []
        for _ in range(SETUP_REPEATS):
            started = HOST.now()
            lx = import_langx()
            workload.setup(lx)
            setups.append((started, HOST.now()))
        workload.prepare()
        if workload.tracer is not None:
            workload.tracer.install(lx.cli, workload.lib)
        # Stop at the round end nearest to `seconds`, so that a run of long
        # rounds lasts about as long as one of short rounds.
        rounds, spans = [], []
        started = perf_counter()
        while not rounds or (perf_counter() - started) * (1 + 0.5 / len(rounds)) < seconds:
            begun = HOST.now()
            rounds.append(workload.round(len(rounds)))
            spans.append((begun, HOST.now()))
    finally:
        HOST.stop()
    # One set-up lasts about one sampling interval, so all are scaled by the
    # host's speed over the whole set-up phase.
    slowdown = HOST.slowdown(setups[0][0], setups[-1][1])
    setup_times = [(end - start) / slowdown for start, end in setups]
    for r, (start, end) in zip(rounds, spans):
        r.slowdown = HOST.slowdown(start, end)
    return setup_times, rounds


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    tracer = Tracer(HOST.now) if args.trace else None
    workload = WORKLOADS[args.workload](args.seed, tracer)
    try:
        setup_times, rounds = measure(workload, args.seconds)
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2

    errors = [e for r in rounds for e in r.errors]
    for r in rounds:
        for note in r.notes:
            print(note)
    for error in errors[:20]:
        print(f"WRONG: {error}")
    attempted = sum(r.attempted for r in rounds)
    failed = sum(r.failed for r in rounds)
    cpu = statistics.median(r.cpu / r.slowdown for r in rounds)
    print(f"workload {workload.name} seed {args.seed} rounds {len(rounds)} "
          f"attempted {attempted} failed {failed} wrong {len(errors)}")
    print(f"host slowdown {statistics.median(r.slowdown for r in rounds):.4g} "
          f"(from {min(r.slowdown for r in rounds):.4g} to "
          f"{max(r.slowdown for r in rounds):.4g}), unscaled cpu_s "
          f"{statistics.median(r.cpu for r in rounds):.6g} s")

    if tracer is None:
        metrics = {
            "setup_s": (statistics.median(setup_times), "s"),
            "cpu_s": (cpu, "s"),
            "items_per_s": (statistics.median(r.items / r.items_time * r.slowdown
                                              for r in rounds), "1/s"),
            "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
                            "MB"),
        }
        value = metrics["items_per_s"][0]
        print(f"{workload.unit_name} {value:.6g} {workload.unit}")
        if any(r.machine_time for r in rounds):
            value = statistics.median(r.machine_steps / r.machine_time * r.slowdown
                                      for r in rounds)
            print(f"machine_steps_per_s {value:.6g} steps/s")
    else:
        tracer.write(os.path.join(OUT_DIR, f"spans-{workload.name}.json"))
        # spans are unscaled: scale them by the run's mean slowdown
        scale = sum(r.cpu / r.slowdown for r in rounds) / sum(r.cpu for r in rounds)
        layers = tracer.layer_metrics(len(rounds), cpu, scale)
        metrics = {name: (layers[name], unit) for name, unit, _ in PER_LAYER}
    for name, (value, unit) in metrics.items():
        print(f"{name} {value:.6g} {unit}")
    result = {
        "correct": not errors,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }
    print(json.dumps(result))
    return 0 if not errors else 1


if __name__ == "__main__":
    sys.exit(main())
