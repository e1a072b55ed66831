"""Spans around the calls the benchmark and `langx.cli` make into langx.

Nothing inside langx changes: the tracer replaces module attributes with
wrappers, so only calls that cross a layer boundary are recorded.  Each span
is [name, parent span id or -1, start, end]; spans stay in memory and are
written out once, when the run ends.
"""

from __future__ import annotations

import json
import os
from collections import Counter, defaultdict
from time import perf_counter

# layer metric, the wrapped attribute of langx.cli it times
CLI_LAYERS = {
    "parser.parse_spec": "parse_spec",
    "parser.print_spec": "print_spec",
    "parser.parse_term": "parse_term",
    "parser.render_term": "render_term",
    "subtyping.add_subtyping": "add_subtyping",
    "ck.derive_ck": "derive_ck",
    "engine.typecheck": "typecheck",
    "engine.evaluate": "evaluate",
    "engine.ck_eval": "ck_eval",
    "cli.shrink": "shrink_counterexample",
    "cli.compare": "cmd_compare",
    "cli.eval": "cmd_eval",
}
# layer metric, the attribute of the benchmark's own library namespace
LIB_LAYERS = {
    "parser.parse_spec": "parse_spec",
    "parser.print_spec": "print_spec",
    "subtyping.add_subtyping": "add_subtyping",
    "ck.derive_ck": "derive_ck",
}
GENERATE = "engine.generate"

PER_LAYER = (
    ("engine.generate_s", "s", "lower"),
    ("engine.generate_terms", "count", "lower"),
    ("engine.typecheck_s", "s", "lower"),
    ("engine.typecheck_calls", "count", "lower"),
    ("engine.typecheck_accept_ratio", "ratio", "higher"),
    ("engine.evaluate_s", "s", "lower"),
    ("engine.evaluate_steps", "count", "lower"),
    ("engine.ck_eval_s", "s", "lower"),
    ("engine.ck_eval_steps", "count", "lower"),
    ("cli.shrink_s", "s", "lower"),
    ("cli.shrink_candidates", "count", "lower"),
    ("cli.compare_self_s", "s", "lower"),
    ("parser.render_term_s", "s", "lower"),
    ("parser.parse_term_s", "s", "lower"),
    ("parser.parse_spec_s", "s", "lower"),
    ("parser.print_spec_s", "s", "lower"),
    ("subtyping.add_subtyping_s", "s", "lower"),
    ("ck.derive_ck_s", "s", "lower"),
    ("trace.round_s", "s", "lower"),
)


class Tracer:
    def __init__(self, clock=perf_counter):
        self.clock = clock
        self.spans: list[list] = []
        self.counts: Counter = Counter()
        self._open: list[int] = []

    def _begin(self, name: str) -> int:
        sid = len(self.spans)
        parent = self._open[-1] if self._open else -1
        self.spans.append([name, parent, self.clock(), 0.0])
        self._open.append(sid)
        return sid

    def _end(self, sid: int) -> None:
        self.spans[sid][3] = self.clock()
        self._open.pop()

    def wrap(self, owner, attr: str, name: str) -> None:
        """Replace owner.attr by a wrapper that records one span per call."""
        original = getattr(owner, attr)
        count = self.counts
        hook = _HOOKS.get(name)
        if name == "cli.shrink":
            shrink = original

            def original(term, disagrees):
                return shrink(term, _counting(disagrees, count))

        def traced(*args, **kwargs):
            sid = self._begin(name)
            try:
                result = original(*args, **kwargs)
            except Exception as exc:
                if hook:
                    hook(count, None, exc)
                raise
            finally:
                self._end(sid)
            if hook:
                hook(count, result, None)
            return result

        setattr(owner, attr, traced)

    def wrap_generator(self, owner, attr: str, name: str) -> None:
        """Time each draw from a generator function as its own span."""
        original = getattr(owner, attr)
        tracer = self

        def traced(*args, **kwargs):
            stream = original(*args, **kwargs)
            while True:
                sid = tracer._begin(name)
                try:
                    item = next(stream)
                except StopIteration:
                    return
                finally:
                    tracer._end(sid)
                tracer.counts[name + "_terms"] += 1
                yield item

        setattr(owner, attr, traced)

    def install(self, cli, lib=None) -> None:
        """Wrap what langx.cli calls, and the benchmark's own library calls."""
        for name, attr in CLI_LAYERS.items():
            self.wrap(cli, attr, name)
        self.wrap_generator(cli, "iter_swarm_terms", GENERATE)
        if lib is not None:
            for name, attr in LIB_LAYERS.items():
                self.wrap(lib, attr, name)

    def layer_metrics(self, rounds: int, round_s: float, scale: float = 1.0) -> dict:
        """Per-layer figures, each a mean per round of the workload; times
        are multiplied by `scale`."""
        total = defaultdict(float)
        calls = Counter()
        children = defaultdict(float)
        for name, parent, start, end in self.spans:
            total[name] += end - start
            calls[name] += 1
            if parent >= 0:
                children[parent] += end - start
        compare_self = sum(end - start - children[sid]
                           for sid, (name, _, start, end) in enumerate(self.spans)
                           if name == "cli.compare")
        draws = self.counts[GENERATE + "_terms"]
        values = {
            "engine.generate_s": total[GENERATE],
            "engine.generate_terms": draws,
            "engine.typecheck_s": total["engine.typecheck"],
            "engine.typecheck_calls": calls["engine.typecheck"],
            "engine.evaluate_s": total["engine.evaluate"],
            "engine.evaluate_steps": self.counts["engine.evaluate_steps"],
            "engine.ck_eval_s": total["engine.ck_eval"],
            "engine.ck_eval_steps": self.counts["engine.ck_eval_steps"],
            "cli.shrink_s": total["cli.shrink"],
            "cli.shrink_candidates": self.counts["cli.shrink_candidates"],
            "cli.compare_self_s": compare_self,
            "parser.render_term_s": total["parser.render_term"],
            "parser.parse_term_s": total["parser.parse_term"],
            "parser.parse_spec_s": total["parser.parse_spec"],
            "parser.print_spec_s": total["parser.print_spec"],
            "subtyping.add_subtyping_s": total["subtyping.add_subtyping"],
            "ck.derive_ck_s": total["ck.derive_ck"],
        }
        out = {key: value / rounds * (scale if key.endswith("_s") else 1)
               for key, value in values.items()}
        out["engine.typecheck_accept_ratio"] = (
            self.counts["engine.typecheck_accepted"] / draws if draws else 0.0)
        out["trace.round_s"] = round_s
        return out

    def write(self, path: str) -> None:
        os.makedirs(os.path.dirname(path), exist_ok=True)
        partial = f"{path}.{os.getpid()}.partial"
        with open(partial, "w", encoding="utf-8") as handle:
            json.dump({"fields": ["name", "parent", "start", "end"],
                       "spans": self.spans}, handle)
        os.replace(partial, path)


def _counting(predicate, count: Counter):
    def counted(term):
        count["cli.shrink_candidates"] += 1
        return predicate(term)
    return counted


def _steps(key: str):
    def hook(count: Counter, result, exc) -> None:
        trace = result[1] if exc is None else getattr(exc, "trace", ())
        count[key] += len(trace)
    return hook


def _typecheck(count: Counter, result, exc) -> None:
    if exc is None:
        count["engine.typecheck_accepted"] += 1


_HOOKS = {
    "engine.evaluate": _steps("engine.evaluate_steps"),
    "engine.ck_eval": _steps("engine.ck_eval_steps"),
    "engine.typecheck": _typecheck,
}
