"""Per-layer tracing of forge from outside the package.

Every public function of each forge module is wrapped, and the wrapper is
bound under the same name in every forge.* namespace that imported it
(modules call one another through `from .graphs import sphere_at`).  A
wrapped call updates in-memory counters: calls, inclusive time and self
time (inclusive minus the time of wrapped calls beneath it).  A
function's first SPAN_LIMIT calls in each job also leave a span (job,
id, parent id, name, start, end); later calls of a hot function only
count.  Nothing is written until the run ends.

The tracing overhead is estimated as the number of wrapped calls times
the wrapper's cost per call, calibrated on a no-op in the same process:
on a shared machine the difference between a traced and an untraced
pass is dominated by noise.
"""

from __future__ import annotations

import importlib
import inspect
import sys
import time
import weakref
from collections import defaultdict

LAYERS = (
    "cli",
    "serialize",
    "fixtures",
    "graphs",
    "cayley",
    "hypergroup",
    "matrices",
    "walks",
    "search",
    "regression",
)
SPAN_LIMIT = 100
ROOT = "cli.main"

# (name, unit, better) of every per-layer metric a traced run reports.
PER_LAYER = [
    ("graphs.bfs_from.calls", "count", "lower"),
    ("graphs.bfs_from.s", "s", "lower"),
    ("graphs.sphere_at.calls", "count", "lower"),
    ("graphs.sphere_at.s", "s", "lower"),
    ("graphs.sphere_at.distinct_ratio", "ratio", "higher"),
    ("graphs.build_graph.calls", "count", "lower"),
    ("graphs.build_graph.s", "s", "lower"),
    ("graphs.check_assumptions.s", "s", "lower"),
    ("fixtures.resolve_spec.s", "s", "lower"),
    ("cayley.realize_window.s", "s", "lower"),
    ("cayley.realize_window.vertices", "count", "lower"),
    ("cayley.sphere_oracle.calls", "count", "lower"),
    ("cayley.sphere_oracle.s", "s", "lower"),
    ("cayley.multiply.calls", "count", "lower"),
    ("hypergroup.product.calls", "count", "lower"),
    ("hypergroup.product.s", "s", "lower"),
    ("hypergroup.product.distinct_ratio", "ratio", "higher"),
    ("hypergroup.build_table.s", "s", "lower"),
    ("hypergroup.classify.calls", "count", "lower"),
    ("hypergroup.classify.s", "s", "lower"),
    ("hypergroup.classify.per_table", "ratio", "lower"),
    ("hypergroup.associativity_defect.calls", "count", "lower"),
    ("hypergroup.check_S1.s", "s", "lower"),
    ("hypergroup.check_S2.s", "s", "lower"),
    ("hypergroup.check_S2.checked", "count", "lower"),
    ("hypergroup.check_distance_regular.s", "s", "lower"),
    ("matrices.transition_matrix.calls", "count", "lower"),
    ("matrices.matmul.calls", "count", "lower"),
    ("matrices.matmul.s", "s", "lower"),
    ("matrices.verify_regular_representation.s", "s", "lower"),
    ("matrices.commute_check.s", "s", "lower"),
    ("matrices.norm_bounds.s", "s", "lower"),
    ("matrices.uniform_norm_bound.s", "s", "lower"),
    ("walks.jump_distribution.s", "s", "lower"),
    ("walks.left_nested_product.s", "s", "lower"),
    ("walks.brute_force_conditional.s", "s", "lower"),
    ("walks.monte_carlo_conditional.s", "s", "lower"),
    ("walks.monte_carlo_conditional.trials_per_s", "1/s", "higher"),
    ("walks.joint_distance_law.s", "s", "lower"),
    ("walks.markov_check.s", "s", "lower"),
    ("search.enumerate_connected_graphs.s", "s", "lower"),
    ("search.canonical_key.calls", "count", "lower"),
    ("search.canonical_key.s", "s", "lower"),
    ("search.canonical_key.useful_ratio", "ratio", "higher"),
    ("search.pointed_examined", "count", "lower"),
    ("search.rejected_condition", "count", "lower"),
    ("search.rejected_walk", "count", "lower"),
    ("search.classified", "count", "higher"),
    ("serialize.dumps_json.s", "s", "lower"),
    ("regression.paper_regression.s", "s", "lower"),
    ("trace.overhead_s", "s", "lower"),
    ("trace.jobs_s", "s", "lower"),
] + [(f"{layer}.self_share", "ratio", "lower") for layer in LAYERS]


class Tracer:
    """Counters, spans and distinct-key sets for one traced run."""

    def __init__(self):
        self.stats: dict = {}  # name -> [calls, inclusive s, self s, calls at job start]
        self.spans: list = []
        self.stack: list = []  # frames: [child s, inherited span id, own span id, parent span id]
        self.job = -1
        self.counts: dict = defaultdict(int)
        self._span_seq = 0
        self._keys: dict = defaultdict(set)  # distinct keys of the current job
        self._distinct: dict = defaultdict(int)
        self._serials = weakref.WeakKeyDictionary()
        self._next_serial = 0
        self._installed: list = []

    # -- objects keyed by a serial number, not id(): ids of short-lived
    # graphs and tables are reused within one job.
    def serial(self, obj) -> int:
        number = self._serials.get(obj)
        if number is None:
            number = self._serials[obj] = self._next_serial
            self._next_serial += 1
        return number

    def distinct(self, name: str, key) -> None:
        self._keys[name].add(key)

    def wrap(self, name: str, fn, observe=None):
        if inspect.isgeneratorfunction(fn):
            return self._wrap_generator(name, fn)
        stat = self.stats.setdefault(name, [0, 0.0, 0.0, 0])
        enter, leave = self._enter, self._leave

        def traced(*args, **kwargs):
            stat[0] += 1
            frame, t0 = enter(stat)
            ok = False
            try:
                result = fn(*args, **kwargs)
                ok = True
                return result
            finally:
                leave(name, stat, frame, t0, (lambda: observe(args, result)) if ok and observe else None)

        traced.__wrapped__ = fn
        traced.__name__ = getattr(fn, "__name__", name)
        return traced

    def _wrap_generator(self, name: str, fn):
        """Generators do their work when resumed: each resume is timed as
        part of the call, the call counts once, and resumes leave no span."""
        stat = self.stats.setdefault(name, [0, 0.0, 0.0, 0])
        enter, leave = self._enter, self._leave

        def traced(*args, **kwargs):
            stat[0] += 1
            gen = fn(*args, **kwargs)
            while True:
                frame, t0 = enter(stat, span=False)
                try:
                    item = next(gen)
                except StopIteration:
                    return
                finally:
                    leave(name, stat, frame, t0, None)
                yield item

        traced.__wrapped__ = fn
        traced.__name__ = getattr(fn, "__name__", name)
        return traced

    def _enter(self, stat, span=True):
        sid = None
        if span and stat[0] - stat[3] <= SPAN_LIMIT:
            self._span_seq += 1
            sid = self._span_seq
        parent_sid = self.stack[-1][1] if self.stack else None
        frame = [0.0, sid if sid is not None else parent_sid, sid, parent_sid]
        self.stack.append(frame)
        return frame, time.perf_counter()

    def _leave(self, name, stat, frame, t0, observe) -> None:
        t1 = time.perf_counter()
        self.stack.pop()
        stat[1] += t1 - t0
        stat[2] += t1 - t0 - frame[0]
        if frame[2] is not None:
            self.spans.append((self.job, frame[2], frame[3], name, t0, t1))
        if observe is not None:
            observe()
        # The caller's self time excludes this call and its bookkeeping.
        if self.stack:
            self.stack[-1][0] += time.perf_counter() - t0

    # -- installation
    def install(self) -> None:
        """Wrap every public function of the layer modules in place."""
        importlib.import_module("forge.cli")
        namespaces = [m for n, m in sys.modules.items() if n == "forge" or n.startswith("forge.")]
        for layer in LAYERS[1:]:
            module = sys.modules[f"forge.{layer}"]
            for attr, fn in list(vars(module).items()):
                if attr.startswith("_") or not callable(fn) or isinstance(fn, type):
                    continue
                if getattr(fn, "__module__", None) != module.__name__:
                    continue
                wrapped = self.wrap(f"{layer}.{attr}", fn, self._observer(f"{layer}.{attr}"))
                for ns in namespaces:
                    for name, value in list(vars(ns).items()):
                        if value is fn:
                            setattr(ns, name, wrapped)
                            self._installed.append((ns, name, fn))

    def uninstall(self) -> None:
        for ns, name, fn in reversed(self._installed):
            setattr(ns, name, fn)
        self._installed.clear()

    def _observer(self, name: str):
        if name == "graphs.sphere_at":
            return lambda a, r: self.distinct(name, (self.serial(a[0]), a[1], a[2]))
        if name == "hypergroup.product":
            return lambda a, r: self.distinct(name, (self.serial(a[0]), a[1], a[2]))
        if name == "hypergroup.classify":
            return lambda a, r: self.distinct(name, self.serial(a[0]))
        if name == "search.canonical_key":
            return lambda a, r: self.distinct(name, r)
        if name == "hypergroup.check_S2":
            return lambda a, r: self._add(name + ".checked", r.checked)
        if name == "walks.monte_carlo_conditional":
            return lambda a, r: self._add(name + ".trials", r.trials)
        if name == "cayley.realize_window":
            return self._observe_window
        if name == "search.search_conjecture":
            return self._observe_search
        return None

    def _add(self, name: str, value) -> None:
        self.counts[name] += value

    def _observe_window(self, args, pg) -> None:
        self.counts["cayley.realize_window.vertices"] += pg.vertex_count
        if pg._sphere_oracle is not None:
            pg._sphere_oracle = self.wrap("cayley.sphere_oracle", pg._sphere_oracle)

    def _observe_search(self, args, report) -> None:
        self.counts["search.pointed_examined"] += report.pointed_examined
        self.counts["search.rejected_condition"] += report.rejected_condition
        self.counts["search.rejected_walk"] += report.rejected_walk
        self.counts["search.classified"] += len(report.classified)

    # -- jobs
    def run_job(self, fn, *args):
        """Run one job under the root span cli.main."""
        self.job += 1
        for stat in self.stats.values():
            stat[3] = stat[0]
        try:
            return self.wrap(ROOT, fn)(*args)
        finally:
            for name, keys in self._keys.items():
                self._distinct[name] += len(keys)
            self._keys.clear()

    def metrics(self, overhead_s: float) -> dict:
        def calls(name):
            return self.stats.get(name, [0, 0.0, 0.0])[0]

        def self_s(name):
            return self.stats.get(name, [0, 0.0, 0.0])[2]

        def ratio(num, den):
            return num / den if den else 0.0

        jobs_s = self.stats.get(ROOT, [0, 0.0])[1]
        values: dict = {}
        for name, unit, _ in PER_LAYER:
            field = name.rsplit(".", 1)
            if name == "trace.overhead_s":
                value = overhead_s
            elif name == "trace.jobs_s":
                value = jobs_s
            elif field[1] == "self_share":
                layer = field[0]
                if layer == "cli":
                    value = ratio(self_s(ROOT), jobs_s)
                else:
                    total = sum(s[2] for n, s in self.stats.items() if n.startswith(layer + "."))
                    value = ratio(total, jobs_s)
            elif field[1] == "calls":
                value = calls(field[0])
            elif field[1] == "s":
                value = self_s(field[0])
            elif field[1] in ("distinct_ratio", "useful_ratio"):
                value = ratio(self._distinct[field[0]], calls(field[0]))
            elif name == "hypergroup.classify.per_table":
                value = ratio(calls(field[0]), self._distinct[field[0]])
            elif name == "walks.monte_carlo_conditional.trials_per_s":
                inclusive = self.stats.get(field[0], [0, 0.0])[1]
                value = ratio(self.counts[field[0] + ".trials"], inclusive)
            else:
                value = self.counts[name]
            values[name] = {"value": value, "unit": unit}
        return values

    def wrapped_calls(self) -> int:
        return sum(stat[0] for name, stat in self.stats.items() if name != ROOT)

    @staticmethod
    def calibrate(calls: int = 100_000, repeats: int = 5) -> float:
        """Seconds the wrapper adds to one call, measured on a no-op (the
        fastest of a few repeats, since noise only adds time)."""

        def noop():
            return None

        wrapped = Tracer().wrap("calibration", noop)
        best = float("inf")
        for _ in range(repeats):
            start = time.perf_counter()
            for _ in range(calls):
                wrapped()
            middle = time.perf_counter()
            for _ in range(calls):
                noop()
            best = min(best, (2 * middle - start - time.perf_counter()) / calls)
        return max(best, 0.0)

    def spans_jsonable(self) -> list:
        return [
            {"job": j, "id": s, "parent": p, "name": n, "start": a, "end": b}
            for j, s, p, n, a, b in self.spans
        ]
