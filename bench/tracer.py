"""Call counting and span timing around nhota's layers, from outside them.

A ``Counter`` only counts calls; untraced rounds use it on the oracle
callbacks, whose call count is an end-to-end metric.  A ``Tracer`` also
times each call as a span: a span's self time is its wall time minus the
wall time of the spans it called, so the self times of all spans add up to
the wall time of the outermost ones.

``instrument`` wraps a problem's callbacks.  ``Patches`` swaps module
attributes (the functions one layer calls in the next) for the duration of
a ``with`` block and puts the originals back on exit.
"""

from __future__ import annotations

import time
from collections import defaultdict
from dataclasses import replace

from nhota.core import CompositeProblem, NonsmoothTerm


class Counter:
    """Counts calls per span name; adds no clock reads."""

    def __init__(self):
        self.calls: dict[str, int] = defaultdict(int)

    def wrap(self, name, fn):
        calls = self.calls

        def counted(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)

        return counted

    def reset(self) -> None:
        self.calls.clear()


class Tracer(Counter):
    """Counts calls and accumulates self time per span name."""

    def __init__(self):
        super().__init__()
        self.self_s: dict[str, float] = defaultdict(float)
        self._open: list[float] = []  # child time of each open span

    def wrap(self, name, fn):
        calls, self_s, open_spans = self.calls, self.self_s, self._open
        clock = time.perf_counter

        def span(*args, **kwargs):
            open_spans.append(0.0)
            t0 = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                dt = clock() - t0
                self_s[name] += dt - open_spans.pop()
                calls[name] += 1
                if open_spans:
                    open_spans[-1] += dt

        return span

    def reset(self) -> None:
        super().reset()
        self.self_s.clear()
        self._open.clear()


ORACLE_SPANS = ("problems.value", "problems.grad", "problems.hess")


def instrument(problem: CompositeProblem, rec: Counter) -> CompositeProblem:
    """The same problem with every SmoothOracle and NonsmoothTerm callback wrapped."""
    s, h = problem.smooth, problem.nonsmooth
    smooth = replace(
        s,
        value=rec.wrap("problems.value", s.value),
        grad=rec.wrap("problems.grad", s.grad),
        hess=None if s.hess is None else rec.wrap("problems.hess", s.hess),
    )
    nonsmooth = NonsmoothTerm(
        value=rec.wrap("core.h_value", h.value),
        prox=rec.wrap("core.prox", h.prox),
        subdiff_dist=None if h.subdiff_dist is None
        else rec.wrap("core.subdiff", h.subdiff_dist),
    )
    return CompositeProblem(smooth=smooth, nonsmooth=nonsmooth, known_opt=problem.known_opt)


class Patches:
    """Set module or class attributes inside a ``with`` block, restore them after."""

    def __init__(self, *targets):
        self._targets = targets  # (owner, attribute name, replacement)
        self._saved = []

    def __enter__(self):
        for owner, attr, new in self._targets:
            self._saved.append((owner, attr, owner.__dict__[attr]))
            setattr(owner, attr, new)
        return self

    def __exit__(self, *exc):
        while self._saved:
            owner, attr, old = self._saved.pop()
            setattr(owner, attr, old)
        return False


class LayerStats:
    """Counts read from what the wrapped layer calls return or raise."""

    def __init__(self):
        self.reset()

    def reset(self) -> None:
        self.inner_iters = 0      # inner iterations, failed solves included
        self.failures = 0         # InnerSolveFailure raised
        self.stalls = 0           # certificates marked stalled
        self.doublings = 0        # M doublings inside accepted try_step calls
        self.last_step_iters = 0  # inner iterations of each run's final try_step
        self.rows = 0             # trace rows the CLI streamed to disk
        self.step_iters = 0
        self.run_steps: list[int] = []


def _instrumented(build_problem, rec: Counter):
    """``cli.build_problem`` returning the instrumented problem."""

    def build(cfg):
        problem, data, x0 = build_problem(cfg)
        return instrument(problem, rec), data, x0

    return build


def capture_patches(rec: Counter, on_trace) -> Patches:
    """Untraced CLI rounds: count oracle calls and hand each trace to ``on_trace``."""
    from nhota import cli

    nhota_run = cli.nhota_run

    def run(problem, x0, config, row_sink=None):
        trace = nhota_run(problem, x0, config, row_sink=row_sink)
        on_trace(config, trace)
        return trace

    return Patches(
        (cli, "build_problem", _instrumented(cli.build_problem, rec)),
        (cli, "nhota_run", run),
    )


def layer_patches(tr: Tracer, st: LayerStats, on_trace=None) -> Patches:
    """Spans around every call from one solver layer into the next.

    ``on_trace(config, trace)``, when given, receives each IterateTrace that
    ``nhota_run`` returns.
    """
    from nhota import cli, driver, inner, taylor
    from nhota.inner import InnerSolveFailure

    solve_subproblem, try_step = driver.solve_subproblem, driver.try_step
    nhota_run = driver.nhota_run
    from_oracle = taylor.ModelCenter.__dict__["from_oracle"].__func__

    def solve(*args, **kwargs):
        try:
            out = solve_subproblem(*args, **kwargs)
        except InnerSolveFailure as exc:
            st.failures += 1
            st.inner_iters += exc.iterations
            st.step_iters += exc.iterations
            raise
        cert = out[1]
        st.stalls += cert.stalled
        st.inner_iters += cert.inner_iters
        st.step_iters += cert.inner_iters
        return out

    def step(*args, **kwargs):
        st.step_iters = 0
        result = try_step(*args, **kwargs)
        st.doublings += result.doublings
        st.run_steps.append(st.step_iters)
        return result

    sink_span = tr.wrap("cli.sink", lambda sink, row: sink(row))

    def run(problem, x0, config, row_sink=None):
        st.run_steps = []
        if row_sink is not None:
            cli_sink = row_sink

            def row_sink(row):
                st.rows += 1
                sink_span(cli_sink, row)

        trace = nhota_run(problem, x0, config, row_sink=row_sink)
        if st.run_steps:
            st.last_step_iters += st.run_steps[-1]
        if on_trace is not None:
            on_trace(config, trace)
        return trace

    run_span = tr.wrap("driver.run", run)
    return Patches(
        (driver, "solve_subproblem", tr.wrap("inner.solve", solve)),
        (driver, "try_step", tr.wrap("driver.try_step", step)),
        (driver, "nhota_run", run_span),
        (cli, "nhota_run", run_span),
        (inner, "model_value", tr.wrap("taylor.model_value", inner.model_value)),
        (inner, "model_grad", tr.wrap("taylor.model_grad", inner.model_grad)),
        (taylor.ModelCenter, "from_oracle",
         classmethod(tr.wrap("taylor.from_oracle", from_oracle))),
        (cli, "parse_config", tr.wrap("cli.parse", cli.parse_config)),
        (cli, "build_problem", tr.wrap("cli.build", _instrumented(cli.build_problem, tr))),
    )


def layer_metrics(tr: Tracer, st: LayerStats, outer_iters: int) -> dict[str, float]:
    """The per-layer metrics of one traced round, keyed as in BENCHMARK.json."""
    calls, self_s = tr.calls, tr.self_s
    m: dict[str, float] = {}
    for layer, ops in (("problems", ("value", "grad", "hess")),
                       ("core", ("prox", "h_value", "subdiff")),
                       ("taylor", ("model_value", "model_grad", "from_oracle"))):
        for op in ops:
            m[f"{layer}.{op}_calls"] = calls[f"{layer}.{op}"]
            m[f"{layer}.{op}_s"] = self_s[f"{layer}.{op}"]
    solves = calls["inner.solve"]
    m.update({
        "inner.solve_calls": solves,
        "inner.self_s": self_s["inner.solve"],
        "inner.iters": st.inner_iters,
        "inner.failures": st.failures,
        "inner.stalls": st.stalls,
        "inner.prox_per_iter": calls["core.prox"] / max(st.inner_iters, 1),
        "inner.last_step_share": st.last_step_iters / max(st.inner_iters, 1),
        "driver.try_step_calls": calls["driver.try_step"],
        "driver.try_step_self_s": self_s["driver.try_step"],
        "driver.run_self_s": self_s["driver.run"],
        "driver.doublings": st.doublings,
        "driver.accept_rejections": st.doublings - st.failures,
        "driver.accept_ratio": outer_iters / max(solves, 1),
        "cli.parse_s": self_s["cli.parse"],
        "cli.build_s": self_s["cli.build"],
        "cli.self_s": self_s["cli.main"] + self_s["cli.sink"],
        "cli.rows_written": st.rows,
    })
    return m
