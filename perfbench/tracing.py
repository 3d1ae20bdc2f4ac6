"""The traced run: in-memory spans around the public calls of each layer.

Nothing inside the program is instrumented. A traced operation repeats,
from here, the public calls its command makes, in the same order, each
inside a span:

    op                          one per operation (tree A)
      exemplars.build           exemplar ops only
      scenario.json_parse       json.loads of the input text
      scenario.build            parse_scenario
      cli.main                  validate / axis / score, run as a whole
      report.analyze            the calls `analyze` makes:
        alphabet.entropy          alphabet entropies
        costbenefit.stage         stage_cost_benefit per declared stage
        costbenefit.pipeline      pipeline_cost_benefit per pipeline
        costbenefit.routes        compare_routes per direct route
        axis.classify             transitions and detect_fork
      report.render_<format>    the op's own output format

Every section is entered for every op, so a layer an op does not use shows
as an empty span of a few hundred nanoseconds rather than a missing one.

A second tree per operation (``decompose``) makes the calls `analyze` does
not make one by one: for each distinct (stage, prior) pair it evaluates,
entropy, push_forward, bayes_inverse (Bayes stages), reconstructed_pmf and
kl_divergence; combine_space over the axes; and the two render formats the
op did not ask for. It lies outside the op span, so `trace.overhead`
(traced op time over untraced op time, minus one) measures the spans only.
"""

from __future__ import annotations

import json
import time
from contextlib import contextmanager
from dataclasses import dataclass, field

import absmeter
from workloads import run_cli_main

FORMATS = ("json", "csv", "table")


@dataclass
class Span:
    name: str
    start_ns: int
    end_ns: int
    parent: int | None
    op: int
    attrs: dict = field(default_factory=dict)

    @property
    def ns(self) -> int:
        return self.end_ns - self.start_ns


class Tracer:
    """Spans kept in memory; `dump` writes them out once, at the end."""

    def __init__(self):
        self.spans: list[Span] = []
        self._stack: list[int] = []
        self.op = 0

    @contextmanager
    def span(self, name: str, **attrs):
        index = len(self.spans)
        parent = self._stack[-1] if self._stack else None
        record = Span(name, time.perf_counter_ns(), 0, parent, self.op, attrs)
        self.spans.append(record)
        self._stack.append(index)
        try:
            yield record
        finally:
            self._stack.pop()
            record.end_ns = time.perf_counter_ns()

    def children(self) -> dict[int, list[int]]:
        out: dict[int, list[int]] = {}
        for i, s in enumerate(self.spans):
            if s.parent is not None:
                out.setdefault(s.parent, []).append(i)
        return out

    def self_ns(self) -> list[int]:
        """Span duration minus the part its (sequential) children cover."""
        kids = self.children()
        return [
            s.ns - sum(self.spans[k].ns for k in kids.get(i, ())) for i, s in enumerate(self.spans)
        ]

    def coverage(self, name: str) -> list[float]:
        """Share of each ``name`` span's wall time that its children cover,
        for the ``name`` spans that have children."""
        kids = self.children()
        return [
            sum(self.spans[k].ns for k in kids[i]) / s.ns
            for i, s in enumerate(self.spans)
            if s.name == name and i in kids
        ]

    def dump(self, path, extra: dict) -> None:
        spans = [
            {
                "name": s.name,
                "start_ns": s.start_ns,
                "end_ns": s.end_ns,
                "parent": s.parent,
                "op": s.op,
                **({"attrs": s.attrs} if s.attrs else {}),
            }
            for s in self.spans
        ]
        path.write_text(json.dumps({**extra, "spans": spans}) + "\n", encoding="utf-8")


def evaluated_pairs(scenario) -> tuple[list[tuple], int]:
    """The distinct (stage, prior) pairs `analyze` evaluates, in order, and
    how many evaluations it makes in all (repeated pairs counted each time).

    Each pair is (stage, origin, source). The origin names where the prior
    comes from: an alphabet's own pmf, or the distribution a pipeline induces
    ahead of stage k. The source is the prior itself, or the key of the pair
    whose output is the prior.
    """
    pairs: dict[tuple[str, str], tuple] = {}
    evaluations = 0

    def add(stage, origin, source):
        nonlocal evaluations
        evaluations += 1
        key = (stage.id, origin)
        pairs.setdefault(key, (stage, origin, source))
        return key

    def first_prior(pipeline):
        if pipeline.prior is None:
            alphabet = pipeline.stages[0].forward.source
            return f"alphabet:{alphabet.id}", alphabet.pmf
        return f"pipeline:{pipeline.id}[0]", pipeline.prior

    def walk(pipeline):
        key = add(pipeline.stages[0], *first_prior(pipeline))
        for k, stage in enumerate(pipeline.stages[1:], 1):
            key = add(stage, f"pipeline:{pipeline.id}[{k}]", key)

    for stage in scenario.stages.values():
        add(stage, f"alphabet:{stage.forward.source.id}", stage.forward.source.pmf)
    for pipeline in scenario.pipelines.values():
        walk(pipeline)
    for route in scenario.direct_routes.values():
        pipeline = scenario.pipelines[route.pipeline_id]
        walk(pipeline)  # compare_routes evaluates the pipeline again
        add(route.stage, *first_prior(pipeline))
    return list(pairs.values()), evaluations


def traced_op(tracer: Tracer, op, report, counters: dict) -> str:
    """Run one op as spans (tree A), then its decomposition (tree B).

    ``report`` is the op's report from the real `analyze`, made beforehand
    outside any span; rendering it gives the bytes the op prints. Returns
    the op's output text, which the caller compares with the untraced call.
    """
    scenario = None
    output = ""
    with tracer.span("op", label=op.label):
        with tracer.span("exemplars.build"):
            built = absmeter.exemplar(op.name) if op.kind == "exemplar" else None
        with tracer.span("scenario.to_json"):
            if built is not None:
                output = built.to_json()
        with tracer.span("scenario.json_parse"):
            data = json.loads(op.text) if op.kind == "analyze" else None
        with tracer.span("scenario.build"):
            if data is not None:
                scenario = absmeter.parse_scenario(data, name=op.path.stem)
        with tracer.span("cli.main"):
            if op.kind == "cli":
                output = run_cli_main(op.args)
        with tracer.span("report.analyze"):
            if scenario is not None:
                _replay_analyze(tracer, scenario, counters)
        if scenario is not None:
            with tracer.span(f"report.render_{op.fmt}"):
                output = report.render(op.fmt)
    with tracer.span("decompose", label=op.label):
        if scenario is not None:
            _decompose(tracer, scenario, op, report, counters)
    return output


def _replay_analyze(tracer: Tracer, scenario, counters: dict) -> None:
    with tracer.span("alphabet.entropy"):
        for a in scenario.alphabets.values():
            absmeter.entropy(a)
    with tracer.span("costbenefit.stage"):
        for stage in scenario.stages.values():
            absmeter.stage_cost_benefit(stage, stage.forward.source.pmf)
            counters["costbenefit.calls"] += 1
    with tracer.span("costbenefit.pipeline"):
        for pipeline in scenario.pipelines.values():
            absmeter.pipeline_cost_benefit(pipeline)
            counters["costbenefit.calls"] += 1
    with tracer.span("costbenefit.routes"):
        for route in scenario.direct_routes.values():
            absmeter.compare_routes(scenario.pipelines[route.pipeline_id], route.stage)
            counters["costbenefit.calls"] += 1
    with tracer.span("axis.classify"):
        axes = list(scenario.axes.values())
        for axis in axes:
            axis.transitions()
        if axes:
            absmeter.detect_fork(axes)


def _decompose(tracer: Tracer, scenario, op, report, counters: dict) -> None:
    pairs, evaluations = evaluated_pairs(scenario)
    counters["costbenefit.evaluations"] += evaluations
    counters["costbenefit.distinct_pairs"] += len(pairs)
    entries = op.declaration_stats["channel_entries"]
    outputs = {}
    for stage, origin, source in pairs:
        prior = outputs[source] if isinstance(source, tuple) else source
        fwd = stage.forward
        bayes = isinstance(stage.recon, str)
        with tracer.span("pair", stage=stage.id, prior=origin):
            with tracer.span("alphabet.entropy"):
                absmeter.entropy(prior)
            with tracer.span("channel.push_forward"):
                out = absmeter.push_forward(prior, fwd)
            with tracer.span("alphabet.entropy"):
                absmeter.entropy(out)
            if bayes:
                with tracer.span("channel.bayes_inverse"):
                    recon = absmeter.bayes_inverse(fwd, prior)
            else:
                recon = stage.recon
            with tracer.span("channel.reconstructed_pmf"):
                q = absmeter.reconstructed_pmf(prior, fwd, recon)
            with tracer.span("alphabet.kl"):
                absmeter.kl_divergence(q, prior)
        outputs[(stage.id, origin)] = out
        n_in, n_out = fwd.source.n_letters, fwd.target.n_letters
        fwd_entries = entries[fwd.id]
        # A Bayes inverse has at least the forward channel's entries; rows
        # for outputs that get no mass come on top and are not counted.
        recon_entries = fwd_entries if bayes else entries[recon.id]
        counters["channel.letters"] += n_in + n_out
        # Computed, not measured: 8 bytes per pmf entry and 16 bytes (index
        # and value) per conditional entry that a call reads or writes.
        push = 8 * (n_in + n_out) + 16 * fwd_entries
        invert = 8 * n_in + 32 * fwd_entries if bayes else 0
        round_trip = push + 8 * (n_out + n_in) + 16 * recon_entries
        counters["channel.bytes_computed"] += push + invert + round_trip
    axes = list(scenario.axes.values())
    with tracer.span("axis.classify"):
        if len(axes) >= 2:
            try:
                absmeter.combine_space(axes)
            except absmeter.OverlappingAttributesError:
                pass  # overlapping axes are an answer, not a failure
    for other in FORMATS:
        if other != op.fmt:
            with tracer.span(f"report.render_{other}"):
                report.render(other)


def per_op(tracer: Tracer, ops: int) -> dict[str, dict[str, dict[str, float]]]:
    """Total and self milliseconds per operation for each span name, kept
    apart for the op tree ("A") and the decomposition tree ("B")."""
    selfs = tracer.self_ns()
    roots: list[str] = []
    for s in tracer.spans:
        roots.append(roots[s.parent] if s.parent is not None else ("A" if s.name == "op" else "B"))
    out: dict[str, dict[str, dict[str, float]]] = {"A": {}, "B": {}}
    for s, own, tree in zip(tracer.spans, selfs, roots):
        row = out[tree].setdefault(s.name, {"total_ms": 0.0, "self_ms": 0.0, "spans": 0})
        row["total_ms"] += s.ns / 1e6 / ops
        row["self_ms"] += own / 1e6 / ops
        row["spans"] += 1
    return out


def combined(table: dict, name: str, key: str = "total_ms") -> float:
    """Per-op milliseconds of ``name`` over both trees."""
    return sum(table[tree].get(name, {}).get(key, 0.0) for tree in ("A", "B"))


def layer_shares(table: dict, import_ms: float) -> dict[str, dict[str, float]]:
    """Each layer's share of an operation's self time, in two views.

    ``in_process`` covers the library call only; ``cli`` adds the import a
    command line pays. A costbenefit call makes its channel and alphabet
    calls internally, where no span can reach; its time is split between
    the two layers in the proportions the call-by-call decomposition
    measured, and its own bookkeeping goes with them.
    """
    a, b = table["A"], table["B"]

    def own(rows: dict, *names: str) -> float:
        return sum(rows.get(n, {}).get("self_ms", 0.0) for n in names)

    costbenefit = own(a, "costbenefit.stage", "costbenefit.pipeline", "costbenefit.routes")
    channel_b = own(b, "channel.push_forward", "channel.bayes_inverse", "channel.reconstructed_pmf")
    alphabet_b = own(b, "alphabet.entropy", "alphabet.kl")
    channel_part = channel_b / (channel_b + alphabet_b) if channel_b + alphabet_b > 0 else 0.0
    layers = {
        "scenario": own(a, "scenario.json_parse", "scenario.build", "scenario.to_json"),
        "alphabet": own(a, "alphabet.entropy") + costbenefit * (1.0 - channel_part),
        "channel": costbenefit * channel_part,
        "axis": own(a, "axis.classify"),
        "report": own(a, "report.analyze", *(f"report.render_{f}" for f in FORMATS)),
        "exemplars": own(a, "exemplars.build"),
        "cli.main": own(a, "cli.main"),
    }
    in_process = sum(layers.values())
    with_import = {**layers, "cli.import": import_ms}
    return {
        "ms_per_op": with_import,
        "in_process": {k: v / in_process for k, v in layers.items()} if in_process else {},
        "cli": {k: v / (in_process + import_ms) for k, v in with_import.items()},
    }
