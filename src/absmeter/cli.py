"""Command line front end.

Subcommands:

  analyze    evaluate a scenario file (or stdin) and print a report
  exemplar   print one of the built-in scenario declarations as JSON
  score      score a single quality judgment from its two conditions
  axis       classify transitions along declared axes; evaluates no channel
  validate   parse a scenario file and report whether it is well formed

Exit codes: 0 on success, 1 for bad input (unreadable file, malformed
scenario, unknown name), 2 for unexpected internal failure.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

from .costbenefit import ConditionB, abstraction_score
from .exemplars import EXEMPLAR_NAMES, exemplar
from .report import _FORMATS, _axis_sections, _fork_text, _transition_text, analyze
from .scenario import Scenario, ScenarioError, _read_utf8, load_scenario, loads_scenario

_CONDITION_B = {
    "satisfied": ConditionB.SATISFIED,
    "not_applicable": ConditionB.NOT_APPLICABLE,
    "na": ConditionB.NOT_APPLICABLE,
    "negated": ConditionB.NEGATED,
}


class _UsageError(Exception):
    def __init__(self, message: str, parser: argparse.ArgumentParser):
        super().__init__(message)
        self.message = message
        self.parser = parser


class _Parser(argparse.ArgumentParser):
    # argparse exits with status 2 on usage errors; we reserve 2 for bugs
    def error(self, message):
        raise _UsageError(message, self)


def _load(file_arg: str) -> Scenario:
    if file_arg == "-":
        data = sys.stdin.buffer.read()
        return loads_scenario(_read_utf8(lambda: data.decode("utf-8")), name="stdin")
    return load_scenario(file_arg)


def _write(text: str, out: str | None) -> None:
    if out is None:
        sys.stdout.write(text)
    else:
        Path(out).write_text(text, encoding="utf-8")


def _cmd_analyze(args) -> int:
    scenario = _load(args.file)
    report = analyze(scenario, pipeline_id=args.pipeline)
    _write(report.render(args.format), args.out)
    return 0


def _cmd_exemplar(args) -> int:
    _write(exemplar(args.name).to_json(), args.out)
    return 0


def _cmd_score(args) -> int:
    value = abstraction_score(args.condition_a == "yes", _CONDITION_B[args.condition_b])
    print(value)
    return 0


def _cmd_axis(args) -> int:
    scenario = _load(args.file)
    if not scenario.axes:
        raise ValueError(f"scenario '{scenario.id}' declares no axes")
    if args.axis is not None and args.axis not in scenario.axes:
        raise ValueError(
            f"scenario '{scenario.id}' has no axis '{args.axis}' "
            f"(declared: {', '.join(scenario.axes)})"
        )
    sections = _axis_sections(scenario.axes.values())
    lines = []
    for block in sections["axes"]:
        if args.axis is not None and block["id"] != args.axis:
            continue
        lines.append(f"{block['id']}:")
        lines += [f"  [{t['index']}] {_transition_text(t)}" for t in block["transitions"]]
    for f in sections.get("forks", ()):
        if args.axis is None or args.axis in (f["axis_a"], f["axis_b"]):
            lines.append(f"fork {_fork_text(f)}")
    _write("\n".join(lines) + "\n", args.out)
    return 0


def _cmd_validate(args) -> int:
    scenario = _load(args.file)
    print(
        f"ok: {len(scenario.alphabets)} alphabets, {len(scenario.channels)} channels, "
        f"{len(scenario.stages)} stages, {len(scenario.pipelines)} pipelines, "
        f"{len(scenario.judgments)} judgments, {len(scenario.axes)} axes"
    )
    return 0


def _build_parser() -> _Parser:
    parser = _Parser(prog="absmeter", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("analyze", help="evaluate a scenario and print a report")
    p.add_argument("file", nargs="?", default="-", help="scenario JSON path, or - for stdin")
    p.add_argument("--pipeline", help="restrict pipeline and route sections to this id")
    p.add_argument("--format", choices=_FORMATS, default="table")
    p.add_argument("--out", help="write to this path instead of stdout")
    p.set_defaults(handler=_cmd_analyze)

    p = sub.add_parser("exemplar", help="print a built-in scenario declaration")
    p.add_argument("name", choices=EXEMPLAR_NAMES)
    p.add_argument("--out", help="write to this path instead of stdout")
    p.set_defaults(handler=_cmd_exemplar)

    p = sub.add_parser("score", help="score a quality judgment")
    p.add_argument("--condition-a", choices=("yes", "no"), required=True,
                   help="does the target representation keep the task achievable")
    p.add_argument("--condition-b", choices=tuple(_CONDITION_B), required=True,
                   help="is the source alphabet recoverable where the task needs it")
    p.set_defaults(handler=_cmd_score)

    p = sub.add_parser("axis", help="classify transitions along declared axes")
    p.add_argument("file", help="scenario JSON path, or - for stdin")
    p.add_argument("--axis", help="only this axis id")
    p.add_argument("--out", help="write to this path instead of stdout")
    p.set_defaults(handler=_cmd_axis)

    p = sub.add_parser("validate", help="check that a scenario file is well formed")
    p.add_argument("file", help="scenario JSON path, or - for stdin")
    p.set_defaults(handler=_cmd_validate)

    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except _UsageError as err:
        sys.stderr.write(err.parser.format_usage())
        print(f"error: {err.message}", file=sys.stderr)
        return 1
    except SystemExit as err:  # --help
        return int(err.code or 0)
    try:
        return args.handler(args)
    except (ScenarioError, ValueError, OSError) as err:
        print(f"error: {err}", file=sys.stderr)
        return 1
    except Exception as err:  # noqa: BLE001 - last resort, keep the CLI honest
        print(f"internal error: {err!r}", file=sys.stderr)
        return 2


def run() -> None:
    sys.exit(main())


if __name__ == "__main__":
    run()
