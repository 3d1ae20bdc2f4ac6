"""Tests for the command line interface.

Most cases drive `main` in process; a handful run the module in a
subprocess to cover piping, stdin, and byte-for-byte determinism.
"""

import io
import json
import os
import subprocess
import sys

import pytest

import oracles
from absmeter.cli import main

MODULE = [sys.executable, "-m", "absmeter"]

# an integer beyond float range
HUGE = 10**400


def run_cli(argv, capsys):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def run_module(args, stdin_text=None):
    return subprocess.run(
        MODULE + args,
        input=stdin_text,
        capture_output=True,
        text=True,
        timeout=120,
    )


def piped(data):
    """A text stream over UTF-8 bytes, like a real standard input."""
    return io.TextIOWrapper(io.BytesIO(json.dumps(data).encode("utf-8")), encoding="utf-8")


ZERO_COST = {
    "alphabets": [
        {"id": "wide", "uniform_count": 4},
        {"id": "narrow", "uniform_count": 2},
    ],
    "channels": [
        {
            "id": "merge",
            "from": "wide",
            "to": "narrow",
            "deterministic": {"map": {"0": "0", "1": "0", "2": "1", "3": "1"}},
        }
    ],
    "stages": [{"id": "free-merge", "forward": "merge", "cost": 0.0}],
}

# 101 readings on a 2^21-bar canvas: nearly every bar is unreached, and a
# materialized Bayes inverse would need one prior row for each of them
WIDE_CANVAS = {
    "meta": {"id": "wide"},
    "alphabets": [
        {"id": "readings", "uniform_range": {"min": 0, "max": 100, "step": 1}},
        {"id": "bars", "uniform_range": {"min": 0, "max": 2097151, "step": 1}},
    ],
    "channels": [
        {
            "id": "plot",
            "from": "readings",
            "to": "bars",
            "deterministic": {"quantizer": {"pixels": 2097152}},
        }
    ],
    "stages": [{"id": "plot-stage", "forward": "plot", "recon": "bayes", "cost": 1.0}],
    "axes": [
        {
            "id": "ax",
            "nodes": [
                {"id": "r", "kind": "data", "alphabet": "readings", "attributes": ["x"]},
                {"id": "b", "kind": "visual", "information": 1.0},
            ],
        }
    ],
}

BAD_GUESS = {
    "alphabets": [
        {
            "id": "src",
            "letters": [
                {"id": "a", "probability": 0.5},
                {"id": "b", "probability": 0.5},
                {"id": "c", "probability": 0.0},
            ],
        },
        {"id": "dst", "uniform_count": 1},
    ],
    "channels": [
        {
            "id": "collapse",
            "from": "src",
            "to": "dst",
            "deterministic": {"map": {"a": "0", "b": "0", "c": "0"}},
        },
        {
            "id": "always-c",
            "from": "dst",
            "to": "src",
            "deterministic": {"map": {"0": "c"}},
        },
    ],
    "stages": [
        {"id": "risky", "forward": "collapse", "recon": "always-c", "cost": 1.0}
    ],
}


def heavy(prior_scale):
    """Four letters of prior mass ``prior_scale`` / 4 through rows that each
    sum to 1 + 0.9e-9, inside the declared rows' tolerance, to a Bayes stage."""
    h = 1.0 + 0.9e-9
    return {
        "alphabets": [
            {
                "id": "a",
                "letters": [{"id": f"x{i}", "probability": prior_scale / 4} for i in range(4)],
            },
            {"id": "b", "uniform_count": 2},
        ],
        "channels": [
            {
                "id": "c",
                "from": "a",
                "to": "b",
                "stochastic": {"rows": {f"x{i}": {"0": h / 2, "1": h / 2} for i in range(4)}},
            }
        ],
        "stages": [{"id": "s", "forward": "c", "cost": 1.0}],
    }


class TestAnalyze:
    def test_heavy_rows_give_the_measure(self, tmp_path, capsys):
        # the pushed pmf holds 1 + 0.9e-9 and is a pmf; the distortion is
        # sum p s log2 s of the rows as declared, to the reference's digits
        target = tmp_path / "heavy.json"
        data = heavy(1.0)
        target.write_text(json.dumps(data), encoding="utf-8")
        code, out, err = run_cli(["analyze", str(target), "--format", "json"], capsys)
        assert (code, err) == (0, "")
        pd = json.loads(out)["stages"][0]["potential_distortion_bits"]
        prior = {f"x{i}": 0.25 for i in range(4)}
        rows = data["channels"][0]["stochastic"]["rows"]
        assert 1.2e-9 < pd < 1.4e-9
        assert oracles.bayes_distortion_agrees(pd, prior, rows)

    def test_heavy_prior_and_rows_are_refused_at_the_pushed_pmf(self, tmp_path, capsys):
        # the prior holds 1 + 0.9e-9 too, so the pushed pmf, whose mass is
        # sum p s as the reconstruction's is, holds about 1 + 1.8e-9: the
        # first fault, reported before any distortion is taken
        target = tmp_path / "heavy.json"
        target.write_text(json.dumps(heavy(1.0 + 0.9e-9)), encoding="utf-8")
        code, out, err = run_cli(["analyze", str(target)], capsys)
        assert (code, out) == (1, "")
        assert err == "error: invalid pmf: mass sums to 1.0000000018000001 (expected 1 within 1e-09)\n"

    def test_table_on_route_fixture(self, fixtures_dir, capsys):
        path = str(fixtures_dir / "route_premises_hold.json")
        code, out, err = run_cli(["analyze", path], capsys)
        assert code == 0
        assert err == ""
        assert "two-hop" in out
        assert "pipeline preferred" in out

    def test_violated_fixture_flags_premises(self, fixtures_dir, capsys):
        path = str(fixtures_dir / "route_cost_premise_violated.json")
        code, out, _ = run_cli(["analyze", path], capsys)
        assert code == 0
        assert "premises not satisfied" in out

    def test_json_format(self, fixtures_dir, capsys):
        path = str(fixtures_dir / "route_premises_hold.json")
        code, out, _ = run_cli(["analyze", path, "--format", "json"], capsys)
        assert code == 0
        body = json.loads(out)
        assert body["scenario"] == "route-premises-hold"
        assert {"alphabets", "stages", "pipelines", "routes"} <= set(body)

    def test_csv_format(self, fixtures_dir, capsys):
        path = str(fixtures_dir / "route_premises_hold.json")
        code, out, _ = run_cli(["analyze", path, "--format", "csv"], capsys)
        assert code == 0
        assert out.splitlines()[0] == "section,id,metric,value"

    def test_pipeline_filter(self, fixtures_dir, capsys):
        path = str(fixtures_dir / "route_premises_hold.json")
        code, out, _ = run_cli(
            ["analyze", path, "--pipeline", "two-hop", "--format", "json"], capsys
        )
        assert code == 0
        body = json.loads(out)
        assert [p["id"] for p in body["pipelines"]] == ["two-hop"]

    def test_unknown_pipeline_exits_one(self, fixtures_dir, capsys):
        path = str(fixtures_dir / "route_premises_hold.json")
        code, _, err = run_cli(["analyze", path, "--pipeline", "ghost"], capsys)
        assert code == 1
        assert "has no pipeline 'ghost'" in err

    def test_missing_file_exits_one(self, capsys):
        code, _, err = run_cli(["analyze", "no/such/file.json"], capsys)
        assert code == 1
        assert err.startswith("error:")

    def test_malformed_json_exits_one(self, tmp_path, capsys):
        path = tmp_path / "broken.json"
        path.write_text("{not json", encoding="utf-8")
        code, _, err = run_cli(["analyze", str(path)], capsys)
        assert code == 1
        assert "not valid JSON" in err

    def test_invalid_scenario_exits_one(self, tmp_path, capsys):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({"bogus": 1}), encoding="utf-8")
        code, _, err = run_cli(["validate", str(path)], capsys)
        assert code == 1
        assert "$.bogus: unknown top-level key" in err

    def test_out_writes_file(self, fixtures_dir, tmp_path, capsys):
        path = str(fixtures_dir / "route_premises_hold.json")
        target = tmp_path / "report.json"
        code, out, _ = run_cli(
            ["analyze", path, "--format", "json", "--out", str(target)], capsys
        )
        assert code == 0
        assert out == ""
        assert json.loads(target.read_text(encoding="utf-8"))["scenario"]

    @pytest.mark.parametrize(
        "alphabet,path",
        [
            ({"uniform_count": 10**12}, "alphabets[0].uniform_count"),
            (
                {"uniform_range": {"min": 0, "max": 3_000_000, "step": 1}},
                "alphabets[0].uniform_range",
            ),
            (
                {"uniform_range": {"min": -1e308, "max": 1e308, "step": 1}},
                "alphabets[0].uniform_range",
            ),
        ],
        ids=["count", "range", "infinite-span"],
    )
    def test_oversized_alphabet_exits_one(self, alphabet, path, tmp_path, capsys):
        # refused from the declared count, before any letter is built
        target = tmp_path / "huge.json"
        target.write_text(
            json.dumps({"alphabets": [{"id": "huge", **alphabet}]}), encoding="utf-8"
        )
        code, _, err = run_cli(["analyze", str(target)], capsys)
        assert code == 1
        assert err.startswith(f"error: {path}:")

    @pytest.mark.parametrize("command", ["analyze", "axis"])
    def test_wide_canvas_exits_zero(self, command, tmp_path, capsys):
        target = tmp_path / "wide.json"
        target.write_text(json.dumps(WIDE_CANVAS), encoding="utf-8")
        code, out, err = run_cli([command, str(target)], capsys)
        assert (code, err) == (0, "")
        assert "ax" in out

    def test_bad_format_is_usage_error(self, fixtures_dir, capsys):
        path = str(fixtures_dir / "route_premises_hold.json")
        code, _, err = run_cli(["analyze", path, "--format", "yaml"], capsys)
        assert code == 1
        assert "error:" in err

    def test_stdin_dash(self, monkeypatch, capsys):
        monkeypatch.setattr("sys.stdin", piped(ZERO_COST))
        code, out, _ = run_cli(["analyze", "-", "--format", "json"], capsys)
        assert code == 0
        assert json.loads(out)["scenario"] == "stdin"

    def test_zero_cost_ratio_is_inline_infinity(self, monkeypatch, capsys):
        monkeypatch.setattr("sys.stdin", piped(ZERO_COST))
        code, out, _ = run_cli(["analyze", "-", "--format", "json"], capsys)
        assert code == 0
        stage = json.loads(out)["stages"][0]
        assert stage["ratio"] == "+inf"

    def test_infinite_distortion_reported_not_fatal(self, monkeypatch, capsys):
        monkeypatch.setattr("sys.stdin", piped(BAD_GUESS))
        code, out, _ = run_cli(["analyze", "-", "--format", "json"], capsys)
        assert code == 0
        stage = json.loads(out)["stages"][0]
        assert stage["potential_distortion_bits"] == "+inf"
        assert stage["ratio"] == "-inf"

    def test_axes_only_scenario_has_no_stage_sections(self, fixtures_dir, capsys):
        path = str(fixtures_dir / "molecular_axes.json")
        code, out, _ = run_cli(["analyze", path, "--format", "json"], capsys)
        assert code == 0
        body = json.loads(out)
        assert "axes" in body
        assert "stages" not in body
        assert "pipelines" not in body


class TestExemplar:
    def test_emits_scenario_json(self, capsys):
        code, out, _ = run_cli(["exemplar", "integer-plot"], capsys)
        assert code == 0
        data = json.loads(out)
        assert {"alphabets", "channels", "stages"} <= set(data)

    def test_unknown_name_is_usage_error(self, capsys):
        code, _, err = run_cli(["exemplar", "nope"], capsys)
        assert code == 1
        assert "error:" in err

    def test_out_writes_file(self, tmp_path, capsys):
        target = tmp_path / "scenario.json"
        code, out, _ = run_cli(
            ["exemplar", "figure-scores", "--out", str(target)], capsys
        )
        assert code == 0
        assert out == ""
        assert json.loads(target.read_text(encoding="utf-8"))["judgments"]


class TestScore:
    @pytest.mark.parametrize(
        ("a", "b", "expected"),
        [
            ("yes", "satisfied", 3),
            ("yes", "na", 2),
            ("yes", "not_applicable", 2),
            ("yes", "negated", 1),
            ("no", "satisfied", 1),
            ("no", "negated", 0),
        ],
    )
    def test_scores(self, a, b, expected, capsys):
        code, out, _ = run_cli(
            ["score", "--condition-a", a, "--condition-b", b], capsys
        )
        assert code == 0
        assert out.strip() == str(expected)

    def test_missing_condition_is_usage_error(self, capsys):
        code, _, err = run_cli(["score", "--condition-a", "yes"], capsys)
        assert code == 1
        assert "error:" in err


class TestAxisCommand:
    def test_lists_transitions_and_forks(self, fixtures_dir, capsys):
        path = str(fixtures_dir / "molecular_axes.json")
        code, out, _ = run_cli(["axis", path], capsys)
        assert code == 0
        assert "bond-structure:" in out
        assert "  [0] vdw-surface -> licorice: removes_and_adds" in out
        assert "  [1] licorice -> backbone: removes" in out
        assert (
            "fork bond-structure | surface-probe: shared vdw-surface, "
            "diverge at index 1" in out
        )

    def test_axis_filter(self, fixtures_dir, capsys):
        path = str(fixtures_dir / "molecular_axes.json")
        code, out, _ = run_cli(["axis", path, "--axis", "coloring"], capsys)
        assert code == 0
        assert "coloring:" in out
        assert "bond-structure:" not in out
        assert "fork" not in out

    def test_unknown_axis_exits_one(self, fixtures_dir, capsys):
        path = str(fixtures_dir / "molecular_axes.json")
        code, _, err = run_cli(["axis", path, "--axis", "ghost"], capsys)
        assert code == 1
        assert "has no axis 'ghost'" in err
        assert "bond-structure" in err

    def test_scenario_without_axes_exits_one(self, fixtures_dir, capsys):
        path = str(fixtures_dir / "route_premises_hold.json")
        code, _, err = run_cli(["axis", path], capsys)
        assert code == 1
        assert "declares no axes" in err


class TestValidate:
    def test_counts_line(self, fixtures_dir, capsys):
        path = str(fixtures_dir / "route_premises_hold.json")
        code, out, _ = run_cli(["validate", str(path)], capsys)
        assert code == 0
        assert out.strip() == (
            "ok: 3 alphabets, 5 channels, 3 stages, 1 pipelines, "
            "0 judgments, 0 axes"
        )

    @pytest.mark.parametrize(
        "text,path",
        [
            ("[" * 100000 + "]" * 100000, "$"),
            ('{"a":' * 100000 + "1" + "}" * 100000, "$"),
            (
                '{"alphabets": [{"id": "a", "letters": [{"id": ' + "9" * 5000 + "}]}]}",
                "$",
            ),
            (
                json.dumps(
                    {
                        "alphabets": [
                            {"id": "a", "uniform_range": {"min": 0, "max": HUGE, "step": 1}}
                        ]
                    }
                ),
                "alphabets[0].uniform_range.max",
            ),
            (
                json.dumps(
                    {"alphabets": [{"id": "a", "letters": [{"id": "x", "probability": HUGE}]}]}
                ),
                "alphabets[0].letters[0].probability",
            ),
            (
                json.dumps({**ZERO_COST, "stages": [{**ZERO_COST["stages"][0], "cost": HUGE}]}),
                "stages[0].cost",
            ),
            (
                json.dumps(
                    {
                        "axes": [
                            {
                                "id": "ax",
                                "nodes": [{"id": "n", "kind": "data", "information": HUGE}],
                            }
                        ]
                    }
                ),
                "axes[0].nodes[0].information",
            ),
        ],
        ids=[
            "deep-array",
            "deep-object",
            "long-letter-id",
            "huge-range-max",
            "huge-probability",
            "huge-cost",
            "huge-information",
        ],
    )
    def test_hostile_input_exits_one_with_path(self, text, path, tmp_path, capsys):
        target = tmp_path / "hostile.json"
        target.write_text(text, encoding="utf-8")
        code, _, err = run_cli(["validate", str(target)], capsys)
        assert code == 1
        assert err.startswith(f"error: {path}:")

    @pytest.mark.parametrize("command", ["analyze", "validate", "axis"])
    def test_non_utf8_file_exits_one_with_path(self, command, tmp_path, capsys):
        target = tmp_path / "latin1.json"
        target.write_bytes(b'{"meta": {"title": "caf\xe9"}}')
        code, _, err = run_cli([command, str(target)], capsys)
        assert code == 1
        assert err.startswith("error: $: not valid UTF-8: ")

    @pytest.mark.parametrize("command", ["analyze", "validate", "axis"])
    def test_non_utf8_stdin_exits_one_with_path(self, command):
        # UTF-8 mode would decode stray bytes as surrogates if read as text
        args = [command, "-"] + (["--format", "csv"] if command == "analyze" else [])
        result = subprocess.run(
            MODULE + args,
            input=b'{"alphabets": [{"id": "a\xff", "uniform_count": 2}]}',
            capture_output=True,
            env={**os.environ, "PYTHONUTF8": "1"},
            timeout=120,
        )
        assert result.returncode == 1
        assert result.stdout == b""
        assert result.stderr.startswith(b"error: $: not valid UTF-8: ")

    @pytest.mark.skipif(
        not sys.platform.startswith("linux"), reason="reads VmHWM from /proc"
    )
    def test_largest_uniform_count_stays_small(self, tmp_path):
        # 2^21 string ids and no per-letter objects. The child reads its own
        # VmHWM: its ru_maxrss starts at the forking parent's resident set.
        target = tmp_path / "big.json"
        target.write_text(
            json.dumps({"alphabets": [{"id": "big", "uniform_count": 2**21}]}),
            encoding="utf-8",
        )
        probe = (
            "import re, sys; from absmeter.cli import main; "
            "code = main(['validate', sys.argv[1]]); "
            "status = open('/proc/self/status').read(); "
            r"print(int(re.search(r'VmHWM:\s*(\d+) kB', status)[1]) // 1024); "
            "sys.exit(code)"
        )
        result = subprocess.run(
            [sys.executable, "-c", probe, str(target)],
            capture_output=True,
            text=True,
            timeout=120,
        )
        assert result.returncode == 0, result.stderr
        assert int(result.stdout.split()[-1]) <= 350


class TestEndToEnd:
    def test_pipe_exemplar_into_analyze(self):
        produced = run_module(["exemplar", "integer-plot"])
        assert produced.returncode == 0
        analyzed = run_module(
            ["analyze", "-", "--format", "json"], stdin_text=produced.stdout
        )
        assert analyzed.returncode == 0
        body = json.loads(analyzed.stdout)
        assert body["scenario"] == "integer-plot"

    def test_repeated_runs_are_byte_identical(self, fixtures_dir):
        path = str(fixtures_dir / "molecular_axes.json")
        first = run_module(["analyze", path, "--format", "json"])
        second = run_module(["analyze", path, "--format", "json"])
        assert first.returncode == second.returncode == 0
        assert first.stdout == second.stdout

    def test_import_loads_no_scipy(self):
        probe = (
            "import sys, absmeter; "
            "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))"
        )
        result = subprocess.run(
            [sys.executable, "-c", probe], capture_output=True, text=True, timeout=120
        )
        assert result.returncode == 0, result.stderr
        assert result.stdout.strip() == "[]"

    def test_help_exits_zero(self):
        result = run_module(["--help"])
        assert result.returncode == 0
        assert "analyze" in result.stdout

    def test_internal_errors_exit_two(self, tmp_path, monkeypatch, capsys):
        # force a bug-shaped failure to pin the reserved exit code
        import absmeter.cli as cli_module

        def boom(args):
            raise RuntimeError("wired to fail")

        monkeypatch.setattr(cli_module, "_cmd_validate", boom)
        path = tmp_path / "ok.json"
        path.write_text("{}", encoding="utf-8")
        code = main(["validate", str(path)])
        captured = capsys.readouterr()
        assert code == 2
        assert "internal error" in captured.err

    def test_console_checks_of_ci_run(self):
        # the workflow's console-script checks, through this interpreter
        # instead of an installed console script: the whole script parses,
        # and its refusal checks pass. Its golden diffs repeat test_golden.py's
        # pinned reports and are left to the workflow.
        script = os.path.join(os.path.dirname(__file__), "console_checks.sh")
        src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
        env = dict(
            os.environ,
            ABSMETER=f"{sys.executable} -m absmeter",
            PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])),
        )
        subprocess.run(["bash", "-n", script], check=True, timeout=60)
        result = subprocess.run(
            ["bash", script, "refusals"], env=env, capture_output=True, text=True, timeout=120
        )
        assert result.returncode == 0, result.stdout[-2000:] + result.stderr[-2000:]
