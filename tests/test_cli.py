import contextlib
import dataclasses
import hashlib
import importlib.util
import io
import json
import os
import pathlib
import re
import subprocess
import sys
import time

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from conftest import is_zero_matrix
from entriv import cli
from entriv.cli import (MAX_CELL_RANGE, MAX_COMPLEX_CELLS, MAX_COMPOSE_BASIS, MAX_ENTRY_BITS,
                        MAX_EULER_WORK, MAX_K, MAX_M, MAX_N, MAX_PRIME, MAX_SAMPLES, MAX_SEED,
                        MAX_SMAX, MAX_SPHERE, MAX_T, MAX_WINDOW_WIDTH, Command, UsageError,
                        _complex_size, main, parse, run)
from entriv.core_algebra import IntMatrix, product_is_zero
from entriv.extended_powers import FAMILIES

ROOT = pathlib.Path(__file__).resolve().parents[1]


class TestParse:
    def test_extpow_ses_alias(self):
        cmd = parse(["extpow", "ses", "--prime", "3", "--n", "2", "--which", "first"])
        assert cmd.verb == "ses"
        assert cmd.params["prime"] == 3 and cmd.params["n"] == 2
        assert cmd.params["which"] == "first"

    def test_ku_ses_precondition_surfaced(self):
        with pytest.raises(UsageError):
            parse(["ku-ses", "--prime", "2", "--n", "1"])

    def test_euler_seed(self):
        cmd = parse(["euler", "--m", "2", "--t", "3", "--samples", "10000",
                     "--seed", "42"])
        assert cmd.params["seed"] == 42

    def test_unknown_verb(self):
        with pytest.raises(UsageError):
            parse(["frobnicate"])

    def test_bad_window(self):
        with pytest.raises(UsageError):
            parse(["ses", "--prime", "3", "--n", "2", "--which", "first",
                   "--window=4:-4"])

    def test_non_prime_rejected(self):
        with pytest.raises(UsageError):
            parse(["theta", "--n", "2", "--prime", "6"])


    def test_usage_error_then_valid_parse(self):
        with pytest.raises(UsageError):
            parse(["theta", "--n", "2"])
        cmd = parse(["theta", "--n", "2", "--prime", "5"])
        assert cmd.verb == "theta" and cmd.params == {"n": 2, "prime": 5}

    def test_parses_do_not_share_params(self):
        first = parse(["transfer", "--prime", "3"])
        second = parse(["transfer", "--prime", "3"])
        assert first.params is not second.params
        first.params["prime"] = 7
        assert second.params["prime"] == 3
        assert parse(["transfer", "--prime", "3"]).params == {"prime": 3, "window": (-2, 40)}

    @pytest.mark.parametrize("prime", (2, 3, 5, 7))
    def test_transfer_window_must_contain_degree_minus_one(self, prime, capsys):
        assert main(["transfer", "--prime", str(prime), "--window=0:5"]) == 2
        assert "degree -1" in capsys.readouterr().err
        assert main(["transfer", "--prime", str(prime), "--window=-1:-1"]) == 0
        assert main(["transfer", "--prime", str(prime)]) == 0

    def test_large_prime_is_fast(self, capsys):
        start = time.perf_counter()
        assert main(["theta", "--n", "2", "--prime", "1000000007"]) == 0
        assert time.perf_counter() - start < 1.0
        assert json.loads(capsys.readouterr().out)["payload"]["value"] == 1000000007
        assert main(["theta", "--n", "2", "--prime", "3215031751"]) == 2

class TestCaps:
    OVERSIZED = [
        ["transfer", "--prime", "3", "--window=-10000000:10000000"],
        ["ses", "--prime", "3", "--n", "2", "--which", "first",
         f"--window=0:{MAX_WINDOW_WIDTH + 1}"],
        ["ses", "--prime", "1000000007", "--n", "2", "--which", "first"],
        ["pushout", "--prime", "1000000007", "--n", "2"],
        ["stunted", "homology", f"--range=0:{MAX_CELL_RANGE + 1}"],
        ["stunted", "sq", "--range=-100000:100000"],
        ["theta", "--n", str(MAX_N + 1), "--prime", "3"],
        ["ku-ses", "--prime", "3", "--n", "1000000"],
        ["steenrod", "witness", "--n", "1000000"],
        ["hh", "--ring", "Z", "--n", "2", "--smax", str(MAX_SMAX + 1)],
        ["euler", "--m", "2", "--t", "3", "--samples", str(MAX_SAMPLES + 1)],
        # the --flag=value forms keep these ids apart from the ones above
        ["theta", "--n=64", "--prime", str(10 ** 80 + 129)],  # an 80-digit prime
        ["theta", "--n=2", "--prime", str(MAX_PRIME + 14)],  # the first prime past 2^64
        ["euler", f"--m={MAX_M + 1}", "--t", "3", "--samples", "1"],
        ["euler", f"--t={MAX_T + 1}", "--m", "2", "--samples", "1"],
        ["euler", "--t=20000", "--m", "2", "--samples", "1"],
        ["steenrod", f"--sphere={MAX_SPHERE + 1}", "sq"],
        ["steenrod", "--sphere=200", "sq", "--k", "0"],
        ["steenrod", f"--k={MAX_K + 1}", "sq", "--sphere", "2"],
        # a seed is read mod 2^64: -1 would draw the samples of seed 2^64 - 1
        ["euler", "--seed=-1", "--m", "2", "--t", "3", "--samples", "1"],
        ["euler", f"--seed={MAX_SEED + 1}", "--m", "2", "--t", "3", "--samples", "1"],
        ["batch", "--seed=-1", "--manifest", "manifests/acceptance.json"],
        ["batch", f"--seed={MAX_SEED + 1}", "--manifest", "manifests/acceptance.json"],
    ]

    @pytest.mark.parametrize("argv", OVERSIZED, ids=lambda a: " ".join(a[:2]))
    def test_oversized_value_exits_two_fast(self, argv, capsys):
        start = time.perf_counter()
        assert main(argv) == 2
        assert time.perf_counter() - start < 0.5
        assert "cap" in capsys.readouterr().err

    def test_caps_admit_their_bounds(self):
        parse(["transfer", "--prime", "3", f"--window=-1:{MAX_WINDOW_WIDTH - 1}"])
        parse(["stunted", "homology", f"--range=-1:{MAX_CELL_RANGE - 1}"])
        parse(["theta", "--n", str(MAX_N), "--prime", "3"])
        parse(["hh", "--ring", "Z", "--n", "2", "--smax", str(MAX_SMAX)])
        parse(["euler", "--m", "2", "--t", "3", "--samples", str(MAX_SAMPLES)])
        parse(["theta", "--n", "2", "--prime", str(MAX_PRIME - 58)])  # largest below 2^64
        parse(["euler", "--m", str(MAX_M), "--t", str(MAX_T), "--samples", "1"])
        parse(["steenrod", "sq", "--sphere", str(MAX_SPHERE), "--k", str(MAX_K)])
        parse(["euler", "--m", "2", "--t", "3", "--samples", "1", "--seed", str(MAX_SEED)])
        parse(["batch", "--manifest", "manifests/acceptance.json", "--seed", str(MAX_SEED)])
        # stunted --k is capped by the cell range, not by MAX_K
        parse(["stunted", "sq", "--range=0:4", "--k", str(MAX_K + 1)])

    def test_caps_admit_the_acceptance_manifest(self):
        for entry in json.loads((ROOT / "manifests/acceptance.json").read_text()):
            parse(entry["argv"])

    def test_caps_admit_the_readme_examples(self):
        readme = (ROOT / "README.md").read_text()
        examples = re.findall(r"^entriv (.+)$", readme, flags=re.MULTILINE)
        assert len(examples) >= 15
        for line in examples:
            parse(re.sub(r"\[.*?\]", "", line).split())

    @pytest.mark.parametrize("argv", [
        ["euler", "--m", "16", "--t", "1000", "--samples", "100000"],
        ["euler", "--m", "1", "--t", "1000", "--samples", "2", "--float"],
        ["euler", "--m", "10", "--t", "1000", "--samples", str(MAX_EULER_WORK // 10000 + 1)],
    ])
    def test_euler_work_over_the_cap_exits_two_fast(self, argv, capsys):
        # each parameter is inside its own cap; their product is not
        start = time.perf_counter()
        assert main(argv) == 2
        assert time.perf_counter() - start < 1.0
        assert "cap" in capsys.readouterr().err

    def test_euler_work_cap_admits_its_bound(self):
        parse(["euler", "--m", "10", "--t", "1000", "--samples", str(MAX_EULER_WORK // 10000)])
        parse(["euler", "--m", "16", "--t", "1000", "--samples", "1", "--float"])


# A valid command for every verb; TestVerbTable appends one --flag=value
# after it, which replaces the value given here.
_VALID = {
    "extpow": ["--prime", "3", "--n", "1", "--family", FAMILIES[0], "--window=0:10"],
    "ses": ["--prime", "3", "--n", "1", "--which", "first", "--window=0:10"],
    "pushout": ["--prime", "3", "--n", "1", "--window=0:10"],
    "moore": ["--prime", "3"],
    "transfer": ["--prime", "3"],
    "ku-ses": ["--prime", "3", "--n", "2"],
    "theta": ["--n", "1", "--prime", "3"],
    "witness": ["--prime", "3", "--n", "1"],
    "stunted": ["sq", "--range=0:4"],
    "steenrod": ["sq", "--sphere", "2"],
    "compose": ["--input", "manifests/inputs/pair_a.json", "manifests/inputs/pair_b.json",
                "--truncate", "2"],
    "suspend": ["--input", "manifests/inputs/pair_a.json", "--k", "1"],
    "hh": ["--ring", "Z", "--n", "1", "--smax", "0"],
    "euler": ["--m", "1", "--t", "2", "--samples", "1"],
    "formality": ["--input", "manifests/inputs/complex_rp2.json"],
    "batch": ["--manifest", "manifests/acceptance.json"],
}
_INTEGER_OPTIONS = [(verb, flag, spec) for verb, (_, options) in cli.VERBS.items()
                    for flag, _, spec, *_ in options
                    if type(spec) is tuple and type(spec[0]) is int]


class TestVerbTable:
    def test_every_verb_has_a_valid_command_and_a_handler(self):
        assert set(_VALID) == set(cli.VERBS)
        assert set(cli.VERBS) - {"batch"} == set(cli._HANDLERS)
        for verb, argv in _VALID.items():
            parse([verb, *argv])

    @pytest.mark.parametrize("verb, flag, spec", _INTEGER_OPTIONS,
                             ids=[f"{verb} {flag}" for verb, flag, _ in _INTEGER_OPTIONS])
    def test_integer_option_bounds(self, verb, flag, spec, capsys):
        lo, hi = spec
        for value in (lo - 1, hi + 1):
            start = time.perf_counter()
            assert main([verb, *_VALID[verb], f"{flag}={value}"]) == 2
            assert time.perf_counter() - start < 0.5
            assert "cap" in capsys.readouterr().err
        largest = MAX_PRIME - 58 if flag == "--prime" else hi  # the largest prime below 2^64
        for value in (lo, largest):
            assert parse([verb, *_VALID[verb], f"{flag}={value}"]).params[flag[2:]] == value

    @pytest.mark.parametrize("verb", list(cli.VERBS))
    def test_help_names_each_bound(self, verb, capsys):
        with pytest.raises(SystemExit) as exit_:
            main([verb, "-h"])
        assert exit_.value.code == 0
        text = " ".join(capsys.readouterr().out.split())  # help lines may wrap
        for flag, spec in [(f, s) for v, f, s in _INTEGER_OPTIONS if v == verb]:
            assert f"{flag} {flag[2:].upper()} in [{spec[0]}, {spec[1]}]" in text


# Commands that reach argparse's other paths, beside the acceptance manifest:
# help, abbreviations, '--', the --flag=value form and each kind of error.
_ROUTE_CASES = [
    [], ["bogus"], ["-h"], ["--he"], ["--x", "moore"], ["--", "moore", "--prime", "3"],
    ["-h", "theta"], ["theta", "-h"], ["theta", "--help"], ["theta", "--he"],
    ["batch", "-h"], ["theta", "--n", "2"],  # a missing required option
    ["ses", "--prime", "3", "--n", "2", "--which", "third"],  # a bad choice
    ["theta", "--n", "two", "--prime", "3"],  # a bad int
    ["moore", "--pri", "3"], ["moore", "--prime=3"],
    ["ses", "--prime", "3", "--n", "2", "--w", "first"],  # an ambiguous abbreviation
    ["moore", "--prime", "3", "--prime", "5"],  # a repeated option: the last wins
    ["moore", "--prime", "3", "extra"],  # an extra positional
    ["theta", "--n", "4", "--prime", "3", "--", "extra"],
    ["stunted", "--range=-1:4", "homology"], ["stunted", "homology", "--range", "-1:4"],
    ["theta", "--format", "md", "--out=report.md", "--n", "4", "--prime", "3"],
    ["extpow", "ses", "--prime", "3", "--n", "2", "--which", "first"],
    ["extpow", "pushout", "--prime", "3"], ["extpow", "--prime", "3"],
]

_FULL_TREES = {}  # add_help -> cli.build_parser(add_help)


def _full_tree_namespace(argv, add_help):
    if add_help not in _FULL_TREES:
        _FULL_TREES[add_help] = cli.build_parser(add_help)
    ns = _FULL_TREES[add_help].parse_args(argv)
    return ns.verb, ns


def _parse_outcome(argv, add_help):
    """What parse makes of argv: the Command, the UsageError text or the
    SystemExit code, with everything printed on the way."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            result = parse(argv, add_help)
        except UsageError as exc:
            result = ("UsageError", str(exc))
        except SystemExit as exc:
            result = ("SystemExit", exc.code)
    return result, out.getvalue(), err.getvalue()


class TestParserRoutes:
    @pytest.mark.parametrize("add_help", [True, False])
    def test_verb_parsers_match_the_full_tree(self, monkeypatch, add_help):
        manifest = json.loads((ROOT / "manifests/acceptance.json").read_text())
        argvs = [entry["argv"] for entry in manifest] + _ROUTE_CASES
        routed = [_parse_outcome(argv, add_help) for argv in argvs]
        assert sum(type(result) is Command for result, _, _ in routed) >= len(manifest)
        monkeypatch.setattr(cli, "_namespace", _full_tree_namespace)
        for argv, outcome in zip(argvs, routed):
            assert _parse_outcome(argv, add_help) == outcome, argv

    def test_a_verb_first_command_builds_only_its_parser(self):
        probe = ("import argparse\n"
                 "built = []\n"
                 "init = argparse.ArgumentParser.__init__\n"
                 "def counted(self, *args, **kwargs):\n"
                 "    init(self, *args, **kwargs)\n"
                 "    built.append(self.prog)\n"
                 "argparse.ArgumentParser.__init__ = counted\n"
                 "from entriv import cli\n"
                 "cli.parse(['theta', '--n', '4', '--prime', '3'])\n"
                 "print(*built, sep='\\n')\n")
        outer = [os.environ["PYTHONPATH"]] if os.environ.get("PYTHONPATH") else []
        env = dict(os.environ, PYTHONPATH=os.pathsep.join([str(ROOT / "src")] + outer))
        run = subprocess.run([sys.executable, "-c", probe], cwd=ROOT, env=env,
                             capture_output=True, text=True, timeout=60)
        assert run.returncode == 0, run.stderr
        assert run.stdout.splitlines() == ["entriv theta"]


class TestRun:
    def test_ses_report(self):
        report = run(parse(["ses", "--prime", "3", "--n", "2", "--which", "first"]))
        assert report.passed
        assert report.payload["degrees"]["-4"] == {"A": 1, "B": 1, "C": 0}

    @pytest.mark.parametrize("prime", (2, 3, 5, 7))
    def test_empty_low_family_at_n_one_passes(self, prime):
        report = run(parse(["extpow", "--prime", str(prime), "--n", "1", "--family", "en-1"]))
        assert report.passed
        if prime == 2:
            assert report.payload["model"] == "RP[-1..-2]"
            assert report.payload["cells"] == report.payload["class_degrees"] == []
        else:
            assert report.payload["classes"] == []

    def test_witness_report(self):
        report = run(parse(["witness", "--prime", "2", "--n", "3"]))
        assert report.passed
        assert report.payload["not_smash_nilpotent"] is True
        assert "k=1" in report.payload["reason"]

    def test_hh_report(self):
        report = run(parse(["hh", "--ring", "Q", "--n", "3", "--smax", "6"]))
        assert report.passed
        assert report.payload["bar_equals_small_resolution"] is True

    def test_compose_files(self):
        report = run(parse(["compose", "--input",
                            str(ROOT / "manifests/inputs/pair_a.json"),
                            str(ROOT / "manifests/inputs/pair_b.json"),
                            "--truncate", "4"]))
        assert report.passed

    def test_formality_file(self):
        report = run(parse(["formality", "--input",
                            str(ROOT / "manifests/inputs/complex_rp2.json")]))
        assert report.passed and report.payload["certified"]

    def test_formality_computes_the_input_homology_once(self, monkeypatch, capsys):
        from entriv import core_algebra
        calls = []

        def counted(*args, **kwargs):
            calls.append(args)
            return homology(*args, **kwargs)

        homology = core_algebra.homology
        monkeypatch.setattr(core_algebra, "homology", counted)
        assert main(["formality", "--input", str(ROOT / "manifests/inputs/complex_rp2.json")]) == 0
        assert len(calls) == 2  # the input's homology, then the minimal model's

    def test_module_error_becomes_structured_failure(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps({"ranks": {"0": 1, "1": 1}, "differentials":
                                   {"1": [[1, 1]]}}))
        report = run(parse(["formality", "--input", str(bad)]))
        assert not report.passed and "error" in report.payload

    def test_determinism_single_command(self):
        argv = ["euler", "--m", "2", "--t", "3", "--samples", "60", "--seed", "7"]
        a = run(parse(argv)).render("json")
        b = run(parse(argv)).render("json")
        assert a == b

    def test_sq1_square_check_is_a_real_product(self):
        assert run(parse(["stunted", "sq", f"--range=0:{MAX_CELL_RANGE}", "--k", "2"])).passed
        for rows, zero in [([[0, 1], [0, 0]], True), ([[0, 1], [1, 0]], False),
                           ([[0, 1, 0], [0, 0, 1], [0, 0, 0]], False),
                           # entries that cancel over Z, as the dense product would see them
                           ([[1, 1], [-1, -1]], True)]:
            mat = IntMatrix.from_rows(rows)
            assert product_is_zero(mat, mat) == zero

    @settings(max_examples=60, deadline=None)
    @given(st.lists(st.lists(st.sampled_from([0, 0, 0, 1, -1, 2]), min_size=4, max_size=4),
                    min_size=4, max_size=4))
    def test_sparse_square_check_matches_the_dense_product(self, rows):
        mat = IntMatrix.from_rows(rows)
        assert product_is_zero(mat, mat) == is_zero_matrix(mat.mul(mat))

    def test_euler_config_names_the_coincident_pair(self, tmp_path):
        config = tmp_path / "c.json"
        config.write_text(json.dumps([[1, "1/2"], [3, 4], [3, 4], [1, "1/2"]]))
        report = run(parse(["euler", "--config", str(config)]))
        assert not report.passed and report.claim == "structured failure"
        assert report.payload == {"error": "points 0 and 3 coincide"}

    @pytest.mark.parametrize("rows", [[[1, "1/2"], [3, 4], [0, 2]],  # all 6 relabellings
                                      [[k, k * k] for k in range(7)]])  # 24 drawn ones
    def test_euler_config_evaluates_the_section_once_per_relabelling(self, tmp_path,
                                                                      monkeypatch, rows):
        from entriv import euler_section

        calls = []
        real = euler_section.section_eval
        monkeypatch.setattr(euler_section, "section_eval", lambda c: calls.append(c) or real(c))
        config = tmp_path / "c.json"
        config.write_text(json.dumps(rows))
        report = run(parse(["euler", "--config", str(config)]))
        assert report.passed
        assert len(calls) == 1 + report.payload["equivariance_checked"]

    @staticmethod
    def _fails_naming(argv, error, capsys):
        """main exits 1 with a structured failure whose error is `error`."""
        capsys.readouterr()
        assert main(argv) == 1
        report = json.loads(capsys.readouterr().out)
        assert report["claim"] == "structured failure"
        assert report["payload"] == {"error": error}

    @pytest.mark.parametrize("ranks, d1, error", [
        ({"0": 1, "1": 1}, [[2.5]], "matrix entry 2.5 is not an integer"),
        ({"0": 1, "1": 1}, [["2"]], "matrix entry '2' is not an integer"),
        ({"0": 1, "1": 1}, [[True]], "matrix entry True is not an integer"),
        ({"0": 1, "1": 1.0}, [[2]], "rank 1.0 in degree 1 is not an integer"),
    ])
    def test_complex_file_numbers_are_not_truncated(self, tmp_path, capsys, ranks, d1, error):
        bad = tmp_path / "cx.json"
        bad.write_text(json.dumps({"ranks": ranks, "differentials": {"1": d1}}))
        self._fails_naming(["formality", "--input", str(bad)], error, capsys)

    def test_negative_rank_is_a_structured_failure(self, tmp_path, capsys):
        bad = tmp_path / "cx.json"
        bad.write_text(json.dumps({"ranks": {"0": -2, "1": 1, "2": 1},
                                   "differentials": {"1": [], "2": [[2]]}}))
        self._fails_naming(["formality", "--input", str(bad)],
                           "rank -2 in degree 0 is negative", capsys)

    @pytest.mark.parametrize("rows, error", [
        ([[0.5], [1.5]], "coordinate 0.5 is neither an integer nor an 'a/b' string"),
        ([[True], [2]], "coordinate True is neither an integer nor an 'a/b' string"),
        ([["1/0"], [2]], "coordinate '1/0' is neither an integer nor an 'a/b' string"),
        ([1, 2], "--config must hold a JSON array of point arrays"),
        # an exponent string of 9 bytes would otherwise build a 3,000,001-digit numerator
        ([["1e3000000"], [2]], "coordinate '1e3000000' is neither an integer nor an 'a/b' string"),
        ([["2.5"], [1]], "coordinate '2.5' is neither an integer nor an 'a/b' string"),
    ])
    def test_config_numbers_are_not_truncated(self, tmp_path, capsys, rows, error):
        config = tmp_path / "c.json"
        config.write_text(json.dumps(rows))
        self._fails_naming(["euler", "--config", str(config)], error, capsys)

    @pytest.mark.parametrize("rows, error", [
        ([[0.5]] * (MAX_T + 1), f"--config holds {MAX_T + 1} points, over the cap of {MAX_T}"),
        ([[0.5] * (MAX_M + 1), [1]],
         f"--config has a point of {MAX_M + 1} coordinates, over the cap of {MAX_M}"),
    ])
    def test_config_size_caps(self, tmp_path, capsys, rows, error):
        # the float coordinates show that the caps are checked before any is read
        config = tmp_path / "c.json"
        config.write_text(json.dumps(rows))
        self._fails_naming(["euler", "--config", str(config)], error, capsys)

    @pytest.mark.parametrize("rows", [[[k] for k in range(MAX_T)],
                                      [[0] * MAX_M, [1] * MAX_M]])
    def test_config_caps_admit_their_bounds(self, tmp_path, rows):
        config = tmp_path / "c.json"
        config.write_text(json.dumps(rows))
        report = run(parse(["euler", "--config", str(config)]))
        assert report.passed and report.payload["points"] == [[str(x) for x in pt] for pt in rows]

    @pytest.mark.parametrize("key, value, error", [
        ("truncation", 2.9, "truncation 2.9 is not an integer"),
        ("n", "2", "module entry '2' is not an integer"),
    ])
    def test_sequence_file_numbers_are_not_truncated(self, tmp_path, capsys, key, value, error):
        seq = json.loads((ROOT / "manifests/inputs/pair_a.json").read_text())
        if key == "truncation":
            seq["truncation"] = value
        else:
            seq["components"]["2"]["0"][key] = value
        bad = tmp_path / "s.json"
        bad.write_text(json.dumps(seq))
        self._fails_naming(["suspend", "--input", str(bad), "--k", "1"], error, capsys)

    @pytest.mark.parametrize("doc", [{}, {"ranks": 5}, {"ranks": {"0": 1}, "differentials": 7},
                                     [1, 2], {"ranks": {"0": 1}, "differentials": {"1": 7}}])
    def test_malformed_complex_file_is_a_structured_failure(self, tmp_path, capsys, doc):
        bad = tmp_path / "cx.json"
        bad.write_text(json.dumps(doc))
        self._fails_naming(["formality", "--input", str(bad)],
                           'a chain complex is a JSON object: "ranks" maps degrees to ranks '
                           'and "differentials" maps degrees to lists of rows', capsys)

    @pytest.mark.parametrize("field, error", [
        ("free", "table entry 1.0 at 0,0 is not an integer"),
        ("torsion", "table entry 2.0 at 1,-4 is not an integer"),
    ])
    def test_golden_table_numbers_are_not_truncated(self, tmp_path, capsys, field, error):
        # the table of this very command, with one number written as a float
        argv = ["hh", "--ring", "Z", "--n", "2", "--smax", "2"]
        table = run(parse(argv)).payload["table"]
        if field == "free":
            table["0,0"]["free"] = 1.0
        else:
            table["1,-4"]["torsion"] = [2.0]
        golden = tmp_path / "golden.json"
        golden.write_text(json.dumps(table))
        self._fails_naming(argv + ["--golden", str(golden)], error, capsys)

    @pytest.mark.parametrize("doc, error", [
        ([{"0,0": 1}], 'a bigraded table is a JSON object keyed "s,t"'),
        ({"0,0": 1}, "malformed bigraded entry '0,0': TypeError"),
        ({"0": {"free": 1, "torsion": []}}, "malformed bigraded entry '0': ValueError"),
        ({"0,0": {"free": 1}}, "malformed bigraded entry '0,0': KeyError"),
    ])
    def test_malformed_golden_table_is_a_structured_failure(self, tmp_path, capsys, doc, error):
        golden = tmp_path / "golden.json"
        golden.write_text(json.dumps(doc))
        capsys.readouterr()
        assert main(["hh", "--ring", "Z", "--n", "2", "--smax", "2", "--golden", str(golden)]) == 1
        report = json.loads(capsys.readouterr().out)
        assert report["claim"] == "structured failure"
        assert report["payload"]["error"].startswith(error)

    def test_unknown_family_is_a_usage_error(self, capsys):
        assert main(["extpow", "--prime", "3", "--n", "2", "--family", "e3"]) == 2
        assert "e3" in capsys.readouterr().err

    @staticmethod
    def _arity_one_sequence(path, dim):
        path.write_text(json.dumps({"truncation": 2, "components": {
            "1": {"0": {"n": 1, "dim": dim, "generators": []}}}}))
        return str(path)

    def test_arity_one_dimension_is_not_materialized(self, tmp_path, capsys):
        # an arity-1 module's dimension is bound by no other data in the file
        seq = self._arity_one_sequence(tmp_path / "s.json", 10 ** 30)
        start = time.perf_counter()
        assert main(["suspend", "--input", seq, "--k", "1"]) == 0
        self._fails_naming(["compose", "--input", seq, seq, "--truncate", "2"],
                           f"the product has {10 ** 60} basis elements, "
                           f"over the cap of {MAX_COMPOSE_BASIS}", capsys)
        assert time.perf_counter() - start < 1.0
        negative = self._arity_one_sequence(tmp_path / "n.json", -3)
        self._fails_naming(["suspend", "--input", negative, "--k", "1"],
                           "module dimension -3 is negative", capsys)

    def test_compose_basis_cap_admits_its_bound(self, tmp_path):
        seq = self._arity_one_sequence(tmp_path / "s.json", 316)  # 316^2 <= cap < 317^2
        assert run(parse(["compose", "--input", seq, seq, "--truncate", "1"])).passed

    def test_markdown_rendering(self):
        report = run(parse(["theta", "--n", "2", "--prime", "2"]))
        text = report.render("md")
        assert text.startswith("# theta") and "pass: yes" in text


# Seeded euler sweeps in both draw modes: t from 2 to 1000, passes and
# crowded-grid give-ups (--m 1 at --t 200 and 300 under --float).
_EULER_PIN = [
    ("1", "2", "50", "0"), ("1", "2", "50", "9"), ("2", "3", "40", "5"),
    ("3", "4", "30", "11"), ("16", "2", "20", "42"), ("5", "7", "20", "9"),
    ("2", "30", "5", "1"), ("1", "300", "10", "0"), ("2", "300", "3", "42"),
    ("1", "200", "2", "9"), ("4", "1000", "1", "0"), ("16", "3", "10", "3"),
]


class TestEulerGolden:
    """Pinned euler reports, with and without --float, in json and md."""

    def test_reports(self):
        digest = hashlib.sha256()
        for m, t, samples, seed in _EULER_PIN:
            for extra in ([], ["--float"]):
                argv = ["euler", "--m", m, "--t", t, "--samples", samples, "--seed", seed]
                report = run(parse(argv + extra))
                for fmt in ("json", "md"):
                    digest.update(report.render(fmt).encode())
        assert digest.hexdigest() == \
            "d06ae58ceb96c5a1bfbc051f63b7d01b676d55b2a24d646057f1488d7785bccf"


# One configuration checked under all 3! relabellings, one under 24 seeded ones.
_CONFIG_PIN = [
    ([[1, "1/2"], [3, 4], ["-2/3", 0]], "0"),
    ([[0, 1, 2], [1, "1/2", -3], [2, "-5/7", 4], ["3/2", 0, 1], [-1, -1, "2/9"],
      [5, "1/11", 0], ["-4/3", 2, 7]], "5"),
]


class TestEulerConfigGolden:
    """Pinned `euler --config` reports in json and md; the file's path in the
    parameters is replaced by a fixed name."""

    def test_reports(self, tmp_path):
        digest = hashlib.sha256()
        for rows, seed in _CONFIG_PIN:
            config = tmp_path / "config.json"
            config.write_text(json.dumps(rows))
            report = run(parse(["euler", "--config", str(config), "--seed", seed]))
            assert report.passed
            report = dataclasses.replace(
                report, parameters={**report.parameters, "config": "config.json"})
            for fmt in ("json", "md"):
                digest.update(report.render(fmt).encode())
        assert digest.hexdigest() == \
            "9d754b131ed316d01995d95e12a47e01eb6ed0a64711b42f47523aee39942715"


class TestMain:
    def test_exit_codes(self, tmp_path, capsys):
        out = tmp_path / "r.json"
        assert main(["theta", "--n", "3", "--prime", "2", "--out", str(out)]) == 0
        assert json.loads(out.read_text())["pass"] is True
        assert main(["ku-ses", "--prime", "2", "--n", "0"]) == 2
        capsys.readouterr()

    @pytest.mark.parametrize("argv", [
        ["steenrod", "sq", "--sphere", "0"],
        ["steenrod", "sq", "--sphere", "2", "--k", "-1"],
        ["stunted", "sq", "--range=0:4", "--k", "-1"],
    ], ids=" ".join)
    def test_value_below_its_lower_bound_is_a_usage_error(self, argv, capsys):
        # caught by the parser, not left to fail inside the computation
        assert main(argv) == 2
        assert capsys.readouterr().err.startswith("usage error: ")

    @pytest.mark.parametrize("target", ["missing/dir/r.json", "."])
    def test_unwritable_out_is_a_usage_error(self, tmp_path, capsys, target):
        # a path under a missing directory, and a directory itself
        capsys.readouterr()
        assert main(["theta", "--n", "2", "--prime", "3", "--out", str(tmp_path / target)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("usage error: cannot write --out: ")
        assert "Traceback" not in captured.err

    @pytest.mark.parametrize("argv", [
        ["euler", "--config", ""],  # not the sampled sweep, which has no --m and --t
        ["hh", "--ring", "Z", "--n", "1", "--smax", "0", "--golden", ""],  # not skipped
    ], ids=" ".join)
    def test_empty_file_name_is_a_structured_failure(self, argv, capsys):
        assert main(argv) == 1
        assert "No such file" in json.loads(capsys.readouterr().out)["payload"]["error"]

    def test_failing_command_exits_one(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps({"ranks": {"0": 1, "1": 1},
                                   "differentials": {"1": [[1, 1]]}}))
        assert main(["formality", "--input", str(bad), "--out",
                     str(tmp_path / "o.json")]) == 1

    @pytest.mark.parametrize("fmt", ["json", "md"])
    def test_unrenderable_payload_is_a_structured_failure(self, monkeypatch, capsys, fmt):
        # str() refuses integers over sys.get_int_max_str_digits() digits
        monkeypatch.setitem(cli._HANDLERS, "theta",
                            lambda params: (True, {"order": 10 ** 5000}, "a huge order"))
        capsys.readouterr()
        assert main(["theta", "--n", "3", "--prime", "2", "--format", fmt]) == 1
        out = capsys.readouterr().out
        if fmt == "json":
            report = json.loads(out)
            assert (report["pass"], report["claim"]) == (False, "structured failure")
            assert report["payload"]["error"].startswith("the report cannot be rendered: ")
        else:
            assert "* claim: structured failure" in out and "* pass: NO" in out


class TestRepeatedKeys:
    """"0" and "00" name one degree; a file that uses both is a usage error,
    not a document whose later key silently replaces the earlier."""

    def write(self, tmp_path, doc):
        path = tmp_path / "doc.json"
        path.write_text(json.dumps(doc))
        return str(path)

    @pytest.mark.parametrize("doc", [
        {"ranks": {"0": 1, "00": 2}, "differentials": {}},
        {"ranks": {"0": 1, "1": 1}, "differentials": {"1": [[2]], "+1": [[3]]}},
    ])
    def test_formality(self, tmp_path, capsys, doc):
        assert main(["formality", "--input", self.write(tmp_path, doc)]) == 2
        assert "both name degree" in capsys.readouterr().err

    @pytest.mark.parametrize("components, what", [
        ({"1": {"0": {"n": 1, "dim": 1, "generators": []},
                "00": {"n": 1, "dim": 2, "generators": []}}}, "degree"),
        ({"1": {"0": {"n": 1, "dim": 1, "generators": []}},
          "01": {"0": {"n": 1, "dim": 2, "generators": []}}}, "arity"),
    ])
    def test_sequences(self, tmp_path, capsys, components, what):
        path = self.write(tmp_path, {"truncation": 2, "components": components})
        assert main(["suspend", "--input", path, "--k", "1"]) == 2
        assert main(["compose", "--input", path, path, "--truncate", "1"]) == 2
        assert f"both name {what}" in capsys.readouterr().err

    def test_hochschild_golden(self, tmp_path, capsys):
        golden = json.loads((ROOT / "tests/golden/hh_Z_n2_s6.json").read_text())
        golden["00,0"] = golden["0,0"]
        path = self.write(tmp_path, golden)
        argv = ["hh", "--ring", "Z", "--n", "2", "--smax", "6", "--golden", path]
        assert main(argv) == 2
        assert "repeats bidegree 0,0" in capsys.readouterr().err

    def test_batch_entry_fails_alone(self, tmp_path, capsys):
        path = self.write(tmp_path, {"ranks": {"0": 1, "00": 2}, "differentials": {}})
        manifest = tmp_path / "m.json"
        manifest.write_text(json.dumps([{"argv": ["formality", "--input", path]},
                                        {"argv": ["theta", "--n", "2", "--prime", "3"]}]))
        assert main(["batch", "--manifest", str(manifest)]) == 1
        out = json.loads(capsys.readouterr().out)
        assert out["payload"]["failed_indices"] == [0]
        assert out["payload"]["reports"][0]["claim"] == "usage error"


class TestBatch:
    def test_empty_manifest(self, tmp_path):
        manifest = tmp_path / "m.json"
        manifest.write_text("[]")
        report = run(Command("batch", {"manifest": str(manifest), "seed": None},
                             "json", None))
        assert report.passed and report.payload["commands"] == 0

    def test_failing_entry_fails_batch(self, tmp_path):
        golden = ROOT / "tests/golden/hh_Z_n2_s6.json"
        perturbed = json.loads(golden.read_text())
        perturbed["0,0"]["free"] = 5
        bad = tmp_path / "perturbed.json"
        bad.write_text(json.dumps(perturbed))
        manifest = tmp_path / "m.json"
        manifest.write_text(json.dumps([
            {"argv": ["hh", "--ring", "Z", "--n", "2", "--smax", "6",
                      "--golden", str(bad)]}]))
        assert main(["batch", "--manifest", str(manifest),
                     "--out", str(tmp_path / "o.json")]) == 1
        out = json.loads((tmp_path / "o.json").read_text())
        assert out["payload"]["failed_indices"] == [0]

    def test_sequence_without_components_is_a_structured_failure(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps({"truncation": 3}))
        pair = str(ROOT / "manifests/inputs/pair_a.json")
        assert main(["suspend", "--input", str(bad), "--k", "1"]) == 1
        report = json.loads(capsys.readouterr().out)
        assert report["claim"] == "structured failure"
        assert "components" in report["payload"]["error"]
        manifest = tmp_path / "m.json"
        manifest.write_text(json.dumps([
            {"argv": ["compose", "--input", str(bad), pair, "--truncate", "2"]},
            {"argv": ["theta", "--n", "2", "--prime", "3"]},
            {"argv": ["suspend", "--input", pair, "--k", "1"]}]))
        assert main(["batch", "--manifest", str(manifest)]) == 1
        out = json.loads(capsys.readouterr().out)
        assert out["payload"]["commands"] == 3
        assert out["payload"]["failed_indices"] == [0]
        assert [r["pass"] for r in out["payload"]["reports"]] == [False, True, True]

    def test_usage_error_entry_fails_alone(self, tmp_path, capsys):
        manifest = tmp_path / "m.json"
        manifest.write_text(json.dumps([
            {"argv": ["theta", "--n", "2", "--prime", "4"]},
            {"argv": ["theta", "--n", "2", "--prime", "3"]}]))
        assert main(["batch", "--manifest", str(manifest)]) == 1
        out = json.loads(capsys.readouterr().out)
        assert out["payload"]["commands"] == 2
        assert out["payload"]["failed_indices"] == [0]
        bad, good = out["payload"]["reports"]
        assert bad["pass"] is False and bad["claim"] == "usage error"
        assert "not a prime" in bad["payload"]["error"]
        assert good["pass"] is True and good["payload"]["value"] == 3

    def test_transfer_window_without_degree_minus_one_fails_alone(self, tmp_path, capsys):
        manifest = tmp_path / "m.json"
        manifest.write_text(json.dumps([
            {"argv": ["transfer", "--prime", "3", "--window=0:5"]},
            {"argv": ["transfer", "--prime", "3", "--window=-1:-1"]}]))
        assert main(["batch", "--manifest", str(manifest)]) == 1
        out = json.loads(capsys.readouterr().out)
        assert out["payload"]["failed_indices"] == [0]
        bad, good = out["payload"]["reports"]
        assert bad["claim"] == "usage error" and "degree -1" in bad["payload"]["error"]
        assert good["pass"] is True

    @pytest.mark.parametrize("flag", ["-h", "--help", "--he"])
    def test_help_entry_fails_alone(self, tmp_path, capsys, flag):
        manifest = tmp_path / "m.json"
        manifest.write_text(json.dumps([
            {"argv": ["theta", "--n", "2", "--prime", "3", flag]},
            {"argv": ["theta", "--n", "2", "--prime", "3"]}]))
        assert main(["batch", "--manifest", str(manifest)]) == 1
        out = json.loads(capsys.readouterr().out)
        assert out["payload"]["failed_indices"] == [0]
        assert out["payload"]["reports"][0]["claim"] == "usage error"

    def test_batch_entry_fails_alone(self, tmp_path, capsys):
        # the second entry names the manifest itself, which used to recurse
        manifest = tmp_path / "m.json"
        manifest.write_text(json.dumps([
            {"argv": ["theta", "--n", "2", "--prime", "3"]},
            {"argv": ["batch", "--manifest", str(manifest)]},
            {"argv": ["theta", "--n", "2", "--prime", "5"]}]))
        assert main(["batch", "--manifest", str(manifest)]) == 1
        out = json.loads(capsys.readouterr().out)
        assert out["payload"]["commands"] == 3
        assert out["payload"]["failed_indices"] == [1]
        first, nested, last = out["payload"]["reports"]
        assert nested["claim"] == "usage error" and nested["verb"] == "batch"
        assert "cannot itself be batch" in nested["payload"]["error"]
        assert first["pass"] is True and last["pass"] is True

    @pytest.mark.parametrize("flags", [["--out", "written.json"], ["--format", "md"],
                                       ["--format=json"], ["--ou", "written.json"]])
    def test_entry_with_out_or_format_fails_alone(self, tmp_path, capsys, monkeypatch, flags):
        # batch renders every entry into its own report: an entry's --out or
        # --format would be ignored, so it is that entry's usage error
        monkeypatch.chdir(tmp_path)
        manifest = tmp_path / "m.json"
        manifest.write_text(json.dumps([
            {"argv": ["theta", "--n", "2", "--prime", "3", *flags]},
            {"argv": ["theta", "--n", "2", "--prime", "3"]}]))
        assert main(["batch", "--manifest", str(manifest)]) == 1
        out = json.loads(capsys.readouterr().out)
        assert out["payload"]["failed_indices"] == [0]
        bad, good = out["payload"]["reports"]
        assert bad["claim"] == "usage error" and "--out or --format" in bad["payload"]["error"]
        assert good["pass"] is True
        assert not (tmp_path / "written.json").exists()

    @pytest.mark.parametrize("fmt", ["json", "md"])
    def test_unrenderable_entry_fails_alone(self, tmp_path, capsys, monkeypatch, fmt):
        # str() refuses integers over sys.get_int_max_str_digits() digits
        monkeypatch.setitem(cli._HANDLERS, "theta",
                            lambda params: (True, {"order": 10 ** 5000}, "a huge order"))
        manifest = tmp_path / "m.json"
        manifest.write_text(json.dumps([
            {"argv": ["ku-ses", "--prime", "3", "--n", "3"]},
            {"argv": ["theta", "--n", "3", "--prime", "2"]},
            {"argv": ["ku-ses", "--prime", "5", "--n", "2"]}]))
        assert main(["batch", "--manifest", str(manifest), "--format", fmt,
                     "--out", str(tmp_path / "o.txt")]) == 1
        text = (tmp_path / "o.txt").read_text()
        if fmt == "md":
            assert "* pass: NO" in text and '"failed_indices": [\n  1\n ]' in text
            text = text.split("```json\n")[1].split("```")[0]
            out = {"payload": json.loads(text)}
        else:
            out = json.loads(text)
        assert out["payload"]["failed_indices"] == [1]
        first, huge, last = out["payload"]["reports"]
        assert (huge["verb"], huge["pass"], huge["claim"]) == ("theta", False, "structured failure")
        assert huge["payload"]["error"].startswith("the report cannot be rendered: ")
        assert first["pass"] is True and first["payload"]["certificate"]["snf"]["diagonal"] == [1, 9]
        assert last["pass"] is True

    def test_entry_without_argv_is_a_usage_error(self, tmp_path, capsys):
        # each entry with no argv list fails alone; the others still run
        manifest = tmp_path / "m.json"
        manifest.write_text(json.dumps([
            {"args": ["theta"]}, {"argv": ["theta", "--n", "2", "--prime", "3"]},
            {"x": 1}, 5, ["theta", "--n", "2", "--prime", "5"]]))
        assert main(["batch", "--manifest", str(manifest)]) == 1
        out = json.loads(capsys.readouterr().out)
        assert out["payload"]["failed_indices"] == [0, 2, 3]
        reports = out["payload"]["reports"]
        for idx in (0, 2, 3):
            assert (reports[idx]["verb"], reports[idx]["claim"]) == ("", "usage error")
            assert reports[idx]["payload"]["error"] == f"manifest entry {idx} has no argv list"
        assert reports[1]["pass"] is True and reports[4]["pass"] is True

    def test_seed_inheritance(self, tmp_path):
        manifest = tmp_path / "m.json"
        manifest.write_text(json.dumps([{"argv": ["euler", "--m", "1", "--t", "2",
                                                  "--samples", "20"]}]))
        a = run(parse(["batch", "--manifest", str(manifest), "--seed", "4"]))
        b = run(parse(["batch", "--manifest", str(manifest), "--seed", "4"]))
        c = run(parse(["batch", "--manifest", str(manifest), "--seed", "5"]))
        assert a.render("json") == b.render("json")
        assert a.payload["reports"][0]["parameters"]["seed"] == 4
        assert c.payload["reports"][0]["parameters"]["seed"] == 5

    @pytest.mark.parametrize("own, want", [(["--seed=7"], 7), (["--seed", "7"], 7),
                                           (["--se", "7"], 7), ([], 4)],
                             ids=["--seed=7", "--seed 7", "--se 7", "no seed"])
    def test_entry_seed_beats_the_batch_seed(self, tmp_path, own, want):
        manifest = tmp_path / "m.json"
        manifest.write_text(json.dumps([{"argv": ["euler", "--m", "1", "--t", "2",
                                                  "--samples", "20", *own]}]))
        rpt = run(parse(["batch", "--manifest", str(manifest), "--seed", "4"]))
        assert rpt.passed
        assert rpt.payload["reports"][0]["parameters"]["seed"] == want


def _sized(cap, small=8):
    """Integers below, at, around and far beyond a cap."""
    return st.one_of(st.integers(-2, small), st.integers(cap - 2, cap + 2),
                     st.integers(cap + 1, 10 ** 30), st.integers(-10 ** 30, -3))


_PRIMES = st.one_of(st.sampled_from([2, 3, 5, 7, 1000000007, 2 ** 61 - 1, MAX_PRIME - 58]),
                    _sized(MAX_PRIME, 40))


def _window(cap):
    return st.tuples(_sized(cap, 40), st.integers(-40, 40)).map(
        lambda w: f"--window={-abs(w[0]) + w[1]}:{w[1]}")


# In-cap euler sweeps are drawn up to this much work, samples * t * (m + t):
# a sample costs about t * m, and --float draws from a coarse grid, where
# redraws grow like t^2.  A sweep at t near MAX_T keeps one sample.  The
# slowest example measured, --m 1 --t 1000 --samples 1 --float, gives up after
# 100 draws in 0.64 s in-process; --m 16 --t 2 --samples 1111 took 0.34 s
# (Python 3.11, 2 vCPUs).
FUZZ_EULER_WORK = 40_000


@st.composite
def _euler(draw):
    m, t = draw(_sized(MAX_M)), draw(_sized(MAX_T))
    in_cap = max(1, FUZZ_EULER_WORK // max(1, t * (m + t)))
    samples = draw(st.one_of(st.integers(-2, in_cap), st.integers(MAX_SAMPLES + 1, 10 ** 30)))
    return ("euler", "--m", m, "--t", t, "--samples", samples,
            "--seed", draw(st.integers(-10 ** 20, 10 ** 20)),
            draw(st.sampled_from(["--float", "--format=md"])))


_ARGV = st.one_of(
    st.tuples(st.just("theta"), st.just("--n"), _sized(MAX_N), st.just("--prime"), _PRIMES),
    st.tuples(st.sampled_from(["witness", "ku-ses"]), st.just("--prime"), _PRIMES,
              st.just("--n"), _sized(MAX_N)),
    st.tuples(st.just("moore"), st.just("--prime"), _PRIMES),
    st.tuples(st.just("transfer"), st.just("--prime"), _PRIMES, _window(MAX_WINDOW_WIDTH)),
    st.tuples(st.just("extpow"), st.just("--prime"), _PRIMES, st.just("--n"), _sized(MAX_N),
              st.just("--family"), st.sampled_from(FAMILIES),
              _window(MAX_WINDOW_WIDTH)),
    st.tuples(st.just("ses"), st.just("--prime"), _PRIMES, st.just("--n"), _sized(MAX_N),
              st.just("--which"), st.sampled_from(["first", "second"])),
    st.tuples(st.just("pushout"), st.just("--prime"), _PRIMES, st.just("--n"), _sized(MAX_N)),
    st.tuples(st.just("stunted"), st.sampled_from(["sq", "homology"]),
              _window(MAX_CELL_RANGE).map(lambda w: w.replace("window", "range")),
              st.just("--k"), _sized(MAX_K)),
    st.tuples(st.just("steenrod"), st.just("sq"), st.just("--sphere"), _sized(MAX_SPHERE),
              st.just("--k"), _sized(MAX_K)),
    st.tuples(st.just("steenrod"), st.just("witness"), st.just("--n"), _sized(MAX_N)),
    st.tuples(st.just("hh"), st.just("--ring"), st.sampled_from(["Z", "Q", "F2", "F3"]),
              st.just("--n"), _sized(MAX_N), st.just("--smax"), _sized(MAX_SMAX)),
    _euler(),
    st.tuples(st.just("suspend"), st.just("--input"),
              st.just(str(ROOT / "manifests/inputs/pair_a.json")), st.just("--k"),
              _sized(MAX_N)),
).map(lambda parts: [str(part) for part in parts])


class TestFuzz:
    """Verbs with integer parameters inside and outside the caps: main exits
    0, 1 or 2 and never raises; settings' deadline bounds every example."""

    @settings(max_examples=100, deadline=5000,
              suppress_health_check=[HealthCheck.too_slow])
    @given(_ARGV)
    def test_main_exits_cleanly(self, argv):
        with contextlib.redirect_stdout(io.StringIO()), \
                contextlib.redirect_stderr(io.StringIO()) as err:
            code = main(argv)
        assert code in (0, 1, 2), err.getvalue()


# Arbitrary JSON documents.  Keys are drawn partly from the file formats' own
# names, so that documents also get past the top-level shape checks.
_FORMAT_KEYS = ["ranks", "differentials", "truncation", "components", "n", "dim",
                "generators", "free", "torsion", "argv", "0", "1", "2", "0,0", "1,-4"]
_JSON_DOCS = st.recursive(
    st.none() | st.booleans() | st.integers(-2, 3) | st.integers() | st.floats()
    | st.text(max_size=4),
    lambda inner: st.lists(inner, max_size=4)
    | st.dictionaries(st.sampled_from(_FORMAT_KEYS) | st.text(max_size=4), inner, max_size=4),
    max_leaves=24)


class TestJsonFuzz:
    """Every verb that reads a JSON file, given an arbitrary document: main
    exits 0, 1 or 2 and never raises; settings' deadline bounds each document."""

    @settings(max_examples=100, deadline=5000,
              suppress_health_check=[HealthCheck.too_slow, HealthCheck.function_scoped_fixture])
    @given(_JSON_DOCS)
    def test_file_inputs_exit_cleanly(self, tmp_path, doc):
        path = tmp_path / "doc.json"
        path.write_text(json.dumps(doc))
        doc_file = str(path)
        for argv in (["formality", "--input", doc_file],
                     ["compose", "--input", doc_file, doc_file, "--truncate", "2"],
                     ["suspend", "--input", doc_file, "--k", "1"],
                     ["euler", "--config", doc_file],
                     ["hh", "--ring", "Z", "--n", "2", "--smax", "2", "--golden", doc_file],
                     ["batch", "--manifest", doc_file]):
            with contextlib.redirect_stdout(io.StringIO()), \
                    contextlib.redirect_stderr(io.StringIO()) as err:
                code = main(argv)
            assert code in (0, 1, 2), (argv, err.getvalue())

    @pytest.mark.parametrize("side, entry, code", [
        (64, 2 ** MAX_ENTRY_BITS - 1, 0),  # at both caps: 64 * 64 cells
        (65, 0, 2),  # one more row and column, even of zeros
        (2, 2 ** MAX_ENTRY_BITS, 2),
    ])
    def test_complex_size_caps(self, tmp_path, side, entry, code):
        assert 64 * 64 == MAX_COMPLEX_CELLS
        path = tmp_path / "cx.json"
        path.write_text(json.dumps({"ranks": {"0": side, "1": side}, "differentials": {
            "1": [[entry if i == j else 0 for j in range(side)] for i in range(side)]}}))
        with contextlib.redirect_stdout(io.StringIO()), \
                contextlib.redirect_stderr(io.StringIO()) as err:
            assert main(["formality", "--input", str(path)]) == code, err.getvalue()

    def test_manifest_complexes_are_under_the_caps(self):
        manifest = json.loads((ROOT / "manifests/acceptance.json").read_text())
        inputs = [entry["argv"][entry["argv"].index("--input") + 1] for entry in manifest
                  if entry["argv"][0] == "formality"]
        assert inputs
        for name in inputs:
            cells, bits = _complex_size(json.loads((ROOT / name).read_text()))
            assert cells <= MAX_COMPLEX_CELLS and bits <= MAX_ENTRY_BITS


@pytest.mark.parametrize("outer", [None, "elsewhere"])
def test_acceptance_script_runs_from_a_checkout(monkeypatch, outer):
    """Both subprocesses import the package from this checkout's src, and the
    batch run names the manifest relative to the root it runs in."""
    spec = importlib.util.spec_from_file_location("run_acceptance",
                                                  ROOT / "scripts" / "run_acceptance.py")
    script = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(script)
    if outer is None:
        monkeypatch.delenv("PYTHONPATH", raising=False)
    else:
        monkeypatch.setenv("PYTHONPATH", outer)
    calls = []
    monkeypatch.setattr(subprocess, "call", lambda argv, **kw: calls.append((argv, kw)) or 0)
    assert script.main() == 0
    (tests, tests_kw), (batch, batch_kw) = calls
    expected = os.pathsep.join([str(ROOT / "src")] + ([outer] if outer else []))
    assert tests_kw["env"]["PYTHONPATH"] == batch_kw["env"]["PYTHONPATH"] == expected
    assert tests[1:] == ["-m", "pytest", str(ROOT / "tests" / "test_acceptance.py"), "-q", "-s"]
    assert batch[1:] == ["-m", "entriv.cli", "batch", "--manifest", "manifests/acceptance.json",
                         "--out", str(ROOT / "acceptance_report.json")]
    assert batch_kw["cwd"] == ROOT
