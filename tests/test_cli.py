import json
import pathlib
import time

import pytest

from entriv.cli import (MAX_CELL_RANGE, MAX_N, MAX_SAMPLES, MAX_SMAX, MAX_WINDOW_WIDTH,
                        Command, UsageError, main, parse, run)

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
    ]

    @pytest.mark.parametrize("argv", OVERSIZED, ids=lambda a: " ".join(a[:2]))
    def test_oversized_value_exits_two_fast(self, argv, capsys):
        start = time.perf_counter()
        assert main(argv) == 2
        assert time.perf_counter() - start < 0.5
        assert "cap" in capsys.readouterr().err

    def test_caps_admit_their_bounds(self):
        parse(["transfer", "--prime", "3", f"--window=0:{MAX_WINDOW_WIDTH}"])
        parse(["stunted", "homology", f"--range=-1:{MAX_CELL_RANGE - 1}"])
        parse(["theta", "--n", str(MAX_N), "--prime", "3"])
        parse(["hh", "--ring", "Z", "--n", "2", "--smax", str(MAX_SMAX)])
        parse(["euler", "--m", "2", "--t", "3", "--samples", str(MAX_SAMPLES)])

    def test_caps_admit_the_acceptance_manifest(self):
        for entry in json.loads((ROOT / "manifests/acceptance.json").read_text()):
            parse(entry["argv"])


class TestRun:
    def test_ses_report(self):
        report = run(parse(["ses", "--prime", "3", "--n", "2", "--which", "first"]))
        assert report.passed
        assert report.payload["degrees"]["-4"] == {"A": 1, "B": 1, "C": 0}

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

    def test_markdown_rendering(self):
        report = run(parse(["theta", "--n", "2", "--prime", "2"]))
        text = report.render("md")
        assert text.startswith("# theta") and "pass: yes" in text


class TestMain:
    def test_exit_codes(self, tmp_path, capsys):
        out = tmp_path / "r.json"
        assert main(["theta", "--n", "3", "--prime", "2", "--out", str(out)]) == 0
        assert json.loads(out.read_text())["pass"] is True
        assert main(["ku-ses", "--prime", "2", "--n", "0"]) == 2
        capsys.readouterr()

    def test_failing_command_exits_one(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps({"ranks": {"0": 1, "1": 1},
                                   "differentials": {"1": [[1, 1]]}}))
        assert main(["formality", "--input", str(bad), "--out",
                     str(tmp_path / "o.json")]) == 1


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

    def test_entry_without_argv_is_a_usage_error(self, tmp_path):
        manifest = tmp_path / "m.json"
        manifest.write_text(json.dumps([{"args": ["theta"]}]))
        assert main(["batch", "--manifest", str(manifest)]) == 2

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
