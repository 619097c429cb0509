import json

import numpy as np
import pytest
from click.testing import CliRunner

import chaosmask as cm

from chaosmask import cli
from chaosmask.cli import main


@pytest.fixture()
def runner():
    return CliRunner()


@pytest.fixture(scope="module")
def toy(small_scenario_path):
    return str(small_scenario_path)


class TestDistanceCommand:
    def test_explicit_matrices(self, runner):
        result = runner.invoke(main, ["distance", "--A", "[[0.0]]", "--C", "[[1.0]]"])
        assert result.exit_code == 0
        delta = float(result.output.split("delta =")[1].splitlines()[0])
        assert delta == pytest.approx(1.0, abs=1e-6)

    def test_scenario_with_profile(self, runner, toy, tmp_path):
        out = tmp_path / "profile.csv"
        result = runner.invoke(main, ["distance", toy, "--n-grid", "300",
                                      "--profile-out", str(out)])
        assert result.exit_code == 0
        profile = np.genfromtxt(out, delimiter=",", names=True)
        assert profile["w"].size == 300

    def test_half_specified_matrices_exit_2(self, runner):
        result = runner.invoke(main, ["distance", "--A", "[[0.0]]"])
        assert result.exit_code == 2

    def test_missing_scenario_exit_2(self, runner):
        result = runner.invoke(main, ["distance", "definitely-not-a-scenario"])
        assert result.exit_code == 2

    def test_bad_json_exit_2(self, runner):
        result = runner.invoke(main, ["distance", "--A", "[[oops", "--C", "[[1.0]]"])
        assert result.exit_code == 2

    def test_lambda_row_mismatch_names_both_sizes(self, runner, small_scenario_text, tmp_path):
        path = tmp_path / "mismatch.yaml"
        path.write_text(small_scenario_text.replace(
            "    - [0.0, 0.0, 1.0]\n  xi0", "  xi0"))
        result = runner.invoke(main, ["distance", str(path), "--unscaled"])
        assert result.exit_code == 2
        assert "Lambda has 2 rows but the plant has 3 outputs" in result.output


class TestSynthesizeAndVerify:
    def test_synthesize_writes_gain(self, runner, toy, tmp_path):
        gain_path = tmp_path / "gain.json"
        result = runner.invoke(main, ["synthesize", toy, "--gain-out", str(gain_path)])
        assert result.exit_code == 0, result.output
        assert "margin =" in result.output
        payload = json.loads(gain_path.read_text())
        assert payload["margin"] < 0
        assert np.asarray(payload["L"]).shape == (5, 3)

        verify = runner.invoke(main, ["verify-gain", toy, "--gain", str(gain_path)])
        assert verify.exit_code == 0, verify.output
        assert "certified" in verify.output

    def test_unscaled_toy_infeasible_exit_1(self, runner, toy):
        # Without the coordinate rescaling the toy masker's Lipschitz constant
        # is far too large for any grid point to certify.
        result = runner.invoke(main, ["synthesize", toy, "--unscaled"])
        assert result.exit_code == 1

    def test_uncertifiable_gain_exit_1(self, runner, toy, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps({"L": (-5.0 * np.ones((5, 3))).tolist()}))
        result = runner.invoke(main, ["verify-gain", toy, "--gain", str(bad)])
        assert result.exit_code == 1

    def test_malformed_gain_file_exit_2(self, runner, toy, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text("{\"not_L\": 1}")
        result = runner.invoke(main, ["verify-gain", toy, "--gain", str(bad)])
        assert result.exit_code == 2


class TestSimulateAndCalibrate:
    def test_simulate_unmasked_none(self, runner, toy, tmp_path):
        result = runner.invoke(main, ["simulate", toy, "--attack", "none",
                                      "--unmasked", "--out", str(tmp_path)])
        assert result.exit_code == 0, result.output
        csvs = list(tmp_path.glob("*.csv"))
        assert len(csvs) == 2
        header = csvs[0].read_text().splitlines()[0]
        assert header.startswith("t,x_1")

    def test_simulate_masked_replay(self, runner, toy, tmp_path):
        result = runner.invoke(main, ["simulate", toy, "--attack", "replay",
                                      "--masked", "--out", str(tmp_path)])
        assert result.exit_code == 0, result.output
        assert "steady premise before replay: True" in result.output
        assert "first alarm: 3.0" in result.output

    def test_calibrate_unmasked(self, runner, toy):
        result = runner.invoke(main, ["calibrate", toy, "--unmasked"])
        assert result.exit_code == 0, result.output
        nu = float(result.output.split("nu =")[1].strip())
        assert nu > 0

    def test_unknown_attack_choice_exit_2(self, runner, toy):
        result = runner.invoke(main, ["simulate", toy, "--attack", "dos"])
        assert result.exit_code == 2

    def test_schema_error_exit_2(self, runner, tmp_path, small_scenario_text):
        bad = tmp_path / "bad.yaml"
        bad.write_text(small_scenario_text + "\nextra_section: {}\n")
        result = runner.invoke(main, ["calibrate", str(bad), "--unmasked"])
        assert result.exit_code == 2


#: (edit of the toy file or None, arguments with {toy} for its path, a word
#: the error message must contain).
INPUT_ERRORS = [
    (("replay: {tau: 1.0,", "replay: {tau: 1.0005,"),
     ["simulate", "{toy}", "--attack", "replay", "--unmasked"], "tau"),
    (("replay: {tau: 1.0,", "replay: {tau: soon,"), ["calibrate", "{toy}", "--unmasked"], "tau"),
    (("x0: [0.2, -0.1]", "x0: [0.2, -0.1, 0.0]"), ["calibrate", "{toy}", "--unmasked"], "x0"),
    (("direction: [1.0, 0.0, 0.0]", "direction: [0.0, 0.0, 0.0]"),
     ["simulate", "{toy}", "--attack", "fdi", "--unmasked"], "direction"),
    (None, ["distance", "--A", "[[0.0]]", "--C", "[[1.0]]", "--n-grid", "50"], "--n-grid"),
    (None, ["distance", "--A", "[[0.0]]", "--C", "[[1.0]]", "--w-max", "-1"], "--w-max"),
    (None, ["distance", "--A", "[[0.0, 1.0]]", "--C", "[[1.0, 0.0]]"], "--A"),
    (None, ["calibrate", "{toy}", "--unmasked", "--safety", "0.5"], "--safety"),
    (None, ["simulate", "{toy}", "--unmasked", "--attack", "fdi", "--M", "-1"], "--M"),
]


@pytest.mark.parametrize("edit, args, named", INPUT_ERRORS,
                         ids=["replay-off-grid", "replay-not-a-number", "x0-length",
                              "zero-fdi-direction", "n-grid", "w-max", "nonsquare-A",
                              "safety", "fdi-M"])
def test_input_error_exit_2(runner, small_scenario_text, tmp_path, edit, args, named):
    text = small_scenario_text
    if edit is not None:
        assert edit[0] in text
        text = text.replace(*edit)
    path = tmp_path / "toy.yaml"
    path.write_text(text)
    result = runner.invoke(main, [a.replace("{toy}", str(path)) for a in args])
    assert result.exit_code == 2, result.output
    assert named in result.output


def test_reproduce_paper_on_toy(runner, small_scenario_text, tmp_path, monkeypatch):
    # A shorter masker box than the toy file's keeps this test fast.
    box = "box: {t_settle: 20.0, t_obs: 30.0"
    assert box in small_scenario_text
    path = tmp_path / "toy.yaml"
    path.write_text(small_scenario_text.replace(box, "box: {t_settle: 2.0, t_obs: 5.0"))
    runs = []

    def counting_run(scenario):
        runs.append(scenario.name)
        return cm.run_scenario(scenario)
    monkeypatch.setattr(cli, "run_scenario", counting_run)
    out = tmp_path / "out"
    result = runner.invoke(main, ["reproduce-paper", "--scenario", str(path),
                                  "--out", str(out)])
    assert result.exit_code == 0, result.output

    traces = [f"toy-{side}-{attack}{suffix}.csv" for side in ("masked", "unmasked")
              for attack in ("eavesdrop", "replay", "fdi") for suffix in ("", "-clean")]
    traces += ["toy-masked-none.csv", "toy-masked-none-clean.csv"]
    assert sorted(p.name for p in out.iterdir()) == sorted(
        traces + ["distance_profile_scaled.csv", "distance_profile_unscaled.csv",
                  "gain.json", "summary.txt"])
    assert len(runs) == 12

    none_clean = (out / "toy-masked-none-clean.csv").read_text()
    assert none_clean == (out / "toy-masked-eavesdrop-clean.csv").read_text()
    none = (out / "toy-masked-none.csv").read_text()
    header = none.splitlines()[0].split(",")
    keep = [j for j, name in enumerate(header) if name != "alarm"]
    assert len(keep) == len(header) - 1
    for a, b in zip(none.splitlines(), none_clean.splitlines(), strict=True):
        a, b = a.split(","), b.split(",")
        assert [a[j] for j in keep] == [b[j] for j in keep]
