import json
import re

import numpy as np
import pytest
from click.testing import CliRunner

import chaosmask as cm

from chaosmask import cli, models, scenario_file
from chaosmask.cli import main
from chaosmask.sim import masker_loop


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
        lines = result.output.splitlines()
        assert [line.split(" = ")[0] for line in lines] == ["delta", "delta_hi", "w_star"]
        delta = float(result.output.split("delta =")[1].splitlines()[0])
        assert delta == pytest.approx(1.0, abs=1e-6)
        delta_hi = float(result.output.split("delta_hi =")[1].splitlines()[0])
        assert delta <= delta_hi == pytest.approx(1.0, abs=1e-12)

    def test_scenario_with_profile(self, runner, toy, tmp_path):
        out = tmp_path / "profile.csv"
        result = runner.invoke(main, ["distance", toy, "--n-grid", "300",
                                      "--profile-out", str(out)])
        assert result.exit_code == 0
        profile = np.genfromtxt(out, delimiter=",", names=True)
        assert profile["w"].size == 300
        # delta is printed to 10 significant digits.
        delta = float(result.output.split("delta =")[1].splitlines()[0])
        assert delta <= np.min(profile["sigma_min"]) * (1.0 + 1e-9)

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

    def test_simulate_eavesdrop_reports_averaged_window(self, runner, toy, tmp_path):
        # The toy run lasts 5 s, so the "last-10s" mean covers all of it.
        result = runner.invoke(main, ["simulate", toy, "--attack", "eavesdrop",
                                      "--unmasked", "--out", str(tmp_path)])
        assert result.exit_code == 0, result.output
        line = next(s for s in result.output.splitlines() if "last-10s mean error" in s)
        assert line.endswith(" over [0, 5] s"), line

    def test_calibrate_unmasked(self, runner, toy):
        result = runner.invoke(main, ["calibrate", toy, "--unmasked"])
        assert result.exit_code == 0, result.output
        nu = float(result.output.split("nu =")[1].strip())
        assert nu > 0

    def test_calibrate_reports_explicit_nu(self, runner, small_scenario_text, tmp_path):
        # An explicit detector.nu is the threshold simulate uses, so calibrate
        # prints it too; --safety still calibrates on the clean run.
        det = "detector:\n  calibrate_safety: 4.0"
        assert det in small_scenario_text
        path = tmp_path / "toy.yaml"
        path.write_text(small_scenario_text.replace(det, "detector:\n  nu: 0.5"))
        out = {}
        for label, args in (("file", []), ("safety", ["--safety", "4.0"])):
            result = runner.invoke(main, ["calibrate", str(path), "--unmasked", *args])
            assert result.exit_code == 0, result.output
            out[label] = float(result.output.split("nu =")[1].strip())
        sim = runner.invoke(main, ["simulate", str(path), "--unmasked", "--attack", "none",
                                   "--out", str(tmp_path)])
        assert sim.exit_code == 0, sim.output
        assert "nu = 0.5\n" in sim.output
        assert out["file"] == 0.5
        assert 0 < out["safety"] < 0.5

    def test_unknown_attack_choice_exit_2(self, runner, toy):
        result = runner.invoke(main, ["simulate", toy, "--attack", "dos"])
        assert result.exit_code == 2

    def test_schema_error_exit_2(self, runner, tmp_path, small_scenario_text):
        bad = tmp_path / "bad.yaml"
        bad.write_text(small_scenario_text + "\nextra_section: {}\n")
        result = runner.invoke(main, ["calibrate", str(bad), "--unmasked"])
        assert result.exit_code == 2


#: (edit of the toy file or None, arguments with {toy} for its path and
#: {gain} for a gain file whose L is 1 x 2, a word the error message must
#: contain).
INPUT_ERRORS = [
    (("replay: {tau: 1.0,", "replay: {tau: 1.0005,"),
     ["simulate", "{toy}", "--attack", "replay", "--unmasked"], "tau"),
    (("replay: {tau: 1.0,", "replay: {tau: soon,"), ["calibrate", "{toy}", "--unmasked"], "tau"),
    (("x0: [0.2, -0.1]", "x0: [0.2, -0.1, 0.0]"), ["calibrate", "{toy}", "--unmasked"], "x0"),
    (("direction: [1.0, 0.0, 0.0]", "direction: [0.0, 0.0, 0.0]"),
     ["simulate", "{toy}", "--attack", "fdi", "--unmasked"], "direction"),
    (None, ["distance", "--A", "[[0.0]]", "--C", "[[1.0]]", "--n-grid", "50"], "--n-grid"),
    (None, ["distance", "--A", "[[0.0]]", "--C", "[[1.0]]", "--w-max", "-1"], "--w-max"),
    (None, ["distance", "--A", "[[0.0]]", "--C", "[[1.0]]", "--w-max", "5"], "--w-max"),
    (None, ["distance", "--A", "[[0.0]]", "--C", "[[1.0]]", "--n-grid", "2000"], "--n-grid"),
    (None, ["distance", "--A", "[[0.0, 1.0]]", "--C", "[[1.0, 0.0]]"], "--A"),
    (None, ["calibrate", "{toy}", "--unmasked", "--safety", "0.5"], "--safety"),
    (None, ["simulate", "{toy}", "--unmasked", "--attack", "fdi", "--M", "-1"], "--M"),
    (("t_settle: 20.0,", "t_settle: abc,"), ["calibrate", "{toy}"], "t_settle"),
    (("t_obs: 30.0,", "t_obs: -1,"), ["calibrate", "{toy}"], "t_obs"),
    (("margin: 0.2, dt: 0.001}", "margin: 0.2, dt: 0}"), ["calibrate", "{toy}"], "dt"),
    (("margin: 0.2,", "margin: -0.1,"), ["calibrate", "{toy}"], "margin"),
    (("  box: {t_settle", "  lipschitz: {grid_per_axis: 21}\n  box: {t_settle"),
     ["calibrate", "{toy}"], "mask.lipschitz"),
    (("fdi: {M: 0.2, t_start: 2.0,", "fdi: {M: 0.2, t_start: .nan,"),
     ["simulate", "{toy}", "--attack", "fdi", "--unmasked"], "attacks.fdi.t_start"),
    (("fdi: {M: 0.2,", "fdi: {M: .nan,"),
     ["simulate", "{toy}", "--attack", "fdi", "--unmasked"], "attacks.fdi.M"),
    (("shape: constant}", "shape: sin, freq_hz: .nan}"),
     ["simulate", "{toy}", "--attack", "fdi", "--unmasked"], "attacks.fdi.freq_hz"),
    (("replay: {tau: 1.0,", "replay: {tau: .nan,"),
     ["simulate", "{toy}", "--attack", "replay", "--unmasked"], "attacks.replay.tau"),
    (("replay: {tau: 1.0, t_start: 3.0}", "replay: {tau: 1.0, t_start: .nan}"),
     ["simulate", "{toy}", "--attack", "replay", "--unmasked"], "attacks.replay.t_start"),
    (("integration: {dt: 0.001,", "integration: {dt: .nan,"),
     ["simulate", "{toy}", "--unmasked"], "integration.dt"),
    (("t_end: 5.0,", "t_end: .inf,"), ["simulate", "{toy}", "--unmasked"], "integration.t_end"),
    (("calibrate_safety: 4.0", "nu: .nan"), ["simulate", "{toy}", "--unmasked"], "detector.nu"),
    (("calibrate_safety: 4.0", "nu: abc"), ["simulate", "{toy}", "--unmasked"], "detector.nu"),
    (("calibrate_safety: 4.0", "calibrate_safety: .nan"), ["simulate", "{toy}", "--unmasked"],
     "detector.calibrate_safety"),
    (("calibrate_safety: 4.0", "calibrate_safety: 0.5"), ["simulate", "{toy}", "--unmasked"],
     "detector.calibrate_safety"),
    (("calibrate_safety: 4.0", "calibrate_safety: 1"), ["calibrate", "{toy}", "--unmasked"],
     "detector.calibrate_safety"),
    (("calibrate_safety: 4.0", "nu: -0.5"), ["simulate", "{toy}", "--unmasked"], "detector.nu"),
    (("t_end: 5.0, t_settle: 2.0}", "t_end: 1.0004, t_settle: 1.0002}"),
     ["simulate", "{toy}", "--unmasked"], "integration.t_settle"),
    (("t_end: 5.0, t_settle: 2.0}", "t_end: 1.0004, t_settle: 1.0002}"),
     ["calibrate", "{toy}", "--unmasked"], "integration.t_settle"),
    (("  box: {t_settle", "  sigma: [2.0, -3.0, 0.3]\n  d_bound: 5.0\n  box: {t_settle"),
     ["simulate", "{toy}", "--attack", "eavesdrop"], "mask.sigma"),
    (("  box: {t_settle", "  sigma: [2.0, 3.0]\n  d_bound: 5.0\n  box: {t_settle"),
     ["synthesize", "{toy}"], "mask.sigma"),
    (("  box: {t_settle", "  ell: abc\n  box: {t_settle"), ["synthesize", "{toy}"], "mask.ell"),
    (("  box: {t_settle", "  ell: -1.0\n  box: {t_settle"), ["synthesize", "{toy}"], "mask.ell"),
    (("  box: {t_settle", "  d_bound: -5.0\n  box: {t_settle"),
     ["simulate", "{toy}", "--attack", "eavesdrop"], "mask.d_bound"),
    (("eavesdrop: {}", "eavesdrop: {L_bar: [[1.0]]}"),
     ["simulate", "{toy}", "--attack", "eavesdrop"], "attacks.eavesdrop.L_bar"),
    (("direction: [1.0, 0.0, 0.0]", "direction: [1.0, 0.0]"),
     ["simulate", "{toy}", "--attack", "fdi"], "attacks.fdi.direction"),
    (("  synthesize: true", "  L: [[1.0, 2.0]]"), ["simulate", "{toy}"], "observer.L"),
    (None, ["verify-gain", "{toy}", "--gain", "{gain}"], "gain.json"),
    (None, ["simulate", "{toy}", "--gain", "{gain}"], "gain.json"),
    (None, ["calibrate", "{toy}", "--gain", "{gain}"], "gain.json"),
    (("xi0: [0.1, 0.3, 0.0]", "xi0: [0.1, 0.3]"), ["synthesize", "{toy}"], "mask.xi0"),
    (("shape: constant}", "shape: sin, freq_hz: 0}"),
     ["simulate", "{toy}", "--attack", "fdi", "--unmasked"], "attacks.fdi: freq_hz"),
    (("  box: {t_settle", "  ell: true\n  box: {t_settle"), ["synthesize", "{toy}"], "mask.ell"),
    (("  box: {t_settle", "  Phi: [[1.0]]\n  box: {t_settle"), ["synthesize", "{toy}"],
     "mask.Phi"),
    (("type: rossler_p4\n  a: 0.5\n  b: 0.5",
      "type: custom\n  a: 0.5\n  Phi: [[0.0, -1.0, -1.0], [1.0, 0.0, 0.0], [0.0, 0.5, -0.5]]\n"
      "  phi: [[], [], [[-0.5, [0, 2, 0]]]]"), ["synthesize", "{toy}"], "mask.a"),
]


@pytest.mark.parametrize("edit, args, named", INPUT_ERRORS,
                         ids=["replay-off-grid", "replay-not-a-number", "x0-length",
                              "zero-fdi-direction", "n-grid", "w-max",
                              "w-max-without-profile", "n-grid-without-profile", "nonsquare-A",
                              "safety", "fdi-M", "box-t_settle", "box-t_obs", "box-dt",
                              "box-margin", "mask-lipschitz",
                              "nan-fdi-t_start", "nan-fdi-M", "nan-fdi-freq_hz",
                              "nan-replay-tau", "nan-replay-t_start", "nan-dt", "inf-t_end",
                              "nan-detector-nu", "detector-nu-not-a-number",
                              "nan-detector-safety", "detector-safety-below-1",
                              "detector-safety-1", "negative-detector-nu",
                              "empty-post-settle-simulate", "empty-post-settle-calibrate",
                              "negative-sigma", "sigma-length", "ell-not-a-number",
                              "negative-ell", "negative-d_bound", "L_bar-shape",
                              "fdi-direction-length", "observer-L-shape",
                              "gain-shape-verify-gain", "gain-shape-simulate",
                              "gain-shape-calibrate", "xi0-length", "fdi-sin-zero-freq_hz",
                              "bool-ell", "rossler-with-Phi", "custom-with-a"])
def test_input_error_exit_2(runner, small_scenario_text, tmp_path, edit, args, named):
    text = small_scenario_text
    if edit is not None:
        assert edit[0] in text
        text = text.replace(*edit)
    path = tmp_path / "toy.yaml"
    path.write_text(text)
    gain = tmp_path / "gain.json"
    gain.write_text(json.dumps({"L": [[1.0, 2.0]]}))
    result = runner.invoke(main, [a.replace("{toy}", str(path)).replace("{gain}", str(gain))
                                  for a in args])
    assert result.exit_code == 2, result.output
    assert named in result.stderr


def test_reproduce_paper_on_toy(runner, small_scenario_text, tmp_path, monkeypatch,
                                savetxt_csv):
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
    boxes = []

    def counting_box(mask, xi0, **kwargs):
        boxes.append((mask, xi0, kwargs))
        return models.estimate_invariant_box(mask, xi0, **kwargs)
    monkeypatch.setattr(scenario_file, "estimate_invariant_box", counting_box)
    repros, reproduce = [], cli.reproduce

    def keeping_reproduce(cfg):
        repros.append(reproduce(cfg))
        return repros[-1]
    monkeypatch.setattr(cli, "reproduce", keeping_reproduce)
    out = tmp_path / "out"
    result = runner.invoke(main, ["reproduce-paper", "--scenario", str(path),
                                  "--out", str(out)])
    assert result.exit_code == 0, result.output

    # One box, integrated for the scaled masker; the unscaled one is its image
    # under T^-1 = diag(1, 1, beta).
    assert len(boxes) == 1
    mask, xi0, kwargs = boxes[0]
    raw, beta = kwargs["unscaled"]
    assert beta == 10.0
    assert np.array_equal(raw.sigma, np.append(mask.sigma[:2], mask.sigma[2] * beta))
    dt = kwargs["dt"]
    traj = masker_loop(mask, dt).integrate(
        xi0, int(round((kwargs["t_settle"] + kwargs["t_obs"]) / dt)))
    window = traj[int(round(kwargs["t_settle"] / dt)):] @ np.diag([1.0, 1.0, beta])
    assert raw.d_bound == pytest.approx(
        1.2 * np.max(np.linalg.norm(window @ raw.Lambda.T, axis=1)), rel=1e-14)

    traces = [f"toy-{side}-{attack}{suffix}.csv" for side in ("masked", "unmasked")
              for attack in ("eavesdrop", "replay", "fdi") for suffix in ("", "-clean")]
    traces += ["toy-masked-none.csv", "toy-masked-none-clean.csv"]
    assert sorted(p.name for p in out.iterdir()) == sorted(
        traces + ["distance_profile_scaled.csv", "distance_profile_unscaled.csv",
                  "gain.json", "summary.txt"])
    assert len(runs) == 12

    # Every artifact CSV holds the bytes np.savetxt writes for its columns.
    (r,) = repros
    written = {f"distance_profile_{label}.csv":
               cli.profile_columns(cm.frequency_profile(*cm.extended_pair(r.plant, m)))
               for label, m in (("unscaled", r.mask_unscaled), ("scaled", r.mask))}
    written.update((f"{tr.name}.csv", tr.columns()) for sides in r.contrasts.values()
                   for triple in sides.values() for tr in triple[:2])
    assert sorted(written) == sorted(traces + ["distance_profile_scaled.csv",
                                               "distance_profile_unscaled.csv"])
    for name, cols in written.items():
        assert (out / name).read_bytes() == savetxt_csv(cols), name

    summary = (out / "summary.txt").read_text()
    assert re.search(r"\nmasked: +eavesdropper last-10s mean error \S+ over \[0, 5\] s  \(",
                     summary)

    none_clean = (out / "toy-masked-none-clean.csv").read_text()
    assert none_clean == (out / "toy-masked-eavesdrop-clean.csv").read_text()
    none = (out / "toy-masked-none.csv").read_text()
    header = none.splitlines()[0].split(",")
    keep = [j for j, name in enumerate(header) if name != "alarm"]
    assert len(keep) == len(header) - 1
    for a, b in zip(none.splitlines(), none_clean.splitlines(), strict=True):
        a, b = a.split(","), b.split(",")
        assert [a[j] for j in keep] == [b[j] for j in keep]
