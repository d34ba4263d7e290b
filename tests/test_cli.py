import json
import math
import subprocess
import sys

import numpy as np
import pytest

import frameopt as fo
from frameopt.cli import _emit, main

from conftest import DUAL_SYNTHESIS, EJ1_SYNTHESIS


@pytest.fixture
def ej1_path(tmp_path):
    path = tmp_path / "ej1.json"
    path.write_text(json.dumps(fo.frame_to_json(fo.Frame(EJ1_SYNTHESIS))))
    return str(path)


@pytest.fixture
def dual_path(tmp_path):
    path = tmp_path / "dual.json"
    path.write_text(json.dumps(fo.frame_to_json(fo.Frame(DUAL_SYNTHESIS))))
    return str(path)


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestNu:
    def test_reference(self, capsys):
        code, out, _ = run(capsys, "nu", "--lambda", "9,5,4,2,1", "--m", "3", "--t", "26.5")
        assert code == 0
        obj = json.loads(out)
        assert obj["r"] == 2
        assert obj["c"] == pytest.approx(4.25)
        assert np.allclose(obj["nu"], [9, 5, 4.25, 4.25, 4])
        assert obj["regime"] == "between"

    def test_base_trace_returns_input(self, capsys):
        code, out, _ = run(capsys, "nu", "--lambda", "9,5,4,2,1", "--m", "3", "--t", "21")
        assert code == 0
        assert json.loads(out)["nu"] == [9, 5, 4, 2, 1]

    def test_tied_spectrum_level(self, capsys):
        code, out, _ = run(capsys, "nu", "--lambda", "7,4,4,3,1", "--m", "2", "--t", "24")
        assert code == 0
        assert json.loads(out)["c"] == pytest.approx(4.3333, abs=1e-3)

    def test_spectrum_from_file(self, capsys, tmp_path):
        lam_file = tmp_path / "lam.txt"
        lam_file.write_text("9, 5, 4, 2, 1\n")
        code, out, _ = run(capsys, "nu", "--lambda", str(lam_file), "--m", "3", "--t", "26.5")
        assert code == 0
        assert json.loads(out)["r"] == 2

    def test_spectrum_from_json_list_file(self, capsys, tmp_path):
        lam_file = tmp_path / "lam.json"
        lam_file.write_text("[9, 5, 4, 2, 1]\n")
        tail = ("--m", "3", "--t", "26.5")
        got = run(capsys, "nu", "--lambda", str(lam_file), *tail)
        assert got == run(capsys, "nu", "--lambda", "9,5,4,2,1", *tail)
        assert got[0] == 0

    @pytest.mark.parametrize(
        "text, message",
        [
            ('[9, "a"]', "spectrum file must hold a list of numbers"),
            ("[true, 1.0, 1.0, 1.0, 1.0]", "spectrum file must hold a list of numbers"),
            ("[9, 5", "bad JSON list"),
            # an integer past the float range reads as a non-finite entry
            ("[1" + "0" * 330 + ", 5, 4, 2, 1]", "spectrum entries must be finite"),
        ],
    )
    def test_bad_json_list_file_exit(self, capsys, tmp_path, text, message):
        lam_file = tmp_path / "lam.json"
        lam_file.write_text(text)
        code, out, err = run(capsys, "nu", "--lambda", str(lam_file), "--m", "3", "--t", "26.5")
        assert (code, out) == (2, "")
        assert err.startswith("frameopt: " + message)

    def test_bad_trace_exit(self, capsys):
        code, _, err = run(capsys, "nu", "--lambda", "9,5,4,2,1", "--m", "3", "--t", "5")
        assert code == 3
        assert "trace" in err

    @pytest.mark.parametrize("t", ["nan", "inf", "1e400", "1.7976931348623157e308"])
    def test_non_finite_trace_exit(self, capsys, t):
        code, out, err = run(capsys, "nu", "--lambda", "9,5,4,2,1", "--m", "3", "--t", t)
        assert (code, out) == (2, "")
        assert err.startswith("frameopt: trace target must be finite")

    def test_bad_m_exit(self, capsys):
        # m must be below d = 5; a bad rank bound is malformed input, not a bad trace
        code, _, err = run(capsys, "nu", "--lambda", "9,5,4,2,1", "--m", "5", "--t", "26.5")
        assert code == 2
        assert err

    def test_parse_error_exit(self, capsys):
        code, _, err = run(capsys, "nu", "--lambda", "not-a-file", "--m", "3", "--t", "26.5")
        assert code == 2
        assert err

    def test_deterministic_output(self, capsys):
        _, out1, _ = run(capsys, "nu", "--lambda", "9,5,4,2,1", "--m", "3", "--t", "26.5")
        _, out2, _ = run(capsys, "nu", "--lambda", "9,5,4,2,1", "--m", "3", "--t", "26.5")
        assert out1 == out2


class TestComplete:
    def test_feasible(self, capsys, ej1_path):
        code, out, _ = run(capsys, "complete", "--frame", ej1_path, "--beta", "3,2.5")
        assert code == 0
        obj = json.loads(out)
        assert list(obj) == ["feasible", "nu", "unique_B", "F1", "lower_bounds"]
        assert obj["feasible"] is True
        assert np.allclose(obj["nu"], [9, 5, 4.25, 4.25, 4], atol=5e-3)
        restored = fo.frame_from_json(obj["F1"])
        assert restored.n == 2
        assert np.allclose(
            np.sum(np.abs(restored.synthesis) ** 2, axis=0), [3.0, 2.5], atol=1e-8
        )

    def test_infeasible_exit_code_with_output(self, capsys, ej1_path, tmp_path):
        code, out, _ = run(capsys, "complete", "--frame", ej1_path, "--beta", "3.5,2")
        assert code == 4
        obj = json.loads(out)
        assert obj["feasible"] is False
        assert obj["F1"] is None
        assert obj["lower_bounds"]["fp"] == pytest.approx(158.125, abs=0.1)
        # beta misses mu_hat = (0.5, 0.5) by 1e-4, far below the completed trace 2e6 + 1
        path = tmp_path / "big.json"
        path.write_text(json.dumps(fo.frame_to_json(fo.Frame(1e3 * np.eye(2)))))
        for cmd in ("feasible", "complete"):
            code, out, _ = run(capsys, cmd, "--frame", str(path), "--beta", "0.5001,0.4999")
            assert code == 4 and json.loads(out)["feasible"] is False

    def test_feasible_subcommand(self, capsys, ej1_path):
        code, out, _ = run(capsys, "feasible", "--frame", ej1_path, "--beta", "3,2.5")
        assert code == 0
        obj = json.loads(out)
        assert obj["r_hat"] == 3
        assert np.allclose(obj["mu_hat"], [2.25, 3.25], atol=5e-3)

    def test_rank_violation_exit(self, capsys, tmp_path):
        thin = fo.Frame(np.eye(5)[:, :2])
        path = tmp_path / "thin.json"
        path.write_text(json.dumps(fo.frame_to_json(thin)))
        code, _, err = run(capsys, "complete", "--frame", str(path), "--beta", "1,1")
        assert code == 5
        assert "rank" in err.lower()

    def test_onb_uniform(self, capsys, tmp_path):
        path = tmp_path / "onb.json"
        path.write_text(json.dumps(fo.frame_to_json(fo.Frame(np.eye(3)))))
        code, out, _ = run(capsys, "complete", "--frame", str(path), "--beta", "1,1,1")
        assert code == 0
        assert np.allclose(json.loads(out)["nu"], [2.0, 2.0, 2.0], atol=1e-9)


class TestDual:
    def test_reference(self, capsys, dual_path, tmp_path):
        code, out, _ = run(capsys, "dual", "--frame", dual_path, "--t", "16.5")
        assert code == 0
        obj = json.loads(out)
        assert list(obj) == ["nu", "unique_S", "W", "trace"]
        assert np.allclose(obj["nu"], [4.0, 3.1667, 3.1667, 3.1667, 3.0], atol=5e-3)
        # the emitted dual passes check-dual against the original frame
        wpath = tmp_path / "w.json"
        wpath.write_text(json.dumps(obj["W"]))
        code2, out2, _ = run(capsys, "check-dual", "--frame", dual_path, "--dual", str(wpath))
        assert code2 == 0
        verdict = json.loads(out2)
        assert verdict["is_dual"] is True
        assert verdict["residual"] <= 1e-8

    def test_low_trace_exit(self, capsys, dual_path):
        code, _, err = run(capsys, "dual", "--frame", dual_path, "--t", "2.0")
        assert code == 3
        assert err

    @pytest.mark.parametrize("t", ["nan", "1e400"])
    def test_non_finite_trace_exit(self, capsys, dual_path, t):
        code, out, err = run(capsys, "dual", "--frame", dual_path, "--t", t)
        assert (code, out) == (2, "")
        assert err.startswith("frameopt: trace target must be finite")

    def test_not_spanning_exit(self, capsys, tmp_path):
        flat = fo.Frame(np.array([[1.0, 2.0, 0.5], [0.0, 0.0, 0.0]]))
        path = tmp_path / "flat.json"
        path.write_text(json.dumps(fo.frame_to_json(flat)))
        code, _, err = run(capsys, "dual", "--frame", str(path), "--t", "5.0")
        assert code == 6
        assert err

    def test_subnormal_operator_exit(self, capsys, tmp_path):
        tiny = fo.Frame(1e-160 * np.random.default_rng(5).standard_normal((3, 5)))
        path = tmp_path / "tiny.json"
        path.write_text(json.dumps(fo.frame_to_json(tiny)))
        code, out, err = run(capsys, "dual", "--frame", str(path), "--t", "1e300")
        assert code == 6
        assert not out and "subnormal" in err

    def test_basis_exit(self, capsys, tmp_path):
        # a basis has no redundancy, so no dual but the canonical one
        path = tmp_path / "basis.json"
        path.write_text(json.dumps(fo.frame_to_json(fo.Frame(np.diag([2.0, 1.0, 0.5])))))
        code, out, err = run(capsys, "dual", "--frame", str(path), "--t", "6.0")
        assert code == 5
        assert not out and "basis" in err

    def test_too_few_vectors_exit(self, capsys, tmp_path):
        # n < d does not span: exit 6, as for any non-spanning frame, not the basis exit 5
        path = tmp_path / "short.json"
        path.write_text(json.dumps(fo.frame_to_json(fo.Frame(np.arange(6.0).reshape(3, 2)))))
        code, out, err = run(capsys, "dual", "--frame", str(path), "--t", "6.0")
        assert code == 6
        assert not out and "spanning" in err


class TestProcess:
    """``python -m frameopt.cli``: the module guard, ``entry`` and its exit code."""

    @staticmethod
    def spawn(*argv):
        return subprocess.run(
            [sys.executable, "-m", "frameopt.cli", *argv], capture_output=True, check=False
        )

    def test_stdout_matches_main(self, capsys, dual_path):
        argv = ("dual", "--frame", dual_path, "--t", "16.5")
        proc = self.spawn(*argv)
        code, out, _ = run(capsys, *argv)
        assert proc.returncode == code == 0
        assert proc.stdout == out.encode()

    def test_typed_failure_exit_code(self, dual_path):
        proc = self.spawn("dual", "--frame", dual_path, "--t", "2.0")  # below tr(S^-1)
        assert proc.returncode == 3
        assert not proc.stdout and proc.stderr.startswith(b"frameopt: ")


class TestCheckDual:
    def test_onb_pair(self, capsys, tmp_path):
        path = tmp_path / "onb.json"
        path.write_text(json.dumps(fo.frame_to_json(fo.Frame(np.eye(3)))))
        code, out, _ = run(capsys, "check-dual", "--frame", str(path), "--dual", str(path))
        assert code == 0
        obj = json.loads(out)
        assert obj["is_dual"] is True and obj["residual"] <= 1e-15

    def test_default_verdict_matches_library(self, capsys, tmp_path):
        # a residual of 5e-9, inside the default bound GATE_TOL = 1e-8
        frame, near = fo.Frame(np.eye(2)), fo.Frame(np.diag([1.0 + 5e-9, 1.0]))
        for name, f in (("f.json", frame), ("w.json", near)):
            (tmp_path / name).write_text(json.dumps(fo.frame_to_json(f)))
        code, out, _ = run(capsys, "check-dual", "--frame", str(tmp_path / "f.json"),
                           "--dual", str(tmp_path / "w.json"))
        assert code == 0
        assert json.loads(out)["is_dual"] is fo.is_dual(frame, near) is True

    def test_non_dual_pair(self, capsys, tmp_path):
        doubled = fo.Frame(np.hstack([np.eye(2), np.eye(2)]))
        path = tmp_path / "two.json"
        path.write_text(json.dumps(fo.frame_to_json(doubled)))
        code, out, _ = run(capsys, "check-dual", "--frame", str(path), "--dual", str(path))
        assert code == 0
        assert json.loads(out)["is_dual"] is False
        # 1 x 1 frames whose product is inf - inf: still valid JSON, residual "inf"
        for name, im in (("f.json", -1e200), ("w.json", 1e200)):
            (tmp_path / name).write_text(json.dumps({"d": 1, "n": 1, "vectors": [[[1e200, im]]]}))
        code, out, err = run(capsys, "check-dual", "--frame", str(tmp_path / "f.json"),
                             "--dual", str(tmp_path / "w.json"))
        assert code == 0 and not err
        assert json.loads(out) == {"is_dual": False, "residual": "inf"}


class TestPotential:
    def test_onb_fp(self, capsys, tmp_path):
        path = tmp_path / "onb.json"
        path.write_text(json.dumps(fo.frame_to_json(fo.Frame(np.eye(4)))))
        code, out, _ = run(capsys, "potential", "--frame", str(path), "--kind", "fp")
        assert code == 0
        assert float(out) == pytest.approx(4.0)
        code, out, _ = run(capsys, "potential", "--frame", str(path), "--kind", "mse")
        assert float(out) == pytest.approx(4.0)

    def test_completed_frame_potential(self, capsys, tmp_path, ej1_frame):
        res = fo.complete(fo.CompletionProblem(ej1_frame, [3.0, 2.5]))
        path = tmp_path / "completed.json"
        path.write_text(json.dumps(fo.frame_to_json(res.completed)))
        code, out, _ = run(capsys, "potential", "--frame", str(path), "--kind", "fp")
        assert code == 0
        assert float(out) == pytest.approx(158.125, abs=5e-3)

    def test_overflowing_potential_prints_inf(self, capsys, tmp_path):
        # a non-finite number is emitted as a JSON string
        path = tmp_path / "huge.json"
        path.write_text(json.dumps(fo.frame_to_json(fo.Frame(1e200 * np.eye(3)))))
        code, out, _ = run(capsys, "potential", "--frame", str(path), "--kind", "fp")
        assert (code, out) == (0, '"inf"\n')
        # the completion side cannot form T T* at this scale: a typed error, exit 2
        code, out, err = run(capsys, "complete", "--frame", str(path), "--beta", "1,1")
        assert (code, out, err) == (2, "", "frameopt: frame operator entries overflow\n")

    def test_singular_exit(self, capsys, tmp_path):
        flat = fo.Frame(np.array([[1.0, 2.0], [0.0, 0.0]]))
        path = tmp_path / "flat.json"
        path.write_text(json.dumps(fo.frame_to_json(flat)))
        code, _, err = run(capsys, "potential", "--frame", str(path), "--kind", "mse")
        assert code == 6
        assert err


class TestInputHandling:
    def test_stdin_frame(self, capsys, monkeypatch):
        import io

        payload = json.dumps(fo.frame_to_json(fo.Frame(np.eye(3))))
        monkeypatch.setattr("sys.stdin", io.StringIO(payload))
        code, out, _ = run(capsys, "potential", "--frame", "-", "--kind", "fp")
        assert code == 0
        assert float(out) == pytest.approx(3.0)

    def test_malformed_json_exit(self, capsys, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("{not json")
        code, _, err = run(capsys, "complete", "--frame", str(path), "--beta", "1")
        assert code == 2
        assert err

    @pytest.mark.parametrize(
        "text, message",
        [
            ("{not json", "bad frame JSON: Expecting property name enclosed in double quotes: "
                          "line 1 column 2 (char 1)"),
            ('{"d": 2, "n": 3, "vectors": [[1, 0]]}', "expected 3 vectors"),
            # the vectors are checked before a d x n array is allocated
            ('{"d": 1000000000000, "n": 1, "vectors": [[1.0]]}',
             "vector 0 must have 1000000000000 entries"),
            (None, "cannot read '{path}': [Errno 2] No such file or directory: '{path}'"),
            # sizes must be integers of at least 1, not truncated, parsed or bool
            ('{"d": -1, "n": 0, "vectors": []}', "frame JSON needs integer d, n >= 1, got d = -1"),
            ('{"d": 2.7, "n": 1, "vectors": [[1, 2]]}',
             "frame JSON needs integer d, n >= 1, got d = 2.7"),
            ('{"d": "2", "n": true, "vectors": [[1, 2]]}',
             "frame JSON needs integer d, n >= 1, got d = '2'"),
            ('{"d": 2, "n": true, "vectors": [[1, 2]]}',
             "frame JSON needs integer d, n >= 1, got n = True"),
            ('{"d": 2, "n": 1, "vectors": [[true, false]]}',
             "vector entry must be a number or [re, im], got True"),
            ('{"d": 1, "n": 1, "vectors": [[[1, true]]]}',
             "vector entry must be a number or [re, im], got [1, True]"),
            # an integer past the float range, bare or in a pair, is non-finite
            ('{"d": 1, "n": 1, "vectors": [[1' + "0" * 330 + "]]}",
             "frame entries must be finite"),
            ('{"d": 1, "n": 1, "vectors": [[[0, 1' + "0" * 330 + "]]]}",
             "frame entries must be finite"),
        ],
    )
    def test_frame_parse_errors(self, capsys, tmp_path, text, message):
        path = tmp_path / "f.json"
        if text is not None:
            path.write_text(text)
        code, out, err = run(capsys, "dual", "--frame", str(path), "--t", "5")
        assert (code, out) == (2, "")
        assert err == "frameopt: " + message.format(path=path) + "\n"

    @pytest.mark.parametrize(
        "argv",
        [
            ["nu", "--lambda", "9,5,4,2,1", "--m", "3", "--t", "26.5"],
            ["complete", "--frame", "{ej1}", "--beta", "3,2.5"],
            ["feasible", "--frame", "{ej1}", "--beta", "3,2.5"],
            ["dual", "--frame", "{dual}", "--t", "16.5"],
            ["check-dual", "--frame", "{dual}", "--dual", "{dual}"],
        ],
    )
    def test_subcommands_take_no_tol(self, capsys, ej1_path, dual_path, argv):
        # the solvers' slack is DEFAULT_TOL; check-dual's bound is GATE_TOL
        argv = [a.format(ej1=ej1_path, dual=dual_path) for a in argv]
        assert run(capsys, *argv)[0] == 0
        with pytest.raises(SystemExit) as exc:
            main(argv + ["--tol", "1e-6"])
        assert exc.value.code == 2
        assert "unrecognized arguments: --tol 1e-6" in capsys.readouterr().err

    def test_overflowing_dimension_exit(self, capsys, tmp_path):
        path = tmp_path / "big.json"
        path.write_text('{"d": 1e999, "n": 1, "vectors": [[1.0]]}')  # d parses as inf
        code, out, err = run(capsys, "potential", "--frame", str(path), "--kind", "fp")
        assert (code, out) == (2, "")
        assert err == ("frameopt: frame JSON needs integer d, n and vectors: "
                       "cannot convert float infinity to integer\n")

    def test_bad_beta_exit(self, capsys, ej1_path):
        code, _, err = run(capsys, "complete", "--frame", ej1_path, "--beta", "1,oops")
        assert code == 2
        code, _, err = run(capsys, "complete", "--frame", ej1_path, "--beta", ",")
        assert code == 2 and "empty number list" in err

    def test_emitted_json_reparses(self, capsys, ej1_path):
        _, out, _ = run(capsys, "complete", "--frame", ej1_path, "--beta", "3,2.5")
        obj = json.loads(out)
        assert fo.frame_from_json(obj["F1"]).d == 5

    def test_one_writer_for_every_number(self):
        # bool before int, 12 significant digits, non-finite floats as JSON strings
        values = [True, False, 3, 0.1, 1.0 / 3.0, np.float64(2.5), math.inf, -math.inf, None]
        assert _emit(values) == '[true, false, 3, 0.1, 0.333333333333, 2.5, "inf", "-inf", null]'
