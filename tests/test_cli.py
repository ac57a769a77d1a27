"""Command-line interface: exit codes, JSON payloads, error handling.

Run as a script (``PYTHONPATH=src python tests/test_cli.py``) it rewrites
the byte-for-byte transcript that :class:`TestTranscript` compares with.
"""

from __future__ import annotations

import contextlib
import io
import json
import tempfile
from pathlib import Path

import pytest

from laxweyl import corpus
from laxweyl.cli import EXIT_ERROR, EXIT_NEGATIVE, EXIT_OK, main


def write_entries(root: Path) -> dict:
    """Each corpus entry written to ``root/<name>.dspec``, by name."""
    paths = {}
    for name in corpus.ENTRIES:
        p = root / ("%s.dspec" % name)
        p.write_text(corpus.source(name))
        paths[name] = str(p)
    return paths


@pytest.fixture(scope="module")
def dspec_path(tmp_path_factory):
    return write_entries(tmp_path_factory.mktemp("dspec"))


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestSymbol:
    def test_text(self, capsys, dspec_path):
        code, out, err = run(capsys, "symbol", dspec_path["dkp"])
        assert code == EXIT_OK
        assert "th_" in out

    def test_json(self, capsys, dspec_path):
        code, out, err = run(capsys, "symbol", "--format", "json",
                             dspec_path["dkp"])
        assert code == EXIT_OK
        payload = json.loads(out)
        assert payload["exit_code"] == EXIT_OK


class TestMetric:
    def test_text(self, capsys, dspec_path):
        code, out, err = run(capsys, "metric", dspec_path["dkp"])
        assert code == EXIT_OK
        assert "-4*u" in out

    def test_sample_signature(self, capsys, dspec_path):
        code, out, err = run(capsys, "metric", "--sample",
                             dspec_path["second_heavenly"])
        assert code == EXIT_OK
        assert "(2, 2)" in out


class TestLaxVerify:
    def test_positive(self, capsys, dspec_path):
        code, out, err = run(capsys, "lax", "verify", dspec_path["dkp"])
        assert code == EXIT_OK
        assert "verdict: lax-pair" in out
        assert "characteristic" in out

    def test_negative_control_exit_code(self, capsys, dspec_path):
        code, out, err = run(capsys, "lax", "verify",
                             dspec_path["dkp_broken"])
        assert code == EXIT_NEGATIVE
        assert "not-integrable" in out

    def test_json_payload(self, capsys, dspec_path):
        code, out, err = run(capsys, "lax", "verify", "--format", "json",
                             dspec_path["dkp"])
        payload = json.loads(out)
        assert payload["verdict"] == "lax-pair"
        assert payload["normal"] is True
        assert payload["characteristic"] is True
        assert payload["exit_code"] == EXIT_OK

    def test_missing_pair_is_an_error(self, capsys, dspec_path):
        code, out, err = run(capsys, "lax", "verify",
                             dspec_path["flat_counterexample"])
        assert code == EXIT_ERROR
        assert "error:" in err


class TestLaxNormalize:
    def test_normalize(self, capsys, dspec_path):
        code, out, err = run(capsys, "lax", "normalize",
                             dspec_path["manakov_santini"])
        assert code == EXIT_OK
        assert "verdict: lax-pair" in out

    def test_normalize_with_shift(self, capsys, dspec_path):
        code, out, err = run(capsys, "lax", "normalize", "--shift", "v_t",
                             "--format", "json",
                             dspec_path["manakov_santini"])
        assert code == EXIT_OK
        payload = json.loads(out)
        assert payload["normal"] is True


class TestLaxRecoverMetric:
    def test_roundtrip(self, capsys, dspec_path):
        code, out, err = run(capsys, "lax", "recover-metric",
                             dspec_path["dkp"])
        assert code == EXIT_OK
        assert "conformal" in out or "-4*u" in out


SH_ALPHA = "(lam^2 + 2*lam*u_xy + u_xx*u_yy)/(lam)"
SH_M = ("(lam^2*u_xyy + lam*u_xx*u_yyy + lam*u_yy*u_xxy + 2*u_xx*u_yy*u_xyy"
        " - 2*u_xy*u_yy*u_xxy + u_yy^2*u_xxx + lam*u_yyt + 2*u_yy*u_xyt"
        " + u_yy*u_zxx)/(lam)")
SH_N = ("(-lam*u_xxy - 2*u_xx*u_xyy + 2*u_xy*u_xxy - u_yy*u_xxx - 2*u_xyt"
        " - u_zxx)/(lam)")
MS_M = "-lam*u_t - u*v_tt - v_t*v_yt + v_y*v_tt - u_y - v_xt + v_yy"

PINNED_TEXT = {
    ("normalize", "manakov_santini"): "\n".join([
        "normalized pair:",
        "  alpha = lam^2 + lam*v_t - u + v_y",
        "  beta  = lam + v_t",
        "  m     = " + MS_M,
        "  n     = -u_t",
        "verdict: lax-pair"]),
    ("normalize", "second_heavenly"): "\n".join([
        "normalized pair:",
        "  alpha = " + SH_ALPHA,
        "  beta  = u_yy/(lam)",
        "  gamma = -u_xx/(lam)",
        "  delta = -1/(lam)",
        "  m     = " + SH_M,
        "  n     = " + SH_N,
        "verdict: lax-pair"]),
    ("recover-metric", "dkp"): "\n".join([
        "covariant metric (coordinates x, y, t):",
        "  x: [-4*u^2, 0, 2*u]",
        "  y: [0, -u, 0]",
        "  t: [2*u, 0, 0]",
        "  det = 4*u^3",
        "canonical metric: conformal to the recovered one"]),
    ("recover-metric", "second_heavenly"): "\n".join([
        "covariant metric (coordinates z, x, y, t):",
        "  z: [u_yy/(u_xx), -1/2/(u_xx), 0, -u_xy/(u_xx)]",
        "  x: [-1/2/(u_xx), 0, 0, 0]",
        "  y: [0, 0, 0, -1/2/(u_xx)]",
        "  t: [-u_xy/(u_xx), 0, -1/2/(u_xx), 1]",
        "  det = 1/16/(u_xx^4)",
        "canonical metric: conformal to the recovered one"]),
}

PINNED_JSON = {
    ("normalize", "manakov_santini"): {
        "exit_code": 0, "normal": True, "verdict": "lax-pair",
        "pair": {"alpha": "lam^2 + lam*v_t - u + v_y", "beta": "lam + v_t",
                 "m": MS_M, "n": "-u_t"}},
    ("normalize", "second_heavenly"): {
        "exit_code": 0, "normal": True, "verdict": "lax-pair",
        "pair": {"alpha": SH_ALPHA, "beta": "u_yy/(lam)",
                 "gamma": "-u_xx/(lam)", "delta": "-1/(lam)",
                 "m": SH_M, "n": SH_N}},
    ("recover-metric", "dkp"): {
        "coordinates": ["x", "y", "t"], "determinant": "4*u^3",
        "exit_code": 0, "matches_canonical": True, "recovered": True,
        "rows": [["-4*u^2", "0", "2*u"], ["0", "-u", "0"],
                 ["2*u", "0", "0"]]},
    ("recover-metric", "second_heavenly"): {
        "coordinates": ["z", "x", "y", "t"], "determinant": "1/16/(u_xx^4)",
        "exit_code": 0, "matches_canonical": True, "recovered": True,
        "rows": [["u_yy/(u_xx)", "-1/2/(u_xx)", "0", "-u_xy/(u_xx)"],
                 ["-1/2/(u_xx)", "0", "0", "0"],
                 ["0", "0", "0", "-1/2/(u_xx)"],
                 ["-u_xy/(u_xx)", "0", "-1/2/(u_xx)", "1"]]},
}


class TestPinnedPairOutput:
    """Exact renderings of 3D and 4D pairs and recovered metrics."""

    @pytest.mark.parametrize("command,entry", sorted(PINNED_TEXT))
    def test_text(self, capsys, dspec_path, command, entry):
        code, out, err = run(capsys, "lax", command, dspec_path[entry])
        assert code == EXIT_OK
        assert out == PINNED_TEXT[command, entry] + "\n"

    @pytest.mark.parametrize("command,entry", sorted(PINNED_JSON))
    def test_json(self, capsys, dspec_path, command, entry):
        code, out, err = run(capsys, "lax", command, "--format", "json",
                             dspec_path[entry])
        assert code == EXIT_OK
        assert out == json.dumps(PINNED_JSON[command, entry], indent=2,
                                 sort_keys=True) + "\n"


class TestEwCheck:
    def test_recorded_covector(self, capsys, dspec_path):
        code, out, err = run(capsys, "ew", "check", dspec_path["dkp"])
        assert code == EXIT_OK
        assert "zero-mod-ideal" in out

    def test_solver(self, capsys, dspec_path):
        code, out, err = run(capsys, "ew", "check", "--solve-omega",
                             dspec_path["dkp"])
        assert code == EXIT_OK
        assert "-2*u_t" in out

    def test_solver_failure_is_negative(self, capsys, dspec_path):
        code, out, err = run(capsys, "ew", "check", "--solve-omega",
                             dspec_path["dkp_broken"])
        assert code == EXIT_NEGATIVE

    def test_flat(self, capsys, dspec_path):
        code, out, err = run(capsys, "ew", "check",
                             dspec_path["flat_counterexample"])
        assert code == EXIT_OK
        assert "identically-zero" in out


class TestSdCheck:
    def test_stated_orientation(self, capsys, dspec_path):
        code, out, err = run(capsys, "sd", "check", "--orientation", "-",
                             dspec_path["second_heavenly"])
        assert code == EXIT_OK
        assert "zero-mod-ideal" in out

    def test_opposite_orientation(self, capsys, dspec_path):
        code, out, err = run(capsys, "sd", "check", "--orientation", "+",
                             dspec_path["second_heavenly"])
        assert code == EXIT_NEGATIVE
        assert "nonzero" in out


class TestCorpusCommands:
    def test_list(self, capsys):
        code, out, err = run(capsys, "corpus", "list")
        assert code == EXIT_OK
        for name in corpus.ENTRIES:
            assert name in out

    def test_verify_single(self, capsys):
        code, out, err = run(capsys, "corpus", "verify", "dkp")
        assert code == EXIT_OK
        assert "PASS dkp" in out

    def test_verify_all(self, capsys):
        code, out, err = run(capsys, "corpus", "verify", "--all")
        assert code == EXIT_OK
        assert out.count("PASS") == len(corpus.ENTRIES)

    def test_unknown_expect_value_is_a_failing_check(self, capsys,
                                                     monkeypatch):
        text = corpus.source("dkp").replace("verdict = lax-pair",
                                            "verdict = lax pair")
        monkeypatch.setattr(corpus, "source", lambda name: text)
        code, out, err = run(capsys, "corpus", "verify", "dkp")
        assert code == EXIT_NEGATIVE
        assert err == ""
        assert ("  ! verdict: DslError: [expect] verdict = 'lax pair' is not "
                "one of: lax-pair, trivial, not-integrable\n") in out

    def test_verify_all_json(self, capsys):
        code, out, err = run(capsys, "corpus", "verify", "--all",
                             "--format", "json")
        assert code == EXIT_OK
        payload = json.loads(out)
        assert payload["exit_code"] == EXIT_OK


class TestReductionBudget:
    """``--max-order`` is on every subcommand except ``corpus list``, and
    every one that takes it reduces under it."""

    @pytest.mark.parametrize("argv, entry", [
        (("ew", "check", "--max-order", "1"), "dkp"),
        (("ew", "check", "--solve-omega", "--max-order", "1"), "dkp"),
        (("lax", "verify", "--max-order", "1"), "dkp"),
        (("lax", "normalize", "--max-order", "1"), "manakov_santini"),
        (("sd", "check", "--orientation", "-", "--max-order", "2"),
         "second_heavenly"),
    ])
    def test_budget_is_a_named_error(self, capsys, dspec_path, argv, entry):
        code, out, err = run(capsys, *argv, dspec_path[entry])
        assert code == EXIT_ERROR
        assert err.startswith("error: reduction needs jet order")

    @pytest.mark.parametrize("argv", [
        ("symbol",), ("metric", "--sample"), ("lax", "recover-metric"),
    ])
    def test_commands_within_budget_accept_it(self, capsys, dspec_path, argv):
        budgeted = run(capsys, *argv, "--max-order", "2", dspec_path["dkp"])
        assert budgeted == run(capsys, *argv, dspec_path["dkp"])

    def test_corpus_verify_reduces_every_check_under_it(self, capsys):
        code, out, err = run(capsys, "corpus", "verify", "second_heavenly",
                             "--max-order", "2", "--format", "json")
        assert code == EXIT_NEGATIVE
        checks = {c["name"]: c for c in json.loads(out)["reports"][0]["checks"]}
        assert not checks["orientation"]["passed"]
        assert "OrderBudgetExceeded" in checks["orientation"]["detail"]

    @pytest.mark.parametrize("argv", [
        ("corpus", "list", "--max-order", "1"),
        ("ew", "check", "--seed", "1", "unused.dspec"),
    ])
    def test_options_a_command_does_not_read_are_usage_errors(self, capsys,
                                                              argv):
        with pytest.raises(SystemExit) as exc:
            main(list(argv))
        assert exc.value.code == EXIT_ERROR
        assert "unrecognized arguments" in capsys.readouterr().err


class TestErrorHandling:
    def test_missing_file(self, capsys):
        code, out, err = run(capsys, "metric", "/nonexistent/nope.dspec")
        assert code == EXIT_ERROR
        assert "error:" in err

    def test_parse_error_reports_position(self, capsys, tmp_path):
        bad = tmp_path / "bad.dspec"
        bad.write_text("[coords]\nbase = x, y, t\nunknowns = u\n\n"
                       "[equation]\nsolve u_xt = u_yy + w\n")
        code, out, err = run(capsys, "metric", str(bad))
        assert code == EXIT_ERROR
        assert "6:" in err

    def test_stdin_document(self, capsys, monkeypatch):
        import io
        monkeypatch.setattr("sys.stdin", io.StringIO(corpus.source("dkp")))
        code, out, err = run(capsys, "lax", "verify", "-")
        assert code == EXIT_OK
        assert "lax-pair" in out


TRANSCRIPT = Path(__file__).resolve().parent / "data" / "cli_transcript.txt"

ENTRY_COMMANDS = [
    ("symbol",), ("metric",),
    ("lax", "verify"), ("lax", "normalize"), ("lax", "recover-metric"),
    ("ew", "check"), ("ew", "check", "--solve-omega"),
    ("sd", "check", "--orientation", "+"),
    ("sd", "check", "--orientation", "-"),
]


def transcript(paths: dict) -> str:
    """Every entry command on every corpus entry, then ``corpus verify
    --all``, each in both formats: the argv, the exit code, and stdout and
    stderr line by line (the last line of each is what follows the final
    newline)."""
    runs = [(argv + ("--format", fmt), name)
            for name in corpus.ENTRIES for argv in ENTRY_COMMANDS
            for fmt in ("text", "json")]
    runs += [(("corpus", "verify", "--all", "--format", fmt), None)
             for fmt in ("text", "json")]
    blocks = []
    for argv, name in runs:
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(list(argv) + ([paths[name]] if name else []))
        blocks.append("$ laxweyl %s%s\nexit %d\n" % (
            " ".join(argv), " %s.dspec" % name if name else "", code))
        for tag, stream in (("out", out), ("err", err)):
            blocks.extend("%s|%s\n" % (tag, line)
                          for line in stream.getvalue().split("\n"))
    return "".join(blocks)


class TestTranscript:
    """Every command's output on the whole corpus, byte for byte."""

    def test_matches_recorded(self, dspec_path):
        assert transcript(dspec_path) == TRANSCRIPT.read_text(encoding="utf-8")


if __name__ == "__main__":
    with tempfile.TemporaryDirectory() as root:
        text = transcript(write_entries(Path(root)))
    TRANSCRIPT.parent.mkdir(exist_ok=True)
    TRANSCRIPT.write_text(text, encoding="utf-8")
