import argparse
import os
import signal

import pytest

from germflow.cli import build_parser, main


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def path(corpus_dir, name):
    return os.path.join(corpus_dir, name + ".branch")


def test_resolve_cusp_output(capsys, corpus_dir):
    code, out, _ = run_cli(capsys, "resolve", path(corpus_dir, "cusp"), "--no-timing")
    assert code == 0
    assert "r=3" in out
    assert "mult=[2,1,1]" in out
    assert "weights: E1=-3 E2=-2 E3=-1" in out
    assert "arrow=E3" in out
    assert "outcome=ok" in out


def test_resolve_needs_more_than_64_blowups(capsys, tmp_path):
    # a fixed cap of 64 blowups once ended this in an error
    branch = tmp_path / "long.branch"
    branch.write_text("x = t^2\ny = t^129\n")
    code, out, err = run_cli(capsys, "resolve", str(branch), "--no-timing")
    assert code == 0 and err == ""
    assert "r=66\n" in out


def test_resolve_smooth_output(capsys, corpus_dir):
    code, out, _ = run_cli(capsys, "resolve", path(corpus_dir, "diag"), "--no-timing")
    assert code == 0
    assert "r=1" in out
    assert "mult=[1]" in out


def test_resolve_dot_output(capsys, corpus_dir, tmp_path):
    dot = tmp_path / "cusp.dot"
    code, _, _ = run_cli(capsys, "resolve", path(corpus_dir, "cusp"),
                         "--no-timing", "--dot", str(dot))
    assert code == 0
    text = dot.read_text()
    assert text == (
        "graph dual {\n"
        'E1 [label="E1 (-3)"];\n'
        'E2 [label="E2 (-2)"];\n'
        'E3 [label="E3 (-1)"];\n'
        "G [shape=point];\n"
        "E1 -- E3;\n"
        "E2 -- E3;\n"
        "G -- E3;\n"
        "}\n"
    )


def test_dot_structure_all_corpus(capsys, corpus_dir, tmp_path):
    # vertex count = r + 1 (arrow node); line shapes follow the fixed skeleton
    import re
    for name in ["cusp", "e25", "two_pair", "e34", "diag"]:
        dot = tmp_path / f"{name}.dot"
        code, out, _ = run_cli(capsys, "resolve", path(corpus_dir, name),
                               "--no-timing", "--dot", str(dot))
        assert code == 0
        lines = dot.read_text().splitlines()
        assert lines[0] == "graph dual {" and lines[-1] == "}"
        r = int(next(m.group(1) for m in [re.match(r"r=(\d+)", l) for l in out.splitlines()] if m))
        vertex_lines = [l for l in lines if "[" in l]
        assert len(vertex_lines) == r + 1
        edge_lines = [l for l in lines if " -- " in l]
        assert len(edge_lines) == r  # r-1 tree edges plus the arrow edge
        assert all(re.fullmatch(r"(E\d+|G) -- E\d+;", l) for l in edge_lines)


def test_invariants_output(capsys, corpus_dir):
    code, out, _ = run_cli(capsys, "invariants", path(corpus_dir, "cusp"), "--no-timing")
    assert code == 0
    assert "n=2 betas=[3] semigroup=[2,3] delta=1 mu=2" in out


def test_invariants_smooth(capsys, corpus_dir):
    code, out, _ = run_cli(capsys, "invariants", path(corpus_dir, "diag"), "--no-timing")
    assert code == 0
    assert "delta=0 mu=0" in out


def test_invariants_two_pair(capsys, corpus_dir):
    code, out, _ = run_cli(capsys, "invariants", path(corpus_dir, "two_pair"), "--no-timing")
    assert "semigroup=[4,6,13]" in out


def test_equisingular_true(capsys, corpus_dir):
    code, out, _ = run_cli(capsys, "equisingular", path(corpus_dir, "cusp"),
                           path(corpus_dir, "cusp_t4"), "--no-timing")
    assert code == 0
    assert "EQUISINGULAR" in out.splitlines()[1]


def test_equisingular_false_exit_status(capsys, corpus_dir):
    code, out, _ = run_cli(capsys, "equisingular", path(corpus_dir, "cusp"),
                           path(corpus_dir, "two_pair"), "--no-timing", "--exit-status")
    assert code == 2
    assert "NOT EQUISINGULAR: r differs (3 vs 5)" in out


def test_equisingular_false_without_flag_exits_zero(capsys, corpus_dir):
    code, out, _ = run_cli(capsys, "equisingular", path(corpus_dir, "cusp"),
                           path(corpus_dir, "two_pair"), "--no-timing")
    assert code == 0
    assert "NOT EQUISINGULAR" in out


def test_equisingular_same_file(capsys, corpus_dir):
    code, out, _ = run_cli(capsys, "equisingular", path(corpus_dir, "cusp"),
                           path(corpus_dir, "cusp"), "--no-timing")
    assert code == 0
    assert "EQUISINGULAR" in out


def test_isotopy_pass(capsys, corpus_dir):
    code, out, _ = run_cli(capsys, "isotopy", path(corpus_dir, "cusp"),
                           path(corpus_dir, "cusp_2t3"), "--no-timing")
    assert code == 0
    assert "stages=2" in out
    assert "PASS" in out
    max_dist = float(next(l.split("=")[1] for l in out.splitlines()
                          if l.startswith("max_dist=")))
    assert max_dist < 1e-3


def test_isotopy_identity(capsys, corpus_dir):
    code, out, _ = run_cli(capsys, "isotopy", path(corpus_dir, "cusp"),
                           path(corpus_dir, "cusp"), "--no-timing")
    assert code == 0
    assert "stages=1" in out
    max_dist = float(next(l.split("=")[1] for l in out.splitlines()
                          if l.startswith("max_dist=")))
    assert max_dist < 1e-12


def test_isotopy_not_equisingular(capsys, corpus_dir):
    code, out, _ = run_cli(capsys, "isotopy", path(corpus_dir, "cusp"),
                           path(corpus_dir, "two_pair"), "--no-timing")
    assert code == 2
    assert "not equisingular: r differs (3 vs 5)\noutcome=fail\n" in out


def test_isotopy_of_a_long_cusp_at_the_precision_ceiling_finishes(capsys, corpus_dir,
                                                                 tmp_path):
    # C12: the graph series at precision 256 once took minutes, read off a
    # table of the base's powers at p^3/6 multiply-adds; deflation through the
    # short unit t/base takes well under a second
    branch = tmp_path / "c12.branch"
    branch.write_text("x = t^2\ny = t^3 + 1/3 t^5 - 7/11 t^7 + 13/17 t^9 + 19/23 t^11"
                      " + 29/31 t^13 + 37/41 t^15 + 43/47 t^17 + 53/59 t^19 + 61/67 t^21"
                      " + 71/73 t^23 + 79/83 t^25\n")

    def on_alarm(signum, frame):
        raise TimeoutError("no result within 10 s")

    old = signal.signal(signal.SIGALRM, on_alarm)
    signal.alarm(10)
    try:
        code, out, err = run_cli(capsys, "isotopy", str(branch), path(corpus_dir, "cusp"),
                                 "--precision", "256", "--no-timing")
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, old)
    assert (code, err) == (0, "")
    assert "stage=1 level=3 kind=graph-match\n" in out
    assert out.endswith("PASS\noutcome=ok\n")


def test_isotopy_trace_format(capsys, corpus_dir, tmp_path):
    trace = tmp_path / "trace.txt"
    code, _, _ = run_cli(capsys, "isotopy", path(corpus_dir, "cusp"),
                         path(corpus_dir, "cusp_2t3"), "--no-timing",
                         "--trace", str(trace), "--samples", "5")
    assert code == 0
    lines = trace.read_text().splitlines()
    assert len(lines) == 6
    import re
    sample_re = re.compile(
        r"sample=\d+ t=[^ ]+,[^ ]+ start=[^ ]+,[^ ]+ end=[^ ]+,[^ ]+ dist=[^ ]+")
    for line in lines[:-1]:
        assert sample_re.fullmatch(line), line
    assert re.fullmatch(r"max_dist=[^ ]+ pass=(True|False)", lines[-1])


# golden text for every corpus branch; the norm gives the same polynomial as
# the Sylvester determinant (tests/oracles.py) it replaced
IMPLICIT_EQUATIONS = {
    "cusp": "f = y^2 - x^3",
    "cusp_2t3": "f = y^2 - 4*x^3",
    "cusp_t4": "f = y^2 - 2*x^2y + x^4 - x^3",
    "diag": "f = y - x",
    "e25": "f = y^2 - x^5",
    "e25_shift": "f = y^2 - 4*x^2y - x^5 + 4*x^4",
    "e34": "f = y^3 - x^4",
    "e35": "f = y^3 - x^5",
    "parabola": "f = y - x^2",
    "two_pair": "f = y^4 - 2*x^3y^2 - 4*x^5y - x^7 + x^6",
}


@pytest.mark.parametrize("name", IMPLICIT_EQUATIONS)
def test_implicitize_output(capsys, corpus_dir, name):
    file = path(corpus_dir, name)
    code, out, err = run_cli(capsys, "implicitize", file, "--no-timing")
    assert (code, err) == (0, "")
    assert out == f"command: implicitize {file}\n{IMPLICIT_EQUATIONS[name]}\noutcome=ok\n"


def test_implicitize_line(capsys, corpus_dir):
    code, out, _ = run_cli(capsys, "implicitize", path(corpus_dir, "diag"), "--no-timing")
    assert "f = y - x" in out


def test_implicitize_non_monomial_x_exits_one(capsys, tmp_path):
    bad = tmp_path / "nm.branch"
    bad.write_text("x = t^2 + t^3\ny = t^5\n")
    code, _, err = run_cli(capsys, "implicitize", str(bad), "--no-timing")
    assert code == 1
    assert "monomial" in err


def test_malformed_file_reports_position(capsys, tmp_path):
    bad = tmp_path / "bad.branch"
    bad.write_text("x = t^2\ny = t^3 + $\n")
    code, _, err = run_cli(capsys, "resolve", str(bad), "--no-timing")
    assert code == 1
    assert "line 2" in err and "col" in err


def test_overlong_integer_reports_error(capsys, tmp_path):
    bad = tmp_path / "long.branch"
    bad.write_text("x = t^2\ny = t^3 + 1" + "2" * 5000 + " t^5\n")
    code, out, err = run_cli(capsys, "invariants", str(bad), "--no-timing")
    assert code == 1
    assert err == "error: line 2 col 11: integer too long\n"
    assert "outcome" not in out


def test_missing_file_reports_error(capsys, tmp_path):
    code, out, err = run_cli(capsys, "resolve", str(tmp_path / "missing.branch"),
                             "--no-timing")
    assert code == 1
    assert err.startswith("error: cannot read") and "No such file" in err
    assert "outcome" not in out


def test_unreadable_file_reports_error(capsys, tmp_path):
    # a directory cannot be read as a branch file
    code, _, err = run_cli(capsys, "invariants", str(tmp_path), "--no-timing")
    assert code == 1
    assert err.startswith("error: cannot read")


def test_non_utf8_file_reports_error(capsys, corpus_dir, tmp_path):
    bad = tmp_path / "latin1.branch"
    bad.write_bytes("# caf\xe9\nx = t^2\ny = t^3\n".encode("latin-1"))
    code, _, err = run_cli(capsys, "isotopy", path(corpus_dir, "cusp"), str(bad),
                           "--no-timing")
    assert code == 1
    assert err.startswith("error: cannot read") and "utf-8" in err


def test_byte_order_mark_is_read_as_utf8(capsys, tmp_path):
    # editors on some systems start a UTF-8 file with the mark EF BB BF
    plain, marked = tmp_path / "plain.branch", tmp_path / "marked.branch"
    plain.write_bytes(b"x = t^2\ny = t^3\n")
    marked.write_bytes(b"\xef\xbb\xbfx = t^2\ny = t^3\n")
    want = run_cli(capsys, "invariants", str(plain), "--no-timing")
    code, out, err = run_cli(capsys, "invariants", str(marked), "--no-timing")
    assert (code, err) == (0, "")
    assert out == want[1].replace("plain", "marked")


def test_unwritable_dot_path_reports_error(capsys, corpus_dir, tmp_path):
    dot = tmp_path / "missing" / "cusp.dot"
    code, out, err = run_cli(capsys, "resolve", path(corpus_dir, "cusp"), "--no-timing",
                             "--dot", str(dot))
    assert code == 1
    assert err.startswith(f"error: cannot write {dot}: ") and "No such file" in err
    assert "outcome" not in out


def test_unwritable_trace_path_reports_error(capsys, corpus_dir, tmp_path):
    trace = tmp_path / "missing" / "trace.txt"
    code, out, err = run_cli(capsys, "isotopy", path(corpus_dir, "cusp"),
                             path(corpus_dir, "cusp_2t3"), "--no-timing", "--samples", "2",
                             "--trace", str(trace))
    assert code == 1
    assert err.startswith(f"error: cannot write {trace}: ") and "No such file" in err
    assert "outcome" not in out


def test_isotopy_far_sample_reports_fail(capsys, tmp_path):
    # one flowed sample lands near 1e103 (exact time-1 maps; RK4 read
    # 1.78e+103); the implicit-equation check saturates to inf instead of
    # raising OverflowError
    a, b = tmp_path / "a.branch", tmp_path / "b.branch"
    a.write_text("x = t^4\ny = 2 t^4 - 1/2 t^6 - t^9 - t^10\n")
    b.write_text("x = t^4\ny = t^4 + t^6 + t^9 - t^11\n")
    code, out, err = run_cli(capsys, "isotopy", str(a), str(b), "--radius", "0.002",
                             "--samples", "3", "--precision", "32",
                             "--no-timing")
    assert code == 0 and err == ""
    assert "max_dist=1.959" in out and "e+103\n" in out
    assert out.endswith("FAIL\noutcome=ok\n")
    # with --exit-status the FAIL verdict exits 2
    code, flagged, err = run_cli(capsys, "isotopy", str(a), str(b), "--radius", "0.002",
                                 "--samples", "3", "--precision", "32", "--no-timing",
                                 "--exit-status")
    assert (code, err) == (2, "")
    assert flagged == out.replace("outcome=ok", "outcome=fail")


def test_isotopy_image_on_the_negative_sheet_passes(capsys, tmp_path):
    # one image lands on the target at t = -1.127; the distance check once
    # searched the target only up to |t| = 0.944 and printed max_dist=0.379, FAIL
    a, b = tmp_path / "a.branch", tmp_path / "b.branch"
    a.write_text("x = t^2\ny = t^2 - 1/2 t^5\n")
    b.write_text("x = t^2\ny = 4/3 t^4 + t^5\n")
    code, out, err = run_cli(capsys, "isotopy", str(a), str(b), "--no-timing")
    assert code == 0 and err == ""
    max_dist = float(next(line for line in out.splitlines()
                          if line.startswith("max_dist="))[len("max_dist="):])
    assert max_dist < 1e-12
    assert out.endswith(f"max_dist={max_dist!r}\nPASS\noutcome=ok\n")


def test_isotopy_uncontained_sample_reports_its_stage(capsys, tmp_path):
    # isotopy_flow seed 34 op 32: the outer sample's graph-match trajectory
    # may leave the bump's ball, so it has no closed-form image; RK4
    # once carried it to max_dist=1.08e+28
    a, b, trace = tmp_path / "a.branch", tmp_path / "b.branch", tmp_path / "trace.txt"
    a.write_text("x = t^2\ny = t^3 - 4 t^4\n")
    b.write_text("x = t^2\ny = -1 t^3 - 4/3 t^5\n")
    code, out, err = run_cli(capsys, "isotopy", str(a), str(b), "--samples", "4",
                             "--precision", "32", "--no-timing", "--trace", str(trace))
    assert code == 0 and err == ""
    assert "max_dist=inf\nuncontained: stage=1 samples=1\nFAIL\n" in out
    lines = trace.read_text().splitlines()
    assert [line.endswith(" dist=inf uncontained_stage=1") for line in lines[:4]] == \
        [False, False, False, True]
    assert lines[4] == "max_dist=inf pass=False"


NON_FINITE_ERRORS = {
    ("--radius", "nan"): "radius nan is not finite and positive",
    ("--radius", "inf"): "radius inf is not finite and positive",
    ("--tol", "nan"): "tol nan is not finite and positive",
    ("--tol", "inf"): "tol inf is not finite and positive",
}


@pytest.mark.parametrize("value", ["nan", "inf"])
@pytest.mark.parametrize("option", ["--radius", "--tol"])
def test_non_finite_config_reports_error(capsys, corpus_dir, option, value):
    # nan passed a `<= 0` check: --radius nan shrank the window to 1e-67 and
    # printed PASS; the library function that uses each setting now refuses it
    code, out, err = run_cli(capsys, "isotopy", path(corpus_dir, "cusp"),
                             path(corpus_dir, "cusp_2t3"), "--no-timing", option, value)
    assert code == 1
    assert err == f"error: {NON_FINITE_ERRORS[option, value]}\n"
    assert "outcome" not in out


def test_step_option_is_refused(capsys, corpus_dir):
    # every stage flow is closed form: there is no integrator step to set
    with pytest.raises(SystemExit) as exc:
        main(["isotopy", path(corpus_dir, "cusp"), path(corpus_dir, "cusp_2t3"),
              "--no-timing", "--step", "0.01"])
    assert exc.value.code == 2
    assert "unrecognized arguments: --step 0.01" in capsys.readouterr().err


def test_sample_count_above_the_ceiling_reports_error(capsys, corpus_dir):
    code, out, err = run_cli(capsys, "isotopy", path(corpus_dir, "cusp"),
                             path(corpus_dir, "cusp_2t3"), "--no-timing",
                             "--samples", "1000000000")
    assert code == 1 and "outcome" not in out
    assert err == "error: n_samples 1000000000 is above 10000\n"


def test_show_config(capsys, corpus_dir):
    code, out, _ = run_cli(capsys, "isotopy", path(corpus_dir, "cusp"),
                           path(corpus_dir, "cusp_2t3"), "--no-timing", "--show-config")
    assert "config: precision=64 samples=40 radius=0.05 tol=0.001" in out


def test_show_config_lists_only_the_subcommand_settings(capsys, corpus_dir):
    cusp = path(corpus_dir, "cusp")
    code, out, _ = run_cli(capsys, "equisingular", cusp, cusp, "--no-timing", "--show-config")
    assert out.splitlines()[1] == "config: exit-status=False"
    # resolve has no setting left to show
    with pytest.raises(SystemExit) as exc:
        main(["resolve", cusp, "--no-timing", "--show-config"])
    assert exc.value.code == 2
    assert "unrecognized arguments: --show-config" in capsys.readouterr().err


ISOTOPY_ONLY = [["--step", "0.01"],  # isotopy refuses --step too, since it lost its RK4 step
                ["--samples", "2"], ["--radius", "0.01"], ["--tol", "0.01"]]
UNUSED_OPTIONS = [
    *((command, option) for command in ("resolve", "invariants", "implicitize", "equisingular")
      for option in ISOTOPY_ONLY),
    *((command, ["--exit-status"]) for command in ("resolve", "invariants", "implicitize")),
    # only the plan's series order depends on a precision
    *((command, ["--precision", "64"])
      for command in ("resolve", "invariants", "implicitize", "equisingular")),
    *((command, ["--show-config"]) for command in ("resolve", "invariants", "implicitize"))]


@pytest.mark.parametrize("command,option", UNUSED_OPTIONS)
def test_options_a_subcommand_does_not_use_are_refused(capsys, corpus_dir, command, option):
    # each of these once parsed on every subcommand and did nothing there
    files = [path(corpus_dir, "cusp")] * (2 if command == "equisingular" else 1)
    with pytest.raises(SystemExit) as exc:
        main([command, *files, "--no-timing", *option])
    assert exc.value.code == 2
    assert f"unrecognized arguments: {' '.join(option)}" in capsys.readouterr().err


# every option string of each subcommand, --help aside: a new knob changes this table
OPTIONS = {
    "resolve": {"--no-timing", "--dot"},
    "invariants": {"--no-timing"},
    "equisingular": {"--no-timing", "--exit-status", "--show-config"},
    "isotopy": {"--no-timing", "--exit-status", "--show-config", "--precision", "--samples",
                "--radius", "--tol", "--trace"},
    "implicitize": {"--no-timing"},
}


def test_each_subcommand_has_exactly_its_options():
    sub = next(action for action in build_parser()._actions
               if isinstance(action, argparse._SubParsersAction))
    got = {command: {s for action in parser._actions for s in action.option_strings}
           - {"-h", "--help"} for command, parser in sub.choices.items()}
    assert got == OPTIONS
    assert sum(len(options) for options in got.values()) == 15


def test_precision_outside_the_ceiling_reports_error(capsys, corpus_dir):
    two_pair = path(corpus_dir, "two_pair")
    for precision in ("0", "257", "200000"):
        code, out, err = run_cli(capsys, "isotopy", two_pair, two_pair,
                                 "--no-timing", "--precision", precision)
        assert code == 1 and "outcome" not in out
        assert err == f"error: precision {precision} is not between 1 and 256\n"


def test_isotopy_precision_below_a_branch_order_reports_error(capsys, corpus_dir):
    # two_pair's largest exponent is 7, so it is known to order 8; the plan
    # once kept order 8 silently and printed FAIL with 18 samples uncontained
    two_pair = path(corpus_dir, "two_pair")
    code, out, err = run_cli(capsys, "isotopy", two_pair, two_pair, "--no-timing",
                             "--precision", "5")
    assert code == 1 and "outcome" not in out
    assert err == "error: precision 5 is below the order 8 of branch 'two_pair'\n"


def test_exact_branch_resolves_to_the_order_it_needs(capsys, tmp_path):
    # the file knows y(t) to order 74, too little to decide the tangent at
    # the 37th blowup; an exact branch is known further (its later terms are 0)
    branch = tmp_path / "deep.branch"
    branch.write_text("x = t^6\ny = t^2 + 7 t^73\n")
    code, out, err = run_cli(capsys, "resolve", str(branch), "--no-timing")
    assert (code, err) == (0, "")
    assert "\nr=40\n" in out
    code, out, err = run_cli(capsys, "equisingular", str(branch), str(branch), "--no-timing")
    assert (code, err) == (0, "")
    assert "\nEQUISINGULAR\n" in out


def test_exponent_at_the_precision_ceiling_reports_error(capsys, tmp_path):
    # precision is 1 + the largest exponent: t^20000 ran resolve at precision 20001
    bad = tmp_path / "deep.branch"
    bad.write_text("x = t^4\ny = t^6 + t^7 + t^20000\n")
    code, out, err = run_cli(capsys, "resolve", str(bad), "--no-timing")
    assert code == 1 and "outcome" not in out
    assert err == "error: exponent 20000 is not below the precision ceiling 256\n"


def test_determinism_all_commands(capsys, corpus_dir, tmp_path):
    runs = [
        ["resolve", path(corpus_dir, "cusp"), "--no-timing"],
        ["invariants", path(corpus_dir, "two_pair"), "--no-timing"],
        ["equisingular", path(corpus_dir, "cusp"), path(corpus_dir, "cusp_t4"),
         "--no-timing"],
        ["implicitize", path(corpus_dir, "cusp_t4"), "--no-timing"],
        ["isotopy", path(corpus_dir, "cusp"), path(corpus_dir, "cusp_2t3"),
         "--no-timing", "--samples", "8"],
    ]
    for argv in runs:
        code1, out1, _ = run_cli(capsys, *argv)
        code2, out2, _ = run_cli(capsys, *argv)
        assert code1 == code2
        assert out1 == out2
