import os

from germflow.cli import main


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


def test_implicitize_output(capsys, corpus_dir):
    code, out, _ = run_cli(capsys, "implicitize", path(corpus_dir, "cusp"), "--no-timing")
    assert code == 0
    assert "f = y^2 - x^3" in out


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
                             "--step", "0.01", "--trace", str(trace))
    assert code == 1
    assert err.startswith(f"error: cannot write {trace}: ") and "No such file" in err
    assert "outcome" not in out


def test_isotopy_far_sample_reports_fail(capsys, tmp_path):
    # one flowed sample lands near 1e103; the implicit-equation check
    # saturates to inf instead of raising OverflowError
    a, b = tmp_path / "a.branch", tmp_path / "b.branch"
    a.write_text("x = t^4\ny = 2 t^4 - 1/2 t^6 - t^9 - t^10\n")
    b.write_text("x = t^4\ny = t^4 + t^6 + t^9 - t^11\n")
    code, out, err = run_cli(capsys, "isotopy", str(a), str(b), "--radius", "0.002",
                             "--samples", "3", "--step", "0.05", "--precision", "32",
                             "--no-timing")
    assert code == 0 and err == ""
    assert "max_dist=1.78" in out and "e+103\n" in out
    assert out.endswith("FAIL\noutcome=ok\n")


def test_show_config(capsys, corpus_dir):
    code, out, _ = run_cli(capsys, "resolve", path(corpus_dir, "cusp"),
                           "--no-timing", "--show-config")
    assert "config: precision=64 step=0.001 samples=40 radius=0.05 tol=0.001" in out


def test_tolerance_warning(capsys, corpus_dir):
    code, out, _ = run_cli(capsys, "resolve", path(corpus_dir, "cusp"),
                           "--no-timing", "--tol", "1e-13")
    assert code == 0
    assert "warning" in out


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
