import json
import os

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from udfield.cli import main


def run_cli(capsys, *args):
    rc = main(list(args))
    out = capsys.readouterr().out
    return rc, json.loads(out) if out.strip() else None


def test_gs_check_cli(capsys):
    rc, data = run_cli(capsys, "gs-check", "--T", "3,5,7,11,13,17", "--S", "101")
    assert rc == 0
    assert data == {"d": 5, "r_bound": 6, "gs_satisfied": True,
                    "generators": [5, 13, 17, 21, 33],
                    "root_disc_bound": 510510}


def test_exponent_cli(capsys):
    rc, data = run_cli(capsys, "exponent", "--T", "3,5,7,11,13,17", "--p", "101")
    assert rc == 0
    assert data["feasible"] is True
    assert data["excess"]["certified_3_digits"] == "6.24e-38"
    assert data["k"] == 762316628416213961
    assert data["delta"] == {"base": 101, "exp": -2 * data["k"]}


def test_exponent_cli_small(capsys):
    rc, data = run_cli(capsys, "exponent", "--T", "3", "--p", "13")
    assert rc == 0 and data["feasible"]
    rc, data = run_cli(capsys, "exponent", "--T", "", "--p", "5")
    assert rc == 0
    assert data["k"] == 45 and data["feasible"] is True


def test_find_split_primes_cli(capsys):
    rc, data = run_cli(capsys, "find-split-primes", "--T", "5", "--count", "3")
    assert rc == 0
    assert data["primes"] == [29, 41, 61]


def test_r2_cli(capsys):
    rc, data = run_cli(capsys, "r2", "--alpha", "25")
    assert rc == 0 and data["count"] == 12


def test_grid_cli(capsys):
    rc, data = run_cli(capsys, "grid", "--n", "25")
    assert rc == 0
    assert data["m"] == 5 and data["measured_equals_predicted"]


def test_generate_and_count_cli(tmp_path, capsys):
    out = str(tmp_path / "run")
    rc, data = run_cli(capsys, "generate", "--field", "gaussian",
                       "--prime", "5", "--k", "2", "--R", "2", "--out", out)
    assert rc == 0
    assert data["measured_points"] == 13
    assert data["measured_unit_pairs"] == 16
    assert data["translation_bound_2nu"] == 20
    assert data["checks"]["translation_bound"]
    assert os.path.exists(os.path.join(out, "pointset.csv"))
    assert os.path.exists(os.path.join(out, "report.json"))
    assert os.path.exists(os.path.join(out, "scatter.svg"))
    report = json.loads(open(os.path.join(out, "report.json")).read())
    units = report["unit_set"]["units"]
    assert ["-7/25", "24/25"] in units

    rc, census = run_cli(capsys, "count", "--csv",
                         os.path.join(out, "pointset.csv"), "--oracle")
    assert rc == 0
    assert census["unit_pairs"] == 16

    # symbolic counting from the exact coordinate columns + sidecar
    rc, exact = run_cli(capsys, "count", "--csv",
                        os.path.join(out, "pointset.csv"), "--method", "exact")
    assert rc == 0
    assert exact["unit_pairs"] == 16 and exact["method"] == "exact"


def test_generate_qsqrt_m5(tmp_path, capsys):
    out = str(tmp_path / "m5")
    rc, data = run_cli(capsys, "generate", "--field", "qsqrt-5",
                       "--prime", "3", "--k", "2", "--out", out)
    assert rc == 0
    report = json.loads(open(os.path.join(out, "report.json")).read())
    assert ["-1/9", "4/9"] in report["unit_set"]["units"]


def test_generate_degenerate_k0(tmp_path, capsys):
    out = str(tmp_path / "k0")
    rc, data = run_cli(capsys, "generate", "--field", "gaussian",
                       "--prime", "5", "--k", "0", "--out", out)
    assert rc == 0
    assert any("no nontrivial units" in w for w in data["warnings"])


def test_generate_small_R_needs_flag(tmp_path, capsys):
    rc = main(["generate", "--field", "gaussian", "--R", "1",
               "--out", str(tmp_path)])
    assert rc == 4
    rc, data = run_cli(capsys, "generate", "--field", "gaussian", "--k", "0",
                       "--R", "1", "--allow-small-R", "--out", str(tmp_path / "s"))
    assert rc == 0
    assert data["measured_points"] == 5


def test_generate_rejects_non_cm(tmp_path):
    rc = main(["generate", "--field", "qsqrt5", "--out", str(tmp_path)])
    assert rc == 4


def test_generate_inert_prime_collision(tmp_path):
    rc = main(["generate", "--field", "gaussian", "--prime", "3", "--k", "1",
               "--out", str(tmp_path)])
    assert rc == 7


def test_count_parse_error(tmp_path):
    bad = tmp_path / "bad.csv"
    bad.write_text("re,im\n1,x\n")
    rc = main(["count", "--csv", str(bad)])
    assert rc == 3


def test_cli_determinism(tmp_path, capsys):
    a = str(tmp_path / "a")
    b = str(tmp_path / "b")
    rc1, _ = run_cli(capsys, "generate", "--field", "gaussian", "--prime", "5",
                     "--k", "2", "--out", a)
    rc2, _ = run_cli(capsys, "generate", "--field", "gaussian", "--prime", "5",
                     "--k", "2", "--out", b)
    assert rc1 == rc2 == 0
    ra = open(os.path.join(a, "report.json")).read()
    rb = open(os.path.join(b, "report.json")).read()
    assert ra == rb
    assert open(os.path.join(a, "pointset.csv")).read() == \
        open(os.path.join(b, "pointset.csv")).read()
    assert open(os.path.join(a, "scatter.svg")).read() == \
        open(os.path.join(b, "scatter.svg")).read()


def test_field_json_cli(tmp_path, capsys):
    spec = {"min_poly": [1, 0, 1], "label": "gauss-from-file"}
    path = tmp_path / "field.json"
    path.write_text(json.dumps(spec))
    out = str(tmp_path / "run")
    rc, data = run_cli(capsys, "generate", "--field", str(path),
                       "--prime", "5", "--k", "1", "--out", out)
    assert rc == 0
    report = json.loads(open(os.path.join(out, "report.json")).read())
    assert report["field"]["label"] == "gauss-from-file"


def test_precision_env(tmp_path, capsys, monkeypatch):
    monkeypatch.setenv("UDF_PRECISION_BITS", "5000")
    rc = main(["exponent", "--T", "3", "--p", "13"])
    assert rc == 3
    monkeypatch.setenv("UDF_PRECISION_BITS", "128")
    rc, data = run_cli(capsys, "exponent", "--T", "3", "--p", "13")
    assert rc == 0
    # a malformed value is rejected like a malformed flag, not by a traceback
    monkeypatch.setenv("UDF_PRECISION_BITS", "abc")
    with pytest.raises(SystemExit) as exc:
        main(["exponent", "--T", "3", "--p", "13"])
    assert exc.value.code == 2


def _run_python(tmp_path, *args):
    """Run python in a child that imports this udfield, so a traceback
    would reach stderr."""
    import subprocess
    import sys

    import udfield

    env = dict(os.environ)
    src = os.path.dirname(os.path.dirname(os.path.abspath(udfield.__file__)))
    env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
    return subprocess.run([sys.executable, *args], cwd=tmp_path,
                          env=env, capture_output=True, text=True)


def _run_module(tmp_path, *args):
    """Run `python -m udfield` in a child."""
    return _run_python(tmp_path, "-m", "udfield", *args)


def test_bad_field_json_exits_3(tmp_path):
    bad = tmp_path / "field.json"
    bad.write_text('{"min_poly": [1, 0,')
    proc = _run_module(tmp_path, "generate", "--field", str(bad), "--out", "run")
    assert proc.returncode == 3, proc.stderr
    assert "Traceback" not in proc.stderr

    for text in ('{"label": "no polynomial"}',
                 '{"min_poly": [1, 0, 1], "integral_basis": 5}'):
        bad.write_text(text)
        proc = _run_module(tmp_path, "generate", "--field", str(bad), "--out", "run")
        assert proc.returncode == 3, (text, proc.stderr)
        assert "Traceback" not in proc.stderr


def test_bad_sidecar_exits_3(tmp_path):
    (tmp_path / "pointset.csv").write_text("index,re,im,c0,c1\n0,0,0,0,0\n")
    sidecar = tmp_path / "pointset.json"
    for text in ('{"field": {"label": "Q(i)"}}',   # no min_poly
                 '{"n_points": 1}',                # no field
                 '{"field": '):                    # not JSON
        sidecar.write_text(text)
        proc = _run_module(tmp_path, "count", "--csv", "pointset.csv",
                           "--method", "exact")
        assert proc.returncode == 3, (text, proc.stderr)
        assert "Traceback" not in proc.stderr


def test_exact_count_without_coordinate_columns_exits_3(tmp_path):
    (tmp_path / "plain.csv").write_text("re,im\n0,0\n1,0\n")
    proc = _run_module(tmp_path, "count", "--csv", "plain.csv",
                       "--method", "exact", "--field", "gaussian")
    assert proc.returncode == 3, proc.stderr
    assert "Traceback" not in proc.stderr
    assert "c0" in proc.stderr


def test_bad_generate_numbers_exit_3(tmp_path):
    for flag in ("--R", "--scale"):
        proc = _run_module(tmp_path, "generate", "--field", "gaussian",
                           flag, "abc", "--out", "run")
        assert proc.returncode == 3, (flag, proc.stderr)
        assert "Traceback" not in proc.stderr


def test_non_square_integral_basis_exits_3(tmp_path):
    bad = tmp_path / "field.json"
    bad.write_text(json.dumps({"min_poly": [1, 0, 1],
                               "integral_basis": [["1", "0", "0"], ["0", "1"]]}))
    proc = _run_module(tmp_path, "generate", "--field", str(bad), "--out", "run")
    assert proc.returncode == 3, proc.stderr
    assert "Traceback" not in proc.stderr


def test_bad_r2_box_exits_3(tmp_path):
    proc = _run_module(tmp_path, "r2", "--alpha", "5", "--field", "qsqrt5",
                       "--box", "abc")
    assert proc.returncode == 3, proc.stderr
    assert "Traceback" not in proc.stderr


def test_bad_r2_alpha_exits_3(tmp_path):
    proc = _run_module(tmp_path, "r2", "--alpha", "abc")
    assert proc.returncode == 3, proc.stderr
    assert "Traceback" not in proc.stderr


def test_exact_count_beyond_float_precision_exits_5(tmp_path):
    # positions near 10^17 are only good to about 100, too coarse to prune
    (tmp_path / "big.csv").write_text("index,re,im,c0,c1\n"
                                      "0,0,0,100000000000000000,0\n"
                                      "1,0,0,100000000000000001,0\n")
    proc = _run_module(tmp_path, "count", "--csv", "big.csv",
                       "--method", "exact", "--field", "gaussian")
    assert proc.returncode == 5, proc.stderr
    assert "Traceback" not in proc.stderr


def test_field_setup_does_not_import_numpy(tmp_path):
    # import, field build and CM detection (the benchmark's setup) stay off
    # the float paths, which import numpy inside their functions
    code = ("import sys, udfield\n"
            "from udfield.cli import build_field\n"
            "from udfield.numberfield import detect_cm\n"
            "assert detect_cm(build_field('adjoin-i:5')) is not None\n"
            "assert 'numpy' not in sys.modules, 'numpy was imported'\n")
    proc = _run_python(tmp_path, "-c", code)
    assert proc.returncode == 0, proc.stderr


def test_exact_count_denominator_past_int64(tmp_path, capsys):
    # coprime denominators 2^61 - 1 and 2^31 - 1 make the common one about
    # 2^92: the rows and the Hermitian form fall back to Python ints, and
    # positions to correctly rounded Fraction quotients
    from fractions import Fraction

    from udfield.cli import build_field
    from udfield.numberfield import abs_sq, detect_cm

    p, q = (1 << 61) - 1, (1 << 31) - 1
    base = [(Fraction(k, p), Fraction(-k, q)) for k in range(-3, 4)]
    pts = base + [(x + 1, y) for x, y in base] + [
        (x + Fraction(3, 5), y + Fraction(4, 5)) for x, y in base[:3]] + [
        (x + 1 + Fraction(1, p), y) for x, y in base[:2]]
    lines = ["index,re,im,c0,c1"] + [f"{i},0,0,{x},{y}" for i, (x, y) in enumerate(pts)]
    (tmp_path / "big.csv").write_text("\n".join(lines) + "\n")
    rc, census = run_cli(capsys, "count", "--csv", str(tmp_path / "big.csv"),
                         "--method", "exact", "--field", "gaussian")
    K = build_field("gaussian")
    cm = detect_cm(K)
    elems = [K.element(c) for c in pts]
    want = sum(abs_sq(elems[i] - elems[j], cm) == K.one()
               for i in range(len(elems)) for j in range(i + 1, len(elems)))
    assert rc == 0 and census["n_points"] == len(pts)
    assert census["unit_pairs"] == want >= len(base) + 3


_BAD_ENTRIES = ("1/0", "nan", "inf", "1/-2", "", "-", "1/", "1e", "1" + "0" * 400)


@st.composite
def malformed_csv(draw):
    """A Gaussian point CSV with one malformed row among good ones."""
    good = draw(st.lists(st.tuples(st.integers(-9, 9), st.integers(-9, 9)),
                         min_size=0, max_size=4))
    rows = [["0", "0", str(a), str(b)] for a, b in good]
    kind = draw(st.sampled_from(["missing", "extra", "entry"]))
    bad = ["0", "0", "1", "2"]
    if kind == "missing":
        del bad[draw(st.integers(0, 3))]
    elif kind == "extra":
        bad.insert(draw(st.integers(0, 4)), draw(st.sampled_from(["0", "", "7"])))
    else:
        bad[draw(st.integers(2, 3))] = draw(st.sampled_from(_BAD_ENTRIES))
    rows.insert(draw(st.integers(0, len(rows))), bad)
    lines = ["index,re,im,c0,c1"] + [",".join([str(i)] + r) for i, r in enumerate(rows)]
    return "\n".join(lines) + "\n"


@settings(max_examples=12, deadline=None)
@given(text=malformed_csv())
def test_exact_count_malformed_rows_exit_typed(tmp_path_factory, text):
    # 10^400 parses but has no float position (5); everything else is a
    # parse error (3); neither may surface as a traceback
    tmp_path = tmp_path_factory.mktemp("csv")
    (tmp_path / "bad.csv").write_text(text)
    proc = _run_module(tmp_path, "count", "--csv", "bad.csv",
                       "--method", "exact", "--field", "gaussian")
    assert proc.returncode in (3, 5), (text, proc.stderr)
    assert "Traceback" not in proc.stderr
