import json
import os
import time

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


@pytest.mark.parametrize("alpha, box, count", [("9,0", "3073/1024", 12),
                                               ("7,2", "15459/4096", 0)])
def test_r2_auto_box_over_a_real_quadratic_field(capsys, alpha, box, count):
    # with no --box, the box is read off alpha's largest real embedding
    rc, data = run_cli(capsys, "r2", "--alpha", alpha, "--field", "qsqrt5")
    assert rc == 0 and (data["box"], data["count"]) == (box, count)


def test_r2_over_a_degree_1_field_matches_q(tmp_path, capsys):
    # x is the minimal polynomial of Q, so O_F = Z and the lattice search
    # over it counts what the integer search counts
    (tmp_path / "q.json").write_text(json.dumps({"min_poly": [0, 1]}))
    rc, data = run_cli(capsys, "r2", "--field", str(tmp_path / "q.json"), "--alpha", "25")
    rc_q, data_q = run_cli(capsys, "r2", "--alpha", "25")
    assert rc == rc_q == 0 and data["count"] == data_q["count"] == 12


def test_r2_over_a_field_not_totally_real_exits_4(capsys):
    assert main(["r2", "--field", "gaussian", "--alpha", "5"]) == 4
    assert capsys.readouterr().err == "error: r2_count needs a totally real field, not Q(i)\n"


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


def test_generate_reports_the_zero_translate_count(tmp_path, capsys):
    # the best of eight Halton translates of Z[i] holds 126 points of the
    # inner window at R - 1 = 63/10, against 121 at a = 0
    out = str(tmp_path / "translate")
    rc, _ = run_cli(capsys, "generate", "--field", "gaussian", "--prime", "5", "--k", "2",
                    "--R", "73/10", "--scale", "1", "--translate-candidates", "8",
                    "--out", out)
    assert rc == 0
    report = json.loads(open(os.path.join(out, "report.json")).read())["construction"]
    assert report["translate_is_zero"] is False
    assert report["inner_window_count"] == 126
    assert report["inner_window_count_zero_translate"] == 121


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


def test_generate_over_an_s4_quartic_exits_4(tmp_path):
    # x^4 + x + 1: totally imaginary with Galois group S4, so detect_cm
    # runs its whole precision loop and finds no complex conjugation
    (tmp_path / "s4.json").write_text('{"min_poly": [1, 1, 0, 0, 1]}')
    proc = _run_module(tmp_path, "generate", "--field", "s4.json", "--k", "0",
                       "--R", "2", "--out", "run")
    assert proc.returncode == 4, proc.stderr
    assert proc.stderr == "error: deg4field is not a CM field\n"


def test_generate_inert_prime_collision(tmp_path):
    rc = main(["generate", "--field", "gaussian", "--prime", "3", "--k", "1",
               "--out", str(tmp_path)])
    assert rc == 7


def _quartic_json(tmp_path, **extra):
    """sqrt(5) + i, the root of x^4 - 8x^2 + 36, as a field description."""
    path = tmp_path / "quartic.json"
    path.write_text(json.dumps({"min_poly": [36, 0, -8, 0, 1], **extra}))
    return str(path)


def test_generate_power_basis_not_closed_under_conjugation_exits_4(tmp_path, capsys):
    # conjugation maps theta = sqrt(5) + i to (8 theta - theta^3) / 6,
    # outside Z[theta], so the conjugate of a prime is not an ideal of it
    rc = main(["generate", "--field", _quartic_json(tmp_path), "--prime", "13",
               "--k", "1", "--R", "3", "--scale", "1", "--no-plot",
               "--out", str(tmp_path / "run")])
    assert rc == 4
    err = capsys.readouterr().err
    assert "conjugation does not map the order" in err and "integral_basis" in err


def test_generate_quartic_with_integral_basis_matches_adjoin_i(tmp_path, capsys):
    from udfield.numberfield import compositum_multiquadratic

    basis = compositum_multiquadratic((5, -1)).to_dict()["integral_basis"]
    field = _quartic_json(tmp_path, integral_basis=basis)
    outputs = []
    for name, run in ((field, "json"), ("adjoin-i:5", "named")):
        out = tmp_path / run
        assert main(["generate", "--field", name, "--prime", "29", "--k", "1", "--R", "2",
                     "--scale", "1", "--no-plot", "--out", str(out)]) == 0
        outputs.append((capsys.readouterr().out, (out / "pointset.csv").read_bytes()))
    assert outputs[0] == outputs[1]


def test_count_parse_error(tmp_path):
    bad = tmp_path / "bad.csv"
    bad.write_text("re,im\n1,x\n")
    rc = main(["count", "--csv", str(bad)])
    assert rc == 3


def test_hashed_count_skips_blank_lines(tmp_path, capsys):
    rows = ["0,0", "1,0", "0,1", "1,1", "0.6,0.8"]
    (tmp_path / "plain.csv").write_text("re,im\n" + "\n".join(rows) + "\n")
    (tmp_path / "blank.csv").write_text("re,im\n" + "\n".join(rows[:2] + [""] + rows[2:])
                                        + "\n\n")
    counts = []
    for name in ("plain.csv", "blank.csv"):
        rc, census = run_cli(capsys, "count", "--csv", str(tmp_path / name), "--oracle")
        assert rc == 0
        counts.append((census["n_points"], census["unit_pairs"]))
    assert counts[0] == counts[1] == (5, 5)


def test_header_only_csv(tmp_path, capsys):
    # the float counters need a point; the exact counter counts none
    (tmp_path / "empty.csv").write_text("index,re,im,c0,c1\n")
    assert main(["count", "--csv", str(tmp_path / "empty.csv")]) == 3
    assert capsys.readouterr().err == "error: no points in CSV\n"
    rc, census = run_cli(capsys, "count", "--csv", str(tmp_path / "empty.csv"),
                         "--method", "exact", "--field", "gaussian")
    assert rc == 0 and (census["n_points"], census["unit_pairs"]) == (0, 0)


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


def _run_python(tmp_path, *args, timeout=None):
    """Run python in a child that imports this udfield, so a traceback
    would reach stderr."""
    import subprocess
    import sys

    import udfield

    env = dict(os.environ)
    src = os.path.dirname(os.path.dirname(os.path.abspath(udfield.__file__)))
    env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
    return subprocess.run([sys.executable, *args], cwd=tmp_path,
                          env=env, capture_output=True, text=True, timeout=timeout)


def _run_module(tmp_path, *args, timeout=None):
    """Run `python -m udfield` in a child."""
    return _run_python(tmp_path, "-m", "udfield", *args, timeout=timeout)


# the first 21 odd primes
ODD_PRIMES_21 = (3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47, 53, 59, 61, 67,
                 71, 73, 79)


@pytest.mark.parametrize("argv, rc, text", [
    (["generate", "--field", "gaussian", "--k", "0", "--scale", "1", "--R", "1e400",
      "--out", "run"], 5, "error: basis, centre or radii beyond float range"),
    (["generate", "--field", "qsqrtx", "--out", "run"], 3, "error: bad field name 'qsqrtx'"),
    (["generate", "--field", "x", "--out", "run"], 3, "error: unknown field name 'x'"),
    (["count", "--csv", "nan.csv"], 3, "error: points contain NaN or infinity"),
    (["count", "--csv", "missing.csv"], 3, "error: cannot open 'missing.csv'"),
    (["count", "--csv", "repeat.csv", "--eps", "-1"], 3,
     "error: eps must be a nonnegative number, not -1.0"),
    (["r2", "--field", "qsqrt5", "--alpha", "-1"], 0, '"box": "1",\n  "count": 0,'),
    (["count", "--csv", "repeat.csv"], 0,
     '"duplicate_pairs": 1,\n  "eps": 1e-09,\n  "method": "hashed",\n  "n_points": 3,'),
    (["count", "--csv", "repeat.csv"], 0, '"1 coincident point pairs (distance 0, never unit)"'),
    (["count", "--csv", "exact/pointset.csv", "--method", "exact"], 3,
     "error: --method exact needs --field or a pointset.json sidecar next to the CSV"),
    (["count", "--csv", "exact/pointset.csv", "--method", "exact", "--field", "qsqrt5"], 4,
     "error: exact counting needs a CM field"),
    (["gs-check", "--T", "3", "--S", "4"], 4, "error: 4 in S is not prime"),
    (["exponent", "--T", "4", "--p", "5"], 4, "error: 4 in T is not an odd prime"),
    (["exponent", "--T", "3", "--p", "3"], 3, "error: p = 3 must not lie in T"),
    (["find-split-primes", "--T", "5", "--count", "0"], 3,
     "error: count must be >= 1, not 0"),
    (["count", "--csv", "binary.csv"], 3, "error: binary.csv: not text (invalid start byte)"),
    (["gs-check", "--T", ",".join(map(str, ODD_PRIMES_21)), "--S", "101"], 3,
     "error: |T| > 20 not supported"),
    (["r2", "--field", "qsqrt5", "--alpha", "1,2,3"], 3,
     "error: --alpha has 3 coordinates; Q(sqrt(5)) needs 2"),
    (["r2", "--alpha", "-1"], 0, '"count": 0,\n  "field": "Q"'),
    (["r2", "--alpha", str(10 ** 13)], 7, "error: 6324555 candidates for x (limit 2000000)"),
    (["exponent", "--T", "5,17,29,43", "--p", "101", "--precision", "32"], 0,
     '"certified_3_digits": null,'),
    (["exponent", "--T", "3", "--p", "4"], 4, "error: 4 is not prime"),
    (["exponent", "--T", f"{2 ** 127 - 1},{2 ** 1279 - 1}", "--p", "3"], 5,
     "error: ceiling still ambiguous at 4096 bits"),
    (["generate", "--field", "adjoin-i:1", "--out", "run"], 4, "error: generator 1 is trivial"),
    (["generate", "--field", "nonmonic.json", "--out", "run"], 4,
     "error: leading coefficient 2 != 1"),
    (["generate", "--field", "sub-order.json", "--prime", "5", "--out", "run"], 7,
     "error: disc(min_poly) is not a multiple of disc(K)"),
    (["generate", "--field", "gaussian", "--k", "0", "--R", "1e400", "--out", "run"], 7,
     "error: no desk-feasible window at these parameters"),
])
def test_edge_runs_exit_typed(tmp_path, argv, rc, text):
    # branches that test_cli_fuzz's random argvs reach only in some runs,
    # or never: a radius past float range, a bad or unknown field name, a
    # NaN row, a missing CSV, a negative eps, a negative alpha, a repeated
    # row, an exact count with no CM field, a composite in S or T, p in T, a
    # zero count, a CSV that is not UTF-8, 21 primes in T, an alpha of the
    # wrong length, a rational alpha below zero or past the search cap, an
    # exponent at 32 bits (doubled to separate u pi from 36 v, and its
    # excess still from 0), a composite p, a T whose k needs more than 4096
    # bits, a trivial generator, a non-monic min_poly, an integral basis
    # whose order misses theta, and an auto-scale estimate past float range
    (tmp_path / "nan.csv").write_text("re,im\n0,0\n1,0\nnan,0\n")
    (tmp_path / "repeat.csv").write_text("re,im\n0,0\n1,0\n1,0\n")
    (tmp_path / "binary.csv").write_bytes(b"re,im\n0,0\n\xff\xfe,1\n")
    (tmp_path / "nonmonic.json").write_text('{"min_poly": [1, 0, 2]}')
    # Z[2i]: closed under products, but without i
    (tmp_path / "sub-order.json").write_text(
        '{"min_poly": [1, 0, 1], "integral_basis": [[1, 0], [0, 2]]}')
    (tmp_path / "exact").mkdir()
    (tmp_path / "exact" / "pointset.csv").write_text("c0,c1\n0,0\n1,0\n")
    proc = _run_module(tmp_path, *argv)
    assert proc.returncode == rc, proc.stderr
    assert text in (proc.stdout if rc == 0 else proc.stderr)
    assert "Traceback" not in proc.stderr


def test_bad_field_json_exits_3(tmp_path):
    bad = tmp_path / "field.json"
    bad.write_text('{"min_poly": [1, 0,')
    proc = _run_module(tmp_path, "generate", "--field", str(bad), "--out", "run")
    assert proc.returncode == 3, proc.stderr
    assert "Traceback" not in proc.stderr

    for text in ('{"label": "no polynomial"}',
                 '{"min_poly": [1, 0, 1], "integral_basis": 5}',
                 '{"min_poly": [1, 0, 1.5]}',       # not truncated to x^2 + 1
                 '{"min_poly": ["1", "0", "1"]}'):
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


def test_exact_count_caps_the_common_denominator(tmp_path):
    # 300 rows of entries 1/p over 600 distinct primes: the lcm of their
    # denominators passes 4096 bits within the rows, and the reader stops
    # there with exit 7, before it scales any entry
    primes = [p for p in range(2, 5000) if all(p % q for q in range(2, int(p ** 0.5) + 1))]
    lines = [f"{i},0,0,1/{p},-1/{q}" for i, (p, q) in enumerate(zip(primes[:600:2],
                                                                    primes[1:600:2]))]
    (tmp_path / "wide.csv").write_text("index,re,im,c0,c1\n" + "\n".join(lines) + "\n")
    t0 = time.perf_counter()
    proc = _run_module(tmp_path, "count", "--csv", "wide.csv", "--method", "exact",
                       "--field", "gaussian")
    assert time.perf_counter() - t0 < 2
    assert proc.returncode == 7, proc.stderr
    assert "limit" in proc.stderr and "Traceback" not in proc.stderr


def test_exact_count_without_coordinate_columns_exits_3(tmp_path):
    (tmp_path / "plain.csv").write_text("re,im\n0,0\n1,0\n")
    proc = _run_module(tmp_path, "count", "--csv", "plain.csv",
                       "--method", "exact", "--field", "gaussian")
    assert proc.returncode == 3, proc.stderr
    assert "Traceback" not in proc.stderr
    assert "c0" in proc.stderr


def test_uncapped_searches_exit_7(tmp_path):
    for args in (("generate", "--field", "gaussian", "--k", "1000", "--out", "run"),
                 ("generate", "--field", "gaussian", "--R", "3", "--scale", "1",
                  "--translate-candidates", "1000000000", "--out", "run"),
                 ("generate", "--field", "gaussian", "--scale", "1", "--R", "1000",
                  "--out", "run"),
                 ("grid", "--n", "1000000"),
                 ("find-split-primes", "--T", "5", "--count", str(10 ** 400),
                  "--cap", str(10 ** 400))):
        t0 = time.perf_counter()
        proc = _run_module(tmp_path, *args)
        assert time.perf_counter() - t0 < 10, args
        assert proc.returncode == 7, (args, proc.stderr)
        assert "limit" in proc.stderr and "Traceback" not in proc.stderr


def test_window_past_box_cap_within_work_cap(tmp_path, capsys):
    # the coefficient box of this window has 793 881 cells, past the
    # default --max-points of 200 000, and the walk's work is 114 842
    rc, data = run_cli(capsys, "generate", "--field", "adjoin-i:5", "--prime", "29",
                       "--k", "0", "--scale", "1/5", "--R", "3", "--no-plot",
                       "--out", str(tmp_path))
    assert rc == 0
    assert data["measured_points"] == 99989
    assert data["measured_unit_pairs"] == 622132


def test_generate_auto_scale_keeps_closure_mode(tmp_path, capsys):
    # without --scale the scale is chosen automatically, and --mode closure
    # still builds a closure, not a full window
    rc, data = run_cli(capsys, "generate", "--field", "gaussian", "--prime", "5",
                       "--k", "1", "--mode", "closure", "--R", "3", "--no-plot",
                       "--out", str(tmp_path))
    assert rc == 0
    assert data["mode"] == "closure" and data["delta"] == "1/25"
    assert data["measured_points"] == 17185
    assert any(w.startswith("closure mode") for w in data["warnings"])


def test_generate_auto_scale_sizes_a_closure_by_its_points(tmp_path, capsys):
    # the (1/625) closure at R = 627/625 is its inner window times the 20
    # units plus one (~264 points by the estimate), not the ~1.2e6 points of
    # the full window, so it is taken at the natural scale with every unit
    rc, data = run_cli(capsys, "generate", "--field", "gaussian", "--prime", "5",
                       "--k", "2", "--mode", "closure", "--R", "627/625",
                       "--allow-small-R", "--no-plot", "--out", str(tmp_path))
    assert rc == 0
    assert data["mode"] == "closure" and data["delta"] == "1/625"
    assert data["units_usable"] == data["units_emitted"] == 20
    assert (data["measured_points"], data["measured_unit_pairs"]) == (273, 260)
    assert not any("falling back" in w for w in data["warnings"])
    # a closure lies inside its B_R window, so it is never sized above the
    # window's estimate: at O_K the inner window times the 4 usable units
    # plus one (~5.7e3) exceeds the window's ~1.3e3, which fits 2000
    rc, data = run_cli(capsys, "generate", "--field", "gaussian", "--prime", "5",
                       "--k", "2", "--mode", "closure", "--R", "20", "--max-points", "2000",
                       "--no-plot", "--out", str(tmp_path))
    assert rc == 0
    assert data["mode"] == "closure" and data["delta"] == "1"
    assert data["measured_points"] == 1237


def test_closure_past_max_points_exits_7(tmp_path, capsys):
    # the inner window fits --max-points, its unit translates do not
    assert main(["generate", "--field", "gaussian", "--prime", "5", "--k", "2",
                 "--mode", "closure", "--scale", "1", "--R", "25.9",
                 "--max-points", "2000", "--no-plot", "--out", str(tmp_path)]) == 7
    assert "closure has 2085 points (limit 2000)" in capsys.readouterr().err


@pytest.mark.parametrize("source", ["sidecar", "field", "closure provenance"])
def test_exact_count_joins_a_window_from_its_rows(tmp_path, capsys, monkeypatch, source):
    # the pair path is chosen from the rows: the window's census comes from
    # the join whether the field comes from the sidecar or --field, and
    # whatever the sidecar's provenance says
    import udfield.counting

    assert main(["generate", "--field", "gaussian", "--prime", "5", "--k", "2",
                 "--scale", "1/5", "--R", "5", "--no-plot", "--out", str(tmp_path)]) == 0
    report = json.loads(capsys.readouterr().out)
    argv = ["count", "--csv", str(tmp_path / "pointset.csv"), "--method", "exact"]
    rc, want = run_cli(capsys, *argv)
    assert rc == 0 and want["n_points"] == report["measured_points"]
    assert want["unit_pairs"] == report["measured_unit_pairs"] > 0

    def cell_hash(*_):
        raise AssertionError("a window's pairs went to the cell hash")

    monkeypatch.setattr(udfield.counting, "_cell_pairs", cell_hash)
    sidecar = tmp_path / "pointset.json"
    if source == "field":
        sidecar.unlink()
        argv += ["--field", "gaussian"]
    elif source == "closure provenance":
        data = json.loads(sidecar.read_text())
        data["provenance"].update(mode="closure", scale="1/7")
        sidecar.write_text(json.dumps(data))
    rc, got = run_cli(capsys, *argv)
    assert rc == 0
    del got["runtime_ms"], want["runtime_ms"]
    assert got == want


@pytest.mark.parametrize("max_points, builds", [("50", 0), ("1281", 1)])
def test_auto_window_with_no_feasible_window_exits_7(tmp_path, capsys, monkeypatch,
                                                     max_points, builds):
    # at 50 the estimate for O_K already passes the cap; at 1281 it does
    # not, but the build of O_K passes it and no scale is left to retry
    from udfield import construct

    calls = []
    build = construct._build
    monkeypatch.setattr(construct, "_build",
                        lambda *args: calls.append(args[2]) or build(*args))
    rc = main(["generate", "--field", "gaussian", "--prime", "5", "--k", "2", "--R", "20",
               "--max-points", max_points, "--no-plot", "--out", str(tmp_path)])
    assert rc == 7
    assert "no desk-feasible window" in capsys.readouterr().err
    assert calls == [1] * builds


def test_generate_mode_offers_window_and_closure(tmp_path, capsys):
    # window is the default; without --scale, build_pointset chooses the
    # scale in either mode, so no mode of its own selects that
    with pytest.raises(SystemExit) as exc:
        main(["generate", "--field", "gaussian", "--mode", "auto", "--out", str(tmp_path)])
    assert exc.value.code == 2
    assert "invalid choice: 'auto'" in capsys.readouterr().err


def test_generate_auto_window_beyond_4000_points(tmp_path, capsys):
    # about 5000 points in O_K: auto mode once refused windows past 4000
    rc, data = run_cli(capsys, "generate", "--field", "gaussian", "--prime", "5",
                       "--k", "2", "--R", "40", "--no-plot", "--out", str(tmp_path))
    assert rc == 0
    assert data["delta"] == "1" and data["measured_points"] > 4000


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


@pytest.mark.parametrize("basis, message", [
    ([["1", "0"], ["0", "1/2"]],
     "integral basis is not closed under multiplication (b1*b1 has coordinate -1/4)"),
    ([["1", "0"], ["2", "0"]], "singular matrix"),
    (None, "min_poly must have degree at least 1")])
def test_bad_integral_basis_exits_3_with_its_message(tmp_path, basis, message):
    # theta^2 / 4 = -1/4 leaves Z-span of {1, theta / 2}; rows 1 and 2 are
    # dependent; a constant min_poly describes no field
    bad = tmp_path / "field.json"
    bad.write_text(json.dumps({"min_poly": [1] if basis is None else [1, 0, 1],
                               "integral_basis": basis}))
    proc = _run_module(tmp_path, "generate", "--field", str(bad), "--out", "run")
    assert proc.returncode == 3, proc.stderr
    assert proc.stderr == f"error: field description: {message}\n"


@pytest.mark.parametrize("poly", [[1, 2, 1], [1, 0, 2, 0, 1]])
def test_non_squarefree_min_poly_exits_4_with_its_message(tmp_path, poly):
    # (x + 1)^2 and (x^2 + 1)^2
    (tmp_path / "field.json").write_text(json.dumps({"min_poly": poly}))
    proc = _run_module(tmp_path, "generate", "--field", "field.json", "--out", "run")
    assert proc.returncode == 4, proc.stderr
    assert proc.stderr == f"error: gcd(p, p') is nonconstant for {tuple(poly)}\n"


def test_bad_r2_box_exits_3(tmp_path):
    proc = _run_module(tmp_path, "r2", "--alpha", "5", "--field", "qsqrt5",
                       "--box", "abc")
    assert proc.returncode == 3, proc.stderr
    assert "Traceback" not in proc.stderr


def test_bad_r2_alpha_exits_3(tmp_path):
    proc = _run_module(tmp_path, "r2", "--alpha", "abc")
    assert proc.returncode == 3, proc.stderr
    assert "Traceback" not in proc.stderr


@pytest.mark.parametrize("flag, value", [("--translate-candidates", "-3"), ("--k", "-1")])
def test_negative_work_size_exits_3(tmp_path, flag, value):
    proc = _run_module(tmp_path, "generate", "--field", "gaussian", flag, value,
                       "--out", "run")
    assert proc.returncode == 3, proc.stderr
    assert "Traceback" not in proc.stderr


BAD_WINDOW_ARGS = [(("--translate-candidates", "2000"), 7),
                   (("--translate-candidates", "-1"), 3),
                   (("--projection-coordinate", "2"), 3),
                   (("--scale", "0"), 3),
                   (("--max-points", "-5"), 3),
                   (("--max-points", "0"), 3),
                   (("--out", "taken"), 3)]


@pytest.mark.parametrize("args, code", BAD_WINDOW_ARGS)
@pytest.mark.parametrize("scale", [None, "1"])
def test_generate_checks_arguments_before_work(tmp_path, monkeypatch, args, code, scale):
    # a bad window argument or --out fails before the prime splitting and
    # the pigeonhole, in explicit-scale and in auto mode
    import udfield.construct
    import udfield.ideals

    def exact_work(*_, **__):
        raise AssertionError("exact work started before the arguments were checked")

    monkeypatch.setattr(udfield.ideals, "split_prime", exact_work)
    monkeypatch.setattr(udfield.construct, "pigeonhole_units", exact_work)
    (tmp_path / "taken").write_text("")
    argv = ["generate", "--field", "adjoin-i:5", "--prime", "29", "--R", "3",
            "--out", str(tmp_path / "run")]
    if scale is not None:
        argv += ["--scale", scale]
    args = [str(tmp_path / a) if a == "taken" else a for a in args]
    assert main(argv + args) == code


@pytest.mark.parametrize("args, code", [BAD_WINDOW_ARGS[0], BAD_WINDOW_ARGS[-1]])
def test_generate_bad_window_args_exit_typed(tmp_path, args, code):
    (tmp_path / "taken").write_text("")
    proc = _run_module(tmp_path, "generate", "--field", "adjoin-i:5", "--prime", "29",
                       "--R", "3", "--out", "run", *args)
    assert proc.returncode == code, proc.stderr
    assert "Traceback" not in proc.stderr


@pytest.mark.parametrize("args", [["--mode", "closure", "--R", "1/2"], ["--R", "-3"]])
def test_generate_empty_point_set_plots_the_frame(tmp_path, capsys, args):
    # a closure at R = 1/2 and a window at R < 0 hold no point: the plot is
    # the frame alone, byte for byte the same on a second run
    plots = []
    for out in ("a", "b"):
        assert main(["generate", "--field", "gaussian", "--scale", "1", *args,
                     "--allow-small-R", "--out", str(tmp_path / out)]) == 0
        assert json.loads(capsys.readouterr().out)["measured_points"] == 0
        plots.append((tmp_path / out / "scatter.svg").read_bytes())
    assert plots[0] == plots[1]
    assert b"<circle" not in plots[0] and plots[0].endswith(b"</svg>\n")


def test_reducible_min_poly_exits_4(tmp_path):
    # x^4 + x^2 + 1 = (x^2 + x + 1)(x^2 - x + 1) is squarefree and passes CM
    # detection; the first sign taken of a zero divisor raises NotAField
    (tmp_path / "field.json").write_text(json.dumps({"min_poly": [1, 0, 1, 0, 1]}))
    proc = _run_module(tmp_path, "generate", "--field", "field.json", "--prime", "7",
                       "--k", "1", "--scale", "1", "--R", "3", "--no-plot", "--out", "run",
                       timeout=30)
    assert proc.returncode == 4, proc.stderr
    assert "reducible" in proc.stderr and "Traceback" not in proc.stderr


def test_exact_count_beyond_float_precision_exits_5(tmp_path):
    # positions near 10^17 are only good to about 100, too coarse to prune
    (tmp_path / "big.csv").write_text("index,re,im,c0,c1\n"
                                      "0,0,0,100000000000000000,0\n"
                                      "1,0,0,100000000000000001,0\n")
    proc = _run_module(tmp_path, "count", "--csv", "big.csv",
                       "--method", "exact", "--field", "gaussian")
    assert proc.returncode == 5, proc.stderr
    assert "Traceback" not in proc.stderr


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


# min_poly coefficients past 2^1024, out of float range, and roots that
# nearly coincide relative to their size
_HUGE_FIELDS = [([2 ** 1100, 0, 1], 0),                   # +-2^550 i
                ([3 ** 700, 0, 1], 0),                    # +-3^350 i
                ([2 ** 120 + 1, -2 ** 61, 1], 0),         # 2^60 +- i
                ([2 ** 2046 + 1, 2 ** 1024, 1], None),    # -2^1023 +- i
                ([2 ** 1200, 0, 0, 0, 1], None)]


@pytest.mark.parametrize("poly, code", _HUGE_FIELDS)
def test_huge_or_clustered_min_poly_exits_typed(tmp_path, poly, code):
    (tmp_path / "field.json").write_text(json.dumps({"min_poly": poly}))
    proc = _run_module(tmp_path, "generate", "--field", "field.json", "--prime", "5",
                       "--k", "1", "--out", "run")
    assert proc.returncode in ((0, 3, 4, 5, 6, 7, 8) if code is None else (code,)), \
        proc.stderr
    assert "Traceback" not in proc.stderr


def test_unfactorable_discriminant_exits_7(tmp_path):
    # x^2 + 2^1100 + 1: the squarefree part of the discriminant needs the
    # factors of 2^1100 + 1, and Pollard rho stops at its step cap
    (tmp_path / "field.json").write_text(json.dumps({"min_poly": [2 ** 1100 + 1, 0, 1]}))
    t0 = time.perf_counter()
    proc = _run_module(tmp_path, "generate", "--field", "field.json", "--prime", "5",
                       "--k", "1", "--out", "run")
    assert proc.returncode == 7, proc.stderr
    assert "Pollard rho" in proc.stderr and "Traceback" not in proc.stderr
    assert time.perf_counter() - t0 < 15


def test_window_past_int64_basis_exits_0(tmp_path):
    # scale 2^63: a basis row past int64 around a window that holds only 0
    proc = _run_module(tmp_path, "generate", "--field", "gaussian", "--k", "0",
                       "--scale", str(1 << 63), "--R", "2", "--out", "run")
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout)["measured_points"] == 1
