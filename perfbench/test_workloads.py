"""Self-test of the seed -> input mapping.  Times nothing.

    python3 -m pytest -q perfbench/test_workloads.py

The last two tests run the program (about a minute in all).
"""

import json
import os
import subprocess
import sys
from fractions import Fraction
from math import isqrt

import pytest

import workloads

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SEEDS = range(200)


def gaussian_disc_count(R):
    """Number of Gaussian integers z with |z| <= R (exact)."""
    R2 = Fraction(R) ** 2
    return sum(2 * isqrt(int(R2 - a * a)) + 1
               for a in range(-isqrt(int(R2)), isqrt(int(R2)) + 1))


def band_counts(band):
    """Point counts of every R a band can draw."""
    lo, hi = band
    return [gaussian_disc_count(Fraction(x, 1000)) for x in range(lo, hi + 1)]


def run_udfield(argv, cwd):
    env = dict(os.environ, PYTHONPATH=os.path.join(ROOT, "src"))
    subprocess.run([sys.executable, "-m", "udfield", *argv], cwd=cwd, env=env,
                   check=True, stdout=subprocess.DEVNULL)


@pytest.mark.parametrize("name", workloads.WORKLOADS)
def test_same_seed_same_argv(name):
    for seed in SEEDS:
        wl = workloads.make(name, seed)
        assert wl == workloads.make(name, seed)
        assert not any(a.startswith("/") or ".." in a
                       for a in wl.argv + (wl.input_argv or ()))
    assert len({workloads.make(name, s) for s in SEEDS}) > 1


def test_gaussian_bands_are_narrow():
    window = band_counts(workloads.GAUSS_WINDOW_R)
    assert max(window) < 2000          # generate still writes scatter.svg
    assert max(window) <= 1.02 * min(window)
    csv = band_counts(workloads.COUNT_CSV_R)
    assert 3800 <= min(csv) and max(csv) <= 1.01 * min(csv)


def test_deg4_primes_and_parameters():
    drawn = set()
    for seed in SEEDS:
        argv = workloads.make("deg4-closure", seed).argv
        p = int(argv[argv.index("--prime") + 1])
        drawn.add(p)
        assert Fraction(argv[argv.index("--scale") + 1]) == Fraction(1, p * p)
        assert Fraction(argv[argv.index("--R") + 1]) == Fraction(p * p + 2, p * p)
    assert drawn == set(workloads.DEG4_PRIMES)


def test_count_csv_inputs_are_identical_per_seed(tmp_path):
    wl = workloads.make("count-csv", 7)
    files = []
    for run in ("a", "b"):
        (tmp_path / run).mkdir()
        run_udfield(wl.input_argv, tmp_path / run)
        inputs = tmp_path / run / workloads.INPUT_DIR
        files.append({f: (inputs / f).read_bytes()
                      for f in ("pointset.csv", "pointset.json")})
    assert files[0] == files[1]
    R = Fraction(wl.input_argv[wl.input_argv.index("--R") + 1])
    sidecar = json.loads(files[0]["pointset.json"])
    assert sidecar["n_points"] == gaussian_disc_count(R)


@pytest.mark.parametrize("p", workloads.DEG4_PRIMES)
def test_deg4_invariant(tmp_path, p):
    seed = next(s for s in SEEDS if f"--prime {p} " in " ".join(
        workloads.make("deg4-closure", s).argv))
    wl = workloads.make("deg4-closure", seed)
    run_udfield(wl.argv, tmp_path)
    with open(tmp_path / workloads.OUT_DIR / "report.json") as fh:
        construction = json.load(fh)["construction"]
    got = (construction["measured_points"], construction["measured_unit_pairs"])
    assert got == wl.expected
