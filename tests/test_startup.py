"""scipy loads only where a sparse matrix is built.

Every ``or-verify`` run is a fresh process.  Importing ``scipy.sparse``
(with numpy 2.4 and scipy 1.17 it also loads numpy.f2py, numpy.testing and
numpy.ma) took about half of that process's start-up, so a command that
builds no Ulam operator must not load scipy.  ``openrates.ulam`` is the
only module that imports it: the billiard theta chi-square p-value comes
from mpmath, as ``scipy.stats`` lifted the criterion-6 process from ~35 MB
to ~114 MB.  Each case runs in a fresh interpreter, since this test process
has loaded scipy already.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src"

# prints the scipy modules loaded by `import openrates.cli`, then those
# loaded after `main(argv)`, and main's exit code, as one JSON line
PROBE = """\
import json, sys

def scipy_modules():
    return sorted(m for m in sys.modules if m.split(".")[0] == "scipy")

from openrates.cli import main
at_import = scipy_modules()
code = main(sys.argv[1:])
print(json.dumps([at_import, scipy_modules(), code]))
"""

TOWER = {"tower": {"branches": [
    {"id": "A", "R": 1, "J": 2.0, "mass": 0.5},
    {"id": "B", "R": 2, "J": 4.0, "mass": 0.25},
    {"id": "C", "R": 2, "J": 4.0, "mass": 0.25, "holed": True}],
    "C0": 1.0, "theta0": 0.5}}
BALLS = {"seed": 3,
         "system": {"map": {"name": "adic", "params": {"m": 2}},
                    "hole": {"kind": "empty", "dimension": 1}},
         "balls": {"eps": 0.1, "n_values": [4, 6, 8], "centers": [0.3137],
                   "samples": 10000}}
BILLIARD = {"seed": 5,
            "billiard": {"validation_rays": 2000, "samples": 4000,
                         "n_max": 10,
                         "holes": [{"kind": "arc", "scatterer": 0,
                                    "arc_center": 1.0,
                                    "arc_halfwidth": 0.2}]}}
# the golden-mean hole [11]: words and Monte Carlo build no Ulam operator,
# and neither does the Parry chain behind the pressure verdict
GOLDEN_HOLE = {"map": {"name": "doubling"},
               "hole": {"kind": "cylinder_union", "base": 2, "level": 2,
                        "words": [[1, 1]]}}
ESCAPE = {"seed": 7, "system": GOLDEN_HOLE,
          "escape": {"methods": ["words", "mc"], "level": 2, "n_max": 20,
                     "samples": 20000}}
PRESSURE = {"system": GOLDEN_HOLE,
            "escape": {"methods": ["words"], "level": 2}}
CAT_ULAM = {"system": {"map": {"name": "cat"},
                       "hole": {"kind": "region_2d", "shape": "ball",
                                "center": [0.25, 0.75], "radius": 0.1}},
            "ulam": {"resolution": 32}}


def _run(code, args, cwd):
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC) + os.pathsep + env.get("PYTHONPATH", "")
    out = subprocess.run([sys.executable, "-c", code, *args], env=env,
                         cwd=cwd, capture_output=True, text=True, timeout=120)
    assert out.returncode == 0, out.stderr
    return json.loads(out.stdout.splitlines()[-1])


def _or_verify(tmp_path, command, cfg):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(cfg))
    return _run(PROBE, [command, "--config", str(path), "--out-dir",
                        str(tmp_path / "out")], tmp_path)


def test_import_loads_no_scipy(tmp_path):
    assert _run("import json, sys\nimport openrates.cli\n"
                "print(json.dumps([m for m in sys.modules "
                "if m.split('.')[0] == 'scipy']))", [], tmp_path) == []


def test_tower_balls_and_billiard_load_no_scipy(tmp_path):
    for command, cfg in (("tower", TOWER), ("balls", BALLS),
                         ("billiard", BILLIARD)):
        assert _or_verify(tmp_path, command, cfg) == [[], [], 0], command


def test_words_escape_and_pressure_load_no_scipy(tmp_path):
    for command, cfg in (("escape", ESCAPE), ("pressure", PRESSURE)):
        assert _or_verify(tmp_path, command, cfg) == [[], [], 0], command


def test_theta_chi2_loads_no_scipy(tmp_path):
    # criterion 6's stationarity test: the p-value comes from mpmath
    code = """\
import json, sys
from openrates import billiard as B
p = B.theta_chi2(B.build_table(validation_rays=2000), 4000, seed=1)[0]
print(json.dumps([sorted(m for m in sys.modules
                         if m.split(".")[0] == "scipy"), 0.0 < p <= 1.0]))
"""
    assert _run(code, [], tmp_path) == [[], True]


def test_ulam_loads_scipy_on_first_build(tmp_path):
    at_import, after, code = _or_verify(tmp_path, "ulam", CAT_ULAM)
    assert (at_import, code) == ([], 0)
    assert "scipy.sparse" in after


def test_lazy_scipy_builds_the_pinned_cat_operator(tmp_path):
    # the cat 256^2 operator of test_fixed_seed_outputs, built in a process
    # that imports scipy.sparse only inside the assembly
    code = """\
import hashlib, json, sys
from openrates.systems import OpenSystem, ball_hole_2d, cat_map
from openrates.ulam import build_ulam
before = "scipy" in sys.modules
mat = build_ulam(OpenSystem(cat_map(), ball_hole_2d((0.25, 0.75), 0.1)),
                 256).matrix
digest = hashlib.sha256()
for a in (mat.indptr, mat.indices, mat.data):
    digest.update(a.tobytes())
print(json.dumps([before, mat.nnz, digest.hexdigest()]))
"""
    assert _run(code, [], tmp_path) == [
        False, 254126,
        "a31dd708206729a9ace3cc8f14580fa2332f2b9dee16089d6f56fac14788fa80"]
