#!/usr/bin/env python3
"""End-to-end tests for the grist_run driver's restart contract.

    python3 scripts/test_grist_run.py path/to/grist_run

A run broken by `restart_out` -> `restart_in` must end in a snapshot
byte-identical to the unbroken run's, solo and at 2 ranks on both
transports; the two transports run the namelist's dycore and agree byte
for byte; `--ensemble` with a restart key, a resume under another dt and
an unknown scheme are refused with exit 2. The namelist is G2 with physics off (`phy_interval` above the run
length): the physics suites' caches are not checkpointed.
"""
import os
import subprocess
import sys
import tempfile
import unittest

GRIST_RUN = None  # set from argv in __main__

BASE_NAMELIST = """\
grid_level = 2
nlev = 8
dt_dyn = 600
trac_interval = 4
phy_interval = 1000000
scheme = DP-PHY
case = baroclinic
report_interval = 1000
"""

# N is off the tracer cadence (trac_interval 4): the DIAG section makes a
# mid-window resume exact, and this is where it would show if it did not.
N, M = 6, 5


class GristRunTest(unittest.TestCase):
    def setUp(self):
        self._tmp = tempfile.TemporaryDirectory()
        self.dir = self._tmp.name

    def tearDown(self):
        self._tmp.cleanup()

    def path(self, name):
        return os.path.join(self.dir, name)

    def run_grist(self, steps, extra_keys="", flags=()):
        """Run grist_run on BASE_NAMELIST + extra_keys; returns the process."""
        nml = self.path("run.nml")
        with open(nml, "w", encoding="utf-8") as f:
            f.write(BASE_NAMELIST + extra_keys)
        env = dict(os.environ)
        env.setdefault("OMP_NUM_THREADS", "1")
        return subprocess.run([GRIST_RUN, nml, str(steps), *flags],
                              cwd=self.dir, env=env, capture_output=True,
                              text=True, timeout=240)

    def run_ok(self, steps, extra_keys="", flags=()):
        p = self.run_grist(steps, extra_keys, flags)
        self.assertEqual(p.returncode, 0, p.stdout + p.stderr)
        return p

    def read(self, name):
        with open(self.path(name), "rb") as f:
            return f.read()

    def check_resume_is_byte_identical(self, flags=()):
        a, b, c = self.path("a.grist"), self.path("b.grist"), self.path("c.grist")
        self.run_ok(N + M, f"restart_out = {a}\n", flags)
        self.run_ok(N, f"restart_out = {b}\n", flags)
        p = self.run_ok(M, f"restart_in = {b}\nrestart_out = {c}\n", flags)
        self.assertIn("resum", p.stdout)
        self.assertEqual(self.read("a.grist"), self.read("c.grist"))

    def test_solo_resume_is_byte_identical(self):
        self.check_resume_is_byte_identical()

    def test_threads_resume_is_byte_identical(self):
        self.check_resume_is_byte_identical(("--ranks", "2",
                                             "--transport", "threads"))

    def test_shm_resume_is_byte_identical(self):
        self.check_resume_is_byte_identical(("--ranks", "2",
                                             "--transport", "shm"))

    def test_multi_rank_runs_the_namelist_dycore(self):
        # Both transports run the namelist's damping (not DycoreConfig's
        # defaults), so they agree byte for byte, and changing a damping
        # key changes the result.
        out = {}
        for name, transport, keys in (("threads", "threads", ""),
                                      ("shm", "shm", ""),
                                      ("undamped", "threads",
                                       "div_damp = 0.02\ndiff_coef = 0.005\n"
                                       "w_damp_tau = 0\n")):
            target = self.path(name + ".grist")
            self.run_ok(N, f"{keys}restart_out = {target}\n",
                        ("--ranks", "2", "--transport", transport))
            out[name] = self.read(name + ".grist")
        self.assertEqual(out["threads"], out["shm"])
        self.assertNotEqual(out["threads"], out["undamped"])

    def test_ensemble_refuses_restart_keys(self):
        for key in ("restart_out", "restart_in"):
            target = self.path("e.grist")
            if key == "restart_in":
                self.run_ok(1, f"restart_out = {target}\n")
            p = self.run_grist(1, f"{key} = {target}\n", ("--ensemble", "2"))
            self.assertEqual(p.returncode, 2, key + ": " + p.stdout + p.stderr)
            self.assertIn(key, p.stderr)

    def test_resume_under_another_dt_is_refused(self):
        for flags in ((), ("--ranks", "2", "--transport", "threads")):
            b = self.path("b.grist")
            self.run_ok(N, f"restart_out = {b}\n", flags)
            p = self.run_grist(M, f"dt_dyn = 300\nrestart_in = {b}\n", flags)
            self.assertEqual(p.returncode, 2, p.stdout + p.stderr)
            self.assertIn("CONFIG mismatch: dt", p.stderr)

    def test_multi_rank_refuses_unknown_scheme(self):
        p = self.run_grist(1, "scheme = bogus\n", ("--ranks", "2"))
        self.assertEqual(p.returncode, 2, p.stdout + p.stderr)
        self.assertIn("bogus", p.stderr)


if __name__ == "__main__":
    if len(sys.argv) < 2:
        sys.exit("usage: test_grist_run.py path/to/grist_run [unittest args]")
    GRIST_RUN = os.path.abspath(sys.argv.pop(1))
    unittest.main()
