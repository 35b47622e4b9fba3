"""Tests that A/B runs give each side its own build (gbxbench/ab.py and
gbxbench/run.py)."""
import io
import os
import sys
import tempfile
import unittest
from contextlib import redirect_stderr
from unittest import mock

sys.path.insert(0, os.path.dirname(os.path.dirname(os.path.abspath(__file__))))
import ab  # noqa: E402
import run  # noqa: E402


class SideEnvTest(unittest.TestCase):
    def test_each_side_builds_in_its_own_directory(self):
        with mock.patch.dict(os.environ, {"CARGO_TARGET_DIR": "/shared/build"}):
            parent = ab.side_env("out", "parent")
            change = ab.side_env("out", "change")
        self.assertEqual(parent["CARGO_TARGET_DIR"],
                         os.path.join(os.path.abspath("out"), "build-parent"))
        self.assertEqual(change["CARGO_TARGET_DIR"],
                         os.path.join(os.path.abspath("out"), "build-change"))

    def test_run_one_passes_the_side_environment(self):
        env = ab.side_env("out", "change")
        done = mock.Mock(returncode=0, stdout='{"correct": true}\n', stderr="")
        with tempfile.TemporaryDirectory() as d, \
                mock.patch.object(ab.subprocess, "run", return_value=done) as r:
            ab.run_one("checkout", env, "serve-small", 1, 10,
                       os.path.join(d, "serve-small-seed1.json"))
        self.assertIs(r.call_args.kwargs["env"], env)
        self.assertEqual(r.call_args.kwargs["cwd"], "checkout")


class BuildDirectoryTest(unittest.TestCase):
    def write_cache(self, directory, source):
        with open(os.path.join(directory, "CMakeCache.txt"), "w") as f:
            f.write("# cache\nCMAKE_BUILD_TYPE:STRING=Release\n"
                    f"CMAKE_HOME_DIRECTORY:INTERNAL={source}\n")

    def test_configured_source_reads_the_cache(self):
        with tempfile.TemporaryDirectory() as d:
            self.assertIsNone(run.configured_source(d))
            self.write_cache(d, run.HERE)
            self.assertEqual(run.configured_source(d), run.HERE)

    def test_a_build_of_another_checkout_is_refused(self):
        with tempfile.TemporaryDirectory() as d:
            self.write_cache(d, "/elsewhere/gbxbench")
            with mock.patch.dict(os.environ, {"CARGO_TARGET_DIR": d}), \
                    mock.patch.object(run.subprocess, "run") as r, \
                    redirect_stderr(io.StringIO()) as err:
                status = run.main()
        self.assertEqual(status, 1)
        r.assert_not_called()
        self.assertIn("/elsewhere/gbxbench", err.getvalue())


if __name__ == "__main__":
    unittest.main()
