"""Fresh-process probes: set-up time, bare import, and one-at-a-time CLI calls.

Each probe starts ``python`` with ``PYTHONPATH`` set to the checkout's ``src``
and waits for it to exit; the wall time includes interpreter start-up, which
every CLI call and every library session pays.
"""

from __future__ import annotations

import json
import os
import statistics
import subprocess
import sys
from time import perf_counter

# Imports cqlnet, then loads the pauli8 category and model from files; prints
# the three durations it saw from inside, then one timing of the reference
# work (see speed.py), and the time it spent after the set-up.
SETUP_CODE = """\
import json, sys, time
t0 = time.perf_counter()
import cqlnet
t1 = time.perf_counter()
with open(sys.argv[1]) as fh:
    cat = cqlnet.load_category(fh.read())
t2 = time.perf_counter()
with open(sys.argv[2]) as fh:
    cqlnet.load_model(fh.read(), cat)
t3 = time.perf_counter()
sys.path.insert(0, sys.argv[3])
import speed
ref = speed.time_reference()
print(json.dumps([t1 - t0, t2 - t1, t3 - t2, ref, time.perf_counter() - t3]))
"""

# CLI calls on the bundled fixtures, with the stdout README documents.
CLI_CASES = (
    (("check", "--category", "pauli8.cat", "bell.net"),
     "net bell: 1 slice(s)\nconclusions Q* , Q\n"),
    (("eval", "--category", "pauli8.cat", "--model", "pauli8.mod", "bellx.net"),
     "[0, 1, 1, 0]\n"),
    (("equal", "--category", "pauli8.cat", "chain.net", "bell.net"), "equal\n"),
)


class ProbeError(Exception):
    pass


class Probes:
    def __init__(self, root, examples_dir):
        self.root = root
        self.examples = examples_dir
        self.env = dict(os.environ, PYTHONPATH=str(root / "src"))

    def _run(self, args):
        start = perf_counter()
        proc = subprocess.run(
            [sys.executable, *args], cwd=self.root, env=self.env,
            capture_output=True, text=True, timeout=120,
        )
        return perf_counter() - start, proc

    def write_examples(self):
        """``cqlnet examples DIR``: the fixture files every other probe reads."""
        _, proc = self._run(["-m", "cqlnet.cli", "examples", str(self.examples)])
        if proc.returncode != 0:
            raise ProbeError(f"cqlnet examples failed: {proc.stderr.strip()}")

    def setup(self):
        """One fresh process.

        Returns (set-up wall s, import s, category load s, model load s,
        reference s), where the wall time leaves out what the process did after
        its set-up, and the reference is timed inside the process: its first
        run there is as cold as the set-up, so the two drift together.
        """
        wall, proc = self._run(
            ["-c", SETUP_CODE, str(self.examples / "pauli8.cat"),
             str(self.examples / "pauli8.mod"), str(self.root / "bench")]
        )
        if proc.returncode != 0:
            raise ProbeError(f"set-up probe failed: {proc.stderr.strip()}")
        import_s, category_s, model_s, ref_s, after_s = json.loads(proc.stdout)
        return wall - after_s, import_s, category_s, model_s, ref_s

    def bare_import(self, repeats):
        """Median wall time of ``python -c 'import cqlnet'``."""
        walls = []
        for _ in range(repeats):
            wall, proc = self._run(["-c", "import cqlnet"])
            if proc.returncode != 0:
                raise ProbeError(f"import probe failed: {proc.stderr.strip()}")
            walls.append(wall)
        return statistics.median(walls)

    def cli(self, repeats):
        """(median wall time of one CLI call, calls made, calls with wrong stdout)."""
        walls = []
        wrong = 0
        for _ in range(repeats):
            for args, want in CLI_CASES:
                argv = [a if "." not in a else str(self.examples / a) for a in args]
                wall, proc = self._run(["-m", "cqlnet.cli", *argv])
                walls.append(wall)
                if proc.returncode != 0 or proc.stdout != want:
                    wrong += 1
                    print(f"cli {args[0]}: exit {proc.returncode}, stdout "
                          f"{proc.stdout!r}, want {want!r}", file=sys.stderr)
        return statistics.median(walls), len(walls), wrong
