#!/usr/bin/env python3
"""Determinism gate: a command's stdout must not move under perturbation.

    scripts/perturb.py OUT -- CMD [ARG...]

Runs CMD once plainly and leaves its stdout in OUT (the artifact).  Then
it runs CMD again, each time in a fresh process under one perturbation
that must not change a byte, and compares each stdout with OUT:

  plain             a second run, nothing changed
  PYTHONHASHSEED=0  str / bytes hashes, and so set order, from seed 0
  PYTHONHASHSEED=1  ... and from seed 1 (the two order sets differently)
  env-noise         TZ, HOME and TMPDIR changed, and every lookup of an
                    unset REPRO_* variable answers a junk value
  gc-off            the cyclic garbage collector disabled
  gc-aggressive     the collector at thresholds (50, 2, 2)

The collector and REPRO_* perturbations reach every Python process CMD
starts through a startup shim, a ``sitecustomize`` module in a temporary
directory prepended to PYTHONPATH; CMD itself is never edited.

Exits 2 on a usage error.  Exits with a run's own status when a run
fails, and 1 when a stdout differs from OUT; either way it names the
perturbation, and a difference is printed as a diff.  Exits 0 when every
run matches.
"""

import difflib
import os
import subprocess
import sys
import tempfile

#: What the startup shim does, per perturbation that needs one.
SHIMS = {
    "env-noise": '''\
import os

class _JunkEnviron(type(os.environ)):
    """Every unset REPRO_* name answers a junk value."""

    def __getitem__(self, key):
        try:
            return super().__getitem__(key)
        except KeyError:
            if isinstance(key, str) and key.startswith("REPRO_"):
                return "perturb-junk-\\u00e9"
            raise

os.environ.__class__ = _JunkEnviron
''',
    "gc-off": "import gc\ngc.disable()\n",
    "gc-aggressive": "import gc\ngc.set_threshold(50, 2, 2)\n",
}

#: Diff lines printed for one moved stdout before the rest is counted.
DIFF_LINES = 200


def perturbations(scratch):
    """``(name, environment)`` for every rerun, in order."""
    base = dict(os.environ)
    runs = [("plain", base),
            ("PYTHONHASHSEED=0", dict(base, PYTHONHASHSEED="0")),
            ("PYTHONHASHSEED=1", dict(base, PYTHONHASHSEED="1"))]
    noise = dict(base, TZ="Pacific/Kiritimati")
    for name in ("HOME", "TMPDIR"):
        noise[name] = os.path.join(scratch, name.lower())
        os.mkdir(noise[name])
    for name in ("env-noise", "gc-off", "gc-aggressive"):
        shim = os.path.join(scratch, name)
        os.mkdir(shim)
        with open(os.path.join(shim, "sitecustomize.py"), "w") as handle:
            handle.write(SHIMS[name])
        env = dict(noise if name == "env-noise" else base)
        path = env.get("PYTHONPATH")
        env["PYTHONPATH"] = shim + (os.pathsep + path if path else "")
        runs.append((name, env))
    return runs


def report_diff(name, expected, got):
    first = next((i for i, (a, b) in enumerate(zip(expected, got))
                  if a != b), min(len(expected), len(got)))
    print(f"perturb.py: stdout under {name} differs from OUT "
          f"(first difference at byte {first})", flush=True)
    lines = list(difflib.unified_diff(
        expected.decode("utf-8", "replace").splitlines(keepends=True),
        got.decode("utf-8", "replace").splitlines(keepends=True),
        "OUT", name))
    sys.stdout.writelines(lines[:DIFF_LINES])
    if len(lines) > DIFF_LINES:
        print(f"... {len(lines) - DIFF_LINES} more diff lines")
    sys.stdout.flush()


def failed(what, code):
    """Name the failed run; its status, or 1 for a signal."""
    print(f"perturb.py: {what} exited {code}", file=sys.stderr)
    return code if code > 0 else 1


def main(argv):
    if len(argv) < 3 or argv[1] != "--":
        print("usage: perturb.py OUT -- CMD [ARG...]", file=sys.stderr)
        return 2
    out, command = argv[0], argv[2:]
    with open(out, "wb") as handle:
        code = subprocess.run(command, stdout=handle).returncode
    if code:
        return failed("the plain run", code)
    with open(out, "rb") as handle:
        expected = handle.read()
    with tempfile.TemporaryDirectory(prefix="perturb-") as scratch:
        for name, env in perturbations(scratch):
            run = subprocess.run(command, stdout=subprocess.PIPE, env=env)
            if run.returncode:
                return failed(f"the run under {name}", run.returncode)
            if run.stdout != expected:
                report_diff(name, expected, run.stdout)
                return 1
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
