"""Golden CLI outputs: stdout and exit codes must match the stored capture.

Every case runs ``sweedler.cli.main`` in process from the repository root,
so the proof paths read exactly as in the README.  The stored outputs live in
``tests/golden/<name>.out`` (stdout, byte for byte) and
``tests/golden/exit_codes.json``.

Run ``python tests/test_cli_golden.py`` to rewrite the capture; do that only
for a deliberate change of output, and review the diff.
"""

import contextlib
import io
import json
import os
import subprocess
import sys

import pytest

ROOT = os.path.join(os.path.dirname(os.path.abspath(__file__)), "..")
GOLDEN = os.path.join(ROOT, "tests", "golden")
BUNDLED = ("bint-0", "bint-001", "bint-10", "bint-empty", "church-0", "church-1",
           "church-2", "church-3", "comp-3", "int-2", "mult", "mult-2", "repeat")
SHEAR_INPUT = '[[{"point": [[1,1],[0,1]]}]]'
TEXT_AND_JSON = {
    "eval-church-2": ["eval", "proofs/church-2.sexp", "--input", SHEAR_INPUT],
    "derive-church-2": ["derive", "proofs/church-2.sexp", "--point", "[[1,1],[0,1]]",
                        "--tangent", "[[0,0],[1,0]]"],
    "derive-repeat-named": [
        "derive", "proofs/repeat.sexp", "--point", '{"bint": "0"}',
        "--tangent", '{"bint": "1"}', "--input",
        '[[{"point": [[1,1],[0,1]]}], [{"point": [[2,0],[0,1]]}]]'],
    "eval-int-2-probes": ["eval", "proofs/int-2.sexp", "--input", "[]", "--seed", "9",
                          "--max-tangents", "1"],
    "axioms-bang-poly": ["axioms", "--trials", "5", "--group", "bang", "--group", "poly"],
}

CASES = {"check-" + name: ["check", "proofs/%s.sexp" % name] for name in BUNDLED}
for name, argv in TEXT_AND_JSON.items():
    CASES[name] = argv
    CASES[name + "-json"] = argv + ["--format", "json"]
CASES["eval-bint-10"] = ["eval", "proofs/bint-10.sexp", "--seed", "3"]
CASES["axioms-mutate"] = ["axioms", "--trials", "40", "--group", "bang", "--mutate"]
CASES["examples"] = ["examples"]


def run_case(argv):
    """Exit code and stdout of one in-process CLI run from the repository root."""
    from sweedler.cli import main
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        code = main(list(argv))
    return code, out.getvalue()


def _exit_codes():
    with open(os.path.join(GOLDEN, "exit_codes.json"), encoding="utf-8") as fh:
        return json.load(fh)


@pytest.mark.parametrize("name", sorted(CASES))
def test_cli_output_matches_golden(name, monkeypatch):
    monkeypatch.chdir(ROOT)
    code, out = run_case(CASES[name])
    with open(os.path.join(GOLDEN, name + ".out"), encoding="utf-8", newline="") as fh:
        want = fh.read()
    assert code == _exit_codes()[name]
    assert out == want


@pytest.mark.parametrize("seed", ["0", "1"])
@pytest.mark.parametrize("name", ["axioms-bang-poly", "derive-repeat-named-json",
                                  "eval-int-2-probes"])
def test_output_does_not_depend_on_hash_seed(name, seed):
    env = dict(os.environ)
    env.update(PYTHONPATH=os.path.join(ROOT, "src"), PYTHONHASHSEED=seed)
    proc = subprocess.run([sys.executable, "-m", "sweedler.cli", *CASES[name]], cwd=ROOT,
                          env=env, capture_output=True, check=False)
    with open(os.path.join(GOLDEN, name + ".out"), "rb") as fh:
        want = fh.read()
    assert (proc.returncode, proc.stdout) == (_exit_codes()[name], want)


def capture():
    os.chdir(ROOT)
    os.makedirs(GOLDEN, exist_ok=True)
    codes = {}
    for name in sorted(CASES):
        codes[name], out = run_case(CASES[name])
        with open(os.path.join(GOLDEN, name + ".out"), "w", encoding="utf-8", newline="") as fh:
            fh.write(out)
    with open(os.path.join(GOLDEN, "exit_codes.json"), "w", encoding="utf-8") as fh:
        json.dump(codes, fh, indent=2, sort_keys=True)
        fh.write("\n")


if __name__ == "__main__":
    sys.path.insert(0, os.path.join(ROOT, "src"))
    capture()
