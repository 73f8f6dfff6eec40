import json
import os
import reprlib
import subprocess
import sys
import time

import pytest

from sweedler import cli, laws, syntax
from sweedler.cli import main
from sweedler.encodings import mult_by_numeral, mult_derivative_oracle, repeat_proof
from sweedler.exact import Matrix
from sweedler.sexpr import MAX_DEPTH, parse_proof, print_proof

PROOFS = os.path.join(os.path.dirname(__file__), "..", "proofs")
SRC = os.path.join(os.path.dirname(__file__), "..", "src")


def proof(name):
    return os.path.join(PROOFS, name + ".sexp")


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def test_check_valid(capsys):
    code, out, _ = run(capsys, "check", proof("church-2"))
    assert code == 0
    assert out.strip() == "valid: !(A -o A) |- (A -o A)"


def test_check_json(capsys):
    code, out, _ = run(capsys, "check", proof("bint-001"), "--format", "json")
    assert code == 0
    data = json.loads(out)
    assert data["valid"] is True
    assert data["sequent"].endswith("(!(A -o A) -o (!(A -o A) -o (A -o A)))")


def test_check_invalid_proof(capsys, tmp_path):
    bad = tmp_path / "bad.sexp"
    # promotion over a context that is not all-banged
    bad.write_text("(prom (axiom (pvar A 2)))")
    code, out, _ = run(capsys, "check", str(bad))
    assert code == 1
    assert "invalid at" in out and "prom" in out


def test_check_missing_file(capsys):
    code, _, err = run(capsys, "check", "/definitely/not/here.sexp")
    assert code == 2
    assert "error" in err


def test_check_parse_error(capsys, tmp_path):
    bad = tmp_path / "bad.sexp"
    bad.write_text("(axiom (pvar A")
    code, _, err = run(capsys, "check", str(bad))
    assert code == 2


def test_eval_church_two_shear(capsys):
    code, out, _ = run(capsys, "eval", proof("church-2"),
                       "--input", '[[{"point": [[1,1],[0,1]]}]]')
    assert code == 0
    assert out.strip() == "[[1, 2], [0, 1]]"


def test_eval_extra_inputs_apply_to_result(capsys):
    # int-2 has an empty context; the single input is applied to the result
    code, out, _ = run(capsys, "eval", proof("int-2"),
                       "--input", '[[{"point": [[1,1],[0,1]]}]]')
    assert code == 0
    assert out.strip() == "[[1, 2], [0, 1]]"


def test_eval_named_bint_input(capsys):
    code, out, _ = run(capsys, "eval", proof("bint-001"),
                       "--input",
                       '[[{"point": [[1,1],[0,1]]}], [{"point": [[2,0],[0,1]]}]]')
    assert code == 0
    # delta gamma gamma for gamma the shear and delta = diag(2, 1)
    assert out.strip() == "[[2, 4], [0, 1]]"


def test_eval_missing_inputs(capsys):
    code, _, err = run(capsys, "eval", proof("church-2"))
    assert code == 1
    assert "context needs 1 values" in err


def test_eval_space_mismatch_names_expected_space(capsys):
    code, _, err = run(capsys, "eval", proof("church-2"),
                       "--input", '[[{"point": [[1,1,0],[0,1,0],[0,0,1]]}]]')
    assert code == 1
    assert "(2 -o 2)" in err


def test_derive_church(capsys):
    code, out, _ = run(capsys, "derive", proof("church-2"),
                       "--point", "[[1,1],[0,1]]", "--tangent", "[[0,0],[1,0]]")
    assert code == 0
    # v a + a v for the shear a and lower nilpotent v
    assert out.strip() == "[[1, 0], [2, 1]]"


def test_derive_requires_point_and_tangent(capsys):
    code, _, err = run(capsys, "derive", proof("church-2"))
    assert code == 1
    assert "--point" in err


def test_derive_on_closed_proof_rejected(capsys):
    code, _, err = run(capsys, "derive", proof("int-2"),
                       "--point", "[[1,0],[0,1]]", "--tangent", "[[1,0],[0,1]]")
    assert code == 1
    assert "!A |- B" in err


def test_derive_repeat_with_named_values(capsys):
    code, out, _ = run(capsys, "derive", proof("repeat"),
                       "--point", '{"bint": "0"}', "--tangent", '{"bint": "1"}',
                       "--input",
                       '[[{"point": [[1,1],[0,1]]}], [{"point": [[2,0],[0,1]]}]]')
    assert code == 0
    # [01] + [10] at group-likes: d g + g d
    assert out.strip() == "[[4, 3], [0, 2]]"


def test_eval_json_format(capsys):
    code, out, _ = run(capsys, "eval", proof("church-2"), "--format", "json",
                       "--input", '[[{"point": [[1,1],[0,1]]}]]')
    assert code == 0
    data = json.loads(out)
    assert data["space"] == "(2 -o 2)"
    assert data["value"] == [["1", "2"], ["0", "1"]]


def test_eval_map_probe_table_is_deterministic(capsys):
    args = ("eval", proof("int-2"), "--input", "[]", "--seed", "9",
            "--max-tangents", "1")
    code1, out1, _ = run(capsys, *args)
    code2, out2, _ = run(capsys, *args)
    assert code1 == code2 == 0
    assert out1 == out2
    assert out1.startswith("map (!(2 -o 2) -o (2 -o 2))")


def test_axioms_pass(capsys):
    code, out, _ = run(capsys, "axioms", "--trials", "5", "--group", "bang",
                       "--group", "poly")
    assert code == 0
    assert "0 failed" in out
    assert "PASS bang/deriving-promotion (5 trials)" in out


def test_axioms_json(capsys):
    code, out, _ = run(capsys, "axioms", "--trials", "5", "--group", "poly",
                       "--format", "json")
    assert code == 0
    data = json.loads(out)
    assert data["failed"] == 0
    assert all(l["passed"] for l in data["laws"])


def test_axioms_mutation_fails_with_witness(capsys):
    code, out, _ = run(capsys, "axioms", "--trials", "40", "--group", "bang",
                       "--mutate")
    assert code == 1
    assert "FAIL bang/deriving-dereliction" in out
    assert "FAIL bang/deriving-promotion" in out
    assert "lhs" in out and "rhs" in out


def test_examples_all_verify(capsys):
    code, out, _ = run(capsys, "examples")
    assert code == 0
    assert out.strip().endswith("all examples verified")
    assert "[ok]" in out and "MISMATCH" not in out


def test_examples_report_a_closed_form_that_disagrees(capsys, monkeypatch):
    rows = cli.enc.bint_001_examples

    def first_row_doubled(**mats):
        (label, first, second, want), *rest = rows(**mats)
        return ((label, first, second, want.scale(2)), *rest)

    monkeypatch.setattr(cli.enc, "bint_001_examples", first_row_doubled)
    code, out, _ = run(capsys, "examples")
    assert code == 1
    assert ("  001 at (|>_g, |>_d) = [[2, 4], [0, 1]]   [MISMATCH, expected [[4, 8], [0, 2]]]\n"
            in out)
    assert out.count("MISMATCH") == 2 and out.endswith("\nEXAMPLE MISMATCH\n")


def test_enumeration_limit_exits_1(capsys):
    code, _, err = run(capsys, "axioms", "--group", "bang", "--max-tangents", "20",
                       "--dim", "1", "--trials", "10")
    assert code == 1
    assert err.startswith("error: refusing to enumerate")


def test_ket_product_guard_exits_1_quickly(capsys):
    start = time.perf_counter()
    code, _, err = run(capsys, "axioms", "--group", "bang", "--max-tangents", "20")
    assert code == 1
    assert err.startswith("error: refusing to expand a ket")
    assert time.perf_counter() - start < 10


def test_probe_depth_exhausted_exits_1(capsys):
    code, _, err = run(capsys, "eval", proof("repeat"),
                       "--input", '[[{"point": {"bint": "0"}}]]', "--probe-depth", "1")
    assert code == 1
    assert err.startswith("error: probe recursion exhausted")


@pytest.mark.parametrize("number", ["1.5", "1e3", "NaN"])
def test_json_float_is_a_usage_error(capsys, number):
    code, out, err = run(capsys, "derive", proof("church-2"),
                         "--point", "[[%s, 1], [0, 1]]" % number,
                         "--tangent", "[[0, 0], [1, 0]]")
    assert code == 2 and out == ""
    assert err.startswith("error: --point holds the inexact number %s" % number)


def test_malformed_json_flag_has_no_position(capsys):
    code, out, err = run(capsys, "eval", proof("church-2"), "--input", "[1,")
    assert code == 2 and out == ""
    assert err.startswith("error: --input is not valid JSON")


def exch_chain(tmp_path, n):
    """A proof file whose '(' nest n + 2 deep: n exchanges over an axiom."""
    path = tmp_path / "deep.sexp"
    path.write_text("(exch (0) " * n + "(axiom (pvar A 2))" + ")" * n + "\n")
    return str(path)


def test_nesting_past_the_bound_is_a_located_parse_error(capsys, tmp_path):
    n = MAX_DEPTH - 1
    code, out, err = run(capsys, "check", exch_chain(tmp_path, n))
    assert code == 2 and out == ""
    col = len("(exch (0) ") * n + len("(axiom ")
    assert err == "error: 1:%d: '(' nested deeper than %d levels\n" % (col, MAX_DEPTH)


def test_nesting_at_the_bound_checks_evaluates_and_prints(capsys, tmp_path):
    path = exch_chain(tmp_path, MAX_DEPTH - 2)
    assert run(capsys, "check", path) == (0, "valid: A |- A\n", "")
    assert run(capsys, "eval", path, "--input", '[["1", "2"]]') == (0, "(1, 2)\n", "")
    with open(path, encoding="utf-8") as fh:
        lines = print_proof(parse_proof(fh.read())).splitlines()
    assert len(lines) == MAX_DEPTH - 1
    assert lines[-1].strip() == "(axiom (pvar A 2))" + ")" * (MAX_DEPTH - 2)
    # promotions nest the most frames per level when evaluated
    n = MAX_DEPTH - 3
    prom = tmp_path / "prom.sexp"
    prom.write_text("(prom " * n + "(axiom (bang (pvar A 2)))" + ")" * n + "\n")
    bangs = "!" * (n + 1)
    assert run(capsys, "check", str(prom)) == (0, "valid: !A |- %sA\n" % bangs, "")
    ket = '[{"point": ["1", "2"]}]'
    assert run(capsys, "eval", str(prom), "--input", ket) == (
        0, "|>_(" * (n + 1) + "1, 2" + ")" * (n + 1) + "\n", "")
    code, out, err = run(capsys, "eval", str(prom), "--input", ket, "--format", "json")
    assert (code, err, json.loads(out)["space"]) == (0, "", bangs + "2")
    # a tangent nests kets in kets: the deepest value to print (text only, its
    # indented JSON runs to about 80 MB)
    value, point = "|(0, 1)>_(1, 0)", "|>_(1, 0)"
    for _ in range(n):
        value, point = "|(%s)>_(%s)" % (value, point), "|>_(%s)" % point
    tangent = '[[{"point": [1, 0], "tangents": [[0, 1]]}]]'
    assert run(capsys, "eval", str(prom), "--input", tangent) == (0, value + "\n", "")


def test_a_ket_over_a_tensor_prints_its_point_in_parentheses(capsys, tmp_path):
    path = tmp_path / "pair.sexp"
    path.write_text("(prom (tensor-r (der 0 (axiom (pvar A 2))) (der 0 (axiom (pvar B 1)))))\n")
    inputs = '[[{"point": [-1, 1]}], [{"point": [1]}]]'
    # the point is a sum of two pure tensors, each writing its own sign
    assert run(capsys, "eval", str(path), "--input", inputs) == (
        0, "|>_((0, 1) (x) (1) - (1, 0) (x) (1))\n", "")


def test_proof_file_not_utf8_exits_2(capsys, tmp_path):
    bad = tmp_path / "bad.sexp"
    bad.write_bytes(b"\xff\xfe(axiom (pvar A 2))")
    code, _, err = run(capsys, "check", str(bad))
    assert code == 2
    assert "not UTF-8" in err


@pytest.mark.parametrize("flag,value", [("--trials", "-5"), ("--trials", "0"),
                                        ("--probe-depth", "0"), ("--probe-depth", "x")])
def test_non_positive_counts_rejected(capsys, flag, value):
    with pytest.raises(SystemExit) as exc:
        main(["axioms", "--group", "poly", flag, value])
    assert exc.value.code == 2
    assert "expected a positive integer" in capsys.readouterr().err


@pytest.mark.parametrize("argv", [
    ("eval", "--input", '[[{"point": [[1,1],[0,1]]}]]'),
    ("derive", "--point", "[[1,1],[0,1]]", "--tangent", "[[0,0],[1,0]]")])
def test_eval_and_derive_check_the_proof_once(capsys, monkeypatch, argv):
    roots = []
    check = syntax._check

    def counting(p, path):
        if path == ():
            roots.append(p)
        return check(p, path)

    monkeypatch.setattr(syntax, "_check", counting)
    code, _, _ = run(capsys, argv[0], proof("church-2"), *argv[1:], "--format", "json")
    assert code == 0
    assert len(roots) == 1


def _write(tmp_path, name, p):
    path = tmp_path / (name + ".sexp")
    path.write_text(print_proof(p))
    return str(path)


def _square(dim, first):
    return [[first + r + 2 * c for c in range(dim)] for r in range(dim)]


@pytest.mark.parametrize("dim", [1, 3])
def test_named_values_parse_at_their_dimension(capsys, tmp_path, dim):
    x = _square(dim, 1)
    code, out, _ = run(capsys, "derive", _write(tmp_path, "mult", mult_by_numeral(2, dim)),
                       "--point", '{"church": 1}', "--tangent", '{"church": 1}',
                       "--input", json.dumps([[{"point": x}]]), "--format", "json")
    assert code == 0
    assert json.loads(out)["value"] == mult_derivative_oracle(1, 1, 2, Matrix(x)).to_json()
    g, d = Matrix(_square(dim, 2)), Matrix(_square(dim, -1))
    code, out, _ = run(capsys, "derive", _write(tmp_path, "repeat", repeat_proof(dim)),
                       "--point", '{"bint": "0"}', "--tangent", '{"bint": "1"}',
                       "--input", json.dumps([[{"point": g.to_json()}], [{"point": d.to_json()}]]),
                       "--format", "json")
    assert code == 0
    # [01] + [10] at the group-likes over g and d
    assert json.loads(out)["value"] == (d @ g + g @ d).to_json()


@pytest.mark.parametrize("dim", [1, 3])
def test_named_values_outside_their_space_exit_1(capsys, tmp_path, dim):
    mult = _write(tmp_path, "mult", mult_by_numeral(2, dim))
    repeat = _write(tmp_path, "repeat", repeat_proof(dim))
    end = "(%d -o %d)" % (dim, dim)
    church = "(!%s -o %s)" % (end, end)
    bint = "(!%s -o (!%s -o %s))" % (end, end, end)
    cases = [(mult, '{"bint": "0"}', "a binary integer does not live in " + church),
             (repeat, '{"church": 0}', "a church numeral does not live in " + bint),
             (proof("church-2"), '{"church": 0}', "a church numeral does not live in (2 -o 2)")]
    for path, named, message in cases:
        code, out, err = run(capsys, "derive", path, "--point", named, "--tangent", named)
        assert (code, out, err) == (1, "", "error: %s\n" % message)


@pytest.mark.parametrize("text,message", [
    ("(weak 3 (bang (pvar A 1)) (axiom (pvar A 1)))",
     "weak index 3 out of range for context of length 1"),
    ("(coctr 0 (axiom (pvar A 1)))", "coctr needs a !-formula at index 0, found A"),
    ("(coweak 0 (bang (pvar A 1)) (axiom (pvar A 1)))",
     "coweak deletes a !-formula, index 0 holds A"),
], ids=["weak index", "coctr formula", "coweak formula"])
def test_costructural_rule_faults_at_the_root(capsys, tmp_path, text, message):
    with pytest.raises(syntax.ProofError) as exc:
        syntax.check_proof(parse_proof(text))
    assert (exc.value.path, exc.value.message) == ((), message)
    bad = tmp_path / "bad.sexp"
    bad.write_text(text)
    assert run(capsys, "check", str(bad)) == (1, "invalid at root: %s\n" % message, "")


@pytest.mark.parametrize("text,inputs,message", [
    (None, "{}", "--input must be a JSON list, one value per slot"),
    (None, '[[{"point": [[1,1],[0,1]]}], [1,2], [3,4]]',
     "cannot apply a value of 2 to further input"),
    ("(axiom (pvar A 2))", "[5]", "vector JSON must be an array, got 5"),
    (None, '[[{"point": []}]]', "matrix needs at least one row"),
    (None, '[[{"point": [[1,0],[0,1]]}], [1,2,3]]', "matrix is 2x2, vector has dim 3"),
], ids=["not a list", "past the value", "vector not an array", "matrix without rows",
        "vector of the wrong dim"])
def test_eval_inputs_that_do_not_fit_are_one_error_line(capsys, tmp_path, text, inputs,
                                                        message):
    path = proof("church-2")    # or, given its text, a proof of its own
    if text is not None:
        path = tmp_path / "p.sexp"
        path.write_text(text)
    assert run(capsys, "eval", str(path), "--input", inputs) == (1, "", "error: %s\n" % message)


def test_invalid_proof_paths_read_as_in_proof_error(capsys, tmp_path):
    bad = tmp_path / "bad.sexp"
    bad.write_text("(lolli-r (ctr 0 (axiom (pvar A 2))))")
    message = "ctr needs an adjacent pair at index 0 in A |- A"
    assert run(capsys, "check", str(bad)) == (1, "invalid at 0: %s\n" % message, "")
    code, out, _ = run(capsys, "check", str(bad), "--format", "json")
    assert (code, json.loads(out)["path"]) == (1, [0])
    assert run(capsys, "eval", str(bad)) == (1, "", "error: invalid proof at 0: %s\n" % message)
    bad.write_text("(prom (axiom (pvar A 2)))")
    code, out, err = run(capsys, "eval", str(bad))
    assert (code, out) == (1, "") and err.startswith("error: invalid proof at root: prom needs")


def test_derive_of_a_proof_not_shaped_bang_a_to_b_is_one_error_line(capsys):
    code, out, err = run(capsys, "derive", proof("int-2"), "--point", "[[1,0],[0,1]]",
                         "--tangent", "[[1,0],[0,1]]")
    assert (code, out) == (1, "")
    assert err == "error: derive needs a proof of !A |- B, got · |- (!(A -o A) -o (A -o A))\n"


NILP = "[[0,0],[1,0]]"


@pytest.mark.parametrize("argv,message", [
    (("eval", "--input", '[[{"coeff": [1], "point": [[1,1],[0,1]]}]]'),
     'expected an integer or a "p/q" string, got [1]'),
    (("eval", "--input", '[[{"coeff": null, "point": [[1,1],[0,1]]}]]'),
     'expected an integer or a "p/q" string, got None'),
    (("eval", "--input", '[[{"point": [[1,1],[0,1]], "tangents": 5}]]'),
     "a ket's tangents must be a list, got 5"),
    (("derive", "--point", "[[1,[2]],[0,1]]", "--tangent", NILP),
     'expected an integer or a "p/q" string, got [2]'),
    (("derive", "--point", "[[1,null],[0,1]]", "--tangent", NILP),
     'expected an integer or a "p/q" string, got None'),
    (("derive", "--point", "[[true,1],[0,1]]", "--tangent", NILP),
     'expected an integer or a "p/q" string, got True'),
], ids=["list coeff", "null coeff", "int tangents", "list entry", "null entry", "true entry"])
def test_json_of_the_wrong_type_is_one_error_line(capsys, argv, message):
    command, *flags = argv
    assert run(capsys, command, proof("church-2"), *flags) == (1, "", "error: %s\n" % message)


@pytest.mark.parametrize("scalar", ["1/" + "x" * 300, "9" * 300 + "/0"],
                         ids=["letters", "zero denominator"])
def test_a_long_bad_scalar_is_shown_once_and_short(capsys, scalar):
    code, out, err = run(capsys, "derive", proof("church-2"), "--point",
                         '[["%s",1],[0,1]]' % scalar, "--tangent", NILP)
    assert (code, out) == (1, "")
    assert err == "error: bad scalar %s: expected p or p/q, q nonzero\n" % reprlib.repr(scalar)
    assert len(err.encode()) < 100


@pytest.mark.parametrize("scalar", ["1e200000000", "1e5000", "1.5", "1_000", ".5", "1" * 5000])
def test_a_scalar_outside_p_or_p_over_q_is_one_quick_error_line(capsys, scalar):
    start = time.perf_counter()
    code, out, err = run(capsys, "eval", proof("church-2"), "--input",
                         '[[{"point": [["%s","0"],["0","1"]]}]]' % scalar)
    assert time.perf_counter() - start < 1
    assert (code, out) == (1, "")
    assert err == "error: bad scalar %s: expected p or p/q, q nonzero\n" % reprlib.repr(scalar)


def test_a_result_past_the_int_string_limit_prints_exactly(capsys):
    # church 3 at [[n, 1], [0, 1]] is [[n^3, n^2 + n + 1], [0, 1]]; n = 10^1500 - 1
    # makes both 4500 and 3000 digits, past the 4300 that str(int) prints
    k = 1500
    cube = "9" * (k - 1) + "7" + "0" * (k - 1) + "2" + "9" * k
    square = "9" * k + "0" * (k - 1) + "1"
    point = '[[{"point": [["%s","1"],["0","1"]]}]]' % ("9" * k)
    code, out, err = run(capsys, "eval", proof("church-3"), "--input", point)
    assert (code, out, err) == (0, "[[%s, %s], [0, 1]]\n" % (cube, square), "")
    code, out, err = run(capsys, "eval", proof("church-3"), "--input", point, "--format", "json")
    assert (code, err) == (0, "")
    assert json.loads(out)["value"] == [[cube, square], ["0", "1"]]


@pytest.mark.parametrize("command,flag", [
    ("check", "--seed 1"), ("eval", "--derive"), ("eval", "--point [[1,1],[0,1]]"),
    ("derive", "--dim 3"), ("examples", "--format json"), ("examples", "--trials 5")])
def test_a_flag_the_subcommand_does_not_read_is_a_usage_error(capsys, command, flag):
    files = [] if command == "examples" else [proof("church-2")]
    with pytest.raises(SystemExit) as exc:
        main([command, *files, *flag.split()])
    assert exc.value.code == 2
    assert "unrecognized arguments: %s\n" % flag in capsys.readouterr().err


BINT_INPUT = '[[{"point": [[1,1],[0,1]]}], [{"point": [[2,0],[0,1]]}]]'


@pytest.mark.parametrize("named,message", [
    ('{"bint": 5}', "a bint is a string or list of at most 64 bits"),
    ('{"bint": [null]}', "binary sequences use only 0 and 1, got [None]"),
    ('{"bint": "%s"}' % ("1" * 65), "a bint is a string or list of at most 64 bits"),
])
def test_named_binary_integers_of_the_wrong_type_or_length_exit_1(capsys, named, message):
    code, out, err = run(capsys, "derive", proof("repeat"), "--point", named,
                         "--tangent", '{"bint": "1"}', "--input", BINT_INPUT)
    assert (code, out, err) == (1, "", "error: %s\n" % message)


def test_named_values_stop_at_64(capsys):
    for n, want in ((64, (0, "[[2, 130], [0, 2]]\n", "")),
                    (65, (1, "", "error: church numerals take an integer in 0..64\n")),
                    (200, (1, "", "error: church numerals take an integer in 0..64\n"))):
        assert run(capsys, "derive", proof("mult-2"), "--point", '{"church": %d}' % n,
                   "--tangent", '{"church": 1}', "--input", '[[{"point": [[1,1],[0,1]]}]]') == want
    code, out, err = run(capsys, "derive", proof("repeat"), "--tangent", '{"bint": "0"}',
                         "--point", '{"bint": "%s"}' % ("1" * 64), "--input", BINT_INPUT)
    assert (code, err) == (0, "") and out.startswith("[[")


def test_group_choices_are_the_law_groups():
    # the groups of the law suite, in order of first appearance
    assert cli.LAW_GROUPS == tuple(dict.fromkeys(l.group for l in laws.LAWS))


def test_importing_the_cli_leaves_the_law_suite_unloaded():
    code = "import sys, sweedler.cli; print('sweedler.laws' in sys.modules)"
    out = subprocess.run([sys.executable, "-c", code], env=dict(os.environ, PYTHONPATH=SRC),
                         capture_output=True, text=True, check=True).stdout
    assert out.strip() == "False"


def test_a_promoted_closure_prints_the_same_under_every_hash_seed(tmp_path):
    path = tmp_path / "prom.sexp"
    path.write_text("(prom (lolli-r (der 0 (axiom (pvar A 1)))))")
    for seed in ("1", "2"):
        proc = subprocess.run([sys.executable, "-m", "sweedler.cli", "eval", str(path)],
                              env=dict(os.environ, PYTHONPATH=SRC, PYTHONHASHSEED=seed),
                              capture_output=True, check=False)
        assert (proc.returncode, proc.stdout) == (0, b"|>_<linear map (!1 -o 1)>\n")


def test_one_parser_serves_every_call_of_a_process(capsys):
    calls = [("check", proof("church-2")),
             ("eval", proof("church-2"), "--input", '[[{"point": [[1,1],[0,1]]}]]'),
             ("axioms", "--group", "bang", "--trials", "2"),
             ("axioms", "--group", "bang", "--trials", "2")]
    cli.build_parser.cache_clear()
    in_process = [run(capsys, *argv)[:2] for argv in calls]
    assert cli.build_parser.cache_info().misses == 1
    env = dict(os.environ, PYTHONPATH=SRC)
    one_per_process = []
    for argv in calls:
        proc = subprocess.run([sys.executable, "-m", "sweedler.cli", *argv], env=env,
                              capture_output=True, text=True, check=False)
        one_per_process.append((proc.returncode, proc.stdout))
    assert in_process == one_per_process


@pytest.mark.parametrize("flag", ["--input", "--point", "--tangent"])
def test_json_nested_past_the_stack_is_a_usage_error(capsys, flag):
    values = {"--input": None, "--point": "[[1,1],[0,1]]", "--tangent": NILP}
    values[flag] = "[" * 100_000
    argv = ["derive", proof("church-2")]
    for name, value in values.items():
        if value is not None:
            argv += [name, value]
    assert run(capsys, *argv) == (2, "", "error: %s nests too deeply to read\n" % flag)


def _at_stack_depth(frames, fn):
    return fn() if frames == 0 else _at_stack_depth(frames - 1, fn)


@pytest.mark.parametrize("pad", [0, 300])
def test_json_depth_has_one_bound_whatever_the_callers_stack(capsys, pad):
    """Up to cli.MAX_JSON_DEPTH a nested --point is read, and rejected as a
    wrong-typed scalar (exit 1); past it, it is not read (exit 2).  Either way
    the error is one short line, also just short of Python's own limit."""
    bound = cli.MAX_JSON_DEPTH
    for depth in (3, bound - 1, bound, bound + 1, 988, 990, 991, 992, 2000):
        point = "[" * depth + "1" + "]" * depth
        argv = ["derive", proof("church-2"), "--point", point, "--tangent", NILP]
        code, out, err = _at_stack_depth(pad, lambda: run(capsys, *argv))
        assert (code, out) == ((1, "") if depth <= bound else (2, "")), depth
        assert err.startswith("error: ") and err.count("\n") == 1 and len(err) < 100, depth
        if depth > bound:
            assert err == "error: --point nests too deeply to read\n"
    deep_dict = '{"a": ' * bound + "1" + "}" * bound
    for argv in (["--point", deep_dict, "--tangent", NILP],
                 ["--point", "[[1,1],[0,1]]", "--tangent", NILP,
                  "--input", '[{"bint": [%s]}]' % ("[" * (bound - 3) + "]" * (bound - 3))]):
        code, out, err = run(capsys, "derive", proof("church-2"), *argv)
        assert code == 1 and out == "" and err.count("\n") == 1 and len(err) < 120, err
    # brackets inside strings do not count
    code, _, err = run(capsys, "eval", proof("church-2"), "--input", '["%s"]' % ("[" * 1000))
    assert code == 1 and "nests" not in err


@pytest.mark.parametrize("argv,message", [
    (("axioms", "--dim", "9"), "--dim: expected an integer in 1..8, got '9'"),
    (("axioms", "--dim", "0"), "--dim: expected an integer in 1..8, got '0'"),
    (("axioms", "--max-tangents", "-1"),
     "--max-tangents: expected a nonnegative integer, got '-1'"),
    (("eval", proof("int-2"), "--max-tangents", "-1"),
     "--max-tangents: expected a nonnegative integer, got '-1'"),
    (("derive", proof("church-2"), "--max-tangents", "x"),
     "--max-tangents: expected a nonnegative integer, got 'x'"),
], ids=["dim 9", "dim 0", "axioms max-tangents -1", "eval max-tangents -1",
        "derive max-tangents x"])
def test_flag_out_of_range_is_a_usage_error(capsys, argv, message):
    with pytest.raises(SystemExit) as exc:
        main(list(argv))
    assert exc.value.code == 2
    out, err = capsys.readouterr()
    assert out == "" and err.endswith("error: argument %s\n" % message)
    assert "Traceback" not in err


@pytest.mark.parametrize("name,point,tangent,extra", [
    ("church-2", [[1, 1], [0, 1]], [[0, 0], [1, 0]], []),
    ("repeat", {"bint": "0"}, {"bint": "1"},
     [[{"point": [[1, 1], [0, 1]]}], [{"point": [[2, 0], [0, 1]]}]]),
    ("mult-2", {"church": 1}, {"church": 2}, [[{"point": [[1, 2], [3, 4]]}]]),
])
def test_derive_is_eval_at_the_one_tangent_ket(capsys, name, point, tangent, extra):
    derived = run(capsys, "derive", proof(name), "--point", json.dumps(point),
                  "--tangent", json.dumps(tangent), "--input", json.dumps(extra))
    ket = [{"point": point, "tangents": [tangent]}]
    assert derived == run(capsys, "eval", proof(name), "--input", json.dumps([ket] + extra))
    assert derived[0] == 0
