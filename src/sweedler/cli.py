"""Command-line front end for the exact coalgebra engine.

Subcommands:

* ``check``     -- type-check a proof file and print its sequent.
* ``eval``      -- evaluate a proof's denotation on JSON inputs.
* ``derive``    -- evaluate the derivative of a proof of ``!A |- B`` at a
                   point toward a tangent: ``eval`` at the ket
                   ``|tangent>_point``.
* ``axioms``    -- run the randomized law suite and report per-law results.
* ``examples``  -- recompute the worked examples and compare each with its
                   closed form.

Values are JSON (matrices as row arrays, bang elements as ket lists, plus the
named forms ``{"church": n}`` and ``{"bint": "S"}``); proofs are
s-expressions.  Exit codes: 0 success, 1 semantic or law failure, 2 usage,
parse, or I/O error; a subcommand accepts only the flags it reads, and any
other flag is a usage error.  Identical seeds and flags give identical output.
"""

from __future__ import annotations

import argparse
import json
import math
import random
import re
import sys
from functools import cache, partial

from . import bang as bg
from . import encodings as enc
from .exact import MAX_DIM, Matrix, scalar_str
from .sexpr import MAX_DEPTH, ParseError, parse_proof
from .syntax import ProofError, check_proof, require_nl_shape
from .semantics import (
    HomSpace, MapVal, ProbeConfig, ProbeDepthError, SpaceMismatch, apply_hom, denote_formula,
    denote_proof, denote_sequent, derivative_eval, extensional_equal, nl_eval, parse_value,
    probes, value_to_json)


# ---------------------------------------------------------------------------
# named JSON values


def _named_dim(space, formula):
    """The d with space == denote_formula(formula(d)), else None.

    Both named forms' spaces start !(d -o d) -o ..., so d is read there.
    """
    try:
        d = space.dom.inner.dom.dim
    except AttributeError:
        return None
    return d if space == denote_formula(formula(d)) else None


# Named values stop where proof files do: a 64-bit string's proof nests 198 deep,
# a 65-bit one's 201 > sexpr.MAX_DEPTH.  Far larger ones overflow the stack.
MAX_NAMED = 64


def named_value(space, data):
    """Hook for parse_value: named constants {"church": n} and {"bint": S}."""
    if set(data) == {"church"}:
        n = data["church"]
        if type(n) is not int or not 0 <= n <= MAX_NAMED:
            raise SpaceMismatch("church numerals take an integer in 0..%d" % MAX_NAMED)
        dim = _named_dim(space, enc.int_formula)
        if dim is None:
            raise SpaceMismatch(
                "a church numeral does not live in %s" % space.label())
        return denote_proof(enc.int_proof(n, dim)).eval()
    if set(data) == {"bint"}:
        bits = data["bint"]
        if not isinstance(bits, (str, list)) or len(bits) > MAX_NAMED:
            raise SpaceMismatch("a bint is a string or list of at most %d bits" % MAX_NAMED)
        bits = enc.parse_bits(bits)
        dim = _named_dim(space, enc.bint_formula)
        if dim is None:
            raise SpaceMismatch(
                "a binary integer does not live in %s" % space.label())
        return enc.bint_value(bits, dim)
    return None


# ---------------------------------------------------------------------------
# value rendering


def _fmt_matrix(m: Matrix):
    return "[%s]" % ", ".join(
        "[%s]" % ", ".join(scalar_str(x) for x in row) for row in m.rows)


def _probe_rows(v, space, args):
    """(probe, value) rows of the table that prints a lazy map v of space."""
    cfg = ProbeConfig(seed=args.seed, samples=2,
                      max_tangents=args.max_tangents, depth=args.probe_depth)
    for probe, _ in probes(space.dom, random.Random(args.seed), cfg, cfg.depth,
                           cfg.max_tangents):
        yield probe, apply_hom(v, probe)


def render_text(v, space, args, indent="") -> list:
    """Deterministic text lines for a semantic value."""
    if isinstance(v, Matrix):
        return [indent + _fmt_matrix(v)]
    if isinstance(v, MapVal):
        lines = [indent + "map %s, sampled on probes:" % space.label()]
        for probe, result in _probe_rows(v, space, args):
            arg = render_text(probe, space.dom, args, "")[0]
            sub = render_text(result, space.cod, args, indent + "    ")
            lines.append(indent + "  " + arg + " ->")
            lines.extend(sub)
        return lines
    return [indent + repr(v)]


def render_json(v, space, args):
    if isinstance(v, MapVal):
        table = [{"arg": value_to_json(probe), "value": render_json(result, space.cod, args)}
                 for probe, result in _probe_rows(v, space, args)]
        return {"space": space.label(), "probes": table}
    return {"space": space.label(), "value": value_to_json(v)}


def _emit(v, space, args):
    if args.format == "json":
        print(json.dumps(render_json(v, space, args), indent=2))
    else:
        for line in render_text(v, space, args):
            print(line)


# ---------------------------------------------------------------------------
# subcommands


def _load_proof(path):
    with open(path, "r", encoding="utf-8") as fh:
        try:
            text = fh.read()
        except UnicodeDecodeError as e:
            raise OSError("%s is not UTF-8 text: %s" % (path, e)) from None
    return parse_proof(text)


def cmd_check(args):
    proof = _load_proof(args.file)
    try:
        seq = check_proof(proof)
    except ProofError as e:
        if args.format == "json":
            print(json.dumps({"valid": False, "path": e.path, "error": e.message}))
        else:
            print("invalid %s" % e)
        return 1
    if args.format == "json":
        print(json.dumps({"valid": True, "sequent": str(seq)}))
    else:
        print("valid: %s" % seq)
    return 0


class FlagError(ValueError):
    """A flag value that cannot be read: a usage error, so exit code 2."""


# JSON flags nest at most this deep, checked before reading, so the outcome does
# not depend on the caller's stack: a value of a formula at the proof-file bound
# takes about two levels (a ket list and a ket object) per '!'.
MAX_JSON_DEPTH = 2 * MAX_DEPTH
_JSON_NESTING = re.compile(r'"(?:[^"\\]|\\.)*"|[][{}]')  # strings hide brackets


def _parse_json_arg(text, what):
    def inexact(token):
        raise FlagError("%s holds the inexact number %s; write scalars as integers "
                        "or strings such as \"3/2\"" % (what, token))
    depth = 0
    for token in _JSON_NESTING.findall(text):
        if token in "[{":
            depth += 1
            if depth > MAX_JSON_DEPTH:
                raise FlagError("%s nests too deeply to read" % what)
        elif token in "]}":
            depth -= 1
    try:
        return json.loads(text, parse_float=inexact, parse_constant=inexact)
    except json.JSONDecodeError as e:
        raise FlagError("%s is not valid JSON: %s" % (what, e))
    except RecursionError:  # a caller deep in its own stack
        raise FlagError("%s nests too deeply to read" % what) from None


def cmd_eval(args):
    seq, den = denote_sequent(_load_proof(args.file))
    inputs = _parse_json_arg(args.input, "--input") if args.input else []
    if not isinstance(inputs, list):
        raise SpaceMismatch("--input must be a JSON list, one value per slot")
    if args.command == "derive":  # eval with the ket |tangent>_point in front
        if args.point is None or args.tangent is None:
            raise SpaceMismatch("derive needs --point and --tangent")
        try:
            require_nl_shape(seq, "derive")
        except ProofError as e:  # the proof is valid; derive cannot use its shape
            raise SpaceMismatch(e.message) from None
        inputs = [{"point": _parse_json_arg(args.point, "--point"),
                   "tangents": [_parse_json_arg(args.tangent, "--tangent")]}] + inputs
    if len(inputs) < len(seq.context):
        raise SpaceMismatch(
            "proof context needs %d values (%s), got %d"
            % (len(seq.context), ", ".join(map(str, seq.context)), len(inputs)))
    ctx_vals = [parse_value(s, d, named_value)
                for s, d in zip(den.source, inputs)]
    result = den.eval(*ctx_vals)
    space = den.target
    for data in inputs[len(seq.context):]:
        if not isinstance(space, HomSpace):
            raise SpaceMismatch(
                "cannot apply a value of %s to further input" % space.label())
        arg = parse_value(space.dom, data, named_value)
        result = apply_hom(result, arg)
        space = space.cod
    _emit(result, space, args)
    return 0


def cmd_axioms(args):
    from . import laws as lw  # the law suite loads only for this command

    cfg = lw.RunConfig(seed=args.seed, dim=args.dim, trials=args.trials,
                       max_tangents=args.max_tangents,
                       probe_depth=args.probe_depth, mutate=args.mutate)
    results = lw.run_laws(cfg, groups=args.group or None)
    failed = [r for r in results if not r.passed]
    if args.format == "json":
        print(json.dumps({
            "laws": [{"group": r.group, "name": r.name, "passed": r.passed,
                      "trials": r.trials, "witness": r.witness} for r in results],
            "failed": len(failed)}, indent=2))
    else:
        for r in results:
            print(r.line())
        print("%d laws, %d failed" % (len(results), len(failed)))
    return 1 if failed else 0


def cmd_examples(args):
    dim = 2
    shear, nilp, x = Matrix(((1, 1), (0, 1))), Matrix(((0, 0), (1, 0))), Matrix(((1, 2), (3, 4)))
    ket = partial(enc.end_ket, dim)
    bint = partial(enc.bint_value, dim=dim)
    v001 = bint("001")
    bint_space = denote_formula(enc.bint_formula(dim))
    pcfg = ProbeConfig(seed=args.seed, samples=2, max_tangents=2, depth=args.probe_depth)
    one = denote_proof(enc.int_proof(1, dim)).eval()

    def show(v):
        return _fmt_matrix(v) if isinstance(v, Matrix) else str(v)

    doubling = "doubling a promoted string concatenates it with itself:"
    mult = "derivative of multiplication by a numeral has a closed form:"
    # (section heading, label, the engine's value, the closed form)
    table = [
        ("iterating a map twice squares it:", "church-2 at [[1, 1], [0, 1]]",
         nl_eval(enc.church_proof(2, dim), shear), enc.church_value_oracle(2, shear)),
        ("derivative of iteration inserts the tangent in every slot:", "church-3 derivative",
         derivative_eval(enc.church_proof(3, dim), shear, nilp),
         enc.church_derivative_oracle(3, shear, nilp)),
        *(("binary integer 001 composes one map per bit, leftmost first:", label,
           apply_hom(apply_hom(v001, ket(*first)), ket(*second)), want)
          for label, first, second, want in enc.bint_001_examples(
              g=shear, d=Matrix(((2, 0), (0, 1))), a=Matrix(((0, 1), (1, 0))),
              a2=Matrix(((1, 0), (1, 1))), b=Matrix(((1, 0), (1, 1))))),
        (doubling, "repeat at |>_[01] agrees with [0101] on all probes",
         extensional_equal(nl_eval(enc.repeat_proof(dim), bint("01")), bint("0101"),
                           bint_space, pcfg), True),
        (doubling, "repeat derivative at [0] toward [1] agrees with [01] + [10]",
         extensional_equal(derivative_eval(enc.repeat_proof(dim), bint("0"), bint("1")),
                           bint("01") + bint("10"), bint_space, pcfg), True),
        (mult, "mult(-, 2) derivative at 1 toward 1, on |>_x",
         apply_hom(derivative_eval(enc.mult_by_numeral(2, dim), one, one), ket(x)),
         enc.mult_derivative_oracle(1, 1, 2, x)),
        (mult, "difference-quotient interpolation gives the same matrix",
         enc.mult_difference_quotient(1, 1, 2, x), enc.mult_derivative_oracle(1, 1, 2, x)),
    ]
    ok, heading = True, None
    for head, label, got, want in table:
        if head != heading:
            print(head)
            heading = head
        good = got == want
        ok = ok and good
        print("  %s = %s   [%s]" % (label, show(got), "ok" if good else
                                     "MISMATCH, expected %s" % show(want)))
    print("all examples verified" if ok else "EXAMPLE MISMATCH")
    return 0 if ok else 1


# ---------------------------------------------------------------------------
# argument parsing


def _int_in(lo, hi, what):
    """An argparse type for integers in lo..hi, named ``what`` in its error."""
    def read(text):
        try:
            n = int(text)
        except ValueError:
            n = lo - 1
        if not lo <= n <= hi:
            raise argparse.ArgumentTypeError("expected %s, got %r" % (what, text))
        return n
    return read


_positive_int = _int_in(1, math.inf, "a positive integer")


# the --group choices: the groups of ``laws.LAWS``, which a test pins, kept
# here so that the other commands never import the law suite
LAW_GROUPS = ("bang", "poly", "semantics", "encodings")


# each argument, added only to the subcommands that read it
_ARGS = {
    "file": dict(help="s-expression proof file"),
    "--seed": dict(type=int, default=0, help="seed for randomized trials and probes"),
    "--dim": dict(type=_int_in(1, MAX_DIM, "an integer in 1..%d" % MAX_DIM), default=2,
                  help="dimension of the base space for law runs"),
    "--trials": dict(type=_positive_int, default=200, help="trial budget per law"),
    "--max-tangents": dict(type=_int_in(0, math.inf, "a nonnegative integer"), default=3,
                           help="largest tangent multiset drawn by generators"),
    "--probe-depth": dict(type=_positive_int, default=4,
                          help="recursion depth for extensional probing"),
    "--format": dict(choices=("text", "json"), default="text"),
    "--input": dict(help="JSON list of context values; extra entries are applied to the result"),
    "--point": dict(help="JSON value of A: where to differentiate"),
    "--tangent": dict(help="JSON value of A: direction"),
    "--group": dict(action="append", choices=LAW_GROUPS,
                    help="restrict to a law group (repeatable)"),
    "--mutate": dict(action="store_true",
                     help="corrupt the deriving map to show the suite catches it"),
}


@cache
def build_parser():
    """The one argument parser of this process, built on first use."""
    ap = argparse.ArgumentParser(
        prog="sweedler",
        description="exact engine for a vector-space coalgebra semantics "
                    "of linear-logic proofs with derivatives")
    # subcommand -> (function, help, arguments); the functions are read when
    # the parser is built, so a wrapper bound to a cmd_* name is the one called
    eval_args = ("file", "--seed", "--max-tangents", "--probe-depth", "--format", "--input")
    commands = {
        "check": (cmd_check, "type-check a proof file", ("file", "--format")),
        "eval": (cmd_eval, "evaluate a proof's denotation", eval_args),
        "derive": (cmd_eval, "evaluate the derivative of a proof of !A |- B",
                   eval_args + ("--point", "--tangent")),
        "axioms": (cmd_axioms, "run the randomized structural-law suite",
                   ("--seed", "--dim", "--trials", "--max-tangents", "--probe-depth",
                    "--format", "--group", "--mutate")),
        "examples": (cmd_examples, "recompute and verify the bundled worked examples",
                     ("--seed", "--probe-depth")),
    }
    sub = ap.add_subparsers(dest="command", required=True)
    for name, (fn, summary, names) in commands.items():
        p = sub.add_parser(name, help=summary)
        for arg in names:
            p.add_argument(arg, **_ARGS[arg])
        p.set_defaults(fn=fn)
    return ap


def main(argv=None):
    ap = build_parser()
    args = ap.parse_args(argv)
    try:
        return args.fn(args)
    except (OSError, ParseError, FlagError) as e:
        print("error: %s" % e, file=sys.stderr)
        return 2
    except (ValueError, bg.EnumerationLimitError, ProbeDepthError) as e:
        kind = "invalid proof " if isinstance(e, ProofError) else ""  # e: "at 0/1: ..."
        print("error: %s%s" % (kind, e), file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
