"""Seeded verdict lists for the benchmark's three workloads.

A verdict is one question whose answer is known in advance: a law trial that
must pass, or a proof's value that must equal an independent oracle.
``build(name, mods, seed, workdir)`` does all of a workload's set-up work --
proof construction and printing, denotation and input generation -- and
returns its pass: the fixed list of verdicts for that seed.  A run that gets
through a pass builds the next one, ``build(name, mods, seed, workdir, k)``
for pass k, so no verdict of a run repeats an earlier one: each pass is built
from new objects, with numbers drawn from the seed and the pass index.

A verdict has two halves.  ``run()`` is the program's work and is what the
benchmark times; ``check(output)`` compares that output with the expected
answer and returns None, or a one-line description of the mismatch.  Both
reach sweedler through module attributes at the moment they run, so the
wrappers that the traced run installs see every call.

The seed and the pass index draw every number (law draws, probe families,
matrices); the structure of a pass and its order are the same for every
seed and pass, so passes cost about the same.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import itertools
import json
import os
import random
from dataclasses import dataclass
from fractions import Fraction
from functools import partial
from typing import Callable

BASE_DIM = 2

# laws: the 17 bang-group and 5 poly-group laws at criterion 01's tangent bound
LAW_GROUPS = ("bang", "poly")
LAW_COUNT = 22
LAW_DIMS = (1, 2, 3)
LAW_MAX_TANGENTS = 4
LAW_ROUNDS = 70

# doubling: criterion 06's strings, probed like the semantics law group
DOUBLING_PROBES = {"samples": 2, "max_tangents": 2, "depth": 4}
DOUBLING_MAX_LEN = 2
DOUBLING_CUT_MAX_LEN = 3

# numerals
CHURCH_MAX = 32
CHURCH_BASE = ((2, 1), (1, 1))
BINT_MAX_LEN = 6
BINT_PROFILES = tuple((s, r) for s in range(4) for r in range(4 - s))
MULT_MAX = 3
SPAN = 3

# the percentile reported as latency_tail_ms.  A 30 s run on a 2-core
# machine leaves at least ten samples beyond it: it holds at least 5000 law
# trials, 99 doubling verdicts, 268 numeral calls.  laws stops at p95: its
# p99 falls on the edge of the few dimension-3 promotion trials and moved
# 38% between seeds, where p95 moved 15%.
TAIL_PERCENTILE = {"laws": 95, "doubling": 85, "numerals": 95}


@dataclass(frozen=True)
class Verdict:
    label: str
    run: Callable[[], object]
    check: Callable[[object], str | None]


def mix(*parts) -> int:
    """A 63-bit seed derived from the parts, the same in every process."""
    text = "/".join(str(p) for p in parts).encode("utf-8")
    return int.from_bytes(hashlib.blake2b(text, digest_size=8).digest(), "big") >> 1


def strings(max_len):
    return ["".join(bits) for n in range(max_len + 1)
            for bits in itertools.product("01", repeat=n)]


def interleave(*groups):
    """Merge lists so that every prefix holds each list, and each list's
    range of sizes, in proportion."""
    keyed = []
    for gi, group in enumerate(groups):
        spread = sorted(range(len(group)), key=lambda i: (i * 0.6180339887498949) % 1)
        for rank, i in enumerate(spread):
            keyed.append(((rank + 0.5) / len(group), gi, group[i]))
    return [item for _, _, item in sorted(keyed, key=lambda t: (t[0], t[1]))]


# ---------------------------------------------------------------------------
# laws


def _law_trial(laws, fn_name, cfg, trial_seed):
    return getattr(laws, fn_name)(random.Random(trial_seed), cfg)


def _law_holds(witness):
    return None if witness is None else "law witness: " + witness


def build_laws(m, seed, workdir, pass_index):
    picked = [l for l in m.laws.LAWS if l.group in LAW_GROUPS]
    if len(picked) != LAW_COUNT:
        raise RuntimeError("expected %d bang and poly laws, found %d"
                           % (LAW_COUNT, len(picked)))
    cfgs = {dim: m.laws.RunConfig(seed=seed, dim=dim, max_tangents=LAW_MAX_TANGENTS)
            for dim in LAW_DIMS}
    verdicts = []
    for r in range(LAW_ROUNDS):
        for dim in LAW_DIMS:
            for law in picked:
                trial_seed = mix(seed, pass_index, "laws", law.group, law.name, dim, r)
                verdicts.append(Verdict(
                    "law %s/%s dim=%d round=%d rng=%d"
                    % (law.group, law.name, dim, r, trial_seed),
                    partial(_law_trial, m.laws, law.fn.__name__, cfgs[dim], trial_seed),
                    _law_holds))
    return verdicts


# ---------------------------------------------------------------------------
# doubling


def _doubling_value(sem, rp, point, want, space, cfg):
    return sem.extensional_equal(sem.nl_eval(rp, point), want, space, cfg)


def _doubling_derivative(sem, rp, point, tangent, want, space, cfg):
    return sem.extensional_equal(sem.derivative_eval(rp, point, tangent), want, space, cfg)


def _doubling_cut(sem, den, want, space, cfg):
    return sem.extensional_equal(den.eval(), want, space, cfg)


def _concatenates(same):
    return None if same is True else "probes tell the result from the concatenation"


def build_doubling(m, seed, workdir, pass_index):
    enc, sem, syn, sx = m.encodings, m.semantics, m.syntax, m.sexpr
    rp = enc.repeat_proof(BASE_DIM)
    sx.print_proof(rp)
    short = strings(DOUBLING_MAX_LEN)
    cut_strings = strings(DOUBLING_CUT_MAX_LEN)
    needed = sorted(set(short) | {s + t for s in short for t in short}
                    | {s + s for s in cut_strings}, key=lambda s: (len(s), s))
    values = {}
    for s in needed:
        proof = enc.bint_proof(s, BASE_DIM)
        sx.print_proof(proof)
        values[s] = sem.denote_proof(proof).eval()
    end = sem.HomSpace(sem.Base(BASE_DIM), sem.Base(BASE_DIM))
    space = sem.HomSpace(sem.BangSpace(end), sem.HomSpace(sem.BangSpace(end), end))

    def probes(label):
        return sem.ProbeConfig(seed=mix(seed, pass_index, "doubling", label),
                               **DOUBLING_PROBES)

    value, derivative, cut = [], [], []
    for s in short:
        label = "repeat value S=%r" % s
        value.append(Verdict(label, partial(
            _doubling_value, sem, rp, values[s], values[s + s], space, probes(label)),
            _concatenates))
    for s in short:
        for t in short:
            label = "repeat derivative S=%r T=%r" % (s, t)
            want = sem.add_values(values[s + t], values[t + s])
            derivative.append(Verdict(label, partial(
                _doubling_derivative, sem, rp, values[s], values[t], want, space,
                probes(label)), _concatenates))
    for s in cut_strings:
        proof = syn.Cut(0, syn.Prom(enc.bint_proof(s, BASE_DIM)), rp)
        sx.print_proof(proof)
        label = "promoted S=%r cut into repeat" % s
        cut.append(Verdict(label, partial(
            _doubling_cut, sem, sem.denote_proof(proof), values[s + s], space,
            probes(label)), _concatenates))
    return interleave(value, derivative, cut)


# ---------------------------------------------------------------------------
# numerals


def _rand_matrix(rng):
    return [[rng.randint(-SPAN, SPAN) for _ in range(BASE_DIM)] for _ in range(BASE_DIM)]


def _iterated_matrix(rng):
    """A signed-permutation conjugate of CHURCH_BASE.

    Its powers have the entry sizes of CHURCH_BASE's powers, so the cost of
    a church verdict depends on n and not on the draw; a random matrix's
    powers grow anywhere from not at all to 83 bits at n = 32.
    """
    perm = list(range(BASE_DIM))
    rng.shuffle(perm)
    sign = [rng.choice((-1, 1)) for _ in range(BASE_DIM)]
    return [[sign[i] * sign[j] * CHURCH_BASE[perm[i]][perm[j]] for j in range(BASE_DIM)]
            for i in range(BASE_DIM)]


def _cli(cli, argv):
    """Run the CLI in process; its exit code and what it printed."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = cli.main(argv)
    return code, out.getvalue()


def _matches_oracle(oracle, output):
    code, text = output
    if code != 0:
        return "sweedler exited %r" % (code,)
    got = [[Fraction(c) for c in row] for row in json.loads(text)["value"]]
    want = oracle()
    if got == [list(row) for row in want.rows]:
        return None
    return "printed %s, oracle gives %s" % (json.loads(text)["value"], want.to_json())


# path -> text this process last wrote there.  Every set-up prints every
# proof, but only the first writes the files: the same proofs come back in
# every set-up and pass, and rewriting ~200 files is file-system time, not
# sweedler's, that varied by 25% between sets of runs.
_written = {}


def build_numerals(m, seed, workdir, pass_index):
    enc, sx, syn = m.encodings, m.sexpr, m.syntax
    Matrix = m.exact.Matrix
    os.makedirs(workdir, exist_ok=True)
    rng = random.Random(mix(seed, pass_index, "numerals"))

    def write(name, proof):
        path = os.path.join(workdir, name + ".sexp")
        text = sx.print_proof(proof)
        if _written.get(path) != text:
            with open(path, "w", encoding="utf-8") as fh:
                fh.write(text)
            _written[path] = text
        return path

    def op(label, argv, oracle):
        argv = argv + ["--format", "json"]
        return Verdict("%s: sweedler %s" % (label, " ".join(argv)),
                       partial(_cli, m.cli, argv), partial(_matches_oracle, oracle))

    value, derivative, transformed, bint, mult = [], [], [], [], []
    for n in range(CHURCH_MAX + 1):
        proof = enc.church_proof(n, BASE_DIM)
        path = write("church-%d" % n, proof)
        dpath = write("dchurch-%d" % n, syn.derivative_transform(proof))
        a = _iterated_matrix(rng)
        value.append(op(
            "church %d value" % n,
            ["eval", path, "--input", json.dumps([[{"point": a}]])],
            partial(enc.church_value_oracle, n, Matrix(a))))
        a, nu = _iterated_matrix(rng), _rand_matrix(rng)
        derivative.append(op(
            "church %d derivative" % n,
            ["derive", path, "--point", json.dumps(a), "--tangent", json.dumps(nu)],
            partial(enc.church_derivative_oracle, n, Matrix(a), Matrix(nu))))
        a, nu = _iterated_matrix(rng), _rand_matrix(rng)
        transformed.append(op(
            "derivative-transformed church %d" % n,
            ["eval", dpath, "--input", json.dumps([[{"point": a}], nu])],
            partial(enc.church_derivative_oracle, n, Matrix(a), Matrix(nu))))
    # one tangent profile per string, in turn: a pass holds every string and
    # every profile, and which strings carry the costly profiles does not
    # depend on the seed
    for i, s in enumerate(strings(BINT_MAX_LEN)):
        path = write("bint-%s" % (s or "empty"), enc.bint_proof(s, BASE_DIM))
        stang, rtang = BINT_PROFILES[i % len(BINT_PROFILES)]
        g, d = _rand_matrix(rng), _rand_matrix(rng)
        alphas = [_rand_matrix(rng) for _ in range(stang)]
        betas = [_rand_matrix(rng) for _ in range(rtang)]
        arg = [[{"point": g, "tangents": alphas}], [{"point": d, "tangents": betas}]]
        bint.append(op(
            "string %r with %d+%d tangents" % (s, stang, rtang),
            ["eval", path, "--input", json.dumps(arg)],
            partial(enc.bint_oracle, s, Matrix(g), Matrix(d),
                    tuple(map(Matrix, alphas)), tuple(map(Matrix, betas)))))
    for n in range(MULT_MAX + 1):
        path = write("mult-%d" % n, enc.mult_by_numeral(n, BASE_DIM))
        for l in range(MULT_MAX + 1):
            for k in range(MULT_MAX + 1):
                x = _rand_matrix(rng)
                mult.append(op(
                    "times %d, derivative at %d toward %d" % (n, l, k),
                    ["derive", path, "--point", json.dumps({"church": l}),
                     "--tangent", json.dumps({"church": k}),
                     "--input", json.dumps([[{"point": x}]])],
                    partial(enc.mult_derivative_oracle, l, k, n, Matrix(x))))
    return interleave(value, derivative, transformed, bint, mult)


BUILDERS = {"laws": build_laws, "doubling": build_doubling, "numerals": build_numerals}


def build(name, mods, seed, workdir, pass_index=0):
    return BUILDERS[name](mods, seed, workdir, pass_index)
