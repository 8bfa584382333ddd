"""The three workloads: set-up, operations and the check of each operation.

A workload's set-up turns a seed into a list of rounds.  A round is a list
of operations with the same make-up in every round, so every run attempts
whole rounds and the share of failed operations is a property of the
program, not of the run length.  The timed phase sends the operations of
one round after another, back to back, from one caller (a closed loop with
one client), cycling through the rounds.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np

import checks
import inputs
from ncshilov import cli, envelope, selftest, stargen, unitize

# Rounds prepared per run, about what a 30 s run gets through; a faster
# run starts over at the first.
LOOSE_ROUNDS = 10
FUNCTION_ROUNDS = 10
# unitize-queries: every round asks all four envelopes, with its own
# elements.
UNITIZE_ROUNDS = 4


@dataclass
class Op:
    """One operation: ``run`` calls the program and returns its output;
    ``check(output, next_output)`` lists problems (``next_output`` is the
    output of the following operation of the round, for checks that relate
    two answers); ``summary(output)`` is a short deterministic digest.
    ``known_fault`` marks the seed-independent operations that carry a
    known fault of the program: their failures are counted but do not
    make the run incorrect."""

    label: str
    run: Callable[[], object]
    check: Callable[[object, object], list]
    summary: Callable[[object], str]
    known_fault: bool = False


def _run_cli(argv, report: Path):
    """cli.main in-process; returns (exit code, report text, messages)."""
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf), contextlib.redirect_stderr(buf):
        code = cli.main(argv)
    return code, report.read_text() if code == 0 else "", buf.getvalue()


def _cli_summary(out) -> str:
    code, text, _ = out
    return f"exit{code}:{hashlib.sha256(text.encode()).hexdigest()[:16]}"


def _cli_op(command, path: Path, seed, check, known_fault=False) -> Op:
    report = path.with_suffix(".report.json")
    argv = [command, "--input", str(path), "--out", str(report), "--seed", str(seed)]

    def checked(out, _next):
        code, text, messages = out
        problems = check(code, text)
        if code != 0:
            problems = [f"{p}: {messages.strip()[-300:]}" for p in problems]
        return problems

    return Op(command, lambda: _run_cli(argv, report), checked, _cli_summary, known_fault)


def setup_envelope_loose(seed, workdir: Path):
    rng = np.random.default_rng(seed)
    rounds = [[] for _ in range(LOOSE_ROUNDS)]
    for r, a, gens, op_seed in inputs.loose_spaces(rng, LOOSE_ROUNDS):
        path = workdir / f"space-{r}-{len(rounds[r])}.json"
        path.write_text(inputs.space_file(gens))
        rounds[r].append(_cli_op(
            "envelope", path, op_seed,
            lambda code, text, a=a: checks.check_envelope_report(code, text, a)))
    return rounds


def _boundary_op(path: Path, gens, seed, known_fault=False) -> Op:
    """``ncshilov boundary`` on the function space ``gens`` spans."""
    path.write_text(inputs.function_file(gens))
    return _cli_op("boundary", path, seed,
                   lambda code, text: checks.check_boundary_report(code, text, gens, seed),
                   known_fault)


def setup_boundary_functions(seed, workdir: Path):
    fault_op = _boundary_op(workdir / "functions-fault.json", inputs.fault_function_space(),
                            0, known_fault=True)
    rng = np.random.default_rng(seed)
    rounds = [[fault_op] for _ in range(FUNCTION_ROUNDS)]
    for r, gens, op_seed in inputs.function_spaces(rng, FUNCTION_ROUNDS):
        rounds[r].append(_boundary_op(workdir / f"functions-{r}-{len(rounds[r])}.json",
                                      gens, op_seed))
    return rounds


# The Xplus answer of the planted element kinds.
PLANTED = {"planted": unitize.MEMBER_YES, "separated": unitize.MEMBER_NO}


def _element_ops(env, data, elements, known_fault=False):
    """Each element is asked Xplus, then X1, membership."""
    ops = []
    for kind, elem in elements:
        ops.append(Op(
            "xplus",
            lambda e=elem: unitize.xplus_cone_member(env, e),
            lambda out, x1, e=elem, k=kind: (checks.check_xplus(out, data, e, PLANTED.get(k))
                                             + checks.check_xplus_in_x1(out, x1)),
            lambda out: out.member, known_fault))
        ops.append(Op(
            "x1",
            lambda e=elem: unitize.x1_cone_member(env, e),
            lambda out, _next, e=elem: checks.check_x1(out, data, e),
            lambda out: out.member, known_fault))
    return ops


def _unit_ops(env, data):
    """dominating_element, then distance_to_unit, with the envelope unit."""
    space = env.compressed_space()
    mode = unitize.UNIT_ENVELOPE
    return [
        Op("dominating",
           lambda: unitize.dominating_element(space, unit=mode, env=env),
           lambda out, dist: checks.check_domination(out, dist, data),
           lambda out: f"found={out.found}"),
        Op("distance",
           lambda: unitize.distance_to_unit(space, unit=mode, env=env),
           lambda out, _next: checks.check_distance(out, data),
           lambda out: repr(out[0])),
    ]


def setup_unitize_queries(seed, workdir: Path):
    del workdir  # everything stays in memory
    fault_env, fault_elems = inputs.fault_space_and_elements()
    fault_ops = _element_ops(fault_env, checks.EnvelopeData.of(fault_env), fault_elems,
                             known_fault=True)
    rng = np.random.default_rng(seed)
    rounds = [list(fault_ops) for _ in range(UNITIZE_ROUNDS)]
    for gens, env_seed in inputs.unitize_spaces():
        env = envelope.compute_envelope(stargen.validate_space(gens), seed=env_seed)
        data = checks.EnvelopeData.of(env)
        positives = selftest.compressed_positives(env, gens)
        unit_ops = _unit_ops(env, data)
        for ops in rounds:
            elements = [(kind, inputs.real_unitized_element(rng, env, positives, data.hb,
                                                            kind, level))
                        for kind, level in inputs.UNITIZE_ELEMENTS]
            ops.extend(unit_ops + _element_ops(env, data, elements))
    return rounds


WORKLOADS = {
    "envelope-loose": setup_envelope_loose,
    "unitize-queries": setup_unitize_queries,
    "boundary-functions": setup_boundary_functions,
}
