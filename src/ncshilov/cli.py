"""Command-line front end: space files in, reports out.

Space files are strict JSON with explicit [re, im] entry pairs; unknown
fields are rejected by name.  Reports are canonical JSON (sorted keys,
repr floats, no timestamps), so identical input, seed and flags produce
byte-identical files; wall-clock timing goes to the human summary on
stdout only, and so do the per-stage timings that ``envelope --stats`` and
``boundary --stats`` print.

Exit codes: 0 success; 1 a parse error or any other ``NcShilovError`` (e.g.
``ShapeMismatch``, ``RankAmbiguous``, ``NumericallyAmbiguous``,
``DegenerateSample``); 2 the positive cone does not span (the envelope
recipe does not apply); 3 a decision came back inconclusive.
"""

from __future__ import annotations

import argparse
import functools
import hashlib
import json
import sys
import time

import numpy as np

from ncshilov import envelope as envelope_mod
from ncshilov import funcspace as funcspace_mod
from ncshilov import selftest as selftest_mod
from ncshilov import unitize as unitize_mod
from ncshilov.errors import (
    ConeDoesNotSpan,
    ElementNotInSpace,
    InconclusiveAtTolerance,
    NcShilovError,
    ParseError,
)
from ncshilov.stargen import MatrixSpace, validate_space
from ncshilov.timing import StageTimes

EXIT_OK = 0
EXIT_PARSE = 1
EXIT_CONE = 2
EXIT_INCONCLUSIVE = 3

FORMAT_VERSION = "1"


# ---------------------------------------------------------------------------
# Strict parsing
# ---------------------------------------------------------------------------


def _require_keys(obj, required, optional=(), where="file"):
    if not isinstance(obj, dict):
        raise ParseError(f"{where}: expected a JSON object")
    for k in required:
        if k not in obj:
            raise ParseError(f"{where}: missing field {k!r}", field=k)
    for k in obj:
        if k not in required and k not in optional:
            raise ParseError(f"{where}: unknown field {k!r}", field=k)


def _complex_entry(v, where):
    if (not isinstance(v, (list, tuple)) or len(v) != 2
            or not all(isinstance(t, (int, float)) for t in v)):
        raise ParseError(f"{where}: entries must be [re, im] pairs", field=where)
    return complex(v[0], v[1])


def parse_space_file(text: str, where: str = "input") -> dict:
    """Parse and validate a space description; returns the echo dict."""
    try:
        obj = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ParseError(f"{where}: invalid JSON at line {exc.lineno}: {exc.msg}") from exc
    kind = obj.get("kind")
    if kind == "matrix":
        _require_keys(obj, ("format_version", "kind", "ambient_dim", "generators"),
                      where=where)
    elif kind == "function":
        _require_keys(obj, ("format_version", "kind", "points", "generators"),
                      where=where)
    else:
        raise ParseError(f"{where}: kind must be 'matrix' or 'function'", field="kind")
    if obj["format_version"] != FORMAT_VERSION:
        raise ParseError(f"{where}: unsupported format_version {obj['format_version']!r}",
                         field="format_version")
    gens = obj["generators"]
    if not isinstance(gens, list) or not gens:
        raise ParseError(f"{where}: generators must be a nonempty list", field="generators")
    if kind == "matrix":
        n = obj["ambient_dim"]
        if not isinstance(n, int) or n < 1:
            raise ParseError(f"{where}: ambient_dim must be a positive integer",
                             field="ambient_dim")
        mats = []
        for gi, g in enumerate(gens):
            label = f"{where}: generators[{gi}]"
            if not isinstance(g, list) or len(g) != n:
                raise ParseError(f"{label}: expected {n} rows", field=f"generators[{gi}]")
            rows = []
            for ri, row in enumerate(g):
                if not isinstance(row, list) or len(row) != n:
                    raise ParseError(f"{label}: row {ri} must have {n} entries",
                                     field=f"generators[{gi}][{ri}]")
                rows.append([_complex_entry(v, f"{label}[{ri}]") for v in row])
            mats.append(rows)
        obj["_matrices"] = [np.array(m, dtype=np.complex128) for m in mats]
    else:
        m = obj["points"]
        if not isinstance(m, int) or m < 1:
            raise ParseError(f"{where}: points must be a positive integer", field="points")
        vecs = []
        for gi, g in enumerate(gens):
            if not isinstance(g, list) or len(g) != m:
                raise ParseError(f"{where}: generators[{gi}] must have {m} entries",
                                 field=f"generators[{gi}]")
            vecs.append([_complex_entry(v, f"{where}: generators[{gi}]") for v in g])
        obj["_vectors"] = np.array(vecs, dtype=np.complex128)
    return obj


def parse_element_file(text: str, space_dim: int, where: str = "element") -> unitize_mod.UnitizedElement:
    try:
        obj = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ParseError(f"{where}: invalid JSON at line {exc.lineno}: {exc.msg}") from exc
    _require_keys(obj, ("format_version", "level", "v_coords", "scalar_part"), where=where)
    if obj["format_version"] != FORMAT_VERSION:
        raise ParseError(f"{where}: unsupported format_version", field="format_version")
    k = obj["level"]
    if not isinstance(k, int) or k < 1:
        raise ParseError(f"{where}: level must be a positive integer", field="level")
    v = obj["v_coords"]
    if not isinstance(v, list) or len(v) != k:
        raise ParseError(f"{where}: v_coords must have {k} rows", field="v_coords")
    coords = np.zeros((k, k, space_dim), dtype=np.complex128)
    for i, row in enumerate(v):
        if not isinstance(row, list) or len(row) != k:
            raise ParseError(f"{where}: v_coords[{i}] must have {k} entries",
                             field=f"v_coords[{i}]")
        for j, cell in enumerate(row):
            if not isinstance(cell, list):
                raise ParseError(f"{where}: v_coords[{i}][{j}] must list coefficients",
                                 field=f"v_coords[{i}][{j}]")
            if len(cell) != space_dim:
                raise ElementNotInSpace(
                    f"{where}: v_coords[{i}][{j}] has {len(cell)} coefficients, "
                    f"space dimension is {space_dim}")
            coords[i, j] = [_complex_entry(t, f"{where}: v_coords[{i}][{j}]")
                            for t in cell]
    a = obj["scalar_part"]
    if not isinstance(a, list) or len(a) != k:
        raise ParseError(f"{where}: scalar_part must be {k} x {k}", field="scalar_part")
    scal = np.zeros((k, k), dtype=np.complex128)
    for i, row in enumerate(a):
        if not isinstance(row, list) or len(row) != k:
            raise ParseError(f"{where}: scalar_part[{i}] must have {k} entries",
                             field=f"scalar_part[{i}]")
        scal[i] = [_complex_entry(t, f"{where}: scalar_part[{i}]") for t in row]
    return unitize_mod.UnitizedElement(level=k, v_coords=coords, scalar_part=scal)


# ---------------------------------------------------------------------------
# Canonical serialization
# ---------------------------------------------------------------------------


def _json_value(value):
    """What json cannot write itself, in a form it can: numpy arrays as
    nested lists, numpy scalars as Python ones, complex numbers as [re, im]
    pairs, and anything else as its repr."""
    if isinstance(value, np.ndarray):
        return value.tolist()
    if isinstance(value, (complex, np.complexfloating)):
        return [float(value.real), float(value.imag)]
    if isinstance(value, (np.number, np.bool_)):
        return value.item()
    return repr(value)


def canonical_json(payload: dict) -> str:
    return json.dumps(payload, sort_keys=True, indent=1, separators=(",", ": "),
                      ensure_ascii=True, default=_json_value) + "\n"


def _echo_without_private(echo: dict) -> dict:
    return {k: v for k, v in echo.items() if not k.startswith("_")}


def content_hash(echo: dict) -> str:
    return hashlib.sha256(canonical_json(_echo_without_private(echo)).encode()).hexdigest()


# ---------------------------------------------------------------------------
# Report builders
# ---------------------------------------------------------------------------


def _trace_payload(trace):
    out = []
    for step in trace:
        v = step.verdict
        entry = {
            "pass": step.pass_index,
            "block_index": step.block_index,
            "status": v.status,
            "block_rank": v.block_rank,
            "block_size": v.block_k,
            "removed": step.removed,
            "reason": v.reason,
            "route": v.route,
        }
        if v.cb_estimate is not None:
            entry["cb_estimate"] = v.cb_estimate
        if v.iterations is not None:
            entry["iterations"] = v.iterations
        if v.residual is not None:
            entry["residual"] = v.residual
        if v.witness_level is not None:
            entry["witness_level"] = v.witness_level
            entry["witness_coeffs"] = v.witness_coeffs
            entry["witness_gap"] = v.witness_gap
        out.append(entry)
    return out


def _envelope_payload(env, certify_seed, stats=None):
    report = envelope_mod.certify_embedding(env, levels=4, samples=120, seed=certify_seed,
                                            stats=stats)
    return {
        "abstract_blocks": list(env.abstract_blocks),
        "block_sizes": [list(b) for b in env.block_sizes],
        "envelope_dim": env.envelope_dim,
        "eliminations": env.eliminations(),
        "trace": _trace_payload(env.trace),
        "embedding": {
            "cb_bound": env.embedding_cb,
            "certificate_residual": env.embedding_residual,
            "sampled_levels": report["levels"],
            "sampled_max_discrepancy": report["max_relative_discrepancy"],
            "sampled_pass": report["passed"],
        },
        "retained_projections": [b.projection for b in env.blocks.blocks],
    }


def _cone_verdict_payload(verdict):
    cert = {}
    for key, val in verdict.certificate.items():
        if key == "witness_u":
            cert[key] = {repr(eps): coeffs for eps, coeffs in val.items()}
        elif key == "dual_witness" and val is not None:
            cert[key] = [np.asarray(b) for b in val]
        else:
            cert[key] = val
    return {
        "member": verdict.member,
        "certificate": cert,
        "eps_schedule": list(verdict.eps_schedule_used),
        "delta": verdict.delta,
        "tol": verdict.tol,
    }


def build_report(echo, body, tol, seed):
    return {
        "format_version": FORMAT_VERSION,
        "input": _echo_without_private(echo),
        "input_sha256": content_hash(echo),
        "tolerance": tol,
        "seed": seed,
        **body,
    }


def _write_report(report, out_path):
    text = canonical_json(report)
    if out_path:
        with open(out_path, "w") as fh:
            fh.write(text)
    return text


# ---------------------------------------------------------------------------
# Commands
# ---------------------------------------------------------------------------


def _load_matrix_space(path) -> tuple[dict, MatrixSpace]:
    with open(path) as fh:
        echo = parse_space_file(fh.read(), where=path)
    if echo["kind"] != "matrix":
        raise ParseError(f"{path}: expected kind 'matrix' for this command", field="kind")
    return echo, validate_space(echo["_matrices"])


def _print_stats(args, stats):
    """The ``--stats`` stage timings, on stdout only."""
    if args.stats:
        print("stage timings (wall clock):")
        for line in stats.lines():
            print(line)


def cmd_envelope(args) -> int:
    t0 = time.monotonic()
    echo, x = _load_matrix_space(args.input)
    stats = StageTimes()
    env = envelope_mod.compute_envelope(x, seed=args.seed, tol=args.tol, stats=stats)
    body = {"envelope": _envelope_payload(env, args.seed + 1, stats)}
    report = build_report(echo, body, args.tol, args.seed)
    _write_report(report, args.out)
    blocks = ", ".join(f"M{k}" for k in env.abstract_blocks)
    print(f"envelope: {blocks} ({env.eliminations()} block(s) eliminated, "
          f"dim {env.envelope_dim}); embedding discrepancy "
          f"{body['envelope']['embedding']['sampled_max_discrepancy']:.2e}")
    _print_stats(args, stats)
    print(f"elapsed: {time.monotonic() - t0:.2f}s"
          + (f"; report written to {args.out}" if args.out else ""))
    return EXIT_OK


def cmd_unitize(args) -> int:
    t0 = time.monotonic()
    echo, x = _load_matrix_space(args.input)
    env = envelope_mod.compute_envelope(x, seed=args.seed, tol=args.tol)
    x1 = unitize_mod.build_x1(env)
    unit_mode = args.unit
    space = x if unit_mode == unitize_mod.UNIT_AMBIENT else env.compressed_space()
    d, coeffs = unitize_mod.distance_to_unit(space, unit=unit_mode, env=env)
    dom = unitize_mod.dominating_element(space, unit=unit_mode, env=env)
    ap = unitize_mod.check_envelope_of_unitization(env, seed=args.seed, tol=args.tol)
    body = {
        "envelope": _envelope_payload(env, args.seed + 1),
        "unitization": {
            "x1_dim": x1.space.dim,
            "x1_unital": x1.unital,
            "unit_mode": unit_mode,
            "distance_to_unit": d,
            "distance_argmin": coeffs,
            "dominating_found": dom.found,
            "dominating_coeffs": dom.coeffs,
            "dominating_min_eig": dom.min_eig,
            "dominating_inconclusive": dom.inconclusive,
            "envelope_of_x1": {
                "blocks_equal": ap["blocks_equal"],
                "no_eliminations": ap["no_eliminations"],
                "identification_residual": ap["algebra_identification_residual"],
                "passed": ap["passed"],
            },
        },
    }
    report = build_report(echo, body, args.tol, args.seed)
    _write_report(report, args.out)
    print(f"x1: dim {x1.space.dim}" + (" (unital, x1 = x)" if x1.unital else ""))
    print(f"d(X, 1) = {d:.6f} [{unit_mode} unit]; dominating element: "
          + ("found" if dom.found else "none"))
    print(f"envelope of x1 equals envelope of x: {ap['passed']}")
    if dom.inconclusive:
        print("warning: domination check inconclusive")
        return EXIT_INCONCLUSIVE
    print(f"elapsed: {time.monotonic() - t0:.2f}s"
          + (f"; report written to {args.out}" if args.out else ""))
    return EXIT_OK


def _parse_eps(text):
    """The ``--eps`` schedule: comma-separated finite numbers."""
    schedule = []
    for tok in text.split(","):
        try:
            val = float(tok)
        except ValueError:
            raise ParseError(f"--eps: {tok!r} is not a number", field="eps") from None
        if not np.isfinite(val):
            raise ParseError(f"--eps: {tok!r} is not finite", field="eps")
        schedule.append(val)
    return tuple(schedule)


def cmd_cone(args) -> int:
    eps = _parse_eps(args.eps)
    echo, x = _load_matrix_space(args.input)
    env = envelope_mod.compute_envelope(x, seed=args.seed, tol=args.tol)
    with open(args.element) as fh:
        elem = parse_element_file(fh.read(), env.source.dim, where=args.element)
    if args.kind == "x1":
        verdict = unitize_mod.x1_cone_member(env, elem, tol=args.tol)
    else:
        verdict = unitize_mod.xplus_cone_member(env, elem, eps_schedule=eps,
                                                delta=args.delta, tol=args.tol)
    body = {"cone": {"kind": args.kind, "verdict": _cone_verdict_payload(verdict)}}
    report = build_report(echo, body, args.tol, args.seed)
    _write_report(report, args.out)
    print(f"{args.kind} cone membership: {verdict.member}")
    if verdict.member == unitize_mod.MEMBER_INCONCLUSIVE:
        return EXIT_INCONCLUSIVE
    return EXIT_OK


def cmd_distance(args) -> int:
    echo, x = _load_matrix_space(args.input)
    if args.unit == unitize_mod.UNIT_ENVELOPE:
        env = envelope_mod.compute_envelope(x, seed=args.seed, tol=args.tol)
        space = env.compressed_space()
    else:
        env, space = None, x
    d, coeffs = unitize_mod.distance_to_unit(space, unit=args.unit, env=env)
    dom = unitize_mod.dominating_element(space, unit=args.unit, env=env)
    body = {"distance": {"unit_mode": args.unit, "value": d, "argmin": coeffs,
                         "dominating_found": dom.found,
                         "dominating_coeffs": dom.coeffs,
                         "dominating_inconclusive": dom.inconclusive}}
    report = build_report(echo, body, args.tol, args.seed)
    _write_report(report, args.out)
    print(f"d(X, 1) = {d:.6f} [{args.unit} unit]; dominating element: "
          + ("found" if dom.found else "none"))
    if dom.inconclusive:
        return EXIT_INCONCLUSIVE
    return EXIT_OK


def cmd_boundary(args) -> int:
    with open(args.input) as fh:
        echo = parse_space_file(fh.read(), where=args.input)
    if echo["kind"] != "function":
        raise ParseError(f"{args.input}: expected kind 'function'", field="kind")
    fs = funcspace_mod.validate_function_space(echo["_vectors"])
    stats = StageTimes()
    cross = funcspace_mod.crosscheck_diagonal(fs, seed=args.seed, tol=args.tol, stats=stats)
    result = cross["lp_result"]
    body = {
        "boundary": {
            "classes": [list(c) for c in result.classes],
            "kept_classes": result.kept,
            "boundary_points": [list(c) for c in result.boundary_points],
            "point_map": result.point_map,
            "verdicts": [{"point_class": list(v.point_class),
                          "sup": v.sup_value, "status": v.status}
                         for v in result.verdicts],
            "diagonal_crosscheck": {
                "matches": cross["matches"],
                "matrix_retained_points": cross["matrix_retained_points"],
            },
        },
    }
    report = build_report(echo, body, args.tol, args.seed)
    _write_report(report, args.out)
    pts = sorted(p for c in result.boundary_points for p in c)
    print(f"boundary points (0-based): {pts}")
    print(f"diagonal crosscheck: {'agree' if cross['matches'] else 'DISAGREE'}")
    _print_stats(args, stats)
    return EXIT_OK if cross["matches"] else EXIT_INCONCLUSIVE


def cmd_selftest(args) -> int:
    results = selftest_mod.run_suite(args.suite, seed=args.seed)
    width = max(len(r.name) for r in results)
    failures = 0
    for r in results:
        status = "pass" if r.passed else "FAIL"
        print(f"{r.name:<{width}}  {status}  {r.detail}")
        failures += 0 if r.passed else 1
    print(f"{len(results) - failures}/{len(results)} suites passed")
    return EXIT_OK if failures == 0 else 4


# ---------------------------------------------------------------------------
# Entry
# ---------------------------------------------------------------------------


def _common(parser, unit_flag=False, stats_flag=False):
    parser.add_argument("--input", required=True, help="space file (JSON)")
    parser.add_argument("--out", default=None, help="write the report here")
    parser.add_argument("--tol", type=float, default=1e-7)
    parser.add_argument("--seed", type=int, default=0)
    if unit_flag:
        parser.add_argument("--unit", choices=["envelope", "ambient"],
                            default="envelope")
    if stats_flag:
        parser.add_argument("--stats", action="store_true",
                            help="print the wall-clock time of each stage to stdout "
                                 "(never into the report)")


def make_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="ncshilov",
        description="C*-envelopes, unitizations and cone membership for "
                    "selfadjoint ordered matrix spaces")
    sub = p.add_subparsers(dest="command", required=True)

    sp = sub.add_parser("envelope", help="compute the C*-envelope")
    _common(sp, stats_flag=True)
    sp.set_defaults(func=cmd_envelope)

    sp = sub.add_parser("unitize", help="envelope plus unitization checks")
    _common(sp, unit_flag=True)
    sp.set_defaults(func=cmd_unitize)

    sp = sub.add_parser("cone", help="cone membership of a unitized element")
    _common(sp)
    sp.add_argument("--element", required=True, help="element file (JSON)")
    sp.add_argument("--kind", choices=["x1", "xplus"], required=True)
    sp.add_argument("--eps", default="1e-1,1e-2,1e-3",
                    help="decreasing eps schedule, comma separated")
    sp.add_argument("--delta", type=float, default=1e-4,
                    help="strictness margin realizing ||u|| < 1")
    sp.set_defaults(func=cmd_cone)

    sp = sub.add_parser("distance", help="distance to the unit and domination")
    _common(sp, unit_flag=True)
    sp.set_defaults(func=cmd_distance)

    sp = sub.add_parser("boundary", help="boundary of a function space")
    _common(sp, stats_flag=True)
    sp.set_defaults(func=cmd_boundary)

    sp = sub.add_parser("selftest", help="run the property suites")
    sp.add_argument("--suite", choices=["quick", "full"], default="quick")
    sp.add_argument("--seed", type=int, default=0)
    sp.set_defaults(func=cmd_selftest)
    return p


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The parser, built once per process."""
    return make_parser()


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    try:
        return args.func(args)
    except ParseError as exc:
        print(f"parse error: {exc}", file=sys.stderr)
        return EXIT_PARSE
    except ElementNotInSpace as exc:
        print(f"element error: {exc}", file=sys.stderr)
        return EXIT_PARSE
    except ConeDoesNotSpan as exc:
        print(f"not applicable: {exc}", file=sys.stderr)
        return EXIT_CONE
    except InconclusiveAtTolerance as exc:
        print(f"inconclusive: {exc}", file=sys.stderr)
        return EXIT_INCONCLUSIVE
    except NcShilovError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_PARSE


if __name__ == "__main__":
    sys.exit(main())
