"""JSON-in/JSON-out command line front end.

Exit codes: 0 for success or a passing check, 2 for a mathematically
meaningful negative result (a violated witness, a simulation ruled out, a
failed verification), 1 for input or numerical errors.
"""

from __future__ import annotations

import argparse
import json
import sys

import numpy as np

from . import certify, jsonio, simulate
from .certify import BinomialWitness
from .channels import (
    Delta,
    Noiseless,
    NoiseSpec,
    Permutohedron,
    ball_born_matrix,
    mixture_matrix,
    validate_mixture,
)
from .errors import ChanSimError
from .jsonio import (
    CERT_VERSION,
    ball_instance_from_json,
    canonical_dumps,
    certificate,
    mixture_from_json,
    noise_from_json,
    polytope_from_json,
    quantum_instance_from_json,
    rational_from_json,
    real_matrix_from_json,
    real_matrix_to_json,
    write_atomic,
)
from .linalg import born_matrix
from .simulate import RESIDUAL_TOL


def _load_json(path: str):
    with open(path, "r", encoding="utf-8") as handle:
        return json.load(handle)


def parse_noise(text: str | None) -> NoiseSpec:
    if text is None or text == "noiseless":
        return Noiseless()
    if text.startswith("@"):
        return noise_from_json(_load_json(text[1:]))
    if text.startswith("delta:"):
        return Delta(delta=rational_from_json(text[len("delta:"):]))
    if text.startswith("permutohedron:"):
        base = json.loads(text[len("permutohedron:"):])
        return Permutohedron(base=tuple(float(x) for x in base))
    raise ValueError(
        f"cannot parse noise spec {text!r}; use noiseless, delta:<d>, "
        "permutohedron:<json list>, or @file.json"
    )


def _emit(args, cert: dict) -> None:
    text = canonical_dumps(cert) + "\n"
    if args.out:
        write_atomic(args.out, text)
    else:
        sys.stdout.write(text)


# -- simulate -----------------------------------------------------------------


def cmd_simulate_quantum(args) -> int:
    payload = _load_json(args.infile)
    povm, states = quantum_instance_from_json(payload)
    spec = parse_noise(args.noise)
    if isinstance(spec, Noiseless):
        result = simulate.simulate_quantum_noiseless(povm, states, tol=args.tol, cap=args.cap)
    else:
        result = simulate.simulate_quantum_noisy(povm, states, spec, tol=args.tol, cap=args.cap)
    cert = certificate(args.command_echo, payload, jsonio.simulation_to_json(result))
    _emit(args, cert)
    return 0


def cmd_simulate_ball(args) -> int:
    payload = _load_json(args.infile)
    effects, states = ball_instance_from_json(payload)
    delta = rational_from_json(args.delta)
    result = simulate.simulate_ball(effects, states, delta=delta, tol=args.tol, cap=args.cap)
    cert = certificate(args.command_echo, payload, jsonio.simulation_to_json(result))
    _emit(args, cert)
    return 0


def cmd_simulate_reduce(args) -> int:
    payload = _load_json(args.infile)
    matrix = real_matrix_from_json(payload["matrix"])
    weights = np.array(json.loads(args.p), dtype=float) if args.p else None
    result = simulate.reduce_rows(matrix, weights, tol=args.tol)
    cert = certificate(args.command_echo, payload, jsonio.row_reduction_to_json(result))
    _emit(args, cert)
    return 0


def cmd_simulate_noisy_to_noiseless(args) -> int:
    payload = _load_json(args.infile)
    if "protocol" in payload:
        target = jsonio.protocol_from_json(payload["protocol"])
    else:
        target = real_matrix_from_json(payload["matrix"])
    spec = parse_noise(args.noise)
    result = simulate.simulate_noisy_by_noiseless(spec, target, args.d, tol=args.tol)
    if isinstance(result, BinomialWitness):
        cert = certificate(args.command_echo, payload, jsonio.binomial_witness_to_json(result))
        _emit(args, cert)
        return 2
    cert = certificate(args.command_echo, payload, jsonio.simulation_to_json(result))
    _emit(args, cert)
    return 0


# -- certify ------------------------------------------------------------------


def cmd_certify_storability(args) -> int:
    payload = _load_json(args.infile)
    mats = [real_matrix_from_json(m) for m in payload.get("matrices", [payload.get("matrix")])]
    value = certify.storability(mats)
    result = {"type": "scalar", "name": "storability", "value": float(value)}
    _emit(args, certificate(args.command_echo, payload, result))
    return 0


def cmd_certify_subset(args) -> int:
    payload = _load_json(args.infile)
    report = certify.subset_witness(real_matrix_from_json(payload["matrix"]), r=args.r, d=args.d)
    _emit(args, certificate(args.command_echo, payload, jsonio.witness_to_json(report)))
    return 0 if report.passed else 2


def cmd_certify_pairwise(args) -> int:
    payload = _load_json(args.infile)
    report = certify.pairwise_witness(real_matrix_from_json(payload["matrix"]), d=args.d)
    _emit(args, certificate(args.command_echo, payload, jsonio.witness_to_json(report)))
    return 0 if report.passed else 2


def cmd_certify_asymmetry(args) -> int:
    payload = _load_json(args.infile)
    poly = polytope_from_json(payload)
    m = certify.minkowski_asymmetry(poly)
    result = {"type": "asymmetry", "m": float(m), "infstor": float(m) + 1.0}
    _emit(args, certificate(args.command_echo, payload, result))
    return 0


def cmd_certify_signalling(args) -> int:
    delta = rational_from_json(args.delta)
    value = certify.noisy_signalling_dimension(args.n, delta)
    payload = {"n": args.n, "delta": jsonio.rational_to_json(delta)}
    result = {
        "type": "signalling_dimension",
        "n": args.n,
        "delta": jsonio.rational_to_json(delta),
        "value": int(value),
    }
    _emit(args, certificate(args.command_echo, payload, result))
    return 0


def cmd_certify_replacer(args) -> int:
    delta = rational_from_json(args.delta)
    spectrum = np.array(json.loads(args.spectrum), dtype=float) if args.spectrum else None
    bounds = certify.replacer_bounds(args.m, delta, spectrum=spectrum, n=args.n)
    payload = {
        "m": args.m,
        "n": args.n,
        "delta": jsonio.rational_to_json(delta),
        "spectrum": None if spectrum is None else [float(x) for x in spectrum],
    }
    _emit(args, certificate(args.command_echo, payload, jsonio.replacer_to_json(bounds)))
    return 0


def cmd_certify_holevo(args) -> int:
    payload = _load_json(args.infile)
    states = [jsonio.complex_matrix_from_json(s) for s in payload["states"]]
    weights = np.array(payload["weights"], dtype=float)
    chi = certify.holevo_chi(states, weights)
    result = {"type": "holevo", "chi": float(chi), "info": None}
    if "povm" in payload:
        povm = [jsonio.complex_matrix_from_json(e) for e in payload["povm"]["outcomes"]]
        info = certify.mutual_information(born_matrix(povm, states), weights)
        result["info"] = float(info)
    _emit(args, certificate(args.command_echo, payload, result))
    return 0


# -- verify -------------------------------------------------------------------


def _verify_simulation(result: dict) -> list[str]:
    problems = []
    try:
        mixture = mixture_from_json(result["mixture"])
        target = real_matrix_from_json(result["target"])
        validate_mixture(mixture)
        recon = mixture_matrix(mixture).matrix
    except (ChanSimError, ValueError) as exc:
        return [f"mixture invalid: {exc}"]
    residual = float(np.max(np.abs(recon - target)))
    if residual > RESIDUAL_TOL:
        problems.append(f"recomposition residual {residual:.3e} exceeds {RESIDUAL_TOL:.1e}")
    if abs(residual - float(result["residual"])) > 1e-6:
        problems.append("stored residual does not match recomputation")
    return problems


def _verify_row_reduction(result: dict) -> list[str]:
    problems = []
    target = real_matrix_from_json(result["target"])
    total = np.zeros_like(target)
    weight_sum = 0.0
    for term, zero_row in zip(result["terms"], result["zero_rows"]):
        b = real_matrix_from_json(term["matrix"])
        w = float(term["weight"])
        weight_sum += w
        total += w * b
        if np.max(np.abs(b[int(zero_row), :])) > 1e-9:
            problems.append(f"claimed zero row {zero_row} is nonzero")
        if np.max(np.abs(b.sum(axis=0) - 1.0)) > 1e-8:
            problems.append("component is not column-stochastic")
    if abs(weight_sum - 1.0) > 1e-9:
        problems.append(f"weights sum to {weight_sum!r}")
    if np.max(np.abs(total - target)) > RESIDUAL_TOL:
        problems.append("components do not recompose to the target")
    return problems


def _input_problems(result: dict, payload: dict) -> list[str]:
    """Compare the target of a simulation or row reduction with the channel
    the input file describes, and a quantum or ball mixture's state count
    with the input's dimension or norm index."""
    mixture = result.get("mixture", {})
    num_states = None
    if "povm" in payload:
        povm, states = quantum_instance_from_json(payload)
        channel, num_states = born_matrix(povm, states), povm[0].shape[0]
    elif "effects" in payload:
        effects, states = ball_instance_from_json(payload)
        delta = rational_from_json(mixture.get("noise", {}).get("delta", 0))
        channel = ball_born_matrix(effects, states, delta=delta).matrix
        num_states = effects[0].norm_index
    elif "protocol" in payload:
        protocol = jsonio.protocol_from_json(payload["protocol"])
        channel = protocol.decoder_matrix() @ protocol.states
    else:
        channel = real_matrix_from_json(payload["matrix"])
    problems = []
    target = real_matrix_from_json(result["target"])
    if channel.shape != target.shape or np.max(np.abs(channel - target)) > RESIDUAL_TOL:
        problems.append("target is not the channel the input describes")
    if num_states is not None and mixture.get("num_states") != num_states:
        problems.append(f"mixture declares {mixture.get('num_states')} states, the input has {num_states}")
    return problems


def _verify_witness(result: dict) -> list[str]:
    value, bound = float(result["value"]), float(result["bound"])
    if result["kind"] == "subset":
        recomputed = value >= bound - 1e-9
    elif result["kind"] == "pairwise":
        recomputed = value <= bound + 1e-9
    else:
        return [f"unknown witness kind {result['kind']!r}"]
    if bool(result["passed"]) != recomputed:
        return ["stored verdict contradicts the value/bound comparison"]
    return []


def _verify_signalling(result: dict) -> list[str]:
    """Recompute the signalling dimension from the stored n and delta."""
    delta = rational_from_json(result["delta"])
    value = certify.noisy_signalling_dimension(int(result["n"]), delta)
    if int(result["value"]) != value:
        return [f"signalling dimension is {value}, not {result['value']}"]
    return []


def _witness_input_problems(result: dict, payload: dict) -> list[str]:
    """Rerun the witness on the input matrix with the stored parameters;
    value, bound, parameters and verdict must come out as stored."""
    params = result["params"]
    matrix = real_matrix_from_json(payload["matrix"])
    if result["kind"] == "subset":
        report = certify.subset_witness(matrix, r=int(params["r"]), d=int(params["d"]))
    else:
        report = certify.pairwise_witness(matrix, d=int(params["d"]))
    if (
        abs(report.value - float(result["value"])) > 1e-9
        or report.bound != float(result["bound"])
        or report.params != params
        or report.passed != bool(result["passed"])
    ):
        return ["witness differs from a rerun on the input"]
    return []


def cmd_verify(args) -> int:
    cert = _load_json(args.certfile)
    problems: list[str] = []
    if cert.get("version") != CERT_VERSION:
        problems.append(f"unknown certificate version {cert.get('version')!r}")
    else:
        result = cert["result"]
        kind = result.get("type")
        payload = _load_json(args.infile) if args.infile else None
        if kind == "simulation":
            problems += _verify_simulation(result)
        elif kind == "row_reduction":
            problems += _verify_row_reduction(result)
        elif kind == "witness":
            problems += _verify_witness(result)
        elif kind == "binomial_witness":
            if float(result["prefix_sum"]) >= float(result["bound"]) - 1e-9:
                problems.append("witness prefix sum does not violate the bound")
        elif kind == "asymmetry":
            if abs(float(result["infstor"]) - float(result["m"]) - 1.0) > 1e-9:
                problems.append("infstor is not m + 1")
        elif kind == "holevo":
            if result.get("info") is not None and float(result["info"]) > float(result["chi"]) + 1e-9:
                problems.append("mutual information exceeds the Holevo quantity")
        elif kind == "signalling_dimension":
            problems += _verify_signalling(result)
        elif kind in ("scalar", "replacer_bounds"):
            pass
        else:
            problems.append(f"unknown result type {kind!r}")
        if payload is not None:
            if kind in ("simulation", "row_reduction"):
                problems += _input_problems(result, payload)
            if kind == "witness" and result["kind"] in ("subset", "pairwise"):
                problems += _witness_input_problems(result, payload)
            if jsonio.digest(payload) != cert.get("input_digest"):
                problems.append("input digest mismatch")
    if problems:
        for p in problems:
            print(f"verify: {p}", file=sys.stderr)
        return 2
    print("verify: ok")
    return 0


# -- fixtures -----------------------------------------------------------------

OCTAHEDRON_MATRIX = [
    [0.5, 0.0, 0.5, 0.0, 0.5, 0.0],
    [0.5, 0.0, 0.0, 0.5, 0.0, 0.5],
    [0.0, 0.5, 0.5, 0.0, 0.0, 0.5],
    [0.0, 0.5, 0.0, 0.5, 0.5, 0.0],
]


def _octahedron_polytope_payload() -> dict:
    vertices = [list(row) for row in np.vstack([np.eye(3), -np.eye(3)])]
    facets = []
    for sx in (-1.0, 1.0):
        for sy in (-1.0, 1.0):
            for sz in (-1.0, 1.0):
                facets.append({"normal": [sx, sy, sz], "offset": 1.0})
    return {"vertices": vertices, "facets": facets}


def _depolarizing_qubit_payload() -> dict:
    delta = 0.5
    outcomes = []
    for t in range(3):
        angle = 2 * np.pi * t / 3
        vec = np.array([np.cos(angle / 2), np.sin(angle / 2)])
        outcomes.append((2.0 / 3.0) * np.outer(vec, vec).astype(complex))
    pure = [np.array([1.0, 0.0]), np.array([1.0, 1.0]) / np.sqrt(2.0)]
    states = [
        (1 - delta) * np.outer(p, p.conj()) + delta / 2 * np.eye(2) for p in pure
    ]
    payload = jsonio.quantum_instance_to_json(outcomes, states)
    payload["noise"] = {"kind": "delta", "delta": "1/2"}
    return payload


def cmd_fixtures_emit(args) -> int:
    import os

    os.makedirs(args.dir, exist_ok=True)
    files = {
        "octahedron_matrix.json": {"matrix": OCTAHEDRON_MATRIX},
        "octahedron_polytope.json": _octahedron_polytope_payload(),
        "depolarizing_qubit.json": _depolarizing_qubit_payload(),
    }
    for name, payload in files.items():
        path = os.path.join(args.dir, name)
        write_atomic(path, canonical_dumps(payload) + "\n")
        print(path)
    return 0


# -- parser -------------------------------------------------------------------


def _add_common(parser: argparse.ArgumentParser, with_out: bool = True) -> None:
    parser.add_argument("--tol", type=float, default=1e-9, help="validation tolerance")
    parser.add_argument(
        "--cap",
        type=int,
        default=10**6,
        help="cap on outcome multiset classes C(n+k-1, n); the outcome distribution "
        "then takes at most cap * 2^n determinants",
    )
    parser.add_argument("--json-errors", action="store_true", help="emit errors as JSON on stderr")
    if with_out:
        parser.add_argument("--out", help="write the certificate here (default: stdout)")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="chansim",
        description="Classical simulation certificates for quantum and ball-model channels.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sim = sub.add_parser("simulate", help="construct simulation certificates")
    sim_sub = sim.add_subparsers(dest="subcommand", required=True)

    p = sim_sub.add_parser("quantum", help="simulate a (noisy) quantum channel classically")
    p.add_argument("--in", dest="infile", required=True)
    p.add_argument("--noise", default="noiseless")
    _add_common(p)
    p.set_defaults(handler=cmd_simulate_quantum)

    p = sim_sub.add_parser("ball", help="simulate a delta-noisy ball channel")
    p.add_argument("--in", dest="infile", required=True)
    p.add_argument("--delta", default="0")
    _add_common(p)
    p.set_defaults(handler=cmd_simulate_ball)

    p = sim_sub.add_parser("reduce", help="row-reduction decomposition of a matrix")
    p.add_argument("--in", dest="infile", required=True)
    p.add_argument("--p", help="JSON list of row weights")
    _add_common(p)
    p.set_defaults(handler=cmd_simulate_reduce)

    p = sim_sub.add_parser("noisy-to-noiseless", help="simulate a noisy channel with d noiseless states")
    p.add_argument("--in", dest="infile", required=True)
    p.add_argument("--noise", required=True)
    p.add_argument("--d", type=int, required=True)
    _add_common(p)
    p.set_defaults(handler=cmd_simulate_noisy_to_noiseless)

    cer = sub.add_parser("certify", help="witnesses, bounds, and diagnostics")
    cer_sub = cer.add_subparsers(dest="subcommand", required=True)

    p = cer_sub.add_parser("storability", help="sum of row maxima")
    p.add_argument("--in", dest="infile", required=True)
    _add_common(p)
    p.set_defaults(handler=cmd_certify_storability)

    p = cer_sub.add_parser("subset", help="subset-sum simulability witness")
    p.add_argument("--in", dest="infile", required=True)
    p.add_argument("--r", type=int, required=True)
    p.add_argument("--d", type=int, required=True)
    _add_common(p)
    p.set_defaults(handler=cmd_certify_subset)

    p = cer_sub.add_parser("pairwise", help="pairwise row witness")
    p.add_argument("--in", dest="infile", required=True)
    p.add_argument("--d", type=int, required=True)
    _add_common(p)
    p.set_defaults(handler=cmd_certify_pairwise)

    p = cer_sub.add_parser("asymmetry", help="Minkowski asymmetry of a polytope")
    p.add_argument("--in", dest="infile", required=True)
    _add_common(p)
    p.set_defaults(handler=cmd_certify_asymmetry)

    p = cer_sub.add_parser("signalling", help="noisy-channel signalling dimension")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--delta", required=True)
    _add_common(p)
    p.set_defaults(handler=cmd_certify_signalling)

    p = cer_sub.add_parser("replacer", help="partial replacer channel bounds")
    p.add_argument("--m", type=int, required=True)
    p.add_argument("--delta", required=True)
    p.add_argument("--n", type=int)
    p.add_argument("--spectrum", help="JSON list: ascending spectrum of the replacement state")
    _add_common(p)
    p.set_defaults(handler=cmd_certify_replacer)

    p = cer_sub.add_parser("holevo", help="mutual information and Holevo quantity")
    p.add_argument("--in", dest="infile", required=True)
    _add_common(p)
    p.set_defaults(handler=cmd_certify_holevo)

    p = sub.add_parser("verify", help="re-check a certificate without re-running the solver")
    p.add_argument("certfile")
    p.add_argument("--in", dest="infile", help="original input file to check the digest against")
    _add_common(p, with_out=False)
    p.set_defaults(handler=cmd_verify)

    fix = sub.add_parser("fixtures", help="fixture files")
    fix_sub = fix.add_subparsers(dest="subcommand", required=True)
    p = fix_sub.add_parser("emit", help="write the bundled example files")
    p.add_argument("--dir", default=".")
    _add_common(p, with_out=False)
    p.set_defaults(handler=cmd_fixtures_emit)

    return parser


def _echo_args(argv: list[str]) -> list[str]:
    """Command echo for certificates, minus the output path (so reruns of
    the same logical command are byte-identical)."""
    echo = []
    skip = False
    for token in argv:
        if skip:
            skip = False
            continue
        if token == "--out":
            skip = True
            continue
        if token.startswith("--out="):
            continue
        echo.append(token)
    return echo


def main(argv: list[str] | None = None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    parser = build_parser()
    args = parser.parse_args(argv)
    args.command_echo = _echo_args(argv)
    try:
        return args.handler(args)
    except ChanSimError as exc:
        _report_error(args, exc)
        return 1
    except (OSError, ValueError, KeyError, json.JSONDecodeError) as exc:
        _report_error(args, exc)
        return 1


def _report_error(args, exc: Exception) -> None:
    if getattr(args, "json_errors", False):
        payload = {"error": {"type": type(exc).__name__, "message": str(exc)}}
        print(canonical_dumps(payload), file=sys.stderr)
    else:
        print(f"chansim: {type(exc).__name__}: {exc}", file=sys.stderr)


if __name__ == "__main__":
    sys.exit(main())
