"""JSON-in/JSON-out command line front end.

One table, ``COMMANDS``, describes every command: its group, name, help,
options and handler. ``build_parser`` turns the table into the argparse
tree once per process. Each ``simulate`` and ``certify`` handler maps
``(args, input payload)`` to ``(input payload, result payload)``, and one
driver, ``_certify``, does the rest: it loads ``--in``, writes the
certificate and derives the exit code. ``verify`` looks the certificate's
result type up in ``VERIFIERS``: a check from the file alone, and an
optional check against the ``--in`` input. ``_rerun`` recomputes every
closed-form result with the handler that wrote it, and a field that does
not parse is a failed check like a wrong value.

Exit codes: 0 for success or a passing check, 2 for a mathematically
meaningful negative result (a violated witness, a simulation ruled out, a
failed verification), 1 for input or numerical errors.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import sys

import numpy as np

from . import certify, jsonio, simulate
from .certify import BinomialWitness
from .channels import (
    ClassicalProtocol,
    Delta,
    Noiseless,
    NoiseSpec,
    ball_born_matrix,
    mixture_matrix,
    noise_bases,
    validate_mixture,
)
from .errors import ChanSimError, InvalidCertificate
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
    real_from_json,
    real_matrix_from_json,
    row_reduction_from_json,
    write_atomic,
)
from .linalg import born_matrix, validate_povm
from .simulate import RESIDUAL_TOL


def _load_json(path: str):
    with open(path, "r", encoding="utf-8") as handle:
        return json.load(handle)


def parse_noise(text: str | None) -> NoiseSpec:
    if text is None or text == "noiseless":
        return Noiseless()
    try:
        if text.startswith("@"):
            return noise_from_json(_load_json(text[1:]))
        if text.startswith("delta:"):
            return Delta(delta=rational_from_json(text[len("delta:"):]))
        if text.startswith("permutohedron:"):
            base = json.loads(text[len("permutohedron:"):])
            return noise_from_json({"kind": "permutohedron", "base": base})
    except (TypeError, AttributeError, IndexError) as exc:
        # a TypeError would be taken for a wrong field of the input file
        raise ValueError(f"option value {text!r}: {exc}") from exc
    raise ValueError(
        f"cannot parse noise spec {text!r}; use noiseless, delta:<d>, "
        "permutohedron:<json list>, or @file.json"
    )


def _option_array(value) -> np.ndarray:
    """A JSON list given as an option, text on the command line or a list in
    a certificate, read as the input file's arrays are."""
    try:
        return jsonio._array(json.loads(value) if isinstance(value, str) else value)
    except TypeError as exc:
        # a TypeError would be taken for a wrong field of the input file
        raise ValueError(f"option value {value!r}: {exc}") from exc


def _emit(args, cert: dict) -> None:
    text = canonical_dumps(cert) + "\n"
    if args.out:
        write_atomic(args.out, text)
    else:
        sys.stdout.write(text)


def _certify(handler, args) -> int:
    """The driver of every ``simulate`` and ``certify`` command."""
    payload = None
    if getattr(args, "infile", None):
        payload = _load_json(args.infile)
        if not isinstance(payload, dict):
            raise TypeError(f"{args.infile}: the input is not a JSON object")
    try:
        payload, result = handler(args, payload)
    except (TypeError, AttributeError) as exc:
        # options raise ValueError, so this is a field of the input file
        # with the wrong type, such as a number where a list belongs
        if payload is None or isinstance(exc, ChanSimError):
            raise
        raise TypeError(f"{args.infile}: {exc}") from exc
    _emit(args, certificate(args.command_echo, payload, result))
    return 2 if result["type"] == "binomial_witness" or result.get("passed") is False else 0


# -- simulate -----------------------------------------------------------------


def _simulate_quantum(args, payload):
    povm, states = quantum_instance_from_json(payload)
    result = simulate.simulate_quantum_noisy(povm, states, parse_noise(args.noise))
    return payload, jsonio.simulation_to_json(result)


def _simulate_ball(args, payload):
    effects, states = ball_instance_from_json(payload)
    delta = rational_from_json(args.delta)
    result = simulate.simulate_ball(effects, states, delta=delta)
    return payload, jsonio.simulation_to_json(result)


def _simulate_reduce(args, payload):
    matrix = real_matrix_from_json(payload["matrix"])
    weights = _option_array(args.p) if args.p else None
    result = simulate.reduce_rows(matrix, weights)
    return payload, jsonio.row_reduction_to_json(result)


def _noisy_target(payload):
    """The channel of a matrix input, or the protocol of a protocol input."""
    if "protocol" in payload:
        return jsonio.protocol_from_json(payload["protocol"])
    return real_matrix_from_json(payload["matrix"])


def _simulate_noisy_to_noiseless(args, payload):
    target = _noisy_target(payload)
    spec = parse_noise(args.noise)
    result = simulate.simulate_noisy_by_noiseless(spec, target, args.d)
    if isinstance(result, BinomialWitness):
        return payload, jsonio.binomial_witness_to_json(result, spec)
    return payload, jsonio.simulation_to_json(result)


def _binomial_witness(args, payload):
    """The rerun of a binomial witness: the prefix-sum test of the noise set
    ``args.noise`` (JSON) on n states against d noiseless ones, n the state
    count of the input when one is given."""
    n = args.n
    if payload is not None:
        target = _noisy_target(payload)
        n = len(target.states if isinstance(target, ClassicalProtocol) else target)
    spec = noise_from_json(args.noise)
    witness = certify.permutohedron_simulable_by_d(noise_bases(spec, n)[0], args.d)
    if witness is None:
        raise InvalidCertificate(f"the noise set on {n} states is simulable with d={args.d}")
    return payload, jsonio.binomial_witness_to_json(witness, spec)


# -- certify ------------------------------------------------------------------


def _certify_storability(args, payload):
    mats = payload["matrices"] if "matrices" in payload else [payload["matrix"]]
    value = certify.storability([real_matrix_from_json(m) for m in mats])
    return payload, {"type": "scalar", "name": "storability", "value": float(value)}


def _certify_subset(args, payload):
    report = certify.subset_witness(real_matrix_from_json(payload["matrix"]), r=args.r, d=args.d)
    return payload, jsonio.witness_to_json(report)


def _certify_pairwise(args, payload):
    report = certify.pairwise_witness(real_matrix_from_json(payload["matrix"]), d=args.d)
    return payload, jsonio.witness_to_json(report)


def _certify_asymmetry(args, payload):
    m = certify.minkowski_asymmetry(polytope_from_json(payload))
    return payload, {"type": "asymmetry", "m": float(m), "infstor": float(m) + 1.0}


def _certify_signalling(args, payload):
    delta = rational_from_json(args.delta)
    value = certify.noisy_signalling_dimension(args.n, delta)
    payload = {"n": args.n, "delta": jsonio.rational_to_json(delta)}
    return payload, {"type": "signalling_dimension", **payload, "value": int(value)}


def _certify_replacer(args, payload):
    delta = rational_from_json(args.delta)
    spectrum = None if args.spectrum is None else _option_array(args.spectrum)
    bounds = certify.replacer_bounds(args.m, delta, spectrum=spectrum, n=args.n)
    payload = {
        "m": args.m,
        "n": args.n,
        "delta": jsonio.rational_to_json(delta),
        "spectrum": None if spectrum is None else [float(x) for x in spectrum],
    }
    result = {"lower": int(bounds.lower), "upper": int(bounds.upper), "exact": bounds.exact}
    return payload, {"type": "replacer_bounds", **payload, **result}


def _certify_holevo(args, payload):
    states = [jsonio.complex_matrix_from_json(s) for s in payload["states"]]
    weights = real_matrix_from_json(payload["weights"])
    result = {"type": "holevo", "chi": float(certify.holevo_chi(states, weights)), "info": None}
    if "povm" in payload:
        povm = [jsonio.complex_matrix_from_json(e) for e in payload["povm"]["outcomes"]]
        validate_povm(povm)
        result["info"] = float(certify.mutual_information(born_matrix(povm, states), weights))
    return payload, result


# -- verify -------------------------------------------------------------------


def _verify_simulation(result: dict) -> list[str]:
    try:
        mixture = mixture_from_json(result["mixture"])
        target = real_matrix_from_json(result["target"])
        validate_mixture(mixture)
        recon = mixture_matrix(mixture).matrix
    except (ChanSimError, ValueError) as exc:
        return [f"mixture invalid: {exc}"]
    if recon.shape != target.shape:
        return [f"mixture gives a {recon.shape} matrix, the target is {target.shape}"]
    return _residual_problems(recon, target, result["residual"])


def _verify_row_reduction(result: dict) -> list[str]:
    try:
        reduction = row_reduction_from_json(result)
    except (ChanSimError, ValueError) as exc:
        return [f"terms invalid: {exc}"]
    recon = simulate.row_reduction_matrix(reduction.weights, reduction.matrices)
    return _residual_problems(recon, reduction.target.matrix, result["residual"])


def _residual_problems(recon: np.ndarray, target: np.ndarray, stored) -> list[str]:
    """A recomposition against its target, and its error against the
    residual that the certificate states."""
    stored = real_from_json(stored, "residual")
    problems = []
    residual = float(np.max(np.abs(recon - target)))
    if residual > RESIDUAL_TOL:
        problems.append(f"recomposition residual {residual:.3e} exceeds {RESIDUAL_TOL:.1e}")
    if abs(residual - stored) > 1e-6:
        problems.append("stored residual does not match recomputation")
    return problems


def _input_problems(result: dict, payload: dict) -> list[str]:
    """Compare the target of a simulation or row reduction with the channel
    the input file describes, and a mixture's state count with the input's
    dimension or norm index, or for a matrix or protocol input (simulated
    by d noiseless states) with the decoders' width d."""
    mixture = result.get("mixture", {})
    num_states = None
    if "povm" in payload:
        povm, states = quantum_instance_from_json(payload)
        channel, num_states = born_matrix(povm, states), povm[0].shape[0]
    elif "effects" in payload:
        effects, states = ball_instance_from_json(payload)
        try:
            delta = rational_from_json(mixture.get("noise", {}).get("delta", 0))
        except ValueError as exc:
            return [f"noise delta invalid: {exc}"]
        channel = ball_born_matrix(effects, states, delta=delta).matrix
        num_states = effects[0].norm_index
    else:
        channel = _noisy_target(payload)
        if isinstance(channel, ClassicalProtocol):
            channel = channel.decoder_matrix() @ channel.states
        if mixture:
            num_states = len(mixture["terms"][0]["protocol"]["decoder"])
    problems = []
    target = real_matrix_from_json(result["target"])
    if channel.shape != target.shape or np.max(np.abs(channel - target)) > RESIDUAL_TOL:
        problems.append("target is not the channel the input describes")
    if num_states is not None and mixture.get("num_states") != num_states:
        problems.append(f"mixture declares {mixture.get('num_states')} states, the input has {num_states}")
    return problems


def _verify_witness(result: dict) -> list[str]:
    kind, passed = result["kind"], bool(result["passed"])
    value, bound = (real_from_json(result[key], key) for key in ("value", "bound"))
    if kind == "subset":
        recomputed = value >= bound - 1e-9
    elif kind == "pairwise":
        recomputed = value <= bound + 1e-9
    else:
        return [f"unknown witness kind {kind!r}"]
    if passed != recomputed:
        return ["stored verdict contradicts the value/bound comparison"]
    return []


def _verify_asymmetry(result: dict) -> list[str]:
    infstor, m = (real_from_json(result[key], key) for key in ("infstor", "m"))
    consistent = abs(infstor - m - 1.0) <= 1e-9
    return [] if consistent else ["infstor is not m + 1"]


def _verify_holevo(result: dict) -> list[str]:
    info, chi = result.get("info"), real_from_json(result["chi"], "chi")
    if info is not None and real_from_json(info, "info") > chi + 1e-9:
        return ["mutual information exceeds the Holevo quantity"]
    return []


WITNESSES = {"subset": _certify_subset, "pairwise": _certify_pairwise}

# closed-form result type -> the handler that writes it (for a binomial
# witness, the prefix-sum test alone); a rerun passes the result's fields as
# the options (a witness's from its params)
RERUNS = {
    "scalar": _certify_storability,
    "holevo": _certify_holevo,
    "witness": lambda args, payload: WITNESSES[args.kind](argparse.Namespace(**args.params), payload),
    "signalling_dimension": _certify_signalling,
    "binomial_witness": _binomial_witness,
    "replacer_bounds": _certify_replacer,
}


def _rerun(result: dict, payload: dict | None = None) -> list[str]:
    """Recompute a closed-form result with the handler that wrote it, on the
    input if one is given; numbers must match within 1e-9, every other value
    (booleans, strings, parameters, null) exactly and in type, so that
    neither stands for the other."""
    _, fresh = RERUNS[result["type"]](argparse.Namespace(**result), payload)
    for key, value in fresh.items():
        stored = result[key]
        if type(value) in (int, float):
            same = type(stored) in (int, float) and abs(stored - value) <= 1e-9
        else:
            same = type(stored) is type(value) and stored == value
        if not same:
            source = "on a rerun" if payload is None else "on the input"
            return [f"{key} is {value!r} {source}, not {stored!r}"]
    return []


# result type -> (check from the certificate alone, check against --in or None)
VERIFIERS = {
    "simulation": (_verify_simulation, _input_problems),
    "row_reduction": (_verify_row_reduction, _input_problems),
    "witness": (_verify_witness, _rerun),
    "binomial_witness": (_rerun, _rerun),
    "asymmetry": (_verify_asymmetry, None),
    "holevo": (_verify_holevo, _rerun),
    "signalling_dimension": (_rerun, None),
    "scalar": (lambda result: [], _rerun),
    "replacer_bounds": (_rerun, None),
}

# what a command reports as a failure instead of a traceback: chansim's own
# errors, and what a document of the wrong shape, or with an integer too large
# for a float, raises when it is read
MALFORMED = (
    ChanSimError, ValueError, KeyError, TypeError, IndexError, AttributeError, OverflowError
)


def cmd_verify(args) -> int:
    """Check a certificate; a field that is missing or does not parse is a
    failed check, like a wrong value."""
    cert = _load_json(args.certfile)
    payload = _load_json(args.infile) if args.infile else None
    problems, kind = [], "certificate"
    try:
        if cert.get("version") != CERT_VERSION:
            problems.append(f"unknown certificate version {cert.get('version')!r}")
        else:
            result = cert["result"]
            kind = result.get("type")
            check, check_input = VERIFIERS.get(kind, (None, None))
            problems += check(result) if check else [f"unknown result type {kind!r}"]
            if payload is not None:
                if check_input:
                    problems += check_input(result, payload)
                if jsonio.digest(payload) != cert.get("input_digest"):
                    problems.append("input digest mismatch")
    except MALFORMED as exc:
        problems.append(f"{kind} fields invalid: {exc!r}")
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


# -- the command table ----------------------------------------------------------

IN = ("--in", {"dest": "infile", "required": True})
JSON_ERRORS = ("--json-errors", {"action": "store_true", "help": "emit errors as JSON on stderr"})
OUT = ("--out", {"help": "write the certificate here (default: stdout)"})

GROUPS = {
    "simulate": "construct simulation certificates",
    "certify": "witnesses, bounds, and diagnostics",
    "fixtures": "fixture files",
}

# (group, name, help, options, handler); a row without a name is a top-level
# command. A row lists only the options its handler reads; every row also
# takes --json-errors, and every simulate and certify row runs through
# ``_certify`` and takes --out.
COMMANDS = (
    ("simulate", "quantum", "simulate a (noisy) quantum channel classically",
     [IN, ("--noise", {"default": "noiseless"})], _simulate_quantum),
    ("simulate", "ball", "simulate a delta-noisy ball channel",
     [IN, ("--delta", {"default": "0"})], _simulate_ball),
    ("simulate", "reduce", "row-reduction decomposition of a matrix",
     [IN, ("--p", {"help": "JSON list of row weights"})], _simulate_reduce),
    ("simulate", "noisy-to-noiseless", "simulate a noisy channel with d noiseless states",
     [IN, ("--noise", {"required": True}), ("--d", {"type": int, "required": True})],
     _simulate_noisy_to_noiseless),
    ("certify", "storability", "sum of row maxima", [IN], _certify_storability),
    ("certify", "subset", "subset-sum simulability witness",
     [IN, ("--r", {"type": int, "required": True}), ("--d", {"type": int, "required": True})],
     _certify_subset),
    ("certify", "pairwise", "pairwise row witness",
     [IN, ("--d", {"type": int, "required": True})], _certify_pairwise),
    ("certify", "asymmetry", "Minkowski asymmetry of a polytope", [IN], _certify_asymmetry),
    ("certify", "signalling", "noisy-channel signalling dimension",
     [("--n", {"type": int, "required": True}), ("--delta", {"required": True})],
     _certify_signalling),
    ("certify", "replacer", "partial replacer channel bounds",
     [("--m", {"type": int, "required": True}), ("--delta", {"required": True}),
      ("--n", {"type": int}),
      ("--spectrum", {"help": "JSON list: ascending spectrum of the replacement state"})],
     _certify_replacer),
    ("certify", "holevo", "mutual information and Holevo quantity", [IN], _certify_holevo),
    ("verify", None, "re-check a certificate without re-running the solver",
     [("certfile", {}),
      ("--in", {"dest": "infile", "help": "original input file to check the digest against"})],
     cmd_verify),
    ("fixtures", "emit", "write the bundled example files",
     [("--dir", {"default": "."})], cmd_fixtures_emit),
)


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The parser for ``COMMANDS``; built once per process, since parsing
    leaves it unchanged."""
    parser = argparse.ArgumentParser(
        prog="chansim",
        description="Classical simulation certificates for quantum and ball-model channels.",
    )
    top = parser.add_subparsers(dest="command", required=True)
    groups = {}
    for group, name, help_text, options, handler in COMMANDS:
        if name is None:
            p = top.add_parser(group, help=help_text)
        else:
            if group not in groups:
                groups[group] = top.add_parser(group, help=GROUPS[group]).add_subparsers(
                    dest="subcommand", required=True
                )
            p = groups[group].add_parser(name, help=help_text)
        certifies = group in ("simulate", "certify")
        for flag, kwargs in [*options, JSON_ERRORS, *([OUT] if certifies else [])]:
            p.add_argument(flag, **kwargs)
        p.set_defaults(handler=functools.partial(_certify, handler) if certifies else handler)
    return parser


def _echo_args(argv: list[str]) -> list[str]:
    """Command echo for certificates, minus the output path (so reruns of
    the same logical command are byte-identical). argparse accepts any
    prefix of ``--out`` down to ``--o``, with the path as the next token or
    after ``=``, so every such form is removed."""
    echo, skip = [], False
    for token in argv:
        flag = token.split("=", 1)[0]
        out = len(flag) > 2 and "--out".startswith(flag)
        if not skip and not out:
            echo.append(token)
        skip = out and flag == token and not skip
    return echo


def main(argv: list[str] | None = None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    args = build_parser().parse_args(argv)
    args.command_echo = _echo_args(argv)
    try:
        return args.handler(args)
    except (OSError, *MALFORMED) as exc:
        if args.json_errors:
            error = {"error": {"type": type(exc).__name__, "message": str(exc)}}
            print(canonical_dumps(error), file=sys.stderr)
        else:
            print(f"chansim: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
