"""Canonical JSON encoding for every domain type.

Complex numbers are [re, im] pairs, matrices are row-major nested arrays.
The canonical serializer (sorted keys, 17-significant-digit floats) makes
certificate files and their digests byte-reproducible.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
import tempfile
from fractions import Fraction
from typing import Any

import numpy as np

from .certify import BinomialWitness, Polytope, ReplacerBounds, WitnessReport
from .channels import (
    BallEffect,
    BallState,
    ClassicalMixture,
    ClassicalProtocol,
    Delta,
    Noiseless,
    NoiseSpec,
    PerColumn,
    Permutohedron,
    TransitionMatrix,
)
from .errors import InvalidCertificate
from .linalg import require_finite
from .simulate import RowReduction, SimulationResult

CERT_VERSION = "chansim-cert-1"


def _canonical_float(x: float) -> str:
    if math.isnan(x) or math.isinf(x):
        raise ValueError("cannot serialize non-finite float")
    if x == 0.0:
        return "0.0"  # -0.0 too, so equal values share one text and digest
    if x == int(x) and abs(x) < 1e16:
        return f"{x:.1f}"
    return format(x, ".17g")


def canonical_dumps(obj: Any) -> str:
    """Deterministic JSON text: sorted keys, fixed float formatting."""
    pieces: list[str] = []
    _write_canonical(obj, pieces)
    return "".join(pieces)


def _write_canonical(obj: Any, out: list[str]) -> None:
    if obj is None or isinstance(obj, bool):
        out.append(json.dumps(obj))
    elif isinstance(obj, (int, np.integer)) and not isinstance(obj, bool):
        out.append(str(int(obj)))
    elif isinstance(obj, (float, np.floating)):
        out.append(_canonical_float(float(obj)))
    elif isinstance(obj, str):
        out.append(json.dumps(obj, ensure_ascii=False))
    elif isinstance(obj, dict):
        out.append("{")
        for t, key in enumerate(sorted(obj)):
            if not isinstance(key, str):
                raise TypeError("canonical JSON requires string keys")
            if t:
                out.append(",")
            out.append(json.dumps(key, ensure_ascii=False))
            out.append(":")
            _write_canonical(obj[key], out)
        out.append("}")
    elif isinstance(obj, (list, tuple, np.ndarray)):
        seq = obj.tolist() if isinstance(obj, np.ndarray) else obj
        out.append("[")
        for t, item in enumerate(seq):
            if t:
                out.append(",")
            _write_canonical(item, out)
        out.append("]")
    else:
        raise TypeError(f"cannot canonically serialize {type(obj).__name__}")


def digest(obj: Any) -> str:
    return hashlib.sha256(canonical_dumps(obj).encode("utf-8")).hexdigest()


def write_atomic(path: str, text: str) -> None:
    directory = os.path.dirname(os.path.abspath(path))
    fd, tmp = tempfile.mkstemp(dir=directory, suffix=".tmp")
    try:
        with os.fdopen(fd, "w", encoding="utf-8") as handle:
            handle.write(text)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


# -- complex matrices ---------------------------------------------------------


def complex_matrix_to_json(m: np.ndarray) -> list:
    a = np.asarray(m, dtype=complex)
    return [[[float(z.real), float(z.imag)] for z in row] for row in a]


def complex_matrix_from_json(data) -> np.ndarray:
    rows = [[complex(entry[0], entry[1]) for entry in row] for row in data]
    return require_finite(np.array(rows, dtype=complex), "complex matrix")


def real_matrix_to_json(m: np.ndarray) -> list:
    return [[float(x) for x in row] for row in np.asarray(m, dtype=float)]


def real_matrix_from_json(data) -> np.ndarray:
    return require_finite(np.array(data, dtype=float), "real matrix")


# -- rationals ----------------------------------------------------------------


def rational_to_json(x):
    if isinstance(x, Fraction):
        return f"{x.numerator}/{x.denominator}"
    return float(x)


def rational_from_json(data):
    if isinstance(data, str):
        if "/" in data:
            num, den = data.split("/", 1)
            return Fraction(int(num), int(den))
        return Fraction(data)
    return float(data)


# -- noise specs --------------------------------------------------------------


def noise_to_json(spec: NoiseSpec) -> dict:
    if isinstance(spec, Noiseless):
        return {"kind": "noiseless"}
    if isinstance(spec, Delta):
        return {"kind": "delta", "delta": rational_to_json(spec.delta)}
    if isinstance(spec, Permutohedron):
        return {"kind": "permutohedron", "base": [float(x) for x in spec.base]}
    if isinstance(spec, PerColumn):
        return {"kind": "per_column", "specs": [noise_to_json(s) for s in spec.specs]}
    raise TypeError(f"unknown noise spec {type(spec).__name__}")


def noise_from_json(data) -> NoiseSpec:
    kind = data["kind"]
    if kind == "noiseless":
        return Noiseless()
    if kind == "delta":
        return Delta(delta=rational_from_json(data["delta"]))
    if kind == "permutohedron":
        return Permutohedron(base=tuple(float(x) for x in data["base"]))
    if kind == "per_column":
        return PerColumn(specs=tuple(noise_from_json(s) for s in data["specs"]))
    raise InvalidCertificate(f"unknown noise kind {kind!r}")


# -- protocols and mixtures ---------------------------------------------------


def protocol_to_json(p: ClassicalProtocol) -> dict:
    return {
        "decoder": [int(i) for i in p.decoder],
        "states": real_matrix_to_json(p.states),
        "num_outputs": int(p.num_outputs),
    }


def protocol_from_json(data) -> ClassicalProtocol:
    return ClassicalProtocol(
        decoder=np.array(data["decoder"], dtype=int),
        states=real_matrix_from_json(data["states"]),
        num_outputs=int(data["num_outputs"]),
    )


def mixture_to_json(m: ClassicalMixture) -> dict:
    return {
        "terms": [
            {"weight": float(w), "protocol": protocol_to_json(p)} for w, p in m.terms
        ],
        "num_states": int(m.num_states),
        "noise": noise_to_json(m.noise),
    }


def mixture_from_json(data) -> ClassicalMixture:
    terms = tuple(
        (float(t["weight"]), protocol_from_json(t["protocol"])) for t in data["terms"]
    )
    return ClassicalMixture(
        terms=terms, num_states=int(data["num_states"]), noise=noise_from_json(data["noise"])
    )


# -- ball model ---------------------------------------------------------------


def ball_instance_from_json(data) -> tuple[list[BallEffect], list[BallState]]:
    n = int(data["norm_index"])
    effects = [
        BallEffect(c=float(e["c"]), v=np.array(e["v"], dtype=float), norm_index=n)
        for e in data["effects"]
    ]
    states = [
        BallState(x=np.array(x, dtype=float), norm_index=n) for x in data["ball_states"]
    ]
    return effects, states


# -- quantum instances --------------------------------------------------------


def quantum_instance_to_json(povm, states) -> dict:
    return {
        "povm": {"outcomes": [complex_matrix_to_json(e) for e in povm]},
        "states": [complex_matrix_to_json(s) for s in states],
    }


def quantum_instance_from_json(data) -> tuple[list[np.ndarray], list[np.ndarray]]:
    povm = [complex_matrix_from_json(e) for e in data["povm"]["outcomes"]]
    states = [complex_matrix_from_json(s) for s in data["states"]]
    return povm, states


# -- polytopes ----------------------------------------------------------------


def polytope_from_json(data) -> Polytope:
    vertices = real_matrix_from_json(data["vertices"])
    normals = np.array([f["normal"] for f in data["facets"]], dtype=float)
    offsets = np.array([f["offset"] for f in data["facets"]], dtype=float)
    return Polytope(vertices=vertices, normals=normals, offsets=offsets)


# -- result payloads ----------------------------------------------------------


def simulation_to_json(result: SimulationResult) -> dict:
    return {
        "type": "simulation",
        "target": real_matrix_to_json(result.target.matrix),
        "mixture": mixture_to_json(result.mixture),
        "residual": float(result.residual),
    }


def row_reduction_to_json(result: RowReduction) -> dict:
    terms = [
        {"weight": float(w), "matrix": real_matrix_to_json(b.matrix)}
        for w, b in result.terms
    ]
    zero_rows = [int(np.argmin(np.abs(b.matrix).sum(axis=1))) for _, b in result.terms]
    return {
        "type": "row_reduction",
        "target": real_matrix_to_json(result.target.matrix),
        "terms": terms,
        "zero_rows": zero_rows,
        "residual": float(result.residual),
    }


def witness_to_json(report: WitnessReport) -> dict:
    return {
        "type": "witness",
        "kind": report.kind,
        "value": float(report.value),
        "bound": float(report.bound),
        "params": {k: int(v) for k, v in report.params.items()},
        "passed": bool(report.passed),
    }


def binomial_witness_to_json(w: BinomialWitness) -> dict:
    return {
        "type": "binomial_witness",
        "r": int(w.r),
        "prefix_sum": float(w.prefix_sum),
        "bound": float(w.bound),
    }


def replacer_to_json(b: ReplacerBounds) -> dict:
    return {
        "type": "replacer_bounds",
        "lower": int(b.lower),
        "upper": int(b.upper),
        "exact": None if b.exact is None else int(b.exact),
    }


def certificate(command: list[str], input_payload, result_payload, tolerances: dict) -> dict:
    return {
        "version": CERT_VERSION,
        "command": list(command),
        "input_digest": digest(input_payload),
        "tolerances": tolerances,
        "result": result_payload,
    }
