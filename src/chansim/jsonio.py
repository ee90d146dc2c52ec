"""Canonical JSON encoding for every domain type.

Complex numbers are [re, im] pairs, matrices are row-major nested arrays.
The canonical serializer makes certificate files and their digests
byte-reproducible: keys are sorted, separators carry no spaces, strings are
written as by ``json.dumps(s, ensure_ascii=False)``, and a float x is
written as ``repr(x)``, the shortest text that reads back to the same double
(0.1, 2.0, 1e+16), the number rule of RFC 8785; -0.0 is written as 0.0, and
NaN and infinities raise ValueError.

``canonical_dumps`` renders a document in two passes. One structural walk
writes the skeleton text with a mark in place of each float and collects
the floats in one list; a list that is a rectangular nest of floats goes in
whole as a bracket template of its shape, and an ndarray is written as its
``tolist()``. Then all of the document's floats are checked at once, and
one ``%`` fills them into the skeleton, a ``%r`` at each mark.
"""

from __future__ import annotations

import functools
import hashlib
import json
import math
import os
import tempfile
from fractions import Fraction
from itertools import chain
from json.encoder import encode_basestring
from typing import Any

import numpy as np

from .certify import BinomialWitness, Polytope, WitnessReport
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
from .errors import DimensionMismatch, InvalidCertificate
from .linalg import require_finite
from .simulate import RowReduction, SimulationResult

CERT_VERSION = "chansim-cert-2"

# stands for a float in the skeleton text; every string and key is written
# by encode_basestring, which escapes all control characters, so no text
# can contain it
_MARK = "\x00"
# lists of only these types are written by one call of the compact encoder
_PLAIN = {int, str, bool, type(None)}
_encode_plain = json.JSONEncoder(ensure_ascii=False, separators=(",", ":")).encode


def canonical_dumps(obj: Any) -> str:
    """Deterministic JSON text: sorted keys, no spaces, each float as its
    shortest round-trip ``repr`` (0.0 for -0.0); a non-finite float raises
    ValueError and a key that is not a string TypeError."""
    skeleton: list[str] = []
    floats: list[float] = []
    try:
        _write_canonical(obj, skeleton, floats)
    except TypeError:
        # a non-finite float ahead of the bad item is the first fault
        _require_finite(np.array(floats, dtype=float))
        raise
    text = "".join(skeleton)
    if not floats:
        return text
    values = np.array(floats, dtype=float) + 0.0  # -0.0 becomes 0.0
    _require_finite(values)
    return text.replace("%", "%%").replace(_MARK, "%r") % tuple(values.tolist())


def _require_finite(values: np.ndarray) -> None:
    if not np.isfinite(values).all():
        raise ValueError("cannot serialize non-finite float")


def _write_canonical(obj: Any, out: list[str], floats: list[float]) -> None:
    """Append the JSON text of ``obj`` to ``out``, with a mark in place of
    each float and the float itself appended to ``floats``."""
    if isinstance(obj, dict):
        out.append("{")
        for t, key in enumerate(sorted(obj)):
            if not isinstance(key, str):
                raise TypeError("canonical JSON requires string keys")
            if t:
                out.append(",")
            out.append(encode_basestring(key))
            out.append(":")
            _write_canonical(obj[key], out, floats)
        out.append("}")
    elif isinstance(obj, (float, np.floating)):
        out.append(_MARK)
        floats.append(float(obj))
    elif isinstance(obj, list) and (types := set(map(type, obj))) <= _PLAIN:
        out.append(_encode_plain(obj))
    elif isinstance(obj, list) and (block := _float_block(obj, types)):
        shape, leaves = block
        floats.extend(leaves)
        out.append(_brackets(shape))
    elif isinstance(obj, str):
        out.append(encode_basestring(obj))
    elif obj is None or isinstance(obj, bool):
        out.append("null" if obj is None else "true" if obj else "false")
    elif isinstance(obj, (int, np.integer)):
        out.append(str(int(obj)))
    elif isinstance(obj, np.ndarray) and obj.ndim:
        _write_canonical(obj.tolist(), out, floats)
    elif isinstance(obj, (list, tuple)):
        out.append("[")
        for t, item in enumerate(obj):
            if t:
                out.append(",")
            _write_canonical(item, out, floats)
        out.append("]")
    else:
        raise TypeError(f"cannot canonically serialize {type(obj).__name__}")


def _float_block(seq: list, types: set) -> tuple[tuple[int, ...], list[float]] | None:
    """The shape and the row-major leaves of ``seq``, whose items have
    ``types``, if it is a rectangular nest of lists whose leaves are all of
    type ``float``, else None."""
    shape = [len(seq)]
    while True:
        if types <= {float}:
            return tuple(shape), seq
        if types != {list}:
            return None
        lengths = set(map(len, seq))
        if len(lengths) != 1:
            return None
        shape.append(lengths.pop())
        seq = list(chain.from_iterable(seq))
        types = set(map(type, seq))


@functools.lru_cache(maxsize=256)
def _brackets(shape: tuple[int, ...]) -> str:
    """The JSON text of an array of this shape with a mark for each entry."""
    inner = _brackets(shape[1:]) if len(shape) > 1 else _MARK
    return "[" + ",".join([inner] * shape[0]) + "]"


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


# -- numbers and matrices -----------------------------------------------------

_NOT_A_NUMBER = {bool: "a boolean", str: "a string", type(None): "null", dict: "an object"}


def _array(data, dtype=float) -> np.ndarray:
    """``data``, a JSON number or a nest of lists of them, as an array of
    ``dtype``: float, or int for decoder entries. Every leaf must be a JSON
    number, so a boolean, string, null or object raises TypeError that names
    it (numpy would read true as 1, "0.5" as 0.5 and null as NaN); then lists
    of different lengths raise DimensionMismatch, and a decoder entry that is
    not an integer raises ValueError."""
    array = np.array(data, dtype=object)
    leaves = flat = array.ravel()
    while list in (types := set(map(type, leaves))):  # the leaves under a ragged nest
        leaves = [y for x in leaves for y in (x if type(x) is list else [x])]
    if not types <= {int, float}:
        kind = type(next(x for x in leaves if type(x) not in (int, float)))
        raise TypeError(f"{_NOT_A_NUMBER.get(kind, kind.__name__)} where a number belongs")
    if leaves is not flat:
        raise DimensionMismatch("lists of different lengths where an array belongs")
    if dtype is int and float in types:
        bad = next(x for x in leaves if type(x) is float)
        raise ValueError(f"decoder entry is not an integer: {bad!r}")
    return array.astype(dtype)


def real_from_json(data, what: str) -> float:
    """A finite number; a boolean, NaN, an infinity or any other value
    raises ValueError that names ``what``."""
    if isinstance(data, bool) or not isinstance(data, (int, float)) or not math.isfinite(data):
        raise ValueError(f"{what} is not a finite number: {data!r}")
    return float(data)


def int_from_json(data, what: str) -> int:
    """An integer; a float, even an integral one, a boolean, a string or
    any other value raises ValueError that names ``what``."""
    if isinstance(data, bool) or not isinstance(data, int):
        raise ValueError(f"{what} is not an integer: {data!r}")
    return data


def complex_matrix_to_json(m: np.ndarray) -> list:
    a = np.asarray(m, dtype=complex)
    return np.stack([a.real, a.imag], -1).tolist()


def complex_matrices_from_json(data) -> np.ndarray:
    """An (m, r, c) complex stack from a list of m r x c x 2 arrays of
    [re, im] pairs, all JSON numbers; a number in place of the list raises
    TypeError, matrices of different shapes DimensionMismatch, and an empty
    list gives a (0, 0, 0) stack."""
    pairs = _array(data)
    if pairs.ndim == 0:
        raise TypeError("a number where a list of matrices belongs")
    if pairs.shape == (0,):
        return np.empty((0, 0, 0), dtype=complex)
    if pairs.ndim != 4 or pairs.shape[3] != 2:
        raise DimensionMismatch(f"complex matrices have shape {pairs.shape}, not m x r x c x 2")
    return require_finite(pairs.view(complex)[..., 0], "complex matrix")


def real_matrix_to_json(m: np.ndarray) -> list:
    return np.asarray(m, dtype=float).tolist()


def real_matrix_from_json(data) -> np.ndarray:
    return require_finite(_array(data), "real matrix")


# -- rationals ----------------------------------------------------------------


def rational_to_json(x):
    if isinstance(x, Fraction):
        return f"{x.numerator}/{x.denominator}"
    return float(x)


def rational_from_json(data):
    """A ``Fraction`` from a string such as "1/3" or "0.25", a float from a
    number; text that is not a rational, a zero denominator included, and
    any other value raise ValueError."""
    if isinstance(data, str):
        if "/" in data:
            num, den = (int(part) for part in data.split("/", 1))
            if den == 0:
                raise ValueError(f"rational {data!r} has a zero denominator")
            return Fraction(num, den)
        return Fraction(data)
    if isinstance(data, (int, float)) and not isinstance(data, bool):
        return float(data)
    raise ValueError(f"rational must be a string or a number, not {type(data).__name__}")


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
        return Permutohedron(base=_array(data["base"]))
    if kind == "per_column":
        specs = tuple(noise_from_json(s) for s in data["specs"])
        if any(isinstance(s, PerColumn) for s in specs):
            raise InvalidCertificate("per_column noise specs do not nest")
        return PerColumn(specs=specs)
    raise InvalidCertificate(f"unknown noise kind {kind!r}")


# -- protocols and mixtures ---------------------------------------------------


def protocol_from_json(data) -> ClassicalProtocol:
    return ClassicalProtocol(
        decoder=_array(data["decoder"], int),
        states=real_matrix_from_json(data["states"]),
        num_outputs=int_from_json(data["num_outputs"], "num_outputs"),
    )


def mixture_to_json(m: ClassicalMixture) -> dict:
    k = int(m.num_outputs)
    terms = [
        {"weight": w, "protocol": {"decoder": d, "states": x, "num_outputs": k}}
        for w, d, x in zip(m.weights.tolist(), m.decoders.tolist(), m.states.tolist())
    ]
    return {"terms": terms, "num_states": int(m.num_states), "noise": noise_to_json(m.noise)}


def mixture_from_json(data) -> ClassicalMixture:
    """The mixture of a certificate's ``terms``, one array per field; the
    protocols must share their number of outputs and their shape."""
    protocols = [t["protocol"] for t in data["terms"]]
    outputs = {int_from_json(p["num_outputs"], "num_outputs") for p in protocols}
    if len(outputs) > 1:
        raise InvalidCertificate(f"protocols differ in their number of outputs: {sorted(outputs)}")
    return ClassicalMixture(
        weights=_array([t["weight"] for t in data["terms"]]),
        decoders=_array([p["decoder"] for p in protocols], int),
        states=_array([p["states"] for p in protocols]),
        num_outputs=outputs.pop() if outputs else 0,
        num_states=int_from_json(data["num_states"], "num_states"),
        noise=noise_from_json(data["noise"]),
    )


# -- ball model ---------------------------------------------------------------


def ball_instance_from_json(data) -> tuple[list[BallEffect], list[BallState]]:
    n = int_from_json(data["norm_index"], "norm_index")
    effects = [
        BallEffect(c=real_from_json(e["c"], "effect constant"), v=_array(e["v"]), norm_index=n)
        for e in data["effects"]
    ]
    states = [BallState(x=_array(x), norm_index=n) for x in data["ball_states"]]
    return effects, states


# -- quantum instances --------------------------------------------------------


def quantum_instance_to_json(povm, states) -> dict:
    return {
        "povm": {"outcomes": [complex_matrix_to_json(e) for e in povm]},
        "states": [complex_matrix_to_json(s) for s in states],
    }


def quantum_instance_from_json(data) -> tuple[np.ndarray, np.ndarray]:
    """The outcomes (k, n, n) and the states (l, m, m), one complex array
    each; the sizes are checked by the simulation, which validates both."""
    return (
        complex_matrices_from_json(data["povm"]["outcomes"]),
        complex_matrices_from_json(data["states"]),
    )


# -- polytopes ----------------------------------------------------------------


def polytope_from_json(data) -> Polytope:
    vertices = _array(data["vertices"])
    normals = _array([f["normal"] for f in data["facets"]])
    offsets = _array([f["offset"] for f in data["facets"]])
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
        {"weight": w, "matrix": b}
        for w, b in zip(result.weights.tolist(), result.matrices.tolist())
    ]
    return {
        "type": "row_reduction",
        "target": real_matrix_to_json(result.target.matrix),
        "terms": terms,
        "zero_rows": result.zero_rows.tolist(),
        "residual": float(result.residual),
    }


def row_reduction_from_json(data) -> RowReduction:
    """The row reduction of a certificate's result, one array per field;
    the terms must share their shape. The stated residual is not read."""
    return RowReduction(
        target=TransitionMatrix(real_matrix_from_json(data["target"])),
        weights=_array([t["weight"] for t in data["terms"]]),
        zero_rows=data["zero_rows"],
        matrices=_array([t["matrix"] for t in data["terms"]]),
    )


def witness_to_json(report: WitnessReport) -> dict:
    return {
        "type": "witness",
        "kind": report.kind,
        "value": float(report.value),
        "bound": float(report.bound),
        "params": {k: int(v) for k, v in report.params.items()},
        "passed": bool(report.passed),
    }


def binomial_witness_to_json(w: BinomialWitness, noise: NoiseSpec) -> dict:
    return {
        "type": "binomial_witness",
        "d": int(w.d),
        "n": int(w.n),
        "noise": noise_to_json(noise),
        "r": int(w.r),
        "prefix_sum": float(w.prefix_sum),
        "bound": float(w.bound),
    }


def certificate(command: list[str], input_payload, result_payload) -> dict:
    return {
        "version": CERT_VERSION,
        "command": list(command),
        "input_digest": digest(input_payload),
        "result": result_payload,
    }
