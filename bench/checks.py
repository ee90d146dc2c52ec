"""Independent checks of certificates.

A certificate is read with plain ``json``; everything it claims is
recomputed here with numpy and ``fractions`` and compared with the
``expect`` record that ``workloads`` computed from the instance itself.
Nothing here imports the program.
"""

from __future__ import annotations

import math
from fractions import Fraction

import numpy as np

RECOMPOSE_TOL = 1e-8
MEMBER_TOL = 1e-9


def check(expect: dict, cert: dict, exit_code: int) -> list[str]:
    """Problems found in one certificate; an empty list means it passed."""
    if exit_code != expect["exit"]:
        return [f"exit code {exit_code}, expected {expect['exit']}"]
    result = cert.get("result", {})
    kind = expect["type"]
    if result.get("type") != kind:
        return [f"result type {result.get('type')!r}, expected {kind!r}"]
    return CHECKERS[kind](expect, result)


def _column_in_set(col: np.ndarray, noise: dict) -> bool:
    if np.any(col < -MEMBER_TOL) or abs(col.sum() - 1.0) > MEMBER_TOL:
        return False
    if noise["kind"] == "delta":
        return bool(np.all(col >= float(noise["delta"]) / len(col) - MEMBER_TOL))
    if noise["kind"] == "permutohedron":
        # majorized by the base: ascending prefix sums dominate the base's
        base = np.sort(np.asarray(noise["base"], dtype=float))
        if len(base) != len(col):
            return False
        return bool(np.all(np.cumsum(np.sort(col)) >= np.cumsum(base) - MEMBER_TOL))
    return True


def _check_simulation(expect: dict, result: dict) -> list[str]:
    problems = []
    target = np.asarray(expect["target"], dtype=float)
    k, l = target.shape
    n = expect["num_states"]
    claimed = np.asarray(result["target"], dtype=float)
    if claimed.shape != target.shape or np.max(np.abs(claimed - target)) > RECOMPOSE_TOL:
        problems.append("certificate target differs from the instance's channel")
    mixture = result["mixture"]
    if mixture["num_states"] != n:
        problems.append(f"mixture declares {mixture['num_states']} states, expected {n}")
    weights = np.array([t["weight"] for t in mixture["terms"]], dtype=float)
    if weights.size == 0 or np.any(weights < 0) or abs(weights.sum() - 1.0) > MEMBER_TOL:
        problems.append("weights are not a probability vector")
    total = np.zeros((k, l))
    for t, term in enumerate(mixture["terms"]):
        prot = term["protocol"]
        decoder = np.asarray(prot["decoder"], dtype=int)
        states = np.asarray(prot["states"], dtype=float)
        if decoder.shape != (n,) or states.shape != (n, l) or prot["num_outputs"] != k:
            problems.append(f"term {t}: protocol shape is not {n} states x {l} inputs")
            break
        if decoder.min() < 0 or decoder.max() >= k:
            problems.append(f"term {t}: decoder outside the {k} outputs")
            break
        for j in range(l):
            if not _column_in_set(states[:, j], expect["noise"]):
                problems.append(f"term {t}: state column {j} lies outside the declared set")
                break
        e = np.zeros((k, n))
        e[decoder, np.arange(n)] = 1.0
        total += weights[t] * (e @ states)
    if not problems and np.max(np.abs(total - target)) > RECOMPOSE_TOL:
        problems.append(
            f"mixture recomposes to the target within {np.max(np.abs(total - target)):.2e} only"
        )
    return problems


def _check_row_reduction(expect: dict, result: dict) -> list[str]:
    problems = []
    target = np.asarray(expect["target"], dtype=float)
    total = np.zeros_like(target)
    weights = [float(t["weight"]) for t in result["terms"]]
    if any(w < 0 for w in weights) or abs(sum(weights) - 1.0) > MEMBER_TOL:
        problems.append("weights are not a probability vector")
    if len(result["zero_rows"]) != len(result["terms"]):
        problems.append("one zero row per term is required")
    for w, term, row in zip(weights, result["terms"], result["zero_rows"]):
        b = np.asarray(term["matrix"], dtype=float)
        if b.shape != target.shape or np.any(b < -MEMBER_TOL):
            problems.append("a term is not a nonnegative matrix of the target's shape")
            continue
        if np.max(np.abs(b.sum(axis=0) - 1.0)) > MEMBER_TOL:
            problems.append("a term is not column-stochastic")
        if np.max(np.abs(b[row])) > MEMBER_TOL:
            problems.append(f"row {row} of its term is not zero")
        total += w * b
    if np.max(np.abs(total - target)) > RECOMPOSE_TOL:
        problems.append("terms do not recompose to the target")
    return problems


def _check_witness(expect: dict, result: dict) -> list[str]:
    problems = []
    if result["kind"] != expect["kind"]:
        problems.append(f"witness kind {result['kind']!r}, expected {expect['kind']!r}")
    if abs(float(result["value"]) - expect["value"]) > MEMBER_TOL:
        problems.append(f"witness value {result['value']}, expected {expect['value']}")
    if float(result["bound"]) != expect["bound"]:
        problems.append(f"witness bound {result['bound']}, expected {expect['bound']}")
    if bool(result["passed"]) != expect["passed"]:
        problems.append("witness verdict differs from the expected one")
    return problems


def _check_binomial(expect: dict, result: dict) -> list[str]:
    base = sorted(Fraction(x) for x in expect["base"])
    n, d, r = len(base), expect["d"], int(result["r"])
    if not d <= r < n:
        return [f"witness index r={r} outside {d}..{n - 1}"]
    prefix = sum(base[:r], Fraction(0))
    bound = Fraction(math.comb(r, d), math.comb(n, d))
    if prefix >= bound:
        return [f"prefix sum at r={r} does not fall below C(r,d)/C(n,d)"]
    if abs(float(result["bound"]) - float(bound)) > MEMBER_TOL:
        return ["stored bound is not C(r,d)/C(n,d)"]
    if abs(float(result["prefix_sum"]) - float(prefix)) > MEMBER_TOL:
        return ["stored prefix sum is wrong"]
    return []


def _check_asymmetry(expect: dict, result: dict) -> list[str]:
    m = float(result["m"])
    if abs(m - expect["m"]) > 1e-6 * max(1.0, expect["m"]):
        return [f"asymmetry {m}, expected {expect['m']}"]
    if abs(float(result["infstor"]) - (m + 1.0)) > MEMBER_TOL:
        return ["information storability is not m + 1"]
    return []


def _check_signalling(expect: dict, result: dict) -> list[str]:
    if int(result["value"]) != expect["value"]:
        return [f"signalling dimension {result['value']}, expected {expect['value']}"]
    return []


CHECKERS = {
    "simulation": _check_simulation,
    "row_reduction": _check_row_reduction,
    "witness": _check_witness,
    "binomial_witness": _check_binomial,
    "asymmetry": _check_asymmetry,
    "signalling_dimension": _check_signalling,
}
