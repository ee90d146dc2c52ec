"""Tests of the benchmark's own parts: seeded generation and the checker.

    python3 -m pytest -q bench
"""

from __future__ import annotations

import contextlib
import copy
import io
import json
import sys
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(HERE.parent / "src"))

import checks  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_one_seed_gives_byte_identical_inputs(workload):
    def texts(seed):
        return [
            (inst.name, inst.args, workloads.input_text(inst.payload) if inst.payload else "")
            for inst in workloads.generate(workload, seed)
        ]

    assert texts(7) == texts(7)
    assert texts(7) != texts(8)


def test_gpt_verdicts_cover_both_exit_codes():
    by_name = {inst.name: inst for inst in workloads.generate("gpt_channels", 3)}
    n2n = [inst.expect["exit"] for name, inst in by_name.items() if name.startswith("n2n_")]
    assert 0 in n2n and 2 in n2n
    pairwise = by_name["octahedron_pairwise"].expect
    assert (pairwise["value"], pairwise["bound"], pairwise["exit"]) == (6.0, 5.0, 2)
    assert by_name["octahedron_subset"].expect["exit"] == 2


def test_prefix_verdict_matches_the_signalling_dimension():
    # the delta-noisy n-state channel is d-simulable from d = ceil((1-delta) n + delta)
    for n in range(2, 10):
        for delta in (Fraction(1, 4), Fraction(1, 2), Fraction(3, 5)):
            base = [delta / n] * (n - 1) + [1 - (n - 1) * delta / n]
            dims = [d for d in range(1, n + 1) if workloads.prefix_verdict(base, d)]
            assert dims[0] == -(-((1 - delta) * n + delta) // 1)


def _certify(tmp_path, inst):
    from chansim import cli

    in_path = tmp_path / "in.json"
    in_path.write_text(workloads.input_text(inst.payload))
    out = tmp_path / "cert.json"
    with contextlib.redirect_stdout(io.StringIO()):
        code = cli.main(inst.certify_argv(str(in_path), str(out)))
    return json.loads(out.read_text()), code


@pytest.fixture
def noisy_cert(tmp_path):
    inst = workloads.noisy_quantum(5)[0]  # n=2, k=2, l=3, delta 1/3
    cert, code = _certify(tmp_path, inst)
    assert checks.check(inst.expect, cert, code) == []
    return inst, cert, code


def test_checker_rejects_a_perturbed_weight(noisy_cert):
    inst, cert, code = noisy_cert
    bad = copy.deepcopy(cert)
    terms = bad["result"]["mixture"]["terms"]
    shift = min(terms[0]["weight"], 1e-3)
    terms[0]["weight"] -= shift
    terms[-1]["weight"] += shift  # still sums to 1; the recomposition moves
    assert checks.check(inst.expect, bad, code)


def test_checker_rejects_a_column_below_the_noise_floor(noisy_cert):
    inst, cert, code = noisy_cert
    bad = copy.deepcopy(cert)
    states = bad["result"]["mixture"]["terms"][0]["protocol"]["states"]
    floor = float(inst.expect["noise"]["delta"]) / len(states)
    moved = states[0][0] - (floor - 1e-4)
    states[0][0] -= moved
    states[1][0] += moved  # the column stays stochastic
    problems = checks.check(inst.expect, bad, code)
    assert any("outside the declared set" in p for p in problems)


def test_checker_rejects_a_wrong_target(noisy_cert):
    inst, cert, code = noisy_cert
    other = workloads.noisy_quantum(6)[0]
    bad = copy.deepcopy(cert)
    bad["result"]["target"] = other.expect["target"].tolist()
    problems = checks.check(inst.expect, bad, code)
    assert any("target" in p for p in problems)
    # and the certificate does not fit the other instance either
    assert checks.check(other.expect, cert, code)


def test_checker_rejects_a_wrong_verdict():
    expect = {"type": "signalling_dimension", "value": 4, "exit": 0}
    cert = {"result": {"type": "signalling_dimension", "value": 4}}
    assert checks.check(expect, cert, 0) == []
    assert checks.check(expect, cert, 2)
    cert["result"]["value"] = 5
    assert checks.check(expect, cert, 0)


def test_tracer_restores_every_function():
    from chansim import certify, cli, jsonio, lp, majorize, mixdisc, simulate

    modules = {
        "certify": certify, "cli": cli, "jsonio": jsonio, "lp": lp,
        "majorize": majorize, "mixdisc": mixdisc, "simulate": simulate,
    }
    before = {(m, a): getattr(modules[m], a) for m, a, _, _ in tracing.HOOKS}
    tracer = tracing.Tracer()
    tracer.install(modules)
    try:
        program = lp.LinearProgram(num_vars=2, nonneg=True)
        program.add(np.ones(2), lp.EQ, 1.0)
        lp.solve(program)
        assert tracer.counts["lp.solves"] == 1 and tracer.counts["lp.rows"] == 1
        assert tracer.self_s["lp"] > 0.0
    finally:
        tracer.uninstall()
    assert all(getattr(modules[m], a) is fn for (m, a), fn in before.items())


def test_benchmark_json_lists_the_reported_metrics():
    import run

    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END_UNITS
    per_layer = {m["name"]: m["unit"] for m in spec["per_layer"]}
    reported = {name: "s" for name in tracing.SELF_TIME_METRICS.values()}
    reported.update(tracing.COUNTERS)
    reported.update({"traced.certify_s": "s", "traced.verify_s": "s"})
    reported.update({"cli.cold_start_ms": "ms", "cli.numpy_floor_ms": "ms"})
    assert per_layer == reported
    assert set(tracing.SELF_TIME_METRICS) == {hook[2] for hook in tracing.HOOKS} | {"cli"}
