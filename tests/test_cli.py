import contextlib
import copy
import functools
import io
import json
import operator
import os
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import chansim
from chansim import jsonio
from chansim.cli import main, parse_noise
from chansim.channels import Delta, Noiseless, Permutohedron
from chansim.errors import NotAList


@pytest.fixture
def workdir(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    return tmp_path


def run(args):
    return main(args)


def test_parse_noise_variants():
    assert isinstance(parse_noise(None), Noiseless)
    assert isinstance(parse_noise("noiseless"), Noiseless)
    spec = parse_noise("delta:1/2")
    assert isinstance(spec, Delta) and float(spec.delta) == 0.5
    perm = parse_noise("permutohedron:[0.2, 0.3, 0.5]")
    assert isinstance(perm, Permutohedron)


def test_fixtures_emit_and_pairwise_violation(workdir, capsys):
    assert run(["fixtures", "emit", "--dir", "."]) == 0
    capsys.readouterr()
    code = run(["certify", "pairwise", "--in", "octahedron_matrix.json", "--d", "2",
                "--out", "pairwise.json"])
    assert code == 2
    cert = json.loads((workdir / "pairwise.json").read_text())
    assert cert["result"]["value"] == pytest.approx(6.0)
    assert cert["result"]["bound"] == pytest.approx(5.0)
    assert cert["result"]["passed"] is False


def test_octahedron_asymmetry(workdir, capsys):
    run(["fixtures", "emit", "--dir", "."])
    capsys.readouterr()
    code = run(["certify", "asymmetry", "--in", "octahedron_polytope.json"])
    out = capsys.readouterr().out
    assert code == 0
    cert = json.loads(out)
    assert cert["result"]["m"] == pytest.approx(1.0, abs=1e-6)
    assert cert["result"]["infstor"] == pytest.approx(2.0, abs=1e-6)


def test_simulate_verify_roundtrip_and_tamper(workdir, capsys):
    run(["fixtures", "emit", "--dir", "."])
    capsys.readouterr()
    code = run([
        "simulate", "quantum", "--in", "depolarizing_qubit.json",
        "--noise", "delta:1/2", "--out", "cert.json",
    ])
    assert code == 0
    cert = json.loads((workdir / "cert.json").read_text())
    assert cert["result"]["residual"] <= 1e-8

    assert run(["verify", "cert.json", "--in", "depolarizing_qubit.json"]) == 0
    capsys.readouterr()

    tampered = json.loads((workdir / "cert.json").read_text())
    tampered["result"]["mixture"]["terms"][0]["weight"] += 0.05
    (workdir / "tampered.json").write_text(json.dumps(tampered))
    assert run(["verify", "tampered.json"]) == 2


def test_state_just_outside_the_noise_set_is_never_written(workdir, capsys):
    # spectrum (0.2495, 0.7505) against the base (1/4, 3/4) of delta 1/2: out
    # by 5e-4; a looser validation tolerance once wrote this certificate,
    # which verify then rejected
    run(["fixtures", "emit", "--dir", "."])
    payload = json.loads((workdir / "depolarizing_qubit.json").read_text())
    povm = jsonio.complex_matrices_from_json(payload["povm"]["outcomes"])
    states = [np.diag([0.7505, 0.2495]), np.eye(2) / 2]
    (workdir / "outside.json").write_text(json.dumps(jsonio.quantum_instance_to_json(povm, states)))
    capsys.readouterr()
    argv = ["simulate", "quantum", "--in", "outside.json", "--noise", "delta:1/2"]
    assert run(argv + ["--out", "cert.json"]) == 1
    assert "NotMajorized" in capsys.readouterr().err
    assert not (workdir / "cert.json").exists()


def test_verify_ignores_tolerances_stored_in_the_certificate(workdir, capsys):
    # a forged mixture with a loose stored residual tolerance and a stored
    # residual that matches it: verify must hold it to its own threshold
    from chansim.channels import mixture_matrix

    run(["fixtures", "emit", "--dir", "."])
    run(["simulate", "quantum", "--in", "depolarizing_qubit.json",
         "--noise", "delta:1/2", "--out", "cert.json"])
    capsys.readouterr()
    # certificates no longer record tolerances; an old-format certificate
    # that carries the block still verifies
    old = json.loads((workdir / "cert.json").read_text())
    assert "tolerances" not in old
    old["tolerances"] = {"tol": 1e-9, "residual": 1e-8, "cap": 1000000}
    (workdir / "old.json").write_text(json.dumps(old))
    assert run(["verify", "old.json", "--in", "depolarizing_qubit.json"]) == 0
    forged = json.loads((workdir / "cert.json").read_text())
    result = forged["result"]
    terms = result["mixture"]["terms"]
    terms[0]["weight"] -= 0.05
    terms[1]["weight"] += 0.05
    recon = mixture_matrix(jsonio.mixture_from_json(result["mixture"])).matrix
    result["residual"] = float(np.max(np.abs(recon - np.array(result["target"]))))
    assert result["residual"] > 1e-2
    # an old-format block that claims a loose residual threshold
    forged["tolerances"] = {"tol": 1e-9, "residual": 1.0, "cap": 1000000}
    (workdir / "forged.json").write_text(json.dumps(forged))
    assert run(["verify", "forged.json"]) == 2
    assert run(["verify", "forged.json", "--in", "depolarizing_qubit.json"]) == 2


def test_byte_identical_reruns(workdir, capsys):
    run(["fixtures", "emit", "--dir", "."])
    capsys.readouterr()
    args = [
        "simulate", "quantum", "--in", "depolarizing_qubit.json",
        "--noise", "delta:1/2",
    ]
    assert run(args + ["--out", "a.json"]) == 0
    assert run(args + ["--out", "b.json"]) == 0
    assert (workdir / "a.json").read_bytes() == (workdir / "b.json").read_bytes()


def test_out_abbreviations_leave_the_certificate_unchanged(workdir, capsys):
    # argparse takes --o and --ou for --out; the path must not reach the
    # certificate's command echo in any spelling
    signalling = ["certify", "signalling", "--n", "5", "--delta", "1/2"]
    spellings = [["--ou", "a.json"], ["--ou", "b.json"], ["--out", "c.json"],
                 ["--o=d.json"], ["--ou=e.json"]]
    for out in spellings:
        assert run(signalling + out) == 0
    written = [(workdir / f"{c}.json").read_bytes() for c in "abcde"]
    assert len(set(written)) == 1
    assert json.loads(written[0])["command"] == signalling
    capsys.readouterr()


def test_each_command_takes_only_the_options_it_reads(workdir, capsys):
    # no --tol and no --cap anywhere, --json-errors everywhere, --out on
    # simulate and certify
    from chansim.cli import COMMANDS

    for group, name, _, _, _ in COMMANDS:
        with pytest.raises(SystemExit):
            run([group, "--help"] if name is None else [group, name, "--help"])
        usage = capsys.readouterr().out
        flags = set(usage.replace("[", " ").replace("]", " ").split())
        assert "--json-errors" in flags
        assert "--tol" not in flags
        assert "--cap" not in flags
        assert ("--out" in flags) == (group in ("simulate", "certify"))

    run(["certify", "signalling", "--n", "5", "--delta", "1/2", "--out", "c.json"])
    for argv in (
        ["certify", "signalling", "--n", "5", "--delta", "1/2", "--tol", "7", "--cap", "0"],
        ["verify", "c.json", "--tol", "0.5"],
        ["fixtures", "emit", "--cap", "0"],
        ["simulate", "reduce", "--in", "m.json", "--cap", "3"],
        ["simulate", "quantum", "--in", "q.json", "--tol", "1e-3"],
        ["simulate", "quantum", "--in", "q.json", "--cap", "30"],
        ["simulate", "ball", "--in", "b.json", "--cap", "30"],
    ):
        with pytest.raises(SystemExit) as exc:
            run(argv)
        assert exc.value.code == 2
        assert "unrecognized arguments" in capsys.readouterr().err


def test_noisy_to_noiseless_certificate_has_at_most_l_k_minus_1_plus_1_terms(workdir, capsys):
    # (n, d, l, k) = (16, 8, 3, 8): C(16, 8) = 12870 subsets, pruned to at
    # most 3 * 7 + 1 = 22 protocols
    n, d, l, k = 16, 8, 3, 8
    rng = np.random.default_rng(16)
    delta = 2 / 3  # d = 8 noiseless states simulate this noise at n = 16
    states = delta / n + (1 - delta) * rng.dirichlet(np.ones(n), size=l).T
    decoder = sorted(list(range(k)) + [int(i) for i in rng.integers(0, k, size=n - k)])
    payload = {"protocol": {"decoder": decoder, "states": states.tolist(), "num_outputs": k}}
    (workdir / "p.json").write_text(json.dumps(payload))
    assert run([
        "simulate", "noisy-to-noiseless", "--in", "p.json",
        "--noise", "delta:2/3", "--d", str(d), "--out", "c.json",
    ]) == 0
    result = json.loads((workdir / "c.json").read_text())["result"]
    assert len(result["mixture"]["terms"]) <= l * (k - 1) + 1
    assert result["residual"] <= 1e-8
    capsys.readouterr()
    assert run(["verify", "c.json", "--in", "p.json"]) == 0
    assert capsys.readouterr().out == "verify: ok\n"


def _quantum_input(workdir, name, rng, n, k, l):
    from conftest import random_density, random_povm

    payload = jsonio.quantum_instance_to_json(
        random_povm(rng, n, k), [random_density(rng, n) for _ in range(l)]
    )
    (workdir / name).write_text(json.dumps(payload))


def test_verify_in_rejects_certificate_for_another_channel(workdir, capsys):
    # an n=2 certificate given the digest of an n=4 input with the same k
    # and l: the digest matches, the channel does not
    rng = np.random.default_rng(4)
    _quantum_input(workdir, "n2.json", rng, 2, 4, 3)
    _quantum_input(workdir, "n4.json", rng, 4, 4, 3)
    assert run(["simulate", "quantum", "--in", "n2.json", "--out", "n2.cert.json"]) == 0
    assert run(["simulate", "quantum", "--in", "n4.json", "--out", "n4.cert.json"]) == 0
    assert run(["verify", "n4.cert.json", "--in", "n4.json"]) == 0
    capsys.readouterr()

    forged = json.loads((workdir / "n2.cert.json").read_text())
    honest = json.loads((workdir / "n4.cert.json").read_text())
    forged["input_digest"] = honest["input_digest"]
    (workdir / "forged.json").write_text(json.dumps(forged))
    assert run(["verify", "forged.json", "--in", "n4.json"]) == 2
    err = capsys.readouterr().err
    assert "target is not the channel" in err
    assert "declares 2 states" in err


def test_verify_in_recomputes_ball_and_noisy_targets(workdir, capsys):
    disk = {
        "norm_index": 2,
        "effects": [{"c": 0.5, "v": [0.5, 0.0]}, {"c": 0.5, "v": [-0.5, 0.0]}],
        "ball_states": [[1.0, 0.0], [0.0, 1.0]],
    }
    (workdir / "disk.json").write_text(json.dumps(disk))
    assert run(["simulate", "ball", "--in", "disk.json", "--delta", "1/4", "--out", "b.json"]) == 0
    assert run(["verify", "b.json", "--in", "disk.json"]) == 0

    n, delta = 4, 0.5
    matrix = np.full((n, n), delta / n) + (1 - delta) * np.eye(n)
    (workdir / "m.json").write_text(json.dumps({"matrix": matrix.tolist()}))
    assert run([
        "simulate", "noisy-to-noiseless", "--in", "m.json",
        "--noise", "delta:1/2", "--d", "3", "--out", "m.cert.json",
    ]) == 0
    assert run(["verify", "m.cert.json", "--in", "m.json"]) == 0
    capsys.readouterr()

    # a state count other than the decoders' width d = 3 verified ok
    for num_states in (6, 100):
        cert = json.loads((workdir / "m.cert.json").read_text())
        cert["result"]["mixture"]["num_states"] = num_states
        (workdir / "m2.json").write_text(json.dumps(cert))
        assert run(["verify", "m2.json", "--in", "m.json"]) == 2
        assert f"declares {num_states} states, the input has 3" in capsys.readouterr().err

    # the ball certificate with the delta of another run: the recomputed
    # target moves, so verify rejects it
    cert = json.loads((workdir / "b.json").read_text())
    cert["result"]["mixture"]["noise"]["delta"] = "1/8"
    (workdir / "b2.json").write_text(json.dumps(cert))
    assert run(["verify", "b2.json", "--in", "disk.json"]) == 2


def test_verify_in_checks_row_reduction_target(workdir, capsys):
    run(["fixtures", "emit", "--dir", "."])
    assert run(["simulate", "reduce", "--in", "octahedron_matrix.json", "--out", "red.json"]) == 0
    assert run(["verify", "red.json", "--in", "octahedron_matrix.json"]) == 0
    other = {"matrix": np.full((4, 6), 0.25).tolist()}
    (workdir / "other.json").write_text(json.dumps(other))
    cert = json.loads((workdir / "red.json").read_text())
    cert["input_digest"] = jsonio.digest(other)
    (workdir / "forged.json").write_text(json.dumps(cert))
    capsys.readouterr()
    assert run(["verify", "forged.json", "--in", "other.json"]) == 2
    assert "target is not the channel" in capsys.readouterr().err


def test_verify_in_reruns_witnesses(workdir, capsys):
    run(["fixtures", "emit", "--dir", "."])
    assert run(["certify", "pairwise", "--in", "octahedron_matrix.json", "--d", "2",
                "--out", "pairwise.json"]) == 2
    assert run(["certify", "subset", "--in", "octahedron_matrix.json", "--r", "3",
                "--d", "2", "--out", "subset.json"]) == 0
    for name in ("pairwise.json", "subset.json"):
        assert run(["verify", name, "--in", "octahedron_matrix.json"]) == 0
    # a violated witness rewritten as passing: consistent with its own bound,
    # but not with the matrix
    cert = json.loads((workdir / "pairwise.json").read_text())
    assert cert["result"]["value"] == 6.0
    cert["result"]["value"], cert["result"]["passed"] = 4.0, True
    (workdir / "forged.json").write_text(json.dumps(cert))
    capsys.readouterr()
    assert run(["verify", "forged.json"]) == 0
    assert run(["verify", "forged.json", "--in", "octahedron_matrix.json"]) == 2
    assert "value is 6.0 on the input, not 4.0" in capsys.readouterr().err


def test_signalling_and_replacer(workdir, capsys):
    assert run(["certify", "signalling", "--n", "4", "--delta", "1/3"]) == 0
    cert = json.loads(capsys.readouterr().out)
    assert cert["result"]["value"] == 3

    assert run(["certify", "replacer", "--m", "3", "--delta", "1/2"]) == 0
    cert = json.loads(capsys.readouterr().out)
    assert (cert["result"]["lower"], cert["result"]["upper"]) == (2, 3)


def test_verify_recomputes_signalling_dimension(workdir, capsys):
    args = ["certify", "signalling", "--n", "5", "--delta", "1/2", "--out", "sig.json"]
    assert run(args) == 0
    assert run(["verify", "sig.json"]) == 0
    capsys.readouterr()

    tampered = json.loads((workdir / "sig.json").read_text())
    assert tampered["result"]["value"] == 3
    tampered["result"]["value"] = 1
    (workdir / "tampered.json").write_text(json.dumps(tampered))
    assert run(["verify", "tampered.json"]) == 2
    assert "value is 3 on a rerun, not 1" in capsys.readouterr().err


def test_noisy_to_noiseless_witness_exit_code(workdir, capsys):
    n, delta = 4, 0.5
    cols = []
    for j in range(n):
        col = [delta / n] * n
        col[j] = 1 - (n - 1) * delta / n
        cols.append(col)
    matrix = np.array(cols).T.tolist()
    (workdir / "target.json").write_text(json.dumps({"matrix": matrix}))
    code = run([
        "simulate", "noisy-to-noiseless", "--in", "target.json",
        "--noise", "delta:1/2", "--d", "2", "--out", "w.json",
    ])
    assert code == 2
    cert = json.loads((workdir / "w.json").read_text())
    assert cert["result"]["type"] == "binomial_witness"
    assert cert["result"]["r"] == 3

    code = run([
        "simulate", "noisy-to-noiseless", "--in", "target.json",
        "--noise", "delta:1/2", "--d", "3", "--out", "ok.json",
    ])
    assert code == 0
    cert = json.loads((workdir / "ok.json").read_text())
    assert cert["result"]["residual"] <= 1e-8
    assert run(["verify", "ok.json"]) == 0
    capsys.readouterr()


def test_binomial_witness_under_a_loose_tolerance_verifies(workdir, capsys):
    # prefix sums (0.04, 0.09, 0.3, 0.5995) against C(r,2)/C(5,2) = (0.1, 0.3,
    # 0.6) at r = 2, 3, 4: r = 4 misses by 5e-4 only, which a loose tolerance
    # once let pass so that the witness named r = 2; the witness names the
    # largest failing r, 4, and verify's rerun finds the same r
    base = [0.04, 0.05, 0.21, 0.2995, 0.4005]
    (workdir / "base.json").write_text(json.dumps({"matrix": [[b] for b in base]}))
    assert run([
        "simulate", "noisy-to-noiseless", "--in", "base.json", "--noise",
        f"permutohedron:{json.dumps(base)}", "--d", "2", "--out", "b.json",
    ]) == 2
    assert json.loads((workdir / "b.json").read_text())["result"]["r"] == 4
    assert run(["verify", "b.json", "--in", "base.json"]) == 0
    capsys.readouterr()


def test_reduce_and_verify(workdir, capsys):
    run(["fixtures", "emit", "--dir", "."])
    capsys.readouterr()
    code = run([
        "simulate", "reduce", "--in", "octahedron_matrix.json",
        "--p", "[0.25, 0.25, 0.25, 0.25]", "--out", "red.json",
    ])
    assert code == 0
    assert run(["verify", "red.json"]) == 0
    capsys.readouterr()


def _reduce_certificate(workdir):
    run(["fixtures", "emit", "--dir", "."])
    assert run([
        "simulate", "reduce", "--in", "octahedron_matrix.json",
        "--p", "[0.25, 0.25, 0.25, 0.25]", "--out", "red.json",
    ]) == 0
    return json.loads((workdir / "red.json").read_text())


def test_verify_rejects_row_reduction_with_wrong_residual(workdir, capsys):
    cert = _reduce_certificate(workdir)
    cert["result"]["residual"] += 0.25
    (workdir / "tampered.json").write_text(json.dumps(cert))
    capsys.readouterr()
    assert run(["verify", "tampered.json"]) == 2
    assert "stored residual does not match" in capsys.readouterr().err


def test_verify_rejects_zero_row_outside_the_matrix(workdir, capsys):
    cert = _reduce_certificate(workdir)
    zero_rows = cert["result"]["zero_rows"]
    assert zero_rows[3] == 3
    zero_rows[3] = 4
    (workdir / "outside.json").write_text(json.dumps(cert))
    zero_rows.pop()
    (workdir / "short.json").write_text(json.dumps(cert))
    capsys.readouterr()
    assert run(["verify", "outside.json"]) == 2
    assert "claimed zero row 4 is not a row index" in capsys.readouterr().err
    assert run(["verify", "short.json"]) == 2
    assert "3 zero rows for 4 terms" in capsys.readouterr().err


# a bench-shaped channel (rows Dirichlet(6) per column), and one whose row 0
# is zero, so that row 0 is zero in every term
ZERO_ROW_TARGET = [[0.0, 0.0, 0.0], [0.5, 0.2, 0.3], [0.3, 0.5, 0.2], [0.2, 0.3, 0.5]]


@pytest.mark.parametrize(
    "matrix",
    [np.random.default_rng(0).dirichlet(np.full(6, 6.0), size=4).T.tolist(), ZERO_ROW_TARGET],
    ids=["dirichlet", "zero_row"],
)
def test_reduce_zero_rows_are_the_zeroed_rows(workdir, capsys, matrix):
    # the zero rows were guessed by argmin, which named the first zero row
    # of each term instead of the row that the reduction zeroed
    (workdir / "a.json").write_text(json.dumps({"matrix": matrix}))
    assert run(["simulate", "reduce", "--in", "a.json", "--out", "red.json"]) == 0
    assert run(["verify", "red.json", "--in", "a.json"]) == 0
    assert json.loads((workdir / "red.json").read_text())["result"]["zero_rows"] == [
        *range(len(matrix))
    ]


def test_verify_rejects_repeated_zero_rows(workdir, capsys):
    # row 0 is zero in every term, so only distinctness rules out [0, 0, 0, 0]
    (workdir / "a.json").write_text(json.dumps({"matrix": ZERO_ROW_TARGET}))
    assert run(["simulate", "reduce", "--in", "a.json", "--out", "red.json"]) == 0
    cert = json.loads((workdir / "red.json").read_text())
    cert["result"]["zero_rows"] = [0, 0, 0, 0]
    (workdir / "repeated.json").write_text(json.dumps(cert))
    capsys.readouterr()
    assert run(["verify", "repeated.json", "--in", "a.json"]) == 2
    assert "repeat a row" in capsys.readouterr().err


def test_verify_rejects_row_reduction_terms_with_negative_entries(workdir, capsys):
    # moving 2 between rows 2 and 3 of two equally weighted terms keeps every
    # column sum, the recomposition and the residual
    cert = _reduce_certificate(workdir)
    first, second = (term["matrix"] for term in cert["result"]["terms"][:2])
    first[2][0] += 2
    first[3][0] -= 2
    second[2][0] -= 2
    second[3][0] += 2
    (workdir / "negative.json").write_text(json.dumps(cert))
    capsys.readouterr()
    assert run(["verify", "negative.json", "--in", "octahedron_matrix.json"]) == 2
    assert "terms invalid" in capsys.readouterr().err


def test_verify_in_reruns_storability_and_holevo(workdir, capsys):
    run(["fixtures", "emit", "--dir", "."])
    ensemble = json.loads((workdir / "depolarizing_qubit.json").read_text())
    ensemble["weights"] = [0.5, 0.5]
    (workdir / "ensemble.json").write_text(json.dumps(ensemble))
    assert run(["certify", "storability", "--in", "octahedron_matrix.json", "--out", "s.json"]) == 0
    assert run(["certify", "holevo", "--in", "ensemble.json", "--out", "h.json"]) == 0
    assert run(["verify", "s.json", "--in", "octahedron_matrix.json"]) == 0
    assert run(["verify", "h.json", "--in", "ensemble.json"]) == 0

    cert = json.loads((workdir / "s.json").read_text())
    assert cert["result"]["value"] == 2.0
    cert["result"]["value"] = 2.25
    (workdir / "s2.json").write_text(json.dumps(cert))
    cert = json.loads((workdir / "h.json").read_text())
    cert["result"]["chi"] += 0.25
    (workdir / "h2.json").write_text(json.dumps(cert))
    capsys.readouterr()
    assert run(["verify", "s2.json", "--in", "octahedron_matrix.json"]) == 2
    assert "value is 2.0 on the input, not 2.25" in capsys.readouterr().err
    assert run(["verify", "h2.json", "--in", "ensemble.json"]) == 2
    assert "chi is" in capsys.readouterr().err


def test_certify_holevo_rejects_an_invalid_ensemble(workdir, capsys, rng):
    # weights (0.7, 0.7) exited 0 with chi -0.544 and info -0.622, and a
    # trace-2.5 state without a POVM got a certificate that verify accepted
    from conftest import random_density, random_povm

    states = [random_density(rng, 2) for _ in range(2)]
    povm = random_povm(rng, 2, 3)
    cases = {
        "weights.json": (povm, states, [0.7, 0.7], "WeightSumNotOne"),
        "trace.json": (None, [states[0], 2.5 * states[1]], [0.5, 0.5], "TraceNotOne"),
        "povm.json": ([2 * e for e in povm], states, [0.5, 0.5], "SumNotIdentity"),
    }
    for name, (outcomes, rhos, weights, error) in cases.items():
        payload = jsonio.quantum_instance_to_json(outcomes or [], rhos)
        if outcomes is None:
            del payload["povm"]
        payload["weights"] = weights
        (workdir / name).write_text(json.dumps(payload))
        capsys.readouterr()
        assert run(["certify", "holevo", "--in", name, "--out", "h.json"]) == 1
        assert error in capsys.readouterr().err
        assert not (workdir / "h.json").exists()


@pytest.mark.parametrize("d", ["-3", "0"])
def test_certify_pairwise_rejects_d_outside_one_to_k(workdir, capsys, d):
    # both wrote a violated witness (bounds -15 and 0) and exited 2
    run(["fixtures", "emit", "--dir", "."])
    capsys.readouterr()
    argv = ["certify", "pairwise", "--in", "octahedron_matrix.json", "--d", d]
    assert run(argv + ["--out", "w.json"]) == 1
    assert "BadRange" in capsys.readouterr().err
    assert not (workdir / "w.json").exists()


def test_shared_parser_carries_no_state_between_calls(workdir, capsys):
    from chansim import cli

    cli.build_parser.cache_clear()
    signalling = ["certify", "signalling", "--n", "5", "--delta", "1/2"]
    assert run(signalling + ["--out", "a.json"]) == 0
    written = (workdir / "a.json").read_bytes()
    capsys.readouterr()
    assert run(signalling) == 0
    assert capsys.readouterr().out.encode() == written
    assert (workdir / "a.json").read_bytes() == written

    run(["fixtures", "emit", "--dir", "."])
    quantum = ["simulate", "quantum", "--in", "depolarizing_qubit.json"]
    assert run(quantum + ["--noise", "delta:1/2", "--out", "noisy.json"]) == 0
    assert run(quantum + ["--out", "plain.json"]) == 0
    noisy = json.loads((workdir / "noisy.json").read_text())
    plain = json.loads((workdir / "plain.json").read_text())
    assert noisy["result"]["mixture"]["noise"] == {"kind": "delta", "delta": "1/2"}
    assert plain["result"]["mixture"]["noise"] == {"kind": "noiseless"}
    assert cli.build_parser.cache_info().misses == 1

    capsys.readouterr()
    with pytest.raises(SystemExit) as exc:
        run(["bogus"])
    assert exc.value.code == 2
    assert "{simulate,certify,verify,fixtures}" in capsys.readouterr().err.splitlines()[0]


def test_storability_and_holevo(workdir, capsys):
    run(["fixtures", "emit", "--dir", "."])
    capsys.readouterr()
    code = run(["certify", "storability", "--in", "octahedron_matrix.json"])
    assert code == 0
    cert = json.loads(capsys.readouterr().out)
    assert cert["result"]["value"] == pytest.approx(2.0)

    instance = json.loads((workdir / "depolarizing_qubit.json").read_text())
    instance["weights"] = [0.5, 0.5]
    (workdir / "ensemble.json").write_text(json.dumps(instance))
    code = run(["certify", "holevo", "--in", "ensemble.json"])
    assert code == 0
    cert = json.loads(capsys.readouterr().out)
    assert cert["result"]["info"] <= cert["result"]["chi"] + 1e-9


def test_error_exit_code_and_json_errors(workdir, capsys):
    (workdir / "bad.json").write_text("{not json}")
    assert run(["certify", "storability", "--in", "bad.json"]) == 1
    assert run(["certify", "storability", "--in", "bad.json", "--json-errors"]) == 1
    err = capsys.readouterr().err
    assert '"error"' in err.splitlines()[-1]


def test_ball_cli(workdir, capsys):
    payload = {
        "norm_index": 2,
        "effects": [
            {"c": 0.5, "v": [0.5, 0.0]},
            {"c": 0.5, "v": [-0.5, 0.0]},
        ],
        "ball_states": [[1.0, 0.0], [-1.0, 0.0]],
    }
    (workdir / "disk.json").write_text(json.dumps(payload))
    code = run(["simulate", "ball", "--in", "disk.json", "--delta", "1/4", "--out", "ball.json"])
    assert code == 0
    cert = json.loads((workdir / "ball.json").read_text())
    assert cert["result"]["residual"] <= 1e-8
    assert run(["verify", "ball.json"]) == 0
    capsys.readouterr()


def test_subset_cli_pass(workdir, capsys):
    (workdir / "id.json").write_text(json.dumps({"matrix": np.eye(4).tolist()}))
    assert run(["certify", "subset", "--in", "id.json", "--r", "2", "--d", "4"]) == 0
    capsys.readouterr()


def test_certificate_roundtrip_lossless(workdir, capsys):
    from chansim.jsonio import canonical_dumps

    run(["fixtures", "emit", "--dir", "."])
    capsys.readouterr()
    assert run([
        "simulate", "quantum", "--in", "depolarizing_qubit.json",
        "--noise", "delta:1/2", "--out", "cert.json",
    ]) == 0
    text = (workdir / "cert.json").read_text()
    assert canonical_dumps(json.loads(text)) + "\n" == text


def test_permutohedron_noise_and_spec_file(workdir, capsys):
    run(["fixtures", "emit", "--dir", "."])
    capsys.readouterr()
    code = run([
        "simulate", "quantum", "--in", "depolarizing_qubit.json",
        "--noise", "permutohedron:[0.25, 0.75]", "--out", "perm.json",
    ])
    assert code == 0
    assert run(["verify", "perm.json"]) == 0
    capsys.readouterr()

    (workdir / "spec.json").write_text(json.dumps({"kind": "delta", "delta": "1/2"}))
    code = run([
        "simulate", "quantum", "--in", "depolarizing_qubit.json",
        "--noise", "@spec.json", "--out", "atfile.json",
    ])
    assert code == 0
    a = json.loads((workdir / "atfile.json").read_text())
    assert a["result"]["residual"] <= 1e-8

    per_column = {
        "kind": "per_column",
        "specs": [{"kind": "delta", "delta": "1/2"}, {"kind": "delta", "delta": "1/4"}],
    }
    (workdir / "percol.json").write_text(json.dumps(per_column))
    code = run([
        "simulate", "quantum", "--in", "depolarizing_qubit.json",
        "--noise", "@percol.json", "--out", "percol_cert.json",
    ])
    assert code == 0
    assert run(["verify", "percol_cert.json"]) == 0
    capsys.readouterr()


def _run_console_sequence(workdir, launcher, env=None):
    """Drive the CLI through separate processes started as ``launcher + args``."""

    def call(*args):
        return subprocess.run(
            [*launcher, *args], capture_output=True, text=True, env=env
        )

    emit = call("fixtures", "emit", "--dir", ".")
    assert emit.returncode == 0
    sim = call(
        "simulate", "quantum", "--in", "depolarizing_qubit.json", "--noise", "delta:1/2"
    )
    assert sim.returncode == 0
    cert = json.loads(sim.stdout)
    assert cert["result"]["type"] == "simulation"
    (workdir / "cert.json").write_text(sim.stdout)

    verify = call("verify", "cert.json")
    assert verify.returncode == 0 and "ok" in verify.stdout

    pairwise = call("certify", "pairwise", "--in", "octahedron_matrix.json", "--d", "2")
    assert pairwise.returncode == 2

    bad = call("certify", "pairwise", "--in", "missing.json", "--d", "2")
    assert bad.returncode == 1


def test_console_entry_point_subprocess(workdir):
    # The child runs in tmp_path, so a relative PYTHONPATH would not reach the
    # source tree; put the directory of the package under test first.
    package_root = str(Path(chansim.__file__).resolve().parent.parent)
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (package_root, env.get("PYTHONPATH")) if p
    )
    _run_console_sequence(workdir, [sys.executable, "-m", "chansim"], env=env)


_IMPORT_EVERY_MODULE = """
import pkgutil, sys
before = set(sys.modules)
import chansim
for info in pkgutil.iter_modules(chansim.__path__):
    __import__("chansim." + info.name)
loaded = {name.partition(".")[0] for name in set(sys.modules) - before}
print(*sorted(loaded - set(sys.stdlib_module_names) - {"chansim", "numpy"}))
"""


def test_numpy_is_the_only_runtime_dependency():
    # a fresh interpreter imports chansim and every submodule; what the
    # site already loads (.pth hooks) is taken as the baseline in that
    # process, before the import
    package_root = str(Path(chansim.__file__).resolve().parent.parent)
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (package_root, env.get("PYTHONPATH")) if p)
    proc = subprocess.run(
        [sys.executable, "-c", _IMPORT_EVERY_MODULE],
        capture_output=True, text=True, env=env, timeout=60,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == []


@pytest.mark.skipif(
    shutil.which("chansim") is None, reason="no chansim console script on PATH"
)
def test_installed_console_script(workdir):
    _run_console_sequence(workdir, [shutil.which("chansim")])


def test_console_script_declaration():
    tomllib = pytest.importorskip("tomllib")
    pyproject = Path(__file__).resolve().parent.parent / "pyproject.toml"
    with pyproject.open("rb") as fh:
        scripts = tomllib.load(fh)["project"]["scripts"]
    assert scripts["chansim"] == "chansim.cli:main"


def _numeric_leaves(node, path=()):
    """Paths to the int and float leaves under a JSON node (not booleans)."""
    if isinstance(node, dict):
        children = node.items()
    elif isinstance(node, list):
        children = enumerate(node)
    else:
        if isinstance(node, (int, float)) and not isinstance(node, bool):
            yield path
        return
    for key, child in children:
        yield from _numeric_leaves(child, path + (key,))


def _delta_noisy_matrix(n, delta):
    """The n x n matrix whose columns are the n extremal delta-noisy states."""
    return (np.full((n, n), delta / n) + np.eye(n) * (1 - delta)).tolist()


def test_verify_rejects_every_single_leaf_tamper(workdir, capsys):
    from chansim import cli

    run(["fixtures", "emit", "--dir", "."])
    ensemble = json.loads((workdir / "depolarizing_qubit.json").read_text())
    ensemble["weights"] = [0.5, 0.5]
    (workdir / "ensemble.json").write_text(json.dumps(ensemble))
    (workdir / "noisy4.json").write_text(json.dumps({"matrix": _delta_noisy_matrix(4, 0.5)}))
    uniform = json.dumps([1 / 3] * 3)
    # a projective measurement: its noiseless certificate has a single term
    basis = [np.diag([1.0, 0.0]), np.diag([0.0, 1.0])]
    projective = jsonio.quantum_instance_to_json(basis, [basis[0], np.eye(2) / 2])
    (workdir / "projective.json").write_text(json.dumps(projective))
    (workdir / "ball.json").write_text(json.dumps(PINNED_BALL))
    commands = [
        (["simulate", "quantum", "--noise", "delta:1/2"], "depolarizing_qubit.json"),
        (["simulate", "quantum", "--noise", "permutohedron:[0.25, 0.75]"], "depolarizing_qubit.json"),
        (["simulate", "ball", "--delta", "1/3"], "ball.json"),
        (["simulate", "quantum"], "depolarizing_qubit.json"),
        (["simulate", "quantum"], "projective.json"),
        (["certify", "pairwise", "--d", "2"], "octahedron_matrix.json"),
        (["certify", "subset", "--r", "3", "--d", "2"], "octahedron_matrix.json"),
        (["certify", "asymmetry"], "octahedron_polytope.json"),
        (["certify", "signalling", "--n", "5", "--delta", "1/2"], None),
        (["simulate", "reduce", "--p", "[0.25, 0.25, 0.25, 0.25]"], "octahedron_matrix.json"),
        (["certify", "storability"], "octahedron_matrix.json"),
        (["certify", "holevo"], "ensemble.json"),
        (["simulate", "noisy-to-noiseless", "--noise", "delta:1/2", "--d", "2"], "noisy4.json"),
        (["certify", "replacer", "--m", "3", "--n", "3", "--delta", "1/2",
          "--spectrum", uniform], None),
    ]
    accepted, types = [], set()
    for argv, infile in commands:
        in_args = ["--in", infile] if infile else []
        run(argv + in_args + ["--out", "cert.json"])
        cert = json.loads((workdir / "cert.json").read_text())
        assert run(["verify", "cert.json", *in_args]) == 0
        types.add(cert["result"]["type"])
        paths = list(_numeric_leaves(cert["result"]))
        assert paths
        for path in paths:
            tampered = json.loads((workdir / "cert.json").read_text())
            node = tampered["result"]
            for key in path[:-1]:
                node = node[key]
            leaf = node[path[-1]]
            # an integer leaf is also tampered into a float that truncates to it
            for step in (1, 0.5) if isinstance(leaf, int) else (0.25,):
                node[path[-1]] = leaf + step
                (workdir / "tampered.json").write_text(json.dumps(tampered))
                if run(["verify", "tampered.json", *in_args]) != 2:
                    accepted.append((argv[1], path, step))
    capsys.readouterr()
    assert accepted == []
    assert types == set(cli.VERIFIERS)


@pytest.fixture(scope="module")
def pinned_certificates(tmp_path_factory):
    """A directory with the inputs of PINNED_CERTIFICATE_DIGESTS, and for each
    of its commands the certificate and the verify arguments after its path."""
    directory = tmp_path_factory.mktemp("pinned")
    main(["fixtures", "emit", "--dir", str(directory)])
    ensemble = json.loads((directory / "depolarizing_qubit.json").read_text())
    ensemble["weights"] = [0.5, 0.5]
    basis = [np.diag([1.0, 0.0]), np.diag([0.0, 1.0])]
    rays = [np.array([np.cos(t), np.sin(t)]) for t in np.pi * np.arange(6) / 6]
    inputs = {
        "ensemble.json": ensemble,
        "projective.json": jsonio.quantum_instance_to_json(basis, [basis[0], np.eye(2) / 2]),
        "six_outcome_qubit.json": jsonio.quantum_instance_to_json(
            [np.outer(r, r) / 3 for r in rays], [np.diag([0.75, 0.25]), np.eye(2) / 2]
        ),
        "ball.json": PINNED_BALL,
        "noisy_matrix.json": {"matrix": PINNED_NOISY_MATRIX},
        "percol.json": PINNED_PER_COLUMN,
    }
    for name, payload in inputs.items():
        (directory / name).write_text(json.dumps(payload))
    certificates = []
    for argv, infile, _ in PINNED_CERTIFICATE_DIGESTS:
        in_args = ["--in", str(directory / infile)] if infile else []
        argv = [f"@{directory / a[1:]}" if a.startswith("@") else a for a in argv]
        # a command that writes nothing must not pass on the last certificate
        (directory / "cert.json").unlink(missing_ok=True)
        main(argv + in_args + ["--out", str(directory / "cert.json")])
        certificates.append((json.loads((directory / "cert.json").read_text()), in_args))
    return directory, certificates


def _sites(node, path=()):
    """Paths to every value under a JSON node, containers included."""
    if isinstance(node, dict):
        children = node.items()
    elif isinstance(node, list):
        children = enumerate(node)
    else:
        return
    for key, child in children:
        yield path + (key,)
        yield from _sites(child, path + (key,))


DELETE = object()


def _tamper(document, path, new):
    """Delete the key at ``path`` in a JSON document if ``new`` is DELETE,
    else put ``new`` there."""
    parent = functools.reduce(operator.getitem, path[:-1], document)
    if new is DELETE:
        del parent[path[-1]]
    else:
        parent[path[-1]] = new


def _not_a_rational(text):
    try:
        jsonio.rational_from_json(text)
    except ValueError:
        return True
    return False

_words = st.text(max_size=3).filter(_not_a_rational)
# a value with no number in it: null, a boolean, a string that is not a
# rational, or a list or object of these
_junk = st.recursive(
    st.none() | st.booleans() | _words,
    lambda inner: st.lists(inner, max_size=2) | st.dictionaries(_words, inner, max_size=2),
    max_leaves=3,
)


@settings(max_examples=300)
@given(data=st.data())
def test_verify_rejects_every_malformed_field(pinned_certificates, data):
    # the single-leaf tamper test's commands, plus a ball, a per-class and a
    # noisy-to-noiseless simulation; one key of the result deleted, or one
    # value anywhere in it replaced by a value that holds no number
    directory, certificates = pinned_certificates
    cert, in_args = data.draw(st.sampled_from(certificates))
    tampered = copy.deepcopy(cert)
    path = data.draw(st.sampled_from(list(_sites(tampered["result"], ("result",)))))
    parent = functools.reduce(operator.getitem, path[:-1], tampered)
    # a float may also become an integer too large for a float, which ended
    # in an OverflowError traceback (a storability value, a reduce residual)
    values = _junk | st.just(10**400) if isinstance(parent[path[-1]], float) else _junk
    new = data.draw(st.just(DELETE) | values if isinstance(parent, dict) else values)
    assume(new is DELETE or new != parent[path[-1]])
    _tamper(tampered, path, new)
    (directory / "tampered.json").write_text(json.dumps(tampered))
    stderr = io.StringIO()
    with contextlib.redirect_stderr(stderr), contextlib.redirect_stdout(io.StringIO()):
        assert main(["verify", str(directory / "tampered.json"), *in_args]) == 2
    err = stderr.getvalue().splitlines()
    assert err and all(line.startswith("verify: ") for line in err)


@pytest.mark.parametrize(
    "argv, infile, path, value",
    [
        (["certify", "asymmetry"], "octahedron_polytope.json", ("m",), "x"),
        (["simulate", "quantum"], "depolarizing_qubit.json", ("residual",), "x"),
        (["certify", "pairwise", "--d", "2"], "octahedron_matrix.json", ("params",), DELETE),
        (["certify", "storability"], "octahedron_matrix.json", (), []),
        (["simulate", "quantum"], "depolarizing_qubit.json", ("mixture",), []),
        (["simulate", "reduce"], "octahedron_matrix.json", ("terms",), 5),
        # the residual was read with the terms and reported as "terms invalid"
        (["simulate", "reduce"], "octahedron_matrix.json", ("residual",), "x"),
        # a NaN residual matched every recomputation and verified ok
        (["simulate", "reduce"], "octahedron_matrix.json", ("residual",), float("nan")),
    ],
)
def test_verify_rejects_malformed_certificate(workdir, capsys, argv, infile, path, value):
    # each of these exited 1 with a ValueError or KeyError, or raised a
    # TypeError or AttributeError out of verify
    run(["fixtures", "emit", "--dir", "."])
    run(argv + ["--in", infile, "--out", "cert.json"])
    cert = json.loads((workdir / "cert.json").read_text())
    _tamper(cert, ("result", *path), value)
    (workdir / "tampered.json").write_text(json.dumps(cert))
    capsys.readouterr()
    assert run(["verify", "tampered.json", "--in", infile]) == 2
    err = capsys.readouterr().err.splitlines()
    assert err and all(line.startswith("verify: ") for line in err)
    if path == ("residual",):
        assert any(f"residual is not a finite number: {value!r}" in line for line in err)


@pytest.mark.parametrize(
    "argv, path",
    [
        (["simulate", "reduce"], ("zero_rows", 1)),
        (["simulate", "reduce"], ("terms", 0, "matrix", 1, 0)),
        (["simulate", "quantum", "--noise", "delta:1/2"], ("mixture", "terms", 0, "protocol",
                                                           "decoder", 1)),
        (["simulate", "quantum", "--noise", "delta:1/2"], ("mixture", "terms", 0, "weight")),
        (["simulate", "quantum", "--noise", "delta:1/2"], ("mixture", "terms", 0, "protocol",
                                                           "states", 0, 0)),
        (["simulate", "quantum", "--noise", "delta:1/2"], ("target", 0, 0)),
    ],
)
def test_verify_rejects_a_boolean_where_a_number_belongs(workdir, capsys, argv, path):
    # numpy reads true as 1, the string "0.5" as 0.5 and null as NaN; a true
    # where a 1 was, and each number rewritten as a string of its value,
    # verified ok
    run(["fixtures", "emit", "--dir", "."])
    infile = "octahedron_matrix.json" if argv[1] == "reduce" else "depolarizing_qubit.json"
    run(argv + ["--in", infile, "--out", "cert.json"])
    text = (workdir / "cert.json").read_text()
    number = functools.reduce(operator.getitem, path, json.loads(text)["result"])
    for value in [True] * (number == 1) + [str(number), None]:
        cert = json.loads(text)
        _tamper(cert, ("result", *path), value)
        (workdir / "tampered.json").write_text(json.dumps(cert))
        capsys.readouterr()
        assert run(["verify", "tampered.json"]) == 2, value
        assert run(["verify", "tampered.json", "--in", infile]) == 2, value
        err = capsys.readouterr().err.splitlines()
        assert err and all(line.startswith("verify: ") for line in err)


@pytest.mark.parametrize(
    "argv, infile, path",
    [
        (["simulate", "reduce"], "octahedron_matrix.json", ("matrix", 0, 0)),
        (["simulate", "quantum"], "depolarizing_qubit.json", ("states", 0, 0, 0, 0)),
        (["certify", "asymmetry"], "octahedron_polytope.json", ("facets", 0, "offset")),
    ],
)
def test_a_boolean_in_an_input_file_is_an_input_error(workdir, capsys, argv, infile, path):
    run(["fixtures", "emit", "--dir", "."])
    payload = json.loads((workdir / infile).read_text())
    _tamper(payload, path, True)
    (workdir / "bad.json").write_text(json.dumps(payload))
    capsys.readouterr()
    assert run(argv + ["--in", "bad.json", "--out", "cert.json"]) == 1
    assert "a boolean where a number belongs" in capsys.readouterr().err
    assert not (workdir / "cert.json").exists()


@pytest.mark.parametrize("null", [False, True], ids=["string", "null"])
@pytest.mark.parametrize(
    "argv, infile, path",
    [
        (["simulate", "quantum"], "depolarizing_qubit.json", ("states", 0, 0, 0, 0)),
        (["simulate", "ball", "--delta", "1/3"], "ball.json", ("ball_states", 0, 0)),
        (["certify", "storability"], "octahedron_matrix.json", ("matrix", 0, 0)),
    ],
)
def test_a_string_or_null_in_an_input_file_is_an_input_error(
    workdir, capsys, argv, infile, path, null
):
    # numpy read "0.5" as 0.5 and null as NaN: a storability matrix with the
    # entry "0.5" exited 0, with the value of the matrix that has 0.5 there
    run(["fixtures", "emit", "--dir", "."])
    (workdir / "ball.json").write_text(json.dumps(PINNED_BALL))
    payload = json.loads((workdir / infile).read_text())
    number = functools.reduce(operator.getitem, path, payload)
    _tamper(payload, path, None if null else str(number))
    (workdir / "bad.json").write_text(json.dumps(payload))
    capsys.readouterr()
    assert run(argv + ["--in", "bad.json", "--out", "cert.json"]) == 1
    assert capsys.readouterr().err.splitlines() == [
        f"chansim: TypeError: bad.json: {'null' if null else 'a string'} where a number belongs"
    ]
    assert not (workdir / "cert.json").exists()


# sha256 of the certificate text of each command that
# test_verify_rejects_every_single_leaf_tamper checks, as written before the
# mixture moved to arrays: certificates must stay byte-identical. The three
# quantum simulations with mixed POVMs were re-pinned when the class totals
# moved to rank-1 lattices: their floats moved by at most 5e-16, and one
# six-outcome term sends a state that carries no mass to another output.
# The two noiseless ones with mixed POVMs were re-pinned when that
# simulation moved to one candidate per output support: weights and states
# moved in the last bits, and the six-outcome mixture keeps other terms.
PINNED_CERTIFICATE_DIGESTS = [
    (["simulate", "quantum", "--noise", "delta:1/2"], "depolarizing_qubit.json",
     "35431fc46b25f65fdb14992d1bdd7e74cbc6a5f57a9c6ef74bd466705762dc74"),
    (["simulate", "quantum"], "depolarizing_qubit.json",
     "048b2ae383089391aac738cc907efb8f8589190c9245c07d9b5dcdfbec986a55"),
    (["simulate", "quantum"], "projective.json",
     "4c8a7246fe20234a3ad1aea6884be337b692bb0c48efb737e8037aa58285607c"),
    (["certify", "pairwise", "--d", "2"], "octahedron_matrix.json",
     "5bce77fa6c453a25fb8645ebc64500db8331e92c1524da6a7c341add05f60795"),
    (["certify", "subset", "--r", "3", "--d", "2"], "octahedron_matrix.json",
     "fd947add246f0f717971ee14a5a60c040020f890ff5f7c0988bf44a05d668865"),
    (["certify", "asymmetry"], "octahedron_polytope.json",
     "8eb8fedc0e48bfaee9d672f8765d89af72a75a74bfe35eca003c6e1c4c05331b"),
    (["certify", "signalling", "--n", "5", "--delta", "1/2"], None,
     "393624f935eb5c6e6350f9fb0cd832a7a791d897664e1494753eee7d8e89eb36"),
    (["simulate", "reduce", "--p", "[0.25, 0.25, 0.25, 0.25]"], "octahedron_matrix.json",
     "55c40a4d7bcf4d3b07bbb19c29892670729df30baf35d8b599efc9876fe637ad"),
    (["certify", "storability"], "octahedron_matrix.json",
     "5804e3db3e89a8988cbb77af0390b2afe7d2dcb4d0bd6b1440de2ff0a6d3d212"),
    (["certify", "holevo"], "ensemble.json",
     "8b19e9d2f4454c8979860a49109f894b4919c766908bd51faf3aeee7822b0b7e"),
    (["simulate", "ball", "--delta", "1/3"], "ball.json",
     "aa8659adfbea359801dd52248b12e25bba980aae2701bcaab8ac201931f1b52e"),
    # 21 supports of at most 2 of the 6 outputs
    (["simulate", "quantum"], "six_outcome_qubit.json",
     "ee85643cd938ae1ab7a9ab76a559d14a31271ac4ddd8bbd496b2952985b0c4fc"),
    (["simulate", "noisy-to-noiseless", "--noise", "delta:1/2", "--d", "3"], "noisy_matrix.json",
     "6fbfb646abd3f48cba5b35dae0650626a03c1caf54668e6b5ba8a9effff986a0"),
    # the min-norm route, first pinned when it replaced the layered transport
    (["simulate", "quantum", "--noise", "permutohedron:[0.25, 0.75]"], "depolarizing_qubit.json",
     "2329ffe9e5ce656dc46c1295e31e151249029ae25d9baebfea3fe44040d5df8a"),
    (["simulate", "quantum", "--noise", "@percol.json"], "depolarizing_qubit.json",
     "a4e5f2e5ca293c3a2099616d88fbb809bb3c474a569f6f88082186635aed084c"),
]

# a permutohedron column and a delta column, each holding its fixture state
PINNED_PER_COLUMN = {
    "kind": "per_column",
    "specs": [{"kind": "permutohedron", "base": [0.25, 0.75]}, {"kind": "delta", "delta": "1/2"}],
}

# jsonio.digest of the list of every input payload (None for a command
# without one) of each benchmark workload at seed 1, as written before the
# canonical writer moved to one float pass: input digests must stay as they are
PINNED_BENCH_INPUT_DIGESTS = {
    "noisy_quantum": "31f9183ca25d8e8d3587b42aa8e701bc3f97002142142b152eb449d0aec84391",
    "noiseless_quantum": "70d9b1d58f47abdca7c9b129314d2ea2cd1e4aab40cbdffe3554cc5da851b482",
    "gpt_channels": "686fd58ac729ca326f899f3ee08fe1c07c2b9c540305de569cb046fc9d10364d",
}


@pytest.mark.parametrize("workload", sorted(PINNED_BENCH_INPUT_DIGESTS))
def test_bench_inputs_match_pinned_digests(bench_workloads, workload):
    payloads = [inst.payload for inst in bench_workloads.generate(workload, 1)]
    assert jsonio.digest(payloads) == PINNED_BENCH_INPUT_DIGESTS[workload]


# a norm-index-4 partition of unity on the plane; its vectors cancel exactly
PINNED_BALL = {
    "norm_index": 4,
    "effects": [
        {"c": 0.25, "v": [0.2, 0.05]},
        {"c": 0.25, "v": [-0.2, -0.05]},
        {"c": 0.3, "v": [0.03, 0.18]},
        {"c": 0.2, "v": [-0.03, -0.18]},
    ],
    "ball_states": [[0.5, 0.3], [-0.2, 0.6], [0.0, -0.7]],
}

# 1/10 + S/2 for a column-stochastic S: every column is 1/2-noisy on 5 states
PINNED_NOISY_MATRIX = [
    [0.3, 0.1, 0.2],
    [0.25, 0.35, 0.2],
    [0.2, 0.1, 0.2],
    [0.15, 0.35, 0.2],
    [0.1, 0.1, 0.2],
]


# a noisy-to-noiseless input: the decoder [0, 1] on two 1/2-noisy states
PROTOCOL_INPUT = {"decoder": [0, 1], "states": [[0.75, 0.25], [0.25, 0.75]], "num_outputs": 2}


@pytest.mark.parametrize(
    "argv, payload, message",
    [
        (["simulate", "noisy-to-noiseless", "--noise", "delta:1/2", "--d", "2"],
         {"protocol": {**PROTOCOL_INPUT, "decoder": [0.5, 1]}},
         "decoder entry is not an integer: 0.5"),
        (["simulate", "noisy-to-noiseless", "--noise", "delta:1/2", "--d", "2"],
         {"protocol": {**PROTOCOL_INPUT, "num_outputs": 2.5}},
         "num_outputs is not an integer: 2.5"),
        (["simulate", "ball", "--delta", "1/3"], {**PINNED_BALL, "norm_index": 4.5},
         "norm_index is not an integer: 4.5"),
    ],
    ids=["decoder", "num_outputs", "norm_index"],
)
def test_a_float_where_an_integer_belongs_is_an_input_error(
    workdir, capsys, argv, payload, message
):
    # each was truncated to the integer below it and certified
    (workdir / "in.json").write_text(json.dumps(payload))
    capsys.readouterr()
    assert run(argv + ["--in", "in.json", "--out", "cert.json"]) == 1
    assert capsys.readouterr().err == f"chansim: ValueError: {message}\n"
    assert not (workdir / "cert.json").exists()


def test_certificates_match_pinned_digests(workdir, capsys):
    import hashlib

    run(["fixtures", "emit", "--dir", "."])
    ensemble = json.loads((workdir / "depolarizing_qubit.json").read_text())
    ensemble["weights"] = [0.5, 0.5]
    (workdir / "ensemble.json").write_text(json.dumps(ensemble))
    basis = [np.diag([1.0, 0.0]), np.diag([0.0, 1.0])]
    projective = jsonio.quantum_instance_to_json(basis, [basis[0], np.eye(2) / 2])
    (workdir / "projective.json").write_text(json.dumps(projective))
    rays = [np.array([np.cos(t), np.sin(t)]) for t in np.pi * np.arange(6) / 6]
    six = jsonio.quantum_instance_to_json(
        [np.outer(r, r) / 3 for r in rays], [np.diag([0.75, 0.25]), np.eye(2) / 2]
    )
    (workdir / "six_outcome_qubit.json").write_text(json.dumps(six))
    (workdir / "ball.json").write_text(json.dumps(PINNED_BALL))
    (workdir / "noisy_matrix.json").write_text(json.dumps({"matrix": PINNED_NOISY_MATRIX}))
    (workdir / "percol.json").write_text(json.dumps(PINNED_PER_COLUMN))
    changed = []
    for argv, infile, expected in PINNED_CERTIFICATE_DIGESTS:
        in_args = ["--in", infile] if infile else []
        run(argv + in_args + ["--out", "cert.json"])
        if hashlib.sha256((workdir / "cert.json").read_bytes()).hexdigest() != expected:
            changed.append(argv)
    capsys.readouterr()
    assert changed == []


@pytest.mark.parametrize("cut", [3, 1])
def test_complex_entry_that_is_not_a_pair_is_an_input_error(workdir, capsys, cut):
    # [re, im, 5] used to be read as re + im j, and [re] to raise IndexError
    run(["fixtures", "emit", "--dir", "."])
    payload = json.loads((workdir / "depolarizing_qubit.json").read_text())
    payload["states"][0][0][0] = (payload["states"][0][0][0] + [5.0])[:cut]
    (workdir / "bad.json").write_text(json.dumps(payload))
    capsys.readouterr()
    assert run(["simulate", "quantum", "--in", "bad.json", "--out", "cert.json"]) == 1
    assert "DimensionMismatch" in capsys.readouterr().err
    assert not (workdir / "cert.json").exists()


@pytest.mark.parametrize("change", ["extra_state", "extra_column", "num_outputs"])
def test_verify_rejects_protocols_of_different_shapes(workdir, capsys, change):
    # no command writes such a certificate; verify must reject it, not crash
    run(["fixtures", "emit", "--dir", "."])
    run(["simulate", "quantum", "--in", "depolarizing_qubit.json", "--out", "cert.json"])
    capsys.readouterr()
    cert = json.loads((workdir / "cert.json").read_text())
    terms = cert["result"]["mixture"]["terms"]
    assert len(terms) >= 2
    protocol = terms[-1]["protocol"]
    if change == "extra_state":
        # still a valid protocol on 3 states with the same matrix
        protocol["decoder"].append(0)
        protocol["states"].append([0.0] * len(protocol["states"][0]))
        cert["result"]["mixture"]["num_states"] = 3
    elif change == "extra_column":
        for row in protocol["states"]:
            row.append(row[0])
    else:
        protocol["num_outputs"] += 1
    (workdir / "odd.json").write_text(json.dumps(cert))
    assert run(["verify", "odd.json"]) == 2
    assert "mixture invalid" in capsys.readouterr().err


def test_verify_rejects_row_reduction_terms_of_another_shape(workdir, capsys):
    cert = _reduce_certificate(workdir)
    for row in cert["result"]["terms"][0]["matrix"]:
        row.append(row[0])
    (workdir / "wide.json").write_text(json.dumps(cert))
    capsys.readouterr()
    assert run(["verify", "wide.json"]) == 2
    assert "terms invalid" in capsys.readouterr().err


def test_verify_rejects_row_reduction_weights_that_are_not_finite(workdir, capsys):
    # NaN weights compare false against every tolerance, so they must be
    # refused when read; JSON null and the string "nan" both parse to NaN
    for bad in (None, "nan"):
        cert = _reduce_certificate(workdir)
        for term in cert["result"]["terms"]:
            term["weight"] = bad
        (workdir / "nan_weights.json").write_text(json.dumps(cert))
        capsys.readouterr()
        assert run(["verify", "nan_weights.json"]) == 2
        assert "terms invalid" in capsys.readouterr().err
        assert run(["verify", "nan_weights.json", "--in", "octahedron_matrix.json"]) == 2


def test_verify_rejects_nested_per_column_noise(workdir, capsys):
    run(["fixtures", "emit", "--dir", "."])
    run(["simulate", "quantum", "--in", "depolarizing_qubit.json",
         "--noise", "delta:1/2", "--out", "cert.json"])
    cert = json.loads((workdir / "cert.json").read_text())
    inner = {"kind": "per_column", "specs": [{"kind": "noiseless"}] * 2}
    cert["result"]["mixture"]["noise"] = {"kind": "per_column", "specs": [inner] * 2}
    (workdir / "nested.json").write_text(json.dumps(cert))
    capsys.readouterr()
    assert run(["verify", "nested.json"]) == 2
    assert "do not nest" in capsys.readouterr().err


def test_simulate_quantum_rejects_too_few_per_column_specs(workdir, capsys):
    run(["fixtures", "emit", "--dir", "."])
    (workdir / "one.json").write_text(
        json.dumps({"kind": "per_column", "specs": [{"kind": "delta", "delta": "1/2"}]})
    )
    capsys.readouterr()
    argv = ["simulate", "quantum", "--in", "depolarizing_qubit.json", "--noise", "@one.json"]
    assert run(argv + ["--json-errors"]) == 1
    error = json.loads(capsys.readouterr().err)["error"]
    assert error == {"type": "DimensionMismatch", "message": "1 column specs for 2 columns"}


def _two_column_noisy_to_noiseless_certificate(workdir):
    n, delta = 4, 0.5
    matrix = np.full((n, 2), delta / n)
    matrix[[0, 1], [0, 1]] = 1 - (n - 1) * delta / n
    (workdir / "target.json").write_text(json.dumps({"matrix": matrix.tolist()}))
    assert run([
        "simulate", "noisy-to-noiseless", "--in", "target.json",
        "--noise", "delta:1/2", "--d", "3", "--out", "cert.json",
    ]) == 0
    return json.loads((workdir / "cert.json").read_text())


def test_verify_rejects_more_per_column_specs_than_columns(workdir, capsys):
    cert = _two_column_noisy_to_noiseless_certificate(workdir)
    cert["result"]["mixture"]["noise"] = {"kind": "per_column", "specs": [{"kind": "noiseless"}] * 3}
    (workdir / "three.json").write_text(json.dumps(cert))
    capsys.readouterr()
    assert run(["verify", "three.json"]) == 2
    assert "mixture invalid: 3 column specs for 2 columns" in capsys.readouterr().err


def test_noisy_to_noiseless_rejects_per_column_noise(workdir, capsys):
    _two_column_noisy_to_noiseless_certificate(workdir)
    per_column = {"kind": "per_column", "specs": [{"kind": "delta", "delta": "1/2"}] * 2}
    (workdir / "percol.json").write_text(json.dumps(per_column))
    capsys.readouterr()
    assert run([
        "simulate", "noisy-to-noiseless", "--in", "target.json",
        "--noise", "@percol.json", "--d", "3", "--out", "percol_cert.json",
    ]) == 1
    assert capsys.readouterr().err.startswith("chansim: PerColumnNoise: ")
    assert not (workdir / "percol_cert.json").exists()


def test_simulate_quantum_rejects_non_finite_permutohedron_base(workdir, capsys):
    run(["fixtures", "emit", "--dir", "."])
    capsys.readouterr()
    argv = ["simulate", "quantum", "--in", "depolarizing_qubit.json"]
    assert run(argv + ["--noise", "permutohedron:[NaN, 0.5]"]) == 1
    assert capsys.readouterr().err.startswith("chansim: NotFinite: ")


@pytest.mark.parametrize("change", ["value_not_a_number", "bound_missing"])
@pytest.mark.parametrize("with_input", [False, True])
def test_verify_rejects_witness_fields_that_do_not_parse(workdir, capsys, change, with_input):
    run(["fixtures", "emit", "--dir", "."])
    run(["certify", "pairwise", "--in", "octahedron_matrix.json", "--d", "2",
         "--out", "pairwise.json"])
    cert = json.loads((workdir / "pairwise.json").read_text())
    if change == "value_not_a_number":
        cert["result"]["value"] = "x"
    else:
        del cert["result"]["bound"]
    (workdir / "tampered.json").write_text(json.dumps(cert))
    capsys.readouterr()
    argv = ["verify", "tampered.json"]
    assert run(argv + ["--in", "octahedron_matrix.json"] * with_input) == 2
    assert "verify: witness fields invalid" in capsys.readouterr().err


@pytest.mark.parametrize("bad", ["1/0", "x"])
@pytest.mark.parametrize(
    "argv",
    [
        ["certify", "signalling", "--n", "3", "--delta", "{}"],
        ["simulate", "ball", "--in", "ball.json", "--delta", "{}"],
        ["simulate", "quantum", "--in", "depolarizing_qubit.json", "--noise", "delta:{}"],
    ],
)
def test_rational_that_does_not_parse_is_an_input_error(workdir, capsys, argv, bad):
    # a zero denominator used to end in an uncaught ZeroDivisionError
    run(["fixtures", "emit", "--dir", "."])
    (workdir / "ball.json").write_text(json.dumps(PINNED_BALL))
    capsys.readouterr()
    assert run([a.format(bad) for a in argv] + ["--out", "cert.json"]) == 1
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("chansim: ValueError")
    assert not (workdir / "cert.json").exists()


@pytest.mark.parametrize("bad", ["1/0", "x", None, [1, 2], {"a": 1}])
def test_verify_rejects_signalling_delta_that_does_not_parse(workdir, capsys, bad):
    run(["certify", "signalling", "--n", "5", "--delta", "1/2", "--out", "sig.json"])
    cert = json.loads((workdir / "sig.json").read_text())
    cert["result"]["delta"] = bad
    (workdir / "tampered.json").write_text(json.dumps(cert))
    capsys.readouterr()
    assert run(["verify", "tampered.json"]) == 2
    assert "verify: signalling_dimension fields invalid" in capsys.readouterr().err


@pytest.mark.parametrize("bad", ["1/0", "x", None, [1, 2], {"a": 1}])
def test_verify_rejects_ball_noise_delta_that_does_not_parse(workdir, capsys, bad):
    (workdir / "ball.json").write_text(json.dumps(PINNED_BALL))
    run(["simulate", "ball", "--in", "ball.json", "--delta", "1/3", "--out", "cert.json"])
    cert = json.loads((workdir / "cert.json").read_text())
    cert["result"]["mixture"]["noise"]["delta"] = bad
    (workdir / "tampered.json").write_text(json.dumps(cert))
    capsys.readouterr()
    assert run(["verify", "tampered.json", "--in", "ball.json"]) == 2
    err = capsys.readouterr().err
    assert "verify: mixture invalid" in err and "verify: noise delta invalid" in err


@pytest.mark.parametrize("json_errors", [False, True])
@pytest.mark.parametrize(
    "argv, payload",
    [
        (["simulate", "quantum"], {"povm": [], "states": []}),
        (["certify", "storability"], {"matrices": 5}),
        (["simulate", "reduce"], [[0.5, 0.5], [0.5, 0.5]]),
        (["certify", "asymmetry"], [[1.0, 0.0], [-1.0, 0.0]]),
        (["simulate", "quantum"], [[1.0]]),
        # reported "real matrix has a non-finite entry"
        (["certify", "storability"], {}),
        # an integer too large for a float ended in an OverflowError traceback
        (["certify", "storability"], {"matrix": [[10**400], [0.0]]}),
        # a field of the wrong type reported a TypeError without the file
        (["simulate", "noisy-to-noiseless", "--noise", "delta:1/2", "--d", "2"], {"protocol": 5}),
        (["certify", "holevo"], {"states": 5, "weights": [1.0]}),
    ],
)
def test_malformed_input_file_is_an_input_error(workdir, capsys, argv, payload, json_errors):
    # each of these ended in an uncaught error that ignored --json-errors
    (workdir / "in.json").write_text(json.dumps(payload))
    flags = ["--json-errors"] * json_errors
    assert run(argv + ["--in", "in.json", "--out", "cert.json", *flags]) == 1
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1
    if json_errors:
        error = json.loads(err[0])["error"]
        kind, message = error["type"], error["message"]
    else:
        assert err[0].startswith("chansim: ")
        kind, message = err[0][len("chansim: "):].split(": ", 1)
    if payload == {}:
        assert (kind, message) == ("KeyError", "'matrix'")
    elif "matrix" in payload:
        assert kind == "OverflowError"
    else:
        assert kind == "TypeError"
    if isinstance(payload, list):
        assert message == "in.json: the input is not a JSON object"
    elif kind == "TypeError":
        assert message.startswith("in.json: ")
    assert not (workdir / "cert.json").exists()


@pytest.mark.parametrize(
    "argv",
    [
        ["simulate", "reduce", "--in", "octahedron_matrix.json", "--p", '{"a": 1}'],
        ["simulate", "noisy-to-noiseless", "--in", "octahedron_matrix.json",
         "--noise", "permutohedron:5", "--d", "2"],
        # booleans, which the input file's arrays reject, were read as 1 and 0
        ["simulate", "reduce", "--in", "octahedron_matrix.json",
         "--p", "[true, false, false, false]"],
        ["simulate", "noisy-to-noiseless", "--in", "octahedron_matrix.json",
         "--noise", "permutohedron:[true, false, false, false]", "--d", "2"],
        ["certify", "replacer", "--m", "2", "--delta", "1/2", "--spectrum", "[true, false]"],
        # so were strings of numbers
        ["simulate", "reduce", "--in", "octahedron_matrix.json", "--p", '["0.5"]'],
        ["certify", "replacer", "--m", "2", "--delta", "1/2", "--spectrum", '["0.5"]'],
    ],
)
def test_option_of_the_wrong_type_is_not_blamed_on_the_input_file(workdir, capsys, argv):
    run(["fixtures", "emit", "--dir", "."])
    assert run(argv + ["--out", "cert.json"]) == 1
    err = capsys.readouterr().err
    assert err.startswith("chansim: ValueError: option value ")
    assert "octahedron_matrix.json" not in err
    assert not (workdir / "cert.json").exists()


def test_noisy_to_noiseless_past_the_class_cap_fails_fast(workdir, capsys):
    # 24 states with distinct outputs: every one of the C(24, 12) = 2,704,156
    # subsets of d = 12 is its own class; enumerating them took about 30 s
    # and 4.4 GB before the cap was checked
    import time

    from chansim.errors import EnumerationCapExceeded
    from chansim.simulate import simulate_noisy_by_noiseless

    rng = np.random.default_rng(24)
    matrix = 0.6 / 24 + 0.4 * rng.dirichlet(np.ones(24), size=3).T
    start = time.perf_counter()
    with pytest.raises(EnumerationCapExceeded):
        simulate_noisy_by_noiseless(Delta(0.6), matrix, 12)
    (workdir / "in.json").write_text(json.dumps({"matrix": matrix.tolist()}))
    argv = ["simulate", "noisy-to-noiseless", "--in", "in.json", "--noise", "delta:3/5"]
    assert run(argv + ["--d", "12", "--out", "cert.json"]) == 1
    assert time.perf_counter() - start < 5.0
    assert capsys.readouterr().err.startswith("chansim: EnumerationCapExceeded: 2704156 ")
    assert not (workdir / "cert.json").exists()


@pytest.mark.parametrize("bad", ["NaN", "Infinity"])
def test_reduce_rejects_non_finite_weights(workdir, capsys, bad):
    # NaN passed every comparison of the probability check, and a certificate
    # for the remaining weights was written and verified
    run(["fixtures", "emit", "--dir", "."])
    capsys.readouterr()
    argv = ["simulate", "reduce", "--in", "octahedron_matrix.json", "--out", "cert.json"]
    assert run(argv + ["--p", f"[{bad}, 0.5, 0.5, 0.0]"]) == 1
    assert capsys.readouterr().err.startswith("chansim: NotFinite: ")
    assert not (workdir / "cert.json").exists()


@pytest.mark.parametrize(
    "spectrum, error",
    [
        ("[1.0]", "DimensionMismatch"),
        ("[NaN, NaN, NaN]", "NotFinite"),
        ("[0.5, 0.5]", "DimensionMismatch"),
        ("[0.5, 0.25, 0.5]", "NotStochastic"),
    ],
)
def test_replacer_spectrum_is_checked(workdir, capsys, spectrum, error):
    # a short spectrum ended in an IndexError, and NaN reached the JSON writer
    argv = ["certify", "replacer", "--m", "3", "--n", "3", "--delta", "1/2"]
    assert run(argv + ["--spectrum", spectrum]) == 1
    assert capsys.readouterr().err.startswith(f"chansim: {error}: ")


def test_replacer_certificate_with_a_boolean_spectrum_fails_verify(workdir, capsys):
    # the rerun read [true, false] as the spectrum (1, 0), so the edited
    # certificate verified
    argv = ["certify", "replacer", "--m", "2", "--delta", "1/2", "--spectrum", "[0.25, 0.75]"]
    assert run(argv + ["--out", "cert.json"]) == 0
    cert = json.loads((workdir / "cert.json").read_text())
    cert["result"]["spectrum"] = [True, False]
    (workdir / "cert.json").write_text(json.dumps(cert))
    capsys.readouterr()
    assert run(["verify", "cert.json"]) == 2
    assert "a boolean where a number belongs" in capsys.readouterr().err


def test_infinite_facet_normal_is_one_input_error_line(workdir):
    # a JSON Infinity in a normal printed two numpy RuntimeWarnings before
    # the simplex's own "constraint entries must be finite"
    polytope = {
        "vertices": [[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]],
        "facets": [
            {"normal": [-1.0, 0.0], "offset": 0.0},
            {"normal": [0.0, float("inf")], "offset": 0.0},
            {"normal": [1.0, 1.0], "offset": 1.0},
        ],
    }
    (workdir / "poly.json").write_text(json.dumps(polytope))
    assert "Infinity" in (workdir / "poly.json").read_text()
    package_root = str(Path(chansim.__file__).resolve().parent.parent)
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (package_root, env.get("PYTHONPATH")) if p)
    proc = subprocess.run(
        [sys.executable, "-m", "chansim", "certify", "asymmetry", "--in", "poly.json"],
        capture_output=True, text=True, env=env, timeout=60,
    )
    assert proc.returncode == 1 and proc.stdout == ""
    assert proc.stderr.splitlines() == [
        "chansim: NotFinite: polytope facet normals has a non-finite entry"
    ]


def test_permutohedron_base_that_is_a_number_is_a_typed_error(workdir, capsys):
    # numpy's IndexError ("too many indices for array") was the message
    with pytest.raises(NotAList, match="must be a list"):
        jsonio.noise_from_json({"kind": "permutohedron", "base": 5})
    run(["fixtures", "emit", "--dir", "."])
    capsys.readouterr()
    argv = ["simulate", "noisy-to-noiseless", "--in", "octahedron_matrix.json", "--d", "2"]
    assert run(argv + ["--noise", "permutohedron:5"]) == 1
    assert capsys.readouterr().err == (
        "chansim: ValueError: option value 'permutohedron:5': "
        "permutohedron base must be a list of numbers, not a number\n"
    )
