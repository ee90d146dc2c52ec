import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import chansim
from chansim import jsonio
from chansim.cli import main, parse_noise
from chansim.channels import Delta, Noiseless, Permutohedron


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
    # --tol on the simulate rows, --cap where an outcome distribution is
    # built, --json-errors everywhere, --out on simulate and certify
    from chansim.cli import COMMANDS

    for group, name, _, _, _ in COMMANDS:
        with pytest.raises(SystemExit):
            run([group, "--help"] if name is None else [group, name, "--help"])
        usage = capsys.readouterr().out
        flags = set(usage.replace("[", " ").replace("]", " ").split())
        assert "--json-errors" in flags
        assert ("--tol" in flags) == (group == "simulate")
        assert ("--cap" in flags) == (name in ("quantum", "ball"))
        assert ("--out" in flags) == (group in ("simulate", "certify"))

    run(["certify", "signalling", "--n", "5", "--delta", "1/2", "--out", "c.json"])
    for argv in (
        ["certify", "signalling", "--n", "5", "--delta", "1/2", "--tol", "7", "--cap", "0"],
        ["verify", "c.json", "--tol", "0.5"],
        ["fixtures", "emit", "--cap", "0"],
        ["simulate", "reduce", "--in", "m.json", "--cap", "3"],
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
    assert "witness differs from a rerun" in capsys.readouterr().err


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
    assert "signalling dimension is 3, not 1" in capsys.readouterr().err


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


def test_verify_rejects_every_single_leaf_tamper(workdir, capsys):
    # binomial_witness and replacer_bounds are left out: their certificates
    # carry too little (no d, no noise spec; no m, no delta) to recompute
    run(["fixtures", "emit", "--dir", "."])
    ensemble = json.loads((workdir / "depolarizing_qubit.json").read_text())
    ensemble["weights"] = [0.5, 0.5]
    (workdir / "ensemble.json").write_text(json.dumps(ensemble))
    # a projective measurement: its noiseless certificate has a single term
    basis = [np.diag([1.0, 0.0]), np.diag([0.0, 1.0])]
    projective = jsonio.quantum_instance_to_json(basis, [basis[0], np.eye(2) / 2])
    (workdir / "projective.json").write_text(json.dumps(projective))
    commands = [
        (["simulate", "quantum", "--noise", "delta:1/2"], "depolarizing_qubit.json"),
        (["simulate", "quantum"], "depolarizing_qubit.json"),
        (["simulate", "quantum"], "projective.json"),
        (["certify", "pairwise", "--d", "2"], "octahedron_matrix.json"),
        (["certify", "subset", "--r", "3", "--d", "2"], "octahedron_matrix.json"),
        (["certify", "asymmetry"], "octahedron_polytope.json"),
        (["certify", "signalling", "--n", "5", "--delta", "1/2"], None),
        (["simulate", "reduce", "--p", "[0.25, 0.25, 0.25, 0.25]"], "octahedron_matrix.json"),
        (["certify", "storability"], "octahedron_matrix.json"),
        (["certify", "holevo"], "ensemble.json"),
    ]
    accepted = []
    for argv, infile in commands:
        in_args = ["--in", infile] if infile else []
        run(argv + in_args + ["--out", "cert.json"])
        cert = json.loads((workdir / "cert.json").read_text())
        assert run(["verify", "cert.json", *in_args]) == 0
        paths = list(_numeric_leaves(cert["result"]))
        assert paths
        for path in paths:
            tampered = json.loads((workdir / "cert.json").read_text())
            node = tampered["result"]
            for key in path[:-1]:
                node = node[key]
            node[path[-1]] += 1 if isinstance(node[path[-1]], int) else 0.25
            (workdir / "tampered.json").write_text(json.dumps(tampered))
            if run(["verify", "tampered.json", *in_args]) != 2:
                accepted.append((argv[1], path))
    capsys.readouterr()
    assert accepted == []


# sha256 of the certificate text of each command that
# test_verify_rejects_every_single_leaf_tamper checks, as written before the
# mixture moved to arrays: certificates must stay byte-identical
PINNED_CERTIFICATE_DIGESTS = [
    (["simulate", "quantum", "--noise", "delta:1/2"], "depolarizing_qubit.json",
     "ddb44f9daf30f47947a4828567d33cee4afa14d27f5bb4ca46086824b9fb372e"),
    (["simulate", "quantum"], "depolarizing_qubit.json",
     "a1f645fe1477be12fe3471eb864cebbf5dc8859e3c5ca6459e31e7f7de5f4ed1"),
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
     "61322182b6021ae3cb3190df62049914498b6fae8f6a19e2ecb42430c6bb3e46"),
    # (n+1)^(k-1) = 243 > C(7, 2) 2^2 = 84: the per-class route
    (["simulate", "quantum"], "six_outcome_qubit.json",
     "058cf17deac23d6531c3cc271ec31496466b78f4329d324c66e9e1e82ac18e52"),
    (["simulate", "noisy-to-noiseless", "--noise", "delta:1/2", "--d", "3"], "noisy_matrix.json",
     "964c5d5059b7245dba7ba2f97b5a8a047260092f88b405ed23912b03da285e00"),
]

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
