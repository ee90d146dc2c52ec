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
    forged = json.loads((workdir / "cert.json").read_text())
    result = forged["result"]
    terms = result["mixture"]["terms"]
    terms[0]["weight"] -= 0.05
    terms[1]["weight"] += 0.05
    recon = mixture_matrix(jsonio.mixture_from_json(result["mixture"])).matrix
    result["residual"] = float(np.max(np.abs(recon - np.array(result["target"]))))
    assert result["residual"] > 1e-2
    forged["tolerances"]["residual"] = 1.0
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
