"""Seeded instance batches for the three benchmark workloads.

Every instance is generated here with the benchmark's own numpy code and
handed to the program only as a JSON input file. Each instance carries the
certify command to run and an ``expect`` record that the checker compares
the certificate against; the expected values are computed here, apart from
the program (Born probabilities, ball pairings, prefix-sum verdicts with
``math.comb`` and ``Fraction``, closed-form asymmetries).
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

WORKLOADS = ("noisy_quantum", "noiseless_quantum", "gpt_channels")

OCTAHEDRON_MATRIX = (
    (0.5, 0.0, 0.5, 0.0, 0.5, 0.0),
    (0.5, 0.0, 0.0, 0.5, 0.0, 0.5),
    (0.0, 0.5, 0.5, 0.0, 0.0, 0.5),
    (0.0, 0.5, 0.0, 0.5, 0.5, 0.0),
)


@dataclass
class Instance:
    """One operation: a certify command on one input file, its expected
    outcome, and whether it is the workload's largest instance."""

    name: str
    args: list[str]
    payload: dict | None
    expect: dict
    largest: bool = False

    def certify_argv(self, in_path: str | None, out_path: str) -> list[str]:
        argv = list(self.args)
        if in_path is not None:
            argv += ["--in", in_path]
        return argv + ["--out", out_path]


def input_text(payload: dict) -> str:
    """The bytes written for an input file (sorted keys, repr floats)."""
    return json.dumps(payload, sort_keys=True, separators=(",", ":")) + "\n"


# -- random objects -------------------------------------------------------------


def _cmat(a: np.ndarray) -> list:
    return [[[float(z.real), float(z.imag)] for z in row] for row in a]


def _cmat_back(data) -> np.ndarray:
    return np.array([[complex(re, im) for re, im in row] for row in data], dtype=complex)


def _hermitize(a: np.ndarray) -> np.ndarray:
    return (a + a.conj().T) / 2


def _ginibre(rng: np.random.Generator, n: int) -> np.ndarray:
    return rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))


def _density(rng: np.random.Generator, n: int) -> np.ndarray:
    g = _ginibre(rng, n)
    rho = g @ g.conj().T
    return _hermitize(rho / np.trace(rho).real)


def _unitary(rng: np.random.Generator, n: int) -> np.ndarray:
    q, r = np.linalg.qr(_ginibre(rng, n))
    return q * (np.diagonal(r) / np.abs(np.diagonal(r)))


def _povm(rng: np.random.Generator, n: int, k: int) -> list[np.ndarray]:
    raws = []
    for _ in range(k):
        g = _ginibre(rng, n)
        raws.append(g @ g.conj().T)
    vals, vecs = np.linalg.eigh(sum(raws))
    inv_sqrt = vecs @ np.diag(vals**-0.5) @ vecs.conj().T
    return [_hermitize(inv_sqrt @ a @ inv_sqrt) for a in raws]


def _permutohedron_point(rng: np.random.Generator, base: np.ndarray) -> np.ndarray:
    w = rng.dirichlet(np.ones(4))
    return sum(w[t] * rng.permutation(base) for t in range(4))


def _base_vector(rng: np.random.Generator, n: int) -> np.ndarray:
    """A probability vector with a floor, so permutohedron states stay
    full-rank and the noise is not trivial."""
    return np.sort(0.5 / n + 0.5 * rng.dirichlet(np.full(n, 2.0)))


def _fmt_list(vec) -> str:
    return json.dumps([float(x) for x in vec])


# -- quantum instances ----------------------------------------------------------


def _quantum_instance(rng, n: int, k: int, l: int, noise: str) -> Instance:
    """A POVM of k outcomes in dimension n and l states inside the noise
    set: ``noiseless``, ``delta:p/q`` or ``permutohedron`` (random base)."""
    povm = _povm(rng, n, k)
    if noise == "noiseless":
        states = [_density(rng, n) for _ in range(l)]
        spec = "noiseless"
        expect_noise = {"kind": "noiseless"}
    elif noise.startswith("delta:"):
        delta = Fraction(noise[len("delta:"):])
        states = [
            _hermitize((1 - float(delta)) * _density(rng, n) + float(delta) / n * np.eye(n))
            for _ in range(l)
        ]
        spec = noise
        expect_noise = {"kind": "delta", "delta": delta}
    else:
        base = _base_vector(rng, n)
        states = []
        for _ in range(l):
            u = _unitary(rng, n)
            states.append(_hermitize(u @ np.diag(_permutohedron_point(rng, base)) @ u.conj().T))
        spec = "permutohedron:" + _fmt_list(base)
        expect_noise = {"kind": "permutohedron", "base": [float(x) for x in base]}
    payload = {
        "povm": {"outcomes": [_cmat(e) for e in povm]},
        "states": [_cmat(s) for s in states],
    }
    # the target from the decoded file contents, as the program sees them
    e = np.stack([_cmat_back(m) for m in payload["povm"]["outcomes"]])
    r = np.stack([_cmat_back(m) for m in payload["states"]])
    target = np.einsum("aij,bji->ab", e, r).real
    label = noise.split(":")[0]
    return Instance(
        name=f"quantum_n{n}_k{k}_l{l}_{label}",
        args=["simulate", "quantum", "--noise", spec],
        payload=payload,
        expect={
            "type": "simulation",
            "target": target,
            "num_states": n,
            "noise": expect_noise,
            "exit": 0,
        },
    )


NOISY_GRID = (
    # (n, k, l, noise, copies): the slow sizes run as several seeded copies,
    # so that a sum over the batch does not hang on one random instance
    (2, 2, 3, "delta:1/3", 1),
    (2, 4, 3, "permutohedron", 1),
    (3, 3, 3, "delta:1/2", 1),
    (3, 4, 2, "permutohedron", 1),
    (4, 2, 3, "permutohedron", 1),
    (4, 3, 2, "delta:1/4", 1),
    (4, 4, 3, "delta:1/2", 3),
    (5, 3, 3, "delta:1/2", 2),
    (6, 3, 1, "delta:1/2", 2),
)
NOISY_LARGEST = (4, 4, 3)
# the forged-certificate operation, per workload: the certificate of the
# first instance is pointed at the input of the second, which has the same
# k and l but another n
FORGED = {"noisy_quantum": ("quantum_n2_k4_l3_permutohedron", "quantum_n4_k4_l3_delta_0")}

NOISELESS_GRID = ((5, 4, 3), (6, 3, 3), (6, 4, 3), (7, 3, 3), (8, 2, 3))
NOISELESS_LARGEST = (6, 4, 3)


def _rng(seed: int, workload: str, index: int) -> np.random.Generator:
    return np.random.default_rng([seed, WORKLOADS.index(workload), index])


def noisy_quantum(seed: int) -> list[Instance]:
    out = []
    for n, k, l, noise, copies in NOISY_GRID:
        for copy in range(copies):
            inst = _quantum_instance(_rng(seed, "noisy_quantum", len(out)), n, k, l, noise)
            if copies > 1:
                inst.name += f"_{copy}"
            inst.largest = (n, k, l) == NOISY_LARGEST
            out.append(inst)
    return out


def noiseless_quantum(seed: int) -> list[Instance]:
    out = []
    for idx, (n, k, l) in enumerate(NOISELESS_GRID):
        inst = _quantum_instance(_rng(seed, "noiseless_quantum", idx), n, k, l, "noiseless")
        inst.largest = (n, k, l) == NOISELESS_LARGEST
        out.append(inst)
    return out


# -- general probabilistic instances --------------------------------------------


def _ball_instance(rng, n: int, k: int, l: int, dim: int, delta: Fraction) -> Instance:
    """k effects (c_i, v_i) forming a partition of unity on the unit ball
    of the n/(n-1)-norm, and l states inside that ball."""
    vs = rng.normal(size=(k, dim))
    vs -= vs.mean(axis=0)
    norms = np.sum(np.abs(vs) ** n, axis=1) ** (1.0 / n)
    scale = rng.uniform(0.4, 0.8) / norms.sum()
    vs *= scale
    norms *= scale
    cs = norms + (1.0 - norms.sum()) * rng.dirichlet(np.ones(k))
    p = n / (n - 1)
    xs = []
    for _ in range(l):
        x = rng.normal(size=dim)
        xs.append(x * rng.uniform(0.2, 0.95) / np.sum(np.abs(x) ** p) ** (1.0 / p))
    payload = {
        "norm_index": n,
        "effects": [{"c": float(c), "v": [float(t) for t in v]} for c, v in zip(cs, vs)],
        "ball_states": [[float(t) for t in x] for x in xs],
    }
    c = np.array([e["c"] for e in payload["effects"]])
    v = np.array([e["v"] for e in payload["effects"]])
    x = np.array(payload["ball_states"])
    target = c[:, None] + (1.0 - float(delta)) * (v @ x.T)
    return Instance(
        name=f"ball_n{n}_k{k}_l{l}",
        args=["simulate", "ball", "--delta", f"{delta.numerator}/{delta.denominator}"],
        payload=payload,
        expect={
            "type": "simulation",
            "target": target,
            "num_states": n,
            "noise": {"kind": "delta", "delta": delta},
            "exit": 0,
        },
    )


def prefix_verdict(base, d: int) -> bool:
    """d-state simulability of the permutohedron of ``base``: its ascending
    prefix sums must reach C(r,d)/C(n,d) for r = d..n-1 (exact arithmetic)."""
    vec = sorted(Fraction(x) for x in base)
    n = len(vec)
    total = math.comb(n, d)
    prefix = Fraction(0)
    for r in range(1, n):
        prefix += vec[r - 1]
        if r >= d and prefix < Fraction(math.comb(r, d), total):
            return False
    return True


def _delta_base(n: int, delta: Fraction) -> list[Fraction]:
    return [delta / n] * (n - 1) + [1 - (n - 1) * delta / n]


def _noisy_to_noiseless_instance(
    rng, n: int, d: int, l: int, k: int, delta: Fraction | None
) -> Instance:
    """A protocol with n noisy states (delta floor, or a random permutohedron
    base when ``delta`` is None) and k outputs, to be simulated with d
    noiseless states."""
    if delta is not None:
        base = _delta_base(n, delta)
        cols = [float(delta) / n + (1 - float(delta)) * rng.dirichlet(np.ones(n)) for _ in range(l)]
        spec = f"delta:{delta.numerator}/{delta.denominator}"
    else:
        # a random mix of the uniform vector and the delta-extremal vector
        # at a delta above the d-state threshold stays d-simulable
        threshold = Fraction(n - d, n - 1)
        ext = np.array([float(x) for x in _delta_base(n, (threshold + 1) / 2)])
        t = rng.uniform(0.2, 0.8)
        base_f = np.sort(t * ext + (1 - t) / n)
        base = [float(x) for x in base_f]
        cols = [_permutohedron_point(rng, base_f) for _ in range(l)]
        spec = "permutohedron:" + _fmt_list(base)
    decoder = [int(i) for i in np.sort(rng.integers(0, k, size=n))]
    decoder[:k] = list(range(k))  # every output is used
    decoder.sort()
    states = np.array(cols).T
    payload = {
        "protocol": {
            "decoder": decoder,
            "states": [[float(t) for t in row] for row in states],
            "num_outputs": k,
        }
    }
    x = np.array(payload["protocol"]["states"])
    e = np.zeros((k, n))
    e[decoder, np.arange(n)] = 1.0
    simulable = prefix_verdict(base, d)
    label = "delta" if delta is not None else "permutohedron"
    if simulable:
        expect = {
            "type": "simulation",
            "target": e @ x,
            "num_states": d,
            "noise": {"kind": "noiseless"},
            "exit": 0,
        }
    else:
        expect = {"type": "binomial_witness", "base": base, "d": d, "exit": 2}
    return Instance(
        name=f"n2n_n{n}_d{d}_l{l}_{label}",
        args=["simulate", "noisy-to-noiseless", "--noise", spec, "--d", str(d)],
        payload=payload,
        expect=expect,
    )


def _reduce_instance(rng, k: int, l: int) -> Instance:
    """A k x l channel whose row slacks 1 - max_j a_ij sum past 1."""
    a = rng.dirichlet(np.full(k, 6.0), size=l).T
    payload = {"matrix": [[float(t) for t in row] for row in a]}
    return Instance(
        name=f"reduce_k{k}_l{l}",
        args=["simulate", "reduce"],
        payload=payload,
        expect={"type": "row_reduction", "target": np.array(payload["matrix"]), "exit": 0},
    )


def _octahedron(rng) -> np.ndarray:
    a = np.array(OCTAHEDRON_MATRIX)
    return a[rng.permutation(4)][:, rng.permutation(6)]


def _witness_instance(rng, kind: str) -> Instance:
    """The octahedron channel (rows and columns shuffled) against the
    pairwise bound at d=2 or the subset bound at r=d=2."""
    a = _octahedron(rng)
    payload = {"matrix": [[float(t) for t in row] for row in a]}
    k = a.shape[0]
    rows = range(k)
    if kind == "pairwise":
        d = 2
        value = sum(float((a[i] + a[j]).max()) for i in rows for j in rows if i < j)
        bound = math.comb(k, 2) - math.comb(k - d, 2)
        passed = value <= bound
        args = ["certify", "pairwise", "--d", str(d)]
    else:
        r = d = 2
        value = sum(float((a[i] + a[j]).min()) for i in rows for j in rows if i < j)
        bound = math.comb(k - d, k - r)
        passed = value >= bound
        args = ["certify", "subset", "--r", str(r), "--d", str(d)]
    return Instance(
        name=f"octahedron_{kind}",
        args=args,
        payload=payload,
        expect={
            "type": "witness",
            "kind": kind,
            "value": value,
            "bound": float(bound),
            "passed": passed,
            "exit": 0 if passed else 2,
        },
    )


def _affine(rng, dim: int) -> tuple[np.ndarray, np.ndarray]:
    """A well-conditioned invertible map and a shift; Minkowski asymmetry
    is invariant under both."""
    q = np.linalg.qr(rng.normal(size=(dim, dim)))[0]
    return q @ np.diag(rng.uniform(0.5, 2.0, size=dim)), rng.normal(scale=0.5, size=dim)


def _polytope_instance(rng, shape: str, dim: int) -> Instance:
    """A simplex (asymmetry dim), cube or cross-polytope (asymmetry 1) in
    closed form, moved by a random affine map."""
    if shape == "simplex":
        verts = np.vstack([np.zeros(dim), np.eye(dim)])
        normals = np.vstack([-np.eye(dim), np.ones((1, dim))])
        offsets = np.concatenate([np.zeros(dim), [1.0]])
        m = float(dim)
    elif shape == "cube":
        verts = np.array(
            [[1.0 if (t >> b) & 1 else -1.0 for b in range(dim)] for t in range(2**dim)]
        )
        normals = np.vstack([np.eye(dim), -np.eye(dim)])
        offsets = np.ones(2 * dim)
        m = 1.0
    else:
        verts = np.vstack([np.eye(dim), -np.eye(dim)])
        normals = np.array(
            [[1.0 if (t >> b) & 1 else -1.0 for b in range(dim)] for t in range(2**dim)]
        )
        offsets = np.ones(2**dim)
        m = 1.0
    lin, shift = _affine(rng, dim)
    verts = verts @ lin.T + shift
    inv_t = np.linalg.inv(lin).T
    normals = normals @ inv_t.T
    offsets = offsets + normals @ shift
    payload = {
        "vertices": [[float(t) for t in v] for v in verts],
        "facets": [
            {"normal": [float(t) for t in a], "offset": float(b)} for a, b in zip(normals, offsets)
        ],
    }
    return Instance(
        name=f"asymmetry_{shape}{dim}",
        args=["certify", "asymmetry"],
        payload=payload,
        expect={"type": "asymmetry", "m": m, "exit": 0},
    )


def _signalling_instance(rng, index: int) -> Instance:
    n = int(rng.integers(2, 13))
    q = int(rng.integers(2, 10))
    delta = Fraction(int(rng.integers(1, q)), q)
    value = math.ceil((1 - delta) * n + delta)
    return Instance(
        name=f"signalling_{index}",
        args=["certify", "signalling", "--n", str(n), "--delta", f"{delta.numerator}/{delta.denominator}"],
        payload=None,
        expect={"type": "signalling_dimension", "value": value, "exit": 0},
    )


def gpt_channels(seed: int) -> list[Instance]:
    def rng(i):
        return _rng(seed, "gpt_channels", i)

    half = Fraction(1, 2)
    largest = [
        # noisy-to-noiseless at n=12, d=6, l=3 (924 protocols), two copies
        _noisy_to_noiseless_instance(rng(5 + 15 * c), 12, 6, 3, 8, Fraction(3, 5))
        for c in range(2)
    ]
    for c, inst in enumerate(largest):
        inst.name += f"_{c}"
        inst.largest = True
    return [
        _ball_instance(rng(0), 2, 5, 3, 3, half),
        _ball_instance(rng(1), 4, 4, 3, 3, half),
        _ball_instance(rng(2), 6, 3, 3, 3, half),
        _noisy_to_noiseless_instance(rng(3), 6, 3, 3, 4, Fraction(3, 4)),
        _noisy_to_noiseless_instance(rng(4), 8, 4, 2, 5, None),
        *largest,
        _noisy_to_noiseless_instance(rng(6), 8, 3, 2, 4, Fraction(1, 4)),
        _noisy_to_noiseless_instance(rng(7), 10, 4, 2, 6, Fraction(2, 5)),
        _reduce_instance(rng(8), 6, 4),
        _reduce_instance(rng(9), 8, 5),
        _witness_instance(rng(10), "pairwise"),
        _witness_instance(rng(11), "subset"),
        _polytope_instance(rng(12), "simplex", 2),
        _polytope_instance(rng(13), "simplex", 4),
        _polytope_instance(rng(14), "cube", 3),
        _polytope_instance(rng(15), "cross", 3),
        _signalling_instance(rng(16), 0),
        _signalling_instance(rng(17), 1),
        _signalling_instance(rng(18), 2),
    ]


GENERATORS = {
    "noisy_quantum": noisy_quantum,
    "noiseless_quantum": noiseless_quantum,
    "gpt_channels": gpt_channels,
}


def generate(workload: str, seed: int) -> list[Instance]:
    instances = GENERATORS[workload](seed)
    if len({inst.name for inst in instances}) != len(instances):
        raise RuntimeError(f"{workload}: instance names repeat")
    return instances
