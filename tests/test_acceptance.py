"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with ``pytest tests/test_acceptance.py -s`` to see the lines; every
tolerance is pinned here, not configurable.
"""

import math
import time
from fractions import Fraction
from itertools import product

import numpy as np
import pytest

from chansim import majorize, mixdisc
from chansim.channels import (
    BallEffect,
    BallState,
    Delta,
    Permutohedron,
    mixture_matrix,
    noisy_classical_extremals,
    validate_mixture,
)
from chansim.certify import (
    Polytope,
    holevo_chi,
    minkowski_asymmetry,
    mutual_information,
    noisy_signalling_dimension,
    pairwise_witness,
    permutohedron_simulable_by_d,
)
from chansim.linalg import born_matrix
from chansim.simulate import (
    SimulationResult,
    simulate_ball,
    simulate_noisy_by_noiseless,
    simulate_quantum_noiseless,
    simulate_quantum_noisy,
)
from conftest import (
    multiplicity,
    multiset_classes,
    random_ball_effects,
    random_ball_states,
    random_density,
    random_density_floor,
    random_hermitian,
    random_povm,
    random_stochastic,
    random_unitary,
)

OCTAHEDRON_MATRIX = 0.5 * np.array(
    [
        [1, 0, 1, 0, 1, 0],
        [1, 0, 0, 1, 0, 1],
        [0, 1, 1, 0, 0, 1],
        [0, 1, 0, 1, 1, 0],
    ],
    dtype=float,
)


def report(index: int, label: str, ok: bool, detail: str = "") -> None:
    status = "PASS" if ok else "FAIL"
    suffix = f" ({detail})" if detail else ""
    print(f"ACCEPTANCE {index}: {status} - {label}{suffix}")
    assert ok, f"criterion {index} failed: {label} {suffix}"


def test_criterion_1_octahedron_witness():
    start = time.perf_counter()
    report_pw = pairwise_witness(OCTAHEDRON_MATRIX, d=2)
    vertices = np.vstack([np.eye(3), -np.eye(3)])
    normals = np.array(list(product([-1.0, 1.0], repeat=3)))
    poly = Polytope(vertices=vertices, normals=normals, offsets=np.ones(8))
    m = minkowski_asymmetry(poly)
    elapsed = time.perf_counter() - start
    ok = (
        abs(report_pw.value - 6.0) < 1e-9
        and abs(report_pw.bound - 5.0) < 1e-9
        and report_pw.violated
        and abs(m - 1.0) <= 1e-6
        and abs((m + 1.0) - 2.0) <= 1e-6
        and elapsed < 1.0
    )
    report(1, "octahedron pairwise witness 6 > 5 and asymmetry 1 (infstor 2)", ok,
           f"value={report_pw.value}, bound={report_pw.bound}, m={m:.9f}, {elapsed:.3f}s")


def test_criterion_2_noisy_signalling_dimension():
    start = time.perf_counter()
    cases = 0
    agree = True
    for n in range(2, 9):
        for num in range(0, 9):
            delta = Fraction(num, 8)
            formula = noisy_signalling_dimension(n, delta)
            ext = np.sort(noisy_classical_extremals(n, delta)[0])
            smallest = next(
                d for d in range(1, n + 1)
                if permutohedron_simulable_by_d(ext, d) is None
            )
            agree = agree and (formula == smallest)
            cases += 1
    elapsed = time.perf_counter() - start
    ok = agree and cases == 63 and elapsed < 1.0
    report(2, "ceil((1-delta) n + delta) matches the prefix-sum test on 63 cases", ok,
           f"{cases} cases, {elapsed:.3f}s")


def _check_quantum_result(result: SimulationResult, n: int, delta: float | None) -> bool:
    if result.residual > 1e-8:
        return False
    validate_mixture(result.mixture)
    weights = result.mixture.weights
    if abs(weights.sum() - 1.0) > 1e-9 or np.any(weights < 0):
        return False
    for _, prot in result.mixture.terms:
        if prot.num_states > n:
            return False
        if delta is not None and np.min(prot.states) < delta / n - 1e-9:
            return False
    return True


def test_criterion_3_quantum_reconstruction():
    rng = np.random.default_rng(3)
    start = time.perf_counter()
    worst = 0.0
    ok = True
    for trial in range(200):
        n = int(rng.integers(2, 4))
        k = int(rng.integers(2, 5))
        l = int(rng.integers(1, 4))
        povm = random_povm(rng, n, k)
        mode = trial % 3
        if mode == 0:
            states = [random_density(rng, n) for _ in range(l)]
            result = simulate_quantum_noiseless(povm, states)
            ok = ok and _check_quantum_result(result, n, None)
        else:
            delta = 0.25 if mode == 1 else 0.5
            states = [random_density_floor(rng, n, delta) for _ in range(l)]
            result = simulate_quantum_noisy(povm, states, Delta(delta))
            ok = ok and _check_quantum_result(result, n, delta)
        worst = max(worst, result.residual)
        if not ok:
            break
    elapsed = time.perf_counter() - start
    ok = ok and elapsed < 60.0
    report(3, "200 quantum instances reconstruct within 1e-8 with valid components", ok,
           f"worst residual {worst:.2e}, {elapsed:.1f}s")


def test_criterion_4_ball_simulation():
    rng = np.random.default_rng(4)
    start = time.perf_counter()
    worst = 0.0
    ok = True
    bit_cases = 0
    for trial in range(50):
        n = 2 if trial % 2 == 0 else 4
        dim = int(rng.integers(1, 4))
        k = int(rng.integers(2, 5))
        l = int(rng.integers(1, 4))
        delta = float(rng.choice([0.0, 0.25, 0.5]))
        effects = [
            BallEffect(c=c, v=v, norm_index=n)
            for c, v in random_ball_effects(rng, k, dim, n)
        ]
        states = [BallState(x=x, norm_index=n) for x in random_ball_states(rng, l, dim, n)]
        result = simulate_ball(effects, states, delta=delta)
        worst = max(worst, result.residual)
        ok = ok and result.residual <= 1e-8
        validate_mixture(result.mixture)
        for _, prot in result.mixture.terms:
            ok = ok and prot.num_states <= n
        if n == 2:
            # ellipsoid claim: a delta-noisy bit (2 classical states) suffices
            bit_cases += 1
            ok = ok and result.mixture.num_states == 2
            ok = ok and all(prot.num_states == 2 for _, prot in result.mixture.terms)
        if not ok:
            break
    elapsed = time.perf_counter() - start
    ok = ok and elapsed < 30.0 and bit_cases == 25
    report(4, "50 ball instances reconstruct within 1e-8 (n=2 uses exactly 2 states)", ok,
           f"worst residual {worst:.2e}, {elapsed:.1f}s")


def _subset_sum_lhs(lam: np.ndarray, r: int) -> float:
    n = len(lam)
    masks = np.array(list(product([0, 1], repeat=n)), dtype=float)
    probs = np.prod(np.where(masks > 0, 1 - lam, lam), axis=1)
    weights = np.clip(r - masks.sum(axis=1), 0.0, None)
    return float(weights @ probs)


def test_criterion_5_subset_sum_inequalities():
    rng = np.random.default_rng(5)
    slack = 1e-8

    worst1 = -np.inf
    for _ in range(1000):
        n = int(rng.integers(1, 7))
        lam = rng.uniform(0.0, 1.0, size=n)
        prefix = np.cumsum(np.sort(lam))
        for r in range(1, n + 1):
            gap = _subset_sum_lhs(lam, r) - prefix[r - 1]
            worst1 = max(worst1, gap)
    report(5, "scalar subset-sum inequality, 1000 trials", worst1 <= slack,
           f"worst gap {worst1:.2e}")

    worst2 = -np.inf
    for _ in range(1000):
        n = int(rng.integers(2, 5))
        lam = rng.uniform(0.0, 1.0, size=n)
        u = random_unitary(rng, n)
        e = u @ np.diag(lam) @ u.conj().T
        sym = [mixdisc.symmetric_mixed(e, q, n) for q in range(n)]
        prefix = np.cumsum(np.sort(lam))
        for r in range(1, n + 1):
            lhs = sum((r - q) * math.comb(n, q) * sym[q] for q in range(r))
            worst2 = max(worst2, lhs - prefix[r - 1])
    report(5, "matrix subset-sum inequality, 1000 trials", worst2 <= slack,
           f"worst gap {worst2:.2e}")

    worst3 = -np.inf
    for _ in range(1000):
        n = int(rng.integers(2, 4))
        k = int(rng.integers(2, 5))
        povm = random_povm(rng, n, k)
        u = rng.normal(size=k)
        dist = mixdisc.outcome_distribution(povm)
        spect = np.sort(np.linalg.eigvalsh(sum(ui * ei for ui, ei in zip(u, povm))))
        prefix = np.cumsum(spect)
        lhs = np.zeros(n)
        for key, p in zip(dist.classes, dist.weights):
            vals = np.sort(np.array([u[i] for i in key]))
            lhs += p * np.cumsum(vals)
        for r in range(1, n + 1):
            worst3 = max(worst3, lhs[r - 1] - prefix[r - 1])
    report(5, "outcome-averaged subset-sum inequality, 1000 trials", worst3 <= slack,
           f"worst gap {worst3:.2e}")


def test_criterion_6_mixed_discriminant_properties():
    rng = np.random.default_rng(6)
    worst_det = 0.0
    for _ in range(100):
        n = int(rng.integers(1, 5))
        e = random_hermitian(rng, n)
        d = mixdisc.mixed_discriminant([e] * n)
        worst_det = max(worst_det, abs(d - np.linalg.det(e).real))
    ok = worst_det <= 1e-9
    report(6, "D(E, ..., E) = det E on 100 random Hermitian matrices", ok,
           f"worst deviation {worst_det:.2e}")

    worst_neg, worst_mass = 0.0, 0.0
    for _ in range(100):
        n = int(rng.integers(2, 4))
        k = int(rng.integers(2, 5))
        povm = random_povm(rng, n, k)
        mass = 0.0
        for ms in multiset_classes(k, n):
            value = mixdisc.mixed_discriminant([povm[i] for i in ms])
            worst_neg = min(worst_neg, value)
            mass += multiplicity(ms) * value
        worst_mass = max(worst_mass, abs(mass - 1.0))
    ok = worst_neg >= -1e-10 and worst_mass <= 1e-9
    report(6, "outcome distributions nonnegative with unit mass on 100 POVMs", ok,
           f"min weight {worst_neg:.2e}, worst mass drift {worst_mass:.2e}")


def test_criterion_7_majorization_constructive():
    rng = np.random.default_rng(7)
    worst = 0.0
    ok = True
    for _ in range(100):
        n = int(rng.integers(2, 7))
        d = int(rng.integers(1, n + 1))
        nu = majorize.max_subset_distribution(n, d)
        w = rng.dirichlet(np.ones(3))
        mu = np.sort(sum(wi * rng.permutation(nu) for wi in w))
        l = int(rng.integers(1, 4))
        cols = []
        for _ in range(l):
            wc = rng.dirichlet(np.ones(3))
            cols.append(sum(wi * rng.permutation(mu) for wi in wc))
        target = np.column_stack(cols)
        result = simulate_noisy_by_noiseless(Permutohedron(base=tuple(mu)), target, d)
        ok = ok and isinstance(result, SimulationResult)
        if not ok:
            break
        worst = max(worst, result.residual)
        ok = ok and result.residual <= 1e-8
        ok = ok and all(prot.num_states <= d for _, prot in result.mixture.terms)
    report(7, "100 feasible noisy-to-noiseless constructions on <= d states", ok,
           f"worst residual {worst:.2e}")


def test_criterion_8_holevo_diagnostic():
    rng = np.random.default_rng(8)
    worst_gap = -np.inf
    for _ in range(1000):
        n = int(rng.integers(2, 4))
        k = int(rng.integers(2, 5))
        l = int(rng.integers(2, 4))
        povm = random_povm(rng, n, k)
        states = [random_density(rng, n) for _ in range(l)]
        q = rng.dirichlet(np.ones(l))
        gap = mutual_information(born_matrix(povm, states), q) - holevo_chi(states, q)
        worst_gap = max(worst_gap, gap)
    ok = worst_gap <= 1e-9
    report(8, "Info <= chi on 1000 random ensembles", ok, f"worst gap {worst_gap:.2e}")

    worst_eq = 0.0
    for _ in range(100):
        n = int(rng.integers(2, 5))
        povm = [np.diag(row).astype(complex) for row in np.eye(n)]
        states = [np.diag(col).astype(complex) for col in random_stochastic(rng, n, 3).T]
        q = rng.dirichlet(np.ones(3))
        diff = abs(
            mutual_information(born_matrix(povm, states), q) - holevo_chi(states, q)
        )
        worst_eq = max(worst_eq, diff)
    ok = worst_eq <= 1e-6
    report(8, "Info = chi in the commuting diagonal case", ok,
           f"worst deviation {worst_eq:.2e}")
