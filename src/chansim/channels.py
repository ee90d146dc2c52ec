"""Channel domain objects: transition matrices, classical protocols,
noise specifications, and ball-model effects and states.

A classical protocol is a decoder (a deterministic map from internal states
to outputs, stored as an index array) together with a column-stochastic
state matrix; convex combinations of protocols are the simulation
certificates everything else produces.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence, Union

import numpy as np

from .errors import (
    BadDelta,
    BadRange,
    DimensionMismatch,
    LengthMismatch,
    NotPartitionOfUnity,
    WeightSumNotOne,
)
from .linalg import require_finite
from .majorize import majorized_by_permutohedron

STOCHASTIC_TOL = 1e-9
ENTRY_TOL = 1e-9

Rational = Union[float, Fraction]


@dataclass(frozen=True, eq=False)
class TransitionMatrix:
    """k x l column-stochastic matrix of conditional output probabilities."""

    matrix: np.ndarray

    def __post_init__(self):
        a = np.asarray(self.matrix, dtype=float)
        if a.ndim != 2:
            raise DimensionMismatch(f"expected a 2-d matrix, got shape {a.shape}")
        require_finite(a, "transition matrix")
        if np.any(a < -ENTRY_TOL) or np.any(a > 1 + ENTRY_TOL):
            raise ValueError("transition probabilities must lie in [0, 1]")
        col_defect = np.max(np.abs(a.sum(axis=0) - 1.0)) if a.size else 0.0
        if col_defect > STOCHASTIC_TOL:
            raise ValueError(f"columns deviate from stochasticity by {col_defect:.3e}")
        object.__setattr__(self, "matrix", a)

    @property
    def num_outputs(self) -> int:
        return self.matrix.shape[0]

    @property
    def num_inputs(self) -> int:
        return self.matrix.shape[1]


def as_transition(a) -> TransitionMatrix:
    return a if isinstance(a, TransitionMatrix) else TransitionMatrix(np.asarray(a, dtype=float))


class NoiseSpec:
    """Base for noise specifications attached to classical mixtures."""


@dataclass(frozen=True)
class Noiseless(NoiseSpec):
    pass


@dataclass(frozen=True)
class Delta(NoiseSpec):
    """Leak probability delta/n from the chosen state to each other state."""

    delta: Rational

    def __post_init__(self):
        if not 0 <= float(self.delta) <= 1:
            raise BadDelta(f"delta={self.delta!r} outside [0, 1]")


@dataclass(frozen=True)
class Permutohedron(NoiseSpec):
    """States constrained to the permutation hull of a base probability vector."""

    base: tuple[float, ...]

    def __post_init__(self):
        b = np.asarray(self.base, dtype=float)
        if np.any(b < -ENTRY_TOL) or abs(b.sum() - 1.0) > STOCHASTIC_TOL:
            raise ValueError("permutohedron base must be a probability vector")
        object.__setattr__(self, "base", tuple(float(x) for x in b))


@dataclass(frozen=True)
class PerColumn(NoiseSpec):
    specs: tuple[NoiseSpec, ...]


def spec_for_column(spec: NoiseSpec, j: int) -> NoiseSpec:
    if isinstance(spec, PerColumn):
        return spec.specs[j]
    return spec


def noisy_classical_extremals(n: int, delta: Rational) -> list[np.ndarray]:
    """The n extremal noisy states: entry 1-(n-1)delta/n at the chosen
    position and delta/n elsewhere."""
    d = float(delta)
    if not 0 <= d <= 1:
        raise BadDelta(f"delta={delta!r} outside [0, 1]")
    out = []
    for t in range(n):
        vec = np.full(n, d / n)
        vec[t] = 1.0 - (n - 1) * d / n
        out.append(vec)
    return out


def satisfies_noise(x, spec: NoiseSpec, tol: float = STOCHASTIC_TOL) -> bool:
    """Membership of a probability vector in the state set declared by spec."""
    v = np.asarray(x, dtype=float)
    if isinstance(spec, Noiseless):
        return bool(np.all(v >= -tol) and abs(v.sum() - 1.0) <= tol)
    if isinstance(spec, Delta):
        n = len(v)
        return bool(np.all(v >= float(spec.delta) / n - tol) and abs(v.sum() - 1.0) <= tol)
    if isinstance(spec, Permutohedron):
        if len(spec.base) != len(v):
            raise LengthMismatch(f"vector length {len(v)} vs base length {len(spec.base)}")
        return majorized_by_permutohedron(v, np.asarray(spec.base), tol)
    raise TypeError(f"cannot test membership against {type(spec).__name__}; resolve per column first")


@dataclass(frozen=True, eq=False)
class ClassicalProtocol:
    """Deterministic decoder over n internal states plus a state matrix.

    ``decoder[m]`` is the output emitted for internal state m; ``states`` is
    the n x l column-stochastic matrix of state distributions per input.
    """

    decoder: np.ndarray
    states: np.ndarray
    num_outputs: int

    def __post_init__(self):
        dec = np.asarray(self.decoder, dtype=int)
        st = np.asarray(self.states, dtype=float)
        if dec.ndim != 1 or st.ndim != 2 or st.shape[0] != dec.shape[0]:
            raise DimensionMismatch(
                f"decoder length {dec.shape} does not match states shape {st.shape}"
            )
        if dec.size and (dec.min() < 0 or dec.max() >= self.num_outputs):
            raise DimensionMismatch("decoder values outside the output alphabet")
        if np.any(st < -ENTRY_TOL):
            raise ValueError("state matrix has negative entries")
        if st.size and np.max(np.abs(st.sum(axis=0) - 1.0)) > STOCHASTIC_TOL:
            raise ValueError("state matrix columns must sum to 1")
        object.__setattr__(self, "decoder", dec)
        object.__setattr__(self, "states", st)

    @property
    def num_states(self) -> int:
        return self.decoder.shape[0]

    def decoder_matrix(self) -> np.ndarray:
        e = np.zeros((self.num_outputs, self.num_states))
        e[self.decoder, np.arange(self.num_states)] = 1.0
        return e


def protocol_matrix(p: ClassicalProtocol) -> TransitionMatrix:
    """The transition matrix E X realized by a protocol."""
    return TransitionMatrix(p.decoder_matrix() @ p.states)


@dataclass(frozen=True, eq=False)
class ClassicalMixture:
    """Weighted list of classical protocols with a declared noise spec."""

    terms: tuple[tuple[float, ClassicalProtocol], ...]
    num_states: int
    noise: NoiseSpec

    def weights(self) -> np.ndarray:
        return np.array([w for w, _ in self.terms])


def mixture_matrix(m: ClassicalMixture) -> TransitionMatrix:
    """Weighted sum of the protocol matrices; raises unless weights sum to 1."""
    w = m.weights()
    if np.any(w < -STOCHASTIC_TOL) or abs(w.sum() - 1.0) > STOCHASTIC_TOL:
        raise WeightSumNotOne(f"mixture weights sum to {w.sum()!r}")
    total = None
    for weight, protocol in m.terms:
        mat = protocol.decoder_matrix() @ protocol.states
        total = weight * mat if total is None else total + weight * mat
    return TransitionMatrix(total)


def validate_mixture(m: ClassicalMixture, tol: float = STOCHASTIC_TOL) -> None:
    """Check weights, state counts, and per-column noise membership."""
    w = m.weights()
    if np.any(w < -tol) or abs(w.sum() - 1.0) > tol:
        raise WeightSumNotOne(f"mixture weights sum to {w.sum()!r}")
    for _, protocol in m.terms:
        if protocol.num_states > m.num_states:
            raise DimensionMismatch(
                f"protocol has {protocol.num_states} states, mixture declares {m.num_states}"
            )
        for j in range(protocol.states.shape[1]):
            spec = spec_for_column(m.noise, j)
            if not satisfies_noise(protocol.states[:, j], spec, tol):
                raise ValueError(f"state column {j} violates the declared noise spec")


@dataclass(frozen=True, eq=False)
class BallEffect:
    """Affine functional x -> c + v.x on the unit ball of the n/(n-1)-norm.

    Nonnegativity on the ball is the dual-norm bound |v|_n <= c; the norm
    index n must be even.
    """

    c: float
    v: np.ndarray
    norm_index: int

    def __post_init__(self):
        v = np.asarray(self.v, dtype=float)
        n = self.norm_index
        if n < 2 or n % 2 != 0:
            raise BadRange(f"norm index must be a positive even integer, got {n}")
        if dual_norm(v, n) > self.c + ENTRY_TOL:
            raise ValueError("effect is negative somewhere on the ball (|v|_n > c)")
        object.__setattr__(self, "v", v)

    def __call__(self, x: np.ndarray) -> float:
        return float(self.c + self.v @ np.asarray(x, dtype=float))


def dual_norm(v: np.ndarray, norm_index: int) -> float:
    return float(np.sum(np.abs(v) ** norm_index) ** (1.0 / norm_index)) if len(v) else 0.0


def state_norm(x: np.ndarray, norm_index: int) -> float:
    p = norm_index / (norm_index - 1)
    return float(np.sum(np.abs(x) ** p) ** (1.0 / p)) if len(x) else 0.0


@dataclass(frozen=True, eq=False)
class BallState:
    """Point of the unit ball of the n/(n-1)-norm."""

    x: np.ndarray
    norm_index: int

    def __post_init__(self):
        x = np.asarray(self.x, dtype=float)
        if state_norm(x, self.norm_index) > 1.0 + ENTRY_TOL:
            raise ValueError("state lies outside the unit ball")
        object.__setattr__(self, "x", x)


def bracket(effects: Sequence[BallEffect]) -> float:
    """Product of the constants minus the coordinatewise product of the
    vectors, summed: the n-linear pairing of n effects (n = norm index)."""
    if not effects:
        raise DimensionMismatch("need at least one effect")
    n = effects[0].norm_index
    dim = len(effects[0].v)
    if len(effects) != n:
        raise DimensionMismatch(f"bracket of norm index {n} needs exactly {n} effects")
    for e in effects:
        if e.norm_index != n or len(e.v) != dim:
            raise DimensionMismatch("effects must share norm index and dimension")
    c_prod = 1.0
    v_prod = np.ones(dim)
    for e in effects:
        c_prod *= e.c
        v_prod = v_prod * e.v
    return float(c_prod - v_prod.sum())


def validate_partition_of_unity(effects: Sequence[BallEffect], tol: float = STOCHASTIC_TOL) -> None:
    c_total = sum(e.c for e in effects)
    v_total = sum(e.v for e in effects)
    if abs(c_total - 1.0) > tol or np.max(np.abs(v_total)) > tol:
        raise NotPartitionOfUnity(
            f"effects sum to c={c_total!r}, |v|_max={float(np.max(np.abs(v_total))):.3e}"
        )


def ball_born_matrix(
    effects: Sequence[BallEffect],
    states: Sequence[BallState],
    delta: Rational = 0.0,
    tol: float = STOCHASTIC_TOL,
) -> TransitionMatrix:
    """Entries e_i((1-delta) x_j) for a partition of unity on the ball."""
    validate_partition_of_unity(effects, tol)
    d = float(delta)
    if not 0 <= d <= 1:
        raise BadDelta(f"delta={delta!r} outside [0, 1]")
    out = np.empty((len(effects), len(states)))
    for j, s in enumerate(states):
        for i, e in enumerate(effects):
            out[i, j] = e.c + (1.0 - d) * float(e.v @ s.x)
    return TransitionMatrix(out)
