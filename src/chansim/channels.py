"""Channel domain objects: transition matrices, classical protocols,
noise specifications, and ball-model effects and states.

A classical protocol is a decoder (a deterministic map from internal states
to outputs, stored as an index array) together with a column-stochastic
state matrix; convex combinations of protocols are the simulation
certificates everything else produces. A mixture stores its protocols as
stacked arrays, so it is validated, recomposed and checked against its
noise spec by array operations over all terms at once.
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
    NotAList,
    NotPartitionOfUnity,
    NotStochastic,
    PerColumnNoise,
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
        if a.ndim != 2 or 0 in a.shape:
            raise DimensionMismatch(
                f"expected a 2-d matrix with an output and an input, got shape {a.shape}"
            )
        object.__setattr__(self, "matrix", require_column_stochastic(a, "transition matrix"))

    @property
    def num_outputs(self) -> int:
        return self.matrix.shape[0]


def require_column_stochastic(a: np.ndarray, what: str) -> np.ndarray:
    """Return ``a``, a matrix or a stack of matrices over its last two axes,
    once every column of every matrix is checked: finite, entries in [0, 1]
    within ENTRY_TOL, summing to 1 within STOCHASTIC_TOL. A probability
    vector is checked as a one-column matrix."""
    require_finite(a, what)
    if np.any(a < -ENTRY_TOL) or np.any(a > 1 + ENTRY_TOL):
        raise NotStochastic(f"{what} has entries outside [0, 1]")
    col_defect = np.max(np.abs(a.sum(axis=-2) - 1.0)) if a.size else 0.0
    if col_defect > STOCHASTIC_TOL:
        raise NotStochastic(f"{what} columns deviate from stochasticity by {col_defect:.3e}")
    return a


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
        if b.ndim != 1:
            what = "a number" if b.ndim == 0 else "a nested list"
            raise NotAList(f"permutohedron base must be a list of numbers, not {what}")
        require_column_stochastic(b[:, None], "permutohedron base")
        object.__setattr__(self, "base", tuple(float(x) for x in b))


@dataclass(frozen=True)
class PerColumn(NoiseSpec):
    specs: tuple[NoiseSpec, ...]


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


def noise_bases(spec: NoiseSpec, n: int, l: int | None = None) -> np.ndarray:
    """The (l, n) ascending bases of spec's noise sets, one per input column;
    each set is the permutation hull of its base: e_n for ``Noiseless``, the
    sorted (d/n, ..., d/n, 1-(n-1)d/n) for ``Delta(d)``, the sorted base for
    ``Permutohedron``, and for ``PerColumn`` those of its exactly l specs.
    With l None, the one base (1, n) of a spec that serves every column, and
    ``PerColumn`` raises PerColumnNoise."""
    if n < 1:
        raise BadRange(f"need n >= 1 states, got {n}")
    if isinstance(spec, PerColumn):
        if l is None:
            raise PerColumnNoise("per-column noise where one noise set must serve every column")
        if len(spec.specs) != l:
            raise DimensionMismatch(f"{len(spec.specs)} column specs for {l} columns")
        return np.concatenate([noise_bases(s, n) for s in spec.specs])
    if isinstance(spec, Noiseless):
        base = np.zeros(n)
        base[-1] = 1.0
    elif isinstance(spec, Delta):
        d = float(spec.delta)
        base = np.full(n, d / n)
        base[-1] = 1.0 - (n - 1) * d / n
        base.sort()
    elif isinstance(spec, Permutohedron):
        if len(spec.base) != n:
            raise LengthMismatch(f"spec base length {len(spec.base)} vs n={n}")
        base = np.sort(spec.base)
    else:
        raise TypeError(f"unknown noise spec {type(spec).__name__}")
    return base[None].repeat(1 if l is None else l, axis=0)


def satisfies_noise(x, spec: NoiseSpec) -> bool:
    """Membership of a probability vector in the state set declared by spec,
    the permutation hull of its base; a ``PerColumn`` spec raises
    PerColumnNoise, a TypeError."""
    v = np.asarray(x, dtype=float)
    return bool(majorized_by_permutohedron(v, noise_bases(spec, len(v))[0], STOCHASTIC_TOL))


def _checked_protocols(decoders, states, num_outputs: int) -> tuple[np.ndarray, np.ndarray]:
    """The decoders (T, n) and state matrices (T, n, l) of T protocols as
    arrays, once each protocol is checked: decoder values in the output
    alphabet and column-stochastic state matrices."""
    dec = np.asarray(decoders, dtype=int)
    st = np.asarray(states, dtype=float)
    if dec.ndim != 2 or st.ndim != 3 or st.shape[:2] != dec.shape:
        raise DimensionMismatch(f"decoders {dec.shape} do not match states {st.shape}")
    if dec.size and (dec.min() < 0 or dec.max() >= num_outputs):
        raise DimensionMismatch("decoder values outside the output alphabet")
    return dec, require_column_stochastic(st, "state matrix")


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
        dec, st = _checked_protocols(
            np.asarray(self.decoder)[None], np.asarray(self.states)[None], self.num_outputs
        )
        object.__setattr__(self, "decoder", dec[0])
        object.__setattr__(self, "states", st[0])

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
    """Convex mixture of T classical protocols over a common shape, held as
    arrays: ``weights`` (T,), ``decoders`` (T, n) and ``states`` (T, n, l).
    Term t is the protocol with decoder ``decoders[t]`` and state matrix
    ``states[t]``; every term has ``num_outputs`` outputs, and n may not
    exceed the declared ``num_states``.

    Construction validates everything except noise membership, once for
    all terms: the checks of ``ClassicalProtocol`` on every term, finite
    weights summing to 1, and the state count. The arrays are copied and
    stored read-only.
    """

    weights: np.ndarray
    decoders: np.ndarray
    states: np.ndarray
    num_outputs: int
    num_states: int
    noise: NoiseSpec

    def __post_init__(self):
        # copies, so a caller that keeps its arrays cannot change a
        # validated mixture
        dec, st = _checked_protocols(
            np.array(self.decoders, dtype=int), np.array(self.states, dtype=float), self.num_outputs
        )
        if st.shape[1] > self.num_states:
            raise DimensionMismatch(
                f"protocols have {st.shape[1]} states, mixture declares {self.num_states}"
            )
        object.__setattr__(self, "weights", convex_weights(self.weights, len(dec)))
        object.__setattr__(self, "decoders", read_only(dec))
        object.__setattr__(self, "states", read_only(st))

    @property
    def terms(self) -> tuple[tuple[float, ClassicalProtocol], ...]:
        """The (weight, protocol) pairs, built on each access."""
        return tuple(
            (float(w), ClassicalProtocol(decoder=d, states=x, num_outputs=self.num_outputs))
            for w, d, x in zip(self.weights, self.decoders, self.states)
        )


def convex_weights(weights, count: int) -> np.ndarray:
    """A read-only copy of the weights of a convex combination of ``count``
    terms, once checked: finite, nonnegative and summing to 1."""
    w = np.array(weights, dtype=float)
    if w.shape != (count,):
        raise DimensionMismatch(f"weights {w.shape} for {count} terms")
    require_finite(w, "weights")
    if np.any(w < -STOCHASTIC_TOL) or abs(w.sum() - 1.0) > STOCHASTIC_TOL:
        raise WeightSumNotOne(f"weights sum to {float(w.sum())!r}")
    return read_only(w)


def read_only(a: np.ndarray) -> np.ndarray:
    a.flags.writeable = False
    return a


def protocol_matrices(decoders: np.ndarray, states: np.ndarray, num_outputs: int) -> np.ndarray:
    """The (T, k, l) stack of protocol matrices E_t X_t for decoders (T, n)
    and states (T, n, l): row i of E_t X_t adds up, in state order, the
    rows of X_t whose state decodes to i. Decoder values must lie in
    range(num_outputs), as ``_checked_protocols`` ensures: the sums are one
    weighted bincount over flat (term, output, column) bins."""
    num_terms, _, l = states.shape
    size = num_terms * num_outputs * l
    bins = (np.arange(num_terms)[:, None] * num_outputs + decoders)[:, :, None] * l + np.arange(l)
    sums = np.bincount(bins.ravel(), weights=states.ravel(), minlength=size)
    return sums.reshape(num_terms, num_outputs, l)


def mixture_matrix(m: ClassicalMixture) -> TransitionMatrix:
    """Weighted sum of the protocol matrices E_t X_t, summed in term order;
    no sum depends on how BLAS would order it."""
    matrices = protocol_matrices(m.decoders, m.states, m.num_outputs)
    return TransitionMatrix((m.weights[:, None, None] * matrices).sum(axis=0))


def validate_mixture(m: ClassicalMixture) -> None:
    """Check every state column of every term against its column's base
    from ``noise_bases`` (the test of ``satisfies_noise``), all T x l
    columns at once; the rest is checked when the mixture is built."""
    _, n, l = m.states.shape
    columns = m.states.transpose(0, 2, 1)  # (T, l, n)
    inside = majorized_by_permutohedron(columns, noise_bases(m.noise, n, l), STOCHASTIC_TOL)
    if not inside.all():
        j = np.argwhere(~inside)[0, 1]
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


def ball_born_matrix(
    effects: Sequence[BallEffect],
    states: Sequence[BallState],
    delta: Rational = 0.0,
) -> TransitionMatrix:
    """Entries e_i((1-delta) x_j) for a partition of unity on the ball."""
    c_total = sum(e.c for e in effects)
    v_total = sum(e.v for e in effects)
    v_max = float(np.max(np.abs(v_total), initial=0.0))
    if abs(c_total - 1.0) > STOCHASTIC_TOL or v_max > STOCHASTIC_TOL:
        raise NotPartitionOfUnity(f"effects sum to c={c_total!r}, |v|_max={v_max:.3e}")
    d = float(Delta(delta).delta)  # checks delta
    out = np.empty((len(effects), len(states)))
    for j, s in enumerate(states):
        for i, e in enumerate(effects):
            out[i, j] = e.c + (1.0 - d) * float(e.v @ s.x)
    return TransitionMatrix(out)
