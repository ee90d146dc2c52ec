"""Per-layer spans and counters, recorded from outside the program.

``Tracer.install`` replaces public functions of the ``chansim`` modules by
timing wrappers, at the name through which each caller looks them up (a
function imported by name is patched in the importing module, one called
as ``module.function`` in its own module). Each wrapper belongs to a
bucket such as ``lp`` or ``jsonio.parse``; a call nested in a span of the
same bucket is merged into it. A bucket's self time is its spans' time
minus the time of the child spans they cover. ``uninstall`` restores every
original function.
"""

from __future__ import annotations

import math
import time
from collections import defaultdict


def _lp_counts(counts, args, result):
    program = args[0]
    counts["lp.solves"] += 1
    counts["lp.rows"] += len(program.constraints)
    counts["lp.vars"] += program.num_vars


def _transport_counts(counts, args, result):
    counts["transport.solves"] += 1
    counts["transport.edges"] += len(args[0].edges)


def _distribution_counts(counts, args, result):
    counts["mixdisc.classes"] += math.comb(result.n + result.k - 1, result.n)
    counts["mixdisc.tuples"] += len(result.weights)


def _discriminant_counts(counts, args, result):
    counts["mixdisc.discriminants"] += 1


def _hlp_counts(counts, args, result):
    counts["majorize.perm_terms"] += len(result.terms)


def _simulation_counts(counts, args, result):
    mixture = getattr(result, "mixture", None)
    if mixture is not None:
        counts["simulate.mixture_terms"] += len(mixture.terms)


def _dumps_counts(counts, args, result):
    counts["jsonio.dumps_bytes"] += len(result.encode("utf-8"))


# (module, attribute, bucket, counter): where each layer is entered
HOOKS = (
    ("simulate", "validate_povm", "linalg", None),
    ("simulate", "validate_density", "linalg", None),
    ("simulate", "born_matrix", "linalg", None),
    ("simulate", "hermitian_eigenvalues", "linalg", None),
    ("simulate", "outcome_distribution", "mixdisc", _distribution_counts),
    ("simulate", "distribution_from_class_values", "mixdisc", _distribution_counts),
    ("mixdisc", "mixed_discriminant", "mixdisc", _discriminant_counts),
    ("lp", "solve", "lp", _lp_counts),
    ("simulate", "feasible_transport", "transport", _transport_counts),
    ("simulate", "conditional_columns", "transport", None),
    ("simulate", "hlp_decompose", "majorize", _hlp_counts),
    ("simulate", "max_subset_distribution", "majorize", None),
    ("majorize", "birkhoff", "majorize", None),
    ("simulate", "simulate_quantum_noiseless", "simulate", _simulation_counts),
    ("simulate", "simulate_quantum_noisy", "simulate", _simulation_counts),
    ("simulate", "simulate_ball", "simulate", _simulation_counts),
    ("simulate", "simulate_noisy_by_noiseless", "simulate", _simulation_counts),
    ("simulate", "reduce_rows", "simulate", None),
    ("simulate", "mixture_matrix", "channels.recompose", None),
    ("cli", "mixture_matrix", "channels.recompose", None),
    ("cli", "validate_mixture", "channels.noise_check", None),
    ("simulate", "permutohedron_simulable_by_d", "certify", None),
    ("certify", "pairwise_witness", "certify", None),
    ("certify", "subset_witness", "certify", None),
    ("certify", "minkowski_asymmetry", "certify", None),
    ("certify", "noisy_signalling_dimension", "certify", None),
    ("cli", "canonical_dumps", "jsonio.dumps", _dumps_counts),
    ("jsonio", "canonical_dumps", "jsonio.dumps", _dumps_counts),
    ("cli", "quantum_instance_from_json", "jsonio.parse", None),
    ("cli", "ball_instance_from_json", "jsonio.parse", None),
    ("cli", "mixture_from_json", "jsonio.parse", None),
    ("cli", "real_matrix_from_json", "jsonio.parse", None),
    ("cli", "polytope_from_json", "jsonio.parse", None),
    ("cli", "rational_from_json", "jsonio.parse", None),
    ("jsonio", "protocol_from_json", "jsonio.parse", None),
    ("cli", "certificate", "jsonio.encode", None),
    ("jsonio", "simulation_to_json", "jsonio.encode", None),
    ("jsonio", "row_reduction_to_json", "jsonio.encode", None),
    ("jsonio", "witness_to_json", "jsonio.encode", None),
    ("jsonio", "binomial_witness_to_json", "jsonio.encode", None),
    ("jsonio", "rational_to_json", "jsonio.encode", None),
    ("jsonio", "digest", "jsonio.dumps", None),
)


# the reported name of each bucket's self time
SELF_TIME_METRICS = {
    "cli": "cli.self_s",
    "linalg": "linalg.s",
    "mixdisc": "mixdisc.s",
    "lp": "lp.s",
    "transport": "transport.s",
    "majorize": "majorize.s",
    "simulate": "simulate.self_s",
    "channels.recompose": "channels.recompose_s",
    "channels.noise_check": "channels.noise_check_s",
    "certify": "certify.self_s",
    "jsonio.dumps": "jsonio.dumps_s",
    "jsonio.parse": "jsonio.parse_s",
    "jsonio.encode": "jsonio.encode_s",
}

COUNTERS = {
    "mixdisc.classes": "count",
    "mixdisc.tuples": "count",
    "mixdisc.discriminants": "count",
    "lp.solves": "count",
    "lp.rows": "count",
    "lp.vars": "count",
    "transport.solves": "count",
    "transport.edges": "count",
    "majorize.perm_terms": "count",
    "simulate.mixture_terms": "count",
    "jsonio.dumps_bytes": "bytes",
}


class Tracer:
    """Self time per bucket and counters, accumulated until ``reset``."""

    def __init__(self):
        self._stack: list[list] = []  # [bucket, time covered by child spans]
        self._installed: list[tuple[object, str, object]] = []
        self.reset()

    def reset(self) -> None:
        self.self_s: dict[str, float] = defaultdict(float)
        self.counts: dict[str, int] = defaultdict(int)

    def call(self, bucket: str, fn, *args, counter=None, **kwargs):
        stack = self._stack
        if stack and stack[-1][0] == bucket:
            result = fn(*args, **kwargs)
        else:
            frame = [bucket, 0.0]
            stack.append(frame)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = time.perf_counter() - start
                stack.pop()
                self.self_s[bucket] += elapsed - frame[1]
                if stack:
                    stack[-1][1] += elapsed
        if counter is not None:
            counter(self.counts, args, result)
        return result

    def _wrap(self, fn, bucket: str, counter):
        def wrapper(*args, **kwargs):
            return self.call(bucket, fn, *args, counter=counter, **kwargs)

        wrapper.__wrapped__ = fn
        return wrapper

    def install(self, modules: dict) -> None:
        for module_name, attr, bucket, counter in HOOKS:
            module = modules[module_name]
            original = getattr(module, attr)
            self._installed.append((module, attr, original))
            setattr(module, attr, self._wrap(original, bucket, counter))

    def uninstall(self) -> None:
        while self._installed:
            module, attr, original = self._installed.pop()
            setattr(module, attr, original)
