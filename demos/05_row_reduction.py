"""Row reduction: trading output rows for shared randomness.

Whenever the row slacks 1 - max_j a_ij sum to at least 1, a channel matrix
splits as sum p_i B(i) with the i-th row of B(i) zero, so each component
uses one output fewer.
"""

import numpy as np

from chansim.simulate import reduce_rows

a = 0.5 * np.array(
    [
        [1, 0, 1, 0, 1, 0],
        [1, 0, 0, 1, 0, 1],
        [0, 1, 1, 0, 0, 1],
        [0, 1, 0, 1, 1, 0],
    ],
    dtype=float,
)
print("octahedron matrix, row maxima all 1/2, slack sum = 2 >= 1")

result = reduce_rows(a, np.full(4, 0.25))
print(f"decomposed into {len(result.terms)} components, residual {result.residual:.2e}\n")
for i, (w, zero_row) in enumerate(zip(result.weights, result.zero_rows)):
    print(f"component {i}: weight {w}, zero row {zero_row}")
print("\nfirst component:")
print(np.round(result.matrices[0], 3))
