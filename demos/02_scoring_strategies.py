"""Compare the three scoring strategies on the same two-logit head.

The softmax of (z_true, z_false) and their raw difference induce the same
ranking (the softmax is a strictly increasing transform of the difference),
but only the difference and the single-logit forms are usable as direct
training-time scores for a ranking loss.

Run:  python3 demos/02_scoring_strategies.py
"""

import numpy as np

from distilrank import ScoreStrategy, score_batch

# one (z_true, z_false) row per document
z = np.array([
    [1.0, -1.0],
    [0.0, 0.0],
    [3.2, 0.4],
    [-0.5, 2.0],
    [5.0, 4.5],
])
softmax = score_batch(z, ScoreStrategy.SOFTMAX_TRUE_FALSE)
single = score_batch(z, ScoreStrategy.SINGLE_LOGIT)
diff = score_batch(z, ScoreStrategy.LOGIT_DIFFERENCE)

print(f"{'z_true':>8} {'z_false':>8} {'softmax':>10} {'single':>8} {'difference':>11}")
for (z_true, z_false), s, t, d in zip(z, softmax, single, diff):
    print(f"{z_true:>8.2f} {z_false:>8.2f} {s:>10.6f} {t:>8.2f} {d:>11.2f}")

print("\nargsort by softmax:   ", [int(i) for i in np.argsort(softmax)[::-1]])
print("argsort by difference:", [int(i) for i in np.argsort(diff)[::-1]])
