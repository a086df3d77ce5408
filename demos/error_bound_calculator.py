"""Choosing the multiplier from the noise level, and what it buys.

Given a noise level eps and a prior radius rho on the penalty norm, the
balanced choice mu = eps^2 / rho^p keeps the regularized solution inside
an enlarged prior set (radii sqrt(2) eps and 2^(1/p) rho). The residual
question, how far apart can two solutions consistent with the same data
be, is answered by the stability modulus; for diagonal-like operators
the package brackets it from both sides.
"""

import numpy as np

from sparseland import (
    NoisePrior,
    SpectralEnvelope,
    WeightSequence,
    check_mu_requirements,
    modulus_bounds,
    mu_schedule,
    primed_radii,
)

noise = NoisePrior(epsilon=0.05, rho=1.0)
p = 1.5
mu = mu_schedule(noise, p)
eps2, rho2 = primed_radii(noise, mu, p)
print(f"eps = {noise.epsilon}, rho = {noise.rho}, p = {p}")
print(f"balanced multiplier mu = {mu:.6g}")
print(f"enlarged radii: eps' = {eps2:.6g}  (sqrt(2) eps = "
      f"{np.sqrt(2) * noise.epsilon:.6g}), rho' = {rho2:.6g}")

# a schedule must shrink mu with eps, but slower than eps^2, or the
# prior radius stops improving; the checker flags the balanced schedule
grid = np.array([0.4, 0.2, 0.1, 0.05, 0.025])
for name, fn in (("mu = eps", lambda e: e),
                 ("mu = eps^2 (constant ratio)", lambda e: e**2)):
    report = check_mu_requirements(fn, grid)
    print(f"schedule {name}: passed = {report.passed}  notes = {report.notes}")

# stability modulus on a dyadic envelope: weights grow like 2^(j p),
# the operator decays like 4^(-j), and both bounds follow sqrt(eps)
j = np.arange(10, dtype=float)
env = SpectralEnvelope(4.0**-j, 4.0**-j)
weights = WeightSequence(2.0 ** (j * p))
print()
print("eps      lower     upper     upper/sqrt(eps)")
for eps in (0.4, 0.1, 0.025, 0.00625):
    pr = NoisePrior(eps, 1.0)
    lower, upper = modulus_bounds(env, weights, p, pr)
    print(f"{eps:7.5f}  {lower:.5f}   {upper:.5f}   "
          f"{upper / np.sqrt(eps):.4f}")
