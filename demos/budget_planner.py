"""Plan a distortion budget end to end with the closed-form calculators.

Given a target end-to-end distortion eps, the three pipeline stages each
claim a slice of it:

  estimation   how many disjoint pixel pairs buy estimation error eps_est
  encoding     how many bits buy encoder error eps_enc at step alpha
  decoding     how many compute steps shrink the decoder's start-up error

The script walks one concrete plan, then inverts it both ways: the fewest
bits r_min at a fixed compute budget, and the least compute t_min at a
fixed rate. Finally it prints a small slice of the (rate, compute) design
surface so the trade-off is visible as numbers, not just formulas.

All knobs are flags. The defaults are the experiment harness's (bins,
displacements, eta, alpha, decoder, operating T, eps and eps_est), and the
encoder constant is bounds.REFERENCE_C2, sqrt(ln 2)/4 rounded: a reference
point, not a fitted value. The estimation radius --t 0.2 and the plan's
target --eps 0.5 are the demo's own.

Run: python3 demos/budget_planner.py [--eps 0.5] [--bins 8] ...
"""

import argparse

from copsem.bounds import (
    REFERENCE_C2, ConcentrationParams, DecoderModel, EncoderModel, SlaBudget,
    enc_distortion_bound, est_distortion_from_samples, nominal_d, r_min, rate_achievability,
    rate_converse, sample_complexity, sla_compose, sla_surface, t_min,
)
from copsem.harness import (
    DEFAULT_ALPHA, DEFAULT_BINS, DEFAULT_CONCENTRATION, DEFAULT_DECODER, DEFAULT_DELTAS,
    DEFAULT_EPS, DEFAULT_EPS_EST, OPERATING_T,
)


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0], allow_abbrev=False)
    ap.add_argument("--eps", type=float, default=0.5, help="end-to-end target (the demo's own)")
    ap.add_argument("--bins", type=int, default=DEFAULT_BINS)
    ap.add_argument("--n-deltas", type=int, default=len(DEFAULT_DELTAS))
    ap.add_argument("--t", type=float, default=0.2, help="L1 estimation radius (the demo's own)")
    ap.add_argument("--eta", type=float, default=DEFAULT_CONCENTRATION.eta,
                    help="failure probability")
    ap.add_argument("--alpha", type=float, default=DEFAULT_ALPHA, help="quantizer step")
    ap.add_argument("--rho", type=float, default=DEFAULT_DECODER.rho, help="decoder contraction")
    ap.add_argument("--delta0", type=float, default=DEFAULT_DECODER.delta0,
                    help="decoder start error")
    ap.add_argument("--c2", type=float, default=REFERENCE_C2,
                    help="encoder rate constant (default: the unfitted reference)")
    ap.add_argument("--T", type=float, default=OPERATING_T, help="compute budget, steps")
    ap.add_argument("--op-eps", type=float, default=DEFAULT_EPS,
                    help="end-to-end target at the measured operating point")
    ap.add_argument("--op-eps-est", type=float, default=DEFAULT_EPS_EST,
                    help="measured estimation slice at the operating point")
    args = ap.parse_args()

    print("stage 1: estimation")
    params = ConcentrationParams(args.bins, args.n_deltas, args.t, args.eta)
    n_eff = sample_complexity(params)
    eps_est = est_distortion_from_samples(n_eff, params)
    print(f"  {n_eff} disjoint pairs give mean L1 error <= {args.t} "
          f"except with probability {args.eta}")
    print(f"  converted to the sqrt-JS budget: eps_est = {eps_est:.6f}")
    print()

    print("stage 2: encoding")
    d = nominal_d(args.n_deltas, args.bins)
    rate = rate_achievability(args.n_deltas, args.bins, args.alpha)
    eps_enc = enc_distortion_bound(args.bins, args.alpha)
    print(f"  {d} free cells at step alpha={args.alpha:.5f}: "
          f"{rate:.0f} bits suffice, budget eps_enc = {eps_enc:.6f}")
    print(f"  converse at that distortion: "
          f">= {rate_converse(args.n_deltas, args.bins, eps_enc):.0f} bits necessary")
    print()

    print("stage 3: decoding")
    dec = DecoderModel(args.rho, args.delta0)
    print(f"  geometric decode error {args.delta0} * {args.rho}^T: "
          f"at T={args.T:.0f} steps, eps_dec = {dec.error(args.T):.6f}")
    print()

    budget = SlaBudget(eps_est, eps_enc, dec.error(args.T), args.eta, 0.0)
    total = sla_compose(budget)
    verdict = "MET" if total.eps_total <= args.eps else "MISSED"
    print(f"composed: eps_total = {total.eps_total:.6f} "
          f"(target {args.eps}, {verdict}) "
          f"with failure probability <= {total.delta_sla}")
    print()

    print("the plan above priced every stage at its worst-case closed form.")
    print("operating the pipeline uses the operating point instead: the reference")
    print(f"encoder model c2={args.c2} (not fitted), d={d}, and a measured estimation")
    print(f"slice eps_est={args.op_eps_est} against the tighter target "
          f"eps={args.op_eps}.")
    enc = EncoderModel(args.c2, d)
    r = r_min(args.T, args.op_eps, args.op_eps_est, dec, enc)
    if r is None:
        print(f"  r_min at T={args.T:.0f}: infeasible "
              f"(estimation + decode already exceed eps)")
    else:
        print(f"  r_min at T={args.T:.0f}: {r:.1f} bits")
        t_back = t_min(r, args.op_eps, args.op_eps_est, dec, enc)
        print(f"  t_min at that rate: {t_back:.2f} steps (round trip)")
    print()

    r_slice = [0.0, 250.0, 500.0, 1000.0, 1500.0]
    t_slice = [0.0, 10.0, 20.0, 40.0]
    surf = sla_surface(r_slice, t_slice, args.op_eps_est, dec, enc)
    print("design surface eps(R, T), rows = rate bits, cols = compute steps:")
    print(" " * 9 + "".join(f"T={t:<8.0f}" for t in t_slice))
    for i, rr in enumerate(r_slice):
        cells = "".join(f"{surf[i, j]:<10.4f}" for j in range(len(t_slice)))
        print(f"R={rr:<7.0f}{cells}")
    print()
    print("every step right or down strictly lowers the achievable distortion;")
    print("the surface flattens toward eps_est, the estimation slice that no")
    print("amount of rate or compute can buy back.")


if __name__ == "__main__":
    main()
