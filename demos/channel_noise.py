"""What a noisy channel does to a packed copula family.

One concrete trip first: quantize the fixture family at alpha = 1/64, pack
it into a fixed-length bitstream, flip each bit with probability 1e-2, and
decode what comes out the other side. Then the Monte-Carlo sweep: mean
distortion per bit-error rate, the proportional fit mean = K * r through
the origin, and the doubling check at r = 1e-3.

The headline is that corruption distortion is linear in the flip rate over
the operating range, with a constant that is fitted from the top of the
sweep, never assumed. A pinned constant read off at the top underestimates
the tiny-r regime (the curve is concave near zero because a single flipped
high bit already moves a whole cell), which is why the design surface only
ever extrapolates downward in r.

Run: python3 demos/channel_noise.py
"""

import numpy as np

from copsem.channel import ChannelConfig, transmit
from copsem.codec import dequantize, pack, quantize, unpack
from copsem.harness import ExperimentConfig, fixture_family, run_channel_sweep
from copsem.metrics import d_pc


def count_flips(a: bytes, b: bytes) -> int:
    xa = np.unpackbits(np.frombuffer(a, dtype=np.uint8))
    xb = np.unpackbits(np.frombuffer(b, dtype=np.uint8))
    return int(np.sum(xa != xb))


def main():
    cfg = ExperimentConfig()
    family = fixture_family(cfg)
    alpha = 1 / 64
    q = quantize(family, alpha)
    payload = pack(q)
    n_bits = len(payload) * 8
    print(f"fixture family: {len(family.deltas)} displacements, {family.bins} bins")
    print(f"packed at alpha={alpha:.5f}: {q.bits} bits/cell, {len(payload)} bytes")
    print()

    r = 1e-2
    corrupted = transmit(payload, ChannelConfig(r, seed=cfg.seed))
    flips = count_flips(payload, corrupted)
    decoded = dequantize(unpack(corrupted, alpha, q.bins, q.deltas))
    reference = dequantize(q)
    one = d_pc(reference, decoded).d_pc
    print(f"single trip at r={r}: {flips} of {n_bits} bits flipped "
          f"({flips / n_bits:.4f}), d_pc = {one:.4f}")
    print()

    res = run_channel_sweep(cfg)
    fit = res.values
    print(f"{'r':>8} {'mean d_pc':>10} {'std':>8} {'L*r*alpha':>10}")
    for row in res.tables[0].rows:
        print(f"{float(row[0]):8.0e} {float(row[4]):10.5f} "
              f"{float(row[5]):8.5f} {float(row[6]):10.2e}")
    print()
    print(f"through-origin fit: mean = {fit['k_lin']:.2f} * r, "
          f"uncentered R^2 = {fit['r_squared']:.4f}")
    print(f"doubling r from 1e-3 to 2e-3 scales the mean by {fit['doubling_ratio']:.2f}")
    print(f"constant pinned at the top of the sweep: k_fit = {fit['k_fit']:.2f} "
          f"(per unit of the shape factor L*r*alpha, not per unit r)")
    print(f"all gates held: {res.ok}")


if __name__ == "__main__":
    main()
