"""The fixed-pulse-count variant for laser (weak-coherent) sources.

Single-photon sources make the protocol immune to loss because failures
just restart.  A Poissonian source cannot restart forever without leaking
multi-photon pulses, so both parties emit a fixed number K of pulse slots
and abort if none succeeds.  This demo measures the per-slot success
probability, checks the (1 - p)^K abort law, and shows the multi-photon
bookkeeping on the transcripts.
"""
import numpy as np

from mdiqct import ChannelParams, DetectorParams, Mode, RunConfig, run_weak_coherent
from mdiqct.protocol import Verdict


def config(k: int, mu: float) -> RunConfig:
    return RunConfig(
        y=0.9,
        channel=ChannelParams(5.0, 5.0),
        detector=DetectorParams(eta=0.8, dark=0.0),
        mu=mu,
        mode=Mode.MDI_WEAK_COHERENT,
        k_pulses=k,
    )


def main():
    rng = np.random.default_rng(2024)
    mu, n = 1.2, 4_000

    fails = sum(
        run_weak_coherent(config(1, mu), rng).verdict is Verdict.ABORT for _ in range(n)
    )
    q1 = fails / n
    print(f"per-slot failure probability at mu = {mu}: {q1:.3f} (measured on K = 1)")

    print(f"\n{'K':>4} {'measured abort':>15} {'(1-p)^K':>10}")
    for k in (1, 2, 4, 8):
        fails_k = sum(
            run_weak_coherent(config(k, mu), rng).verdict is Verdict.ABORT
            for _ in range(n)
        )
        print(f"{k:>4} {fails_k / n:>15.3f} {q1**k:>10.3f}")

    print("\nsample transcripts at K = 6 (multi-photon slots are flagged):")
    shown = 0
    while shown < 5:
        t = run_weak_coherent(config(6, 2.0), rng)
        if t.verdict is Verdict.ACCEPT:
            print(f"  success at slot {t.pulse_index}, coin {t.coin}, "
                  f"multi-photon slots {list(t.multiphoton_slots) or 'none'}")
            shown += 1
    print("\nthe price of the fixed budget: loss now causes honest aborts,")
    print("so this variant is not loss tolerant")


if __name__ == "__main__":
    main()
