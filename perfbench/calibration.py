"""The calibration kernel: fixed work that calls no dklb code.

Complex FFT round trips at n = 2048, a complex exponential over 2**20
points and a pure-Python float loop: the three kinds of work the workloads
spend their time on.  The host's speed drifts, so each timing of dklb is
divided by a kernel time taken next to it.  The kernel is fixed, so both
sides of any comparison run the same kernel.
"""

from __future__ import annotations

from time import perf_counter

FFT_N = 2048
EXP_POINTS = 1 << 20

# next to each workload repeat: about 0.4 s on a 2-core x86 container, long
# enough that its own spread stays small next to the repeat
WALL = {"fft_rounds": 2000, "exp_rounds": 2, "loop": 1_500_000}
# at the end of each set-up child: about 0.1 s on the same container, so
# that it runs within a fraction of a second of the set-up it qualifies
SETUP = {"fft_rounds": 400, "exp_rounds": 0, "loop": 600_000}
# set-up samples are reported in seconds of a host on which the SETUP
# kernel takes exactly this long
SETUP_REFERENCE_S = 0.1


def kernel(fft_rounds: int, exp_rounds: int, loop: int) -> float:
    """Seconds taken by the kernel of the given size."""
    import numpy as np

    x = np.exp(1j * np.linspace(0.0, 64.0, FFT_N))
    x = np.fft.ifft(np.fft.fft(x))  # first transform plans; untimed
    phase = np.linspace(-1.0, 1.0, EXP_POINTS)
    t0 = perf_counter()
    for _ in range(fft_rounds):
        x = np.fft.ifft(np.fft.fft(x))
    for k in range(exp_rounds):
        x[0] += np.exp(1j * (k + 1) * phase)[-1]
    acc = 0.0
    for i in range(loop):
        acc += (i & 7) * 0.5
    elapsed = perf_counter() - t0
    if not (np.isfinite(x[0]) and acc > 0):
        raise RuntimeError("calibration kernel lost finiteness")
    return elapsed
