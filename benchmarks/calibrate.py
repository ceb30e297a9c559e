"""A fixed CPU kernel, timed on request, that measures the host's speed.

``worker.py`` starts this script in an interpreter of its own, so no code of
kahlerlab is ever loaded here and no change to the package can change the
kernel.  For each line it reads on standard input it runs the kernel once
and prints its wall time in seconds; it ends when standard input closes.

The kernel mixes an interpreter loop with small dense complex linear
algebra, as the studies do.  On a shared host both slow down together when
other tenants load the machine, which is what ``worker.py`` corrects for.
"""

import sys
import time

import numpy as np

_RNG = np.random.default_rng(0)
_A = _RNG.standard_normal((100, 100)) + 1j * _RNG.standard_normal((100, 100))


def kernel():
    """Run the kernel once; its wall time in seconds."""
    t0 = time.perf_counter()
    total = 0
    for i in range(30000):
        total += i * i
    for _ in range(12):
        np.linalg.eigh(_A @ _A.conj().T)
    return time.perf_counter() - t0


def main():
    kernel()  # first calls of the linear algebra load and set up LAPACK
    for _ in sys.stdin:
        print(repr(kernel()), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
