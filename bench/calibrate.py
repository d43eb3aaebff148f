"""A fixed reference kernel, timed next to every timed stretch, that
measures how fast the machine is running at that moment.

On a shared host the same round can take twice as long from one minute to
the next. On the workloads marked ``normalise``, the benchmark divides each
measured time by the kernel's slowdown against its nominal time, so that
its figures are those of a machine on which the kernel takes
KERNEL_NOMINAL_S. The kernel is plain interpreter work and uses nothing
from cpes or numpy, so no change to the program moves it. Of the kernels
tried (this loop, small-array numpy calls, BLAS products at the
paper_scale shapes), it tracked the rounds of the sweep-store workloads as
well as any; none tracked the BLAS-bound paper_scale rounds closely, so
that workload is not normalised.
"""

from __future__ import annotations

from time import perf_counter

# about the kernel's time on a 2-core Xeon (Sapphire Rapids) KVM guest
# while the host is quiet
KERNEL_NOMINAL_S = 0.03
_ITERATIONS = 400_000


def kernel_s() -> float:
    """Wall time of one pass over the fixed work."""
    start = perf_counter()
    acc = 0
    for i in range(_ITERATIONS):
        acc += i * i % 7
    return perf_counter() - start
