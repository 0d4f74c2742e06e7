"""Desk-scale racing imitation pipeline.

A closed-track 2D racing simulator, a scripted expert demonstrator, a
from-scratch autodiff core, a causal-transformer base policy trained by
behavior cloning, and a residual Gaussian policy fine-tuned by adversarial
imitation with soft actor-critic. The command line entry point is
``racelab`` (see ``racelab.cli``).
"""

import ctypes

__version__ = "0.1.0"

# glibc's mallopt parameter numbers (malloc.h).
_M_TRIM_THRESHOLD = -1
_M_MMAP_THRESHOLD = -3


def _keep_freed_pages():
    """Keep the pages of freed numpy temporaries mapped for the next step.

    A training step frees megabytes of temporaries that the next step
    allocates again. By default glibc maps blocks of that size afresh and
    trims freed memory off the top of its heap, so every BeT update faulted
    the same pages in again: thousands of minor faults and about 10 ms of
    system time per update. Serving blocks below 32 MiB from the heap and
    trimming only above 256 MiB of free memory stops that. Without glibc's
    mallopt this does nothing.
    """
    try:
        mallopt = ctypes.CDLL(None).mallopt
    except (OSError, AttributeError):
        return
    mallopt.argtypes = (ctypes.c_int, ctypes.c_int)
    mallopt.restype = ctypes.c_int
    mallopt(_M_MMAP_THRESHOLD, 32 << 20)
    mallopt(_M_TRIM_THRESHOLD, 256 << 20)


_keep_freed_pages()
