"""The benchmark's pure-Python speed-probe kernel and its reference time.

Standard library only, so both the benchmark process (``common``) and
the query client process (``client``) time the same code against the
same reference.
"""

#: What one :func:`loop` call takes on a quiet 2-core Xeon VM, in seconds.
LOOP_REFERENCE_S = 1.1e-3


def loop() -> None:
    """A 20k-step pure-Python loop: tracks interpreter-bound work."""
    total = 0
    for index in range(20_000):
        total += index * index
