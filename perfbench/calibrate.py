"""Host-speed probe: one fixed pure-Python loop that touches nothing from the
repository, so its time depends only on how fast the host runs Python at that
moment.  run.py times it between units, in the benchmark process itself so
that the probe runs on the workload's CPU, and scales the end-to-end figures
by it (see README.md, "Host-speed normalisation").
"""

ROUNDS = 300_000


def loop() -> float:
    acc = [0.0] * 8
    x = 0.5
    for _ in range(ROUNDS):
        for j in range(8):
            x = x * 0.999 + 0.001 * j
            acc[j] += x if x > 0.3 else -x
    return sum(acc)
