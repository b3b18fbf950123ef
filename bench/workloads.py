"""Workload definitions: the finite request pools and the seeded request lists.

Every workload is a closed loop of ``padiclab`` CLI requests.  A run draws
one request list from its seed and repeats that list ("a pass") until the
run's time is used up, so every pass of a run does identical work and
per-pass counts repeat exactly.

The seed decides the order of the pool entries, the output format of each
request and, for ``roots-deep``, which entries become ``spectrum`` and which
``zeta`` requests and their cosmetic ranges (``--m-max``, the s-grid).  It
never changes which field parameters and depths a pass contains, so every
seed does the same amount of work and runs with different seeds can be
compared directly.  The seed never reaches the program: ``--seed`` of the
CLI stays at its default.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

FORMATS = ("json", "csv")

# roots-deep: (p, e, f, N).  Every entry has q = p**(-2/e) <= 1/2 and a
# deepest root whose working precision stays below the roughly 1600 digits
# the acceptance suite reaches at (3,1,1), n = 40.  ``spectrum --n-max N``
# and ``zeta --n-roots N+1`` certify the same roots 0..N, so the seeded
# choice between the two does not change the work.
ROOTS_POOL = (
    (2, 1, 1, 28),
    (2, 2, 1, 22),
    (3, 1, 1, 20),
    (3, 2, 1, 21),
    (5, 1, 1, 20),
    (7, 1, 1, 18),
    (2, 1, 2, 30),
)
SPECTRUM_M_MAX = (2, 3)
ZETA_S_MIN = (1, 2)  # s-grid s_min .. s_min + 7, step 1 (eight zeta_DR calls)

# validate-deep: (p, e, f, depth).  Drift on (the CLI default) and seminorm
# depth 3: eigensolves dominate, windows at depth + 2 stay below 90k
# vertices.  The entries cost about the same, so the median request latency
# is not a choice between unequal requests.
VALIDATE_POOL = (
    (2, 1, 1, 12),
    (2, 2, 1, 12),
    (3, 1, 1, 7),
)

# seminorm-sweep: (p, e, f, depth, seminorm_depth).  The shallowest spectrum
# depth whose gates pass with k = 4 and no drift, and a seminorm window
# large enough (16k-22k vertices) that the per-vertex sweeps dominate.
SEMINORM_POOL = (
    (2, 1, 1, 6, 13),
    (5, 1, 1, 4, 6),
    (2, 1, 2, 4, 7),
)


@dataclass(frozen=True)
class Request:
    """One CLI request: ``args`` select the computation, ``fmt`` its output."""

    args: tuple[str, ...]
    fmt: str

    @property
    def command(self) -> str:
        return self.args[0]

    @property
    def key(self) -> str:
        """Reference key: the arguments without the (cosmetic) format."""
        return " ".join(self.args)

    def argv(self) -> list[str]:
        return [*self.args, "--format", self.fmt]


def _field(p: int, e: int, f: int) -> tuple[str, ...]:
    return ("--p", str(p), "--e", str(e), "--f", str(f))


def _spectrum(p, e, f, n, m_max) -> tuple[str, ...]:
    return ("spectrum", *_field(p, e, f), "--m-max", str(m_max), "--n-max", str(n))


def _zeta(p, e, f, n, s_min) -> tuple[str, ...]:
    return (
        "zeta", *_field(p, e, f),
        "--s-min", str(s_min), "--s-max", str(s_min + 7), "--s-step", "1",
        "--n-roots", str(n + 1),
    )


def _validate_deep(p, e, f, depth) -> tuple[str, ...]:
    return ("validate", *_field(p, e, f), "--depth", str(depth), "--seminorm-depth", "3")


def _seminorm_sweep(p, e, f, depth, sdepth) -> tuple[str, ...]:
    return (
        "validate", *_field(p, e, f), "--depth", str(depth), "--k", "4",
        "--no-drift", "--seminorm-depth", str(sdepth),
    )


def _roots_deep(rng: random.Random) -> list[Request]:
    entries = list(ROOTS_POOL)
    rng.shuffle(entries)
    first = rng.randrange(2)
    out = []
    for i, (p, e, f, n) in enumerate(entries):
        if (i + first) % 2 == 0:
            args = _spectrum(p, e, f, n, rng.choice(SPECTRUM_M_MAX))
        else:
            args = _zeta(p, e, f, n, rng.choice(ZETA_S_MIN))
        out.append(Request(args, rng.choice(FORMATS)))
    return out


def _shuffled(rng: random.Random, pool, build) -> list[Request]:
    entries = list(pool)
    rng.shuffle(entries)
    return [Request(build(*entry), rng.choice(FORMATS)) for entry in entries]


def request_list(workload: str, seed: int) -> list[Request]:
    """The request list of one pass of ``workload`` under ``seed``."""
    rng = random.Random(f"{workload}:{seed}")
    if workload == "roots-deep":
        return _roots_deep(rng)
    if workload == "validate-deep":
        return _shuffled(rng, VALIDATE_POOL, _validate_deep)
    if workload == "seminorm-sweep":
        return _shuffled(rng, SEMINORM_POOL, _seminorm_sweep)
    raise ValueError(f"unknown workload {workload!r}")


def pool_keys() -> list[tuple[str, ...]]:
    """Every request in every pool, without format: what the reference covers."""
    keys = []
    for p, e, f, n in ROOTS_POOL:
        keys += [_spectrum(p, e, f, n, m) for m in SPECTRUM_M_MAX]
        keys += [_zeta(p, e, f, n, s) for s in ZETA_S_MIN]
    keys += [_validate_deep(*entry) for entry in VALIDATE_POOL]
    keys += [_seminorm_sweep(*entry) for entry in SEMINORM_POOL]
    return keys


WORKLOADS = ("roots-deep", "validate-deep", "seminorm-sweep")
