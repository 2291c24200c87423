"""Output digests pinned once per path of numpy's elementary functions.

Where the CPU has AVX-512, numpy dispatches exp, expm1, cosh, sinh and
log1p to vectorized kernels whose results can differ from the C
library's, and so from math's, in the last bit; a number computed through
them can then differ in its 15th printed digit.  Without AVX-512 these
five agree with math on the probe below.  The path is told apart by counting,
per function, the arguments of a fixed probe on which numpy and math
disagree.
"""

import functools
import math

import numpy as np
import pytest

FUNCTIONS = ("exp", "expm1", "cosh", "sinh", "log1p")
# 20001 arguments in [-10, 10]; log1p takes their magnitudes.
PROBE = np.linspace(-10.0, 10.0, 20001)

# The disagreement counts of each known path.
PATHS = {
    (0, 0, 0, 0, 0): "libm",
    (930, 1351, 4633, 5214, 1294): "avx512",
}


def disagreements(name: str) -> int:
    """Arguments of the probe on which numpy's and math's function differ."""
    x = np.abs(PROBE) if name == "log1p" else PROBE
    want = np.array([getattr(math, name)(v) for v in x.tolist()])
    return int(np.count_nonzero(getattr(np, name)(x) != want))


@functools.cache
def counts() -> tuple[int, ...]:
    return tuple(disagreements(name) for name in FUNCTIONS)


def pinned(digest) -> str:
    """The digest to expect: a str holds on every path, a dict maps each path to its own.

    Fails, naming the disagreement counts, on a path that is not in PATHS.
    """
    if isinstance(digest, str):
        return digest
    path = PATHS.get(counts())
    if path not in digest:
        pytest.fail(f"unrecognised numpy dispatch: {dict(zip(FUNCTIONS, counts()))} "
                    f"of {PROBE.size} probe arguments differ from math; no digest is pinned")
    return digest[path]
