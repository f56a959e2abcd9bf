import hashlib
import math

import numpy as np
import pytest
from hypothesis import settings
from hypothesis import strategies as st

from bykov.params import SaddleParams

# same examples on every run, and no per-example wall-clock limit on a slow host
settings.register_profile("tier1", derandomize=True, deadline=None, database=None)
settings.load_profile("tier1")


def _numpy_math_fingerprint() -> str:
    """sha256 prefix of numpy's float64 log, exp, arctan2, sin and cos on a fixed probe.

    numpy picks the kernels of these ufuncs by CPU at import (on x86-64,
    AVX-512 or AVX2), and the kernels differ in the last bit of some
    results; a bit pin of a result that passes through them holds for one
    set of kernels.
    """
    grid = np.linspace(-3.0, 3.0, 257)
    y, x = np.meshgrid(grid, 1.7 * grid + 0.01)
    t = np.linspace(-700.0, 700.0, 4097)
    results = (np.log(np.geomspace(1e-300, 1e300, 4097)), np.exp(t), np.arctan2(y, x), np.sin(t), np.cos(t))
    return hashlib.sha256(b"".join(r.tobytes() for r in results)).hexdigest()[:16]


NUMPY_MATH_FINGERPRINT = _numpy_math_fingerprint()
# fingerprint -> the key of the bit pins that hold for that math; both were
# taken with numpy 2.4.6 on x86-64, "avx2" under
# NPY_DISABLE_CPU_FEATURES="X86_V4 AVX512_ICL AVX512_SPR"
NUMPY_MATH = {
    "851fb2c127ad326c": "avx512",
    "8beac76999676b03": "avx2",
}


def math_pin(pin):
    """``pin`` for this process's numpy math: a table keyed as ``NUMPY_MATH``'s values gives its entry."""
    if not isinstance(pin, dict):
        return pin
    key = NUMPY_MATH.get(NUMPY_MATH_FINGERPRINT)
    if key not in pin:
        pytest.fail(f"no bit pin for numpy {np.__version__} with float64 math fingerprint {NUMPY_MATH_FINGERPRINT}")
    return pin[key]


def pytest_report_header(config):
    key = NUMPY_MATH.get(NUMPY_MATH_FINGERPRINT, "unknown")
    return f"numpy {np.__version__}, float64 math fingerprint {NUMPY_MATH_FINGERPRINT} ({key})"


@pytest.fixture(scope="session")
def case1_params() -> SaddleParams:
    """No-reversal fixture: crossing level below the turning-function minimum.

    gamma = 6.25 > 1, delta = 2.5 > 1, delta_w = 2 (the stretch factor drops
    out of the return-map determinant, making its decay strictly monotone).
    """
    return SaddleParams(alpha_v=0.2, C_v=1.0, E_v=0.8, alpha_w=2.5, C_w=4.0, E_w=2.0, a=2.0, eps=0.5)


@pytest.fixture(scope="session")
def dense_params() -> SaddleParams:
    """Dense-reversal fixture: level strictly inside the extrema, gamma = sqrt(2)."""
    return SaddleParams(
        alpha_v=2.0,
        C_v=1.2,
        E_v=1.0,
        alpha_w=(10.0 / 3.0) * math.sqrt(2.0),
        C_w=2.6,
        E_w=2.0,
        a=2.0,
        eps=0.5,
    )


@pytest.fixture(scope="session")
def rational_params() -> SaddleParams:
    """Interior fixture with gamma = 3/2 exactly (periodic reversal angles)."""
    return SaddleParams(
        alpha_v=2.0, C_v=1.2, E_v=1.0, alpha_w=5.0, C_w=2.6, E_w=2.0, a=2.0, eps=0.5
    )


@pytest.fixture(scope="session")
def unit_params() -> SaddleParams:
    """Fully degenerate reference point: all rates 1, no shear, unit section."""
    return SaddleParams(alpha_v=1, C_v=1, E_v=1, alpha_w=1, C_w=1, E_w=1, a=1.0, eps=1.0)


def random_admissible(rng: np.random.Generator, a_min: float = 1.0) -> SaddleParams:
    rates = np.exp(rng.uniform(-1.1, 1.1, size=6))
    return SaddleParams(
        alpha_v=float(rates[0]),
        C_v=float(rates[1]),
        E_v=float(rates[2]),
        alpha_w=float(rates[3]),
        C_w=float(rates[4]),
        E_w=float(rates[5]),
        a=float(rng.uniform(a_min, 3.0)),
        eps=float(rng.uniform(0.2, 0.9)),
    )


# random_admissible as a hypothesis strategy, drawing eps = 1 (where
# c1 = c4 = 1) alongside eps in [0.2, 0.9]
admissible_params = st.builds(
    lambda rates, a, eps: SaddleParams(*(math.exp(x) for x in rates), a=a, eps=eps),
    rates=st.lists(st.floats(-1.1, 1.1), min_size=6, max_size=6),
    a=st.floats(1.0, 3.0),
    eps=st.one_of(st.just(1.0), st.floats(0.2, 0.9)),
)
