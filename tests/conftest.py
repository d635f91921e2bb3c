import numpy as np
import pytest

from anchormc.nets import NetworkSpec


@pytest.fixture
def rng():
    return np.random.default_rng(1234)


def finite_difference_grad(f, theta, step=1e-5):
    """Central differences, component by component."""
    theta = np.asarray(theta, dtype=float)
    g = np.empty_like(theta)
    for i in range(theta.size):
        up = theta.copy()
        dn = theta.copy()
        up[i] += step
        dn[i] -= step
        g[i] = (f(up) - f(dn)) / (2 * step)
    return g


MASK64 = (1 << 64) - 1
GAMMA = 0x9E3779B97F4A7C15


def mix_reference(z: int) -> int:
    """SplitMix64's output function on one Python integer, with explicit
    masking: the loop form that the array mixer must equal."""
    z &= MASK64
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & MASK64
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & MASK64
    return z ^ (z >> 31)


def mnist7_cnn_spec():
    """The 28x28 8-class CNN of criteria 08 and 10: 4 channels of 3x3
    kernels, unit stride and padding, 2x2 max-pool, linear head; 6320
    parameters."""
    return NetworkSpec(kind="cnn", image_shape=(28, 28), n_classes=8)
