import numpy as np
import pytest

from losnet.barriers import ConstraintSystem


def raw_system(a, b, n_vars: int | None = None) -> ConstraintSystem:
    """Wrap an arbitrary dense inequality system into a ConstraintSystem by
    treating the whole control vector as a single robot block."""
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64).ravel()
    if n_vars is None:
        n_vars = a.shape[1] if a.ndim == 2 and a.size else 2
    a = a.reshape(-1, n_vars)
    z = b.size
    return ConstraintSystem(
        n_robots=1,
        dimension=n_vars,
        robot_a=np.zeros(z, np.int64),
        vec_a=a.copy(),
        robot_b=np.full(z, -1, np.int64),
        vec_b=np.zeros((z, n_vars)),
        bounds=b.copy(),
        kind_slices={"generic": slice(0, z)},
        obstacle_indices=np.full(z, -1, np.int64),
    )


@pytest.fixture
def rng():
    return np.random.default_rng(20240811)
