"""The Sobol generator against scipy's unscrambled engine, bit for bit."""

import numpy as np
import pytest
from scipy.stats import qmc

from fractal_remez.geometry import JOE_KUO, sobol_unit

COUNTS = (0, 1, 2, 3, 7, 100, 4096, 2 ** 14)


@pytest.mark.filterwarnings("ignore:The balance properties:UserWarning")
@pytest.mark.parametrize("dim", range(1, len(JOE_KUO) + 2))
def test_sobol_unit_matches_scipy_bitwise(dim):
    for skip_zero in (False, True):
        for count in COUNTS:
            engine = qmc.Sobol(d=dim, scramble=False)
            if skip_zero:
                engine.fast_forward(1)
            want = engine.random(count)
            got = sobol_unit(dim, count, skip_zero=skip_zero)
            assert got.dtype == np.float64 and got.flags.c_contiguous
            assert got.shape == want.shape == (count, dim)
            assert got.tobytes() == want.tobytes(), (count, skip_zero)


@pytest.mark.parametrize("dim", [0, len(JOE_KUO) + 2])
def test_sobol_unit_rejects_dimensions_outside_the_table(dim):
    with pytest.raises(ValueError, match="Sobol dimension"):
        sobol_unit(dim, 4)
