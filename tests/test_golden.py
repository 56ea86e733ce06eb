"""``decompose`` against the golden values of ``tests/data/golden.json``.

The values were written by ``make_golden.py`` at the commit the file records.
A change that only reorders floating-point work moves them by a few ulps of
unit-scale values (4e-14 when the spectral MIR moved from LU log-dets to one
Cholesky pivot); a change of the answer moves them by far more.
"""

import json

import numpy as np
import pytest

from make_golden import CASES, PATH, case_values

GOLDEN = json.loads(PATH.read_text(encoding="utf-8"))
#: Absolute for values below 1, relative above.
TOL = 1e-12


@pytest.mark.parametrize("case", CASES)
def test_decompose_matches_golden_values(case):
    want = GOLDEN["cases"][case]
    got = case_values(case)
    assert sorted(got) == sorted(want)
    for key, values in want.items():
        w, g = np.array(values), np.array(got[key])
        assert g.shape == w.shape, key
        err = np.abs(g - w) / np.maximum(1.0, np.abs(w))
        assert err.max() <= TOL, (key, float(err.max()))


def test_golden_file_covers_every_case():
    assert sorted(GOLDEN["cases"]) == sorted(CASES)
    assert len(GOLDEN["commit"]) == 40
    for values in GOLDEN["cases"].values():
        assert len(values["profiles"]) == 300
