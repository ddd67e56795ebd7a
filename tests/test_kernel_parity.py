import random
from fractions import Fraction

import pytest

from latgate import EnumQuery, basis_change, catalog_get, cholesky, random_unimodular
from latgate import _pykernel
from latgate.enumeration import _coordinate_bound, _dfs_is_small, _scaled_problem

_speedups = pytest.importorskip("latgate._speedups")


def problems():
    rng = random.Random(97)
    out = [
        ("E8", catalog_get("E8").gram, None, Fraction(2)),
        ("Zn:3 char", catalog_get("Zn:3").gram, (Fraction(1, 2),) * 3, Fraction(3, 4)),
        ("D5 shifted", catalog_get("D5").gram, (Fraction(1, 2),) * 5, Fraction(7, 2)),
        ("Zn:4 twisted", basis_change(catalog_get("Zn:4").gram, random_unimodular(4, rng)),
         (Fraction(1, 3),) * 4, Fraction(2)),
    ]
    prepared = []
    for name, gram, shift, radius in out:
        if shift is None:
            shift = (Fraction(0),) * gram.rank
        chol = cholesky(gram)
        W, M, T, D, C, _ = _scaled_problem(chol, shift, radius)
        box = _coordinate_bound(chol, shift, radius)
        prepared.append((name, gram, W, M, T, D, C, box))
    return prepared


PROBLEMS = problems()
IDS = [p[0] for p in PROBLEMS]


@pytest.mark.parametrize("name,gram,W,M,T,D,C,box", PROBLEMS, ids=IDS)
@pytest.mark.parametrize("shrink", [False, True])
def test_dfs_object_path(name, gram, W, M, T, D, C, box, shrink):
    n = gram.rank
    py = _pykernel.dfs_enumerate(n, W, M, T, D, C, shrink=shrink, small=False)
    cy = _speedups.dfs_enumerate(n, W, M, T, D, C, shrink=shrink, small=False)
    assert py == cy


@pytest.mark.parametrize("name,gram,W,M,T,D,C,box", PROBLEMS, ids=IDS)
def test_dfs_small_path(name, gram, W, M, T, D, C, box):
    n = gram.rank
    if not _dfs_is_small(n, W, M, T, D, C, box):
        pytest.skip("int64 bound not proven for this problem")
    plain = _speedups.dfs_enumerate(n, W, M, T, D, C, small=False)
    fast = _speedups.dfs_enumerate(n, W, M, T, D, C, small=True)
    assert fast == plain
    assert _pykernel.dfs_enumerate(n, W, M, T, D, C, small=True) == plain
