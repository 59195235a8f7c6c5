"""The public API: what besselgeom exports, and what it no longer does."""

import besselgeom


def test_all_names_resolve():
    for name in besselgeom.__all__:
        assert hasattr(besselgeom, name), name


def test_all_sorted_without_duplicates():
    names = besselgeom.__all__
    assert names == sorted(names)
    assert len(set(names)) == len(names)


def test_removed_names_stay_removed():
    # the disk layer has one evaluator, sup_estimates, which returns the bare
    # sup; nothing raises DegenerateError
    for name in ("starlike_quotient", "convex_quotient", "DegenerateError", "SupEstimate"):
        assert name not in besselgeom.__all__
        assert not hasattr(besselgeom, name)
        assert not hasattr(besselgeom.disk, name)
        assert not hasattr(besselgeom.errors, name)
