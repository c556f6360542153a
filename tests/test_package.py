"""The package top level: the README's Library snippet through `import rncdim`."""

import rncdim


def test_readme_library_snippet():
    assert sorted(rncdim.__all__) == [
        "__version__", "dimension", "h0", "recursive_h0", "system",
    ]
    report = rncdim.dimension(rncdim.system(5, 8, [7, 6, 6] + [5] * 7 + [2] * 3))
    assert report.dimension == 6
    assert (report.kc, report.epsilon) == (5, 1)
    assert len(report.special_effects) == 15
    sys = rncdim.system(3, 6, [2] * 10)
    assert rncdim.recursive_h0(sys) == 45
    assert rncdim.h0(sys).h0 == 45
