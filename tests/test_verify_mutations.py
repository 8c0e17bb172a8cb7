"""Planted defects: each must make a named ``verify`` check fail.

A check that passes on working code shows something only if it fails on
broken code.  Each test plants one defect in process and asserts which
checks of the quick suite catch it.
"""

from dataclasses import replace

from expwell import solver, verification


def _failed_checks() -> list[str]:
    return [r.name for r in verification.run_all(quick=True) if not r.passed]


def test_one_percent_norm_error_fails_normalization_check(monkeypatch):
    normalize = solver.normalize

    def off_by_one_percent(p, s, cfg=solver.DEFAULT_CONFIG):
        sn = normalize(p, s, cfg)
        return replace(sn, norm_c=1.01 * sn.norm_c)

    monkeypatch.setattr(solver, "normalize", off_by_one_percent)
    assert _failed_checks() == ["normalization"]
