"""The ensemble across forked worker processes.

An ensemble splits its members once across worker processes, each of which
integrates its share member by member; the report must not depend on
the worker count, a failed member must come back as a NaN row plus its
`diverged` entry, and an error raised in a worker must reach the caller
unchanged.  The conftest fixture checks that no worker outlives a test.
"""

import os

import numpy as np
import pytest

import sedlab as sl
from sedlab import ensemble, pool


def _same(a, b):
    assert np.array_equal(a.x, b.x, equal_nan=True)
    assert np.array_equal(a.p, b.p, equal_nan=True)
    assert np.array_equal(a.drive, b.drive, equal_nan=True)
    assert a.diverged == b.diverged
    for name in a.moments:
        for ours, theirs in zip(a.moments[name], b.moments[name]):
            assert np.array_equal(ours, theirs)


def _quartic_config():
    return sl.EnsembleConfig(
        scales=sl.PhysicalScales(tau=2e-2), force=sl.quartic(1.0, 0.1), omega_cut=20.0,
        n_traj=7, master_seed=8_675_309, t_span=60.0, dt=0.016, burn_in=10.0,
        initial_conditions=sl.GaussianIC(x0_sd=0.5, p0_sd=0.5),
    )


def test_quartic_bit_identical_for_any_worker_count(pin_cpus):
    # 7 members split over 2 workers (4 + 3) or 4 (2 + 2 + 2 + 1)
    cfg = _quartic_config()
    every_cpu = pool.cpu_count()
    pin_cpus(1)
    ref = sl.run_ensemble(cfg)
    for workers in (1, 2, 4, every_cpu):
        pin_cpus(workers)
        _same(ref, sl.run_ensemble(cfg))


def test_split_is_contiguous_and_covers_the_chunk():
    for n, parts in ((5, 2), (5, 4), (2, 2), (64, 3)):
        chunk = range(10, 10 + n)
        pieces = pool.split(chunk, parts)
        assert len(pieces) == parts
        assert [m for piece in pieces for m in piece] == list(chunk)
        assert max(map(len, pieces)) - min(map(len, pieces)) <= 1


# 100 members with an anti-confining force beyond |x| = sqrt(2): at this
# master seed exactly member 34 escapes, at t = 7.25, which is what the
# per-member re-integration of the previous runner reported as well
ESCAPE_SEED, ESCAPE_MEMBER, ESCAPE_T = 28, 34, 7.25


def _escape_config():
    return sl.EnsembleConfig(
        scales=sl.REF, force=sl.polynomial([0.0, -1.0, 0.0, 0.5], escape_bound=5.0),
        omega_cut=5.0, n_traj=100, master_seed=ESCAPE_SEED, t_span=20.0, dt=0.05,
        burn_in=0.0, initial_conditions=sl.GaussianIC(x0_sd=0.5),
    )


def test_escaped_member_is_a_nan_row_for_any_worker_count(pin_cpus):
    cfg = _escape_config()
    pin_cpus(1)
    ref = sl.run_ensemble(cfg)
    assert ref.diverged == [(ESCAPE_MEMBER, ESCAPE_T)]
    failed = ~np.isfinite(ref.x).all(axis=1)
    assert np.flatnonzero(failed).tolist() == [ESCAPE_MEMBER]
    for series in (ref.x, ref.p, ref.drive):
        assert np.isnan(series[ESCAPE_MEMBER]).all()
        assert np.isfinite(series[~failed]).all()
    for workers in (2, 4):
        pin_cpus(workers)
        _same(ref, sl.run_ensemble(cfg))


def test_escaped_member_alone_matches_its_row_and_time(pin_cpus):
    # each member integrated on its own, as a single trajectory: the escape
    # time of member 34 and the rows of its neighbours in the same share
    cfg = _escape_config()
    pin_cpus(2)
    report = sl.run_ensemble(cfg)
    stride = cfg.decimate_stride
    for member in (ESCAPE_MEMBER - 1, ESCAPE_MEMBER, ESCAPE_MEMBER + 1):
        realization = sl.sample_realization(cfg.mode_set,
                                            ensemble._member_seed(cfg, member))
        x0, p0 = ensemble._member_ic(cfg, member)
        args = (cfg.scales, cfg.force, realization, x0, p0, cfg.t_span, cfg.dt, stride)
        if member == ESCAPE_MEMBER:
            with pytest.raises(sl.EscapeError) as exc:
                sl.integrate_trajectory(*args)
            assert exc.value.t_fail == ESCAPE_T
        else:
            alone = sl.integrate_trajectory(*args)
            assert np.array_equal(alone.x, report.x[member])
            assert np.array_equal(alone.p, report.p[member])
            assert np.array_equal(alone.drive, report.drive[member])


def test_error_in_a_worker_reaches_the_caller(monkeypatch, pin_cpus):
    parent = os.getpid()
    rk4_core = ensemble.rk4_core

    def escaping_outside_the_parent(*args, **kwargs):
        if os.getpid() == parent:
            return rk4_core(*args, **kwargs)
        raise sl.EscapeError(f"escape in process {os.getpid()}", t_fail=3.5, x=9.25)

    # patched before the pool forks, so the workers inherit it
    monkeypatch.setattr(ensemble, "rk4_core", escaping_outside_the_parent)
    pin_cpus(2)
    with pytest.raises(sl.EscapeError) as exc:
        sl.run_ensemble(_quartic_config())
    assert (exc.value.t_fail, exc.value.x) == (3.5, 9.25)
    assert str(exc.value).startswith("escape in process")


def test_without_fork_the_run_stays_in_process(monkeypatch, pin_cpus):
    import multiprocessing

    cfg = _quartic_config()
    pin_cpus(1)
    ref = sl.run_ensemble(cfg)
    monkeypatch.setattr(multiprocessing, "get_all_start_methods", lambda: ["spawn"])
    assert not pool._can_fork()
    pin_cpus(2)
    _same(ref, sl.run_ensemble(cfg))
