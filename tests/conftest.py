import multiprocessing

import numpy as np
import pytest

import sedlab as sl
from sedlab import pool

# One master seed for the big shared ensembles; any seed is valid, this one
# is fixed so the suite is reproducible end to end.  Distinct experiments use
# masters far apart: members draw field seeds from splitmix64(master XOR i),
# so masters that differ only in low bits share trajectory-seed blocks.
MASTER_SEED = 30260827
SEED_STRIDE = 10_000_019

REF_OMEGA_CUT = 20.0
REF_T_SPAN = 2000.0
REF_DT = 0.016
REF_BURN_IN = 500.0


@pytest.fixture(autouse=True)
def no_process_left_running():
    """Fail a test after which a child process is still alive."""
    yield
    left = multiprocessing.active_children()
    for child in left:
        child.terminate()
        child.join()
    if left:
        pytest.fail(f"child processes left running: {left}")


@pytest.fixture
def pin_cpus(monkeypatch):
    """pin_cpus(k): for the rest of the test, `pool.cpu_count()` reports k,
    so an ensemble or a correlation splits its work over k processes."""
    def pin(k: int):
        monkeypatch.setattr(pool, "cpu_count", lambda: k)

    return pin


@pytest.fixture(scope="session")
def ref_scales():
    return sl.REF


@pytest.fixture(scope="session")
def harmonic_force():
    return sl.harmonic(1.0)


@pytest.fixture(scope="session")
def ref_ensemble_report(ref_scales, harmonic_force):
    """The production-scale stationary ensemble shared across the suite:
    200 trajectories, T = 2000, ground-state preparation from rest."""
    config = sl.EnsembleConfig(
        scales=ref_scales,
        force=harmonic_force,
        omega_cut=REF_OMEGA_CUT,
        n_traj=200,
        master_seed=MASTER_SEED,
        t_span=REF_T_SPAN,
        dt=REF_DT,
        burn_in=REF_BURN_IN,
    )
    return sl.run_ensemble(config)


@pytest.fixture(scope="session")
def memory_report(ref_scales, harmonic_force):
    """Common-noise paired ensemble for the memory-loss experiment:
    50 pairs with x0 = +1 / -1, T = 1000."""
    config = sl.EnsembleConfig(
        scales=ref_scales,
        force=harmonic_force,
        omega_cut=REF_OMEGA_CUT,
        n_traj=50,
        master_seed=MASTER_SEED + SEED_STRIDE,
        t_span=1000.0,
        dt=REF_DT,
        burn_in=0.0,
        initial_conditions=sl.PairedIC(x0a=1.0, x0b=-1.0),
    )
    return sl.run_ensemble(config)


@pytest.fixture(scope="session")
def oscillator_tm(ref_scales):
    return sl.oscillator_matrices(ref_scales, 8)


@pytest.fixture(scope="session")
def quartic_tm(ref_scales):
    return sl.diagonalize_potential(ref_scales, sl.quartic(1.0, 0.1), 200)
