"""The BLAS thread policy of run_single, run_sweep, mc_validate and
modal_hs_distance.

A run whose largest dense matrix (the state covariance: n_dof rows, or
2 n_dof for a wave run) has at most linalg.SERIAL_BLAS_MAX_ROWS rows
runs on one OpenBLAS thread; a larger one keeps the caller's count. A
sweep decides once, from its reference, mc_validate from its scheme's
state rows, modal_hs_distance from the larger of its n_dof and mode
count, and the caller's count comes back however the run ends. Where
a scope puts OpenBLAS on one thread, it hands mc_validate's jackknife
one worker thread per core the process may use, else one. Most tests
swap the library lookup for a fake counter, so they run on any BLAS;
the last three use the OpenBLAS this process has loaded and are
skipped where the lookup finds none.
"""

import os

import numpy as np
import pytest

from spdecov import (
    AdvDiffConfig,
    Coefficients,
    Exponential,
    Matern,
    McConfig,
    Mesh1D,
    NumericalError,
    StudyConfig,
    WaveConfig,
    WhiteNoise,
    levels_from_exponents,
    mc_validate,
    run_single,
    run_sweep,
)
from spdecov import linalg, montecarlo, spectral
from spdecov import study as study_mod

CALLER_THREADS = 3


def _advdiff():
    # reference 32 Dirichlet cells: 31 state rows
    return StudyConfig(
        scheme=AdvDiffConfig(
            mesh=Mesh1D(32, "dirichlet"),
            coeffs=Coefficients.constant(a11=1.0),
            c0=0.0,
            kernel=WhiteNoise(),
            T=1.0,
            n_steps=1024,
        ),
        levels=levels_from_exponents([2, 3], "sqrt"),
    )


def _wave():
    # reference 16 cells: 15 degrees of freedom, 30 state rows
    return StudyConfig(
        scheme=WaveConfig(mesh=Mesh1D(16), kernel=Exponential(2.0), n_steps=16),
        levels=levels_from_exponents([2, 3], "equal"),
    )


STUDIES = {"advdiff": _advdiff, "wave": _wave}


class FakeBlas:
    """Stands in for the (get, set) pair that linalg._openblas finds."""

    def __init__(self, threads):
        self.threads = threads
        self.sets = []

    def get(self):
        return self.threads

    def set(self, threads):
        self.sets.append(threads)
        self.threads = threads


@pytest.fixture
def blas(monkeypatch):
    fake = FakeBlas(CALLER_THREADS)
    monkeypatch.setattr(linalg, "_openblas", lambda: (fake.get, fake.set))
    return fake


def _record_threads(
    monkeypatch,
    get,
    module=study_mod,
    names=("advdiff_run", "wave_run", "err_trace_norm", "err_hs_norm"),
):
    """Thread counts seen by the named calls: by default, every
    propagation run and error norm of a study."""
    seen = []
    for name in names:
        def recorded(*args, _fn=getattr(module, name), **kwargs):
            seen.append(get())
            return _fn(*args, **kwargs)

        monkeypatch.setattr(module, name, recorded)
    return seen


@pytest.mark.parametrize(
    "equation, bound, threads",
    [
        ("advdiff", 31, 1),
        ("advdiff", 30, CALLER_THREADS),
        ("wave", 30, 1),
        # 15 degrees of freedom fit under 29, the 30 state rows do not
        ("wave", 29, CALLER_THREADS),
    ],
)
def test_sweep_threads_follow_the_reference_rows(
    blas, monkeypatch, equation, bound, threads
):
    monkeypatch.setattr(linalg, "SERIAL_BLAS_MAX_ROWS", bound)
    seen = _record_threads(monkeypatch, blas.get)
    run_sweep(STUDIES[equation]())
    # every level is below the bound too, but the sweep decided once
    assert seen and set(seen) == {threads}
    assert blas.threads == CALLER_THREADS
    assert blas.sets == ([] if threads == CALLER_THREADS else [1, CALLER_THREADS])


@pytest.mark.parametrize("equation", STUDIES)
def test_run_single_threads_follow_its_own_rows(blas, monkeypatch, equation):
    monkeypatch.setattr(linalg, "SERIAL_BLAS_MAX_ROWS", 6)
    seen = _record_threads(monkeypatch, blas.get)
    st = STUDIES[equation]()
    run_single(st)
    # the coarsest level has 3 degrees of freedom: 3 or 6 state rows
    run_single(st, st.levels[0])
    assert seen == [CALLER_THREADS, 1]
    assert blas.threads == CALLER_THREADS


def test_callers_threads_restored_after_numerical_error(blas, monkeypatch):
    def fail(*args, **kwargs):
        assert blas.threads == 1
        raise NumericalError("injected")

    monkeypatch.setattr(study_mod, "err_hs_norm", fail)
    with pytest.raises(NumericalError, match="injected"):
        run_sweep(_advdiff())
    assert blas.threads == CALLER_THREADS
    assert blas.sets == [1, CALLER_THREADS]


@pytest.mark.parametrize(
    "n_modes, bound, threads",
    [
        (16, 16, 1),
        # the modes decide when they outnumber the 7 degrees of freedom
        (16, 15, CALLER_THREADS),
        (4, 7, 1),
        (4, 6, CALLER_THREADS),
    ],
)
def test_modal_hs_distance_threads_follow_its_larger_size(
    blas, monkeypatch, n_modes, bound, threads
):
    monkeypatch.setattr(linalg, "SERIAL_BLAS_MAX_ROWS", bound)
    seen = []

    def recorded(mesh, _fn=spectral.assemble_mass):
        seen.append(blas.get())
        return _fn(mesh)

    monkeypatch.setattr(spectral, "assemble_mass", recorded)
    mesh = Mesh1D(8, "dirichlet")
    d = spectral.modal_hs_distance(np.eye(7), mesh, np.ones(n_modes))
    assert d > 0.0
    assert seen == [threads]
    assert blas.threads == CALLER_THREADS
    assert blas.sets == ([] if threads == CALLER_THREADS else [1, CALLER_THREADS])


def _small_advdiff(**kw):
    # 8 Neumann cells: 9 state rows
    return AdvDiffConfig(
        mesh=Mesh1D(8, "neumann"),
        coeffs=Coefficients.constant(a11=1.0),
        c0=0.0,
        kernel=WhiteNoise(),
        T=0.5,
        n_steps=4,
        **kw,
    )


def _record_mc_threads(monkeypatch, get):
    """Thread counts seen by mc_validate's sampling and jackknife."""
    return _record_threads(
        monkeypatch, get, montecarlo, ("_batch_paths", "_jackknife_distances")
    )


@pytest.mark.parametrize(
    "equation, bound, threads",
    [
        ("advdiff", linalg.SERIAL_BLAS_MAX_ROWS, 1),
        ("wave", 30, 1),
        # 15 degrees of freedom fit under 29, the 30 state rows do not
        ("wave", 29, CALLER_THREADS),
    ],
)
def test_mc_validate_threads_follow_the_state_rows(
    blas, monkeypatch, equation, bound, threads
):
    monkeypatch.setattr(linalg, "SERIAL_BLAS_MAX_ROWS", bound)
    seen = _record_mc_threads(monkeypatch, blas.get)
    scheme = _small_advdiff() if equation == "advdiff" else _wave().scheme
    mc_validate(McConfig(scheme=scheme, n_samples=50, seed=1))
    assert seen == [threads, threads]
    assert blas.threads == CALLER_THREADS
    assert blas.sets == ([] if threads == CALLER_THREADS else [1, CALLER_THREADS])


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_callers_threads_restored_after_overflowing_sample(blas, monkeypatch):
    # the paths of K0 = 1e308 I are finite, their squares are not
    seen = _record_mc_threads(monkeypatch, blas.get)
    scheme = _small_advdiff(K0=1e308 * np.eye(9))
    with pytest.raises(NumericalError):
        mc_validate(McConfig(scheme=scheme, n_samples=50, seed=1))
    assert seen == [1]
    assert blas.threads == CALLER_THREADS
    assert blas.sets == [1, CALLER_THREADS]


CORES = len(os.sched_getaffinity(0))


def test_serial_scope_yields_one_worker_per_core(blas):
    with linalg._serial_blas(linalg.SERIAL_BLAS_MAX_ROWS) as workers:
        assert blas.threads == 1
        # a nested scope keeps the outer BLAS threads and adds no workers
        with linalg._serial_blas(1) as nested:
            assert nested == 1
    assert workers == CORES


def test_scope_above_the_bound_yields_one_worker(blas):
    with linalg._serial_blas(linalg.SERIAL_BLAS_MAX_ROWS + 1) as workers:
        assert blas.threads == CALLER_THREADS
    assert workers == 1


def test_scope_without_openblas_yields_one_worker(monkeypatch):
    monkeypatch.setattr(linalg, "_openblas", lambda: None)
    with linalg._serial_blas(1) as workers:
        pass
    assert workers == 1


@pytest.mark.parametrize(
    "bound, workers", [(linalg.SERIAL_BLAS_MAX_ROWS, CORES), (8, 1)]
)
def test_mc_validate_hands_the_workers_to_its_jackknife(
    blas, monkeypatch, bound, workers
):
    # the 9 state rows of the advdiff config fit under the bound or not
    monkeypatch.setattr(linalg, "SERIAL_BLAS_MAX_ROWS", bound)
    seen = []

    def spy(*args, _fn=montecarlo._jackknife_distances):
        seen.append(args[-1])
        return _fn(*args)

    monkeypatch.setattr(montecarlo, "_jackknife_distances", spy)
    mc_validate(McConfig(scheme=_small_advdiff(), n_samples=50, seed=1))
    assert seen == [workers]


REAL_BLAS = linalg._openblas()


@pytest.fixture
def real_blas():
    if REAL_BLAS is None:
        pytest.skip("no OpenBLAS found in this process")
    get, set_ = REAL_BLAS
    saved = get()
    set_(2)
    try:
        yield get
    finally:
        set_(saved)


def test_real_openblas_runs_small_sweeps_on_one_thread(real_blas, monkeypatch):
    seen = _record_threads(monkeypatch, real_blas)
    run_sweep(_advdiff())
    assert seen and set(seen) == {1}
    assert real_blas() == 2
    monkeypatch.setattr(linalg, "SERIAL_BLAS_MAX_ROWS", 30)
    seen.clear()
    run_sweep(_advdiff())
    assert seen and set(seen) == {2}


def test_no_openblas_is_a_no_op(real_blas, monkeypatch):
    # what a process without OpenBLAS (macOS, Windows, MKL) does: the
    # sweep runs at whatever count the library has
    expected = run_sweep(_advdiff())
    monkeypatch.setattr(linalg, "_openblas", lambda: None)
    seen = _record_threads(monkeypatch, real_blas)
    got = run_sweep(_advdiff())
    assert seen and set(seen) == {2}
    assert [r.err_L2 for r in got.rows] == pytest.approx(
        [r.err_L2 for r in expected.rows], rel=1e-9
    )


def test_sweep_above_the_bound_agrees_across_thread_counts(real_blas, monkeypatch):
    # with the policy off, the 254-row Matern sweep of test_one_lapack
    # is not bit-identical between 1 and 2 threads, but agrees to 1e-9
    monkeypatch.setattr(linalg, "SERIAL_BLAS_MAX_ROWS", 0)
    st = StudyConfig(
        scheme=WaveConfig(
            mesh=Mesh1D(128), kernel=Matern(sigma=10.0, nu=0.01, rho=0.1), n_steps=128
        ),
        levels=levels_from_exponents(range(1, 7), "equal"),
    )
    rows = []
    for threads in (1, 2):
        REAL_BLAS[1](threads)
        seen = _record_threads(monkeypatch, real_blas)
        rows.append(run_sweep(st).rows)
        assert set(seen) == {threads}
    for a, b in zip(*rows):
        assert [a.err_L1, a.err_L2] == pytest.approx(
            [b.err_L1, b.err_L2], rel=1e-9, abs=0
        )

