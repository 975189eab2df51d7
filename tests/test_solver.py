import math
import tracemalloc

import numpy as np
import numpy.testing as npt
import pytest
import scipy.sparse as sp
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.linalg import expm
from scipy.sparse.csgraph import connected_components

from magnonwalk import model, solver
from magnonwalk.errors import NumericalFailureError


@pytest.fixture(scope="module")
def small():
    """Reduced system (fock 6) keeps superoperators 144x144."""
    p = model.preset("base", fock_dim=6, alpha=1.0 + 0.0j)
    d = model.derive(p)
    return p, d


def _density(psi):
    return np.outer(psi, psi.conj())


def _vec_liouvillian(H, diss):
    """The complex Liouvillian on column-stacked vec(rho), built densely
    with np.kron from the master equation: the oracle that the solver's
    real generator and step matrices are mapped back to."""
    eye = np.eye(len(H))
    L = -1j * (np.kron(eye, H) - np.kron(H.T, eye))
    for rate, x in diss.channels:
        xdx = x.conj().T @ x
        L = L + rate * (
            np.kron(x.conj(), x) - 0.5 * (np.kron(eye, xdx) + np.kron(xdx.T, eye))
        )
    return L


def _generators(p, drive_on):
    """The solver's real generator R and the oracle's complex L."""
    d = model.derive(p)
    H = model.hamiltonian_rotframe(p, d, drive_on)
    diss = model.dissipators(p)
    return solver.liouvillian(H, diss), _vec_liouvillian(H, diss)


def _dense(P):
    """A step matrix from the list of (indices, block) pairs, as one dense
    array."""
    n = sum(len(idx) for idx, _ in P)
    D = np.zeros((n, n))
    for idx, block in P:
        D[np.ix_(idx, idx)] = block
    return D


def _vec_step(P):
    """A real step matrix in column-stacked vec coordinates: S^dag P S."""
    S = solver._hermitian_basis(sum(len(idx) for idx, _ in P))
    return (S.conj().T @ sp.csr_matrix(_dense(P)) @ S).toarray()


def _coordinates(rho):
    """The real Hermitian coordinates x = S vec(rho) and S^dag."""
    S = solver._hermitian_basis(rho.size)
    return (S @ solver.vec(rho)).real, sp.csr_matrix(S.conj().T)


class TestLiouvillian:
    def test_diagonal_hamiltonian_gives_diagonal_liouvillian(self):
        h = np.diag([0.0, 1.0, 3.5]).astype(complex)
        R = solver.liouvillian(h, model.DissipatorSpec(channels=()))
        assert R.dtype == np.float64
        S = solver._hermitian_basis(9)
        L = (S.conj().T @ R @ S).toarray()
        npt.assert_allclose(L, np.diag(np.diag(L)), atol=1e-14)
        # entries -i (H_jj - H_kk) at vec index (k-major, j-minor)
        expected = np.array(
            [-1j * (h[j, j] - h[k, k]) for k in range(3) for j in range(3)]
        )
        npt.assert_allclose(np.diag(L), expected, atol=1e-14)

    def test_vacuum_is_steady_under_decay(self):
        dim = 5
        c = model.annihilation(dim)
        spec = model.DissipatorSpec(channels=((0.3, c),))
        R = solver.liouvillian(np.zeros((dim, dim), dtype=complex), spec)
        vac = _density(np.eye(dim, dtype=complex)[0])
        npt.assert_allclose(R @ _coordinates(vac)[0], 0, atol=1e-14)

    def test_trace_vector_annihilation_base_preset(self):
        # Tr rho is the sum of the diagonal coordinates, which are the
        # coordinates of the identity
        p = model.preset("base")
        R = _generators(p, True)[0]
        trace_vec = _coordinates(np.eye(2 * p.fock_dim))[0]
        assert np.linalg.norm(trace_vec @ R) < 1e-10

    def test_dimension_mismatch(self):
        c = model.annihilation(4)
        spec = model.DissipatorSpec(channels=((0.1, c),))
        with pytest.raises(Exception):
            solver.liouvillian(np.zeros((6, 6), dtype=complex), spec)


def _excitation_difference(fock_dim):
    """k = N_row - N_col for every column-stacked vec index, where
    N = c^dag c + |e><e| on the qubit (x) boson space."""
    n_exc = np.diag(
        np.kron(np.eye(2), np.diag(np.arange(fock_dim)))
        + np.kron(model.RAISE @ model.LOWER, np.eye(fock_dim))
    ).real.round().astype(int)
    return np.subtract.outer(n_exc, n_exc).reshape(-1, order="F")


def _small_generators(fock_dim, rates, drive_on):
    """(R, L) of the base preset at a small cutoff with the given
    (gamma1, gamma_phi, Gamma)."""
    gamma1, gamma_phi, Gamma = rates
    p = model.preset(
        "base",
        fock_dim=fock_dim,
        alpha=1.0 + 0.0j,
        gamma1=gamma1,
        gamma_phi=gamma_phi,
        Gamma=Gamma,
    )
    return _generators(p, drive_on)


def _random_density(dim, seed, rank=None):
    g = np.random.default_rng(seed).normal(size=(dim, rank or dim, 2)) @ [1.0, 1j]
    rho = g @ g.conj().T
    return rho / np.trace(rho).real


def _rk4_loop(v, L, dt, dt_max):
    """Fixed-step RK4 as a loop over the sub-steps: the oracle for the
    powered step matrix."""
    n_sub = max(1, math.ceil(dt / dt_max))
    h = dt / n_sub
    for _ in range(n_sub):
        k1 = L @ v
        k2 = L @ (v + 0.5 * h * k1)
        k3 = L @ (v + 0.5 * h * k2)
        k4 = L @ (v + h * k3)
        v = v + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
    return v


_rates = st.tuples(*[st.one_of(st.just(0.0), st.floats(1e-4, 0.05)) for _ in range(3)])


class TestBlockwisePropagator:
    @pytest.mark.parametrize("drive_on", [True, False])
    @pytest.mark.parametrize("name", ["base", "realistic"])
    def test_matches_dense_expm(self, name, drive_on):
        p = model.preset(name)
        d = model.derive(p)
        R, L = _generators(p, drive_on)
        dt = (d.t_H if drive_on else d.t_p - d.t_H) / 10
        P = solver.propagator(R, dt)
        assert np.max(np.abs(_vec_step(P) - expm(L * dt))) <= 1e-12

        if drive_on:
            assert len(P) == 1
            return
        assert len(P) >= p.fock_dim + 1
        k = _excitation_difference(p.fock_dim)
        S = solver._hermitian_basis(len(L))
        for idx, _ in P:
            # the vec entries a block's coordinates are made of share one |k|
            vec_entries = np.unique(S[idx].indices)
            assert len(np.unique(np.abs(k[vec_entries]))) == 1

    @settings(max_examples=30, deadline=None)
    @given(
        fock_dim=st.integers(3, 6),
        rates=_rates,
        drive_on=st.booleans(),
        dt=st.floats(1e-3, 3.0),
    )
    def test_random_parameters(self, fock_dim, rates, drive_on, dt):
        R, L = _small_generators(fock_dim, rates, drive_on)
        P = _vec_step(solver.propagator(R, dt))
        assert np.max(np.abs(P - expm(L * dt))) <= 1e-12
        trace_vec = solver.vec(np.eye(2 * fock_dim))
        assert np.max(np.abs(trace_vec @ P - trace_vec)) <= 1e-12


class TestRK4StepMatrix:
    @settings(max_examples=30, deadline=None)
    @given(
        fock_dim=st.integers(3, 6),
        rates=_rates,
        drive_on=st.booleans(),
        dt=st.floats(1e-3, 3.0),
        h_frac=st.floats(0.0, 1.0),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_matches_substep_loop(self, fock_dim, rates, drive_on, dt, h_frac, seed):
        R, L = _small_generators(fock_dim, rates, drive_on)
        # dt_max log-uniform between dt/2000 (at most ~2000 sub-steps) and
        # the accurate regime h ||L||_1 <= 1
        lo = dt / 2000
        hi = min(dt, 1.0 / np.abs(L).sum(axis=0).max())
        dt_max = lo * (hi / lo) ** h_frac
        P = _vec_step(solver.rk4_propagator(R, dt, dt_max))
        v = solver.vec(_random_density(2 * fock_dim, seed))
        assert np.max(np.abs(P @ v - _rk4_loop(v, L, dt, dt_max))) <= 1e-11
        trace_vec = solver.vec(np.eye(2 * fock_dim))
        assert np.max(np.abs(trace_vec @ P - trace_vec)) <= 1e-12


class TestStepMatrixProperties:
    """Invariants of the raw step P @ vec(rho), before _condition repairs
    anything, over small random parameters."""

    @settings(max_examples=30, deadline=None)
    @given(
        fock_dim=st.integers(3, 6),
        rates=_rates,
        drive_on=st.booleans(),
        dt=st.floats(1e-3, 3.0),
        seed=st.integers(0, 2**32 - 1),
        rank=st.integers(1, 6),
    )
    def test_hermitian_and_positive(self, fock_dim, rates, drive_on, dt, seed, rank):
        # a low-rank state starts on the boundary of positivity.  RK4 at the
        # default dt_max powers its step matrix up to ~3e5 sub-steps, and
        # the Hermiticity defect grows to ~1e-12 by rounding
        R, _ = _small_generators(fock_dim, rates, drive_on)
        dim = 2 * fock_dim
        v = solver.vec(_random_density(dim, seed, rank))
        for build in (solver.propagator, solver.rk4_propagator):
            rho = solver.unvec(_vec_step(build(R, dt)) @ v, dim)
            assert np.max(np.abs(rho - rho.conj().T)) <= 1e-10
            if build is solver.propagator:
                assert np.linalg.eigvalsh(rho)[0] >= -1e-10

    @settings(max_examples=30, deadline=None)
    @given(
        fock_dim=st.integers(3, 6),
        rates=_rates,
        drive_on=st.booleans(),
        t1=st.floats(1e-3, 3.0),
        t2=st.floats(1e-3, 3.0),
    )
    def test_semigroup(self, fock_dim, rates, drive_on, t1, t2):
        R, _ = _small_generators(fock_dim, rates, drive_on)
        both = _dense(solver.propagator(R, t1 + t2))
        split = _dense(solver.propagator(R, t2)) @ _dense(solver.propagator(R, t1))
        assert np.max(np.abs(both - split)) <= 1e-10


def _single_segment(duration):
    """A one-segment schedule: a single interval of constant generator."""
    return model.PulseSchedule((model.Segment(1, 0.0, duration, False),))


class TestPropagate:
    """Propagation through evolve, the one driver of the state."""

    def test_closed_system_conserves_purity_and_energy(self, small):
        p, d = small
        h = model.hamiltonian_rotframe(p, d, True)
        rho = model.initial_state(p)
        e0 = np.trace(rho @ h).real
        traj = solver.evolve(
            _single_segment(d.t_p), rho, h, h, model.DissipatorSpec(channels=()),
            samples_per_segment=4,
        )
        rho = traj.snapshots[0][2]
        assert np.trace(rho @ rho).real == pytest.approx(1.0, abs=1e-8)
        assert np.trace(rho @ h).real == pytest.approx(e0, abs=1e-8 * abs(e0))

    def test_every_method_has_a_builder(self):
        for method in solver.METHODS:
            assert callable(solver._builder(method, 1e-3))

    def test_builder_looks_up_propagator_when_called(self, monkeypatch):
        # a wrapper installed in place of solver.propagator must be used
        def wrapped(L, dt):
            raise AssertionError("not called here")

        monkeypatch.setattr(solver, "propagator", wrapped)
        assert solver._builder("expm", 1e-3) is wrapped

    def test_unknown_method(self, small):
        p, d = small
        h = model.hamiltonian_rotframe(p, d, False)
        with pytest.raises(ValueError, match="euler"):
            solver.evolve(
                _single_segment(1.0), model.initial_state(p), h, h,
                model.dissipators(p), method="euler",
            )

    def test_overflowing_step_matrix_names_segment(self):
        # R dt beyond the float range, under the command's floating-point
        # policy: evolve names the segment whose step matrix overflowed
        h = 1e300 * np.kron(model.SIGMA_Z, np.eye(2))
        rho = _density(np.kron(np.array([1.0, 1.0]) / np.sqrt(2.0), [1.0, 0.0]))
        with pytest.raises(
            NumericalFailureError, match=r"segment 0 \(step 1\): overflow"
        ), np.errstate(over="raise", invalid="raise"):
            solver.evolve(_single_segment(1e10), rho, h, h,
                          model.DissipatorSpec(channels=()), samples_per_segment=1)

    def test_positivity_failure_detected(self):
        # an anti-Lindblad channel (negative rate) on the qubit (x) mode
        # space blows positivity
        dim = 3
        c = np.kron(np.eye(2), model.annihilation(dim))
        qubit = np.array([1.0, 0.0])
        rho = _density(np.kron(qubit, model.coherent_state(0.7, dim)))
        h = np.zeros((2 * dim, 2 * dim), dtype=complex)
        with pytest.raises(NumericalFailureError, match="segment 0"):
            solver.evolve(
                _single_segment(100.0), rho, h, h,
                model.DissipatorSpec(channels=((-1.0, c),)),
                samples_per_segment=50,
            )


class TestEvolve:
    def test_empty_schedule_keeps_initial_sample(self, small):
        p, d = small
        sched = model.pulse_schedule(model.preset("base", fock_dim=6, alpha=1.0, n_steps=0), d)
        traj = solver.evolve(
            sched,
            model.initial_state(p),
            model.hamiltonian_rotframe(p, d, True),
            model.hamiltonian_rotframe(p, d, False),
            model.dissipators(p),
        )
        assert len(traj.times) == 1
        assert traj.times[0] == 0.0
        assert traj.snapshots == []

    def test_trajectory_structure(self, small):
        p2 = model.preset("base", fock_dim=6, alpha=1.0, n_steps=3)
        d = model.derive(p2)
        sched = model.pulse_schedule(p2, d)
        traj = solver.evolve(
            sched,
            model.initial_state(p2),
            model.hamiltonian_rotframe(p2, d, True),
            model.hamiltonian_rotframe(p2, d, False),
            model.dissipators(p2),
            samples_per_segment=4,
        )
        assert len(traj.times) == 1 + 2 * 3 * 4
        assert np.all(np.diff(traj.times) > 0)
        assert [s[0] for s in traj.snapshots] == [1, 2, 3]
        npt.assert_allclose(
            [s[1] for s in traj.snapshots], [d.t_p, 2 * d.t_p, 3 * d.t_p], rtol=1e-12
        )
        assert np.all(traj.trace_err < 1e-8)

    def test_populations_sum_to_one(self, small):
        p2 = model.preset("base", fock_dim=6, alpha=1.0, n_steps=2)
        d = model.derive(p2)
        sched = model.pulse_schedule(p2, d)
        traj = solver.evolve(
            sched,
            model.initial_state(p2),
            model.hamiltonian_rotframe(p2, d, True),
            model.hamiltonian_rotframe(p2, d, False),
            model.dissipators(p2),
            samples_per_segment=3,
        )
        npt.assert_allclose(traj.p_e + traj.p_g, 1.0, atol=1e-9)

    def test_snapshots_hermitian_positive(self, small):
        p2 = model.preset("base", fock_dim=6, alpha=1.0, n_steps=2)
        d = model.derive(p2)
        sched = model.pulse_schedule(p2, d)
        traj = solver.evolve(
            sched,
            model.initial_state(p2),
            model.hamiltonian_rotframe(p2, d, True),
            model.hamiltonian_rotframe(p2, d, False),
            model.dissipators(p2),
        )
        for _, _, rho in traj.snapshots:
            assert np.linalg.norm(rho - rho.conj().T) < 1e-10
            assert np.linalg.eigvalsh(rho)[0] >= -1e-7

    def test_rk4_matches_expm_trajectory(self, small):
        p2 = model.preset("base", fock_dim=6, alpha=1.0, n_steps=1)
        d = model.derive(p2)
        sched = model.pulse_schedule(p2, d)
        args = (
            model.initial_state(p2),
            model.hamiltonian_rotframe(p2, d, True),
            model.hamiltonian_rotframe(p2, d, False),
            model.dissipators(p2),
        )
        t_a = solver.evolve(sched, *args, samples_per_segment=2, method="expm")
        t_b = solver.evolve(
            sched, *args, samples_per_segment=2, method="rk4", dt_max=1e-4
        )
        diff = np.abs(t_a.snapshots[0][2] - t_b.snapshots[0][2])
        assert diff.max() < 1e-7
        assert t_b.propagators == t_a.propagators


class TestHealth:
    def test_condition_reports_drift_before_repair(self):
        rho = np.diag([0.66, 0.44]).astype(complex)  # trace 1.1
        _, out, drift, min_eig = solver._condition(*_coordinates(rho))
        assert drift == pytest.approx(0.1, abs=1e-15)
        assert np.trace(out).real == pytest.approx(1.0, abs=1e-15)
        assert min_eig == pytest.approx(0.4, abs=1e-15)

    def test_condition_leaves_small_drift_alone(self):
        rho = np.diag([0.5 + 4e-11, 0.5]).astype(complex)
        _, out, drift, _ = solver._condition(*_coordinates(rho))
        assert drift == pytest.approx(4e-11, rel=1e-4)
        npt.assert_array_equal(out, rho)

    def test_condition_rejects_non_finite_coordinate(self):
        # an off-diagonal coordinate: the trace alone would not show it
        x, S_dag = _coordinates(np.diag([0.5, 0.5]).astype(complex))
        x[1] = np.nan
        with pytest.raises(NumericalFailureError, match="non-finite"):
            solver._condition(x, S_dag)

    def test_condition_rejects_collapsed_trace(self):
        # a trace below 1e-6 is not renormalized but reported
        x, S_dag = _coordinates(np.diag([1e-8, 0.0]).astype(complex))
        with pytest.raises(NumericalFailureError, match="state trace collapsed"):
            solver._condition(x, S_dag)

    def test_evolve_names_segment_of_collapsed_trace(self, small, monkeypatch):
        # a step matrix that scales the state by 1e-9 collapses the trace in
        # the first step; evolve looks the builder up at call time
        p, d = small
        n = (2 * p.fock_dim) ** 2
        monkeypatch.setattr(
            solver, "propagator", lambda R, dt: [(np.arange(n), 1e-9 * np.eye(n))]
        )
        h = model.hamiltonian_rotframe(p, d, False)
        with pytest.raises(
            NumericalFailureError,
            match=r"segment 0 \(step 1\): state trace collapsed",
        ):
            solver.evolve(_single_segment(1.0), model.initial_state(p), h, h,
                          model.dissipators(p), samples_per_segment=2)

    def test_evolve_reports_drifted_initial_state(self, small):
        p2 = model.preset("base", fock_dim=6, alpha=1.0, n_steps=1)
        d = model.derive(p2)
        traj = solver.evolve(
            model.pulse_schedule(p2, d),
            1.01 * model.initial_state(p2),
            model.hamiltonian_rotframe(p2, d, True),
            model.hamiltonian_rotframe(p2, d, False),
            model.dissipators(p2),
            samples_per_segment=2,
        )
        assert traj.trace_err[0] == pytest.approx(0.01, abs=1e-12)
        assert np.all(traj.trace_err[1:] < 1e-12)
        health = traj.health()
        assert health["max_trace_drift"] == traj.trace_err[0]
        assert health["renormalizations"] == 1
        assert health["min_eigenvalue"] == traj.min_eig.min()
        assert -1e-12 < health["min_eigenvalue"] < 1e-12  # a pure state
        assert len(traj.min_eig) == len(traj.times)

    def test_top_fock_population_of_initial_state(self, small):
        p, d = small
        p0 = model.preset("base", fock_dim=6, alpha=1.0, n_steps=0)
        traj = solver.evolve(
            model.pulse_schedule(p0, d),
            model.initial_state(p),
            model.hamiltonian_rotframe(p, d, True),
            model.hamiltonian_rotframe(p, d, False),
            model.dissipators(p),
        )
        expected = abs(model.coherent_state(p.alpha, p.fock_dim)[-1]) ** 2
        assert traj.top_fock.shape == (1,)
        assert traj.health()["max_top_fock_population"] == pytest.approx(
            expected, rel=1e-12
        )


def _longdouble_expm(A):
    """exp(A) by a Taylor series with scaling and squaring in np.longdouble:
    an oracle for the double-precision Padé kernel."""
    A = np.asarray(A, dtype=np.longdouble)
    s = max(0, math.ceil(math.log2(float(np.abs(A).sum(axis=0).max()) / 0.5)))
    A = A / np.longdouble(2) ** s
    E = np.eye(len(A), dtype=np.longdouble)
    term = E.copy()
    for k in range(1, 60):
        term = term @ A / k
        E += term
        if np.abs(term).max() < 1e-30:
            break
    for _ in range(s):
        E = E @ E
    return E


class TestRealCoordinates:
    def test_hermitian_basis_is_unitary_and_real_on_hermitian_states(self):
        dim = 5
        S = solver._hermitian_basis(dim * dim)
        npt.assert_allclose((S @ S.conj().T).toarray(), np.eye(dim * dim), atol=1e-15)
        assert np.diff(S.indptr).max() == 2
        rho = _random_density(dim, seed=3)
        x = S @ solver.vec(rho + rho.conj().T)  # exactly Hermitian
        assert np.abs(x.imag).max() == 0.0

    @pytest.mark.parametrize("drive_on", [True, False])
    def test_generator_is_real(self, drive_on):
        R, L = _small_generators(5, (0.01, 0.02, 0.03), drive_on)
        S = solver._hermitian_basis(L.shape[0])
        assert sp.isspmatrix_csr(R) and R.dtype == np.float64
        npt.assert_allclose((S.conj().T @ R @ S).toarray(), L, rtol=0, atol=1e-13)

    def test_rejects_generator_that_breaks_hermiticity(self):
        # -i[H, rho] of a non-Hermitian H leaves the Hermitian matrices
        h = np.array([[0.0, 1.0], [0.0, 0.0]], dtype=complex)
        with pytest.raises(ValueError, match="Hermiticity"):
            solver.liouvillian(h, model.DissipatorSpec(channels=()))
        # a complex operand is no real generator
        eye = sp.identity(16, dtype=complex, format="csr")
        for build in (solver.propagator, solver.rk4_propagator):
            with pytest.raises(ValueError, match="real generator"):
                build(1j * eye, 1.0)

    def test_drive_off_blocks_merge_k_and_minus_k(self):
        # cutoff 17: k in -17..17 gives 35 sectors, |k| gives 18 real blocks
        p = model.preset("base")
        R = _generators(p, False)[0]
        blocks = solver._blockwise(R, lambda A: A.toarray())
        assert len(blocks) == 18 and max(len(idx) for idx, _ in blocks) == 128
        # the blocks partition the coordinates and hold every entry of R
        npt.assert_array_equal(np.sort(np.concatenate([i for i, _ in blocks])),
                               np.arange(R.shape[0]))
        npt.assert_array_equal(_dense(blocks), R.toarray())
        k = _excitation_difference(p.fock_dim)
        S = solver._hermitian_basis(R.shape[0])
        for idx, _ in blocks:
            assert len(np.unique(np.abs(k[np.unique(S[idx].indices)]))) == 1

    def test_drive_off_step_matrix_stores_only_blocks(self):
        # the step matrix is one dense float64 block per block of R, at
        # ascending indices: 100,104 entries at cutoff 17
        p = model.preset("base")
        d = model.derive(p)
        R = _generators(p, False)[0]
        P = solver.propagator(R, (d.t_p - d.t_H) / 10)
        for idx, block in P:
            assert np.all(np.diff(idx) > 0)
            assert block.dtype == np.float64 and block.shape == (len(idx), len(idx))
        assert sum(block.size for _, block in P) == 100_104

    @settings(max_examples=20, deadline=None)
    @given(fock_dim=st.integers(3, 6), rates=_rates, drive_on=st.booleans())
    def test_blocks_read_off_step_matrix(self, fock_dim, rates, drive_on):
        # both builders split R into the connected components of its
        # sparsity pattern, which evolve reads off the step matrix
        R, _ = _small_generators(fock_dim, rates, drive_on)
        n_comp, labels = connected_components(abs(R), directed=False)
        want = sorted(tuple(np.flatnonzero(labels == c)) for c in range(n_comp))
        for P in (solver.propagator(R, 0.1), solver.rk4_propagator(R, 0.1, 1e-2)):
            assert sorted(tuple(idx) for idx, _ in P) == want

    def test_drive_on_exponential_peak_memory(self):
        # the 1156 x 1156 drive-on exponential of base keeps at most five
        # dense float64 operands alive at once, plus the sparse A and the
        # stored entries of A^2
        p = model.preset("base")
        d = model.derive(p)
        R = solver.liouvillian(
            model.hamiltonian_rotframe(p, d, True), model.dissipators(p)
        )
        tracemalloc.start()
        try:
            solver.propagator(R, d.t_H / 10)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        n = R.shape[0]
        assert peak <= 5.5 * n * n * 8

    @pytest.mark.parametrize("fock_dim", [6, 9])
    def test_pade_kernel_matches_longdouble_taylor(self, fock_dim):
        # the real drive-on generator over one sample interval of a run
        p = model.preset("base", fock_dim=fock_dim, alpha=1.0 + 0.0j)
        d = model.derive(p)
        R = solver.liouvillian(
            model.hamiltonian_rotframe(p, d, True), model.dissipators(p)
        )
        R = (R * (d.t_H / 10)).toarray()
        err = np.abs(solver._expm_pade13(R) - _longdouble_expm(R)).max()
        assert err <= 1e-13

    def test_pade_kernel_index_form(self):
        # A^2 enters the Padé sums by its stored entries.  An operand
        # stored with duplicate (same- and opposite-sign halves, exact in
        # binary) and explicit-zero entries, rows unsorted, has the
        # exponential of its canonical form, bit for bit
        p = model.preset("base", fock_dim=4, alpha=1.0 + 0.0j)
        d = model.derive(p)
        R = solver.liouvillian(
            model.hamiltonian_rotframe(p, d, True), model.dissipators(p)
        )
        canon = sp.csr_matrix((R * (d.t_H / 10)).toarray())
        coo = canon.tocoo()
        r, c, v = coo.row, coo.col, coo.data
        half = np.arange(len(v)) % 2 == 0
        rows = np.concatenate((r[half], r[half], r[~half], r[~half], np.arange(5)))
        cols = np.concatenate((c[half], c[half], c[~half], c[~half], 4 - np.arange(5)))
        vals = np.concatenate((v[half] / 2, v[half] / 2, 2 * v[~half], -v[~half],
                               np.zeros(5)))
        order = np.random.default_rng(0).permutation(len(vals))
        order = order[np.argsort(rows[order], kind="stable")]  # rows shuffled
        indptr = np.searchsorted(rows[order], np.arange(canon.shape[0] + 1))
        stored = sp.csr_matrix((vals[order], cols[order], indptr), shape=canon.shape)
        assert stored.nnz == 2 * canon.nnz + 5 and not stored.has_canonical_format
        E = solver._expm_pade13(stored)
        assert E.tobytes() == solver._expm_pade13(canon).tobytes()
        assert np.abs(E - _longdouble_expm(canon.toarray())).max() <= 1e-13

    def test_pade_kernel_rejects_non_finite_operand(self):
        A = np.zeros((3, 3))
        A[0, 1] = np.inf
        with pytest.raises(NumericalFailureError, match="1-norm inf"):
            solver._expm_pade13(A)

    def test_pade_kernel_of_zero_is_identity(self):
        # norm 0 takes no log2 and no squaring
        E = solver._expm_pade13(np.zeros((3, 3)))
        npt.assert_allclose(E, np.eye(3), rtol=0, atol=2e-16)


@st.composite
def _csr_patterns(draw):
    """A real n x n CSR matrix, n <= 60, whose stored entries are random
    one-directional edges (zero values included), optionally plus a path
    through all n nodes in random order: the longest diameter, so the
    most passes of the label search."""
    n = draw(st.integers(1, 60))
    node = st.integers(0, n - 1)
    edges = draw(st.lists(st.tuples(node, node), max_size=2 * n))
    if draw(st.booleans()):
        path = draw(st.permutations(range(n)))
        edges += list(zip(path[:-1], path[1:]))
    values = draw(st.lists(st.floats(-2.0, 2.0), min_size=len(edges),
                           max_size=len(edges)))
    rows, cols = np.array(edges, dtype=int).reshape(-1, 2).T
    return sp.csr_matrix((np.array(values, dtype=float), (rows, cols)), shape=(n, n))


def _permuted_path(n, seed):
    path = np.random.default_rng(seed).permutation(n)
    return sp.csr_matrix((np.ones(n - 1), (path[:-1], path[1:])), shape=(n, n))


class TestComponentSearch:
    @settings(max_examples=200, deadline=None)
    @given(R=_csr_patterns())
    @example(R=sp.csr_matrix((7, 7)))  # all zero: every node its own block
    # isolated nodes and one-directional edges
    @example(R=sp.csr_matrix(([1.0, -3.0], ([0, 5], [3, 1])), shape=(8, 8)))
    @example(R=_permuted_path(60, seed=0))
    def test_matches_csgraph(self, R):
        # _blockwise's blocks are scipy's undirected connected components
        # of R's stored entries, in scipy's order
        n_comp, labels = connected_components(abs(R), directed=False)
        blocks = solver._blockwise(R, lambda A: A)
        assert len(blocks) == n_comp
        dense = R.toarray()
        for comp, (idx, block) in enumerate(blocks):
            npt.assert_array_equal(idx, np.flatnonzero(labels == comp))
            npt.assert_array_equal(block.toarray(), dense[np.ix_(idx, idx)])
