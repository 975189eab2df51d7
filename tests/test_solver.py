import math
import tracemalloc
import warnings
from fractions import Fraction

import numpy as np
import numpy.testing as npt
import pytest
import scipy.sparse as sp
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st
from scipy.linalg import expm
from scipy.sparse.csgraph import connected_components

from magnonwalk import model, solver
from magnonwalk.errors import (
    DispersiveRegimeWarning,
    InvalidParameterError,
    NumericalFailureError,
    ScheduleInfeasibleError,
)


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
    for rate, x in diss:
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


def _basis(n2):
    """The S of ``solver._hermitian_basis`` as a sparse matrix."""
    partner, own, other = solver._hermitian_basis(n2)
    v = np.arange(n2)
    rows, cols = np.concatenate((v, v)), np.concatenate((v, partner))
    return sp.csr_matrix((np.concatenate((own, other)), (rows, cols)), shape=(n2, n2))


def _csr(R):
    """A ``solver.Generator`` as a sparse matrix of its entries."""
    return sp.csr_matrix((R.vals, (R.rows, R.cols)), shape=R.shape)


def _generator(n, rows, cols, vals):
    """A ``solver.Generator`` of the given entries, put in row-major order."""
    order = np.lexsort((cols, rows))
    return solver.Generator(n, np.asarray(rows, dtype=np.intp)[order],
                            np.asarray(cols, dtype=np.intp)[order],
                            np.asarray(vals, dtype=float)[order])


def _vec_form(R):
    """A real matrix in column-stacked vec coordinates: S^dag R S."""
    S = _basis(R.shape[0])
    return (S.conj().T @ sp.csr_matrix(R) @ S).toarray()


def _vec_step(P):
    """A real step matrix in column-stacked vec coordinates: S^dag P S."""
    return _vec_form(_dense(P))


def _coordinates(rho):
    """The real Hermitian coordinates x = S vec(rho), and S^dag as the
    (partner, a, b) of vec(rho) = a x + b x[partner] that ``_condition``
    takes."""
    partner, own, other = solver._hermitian_basis(rho.size)
    x = (_basis(rho.size) @ solver.vec(rho)).real
    return x, (partner, own.conj(), other[partner].conj())


class TestLiouvillian:
    def test_diagonal_hamiltonian_gives_diagonal_liouvillian(self):
        h = np.diag([0.0, 1.0, 3.5]).astype(complex)
        R = solver.liouvillian(h, ())
        assert R.vals.dtype == np.float64
        L = _vec_form(_csr(R))
        npt.assert_allclose(L, np.diag(np.diag(L)), atol=1e-14)
        # entries -i (H_jj - H_kk) at vec index (k-major, j-minor)
        expected = np.array(
            [-1j * (h[j, j] - h[k, k]) for k in range(3) for j in range(3)]
        )
        npt.assert_allclose(np.diag(L), expected, atol=1e-14)

    def test_vacuum_is_steady_under_decay(self):
        dim = 5
        c = model.annihilation(dim)
        channels = ((0.3, c),)
        R = solver.liouvillian(np.zeros((dim, dim), dtype=complex), channels)
        vac = _density(np.eye(dim, dtype=complex)[0])
        npt.assert_allclose(np.asarray(R) @ _coordinates(vac)[0], 0, atol=1e-14)

    def test_trace_vector_annihilation_base_preset(self):
        # Tr rho is the sum of the diagonal coordinates, which are the
        # coordinates of the identity
        p = model.preset("base")
        R = _generators(p, True)[0]
        trace_vec = _coordinates(np.eye(2 * p.fock_dim))[0]
        assert np.linalg.norm(trace_vec @ np.asarray(R)) < 1e-10

    @pytest.mark.parametrize("drive_on", [True, False])
    def test_rejects_non_finite_generator(self, drive_on):
        # under numpy's defaults nu_q = 2e307 leaves NaN in S L S^dag
        # (inf - inf), which the Hermiticity check, a comparison, lets pass
        p = model.preset("base", fock_dim=3, alpha=1.0, m_phase=8, nu_q=2e307)
        with np.errstate(over="ignore", invalid="ignore"):
            H = model.hamiltonian_rotframe(p, model.derive(p), drive_on)
            with pytest.raises(NumericalFailureError, match="non-finite"):
                solver.liouvillian(H, model.dissipators(p))

    def test_dimension_mismatch(self):
        c = model.annihilation(4)
        channels = ((0.1, c),)
        with pytest.raises(Exception):
            solver.liouvillian(np.zeros((6, 6), dtype=complex), channels)


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


def _rk4_loop(v, L, dt, n):
    """Fixed-step RK4 as a loop over n sub-steps: the oracle for the
    powered step matrix."""
    h = dt / n
    for _ in range(n):
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
        S = _basis(len(L))
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
        n_frac=st.floats(0.0, 1.0),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_matches_substep_loop(
        self, rk4_propagator, fock_dim, rates, drive_on, n_frac, seed
    ):
        R, L = _small_generators(fock_dim, rates, drive_on)
        # the oracle takes n = max(1, ceil(||R dt||_1 / 0.004)) sub-steps;
        # dt is drawn so that n is log-uniform over 1..2000
        norm = np.abs(R).sum(axis=0).max()
        dt = 1999 * 0.004 / norm * 2000.0**-n_frac
        n = max(1, math.ceil(np.abs(R * dt).sum(axis=0).max() / 0.004))
        assert n <= 2000
        P = _vec_step(rk4_propagator(R, dt))
        v = solver.vec(_random_density(2 * fock_dim, seed))
        assert np.max(np.abs(P @ v - _rk4_loop(v, L, dt, n))) <= 1e-11
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
    def test_hermitian_and_positive(
        self, rk4_propagator, fock_dim, rates, drive_on, dt, seed, rank
    ):
        # a low-rank state starts on the boundary of positivity.  RK4 at
        # ||h R||_1 = 0.004 powers its step matrix up to ~1e5 sub-steps, and
        # the Hermiticity defect grows to ~1e-12 by rounding
        R, _ = _small_generators(fock_dim, rates, drive_on)
        dim = 2 * fock_dim
        v = solver.vec(_random_density(dim, seed, rank))
        for build in (solver.propagator, rk4_propagator):
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
    return (model.Segment(1, 0.0, duration, False),)


class TestPropagate:
    """Propagation through evolve, the one driver of the state."""

    def test_closed_system_conserves_purity_and_energy(self, small):
        p, d = small
        h = model.hamiltonian_rotframe(p, d, True)
        rho = model.initial_state(p)
        e0 = np.trace(rho @ h).real
        traj = solver.evolve(
            _single_segment(d.t_p), rho, h, h, (),
            samples_per_segment=4,
        )
        rho = traj.snapshots[0][2]
        assert np.trace(rho @ rho).real == pytest.approx(1.0, abs=1e-8)
        assert np.trace(rho @ h).real == pytest.approx(e0, abs=1e-8 * abs(e0))

    def test_builder_looks_up_propagator_when_called(
        self, small, monkeypatch, rk4_propagator
    ):
        # a builder installed in place of propagator, as a tracer or the
        # RK4 oracle installs one, must be the one evolve calls
        p, d = small
        h = model.hamiltonian_rotframe(p, d, False)
        calls = []

        def wrapped(R, dt):
            calls.append(dt)
            return rk4_propagator(R, dt)

        monkeypatch.setattr(solver, "propagator", wrapped)
        traj = solver.evolve(
            _single_segment(0.1), model.initial_state(p), h, h,
            model.dissipators(p), samples_per_segment=1,
        )
        assert calls == [0.1]
        assert [entry["dt"] for entry in traj.propagators] == [0.1]

    def test_propagators_report_the_kernels_norm_and_squarings(self, monkeypatch):
        # each entry's norm1 is the largest 1-norm of a block the kernel
        # took, and squarings the sum of the s it ran on them
        p = model.preset("base", fock_dim=6, alpha=1.0, n_steps=1)
        d = model.derive(p)
        build, kernel, runs = solver.propagator, solver._expm_taylor21, []

        def propagator(R, dt):
            runs.append([])
            return build(R, dt)

        def taylor21(A):
            runs[-1].append(solver._norm1(A))
            return kernel(A)

        monkeypatch.setattr(solver, "propagator", propagator)
        monkeypatch.setattr(solver, "_expm_taylor21", taylor21)
        traj = solver.evolve(
            model.pulse_schedule(p, d), model.initial_state(p),
            model.hamiltonian_rotframe(p, d, True), model.hamiltonian_rotframe(p, d, False),
            model.dissipators(p), samples_per_segment=2,
        )
        assert len(runs) == 2
        assert [len(norms) for norms in runs] == [e["blocks"] for e in traj.propagators]
        for entry, norms in zip(traj.propagators, runs):
            assert entry["norm1"] == max(norms)
            assert entry["squarings"] == sum(
                max(0, math.ceil(math.log2(x / solver._THETA21))) for x in norms if x > 0
            )
            assert entry["squarings"] > 0

    def test_overflowing_step_matrix_names_segment(self):
        # R dt beyond the float range, under the command's floating-point
        # policy: evolve names the segment whose step matrix overflowed
        h = 1e300 * np.kron(model.SIGMA_Z, np.eye(2))
        rho = _density(np.kron(np.array([1.0, 1.0]) / np.sqrt(2.0), [1.0, 0.0]))
        with pytest.raises(
            NumericalFailureError, match=r"segment 0 \(step 1\): overflow"
        ), np.errstate(over="raise", invalid="raise"):
            solver.evolve(_single_segment(1e10), rho, h, h,
                          (), samples_per_segment=1)

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
                ((-1.0, c),),
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

    def test_shift_first_schedule_builds_each_generator_once(self, small, monkeypatch):
        # a walk that shifts before it tosses the coin is a schedule of
        # Segments; over 3 steps evolve builds one generator and one step
        # matrix per (drive flag, sub-interval), drive-off first
        p, d = small
        h_on = model.hamiltonian_rotframe(p, d, True)
        h_off = model.hamiltonian_rotframe(p, d, False)
        off = d.t_p - d.t_H
        sched = tuple(
            seg
            for k in range(3)
            for seg in (model.Segment(k + 1, k * d.t_p, off, False),
                        model.Segment(k + 1, k * d.t_p + off, d.t_H, True))
        )
        built, liouvillian = [], solver.liouvillian

        def counted(H, diss):
            built.append(H)
            return liouvillian(H, diss)

        monkeypatch.setattr(solver, "liouvillian", counted)
        traj = solver.evolve(sched, model.initial_state(p), h_on, h_off,
                             model.dissipators(p), samples_per_segment=2)
        assert len(built) == 2 and built[0] is h_off and built[1] is h_on
        assert [e["drive_on"] for e in traj.propagators] == [False, True]
        assert traj.drive_on.tolist() == [False] + [False, False, True, True] * 3
        npt.assert_allclose(
            [s[1] for s in traj.snapshots], [d.t_p, 2 * d.t_p, 3 * d.t_p], rtol=1e-12
        )
        assert np.all(traj.trace_err < 1e-8)

    def test_step_matrices_built_before_first_condition(self, monkeypatch):
        # every step matrix is built before the state is first conditioned,
        # so the eigensolver's first call comes after the drive-on build,
        # where a run's RSS peaks
        p = model.preset("base", fock_dim=6, alpha=1.0, n_steps=2)
        d = model.derive(p)
        calls, propagator, condition = [], solver.propagator, solver._condition

        def built(R, dt):
            calls.append("propagator")
            return propagator(R, dt)

        def conditioned(x, S_dag):
            calls.append("_condition")
            return condition(x, S_dag)

        monkeypatch.setattr(solver, "propagator", built)
        monkeypatch.setattr(solver, "_condition", conditioned)
        solver.evolve(model.pulse_schedule(p, d), model.initial_state(p),
                      model.hamiltonian_rotframe(p, d, True),
                      model.hamiltonian_rotframe(p, d, False),
                      model.dissipators(p), samples_per_segment=2)
        assert calls == ["propagator"] * 2 + ["_condition"] * (1 + 2 * 2 * 2)

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

    def test_rk4_matches_expm_trajectory(self, small, monkeypatch, rk4_propagator):
        p2 = model.preset("base", fock_dim=6, alpha=1.0, n_steps=1)
        d = model.derive(p2)
        sched = model.pulse_schedule(p2, d)
        args = (
            model.initial_state(p2),
            model.hamiltonian_rotframe(p2, d, True),
            model.hamiltonian_rotframe(p2, d, False),
            model.dissipators(p2),
        )
        t_a = solver.evolve(sched, *args, samples_per_segment=2)
        monkeypatch.setattr(solver, "propagator", rk4_propagator)
        t_b = solver.evolve(sched, *args, samples_per_segment=2)
        diff = np.abs(t_a.snapshots[0][2] - t_b.snapshots[0][2])
        assert diff.max() < 1e-7
        # the same step matrices, built in other times
        untimed = [[{k: v for k, v in e.items() if k != "build_s"} for e in t.propagators]
                   for t in (t_a, t_b)]
        assert untimed[1] == untimed[0]


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
    an oracle for the double-precision Taylor-21 kernel, with its own
    scaling (to norm 0.5), its own degree (to a term below 1e-30) and its
    own precision."""
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


# Padé-13 coefficients b_0..b_13 and theta_13 (Higham, SIAM J. Matrix
# Anal. Appl. 26, 1179 (2005)): the reference kernel of _plain_pade13.
_PADE13 = (
    64764752532480000.0, 32382376266240000.0, 7771770303897600.0,
    1187353796428800.0, 129060195264000.0, 10559470521600.0,
    670442572800.0, 33522128640.0, 1323241920.0, 40840800.0,
    960960.0, 16380.0, 182.0, 1.0,
)
_THETA13 = 5.371920351148152


def _plain_pade13(A):
    """exp(A) by the plain [13/13] Padé expressions with scaling and
    squaring and one np.linalg.solve: the reference the Taylor-21 kernel
    is held to."""
    n = len(A)
    norm = np.abs(A).sum(axis=0).max()
    s = max(0, math.ceil(math.log2(norm / _THETA13))) if norm > 0 else 0
    X = A * 2.0**-s
    X2 = X @ X
    X4 = X2 @ X2
    X6 = X4 @ X2
    b, eye = _PADE13, np.eye(n)
    U = X @ (X6 @ (b[13] * X6 + b[11] * X4 + b[9] * X2)
             + b[7] * X6 + b[5] * X4 + b[3] * X2 + b[1] * eye)
    V = (X6 @ (b[12] * X6 + b[10] * X4 + b[8] * X2)
         + b[6] * X6 + b[4] * X4 + b[2] * X2 + b[0] * eye)
    E = np.linalg.solve(V - U, V + U)
    for _ in range(s):
        E = E @ E
    return E


def _plain_taylor21(A):
    """exp(A) by the plain expressions of the kernel's Horner order, with
    its s: X = c_21 A^3 + c_20 A^2 + c_19 A + c_18 I, then
    X = X @ A^3 + c_3j+2 A^2 + c_3j+1 A + c_3j I for j = 5..0, squared s
    times."""
    norm = np.abs(A).sum(axis=0).max()
    s = max(0, math.ceil(math.log2(norm / solver._THETA21))) if norm > 0 else 0
    X = A * 2.0**-s
    X2 = X @ X
    X3 = X2 @ X
    c, eye = solver._TAYLOR21, np.eye(len(A))
    E = c[21] * X3 + c[20] * X2 + c[19] * X + c[18] * eye
    for j in range(5, -1, -1):
        E = E @ X3 + c[3 * j + 2] * X2 + c[3 * j + 1] * X + c[3 * j] * eye
    for _ in range(s):
        E = E @ E
    return E


def _backward_error_series(m, terms=100):
    """The coefficients h_0..h_terms of h(x) = log(e^-x T_m(x)), T_m the
    degree-m Taylor polynomial of e^x, as exact fractions: h(A) is the
    backward error of T_m(A) as exp(A + h(A)) (Al-Mohy & Higham, SIAM J.
    Sci. Comput. 33, 488 (2011)).  With g = e^-x T_m(x) - 1, which starts
    at x^(m+1), h = g - g^2/2 + g^3/3 - ... up to the last power with a
    term below x^terms."""
    e = [Fraction((-1) ** k, math.factorial(k)) for k in range(terms + 1)]
    g = [sum(e[k - i] / math.factorial(i) for i in range(min(k, m) + 1))
         for k in range(terms + 1)]
    g[0] -= 1
    assert not any(g[: m + 1])
    h, power, j = [Fraction(0)] * (terms + 1), g, 1
    while any(power):
        h = [hk + Fraction((-1) ** (j + 1), j) * pk for hk, pk in zip(h, power)]
        power = [sum(power[i] * g[k - i] for i in range(k + 1)) for k in range(terms + 1)]
        j += 1
    return h


class TestRealCoordinates:
    def test_hermitian_basis_is_unitary_and_real_on_hermitian_states(self):
        dim = 5
        S = _basis(dim * dim)
        npt.assert_allclose((S @ S.conj().T).toarray(), np.eye(dim * dim), atol=1e-15)
        assert np.diff(S.indptr).max() == 2
        rho = _random_density(dim, seed=3)
        x = S @ solver.vec(rho + rho.conj().T)  # exactly Hermitian
        assert np.abs(x.imag).max() == 0.0

    @pytest.mark.parametrize("drive_on", [True, False])
    def test_generator_is_real(self, drive_on):
        R, L = _small_generators(5, (0.01, 0.02, 0.03), drive_on)
        assert isinstance(R, solver.Generator) and R.shape == L.shape
        assert R.vals.dtype == np.float64 and np.all(R.vals != 0)
        # one entry per position, in row-major order
        assert np.all(np.diff(R.rows * R.dim + R.cols) > 0) and R.nnz == len(R.rows)
        npt.assert_allclose(_vec_form(_csr(R)), L, rtol=0, atol=1e-13)

    def test_rejects_generator_that_breaks_hermiticity(self, rk4_propagator):
        # -i[H, rho] of a non-Hermitian H leaves the Hermitian matrices
        h = np.array([[0.0, 1.0], [0.0, 0.0]], dtype=complex)
        with pytest.raises(ValueError, match="Hermiticity"):
            solver.liouvillian(h, ())
        # a complex operand is no real generator
        eye = _generator(16, np.arange(16), np.arange(16), np.ones(16))
        for build in (solver.propagator, rk4_propagator):
            with pytest.raises(ValueError, match="real generator"):
                build(eye * 1j, 1.0)

    def test_drive_off_blocks_merge_k_and_minus_k(self):
        # cutoff 17: k in -17..17 gives 35 sectors, |k| gives 18 real blocks
        p = model.preset("base")
        R = _generators(p, False)[0]
        blocks = solver._blockwise(R, np.asarray)
        assert len(blocks) == 18 and max(len(idx) for idx, _ in blocks) == 128
        # the blocks partition the coordinates and hold every entry of R
        npt.assert_array_equal(np.sort(np.concatenate([i for i, _ in blocks])),
                               np.arange(R.shape[0]))
        npt.assert_array_equal(_dense(blocks), np.asarray(R))
        k = _excitation_difference(p.fock_dim)
        S = _basis(R.shape[0])
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
    def test_blocks_read_off_step_matrix(self, rk4_propagator, fock_dim, rates, drive_on):
        # the builder and the RK4 oracle split R into the connected components of its
        # sparsity pattern, which evolve reads off the step matrix
        R, _ = _small_generators(fock_dim, rates, drive_on)
        n_comp, labels = connected_components(_csr(R), directed=False)
        want = sorted(tuple(np.flatnonzero(labels == c)) for c in range(n_comp))
        for P in (solver.propagator(R, 0.1), rk4_propagator(R, 0.1)):
            assert sorted(tuple(idx) for idx, _ in P) == want

    def test_drive_on_exponential_peak_memory(self):
        # the 1156 x 1156 drive-on exponential of base keeps at most two
        # dense float64 arrays alive at once (A^3 and the Horner buffer X,
        # then X and the second squaring buffer).  The Horner steps add one
        # panel of 96 rows and the entries of A and of A^2, which are freed
        # before the squarings, so the A^3 join (about 2.23 arrays: A^3 and
        # the join's index and product arrays) sets the peak.  The kernel
        # calls no LAPACK routine, so every array it holds is one
        # tracemalloc sees.  It reads 2.245 arrays; a kernel that keeps the
        # entries of A alive into the squarings reads 2.308, and 2.28 sits
        # between them
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
        assert peak <= 2.28 * n * n * 8

    @pytest.mark.parametrize("fock_dim", [6, 9])
    def test_taylor_kernel_matches_longdouble(self, fock_dim):
        # the real drive-on generator over one sample interval of a run
        p = model.preset("base", fock_dim=fock_dim, alpha=1.0 + 0.0j)
        d = model.derive(p)
        R = solver.liouvillian(
            model.hamiltonian_rotframe(p, d, True), model.dissipators(p)
        )
        A = R * (d.t_H / 10)
        err = np.abs(solver._expm_taylor21(A) - _longdouble_expm(A)).max()
        assert err <= 1e-13

    def test_taylor_kernel_index_form(self):
        # The kernel takes its operand by its entries.  An operand stored
        # with duplicate (same- and opposite-sign halves, exact in binary)
        # and explicit-zero entries, rows unsorted, has the exponential of
        # its canonical form bit for bit
        p = model.preset("base", fock_dim=4, alpha=1.0 + 0.0j)
        d = model.derive(p)
        R = solver.liouvillian(
            model.hamiltonian_rotframe(p, d, True), model.dissipators(p)
        )
        canon = R * (d.t_H / 10)
        r, c, v = canon.rows, canon.cols, canon.vals
        half = np.arange(len(v)) % 2 == 0
        rows = np.concatenate((r[half], r[half], r[~half], r[~half], np.arange(5)))
        cols = np.concatenate((c[half], c[half], c[~half], c[~half], 4 - np.arange(5)))
        vals = np.concatenate((v[half] / 2, v[half] / 2, 2 * v[~half], -v[~half],
                               np.zeros(5)))
        order = np.random.default_rng(0).permutation(len(vals))
        order = order[np.argsort(rows[order], kind="stable")]  # rows shuffled
        stored = solver.Generator(canon.dim, rows[order], cols[order], vals[order])
        assert stored.nnz == 2 * canon.nnz + 5
        assert np.any(np.diff(stored.rows * stored.dim + stored.cols) <= 0)
        E = solver._expm_taylor21(stored)
        assert E.tobytes() == solver._expm_taylor21(canon).tobytes()
        assert np.abs(E - _longdouble_expm(np.asarray(canon))).max() <= 1e-13

    @pytest.mark.parametrize("seed", range(3))
    def test_taylor_kernel_horner_is_the_plain_expressions(self, entries, seed):
        # Only the order of the kernel's in-place sums is tested, against
        # the plain Horner expressions with the same s, on operands whose
        # powers do not depend on how BLAS or the entry join sums their
        # terms, so X @ A^3 and the squarings are the same BLAS calls on
        # the same operands: both operands have at most
        # solver._SQUARING_ROWS rows, so each squaring is one GEMM, as in
        # the plain expressions.  At n = 40 (one panel of rows) A has integer entries of at most
        # 9 times 2^-1, at most 15 per row (135^3 < 2^53), so A^2 and A^3,
        # scaled by 2^-s, are exact.
        rng = np.random.default_rng(seed)
        n = 40
        A = rng.integers(-9, 10, (n, n)) * (rng.random((n, n)) < 0.2) * 0.5
        assert np.count_nonzero(A, axis=1).max() <= 15
        # At n = 301 A is a signed permutation of cycles of 1 to 6 indices:
        # every row of A, A^2 and A^3 holds one nonzero, so every entry of
        # a power, and of X @ A^3 in each of its four panels of rows, is
        # one product, while the powers of the short cycles meet on the
        # diagonal, where D_j adds three terms to one entry
        m = 301
        lengths = np.cumsum(rng.integers(1, 7, m))
        cycles = np.split(rng.permutation(m), lengths[lengths < m])
        to = np.concatenate([np.roll(c, 1) for c in cycles])
        B = np.zeros((m, m))
        B[np.concatenate(cycles), to] = rng.integers(1, 10, m) * rng.choice([-4.0, 4.0], m)
        for X in (A, B):
            assert len(X) <= solver._SQUARING_ROWS
            assert np.abs(X).sum(axis=0).max() > solver._THETA21  # s > 0: squarings too
            assert np.array_equal(solver._expm_taylor21(entries(X)), _plain_taylor21(X))

    # The base step matrices against the plain Padé-13 expressions with
    # one np.linalg.solve, the reference kernel.  Each is held to the
    # exact exponential within 4 u ||R dt||_1 + 1e-15 (TestKernelAccuracy),
    # so every entry is held within twice that, 8 u ||R dt||_1 + 2e-15,
    # u = 2^-53; the bound is fixed before any run.
    @pytest.mark.parametrize("drive_on", [True, False])
    def test_base_step_matrix_is_the_plain_expressions(self, drive_on):
        p = model.preset("base")
        d = model.derive(p)
        R = solver.liouvillian(
            model.hamiltonian_rotframe(p, d, drive_on), model.dissipators(p)
        )
        dt = (d.t_H if drive_on else d.t_p - d.t_H) / 10
        dense = np.asarray(R * dt)
        tol = 8 * 2.0**-53 * solver._norm1(R * dt) + 2e-15
        for idx, block in solver.propagator(R, dt):
            plain = _plain_pade13(dense[np.ix_(idx, idx)])
            assert np.abs(block - plain).max() <= tol

    @pytest.mark.parametrize(
        "m, theta", [(18, 1.0908637192900361), (21, solver._THETA21)], ids=["18", "21"]
    )
    def test_taylor_theta_is_the_largest_double_within_unit_roundoff(self, m, theta):
        # theta_m is the largest double x with sum_{k>m} |h_k| x^(k-1)
        # <= 2^-53, the relative backward error of T_m at ||A||_1 = x,
        # summed over 100 terms in exact arithmetic; theta_18 is the
        # published cross-check.  The 100th term is negligible
        h = _backward_error_series(m)
        bound = Fraction(2) ** -53

        def worst(x):
            x = Fraction(x)
            return sum(abs(hk) * x ** (k - 1) for k, hk in enumerate(h) if k > m)

        assert worst(theta) <= bound < worst(math.nextafter(theta, math.inf))
        assert abs(h[-1]) * Fraction(theta) ** 99 < 1e-40 * bound
        # the kernel's coefficients are 1/k!, each correctly rounded
        assert solver._TAYLOR21 == tuple(
            float(Fraction(1, math.factorial(k))) for k in range(22)
        )

    def test_taylor_kernel_rejects_non_finite_operand(self, entries):
        A = np.zeros((3, 3))
        A[0, 1] = np.inf
        with pytest.raises(NumericalFailureError, match="1-norm inf"):
            solver._expm_taylor21(entries(A))

    def test_rk4_rejects_non_finite_operand(self, rk4_propagator):
        # a NaN in R dt would reach math.ceil as a ValueError through the
        # oracle's sub-step count
        R = _generator(2, [0, 1], [1, 1], [np.nan, -1.0])
        with pytest.raises(NumericalFailureError, match="1-norm nan"):
            rk4_propagator(R, 0.1)

    def test_taylor_kernel_of_zero_is_identity(self, entries):
        # norm 0 takes no log2 and no squaring
        E = solver._expm_taylor21(entries(np.zeros((3, 3))))
        npt.assert_allclose(E, np.eye(3), rtol=0, atol=2e-16)


_log_rate = st.floats(-5.0, -1.0).map(lambda e: 10.0**e)


@st.composite
def _walk_points(draw):
    """(p, d) of a 2-step walk drawn over the Hamiltonian parameters and
    the rates, at cutoffs 3-6; draws where the detunings meet a resonance
    or the coin pulse outlasts the step are rejected."""
    gamma1, gamma_phi, Gamma = draw(st.tuples(_log_rate, _log_rate, _log_rate))
    params = dict(
        fock_dim=draw(st.integers(3, 6)),
        nu_q=draw(st.floats(4.0, 10.0)),
        nu_D=draw(st.floats(1.0, 4.0)),
        nu_eta=draw(st.floats(0.005, 0.2)),
        nu_eps0=draw(st.floats(0.1, 20.0)),
    )
    try:
        with warnings.catch_warnings():
            # the dispersive picture does not enter the exponential
            warnings.simplefilter("ignore", DispersiveRegimeWarning)
            p = model.preset(
                "base", alpha=1.0, n_steps=2, gamma1=gamma1, gamma_phi=gamma_phi,
                Gamma=Gamma, **params,
            )
            return p, model.derive(p)
    except (InvalidParameterError, ScheduleInfeasibleError):
        assume(False)


class TestKernelAccuracy:
    # Every step matrix against the longdouble oracle within
    # 4 u ||R dt||_1 + 1e-15 in the largest absolute entry, u = 2^-53.
    # Over this space ||R dt||_1 spans about 1.1 to 2e5 (300 feasible
    # draws, most between 10 and 5e3): the drive-off segment of a small
    # nu_eta lasts longest.  The constant 4 is fixed before any run.
    @settings(max_examples=30, deadline=None)
    @given(point=_walk_points(), samples=st.integers(1, 20), drive_on=st.booleans())
    def test_step_matrix_matches_longdouble(self, point, samples, drive_on):
        p, d = point
        R = solver.liouvillian(
            model.hamiltonian_rotframe(p, d, drive_on), model.dissipators(p)
        )
        dt = (d.t_H if drive_on else d.t_p - d.t_H) / samples
        err = np.abs(_dense(solver.propagator(R, dt))
                     - _longdouble_expm(np.asarray(R * dt))).max()
        assert err <= 4 * 2.0**-53 * solver._norm1(R * dt) + 1e-15

    def test_manifest_error_bound_holds(self, monkeypatch):
        # each propagators entry states the bound its step matrix is held
        # to above, at its norm1, the largest block's ||R dt||_1; both step
        # matrices of a base walk at cutoff 4 keep within it
        p = model.preset("base", fock_dim=4, alpha=1.0, n_steps=1)
        d = model.derive(p)
        build, built = solver.propagator, []

        def propagator(R, dt):
            built.append((R, dt, build(R, dt)))
            return built[-1][2]

        monkeypatch.setattr(solver, "propagator", propagator)
        traj = solver.evolve(
            model.pulse_schedule(p, d), model.initial_state(p),
            model.hamiltonian_rotframe(p, d, True), model.hamiltonian_rotframe(p, d, False),
            model.dissipators(p), samples_per_segment=10,
        )
        assert sorted(entry["drive_on"] for entry in traj.propagators) == [False, True]
        for entry, (R, dt, P) in zip(traj.propagators, built):
            assert entry["error_bound"] == 4 * 2.0**-53 * entry["norm1"] + 1e-15
            err = np.abs(_dense(P) - _longdouble_expm(np.asarray(R * dt))).max()
            assert err <= entry["error_bound"]

    # Two walk steps on the same draws, where both step matrices have
    # ||R dt||_1 <= 1e4, the range in which the kernel stays within 1e-12
    # of the exact exponential: no sample is renormalized (a trace drift
    # above 1e-10 before repair) and no eigenvalue falls below -1e-12.
    # Over 600 such draws, searched for the largest drift, it read 3.8e-12
    # and the smallest eigenvalue -3.3e-16.  Past that range the drift is
    # the kernel's error summed over the samples: at nu_q 10, nu_D 1,
    # nu_eta 0.005, the base rates and 20 samples per segment
    # (||R dt||_1 1.3e5 to 3.1e5 at cutoffs 3 to 6) it reads up to 2.0e-11.
    @settings(max_examples=30, deadline=None)
    @given(point=_walk_points(), samples=st.integers(1, 20))
    def test_two_walk_steps_stay_physical(self, point, samples):
        p, d = point
        H_on, H_off = (model.hamiltonian_rotframe(p, d, on) for on in (True, False))
        diss = model.dissipators(p)
        assume(all(
            solver._norm1(solver.liouvillian(H, diss) * (T / samples)) <= 1e4
            for H, T in ((H_on, d.t_H), (H_off, d.t_p - d.t_H))
        ))
        traj = solver.evolve(
            model.pulse_schedule(p, d), model.initial_state(p), H_on, H_off, diss,
            samples_per_segment=samples,
        )
        health = traj.health()
        assert health["renormalizations"] == 0
        assert health["min_eigenvalue"] >= -1e-12


@st.composite
def _generator_patterns(draw):
    """A real n x n ``solver.Generator``, n <= 60, whose entries are
    random one-directional edges with nonzero values, optionally plus a
    path through all n nodes in random order: the longest diameter, so
    the most passes of the label search."""
    n = draw(st.integers(1, 60))
    node = st.integers(0, n - 1)
    edges = draw(st.lists(st.tuples(node, node), max_size=2 * n))
    if draw(st.booleans()):
        path = draw(st.permutations(range(n)))
        edges += list(zip(path[:-1], path[1:]))
    edges = sorted(set(edges))
    values = draw(st.lists(st.floats(-2.0, 2.0).filter(bool), min_size=len(edges),
                           max_size=len(edges)))
    rows, cols = np.array(edges, dtype=int).reshape(-1, 2).T
    return _generator(n, rows, cols, values)


def _permuted_path(n, seed):
    path = np.random.default_rng(seed).permutation(n)
    return _generator(n, path[:-1], path[1:], np.ones(n - 1))


class TestComponentSearch:
    @settings(max_examples=200, deadline=None)
    @given(R=_generator_patterns())
    @example(R=_generator(7, [], [], []))  # all zero: every node its own block
    # isolated nodes and one-directional edges
    @example(R=_generator(8, [0, 5], [3, 1], [1.0, -3.0]))
    @example(R=_permuted_path(60, seed=0))
    def test_matches_csgraph(self, R):
        # _blockwise's blocks are scipy's undirected connected components
        # of R's stored entries, in scipy's order
        n_comp, labels = connected_components(_csr(R), directed=False)
        blocks = solver._blockwise(R, lambda A: A)
        assert len(blocks) == n_comp
        dense = np.asarray(R)
        for comp, (idx, block) in enumerate(blocks):
            npt.assert_array_equal(idx, np.flatnonzero(labels == comp))
            npt.assert_array_equal(np.asarray(block), dense[np.ix_(idx, idx)])
            # each block keeps one entry per position, in row-major order
            assert np.all(np.diff(block.rows * block.dim + block.cols) > 0)
