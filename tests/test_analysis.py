"""Mean operation/estimation fidelities, trade-off saturation, Monte-Carlo oracle."""

import math
import sys
import threading

import numpy as np
import pytest

import pnbm.analysis
from pnbm.analysis import (
    _CHUNK,
    _fidelity_samples,
    _mean_row,
    _mean_stderr,
    _stabilizer_states,
    design_mean_fidelities,
    haar_two_qubit_block,
    mean_fidelities_closed,
    mean_fidelities_from_kraus,
    monte_carlo_mean_fidelities,
    tradeoff_residual,
)
from pnbm.ancilla import params_from_alpha
from pnbm.measurement import kraus_set
from pnbm.qsim import BELL_MATRIX, bell_state

SYM = 1.0 / math.sqrt(3.0)


class TestFormulas:
    @pytest.mark.parametrize(
        "alpha,f_op,f_est",
        [
            (1.0, 0.4, 0.4),
            (0.0, 1.0, 0.25),
            (SYM, 0.8, 0.35),
            (0.5, 0.85, 0.336354),
        ],
    )
    def test_closed_form_values(self, alpha, f_op, f_est):
        row = mean_fidelities_closed(params_from_alpha(alpha))
        assert row[0] == pytest.approx(f_op, abs=1e-6)
        assert row[1] == pytest.approx(f_est, abs=1e-6)

    def test_matrix_formula_agrees_with_closed_form(self):
        for alpha in np.linspace(0.0, 1.0, 101):
            params = params_from_alpha(float(alpha))
            closed = mean_fidelities_closed(params)
            formula = mean_fidelities_from_kraus(kraus_set(params))
            assert abs(closed[0] - formula[0]) < 1e-12
            assert abs(closed[1] - formula[1]) < 1e-12

    def test_eigenvalues_match_dense_solver(self):
        """The Bell-diagonal shortcut must agree with a dense eigensolver."""
        for alpha in (0.0, 0.25, SYM, 0.9, 1.0):
            ks = kraus_set(params_from_alpha(alpha))
            for k, op in enumerate(ks.operators):
                dense_top = float(np.linalg.eigvalsh(op.conj().T @ op)[-1])
                shortcut = float((ks.bell_diagonals[k] ** 2).max())
                assert abs(dense_top - shortcut) < 1e-12

    def test_monotone_tradeoff(self):
        alphas = np.linspace(0.01, 0.99, 50)
        rows = [mean_fidelities_closed(params_from_alpha(a)) for a in alphas]
        ops = np.array([row[0] for row in rows])
        ests = np.array([row[1] for row in rows])
        assert np.all(np.diff(ops) < 0)
        assert np.all(np.diff(ests) > 0)

    def test_incomplete_kraus_rejected(self):
        ks = kraus_set(params_from_alpha(SYM))
        ks.bell_diagonals = ks.bell_diagonals * 1.01  # break completeness
        ks.operators = [op * 1.01 for op in ks.operators]
        with pytest.raises(ValueError, match="complete"):
            mean_fidelities_from_kraus(ks)

    def test_nan_kraus_rejected(self):
        ks = kraus_set(params_from_alpha(SYM))
        ks.operators = [np.full((4, 4), math.nan)] * 4
        with pytest.raises(ValueError, match="complete"):
            mean_fidelities_from_kraus(ks)

    def test_range_invariant(self):
        """Every estimator's means pass one [0, 1] check, which NaN fails; on a stack
        the error names the row."""
        with pytest.raises(ValueError, match=r"^mean fidelity 1\.2 outside \[0, 1\]$"):
            _mean_row(1.2, 0.3)
        for bad in (1.2, math.nan):
            for f_op, f_est in (([0.8, 0.6], [0.3, bad]), ([0.8, bad], [0.3, 0.35])):
                match = rf"^mean fidelity {bad} outside \[0, 1\] \(row 1\)$"
                with pytest.raises(ValueError, match=match):
                    _mean_row(np.array(f_op), np.array(f_est))
        assert _mean_row(0.8, 0.35).tolist() == [0.8, 0.35]


def _guess_rule(kraus):
    """Reference per-outcome guesses as (4, 4) rows: the top eigenvector of A_k^dag A_k.

    Where Bell state k shares the top eigenvalue (all four tie at alpha = 0),
    the guess stays on slot k, Bell state k; any fixed pure guess has the
    same Haar mean there.
    """
    guesses = []
    for k, op in enumerate(kraus.operators):
        gram = op.conj().T @ op
        vals, vecs = np.linalg.eigh(gram)
        bell_k = BELL_MATRIX[:, k]
        tied = np.vdot(bell_k, gram @ bell_k).real >= vals[-1] - 1e-12
        guesses.append(bell_k if tied else vecs[:, -1])
    return np.stack(guesses)


class TestGuessRule:
    def test_guesses_are_top_eigenvectors(self):
        ks = kraus_set(params_from_alpha(0.7))
        for op, guess in zip(ks.operators, _guess_rule(ks)):
            gram = op.conj().T @ op
            top = np.linalg.eigvalsh(gram)[-1]
            np.testing.assert_allclose(gram @ guess, top * guess, atol=1e-12)

    def test_degenerate_tie_break(self):
        """At alpha=0 every eigenvalue ties; the guess stays on slot k."""
        guesses = _guess_rule(kraus_set(params_from_alpha(0.0)))
        for k, guess in enumerate(guesses, start=1):
            assert abs(np.vdot(bell_state(k).amplitudes, guess)) > 1 - 1e-12

    @pytest.mark.parametrize("alpha", np.linspace(0.0, 1.0, 101).tolist())
    def test_guess_is_bell_state_k(self, alpha):
        """The kernel hard-codes Bell state k as the guess for outcome k."""
        guesses = _guess_rule(kraus_set(params_from_alpha(alpha)))
        for k, guess in enumerate(guesses, start=1):
            assert abs(np.vdot(bell_state(k).amplitudes, guess)) > 1 - 1e-12


class TestTradeoffResidual:
    def test_projective_endpoint_saturates(self):
        assert tradeoff_residual(0.4, 0.4, 4) == pytest.approx(0.0, abs=1e-14)

    def test_symmetric_point_saturates(self):
        assert abs(tradeoff_residual(0.8, 0.35, 4)) < 1e-12

    def test_half_alpha_saturates(self):
        row = mean_fidelities_closed(params_from_alpha(0.5))
        assert abs(tradeoff_residual(row[0], row[1], 4)) < 1e-10

    def test_saturation_across_grid(self):
        for alpha in np.linspace(0.0, 1.0, 101):
            row = mean_fidelities_closed(params_from_alpha(float(alpha)))
            assert abs(tradeoff_residual(row[0], row[1], 4)) < 1e-10

    def test_domain_violations_reported(self):
        with pytest.raises(ValueError, match="2/5"):
            tradeoff_residual(0.5, 0.41, 4)
        with pytest.raises(ValueError, match="1/5"):
            tradeoff_residual(0.15, 0.3, 4)
        with pytest.raises(ValueError, match="2/3 limit"):
            tradeoff_residual(0.9, 0.7, 2)
        with pytest.raises(ValueError, match="1/3 limit"):
            tradeoff_residual(0.3, 0.5, 2)

    def test_nan_entry_gives_nan_residual(self):
        """A NaN is not a domain error: it reaches the residual, which every gate fails."""
        residual = tradeoff_residual(np.array([0.8, math.nan]), np.array([0.35, 0.35]), 4)
        assert abs(residual[0]) < 1e-12 and math.isnan(residual[1])


class TestMonteCarlo:
    def test_projective_endpoint(self):
        params = params_from_alpha(1.0)
        means, stderrs = monte_carlo_mean_fidelities(kraus_set(params), 100_000, 101)
        assert abs(means[0] - 0.4) < 3 * stderrs[0]
        assert abs(means[1] - 0.4) < 3 * stderrs[1]

    def test_symmetric_point(self):
        params = params_from_alpha(SYM)
        means, stderrs = monte_carlo_mean_fidelities(kraus_set(params), 100_000, 102)
        assert abs(means[0] - 0.8) < 3 * stderrs[0]
        assert abs(means[1] - 0.35) < 3 * stderrs[1]

    def test_identity_channel_is_exact(self):
        """At alpha=0 the operation fidelity is 1 on every sample."""
        means, stderrs = monte_carlo_mean_fidelities(kraus_set(params_from_alpha(0.0)), 5000, 103)
        assert abs(means[0] - 1.0) < 1e-12
        assert stderrs[0] < 1e-12
        assert abs(means[1] - 0.25) < 1e-12

    def test_sample_floor(self):
        with pytest.raises(ValueError, match="10\\^3"):
            monte_carlo_mean_fidelities(kraus_set(params_from_alpha(0.5)), 10, 1)

    @pytest.mark.parametrize("n_samples", [1000, _CHUNK - 1, _CHUNK + 1, 3 * _CHUNK + 7])
    def test_stack_matches_single_sets_on_their_seeds(self, n_samples):
        """Entry i of a stacked call is the single-set call on seed + i, bit for bit."""
        alphas = np.array([0.0, 0.3, SYM, 1.0])
        stacked = monte_carlo_mean_fidelities(kraus_set(params_from_alpha(alphas)), n_samples, 5)
        for index, alpha in enumerate(alphas.tolist()):
            kraus = kraus_set(params_from_alpha(alpha))
            one = monte_carlo_mean_fidelities(kraus, n_samples, 5 + index)
            for part, got, want in zip(("means", "stderrs"), stacked, one):
                assert got.shape == alphas.shape + (2,) and want.shape == (2,)
                assert got[index].tolist() == want.tolist(), (part, index)

    def test_concurrent_calls_under_fast_switching(self):
        """Four calls at once (eight threads on fewer cores), switching threads every
        microsecond, each give the numbers of the same call made alone."""
        stack = kraus_set(params_from_alpha(np.linspace(0.0, 1.0, 7)))
        want = [monte_carlo_mean_fidelities(stack, 1000, seed) for seed in range(4)]
        got = [None] * 4

        def call(seed):
            got[seed] = monte_carlo_mean_fidelities(stack, 1000, seed)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            callers = [threading.Thread(target=call, args=(seed,)) for seed in range(4)]
            for caller in callers:
                caller.start()
            for caller in callers:
                caller.join(timeout=30)
        finally:
            sys.setswitchinterval(interval)
        assert not any(caller.is_alive() for caller in callers)
        for one, two in zip(got, want):
            for part, one_part, two_part in zip(("means", "stderrs"), one, two):
                assert np.array_equal(one_part, two_part), part

    def test_reproducible(self):
        ks = kraus_set(params_from_alpha(0.3))
        one, _ = monte_carlo_mean_fidelities(ks, 2000, 55)
        two, _ = monte_carlo_mean_fidelities(ks, 2000, 55)
        assert one[0] == two[0] and one[1] == two[1]


class TestPipelineFailure:
    """An error in either thread ends the call with that error, and no thread is left."""

    @pytest.mark.parametrize("target", ["_fidelity_samples", "haar_two_qubit_block"])
    def test_error_on_second_row_is_raised_and_worker_joined(self, monkeypatch, target):
        original = getattr(pnbm.analysis, target)
        error = RuntimeError(f"{target} failed on the second row")
        calls = []

        def fails_on_second_row(*args):
            calls.append(args)  # 1000 samples: one chunk, so one call per row
            if len(calls) == 2:
                raise error
            return original(*args)

        monkeypatch.setattr(pnbm.analysis, target, fails_on_second_row)
        stack = kraus_set(params_from_alpha(np.array([0.0, 0.5, 1.0])))
        raised = []

        def call():
            try:
                monte_carlo_mean_fidelities(stack, 1000, 1)
            except RuntimeError as exc:
                raised.append(exc)

        before = threading.active_count()
        caller = threading.Thread(target=call, daemon=True)
        caller.start()
        caller.join(timeout=10)  # a worker that never answers would hang the call
        assert not caller.is_alive()
        assert raised == [error] and raised[0] is error
        assert threading.active_count() == before

    def test_worker_error_stops_the_caller_at_its_next_row(self, monkeypatch):
        """A failure on the worker's first row ends the caller's 11 rows early."""
        original = pnbm.analysis._fidelity_samples
        error = RuntimeError("_fidelity_samples failed off the calling thread")
        caller = threading.get_ident()
        worker_failed = threading.Event()
        caller_rows = []

        def fails_off_the_caller(*args):
            if threading.get_ident() == caller:
                caller_rows.append(args)  # 1000 samples: one chunk, so one call per row
                worker_failed.wait(timeout=10)  # the caller's first row waits for the failure
            elif not worker_failed.is_set():
                worker_failed.set()
                raise error
            return original(*args)

        monkeypatch.setattr(pnbm.analysis, "_fidelity_samples", fails_off_the_caller)
        stack = kraus_set(params_from_alpha(np.linspace(0.0, 1.0, 21)))
        before = threading.active_count()
        with pytest.raises(RuntimeError) as excinfo:
            monte_carlo_mean_fidelities(stack, 1000, 1)
        assert excinfo.value is error
        assert threading.active_count() == before
        assert len(caller_rows) < 11  # none at all if the worker fails first


def _row_samples(alpha, n_samples, seed):
    """One row's per-sample (f_op, f_est), drawn and evaluated in one piece."""
    rng = np.random.default_rng(seed)
    re = haar_two_qubit_block(rng, np.empty((n_samples, 4)))
    im = rng.standard_normal((n_samples, 4))
    return _fidelity_samples(re, im, kraus_set(params_from_alpha(alpha)).bell_diagonals)


class TestReusedBuffers:
    """The pieces that write into caller-owned buffers give the allocating calls' bits."""

    @pytest.mark.parametrize("n_samples", [1000, _CHUNK - 1, _CHUNK + 1, 100_000])
    def test_mean_stderr_matches_numpy_bit_for_bit(self, n_samples):
        for samples in _row_samples(SYM, n_samples, n_samples):
            deviations = np.empty(n_samples)
            want = (float(samples.mean()), float(samples.std(ddof=1) / math.sqrt(n_samples)))
            assert _mean_stderr(samples, deviations) == want

    def test_mean_stderr_on_near_constant_samples(self):
        """At alpha = 0 every f_op sample is exactly 1; one ulp below it on a random
        half of them, the deviations are ulps."""
        f_op, _ = _row_samples(0.0, 20_000, 104)
        assert np.all(f_op == 1.0)
        lowered = np.where(np.random.default_rng(105).random(len(f_op)) < 0.5,
                           np.nextafter(f_op, 0.0), f_op)
        for samples in (f_op, lowered):
            want = (float(samples.mean()), float(samples.std(ddof=1) / math.sqrt(len(samples))))
            assert _mean_stderr(samples, np.empty(len(samples))) == want
        assert _mean_stderr(f_op, np.empty(len(f_op))) == (1.0, 0.0)

    def test_haar_block_into_buffer_matches_fresh_block(self):
        """The buffer's shape sets the block: the draws of one fresh (n, 4) block."""
        fresh_rng, filled_rng = np.random.default_rng(78), np.random.default_rng(78)
        fresh = fresh_rng.standard_normal((10_000, 4))
        buffer = np.empty((10_000, 4))
        filled = haar_two_qubit_block(filled_rng, buffer)
        assert filled is buffer and filled.tobytes() == fresh.tobytes()
        assert filled_rng.bit_generator.state == fresh_rng.bit_generator.state


def _haar_rows_direct(n_samples, rng):
    """Haar rows straight from the generator, independent of the code under test."""
    z = rng.standard_normal((n_samples, 4)) + 1j * rng.standard_normal((n_samples, 4))
    return z / np.linalg.norm(z, axis=1, keepdims=True)


def _dense_monte_carlo_reference(kraus, n_samples, rng):
    """The dense estimator: both expectations as einsums over the 4x4 operators,
    as (means, stderrs) rows (f_op, f_est)."""
    psi = _haar_rows_direct(n_samples, rng)
    ops = np.stack(kraus.operators)
    expect = np.einsum("ni,kij,nj->kn", psi.conj(), ops, psi)
    f_op_samples = (np.abs(expect) ** 2).sum(axis=0)

    grams = np.stack([op.conj().T @ op for op in kraus.operators])
    p_k = np.einsum("ni,kij,nj->kn", psi.conj(), grams, psi).real
    guesses = _guess_rule(kraus)
    overlaps = np.abs(psi @ guesses.conj().T) ** 2  # (n, 4)
    f_est_samples = (p_k.T * overlaps).sum(axis=1)

    def _mean_stderr(samples: np.ndarray):
        return float(samples.mean()), float(samples.std(ddof=1) / math.sqrt(len(samples)))

    f_op, se_op = _mean_stderr(f_op_samples)
    f_est, se_est = _mean_stderr(f_est_samples)
    return np.array([f_op, f_est]), np.array([se_op, se_est])


class TestBellBasisEstimator:
    @pytest.mark.parametrize(
        "alpha", [0.0, 0.3, SYM, 0.8, 1.0] + [float(a) for a in np.linspace(0.0, 1.0, 21)]
    )
    def test_matches_dense_reference_on_same_draws(self, alpha):
        ks = kraus_set(params_from_alpha(alpha))
        seed = 900 + int(round(1000 * alpha))
        means, stderrs = monte_carlo_mean_fidelities(ks, 20_000, seed)
        dense_means, dense_stderrs = _dense_monte_carlo_reference(
            ks, 20_000, np.random.default_rng(seed)
        )
        assert abs(means[0] - dense_means[0]) <= 1e-14
        assert abs(means[1] - dense_means[1]) <= 1e-14
        assert abs(stderrs[0] - dense_stderrs[0]) <= 1e-14
        assert abs(stderrs[1] - dense_stderrs[1]) <= 1e-14

    def test_haar_block_matches_direct_construction(self):
        rng = np.random.default_rng(77)
        re = haar_two_qubit_block(rng, np.empty((10_000, 4)))
        # The block leaves the stream at the imaginary half: its next (n, 4) draws.
        psi = re + 1j * rng.standard_normal((10_000, 4))
        psi /= np.linalg.norm(psi, axis=1, keepdims=True)
        direct_rng = np.random.default_rng(77)
        direct = _haar_rows_direct(10_000, direct_rng)
        assert np.max(np.abs(np.linalg.norm(psi, axis=1) - 1.0)) <= 1e-15
        assert np.max(np.abs(psi - direct)) <= 1e-15
        # Real half plus imaginary half consume exactly the two (n, 4) draws, no more.
        assert rng.bit_generator.state == direct_rng.bit_generator.state

    @pytest.mark.parametrize("alpha", [0.0, SYM, 1.0])
    @pytest.mark.parametrize(
        "n_samples", [1000, _CHUNK - 1, _CHUNK, _CHUNK + 1, 3 * _CHUNK + 7]
    )
    def test_chunk_boundaries_match_dense_reference(self, alpha, n_samples):
        ks = kraus_set(params_from_alpha(alpha))
        means, stderrs = monte_carlo_mean_fidelities(ks, n_samples, n_samples)
        rng = np.random.default_rng(n_samples)
        dense_means, dense_stderrs = _dense_monte_carlo_reference(ks, n_samples, rng)
        assert abs(means[0] - dense_means[0]) <= 1e-14
        assert abs(means[1] - dense_means[1]) <= 1e-14
        assert abs(stderrs[0] - dense_stderrs[0]) <= 1e-14
        assert abs(stderrs[1] - dense_stderrs[1]) <= 1e-14


def _stabilizer_overlaps():
    """|<s_i|s_j>|^2 over every pair of the normalised stabilizer states."""
    re, im = _stabilizer_states()
    psi = re + 1j * im
    psi /= np.linalg.norm(psi, axis=1, keepdims=True)
    return np.abs(psi.conj() @ psi.T) ** 2


class TestDesignOracle:
    def test_sixty_distinct_stabilizer_states(self):
        overlaps = _stabilizer_overlaps()
        assert overlaps.shape == (60, 60)
        assert np.array_equal(np.round(overlaps, 12) == 1.0, np.eye(60, dtype=bool))

    def test_frame_potential_is_that_of_a_3_design_and_not_a_4_design(self):
        """The mean of |<s_i|s_j>|^(2t) over all pairs is 1 / C(d + t - 1, t), the Haar
        value at d = 4, exactly when the states form a t-design (arXiv:1510.02767)."""
        overlaps = _stabilizer_overlaps()
        for t in (1, 2, 3):
            assert abs((overlaps ** t).mean() - 1 / math.comb(3 + t, t)) <= 1e-15
        assert (overlaps ** 4).mean() - 1 / math.comb(7, 4) > 1e-3

    @pytest.mark.parametrize(
        "alpha", [0.0, 0.3, SYM, 0.8, 1.0] + [float(a) for a in np.linspace(0.0, 1.0, 21)]
    )
    def test_matches_closed_form(self, alpha):
        params = params_from_alpha(alpha)
        design = design_mean_fidelities(kraus_set(params))
        closed = mean_fidelities_closed(params)
        assert abs(design[0] - closed[0]) <= 1e-13
        assert abs(design[1] - closed[1]) <= 1e-13
