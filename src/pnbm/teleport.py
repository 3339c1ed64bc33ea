"""Partial quantum teleportation built on the tunable Bell measurement.

One run tensors the unknown qubit with a shared singlet and the prepared
ancillas, applies the measurement network, reads the ancillas, and applies
the outcome's correction pair. Every outcome occurs with probability 1/4
and leaves the same three-qubit state
``alpha |singlet>_{Aa} |psi>_B - beta |psi>_A |singlet>_{aB}``, whose
marginals split the input between sender and receiver with fidelities
``F_A = 1 - alpha^2/2`` and ``F_B = 1 - beta^2/2`` saturating the
asymmetric-cloning bound. The classical channel is an ideal value hand-off.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .ancilla import AncillaParams, params_from_alpha
from .measurement import ALL_OUTCOMES, network_branches, pnbm_network
from .qsim import (
    ID2,
    PAULI_X,
    PAULI_Y,
    PAULI_Z,
    GateOp,
    PureState,
    apply_unitary,
    bell_state,
    clamp_fidelities,
    fidelity,
    partial_trace,
    pick_outcome,
    readout_index,
    require_density,
    require_within,
    tensor,
)


# Correction unitaries per readout, acting on the pair qubit a and the
# receiver qubit B; every entry is self-inverse.
_CORRECTIONS = {
    "00": (PAULI_Y, PAULI_Y),
    "01": (PAULI_X, PAULI_X),
    "10": (PAULI_Z, PAULI_Z),
    "11": (-ID2, ID2),
}
_CORRECTIONS["11"][0].flags.writeable = False  # the qsim constants are read-only already

# The qubit layout of a run: the final state's amplitudes over FINAL_STATE_LABELS,
# one marginal per MARGINAL_LABELS entry, and a fidelity row's columns FIDELITY_KEYS.
FINAL_STATE_LABELS = ("A", "a", "B")
MARGINAL_LABELS = ("A", "B", "a")
FIDELITY_KEYS = (*(f"f_{label}" for label in MARGINAL_LABELS), "f_a_perp")


def normalize_amplitudes(a: complex, b: complex) -> tuple[complex, complex, float]:
    """``(a, b) / norm`` and ``norm = sqrt(|a|^2 + |b|^2)``, for any finite pair.

    Both amplitudes are first divided by the power of two that brings their
    largest real or imaginary part into [1, 2), so huge inputs do not
    overflow and tiny ones do not underflow when squared; dividing by a
    power of two is exact, so the rescaling loses no precision. Only an
    exact zero pair is rejected.
    """
    a, b = complex(a), complex(b)
    parts = (a.real, a.imag, b.real, b.imag)
    if not all(map(math.isfinite, parts)):
        raise ValueError("non-finite amplitude")
    largest = max(map(abs, parts))
    if largest == 0.0:
        raise ValueError("input amplitudes are both zero")
    scale = math.ldexp(1.0, math.frexp(largest)[1] - 1)
    a, b = a / scale, b / scale
    norm = math.sqrt(abs(a) ** 2 + abs(b) ** 2)
    return a / norm, b / norm, scale * norm


def _orthogonal(psi):
    """``(conj b, -conj a)`` per ``(a, b)`` row: the state orthogonal to the input."""
    return np.stack([psi[..., 1].conj(), -psi[..., 0].conj()], axis=-1)


def closed_form_fidelities(params: AncillaParams) -> np.ndarray:
    """The exact marginal fidelities as functions of (alpha, beta), one row per entry of a stack.

    The last axis holds ``PqtBatch.fidelities``' columns, ``FIDELITY_KEYS``.
    ``float_power`` is libm ``pow``, as float ``**`` is: a stack matches its floats.
    """
    a2, b2 = np.float_power(params.alpha, 2.0), np.float_power(params.beta, 2.0)
    return np.stack(
        [1.0 - a2 / 2.0, 1.0 - b2 / 2.0, (a2 + b2) / 2.0, 1.0 - (a2 + b2) / 2.0], axis=-1
    )


def final_state_direct(psi, params: AncillaParams) -> PureState:
    """Direct construction of the three-qubit output state (test oracle).

    ``alpha |singlet>_{Aa}|psi>_B - beta |psi>_A |singlet>_{aB}`` over
    ``FINAL_STATE_LABELS``, for a normalised ``(2,)`` row ``psi``;
    already normalized by the parameter constraint.
    """
    branch_tele = tensor(bell_state(4, labels=("A", "a")), PureState(psi, ("B",)))
    branch_keep = tensor(PureState(psi, ("A",)), bell_state(4, labels=("a", "B")))
    amps = params.alpha * branch_tele.amplitudes - params.beta * branch_keep.amplitudes
    return PureState(amps, FINAL_STATE_LABELS)


@dataclass(frozen=True, eq=False)
class PqtBatch:
    """One protocol run per row, stacked; ``run_pqt`` gives one row, ``run_pqt_batch`` many."""

    outcomes: np.ndarray  # (n,) readout index 0..3 into ALL_OUTCOMES
    probabilities: np.ndarray  # (n,)
    final_states: np.ndarray  # (n, 8) amplitudes over FINAL_STATE_LABELS after corrections
    marginals: np.ndarray  # (n, 3, 2, 2): one rho per MARGINAL_LABELS entry
    fidelities: np.ndarray  # (n, 4): FIDELITY_KEYS


def run_pqt(
    psi,
    params: AncillaParams,
    forced_outcome: str | None = None,
    rng: np.random.Generator | None = None,
) -> PqtBatch:
    """One full protocol run gate by gate on the qsim objects, as a one-row batch;
    outcome sampled unless forced. ``psi`` is a normalised ``(2,)`` amplitude row,
    one row of ``run_pqt_batch``'s ``inputs``; ``PureState`` checks its norm."""
    psi = np.asarray(psi, dtype=np.complex128)
    state = tensor(PureState(psi, ("A",)), bell_state(4, labels=("a", "B")))
    network = pnbm_network(params)
    outcome, probability, post = network.run(state, forced_outcome=forced_outcome, rng=rng)
    require_within(probability - 0.25, "outcome probability vs 1/4")
    ua, ub = _CORRECTIONS[outcome]
    post = apply_unitary(post, GateOp(ua, ("a",)))
    post = apply_unitary(post, GateOp(ub, ("B",)))

    rhos = [partial_trace(post, label) for label in MARGINAL_LABELS]
    fids = [fidelity(PureState(psi, rho.labels), rho) for rho in rhos]
    fids.append(fidelity(PureState(_orthogonal(psi), ("a",)), rhos[2]))
    return PqtBatch(
        outcomes=np.array([int(outcome, 2)]),
        probabilities=np.array([probability]),
        final_states=post.amplitudes[None],
        marginals=np.stack([rho.matrix for rho in rhos])[None],
        fidelities=np.array([fids]),
    )


# -- batched engine -----------------------------------------------------------

# Per readout index: identity on A times that readout's correction on (a, B).
_CORRECTIONS_AAB = np.stack(
    [np.kron(ID2, np.kron(*_CORRECTIONS[o])) for o in ALL_OUTCOMES]
)


def haar_inputs_and_uniforms(n: int, rng: np.random.Generator) -> tuple[np.ndarray, np.ndarray]:
    """The draws of ``n`` scalar sweep rows, in the scalar order.

    Row i holds the input amplitudes ``haar_random_pure(1, rng)`` draws
    (2 + 2 normals), then the uniform a sampled ``run_pqt`` draws for its
    outcome, so the stream stays that of a loop over both.
    """
    normals = np.empty((n, 4))
    uniforms = np.empty(n)
    for i in range(n):
        rng.standard_normal(out=normals[i])
        uniforms[i] = rng.random()
    z = normals[:, :2] + 1j * normals[:, 2:]
    return z / np.linalg.norm(z, axis=1, keepdims=True), uniforms


def readout_branches(inputs, params: AncillaParams) -> tuple[np.ndarray, np.ndarray]:
    """``run_pqt``'s front half on every ``(n, 2)`` input row at once: ``psi (x) singlet``
    over ``FINAL_STATE_LABELS`` through ``network_branches``. Returns every readout's
    unnormalised branch, ``(n, 8, 4)``, and its probability, the squared norm, ``(n, 4)``."""
    rows = np.einsum("ni,j->nij", inputs, bell_state(4).amplitudes).reshape(len(inputs), 8)
    branch = network_branches(rows, FINAL_STATE_LABELS, params)
    return branch, (np.abs(branch) ** 2).sum(axis=1)


def run_pqt_batch(
    inputs,
    params: AncillaParams,
    forced_outcome: str | None = None,
    uniforms=None,
) -> PqtBatch:
    """``run_pqt`` on every row at once: row i runs ``inputs[i]`` with entry i of ``params``.

    ``inputs`` is an ``(n, 2)`` array of normalised amplitudes (a, b).
    ``readout_branches`` runs the network on all rows in one matmul. Each
    row's outcome is the 2-bit ``forced_outcome`` or comes from
    ``uniforms[i]``, the draw a sampled ``run_pqt`` makes, by ``pick_outcome``.
    The qsim checks that the scalar constructors make, ``require_density`` on
    the marginals and ``clamp_fidelities``, run once per batch on the stack.
    """
    inputs = np.asarray(inputs, dtype=np.complex128)
    n = np.size(params.alpha)
    if n == 0 or inputs.shape != (n, 2):
        raise ValueError(f"need one (a, b) row per params entry, got {inputs.shape} for {n}")
    branch, probs = readout_branches(inputs, params)
    forced = None if forced_outcome is None else readout_index(forced_outcome)
    outcomes = pick_outcome(probs, forced, uniforms=uniforms)
    rows = np.arange(n)
    probability = probs[rows, outcomes]
    require_within(probability - 0.25, "outcome probability vs 1/4")
    post = branch[rows, :, outcomes] / np.sqrt(probability)[:, None]
    # One matmul per readout; a per-row (n, 8, 8) gather would be the largest array here.
    final = np.empty_like(post)
    for readout, correction in enumerate(_CORRECTIONS_AAB):
        picked = outcomes == readout
        final[picked] = post[picked] @ correction.T

    t = final.reshape(n, 2, 2, 2)
    tc = t.conj()
    # In MARGINAL_LABELS order.
    marginals = np.stack(
        [
            np.einsum("nijk,nljk->nil", t, tc),  # A
            np.einsum("nijk,nijl->nkl", t, tc),  # B
            np.einsum("nijk,nilk->njl", t, tc),  # a
        ],
        axis=1,
    )
    require_density(marginals, "marginal")

    perp = _orthogonal(inputs)
    fids = np.column_stack([
        np.einsum("ni,nmij,nj->nm", inputs.conj(), marginals, inputs).real,
        np.einsum("ni,nij,nj->n", perp.conj(), marginals[:, 2], perp).real,
    ])
    return PqtBatch(
        outcomes=outcomes,
        probabilities=probability,
        final_states=final,
        marginals=marginals,
        fidelities=clamp_fidelities(fids),
    )


def cloning_residual(f_A: float, f_B: float) -> float:
    """Distance from the asymmetric-cloning equality.

    Returns ``(1-F_A)(1-F_B) - [1/2 - (1-F_A) - (1-F_B)]^2``; zero means
    saturation. Where ``1/2 - (1-F_A) - (1-F_B) >= 0``, as on the protocol's
    whole locus, nonnegative (within tolerance) means the bound holds. Beyond
    that the sign says nothing: F_A = F_B = 0 gives -1.25, yet the bound holds.
    ``float_power`` is libm ``pow``, as float ``**`` is: arrays match scalars.
    """
    da, db = 1.0 - f_A, 1.0 - f_B
    return da * db - np.float_power(0.5 - da - db, 2.0)


def pct_bound_curve(n_points: int) -> dict[str, np.ndarray]:
    """Optimal measure-and-estimate frontier: F_A = 1/3 + (sqrt(F_B - 1/3) + sqrt(2/3 - F_B))^2,
    as ``{"f_A": ..., "f_B": ...}`` columns ordered by increasing F_B."""
    if n_points < 2:
        raise ValueError("n_points must be at least 2")
    f_b = np.linspace(1 / 3, 2 / 3, n_points)
    f_a = 1 / 3 + (np.sqrt(f_b - 1 / 3) + np.sqrt(np.maximum(2 / 3 - f_b, 0.0))) ** 2
    return {"f_A": f_a, "f_B": f_b}


def pqt_bound_curve(n_points: int) -> dict[str, np.ndarray]:
    """Saturation locus of the cloning inequality, swept by the ancilla knob, as
    ``{"f_A": ..., "f_B": ...}`` columns ordered by increasing F_B."""
    if n_points < 2:
        raise ValueError("n_points must be at least 2")
    f = closed_form_fidelities(params_from_alpha(np.linspace(0.0, 1.0, n_points)))
    return {"f_A": f[:, 0], "f_B": f[:, 1]}


def pct_upper_teleportation_fidelity(f_A):
    """Larger F_B root of the optimal-PCT equality at each F_A in [2/3, 1]."""
    f_A = np.asarray(f_A, dtype=float)
    if not ((2 / 3 - 1e-12 <= f_A) & (f_A <= 1 + 1e-12)).all():
        raise ValueError("optimal PCT only reaches operation fidelities in [2/3, 1]")
    disc = 1 / 9 - np.float_power(f_A - 2 / 3, 2.0)
    u = (1 / 3 + np.sqrt(np.maximum(disc, 0.0))) / 2.0
    return 1 / 3 + u


def pqt_teleportation_fidelity(f_A):
    """F_B on the PQT frontier at each F_A in [1/2, 1]."""
    f_A = np.asarray(f_A, dtype=float)
    if not ((0.5 - 1e-12 <= f_A) & (f_A <= 1 + 1e-12)).all():
        raise ValueError("PQT operation fidelity lies in [1/2, 1]")
    alpha = np.sqrt(np.maximum(2.0 * (1.0 - f_A), 0.0))
    return closed_form_fidelities(params_from_alpha(np.minimum(alpha, 1.0)))[..., 1]

