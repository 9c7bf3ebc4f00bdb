import numpy as np
import pytest

from upb3q import dynamics, entanglement, linalg, pauli, states
from upb3q import claims
from upb3q.claims import run_claims
from upb3q.dynamics import (
    _orbit_spectra,
    COS_SET,
    FIXED_POINT,
    ONE_SPIN,
    ORBIT,
    SIN_SET,
    STAGE1,
    STAGE2,
    TAU_P,
    BadAxis,
    adjoint_matrix,
    byproduct_preparation,
    generator,
    named_flow,
    orbit,
    prepare_upb,
    rodrigues_flow,
    stationarity,
)
from upb3q.entanglement import partial_transpose
from upb3q.linalg import NonHermitian, ShapeMismatch, jacobi_eigh
from upb3q.pauli import LAMBDA_BASIS, SQRT2, from_coherence, label_index, to_coherence
from upb3q.states import X, family_mixture, reflect, rho_sep, rho_upb

from helpers import min_pt_eig_alone

SQRT3 = np.sqrt(3.0)
SQRT6 = np.sqrt(6.0)
NAMED = [STAGE1, STAGE2, ORBIT]
RNG = np.random.default_rng(11)


def eigh_flow(h, t, rho):
    """Oracle: exp(-itH) rho exp(+itH) through numpy.linalg.eigh."""
    w, v = np.linalg.eigh(h)
    u = (v * np.exp(-1j * t * w)) @ v.conj().T
    return u @ rho @ u.conj().T


def random_density():
    m = RNG.normal(size=(8, 8)) + 1j * RNG.normal(size=(8, 8))
    rho = m @ m.conj().T
    return rho / np.trace(rho).real


def test_period_constant():
    assert abs(TAU_P - 2 * SQRT2 * np.pi) < 1e-15


def test_generator_matrix():
    h = generator("333")
    assert np.abs(h - LAMBDA_BASIS[label_index("333")]).max() == 0.0
    h2 = generator("011", "033")
    expect = LAMBDA_BASIS[label_index("011")] + LAMBDA_BASIS[label_index("033")]
    assert np.array_equal(h2, expect)
    assert generator(*STAGE2).shape == (8, 8)


def test_generator_rejects_bad_labels():
    for bad in ("393", "33", "3333", "x33"):
        with pytest.raises(ValueError):
            generator(bad)


def test_adjoint_matrix_is_real_antisymmetric():
    for axis in (STAGE1, ORBIT):
        r = adjoint_matrix(axis)
        assert r.shape == (64, 64)
        assert np.abs(r + r.T).max() < 1e-14
    with pytest.raises(BadAxis):
        adjoint_matrix(("111",))


def test_adjoint_matrix_matches_commutator():
    # column a of R must hold the components of -i[Lambda_axis, Lambda_a]
    rng = np.random.default_rng(3)
    for axis, label in ((STAGE1, "333"), (ORBIT, "222")):
        r = adjoint_matrix(axis)
        h = LAMBDA_BASIS[label_index(label)]
        for a in rng.choice(64, size=12, replace=False):
            comm = -1j * (h @ LAMBDA_BASIS[a] - LAMBDA_BASIS[a] @ h)
            col = np.einsum("bij,ji->b", LAMBDA_BASIS, comm).real
            assert np.abs(r[:, a] - col).max() < 1e-13


@pytest.mark.parametrize("axis,label", [(STAGE1, "333"), (ORBIT, "222")], ids=["333-333", "222-222"])
def test_rodrigues_flow_matches_conjugation(axis, label):
    tens = to_coherence(rho_upb())
    worst = 0.0
    for t in np.linspace(0.0, TAU_P, 9):
        direct = from_coherence(rodrigues_flow(axis, t, tens))
        oracle = eigh_flow(generator(label), t, rho_upb())
        worst = max(worst, np.abs(direct - oracle).max())
    assert worst < 1e-12


def test_rodrigues_flow_period_and_identity():
    tens = to_coherence(rho_sep())
    zero = rodrigues_flow(STAGE1, 0.0, tens)
    assert np.abs(zero - tens).max() == 0.0
    again = rodrigues_flow(ORBIT, TAU_P, tens)
    assert np.abs(again - tens).max() < 1e-12


def test_preparation_standard_checkpoints():
    trace = prepare_upb("standard")
    assert sorted(trace.checkpoints) == ["final", "intermediate"]
    assert np.abs(trace.checkpoints["intermediate"] - family_mixture("mu")).max() < 1e-12
    assert np.abs(trace.checkpoints["final"] - rho_upb()).max() < 1e-12
    # 9 interior samples per stage, each scored on all three cuts
    assert len(trace.interior) == 18
    assert {s.stage for s in trace.interior} == {1, 2}
    for s in trace.interior:
        assert len(s.min_pt_eigs) == 3
        assert max(s.min_pt_eigs) < -1e-6


def test_preparation_swapped_reflects_intermediate():
    std = prepare_upb("standard", interior_samples=2)
    swp = prepare_upb("swapped", interior_samples=2)
    assert np.abs(swp.checkpoints["final"] - rho_upb()).max() < 1e-12
    refl = from_coherence(reflect(to_coherence(std.checkpoints["intermediate"])))
    assert np.abs(swp.checkpoints["intermediate"] - refl).max() < 1e-12
    assert [s.stage for s in swp.interior] == [1, 1, 2, 2]


def test_prepare_upb_argument_validation():
    with pytest.raises(ValueError):
        prepare_upb("sideways")
    # a one-element array used to run the standard order, and a longer one
    # raised numpy's bare "truth value of an array ... is ambiguous"
    for bad in (np.array(["standard"]), np.array(["standard", "swapped"])):
        with pytest.raises(ValueError, match="order must be 'standard' or 'swapped'"):
            prepare_upb(bad, 1)
    with pytest.raises(ValueError):
        prepare_upb(interior_samples=-1)
    # a numpy integer is a count
    assert orbit(np.int64(2)).t.shape == (2,)
    assert len(prepare_upb("standard", np.int64(1)).interior) == 2


def test_flows_reject_rho_of_another_shape(solver_calls):
    # both used to fail inside numpy with "matmul: Input operand 1 has a
    # mismatch in its core dimension 0"
    h = generator("333")
    for rho in (np.eye(4) / 4, np.array([rho_upb()] * 2)):
        with pytest.raises(ShapeMismatch, match=r"must have shape \(8, 8\)"):
            named_flow(STAGE1, 0.3, rho)
        with pytest.raises(ShapeMismatch, match=r"must have shape \(8, 8\)"):
            stationarity(h, rho)
    # a stack of generators used to give one norm for the whole stack
    with pytest.raises(ShapeMismatch, match=r"must have shape \(8, 8\)"):
        stationarity(np.array([h, h]), rho_upb())
    # a NaN matrix used to give a NaN norm, a non-Hermitian one a meaningless norm
    skew = h + np.triu(np.ones((8, 8)), 1)
    for bad in (np.full((8, 8), np.nan), np.full((8, 8), np.inf), skew):
        for args in ((bad, rho_upb()), (h, bad)):
            with pytest.raises(NonHermitian):
                stationarity(*args)
    assert solver_calls == []


@pytest.mark.parametrize("order", ["standard", "swapped"])
def test_prepare_upb_makes_one_solve(order, solver_calls):
    # cut 1 of all 2 x 9 interior probes and cuts 2 and 3 of each stage's
    # first probe in one solve; the stage flows read the spectral table and
    # solve nothing, in a first call as in a second
    for _ in range(2):
        solver_calls.clear()
        prepare_upb(order, 9)
        assert solver_calls == [22]


def test_generator_caches_are_read_only():
    # a caller that wrote into a cached adjoint generator used to change every
    # later flow of the process
    for arrays in [dynamics._generator_powers(axis) for axis in (STAGE1, ORBIT)]:
        for a in arrays:
            with pytest.raises(ValueError, match="read-only"):
                a[0] = 0.0


@pytest.mark.parametrize("labels", NAMED, ids=["STAGE1", "STAGE2", "ORBIT"])
def test_spectral_table_holds_the_projectors_of_each_named_generator(labels):
    # M = 2 sqrt2 H has Gaussian-integer entries; its projectors resolve the
    # identity, are orthogonal idempotents and are eigenprojectors of M:
    # exactly for the (I +- M) / 2 of STAGE1 and ORBIT, and within one
    # rounding of the divisions by 12, 8 and 24 for STAGE2
    lams, projectors = dynamics._SPECTRA[labels]
    h = 2.0 * SQRT2 * generator(*labels)
    m = np.rint(h.real) + 1j * np.rint(h.imag)
    assert np.abs(m - h).max() < 1e-14
    tol = 1e-15 if labels == STAGE2 else 0.0
    assert np.abs(projectors.sum(axis=0) - np.eye(8)).max() <= tol
    for j, (lam, p) in enumerate(zip(lams, projectors)):
        assert round(np.trace(p).real) >= 1  # every listed eigenvalue occurs
        assert np.abs(m @ p - lam * p).max() <= tol
        for k, q in enumerate(projectors):
            assert np.abs(p @ q - (p if j == k else 0.0)).max() <= tol
    # a caller that wrote into the table would change every later flow
    for a in (lams, projectors):
        with pytest.raises(ValueError, match="read-only"):
            a[0] = 0.0


def test_named_flow_matches_an_eigh_oracle_without_a_solve(solver_calls):
    # at the 33 times of the rodrigues.match_* claims, from the complement
    # state, and on both preparation stage grids of 9 interior times and the
    # endpoint, from the separable mixture
    runs = [(labels, np.linspace(0.0, TAU_P, 33), rho_upb()) for labels in NAMED]
    runs += [(labels, duration * np.arange(1, 11) / 10, rho_sep())
             for labels, duration in ((STAGE1, TAU_P / 2), (STAGE2, TAU_P / 4))]
    for labels, times, rho in runs:
        flows = named_flow(labels, times, rho)
        oracle = [eigh_flow(generator(*labels), t, rho) for t in times]
        assert np.abs(flows - oracle).max() < 1e-14
    assert solver_calls == []


@pytest.mark.parametrize("labels", NAMED, ids=["STAGE1", "STAGE2", "ORBIT"])
def test_named_flow_preserves_spectrum_and_trace(labels):
    rho = random_density()
    out = named_flow(labels, 0.7, rho)
    assert abs(np.trace(out).real - 1.0) < 1e-12
    assert np.abs(np.linalg.eigvalsh(out) - np.linalg.eigvalsh(rho)).max() < 1e-11
    # t=0 is the identity map
    assert np.abs(named_flow(labels, 0.0, rho) - rho).max() < 1e-14


@pytest.mark.parametrize("labels", NAMED, ids=["STAGE1", "STAGE2", "ORBIT"])
def test_named_flow_group_law(labels):
    rho = random_density()
    one = named_flow(labels, 0.9, named_flow(labels, 0.4, rho))
    two = named_flow(labels, 1.3, rho)
    assert np.abs(one - two).max() < 1e-12


@pytest.mark.parametrize("length", [1, 2, 33, 37])
def test_named_flow_on_a_grid_has_the_bits_of_one_call_per_time(length):
    rho = random_density()
    times = RNG.normal(size=length) * 5.0
    ints = np.arange(-2, length - 2)
    for labels in NAMED:
        want = b"".join(named_flow(labels, t, rho).tobytes() for t in times)
        for grid in (times, list(times)):
            flows = named_flow(labels, grid, rho)
            assert flows.shape == (length, 8, 8)
            assert flows.tobytes() == want
        assert named_flow(labels, ints, rho).tobytes() == b"".join(
            named_flow(labels, int(t), rho).tobytes() for t in ints)


@pytest.mark.parametrize("t", [
    np.array([0.1, np.nan]), np.array([np.inf, 0.2]), np.zeros((2, 2)), np.array([True, False]),
    np.array(["0.3"]), np.array([0.3 + 0j]), [0.1, None], [0.1, [0.2, 0.3]],
], ids=["nan", "inf", "2-d", "bool", "string", "complex", "none-entry", "ragged"])
def test_named_flow_rejects_a_bad_time_grid(solver_calls, t):
    # the time is checked before any flow
    pattern = "flow time must be a finite real number or a 1-D grid of them"
    with pytest.raises(ValueError, match=pattern):
        named_flow(STAGE1, t, rho_upb())
    assert solver_calls == []


@pytest.mark.parametrize("order", ["standard", "swapped"])
def test_prepare_upb_probes_fill_one_chunk(order, solver_calls):
    # 2 x 36 + 4 = 76 solved cuts fit one chunk of the batched solver
    prepare_upb(order, 36)
    assert solver_calls == [76]


# Matrices per internal solve: one float64 stack of each sample's state and
# its 3 partial transposes, 4N matrices (the reflections are not solved),
# which the solver splits into full chunks of 1024 real 8x8 matrices (the
# 512 KiB of linalg._MAX_STACK_BYTES) and a remainder; every N of the
# benchmark's verify (56-72) and orbit (120-136) bands, 140, 256, the last N
# in one chunk, and 257, 279 and 280 past it.
ORBIT_SOLVES = {
    **{n: [4 * n] for n in (2, 4, *range(56, 73), *range(120, 137), 140, 256)},
    257: [1024, 4], 279: [1024, 92], 280: [1024, 96],
}


def test_orbit_solves_full_chunks(solver_calls):
    for samples, sizes in ORBIT_SOLVES.items():
        solver_calls.clear()
        orbit(samples)
        assert solver_calls == sizes, samples


def with_transposes(mats):
    """(..., 4, 8, 8): each (..., 8, 8) matrix, then its partial transposes on qubit 1, 2 and 3."""
    return np.concatenate([mats[..., None, :, :], partial_transpose(mats)], axis=-3)


@pytest.mark.parametrize("samples", [2, 4, 64, 65, 129, 136])
def test_orbit_spectra_have_the_bytes_of_one_stacked_solve(samples, monkeypatch):
    # orbit(N) hands jacobi_eigh one contiguous float64 stack of all 4N state
    # matrices, each itself and under the 3 partial transposes, not one of
    # whose imaginary bits is set, and its spectra have the bits of that
    # plain solve; each reflection's spectra are 1/4 minus its state's, reversed
    stacks = []
    monkeypatch.setattr(dynamics, "jacobi_eigh", lambda m, **kw: stacks.append(m) or jacobi_eigh(m, **kw))
    orb = orbit(samples)
    mats = with_transposes(from_coherence(orb.tensors))
    assert not mats.view(np.int64)[..., 1::2].any()
    [stack] = stacks
    assert stack.dtype == np.float64 and stack.flags.c_contiguous and stack.shape == (4 * samples, 8, 8)
    assert stack.tobytes() == mats.real.reshape(-1, 8, 8).tobytes()
    assert orb.spectra[:, 0].tobytes() == jacobi_eigh(mats.real, want_vectors=False)[0].tobytes()
    assert orb.spectra[:, 1].tobytes() == (0.25 - orb.spectra[:, 0, :, ::-1]).tobytes()


@pytest.mark.parametrize("samples", [2, 4, 64, 65, 136])
def test_reflected_spectra_are_a_quarter_minus_the_state_spectra(samples):
    # reflect(c) is I/4 - rho on the trace-1 orbit and partial transposition
    # is linear, so the derived spectra of the reflected half lie within 1e-15
    # (5.8e-16 measured) of direct solves of the reflected matrices and their
    # transposes, by the Jacobi solver and by LAPACK
    orb = orbit(samples)
    derived = orb.spectra[:, 1]
    assert derived.tobytes() == (0.25 - orb.spectra[:, 0, :, ::-1]).tobytes()
    reflected = with_transposes(from_coherence(reflect(orb.tensors))).real
    assert np.abs(derived - jacobi_eigh(reflected, want_vectors=False)[0]).max() < 1e-15
    assert np.abs(derived - np.linalg.eigvalsh(reflected)).max() < 1e-15


@pytest.mark.parametrize("zero", [0.0, -0.0])
def test_a_transpose_that_differs_only_by_a_signed_zero_is_solved(solver_calls, zero):
    # m[0, 4] and m[4, 0] trade places under the transpose of qubit 1, and no
    # other transpose moves them; the orbit's matrices carry signed zeros.
    # Each transpose is solved, whether or not it carries its matrix's bits
    m = np.diag(np.arange(8.0)).astype(complex)
    m[0, 1] = m[1, 0] = 0.5
    m[0, 4] = zero
    mats = np.array([m])
    pts = partial_transpose(m)
    assert all(np.array_equal(pt, m) for pt in pts)  # equal as numbers either way
    assert [pt.tobytes() == m.tobytes() for pt in pts] == [not np.signbit(zero), True, True]
    spectra = _orbit_spectra(mats)
    assert solver_calls == [4]
    assert spectra[:, 0].tobytes() == jacobi_eigh(with_transposes(mats).real, want_vectors=False)[0].tobytes()


@pytest.mark.parametrize("samples", [2, 33, 128])
def test_orbit_checks_each_coherence_vector_once(samples, monkeypatch):
    # two checks: the base vector, once in its one grid flow call, and the
    # stack it turns into matrices; never one per time, and the reflections
    # are not built; orbit(128) used to make 512 checks, then 130, then 2
    calls = []
    inner = linalg._array

    def counting(x, what, shape=None, **kwargs):
        if shape in ((64,), (..., 64)):
            calls.append(np.shape(x))
        return inner(x, what, shape, **kwargs)

    for module in (linalg, pauli, states, entanglement, dynamics):
        monkeypatch.setattr(module, "_array", counting)
    orbit(samples)
    assert calls == [(64,), (samples, 64)]


def test_orbit_grid_and_invariants():
    orb = orbit(8)
    assert (orb.t.shape, orb.tensors.shape, orb.spectra.shape) == ((8,), (8, 64), (8, 2, 4, 8))
    assert orb.t[0] == 0.0
    assert abs(orb.t[2] - TAU_P / 4) < 1e-15
    for spectra in orb.spectra:  # (reflected, PT cut, 8) per sample
        assert spectra[0, 1:, 0].min() >= -1e-10 and spectra[1, 1:, 0].min() >= -1e-10
        assert [int(np.sum(np.abs(w) > 1e-9)) for w in spectra[:, 0]] == [4, 4]
    with pytest.raises(ValueError):
        orbit(1)


@pytest.mark.parametrize("samples", [2, 64, 65])
def test_orbit_blocks_match_per_matrix_solves(samples):
    # each of the 4 state spectra per sample against a one-matrix real solve
    # of a matrix built from one vector, and each of the 4 reflected spectra
    # against a one-matrix solve of its reflected matrix; the orbit builds its
    # matrices from a stack and derives the reflected spectra
    orb = orbit(samples)
    for tensor, spectra in zip(orb.tensors, orb.spectra):
        m = from_coherence(tensor)
        assert np.array_equal(spectra[0, 0], jacobi_eigh(m.real, want_vectors=False)[0])
        for pt, pt_eigs in zip(partial_transpose(m), spectra[0, 1:]):
            assert np.array_equal(pt_eigs, jacobi_eigh(pt.real, want_vectors=False)[0])
        for r, eigs in zip(with_transposes(from_coherence(reflect(tensor))).real, spectra[1]):
            assert np.abs(eigs - jacobi_eigh(r, want_vectors=False)[0]).max() < 1e-15


@pytest.mark.parametrize("imag, dtype", [(0.0, np.float64), (-0.0, np.complex128), (5e-324, np.complex128)])
def test_one_set_imaginary_bit_keeps_the_orbit_stack_complex(monkeypatch, imag, dtype):
    # the path is read from the bits: a -0.0 imaginary part is a set bit, and
    # so is the smallest subnormal; the stack then has its complex bits
    seen = []
    monkeypatch.setattr(dynamics, "jacobi_eigh", lambda m, **kw: seen.append(m.dtype) or jacobi_eigh(m, **kw))
    mats = from_coherence(orbit(4).tensors)
    mats[1, 3, 3] = complex(mats[1, 3, 3].real, imag)
    spectra = _orbit_spectra(mats)
    assert seen[-1] == dtype
    stack = with_transposes(mats)
    solved = stack.real if dtype is np.float64 else stack
    assert spectra[:, 0].tobytes() == jacobi_eigh(solved, want_vectors=False)[0].tobytes()
    assert spectra[:, 1].tobytes() == (0.25 - spectra[:, 0, :, ::-1]).tobytes()


@pytest.mark.parametrize("samples", [2, 33, 128])
def test_orbit_tensors_match_the_flow_at_every_time(samples):
    # the orbit is one grid flow, so each sample has the bytes of one flow call at its time
    orb = orbit(samples)
    base = to_coherence(rho_sep())
    flowed = np.array([rodrigues_flow(ORBIT, t, base) for t in orb.t])
    assert orb.tensors.tobytes() == flowed.tobytes()


@pytest.mark.parametrize("order", ["standard", "swapped"])
@pytest.mark.parametrize("k", [0, 1, 9, 32, 36])
def test_prepare_upb_matches_per_probe_flows(order, k):
    # cut 1 of every probe, and every cut of each stage's first probe, has the
    # bits of a one-matrix solve of its own transpose; the other probes carry
    # cut 1's minimum to cuts 2 and 3, within 1e-15 of their own solves
    trace = prepare_upb(order, k)
    state = rho_sep()
    probes = iter(trace.interior)
    stages = [(STAGE1, TAU_P / 2), (STAGE2, TAU_P / 4)]
    if order == "swapped":
        stages.reverse()
    for num, (labels, duration) in enumerate(stages, start=1):
        h = generator(*labels)
        for j in range(1, k + 1):
            t = duration * j / (k + 1)
            probe = named_flow(labels, t, state)
            assert np.abs(probe - eigh_flow(h, t, state)).max() < 1e-14
            sample = next(probes)
            assert (sample.stage, sample.t) == (num, t)
            alone = tuple(min_pt_eig_alone(probe, q) for q in (1, 2, 3))
            if j == 1:
                assert sample.min_pt_eigs == alone
            else:
                assert sample.min_pt_eigs == (alone[0],) * 3
                assert max(abs(a - b) for a, b in zip(sample.min_pt_eigs, alone)) <= 1e-15
        start, state = state, named_flow(labels, duration, state)
        assert np.abs(state - eigh_flow(h, duration, start)).max() < 1e-14
        assert np.array_equal(trace.checkpoints["intermediate" if num == 1 else "final"], state)
    assert next(probes, None) is None


@pytest.mark.parametrize("orders", [("standard", "swapped"), ("swapped", "standard")])
@pytest.mark.parametrize("k", [0, 1, 9, 32])
def test_prepare_upb_on_a_tuple_has_the_bits_of_one_order_calls(solver_calls, orders, k):
    # one solve scores the 2k + 4 probe transposes of each order (none at k = 0),
    # and each trace has the bits of its one-order call, in tuple order
    pooled = prepare_upb(orders, k)
    assert solver_calls == ([2 * (2 * k + 4)] if k else [])
    assert isinstance(pooled, tuple) and len(pooled) == 2
    for order, trace in zip(orders, pooled):
        alone = prepare_upb(order, k)
        assert sorted(trace.checkpoints) == sorted(alone.checkpoints) == ["final", "intermediate"]
        for name, state in alone.checkpoints.items():
            assert trace.checkpoints[name].tobytes() == state.tobytes()
        assert len(trace.interior) == len(alone.interior) == 2 * k
        for got, want in zip(trace.interior, alone.interior):
            assert got.stage == want.stage
            assert np.array(got.t).tobytes() == np.array(want.t).tobytes()
            assert np.array(got.min_pt_eigs).tobytes() == np.array(want.min_pt_eigs).tobytes()


@pytest.mark.parametrize("order", ["standard", "swapped"])
@pytest.mark.parametrize("dropped", STAGE2)
def test_a_non_cyclic_stage_raises_before_any_solve(monkeypatch, solver_calls, order, dropped):
    # STAGE2 without one label is no longer invariant under the cyclic qubit
    # shift, and neither are its probes: prepare_upb names the residue and
    # derives no cut's minimum from another's
    labels = tuple(s for s in STAGE2 if s != dropped)
    w, v = np.linalg.eigh(2.0 * SQRT2 * generator(*labels))
    monkeypatch.setattr(dynamics, "STAGE2", labels)
    monkeypatch.setitem(dynamics._SPECTRA, labels, (w, np.einsum("ik,jk->kij", v, v.conj())))
    pattern = r"cyclic residue \|\|rho - Pi rho Pi\^T\|\|_F = \d\.\d{3}e-\d\d > 1e-14"
    # a tuple of orders checks each order before its one solve
    for arg in (order, (order,), ("standard", "swapped")):
        with pytest.raises(dynamics.NotCyclic, match=pattern):
            prepare_upb(arg, 9)
    assert solver_calls == []


def test_orbit_three_coherence_law():
    orb = orbit(6)
    for t, c in zip(orb.t, orb.tensors):
        phase = t / SQRT2
        assert np.abs(c[list(SIN_SET)] + X * np.sin(phase)).max() < 1e-12
        assert np.abs(c[list(COS_SET)] + X * np.cos(phase)).max() < 1e-12


def test_orbit_role_swap_claims():
    # the separable and bound-entangled roles swap at t = 0, TAU_P/4, TAU_P/2;
    # the grid size only feeds the sampled orbit claims, not these five
    reports = {r.claim_id: r for r in run_claims(filter="orbit.*", orbit_samples=4)}
    for cid in ("orbit.start_matches_families", "orbit.quarter_matches_table",
                "orbit.quarter_is_theta_complement", "orbit.quarter_reflection_equals_theta",
                "orbit.half_equals_phi"):
        assert reports[cid].status == "pass"
        assert reports[cid].measured < 1e-13


def test_stationarity_of_named_generators():
    rho = rho_upb()
    assert stationarity(generator(*FIXED_POINT), rho) < 1e-12
    assert abs(stationarity(generator(*ORBIT), rho) - 0.125) < 1e-12
    # the individual single-qubit generators all move the state; the norms
    # are sqrt(3)*x for axes 1 and 3 and sqrt(6)*x for axis 2
    for label in ONE_SPIN:
        axis = max(label)
        expect = (SQRT6 if axis == "2" else SQRT3) * X
        assert abs(stationarity(generator(label), rho) - expect) < 1e-12


def test_fixed_point_terms_move_individually():
    rho = rho_upb()
    for label in FIXED_POINT:
        assert stationarity(generator(label), rho) > 0.1


def test_byproduct_preparation():
    evolutions = byproduct_preparation()
    # four signed candidates collapse to two distinct evolutions mod the period,
    # in ascending parameter order
    assert [r for r, _ in evolutions] == sorted(round(t, 12) for t in (TAU_P / 4, 3 * TAU_P / 4))
    parameter, distance = min(evolutions, key=lambda e: e[1])
    assert distance < 1e-12
    assert abs(parameter - 3 * TAU_P / 4) < 1e-9
    theta_t = to_coherence(family_mixture("theta"))
    landed = from_coherence(rodrigues_flow(ORBIT, parameter, theta_t))
    assert np.abs(landed - rho_upb()).max() < 1e-12
    misses = [d for _, d in evolutions if d > 1e-10]
    assert len(misses) == 1 and misses[0] > 0.3


def test_byproduct_claims_grade_an_absurd_flow_tolerance(monkeypatch):
    # the closest evolution is returned and graded at _FLOW_TOL, so a
    # tolerance below its 5.6e-14 distance gives verdicts, not errors; the
    # registry reads the constant when it is built, so it is rebuilt here
    monkeypatch.setattr(claims, "_FLOW_TOL", 1e-30)
    monkeypatch.setattr(claims, "_REGISTRY", claims._registry())
    reports = {r.claim_id: r for r in run_claims(filter="byproduct.*") if r.status != "skip"}
    assert not [r for r in reports.values() if str(r.measured).startswith("error:")]
    assert {cid: r.status for cid, r in reports.items()} == {
        "byproduct.distance": "fail",
        "byproduct.unique": "fail",
        "byproduct.parameter": "pass",
        "byproduct.decoy_misses": "pass",
    }


def test_bloch_rotation_between_psi_and_phi():
    # member-aligned pi rotation about axis 2: (x,y,z) -> (-x,y,-z)
    from upb3q.pauli import bloch_vector
    from upb3q.states import family

    rot = np.diag([-1.0, 1.0, -1.0])
    psi = family("psi")
    phi = family("phi")
    for p, f in zip(psi, phi):
        for lp, lf in zip(p.locals, f.locals):
            bp = bloch_vector(np.outer(lp, lp.conj()))
            bf = bloch_vector(np.outer(lf, lf.conj()))
            assert np.abs(bf - rot @ bp).max() < 1e-12


def test_rodrigues_flow_has_the_bits_of_its_closed_form():
    # c + sqrt2 sin(t/sqrt2) (R c) + 2 (1 - cos(t/sqrt2)) (R^2 c), summed left to right on a (1,) time
    cs = [to_coherence(rho_sep()), to_coherence(rho_upb())] + list(np.random.default_rng(5).normal(size=(2, 64)))
    times = list(np.linspace(-TAU_P, 2.0 * TAU_P, 25)) + [0.0, -0.0, 1e-300, 1e6]
    for axis in (STAGE1, ORBIT):
        r, r2 = dynamics._generator_powers(axis)
        for t in times:
            phi = np.array([t]) / SQRT2
            for c in cs:
                want = c + SQRT2 * np.sin(phi) * (r @ c) + 2.0 * (1.0 - np.cos(phi)) * (r2 @ c)
                assert rodrigues_flow(axis, float(t), c).tobytes() == want.tobytes()


@pytest.mark.parametrize("axis", [STAGE1, ORBIT], ids=["333", "222"])
def test_rodrigues_flow_grid_rows_have_the_bits_of_one_time_calls(axis):
    # sin and cos run on vector lanes: every row of a grid, whatever its
    # length or place in the grid, has the bytes of the one-time call
    times = np.concatenate([np.linspace(-2.0 * TAU_P, 0.0, 9), [0.0, -0.0, 1e-300, -1e-300, 1e6, -1e6],
                            TAU_P * np.arange(136) / 136])  # the last 136: orbit(136)'s grid
    cs = [to_coherence(rho_sep()), to_coherence(rho_upb()), np.random.default_rng(7).normal(size=64)]
    for c in cs:
        ones = np.array([rodrigues_flow(axis, float(t), c) for t in times])
        grid = rodrigues_flow(axis, times, c)
        assert grid.shape == (len(times), 64)
        assert grid.tobytes() == ones.tobytes()
        for n in (1, 2, 3, 5, 8, 17):  # short grids end inside a lane
            assert rodrigues_flow(axis, times[-n:], c).tobytes() == ones[-n:].tobytes()


@pytest.mark.parametrize("flow, start", [(named_flow, rho_sep()), (rodrigues_flow, to_coherence(rho_sep()))],
                         ids=["named_flow", "rodrigues_flow"])
def test_each_flow_takes_the_largest_grid_of_prepare_upb(flow, start):
    # prepare_upb(order, _MAX_SAMPLES) flows its probes and endpoint in one grid of _MAX_SAMPLES + 1 times
    times = np.linspace(0.0, TAU_P, dynamics._MAX_SAMPLES + 1)
    assert flow(STAGE1, times, start).shape == times.shape + np.shape(start)
