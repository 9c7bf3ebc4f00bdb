"""Acceptance gate: twelve end-to-end criteria, one verdict line each.

Every criterion states its tolerance inline.  Criterion 10 checks which
generators do and do not move the complement state.  The fixed-point
generator commutes with it and the orbit generator moves it.  Each of the
nine single-qubit generators moves it by a commutator norm that the test
derives from the frozen component table (sqrt(3)*x for axes 1 and 3, sqrt(6)*x
for axis 2).  The nine generators span the local su(2)+su(2)+su(2), whose
commutant on (C^2)^3 is span{I}, and the complement state is not
proportional to I; its maximally mixed single-qubit marginals are a statement
about marginals, not about the state.  So the registry claims
stationary.local_* assert something false.  They stay red, and criterion 10
asserts that red verdict with the exact norms.
"""

import itertools

import numpy as np
import pytest

from upb3q.claims import run_claims
from upb3q.dynamics import (
    FIXED_POINT,
    ONE_SPIN,
    ORBIT,
    STAGE1,
    TAU_P,
    byproduct_preparation,
    generator,
    orbit,
    prepare_upb,
    rodrigues_flow,
    stationarity,
)
from upb3q.entanglement import OQ_TRIPLES, UPB_TRIPLES, lhv_oracle, triple_value
from upb3q.linalg import frobenius_distance, jacobi_eigh
from upb3q.pauli import (
    INDICES,
    SQRT2,
    coherence_product,
    from_coherence,
    ket_from_string,
    label_index,
    to_coherence,
)
from upb3q.states import (
    X,
    check_upb,
    expected_oq_tensor,
    expected_upb_tensor,
    family,
    family_mixture,
    partial_reflect,
    reflect,
    rho_oq,
    rho_sep,
    rho_upb,
)

from helpers import min_pt_eigs

X3 = X**3


def eigh_flow(h, t, rho):
    """Oracle: exp(-itH) rho exp(+itH) through numpy.linalg.eigh."""
    w, v = np.linalg.eigh(h)
    u = (v * np.exp(-1j * t * w)) @ v.conj().T
    return u @ rho @ u.conj().T


def report(num, ok, label, detail):
    print(f"criterion {num:02d} [{'PASS' if ok else 'FAIL'}] {label}: {detail}")
    return ok


@pytest.fixture(scope="module")
def upb():
    return rho_upb()


@pytest.fixture(scope="module")
def sep():
    return rho_sep()


@pytest.fixture(scope="module")
def orbit64():
    return orbit(64)


def test_criterion_01_spectra(upb, sep):
    target = np.array([0.0] * 4 + [0.25] * 4)
    dev = 0.0
    for rho in (upb, sep):
        w, _ = jacobi_eigh(rho, want_vectors=False)
        dev = max(dev, np.abs(w - target).max())
    ok = dev < 1e-11
    assert report(1, ok, "both spectra are {0 x4, 1/4 x4}", f"max dev {dev:.2e} (tol 1e-11)")


def test_criterion_02_component_table(upb):
    comps = to_coherence(upb)
    table = expected_upb_tensor()
    dev = np.abs(comps - table).max()
    plus = int(np.sum(np.abs(comps[1:] - X) < 1e-13))
    minus = int(np.sum(np.abs(comps[1:] + X) < 1e-13))
    zeros = int(np.sum(np.abs(comps[1:]) < 1e-13))
    trace_ok = abs(comps[0] - 1 / (2 * SQRT2)) < 1e-13
    ok = dev < 1e-13 and (plus, minus, zeros) == (10, 6, 47) and trace_ok
    assert report(2, ok, "components: 10 at +x, 6 at -x, 47 zeros, unit trace",
                  f"max dev {dev:.2e}, census ({plus},{minus},{zeros}) (tol 1e-13)")


def test_criterion_03_reflections(upb, sep):
    sep_t = to_coherence(sep)
    d_full = frobenius_distance(from_coherence(reflect(sep_t)), upb)
    d_pairs = max(
        frobenius_distance(from_coherence(row), upb) for row in partial_reflect(sep_t)
    )
    d_invol = float(np.abs(reflect(reflect(sep_t)) - sep_t).max())
    proj_t = to_coherence(ket_from_string("01+").projector())
    w, _ = jacobi_eigh(from_coherence(reflect(proj_t)), want_vectors=False)
    d_spec = np.abs(w - np.array([-0.75] + [0.25] * 7)).max()
    ok = max(d_full, d_pairs, d_invol) < 1e-12 and d_spec < 1e-11
    assert report(3, ok, "reflection identities and reflected projector spectrum",
                  f"map/pairs/involution {max(d_full, d_pairs, d_invol):.2e} (tol 1e-12), "
                  f"spectrum dev {d_spec:.2e} (tol 1e-11)")


def test_criterion_04_ppt(upb, orbit64):
    worst = float(min_pt_eigs(upb).min())
    for spectra in orbit64.spectra:  # (reflected, PT cut, 8) per sample
        worst = min(worst, spectra[0, 1:, 0].min(), spectra[1, 1:, 0].min())
    ok = worst >= -1e-12
    assert report(4, ok, "PPT for the complement state and all 64 orbit samples + reflections",
                  f"global min PT eigenvalue {worst:.2e} (tol -1e-12)")


def test_criterion_05_unextendability():
    res_psi = check_upb(family("psi"))
    res_theta = check_upb(family("theta"))
    both = all(
        r.orthogonal and r.extension_witness is None
        for r in (res_psi, res_theta)
    )
    weak = family("psi")[:3] + (ket_from_string("111"),)
    res_weak = check_upb(weak)
    overlaps = (
        [abs(np.vdot(k.amplitudes, res_weak.extension_witness.amplitudes)) for k in weak]
        if res_weak.extension_witness is not None
        else [1.0]
    )
    weak_ok = res_weak.extension_witness is not None and max(overlaps) < 1e-10
    ok = both and weak_ok
    assert report(5, ok, "psi/theta unextendable; weakened set yields a verified witness",
                  f"families unextendable={both}, witness overlaps < {max(overlaps):.1e}")


def test_criterion_06_lhv(upb, sep):
    upb_t, sep_t, oq_t = to_coherence(upb), to_coherence(sep), to_coherence(rho_oq())
    dev_upb = max(abs(triple_value(upb_t, tr) + X3) for tr in UPB_TRIPLES)
    positive_sep = all(triple_value(sep_t, tr) > 0 for tr in UPB_TRIPLES)
    zero_counts = all(lhv_oracle(upb_t, tr) == 0 for tr in UPB_TRIPLES)
    sep_counts = all(lhv_oracle(sep_t, tr) >= 1 for tr in UPB_TRIPLES)
    dev_oq = max(abs(triple_value(oq_t, tr) + X3) for tr in OQ_TRIPLES)
    zero_oq = all(lhv_oracle(oq_t, tr) == 0 for tr in OQ_TRIPLES)
    cross = all(lhv_oracle(upb_t, tr) >= 1 for tr in OQ_TRIPLES)
    ok = (dev_upb < 1e-12 and positive_sep and zero_counts and sep_counts
          and dev_oq < 1e-12 and zero_oq and cross)
    assert report(6, ok, "triple sign violations and oracle counts on both families",
                  f"product devs {dev_upb:.2e}/{dev_oq:.2e} (tol 1e-12), "
                  f"counts 0 per violated triple, cross-compatible")


def test_criterion_07_preparation(upb):
    std = prepare_upb("standard")
    swp = prepare_upb("swapped")
    d_end = frobenius_distance(std.checkpoints["final"], upb)
    d_mid = frobenius_distance(std.checkpoints["intermediate"], family_mixture("mu"))
    d_swp_end = frobenius_distance(swp.checkpoints["final"], upb)
    std_mid_t = to_coherence(std.checkpoints["intermediate"])
    d_swp_mid = frobenius_distance(
        swp.checkpoints["intermediate"], from_coherence(reflect(std_mid_t))
    )
    swp_mid_t = to_coherence(swp.checkpoints["intermediate"])
    viol = max(abs(triple_value(swp_mid_t, tr) + X3) for tr in UPB_TRIPLES)
    interior = max(
        max(s.min_pt_eigs) for s in itertools.chain(std.interior, swp.interior)
    )
    ok = (max(d_end, d_mid, d_swp_end, d_swp_mid) < 1e-10 and viol < 1e-12
          and interior < -1e-6)
    assert report(7, ok, "two-stage preparation checkpoints, violations, interior NPT",
                  f"checkpoint devs <= {max(d_end, d_mid, d_swp_end, d_swp_mid):.2e} (tol 1e-10), "
                  f"worst interior min PT {interior:.2e} (< -1e-6)")


def test_criterion_08_rodrigues(upb):
    upb_t = to_coherence(upb)
    dev = 0.0
    for axis, label in ((STAGE1, "333"), (ORBIT, "222")):
        for t in np.linspace(0.0, TAU_P, 33):
            dev = max(dev, frobenius_distance(
                from_coherence(rodrigues_flow(axis, t, upb_t)), eigh_flow(generator(label), t, upb)
            ))
    period = max(
        float(np.abs(rodrigues_flow(axis, TAU_P, upb_t) - upb_t).max())
        for axis in (STAGE1, ORBIT)
    )
    ok = dev < 1e-10 and period < 1e-11
    assert report(8, ok, "closed-form flows match conjugation; period restores the state",
                  f"max dev {dev:.2e} (tol 1e-10), period residue {period:.2e} (tol 1e-11)")


def test_criterion_09_orbit_structure(orbit64):
    low = np.count_nonzero(INDICES, axis=1) <= 2
    base = orbit64.tensors[0][low]
    d_const = max(np.abs(c[low] - base).max() for c in orbit64.tensors)
    sin_set = [23, 29, 53, 63]
    cos_set = [21, 31, 55, 61]
    d_wave = 0.0
    rank_ok = True
    for t, c, spectra in zip(orbit64.t, orbit64.tensors, orbit64.spectra):
        d_wave = max(d_wave, np.abs(c[sin_set] + X * np.sin(t / SQRT2)).max(),
                     np.abs(c[cos_set] + X * np.cos(t / SQRT2)).max())
        for w in (spectra[0, 0], spectra[1, 0]):  # the state, then its reflection
            rank_ok = rank_ok and np.abs(w[:4]).max() < 1e-9 and w[4:].min() > 0.2
    quarter, half = orbit64.tensors[16], orbit64.tensors[32]
    d_quarter = np.abs(quarter - expected_oq_tensor()).max()
    d_theta = frobenius_distance(
        from_coherence(reflect(quarter)), family_mixture("theta")
    )
    d_phi = frobenius_distance(from_coherence(half), family_mixture("phi"))
    ok = (d_const < 1e-12 and d_wave < 1e-11 and rank_ok
          and d_quarter < 1e-12 and d_theta < 1e-12 and d_phi < 1e-12)
    assert report(9, ok, "orbit conservation, sinusoids, rank, quarter/half identifications",
                  f"const {d_const:.1e} (1e-12), wave {d_wave:.1e} (1e-11), rank4 {rank_ok}, "
                  f"quarter/theta/phi {max(d_quarter, d_theta, d_phi):.1e} (1e-12)")


def _one_spin_norm(table, qubit, axis):
    """Commutator norm ||[Lambda_g, rho]|| of a one-spin generator, from the table.

    With [lambda_a, lambda_b] = i sqrt(2) eps_abc lambda_c, the generator
    carrying lambda_axis on `qubit` sends each component c_{jkl} whose index
    on that qubit is neither 0 nor `axis` to a distinct basis element with
    weight 1/sqrt(2), so it adds c^2/2 to the squared norm.
    """
    total = 0.0
    for a, c in enumerate(table):
        if INDICES[a][qubit] not in (0, axis):
            total += c * c / 2
    return float(np.sqrt(total))


def _commutant_dim(generators):
    """Dimension of {Y : [G, Y] = 0 for every G}, by SVD of the stacked maps."""
    eye = np.eye(8)
    stacked = np.vstack([np.kron(g, eye) - np.kron(eye, g.T) for g in generators])
    sv = np.linalg.svd(stacked, compute_uv=False)
    return int(np.sum(sv < 1e-12))


def test_criterion_10_stationarity(upb):
    table = expected_upb_tensor()
    d_fixed = stationarity(generator(*FIXED_POINT), upb)
    d_orbit = stationarity(generator(*ORBIT), upb)

    gens = [generator(label) for label in ONE_SPIN]
    d_locals = 0.0
    analytic = {}
    for label, gen in zip(ONE_SPIN, gens):
        jkl = INDICES[label_index(label)]
        qubit = next(i for i, m in enumerate(jkl) if m)
        want = _one_spin_norm(table, qubit, jkl[qubit])
        analytic[label] = want
        d_locals = max(d_locals, abs(stationarity(gen, upb) - want))

    # the commutant of the nine generators is span{I}; the state is not in it
    commutant = _commutant_dim(gens)
    off_identity = frobenius_distance(upb, np.trace(upb).real * np.eye(8) / 8)

    reports = run_claims(filter="stationary.*")
    ran = {r.claim_id: r for r in reports if r.status != "skip"}
    local_ids = {f"stationary.local_{lbl}" for lbl in analytic}
    others = set(ran) - local_ids
    d_claims = max(abs(ran[f"stationary.local_{lbl}"].measured - want)
                   for lbl, want in analytic.items())
    red = all(ran[cid].status == "fail" and ran[cid].expected == 0.0 for cid in local_ids)
    green = len(others) == 3 and all(ran[cid].status == "pass" for cid in others)

    ok = (d_fixed < 1e-12 and d_orbit > 1e-3 and d_locals < 1e-12
          and commutant == 1 and off_identity > 1e-3
          and d_claims < 1e-12 and red and green)
    assert report(
        10, ok, "fixed-point stationary, orbit and nine 1-spin generators move the state",
        f"fixed-point {d_fixed:.2e} (tol 1e-12), orbit-generator {d_orbit:.3f} (> 1e-3), "
        f"1-spin norms {min(analytic.values()):.4f}..{max(analytic.values()):.4f} "
        f"match table within {max(d_locals, d_claims):.1e} (tol 1e-12), "
        f"commutant dim {commutant}, |rho - I/8| {off_identity:.4f}; "
        f"stationary.local_* fail={red}, other stationary.* pass={green}",
    )


def test_criterion_11_byproduct():
    evolutions = byproduct_preparation()
    matches = [r for r, d in evolutions if d < 1e-10]
    parameter, distance = min(evolutions, key=lambda e: e[1])
    theta_t = to_coherence(family_mixture("theta"))
    landed = from_coherence(rodrigues_flow(ORBIT, parameter, theta_t))
    d_target = frobenius_distance(landed, rho_upb())
    ok = len(matches) == 1 and d_target < 1e-10
    assert report(11, ok, "exactly one candidate evolution lands on the complement state",
                  f"matched parameter {parameter:.6f} "
                  f"(= 3/4 period {3 * TAU_P / 4:.6f}), distance {distance:.2e} (tol 1e-10)")


def test_criterion_12_ancilla(upb):
    upb_t = to_coherence(upb)
    direct = coherence_product(upb_t)
    support = {i for i in range(256) if abs(direct[i]) > 1e-13}
    want = {4 * a for a in range(64) if abs(upb_t[a]) > 1e-13}
    from upb3q.pauli import LAMBDA_BASIS, lambda_matrix

    big = np.kron(upb, np.eye(2) / 2)
    dev = 0.0
    for a in range(64):
        for m in range(4):
            ref = np.trace(big @ np.kron(LAMBDA_BASIS[a], lambda_matrix(m))).real
            dev = max(dev, abs(direct[4 * a + m] - ref))
    ok = support == want and dev < 1e-13
    assert report(12, ok, "ancilla product support is {(j,k,l,0)} and matches the Kronecker route",
                  f"support size {len(support)} (expect {len(want)}), max dev {dev:.2e} (tol 1e-13)")
