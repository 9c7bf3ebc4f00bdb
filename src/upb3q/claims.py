"""Claim registry: every numerical statement the package checks, as a flat
list of graded reports.

Each claim computes a measured value, compares it against a frozen expected
value at a stated tolerance, and reports pass/fail.  Boolean claims encode
one-sided statements (lower bounds, set membership, support equality);
numeric claims are two-sided with an absolute tolerance; list claims compare
componentwise.  A glob filter can skip claims; skipped claims never execute.

The expected values are intentionally hardcoded here rather than recomputed:
the point is to pin the constructions against an independent record.
"""

from __future__ import annotations

import csv
import fnmatch
import json
import math
import numbers
import sys
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .dynamics import (
    COS_SET,
    SIN_SET,
    TAU_P,
    HamiltonianSpec,
    byproduct_preparation,
    fixed_point_generator,
    one_spin_generators,
    orbit,
    orbit_generator,
    prepare_upb,
    rodrigues_flow,
    stationarity,
)
from .entanglement import builtin_triples, lhv_oracle, min_pt_eigs, signed_triple, triple_value, verify_triple_structure
from .linalg import eigen_flow, frobenius_distance, jacobi_eigh
from .pauli import (
    INDICES,
    LAMBDA_BASIS,
    SQRT2,
    bloch_vector,
    coherence_product,
    from_coherence,
    index_tuple,
    ket_from_string,
    lambda_matrix,
    lambda_tensor,
    reduced_density,
    to_coherence,
)
from .states import (
    X,
    check_upb,
    expected_oq_tensor,
    expected_upb_tensor,
    family,
    family_mixture,
    in_set_C,
    partial_reflect,
    reflect,
    reflect_density,
    rho_oq,
    rho_sep,
    rho_upb,
    spectrum_in_C,
)

X3 = X**3

# Eigenvalues of both rank-4 mixtures: four null directions, four at 1/4.
_FLAT_SPECTRUM = np.array([0.0, 0.0, 0.0, 0.0, 0.25, 0.25, 0.25, 0.25])


@dataclass(frozen=True)
class RunConfig:
    """Tolerances, sampling knobs, and output paths for one claim run.

    A path of None or "-" means stdout.  Raises ValueError on a tolerance
    that is negative, NaN or infinite, or on fewer than 2 orbit samples.
    """

    equality_tol: float = 1e-12
    psd_tol: float = 1e-10
    sign_tol: float = 1e-8
    flow_tol: float = 1e-10
    orbit_samples: int = 64
    filter: str | None = None
    json_path: str | None = None
    csv_path: str | None = None

    def __post_init__(self):
        for name in ("equality_tol", "psd_tol", "sign_tol", "flow_tol"):
            tol = getattr(self, name)
            if not (isinstance(tol, numbers.Real) and math.isfinite(tol) and tol >= 0.0):
                raise ValueError(f"{name} must be a finite number >= 0, got {tol!r}")
        n = self.orbit_samples
        if not (isinstance(n, numbers.Integral) and n >= 2):
            raise ValueError(f"orbit_samples must be an integer >= 2, got {n!r}")


@dataclass(frozen=True)
class ClaimReport:
    claim_id: str
    description: str
    paper_ref: str
    status: str
    measured: object
    expected: object
    tolerance: float

    def to_dict(self):
        return {
            "claim_id": self.claim_id,
            "description": self.description,
            "paper_ref": self.paper_ref,
            "status": self.status,
            "measured": self.measured,
            "expected": self.expected,
            "tolerance": self.tolerance,
        }


class _Context:
    """Lazily computed artifacts shared across claims in one run."""

    def __init__(self, cfg):
        self.cfg = cfg

    @cached_property
    def sep(self):
        return rho_sep()

    @cached_property
    def upb(self):
        return rho_upb()

    @cached_property
    def sep_t(self):
        return to_coherence(self.sep)

    @cached_property
    def upb_t(self):
        return to_coherence(self.upb)

    @cached_property
    def base_spectra(self):
        """Ascending spectra of sep and upb, from one eigen solve."""
        return jacobi_eigh(np.array([self.sep, self.upb]), want_vectors=False)[0]

    @cached_property
    def axis_eigs(self):
        """Eigenvalues and eigenvectors of Lambda_333 and Lambda_222, keyed by axis."""
        axes = (333, 222)
        w, v = jacobi_eigh(np.array([HamiltonianSpec.from_labels(str(a)).matrix() for a in axes]))
        return dict(zip(axes, zip(w, v)))

    @cached_property
    def upb_triples(self):
        return builtin_triples("upb")

    @cached_property
    def oq_triples(self):
        return builtin_triples("oq")

    @cached_property
    def quarter_t(self):
        return rodrigues_flow(222, TAU_P / 4.0, self.sep_t)

    @cached_property
    def prep_std(self):
        return prepare_upb("standard")

    @cached_property
    def prep_swap(self):
        return prepare_upb("swapped")

    @cached_property
    def orbit_samples(self):
        return orbit(self.cfg.orbit_samples, ppt_tol=self.cfg.psd_tol)

    @cached_property
    def byproduct(self):
        return byproduct_preparation(self.cfg.flow_tol)


# ---------------------------------------------------------------------------
# claim builders: each returns (measured, expected, tolerance)

def _c_components_upb(ctx):
    dev = np.abs(ctx.upb_t.components - expected_upb_tensor().components).max()
    return float(dev), 0.0, 1e-13


def _c_purity(ctx):
    return float(np.sum(ctx.upb_t.components**2)), 0.25, ctx.cfg.equality_tol


def _c_spectrum_upb(ctx):
    return float(np.abs(ctx.base_spectra[1] - _FLAT_SPECTRUM).max()), 0.0, 1e-11


def _c_spectrum_sep(ctx):
    return float(np.abs(ctx.base_spectra[0] - _FLAT_SPECTRUM).max()), 0.0, 1e-11


def _c_in_set_c(ctx):
    return bool(spectrum_in_C(ctx.base_spectra, ctx.cfg.psd_tol).all()), True, 0.0


def _c_reduced_random(ctx):
    half = np.eye(2) / 2.0
    dev = 0.0
    for rho in (ctx.sep, ctx.upb):
        for q in (1, 2, 3):
            dev = max(dev, np.abs(reduced_density(rho, (q,)) - half).max())
    return float(dev), 0.0, ctx.cfg.equality_tol


def _c_ppt_upb(ctx):
    return float(max(0.0, -min_pt_eigs(ctx.upb).min())), 0.0, 1e-12


def _c_reflect_sep_to_upb(ctx):
    d = frobenius_distance(from_coherence(reflect(ctx.sep_t)), ctx.upb)
    return float(d), 0.0, ctx.cfg.equality_tol


def _c_reflect_involution(ctx):
    back = reflect(reflect(ctx.upb_t))
    return float(np.abs(back.components - ctx.upb_t.components).max()), 0.0, ctx.cfg.equality_tol


def _c_reflect_partial_pairs(ctx):
    d = max(
        frobenius_distance(from_coherence(partial_reflect(ctx.sep_t, pair)), ctx.upb)
        for pair in ((1, 2), (1, 3), (2, 3))
    )
    return float(d), 0.0, ctx.cfg.equality_tol


def _c_reflect_single_spectrum(ctx):
    proj = family("psi").kets[0].projector()
    refl = from_coherence(reflect(to_coherence(proj)))
    eigs = jacobi_eigh(refl, want_vectors=False)[0]
    target = np.array([-0.75] + [0.25] * 7)
    return float(np.abs(eigs - target).max()), 0.0, 1e-11


def _c_reflect_set_c_closed(ctx):
    tensors = (ctx.sep_t, ctx.upb_t, ctx.quarter_t,
               to_coherence(family_mixture("theta")), to_coherence(family_mixture("phi")))
    mats = np.array([from_coherence(tt) for tens in tensors for tt in (tens, reflect(tens))])
    return bool(in_set_C(mats, tol=ctx.cfg.psd_tol).all()), True, 0.0


def _c_lhv_structure(ctx):
    ok = all(verify_triple_structure(tr) for tr in ctx.upb_triples + ctx.oq_triples)
    return bool(ok), True, 0.0


def _products(tensor, triples):
    return [triple_value(tensor, tr) for tr in triples]


def _counts(ctx, tensor, triples):
    return [lhv_oracle([signed_triple(tensor, tr, ctx.cfg.sign_tol)]) for tr in triples]


def _c_lhv_upb_products_on_upb(ctx):
    vals = _products(ctx.upb_t, ctx.upb_triples)
    return float(max(abs(v + X3) for v in vals)), 0.0, ctx.cfg.equality_tol


def _c_lhv_upb_products_on_sep(ctx):
    vals = _products(ctx.sep_t, ctx.upb_triples)
    return float(max(abs(v - X3) for v in vals)), 0.0, ctx.cfg.equality_tol


def _c_lhv_upb_oracle_on_upb(ctx):
    return _counts(ctx, ctx.upb_t, ctx.upb_triples), [0, 0, 0, 0], 0.0


def _c_lhv_upb_oracle_on_sep(ctx):
    return _counts(ctx, ctx.sep_t, ctx.upb_triples), [2, 2, 2, 2], 0.0


def _c_lhv_upb_oracle_on_quarter(ctx):
    return _counts(ctx, ctx.quarter_t, ctx.upb_triples), [2, 2, 2, 2], 0.0


def _c_lhv_oq_products_on_quarter(ctx):
    vals = _products(ctx.quarter_t, ctx.oq_triples)
    return float(max(abs(v + X3) for v in vals)), 0.0, ctx.cfg.equality_tol


def _c_lhv_oq_products_on_upb(ctx):
    vals = _products(ctx.upb_t, ctx.oq_triples)
    return float(max(abs(v - X3) for v in vals)), 0.0, ctx.cfg.equality_tol


def _c_lhv_oq_oracle_on_quarter(ctx):
    return _counts(ctx, ctx.quarter_t, ctx.oq_triples), [0, 0, 0, 0], 0.0


def _c_lhv_oq_oracle_on_upb(ctx):
    return _counts(ctx, ctx.upb_t, ctx.oq_triples), [2, 2, 2, 2], 0.0


def _c_prep_std_endpoint(ctx):
    d = frobenius_distance(ctx.prep_std.checkpoints["final"], ctx.upb)
    return float(d), 0.0, ctx.cfg.flow_tol


def _c_prep_std_intermediate(ctx):
    d = frobenius_distance(ctx.prep_std.checkpoints["intermediate"], family_mixture("mu"))
    return float(d), 0.0, ctx.cfg.flow_tol


def _interior_npt(trace):
    return bool(all(max(s.min_pt_eigs) < -1e-6 for s in trace.interior))


def _c_prep_std_interior(ctx):
    return _interior_npt(ctx.prep_std), True, 0.0


def _c_prep_swap_endpoint(ctx):
    d = frobenius_distance(ctx.prep_swap.checkpoints["final"], ctx.upb)
    return float(d), 0.0, ctx.cfg.flow_tol


def _c_prep_swap_intermediate(ctx):
    d = frobenius_distance(
        ctx.prep_swap.checkpoints["intermediate"],
        reflect_density(ctx.prep_std.checkpoints["intermediate"]),
    )
    return float(d), 0.0, ctx.cfg.flow_tol


def _c_prep_swap_interior(ctx):
    return _interior_npt(ctx.prep_swap), True, 0.0


def _c_prep_swap_violations(ctx):
    mid = to_coherence(ctx.prep_swap.checkpoints["intermediate"])
    vals = _products(mid, ctx.upb_triples)
    return float(max(abs(v + X3) for v in vals)), 0.0, ctx.cfg.equality_tol


def _c_orbit_start(ctx):
    d = max(
        frobenius_distance(from_coherence(ctx.sep_t), family_mixture("psi")),
        frobenius_distance(from_coherence(reflect(ctx.sep_t)), ctx.upb),
    )
    return float(d), 0.0, ctx.cfg.equality_tol


def _c_orbit_quarter_table(ctx):
    dev = np.abs(ctx.quarter_t.components - expected_oq_tensor().components).max()
    return float(dev), 0.0, ctx.cfg.equality_tol


def _c_orbit_quarter_complement(ctx):
    d = frobenius_distance(from_coherence(ctx.quarter_t), rho_oq())
    return float(d), 0.0, ctx.cfg.equality_tol


def _c_orbit_quarter_reflection(ctx):
    d = frobenius_distance(from_coherence(reflect(ctx.quarter_t)), family_mixture("theta"))
    return float(d), 0.0, ctx.cfg.equality_tol


def _c_orbit_half(ctx):
    half = from_coherence(rodrigues_flow(222, TAU_P / 2.0, ctx.sep_t))
    return float(frobenius_distance(half, family_mixture("phi"))), 0.0, ctx.cfg.equality_tol


_LOW_WEIGHT = np.count_nonzero(INDICES, axis=1) <= 2


def _c_orbit_conserved(ctx):
    base = ctx.orbit_samples[0].tensor.components[_LOW_WEIGHT]
    dev = max(
        np.abs(s.tensor.components[_LOW_WEIGHT] - base).max() for s in ctx.orbit_samples
    )
    return float(dev), 0.0, ctx.cfg.equality_tol


def _c_orbit_sinusoids(ctx):
    dev = 0.0
    for s in ctx.orbit_samples:
        c = s.tensor.components
        phase = s.t / SQRT2
        dev = max(dev, np.abs(c[list(SIN_SET)] + X * np.sin(phase)).max())
        dev = max(dev, np.abs(c[list(COS_SET)] + X * np.cos(phase)).max())
    return float(dev), 0.0, 1e-11


def _c_orbit_ppt(ctx):
    worst = 0.0
    for s in ctx.orbit_samples:
        worst = max(worst, -min(s.min_pt_eigs), -min(s.reflected_min_pt_eigs))
    return float(max(0.0, worst)), 0.0, 1e-12


def _c_orbit_rank(ctx):
    ok = True
    for s in ctx.orbit_samples:
        for eigs in (s.eigenvalues, s.reflected_eigenvalues):
            ok = ok and np.abs(eigs[:4]).max() < 1e-9 and eigs[4:].min() > 0.2
    return bool(ok), True, 0.0


def _c_stationary_fixed_point(ctx):
    return float(stationarity(fixed_point_generator(), ctx.upb)), 0.0, ctx.cfg.equality_tol


def _c_stationary_sum_only(ctx):
    singles = [
        stationarity(lambda_tensor(j, k, l), ctx.upb)
        for (j, k, l), _ in fixed_point_generator().terms
    ]
    total = stationarity(fixed_point_generator(), ctx.upb)
    ok = all(s > 1e-3 for s in singles) and total < 1e-12
    return bool(ok), True, 0.0


def _make_local_claim(gen):
    def builder(ctx):
        return float(stationarity(gen, ctx.upb)), 0.0, ctx.cfg.equality_tol

    return builder


def _c_stationary_orbit_moves(ctx):
    return bool(stationarity(orbit_generator(), ctx.upb) > 1e-3), True, 0.0


def _rodrigues_match(ctx, axis):
    w, v = ctx.axis_eigs[axis]
    dev = 0.0
    for t in np.linspace(0.0, TAU_P, 33):
        direct = from_coherence(rodrigues_flow(axis, t, ctx.upb_t))
        dev = max(dev, frobenius_distance(direct, eigen_flow(w, v, t, ctx.upb)))
    return float(dev), 0.0, ctx.cfg.flow_tol


def _rodrigues_period(ctx, axis):
    back = rodrigues_flow(axis, TAU_P, ctx.upb_t)
    dev = np.abs(back.components - ctx.upb_t.components).max()
    ref = eigen_flow(*ctx.axis_eigs[axis], TAU_P, ctx.upb)
    dev = max(dev, frobenius_distance(ref, ctx.upb))
    return float(dev), 0.0, 1e-11


def _c_byproduct_distance(ctx):
    return float(ctx.byproduct.distance), 0.0, ctx.cfg.flow_tol


def _c_byproduct_parameter(ctx):
    return float(ctx.byproduct.matched_parameter), 3.0 * TAU_P / 4.0, 1e-9


def _c_byproduct_unique(ctx):
    n = sum(1 for _, d in ctx.byproduct.evolutions if d < ctx.cfg.flow_tol)
    return int(n), 1, 0.0


def _c_byproduct_decoy(ctx):
    psi_t = to_coherence(family_mixture("psi"))
    dist = min(
        frobenius_distance(from_coherence(rodrigues_flow(222, r, psi_t)), ctx.upb)
        for r, _ in ctx.byproduct.evolutions
    )
    return bool(dist > 0.1), True, 0.0


def _c_upb_psi(ctx):
    res = check_upb(family("psi").kets)
    return bool(res.orthogonal and res.unextendable), True, 0.0


def _c_upb_theta(ctx):
    res = check_upb(family("theta").kets)
    return bool(res.orthogonal and res.unextendable), True, 0.0


def _c_upb_weakened(ctx):
    kets = family("psi").kets[:3] + (ket_from_string("111"),)
    res = check_upb(kets)
    witness_ok = res.extension_witness is not None
    if witness_ok:
        w = res.extension_witness
        witness_ok = all(abs(np.vdot(k.amplitudes, w.amplitudes)) < 1e-10 for k in kets)
    return bool((not res.unextendable) and witness_ok), True, 0.0


def _c_ancilla_kron(ctx):
    direct = coherence_product(ctx.upb_t, (1.0 / SQRT2, 0.0, 0.0, 0.0))
    big = np.kron(ctx.upb, np.eye(2) / 2.0)
    via = np.empty(256)
    for a in range(64):
        for m in range(4):
            mat = np.kron(LAMBDA_BASIS[a], lambda_matrix(m))
            via[4 * a + m] = np.trace(big @ mat).real
    return float(np.abs(direct - via).max()), 0.0, 1e-13


def _c_ancilla_support(ctx):
    direct = coherence_product(ctx.upb_t, (1.0 / SQRT2, 0.0, 0.0, 0.0))
    got = {i for i in range(256) if abs(direct[i]) > 1e-14}
    want = {4 * a for a in range(64) if abs(ctx.upb_t.components[a]) > 1e-14}
    return bool(got == want), True, 0.0


def _registry():
    rows = [
        ("state.components_upb", "state-table",
         "all 64 coherence components of the complement state match the signed table",
         _c_components_upb),
        ("state.purity", "state-table",
         "squared component sum (purity) of the complement state equals 1/4",
         _c_purity),
        ("state.spectrum_upb", "spectrum",
         "complement-state eigenvalues are {0 x4, 1/4 x4}",
         _c_spectrum_upb),
        ("state.spectrum_sep", "spectrum",
         "separable-mixture eigenvalues are {0 x4, 1/4 x4}",
         _c_spectrum_sep),
        ("state.in_set_c", "spectrum",
         "both base states lie in the eigenvalue band [0, 1/4]",
         _c_in_set_c),
        ("state.reduced_random", "state-table",
         "every single-qubit marginal of both base states is I/2",
         _c_reduced_random),
        ("ppt.upb", "ppt",
         "complement state has no negative partial-transpose eigenvalue on any cut",
         _c_ppt_upb),
        ("reflect.sep_to_upb", "reflection",
         "full reflection maps the separable mixture onto the complement state",
         _c_reflect_sep_to_upb),
        ("reflect.involution", "reflection",
         "reflecting twice restores the original components",
         _c_reflect_involution),
        ("reflect.partial_pairs", "reflection",
         "each two-qubit partial reflection also maps separable onto complement",
         _c_reflect_partial_pairs),
        ("reflect.single_component_spectrum", "reflection",
         "reflected rank-1 projector has spectrum {-3/4, 1/4 x7}",
         _c_reflect_single_spectrum),
        ("reflect.set_c_closed", "reflection",
         "reflection keeps the sampled mixtures inside the eigenvalue band [0, 1/4]",
         _c_reflect_set_c_closed),
        ("lhv.structure", "lhv-triples",
         "all eight builtin triples commute pairwise with product proportional to identity",
         _c_lhv_structure),
        ("lhv.upb_triples.products_on_upb", "lhv-triples",
         "complement state gives product -x^3 on every first-family triple",
         _c_lhv_upb_products_on_upb),
        ("lhv.upb_triples.products_on_sep", "lhv-triples",
         "separable mixture gives product +x^3 on every first-family triple",
         _c_lhv_upb_products_on_sep),
        ("lhv.upb_triples.oracle_on_upb", "lhv-triples",
         "sign oracle finds no consistent assignment per first-family triple on the complement state",
         _c_lhv_upb_oracle_on_upb),
        ("lhv.upb_triples.oracle_on_sep", "lhv-triples",
         "sign oracle finds two consistent assignments per first-family triple on the separable mixture",
         _c_lhv_upb_oracle_on_sep),
        ("lhv.upb_triples.oracle_on_quarter", "lhv-triples",
         "quarter-period orbit state is consistent with every first-family triple",
         _c_lhv_upb_oracle_on_quarter),
        ("lhv.oq_triples.products_on_quarter", "lhv-triples",
         "quarter-period orbit state gives product -x^3 on every second-family triple",
         _c_lhv_oq_products_on_quarter),
        ("lhv.oq_triples.products_on_upb", "lhv-triples",
         "complement state gives product +x^3 on every second-family triple",
         _c_lhv_oq_products_on_upb),
        ("lhv.oq_triples.oracle_on_quarter", "lhv-triples",
         "sign oracle finds no consistent assignment per second-family triple on the quarter state",
         _c_lhv_oq_oracle_on_quarter),
        ("lhv.oq_triples.oracle_on_upb", "lhv-triples",
         "complement state is consistent with every second-family triple",
         _c_lhv_oq_oracle_on_upb),
        ("prep.standard.endpoint", "preparation",
         "triple-z then six-term schedule lands on the complement state",
         _c_prep_std_endpoint),
        ("prep.standard.intermediate", "preparation",
         "triple-z half-period stage lands on the mu mixture",
         _c_prep_std_intermediate),
        ("prep.standard.interior_npt", "preparation",
         "standard schedule is NPT on every cut at all interior sample times",
         _c_prep_std_interior),
        ("prep.swapped.endpoint", "preparation",
         "swapped schedule lands on the same complement state",
         _c_prep_swap_endpoint),
        ("prep.swapped.intermediate_reflects", "preparation",
         "swapped-schedule intermediate is the reflection of the standard one",
         _c_prep_swap_intermediate),
        ("prep.swapped.interior_npt", "preparation",
         "swapped schedule is NPT on every cut at all interior sample times",
         _c_prep_swap_interior),
        ("prep.swapped.intermediate_violations", "preparation",
         "swapped-schedule intermediate gives product -x^3 on every first-family triple",
         _c_prep_swap_violations),
        ("orbit.start_matches_families", "orbit",
         "orbit start is the psi mixture and its reflection the complement state",
         _c_orbit_start),
        ("orbit.quarter_matches_table", "orbit",
         "quarter-period orbit components match the signed table",
         _c_orbit_quarter_table),
        ("orbit.quarter_is_theta_complement", "orbit",
         "quarter-period orbit state equals the complement map of the theta family",
         _c_orbit_quarter_complement),
        ("orbit.quarter_reflection_equals_theta", "orbit",
         "reflected quarter-period orbit state equals the theta mixture",
         _c_orbit_quarter_reflection),
        ("orbit.half_equals_phi", "orbit",
         "half-period orbit state equals the phi mixture",
         _c_orbit_half),
        ("orbit.conserved_coherences", "orbit",
         "weight <= 2 components are constant along the orbit",
         _c_orbit_conserved),
        ("orbit.sinusoids", "orbit",
         "the eight 3-coherences follow -x sin / -x cos of the reduced phase",
         _c_orbit_sinusoids),
        ("ppt.orbit", "orbit",
         "orbit states and their reflections stay PPT on every cut",
         _c_orbit_ppt),
        ("orbit.rank", "orbit",
         "orbit states and reflections keep four eigenvalues above 0.2 and four below 1e-9",
         _c_orbit_rank),
        ("stationary.fixed_point", "stationarity",
         "nine-term 2-coherence generator commutes with the complement state",
         _c_stationary_fixed_point),
        ("stationary.fixed_point_sum_only", "stationarity",
         "the commuting generator's individual terms each move the state; only the sum is stationary",
         _c_stationary_sum_only),
        ("stationary.orbit_generator_moves", "stationarity",
         "triple-y generator does not commute with the complement state",
         _c_stationary_orbit_moves),
        ("rodrigues.match_333", "flow",
         "closed-form component flow for the triple-z axis matches conjugation at 33 times",
         lambda ctx: _rodrigues_match(ctx, 333)),
        ("rodrigues.match_222", "flow",
         "closed-form component flow for the triple-y axis matches conjugation at 33 times",
         lambda ctx: _rodrigues_match(ctx, 222)),
        ("rodrigues.period_333", "flow",
         "triple-z flow returns to the start after one full period",
         lambda ctx: _rodrigues_period(ctx, 333)),
        ("rodrigues.period_222", "flow",
         "triple-y flow returns to the start after one full period",
         lambda ctx: _rodrigues_period(ctx, 222)),
        ("byproduct.distance", "byproduct",
         "one candidate evolution returns the theta mixture to the complement state",
         _c_byproduct_distance),
        ("byproduct.parameter", "byproduct",
         "the matching period-reduced parameter is 3/4 of the period",
         _c_byproduct_parameter),
        ("byproduct.unique", "byproduct",
         "exactly one distinct period-reduced candidate evolution matches",
         _c_byproduct_unique),
        ("byproduct.decoy_misses", "byproduct",
         "starting from the psi mixture instead, every candidate misses by more than 0.1",
         _c_byproduct_decoy),
        ("upb.unextendable_psi", "upb-check",
         "no product state is orthogonal to all four psi members",
         _c_upb_psi),
        ("upb.unextendable_theta", "upb-check",
         "no product state is orthogonal to all four theta members",
         _c_upb_theta),
        ("upb.witness_weakened", "upb-check",
         "replacing the fourth psi member by |111> admits an orthogonal product witness",
         _c_upb_weakened),
        ("ancilla.kron_match", "ancilla",
         "coherence-space ancilla product agrees with the Kronecker construction",
         _c_ancilla_kron),
        ("ancilla.support", "ancilla",
         "maximally mixed ancilla leaves exactly the original components, all with trailing index 0",
         _c_ancilla_support),
    ]
    for gen in one_spin_generators():
        (j, k, l), _ = gen.terms[0]
        label = f"{j}{k}{l}"
        rows.append(
            (f"stationary.local_{label}", "stationarity",
             f"single-qubit generator {label} commutes with the complement state",
             _make_local_claim(gen))
        )
    rows.sort(key=lambda r: r[0])
    return rows


_REGISTRY = _registry()


def claim_ids():
    return [row[0] for row in _REGISTRY]


def _jsonable(value):
    if isinstance(value, (np.floating,)):
        return float(value)
    if isinstance(value, (np.integer,)):
        return int(value)
    if isinstance(value, (np.bool_,)):
        return bool(value)
    if isinstance(value, (list, tuple)):
        return [_jsonable(v) for v in value]
    return value


def _grade(measured, expected, tol):
    if isinstance(expected, bool):
        ok = measured is True if expected else measured is False
    elif isinstance(expected, int):
        ok = measured == expected
    elif isinstance(expected, (list, tuple)):
        ok = len(measured) == len(expected) and all(
            abs(m - e) <= tol for m, e in zip(measured, expected)
        )
    else:
        ok = abs(measured - expected) <= tol
    return "pass" if ok else "fail"


def run_claims(config=None):
    """Execute the registry; returns reports sorted by claim id."""
    cfg = config if config is not None else RunConfig()
    ctx = _Context(cfg)
    reports = []
    for cid, ref, desc, fn in _REGISTRY:
        if cfg.filter and not fnmatch.fnmatchcase(cid, cfg.filter):
            reports.append(ClaimReport(cid, desc, ref, "skip", None, None, 0.0))
            continue
        try:
            measured, expected, tol = fn(ctx)
        except Exception as exc:
            reports.append(ClaimReport(
                cid, desc, ref, "fail",
                f"error: {type(exc).__name__}: {exc}", None, 0.0,
            ))
            continue
        measured = _jsonable(measured)
        expected = _jsonable(expected)
        status = _grade(measured, expected, tol)
        reports.append(ClaimReport(cid, desc, ref, status, measured, expected, float(tol)))
    return reports


def exit_code(reports):
    return 1 if any(r.status == "fail" for r in reports) else 0


def write_reports_json(reports, fobj):
    json.dump([r.to_dict() for r in reports], fobj, indent=2)
    fobj.write("\n")


def _fmt17(value):
    return format(float(value), ".17g")


def write_orbit_csv(fobj, samples):
    """17-significant-digit CSV of 3-coherences, min PT eigenvalues, ranks."""
    three = sorted(SIN_SET + COS_SET)
    writer = csv.writer(fobj)
    writer.writerow(
        ["t"]
        + ["coh{}{}{}".format(*index_tuple(a)) for a in three]
        + [f"min_pt_cut{q}" for q in (1, 2, 3)]
        + [f"reflected_min_pt_cut{q}" for q in (1, 2, 3)]
        + ["rank", "reflected_rank"]
    )
    for s in samples:
        row = [_fmt17(s.t)]
        row += [_fmt17(s.tensor.components[a]) for a in three]
        row += [_fmt17(v) for v in s.min_pt_eigs]
        row += [_fmt17(v) for v in s.reflected_min_pt_eigs]
        row += [str(s.rank), str(s.reflected_rank)]
        writer.writerow(row)


def _open_target(path):
    if path is None or path == "-":
        return sys.stdout, False
    return open(path, "w", newline="", encoding="utf-8"), True


def emit_orbit_csv(config):
    """Sample the orbit per config and write the CSV to config.csv_path."""
    samples = orbit(config.orbit_samples, ppt_tol=config.psd_tol)
    fobj, close = _open_target(config.csv_path)
    try:
        write_orbit_csv(fobj, samples)
    finally:
        if close:
            fobj.close()


def emit_bloch_csv(config):
    """Write the ket-family Bloch CSV to config.csv_path."""
    fobj, close = _open_target(config.csv_path)
    try:
        write_bloch_csv(fobj)
    finally:
        if close:
            fobj.close()


def write_bloch_csv(fobj):
    """Per-member, per-qubit Bloch vectors of the three aligned ket families."""
    writer = csv.writer(fobj)
    writer.writerow(["family", "member", "qubit", "bloch_x", "bloch_y", "bloch_z"])
    for tag, name in (("psi@t=0", "psi"), ("theta@t=tau_p/4", "theta"), ("phi@t=tau_p/2", "phi")):
        for member, ket in enumerate(family(name).kets, start=1):
            for qubit, local in enumerate(ket.locals, start=1):
                vec = bloch_vector(np.outer(local, local.conj()))
                writer.writerow(
                    [tag, str(member), str(qubit)] + [_fmt17(v) for v in vec]
                )
