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

import fnmatch
import json
from functools import cached_property
from typing import NamedTuple

import numpy as np

from .dynamics import (
    COS_SET,
    FIXED_POINT,
    ONE_SPIN,
    ORBIT,
    SIN_SET,
    STAGE1,
    TAU_P,
    _MAX_SAMPLES,
    _ORDERS,
    byproduct_preparation,
    generator,
    named_flow,
    orbit,
    prepare_upb,
    rodrigues_flow,
    stationarity,
)
from .entanglement import (OQ_TRIPLES, UPB_TRIPLES, lhv_oracle, partial_transpose, triple_value,
                           verify_triple_structure)
from .linalg import _number, _real_if_exact, frobenius_distance, jacobi_eigh
from .pauli import (
    INDICES,
    LAMBDA_BASIS,
    SQRT2,
    bloch_vector,
    coherence_product,
    from_coherence,
    ket_from_string,
    lambda_matrix,
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
# Eigenvalues of a reflected rank-1 projector.
_PROJECTOR_SPECTRUM = np.array([-0.75] + [0.25] * 7)
# Absolute tolerance of the equality claims that state none of their own.
_EQUALITY_TOL = 1e-12
# Tolerance of the preparation, Rodrigues and byproduct claims, which compare exact flows.
_FLOW_TOL = 1e-10


class ClaimReport(NamedTuple):
    claim_id: str
    description: str
    paper_ref: str
    status: str
    measured: object
    expected: object
    tolerance: float


class _Context:
    """Lazily computed artifacts shared across claims in one run.

    ids are the claims the run will grade, by default all of them.  The
    first preparation read calls prepare_upb once, for the order it reads
    and every other order that one of ids names as prep.<order>., so that
    one eigen solve scores them all; an order read later that this call did
    not cover gets a call of its own.
    """

    def __init__(self, orbit_samples, ids=None):
        self.orbit_samples = orbit_samples
        ids = claim_ids() if ids is None else ids
        self._pooled = [o for o in _ORDERS if any(cid.startswith(f"prep.{o}.") for cid in ids)]
        self._preps = {}  # order -> PreparationTrace

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
    def fixed_spectra(self):
        """Ascending spectra of the run's 16 fixed matrices, from one eigen solve, by name.

        base (2, 8): sep and upb.  upb_cuts (3, 8): upb transposed on qubit
        1, 2 and 3.  set_c (5, 2, 8): five states of the set C and their
        reflections.  projector (8,): the reflected first psi projector.
        """
        members = np.stack([self.sep_t, self.upb_t, self.quarter_t,
                            to_coherence(family_mixture("theta")), to_coherence(family_mixture("phi"))])
        set_c = from_coherence(np.stack([members, reflect(members)], axis=1))  # (state, reflected, 8, 8)
        mats = np.concatenate([
            [self.sep, self.upb],
            partial_transpose(self.upb),
            set_c.reshape(-1, 8, 8),
            [reflect_density(family("psi")[0].projector())],
        ])
        w = jacobi_eigh(_real_if_exact(mats), want_vectors=False)[0]
        return {"base": w[:2], "upb_cuts": w[2:5], "set_c": w[5:15].reshape(5, 2, 8), "projector": w[15]}

    @cached_property
    def quarter_t(self):
        return rodrigues_flow(ORBIT, TAU_P / 4.0, self.sep_t)

    def _prep(self, order):
        if order not in self._preps:
            orders = (order,) + tuple(o for o in self._pooled if o != order and o not in self._preps)
            self._preps.update(zip(orders, prepare_upb(orders)))
        return self._preps[order]

    @property
    def prep_standard(self):
        return self._prep("standard")

    @property
    def prep_swapped(self):
        return self._prep("swapped")

    @cached_property
    def swapped_mid_t(self):
        return to_coherence(self.prep_swapped.checkpoints["intermediate"])

    @cached_property
    def orbit(self):
        return orbit(self.orbit_samples)

    @cached_property
    def byproduct(self):
        return byproduct_preparation()


# ---------------------------------------------------------------------------
# claim builders: each factory returns a builder, which maps the run's
# _Context to (measured, expected, tolerance).

def _near(value, expected=0.0, tol=_EQUALITY_TOL):
    """Numeric claim: value(ctx) equals expected within tol."""
    return lambda ctx: (float(value(ctx)), expected, tol)


def _holds(predicate):
    """Boolean claim: predicate(ctx) is true."""
    return lambda ctx: (bool(predicate(ctx)), True, 0.0)


def _distance(pairs, tol=_EQUALITY_TOL):
    """Zero claim: the largest Frobenius distance over the matrix pairs in pairs(ctx)."""
    return _near(lambda ctx: max(frobenius_distance(a, b) for a, b in pairs(ctx)), tol=tol)


def _deviation(pairs, tol=_EQUALITY_TOL):
    """Zero claim: the largest componentwise |a - b| over the array pairs in pairs(ctx)."""
    return _near(lambda ctx: max(np.abs(a - b).max() for a, b in pairs(ctx)), tol=tol)


def _lhv_products(state, triples, target):
    """Every product over one triple family on the named state tensor equals target."""
    return _near(lambda ctx: max(abs(triple_value(getattr(ctx, state), tr) - target)
                                 for tr in triples))


def _lhv_oracle(state, triples, count):
    """The sign oracle finds count consistent assignments per triple of one family."""
    def builder(ctx):
        tensor = getattr(ctx, state)
        counts = [lhv_oracle(tensor, tr) for tr in triples]
        return counts, [count] * len(triples), 0.0

    return builder


def _interior_npt(order):
    """Every interior probe of one preparation order is NPT on every cut."""
    return _holds(lambda ctx: all(max(s.min_pt_eigs) < -1e-6
                                  for s in getattr(ctx, f"prep_{order}").interior))


def _stationary(*labels):
    """The commutator of the generator over labels with the complement state vanishes."""
    return _near(lambda ctx: stationarity(generator(*labels), ctx.upb))


def _rodrigues_match(axis):
    """Closed-form flow against conjugation by the spectral projectors, at 33 times."""
    def pairs(ctx):
        times = np.linspace(0.0, TAU_P, 33)
        flows = named_flow(axis, times, ctx.upb)
        closed = from_coherence(rodrigues_flow(axis, times, ctx.upb_t))
        return list(zip(closed, flows))

    return _distance(pairs, _FLOW_TOL)


def _rodrigues_period(axis):
    """Both flows return to the start after one full period."""
    def deviation(ctx):
        back = rodrigues_flow(axis, TAU_P, ctx.upb_t)
        ref = named_flow(axis, TAU_P, ctx.upb)
        return max(np.abs(back - ctx.upb_t).max(),
                   frobenius_distance(ref, ctx.upb))

    return _near(deviation, tol=1e-11)


def _unextendable(name):
    """The named family is an orthogonal, unextendable product basis."""
    def check(ctx):
        res = check_upb(family(name))
        return res.orthogonal and res.extension_witness is None

    return _holds(check)


# single-use claim bodies; the registry wraps all but _byproduct_unique in a factory

def _reduced_pairs(ctx):
    return [(marginal, np.eye(2) / 2.0) for rho in (ctx.sep, ctx.upb) for marginal in reduced_density(rho)]


_LOW_WEIGHT = np.count_nonzero(INDICES, axis=1) <= 2
_RANK_TOL = 1e-9  # eigenvalues with |e| above this count toward an orbit matrix's rank


def _sinusoid_pairs(ctx):
    """Each sample's 3-coherences against -x sin / -x cos of the reduced phase."""
    c, phase = ctx.orbit.tensors, ctx.orbit.t[:, None] / SQRT2
    return [(c[:, list(SIN_SET)], -X * np.sin(phase)), (c[:, list(COS_SET)], -X * np.cos(phase))]


def _orbit_rank(ctx):
    w = ctx.orbit.spectra[:, :, 0]  # (sample, reflected, 8)
    return np.abs(w[..., :4]).max() < _RANK_TOL and w[..., 4:].min() > 0.2


def _sum_only_stationary(ctx):
    singles = [stationarity(generator(label), ctx.upb) for label in FIXED_POINT]
    return all(s > 1e-3 for s in singles) and stationarity(generator(*FIXED_POINT), ctx.upb) < 1e-12


def _byproduct_unique(ctx):
    n = sum(1 for _, d in ctx.byproduct if d < _FLOW_TOL)
    return int(n), 1, 0.0


def _decoy_misses(ctx):
    ends = from_coherence(rodrigues_flow(ORBIT, [r for r, _ in ctx.byproduct], ctx.sep_t))
    return min(frobenius_distance(end, ctx.upb) for end in ends) > 0.1


def _weakened_has_witness(ctx):
    kets = family("psi")[:3] + (ket_from_string("111"),)
    res = check_upb(kets)
    w = res.extension_witness
    return w is not None and all(
        abs(np.vdot(k.amplitudes, w.amplitudes)) < 1e-10 for k in kets)


def _ancilla(ctx):
    """The complement state's components times a maximally mixed ancilla."""
    return coherence_product(ctx.upb_t)


def _ancilla_pairs(ctx):
    big = np.kron(ctx.upb, np.eye(2) / 2.0)
    via = np.empty((64, 4))
    # one (64, 16, 16) stack of Lambda_a x lambda_m per m: a single stack of
    # all 256 products raised the verify run's peak RSS by 1 MB
    for m in range(4):
        via[:, m] = np.trace(big @ np.kron(LAMBDA_BASIS, lambda_matrix(m)), axis1=-2, axis2=-1).real
    return [(_ancilla(ctx), via.reshape(-1))]


def _ancilla_support(ctx):
    got = {i for i, v in enumerate(_ancilla(ctx)) if abs(v) > 1e-14}
    want = {4 * a for a in range(64) if abs(ctx.upb_t[a]) > 1e-14}
    return got == want


def _registry():
    rows = [
        ("state.components_upb", "state-table",
         "all 64 coherence components of the complement state match the signed table",
         _deviation(lambda c: [(c.upb_t, expected_upb_tensor())], 1e-13)),
        ("state.purity", "state-table",
         "squared component sum (purity) of the complement state equals 1/4",
         _near(lambda c: np.sum(c.upb_t**2), 0.25)),
        ("state.spectrum_upb", "spectrum",
         "complement-state eigenvalues are {0 x4, 1/4 x4}",
         _deviation(lambda c: [(c.fixed_spectra["base"][1], _FLAT_SPECTRUM)], 1e-11)),
        ("state.spectrum_sep", "spectrum",
         "separable-mixture eigenvalues are {0 x4, 1/4 x4}",
         _deviation(lambda c: [(c.fixed_spectra["base"][0], _FLAT_SPECTRUM)], 1e-11)),
        ("state.in_set_c", "spectrum",
         "both base states lie in the eigenvalue band [0, 1/4]",
         _holds(lambda c: spectrum_in_C(c.fixed_spectra["base"]))),
        ("state.reduced_random", "state-table",
         "every single-qubit marginal of both base states is I/2",
         _deviation(_reduced_pairs)),
        ("ppt.upb", "ppt",
         "complement state has no negative partial-transpose eigenvalue on any cut",
         _near(lambda c: max(0.0, -c.fixed_spectra["upb_cuts"][:, 0].min()), tol=1e-12)),
        ("reflect.sep_to_upb", "reflection",
         "full reflection maps the separable mixture onto the complement state",
         _distance(lambda c: [(from_coherence(reflect(c.sep_t)), c.upb)])),
        ("reflect.involution", "reflection",
         "reflecting twice restores the original components",
         _deviation(lambda c: [(reflect(reflect(c.upb_t)), c.upb_t)])),
        ("reflect.partial_pairs", "reflection",
         "each two-qubit partial reflection also maps separable onto complement",
         _distance(lambda c: [(from_coherence(row), c.upb) for row in partial_reflect(c.sep_t)])),
        ("reflect.single_component_spectrum", "reflection",
         "reflected rank-1 projector has spectrum {-3/4, 1/4 x7}",
         _deviation(lambda c: [(c.fixed_spectra["projector"], _PROJECTOR_SPECTRUM)], 1e-11)),
        ("reflect.set_c_closed", "reflection",
         "reflection keeps the sampled mixtures inside the eigenvalue band [0, 1/4]",
         _holds(lambda c: spectrum_in_C(c.fixed_spectra["set_c"]))),
        ("lhv.structure", "lhv-triples",
         "all eight builtin triples commute pairwise with product proportional to identity",
         _holds(lambda c: all(map(verify_triple_structure, UPB_TRIPLES + OQ_TRIPLES)))),
        ("lhv.upb_triples.products_on_upb", "lhv-triples",
         "complement state gives product -x^3 on every first-family triple",
         _lhv_products("upb_t", UPB_TRIPLES, -X3)),
        ("lhv.upb_triples.products_on_sep", "lhv-triples",
         "separable mixture gives product +x^3 on every first-family triple",
         _lhv_products("sep_t", UPB_TRIPLES, X3)),
        ("lhv.upb_triples.oracle_on_upb", "lhv-triples",
         "sign oracle finds no consistent assignment per first-family triple on the complement state",
         _lhv_oracle("upb_t", UPB_TRIPLES, 0)),
        ("lhv.upb_triples.oracle_on_sep", "lhv-triples",
         "sign oracle finds two consistent assignments per first-family triple on the separable mixture",
         _lhv_oracle("sep_t", UPB_TRIPLES, 2)),
        ("lhv.upb_triples.oracle_on_quarter", "lhv-triples",
         "quarter-period orbit state is consistent with every first-family triple",
         _lhv_oracle("quarter_t", UPB_TRIPLES, 2)),
        ("lhv.oq_triples.products_on_quarter", "lhv-triples",
         "quarter-period orbit state gives product -x^3 on every second-family triple",
         _lhv_products("quarter_t", OQ_TRIPLES, -X3)),
        ("lhv.oq_triples.products_on_upb", "lhv-triples",
         "complement state gives product +x^3 on every second-family triple",
         _lhv_products("upb_t", OQ_TRIPLES, X3)),
        ("lhv.oq_triples.oracle_on_quarter", "lhv-triples",
         "sign oracle finds no consistent assignment per second-family triple on the quarter state",
         _lhv_oracle("quarter_t", OQ_TRIPLES, 0)),
        ("lhv.oq_triples.oracle_on_upb", "lhv-triples",
         "complement state is consistent with every second-family triple",
         _lhv_oracle("upb_t", OQ_TRIPLES, 2)),
        ("prep.standard.endpoint", "preparation",
         "triple-z then six-term schedule lands on the complement state",
         _distance(lambda c: [(c.prep_standard.checkpoints["final"], c.upb)], _FLOW_TOL)),
        ("prep.standard.intermediate", "preparation",
         "triple-z half-period stage lands on the mu mixture",
         _distance(lambda c: [(c.prep_standard.checkpoints["intermediate"],
                               family_mixture("mu"))], _FLOW_TOL)),
        ("prep.standard.interior_npt", "preparation",
         "standard schedule is NPT on every cut at all interior sample times",
         _interior_npt("standard")),
        ("prep.swapped.endpoint", "preparation",
         "swapped schedule lands on the same complement state",
         _distance(lambda c: [(c.prep_swapped.checkpoints["final"], c.upb)], _FLOW_TOL)),
        ("prep.swapped.intermediate_reflects", "preparation",
         "swapped-schedule intermediate is the reflection of the standard one",
         _distance(lambda c: [(c.prep_swapped.checkpoints["intermediate"],
                               reflect_density(c.prep_standard.checkpoints["intermediate"]))],
                   _FLOW_TOL)),
        ("prep.swapped.interior_npt", "preparation",
         "swapped schedule is NPT on every cut at all interior sample times",
         _interior_npt("swapped")),
        ("prep.swapped.intermediate_violations", "preparation",
         "swapped-schedule intermediate gives product -x^3 on every first-family triple",
         _lhv_products("swapped_mid_t", UPB_TRIPLES, -X3)),
        ("orbit.start_matches_families", "orbit",
         "orbit start is the psi mixture and its reflection the complement state",
         _distance(lambda c: [(from_coherence(c.sep_t), family_mixture("psi")),
                              (from_coherence(reflect(c.sep_t)), c.upb)])),
        ("orbit.quarter_matches_table", "orbit",
         "quarter-period orbit components match the signed table",
         _deviation(lambda c: [(c.quarter_t, expected_oq_tensor())])),
        ("orbit.quarter_is_theta_complement", "orbit",
         "quarter-period orbit state equals the complement map of the theta family",
         _distance(lambda c: [(from_coherence(c.quarter_t), rho_oq())])),
        ("orbit.quarter_reflection_equals_theta", "orbit",
         "reflected quarter-period orbit state equals the theta mixture",
         _distance(lambda c: [(from_coherence(reflect(c.quarter_t)), family_mixture("theta"))])),
        ("orbit.half_equals_phi", "orbit",
         "half-period orbit state equals the phi mixture",
         _distance(lambda c: [(from_coherence(rodrigues_flow(ORBIT, TAU_P / 2.0, c.sep_t)),
                               family_mixture("phi"))])),
        ("orbit.conserved_coherences", "orbit",
         "weight <= 2 components are constant along the orbit",
         _deviation(lambda c: [(c.orbit.tensors[:, _LOW_WEIGHT], c.orbit.tensors[0, _LOW_WEIGHT])])),
        ("orbit.sinusoids", "orbit",
         "the eight 3-coherences follow -x sin / -x cos of the reduced phase",
         _deviation(_sinusoid_pairs, 1e-11)),
        ("ppt.orbit", "orbit",
         "orbit states and their reflections stay PPT on every cut",
         _near(lambda c: max(0.0, -c.orbit.spectra[:, :, 1:, 0].min()), tol=1e-12)),
        ("orbit.rank", "orbit",
         "orbit states and reflections keep four eigenvalues above 0.2 and four below 1e-9",
         _holds(_orbit_rank)),
        ("stationary.fixed_point", "stationarity",
         "nine-term 2-coherence generator commutes with the complement state",
         _stationary(*FIXED_POINT)),
        ("stationary.fixed_point_sum_only", "stationarity",
         "the commuting generator's individual terms each move the state; only the sum is stationary",
         _holds(_sum_only_stationary)),
        ("stationary.orbit_generator_moves", "stationarity",
         "triple-y generator does not commute with the complement state",
         _holds(lambda c: stationarity(generator(*ORBIT), c.upb) > 1e-3)),
        ("rodrigues.match_333", "flow",
         "closed-form component flow for the triple-z axis matches conjugation at 33 times",
         _rodrigues_match(STAGE1)),
        ("rodrigues.match_222", "flow",
         "closed-form component flow for the triple-y axis matches conjugation at 33 times",
         _rodrigues_match(ORBIT)),
        ("rodrigues.period_333", "flow",
         "triple-z flow returns to the start after one full period",
         _rodrigues_period(STAGE1)),
        ("rodrigues.period_222", "flow",
         "triple-y flow returns to the start after one full period",
         _rodrigues_period(ORBIT)),
        ("byproduct.distance", "byproduct",
         "one candidate evolution returns the theta mixture to the complement state",
         _near(lambda c: min(d for _, d in c.byproduct), tol=_FLOW_TOL)),
        ("byproduct.parameter", "byproduct",
         "the matching period-reduced parameter is 3/4 of the period",
         _near(lambda c: min(c.byproduct, key=lambda e: e[1])[0], 3.0 * TAU_P / 4.0, 1e-9)),
        ("byproduct.unique", "byproduct",
         "exactly one distinct period-reduced candidate evolution matches",
         _byproduct_unique),
        ("byproduct.decoy_misses", "byproduct",
         "starting from the psi mixture instead, every candidate misses by more than 0.1",
         _holds(_decoy_misses)),
        ("upb.unextendable_psi", "upb-check",
         "no product state is orthogonal to all four psi members",
         _unextendable("psi")),
        ("upb.unextendable_theta", "upb-check",
         "no product state is orthogonal to all four theta members",
         _unextendable("theta")),
        ("upb.witness_weakened", "upb-check",
         "replacing the fourth psi member by |111> admits an orthogonal product witness",
         _holds(_weakened_has_witness)),
        ("ancilla.kron_match", "ancilla",
         "coherence-space ancilla product agrees with the Kronecker construction",
         _deviation(_ancilla_pairs, 1e-13)),
        ("ancilla.support", "ancilla",
         "maximally mixed ancilla leaves exactly the original components, all with trailing index 0",
         _holds(_ancilla_support)),
    ]
    for label in ONE_SPIN:
        rows.append((f"stationary.local_{label}", "stationarity",
                     f"single-qubit generator {label} commutes with the complement state",
                     _stationary(label)))
    rows.sort(key=lambda r: r[0])
    return rows


_REGISTRY = _registry()


def claim_ids():
    return [row[0] for row in _REGISTRY]


def _grade(measured, expected, tol):
    if isinstance(expected, (list, tuple)):
        ok = len(measured) == len(expected) and all(
            abs(m - e) <= tol for m, e in zip(measured, expected)
        )
    else:
        ok = abs(measured - expected) <= tol
    return "pass" if ok else "fail"


def _check_filter(pattern):
    """ValueError unless the claim-id glob pattern matches some claim id."""
    if not any(fnmatch.fnmatchcase(cid, pattern) for cid in claim_ids()):
        raise ValueError(f"no claim id matches {pattern!r}")


def run_claims(orbit_samples=64, filter=None):
    """Execute the registry; returns reports sorted by claim id.

    The orbit claims sample orbit_samples times over one period, and claims
    whose id the glob filter does not match are skipped.  The run's _Context
    is told which ids it grades, so that one prepare_upb call covers every
    order they read.  Raises ValueError, before any claim runs, on a grid not
    an integer in [2, _MAX_SAMPLES], a filter that is neither None nor a
    string, or one that matches no claim id.
    """
    _number(orbit_samples, "orbit_samples", integer=True, low=2, high=_MAX_SAMPLES)
    if filter is not None:
        if not isinstance(filter, str):
            raise ValueError(f"filter must be None or a glob string, got {filter!r}")
        _check_filter(filter)
    selected = {cid for cid in claim_ids() if filter is None or fnmatch.fnmatchcase(cid, filter)}
    ctx = _Context(orbit_samples, selected)
    reports = []
    for cid, ref, desc, fn in _REGISTRY:
        if cid not in selected:
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
        status = _grade(measured, expected, tol)
        reports.append(ClaimReport(cid, desc, ref, status, measured, expected, float(tol)))
    return reports


def write_reports_json(reports, fobj):
    json.dump([{name: getattr(r, name) for name in r._fields} for r in reports], fobj, indent=2)
    fobj.write("\n")


def write_orbit_csv(fobj, orbit):
    """17-significant-digit CSV of an Orbit: 3-coherences, min PT eigenvalues, ranks.

    Rows end in "\r\n", as csv.writer ends them; no field needs quoting.
    """
    three = sorted(SIN_SET + COS_SET)
    header = (["t"]
              + ["coh{}{}{}".format(*INDICES[a]) for a in three]
              + [f"min_pt_cut{q}" for q in "123"]
              + [f"reflected_min_pt_cut{q}" for q in "123"]
              + ["rank", "reflected_rank"])
    ranks = np.sum(np.abs(orbit.spectra[:, :, 0]) > _RANK_TOL, axis=-1)  # (sample, reflected)
    # per sample: t, the coherences, then the state's cuts and the reflection's
    reals = np.column_stack([orbit.t, orbit.tensors[:, three],
                             orbit.spectra[:, :, 1:, 0].reshape(len(orbit.t), -1)])
    row = ",".join(["%.17g"] * reals.shape[1] + ["%d", "%d"]) + "\r\n"
    fobj.write(",".join(header) + "\r\n")
    fobj.write("".join(row % (*x, *r) for x, r in zip(reals.tolist(), ranks.tolist())))


def write_bloch_csv(fobj):
    """Per-member, per-qubit Bloch vectors of the three aligned ket families."""
    fobj.write("family,member,qubit,bloch_x,bloch_y,bloch_z\r\n")
    for tag, name in (("psi@t=0", "psi"), ("theta@t=tau_p/4", "theta"), ("phi@t=tau_p/2", "phi")):
        for member, ket in enumerate(family(name), start=1):
            for qubit, local in enumerate(ket.locals, start=1):
                vec = bloch_vector(np.outer(local, local.conj()))
                fobj.write("%s,%d,%d,%.17g,%.17g,%.17g\r\n" % (tag, member, qubit, *vec))
