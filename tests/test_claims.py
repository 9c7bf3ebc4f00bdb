import csv
import io
import json
import pathlib

import numpy as np
import pytest

from upb3q import claims, dynamics
from upb3q.claims import (
    ClaimReport,
    _ancilla_pairs,
    _Context,
    _grade,
    claim_ids,
    run_claims,
    write_bloch_csv,
    write_orbit_csv,
    write_reports_json,
)
from upb3q.dynamics import COS_SET, SIN_SET, TAU_P, orbit
from upb3q.linalg import jacobi_eigh
from upb3q.pauli import INDICES, LAMBDA_BASIS, bloch_vector, from_coherence, lambda_matrix, to_coherence
from upb3q.states import X, family, family_mixture, reflect, reflect_density

EXPECTED_FAILURES = {
    "stationary.local_100", "stationary.local_200", "stationary.local_300",
    "stationary.local_010", "stationary.local_020", "stationary.local_030",
    "stationary.local_001", "stationary.local_002", "stationary.local_003",
}


def test_claim_ids_are_sorted_and_unique():
    ids = claim_ids()
    assert ids == sorted(ids)
    assert len(ids) == len(set(ids))
    assert len(ids) > 50


def test_default_run_fails_only_single_qubit_stationarity():
    reports = run_claims()
    by_status = {}
    for r in reports:
        by_status.setdefault(r.status, []).append(r.claim_id)
    assert set(by_status["fail"]) == EXPECTED_FAILURES
    assert "skip" not in by_status
    # the failing measurements are the true commutator norms, not noise:
    # sqrt(3)*x for axes 1 and 3, sqrt(6)*x for axis 2
    for r in reports:
        if r.claim_id in EXPECTED_FAILURES:
            axis = max(int(m) for m in r.claim_id[-3:])
            expect = np.sqrt(6.0 if axis == 2 else 3.0) * X
            assert abs(r.measured - expect) < 1e-12


def test_filter_skips_everything_else():
    reports = run_claims(filter="lhv.*")
    executed = [r for r in reports if r.status != "skip"]
    assert all(r.claim_id.startswith("lhv.") for r in executed)
    assert len(executed) == 10
    assert all(r.status == "pass" for r in executed)
    skipped = [r for r in reports if r.status == "skip"]
    assert all(r.measured is None and r.expected is None for r in skipped)


def test_grade_rules():
    assert _grade(0.0, 0.0, 1e-12) == "pass"
    assert _grade(2e-12, 0.0, 1e-12) == "fail"
    assert _grade(True, True, 0.0) == "pass"
    assert _grade(False, True, 0.0) == "fail"
    assert _grade(1, 1, 0.0) == "pass"
    assert _grade(2, 1, 0.0) == "fail"
    assert _grade([2, 2], [2, 2], 0.0) == "pass"
    assert _grade([2, 1], [2, 2], 0.0) == "fail"
    assert _grade([2, 1], [2, 2, 2], 0.0) == "fail"


def test_report_json_schema():
    reports = run_claims(filter="state.*")
    buf = io.StringIO()
    write_reports_json(reports, buf)
    data = json.loads(buf.getvalue())
    assert len(data) == len(reports)
    for entry in data:
        assert list(entry) == [
            "claim_id", "description", "paper_ref", "status",
            "measured", "expected", "tolerance",
        ]
        assert entry["status"] in ("pass", "fail", "skip")
        assert isinstance(entry["paper_ref"], str) and entry["paper_ref"]
    assert buf.getvalue().endswith("\n")


def test_report_json_is_deterministic():
    out = []
    for _ in range(2):
        buf = io.StringIO()
        write_reports_json(run_claims(filter="reflect.*"), buf)
        out.append(buf.getvalue())
    assert out[0] == out[1]


def test_orbit_csv_golden_rows():
    buf = io.StringIO()
    write_orbit_csv(buf, orbit(4))
    lines = buf.getvalue().splitlines()
    assert lines[0] == (
        "t,coh111,coh113,coh131,coh133,coh311,coh313,coh331,coh333,"
        "min_pt_cut1,min_pt_cut2,min_pt_cut3,"
        "reflected_min_pt_cut1,reflected_min_pt_cut2,reflected_min_pt_cut3,"
        "rank,reflected_rank"
    )
    assert len(lines) == 5
    row0 = lines[1].split(",")
    assert row0[0] == "0"
    # cos-type coherences start at -x, sin-type at 0
    assert abs(float(row0[1]) + X) < 1e-15   # coh111
    assert abs(float(row0[2])) < 1e-15       # coh113
    assert row0[15] == "4" and row0[16] == "4"
    row_quarter = lines[2].split(",")
    assert abs(float(row_quarter[0]) - TAU_P / 4) < 1e-15
    assert abs(float(row_quarter[1])) < 1e-15      # coh111 -> 0
    assert abs(float(row_quarter[2]) + X) < 1e-15  # coh113 -> -x
    for col in range(9, 15):
        assert float(row0[col]) >= -1e-10
        assert float(row_quarter[col]) >= -1e-10


def test_orbit_csv_matches_the_csv_module_writer():
    # each data row of both CSV writers is one %-format string; the reference
    # is csv.writer over fields formatted one at a time, the byte format the
    # CSVs have always had
    orb = orbit(8)
    three = sorted(SIN_SET + COS_SET)
    orbit_rows = [["t"] + ["coh{}{}{}".format(*INDICES[a]) for a in three]
                  + [f"min_pt_cut{q}" for q in (1, 2, 3)]
                  + [f"reflected_min_pt_cut{q}" for q in (1, 2, 3)] + ["rank", "reflected_rank"]]
    for t, c, w in zip(orb.t, orb.tensors, orb.spectra):
        orbit_rows.append([format(float(t), ".17g")] + [format(float(c[a]), ".17g") for a in three]
                          + [format(float(v), ".17g") for v in w[:, 1:, 0].ravel()]
                          + [str(int(np.sum(np.abs(x) > 1e-9))) for x in w[:, 0]])
    bloch_rows = [["family", "member", "qubit", "bloch_x", "bloch_y", "bloch_z"]]
    for tag, name in (("psi@t=0", "psi"), ("theta@t=tau_p/4", "theta"), ("phi@t=tau_p/2", "phi")):
        for member, ket in enumerate(family(name), start=1):
            for qubit, local in enumerate(ket.locals, start=1):
                vec = bloch_vector(np.outer(local, local.conj()))
                bloch_rows.append([tag, str(member), str(qubit)] + [format(float(v), ".17g") for v in vec])
    for write, rows in ((lambda fobj: write_orbit_csv(fobj, orb), orbit_rows),
                        (write_bloch_csv, bloch_rows)):
        buf, ref = io.StringIO(), io.StringIO()
        write(buf)
        csv.writer(ref).writerows(rows)
        assert buf.getvalue() == ref.getvalue()


def test_orbit_csv_uses_17_significant_digits():
    buf = io.StringIO()
    write_orbit_csv(buf, orbit(2))
    row = buf.getvalue().splitlines()[1]
    # 17 significant digits uniquely identify a double: parsing the field and
    # re-formatting it must reproduce the text exactly
    field = row.split(",")[1]
    assert len(field.replace("-", "").replace(".", "").lstrip("0")) >= 16
    assert format(float(field), ".17g") == field
    assert abs(float(field) + X) < 1e-15


def test_bloch_csv_contents():
    buf = io.StringIO()
    write_bloch_csv(buf)
    lines = buf.getvalue().splitlines()
    assert lines[0] == "family,member,qubit,bloch_x,bloch_y,bloch_z"
    assert len(lines) == 1 + 3 * 4 * 3
    rows = [line.split(",") for line in lines[1:]]
    by_key = {(r[0], r[1], r[2]): np.array([float(v) for v in r[3:]]) for r in rows}
    # |0> on qubit 1 of psi member 1 ("01+")
    assert np.abs(by_key[("psi@t=0", "1", "1")] - [0, 0, 1]).max() < 1e-12
    # phi member 1 ("10-") starts with |1>: the pi-rotated partner
    assert np.abs(by_key[("phi@t=tau_p/2", "1", "1")] - [0, 0, -1]).max() < 1e-12
    # theta member 4 is |000>
    for q in "123":
        assert np.abs(by_key[("theta@t=tau_p/4", "4", q)] - [0, 0, 1]).max() < 1e-12


def test_error_in_claim_becomes_failure():
    # registry rows are (id, ref, description, builder); patch one to explode
    import upb3q.claims as mod

    original = mod._REGISTRY
    broken = [("zz.boom", "test", "always explodes",
               lambda ctx: (_ for _ in ()).throw(RuntimeError("kaboom")))]
    mod._REGISTRY = original + broken
    try:
        reports = run_claims(filter="zz.*")
    finally:
        mod._REGISTRY = original
    failing = [r for r in reports if r.claim_id == "zz.boom"]
    assert len(failing) == 1
    assert failing[0].status == "fail"
    assert "kaboom" in failing[0].measured


def test_claim_report_to_dict_round_trip():
    rep = ClaimReport("a.b", "desc", "ref", "pass", 1.0, 1.0, 0.1)
    d = rep._asdict()
    assert list(d) == ["claim_id", "description", "paper_ref", "status", "measured", "expected",
                       "tolerance"]
    assert d["claim_id"] == "a.b" and d["tolerance"] == 0.1 and ClaimReport(**d) == rep


def test_full_run_stacks_its_eigen_solves(solver_calls):
    # one orbit solve of its 4 * 64 state matrices (each state and its 3
    # partial transposes; the reflections' spectra are derived) plus one
    # solve each for the 16 fixed matrices (the two base states, the three
    # upb cuts, the ten set-C members and the reflected projector) and for
    # both preparation orders at once, 22 matrices each: cut 1 of its 18
    # interior probes and cuts 2 and 3 of each stage's first probe; the named
    # flows read their spectral table and solve nothing
    run_claims(orbit_samples=64)
    assert sum(solver_calls) == 60 + 4 * 64
    assert sorted(solver_calls) == [16, 44, 256]


def test_fixed_spectra_solve_the_reflected_matrices_themselves(monkeypatch):
    # reflect.set_c_closed and reflect.single_component_spectrum grade solves
    # of the reflected matrices, not 1/4 minus the states' spectra, which
    # would hold by construction: the one stack holds the five reflected set-C
    # members and the reflected psi projector as reflect builds them
    stacks = []
    monkeypatch.setattr(claims, "jacobi_eigh", lambda m, **kw: stacks.append(m) or jacobi_eigh(m, **kw))
    ctx = _Context(64)
    spectra = ctx.fixed_spectra
    [stack] = stacks
    members = np.stack([ctx.sep_t, ctx.upb_t, ctx.quarter_t,
                        to_coherence(family_mixture("theta")), to_coherence(family_mixture("phi"))])
    assert stack.shape == (16, 8, 8)
    set_c = stack[5:15].reshape(5, 2, 8, 8)
    assert set_c[:, 0].tobytes() == from_coherence(members).real.tobytes()
    assert set_c[:, 1].tobytes() == from_coherence(reflect(members)).real.tobytes()
    assert stack[15].tobytes() == reflect_density(family("psi")[0].projector()).real.tobytes()
    assert spectra["set_c"].tobytes() == jacobi_eigh(set_c, want_vectors=False)[0].tobytes()


def test_ppt_orbit_reads_the_derived_reflected_minima(monkeypatch):
    # each solved matrix's largest eigenvalue raised by 1e-9 leaves the state
    # half's minima where they were; the reflected minima, 1/4 minus those
    # largest eigenvalues, drop 1e-9 below zero, and the claim fails
    def raised(m, **kw):
        w, v = jacobi_eigh(m, **kw)
        w[..., -1] += 1e-9
        return w, v

    monkeypatch.setattr(dynamics, "jacobi_eigh", raised)
    [report] = [r for r in run_claims(orbit_samples=4, filter="ppt.orbit") if r.status != "skip"]
    assert report.claim_id == "ppt.orbit" and report.status == "fail"
    assert 0.9e-9 < report.measured < 1.1e-9


@pytest.mark.parametrize("qubit", [1, 2, 3])
def test_interior_npt_reads_every_cut(monkeypatch, qubit):
    # a partial transpose that leaves qubit q's block as it is makes that cut
    # of a probe the probe itself, a state, so no longer NPT: both
    # prep.*.interior_npt claims fail, on cut 1 at every probe and on cuts 2
    # and 3 at each stage's first probe, where they are solved, not carried
    inner = dynamics.partial_transpose

    def untransposed(rho):
        pts = inner(rho)
        pts[..., qubit - 1, :, :] = rho
        return pts

    monkeypatch.setattr(dynamics, "partial_transpose", untransposed)
    failed = {r.claim_id for r in run_claims(filter="prep.*") if r.status == "fail"}
    assert failed == {"prep.standard.interior_npt", "prep.swapped.interior_npt"}


@pytest.mark.parametrize("imag, dtype", [(0.0, np.float64), (-0.0, np.complex128), (5e-324, np.complex128)])
def test_fixed_spectra_solve_real_only_with_no_imaginary_bit_set(monkeypatch, imag, dtype):
    # the 16 fixed matrices are real; one set imaginary bit in the last of
    # them, the reflected projector, keeps the whole solve complex
    seen = []
    monkeypatch.setattr(claims, "jacobi_eigh", lambda m, **kw: seen.append(m.dtype) or jacobi_eigh(m, **kw))
    inner = claims.reflect_density

    def marked(m):
        out = np.array(inner(m))
        out[3, 3] = complex(out[3, 3].real, imag)
        return out

    monkeypatch.setattr(claims, "reflect_density", marked)
    spectra = _Context(64).fixed_spectra
    assert seen == [dtype]
    assert np.abs(spectra["projector"] - claims._PROJECTOR_SPECTRUM).max() < 1e-15


def test_ancilla_pairs_match_the_per_element_kron_loop():
    # four (64, 16, 16) Kronecker stacks give the bits of 256 one-at-a-time products
    ctx = _Context(64)
    [(_, via)] = _ancilla_pairs(ctx)
    big = np.kron(ctx.upb, np.eye(2) / 2.0)
    want = np.empty(256)
    for a in range(64):
        for m in range(4):
            want[4 * a + m] = np.trace(big @ np.kron(LAMBDA_BASIS[a], lambda_matrix(m))).real
    assert via.tobytes() == want.tobytes()


REGISTRY_FILE = pathlib.Path(__file__).parent / "data" / "claim_registry.json"
STATIC_KEYS = ("claim_id", "paper_ref", "description", "expected", "tolerance")


def test_registry_metadata_is_frozen():
    # the static columns of every claim, recorded before the builders were
    # collapsed into parameterised families; measured values are left out
    # because they depend on the platform's floating point
    frozen = json.loads(REGISTRY_FILE.read_text(encoding="utf-8"))
    current = [{k: r._asdict()[k] for k in STATIC_KEYS} for r in run_claims()]
    assert [row["claim_id"] for row in frozen] == claim_ids()
    for want, got in zip(frozen, current):
        # compared as JSON text so that true and 1, or 0 and 0.0, differ
        assert json.dumps(got) == json.dumps(want)


@pytest.mark.parametrize("pattern, sizes", [
    ("lhv.*", []),
    ("prep.standard.*", [22]),
    ("prep.*", [44]),
    # the swapped claims name no standard claim, so prep.swapped.intermediate_reflects'
    # read of the standard intermediate makes a call of its own
    ("prep.swapped.*", [22, 22]),
    ("rodrigues.*", []),
    ("state.spectrum_*", [16]),
    ("reflect.*", [16]),
    ("ppt.upb", [16]),
])
def test_filtered_runs_build_only_what_they_use(solver_calls, pattern, sizes):
    # a filtered run solves only the shared artifacts its claims touch: the
    # standard preparation never runs the swapped schedule, both orders share
    # one solve when the run's ids name both, the LHV and Rodrigues claims
    # need no eigen solve at all, and every fixed-state spectrum claim reads
    # the one solve of all 16 fixed matrices
    run_claims(filter=pattern)
    assert solver_calls == sizes


def test_a_context_built_directly_pools_both_orders(solver_calls):
    # with no ids given a context grades every claim, as a full run does, so
    # its first preparation read scores both orders in one solve
    ctx = _Context(64)
    swapped = ctx.prep_swapped
    assert solver_calls == [44]
    assert ctx.prep_standard is ctx.prep_standard and ctx.prep_swapped is swapped
    assert solver_calls == [44]


def test_every_verdict_passes_by_a_wide_margin(monkeypatch):
    # one full run, and the artifacts of its own context: each passing numeric
    # claim uses at most 1% of its tolerance (0.11% at most when measured), and
    # the quantities that the boolean claims threshold clear their floors
    contexts = []

    class Recorded(_Context):
        def __init__(self, *args):
            super().__init__(*args)
            contexts.append(self)

    monkeypatch.setattr(claims, "_Context", Recorded)
    reports = run_claims(64)
    [ctx] = contexts
    numeric = [r for r in reports if r.status == "pass" and isinstance(r.measured, float)]
    assert len(numeric) == 35
    assert [(r.claim_id, abs(r.measured - r.expected) / r.tolerance) for r in numeric
            if abs(r.measured - r.expected) > 0.01 * r.tolerance] == []
    # prep.*.interior_npt grades every probe's largest cut minimum against -1e-6; -0.013 when measured
    for trace in (ctx.prep_standard, ctx.prep_swapped):
        assert len(trace.interior) == 18
        assert max(max(s.min_pt_eigs) for s in trace.interior) <= -1e-5
    # orbit.rank grades four eigenvalues below 1e-9 and four above 0.2, of every state and reflection
    w = ctx.orbit.spectra[:, :, 0]
    assert np.abs(w[..., :4]).max() <= 1e-11
    assert w[..., 4:].min() >= 0.2499
