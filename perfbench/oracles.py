"""Independent output checks for the benchmark workloads.

Everything here is rebuilt from numpy alone: Pauli matrices, product kets,
matrix exponentials through numpy.linalg.eigh and spectra through
numpy.linalg.eigvalsh.  Nothing is imported from upb3q, so a defect in the
library cannot hide in its own oracle.  Each check raises CheckFailed with a
one-line reason.
"""

from __future__ import annotations

import csv
import fnmatch
import json

import numpy as np

SQRT2 = np.sqrt(2.0)
TAU_P = 2.0 * SQRT2 * np.pi
X = 1.0 / (8.0 * SQRT2)

_PAULI = {
    "0": np.eye(2, dtype=complex),
    "1": np.array([[0, 1], [1, 0]], dtype=complex),
    "2": np.array([[0, -1j], [1j, 0]], dtype=complex),
    "3": np.array([[1, 0], [0, -1]], dtype=complex),
}
_LOCAL = {
    "0": np.array([1, 0], dtype=complex),
    "1": np.array([0, 1], dtype=complex),
    "+": np.array([1, 1], dtype=complex) / SQRT2,
    "-": np.array([1, -1], dtype=complex) / SQRT2,
}
PSI = ("01+", "1+0", "+01", "---")

# The frozen registry: 63 claims, of which the nine single-qubit
# stationarity claims are false and fail by design.
CLAIM_COUNT = 63
EXPECTED_FAIL = "stationary.local_*"
FAMILY_SIZES = {
    "lhv.*": 10, "upb.*": 3, "ancilla.*": 2,
    "stationary.*": 12, "byproduct.*": 4, "rodrigues.*": 4,
}
REPORT_KEYS = {
    "claim_id", "description", "paper_ref", "status", "measured", "expected", "tolerance",
}

# Orbit CSV 3-coherence columns: from the separable mixture these evolve as
# -x sin(t/sqrt2) (odd number of 3s in the label) or -x cos(t/sqrt2).
SIN_LABELS = ("113", "131", "311", "333")
COS_LABELS = ("111", "133", "313", "331")
ORBIT_HEADER = (
    ["t"] + [f"coh{lab}" for lab in sorted(SIN_LABELS + COS_LABELS)]
    + [f"min_pt_cut{q}" for q in (1, 2, 3)]
    + [f"reflected_min_pt_cut{q}" for q in (1, 2, 3)]
    + ["rank", "reflected_rank"]
)


class CheckFailed(AssertionError):
    """An op's output disagrees with the oracle."""


def _require(ok, message):
    if not ok:
        raise CheckFailed(message)


def basis_op(label):
    """sigma_j x sigma_k x sigma_l / (2 sqrt 2) for a label like '031'."""
    a, b, c = (_PAULI[ch] for ch in label)
    return np.kron(np.kron(a, b), c) / (2.0 * SQRT2)


def ket(symbols):
    a, b, c = (_LOCAL[ch] for ch in symbols)
    return np.kron(np.kron(a, b), c)


def _psi_projector_sum():
    return sum(np.outer(ket(s), ket(s).conj()) for s in PSI)


def evolve(h, t, rho):
    """exp(-itH) rho exp(+itH) through numpy.linalg.eigh."""
    w, v = np.linalg.eigh(h)
    u = (v * np.exp(-1j * t * w)) @ v.conj().T
    return u @ rho @ u.conj().T


def min_pt_eigs(rho):
    """Smallest partial-transpose eigenvalue on each of the cuts 1|23, 2|13, 3|12."""
    out = []
    for q in range(3):
        axes = list(range(6))
        axes[q], axes[q + 3] = axes[q + 3], axes[q]
        pt = rho.reshape((2,) * 6).transpose(axes).reshape(8, 8)
        out.append(float(np.linalg.eigvalsh(pt)[0]))
    return out


def check_verify(rc, stdout, json_path, pattern):
    """A `verify` run (pattern None = all claims) against the frozen verdicts."""
    with open(json_path, encoding="utf-8") as fobj:
        reports = json.load(fobj)
    _require(isinstance(reports, list) and len(reports) == CLAIM_COUNT,
             f"expected {CLAIM_COUNT} reports")
    for r in reports:
        _require(isinstance(r, dict) and set(r) == REPORT_KEYS,
                 f"report keys {sorted(r) if isinstance(r, dict) else r!r}")
    ids = [r["claim_id"] for r in reports]
    _require(len(set(ids)) == CLAIM_COUNT, "duplicate claim ids")
    executed = [r for r in reports if r["status"] != "skip"]
    for r in reports:
        selected = pattern is None or fnmatch.fnmatchcase(r["claim_id"], pattern)
        _require(selected == (r["status"] != "skip"),
                 f"{r['claim_id']}: status {r['status']} under filter {pattern}")
    want = CLAIM_COUNT if pattern is None else FAMILY_SIZES[pattern]
    _require(len(executed) == want, f"{len(executed)} claims executed, expected {want}")
    failed = sorted(r["claim_id"] for r in executed if r["status"] == "fail")
    expected_fail = sorted(r["claim_id"] for r in executed
                           if fnmatch.fnmatchcase(r["claim_id"], EXPECTED_FAIL))
    _require(failed == expected_fail, f"failed {failed}, expected {expected_fail}")
    _require(all(r["status"] in ("pass", "fail") for r in executed), "unknown status")
    _require(rc == (1 if expected_fail else 0), f"exit code {rc}")
    n_fail = len(failed)
    summary = (f"{len(executed) - n_fail} passed, {n_fail} failed, "
               f"{CLAIM_COUNT - len(executed)} skipped (of {CLAIM_COUNT})")
    _require(stdout.rstrip("\n").rsplit("\n", 1)[-1] == summary, "summary line")
    _require(stdout.count("\n") == CLAIM_COUNT + 1, "one line per claim plus summary")


def check_orbit_csv(rc, csv_path, samples):
    """An `orbit --samples N` CSV against the closed-form 3-coherences."""
    _require(rc == 0, f"exit code {rc}")
    with open(csv_path, newline="", encoding="utf-8") as fobj:
        rows = list(csv.reader(fobj))
    _require(rows and rows[0] == ORBIT_HEADER, "header")
    body = rows[1:]
    _require(len(body) == samples, f"{len(body)} rows, expected {samples}")
    col = {name: i for i, name in enumerate(ORBIT_HEADER)}
    for k, row in enumerate(body):
        t = float(row[0])
        _require(abs(t - TAU_P * k / samples) <= 1e-12, f"row {k}: t={t}")
        for lab in SIN_LABELS + COS_LABELS:
            trig = np.sin if lab in SIN_LABELS else np.cos
            want = -X * trig(t / SQRT2)
            got = float(row[col[f"coh{lab}"]])
            _require(abs(got - want) <= 1e-11, f"row {k}: coh{lab}={got}, want {want}")
        for name in ORBIT_HEADER[9:15]:
            _require(float(row[col[name]]) >= -1e-12, f"row {k}: {name}={row[col[name]]}")
        _require(row[col["rank"]] == "4" and row[col["reflected_rank"]] == "4",
                 f"row {k}: ranks {row[-2:]}")


def check_preparation(trace, order, interior_samples):
    """A prepare_upb(order, k) trace: the endpoint and every interior probe."""
    proj = _psi_projector_sum()
    target = (np.eye(8) - proj) / 4.0
    final = np.asarray(trace.checkpoints["final"])
    _require(np.abs(final - target).max() <= 1e-10,
             f"{order}: endpoint off by {np.abs(final - target).max():.3e}")
    stages = [
        (basis_op("333"), TAU_P / 2.0),
        (sum(basis_op(lab) for lab in ("011", "033", "101", "110", "303", "330")), TAU_P / 4.0),
    ]
    if order == "swapped":
        stages = stages[::-1]
    interior = list(trace.interior)
    _require(len(interior) == 2 * interior_samples,
             f"{order}: {len(interior)} probes, expected {2 * interior_samples}")
    state = proj / 4.0
    for num, (h, duration) in enumerate(stages, start=1):
        for j in range(1, interior_samples + 1):
            sample = interior[(num - 1) * interior_samples + j - 1]
            t = duration * j / (interior_samples + 1)
            _require(sample.stage == num and abs(sample.t - t) <= 1e-12,
                     f"{order}: probe ({sample.stage}, {sample.t}) at ({num}, {t})")
            want = min_pt_eigs(evolve(h, t, state))
            _require(max(want) < -1e-9, f"{order}: oracle probe at t={t} is not NPT")
            dev = max(abs(a - b) for a, b in zip(sample.min_pt_eigs, want))
            _require(dev <= 1e-10, f"{order}: probe at t={t} off by {dev:.3e}")
        state = evolve(h, duration, state)
