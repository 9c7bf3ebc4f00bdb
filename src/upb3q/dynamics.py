"""Adjoint and spectral-projector flows, the two-stage preparation schedule, the 3-coherence orbit,
stationarity checks, and the quarter-period byproduct route.

Flow convention: U(t) = exp(-itH) with H built from the trace-orthonormal
Lambda basis.  The triple-index generators Lambda_{333} and Lambda_{222} have
eigenvalues +-1/(2 sqrt 2), so their conjugation flows are periodic with
period TAU_P = 2 sqrt(2) pi.  For those two axes the flow on coherence
components has the closed form

    exp(t R) = I + sqrt(2) sin(t/sqrt 2) R + 2 (1 - cos(t/sqrt 2)) R^2

where R is the real 64x64 adjoint generator, read off the commutators of
the generator with the Lambda basis.
"""

import math
from functools import reduce
from typing import NamedTuple

import numpy as np

from .entanglement import _QUBIT_SHIFT, partial_transpose
from .linalg import _array, _finite_result, _number, _real_if_exact, frobenius_distance, jacobi_eigh
from .pauli import LAMBDA_BASIS, SQRT2, from_coherence, label_index, to_coherence
from .states import family_mixture, rho_sep, rho_upb

# Common period of the Lambda_{333} and Lambda_{222} conjugation flows.
TAU_P = 2.0 * SQRT2 * np.pi

# Largest grid, checked before it is allocated: a sample costs about 0.05 ms and 5 KB on the orbit (its
# state and 3 partial transposes in one float64 stack; a tracemalloc peak of 51 MB for orbit(10000))
# and 0.05 ms and 5 KB as a preparation probe (one solved transpose; a peak of 104 MB for the 20000
# probes of prepare_upb(order, 10000), 208 MB for both orders at once), so a grid this size takes about
# a second and at most ~110 MB per preparation order.
_MAX_SAMPLES = 10_000


def _times(t):
    """t as floats, shape () for one time or (T,) for a grid; ValueError unless it follows the time rule.

    The rule: t is a finite real number (a bool is not a time) or a 1-D grid
    of them, an int or float array with no NaN or infinite entry and at most
    _MAX_SAMPLES + 1 times (prepare_upb's largest grid), counted before any entry is read.
    """
    try:
        times = np.asarray(t)
    except ValueError:  # a ragged sequence is no grid
        times = None
    if times is not None and times.ndim == 1 and len(times) > _MAX_SAMPLES + 1:
        raise ValueError(f"a flow time grid must hold at most {_MAX_SAMPLES + 1} times, got {len(times)}")
    if times is not None and times.ndim == 0:
        _number(t, "flow time")
    elif times is None or times.ndim != 1 or times.dtype.kind not in "iuf" or not np.isfinite(times).all():
        raise ValueError(f"flow time must be a finite real number or a 1-D grid of them, got {t!r}")
    return times.astype(float)


# The eight 3-coherence flat indices, split by their role along the orbit:
# SIN_SET components evolve as -x sin(t/sqrt2) from rho_sep, COS_SET as
# -x cos(t/sqrt2); everything of lower weight is conserved.
SIN_SET = tuple(map(label_index, ("113", "131", "311", "333")))
COS_SET = tuple(map(label_index, ("111", "133", "313", "331")))


class BadAxis(ValueError):
    """Flow requested along labels other than the named generators that flow takes."""


# Named Hamiltonians as Lambda_jkl labels; generator(*labels) builds the matrix.
STAGE1 = ("333",)  # first preparation stage: triple-z
STAGE2 = ("011", "033", "101", "110", "303", "330")  # second stage: equal-index-pair 2-coherences
# nine 2-coherence terms whose sum (not any one term) commutes with rho_upb
FIXED_POINT = ("011", "022", "033", "101", "110", "202", "220", "303", "330")
ORBIT = ("222",)  # triple-y: its orbit keeps the state PPT
ONE_SPIN = ("100", "200", "300", "010", "020", "030", "001", "002", "003")  # by qubit, then axis


def generator(*labels):
    """The 8x8 sum of Lambda_jkl over labels like '011'; ValueError on a bad label."""
    h = np.zeros((8, 8), dtype=complex)
    for label in labels:
        h += LAMBDA_BASIS[label_index(label)]
    return h


def _check_axis(axis, named=(STAGE1, ORBIT)):
    """axis itself; BadAxis unless it is one of named, by default STAGE1 and ORBIT: the closed-form flows.

    Only a tuple of strings is compared: an array would compare elementwise.
    """
    if not (isinstance(axis, tuple) and all(isinstance(x, str) for x in axis) and axis in named):
        names = {STAGE1: "STAGE1", STAGE2: "STAGE2", ORBIT: "ORBIT"}
        raise BadAxis(f"axis must be {' or '.join(f'{names[a]} {a}' for a in named)}, got {axis!r}")
    return axis


def adjoint_matrix(axis):
    """Real 64x64 generator R = -i ad_H on coherence components, for H = generator(*axis).

    R[m, n] is the coefficient of Lambda_m in -i [H, Lambda_n], that is
    tr(Lambda_m [H, Lambda_n]).imag.  Raises BadAxis unless axis is STAGE1
    or ORBIT.
    """
    h = generator(*_check_axis(axis))
    ad = np.einsum("mij,nji->mn", LAMBDA_BASIS, h @ LAMBDA_BASIS - LAMBDA_BASIS @ h)
    # Every entry is 0 or +-1/sqrt2.  This scale rounds to 0.7071067811865477,
    # the bits the CSVs carry; 1/SQRT2 gives ...475 and SQRT2/2 gives ...476.
    return np.rint(SQRT2 * ad.imag) * (0.25 * SQRT2**3)


_R_CACHE = {}  # axis -> read-only (R, R @ R), built on first use


def _generator_powers(axis):
    if _check_axis(axis) not in _R_CACHE:  # checked first: a list is not hashable
        r = adjoint_matrix(axis)
        _R_CACHE[axis] = (r, r @ r)
        for m in _R_CACHE[axis]:
            m.setflags(write=False)
    return _R_CACHE[axis]


def _spectral_table():
    """Read-only {labels: (l, P)}: the integer eigenvalues l of M = 2 sqrt2 generator(*labels) and their projectors.

    M has Gaussian-integer entries, so P_l = prod_{m != l} (M - m I) / (l - m)
    (Sylvester's formula) is exact integer products and one division, with
    no eigen solve: exact for STAGE1 and ORBIT, where P = (I +- M) / 2.
    """
    table = {}
    for labels, spectrum in ((STAGE1, (-1, 1)), (STAGE2, (-2, 0, 4)), (ORBIT, (-1, 1))):
        h = 2.0 * SQRT2 * generator(*labels)
        m = np.rint(h.real) + 1j * np.rint(h.imag)
        projectors = [reduce(np.matmul, [m - mu * np.eye(8) for mu in spectrum if mu != lam])
                      / math.prod(lam - mu for mu in spectrum if mu != lam) for lam in spectrum]
        table[labels] = (np.array(spectrum, dtype=float), np.array(projectors))
        for a in table[labels]:
            a.setflags(write=False)
    return table


_SPECTRA = _spectral_table()  # read-only, built at import


def named_flow(labels, t, rho):
    """exp(-itH) rho exp(+itH) for H = generator(*labels), labels STAGE1, STAGE2 or ORBIT, at one time or a grid.

    U = sum_l exp(-itl / (2 sqrt2)) P_l from _spectral_table; a 1-D grid of
    T times gives a (T, 8, 8) stack with the bits of one call per time.
    Raises BadAxis on other labels, ValueError on a t or rho that breaks the
    time or finite rule or on an overflow (a huge t), and ShapeMismatch
    unless rho is (8, 8).
    """
    lams, projectors = _SPECTRA[_check_axis(labels, (STAGE1, STAGE2, ORBIT))]
    times, rho = _times(t), _array(rho, "matrix entries", (8, 8))
    with np.errstate(over="ignore", invalid="ignore"):  # the check below names an overflow
        phases = np.exp(-1j * (times[..., None] / (2.0 * SQRT2) * lams))  # (..., l)
        u = sum(phases[..., k, None, None] * p for k, p in enumerate(projectors))
        flowed = u @ rho @ np.swapaxes(u.conj(), -1, -2)
    return _finite_result(flowed, "flowed matrix entries")


def rodrigues_flow(axis, t, c):
    """Closed-form flow c + sqrt2 sin(t/sqrt2) (R c) + 2 (1 - cos(t/sqrt2)) (R^2 c) along STAGE1 or ORBIT.

    c is (64,); one time gives (64,), and a 1-D grid of T times (T, 64) with the bits of one call per time.
    Raises ValueError on a t that breaks the time rule of _times, on a c not real and finite, or on an
    overflow; BadAxis on other axes, and ShapeMismatch unless c is (64,).
    """
    times = _times(t)
    r, r2 = _generator_powers(axis)
    c = _array(c, "coherence components", (64,), real=True)
    phi = times[..., None] / SQRT2  # (1,) or (T, 1): a one-time call takes the grid's array loops
    with np.errstate(over="ignore", invalid="ignore"):  # the check below names an overflow
        flowed = c + SQRT2 * np.sin(phi) * (r @ c) + 2.0 * (1.0 - np.cos(phi)) * (r2 @ c)
    return _finite_result(flowed, "coherence components")


class InteriorSample(NamedTuple):
    """PPT diagnostics at one stage-interior time (stage-local t)."""

    stage: int
    t: float
    min_pt_eigs: tuple


class PreparationTrace(NamedTuple):
    """The states after each stage ("intermediate", "final") and the interior diagnostics."""

    checkpoints: dict
    interior: tuple


# Largest ||rho - Pi rho Pi^T||_F, Pi the cyclic qubit shift (entanglement._QUBIT_SHIFT), that a preparation
# probe may have for its cut-1 minimum to stand for cuts 2 and 3: by Weyl's inequality the carried minima then
# lie within this (twice this on cut 3) of their own.  rho_sep, STAGE1 and STAGE2 are cyclic; the probes
# measured at most 1.7e-16 for k <= 1000, both orders.
_CYCLIC_TOL = 1e-14


class NotCyclic(RuntimeError):
    """A preparation probe is further than _CYCLIC_TOL from its cyclic qubit shift."""


_ORDERS = ("standard", "swapped")


def _schedule(order, interior_samples):
    """One order's checkpoints, its interior probes and the (stage, t) of each probe, before any solve.

    Raises NotCyclic, naming the residue, on a probe further than
    _CYCLIC_TOL from its cyclic qubit shift.
    """
    stages = [(STAGE1, TAU_P / 2.0), (STAGE2, TAU_P / 4.0)]
    if order == "swapped":
        stages = stages[::-1]

    state = rho_sep()
    checkpoints = {}
    probes, times = [], []  # each stage's (interior_samples, 8, 8) states; (stage, t) of each probe
    for num, (labels, duration) in enumerate(stages, start=1):
        ts = [duration * k / (interior_samples + 1) for k in range(1, interior_samples + 1)]
        flows = named_flow(labels, np.array(ts + [duration]), state)
        state = flows[-1].copy()  # a view would keep the whole grid alive in the trace
        checkpoints["intermediate" if num == 1 else "final"] = state
        probes.append(flows[:-1])
        times += [(num, t) for t in ts]
    probes = np.concatenate(probes)  # (probe, 8, 8), stage-major
    residues = np.sqrt(np.sum(np.abs(probes - probes[:, _QUBIT_SHIFT[:, None], _QUBIT_SHIFT]) ** 2, axis=(1, 2)))
    if (residues > _CYCLIC_TOL).any():
        worst = int(residues.argmax())
        stage, t = times[worst]
        raise NotCyclic(f"the stage-{stage} probe at t = {t:.6g} has cyclic residue ||rho - Pi rho Pi^T||_F = "
                        f"{residues[worst]:.3e} > {_CYCLIC_TOL}, so cut 1's minimum stands for no other cut")
    return checkpoints, probes, times


def prepare_upb(order="standard", interior_samples=9):
    """Run the two-stage schedule from the separable mixture.

    standard: stage 1 = triple-z for TAU_P/2 (lands on the mu mixture),
    stage 2 = the six-term generator for TAU_P/4 (lands on the complement
    state).  swapped: same (labels, duration) pairs in reversed order; the
    intermediate is then the reflection of the standard one, and the endpoint
    is unchanged.  interior_samples equispaced interior times per stage are
    scored with min partial-transpose eigenvalues per cut.  Each stage flows
    its interior times and its endpoint in one named_flow call.  One eigen
    solve scores cut 1 of every probe and cuts 2 and 3 of each stage's first
    probe; every other probe reports its cut-1 minimum for cuts 2 and 3,
    after every probe is checked to lie within _CYCLIC_TOL of its cyclic
    qubit shift (NotCyclic, before any solve, otherwise).

    A tuple of one or both orders gives a tuple of traces, one per order in
    tuple order, each with the bits of its one-order call: every order is
    checked, then one eigen solve scores the probes of all of them.  As in
    _check_axis, only a tuple is read as several orders.
    """
    several = isinstance(order, tuple)
    orders = order if several else (order,)
    if not (orders and all(isinstance(o, str) and o in _ORDERS for o in orders)
            and len(set(orders)) == len(orders)):  # counted after the type check: a list is not hashable
        what = "a tuple of one or both of 'standard' and 'swapped'" if several else "'standard' or 'swapped'"
        raise ValueError(f"order must be {what}, got {order!r}")
    _number(interior_samples, "interior_samples", integer=True, low=0, high=_MAX_SAMPLES)
    runs = [_schedule(o, interior_samples) for o in orders]  # every order checked before the solve
    n = 2 * interior_samples
    first = np.arange(n) % max(interior_samples, 1) == 0  # each stage's first probe
    pieces = []  # per order: cut 1 of every probe, then cuts 2 and 3 of each first probe
    for _, probes, _ in runs:
        pts = partial_transpose(probes)  # (probe, cut, 8, 8)
        pieces += [pts[:, 0], pts[first, 1:].reshape(-1, 8, 8)]
    solved = np.concatenate(pieces)  # no solve for interior_samples 0
    del pts, pieces  # the unsolved transposes go before the solve makes its scratch
    eigs = jacobi_eigh(solved, want_vectors=False)[0][..., 0].reshape(len(runs), -1)
    traces = []
    for (checkpoints, _, times), own in zip(runs, eigs):
        mins = np.repeat(own[:n, None], 3, axis=1)  # (probe, cut): cut 1's minimum on every cut
        mins[first, 1:] = own[n:].reshape(-1, 2)
        interior = tuple(InteriorSample(num, t, tuple(float(x) for x in m)) for (num, t), m in zip(times, mins))
        traces.append(PreparationTrace(checkpoints, interior))
    return tuple(traces) if several else traces[0]


class Orbit(NamedTuple):
    """The orbit at N times: t (N,), coherence vectors tensors (N, 64), spectra (N, 2, 4, 8).

    spectra holds ascending eigenvalues of the state, then of its reflection I/4 - rho;
    for each, of the matrix, then of its partial transposes on 1|23, 2|13, 3|12.
    """

    t: np.ndarray
    tensors: np.ndarray
    spectra: np.ndarray


def _orbit_spectra(mats):
    """Ascending spectra (N, 2, 4, 8) of the orbit's (N, 8, 8) states and their reflections, each with its transposes.

    The matrices are read as float64, which partial_transpose keeps, when no
    imaginary bit is set.  Each state and its three partial transposes are
    stacked in sample order for one jacobi_eigh call that gives each matrix
    its own solve's bits.  Each reflection I/4 - rho takes 1/4 minus its
    state's spectra, reversed (partial transposes are linear).
    """
    n, mats = len(mats), _real_if_exact(mats)
    stack = np.concatenate([mats[:, None], partial_transpose(mats)], axis=1)  # (sample, 4, 8, 8)
    spectra = np.empty((n, 2, 4, 8))
    spectra[:, 0] = jacobi_eigh(stack.reshape(-1, 8, 8), want_vectors=False)[0].reshape(n, 4, 8)
    spectra[:, 1] = 0.25 - spectra[:, 0, :, ::-1]
    return spectra


def orbit(samples=64):
    """Sample the triple-y orbit of the separable mixture over one period, as an Orbit.

    Grid: t_k = k TAU_P / samples for k = 0..samples-1 (the endpoint TAU_P
    duplicates t=0).  With samples divisible by 4 the quarter and half period
    land exactly on grid points.  The spectra come from one eigen solve of
    the states and their partial transposes (see _orbit_spectra); ValueError
    unless samples is an integer in [2, _MAX_SAMPLES].
    """
    _number(samples, "samples", integer=True, low=2, high=_MAX_SAMPLES)
    t = TAU_P * np.arange(samples) / samples
    tensors = rodrigues_flow(ORBIT, t, to_coherence(rho_sep()))
    return Orbit(t, tensors, _orbit_spectra(from_coherence(tensors)))


def stationarity(h, rho):
    """Frobenius norm of the commutator [H, rho] of two Hermitian 8x8 matrices.

    Raises ShapeMismatch on other shapes and NonHermitian on a matrix that is
    not Hermitian within 1e-12 or holds a NaN or infinite entry, and
    ValueError if an entry of H rho or rho H overflows.
    """
    h, rho = (_array(m, "matrix entries", (8, 8), herm_tol=1e-12) for m in (h, rho))
    with np.errstate(over="ignore", invalid="ignore"):  # the check below names an overflow
        products = h @ rho, rho @ h
    return frobenius_distance(*(_finite_result(p, "product entries") for p in products))


def byproduct_preparation():
    """Reach the complement state by flowing the theta mixture.

    The theta mixture equals the reflected orbit state at TAU_P/4, so exactly
    one distinct period-reduced evolution among the signed quarter and
    three-quarter candidates returns it to the complement state.  Candidates
    that differ by a full period are the same conjugation (U(TAU_P) = -I) and
    are deduplicated.  Returns the (reduced parameter, distance to the
    complement state) pair of each distinct evolution, in ascending parameter
    order; the caller picks the closest and grades its distance.
    """
    theta_t = to_coherence(family_mixture("theta"))
    target = rho_upb()
    candidates = (TAU_P / 4.0, -TAU_P / 4.0, 3.0 * TAU_P / 4.0, -3.0 * TAU_P / 4.0)
    reduced = sorted({round(float(t % TAU_P), 12) for t in candidates})
    ends = from_coherence(rodrigues_flow(ORBIT, reduced, theta_t))
    return tuple((float(r), frobenius_distance(end, target)) for r, end in zip(reduced, ends))
