"""Self-contained dense Hermitian kernels and argument checks: Jacobi eigensolver, distances.

The eigensolver is a cyclic Jacobi iteration, real or complex by the input's
dtype, adequate and fast for the n <= 16 matrices used here.  It takes one
matrix or a stack and rotates every matrix of a stack at once, with the same
bits as one at a time.  numpy is used for array plumbing only; no LAPACK
eigenroutine is called in library code.
"""

import math
import numbers
import sys

import numpy as np


class NonHermitian(ValueError):
    """Matrix is not Hermitian within tolerance."""


class NoConvergence(RuntimeError):
    """Jacobi sweep limit reached before the off-diagonal norm target."""


class ShapeMismatch(ValueError):
    """Operands do not have matching shapes."""


# Bytes of the largest stack one internal solve rotates at once: 512 complex
# or 1024 real 8x8 matrices; longer stacks are solved in chunks of that many.
# Every sweep of a solve pays a fixed ~0.75-1.6 ms of per-pair numpy calls
# whatever the stack holds, so fuller chunks are cheaper per matrix: a stack
# of 940 float64 8x8 matrices, eigenvalues only, took 18.6-19.7 ms in
# chunks of 256, 14.0-14.7 ms at 512 and 11.1-11.6 ms at 1024 (best of 15,
# three runs on a shared 2-core VM).  The working copy is the size of the
# chunk, so its bytes, not its matrix count, set peak memory: 1024-matrix
# complex chunks put perfbench's orbit_csv 5.2% above its RSS at 512, while
# the orbit's float64 stack, half its complex one, pays for 1024 real ones:
# orbit_csv peaks at a median 36.2 MB either way (BENCH_34.json).
_MAX_STACK_BYTES = 512 * 8 * 8 * 16

# Matrices per temporary in the Hermiticity check and the off-diagonal norms,
# which bounds that scratch whatever the chunk; every solve of 256 matrices or
# fewer (the verify run's own, the preparation probes) stays one slice.
_SLICE = 256


def _array(x, what, shape=None, real=False, herm_tol=None):
    """x as a float (real) or complex array, checked by the one rule for every array argument.

    In this order: ValueError unless its entries are numbers (a bool, string,
    bytes or object entry is not); ShapeMismatch unless it has shape, an
    exact shape like (8, 8), a batch shape like (..., 8, 8), or "square" for
    (..., n, n); with real, ValueError on a nonzero imaginary part; then with
    herm_tol, NonHermitian unless every matrix is Hermitian within it (a NaN
    or inf entry fails too), and without it, ValueError unless finite.
    """
    x = np.asarray(x)
    if x.dtype.kind not in "iufc":
        raise ValueError(f"{what} must be {'real ' if real else ''}numbers, got dtype {x.dtype}")
    if shape == "square":
        shape, fits = (..., "n", "n"), x.ndim >= 2 and x.shape[-1] == x.shape[-2]
    elif shape and shape[0] is ...:
        fits = x.shape[1 - len(shape):] == shape[1:]
    else:
        fits = shape is None or x.shape == shape
    if not fits:
        want = str(shape).replace("Ellipsis", "...").replace("'", "")
        raise ShapeMismatch(f"{what} must have shape {want}, got shape {x.shape}")
    if real and x.dtype.kind == "c":
        if x.imag.any():
            raise ValueError(f"{what} must be real, got a nonzero imaginary part")
        x = x.real
    x = np.asarray(x, dtype=float if real else complex)
    if herm_tol is None:
        if np.count_nonzero(np.isfinite(x)) < x.size:  # on these small arrays, ~1 us less than .all()
            raise ValueError(f"{what} must be finite, got a NaN or infinite entry")
        return x
    flat = x.reshape((math.prod(x.shape[:-2]),) + x.shape[-2:])
    with np.errstate(invalid="ignore"):  # inf - inf gives NaN, which the test below rejects
        for start in range(0, len(flat), _SLICE):  # the first slice over tol raises
            part = flat[start:start + _SLICE]
            residue = np.abs(part - np.swapaxes(part.conj(), -1, -2)).max(initial=0.0)
            if not residue <= herm_tol:  # also rejects NaN, which compares False
                raise NonHermitian(f"Hermiticity residue {residue:.3e} > {herm_tol:.1e}")
    return x


def _finite_result(x, what):
    """x itself; ValueError naming the overflow unless every entry of the result x is finite."""
    if np.count_nonzero(np.isfinite(x)) < np.size(x):
        raise ValueError(f"{what} must be finite, got an infinite or NaN value (an overflow)")
    return x


def _real_if_exact(x):
    """x.real, a float view, if no imaginary bit of the complex array x is set (-0.0 sets one); else x."""
    return x if x.view(np.int64)[..., 1::2].any() else x.real


def _number(x, what, integer=False, low=None, high=None):
    """x itself, checked by the one rule for every number argument; ValueError naming the rule otherwise.

    x must be a real number (with integer, an integer) that a float can hold,
    so not NaN, inf or an int beyond 1.8e308, and lie in [low, high] where
    they are given.  A bool, a 0-d array, a string or a complex number is
    not a number.
    """
    if not (isinstance(x, numbers.Integral if integer else numbers.Real) and not isinstance(x, bool)
            and -sys.float_info.max <= x <= sys.float_info.max
            and (low is None or x >= low) and (high is None or x <= high)):
        bounds = f" in [{low}, {high}]" if high is not None else "" if low is None else f" >= {low}"
        raise ValueError(f"{what} must be {'an integer' if integer else 'a finite real number'}{bounds}, got {x!r}")
    return x


def _items(x, count, what, error=ValueError):
    """x as a tuple of exactly count items; error, whose message starts with what, otherwise.

    x must be a collection: a str, bytes, 0-d array or anything that cannot
    be iterated is refused, as a wrong count is.
    """
    try:
        iterator = None if isinstance(x, (str, bytes)) else iter(x)
    except TypeError:  # not iterable; a 0-d array raises this too
        iterator = None
    items = None if iterator is None else tuple(iterator)
    if items is None or len(items) != count:
        raise error(f"{what}, got {x!r}" if items is None else f"{what}, got {len(items)}")
    return items


def _offdiag_norms(a, whole=False):
    """Off-diagonal (with whole, full) Frobenius norm of each matrix of a batch-last (n, n, B) stack.

    Each matrix is summed over its own contiguous row of n*n squares, as one
    matrix alone would be: a sum down the batch axis rounds differently.  The
    squares are made _SLICE matrices at a time.
    """
    diag = np.arange(a.shape[0])
    norms = np.empty(a.shape[-1])
    for start in range(0, a.shape[-1], _SLICE):
        part = slice(start, start + _SLICE)
        off = np.moveaxis(a[..., part], -1, 0).copy()
        if not whole:
            off[:, diag, diag] = 0.0
        sq = np.abs(off) if off.dtype.kind == "c" else off  # a real slice is its own copy, squared in place
        norms[part] = np.sqrt(np.sum(np.square(sq, out=sq).reshape(len(off), -1), axis=1))
        del off, sq  # free this slice's scratch before the next one is made
    return norms


def jacobi_eigh(mat, herm_tol=1e-10, conv_tol=1e-14, max_sweeps=100, want_vectors=True):
    """Cyclic Jacobi diagonalization of a Hermitian matrix or a stack.

    Repeatedly zeroes each off-diagonal pair (p, q) with a plane rotation
    until the off-diagonal Frobenius norm drops below
    conv_tol x max(1, ||A||_F), with ||A||_F the Frobenius norm of the input:
    rounding alone leaves about eps x ||A||_F off the diagonal.
    A stack runs the same cyclic sweep on every matrix at once; each matrix
    gets exactly the rotations, and so the bits, it would get on its own.

    Args:
        mat: n x n Hermitian array (n <= 16 intended), or a stack of them
            with any leading batch shape, (..., n, n).  Its dtype, not its
            values, picks the rotation: an int or float input is solved in
            float64 with a real one, a complex input in complex128.
        herm_tol: allowed input Hermiticity residue.
        conv_tol: off-diagonal Frobenius norm, relative to max(1, ||A||_F),
            at which iteration stops; in (0, 1).
        max_sweeps: sweep budget before NoConvergence is raised.
        want_vectors: True or False, accumulate the eigenvector unitary as well.

    Returns:
        (w, V) with w ascending real eigenvalues, shape (..., n); V has the
        matching eigenvectors as columns, shape (..., n, n) (None if
        want_vectors is False), float64 and complex128 for either dtype.

    Raises:
        ValueError (herm_tol not finite and >= 0, conv_tol not in (0, 1),
        max_sweeps not an integer >= 0, want_vectors not a bool, an entry
        not a number, ||A||_F overflowing), NonHermitian (any matrix),
        ShapeMismatch, all checked before any sweep; NoConvergence (any
        matrix left unconverged).
    """
    if not isinstance(want_vectors, (bool, np.bool_)):
        raise ValueError(f"want_vectors must be True or False, got {want_vectors!r}")
    _number(herm_tol, "herm_tol", low=0)
    # at 0 the stop is never met; from 1 up a matrix with a nonzero diagonal meets it unrotated
    if not (isinstance(conv_tol, numbers.Real) and 0 < conv_tol < 1):
        raise ValueError(f"conv_tol must be a real number in (0, 1), got {conv_tol!r}")
    _number(max_sweeps, "max_sweeps", integer=True, low=0)
    a = _array(mat, "matrix entries", "square", real=np.asarray(mat).dtype.kind in "iuf", herm_tol=herm_tol)
    batch, n = a.shape[:-2], a.shape[-1]
    a = a.reshape(math.prod(batch), n, n)
    with np.errstate(over="ignore"):  # an overflowing square fails the check below
        fro = _offdiag_norms(a.transpose(1, 2, 0), whole=True)
        tols = conv_tol * np.maximum(1.0, fro)
    if not np.isfinite(fro).all():
        raise ValueError("matrix entries must have a finite Frobenius norm, got squares that overflow")
    w = np.empty(a.shape[:2])
    v = np.empty(a.shape, dtype=complex) if want_vectors else None
    step = max(1, _MAX_STACK_BYTES // max(1, n * n * a.itemsize))
    for start in range(0, len(a), step):
        chunk = slice(start, start + step)
        _jacobi_stack(a[chunk], tols[chunk], max_sweeps, w[chunk], None if v is None else v[chunk])
    return w.reshape(batch + (n,)), None if v is None else v.reshape(batch + (n, n))


def _jacobi_stack(mats, tols, max_sweeps, w_out, v_out):
    """Diagonalize a (B, n, n) stack into w_out (B, n) and, if given, v_out; matrix b stops below tols[b].

    The solve works on its own batch-last copy, store[i, j, b] = mats[b, i, j],
    so that each row or column slice of a rotation is a run of contiguous
    batch elements.  The eigenvector unitary V is carried below A in the same
    (2n, n, B) array, so that each column rotation A <- A U also does
    V <- V U.  Matrices that have converged are retired between sweeps: the
    rotating ones fill the first k slots, live[s] is the stack position of
    the matrix in slot s, and each retiree's slot is refilled in place by a
    rotating matrix from the tail, so the rest of the stack keeps rotating as
    the view store[..., :k] without a copy of the whole stack.  A retirement
    gathers the movers into a temporary, up to half the stack: a stack whose
    first half converges at once moves all of its second half.
    """
    n = mats.shape[-1]
    diag = np.arange(n)[:, None]
    store = np.empty((n if v_out is None else 2 * n, n, len(mats)), dtype=mats.dtype)
    store[:n] = mats.transpose(1, 2, 0)  # a copy: the caller's matrices are never rotated
    if v_out is not None:
        store[n:] = np.eye(n)[:, :, None]
    k = len(mats)
    live = np.arange(k)
    norms = _offdiag_norms(store[:n])
    for sweep in range(max_sweeps + 1):
        done = norms < tols[live]
        if done.any():
            out = done.nonzero()[0]
            evals = store[diag, diag, out].real.T  # (retirees, n): only their diagonals
            order = np.argsort(evals, axis=-1, kind="stable")
            w_out[live[out]] = np.take_along_axis(evals, order, axis=-1)
            if v_out is not None:
                vecs = np.moveaxis(store[n:, :, out], -1, 0)
                v_out[live[out]] = np.take_along_axis(vecs, order[:, None, :], axis=-1)
            k -= len(out)
            holes = out[out < k]  # retired slots inside the new live view
            movers = k + (~done[k:]).nonzero()[0]  # rotating slots beyond it
            store[..., holes] = store[..., movers]
            live[holes], norms[holes] = live[movers], norms[movers]
            live, norms = live[:k], norms[:k]
        if not k or sweep == max_sweeps:
            break
        av = store[..., :k]
        _sweep(av)
        norms = _offdiag_norms(av[:n])
    if k:
        raise NoConvergence(
            f"off-diagonal norm {norms.max():.3e} is not below conv_tol x max(1, ||A||_F) "
            f"after {max_sweeps} sweeps ({k} of {len(mats)} matrices)"
        )


def _sweep(av):
    """One cyclic sweep over the (p, q) pairs of a batch-last (n or 2n, n, B) stack, in place.

    A matrix whose a[p, q] is exactly zero is left out of that rotation, as
    the scalar iteration skips it: the angle formulas would turn a zero pair
    into a rotation by pi.
    """
    n = av.shape[1]
    for p in range(n - 1):
        for q in range(p + 1, n):
            hit = av[p, q].nonzero()[0]
            if len(hit) == av.shape[-1]:
                hit = slice(None)  # plain views instead of gathered copies
            elif not len(hit):
                continue
            cols, rows = _rotation(av[p, q, hit], av[p, p, hit] - av[q, q, hit])
            # Columns: A <- A U with U mixing columns p and q (and V <- V U).
            _mix(av[:, p], av[:, q], hit, *cols)
            # Rows: A <- U^dagger A.
            _mix(av[p], av[q], hit, *rows)


def _rotation(apq, gap):
    """_mix's (c, s_xy, s_yx) for the columns, then for the rows, of the rotations zeroing a_pq, given a_pp - a_qq.

    Its temporaries are freed on return, before _mix makes its scratch rows.
    A real stack builds c and s from division, hypot and sqrt, whose bits
    numpy's SIMD dispatch does not move, on gap and a_pq over the larger of
    their sizes, so that hypot never rounds a subnormal.  A complex stack
    takes |a_pq| as hypot(re, im), which rounds like the scalar abs()
    (complex np.abs differs in the last bits on about a third of inputs), and
    makes the angle operands contiguous, since numpy may choose another
    arctan2 loop for strided ones; cos(theta) is cast to complex once, not in
    every real-by-complex multiply.
    """
    if apq.dtype.kind == "c":
        re, im = apq.real.copy(), apq.imag.copy()
        theta = 0.5 * np.arctan2(2.0 * np.hypot(re, im), gap.real.copy())
        c = np.cos(theta).astype(complex)
        s = np.sin(theta)
        ph = np.exp(1j * np.arctan2(im, re))
        cph = np.conj(ph)
        return (c, s * cph, -s * ph), (c, s * ph, -s * cph)
    size = np.maximum(np.abs(gap), np.abs(apq))
    gap /= size  # in place, as apq / size
    h = np.divide(apq, size, out=size)  # gap or h is now +-1, so rho >= 1
    rho = np.hypot(gap, 2.0 * h)
    big = np.sqrt((1.0 + np.abs(gap / rho)) / 2.0)  # the larger of c and |s|
    small = np.abs(h / rho) / big
    narrow = gap >= 0.0  # theta <= pi/4, so c is the larger
    c, s = np.where(narrow, big, small), np.copysign(np.where(narrow, small, big), apq)
    return ((c, s, -s),) * 2


def _mix(xs, ys, hit, c, s_xy, s_yx):
    """x, y <- c x + s_xy y, s_yx x + c y for the batch members hit of the (m, B) rows xs, ys.

    Each product goes to a fresh buffer or to a scratch row outside the
    stack, never to x or y: numpy may round a product that it must buffer
    against overlap differently.  Two scratch rows serve the four products;
    the new x waits in one of them until s_yx x is made, so at most four
    rows are live beside the stack, with gathered copies of x and y.
    """
    x, y = xs[:, hit], ys[:, hit]  # views when hit is a slice, gathered copies otherwise
    new_x, tmp = c * x, s_xy * y
    np.add(new_x, tmp, out=new_x)
    np.multiply(s_yx, x, out=tmp)
    x[...] = new_x
    np.multiply(c, y, out=new_x)
    np.add(tmp, new_x, out=y)
    if not isinstance(hit, slice):
        xs[:, hit], ys[:, hit] = x, y


def frobenius_distance(a, b):
    """Frobenius norm of (a - b); ShapeMismatch on unequal shapes, ValueError unless numbers and finite."""
    a, b = _array(a, "entries"), _array(b, "entries")
    if a.shape != b.shape:
        raise ShapeMismatch(f"shape {a.shape} vs {b.shape}")
    with np.errstate(over="ignore"):  # an overflow fails the check below
        d = float(np.sqrt(np.sum(np.abs(a - b) ** 2)))
    if not math.isfinite(d):  # finite entries can still overflow
        raise ValueError(f"Frobenius distance must be finite, got {d!r} (an overflow)")
    return d
