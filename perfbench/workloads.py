"""The four benchmark workloads: seeded inputs, one op, and its oracle check.

Every op goes through a public entry point (the `upb3q` CLI's `main`, or the
package's `prepare_upb`), looked up at call time so that the traced run sees
it wrapped.  The program receives only the drawn arguments, never the seed.
"""

from __future__ import annotations

import contextlib
import io
import itertools

import upb3q
from upb3q import cli

import oracles


def balanced(rng, lo, hi):
    """The centre of the band lo..hi, then endless symmetric pairs from it.

    The centre, (lo + hi) / 2 with lo + hi even, goes to the untimed warm-up
    op.  The pairs (a, lo + hi - a) follow in a shuffled order, distinct until
    the band is used up, then reshuffled.  A run that times whole pairs has
    inputs symmetric about the centre, so its median op does the same work
    whatever the seed.
    """
    centre = (lo + hi) // 2
    yield centre
    pairs = [(a, lo + hi - a) for a in range(lo, centre)]
    while True:
        rng.shuffle(pairs)
        for pair in pairs:
            yield from (pair[::-1] if rng.random() < 0.5 else pair)


def _cli(argv):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        rc = cli.main(argv)
    return rc, out.getvalue()


class VerifyFull:
    """`upb3q verify --orbit-samples N --json PATH`: all 63 claims."""

    name = "verify_full"
    input_kind = "orbit samples"
    item_kind = "claims"
    # Eigen solves a full verify makes besides the 8 per orbit sample.
    OTHER_SOLVES = 234

    def __init__(self, work):
        self.path = work / "claims.json"

    def inputs(self, rng):
        return balanced(rng, 56, 72)

    def run(self, n):
        return _cli(["verify", "--orbit-samples", str(n), "--json", str(self.path)])

    def check(self, n, out):
        oracles.check_verify(*out, self.path, None)

    def items(self, n):
        return oracles.CLAIM_COUNT

    def invariants(self, n, delta):
        errors = []
        if delta["dynamics.orbit.samples"] != n:
            errors.append(f"orbit samples {delta['dynamics.orbit.samples']} != {n}")
        matrices = delta["linalg.jacobi_eigh.matrices"]
        if matrices != self.OTHER_SOLVES + 8 * n:
            errors.append(f"eigen matrices {matrices} != {self.OTHER_SOLVES} + 8*{n}")
        return errors


class OrbitCsv:
    """`upb3q orbit --samples N --csv PATH`: degenerate spectra on many matrices."""

    name = "orbit_csv"
    input_kind = "orbit samples"
    item_kind = "orbit samples"

    def __init__(self, work):
        self.path = work / "orbit.csv"

    def inputs(self, rng):
        return balanced(rng, 120, 136)

    def run(self, n):
        return cli.main(["orbit", "--samples", str(n), "--csv", str(self.path)])

    def check(self, n, rc):
        oracles.check_orbit_csv(rc, self.path, n)

    def items(self, n):
        return n

    def invariants(self, n, delta):
        samples = delta["dynamics.orbit.samples"]
        errors = [] if samples == n else [f"orbit samples {samples} != {n}"]
        matrices = delta["linalg.jacobi_eigh.matrices"]
        if matrices != 8 * samples:
            errors.append(f"eigen matrices {matrices} != 8*{samples}")
        pt_calls = delta["entanglement.min_pt_eig.calls"]
        if pt_calls != 6 * samples:
            errors.append(f"min_pt_eig calls {pt_calls} != 6*{samples}")
        return errors


class PrepDense:
    """prepare_upb("standard", k) then prepare_upb("swapped", k): generic NPT spectra."""

    name = "prep_dense"
    input_kind = "interior samples per stage"
    item_kind = "interior probes"

    def __init__(self, work):
        pass

    def inputs(self, rng):
        return balanced(rng, 28, 36)

    def run(self, k):
        return upb3q.prepare_upb("standard", k), upb3q.prepare_upb("swapped", k)

    def check(self, k, traces):
        for order, trace in zip(("standard", "swapped"), traces):
            oracles.check_preparation(trace, order, k)

    def items(self, k):
        return 4 * k

    def invariants(self, k, delta):
        return []


class ClaimsAlgebraic:
    """One filtered `verify` per claim family without heavy spectra, in a seeded order."""

    name = "claims_algebraic"
    input_kind = "family order"
    item_kind = "claims"
    FAMILIES = ("lhv.*", "upb.*", "ancilla.*", "stationary.*", "byproduct.*", "rodrigues.*")

    def __init__(self, work):
        self.paths = {fam: work / f"{fam.rstrip('.*')}.json" for fam in self.FAMILIES}

    def inputs(self, rng):
        orders = list(itertools.permutations(self.FAMILIES))
        while True:
            rng.shuffle(orders)
            yield from orders

    def run(self, order):
        return [_cli(["verify", "--filter", fam, "--json", str(self.paths[fam])])
                for fam in order]

    def check(self, order, outs):
        for fam, out in zip(order, outs):
            oracles.check_verify(*out, self.paths[fam], fam)

    def items(self, order):
        return sum(oracles.FAMILY_SIZES[fam] for fam in order)

    def invariants(self, order, delta):
        return []


WORKLOADS = {w.name: w for w in (VerifyFull, OrbitCsv, PrepDense, ClaimsAlgebraic)}
