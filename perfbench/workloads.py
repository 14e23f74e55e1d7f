"""The benchmark's four workloads: seeded inputs, one op each, output checks.

Each workload builds its inputs from the workload seed during set-up and
runs one op per call of :meth:`Workload.run`.  The checks run after the
timed loop, on the stored outputs, so they cost no timed wall time.

``lib`` is a namespace holding the imported ``schubert`` modules; set-up
re-imports the package, so workloads never keep module references of their
own.
"""

from __future__ import annotations

import contextlib
import io
import json
import random
from dataclasses import dataclass
from fractions import Fraction

# Verdicts of Workload.check; any other value is a failure message.
OK = "ok"
DEGENERATE = "degenerate"

# Timed instances generated per run.  Far more than a run completes today;
# past the end of the pool the ops repeat from the start.
POOL = 4096


@dataclass(frozen=True)
class Op:
    argv: tuple[str, ...] = ()
    data: object = None


def run_cli(lib, argv) -> tuple[int, str]:
    """``schubert.cli.main(argv)`` in process; its exit code and stdout."""
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = lib.cli.main(list(argv))
    return code, buf.getvalue()


def distinct_rationals(rng: random.Random, count: int) -> list[Fraction]:
    out: list[Fraction] = []
    while len(out) < count:
        t = Fraction(rng.randint(-9, 9), rng.randint(1, 9))
        if t not in out:
            out.append(t)
    return out


def rational_list(ts) -> str:
    return ",".join(str(t) for t in ts)


def cli_payload(raw, code_ok=(0,)):
    """The parsed JSON of a CLI op, or a failure message."""
    code, out = raw
    if code not in code_ok:
        return None, f"exit code {code}: {out.strip()[:200]}"
    return json.loads(out), None


class Workload:
    name = ""
    # ops whose outputs form the run's digest; every run reaches this many
    digest_ops = 0
    # ops per second of --seconds spent on the traced run's op window
    trace_ops_per_s = 1.0
    # op indices whose kind of op the warm-up runs once
    WARM_UP: tuple[int, ...] = (0,)

    def inputs(self, lib, seed: int) -> tuple[list[Op], list[Op]]:
        """Warm-up ops (fixed, disjoint from every timed op) and timed ops.

        The warm-up never shares an instance with the timed ops, so caches
        such as ``square_split``'s cannot hide what a fresh call pays.
        """
        warm_rng = random.Random(f"{self.name} warm-up")
        warm = [self._make(warm_rng, i) for i in self.WARM_UP]
        seen = {op.argv for op in warm}
        rng = random.Random(seed)
        timed: list[Op] = []
        while len(timed) < POOL:
            op = self._make(rng, len(timed))
            if op.argv not in seen:
                seen.add(op.argv)
                timed.append(op)
        return warm, timed

    def _make(self, rng: random.Random, index: int) -> Op:
        raise NotImplementedError

    def run(self, lib, op: Op):
        return run_cli(lib, op.argv)

    def render(self, op: Op, raw) -> str:
        code, out = raw
        return f"{' '.join(op.argv)}\n{code}\n{out}"

    def check(self, lib, op: Op, raw) -> str:
        raise NotImplementedError

    def expected_calls(self, raws) -> dict[str, int]:
        """Span call counts that the traced pass's outputs imply."""
        return {}


class FourLines(Workload):
    """`solve-four-lines`: three in four ops isotropic Sp(4), one osculating."""

    name = "four_lines"
    digest_ops = 8
    trace_ops_per_s = 0.9
    CERTIFICATE = {"transverse": True, "tangent_codim": 4, "codim_sum": 4}
    WARM_UP = (0, 3)

    def _make(self, rng, index):
        if index % 4 != 3:
            return Op(("solve-four-lines", "--isotropic-sp4",
                       "--seed", str(rng.getrandbits(32))))
        points = distinct_rationals(rng, 4)
        return Op(("solve-four-lines", "--osculating",
                   "--points=" + rational_list(points)), tuple(points))

    def check(self, lib, op, raw):
        payload, why = cli_payload(raw, code_ok=(0, 4))
        if why:
            return why
        if raw[0] == 4:
            return DEGENERATE if "error" in payload else "exit 4 without error"
        sols = payload["solutions"]
        if not (payload["count"] == 2 == len(sols)
                and payload["all_transverse"] is True
                and all(s["certificate"] == self.CERTIFICATE for s in sols)):
            return "not two transverse solutions with codim 4 certificates"
        if op.data is not None:
            return self._cross_check(lib, op.data, sols)
        return OK

    def expected_calls(self, raws):
        """Each op that exits 0 certifies its two solutions."""
        solved = sum(1 for raw in raws if isinstance(raw, tuple) and raw[0] == 0)
        return {"grassmann.certify": 2 * solved}

    @staticmethod
    def _cross_check(lib, points, sols):
        """The Wronski-side solver must find the same two lines."""
        rank = lib.linalg.rank
        bases = [lib.jsonio.matrix_from_json(s["basis"]) for s in sols]
        if rank(bases[0].hstack(bases[1])) <= 2:
            return "the two solutions coincide"
        matched = set()
        for plane in lib.wronski.wronski_solver_gr24(points):
            W = lib.wronski.plane_to_grpoint(plane).basis
            matched.update(i for i, V in enumerate(bases)
                           if rank(W.hstack(V)) == 2)
        return OK if matched == {0, 1} else "disagrees with wronski_solver_gr24"


class TangentSweep(Workload):
    """`tangent_space` then `rank` at seeded open-cell points, every small (k, m)."""

    name = "tangent_sweep"
    digest_ops = 69
    trace_ops_per_s = 40.0
    PAIRS = tuple((k, m) for m in range(2, 11) for k in range(1, m)
                  if k * (m - k) <= 9)
    # Distinct instances per (k, m); ops cycle through them.  No cache in the
    # Q-only path sees a repeated instance.
    ROUNDS = 100

    def inputs(self, lib, seed):
        warm = self._round(lib, random.Random(f"{self.name} warm-up"))
        rng = random.Random(seed)
        timed = [op for _ in range(self.ROUNDS) for op in self._round(lib, rng)]
        return warm, timed

    def _round(self, lib, rng):
        g = lib.grassmann
        out = []
        for k, m in self.PAIRS:
            indices = tuple(sorted(rng.sample(range(1, m + 1), k)))
            cond = g.SchubertCondition(k, m, indices)
            flag = self._random_flag(lib, m, rng)
            out.append(Op(data=(cond, flag, self._cell_point(lib, cond, flag, rng))))
        return out

    @staticmethod
    def _random_flag(lib, m, rng):
        while True:
            M = lib.linalg.Matrix([[rng.randint(-4, 4) for _ in range(m)]
                                   for _ in range(m)])
            if lib.linalg.rank(M) == m:
                return lib.flags.Flag(m, M)

    @staticmethod
    def _cell_point(lib, cond, flag, rng):
        """Column j is flag column i_j plus random multiples of earlier
        columns not among the indices, which puts V in the open cell."""
        inside = set(cond.indices)
        cols = []
        for i in cond.indices:
            vec = list(flag.basis.column(i - 1))
            for a in range(1, i):
                if a not in inside:
                    c = Fraction(rng.randint(-4, 4), rng.randint(1, 3))
                    vec = [v + c * x for v, x in zip(vec, flag.basis.column(a - 1))]
            cols.append(vec)
        return lib.grassmann.GrPoint(lib.linalg.Matrix.from_columns(cols))

    def run(self, lib, op):
        cond, flag, V = op.data
        T = lib.grassmann.tangent_space(V, cond, flag)
        return lib.linalg.rank(T.constraints), T.constraints

    def render(self, op, raw):
        cond, _, V = op.data
        got, constraints = raw
        return f"{cond.k} {cond.m} {cond.indices}\n{V.basis}\n{got}\n{constraints}\n"

    def check(self, lib, op, raw):
        cond = op.data[0]
        got, _ = raw
        want = lib.grassmann.codim(cond)
        return OK if got == want else f"rank {got} != codim {want}"


class EHCheck(Workload):
    """`eh-check` over three (k, m) at the points 0, 1, -2."""

    name = "eh_check"
    digest_ops = 24
    trace_ops_per_s = 3.0
    SHAPES = ((2, 5), (3, 6), (4, 8))
    POINTS = "0,1,-2"
    SAMPLES = 8
    WARM_UP = (0, 1, 2)

    def _make(self, rng, index):
        k, m = self.SHAPES[index % len(self.SHAPES)]
        return Op(("eh-check", "--k", str(k), "--m", str(m),
                   "--samples", str(self.SAMPLES), "--points=" + self.POINTS,
                   "--seed", str(rng.getrandbits(32))))

    def check(self, lib, op, raw):
        payload, why = cli_payload(raw)
        if why:
            return why
        want = self.SAMPLES * len(self.POINTS.split(","))
        if not (payload["all_equal"] is True and payload["failures"] == []
                and payload["checked"] == want > 0):
            return f"all_equal={payload['all_equal']} checked={payload['checked']}"
        return OK


class FlagIdentities(Workload):
    """`peterson-check` and `verify-isotropy` at seven seeded points."""

    name = "flag_identities"
    digest_ops = 46
    trace_ops_per_s = 9.0
    KINDS = (tuple(("sl", "--m", m) for m in range(4, 11))
             + tuple((kind, "--n", n) for kind in ("sp", "so-odd")
                     for n in range(2, 6)))
    # SL(m) preserves no form, so verify-isotropy runs on sp and so-odd only.
    COMMANDS = (tuple(("peterson-check", kind) for kind in KINDS)
                + tuple(("verify-isotropy", kind) for kind in KINDS
                        if kind[0] != "sl"))
    POINTS = 7
    # the smallest group of each command and family
    WARM_UP = (0, 7, 11, 15, 19)

    def _make(self, rng, index):
        command, (kind, flag, size) = self.COMMANDS[index % len(self.COMMANDS)]
        points = rational_list(distinct_rationals(rng, self.POINTS))
        return Op((command, "--kind", kind, flag, str(size), "--t=" + points))

    def check(self, lib, op, raw):
        payload, why = cli_payload(raw)
        if why:
            return why
        key = "equal" if op.argv[0] == "peterson-check" else "isotropic"
        results = payload["results"]
        if not (payload[f"all_{key}"] is True and len(results) == self.POINTS
                and all(r[key] is True for r in results)):
            return f"all_{key}={payload[f'all_{key}']} over {len(results)} points"
        return OK


WORKLOADS = {w.name: w for w in (FourLines(), TangentSweep(), EHCheck(),
                                 FlagIdentities())}
