"""Measured side of the benchmark: runs in its own process, imports ordo.

Reads one JSON request on stdin (queries, cone documents, run length,
trace flag), writes one JSON report on stdout.  It never sees reference
answers; run.py checks the answers it returns.

Set-up is timed many times: each repetition drops every ordo module,
imports ordo again and builds every cone the workload uses.  After a few
untimed warm-up repetitions, rounds of them are spread over the run, between
passes.  Passes run back to back until the run length is used up.  Each
pass builds new cones, so the Dehornoy sign cache and the flag expansions
start empty, as they do for one CLI call, and every pass does the same work.
One caller, one thread: each query is issued when the previous one returned.

With tracing on, untraced and traced passes alternate.  The report then
carries the per-layer figures of the traced passes and both pass times.
"""

from __future__ import annotations

import contextlib
import importlib
import io
import json
import resource
import sys
import time

SETUP_WARMUP = 5
SETUP_ROUNDS = 6
SETUP_PER_ROUND = 5


def _purge_ordo() -> None:
    for name in [m for m in sys.modules if m == "ordo" or m.startswith("ordo.")]:
        del sys.modules[name]


def import_ordo():
    ordo = importlib.import_module("ordo")
    importlib.import_module("ordo.cli")
    return ordo


class Ops:
    """Executes queries against one set of freshly built cones."""

    def __init__(self, ordo, cone_docs: dict):
        self.ordo = ordo
        self.cli = sys.modules["ordo.cli"]
        self.cones = {name: ordo.ordering_from_json(doc) for name, doc in cone_docs.items()}
        self.tables: dict = {}

    # helpers

    def _lattice(self, cone, coords):
        return self.ordo.LatticeElement(cone.group, tuple(coords))

    def _braid(self, n, letters):
        return self.ordo.BraidWord.from_letters(
            self.ordo.GroupRef.braid(n), [tuple(letter) for letter in letters])

    def _braid_cone(self, n):
        return self.cones[f"B{n}"]

    def run(self, q: dict):
        return getattr(self, "op_" + q["op"])(q)

    # flag_exact

    def op_floor(self, q):
        flag = self.cones[q["flag"]]
        ctx = self.ordo.AnchorContext(flag, self._lattice(flag, q["x"]))
        return self.ordo.power_floor(ctx, self._lattice(flag, q["h"]))

    def op_defect(self, q):
        flag = self.cones[q["flag"]]
        ctx = self.ordo.AnchorContext(flag, self._lattice(flag, q["x"]))
        return self.ordo.defect_cocycle(ctx, self._lattice(flag, q["f"]),
                                        self._lattice(flag, q["g"]))

    def op_stable_exact(self, q):
        flag = self.cones[q["flag"]]
        return self.ordo.stable_exact(flag, self._lattice(flag, q["x"]),
                                      self._lattice(flag, q["h"])).to_json()

    def op_rotation(self, q):
        flag = self.cones[q["flag"]]
        basis = [self._lattice(flag, b) for b in q["basis"]]
        return self.ordo.rotation_class(flag, self._lattice(flag, q["x"]), basis).to_json()

    def op_translation(self, q):
        flag = self.cones[q["flag"]]
        basis = [self._lattice(flag, b) for b in q["basis"]]
        return self.ordo.translation_values(flag, self._lattice(flag, q["x"]), basis).to_json()

    def op_construct(self, q):
        values = [self.ordo.RealConstant.from_json(t) for t in q["tau"]]
        x = self.ordo.LatticeElement(self.ordo.GroupRef.free_abelian(len(values)),
                                     tuple(q["x"]))
        flag = self.ordo.construct_from_translations(values, x)
        return self.ordo.rotation_class(flag, x).to_json()

    def op_convex(self, q):
        flag = self.cones[q["flag"]]
        matrix = self.ordo.ExponentMatrix(tuple(tuple(r) for r in q["rows"]))
        return self.ordo.check_convex(flag, self._lattice(flag, q["x"]), matrix).to_json()

    def op_sikora(self, q):
        point = self.ordo.sikora_coordinate(self.cones[q["flag"]])
        slope = self.ordo.slope_of(point)
        return {"point": point.to_json(), "slope": None if slope is None else slope.to_json()}

    def op_cli(self, q):
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            code = self.cli.main(list(q["argv"]))
        return {"exit": code, "stdout": buf.getvalue()}

    # braid_long

    def op_dsign(self, q):
        return self.ordo.cone_sign(self._braid_cone(q["n"]), self._braid(q["n"], q["word"]))

    def op_bfloor(self, q):
        n = q["n"]
        a = self._braid(n, q["conj"])
        twist = self.ordo.full_twist(n)
        ctx = self.ordo.AnchorContext(self._braid_cone(n), twist)
        return self.ordo.power_floor(ctx, a * twist ** q["k"] * a.inverse())

    def op_stable(self, q):
        n = q["n"]
        ctx = self.ordo.AnchorContext(self._braid_cone(n), self.ordo.full_twist(n))
        return self.ordo.stable_approx(ctx, self._braid(n, q["word"]), q["order"]).to_json()

    # braid_ball

    def op_ball(self, q):
        n = q["n"]
        ball = self.ordo.ball_enumeration(self._braid_cone(n), q["radius"])
        self.tables[("ball", n)] = ball
        return [g.render() for g in ball]

    def op_realize(self, q):
        n = q["n"]
        table = self.ordo.realize(self._braid_cone(n), self.tables[("ball", n)])
        self.tables[("table", n)] = table
        return table.to_json()["values"]

    def op_pac(self, q):
        check = self.ordo.partial_action_check(self.tables[("table", q["n"])],
                                               self._braid(q["n"], q["g"]))
        return [check.checked, check.passed]

    def op_euler(self, q):
        n = q["n"]
        survey = self.ordo.euler_cocycle_survey(self._braid_cone(n), self.ordo.full_twist(n),
                                                q["count"], q["seed"], q["radius"])
        return [survey.total, survey.passed, len(survey.failures)]

    def op_dense(self, q):
        verdict = self.ordo.is_dense(self._braid_cone(q["n"]), q["cap"])
        seen = verdict.smallest_positive_seen
        return [verdict.outcome.value, None if seen is None else seen.render()]

    def op_rinv(self, q):
        n = q["n"]
        verdict = self.ordo.is_right_invariant(self._braid_cone(n), self._braid(n, q["x"]),
                                               cap=q["cap"])
        return verdict.to_json()

    def op_compare(self, q):
        n = q["n"]
        return self.ordo.compare(self._braid_cone(n), self._braid(n, q["a"]),
                                 self._braid(n, q["b"]))


def _run_pass(ordo, errors, cone_docs, queries):
    """One pass: fresh cones, then every query in order.  Returns
    (pass seconds, per-query latencies, per-query canonical answers)."""
    t_start = time.perf_counter()
    ops = Ops(ordo, cone_docs)
    latencies, answers = [], []
    for q in queries:
        t0 = time.perf_counter()
        try:
            answer = ops.run(q)
        except errors.OrdoError as exc:
            answer = {"error": exc.code}
        except Exception as exc:  # a raw exception is a failed query, not a crash
            answer = {"error": "unexpected " + type(exc).__name__, "detail": str(exc)[:200]}
        latencies.append(time.perf_counter() - t0)
        answers.append(json.dumps(answer, sort_keys=True))
    return time.perf_counter() - t_start, latencies, answers


def _setup(cone_docs: dict, reps: int, times: list):
    """Drop and re-import ordo and build every cone, `reps` times; returns
    the package as imported last."""
    for _ in range(reps):
        _purge_ordo()
        t0 = time.perf_counter()
        ordo = import_ordo()
        for doc in cone_docs.values():
            ordo.ordering_from_json(doc)
        times.append(time.perf_counter() - t0)
    return ordo


def main() -> int:
    request = json.load(sys.stdin)
    sys.path.insert(0, request["src"])
    cone_docs, queries, seconds = request["cones"], request["queries"], request["seconds"]
    if request["trace"]:
        import tracing

    _setup(cone_docs, SETUP_WARMUP, [])
    setup_times: list[float] = []
    ordo = _setup(cone_docs, SETUP_PER_ROUND, setup_times)
    rounds_left = SETUP_ROUNDS - 1

    passes = []  # (traced, seconds, latencies)
    answers_seen: list[dict[str, int]] = [dict() for _ in queries]
    traced_layers = []
    mismatch_traced = 0
    first_untraced = None
    start = time.perf_counter()
    deadline = start + seconds
    next_round = start + seconds / SETUP_ROUNDS
    while True:
        errors = sys.modules["ordo.errors"]
        traced = request["trace"] and len(passes) % 2 == 1
        if traced:
            tracer = tracing.Tracer()
            with tracer.active():
                pass_s, latencies, answers = _run_pass(ordo, errors, cone_docs, queries)
            traced_layers.append(tracer.collect())
            mismatch_traced += sum(a != b for a, b in zip(answers, first_untraced))
        else:
            pass_s, latencies, answers = _run_pass(ordo, errors, cone_docs, queries)
            if first_untraced is None:
                first_untraced = answers
        passes.append((traced, pass_s, latencies))
        for seen, answer in zip(answers_seen, answers):
            seen[answer] = seen.get(answer, 0) + 1
        now = time.perf_counter()
        if rounds_left and now >= next_round:
            # Set-up rounds are spread over the run, so that their median does
            # not hang on how loaded the machine was in its first seconds.
            ordo = _setup(cone_docs, SETUP_PER_ROUND, setup_times)
            rounds_left -= 1
            next_round += seconds / SETUP_ROUNDS
        if now >= deadline and (not request["trace"] or len(passes) >= 2):
            break
    if rounds_left:
        _setup(cone_docs, SETUP_PER_ROUND * rounds_left, setup_times)

    json.dump({
        "setup_s": setup_times,
        "passes": [{"traced": t, "seconds": s, "latencies": lat} for t, s, lat in passes],
        "answers": answers_seen,
        "traced_layers": traced_layers,
        "traced_answer_mismatches": mismatch_traced,
        "peak_rss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
    }, sys.stdout)
    return 0


if __name__ == "__main__":
    sys.exit(main())
