"""``serve``: a seeded stream of ``predict`` commands against a trained pack.

Set-up has the program synthesize the default cohort and train a pack on it
with the one-point grid ``SETUP_GRID`` and ``--jobs 1`` (the full grid would
make set-up as long as the ``train`` workload). Query patients are the
cohort's 420 validation rows, whose true doses are known, each queried once
per round. One round, repeated until the run's time is up, sends, in a fixed
seeded order, one client, closed loop:

* one in-process request per remaining patient that a stored profile serves,
  half disclosing exactly a profile's columns and half a larger set
  (fallbacks); the patient's place in the cohort picks the profile, the seed
  picks the extra columns of a fallback;
* one in-process request for each set in ``ON_DEMAND``, which disclose no
  complete category, so the program trains a profile for them from
  ``--data/--schema``; the same sets come back every round;
* the two ``NON_FINITE`` requests, which carry ``nan`` or ``inf`` and must be
  refused with exit 3 and no dose; they do not depend on the seed;
* one stored request as a cold ``python -m dosedistill.cli`` process.
"""

from __future__ import annotations

import numpy as np

import oracle
from common import CheckFailed, check, median, require_ok, tail
from workload_train import write_cohort

SETUP_GRID = "0.5"
# disclosed column indices; each leaves out part of every category
ON_DEMAND = (
    (1, 2, 3, 5, 6, 7, 8, 9, 12),
    (0, 1, 4, 5, 11),
)
NON_FINITE = (
    "demographic_0=B,demographic_1=0.5,demographic_2=nan,demographic_3=-0.3,"
    "background_0=A,background_1=0.1,background_2=1.2,background_3=-0.7,"
    "background_4=0.4,background_5=0.0,phenotypic_0=C,genotypic_0=B,genotypic_1=0.2",
    "demographic_0=A,demographic_1=0.5,demographic_2=0.1,demographic_3=-0.3,"
    "background_0=B,background_1=0.1,background_2=1.2,background_3=inf,"
    "background_4=0.4,background_5=0.0,phenotypic_0=A,genotypic_0=C,genotypic_1=-1.1",
)


class Request:
    __slots__ = ("kind", "patient", "disclosed", "spec", "truth")

    def __init__(self, kind, patient, disclosed, spec, truth):
        self.kind, self.patient, self.disclosed = kind, patient, disclosed
        self.spec, self.truth = spec, truth


class Serve:
    name = "serve"

    def __init__(self, ctx):
        self.ctx = ctx
        self.cohort = ctx.work / "cohort"
        self.packdir = ctx.work / "pack"
        self.stored_ms: list[float] = []
        self.cold_ms: list[float] = []
        self.on_demand_rounds: list[float] = []
        self.first: list | None = None

    def setup(self) -> None:
        write_cohort(self.ctx, self.cohort)
        require_ok(self.ctx.setup_cli([
            "train", "--data", str(self.cohort / "data.csv"),
            "--schema", str(self.cohort / "schema.json"), "--out", str(self.packdir),
            "--grid", SETUP_GRID, "--jobs", "1",
        ]), "train (set-up)")

    def prepare(self) -> None:
        self.schema = oracle.Schema.read(self.cohort / "schema.json")
        self.table = oracle.Table.read(self.cohort / "data.csv", self.schema)
        self.std = oracle.standardize_split(self.table, self.schema, 0.65, 0)
        self.pack = oracle.PackView.read(self.packdir / "pack.json", self.schema)
        oracle.check_pack_matches_split(self.pack, self.std, self.table)
        self.requests = self.build_requests()
        self.cold = next(r for r in self.requests if r.kind == "stored")
        warm = self.predict_argv(self.cold)
        require_ok(self.ctx.cli(warm), "warm-up predict")

    def build_requests(self) -> list[Request]:
        rng = np.random.default_rng(self.ctx.seed)
        d = len(self.schema.names)
        # every validation patient is queried once, and a patient's place in the
        # cohort fixes which profile's columns it discloses, so the served MAE
        # measures the pack rather than the draw
        pool = self.std.valid_idx.tolist()
        on_demand_patients = rng.choice(pool, len(ON_DEMAND), replace=False).tolist()
        profile_sets = {frozenset(v) for v in self.pack.visible}

        def values(patient, disclosed):
            names = self.schema.names
            return ",".join(f"{names[i]}={self.table.columns[names[i]][patient]}"
                            for i in sorted(disclosed))

        # a fallback adds withheld columns to a profile's set without landing on
        # another profile's, which needs at least two withheld columns
        bases = [v for v in self.pack.visible if d - len(v) >= 2]
        reqs = []
        for k, patient in enumerate(pool):
            if patient in on_demand_patients:
                continue
            if k % 2 == 0:
                disclosed = frozenset(self.pack.visible[(k // 2) % len(self.pack.visible)])
            else:
                base = frozenset(bases[(k // 2) % len(bases)])
                rest = [i for i in range(d) if i not in base]
                while True:
                    extra = frozenset(i for i in rest if rng.random() < 0.5)
                    if extra and base | extra not in profile_sets:
                        disclosed = base | extra
                        break
            reqs.append(Request("stored", patient, disclosed, values(patient, disclosed),
                                float(self.table.y[patient])))
        specials = []
        for cols, patient in zip(ON_DEMAND, on_demand_patients):
            disclosed = frozenset(cols)
            specials.append(Request("on_demand", patient, disclosed,
                                    values(patient, disclosed), float(self.table.y[patient])))
        specials += [Request("non_finite", -1, frozenset(), spec, 0.0) for spec in NON_FINITE]
        order = list(rng.permutation(len(reqs)))
        reqs = [reqs[i] for i in order]
        step = len(reqs) // (len(specials) + 1)
        for j, special in enumerate(specials):
            reqs.insert((j + 1) * step + j, special)
        return reqs

    def predict_argv(self, req: Request) -> list[str]:
        argv = ["predict", "--model", str(self.packdir / "pack.json"), "--disclose", req.spec]
        if req.kind == "on_demand":
            argv += ["--data", str(self.cohort / "data.csv"),
                     "--schema", str(self.cohort / "schema.json")]
        return argv

    def expected(self, req: Request) -> tuple[str, bool, float | None]:
        pos, exact = oracle.feasible_pick(self.pack, req.disclosed)
        if req.kind == "on_demand":
            check(pos < 0, f"on-demand set {sorted(req.disclosed)} fits a stored profile")
            return oracle.on_demand_name(req.disclosed), True, None
        check(pos >= 0, f"stored request {sorted(req.disclosed)} fits no stored profile")
        raw = {i: self.table.columns[self.schema.names[i]][req.patient] for i in req.disclosed}
        dose = oracle.stored_dose(self.pack, pos, oracle.encode_disclosure(self.pack, self.schema, raw))
        return self.pack.profiles[pos], exact, dose

    def verify(self, req: Request, res) -> tuple | None:
        """The parsed answer of a request that succeeded, or None when it failed."""
        if req.kind == "non_finite":
            refused = res.code == 3 and "predicted weekly dose" not in res.out
            return ("refused",) if refused else None
        require_ok(res, f"predict {req.spec!r}")
        got = oracle.parse_predict(res.out)
        check(got is not None, f"predict printed no profile and dose: {res.out!r}")
        profile, exact, dose = got
        want_profile, want_exact, want_dose = self.expected(req)
        check((profile, exact) == (want_profile, want_exact),
              f"{sorted(req.disclosed)}: served by {profile!r} (exact={exact}), "
              f"feasibility-first gives {want_profile!r} (exact={want_exact})")
        if want_dose is not None:
            check(abs(dose - want_dose) <= oracle.PRINT_TOLERANCE,
                  f"{sorted(req.disclosed)}: printed {dose}, forward pass gives {want_dose:.6f}")
        check(np.isfinite(dose) and dose > 0, f"implausible dose {dose}")
        return got

    def round(self) -> None:
        ctx = self.ctx
        answers, on_demand = [], []
        for n, req in enumerate(self.requests):
            ctx.label(f"{n}:{req.kind}")
            res = ctx.cli(self.predict_argv(req))
            ctx.attempted += 1
            got = self.verify(req, res)
            if got is None:
                ctx.failed += 1
            elif req.kind == "stored":
                self.stored_ms.append(1e3 * res.seconds)
            elif req.kind == "on_demand":
                on_demand.append(res.seconds)
            answers.append(got)
        ctx.label("cold")
        res = ctx.cold_cli(self.predict_argv(self.cold))
        ctx.attempted += 1
        answers.append(self.verify(self.cold, res))
        self.cold_ms.append(1e3 * res.seconds)
        self.on_demand_rounds.append(sum(on_demand) / len(on_demand))
        if self.first is None:
            self.first = answers
            served = [(got[2], req.truth) for req, got in zip(self.requests, answers)
                      if got is not None and req.kind != "non_finite"]
            self.valid_mae = float(np.mean([abs(p - t) for p, t in served]))
            self.safe_doses = int(oracle.within_window(*zip(*served)).sum())
        elif answers != self.first:
            raise CheckFailed("a later round served different answers than the first")

    def finish(self, outcome) -> None:
        outcome.put("valid_mae_mg", self.valid_mae, "mg/week")
        outcome.put("job_s", median(self.on_demand_rounds), "s")
        outcome.put("call_ms", median(self.stored_ms), "ms")
        t = tail(self.stored_ms)
        outcome.notes.update(
            safe_doses=self.safe_doses,
            served=len(self.requests) - len(NON_FINITE),
            predict_p50_ms=median(self.stored_ms),
            predict_tail=None if t is None else {"pct": round(t[0], 2), "ms": t[1]},
            predict_samples=len(self.stored_ms),
            predict_cold_ms=median(self.cold_ms),
            ondemand_s=median(self.on_demand_rounds),
            rounds=len(self.on_demand_rounds),
        )
