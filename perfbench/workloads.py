"""The four benchmark workloads.

Each workload has a set-up step (imports, data files, generated inputs),
a timed step that runs only the program's own work on those inputs, and
a check step that compares the outputs with a reference or an
independent oracle.  Sizes come in two grades: "full" is the measured
benchmark, "tiny" exists so that the teeth check runs in seconds.
"""

import hashlib
import json
import os
import random

SIZES = {
    "sinha-pages": {
        "full": {"max_arity": 6, "r_max": 6},
        "tiny": {"max_arity": 4, "r_max": 4},
    },
    "d1-tower": {
        "full": {"max_p": 7},
        "tiny": {"max_p": 5},
    },
    "fact-attack": {
        "full": {"restarts": 4, "facts": "all"},
        "tiny": {"restarts": 1, "facts": 4},
    },
    "gate-small": {
        "full": {"complexes": 500, "max_basis": 8, "lemma_samples": 100,
                 "cases": "all", "commute_max_n": 4, "ainf_arity": 6},
        "tiny": {"complexes": 3, "max_basis": 8, "lemma_samples": 4,
                 "cases": 1, "commute_max_n": 3, "ainf_arity": 4},
    },
}


def _sha256(data):
    return hashlib.sha256(data).hexdigest()


def matrices_digest(mats):
    """sha256 over the entries of {(p, q): Matrix}, in slot order."""
    h = hashlib.sha256()
    for (p, q) in sorted(mats):
        M = mats[(p, q)]
        h.update(("%d,%d:%dx%d:" % (p, q, M.nrows, M.ncols)).encode())
        for row in M.rows:
            h.update((",".join(str(x) for x in row) + ";").encode())
    return h.hexdigest()


class SinhaPages:
    """`knotss ss-table` over F3: every E_r page of the Sinha complex."""

    def __init__(self, size, seed, out_dir):
        self.size = size
        self.output = os.path.join(out_dir, "ss-table-%d.json" % os.getpid())

    def setup(self):
        import knotss.cli
        self.cli = knotss.cli
        self.argv = ["ss-table", "--max-arity", str(self.size["max_arity"]),
                     "--field", "f3", "--r-max", str(self.size["r_max"]),
                     "--output", self.output]

    def run(self):
        return self.cli.main(self.argv)

    def digest(self, code):
        with open(self.output, "rb") as fh:
            return _sha256(fh.read())

    def check(self, code, expected):
        """Returns (units, [(check name, passed)]); units are E_r slots."""
        checks = [("cli exit code 0", code == 0)]
        try:
            with open(self.output, "rb") as fh:
                data = fh.read()
        except OSError:
            return 0, checks + [("output written", False)]
        os.remove(self.output)
        checks.append(("output digest", _sha256(data) == expected))
        report = json.loads(data)["report"]
        checks.append(("nonzero_higher empty", report["nonzero_higher"] == []))
        units = sum(len(page["slots"]) for page in report["pages"])
        return units, checks


class D1Tower:
    """d_1 matrices over F3 for 2 <= p <= max_p, then d_1 d_1 = 0 on
    every column."""

    def __init__(self, size, seed, out_dir):
        self.max_p = size["max_p"]

    def setup(self):
        from knotss.confcoh import dim_cohomology
        from knotss.fields import F3
        from knotss import hochschild
        self.hochschild = hochschild
        self.field = F3
        self.slots = [(p, q) for p in range(2, self.max_p + 1)
                      for q in range(p) if dim_cohomology(p, q)]

    def run(self):
        conf_delta_matrix = self.hochschild.conf_delta_matrix
        mats = {(p, q): conf_delta_matrix(p, q, self.field)
                for (p, q) in self.slots}
        vanishing = []
        for (p, q), M in mats.items():
            N = mats.get((p - 1, q))
            if N is None or not N.nrows:
                continue
            for j in range(M.ncols):
                vanishing.append(not any(N.mul_vector(M.column(j))))
        return mats, vanishing

    def digest(self, result):
        return matrices_digest(result[0])

    def check(self, result, expected):
        mats, vanishing = result
        checks = [("d1 d1 = 0 on a column", ok) for ok in vanishing]
        checks.append(("matrices digest", matrices_digest(mats) == expected))
        return len(vanishing), checks


class FactAttack:
    """The witness attack on the checked-in zero facts."""

    def __init__(self, size, seed, out_dir):
        self.restarts = size["restarts"]
        self.n_facts = size["facts"]
        self.seed = seed

    def setup(self):
        from knotss.chainledger import ZeroFacts
        from knotss import geometry
        self.geometry = geometry
        facts = ZeroFacts.load()
        if self.n_facts != "all":
            facts = ZeroFacts(list(facts.table.values())[:self.n_facts])
        self.facts = facts

    def run(self):
        return self.geometry.attack_zero_facts(
            self.facts, restarts=self.restarts, seed=self.seed)

    def check(self, result, expected):
        reports = result["reports"]
        checks = [("one report per fact", len(reports) == len(self.facts.table))]
        checks += [("no witness, all restarts run",
                    r["witness"] is None and r["restarts"] == self.restarts)
                   for r in reports]
        return len(reports) * self.restarts, checks


class GateSmall:
    """The rest of the acceptance checks at fixed small sizes: the E_inf
    oracle on random complexes, the lemma harnesses, the ledger cases,
    the merge/Cech commutation and the tree differential."""

    def __init__(self, size, seed, out_dir):
        self.size = size
        self.seed = seed

    def setup(self):
        from knotss import cases, geometry, operads, partgraph, spectral
        from knotss.chainledger import ZeroFacts
        from knotss.fields import F2, F3, QQ
        self.mods = (cases, geometry, operads, partgraph, spectral)
        self.fields = (F2, F3, QQ)
        rng = random.Random(self.seed)
        self.complexes = [
            spectral.random_filtered_complex(
                rng, self.fields[k % 3], max_basis=self.size["max_basis"])
            for k in range(self.size["complexes"])]
        self.facts = ZeroFacts.load()
        names = cases.all_cases()
        n = self.size["cases"]
        self.case_names = names if n == "all" else names[:n]

    def run(self):
        cases, geometry, operads, partgraph, spectral = self.mods
        F2, _, QQ = self.fields
        oracle = [spectral.einf_dims(C) == spectral.total_homology_graded(C)
                  for C in self.complexes]
        lemmas = [geometry.check_lemma(name, samples=self.size["lemma_samples"],
                                       seed=self.seed)
                  for name in geometry.ALL_LEMMAS]
        ledger = [cases.run_case(name, facts=self.facts)
                  for name in self.case_names]
        top = self.size["commute_max_n"]
        commute = [partgraph.verify_commutation(n, QQ)
                   for n in range(2, top + 1)]
        commute.append(partgraph.verify_commutation(top + 1, QQ,
                                                    discrete_only=True))
        ainf = operads.d_squared_report(self.size["ainf_arity"], F2)
        return oracle, lemmas, ledger, commute, ainf

    def check(self, result, expected):
        oracle, lemmas, ledger, commute, ainf = result
        checks = [("E_inf equals graded homology", ok) for ok in oracle]
        checks += [("lemma %s" % r["lemma"], r["pass"]) for r in lemmas]
        checks += [("ledger case %s" % r["case"], r["pass"]) for r in ledger]
        checks += [("commutation n=%d" % r["n"], r["pass"]) for r in commute]
        checks.append(("tree d^2 = 0", ainf["pass"]))
        return sum(ok for _, ok in checks), checks


WORKLOADS = {"sinha-pages": SinhaPages, "d1-tower": D1Tower,
             "fact-attack": FactAttack, "gate-small": GateSmall}


def make(name, size, seed, out_dir):
    return WORKLOADS[name](SIZES[name][size], seed, out_dir)


def flip_one_entry():
    """Fault for the teeth check: conf_delta_matrix(5, 1, ...) returns its
    top-left entry off by one, which breaks d_1 d_1 = 0 against slot
    (4, 1), whose first column is nonzero."""
    from knotss import hochschild
    original = hochschild.conf_delta_matrix

    def faulty(p, q, field, mode="signed"):
        M = original(p, q, field, mode=mode)
        if (p, q) == (5, 1):
            M.rows[0][0] = field.add(M.rows[0][0], field.one)
        return M

    hochschild.conf_delta_matrix = faulty
