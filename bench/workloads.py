"""The four benchmark workloads.

Each workload has three parts:

* ``setup()`` builds the inputs with the program (catalog models, parsed
  sentences, algebras from seeded tables).  It is timed as ``setup_s``.
* ``run(k)`` is operation ``k``, the unit that is timed.
* ``check(k, out)`` says whether the output of operation ``k`` is correct.
  It runs outside the timed region and never uses the function it checks.

The seed changes only the inputs of ``classify8`` and ``check8``; the
benchmark makes every seeded choice itself, so the program receives only
finished tables.
"""

from __future__ import annotations

import json
import random
from pathlib import Path

import relalg

import oracle

MODELS = ("a4", "a9", "b9", "d", "z3c")
CLASSIFY8_PER_MODEL = 8     # relabelings of each model
CHECK8_PER_KIND = 20        # relabelings, and mutants, of each model
REFERENCE = json.loads((Path(__file__).parent / "reference.json").read_text())


def tables_of(a):
    return (a.size, a.add, a.neg, a.comp, a.conv, a.ident)


def relabel_tables(tables, perm):
    """The tables carried through ``perm`` (perm[i] is the new index of i)."""
    n, add, neg, comp, conv, ident = tables
    inv = [0] * n
    for i, p in enumerate(perm):
        inv[p] = i
    return (n,
            [[perm[add[inv[i]][inv[j]]] for j in range(n)] for i in range(n)],
            [perm[neg[inv[i]]] for i in range(n)],
            [[perm[comp[inv[i]][inv[j]]] for j in range(n)] for i in range(n)],
            [perm[conv[inv[i]]] for i in range(n)],
            perm[ident])


def is_isomorphism(perm, a, b) -> bool:
    """Whether ``perm`` carries every table of ``a`` onto ``b``."""
    n, add, neg, comp, conv, ident = a
    m, add2, neg2, comp2, conv2, ident2 = b
    if n != m or sorted(perm) != list(range(n)) or perm[ident] != ident2:
        return False
    return (all(perm[neg[i]] == neg2[perm[i]] and perm[conv[i]] == conv2[perm[i]]
                for i in range(n)) and
            all(perm[add[i][j]] == add2[perm[i]][perm[j]] and
                perm[comp[i][j]] == comp2[perm[i]][perm[j]]
                for i in range(n) for j in range(n)))


def _catalog(model_ids):
    """Set-up shared by every workload: a fresh parse of the axiom catalog
    and the models the workload starts from."""
    clear = getattr(relalg.axiom_sentence, "cache_clear", None)
    if clear is not None:
        clear()
    for axiom_id in relalg.AXIOM_IDS:
        relalg.axiom_sentence(axiom_id)
    return {m: relalg.build_model(m) for m in model_ids}


def _evidence_nodes(report) -> int:
    """Search nodes recorded in the claim evidence of a report."""
    total = 0
    for claim in report.claims:
        total += claim.evidence.get("nodes_explored", 0)
        for size in claim.evidence.get("sizes", ()):
            total += size["nodes"]
    return total


class VerifyPaper:
    """The default claim suite, as ``relalg verify-paper`` runs it."""

    name = "verify-paper"
    alias = "verify_s"
    nodes_alias = "verify_nodes"

    def __init__(self, seed: int):
        self.expected = REFERENCE["verify_paper"]

    def setup(self):
        _catalog(relalg.list_models())

    def run(self, k):
        return relalg.run_verification_suite(include_long_running=False)

    def check(self, k, report) -> bool:
        statuses = {c.claim_id: c.status for c in report.claims}
        return (report.overall == self.expected["overall"] and
                statuses == self.expected["statuses"])

    def nodes(self, report) -> int:
        return _evidence_nodes(report)


class Search8:
    """The symmetric sub-case of the reduced-system R9 uniqueness claim at
    size 8: the engine proves that no model exists, without a node limit."""

    name = "search8"
    alias = "search8_s"
    nodes_alias = "search8_nodes"

    def __init__(self, seed: int):
        self.expected = REFERENCE["search8"]

    def setup(self):
        _catalog(())
        must_hold = tuple(relalg.axiom_sentence(i) for i in relalg.R_SYS if i != "R9")
        must_hold += (relalg.parse_sentence("r^ = r"),)
        self.spec = relalg.SearchSpec(8, must_hold, (relalg.axiom_sentence("R9"),),
                                      up_to_iso=True)

    def run(self, k):
        return relalg.boolean_guided_search(self.spec)

    def check(self, k, res) -> bool:
        # The verdict alone cannot tell a proof from a search that pruned
        # everything, so at least one node must have been explored; the
        # node count itself is printed and compared between trajectory points.
        return (res.nodes_explored > 0 and
                res.exhaustive == self.expected["exhaustive"] and
                res.iso_class_count == self.expected["iso_class_count"] and
                len(res.models) == res.iso_class_count)

    def nodes(self, res) -> int:
        return res.nodes_explored


def classify8_specs(seed: int):
    """(model id, permutation) pairs, round-robin over the models."""
    rng = random.Random(f"classify8:{seed}")
    specs = []
    for _ in range(CLASSIFY8_PER_MODEL):
        for m in MODELS:
            perm = list(range(8))
            rng.shuffle(perm)
            specs.append((m, tuple(perm)))
    return specs


class Classify8:
    """The leaf step of a size-8 search: canonical form, automorphism count,
    and an isomorphism back to the source, one relabeled model per operation."""

    name = "classify8"
    alias = "classify8_s"
    nodes_alias = None

    def __init__(self, seed: int):
        self.specs = classify8_specs(seed)
        self.expected = REFERENCE["models"]

    def setup(self):
        self.sources = _catalog(MODELS)
        self.algebras = [
            relalg.make_algebra(*relabel_tables(tables_of(self.sources[m]), perm))
            for m, perm in self.specs]

    def run(self, k):
        i = k % len(self.specs)
        alg = self.algebras[i]
        return (relalg.canonical_form(alg), relalg.automorphism_count(alg),
                relalg.find_isomorphism(alg, self.sources[self.specs[i][0]]))

    def check(self, k, out) -> bool:
        i = k % len(self.specs)
        model = self.specs[i][0]
        form, aut, iso = out
        want = self.expected[model]
        return (form.hex() == want["canonical_form"] and
                aut == want["automorphism_count"] and
                iso is not None and
                is_isomorphism(tuple(iso), tables_of(self.algebras[i]),
                               tables_of(self.sources[model])))


def check8_specs(seed: int):
    """(model id, permutation, mutation) triples: CHECK8_PER_KIND relabelings
    and as many one-cell comp mutants of each model.  A mutation
    (i, j, shift) adds shift, from 1 to 7, to comp[i][j] modulo 8, so the
    cell always changes."""
    rng = random.Random(f"check8:{seed}")
    specs = []
    for k in range(2 * CHECK8_PER_KIND * len(MODELS)):
        m = MODELS[k % len(MODELS)]
        perm = list(range(8))
        rng.shuffle(perm)
        mutation = None
        if k // len(MODELS) % 2:
            i, j, shift = rng.randrange(8), rng.randrange(8), rng.randrange(1, 8)
            mutation = (i, j, shift)
        specs.append((m, tuple(perm), mutation))
    return specs


def check8_tables(sources, spec):
    """The tables one check8 spec describes."""
    m, perm, mutation = spec
    tables = relabel_tables(tables_of(sources[m]), perm)
    if mutation is not None:
        i, j, shift = mutation
        comp = tables[3]
        comp[i][j] = (comp[i][j] + shift) % 8
    return tables


class Check8:
    """Full axiom checks over a population of size-8 algebras: relabelings,
    valid except for known axioms, and one-cell comp mutants."""

    name = "check8"
    alias = "check8_s"
    nodes_alias = None

    def __init__(self, seed: int):
        self.specs = check8_specs(seed)
        self.axiom_ids = tuple(oracle.AXIOMS)
        self.known = REFERENCE["models"]
        sources = {m: relalg.build_model(m) for m in MODELS}
        self.expected = [oracle.first_counterexamples(check8_tables(sources, s))
                         for s in self.specs]

    def setup(self):
        sources = _catalog(MODELS)
        self.algebras = [relalg.make_algebra(*check8_tables(sources, s))
                         for s in self.specs]

    def run(self, k):
        sentences = [relalg.parse_sentence(relalg.AXIOM_TEXT[i]) for i in self.axiom_ids]
        return [[relalg.check_validity(a, s) for s in sentences] for a in self.algebras]

    def check(self, k, out) -> bool:
        if any(relalg.AXIOM_TEXT.get(i) != oracle.AXIOMS[i][0] for i in self.axiom_ids):
            return False
        for spec, verdicts, expected in zip(self.specs, out, self.expected):
            got = dict(zip(self.axiom_ids, verdicts))
            if got != expected:
                return False
            if spec[2] is None:
                known = self.known[spec[0]]
                if (oracle.failing(got, relalg.TARSKI) != known["failing_tarski"] or
                        oracle.failing(got, relalg.R_SYS) != known["failing_r_sys"]):
                    return False
        return len(out) == len(self.specs)


WORKLOADS = {w.name: w for w in (VerifyPaper, Search8, Classify8, Check8)}
