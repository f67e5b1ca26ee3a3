"""The claim suite: every independence theorem, golden table, stated
counterexample, semantic lemma check, and minimality/uniqueness search,
bundled into one structured report.

Claim ids are stable strings of the form "paper.<section>.<short-name>";
the report is ordered by claim id, not by execution order.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from functools import partial

from . import __version__
from .algebra import FiniteAlgebra, find_isomorphism
from .axioms import (AXIOM_TEXT, BOOLEAN, R_SYS, S_SYS, SYSTEMS, axiom_sentence,
                     exists_right_identity, failing_axioms, only_failing)
from .catalog import build_model, list_models
from .search import SearchSpec, _search_for, boolean_guided_search
from .terms import check_validity, holds
from . import golden

PASS = "pass"
FAIL = "fail"
INCONCLUSIVE = "inconclusive"  # a search cut short by its node budget
SKIP = "skipped-long-running"

KINDS = ("independence", "minimality", "uniqueness", "lemma-semantic",
         "table-golden", "extra-fact")


@dataclass(slots=True)
class Claim:
    claim_id: str
    description: str
    kind: str
    status: str
    seconds: float
    evidence: dict = field(default_factory=dict)


@dataclass
class Report:
    version: str
    claims: list[Claim]

    @property
    def overall(self) -> str:
        """fail if a claim failed, else inconclusive if one did not finish."""
        statuses = {c.status for c in self.claims}
        return next((s for s in (FAIL, INCONCLUSIVE) if s in statuses), PASS)

    def to_dict(self) -> dict:
        return {
            "version": self.version,
            "overall": self.overall,
            "claims": [
                {
                    "id": c.claim_id,
                    "description": c.description,
                    "kind": c.kind,
                    "status": c.status,
                    "seconds": round(c.seconds, 3),
                    "evidence": c.evidence,
                }
                for c in self.claims
            ],
        }

    def render(self) -> str:
        tags = {PASS: "PASS", FAIL: "FAIL", INCONCLUSIVE: "INCONCLUSIVE",
                SKIP: "SKIP"}
        lines = []
        for c in self.claims:
            lines.append(f"[{tags[c.status]}] {c.claim_id} ({c.seconds:.2f}s) {c.description}")
            if c.status == FAIL:
                lines.append(f"       evidence: {c.evidence}")
        counts = {s: sum(1 for c in self.claims if c.status == s) for s in tags}
        lines.append(f"overall: {self.overall} "
                     f"({counts[PASS]} passed, {counts[FAIL]} failed, "
                     f"{counts[INCONCLUSIVE]} inconclusive, {counts[SKIP]} skipped)")
        return "\n".join(lines)


def render_model(a: FiniteAlgebra) -> str:
    """One operation table per operation, element names in index order."""
    names = a.names if a.names is not None else tuple(str(i) for i in range(a.size))
    w = max(len(s) for s in names)
    lines = [f"size: {a.size}", f"ident: {names[a.ident]}"]

    for table in ("add", "comp", "neg", "conv"):
        lines.append(f"{table}:")
        for i, entry in enumerate(getattr(a, table)):
            row = entry if table in ("add", "comp") else (entry,)
            lines.append(f"{names[i].ljust(w)} : {' '.join(names[v] for v in row)}")
    return "\n".join(lines)


# --- helpers ----------------------------------------------------------------

def _named_env(a: FiniteAlgebra, env: dict) -> dict:
    return {k: a.name_of(v) for k, v in sorted(env.items())}


def _witness_str(named: dict) -> str:
    return ", ".join(f"{k}={v}" for k, v in named.items())


def _listed(items):
    return ", ".join(items[:-1]) + " and " + items[-1] if len(items) > 1 else items[0]


def _independence_evidence(verdict, a: FiniteAlgebra, system, target):
    status = {i: verdict(a, i) for i in system}
    witness = status.get(target)
    ev = {"failing": failing_axioms(status)}
    if witness is not None:
        ev["witness"] = _named_env(a, witness)
    return only_failing(status, target), ev


def _independence_text(mid, sysname, target):
    """What ``_independence_evidence`` checks for one ``INDEPENDENCE`` row."""
    return f"{mid} fails exactly {target} within {sysname}"


# Independence claims: (claim id, model id, system name, target, kind).
# b10, the paper's second independence model for R10, is an extra fact.
INDEPENDENCE = [(cid, mid, sysname, target, "independence")
                for cid, mid, sysname, target in [
    *[(f"paper.{sec}.a{n}-r{n}-independence", f"a{n}", "tarski", f"R{n}") for n, sec in
      enumerate(("s5", "s6", "sr3", "s7", "s8", "sr6", "s9", "s10", "s11", "s12"), 1)],
    *[(f"paper.{sec}.{sysname}sys-r{n}-a{n}", f"a{n}", sysname, f"R{n}")
      for sec, sysname in (("s14", "r"), ("s16", "s")) for n in (1, 2, 3, 4, 5, 6, 10)],
    ("paper.s14.rsys-r9-b9", "b9", "r", "R9"),
    ("paper.s14.rsys-r8p-a8", "a8", "r", "R8p"),
    ("paper.s14.rsys-r8p-a7", "a7", "r", "R8p"),
    ("paper.s16.ssys-r8-b9", "b9", "s", "R8"),
    ("paper.s16.ssys-r8p-a7", "a7", "s", "R8p"),
]] + [("paper.s12.b10-r10-independence", "b10", "tarski", "R10", "extra-fact")]

# b5's extra fact, checked by ``b5_fact``: (claim id, model id, system name,
# target, what its description adds to the independence row's).
B5_FACT = ("paper.s8.b5-right-identity", "b5", "tarski", "R5",
           ", yet has a right identity element")


def b5_fact(verdict, a: FiniteAlgebra, system, target):
    """``a`` has a right identity element, which the evidence names, yet
    fails exactly ``target`` within ``system``."""
    e = exists_right_identity(a)
    ok = e is not None and _independence_evidence(verdict, a, system, target)[0]
    return ok, {"right_identity": None if e is None else a.name_of(e)}


# The stated counterexamples, all checked in claim WITNESSES_CLAIM: (id of
# the row's own claim or None, axiom, model id, variable -> element name).
WITNESSES_CLAIM = "paper.witness.stated-counterexamples"
STATED_WITNESSES = [
    (None, "R2", "a2", {"r": "1'", "s": "1'", "t": "1"}),
    (None, "R4", "a4", {"r": "{1}", "s": "{2}", "t": "{2}"}),
    (None, "R9", "a9", {"r": "{0}", "s": "{2}"}),
    ("paper.s11.a9-r8p-witness", "R8p", "a9", {"r": "{1}", "s": "{0}", "t": "{2}"}),
    (None, "R9", "b9", {"r": "1'", "s": "a"}),
    ("paper.s14.b9-r8-witness", "R8", "b9", {"r": "1'", "s": "a", "t": "b"}),
    (None, "R10", "b10", {"r": "0'", "s": "0'"}),
    (None, "R8", "a8", {"r": "0", "s": "1", "t": "0"}),  # in a8 the identity is 1
]


def _witness_text(rows):
    """What ``_stated_fail`` checks for ``STATED_WITNESSES`` rows: one row's
    law, model and assignment, or each row's axiom and model."""
    if len(rows) > 1:
        return (f"each of the {len(rows)} stated assignments falsifies its axiom: "
                + _listed([f"{ax} in {mid}" for _, ax, mid, _ in rows]))
    (_, ax, mid, env), = rows
    return f"{ax} ({AXIOM_TEXT[ax]}) is false in {mid} at {_witness_str(env)}"


def _stated_fail(models, rows):
    """Each row's axiom must be false in its model at the row's (named)
    assignment; one row's evidence is its assignment."""
    ok = all(not holds(models[mid], axiom_sentence(ax), {
        var: models[mid].names.index(name) for var, name in env.items()})
        for _, ax, mid, env in rows)
    if len(rows) == 1:
        return ok, {"witness": rows[0][3]}
    return ok, {"checked": [[ax, mid, env] for _, ax, mid, env in rows]}


def _lemma_text(hypotheses, conclusions, agree):
    """What ``_lemma`` checks for one row, read from the row itself."""
    verb = "agree" if agree else "hold" if len(conclusions) > 1 else "holds"
    return (f"{_listed(conclusions)} {verb} on every sample model (catalog and "
            f"finished searches) that satisfies {_listed(hypotheses)}")


# Semantic lemmas, checked by ``_lemma`` over the catalog and the models of
# every finished search: (claim id, hypotheses, conclusions, agree).
LEMMAS = [
    ("paper.s13.r10-equiv-r11p", BOOLEAN + ("R6", "R8p"), ("R10", "R11p"), True),
    ("paper.s13.r8-equiv-r8p", ("R6", "R7", "R9"), ("R8", "R8p"), True),
    ("paper.s13.implies-r7", BOOLEAN + ("R4", "R5", "R11p"), ("R7",), False),
    ("paper.s15.implies-r9", BOOLEAN + ("R5", "R8", "R11p"), ("R9",), False),
    ("paper.s13.rsys-implies-r7-r8", R_SYS, ("R7", "R8"), False),
    ("paper.s15.ssys-implies-r7-r9", S_SYS, ("R7", "R9"), False),
]


def _lemma(verdict, population, hypotheses, conclusions, agree=False):
    """On every model satisfying all hypotheses, every conclusion must hold,
    or with ``agree`` the conclusions must all hold or all fail."""
    applicable = 0
    for mid, a in population:
        if any(verdict(a, h) is not None for h in hypotheses):
            continue
        applicable += 1
        failed = [c for c in conclusions if verdict(a, c) is not None]
        if failed and not agree:
            return False, {"model": mid, "violates": failed[0]}
        if agree and 0 < len(failed) < len(conclusions):
            return False, {"model": mid, "disagree": list(conclusions)}
    return True, {"population": len(population), "applicable": applicable}


def _search_text(sysname, target, size, cert, count):
    """What ``search_claim`` checks for one ``SEARCHES`` row, read from the row."""
    if not count:
        return (f"no independence model for {target} within {sysname} below "
                f"size {size}, and {cert} is one of size {size}")
    plural, one = ("", "") if count == 1 else ("s", "one ")
    return (f"exactly {count} size-{size} independence model{plural} for "
            f"{target} within {sysname}, {one}isomorphic to {cert}")


# Search claims, each checked by the suite's ``search_claim``: (claim id,
# system name, target, size, certificate, required classes, long-running).
# 0 classes is minimality, none at sizes 1 ... size - 1; k >= 1 is
# uniqueness, exactly k at the size alone.  The size is the paper's, never
# read from the certificate, which must have it.
SEARCHES = [
    ("paper.s6.r2-minimality", "tarski", "R2", 3, "a2", 0, False),
    ("paper.s7.r4-minimality", "tarski", "R4", 8, "a4", 0, False),
    ("paper.s9.r7-minimality", "tarski", "R7", 4, "a7", 0, False),
    ("paper.s11.r9-minimality", "tarski", "R9", 8, "a9", 0, False),
    ("paper.s14.r9-minimality-rsys", "r", "R9", 8, "b9", 0, False),
    ("paper.s6.r2-uniqueness-size3", "tarski", "R2", 3, "a2", 1, False),
    ("paper.s9.r7-size4-search", "tarski", "R7", 4, "a7", 2, False),
    ("paper.s11.r9-uniqueness-size8", "tarski", "R9", 8, "a9", 1, True),
    ("paper.s14.r9-uniqueness-size8-rsys", "r", "R9", 8, "b9", 4, True),
]


# Golden tables, each checked by ``_golden_check``: (claim id, model id, name
# of its identity element, the model whose references its own are counted
# against cell by cell or None, comparisons (table, element order,
# reference)); neg and conv are unary.
GOLDEN = [
    ("paper.s3.table1-m3", "m3", "1'", None,
     [("comp", golden.M3_ORDER, golden.M3_COMP), ("conv", golden.M3_ORDER, golden.M3_ORDER)]),
    ("paper.s3.tables2-3-z3-complex", "z3c", "{0}", None,
     [("comp", golden.Z3_ORDER, golden.Z3_COMP), ("conv", golden.Z3_ORDER, golden.Z3_CONV)]),
    ("paper.s3.tables4-5-lyndon-d", "d", "1'", None,
     [("comp", golden.D_ATOMS, golden.D_ATOM_COMP), ("comp", golden.D_ORDER, golden.D_COMP),
      ("conv", golden.D_ORDER, golden.D_ORDER)]),
    ("paper.s6.table6-a2", "a2", "1'", None,
     [("add", golden.A2_ORDER, golden.A2_ADD), ("comp", golden.A2_ORDER, golden.A2_COMP),
      ("neg", golden.A2_ORDER, golden.A2_NEG)]),
    ("paper.s7.table8-a4", "a4", "{0}", None, [("comp", golden.A4_ORDER, golden.A4_COMP)]),
    ("paper.s11.table9-a9-diff", "a9", "{0}", "z3c",
     [("comp", golden.Z3_ORDER, golden.A9_COMP), ("conv", golden.Z3_ORDER, golden.A9_CONV)]),
    ("paper.s12.table10-b10", "b10", "1'", None, [("comp", golden.B10_ORDER, golden.B10_COMP)]),
    ("paper.s14.table11-b9-diff", "b9", "1'", "d",
     [("comp", golden.D_ORDER, golden.B9_COMP), ("conv", golden.D_ORDER, golden.B9_CONV)]),
]


def _golden_text(mid, ident, base, comparisons):
    """What ``_golden_check`` compares for one ``GOLDEN`` row: a table on
    fewer elements than the row's longest lists them; with a base model, each
    table's cells that differ from the base row's reference are counted."""
    full = max(len(order) for _, order, _ in comparisons)
    text = (f"{mid} has identity {ident} and matches the reference in every cell of "
            + _listed([table + (f" on {{{', '.join(order)}}}" if len(order) < full else "")
                       for table, order, _ in comparisons]))
    if base is None:
        return text
    refs = {(table, tuple(order)): ref for _, bmid, _, _, bcomparisons in GOLDEN
            if bmid == base for table, order, ref in bcomparisons}
    return (f"{text}, which differ from {base}'s in exactly " + _listed(
        [f"{golden.changed_cells(table, ref, refs[table, tuple(order)])} {table}"
         for table, order, ref in comparisons]) + " cells")


def _golden_check(a: FiniteAlgebra, ident: str, comparisons):
    """The identity's name and every compared cell must match; the first
    ten mismatches, each located, are the evidence."""
    bad = [] if a.name_of(a.ident) == ident else [("ident", a.name_of(a.ident), ident)]
    for table, order, reference in comparisons:
        bad += [(table,) + t for t in golden.compare(a, table, order, reference)]
    return not bad, {"mismatches": bad[:10]}


def run_verification_suite(include_long_running: bool = False,
                           long_node_limit: int | None = None) -> Report:
    if long_node_limit is not None:  # raise a bad budget before any claim runs
        SearchSpec(8, (), node_limit=long_node_limit)
    claims: list[Claim] = []
    models = {mid: build_model(mid) for mid in list_models()}
    # one check_validity per (model object, axiom): every model checked stays
    # alive in ``models`` or ``population``, so no id is reused in a run
    verdicts: dict[tuple[int, str], dict | None] = {}

    def verdict(a, axiom_id):
        key = id(a), axiom_id
        if key not in verdicts:
            verdicts[key] = check_validity(a, axiom_sentence(axiom_id))
        return verdicts[key]

    def run(claim_id, description, kind, check):
        """``check`` returns (verdict, evidence); a None verdict means the
        check did not finish.  A None ``check`` is a long claim left out."""
        if check is None:
            claims.append(Claim(claim_id, description, kind, SKIP, 0.0,
                                {"hint": "rerun with long-running checks enabled"}))
            return
        start = time.perf_counter()
        try:
            ok, evidence = check()
            status = INCONCLUSIVE if ok is None else PASS if ok else FAIL
        except Exception as exc:  # a crashing claim is a failing claim
            status, evidence = FAIL, {"error": f"{type(exc).__name__}: {exc}"}
        claims.append(Claim(claim_id, description, kind, status,
                            time.perf_counter() - start, evidence))

    # (a) golden tables
    for cid, mid, ident, base, comparisons in GOLDEN:
        run(cid, _golden_text(mid, ident, base, comparisons), "table-golden",
            partial(_golden_check, models[mid], ident, comparisons))

    # (b)-(d) independence of each system, and b10's and b5's extra facts
    for cid, mid, sysname, target, kind in INDEPENDENCE:
        run(cid, _independence_text(mid, sysname, target), kind,
            partial(_independence_evidence, verdict, models[mid],
                    SYSTEMS[sysname], target))
    cid, mid, sysname, target, fact = B5_FACT
    run(cid, _independence_text(mid, sysname, target) + fact, "extra-fact",
        partial(b5_fact, verdict, models[mid], SYSTEMS[sysname], target))

    # (e) the stated counterexamples: all in one claim, some also in their own
    for cid, rows in [(WITNESSES_CLAIM, STATED_WITNESSES)] + [
            (row[0], [row]) for row in STATED_WITNESSES if row[0] is not None]:
        run(cid, _witness_text(rows), "extra-fact", partial(_stated_fail, models, rows))

    # (g)-(h) search claims: at each size, the search that holds the system
    # less the target and fails the target finds the required class count
    population: list[tuple[str, FiniteAlgebra]] = sorted(models.items())

    def search_claim(system, target, size, cert, count, node_limit=None):
        """(verdict, evidence) of the claim that the search finds no class
        at each size below ``size`` (``count`` 0) or exactly ``count`` at
        ``size``, and that the certificate is an independence model of
        ``size`` elements, isomorphic to a model found there when ``count``
        is not 0; None when a node budget cuts a search.  The models of
        every finished search join the lemma population."""
        rows = []
        must_hold = tuple(axiom_sentence(i) for i in system if i != target)
        for n in [size] if count else range(1, size):
            spec = SearchSpec(n, must_hold, (axiom_sentence(target),),
                              up_to_iso=True, node_limit=node_limit)
            runner = _search_for(spec)
            skipped = runner is boolean_guided_search and n & (n - 1)
            res = runner(spec)
            rows.append({"size": n, "models": res.iso_class_count,
                         "labeled": res.labeled_count, "exhaustive": res.exhaustive,
                         "skipped": "not a power of two: no Boolean skeleton"
                                    if skipped else None,
                         "nodes": res.nodes_explored, "rechecks": res.rechecks})
            if res.exhaustive:
                population.extend((f"search.{cert}-size{n}.{i}", m)
                                  for i, m in enumerate(res.models))
        a = models[cert]
        certified = (a.size == size and
                     _independence_evidence(verdict, a, system, target)[0] and
                     (not count or any(find_isomorphism(m, a) is not None
                                       for m in res.models)))
        ev = {"sizes": rows, "certificate": cert, "certified": certified}
        if not all(row["exhaustive"] for row in rows):
            ev["resource_abort"] = True
            return None, ev
        return certified and all(row["models"] == count for row in rows), ev

    for cid, sysname, target, size, cert, count, long in SEARCHES:
        run(cid, _search_text(sysname, target, size, cert, count),
            "uniqueness" if count else "minimality",
            None if long and not include_long_running else
            partial(search_claim, SYSTEMS[sysname], target, size, cert, count,
                    long_node_limit if long else None))

    # (f) semantic lemma checks over the catalog plus all searched models
    for cid, hypotheses, conclusions, agree in LEMMAS:
        run(cid, _lemma_text(hypotheses, conclusions, agree), "lemma-semantic",
            partial(_lemma, verdict, population, hypotheses, conclusions, agree))

    claims.sort(key=lambda c: c.claim_id)
    return Report(__version__, claims)
