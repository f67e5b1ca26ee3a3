"""Exhaustive search for finite algebras constrained by sentences.

The engine enumerates operation tables cell by cell, deciding every cell
that is neither preset nor derived, and prunes with ground-instance
propagation.  A derived cell is fixed by a held law to the OR of other
cells (a copy, if there is one), and is filled as soon as they are decided.
The free cells are decided in layout order (identity constant, complement,
converse, addition row-major, relative multiplication row-major), except
that relative multiplication goes column by column when each of its derived
cells is the OR of cells in its own column (R8 held without R8p): the
dependencies of a derived cell are then decided one after another.
Each sentence is compiled into a straight-line function over the flat
cell array (``_compile``); regions preset before the search, such as the
guided search's Boolean part, are read as constants and never watched.
An instance, that function with one tuple of element values, is an
integer id into the plan's parallel lists; it is re-checked whenever a
cell it last read changes, and a violated instance cuts the branch.  A
recheck allocates nothing: the checker takes the instance's tuple as one
argument, so no argument tuple is built, and re-subscribes the instance in
place to each cell as it reads it.  A search's plan (``_Plan``) holds its
preset cells, derived rules, decision order, relabelings and root state: the
instances of each sentence's cached checker (``_checker``) evaluated once on
the preset cells, less those that hold there and read no other cell.  A run
starts from a copy of it and evaluates nothing before its first decision;
one problem's labeled and iso runs, and its repeats, share a plan (``_plan``).
A step rechecks each instance at most once: it subscribes with the step's
stamp, and a later changed cell keeps an entry with that stamp unrechecked.
A propagation step stops at its first violated instance, which moves to the
front of its cell's watch so that the next value tried there meets it first;
the front watcher is rechecked before the rest, so a culprit that fails
again stays where it is; the watchers not reached keep their
subscriptions.  No instance is violated before a step, so whether it
fails depends on the new cells alone; but the first violated instance
found is the step's culprit, whose conflict set decides how far the
failure jumps back, so the watch order changes the number of rechecks
and can change the nodes too.  A cell gains a value only
in a step that runs its watchers, so at a leaf every instance's last
evaluation returned True and a propagating search checks nothing there.
Each ``must_fail`` sentence is compiled the same way but never watched,
and refuted during the search, as Mace4 treats negated clauses (McCune,
ANL/MCS-TM-264, 2003).  Every node scans its instances on from where the
parent's scan stopped, past each that holds, and cuts the branch once all
of them hold: a checker answers True or False only once every cell it read
is decided, so every table below would satisfy the sentence.  A violated
instance is a witness for the whole subtree.  At a leaf every cell is
decided, so the same scan is the must-fail verdict.

A failure jumps back over the decisions it does not depend on
(conflict-directed backjumping; Prosser, Computational Intelligence 9(3),
1993).  Each node returns a conflict set, a mask of the decision positions
above it.  A failed step's set is its culprit's: ``blame``, compiled from
the checker's own lines, ORs the plan's mask of every watched cell the
violation read, where a decided cell stands for its position, a derived
cell for its deps' positions and a preset cell for none.  A lex-leader
cut, a must-fail refutation and a leaf stand for every position above
them.  A node returns the union of its failed children's sets less its
own position, and computes no further set once that union holds every
position above it.  When a child's set lacks the node's position, the
failure below holds whatever the node's value: the node returns that set
at once and leaves its other values untried.

A node that tried every value stores the set it returns, unless that set is
empty or holds every position above the node, as a nogood with the decided
values at its positions (dead-end driven learning; Frost and Dechter, AAAI
1994), so that the run never searches that failure again.  A cut, a
refutation and a leaf stand for every position above them, and so does the
set of every node above them, so no cut, refutation or leaf lies below a
stored set's node: each of its values failed on violated must-hold
instances, there or further down, and by induction on the sets each such
failure depends only on the values at the set's positions.  So no table that
agrees with the set there satisfies the must-hold sentences: the nogood
rules out tables, not labelings, and holds whatever the symmetry state and
the must-fail scan.  Before a node tries a value, it tests the nogoods whose
highest position is its own and whose value there is that value; on a match
the value counts as a failed step whose set is the nogood's, which holds
the node's position, and nothing is propagated.  A set a node only passes up
in a jump was stored where it was computed.  A run without propagation fails
no step, so its sets hold every position and it stores nothing.  The nogoods
at each (position, value) form a trie keyed by their cells in decreasing
position, so a test reads only the cells where some nogood still agrees; a
set of more than ``NOGOOD_POSITIONS`` positions is not stored, which bounds
the store (Bayardo and Miranker, AAAI 1996).

Up to isomorphism both searches break symmetry by lex-leader constraints
alone (Crawford, Ginsberg, Luks and Roy, KR 1996): each passes relabelings
that keep its preset part and map every table that follows its derivation
rules to one that does too, and a branch is cut as soon as its decided
cells, read in decision order, are larger than their image under one of
them.  The identity is decided like every other cell, so the comparison
at its cell keeps only the least identity of each orbit.  The lex-least
labeling of every isomorphism class survives, so the counts, which come
from canonical forms, do not change.  ``relalg search`` and the claim suite
run the guided search (``_search_for``) on every problem searched up to
isomorphism that holds R1-R3, and the generic one on any other.

Two references cross-check the engine at tiny sizes: ``naive_enumerate``
shares nothing with it, and a run with ``propagate=False`` shares ``_run``'s
DFS, the derived cells and lex-leader, but no checker.  Both keep a table
only if ``check_validity`` finds it a model (``_is_model``).
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass
from functools import cache, lru_cache, reduce
from itertools import permutations, product

from .algebra import (FiniteAlgebra, automorphism_count, canonical_form,
                      make_algebra)
from .axioms import BOOLEAN, axiom_sentence
from .terms import (Add, Biconditional, Comp, Conv, Equation, IdentConst,
                    Inclusion, Meet, Neg, OneConst, QuasiEquation, Sentence,
                    Var, ZeroConst, check_validity, free_vars)


@dataclass(frozen=True)
class SearchSpec:
    size: int
    must_hold: tuple[Sentence, ...]
    must_fail: tuple[Sentence, ...] = ()
    up_to_iso: bool = False
    node_limit: int | None = None
    propagate: bool = True  # False: the reference run, which compiles nothing

    def __post_init__(self):
        # tuples, so that they hash, as a plan key's sentences must
        object.__setattr__(self, "must_hold", tuple(self.must_hold))
        object.__setattr__(self, "must_fail", tuple(self.must_fail))
        try:  # operator.index neither truncates a float nor parses a string
            object.__setattr__(self, "size", operator.index(self.size))
            if self.node_limit is not None:
                object.__setattr__(self, "node_limit", operator.index(self.node_limit))
        except TypeError:
            raise ValueError("size and node_limit must be integers") from None
        if self.size < 1:
            raise ValueError("size must be at least 1")
        if self.size > 8:
            raise ValueError("search limited to size <= 8")
        if self.node_limit is not None and self.node_limit < 1:
            raise ValueError("node_limit must be at least 1")


@dataclass
class SearchResult:
    models: list[FiniteAlgebra]
    labeled_count: int
    iso_class_count: int
    exhaustive: bool
    nodes_explored: int
    rechecks: int = 0  # instance re-evaluations run by the watchers
    # failed propagation steps per must-hold sentence, aligned with must_hold
    conflicts: tuple[int, ...] = ()
    symmetry_cuts: int = 0  # branches cut by the lex-leader constraints
    refuted: int = 0  # branches cut as a must-fail sentence held on all instances
    # must-hold instances laid out: those that hold on the preset cells and
    # read no other cell are dropped
    instances: int = 0
    backjumps: int = 0  # nodes that returned before trying every value
    values_skipped: int = 0  # the values those nodes left untried
    nogood_prunes: int = 0  # values ruled out by a stored nogood, never tried


# --- cell layout ------------------------------------------------------------
# 0: ident, 1..n: neg, n+1..2n: conv, then add (n*n), then comp (n*n).

def _layout(n):
    """ident, neg0, conv0, add0, comp0 and the number of cells."""
    return 0, 1, 1 + n, 1 + 2 * n, 1 + 2 * n + n * n, 1 + 2 * n + 2 * n * n


def _relabeling(n, perm: tuple):
    """The symmetry that renames each element x to ``perm[x]``: for each
    cell, the cell it is read from, and the map of its value."""
    inv = [0] * n
    for x, y in enumerate(perm):
        inv[y] = x
    ident, neg0, conv0, add0, comp0, _ = _layout(n)
    src = [ident]
    src += [base + inv[x] for base in (neg0, conv0) for x in range(n)]
    src += [base + inv[x] * n + inv[y] for base in (add0, comp0)
            for x in range(n) for y in range(n)]
    return tuple(src), tuple(perm)


def _compile(s: Sentence, n: int, names, folded):
    """Compile ``s`` at size ``n`` into ``check(cells, watch, inst, ver,
    values)`` and ``blame(cells, mask, values)``, two functions from one
    line list, whose first line unpacks the tuple ``values`` into ``names``
    in order.  ``check`` returns True, False, or None on an undecided cell,
    and it is pure, so searches share it through ``_checker``.  It reads
    cells in evaluation order and subscribes ``inst``, an instance id, to
    each as it reads it, the blocking cell included, by ``watch[k][inst] =
    ver``; cells of the regions whose base offset is in ``folded`` never
    change and are neither tested nor watched.  A repeated subterm is
    evaluated once.  A quasi-equation is True at its first false antecedent
    and blocks if any antecedent blocked; a biconditional blocks on its
    left side before evaluating its right.  ``blame`` runs the same lines
    with ``m |= mask[k]`` in place of each subscription and returns ``m``:
    on cells where ``check`` returns False it reads the same cells, so it
    returns the OR of ``mask[k]`` over every watched cell the violation
    read."""
    _, neg0, conv0, add0, comp0, _ = _layout(n)
    args = {name: f"v{i}" for i, name in enumerate(names)}
    lines = [f"    [{', '.join(args.values())}] = values"]
    memo: dict = {}
    indent, block = "    ", "return None"  # what an undecided cell runs
    read = "READ"  # each subscription: ``watch`` in check, ``mask`` in blame

    def emit(line):
        lines.append(indent + line)

    def cell(base, index):
        t = f"t{len(lines)}"
        if base in folded:
            emit(f"{t} = cells[{base} + {index}]")
        else:
            emit(f"k = {base} + {index}")
            emit(f"{read}; {t} = cells[k]")
            emit(f"if {t} is None: {block}")
        return t

    def term(t):
        # 1, 0 and meet are read exactly as their definitions would be
        if type(t) is Var:
            return args[t.name]
        if t not in memo:
            if type(t) is IdentConst:
                memo[t] = cell(0, 0)
            elif type(t) is OneConst:
                memo[t] = term(Add(IdentConst(), Neg(IdentConst())))
            elif type(t) is ZeroConst:
                memo[t] = term(Neg(OneConst()))
            elif type(t) is Meet:
                memo[t] = term(Neg(Add(Neg(t.left), Neg(t.right))))
            elif type(t) in (Neg, Conv):
                memo[t] = cell(neg0 if type(t) is Neg else conv0, term(t.child))
            elif type(t) in (Add, Comp):
                x, y = term(t.left), term(t.right)
                memo[t] = cell(add0 if type(t) is Add else comp0, f"{x} * {n} + {y}")
            else:
                raise TypeError(f"not a term: {t!r}")
        return memo[t]

    def atomic(a):
        if type(a) is Equation:
            return f"{term(a.lhs)} == {term(a.rhs)}"
        if type(a) is Inclusion:  # lhs + rhs = rhs
            return f"{term(Add(a.lhs, a.rhs))} == {term(a.rhs)}"
        raise TypeError(f"not an atomic sentence: {a!r}")

    if type(s) is QuasiEquation:
        emit("blocked = False")
        for a in s.antecedents:
            # a one-pass loop, left by ``break`` when the antecedent blocks;
            # its subterms are not reused, since it may not have finished
            memo.clear()
            emit("while True:")
            indent, block = "        ", "blocked = True; break"
            emit(f"if not ({atomic(a)}): return True")
            emit("break")
            indent, block = "    ", "return None"
        memo.clear()
        emit("if blocked: return None")
        emit(f"return {atomic(s.consequent)}")
    elif type(s) is Biconditional:
        left = atomic(s.left)
        emit(f"return ({left}) == ({atomic(s.right)})")
    elif type(s) in (Equation, Inclusion):
        emit(f"return {atomic(s)}")
    else:
        raise TypeError(f"not a sentence: {s!r}")
    # the verdict is the last line; blame returns its mask there instead
    check = ["def check(cells, watch, inst, ver, values):", *lines]
    blame = ["def blame(cells, mask, values):", "    m = 0", *lines[:-1],
             "    return m"]
    namespace: dict = {}
    exec("\n".join(check).replace(read, "watch[k][inst] = ver"), namespace)
    exec("\n".join(blame).replace(read, "m |= mask[k]"), namespace)
    return namespace["check"], namespace["blame"]


@cache
def _checker(s: Sentence, n: int, preset: tuple):
    """``s`` compiled at size ``n`` and evaluated once on ``preset``, a
    plan's preset cells.  Returns the checker and its blame (``_compile``),
    which read the regions that ``preset`` fully decides as constants;
    whether some instance is violated; the values of its instances, every
    assignment of
    elements to its free variables in order, less those that hold and
    subscribe nowhere (they read only preset cells, so they hold in every
    table); and, for each cell that some instance subscribed to, the
    positions of those instances in the kept values, in order.  A false
    instance that subscribes nowhere is kept: for a must-fail sentence it
    is a witness.  Computed once per process for each key; every part is
    immutable, so searches share them."""
    names = sorted(free_vars(s))
    regions = zip(_layout(n)[:-1], (1, n, n, n * n, n * n))
    folded = frozenset(base for base, size in regions
                       if None not in preset[base:base + size])
    check, blame = _compile(s, n, names, folded)
    values = list(product(range(n), repeat=len(names)))
    watch = [{} for _ in preset]  # records each subscription, by position
    verdicts = [check(preset, watch, i, 0, v) for i, v in enumerate(values)]
    subscribed = set().union(*watch)
    kept = [i for i, held in enumerate(verdicts)
            if held is not True or i in subscribed]
    position = {i: j for j, i in enumerate(kept)}
    watchers = tuple((c, tuple(position[i] for i in w))
                     for c, w in enumerate(watch) if w)
    return (check, blame, False in verdicts, tuple(values[i] for i in kept),
            watchers)


class _Plan:
    """What every search of one problem shares, never changed once built:
    the preset cells, derived rules and relabelings ``rules(n, must_hold)``
    returns, the decision order, the relabelings' image sources over it
    (only an iso run reads them), and the root state: the must-hold instances
    ``_checker`` keeps, as ids into parallel lists, each subscribed at
    version 0 to the cells it read, in id order; the kept must-fail
    instances; whether something is already violated.  For conflict-directed
    backjumping, each cell's mask of decision positions: bit p for the
    variable at position p, the OR of its deps' masks for a derived cell, 0
    for a preset cell.  Without propagation the root state is empty and
    nothing is compiled."""

    def __init__(self, n, must_hold, must_fail, propagate, rules):
        self.n = n
        (self.ident_cell, self.neg0, self.conv0,
         self.add0, self.comp0, self.total) = _layout(n)
        preset, self.derived, relabelings = rules(n, must_hold)
        self.cells: list[int | None] = [None] * self.total
        for c, value in preset:
            self.cells[c] = value
        # derived_by_dep[d]: the (target, deps) with d in deps; target = OR of deps
        self.derived_by_dep: dict[int, list] = {}
        for target, deps in self.derived:
            for d in deps:
                self.derived_by_dep.setdefault(d, []).append((target, deps))
        self.variables = self.decision_cells()
        self.masks = self.position_masks()
        # per relabeling: (image sources, value map, next position), for lex_leader
        self.tied = tuple((tuple(src[v] for v in self.variables), vmap, 0)
                          for src, vmap in relabelings)
        # must-hold instance i: its checker, blame, variable values and
        # sentence index
        self.checks, self.blames, self.values, self.owner = [], [], [], []
        # watch[c]: instance -> stamp of the subscription that read cell c
        self.watch: list[dict] = [{} for _ in range(self.total)]
        # per must-fail sentence: its checker and the values of its instances
        self.refuters: list[tuple] = []
        self.violated = False
        if not propagate:
            return
        preset = tuple(self.cells)
        for i, s in enumerate(must_hold):
            check, blame, violated, values, watchers = _checker(s, n, preset)
            base = len(self.checks)
            self.checks += [check] * len(values)
            self.blames += [blame] * len(values)
            self.values += values
            self.owner += [i] * len(values)
            for c, positions in watchers:
                self.watch[c].update((base + j, 0) for j in positions)
            self.violated = self.violated or violated
        self.refuters = [_checker(s, n, preset)[::3] for s in must_fail]

    def decision_cells(self):
        """Every cell neither preset nor derived, in layout order, except
        that comp is decided column by column when each derived comp cell is
        the OR of cells in its own column (R8 without R8p): a derived
        column then completes as soon as its free rows are decided, and the
        instances that read it wake early."""
        n, comp0 = self.n, self.comp0
        derived = {t for t, _ in self.derived}
        free = [c for c in range(self.total)
                if self.cells[c] is None and c not in derived]
        comp_rules = [(t, deps) for t, deps in self.derived if t >= comp0]
        if comp_rules and all((d - t) % n == 0
                              for t, deps in comp_rules for d in deps):
            # a stable sort: within a column the rows keep their order
            comp = sorted((c for c in free if c >= comp0),
                          key=lambda c: (c - comp0) % n)
            free = [c for c in free if c < comp0] + comp
        return free

    def position_masks(self):
        """Each cell's mask of the decision positions it depends on."""
        position = {c: p for p, c in enumerate(self.variables)}
        rules = dict(self.derived)

        def mask(c):
            if c in rules:
                return reduce(operator.or_, map(mask, rules[c]))
            return 1 << position[c] if c in position else 0
        return [mask(c) for c in range(self.total)]


# the most positions a stored nogood may have.  On the Tarski - R9 size-8
# tree, 8 gives 298,847 nodes and 10 gives 235,838 in less time; above 10
# the run is no faster, and unbounded it stores 356 MB against 87 MB
NOGOOD_POSITIONS = 10


# each problem's plan, keyed by (size, must_hold, must_fail, propagate,
# rules), shared by its labeled and iso runs and by repeats in one process;
# a size-8 plan holds about 120 KB, the suite builds 15 (17 with --long)
_plan = lru_cache(maxsize=32)(_Plan)


class _Engine:
    """One search's state: a copy of its plan's cells and watch dicts, the
    instances' versions at 0 and zeroed counters; the rest is the plan's,
    read-only.  Backtracking with watch-list propagation."""

    def __init__(self, plan: _Plan, sentences: int):
        self.plan = plan
        self.cells = list(plan.cells)
        self.watch = [w.copy() for w in plan.watch]
        # per must-hold instance: the stamp of the step that last rechecked it
        self.version = [0] * len(plan.checks)
        self.checks, self.values, self.owner = plan.checks, plan.values, plan.owner
        self.blames, self.masks = plan.blames, plan.masks
        self.refuters, self.derived_by_dep = plan.refuters, plan.derived_by_dep
        self.sink: list[dict] = [{}] * plan.total  # what must-fail checkers watch
        self.stamp = 0  # counts the propagation steps
        self.rechecks = 0
        self.refuted = 0  # scans that found a must-fail sentence holding
        self.conflicts = [0] * sentences  # failed steps per must-hold sentence
        # nogoods[p][v]: the trie of the nogoods whose highest position is p,
        # with value v there (``learn``), or a set that is p alone
        self.nogoods: list[dict] = [{} for _ in plan.variables]

    def refute(self, resume):
        """Scan each must-fail sentence's instances from its index in
        ``resume``: past each that holds, up to the first undecided one, or
        to a violated one, a witness, after which the sentence is skipped
        (index None).  Returns the new indexes, or None, counted in
        ``refuted``, when some sentence holds on every instance.  A checker
        answers only once every cell it read is decided, so its verdict
        holds in the whole subtree.  It subscribes to ``sink``, one
        throwaway dict, never to ``watch``, whose rechecks would count a
        False as a conflict."""
        cells, sink = self.cells, self.sink
        out = []
        for (check, values), i in zip(self.refuters, resume):
            if i is not None:
                while i < len(values):
                    held = check(cells, sink, None, 0, values[i])
                    if held is not True:
                        break
                    i += 1
                else:
                    self.refuted += 1
                    return None
                if held is False:
                    i = None
            out.append(i)
        return out

    def set_cell(self, cell, value, trail):
        """Assign a cell, fill any now-determined derived cells, and run the
        watchers of everything that changed, each instance at most once.
        Returns None, or the first violated instance, the culprit, counted as
        its sentence's conflict and moved to the front of the cell's watch;
        the watchers not reached stay subscribed for after the undo.  A cell's
        front watcher, often the last culprit there, is rechecked before its
        watch is swapped for a fresh dict, so a repeated culprit fails in
        place, with no rebuild."""
        cells, watch, derived_by_dep = self.cells, self.watch, self.derived_by_dep
        queue = [cell]
        cells[cell] = value
        trail.append(cell)
        for c in queue:  # a list iterator also reaches the targets appended
            for target, deps in derived_by_dep.get(c, ()):
                acc = 0
                for d in deps:
                    v = cells[d]
                    if v is None:
                        acc = None
                        break
                    acc |= v
                if acc is not None:
                    cells[target] = acc
                    trail.append(target)
                    queue.append(target)
        checks, values, version = self.checks, self.values, self.version
        self.stamp = stamp = self.stamp + 1
        rechecks = 0
        for c in queue:
            watchers = watch[c]
            if not watchers:
                continue
            inst = next(iter(watchers))
            if watchers[inst] == version[inst] != stamp:
                version[inst] = stamp
                rechecks += 1
                if checks[inst](cells, watch, inst, stamp, values[inst]) is False:
                    # the order a rebuild would give; the stamp is set even
                    # if the check, through a derived cell, did not read c
                    watchers[inst] = stamp
                    self.rechecks += rechecks
                    self.conflicts[self.owner[inst]] += 1
                    return inst
            watch[c] = kept = {}
            entries = iter(watchers.items())
            for inst, ver in entries:
                if ver != version[inst]:
                    continue
                if ver == stamp:  # rechecked at an earlier cell of this step
                    kept[inst] = stamp
                    continue
                version[inst] = stamp
                rechecks += 1
                if checks[inst](cells, watch, inst, stamp, values[inst]) is False:
                    # the culprit first, then the watchers rechecked before
                    # it, then those not reached with their old subscriptions
                    fresh = {inst: stamp}
                    fresh.update(kept)
                    fresh.update(entries)
                    watch[c] = fresh
                    self.rechecks += rechecks
                    self.conflicts[self.owner[inst]] += 1
                    return inst
        self.rechecks += rechecks
        return None

    def blame(self, culprit):
        """The decision positions the violation of ``culprit``, a failed
        step's culprit, depends on: the OR of the masks of the cells its
        check read.  Called before the step is undone."""
        return self.blames[culprit](self.cells, self.masks, self.values[culprit])

    def learn(self, found):
        """Store ``found``, a conflict set that rules out tables, with the
        decided values at its positions, in the trie at its highest position
        and the value there: each level keys one cell of the set, in
        decreasing position, then its value, and the leaf is the set.  A
        path through a leaf already stored has a subset of its positions and
        rules out more, so the set is dropped; a new leaf replaces the
        longer paths below it."""
        if found.bit_count() > NOGOOD_POSITIONS:
            return
        cells, variables = self.cells, self.plan.variables
        top = found.bit_length() - 1
        level, key = self.nogoods[top], cells[variables[top]]
        rest = found ^ (1 << top)
        while rest:
            trie = level.get(key)
            if type(trie) is int:
                return
            if trie is None:
                trie = level[key] = {}
            p = rest.bit_length() - 1
            rest ^= 1 << p
            level = trie.setdefault(variables[p], {})
            key = cells[variables[p]]
        if type(level.get(key)) is not int:
            level[key] = found

    def ruled_out(self, trie):
        """The set of a nogood stored in ``trie`` whose values the decided
        cells match, or 0."""
        if type(trie) is int:
            return trie
        cells, tries = self.cells, [trie]
        for trie in tries:  # a list iterator also reaches the tries appended
            for c, branches in trie.items():
                below = branches.get(cells[c])
                if below is not None:
                    if type(below) is int:
                        return below
                    tries.append(below)
        return 0

    def undo(self, trail):
        cells = self.cells
        for c in trail:
            cells[c] = None

    def snapshot(self) -> FiniteAlgebra:
        p, cells = self.plan, self.cells
        n = p.n
        add = [[cells[p.add0 + i * n + j] for j in range(n)] for i in range(n)]
        comp = [[cells[p.comp0 + i * n + j] for j in range(n)] for i in range(n)]
        neg = [cells[p.neg0 + i] for i in range(n)]
        conv = [cells[p.conv0 + i] for i in range(n)]
        return make_algebra(n, add, neg, comp, conv, cells[p.ident_cell])


def _run(spec: SearchSpec, plan: _Plan) -> SearchResult:
    """DFS over the plan's decision cells, each over every element, from a
    fresh copy of its root state (``_Engine``), which leaves the plan as it
    was; collect complete tables that satisfy must_hold and falsify every
    must_fail sentence.

    Each node carries one resume index per must-fail sentence down the
    tree: ``eng.refute`` scans on from it and cuts the branch once a
    sentence holds on every instance, since every table below would
    satisfy it; at a leaf, where every cell is decided, the same scan is
    the must-fail verdict.  Without propagation nothing is laid out or
    scanned, and a leaf is kept only if ``_is_model`` accepts it.

    Both counts come from the leaves' canonical forms: iso_class_count is
    the number of distinct forms and labeled_count the orbit sum n!/|Aut|
    over them, so they count every labeling even when the search fixed
    part of the tables (a run cut short by its node budget counts the
    classes it reached).

    With ``up_to_iso`` the plan's relabelings must each keep the preset
    cells and map every table that satisfies its derivation rules to one
    that satisfies them too; a derived cell may be carried onto a decided
    one.  The derived cells are functions of the decided ones, so the
    decided cells, read in decision order, order the tables of the search,
    and every image of one of them is one of them.  A branch is cut at the
    first decided position where a variable is larger than its image; so
    the lex-least labeling of every class, which is never larger than an
    image, is kept, and at the identity cell, decided first, only the least
    identity of each orbit survives.  A labeled run, which must reach every
    labeling, shares the plan but compares with none of them.

    ``dfs`` returns each node's conflict set (module docstring).  A set
    without the node's position means that no model agrees with the
    decided cells on the set's positions, whatever the node's value, so
    the values left untried hold no model; a cut, a refutation and a leaf
    return every position above them, so no node jumps over a model, a
    lex-least labeling or a symmetry that cut.  A failed step's set always
    holds the node's position, since its culprit read a cell the step
    set, so it is not tested for a jump.  ``backjumps`` counts the nodes
    that returned early and ``values_skipped`` the values they left.  A
    node that tried every value and returns a nonempty set without every
    position above it stores that set (``eng.learn``), and a value that
    matches a stored nogood is not tried, counted in ``nogood_prunes``; a
    nogood's set holds no cut, refutation or leaf, so this too never skips
    a model, a lex-least labeling or a symmetry that cut."""
    n = spec.size
    if plan.violated:
        return SearchResult([], 0, 0, True, 0, 0, (0,) * len(spec.must_hold),
                            instances=len(plan.checks))
    eng = _Engine(plan, len(spec.must_hold))
    variables = plan.variables
    models: list[FiniteAlgebra] = []
    seen_forms: dict[bytes, FiniteAlgebra] = {}
    nodes = cuts = 0
    exhausted = True

    def accept(resume):
        if eng.refute(resume) is None:
            return
        alg = eng.snapshot()
        if not (spec.propagate or _is_model(alg, spec)):
            return
        seen_forms.setdefault(canonical_form(alg), alg)
        if not spec.up_to_iso:
            models.append(alg)

    def lex_leader(depth, tied):
        """The symmetries still tied once ``variables[:depth + 1]`` are
        decided, each as (image sources, value map, first position not yet
        compared); None if the decided cells exceed one's image.  A
        symmetry stays at a position whose image is undecided and drops
        out at a position where the cells are smaller than their image."""
        cells = eng.cells
        still = []
        for src, vmap, i in tied:
            while i <= depth and cells[src[i]] is not None:
                x, y = cells[variables[i]], vmap[cells[src[i]]]
                if x != y:
                    break
                i += 1
            else:
                still.append((src, vmap, i))
                continue
            if x > y:
                return None
        return still

    limit = spec.node_limit
    blame, learn, ruled_out = eng.blame, eng.learn, eng.ruled_out
    nogoods = eng.nogoods
    backjumps = skipped = prunes = 0

    def dfs(depth, tied, resume):
        """Search below a node at ``depth``; returns its conflict set, a mask
        of the positions above it (bit p for ``variables[p]``)."""
        nonlocal nodes, cuts, exhausted, backjumps, skipped, prunes
        nodes += 1
        above = (1 << depth) - 1
        if limit is not None and nodes > limit:
            exhausted = False
            return above
        if depth == len(variables):
            accept(resume)
            return above
        resume = eng.refute(resume)
        if resume is None:
            return above
        cell, own = variables[depth], 1 << depth
        full = above | own
        conflict = own  # the union of the failed children's sets
        stored = nogoods[depth]
        for value in range(n):
            if stored and value in stored:
                found = ruled_out(stored[value])
                if found:
                    prunes += 1
                    conflict |= found
                    continue
            trail: list[int] = []
            culprit = eng.set_cell(cell, value, trail)
            if culprit is None:
                below = lex_leader(depth, tied)
                if below is None:
                    cuts += 1
                    conflict = full
                else:
                    found = dfs(depth + 1, below, resume)
                    if not found & own:
                        # the failure below holds whatever this cell's value
                        eng.undo(trail)
                        backjumps += 1
                        skipped += n - 1 - value
                        return found
                    conflict |= found
            elif conflict != full:  # else no set can add to it
                conflict |= blame(culprit)
            eng.undo(trail)
            if not exhausted:
                return full
        if conflict != full and conflict != own:
            learn(conflict ^ own)
        return conflict ^ own

    dfs(0, plan.tied if spec.up_to_iso else (), [0] * len(spec.must_fail))
    # dfs refers to itself, so the run's state waits for a full collection;
    # the nogoods, often most of it, are freed now
    nogoods.clear()

    if spec.up_to_iso:
        models = [alg for _, alg in sorted(seen_forms.items())]
    labeled = sum(math.factorial(n) // automorphism_count(m) for m in seen_forms.values())
    return SearchResult(models, labeled, len(seen_forms), exhausted, nodes,
                        eng.rechecks, tuple(eng.conflicts), cuts,
                        eng.refuted, len(plan.checks), backjumps, skipped,
                        prunes)


def search(spec: SearchSpec) -> SearchResult:
    """Generic cell-by-cell search; the identity is decided like every
    other cell.  With R1 held, add[j][i] is derived from add[i][j] for
    i < j, a copy.  With ``up_to_iso`` the adjacent transpositions of all
    the elements break symmetry, so lex-leader keeps identity 0 alone (the
    swap of v - 1 and v cuts an identity v > 0), and leaves are
    deduplicated by canonical form.  A transposition may carry a decided
    add cell onto a derived one, but it maps commutative tables to
    commutative tables, which is what lex-leader needs of it."""
    return _run(spec, _plan(spec.size, spec.must_hold, spec.must_fail,
                            spec.propagate, _generic_rules))


def _generic_rules(n, must_hold):
    """No cell preset; R1's copies; the adjacent transpositions."""
    add0, derived = _layout(n)[3], []
    if axiom_sentence("R1") in must_hold:
        derived = [(add0 + j * n + i, (add0 + i * n + j,))
                   for i in range(n) for j in range(i + 1, n)]
    return (), derived, [_relabeling(n, (*range(i), i + 1, i, *range(i + 2, n)))
                         for i in range(n - 1)]


def boolean_guided_search(spec: SearchSpec) -> SearchResult:
    """Search exploiting that R1-R3 force a Boolean skeleton; ``_search_for``
    picks it for every problem searched up to isomorphism that holds them.

    Sizes that are not powers of two are immediately empty.  Otherwise the
    Boolean part is fixed to the bitmask algebra (the unique Boolean algebra
    of that size up to isomorphism) and only comp, conv, and ident are
    enumerated.  Without ``up_to_iso``, ``models`` holds only the labelings
    with that bitmask Boolean part, while ``labeled_count`` counts every
    labeling by orbit sums.  One additive rule derives cells: the cell at a
    composite x is the OR of the cells at the atoms of x, in each column of
    comp with R8 held, in each row with R8p, and in conv with R9.  With
    both R8 and R8p, R8p derives only the rows R8 leaves free, 0 and the
    atoms, so comp is decided on {0, atoms}^2 alone.  The other cells of
    ident, conv and comp are decided in layout order, the identity like
    every other cell, except that with R8 held without R8p comp goes
    column by column.  With ``up_to_iso`` the atom permutations break
    symmetry, and lex-leader keeps the least identity of each orbit: the
    least mask of each atom count (0, 1, 3, 7, ...).  They map atoms to
    atoms and composites to composites, so they keep every rule.
    """
    if any(axiom_sentence(i) not in spec.must_hold for i in BOOLEAN):
        raise ValueError("boolean_guided_search needs R1, R2, R3 in must_hold")
    n = spec.size
    if n & (n - 1):
        return SearchResult([], 0, 0, True, 0, 0, (0,) * len(spec.must_hold))
    return _run(spec, _plan(spec.size, spec.must_hold, spec.must_fail,
                            spec.propagate, _guided_rules))


def _guided_rules(n, must_hold):
    """The bitmask Boolean part; the additive rule; the atoms' symmetries."""
    _, neg0, conv0, add0, comp0, _ = _layout(n)
    preset = [(neg0 + i, i ^ (n - 1)) for i in range(n)]
    preset += [(add0 + i * n + j, i | j) for i in range(n) for j in range(n)]
    atoms = [1 << b for b in range((n - 1).bit_length())]
    r8 = axiom_sentence("R8") in must_hold
    r8p = axiom_sentence("R8p") in must_hold
    # the additive lines (base, step): in each, the cell base + x * step at
    # a composite x is the OR of the cells at the atoms of x.  R8 rules each
    # column of comp, R8p each row R8 leaves free, R9 conv
    lines = [(comp0 + j, n) for j in range(n) if r8]
    lines += [(comp0 + i * n, 1) for i in range(n)
              if r8p and not (r8 and i & (i - 1))]
    if axiom_sentence("R9") in must_hold:
        lines.append((conv0, 1))
    derived = [(base + x * step, tuple(base + p * step for p in atoms if x & p))
               for base, step in lines for x in range(n) if x & (x - 1)]
    return preset, derived, _atom_relabelings(n)


def _atom_relabelings(n):
    """The relabelings by the nontrivial permutations of the atoms of the
    bitmask Boolean algebra, extended by OR over atoms: every automorphism
    of the Boolean part but the identity.  Built once per plan."""
    k = (n - 1).bit_length()
    perms = [tuple(sum(1 << images[b] for b in range(k) if x >> b & 1)
                   for x in range(n)) for images in permutations(range(k))]
    return tuple(_relabeling(n, p) for p in perms[1:])  # the identity comes first


def _is_model(alg: FiniteAlgebra, spec: SearchSpec) -> bool:
    """Whether ``check_validity`` finds every must-hold sentence of ``spec``
    true in ``alg`` and every must-fail sentence false."""
    return (all(check_validity(alg, s) is None for s in spec.must_hold)
            and all(check_validity(alg, s) is not None for s in spec.must_fail))


def naive_enumerate(spec: SearchSpec) -> SearchResult:
    """Brute-force oracle: materialize every labeled structure of the given
    size and test the sentences directly.  Sizes above 2 are refused: size
    3 alone has 3^25 structures."""
    n = spec.size
    if n > 2:
        raise ValueError("naive_enumerate limited to size <= 2")
    models = []
    vectors = list(product(range(n), repeat=n))
    matrices = list(product(vectors, repeat=n))
    tables = len(matrices) ** 2 * len(vectors) ** 2 * n  # every one is examined
    for add in matrices:
        for neg in vectors:
            for comp in matrices:
                for conv in vectors:
                    for ident in range(n):
                        alg = make_algebra(n, add, neg, comp, conv, ident)
                        if _is_model(alg, spec):
                            models.append(alg)
    iso = len({canonical_form(m) for m in models})
    return SearchResult(models, len(models), iso, True, tables)


# --- the search a problem goes to -----------------------------------------

def _search_for(spec: SearchSpec):
    """The search ``spec`` goes to, for ``relalg search`` and every search
    claim: ``boolean_guided_search`` when it is searched up to isomorphism
    and holds R1-R3, else ``search``.  A labeled run stays generic, since
    the guided search's ``models`` lists only the bitmask labelings."""
    guided = spec.up_to_iso and all(axiom_sentence(i) in spec.must_hold
                                    for i in BOOLEAN)
    return boolean_guided_search if guided else search
