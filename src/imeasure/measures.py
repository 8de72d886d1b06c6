"""Entropy vectors, the signed atom measure, and checks built on top of it.

The signed measure assigns a value to every atom so that every joint entropy
is recovered by summing the atoms inside the corresponding set union.  Both
directions are subset-lattice transforms over bitmask-indexed numpy arrays:

    measure(atom with complemented mask U) = - sum_{T >= U} (-1)^|T-U| h(T)
    h(B) = (sum over all atoms) - (sum over atoms with complemented mask >= B)

Joint entropies come from one engine, `_lattice_entropies`, which returns the
entropies of a whole interval of the subset lattice: every set `base | S` with
`S` inside `free`.  The full entropy vector is the interval from the empty set,
a single atom query the interval from its complemented set, and one marginal
an interval of one set.  Variables constant on the support are dropped first,
since they change no entropy.  With `s` support rows, `k` free variables and
`C` the product of the alphabet sizes counted on the support, the engine takes
one of two paths:

- dense, when C <= min(DENSE_MAX_CELLS, DENSE_RATIO * s): build the joint
  probability tensor and walk the lattice depth-first, each child marginal one
  axis-sum of its parent, then one star batch per subtree that fits the
  budget: as soon as the star table of a subtree (each droppable axis given
  one more "summed out" slot) holds at most BATCH_CELLS cells, all 2^limit
  entropies of the subtree come from that one table in about 4 limit + 8
  numpy calls.  Memory stays within about twice the joint tensor plus twice
  BATCH_CELLS cells.  Cost: about prod(1 + alphabet) cells per free axis,
  plus a few numpy steps per set walked above the batches (none when the
  root fits).
- sparse, otherwise: partition the support rows by the symbols of the set,
  refining one variable at a time; a row's label becomes the dense rank of
  (label, symbol), found by argsort and run starts, and the marginal weights
  are sums over the runs (`np.add.reduceat`).  Labels stay below `s`, so no
  code overflows however many variables there are.  Label rows of many sets
  are refined together in batches of at most BATCH_CELLS labels.
  Cost: about 2^k s log s.

Tolerances: "vanishes" always means abs(value) <= tol, never a signed test,
and every tol must be a finite number >= 0.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass

import numpy as np

from . import _intake as intake
from ._bits import as_mask, check_var_count, iter_bits, verts_of
from .atoms import Atom, AtomSet, AtomType, FCMI, atom_texts, image_of_fcmi, image_of_partial, type_of_atom
from .graphs import MAX_ATOM_VARS, MAX_VERTICES, Graph, maximal_cliques

PROB_TOL = 1e-12
DEFAULT_TOL = 1e-9
DENSE_MAX_CELLS = 1 << 20      # largest joint tensor of the dense path (8 MB)
DENSE_RATIO = 16               # dense path while cells <= DENSE_RATIO * support rows
BATCH_CELLS = 1 << 16          # star-table cells, or sparse labels, handled by one batch of numpy calls


def _log_base(base) -> float:
    """Natural log of an entropy base, which must be a finite number above 1."""
    return math.log(intake.finite(base, "log base", 1, above=True))


def _store_table(obj, n: int, base, table: np.ndarray, what: str, empty: int, where) -> None:
    """Check and store `n`, `base` and a 2^n-entry float table whose entry `empty` is 0."""
    check_var_count(n, MAX_ATOM_VARS)
    _log_base(base)
    if table.shape != (1 << n,):
        raise ValueError(f"{what} table must have 2^{n} entries")
    obj.n, obj.base, obj.table = n, float(base), table.astype(float)
    obj.table[empty] = 0.0
    intake.check_finite(obj.table, what, where)


def _config_array(configs, n: int) -> np.ndarray:
    """Configurations as an (s, n) int64 array, by one dtype test: bools read as 0 and 1, other non-ints raise."""
    try:
        x = np.array(configs)
    except (ValueError, TypeError, OverflowError):
        x = None
    if x is not None and x.shape == (len(configs), n) and x.dtype.kind in "biu":
        return x.astype(np.int64, copy=False)
    if len(configs) == 0:
        return np.zeros((0, n), dtype=np.int64)
    for i, c in enumerate(configs):
        if not isinstance(c, (list, tuple, np.ndarray)) or len(c) != n:
            raise ValueError(f"configuration {intake.show(c)} in probs row {i} does not have {n} symbols")
    raise ValueError("configuration symbols must be integers below 2**63")


class Distribution:
    """A sparse joint distribution of n finite variables.

    Only the support is stored: `support` is an (s, n) int64 array of distinct
    configurations (0-based symbols) in lexicographic order and `weights` their
    probabilities, all positive; both are read-only.  Probabilities must be
    finite, nonnegative and sum to one within 1e-12.  `probs` gives the same
    data as a configuration -> probability dict.
    """

    __slots__ = ("n", "alphabets", "support", "weights")

    def __init__(self, n: int, alphabets, probs: dict):
        alphabets, ps = list(alphabets), list(probs.values())
        for values, kind, what, noun in ((alphabets, numbers.Integral, "alphabet size", "an integer"),
                                         (ps, numbers.Real, "probability", "a number")):
            bad = {t for t in set(map(type, values)) if issubclass(t, bool) or not issubclass(t, kind)}
            if bad:  # one test per distinct type; numpy scalars are registered numbers and pass
                v = next(v for v in values if type(v) in bad)
                raise ValueError(f"{what} {intake.show(v)} is a {type(v).__name__}, not {noun}")
        self._load(n, alphabets, list(probs), ps)

    @classmethod
    def _from_rows(cls, n: int, alphabets, configs, ps) -> "Distribution":
        d = cls.__new__(cls)
        d._load(n, alphabets, configs, ps)
        return d

    def _load(self, n: int, alphabets, configs, ps) -> None:
        """Validate the rows in one vectorised pass and store the support."""
        check_var_count(n, MAX_VERTICES)
        alphabets = tuple(int(a) for a in alphabets)
        if len(alphabets) != n or any(a < 1 for a in alphabets):
            raise ValueError("alphabets must list one positive size per variable")
        x = _config_array(configs, n)
        try:
            p = np.array(ps, dtype=float)
        except (ValueError, TypeError) as e:
            raise ValueError(f"probabilities must be numbers ({e})") from None
        if p.shape != (len(x),):
            raise ValueError("need one probability per configuration")
        sizes = np.array([min(a, np.iinfo(np.int64).max) for a in alphabets])
        bad = ((x < 0) | (x >= sizes)).any(axis=1)
        if bad.any():
            raise ValueError(f"configuration {tuple(x[bad.argmax()].tolist())} outside the alphabets")
        for flags, what in ((~np.isfinite(p), "non-finite"), (p < -PROB_TOL, "negative")):
            if flags.any():
                i = flags.argmax()
                raise ValueError(f"{what} probability {p[i]} at {tuple(x[i].tolist())}")
        order = np.lexsort(x.T[::-1])  # stable: equal rows keep their input order
        x, p = x[order], p[order]
        dup = (x[1:] == x[:-1]).all(axis=1)
        if dup.any():
            i = dup.argmax()
            raise ValueError(
                f"duplicate configuration {tuple(x[i].tolist())} in probs rows {order[i]} and {order[i + 1]}"
            )
        total = float(p.sum())
        if abs(total - 1.0) > PROB_TOL:
            raise ValueError(f"probabilities sum to {total}, not 1")
        keep = p > 0
        self.n = n
        self.alphabets = alphabets
        self.support = x[keep]
        self.weights = p[keep]
        self.support.flags.writeable = False
        self.weights.flags.writeable = False

    @property
    def probs(self) -> dict[tuple, float]:
        """The support as a new configuration -> probability dict."""
        return dict(zip(map(tuple, self.support.tolist()), self.weights.tolist()))

    def marginal(self, on) -> dict[tuple, float]:
        """Marginal distribution on a vertex set, iterating the support only."""
        m = as_mask(on, self.n)
        idx = [i for i in range(self.n) if (m >> i) & 1]
        out: dict[tuple, float] = {}
        for key, p in zip(map(tuple, self.support[:, idx].tolist()), self.weights.tolist()):
            out[key] = out.get(key, 0.0) + p
        return out

    def to_json(self) -> dict:
        rows = zip(self.support.tolist(), self.weights.tolist())
        return {
            "n": self.n,
            "alphabets": list(self.alphabets),
            "probs": [{"x": x, "p": p} for x, p in rows],
        }

    @classmethod
    def from_json(cls, d: dict) -> "Distribution":
        n, alphabets, probs = intake.fields(d, "distribution JSON", "n", "alphabets", "probs")
        n = intake.var_count(n, MAX_VERTICES)
        if not isinstance(alphabets, list) or not all(type(a) is int for a in alphabets):
            raise ValueError(f"distribution JSON field 'alphabets' must be a list of integers, got {intake.show(alphabets)}")
        configs, ps = intake.columns(probs, "distribution JSON field 'probs'", "x", "p")
        return cls._from_rows(n, alphabets, configs, intake.numbers(ps, "probability", lambda i: f"probs row {i}"))


# -- the lattice entropy engine ----------------------------------------------


def _columns(p: Distribution, mask: int) -> tuple[list[int], list[np.ndarray], list[int]]:
    """Variables of `mask` that vary on the support: their positions within
    the mask (0-based, ascending), columns of symbol ranks, and symbol counts."""
    if mask == 0:
        return [], [], []
    x = p.support[:, [b.bit_length() - 1 for b in iter_bits(mask)]]
    ordered = np.sort(x, axis=0)
    counts = 1 + np.count_nonzero(ordered[1:] != ordered[:-1], axis=0)
    gaps = (ordered[-1] + 1 != counts).tolist()  # some symbols unused: rank the rest
    kept = np.flatnonzero(counts > 1).tolist()
    cols = [np.unique(x[:, j], return_inverse=True)[1] if gaps[j] else x[:, j] for j in kept]
    return kept, cols, counts[kept].tolist()


def _star_entropies(t: np.ndarray, limit: int) -> np.ndarray:
    """Entropies (natural log) of `t` with every subset of its first `limit`
    axes summed out; entry i keeps the axes at the set bits of i.

    The star table gives each of those axes one more slot, at index 0, holding
    the sum over the axis; slots are filled in descending axis order, as the
    walk drops axes, so every cell is the walk's marginal.  p log p is taken
    once over all cells (a zero cell gives 0), the other axes are summed once,
    and each star axis folds into (summed out, kept).
    """
    star = np.zeros(tuple(a + 1 for a in t.shape[:limit]) + t.shape[limit:])
    star[(slice(1, None),) * limit] = t
    for i in reversed(range(limit)):
        lead = (slice(None),) * i
        star[lead + (0,)] = star[lead + (slice(1, None),)].sum(axis=i)
    logs = np.add(star, star == 0, out=np.empty_like(star))  # log 1 = 0 at the zero cells
    star *= np.log(logs, out=logs)
    x = star.reshape(star.shape[:limit] + (-1,)).sum(axis=-1) if limit < star.ndim else star  # else fold in place
    for i in range(limit):
        lead = (slice(None),) * i
        x[lead + (1,)] = x[lead + (slice(1, None),)].sum(axis=i)
        x = x[lead + (slice(2),)]
    return -x.T.ravel()  # axis i to bit i


def _dense_walk(free_cols, base_cols, w: np.ndarray) -> np.ndarray:
    """Entropies (natural log) of base | S for every S within the free columns.

    Builds the joint tensor with the free axes first, then walks the lattice
    depth-first, dropping free axes below the last one dropped, so that each
    set is reached once and each child marginal is one axis-sum of its parent.
    A subtree whose star table fits BATCH_CELLS is finished by one batch.
    """
    cols = list(free_cols) + list(base_cols)
    shape = tuple(int(y.max()) + 1 for y in cols)
    flat = np.ravel_multi_index(cols, shape) if cols else np.zeros(len(w), dtype=np.intp)
    joint = np.bincount(flat, weights=w, minlength=math.prod(shape)).reshape(shape)
    k = len(free_cols)
    out = np.empty(1 << k)

    def walk(t: np.ndarray, limit: int, idx: int) -> None:
        # the subtree's sets differ from idx only in bits below limit, all set in idx
        if math.prod(a + 1 for a in t.shape[:limit]) * math.prod(t.shape[limit:]) <= BATCH_CELLS:
            out[idx + 1 - (1 << limit) : idx + 1] = _star_entropies(t, limit)
            return
        out[idx] = _star_entropies(t, 0)[0]
        for i in range(limit):
            walk(t.sum(axis=i), i, idx ^ (1 << i))

    walk(joint, k, (1 << k) - 1)
    return out


def _refine(labels: np.ndarray, y: np.ndarray, w: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Split every row's partition of the support by one more variable.

    `labels` is (r, s): one row per set, each support row labelled by the dense
    rank of its symbols on that set; `y` holds the new variable's symbol ranks.
    Returns the refined labels and each row's entropy (natural log).
    """
    r, s = labels.shape
    key = labels * s + y  # below s * s
    order = np.argsort(key, axis=1)
    key = np.take_along_axis(key, order, axis=1)
    start = np.ones((r, s), dtype=bool)
    np.not_equal(key[:, 1:], key[:, :-1], out=start[:, 1:])
    refined = np.empty_like(labels)
    np.put_along_axis(refined, order, np.cumsum(start, axis=1) - 1, axis=1)
    runs = np.flatnonzero(start)
    mass = np.add.reduceat(w[order].ravel(), runs)
    ent = -np.add.reduceat(mass * np.log(mass), np.flatnonzero(runs % s == 0))
    return refined, ent


def _sparse_walk(free_cols, base_cols, w: np.ndarray) -> np.ndarray:
    """Entropies (natural log) of base | S for every S within the free columns.

    Starts from the partition by the base columns, doubles a batch of label
    rows breadth-first while it fits BATCH_CELLS, then refines that
    batch depth-first over the remaining free columns.
    """
    labels, ent = np.zeros((1, len(w)), dtype=np.intp), np.zeros(1)
    for y in base_cols:
        labels, ent = _refine(labels, y, w)
    k = len(free_cols)
    j = 0
    while j < k and 2 * labels.size <= BATCH_CELLS:
        more, more_ent = _refine(labels, free_cols[j], w)
        labels, ent = np.concatenate([labels, more]), np.concatenate([ent, more_ent])
        j += 1
    out = np.empty(1 << k)

    def walk(labels: np.ndarray, ent: np.ndarray, first: int, offset: int) -> None:
        out[offset : offset + len(ent)] = ent
        for v in range(first, k):
            walk(*_refine(labels, free_cols[v], w), v + 1, offset | (1 << v))

    walk(labels, ent, j, 0)
    return out


def _lattice_entropies(p: Distribution, base: int, free: int) -> np.ndarray:
    """Entropies (natural log) of base | S for every S within `free`.

    Entry i belongs to the S whose members, listed in ascending order, are
    the free variables at the set bits of i.
    """
    kept, free_cols, free_sizes = _columns(p, free)
    _, base_cols, base_sizes = _columns(p, base)
    cells = math.prod(free_sizes + base_sizes)
    dense = cells <= min(DENSE_MAX_CELLS, DENSE_RATIO * len(p.weights))
    ent = (_dense_walk if dense else _sparse_walk)(free_cols, base_cols, p.weights)
    if base == 0:
        ent[0] = 0.0
    k = free.bit_count()
    if len(kept) < k:  # constant variables: S shares the entropy of its varying part
        weights = [0] * k
        for pos, j in enumerate(kept):
            weights[j] = 1 << pos
        ent = ent[_bit_sums(weights)]
    return ent


def _bit_sums(weights) -> np.ndarray:
    """Entry i is the sum of weights[j] over the set bits j of i, as exact integers.

    With weights 1 << t_j it sends bit j of an index to bit t_j, so one gather
    through it moves a table between two bit layouts.
    """
    out = np.zeros(1, dtype=np.intp)
    for w in weights:
        out = np.concatenate([out, out + w])
    return out


def marginal_entropy(p: Distribution, on, base: float = 2.0) -> float:
    """Entropy of the marginal on a vertex set; empty set gives 0."""
    lb = _log_base(base)
    m = as_mask(on, p.n)
    if m == 0:
        return 0.0
    return float(_lattice_entropies(p, m, 0)[0]) / lb


class EntropyVector:
    """Joint entropies of every nonempty subset, indexed by subset bitmask."""

    __slots__ = ("n", "base", "table")

    def __init__(self, n: int, base: float, table: np.ndarray):
        _store_table(self, n, base, table, "entropy", 0, lambda m: f"subset {','.join(map(str, verts_of(m)))}")

    def h(self, subset) -> float:
        m = as_mask(subset, self.n)
        return float(self.table[m])

    def __eq__(self, other):
        return (
            isinstance(other, EntropyVector)
            and self.n == other.n
            and self.base == other.base
            and np.array_equal(self.table, other.table)
        )

    def allclose(self, other: "EntropyVector", tol: float = DEFAULT_TOL) -> bool:
        return (
            self.n == other.n
            and abs(self.base - other.base) <= tol
            and bool(np.all(np.abs(self.table - other.table) <= tol))
        )

    def to_json(self) -> dict:
        h = {
            ",".join(map(str, verts_of(m))): float(self.table[m])
            for m in range(1, 1 << self.n)
        }
        return {"n": self.n, "base": self.base, "h": h}

    @classmethod
    def from_json(cls, d: dict) -> "EntropyVector":
        return cls(*intake.lattice_table(d, "entropy", "h", "subset", intake.subset_masks, MAX_ATOM_VARS))


class IMeasureVector:
    """The signed measure on atoms, indexed by complemented-variable bitmask."""

    __slots__ = ("n", "base", "table")

    def __init__(self, n: int, base: float, table: np.ndarray):
        # entry -1 belongs to the all-complemented atom, which is empty
        _store_table(self, n, base, table, "measure", -1, lambda c: f"atom {Atom(n, c).to_text()}")

    def value(self, a: Atom) -> float:
        if a.n != self.n:
            raise ValueError("atom over a different variable count")
        return float(self.table[a.complemented])

    def value_at(self, cmask: int) -> float:
        if not 0 <= cmask < (1 << self.n) - 1:
            raise ValueError(f"complemented mask {cmask} out of range")
        return float(self.table[cmask])

    def atoms(self):
        for c in range((1 << self.n) - 1):
            yield Atom(self.n, c), float(self.table[c])

    def to_json(self) -> dict:
        full = (1 << self.n) - 1
        values = (self.table[:full] + 0.0).tolist()  # + 0.0 turns -0.0 into 0.0
        return {"n": self.n, "base": self.base, "values": dict(zip(atom_texts(self.n, range(full)), values))}

    @classmethod
    def from_json(cls, d: dict) -> "IMeasureVector":
        return cls(*intake.lattice_table(d, "measure", "values", "atom", intake.atom_cmasks, MAX_ATOM_VARS))


# -- lattice transforms ------------------------------------------------------


def _superset_sums(values: np.ndarray, n: int, sign: float = 1.0) -> np.ndarray:
    """out[U] = sum over supersets T of U of sign^|T-U| values[T].

    Adding `sign * x` rounds exactly as subtracting x when sign is -1, signed
    zeros included, so the signed form matches a plain subtraction bit for bit.
    """
    out = values.copy()
    idx = np.arange(1 << n)
    for b in range(n):
        bit = 1 << b
        lo = idx[(idx & bit) == 0]
        out[lo] += sign * out[lo | bit]
    return out


def entropy_vector(p: Distribution, base: float = 2.0) -> EntropyVector:
    """All 2^n - 1 marginal entropies of a distribution."""
    check_var_count(p.n, MAX_ATOM_VARS)
    lb = _log_base(base)
    return EntropyVector(p.n, base, _lattice_entropies(p, 0, (1 << p.n) - 1) / lb)


def mu_from_entropy(h: EntropyVector) -> IMeasureVector:
    """The unique signed atom measure consistent with an entropy vector."""
    table = -_superset_sums(h.table, h.n, sign=-1.0)
    return IMeasureVector(h.n, h.base, table)


def entropy_from_mu(mu: IMeasureVector) -> EntropyVector:
    """Rebuild joint entropies by summing atoms inside each set union."""
    z = _superset_sums(mu.table, mu.n)
    table = mu.table.sum() - z
    table[0] = 0.0
    return EntropyVector(mu.n, mu.base, table)


def measure_from_distribution(p: Distribution, base: float = 2.0) -> IMeasureVector:
    """Shortcut: entropy vector then atom measure."""
    return mu_from_entropy(entropy_vector(p, base))


def atom_measure_from_distribution(p: Distribution, a: Atom, base: float = 2.0) -> float:
    """Single atom value straight from the distribution.

    Alternating sum of the 2^weight entropies of the complemented set joined
    with each subset of the plain variables; avoids building the full table,
    so it works beyond the full-enumeration cap.
    """
    if a.n != p.n:
        raise ValueError("atom over a different variable count")
    lb = _log_base(base)
    signs = np.array([-1.0])  # -1 where the plain subset has even size
    for _ in range(a.weight):
        signs = np.concatenate([signs, -signs])
    return float(signs @ _lattice_entropies(p, a.complemented, a.support_mask)) / lb


# -- expressions over the measure --------------------------------------------


def measure_of_groups(mu: IMeasureVector, groups, minus=()) -> float:
    """Measure of (union over each group, intersected across groups) minus a set.

    Sums the atoms whose support touches every group and avoids the subtracted
    set; with singleton groups this evaluates plain intersections.
    """
    n = mu.n
    gmasks = [as_mask(g, n) for g in groups]
    if not gmasks or any(g == 0 for g in gmasks):
        raise ValueError("need at least one nonempty group")
    mmask = as_mask(minus, n)
    for g in gmasks:
        if g & mmask:
            raise ValueError("groups and the subtracted set must be disjoint")
    full = (1 << n) - 1
    acc = 0.0
    for c in range(full):
        support = full & ~c
        if support & mmask:
            continue
        if all(support & g for g in gmasks):
            acc += mu.table[c]
    return float(acc)


def measure_of_expression(mu: IMeasureVector, caps, minus=()) -> float:
    """Measure of the intersection of single set variables minus a set."""
    cmask = as_mask(caps, mu.n)
    return measure_of_groups(mu, [1 << (b.bit_length() - 1) for b in iter_bits(cmask)], minus)


# -- checks -------------------------------------------------------------------


def fcmi_holds(k: FCMI, mu: IMeasureVector, tol: float = DEFAULT_TOL) -> bool:
    """Whether an independency holds under a measure.

    Full statements require every image atom to vanish; partial statements
    require each expanded part to sum to zero within tolerance.
    """
    tol = intake.finite(tol, "tolerance", 0)
    if k.n != mu.n:
        raise ValueError("statement and measure disagree on the variable count")
    if k.is_full:
        return bool((np.abs(mu.table[:-1][image_of_fcmi(k).flags()]) <= tol).all())
    return all(abs(sum(mu.table[c] for c in part.cmasks())) <= tol for part in image_of_partial(k))


@dataclass(frozen=True)
class MrfCheck:
    ok: bool
    violations: tuple[tuple[Atom, float], ...]  # cutset atoms where the measure is nonzero


def check_mrf(mu: IMeasureVector, g: Graph, tol: float = DEFAULT_TOL) -> MrfCheck:
    """Whether the measure vanishes on every atom whose complemented set cuts g."""
    tol = intake.finite(tol, "tolerance", 0)
    if mu.n != g.n:
        raise ValueError("measure and graph disagree on the variable count")
    if g.vmask != (1 << g.n) - 1:
        raise ValueError("field checks need a graph on the full universe; relabel first")
    cut = np.flatnonzero((np.abs(mu.table) > tol) & ~g.connected_table()).tolist()
    bad = tuple((Atom(g.n, c), float(mu.table[c])) for c in cut)
    return MrfCheck(not bad, bad)


def vanishing_atoms(mu: IMeasureVector, tol: float = DEFAULT_TOL) -> AtomSet:
    """Atoms where the measure is zero within tolerance."""
    tol = intake.finite(tol, "tolerance", 0)
    return AtomSet.from_flags(mu.n, np.abs(mu.table[:-1]) <= tol)


@dataclass(frozen=True)
class NonnegativityReport:
    nonneg: bool
    negative_atoms: tuple[tuple[Atom, float], ...]


def nonnegativity_report(mu: IMeasureVector, tol: float = DEFAULT_TOL) -> NonnegativityReport:
    """List the atoms where the measure dips below -tol."""
    tol = intake.finite(tol, "tolerance", 0)
    neg = tuple((Atom(mu.n, c), float(mu.table[c])) for c in np.flatnonzero(mu.table[:-1] < -tol).tolist())
    return NonnegativityReport(not neg, neg)


# -- atom reduction ------------------------------------------------------------


@dataclass(frozen=True)
class Reduction:
    """Result of shrinking a connected atom's support to its essential core.

    `kept` is the set of vertices whose individual removal (on top of the
    atom's complemented set) leaves the graph connected; the atom's value
    equals the measure of the intersection over `kept` minus the complemented
    set whenever the distribution respects the graph.
    """

    atom: Atom
    kept: frozenset[int]

    @property
    def kept_mask(self) -> int:
        return as_mask(self.kept)


def reduce_atom(g: Graph, a: Atom) -> Reduction:
    """Compute the reduction core of a connected (Type I) atom.

    Requires at least two plain variables; rejects atoms whose complemented
    set already cuts the graph.
    """
    if a.n != g.n:
        raise ValueError("atom over a different variable count")
    if type_of_atom(g, a) is not AtomType.TYPE_I:
        raise ValueError("reduction applies to Type I atoms only")
    if a.weight < 2:
        raise ValueError("reduction needs at least two plain variables")
    connected = g.connected_table()
    kept = [k for k in verts_of(a.support_mask) if connected[a.complemented | 1 << (k - 1)]]
    return Reduction(a, frozenset(kept))


def verify_reduction(g: Graph, a: Atom, mu: IMeasureVector, tol: float = 1e-6) -> bool:
    """Check the reduction identity for one atom under a concrete measure."""
    tol = intake.finite(tol, "tolerance", 0)
    red = reduce_atom(g, a)
    lhs = mu.value(a)
    rhs = measure_of_expression(mu, red.kept_mask, a.complemented)
    return abs(lhs - rhs) <= tol


# -- chain inequalities ---------------------------------------------------------


@dataclass(frozen=True)
class ChainInequalityCheck:
    valid: bool
    violating_atom: Atom | None
    witness: "Distribution | None"  # concentrates the measure on the violating atom


def chain_inequality_valid(coeffs: dict[Atom, float]) -> ChainInequalityCheck:
    """Decide whether a linear form over connected chain atoms is always nonnegative.

    Chain fields have nonnegative measure on every connected atom, so
    nonnegative coefficients suffice; and any one negative coefficient is
    refuted by the chain field that loads all the measure onto that atom.
    The witness distribution realizes the refutation on failure.
    """
    if not coeffs:
        return ChainInequalityCheck(True, None, None)
    ns = {a.n for a in coeffs}
    if len(ns) > 1:
        raise ValueError("coefficient atoms disagree on the variable count")
    n = ns.pop()
    chain = Graph.path(n)
    for a in coeffs:
        if type_of_atom(chain, a) is not AtomType.TYPE_I:
            raise ValueError(f"atom {a.to_text()} is not a connected atom of the chain")
    bad = [a for a in sorted(coeffs) if coeffs[a] < 0]
    if not bad:
        return ChainInequalityCheck(True, None, None)
    worst = bad[0]
    from .witnesses import atom_concentrator

    return ChainInequalityCheck(False, worst, atom_concentrator(n, worst.support_mask))


# -- random models ---------------------------------------------------------------


def generate_mrf(g: Graph, seed: int, alphabet: int = 2) -> Distribution:
    """A strictly positive random field respecting a graph.

    Draws one positive potential table per maximal clique and normalizes the
    product over the full configuration space, which satisfies every cutset
    independency of the graph exactly.
    """
    if alphabet < 2:
        raise ValueError("alphabet size must be at least 2")
    if alphabet ** g.n > 1 << 20:
        raise ValueError("configuration space too large for dense generation")
    if g.vmask != (1 << g.n) - 1:
        raise ValueError("random field generation needs a graph on the full universe")
    rng = np.random.default_rng(seed)
    joint = np.ones((alphabet,) * g.n)
    for cmask in maximal_cliques(g):
        # the table lists the clique's configurations with its lowest vertex
        # most significant, which is C order over the clique's axes
        shape = [alphabet if (cmask >> i) & 1 else 1 for i in range(g.n)]
        joint = joint * rng.uniform(0.2, 1.0, size=alphabet ** cmask.bit_count()).reshape(shape)
    configs = np.indices(joint.shape).reshape(g.n, -1).T
    total = sum(joint.ravel().tolist())  # left to right, so seeded fields keep their exact values
    return Distribution._from_rows(g.n, (alphabet,) * g.n, configs, joint.ravel() / total)


# -- subfield restriction ----------------------------------------------------------


def restrict_entropy(h: EntropyVector, keep) -> EntropyVector:
    """Entropy vector of a sub-collection, relabeled to 1..k in ascending order."""
    kept = verts_of(as_mask(keep, h.n))
    if not kept:
        raise ValueError("cannot restrict to an empty collection")
    return EntropyVector(len(kept), h.base, h.table[_bit_sums([1 << (v - 1) for v in kept])])


def prefix_relabel(keep) -> dict[int, int]:
    """Mapping of a vertex subset onto 1..k in ascending order."""
    kept = verts_of(keep) if isinstance(keep, int) else sorted(set(keep))
    return {v: i + 1 for i, v in enumerate(kept)}
