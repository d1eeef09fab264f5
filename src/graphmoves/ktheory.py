"""Integer Smith normal form and the K-theory invariants it yields.

A checked contraction should preserve these invariants, which makes them a
cheap necessary-condition probe: compute before and after, compare.  The
formula used is the standard one for a finite row-finite graph with no sinks:
K0 = coker(A^t - I) and K1 = ker(A^t - I), read off the Smith normal form.

smith_normal_form keeps U and V small for a square nonsingular m, as A^t - I
is for every graph with a finite K0.  Row operations alone bring such an m to
Hermite form H = U m V: a Euclidean pass down each pivot column, chosen to
have the gcd of the whole remaining block, then each entry above a pivot
reduced modulo it (Kannan and Bachem 1979 bound Hermite and Smith forms the
same way).  V is a column permutation up to a few small column combinations,
and U = H V^-1 adj m / det m, read off the adjugate adj m = det m * m^-1.
The pivots are 1 but in a few trailing columns; column operations clear the
unit rows there, and the trailing block of non-unit pivots goes through the
classical elimination below.  U and V stay near det m in bit length when that
block is small; on dense random m it has one column per invariant factor
other than 1, which is one or two columns for most of them.  Singular and
non-square matrices go through the classical elimination alone, around the
least nonzero entry, whose transforms can grow far beyond m.

Every smith_normal_form call re-verifies its own output, so a wrong answer
cannot escape silently: U m V = D by a full integer product, D diagonal with
each entry dividing the next, and U, V unimodular.  For a square m with
d_1 ... d_n nonzero the last follows from |d_1 ... d_n| = |det m|, because
det U det m det V = det D for integer matrices U and V; otherwise both
transform determinants are computed.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import gcd, prod

from .errors import GraphError
from .graph import Graph, out_multiplicity

IntMatrix = tuple[tuple[int, ...], ...]


def _identity(n: int) -> list[list[int]]:
    return [[int(i == j) for j in range(n)] for i in range(n)]


def _mat_mul(a, b) -> list[list[int]]:
    if not a or not b:
        return [[0] * (len(b[0]) if b else 0) for _ in a]
    # a transform is mostly zeros, so each column of b keeps its nonzeros only
    cols = [[(k, x) for k, x in enumerate(col) if x] for col in zip(*b)]
    return [[sum([row[k] * x for k, x in col]) for col in cols] for row in a]


def _det(m) -> int:
    """Bareiss fraction-free determinant; exact over the integers."""
    a = [list(row) for row in m]
    sign, prev = 1, 1
    while len(a) > 1:
        k = next((i for i, row in enumerate(a) if row[0]), None)
        if k is None:
            return 0
        if k:
            a[0], a[k] = a[k], a[0]
            sign = -sign
        top = a[0]
        p = top[0]
        a = [[(x * p - row[0] * y) // prev for x, y in zip(row[1:], top[1:])] for row in a[1:]]
        prev = p
    return sign * a[0][0] if a else 1


def _freeze(m) -> IntMatrix:
    return tuple(tuple(row) for row in m)


def _verify_snf(m: IntMatrix, U, D, V) -> None:
    if _freeze(_mat_mul(_mat_mul(U, [list(r) for r in m]), V)) != _freeze(D):
        raise RuntimeError("SNF self-check failed: U m V != D")
    for i, row in enumerate(D):
        for j, x in enumerate(row):
            if i != j and x != 0:
                raise RuntimeError("SNF self-check failed: D not diagonal")
    diag = [D[i][i] for i in range(min(len(D), len(D[0]) if D else 0))]
    for a, b in zip(diag, diag[1:]):
        if a < 0 or (a == 0 and b != 0) or (a != 0 and b % a != 0):
            raise RuntimeError("SNF self-check failed: divisibility chain broken")
    square = len(m) == (len(m[0]) if m else 0)  # U m V = D checked D's shape
    p = prod(diag) if square else 0
    if p:
        unimodular = abs(p) == abs(_det(m))
    else:
        unimodular = abs(_det(U)) == 1 and abs(_det(V)) == 1
    if not unimodular:
        raise RuntimeError("SNF self-check failed: transform not unimodular")


def _adjugate(m) -> tuple[int, list[list[int]] | None]:
    """(det m, adj m) with m adj = det I, or (0, None) for a singular m.

    Bareiss elimination on [m | I], then fraction-free back substitution;
    every division is exact.  The certificate keeps its own determinant,
    _det, so that it shares no arithmetic with the decomposition.
    """
    n = len(m)
    a = [list(row) + [int(i == j) for j in range(n)] for i, row in enumerate(m)]
    sign, prev = 1, 1
    for k in range(n):
        s = next((i for i in range(k, n) if a[i][k]), None)
        if s is None:
            return 0, None
        if s != k:
            a[k], a[s] = a[s], a[k]
            sign = -sign
        top = a[k]
        p, tail = top[k], top[k + 1:]
        for i in range(k + 1, n):
            row = a[i]
            x = row[k]
            a[i] = row[:k + 1] + [(u * p - x * y) // prev for u, y in zip(row[k + 1:], tail)]
        prev = p
    # back substitution of [T | L] with T upper triangular: X = prev * m^-1
    X = [None] * n
    for k in reversed(range(n)):
        row = a[k]
        acc = [prev * y for y in row[n:]]
        for j in range(k + 1, n):
            if row[j]:
                acc = [u - row[j] * v for u, v in zip(acc, X[j])]
        X[k] = [u // row[k] for u in acc]
    # prev = det(P m) = sign * det m for the row permutation P
    return sign * prev, X if sign == 1 else [[-x for x in row] for row in X]


def _pivot_column(rows) -> tuple[int, list[tuple[int, int]]]:
    """A column j of the nonzero block rows, and the multiples (k, q) of
    column k to add to it so that its gcd becomes the block's gcd.

    Adding nothing is the usual answer.  The combinations keep the pivots 1
    wherever the Smith form allows, and with them the trailing block small.
    """
    gcds = []
    for j in range(len(rows[0])):
        g = gcd(*[row[j] for row in rows])
        if g == 1:
            return j, []
        gcds.append(g)
    block = gcd(*gcds)
    j = min((k for k, g in enumerate(gcds) if g), key=gcds.__getitem__)
    g, col, adds = gcds[j], [row[j] for row in rows], []
    for k, gk in enumerate(gcds):
        target = gcd(g, gk)  # the least gcd a combination of j and k can have
        if target == g:
            continue
        for q in (1, -1, 2, -2, 3, -3):
            trial = [x + q * row[k] for x, row in zip(col, rows)]
            if gcd(*trial) == target:
                col, g = trial, target
                adds.append((k, q))
                break
        if g == block:
            break
    return j, adds


def _echelon(m):
    """(H, V, V^-1, order): upper-triangular H = U m V with H[t][t] > 0 for
    some unimodular U, m nonsingular.

    Row operations only, apart from _pivot_column's combinations: a pivot
    column's entries are reduced modulo the least of them until one is left.
    H is in pivot order: H[t][s] is the entry of row t in column order[s] of
    m V.
    """
    n = len(m)
    rows = [list(row) for row in m]
    V, Vinv = _identity(n), _identity(n)
    cols = list(range(n))
    done, order = [], []
    while rows:
        j, adds = _pivot_column(rows)
        for k, q in adds:
            a, b = cols[j], cols[k]
            for row in rows:
                row[j] += q * row[k]
            for row in V:
                row[a] += q * row[b]
            for row in done:
                row[a] += q * row[b]
            Vinv[b] = [x - q * y for x, y in zip(Vinv[b], Vinv[a])]
        live = [i for i, row in enumerate(rows) if row[j]]
        while len(live) > 1:
            p = min(live, key=lambda i: abs(rows[i][j]))
            top, a = rows[p], rows[p][j]
            rest = [p]
            for i in live:
                if i == p:
                    continue
                q, r = divmod(rows[i][j], a)
                if 2 * abs(r) > abs(a):  # nearest remainder
                    q, r = q + 1, r - a
                rows[i] = [x - q * y for x, y in zip(rows[i], top)]
                if r:
                    rest.append(i)
            live = rest
        row = rows.pop(live[0])
        done.append(dict(zip(cols, row if row[j] > 0 else [-x for x in row])))
        order.append(cols.pop(j))
        for row in rows:
            del row[j]
    H = [[0] * t + [row[c] for c in order[t:]] for t, row in enumerate(done)]
    return H, V, Vinv, order


def _combine(terms, rows) -> list[int]:
    """The sum of c * rows[k] over the pairs (k, c) in terms."""
    out = [0] * len(rows[0])
    for k, c in terms:
        out = [x + c * y for x, y in zip(out, rows[k])]
    return out


def _snf_hermite(det: int, adj, m):
    """(U, D, V) lists for a nonsingular square m, by way of its Hermite form.

    Only H = U m V is computed; U = H V^-1 m^-1 = H V^-1 adj m / det follows.
    """
    H, V, Vinv, order = _echelon(m)
    n = len(H)
    piv = [H[t][t] for t in range(n)]
    # Hermite reduction, bottom row first: every entry above a pivot is
    # brought into [0, pivot).  A finished row is kept as its nonzero entries.
    nonzero = [None] * n
    for r in reversed(range(n)):
        row = H[r]
        for t in range(r + 1, n):
            q = row[t] // piv[t]
            if q:
                for c, x in nonzero[t]:
                    row[c] -= q * x
        nonzero[r] = [(c, x) for c, x in enumerate(row) if x]
    adj_v = [_combine([(k, x) for k, x in enumerate(row) if x], adj) for row in Vinv]  # V^-1 adj m
    U = [[x // det for x in _combine([(order[c], x) for c, x in terms], adj_v)] for terms in nonzero]
    unit = [t for t in range(n) if piv[t] == 1]
    block = [t for t in range(n) if piv[t] != 1]
    for t in unit:
        for c in block:
            x = H[t][c]
            if x:
                a, b = order[c], order[t]
                for row in V:
                    row[a] -= x * row[b]
    UB, DB, VB = _snf_pivoting([[H[r][c] for c in block] for r in block])
    U_out = [U[t] for t in unit] + _mat_mul(UB, [U[r] for r in block])
    V_block = _mat_mul([[row[order[c]] for c in block] for row in V], VB)
    V_out = [[row[order[t]] for t in unit] + vb for row, vb in zip(V, V_block)]
    diag = [1] * len(unit) + [DB[i][i] for i in range(len(block))]
    D = [[x if i == j else 0 for j in range(n)] for i, x in enumerate(diag)]
    return U_out, D, V_out


def _snf_pivoting(A):
    """(U, D, V) lists by elimination around the least nonzero entry.

    Works for any shape and rank, but its transforms can grow far beyond the
    entries of A; smith_normal_form uses it for singular or non-square input
    and for the small trailing block of _snf_hermite.
    """
    A = [list(row) for row in A]
    nr = len(A)
    nc = len(A[0]) if nr else 0
    U = _identity(nr)
    V = _identity(nc)

    def row_add(i, j, q):
        A[i] = [a + q * b for a, b in zip(A[i], A[j])]
        U[i] = [a + q * b for a, b in zip(U[i], U[j])]

    def col_add(i, j, q):
        for row in A:
            row[i] += q * row[j]
        for row in V:
            row[i] += q * row[j]

    t = 0
    while t < min(nr, nc):
        best = None
        for i in range(t, nr):
            for j in range(t, nc):
                if A[i][j] and (best is None or abs(A[i][j]) < abs(A[best[0]][best[1]])):
                    best = (i, j)
        if best is None:
            break
        bi, bj = best
        if bi != t:
            A[bi], A[t] = A[t], A[bi]
            U[bi], U[t] = U[t], U[bi]
        if bj != t:
            for row in A:
                row[bj], row[t] = row[t], row[bj]
            for row in V:
                row[bj], row[t] = row[t], row[bj]
        dirty = False
        for i in range(t + 1, nr):
            if A[i][t]:
                row_add(i, t, -(A[i][t] // A[t][t]))
                dirty = dirty or A[i][t] != 0
        for j in range(t + 1, nc):
            if A[t][j]:
                col_add(j, t, -(A[t][j] // A[t][t]))
                dirty = dirty or A[t][j] != 0
        if dirty:
            continue  # remainders are strictly smaller; re-pick the pivot
        offender = None
        for i in range(t + 1, nr):
            if any(A[i][j] % A[t][t] for j in range(t + 1, nc)):
                offender = i
                break
        if offender is not None:
            row_add(t, offender, 1)
            continue
        if A[t][t] < 0:
            A[t] = [-a for a in A[t]]
            U[t] = [-a for a in U[t]]
        t += 1
    return U, A, V


def smith_normal_form(m: IntMatrix) -> tuple[IntMatrix, IntMatrix, IntMatrix]:
    """Return (U, D, V) with U m V = D in Smith normal form.

    D is diagonal with nonnegative entries, each dividing the next; U and V
    are unimodular.  The identities are re-verified before returning.  For a
    nonsingular square m whose trailing block of non-unit pivots is small,
    the entries of U and V stay near det m in bit length.
    """
    nc = len(m[0]) if m else 0
    if any(len(row) != nc for row in m):
        raise GraphError("BAD_ARGUMENT", "ragged matrix")
    det, adj = _adjugate(m) if len(m) == nc else (0, None)
    snf = _snf_hermite(det, adj, m) if det else _snf_pivoting(m)
    U, D, V = (_freeze(x) for x in snf)
    _verify_snf(m, U, D, V)
    return U, D, V


@dataclass(frozen=True)
class KInvariants:
    """K0 = Z^k0_free_rank + sum Z/d over k0_torsion; K1 = Z^k1_rank."""

    k0_torsion: tuple[int, ...]
    k0_free_rank: int
    k1_rank: int

    def render(self) -> str:
        parts = []
        if self.k0_free_rank == 1:
            parts.append("Z")
        elif self.k0_free_rank > 1:
            parts.append(f"Z^{self.k0_free_rank}")
        parts.extend(f"Z/{d}" for d in self.k0_torsion)
        k0 = " (+) ".join(parts) if parts else "0"
        k1 = "Z" if self.k1_rank == 1 else ("0" if self.k1_rank == 0 else f"Z^{self.k1_rank}")
        return f"K0 = {k0}; K1 = {k1}"

    def to_record(self) -> dict:
        return {
            "k0_torsion": list(self.k0_torsion),
            "k0_free_rank": self.k0_free_rank,
            "k1_rank": self.k1_rank,
        }


def adjacency_matrix(g: Graph) -> tuple[tuple[str, ...], IntMatrix]:
    """Vertex order and the matrix A with A[u][w] = total multiplicity u->w."""
    if g.rays:
        raise GraphError("HAS_RAYS", "adjacency matrix needs a finite graph")
    order = tuple(sorted(g.vertices))
    index = {v: i for i, v in enumerate(order)}
    a = [[0] * len(order) for _ in order]
    for src, dst, m in g.edges:
        if m.is_omega:
            raise GraphError("NOT_ROW_FINITE", f"edge {src} -> {dst} has infinite multiplicity")
        a[index[src]][index[dst]] += m.n
    return order, _freeze(a)


def k_theory(g: Graph) -> KInvariants:
    """K-theory invariants of a finite row-finite graph with no sinks."""
    if g.rays:
        raise GraphError("HAS_RAYS", "k_theory is defined for finite graphs here")
    order, a = adjacency_matrix(g)
    sinks = [v for v in order if out_multiplicity(g, v).n == 0]
    if sinks:
        raise GraphError("HAS_SINKS", "k_theory needs a sink-free graph", sinks=sinks)
    n = len(order)
    m = _freeze([[a[j][i] - int(i == j) for j in range(n)] for i in range(n)])
    _, d, _ = smith_normal_form(m)
    diag = [d[i][i] for i in range(n)]
    zeros = sum(1 for x in diag if x == 0)
    return KInvariants(
        k0_torsion=tuple(x for x in diag if x > 1),
        k0_free_rank=zeros,
        k1_rank=zeros,
    )
