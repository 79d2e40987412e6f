"""Permutation modular invariants of multiple products of a category.

A permutation pi of n factors yields a matrix Z[pi] on the label set of
the n-fold product, nonzero exactly where the row multi-index equals the
permuted column multi-index.  Z[pi] commutes with the product S and T
matrices, has vacuum entry 1, and pi -> Z[pi] is a group homomorphism.
Z[pi] is assembled from adjacent transpositions so that the homomorphism
property is exercised rather than assumed.
"""

from __future__ import annotations

import itertools
import re

import numpy as np

from .category import CategorySpec, ModularDatum
from .deligne import MAX_PRODUCT_RANK
from .errors import RankOverflow, ShapeMismatch
from .report import VerificationReport, max_dev


def transposition_invariant(rank: int) -> np.ndarray:
    """Z for the swap of two factors: Z[(i,j),(k,l)] = delta_il delta_jk."""
    z = np.zeros((rank * rank, rank * rank), dtype=np.int64)
    for i in range(rank):
        for j in range(rank):
            z[i * rank + j, j * rank + i] = 1
    return z


def permutation_pattern(rank: int, perm) -> np.ndarray:
    """Direct route: Z[I,J] = prod_a delta(i_perm(a), j_a), so that
    Z[p] Z[q] = Z[p o q]."""
    n = len(perm)
    size = rank ** n
    z = np.zeros((size, size), dtype=np.int64)
    for row in range(size):
        digits = np.base_repr(row, rank).zfill(n) if rank > 1 else "0" * n
        idx = [int(c, rank) for c in digits] if rank > 1 else [0] * n
        col = 0
        for a in range(n):
            col = col * rank + idx[perm[a]]
        z[row, col] = 1
    return z


def adjacent_decomposition(perm) -> list[int]:
    """Positions p such that swapping (p, p+1) left to right realizes the
    permutation; plain bubble sort."""
    target = list(perm)
    n = len(target)
    swaps = []
    arr = list(range(n))
    # sort arr into target by adjacent swaps, recording them
    for pos in range(n):
        j = arr.index(target[pos])
        while j > pos:
            arr[j - 1], arr[j] = arr[j], arr[j - 1]
            swaps.append(j - 1)
            j -= 1
    return swaps


def _elementary(rank: int, n: int, p: int) -> np.ndarray:
    left = np.eye(rank ** p, dtype=np.int64)
    right = np.eye(rank ** (n - p - 2), dtype=np.int64)
    return np.kron(np.kron(left, transposition_invariant(rank)), right)


def permutation_invariant(rank: int, perm) -> np.ndarray:
    """Z[pi] on the n-fold product, built as a product of adjacent
    transposition invariants."""
    n = len(perm)
    if sorted(perm) != list(range(n)):
        raise ValueError(f"not a permutation of 0..{n - 1}: {perm}")
    if rank ** n > MAX_PRODUCT_RANK:
        raise RankOverflow(
            f"rank {rank}^{n} exceeds the product bound {MAX_PRODUCT_RANK}")
    z = np.eye(rank ** n, dtype=np.int64)
    for p in adjacent_decomposition(perm):
        z = z @ _elementary(rank, n, p)
    return z


_CYCLE_PATTERN = re.compile(r"\(([^()]*)\)")


def parse_cycles(text: str, n: int | None = None):
    """Permutation from cycle notation with 1-based entries, e.g.
    "(1 2)(3)"; fixed points may be omitted when n is given."""
    text = text.strip()
    if not text:
        raise ValueError("empty permutation")
    chunks = _CYCLE_PATTERN.findall(text)
    if _CYCLE_PATTERN.sub("", text).strip():
        raise ValueError(f"malformed cycle notation: {text!r}")
    entries = []
    cycles = []
    for chunk in chunks:
        cyc = [int(tok) for tok in re.split(r"[,\s]+", chunk.strip()) if tok]
        if not cyc:
            continue
        cycles.append(cyc)
        entries.extend(cyc)
    if not entries:
        raise ValueError(f"no cycles in {text!r}")
    if min(entries) < 1 or len(set(entries)) != len(entries):
        raise ValueError(f"invalid cycle entries in {text!r}")
    size = max(entries) if n is None else n
    if max(entries) > size:
        raise ValueError(f"entry {max(entries)} exceeds size {size}")
    perm = list(range(size))
    for cyc in cycles:
        for a, b in zip(cyc, cyc[1:] + cyc[:1]):
            perm[a - 1] = b - 1
    return tuple(perm)


def check_invariant(z: np.ndarray, md: ModularDatum, n: int,
                    tol: float = 1e-9) -> VerificationReport:
    """Modular invariance of a matrix on the n-fold product label set."""
    rank = md.S.shape[0]
    size = rank ** n
    if z.shape != (size, size):
        raise ShapeMismatch(f"matrix shape {z.shape} does not match "
                            f"rank {rank}^{n}")
    report = VerificationReport(target=f"invariant[{n}-fold]",
                                options={"tolerance": tol})

    zc = z.astype(np.complex128)
    sn = np.array([[1.0]], dtype=np.complex128)
    for _ in range(n):
        sn = np.kron(sn, md.S)
    report.add_deviation("s_commutation", "s-invariance",
                         float(np.max(np.abs(sn @ zc @ sn.conj() - zc))), tol)

    tvec = np.array([1.0], dtype=np.complex128)
    for _ in range(n):
        tvec = np.kron(tvec, np.diag(md.T))
    rows, cols = np.nonzero(np.abs(zc) > tol)
    t_dev = 0.0
    for a, b in zip(rows, cols):
        t_dev = max_dev(t_dev, abs(tvec[a] - tvec[b]))
    report.add_deviation("t_matching", "t-invariance", t_dev, tol)

    report.add_deviation("vacuum_entry", "vacuum-normalization",
                         abs(zc[0, 0] - 1.0), tol)
    report.add_deviation("integrality", "nonnegative-integrality",
                         float(np.max(np.abs(zc - np.rint(zc.real)))) if
                         np.all(np.rint(zc.real) >= 0) else 1.0, tol)
    return report


def symmetric_group_check(rank: int, n: int = 3) -> int:
    """Largest deviation of Z[pi sigma] from Z[pi] Z[sigma] over the full
    symmetric group on n letters; exact integer arithmetic."""
    worst = 0
    perms = list(itertools.permutations(range(n)))
    cache = {p: permutation_invariant(rank, p) for p in perms}
    for p in perms:
        for q in perms:
            pq = tuple(p[q[a]] for a in range(n))
            worst = max(worst, int(np.max(np.abs(cache[pq]
                                                 - cache[p] @ cache[q]))))
    return worst


def annulus_coefficient(base: CategorySpec, i: int, j: int, k: int,
                        l: int) -> int:
    """dim Hom(i (x) j (x) k, l) through the fusion ring."""
    N = base.ring.N
    return int(sum(N[i, j, m] * N[m, k, l] for m in range(base.rank)))


def annulus_tree_count(base: CategorySpec, i: int, j: int, k: int,
                       l: int) -> int:
    """The same dimension counted by fusion trees."""
    return len(base.ring.tree_basis((i, j, k)).get(l, []))


def induced_multiplicities(base: CategorySpec, i: int, j: int) -> np.ndarray:
    """Decomposition of A (x) (i, j) over product labels (a, b)."""
    N = base.ring.N
    dual = base.dual
    r = base.rank
    out = np.zeros((r, r), dtype=np.int64)
    for a in range(r):
        for b in range(r):
            out[a, b] = sum(int(N[int(dual[q]), i, a]) * int(N[q, j, b])
                            for q in range(r))
    return out


def module_multiplicities(base: CategorySpec, k: int) -> np.ndarray:
    """Decomposition of the module with generator k over product labels:
    mult(a, b) = N[dual(a), k, b]."""
    N = base.ring.N
    dual = base.dual
    r = base.rank
    out = np.zeros((r, r), dtype=np.int64)
    for a in range(r):
        for b in range(r):
            out[a, b] = int(N[int(dual[a]), k, b])
    return out


def induced_decomposition_defect(base: CategorySpec) -> int:
    """Largest entrywise defect of A (x) (i, j) = (+)_k N_ij^k M_k over all
    pairs (i, j); zero when the induced modules decompose by the fusion
    rules."""
    N = base.ring.N
    r = base.rank
    worst = 0
    mods = [module_multiplicities(base, k) for k in range(r)]
    for i in range(r):
        for j in range(r):
            want = sum(int(N[i, j, k]) * mods[k] for k in range(r))
            got = induced_multiplicities(base, i, j)
            worst = max(worst, int(np.max(np.abs(want - got))))
    return worst


def invariant_report(base: CategorySpec, md: ModularDatum, perm,
                     tol: float = 1e-9) -> VerificationReport:
    """Full check of one permutation invariant plus the annulus and
    induction counts."""
    n = len(perm)
    z = permutation_invariant(base.rank, perm)
    report = check_invariant(z, md, n, tol)
    report.target = f"{base.name}:perm{tuple(p + 1 for p in perm)}"
    report.add_deviation(
        "permutation_pattern", "permutation-matrix-pattern",
        float(np.max(np.abs(z - permutation_pattern(base.rank, perm)))), 0.5)
    return report
