"""Permutation modular invariants of multiple products of a category.

A permutation pi of n factors yields a matrix Z[pi] on the label set of
the n-fold product, nonzero exactly where the row multi-index equals the
permuted column multi-index.  Z[pi] commutes with the product S and T
matrices, has vacuum entry 1, and pi -> Z[pi] is a group homomorphism.
Z[pi] is assembled from adjacent transpositions so that the homomorphism
property is exercised rather than assumed.

The annulus and induced-module counts read only N and the dual; each is
checked over all labels at once as integer contractions, against fusion
trees and the decomposition sum_k N_ij^k M_k respectively.
"""

from __future__ import annotations

import functools
import itertools
import re

import numpy as np

from .category import CategorySpec, ModularDatum
from .deligne import MAX_PRODUCT_RANK
from .errors import RankOverflow, ShapeMismatch
from .report import VerificationReport, max_dev


def transposition_invariant(rank: int) -> np.ndarray:
    """Z for the swap of two factors: Z[(i,j),(k,l)] = delta_il delta_jk."""
    rows = np.arange(rank * rank)
    z = np.zeros((rank * rank, rank * rank), dtype=np.int64)
    z[rows, rows % rank * rank + rows // rank] = 1
    return z


def permutation_pattern(rank: int, perm) -> np.ndarray:
    """Direct route: Z[I,J] = prod_a delta(i_perm(a), j_a), so that
    Z[p] Z[q] = Z[p o q]."""
    shape = (rank,) * len(perm)
    rows = np.arange(rank ** len(perm))
    digits = np.array(np.unravel_index(rows, shape))
    z = np.zeros((rows.size, rows.size), dtype=np.int64)
    z[rows, np.ravel_multi_index(tuple(digits[list(perm)]), shape)] = 1
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
    return np.kron(np.kron(np.eye(rank ** p), transposition_invariant(rank)),
                   np.eye(rank ** (n - p - 2)))


def permutation_invariant(rank: int, perm) -> np.ndarray:
    """Z[pi] on the n-fold product, built as a product of adjacent
    transposition invariants."""
    n = len(perm)
    if sorted(perm) != list(range(n)):
        raise ValueError(f"not a permutation of 0..{n - 1}: {perm}")
    if rank ** n > MAX_PRODUCT_RANK:
        raise RankOverflow(
            f"rank {rank}^{n} exceeds the product bound {MAX_PRODUCT_RANK}")
    # entries stay 0 and 1: exact in float64, whose products run on BLAS
    return functools.reduce(
        np.matmul, (_elementary(rank, n, p)
                    for p in adjacent_decomposition(perm)),
        np.eye(rank ** n)).astype(np.int64)


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
    sn = functools.reduce(np.kron, [md.S] * n,
                          np.ones((1, 1), dtype=np.complex128))
    report.add_deviation("s_commutation", "s-invariance",
                         float(np.max(np.abs(sn @ zc @ sn.conj() - zc))), tol)

    tvec = functools.reduce(np.kron, [np.diag(md.T)] * n,
                            np.ones(1, dtype=np.complex128))
    rows, cols = np.nonzero(np.abs(zc) > tol)
    report.add_deviation("t_matching", "t-invariance",
                         max_dev(*np.abs(tvec[rows] - tvec[cols])), tol)

    report.add_deviation("vacuum_entry", "vacuum-normalization",
                         abs(zc[0, 0] - 1.0), tol)
    report.add_deviation("integrality", "nonnegative-integrality",
                         float(np.max(np.abs(zc - np.rint(zc.real)))) if
                         np.all(np.rint(zc.real) >= 0) else 1.0, tol)
    return report


def symmetric_group_check(rank: int, n: int = 3) -> int:
    """Largest deviation of Z[pi sigma] from Z[pi] Z[sigma] over the full
    symmetric group on n letters; exact, as every product of permutation
    matrices has entries 0 and 1."""
    perms = np.array(list(itertools.permutations(range(n))))
    zs = np.stack([permutation_invariant(rank, p)
                   for p in perms.tolist()]).astype(np.float64)
    # perms[:, perms][p, q] is p o q, found in perms by its base-n digits
    place = n ** np.arange(n - 1, -1, -1)
    position = np.zeros(n ** n, dtype=np.int64)
    position[perms @ place] = np.arange(len(perms))
    pq = position[perms[:, perms] @ place]
    # one batched product per pi keeps memory at that of the n! matrices
    return int(max(np.max(np.abs(zs[row] - z @ zs))
                   for z, row in zip(zs, pq)))


def annulus_coefficient(base: CategorySpec, i: int, j: int, k: int,
                        l: int) -> int:
    """dim Hom(i (x) j (x) k, l) through the fusion ring."""
    return int(base.ring.N[i, j] @ base.ring.N[:, k, l])


def annulus_tree_count(base: CategorySpec, i: int, j: int, k: int,
                       l: int) -> int:
    """The same dimension counted by fusion trees."""
    return len(base.ring.tree_basis((i, j, k)).get(l, []))


def annulus_tables(base: CategorySpec) -> tuple[np.ndarray, np.ndarray]:
    """Both routes of ``annulus_coefficient`` and ``annulus_tree_count`` at
    once, each an array A[i, j, k, l]: the ring route as one contraction of
    N with itself, the tree route from one ``tree_basis`` per word (i, j, k)."""
    N = base.ring.N
    r = base.rank
    ring = np.einsum("ijm,mkl->ijkl", N, N)
    sizes = [(w, root, len(ts)) for w, word in
             enumerate(itertools.product(range(r), repeat=3))
             for root, ts in base.ring.tree_basis(word).items()]
    w, root, size = np.array(sizes, dtype=np.int64).T
    trees = np.zeros((r ** 3, r), dtype=np.int64)
    trees[w, root] = size
    return ring, trees.reshape(ring.shape)


def annulus_defect(base: CategorySpec) -> int:
    """Largest |ring route - tree route| over all quadruples (i, j, k, l);
    zero when the two counts of dim Hom(i (x) j (x) k, l) agree."""
    ring, trees = annulus_tables(base)
    return int(np.max(np.abs(ring - trees)))


def induced_multiplicities(base: CategorySpec, i: int, j: int) -> np.ndarray:
    """Decomposition of A (x) (i, j) over product labels (a, b)."""
    return base.ring.N[base.dual, i].T @ base.ring.N[:, j]


def module_multiplicities(base: CategorySpec, k: int) -> np.ndarray:
    """Decomposition of the module with generator k over product labels:
    mult(a, b) = N[dual(a), k, b]."""
    return base.ring.N[base.dual, k]


def induced_decomposition_defect(base: CategorySpec) -> int:
    """Largest entrywise defect of A (x) (i, j) = (+)_k N_ij^k M_k over all
    pairs (i, j); zero when the induced modules decompose by the fusion
    rules."""
    N = base.ring.N
    modules = N[base.dual].transpose(1, 0, 2)  # M_k[a, b] = N[dual(a), k, b]
    want = np.einsum("ijk,kab->ijab", N, modules)
    got = np.einsum("qia,qjb->ijab", N[base.dual], N)
    return int(np.max(np.abs(want - got)))


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
