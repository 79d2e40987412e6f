"""Built-in category presentations with exact skeletal data."""

from __future__ import annotations

import itertools
import re

import numpy as np

from .category import CategorySpec, FusionRing

BUILTIN_NAMES = ["trivial", "semion", "fibonacci", "ising", "z_3(1)",
                 "rep_z2_symmetric"]

_ZN_PATTERN = re.compile(r"^z_(\d+)\((-?\d+)\)$")


def _full_tables(ring: FusionRing):
    """Identity-filled F/R tables over every admissible nonzero-label key.

    Blocks involving the unit are canonical and never stored.  Callers
    override the handful of nontrivial entries afterwards.
    """
    F = {}
    R = {}
    labels = range(1, ring.rank)
    for a, b in itertools.product(labels, repeat=2):
        for c in labels:
            for d, ts in sorted(ring.tree_basis((a, b, c)).items()):
                F[(a, b, c, d)] = np.eye(len(ts), dtype=np.complex128)
        for ch in ring.channels(a, b):
            R[(a, b, ch)] = np.eye(ring.n(a, b, ch), dtype=np.complex128)
    return F, R


def trivial() -> CategorySpec:
    ring = FusionRing(np.ones((1, 1, 1), dtype=np.int64), [0])
    return CategorySpec("trivial", ring, [1.0], [1.0], {}, {},
                        label_names=["1"])


def semion() -> CategorySpec:
    N = np.zeros((2, 2, 2), dtype=np.int64)
    for i in range(2):
        for j in range(2):
            N[i, j, (i + j) % 2] = 1
    ring = FusionRing(N, [0, 1])
    F, R = _full_tables(ring)
    F[(1, 1, 1, 1)] = np.array([[-1.0]], dtype=np.complex128)
    R[(1, 1, 0)] = np.array([[1j]], dtype=np.complex128)
    return CategorySpec("semion", ring, [1.0, 1.0], [1.0, 1j], F, R,
                        label_names=["1", "s"])


def fibonacci() -> CategorySpec:
    N = np.zeros((2, 2, 2), dtype=np.int64)
    N[0, 0, 0] = N[0, 1, 1] = N[1, 0, 1] = 1
    N[1, 1, 0] = N[1, 1, 1] = 1
    ring = FusionRing(N, [0, 1])
    phi = (1.0 + np.sqrt(5.0)) / 2.0
    F, R = _full_tables(ring)
    # rows/cols ordered by channel: (0, tau)
    F[(1, 1, 1, 1)] = np.array([[1.0 / phi, 1.0 / np.sqrt(phi)],
                                [1.0 / np.sqrt(phi), -1.0 / phi]],
                               dtype=np.complex128)
    R[(1, 1, 0)] = np.array([[np.exp(-4j * np.pi / 5.0)]])
    R[(1, 1, 1)] = np.array([[np.exp(3j * np.pi / 5.0)]])
    theta = [1.0, np.exp(4j * np.pi / 5.0)]
    return CategorySpec("fibonacci", ring, [1.0, phi], theta, F, R,
                        label_names=["1", "tau"])


def ising() -> CategorySpec:
    # labels: 0 = 1, 1 = sigma, 2 = psi
    N = np.zeros((3, 3, 3), dtype=np.int64)
    for i in range(3):
        N[0, i, i] = N[i, 0, i] = 1
    N[1, 1, 0] = N[1, 1, 2] = 1
    N[1, 2, 1] = N[2, 1, 1] = 1
    N[2, 2, 0] = 1
    ring = FusionRing(N, [0, 1, 2])
    F, R = _full_tables(ring)
    s = 1.0 / np.sqrt(2.0)
    # rows/cols ordered by channel: (1, psi)
    F[(1, 1, 1, 1)] = np.array([[s, s], [s, -s]], dtype=np.complex128)
    F[(2, 1, 2, 1)] = np.array([[-1.0]], dtype=np.complex128)
    F[(1, 2, 1, 2)] = np.array([[-1.0]], dtype=np.complex128)
    R[(1, 1, 0)] = np.array([[np.exp(-1j * np.pi / 8.0)]])
    R[(1, 1, 2)] = np.array([[np.exp(3j * np.pi / 8.0)]])
    R[(1, 2, 1)] = np.array([[-1j]])
    R[(2, 1, 1)] = np.array([[-1j]])
    R[(2, 2, 0)] = np.array([[-1.0]])
    theta = [1.0, np.exp(1j * np.pi / 8.0), -1.0]
    return CategorySpec("ising", ring, [1.0, np.sqrt(2.0), 1.0], theta, F, R,
                        label_names=["1", "sigma", "psi"])


def cyclic(n: int, k: int) -> CategorySpec:
    """Pointed category on Z_n with quadratic twist theta_j = exp(2 pi i k j^2 / n).

    All F-symbols are 1; the braiding phase on (j, l) is exp(2 pi i k j l / n).
    Modular iff gcd(2k, n) = 1.
    """
    if n < 1:
        raise ValueError("group order must be positive")
    N = np.zeros((n, n, n), dtype=np.int64)
    for i in range(n):
        for j in range(n):
            N[i, j, (i + j) % n] = 1
    ring = FusionRing(N, [(-j) % n for j in range(n)])
    F, R = _full_tables(ring)
    for j in range(1, n):
        for l in range(1, n):
            R[(j, l, (j + l) % n)] = np.array(
                [[np.exp(2j * np.pi * k * j * l / n)]])
    theta = [np.exp(2j * np.pi * k * j * j / n) for j in range(n)]
    return CategorySpec(f"z_{n}({k})", ring, np.ones(n), theta, F, R,
                        label_names=[str(j) for j in range(n)])


def rep_z2_symmetric() -> CategorySpec:
    """Rank-2 symmetric example: Z_2 fusion, trivial F, R and twists.

    Premodular but not modular (the S-matrix is singular), so it exercises
    every degenerate code path.
    """
    N = np.zeros((2, 2, 2), dtype=np.int64)
    for i in range(2):
        for j in range(2):
            N[i, j, (i + j) % 2] = 1
    ring = FusionRing(N, [0, 1])
    F, R = _full_tables(ring)
    return CategorySpec("rep_z2_symmetric", ring, [1.0, 1.0], [1.0, 1.0], F, R,
                        label_names=["1", "m"])


def get_category(name: str) -> CategorySpec:
    """Resolve a built-in name, including the z_n(k) family."""
    m = _ZN_PATTERN.match(name)
    if m:
        return cyclic(int(m.group(1)), int(m.group(2)))
    table = {
        "trivial": trivial,
        "semion": semion,
        "fibonacci": fibonacci,
        "ising": ising,
        "rep_z2_symmetric": rep_z2_symmetric,
    }
    if name not in table:
        raise KeyError(f"unknown built-in category {name!r}; "
                       f"available: {', '.join(BUILTIN_NAMES)}")
    return table[name]()
