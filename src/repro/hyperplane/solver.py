"""Least-integer solution of the strict dependence inequalities (section 4).

"We define the time of creation for each array element as a linear
combination of the indices ... Now we can find the least integers a, b and c
for which these dependence inequalities will hold."

For dependence vectors ``d`` the constraint is ``pi . d >= 1`` (strict
inequality over integers). We search integer vectors by increasing L1 norm,
then lexicographically, so the first solution found is the paper's "least"
one — for the relaxation example ``(a, b, c) = (2, 1, 1)``. Coefficients may
be zero or negative in general (Lamport's method allows it); the search
space is widened to negative values only for coordinates where some
dependence has a positive entry to push against.
"""

from __future__ import annotations

import itertools

from repro.errors import InfeasibleScheduleError


def solve_time_vector(
    vectors: list[tuple[int, ...]], max_norm: int = 24
) -> tuple[int, ...]:
    """Return the least integer vector ``pi`` with ``pi . d >= 1`` for every
    dependence vector ``d`` (minimal L1 norm, ties broken lexicographically
    largest-first so positive leading coefficients are preferred).

    Raises :class:`InfeasibleScheduleError` when no such vector of L1 norm
    at most ``max_norm`` exists.
    """
    if not vectors:
        raise InfeasibleScheduleError("no dependence vectors given")
    n = len(vectors[0])
    if any(len(v) != n for v in vectors):
        raise ValueError("dependence vectors have mixed dimensionality")

    # A coordinate only benefits from a negative coefficient if some
    # dependence is negative there; restrict the sign ranges accordingly.
    lo = [0] * n
    hi = [0] * n
    for i in range(n):
        if any(v[i] > 0 for v in vectors):
            hi[i] = 1
        if any(v[i] < 0 for v in vectors):
            lo[i] = -1

    def satisfies(pi: tuple[int, ...]) -> bool:
        return all(sum(p * d for p, d in zip(pi, v)) >= 1 for v in vectors)

    for norm in range(1, max_norm + 1):
        candidates = []
        for signs_magnitudes in _vectors_of_norm(n, norm, lo, hi):
            if satisfies(signs_magnitudes):
                candidates.append(signs_magnitudes)
        if candidates:
            # lexicographically largest = prefers weight on leading dims,
            # matching the paper's (2,1,1) presentation.
            return max(candidates)

    raise InfeasibleScheduleError(
        f"no linear schedule with L1 norm <= {max_norm} exists for "
        f"dependence vectors {vectors}"
    )


def _vectors_of_norm(n: int, norm: int, lo_sign: list[int], hi_sign: list[int]):
    """All integer vectors of L1 norm ``norm`` respecting per-coordinate sign
    availability."""
    for mags in _compositions(norm, n):
        sign_choices = []
        for i, m in enumerate(mags):
            if m == 0:
                sign_choices.append((0,))
            else:
                opts = []
                if hi_sign[i] > 0 or lo_sign[i] == 0:
                    opts.append(m)
                if lo_sign[i] < 0:
                    opts.append(-m)
                if not opts:
                    opts = [m]
                sign_choices.append(tuple(opts))
        for combo in itertools.product(*sign_choices):
            yield tuple(combo)


def _compositions(total: int, parts: int):
    """Weak compositions of ``total`` into ``parts`` non-negative ints."""
    if parts == 1:
        yield (total,)
        return
    for first in range(total + 1):
        for rest in _compositions(total - first, parts - 1):
            yield (first,) + rest


def format_inequalities(
    vectors: list[tuple[int, ...]], coeff_names: list[str] | None = None
) -> list[str]:
    """Render each dependence inequality the way the paper does:
    ``(1,0,-1)`` with coefficients (a,b,c) becomes ``a > c``; ``(1,0,0)``
    becomes ``a > 0``."""
    n = len(vectors[0])
    names = coeff_names or [chr(ord("a") + i) for i in range(n)]
    out = []
    for v in vectors:
        lhs = [
            (names[i] if c == 1 else f"{c}{names[i]}")
            for i, c in enumerate(v)
            if c > 0
        ]
        rhs = [
            (names[i] if c == -1 else f"{-c}{names[i]}")
            for i, c in enumerate(v)
            if c < 0
        ]
        left = " + ".join(lhs) if lhs else "0"
        right = " + ".join(rhs) if rhs else "0"
        out.append(f"{left} > {right}")
    return out
