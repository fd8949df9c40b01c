"""Seeded random PS program generator for the fission property suites.

Every generated module is one fusable family of equations over ``I = 1
.. n``: each *unit* writes its own rank-1 ``int`` array ``Vj`` (base case
``Vj[0]`` plus a loop equation), and units may read earlier units'
values at offset ``[I]`` (same iteration) or ``[I-1]`` (previous
iteration) — exactly the dependence shapes ``merge_loops`` fuses into a
single ``DO`` nest and :mod:`repro.schedule.fission` then partitions
back apart. The drawn unit kinds:

* ``map`` — a pointwise combination of inputs and earlier targets; on
  its own a DOALL candidate, so fission can *promote* its group.
* ``scan+`` / ``scanmax`` — an associative self-recurrence; a split
  leaves it alone in its replica, a compiled ``DO`` of its own.
* ``linrec`` — ``Vj[I] = C[I] * Vj[I-1] + term`` with loop-varying
  coefficients.
* ``coupled`` — a mutually recursive *pair* of units (each reads the
  other across the carry), forcing a two-member dependence group: the
  condensation must keep them together or the split is wrong.

All arithmetic is integer with small magnitudes (``|X| <= 5``,
``C[I]`` in ``{-1, 0, 1}``, constants ``<= 5``) so values stay far from
the int64 range and every backend — evaluator, NumPy kernels, native C
— agrees bit for bit. Generation is deterministic in ``seed``
(``random.Random``), so Hypothesis shrinking and failure reproduction
work on the seed alone.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

import numpy as np

from repro.ps.parser import parse_module
from repro.ps.semantics import AnalyzedModule, analyze_module

#: unit shapes the generator draws from (``coupled`` consumes two slots)
UNIT_KINDS = ("map", "scan+", "scanmax", "linrec", "coupled")


@dataclass(frozen=True)
class GeneratedProgram:
    """One generated module: PS source plus the metadata the suites need."""

    seed: int
    source: str
    #: unit kind per loop equation, textual order (``coupled-b`` closes
    #: the cycle its ``coupled`` predecessor opened)
    kinds: tuple[str, ...]
    #: loop-target array per equation, textual order
    targets: tuple[str, ...]
    #: result arrays of the module — equivalence checks compare these
    outputs: tuple[str, ...]

    def analyzed(self) -> AnalyzedModule:
        return analyze_module(parse_module(self.source))


def generate_program(
    seed: int,
    min_units: int = 2,
    max_units: int = 6,
    allow_locals: bool = True,
) -> GeneratedProgram:
    """A random module drawn deterministically from ``seed``.

    ``allow_locals`` lets intermediate targets be ``var`` locals instead
    of results — locals are window-allocation candidates, so the same
    program can be fissionable in full-storage mode and hazard-rejected
    in window mode (both sides of ``FissionSplit.usable``)."""
    rng = random.Random(seed)
    n_units = rng.randint(min_units, max_units)
    kinds: list[str] = []
    while len(kinds) < n_units:
        kind = rng.choice(UNIT_KINDS)
        if kind == "coupled":
            if len(kinds) + 2 > n_units:
                continue
            kinds.extend(("coupled", "coupled-b"))
        else:
            kinds.append(kind)

    def term(j: int) -> str:
        """An int term legal in unit ``j``'s rhs: an input element, a
        small constant, or an earlier target at offset 0 or -1."""
        choices = ["X[I]", str(rng.randint(1, 5))]
        if j > 0:
            choices.append(f"V{rng.randrange(j)}[{rng.choice(('I', 'I-1'))}]")
            choices.append(f"V{rng.randrange(j)}[I]")
        return rng.choice(choices)

    targets = tuple(f"V{j}" for j in range(n_units))
    bases: list[str] = []
    eqs: list[str] = []
    for j, kind in enumerate(kinds):
        t = targets[j]
        bases.append(f"    {t}[0] = {rng.randint(-3, 3)};")
        if kind == "map":
            a, b = term(j), term(j)
            rhs = rng.choice([f"{a} + {b}", f"{a} - {b}", f"max({a}, {b})"])
        elif kind == "scan+":
            rhs = f"{t}[I-1] + {term(j)}"
        elif kind == "scanmax":
            rhs = f"max({t}[I-1], {term(j)})"
        elif kind == "linrec":
            rhs = f"C[I] * {t}[I-1] + {term(j)}"
        elif kind == "coupled":
            # Reads its partner across the carry; the partner reads back
            # at offset 0 — together an irreducible two-member cycle.
            rhs = f"{t}[I-1] + V{j + 1}[I-1]"
        else:  # coupled-b
            rhs = f"{t}[I-1] + V{j - 1}[I]"
        eqs.append(f"    {t}[I] = {rhs};")

    local = [
        allow_locals and j < n_units - 1 and rng.random() < 0.35
        for j in range(n_units)
    ]
    outputs = tuple(t for t, loc in zip(targets, local) if not loc)
    out_decls = ";\n       ".join(
        f"{t}: array[0 .. n] of int" for t in outputs
    )
    var_block = ""
    locals_ = [t for t, loc in zip(targets, local) if loc]
    if locals_:
        var_block = "var\n" + "".join(
            f"    {t}: array [0 .. n] of int;\n" for t in locals_
        )
    source = (
        f"GenProg: module (X: array[1 .. n] of int;"
        f" C: array[1 .. n] of int; n: int):\n"
        f"      [{out_decls}];\n"
        f"type\n"
        f"    I = 1 .. n;\n"
        f"{var_block}"
        f"define\n" + "\n".join(bases) + "\n" + "\n".join(eqs) + "\n"
        f"end GenProg;\n"
    )
    return GeneratedProgram(
        seed=seed,
        source=source,
        kinds=tuple(kinds),
        targets=targets,
        outputs=outputs,
    )


def program_args(prog: GeneratedProgram, n: int, seed: int = 0) -> dict:
    """Input arrays for one generated program, deterministic in ``seed``.
    Magnitudes are kept small so chained units stay far from overflow."""
    rng = np.random.default_rng(seed)
    return {
        "X": rng.integers(-5, 6, n),
        "C": rng.integers(-1, 2, n),
        "n": n,
    }
