"""Seeded op lists for the benchmark workloads.

A workload is a fixed list of slots.  Each slot fixes a CLI verb and
the field/code shape (p, e, n, m, k, ...), and names a few choices for
the subspace seed, the twist exponent h and the twist eta.  The
workload seed picks one choice per slot, so every seed runs the same
(p, e, n) mix on different subspaces and twists.  The choice lists are
small on purpose: ``choice_space`` enumerates every op any seed can
produce, and ``expected.json`` holds the exit code and output digest of
each of them, so every run of every seed is checked.

The choices in a slot are kept to ones that do the same work: the
traced run counts the same codewords, solves, group order, modulus
candidates and output size (to within a few percent of span elements)
for every choice of a slot, so the workload's cost does not depend on
the seed.
"""

from __future__ import annotations

import hashlib
import itertools
import json
import random
from dataclasses import dataclass

DEFAULT_SEED = 0
HELDOUT_SEED = 1


@dataclass(frozen=True)
class Slot:
    verb: str
    fixed: tuple          # (name, value) pairs: CLI flags, or grid axes for sweep
    subspace: tuple       # generic:SEED / subfield:L selectors to choose from
    h: tuple
    eta: tuple


def _slot(verb, subspace=("generic:0",), h=(0,), eta=("0",), **fixed):
    return Slot(verb, tuple(sorted(fixed.items())), tuple(subspace), tuple(h), tuple(eta))


_G4 = tuple(f"generic:{i}" for i in range(4))
_ETA = ("nonsquare-min", "0")

# Trinomials x^n + x^a + 1 over F_2, constant term first.
def _trinomial(n, a):
    return ",".join("1" if i in (0, a, n) else "0" for i in range(n + 1))


WORKLOADS = {
    # The MRD-and-nuclei census: sweep grids over table-backed fields
    # q in {2, 3, 4, 5}, n <= 6, m and k varied, with the invalid cells
    # (k >= m) a real grid contains.  Time goes to the rank-weight
    # histograms in rankcode: F_2 bit-sliced, odd p, and generic (e > 1).
    "census": [
        _slot("sweep", subspace=_G4, h=(0, 1), p=(2,), e=(1,), n=(6,), m=(3, 4, 5), k=(1, 2, 3), s=(1,)),
        _slot("sweep", subspace=_G4, h=(1, 2), eta=_ETA, p=(3,), e=(1,), n=(5,), m=(2, 3), k=(2,), s=(1,)),
        _slot("sweep", subspace=_G4, h=(1, 2), eta=_ETA, p=(3,), e=(1,), n=(4,), m=(2, 3), k=(1, 2), s=(1,)),
        # q = 4 is binary: every element is a square, so eta stays 0.
        _slot("sweep", subspace=_G4, h=(1, 2), p=(2,), e=(2,), n=(4,), m=(2, 3), k=(1, 2), s=(1,)),
        _slot("sweep", subspace=_G4, h=(1, 2), eta=_ETA, p=(5,), e=(1,), n=(3,), m=(2, 3), k=(1, 2), s=(1,)),
    ],
    # Exhaustive automorphism groups: one nullspace solve per A in
    # GL(m, q), so autgroup and _linalg do the work as thousands of tiny
    # eliminations.  Fields have at most 343 elements; no codewords.
    # Subspace and eta choices are narrowed where the others change the
    # group order or its output size.
    "aut-exhaustive": [
        _slot("aut", subspace=("generic:0", "generic:3"), h=(0, 1), p=2, e=1, n=6, m=3, k=2, s=1),
        _slot("aut", subspace=_G4, h=(0, 1), p=2, e=1, n=5, m=3, k=1, s=1),
        _slot("aut", subspace=_G4, h=(1, 2), eta=("nonsquare-min",), p=5, e=1, n=3, m=2, k=1, s=1),
        _slot("aut", subspace=_G4, h=(1, 2), eta=("nonsquare-min",), p=7, e=1, n=3, m=2, k=1, s=1),
        _slot("aut", subspace=_G4[:3], h=(1, 2), p=3, e=1, n=4, m=2, k=1, s=1),
        _slot("aut", subspace=_G4, h=(0, 1), p=2, e=2, n=3, m=2, k=1, s=1),
    ],
    # Field construction and nuclei on fields from 2^10 to 2^20, on both
    # sides of the 2^16 exp/log table limit: default-modulus search,
    # explicit trinomials, table-less arithmetic, nuclei span
    # enumeration, and one op that trips the span guard (exit 3).
    "field-scale": [
        _slot("construct", subspace=_G4, h=(0, 1), p=2, e=1, n=14, m=3, k=1, s=1),
        _slot("construct", subspace=_G4, h=(0, 1), p=2, e=1, n=17, m=2, k=1, s=1, modulus=_trinomial(17, 3)),
        _slot("construct", subspace=_G4, h=(0, 1), p=2, e=1, n=20, m=2, k=1, s=1, modulus=_trinomial(20, 3)),
        _slot("construct", subspace=_G4, h=(1, 2), eta=_ETA, p=17, e=1, n=4, m=2, k=1, s=1),
        _slot("construct", subspace=_G4, h=(1,), eta=_ETA, p=257, e=1, n=2, m=2, k=1, s=1),
        _slot("nuclei", subspace=_G4, h=(0, 1), p=2, e=1, n=10, m=3, k=1, s=1),
        _slot("nuclei", subspace=("subfield:4",), h=(0, 1), p=2, e=1, n=12, m=4, k=1, s=1),
    ],
}


def _op(workload, index, slot, subspace, h, eta):
    fixed = dict(slot.fixed)
    if slot.verb == "sweep":
        grid = dict(fixed, subspace=[subspace], h=[h], eta=[eta])
        body = {"grid": {k: list(v) for k, v in sorted(grid.items())}}
    else:
        body = {"flags": dict(fixed, subspace=subspace, h=h, eta=eta)}
    return {"id": f"{workload}-{index:02d}", "verb": slot.verb, **body}


def ops(workload: str, seed: int) -> list:
    """The op list of one workload for one seed (deterministic)."""
    rng = random.Random(f"{workload}:{seed}")
    out = []
    for i, slot in enumerate(WORKLOADS[workload]):
        out.append(_op(workload, i, slot, rng.choice(slot.subspace),
                       rng.choice(slot.h), rng.choice(slot.eta)))
    return out


def choice_space(workload: str) -> list:
    """Every op any seed can produce for this workload."""
    out = []
    for i, slot in enumerate(WORKLOADS[workload]):
        for sub, h, eta in itertools.product(slot.subspace, slot.h, slot.eta):
            out.append(_op(workload, i, slot, sub, h, eta))
    return out


def op_key(op: dict) -> str:
    """Digest of what the program sees: verb plus flags or grid."""
    body = {k: v for k, v in op.items() if k != "id"}
    return hashlib.sha256(json.dumps(body, sort_keys=True).encode()).hexdigest()[:20]


def argv(op: dict, config_path: str = None) -> list:
    """CLI arguments for an op; a sweep reads its grid from config_path."""
    if op["verb"] == "sweep":
        return ["sweep", "--config", config_path]
    out = [op["verb"]]
    for name, value in sorted(op["flags"].items()):
        out += [f"--{name}", str(value)]
    return out


def config_text(op: dict) -> str:
    return json.dumps({"grid": op["grid"]}, sort_keys=True)
