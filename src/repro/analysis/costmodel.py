"""Analytical cost models from the paper's complexity analyses.

Exact worst-case counts behind the asymptotics quoted in Sec. 3.2, 3.3,
4.4 and 5.2.  "Worst case" means a sequence of ``l`` pairwise-distinct
leaf items, each with ``δ`` ancestors (a uniform-depth hierarchy), so that
every enumerated generalized subsequence is distinct.  The unit-test suite
validates these formulas against the actual enumerators on exactly such
inputs.

* **Naïve emissions** (Sec. 3.2) — ``|Gλ(T)|``:

  - γ = 0: windows of length ``n`` start at ``l-n+1`` positions, each item
    generalizes to one of ``δ+1`` forms, so
    ``Σ_{n=2..min(λ,l)} (l-n+1)·(δ+1)^n`` — exponential in λ, polynomial
    in δ.
  - γ, λ ≥ l: any position subset of size ≥ 2 with any generalization
    per kept item: ``Σ_{n=2..l} C(l,n)(δ+1)^n = (δ+2)^l − 1 − l(δ+1)``
    — the paper's ``O((δ+1)^l)``.

* **G1 size** (Sec. 3.3) — ``(δ+1)·l`` items-with-generalizations per
  sequence, linear in both.

* **LASH bounds** (Sec. 4.4) — at most ``(δ+1)·l`` pivots per sequence,
  hence ``O(δl)`` rewritten sequences of length ≤ ``l`` (polynomial
  communication) and ``O(δl²)`` rewrite time.

* **PSM search space** (Sec. 5.2) — with ``k`` distinct items and all
  length-≤λ sequences frequent, BFS/DFS explore ``Σ_{n=1..λ} k^n``
  sequences while only ``Σ k^n − Σ (k−1)^n`` contain the pivot;
  :func:`psm_explored_fraction` is the paper's
  ``1 − Σ(k−1)^n / Σk^n`` (0.005% for k=100,000, λ=5).

All functions use exact integer arithmetic (Python bigints), so they stay
meaningful in the regimes where the counts overflow doubles.
"""

from __future__ import annotations

from math import comb

from repro.errors import InvalidParameterError


def _require(condition: bool, message: str) -> None:
    if not condition:
        raise InvalidParameterError(message)


def g1_size(l: int, delta: int) -> int:
    """``|G1(T)|`` in the worst case: every item plus its δ ancestors."""
    _require(l >= 0, f"sequence length must be >= 0, got {l}")
    _require(delta >= 0, f"hierarchy depth must be >= 0, got {delta}")
    return (delta + 1) * l


def naive_emissions_contiguous(l: int, delta: int, lam: int) -> int:
    """Worst-case ``|Gλ(T)|`` for γ=0 (Sec. 3.2's first bound), exact."""
    _require(l >= 0, f"sequence length must be >= 0, got {l}")
    _require(delta >= 0, f"hierarchy depth must be >= 0, got {delta}")
    _require(lam >= 2, f"lambda must be >= 2, got {lam}")
    return sum(
        (l - n + 1) * (delta + 1) ** n for n in range(2, min(lam, l) + 1)
    )


def naive_emissions_unbounded(l: int, delta: int) -> int:
    """Worst-case ``|Gλ(T)|`` for γ, λ ≥ l (Sec. 3.2's ``O((δ+1)^l)``)."""
    _require(l >= 0, f"sequence length must be >= 0, got {l}")
    _require(delta >= 0, f"hierarchy depth must be >= 0, got {delta}")
    return sum(comb(l, n) * (delta + 1) ** n for n in range(2, l + 1))


def lash_emitted_sequences(l: int, delta: int) -> int:
    """Upper bound on rewritten sequences LASH emits per input (Sec. 4.4):
    one per pivot, at most ``(δ+1)·l`` pivots."""
    return g1_size(l, delta)


def lash_rewrite_operations(l: int, delta: int) -> int:
    """Sec. 4.4's ``O(δl²)`` rewrite cost: ``O(l)`` per pivot times the
    pivot count."""
    return g1_size(l, delta) * l


def total_sequences(k: int, lam: int) -> int:
    """``Σ_{n=1..λ} k^n`` — the BFS/DFS worst-case search space (Sec. 5.2)."""
    _require(k >= 1, f"distinct-item count must be >= 1, got {k}")
    _require(lam >= 1, f"lambda must be >= 1, got {lam}")
    return sum(k**n for n in range(1, lam + 1))


def nonpivot_sequences(k: int, lam: int) -> int:
    """``Σ_{n=1..λ} (k−1)^n`` — sequences missing the pivot entirely."""
    _require(k >= 1, f"distinct-item count must be >= 1, got {k}")
    return sum((k - 1) ** n for n in range(1, lam + 1))


def psm_search_space(k: int, lam: int) -> int:
    """Pivot sequences PSM explores in the worst case (Sec. 5.2)."""
    return total_sequences(k, lam) - nonpivot_sequences(k, lam)


def psm_explored_fraction(k: int, lam: int) -> float:
    """``1 − Σ(k−1)^n / Σk^n``: the fraction of the BFS/DFS space PSM
    touches.  The paper's example: k=100,000, λ=5 → 0.00005 (0.005%)."""
    return psm_search_space(k, lam) / total_sequences(k, lam)
