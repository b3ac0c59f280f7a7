"""Taming redundant output: direct closed/maximal mining.

The paper notes (Sec. 2/6.7) that the GSM output is large and partly
redundant — ``b1D`` frequent implies ``BD`` frequent — and names direct
mining of closed and maximal generalized sequences as future work.  This
script runs that extension on product sessions: it mines the full output,
then mines *directly* with ``ClosedLash`` in closed and maximal mode,
showing how much output the modes remove, and checks both against
filtering the full output.

Run:  python examples/closed_patterns.py
"""

from repro import ClosedLash, Lash, MiningParams
from repro.analysis import filter_result
from repro.datasets import ProductDataConfig, generate_product_data

SIGMA, GAMMA, LAM = 40, 1, 4

print("generating product sessions …")
data = generate_product_data(
    ProductDataConfig(num_users=3000, num_products=600, seed=77)
)
hierarchy = data.hierarchy(4)
params = MiningParams(SIGMA, GAMMA, LAM)

print(f"mining (sigma={SIGMA}, gamma={GAMMA}, lam={LAM}) …")
full = Lash(params).mine(data.database, hierarchy)
closed = ClosedLash(params, mode="closed").mine(data.database, hierarchy)
maximal = ClosedLash(params, mode="maximal").mine(data.database, hierarchy)

print(f"  full output:     {len(full):>6} patterns")
print(
    f"  closed:          {len(closed):>6} patterns "
    f"({100 * len(closed) / len(full):.1f}% of full)"
)
print(
    f"  maximal:         {len(maximal):>6} patterns "
    f"({100 * len(maximal) / len(full):.1f}% of full)\n"
)

# every closed pattern keeps its exact frequency from the full output
assert all(full.patterns[p] == f for p, f in closed.patterns.items())
# maximality is stricter than closedness
assert set(maximal.patterns) <= set(closed.patterns)
# mining directly equals filtering the full output afterwards
assert closed.patterns == filter_result(full, "closed").patterns
assert maximal.patterns == filter_result(full, "maximal").patterns

print("most frequent maximal patterns (no frequent extension exists):")
for pattern, freq in maximal.top(8):
    print(f"{freq:>9}  {pattern}")
