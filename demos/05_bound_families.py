"""Three bound figures compared across promise families.

For a domain of inputs, sqrt(max R * |E|), sqrt(max R * max C), and
sqrt(max R * max R') each bound the query cost of deciding connectivity;
with unit weights they are provably ordered, and on structured families the
dual-resistance figure can be polynomially smaller.  The composed-promise
identity pins the product max R * max R' exactly at prod(N)/prod(h).
"""

import math

import formulaflow as ff

print(__doc__)

print("line family (all-ones or at most N-h ones), h = sqrt(N):")
print("  N   R_max  R'_max  C_max  sqrt(R*E)  sqrt(R*C)  sqrt(R*R')")
sizes = [4, 9, 16, 25]
cut_vals, new_vals = [], []
for n in sizes:
    fam = ff.example_family("line", n=n, h=int(math.isqrt(n)))
    rep = ff.compute_bounds(fam.formula, fam.weights, fam.domain)
    cut_vals.append(rep.bound_cut)
    new_vals.append(rep.bound_new)
    print(f"  {n:2}  {str(rep.r_max):5}  {str(rep.r_dual_max):6}  "
          f"{str(rep.c_max):5}  {rep.bound_old:9.3f}  {rep.bound_cut:9.3f}  "
          f"{rep.bound_new:10.3f}")
print(f"  growth exponents: cut figure {ff.exponent_fit(sizes, cut_vals):.3f}"
      f" (~1/2), dual figure {ff.exponent_fit(sizes, new_vals):.3f} (~1/4)")

print("\nballoon family (path in series with an N-fold multi-edge, "
      "multi-edges weighted 1/N):")
for n in (4, 8, 16):
    fam = ff.example_family("balloon", n=n)
    rep = ff.compute_bounds(fam.formula, fam.weights, fam.domain)
    unit = ff.compute_bounds(fam.formula, fam.weights, fam.domain,
                             unit_weights=True)
    print(f"  N={n:2}: weighted R_max = {rep.r_max} (= 2N), R'_max = "
          f"{rep.r_dual_max}, C_max = {rep.c_max} (= N); unit-weight "
          f"R_max = {unit.r_max} (= N+1)")

print("\nlow-fault alternating trees: the cut figure grows, the dual figure "
      "does not:")
for d in (2, 3, 4):
    fam = ff.example_family("nand-kfault", d=d, k=1)
    rep = ff.compute_bounds(fam.formula, fam.weights, fam.domain)
    print(f"  d={d}: domain {len(fam.domain):5} inputs, "
          f"sqrt(R*C) = {rep.bound_cut:.3f}, sqrt(R*R') = {rep.bound_new:.3f}")

print("\ncomposed-promise product identity (exact rationals):")
for levels in ([("and", 4, 2)], [("or", 4, 2)],
               [("or", 2, 1), ("and", 2, 1)],
               [("and", 4, 2), ("or", 4, 2)]):
    rep = ff.verify_resistance_product(levels)
    chain = " o ".join(f"{k}|{n},{h}" for k, n, h in levels)
    print(f"  {chain:24} product = {rep.product} = {rep.expected}  "
          f"[{'exact' if rep.equal else 'MISMATCH'}], "
          f"sqrt-estimate {rep.quantum_bound:.3f}")
