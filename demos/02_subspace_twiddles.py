"""Vanishing polynomials of the spanned subspaces, and the twiddle table.

s_k is the product of (x - w) over the 2^k points w spanned by v_0..v_{k-1}.
Over GF(2) that product collapses to a sparse polynomial with coefficients
on exponents 2^i only, so one squaring-and-adding step grows s_k into
s_{k+1}.  The butterfly constants of the transform are values s_k(alpha),
read off a small table of s_j(v_i).
"""

from fafft import CantorField, TwiddleTable, eval_subspace, subspace_coeffs

field = CantorField(6)

# Coefficient support of the first few s_k: bit i of `bits` marks a nonzero
# coefficient on x^(2^i).
print("coefficient support of s_k (on exponents 2^i):")
for k in range(5):
    bits = subspace_coeffs(k)
    terms = " + ".join(f"x^{1 << i}" for i in range(bits.bit_length()) if (bits >> i) & 1)
    print(f"  s_{k} = {terms}")

# s_k vanishes exactly on the span of v_0..v_{k-1}, i.e. the ints below 2^k.
k = 3
vals = [eval_subspace(field, k, a) for a in range(32)]
roots = [a for a, v in enumerate(vals) if v == 0]
print(f"\nroots of s_{k} among 0..31: {roots}")

# Linearity: s_k(a + b) = s_k(a) + s_k(b), so values on a coset of the span
# are constant.  That single value is the twiddle of the coset.
a, b = 0x15, 0x22
lhs = eval_subspace(field, k, a ^ b)
rhs = eval_subspace(field, k, a) ^ eval_subspace(field, k, b)
print(f"s_{k}({a:#x} + {b:#x}) = {lhs:#x} = s_{k}({a:#x}) + s_{k}({b:#x}) = {rhs:#x}")

# The table stores s_j(v_i) for all j, i; any twiddle folds from one row.
tt = TwiddleTable(field)
print(f"\ns_j(v_i) for j <= 3, i <= 5:")
for j in range(4):
    row = [tt.value(j, i) for i in range(6)]
    print("  " + "  ".join(f"{v:4x}" for v in row))

# Key shape: s_j(v_i) equals v_{i-j} plus junk from lower coordinates, so
# twiddles at recursion state l stay inside GF(2^binru(l)).  This is the
# whole reason pruning by Frobenius orbits pays off.
print("\ns_j(v_i) ^ v_(i-j) for j < i (each fits below v_(i-j)):")
for j in range(1, 4):
    for i in range(j + 1, 6):
        t = tt.value(j, i) ^ (1 << (i - j))
        assert t < (1 << (i - j))
        print(f"  j={j} i={i}: {t:#x}")
