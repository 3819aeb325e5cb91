"""Dimension oracles that share no code with adamsbar.

For a formal algebra whose augmentation ideal is spanned by degree-1
generators with zero products and zero differential, every bar word is
a cocycle and nothing is a coboundary, so H^0 of the bar construction is
the shuffle algebra on those letters.  Its Hilbert series is
1 / (1 - sum_a t^wt(a)), and since a shuffle algebra is free
graded-commutative on its indecomposables (Radford), the co-Lie
dimensions gamma_w are the exponents in
1 / (1 - sum_a t^wt(a)) = prod_w (1 - t^w)^(-gamma_w).
With k letters of weight 1 these are k^w and the Lyndon counts.
"""


def h0_dims(weights, w_max):
    """Coefficients of 1 / (1 - sum_a t^wt(a)) up to t^w_max."""
    coeffs = [1] + [0] * w_max
    for w in range(1, w_max + 1):
        coeffs[w] = sum(coeffs[w - a] for a in weights if a <= w)
    return coeffs


def gamma_dims(weights, w_max):
    """gamma_w with prod_w (1 - t^w)^(-gamma_w) = 1 / (1 - sum t^wt(a))."""
    target = h0_dims(weights, w_max)
    series = [1] + [0] * w_max  # prod over the exponents found so far
    gamma = [0] * (w_max + 1)
    for w in range(1, w_max + 1):
        gamma[w] = target[w] - series[w]
        for _ in range(gamma[w]):
            for i in range(w, w_max + 1):
                series[i] += series[i - w]
        if series[w] != target[w]:
            raise ValueError("negative exponent: not a free algebra series")
    return gamma


def _mobius(n):
    result, p = 1, 2
    while p * p <= n:
        if n % p == 0:
            n //= p
            if n % p == 0:
                return 0
            result = -result
        p += 1
    return -result if n > 1 else result


def lyndon_count(k, w):
    """Lyndon words of length w over k letters."""
    return sum(_mobius(d) * k ** (w // d)
               for d in range(1, w + 1) if w % d == 0) // w
