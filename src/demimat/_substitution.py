"""The expansion behind ``LaurentPoly.substitute`` when a value is not a monomial.

Substituting ``value_i`` for the variable in slot i maps a term
``c * x^exp`` to ``c`` times its residual monomial (``exp`` with the
substituted slots zeroed) times the image ``prod_i value_i ** exp[i]``.
Terms with the same exponents in the substituted slots (their key) share
one image, so the terms are grouped by key and each group's image is formed
once.  Each value's powers are built incrementally up to the largest
exponent any key uses, ``value^e = value^(e-1) * value``, and only the used
ones are kept.  Each term times its group's image goes straight into one
output dict, with no intermediate one-term polynomials.

This lives apart from ``poly`` to keep both modules under 4096 tokens:
CPython's parser grows its token array in powers of two, so a longer module
takes about 0.35 MB more memory to compile when no bytecode cache is kept.
"""

from __future__ import annotations


def _powers(value, used: set[int]) -> dict:
    """``value ** e`` for each nonzero exponent e in ``used``.

    Positive powers are built incrementally and only those in ``used`` are
    kept.  A negative power needs the inverse, which only a monomial has:
    for any other value ``**`` raises UnsupportedSubstitutionError.
    """
    powers = {e: value ** e for e in used if e < 0}
    power = value
    for e in range(1, max(used, default=0) + 1):
        if e > 1:
            power = power * value
        if e in used:
            powers[e] = power
    return powers


def _expand_images(terms: dict, values: dict) -> dict:
    """``terms`` with slot i replaced by ``values[i]``, as a term dict that may
    hold zero sums."""
    slots = tuple(values)
    groups: dict[tuple, list[tuple]] = {}
    for exp in terms:
        groups.setdefault(tuple(exp[i] for i in slots), []).append(exp)
    powers = [_powers(values[i], {key[k] for key in groups}) for k, i in enumerate(slots)]
    out: dict = {}
    for key, exps in groups.items():
        image = None
        drop = [0, 0, 0]
        for k, e in enumerate(key):
            if e:
                image = powers[k][e] if image is None else image * powers[k][e]
                drop[slots[k]] = e
        images = (((0, 0, 0), 1),) if image is None else image._terms.items()
        # A term's residual exponent is its own less the key.
        d0, d1, d2 = drop
        for exp in exps:
            c = terms[exp]
            r0, r1, r2 = exp[0] - d0, exp[1] - d1, exp[2] - d2
            for e, v in images:
                target = (r0 + e[0], r1 + e[1], r2 + e[2])
                out[target] = out.get(target, 0) + c * v
    return out
