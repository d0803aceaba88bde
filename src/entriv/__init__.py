"""entriv: exact-arithmetic checks for extended powers, operadic suspension,
stunted projective spectra, K-theory exact sequences, cochain-level Steenrod
operations and Hochschild homology of square-zero extensions."""

__version__ = "0.1.0"

# compose: the largest arity a composition product is built to, where its
# pieces already reach dimension 21294.  Declared here, not in sym_seq, so
# that the CLI bounds --truncate without loading a computation module.
MAX_MATERIALIZED_ARITY = 6


class RepeatedKeyError(ValueError):
    """Two keys of an input document name one integer, as "0" and "00" do."""


def integer_keys(mapping: dict, what: str) -> dict:
    """mapping with every key read by int().  Two keys that name the same
    integer raise RepeatedKeyError: the later would silently replace the
    earlier."""
    out = {int(k): v for k, v in mapping.items()}
    if len(out) < len(mapping):
        seen = {}
        for k in mapping:
            n = int(k)
            if n in seen:
                raise RepeatedKeyError(f"{what} keys {seen[n]!r} and {k!r} both name {what} {n}")
            seen[n] = k
    return out
