"""Persisted Bernoulli cache: line format "k num/den", append-only.

The index is decimal and the value hex (`12 -0x2b3/0xaaa`): CPython converts
big integers to and from decimal text in quadratic time, and to and from hex
in linear time. Decimal values, as older caches hold them, still load.
"""

from __future__ import annotations

import os
from fractions import Fraction
from functools import reduce
from operator import mul
from pathlib import Path

from . import exact
from .errors import CacheFormatError

__all__ = ["CACHE_ENV_VAR", "default_cache_path", "load_bernoulli_cache", "save_bernoulli_cache"]

CACHE_ENV_VAR = "EISCONG_BERNOULLI_CACHE"


def default_cache_path() -> Path | None:
    value = os.environ.get(CACHE_ENV_VAR)
    return Path(value) if value else None


def _parse_int(text: str) -> int:
    """A numerator or denominator: hex as `format_cache_line` writes it, or decimal.

    Hex is exactly `-?0x[0-9a-f]+`: `int(text, 16)` reads that prefix and
    those digits, and the tests before it refuse what else it would take
    (non-ASCII digits, `_` between digits, upper case), so a malformed value
    raises ValueError either way. Upper case is found by `lower()`, a table
    copy for ASCII text: `islower()` classifies every character, and on a
    long value costs more than the regex did.
    """
    if text.startswith(("0x", "-0x")) and text.isascii() and "_" not in text and text == text.lower():
        return int(text, 16)
    return exact.parse_int(text)


def parse_cache_line(line: str) -> tuple[int, Fraction]:
    """Parse one "k num/den" line; raises ValueError or ZeroDivisionError if malformed."""
    index_text, value_text = line.split()
    num_text, den_text = value_text.split("/")
    return int(index_text), Fraction(_parse_int(num_text), _parse_int(den_text))


def format_cache_line(index: int, value: Fraction) -> str:
    return f"{index} {value.numerator:#x}/{value.denominator:#x}\n"


def _value_problem(index: int, value: Fraction) -> str | None:
    """Why `value` cannot be B_index (its size, von Staudt-Clausen and the sign), or None.

    The size comes first: it is O(1), and the primes sieve up to the index.
    """
    if index < 0:
        return "Bernoulli indices are non-negative"
    if index < 2 or index % 2:
        # B_0, B_1 and the odd zeros are known outright.
        return None if value == exact.bernoulli(index) else f"B_{index} is {exact.bernoulli(index)}"
    floor = exact.numerator_bits_floor(index)
    if value.numerator.bit_length() <= floor:
        return f"B_{index} has a numerator of more than {floor} bits"
    primes = exact.staudt_primes(index)
    denominator = reduce(mul, primes)
    if value.denominator != denominator:
        return f"B_{index} has denominator {denominator}"
    if (value > 0) != (index % 4 == 2):
        return f"B_{index} is {'positive' if index % 4 == 2 else 'negative'}"
    residue = -sum(denominator // l for l in primes) % denominator
    if value.numerator % denominator != residue:
        return f"B_{index} has a numerator of {residue} mod {denominator}"
    return None


def load_bernoulli_cache(path: str | Path) -> int:
    """Seed the in-memory memo from a cache file; returns entries loaded.

    The whole file is checked before anything is seeded: a malformed line, or
    a value that cannot be B_k, raises CacheFormatError.
    """
    path = Path(path)
    if not path.exists():
        return 0
    entries = []
    with path.open() as handle:
        for number, line in enumerate(handle, 1):
            line = line.strip()
            if not line:
                continue
            try:
                index, value = parse_cache_line(line)
            except (ValueError, ZeroDivisionError):
                raise CacheFormatError(
                    f"{path}:{number}: expected a line 'k numerator/denominator'"
                ) from None
            problem = _value_problem(index, value)
            if problem:
                raise CacheFormatError(f"{path}:{number}: {problem}")
            entries.append((index, value))
    for index, value in entries:
        exact.seed_bernoulli(index, value)
    return len(entries)


def save_bernoulli_cache(path: str | Path) -> int:
    """Append memoized values not yet present in the file; returns appended count.

    The new lines go out in one write, so concurrent runs appending to the
    same file do not interleave inside a line.
    """
    path = Path(path)
    existing: set[int] = set()
    if path.exists():
        with path.open() as handle:
            for line in handle:
                line = line.strip()
                if line:
                    existing.add(int(line.split(maxsplit=1)[0]))
    new_indices = [k for k in exact.bernoulli_cached_indices() if k not in existing]
    if not new_indices:
        return 0
    # One growing buffer: joining a list of lines would hold the payload twice.
    payload = bytearray()
    for k in new_indices:
        payload += format_cache_line(k, exact.bernoulli(k)).encode("ascii")
    path.parent.mkdir(parents=True, exist_ok=True)
    with path.open("ab") as handle:
        handle.write(payload)
    return len(new_indices)
