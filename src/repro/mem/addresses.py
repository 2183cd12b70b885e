"""Word/block address arithmetic.

The library addresses memory in 4-byte words (:data:`repro.trace.events.WORD_SIZE`).
Cache blocks are power-of-two numbers of bytes, at least one word.  A
:class:`BlockMap` captures one block-size configuration and converts between
word addresses and block addresses.

The classification of a trace depends on the block size only through this
mapping (paper section 2.1), so every classifier and protocol takes a
``BlockMap``.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

from ..errors import ConfigError
from ..trace.events import WORD_SIZE


def is_power_of_two(n: int) -> bool:
    """True if ``n`` is a positive power of two."""
    return n > 0 and (n & (n - 1)) == 0


@dataclass(frozen=True)
class BlockMap:
    """Address mapping for one cache-block size.

    Parameters
    ----------
    block_bytes:
        Cache block (line/page) size in bytes.  Must be a power of two and a
        multiple of the word size.  The paper sweeps 4..1024 bytes.
    """

    block_bytes: int

    def __post_init__(self):
        if not is_power_of_two(self.block_bytes):
            raise ConfigError(f"block size must be a power of two, got {self.block_bytes}")
        if self.block_bytes < WORD_SIZE:
            raise ConfigError(
                f"block size must be at least one word ({WORD_SIZE} bytes), "
                f"got {self.block_bytes}")

    # The two derived sizes are cached per instance (block_of runs millions
    # of times per sweep); cached_property writes the instance __dict__
    # directly, so the frozen dataclass keeps block_bytes as its only field
    # and its equality, hash and repr are unchanged.
    @cached_property
    def words_per_block(self) -> int:
        """Number of words in one block."""
        return self.block_bytes // WORD_SIZE

    @cached_property
    def offset_bits(self) -> int:
        """log2(words_per_block) — shift from word address to block address."""
        return (self.words_per_block).bit_length() - 1

    def block_of(self, word_addr: int) -> int:
        """Block address containing ``word_addr``."""
        return word_addr >> self.offset_bits

    def word_offset(self, word_addr: int) -> int:
        """Offset of ``word_addr`` within its block, in words."""
        return word_addr & (self.words_per_block - 1)

    def base_word(self, block_addr: int) -> int:
        """First word address of block ``block_addr``."""
        return block_addr << self.offset_bits

    def words_of(self, block_addr: int) -> range:
        """All word addresses contained in block ``block_addr``."""
        base = self.base_word(block_addr)
        return range(base, base + self.words_per_block)

    def same_block(self, a: int, b: int) -> bool:
        """True if word addresses ``a`` and ``b`` fall in the same block."""
        return self.block_of(a) == self.block_of(b)

    def contains(self, block_addr: int, word_addr: int) -> bool:
        """True if ``word_addr`` lies inside block ``block_addr``."""
        return self.block_of(word_addr) == block_addr

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"BlockMap(block_bytes={self.block_bytes})"


def bytes_to_words(n_bytes: int, *, round_up: bool = True) -> int:
    """Convert a byte count to words; rounds up by default."""
    if n_bytes < 0:
        raise ConfigError(f"negative byte count {n_bytes}")
    if round_up:
        return (n_bytes + WORD_SIZE - 1) // WORD_SIZE
    if n_bytes % WORD_SIZE:
        raise ConfigError(f"{n_bytes} bytes is not a whole number of words")
    return n_bytes // WORD_SIZE


def words_to_bytes(n_words: int) -> int:
    """Convert a word count to bytes."""
    if n_words < 0:
        raise ConfigError(f"negative word count {n_words}")
    return n_words * WORD_SIZE


#: The block sizes swept by the paper's Figure 5 (bytes).
PAPER_BLOCK_SIZES = (4, 8, 16, 32, 64, 128, 256, 512, 1024)

#: Block size representative of hardware caches in Figure 6a.
CACHE_BLOCK_BYTES = 64

#: Block size representative of virtual shared memory pages in Figure 6b.
VSM_BLOCK_BYTES = 1024
