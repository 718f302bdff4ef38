"""Memory IP core: BlockRAM nibble banks with processor and NoC interfaces."""

from .blockram import BlockRam, MemoryBanks
from .memory_ip import MemoryBlock, MemoryIp

__all__ = ["BlockRam", "MemoryBanks", "MemoryBlock", "MemoryIp"]
