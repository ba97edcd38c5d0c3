"""Fortran array memory layout.

Maps 1-based multi-indices to byte addresses under column-major order,
matching what a Fortran compiler would emit for the paper's kernels.  Each
array gets a line-aligned base address; consecutive arrays are padded apart
by one line so distinct arrays never share a cache line (the conservative
layout; an optional ``pad_elements`` knob exists for conflict studies).
"""

from __future__ import annotations

from typing import Mapping, Sequence

from repro.errors import MachineError
from repro.ir.stmt import ArrayDecl, Procedure


class Layout:
    """Assign base addresses and compute element addresses.

    ``shapes`` are the concrete extents (per dimension) of each array;
    build one with :meth:`for_procedure` to pull shapes from a procedure's
    declarations evaluated at given sizes.
    """

    def __init__(
        self,
        shapes: Mapping[str, tuple[int, ...]],
        itemsizes: Mapping[str, int] | int = 8,
        line_bytes: int = 128,
        base: int = 0,
        pad_elements: int = 0,
    ):
        self.shapes: dict[str, tuple[int, ...]] = {}
        self.itemsize: dict[str, int] = {}
        self.base_addr: dict[str, int] = {}
        self._strides: dict[str, tuple[int, ...]] = {}
        addr = base
        for name in shapes:
            shape = tuple(int(d) for d in shapes[name])
            if any(d <= 0 for d in shape):
                raise MachineError(f"array {name}: non-positive extent {shape}")
            isz = itemsizes if isinstance(itemsizes, int) else itemsizes[name]
            # column-major: stride of dim k is product of extents of dims < k
            strides = []
            acc = isz
            for d in shape:
                strides.append(acc)
                acc *= d
            self.shapes[name] = shape
            self.itemsize[name] = isz
            self._strides[name] = tuple(strides)
            self.base_addr[name] = addr
            addr += acc + pad_elements * isz
            addr = (addr + line_bytes - 1) // line_bytes * line_bytes + line_bytes

    @classmethod
    def for_procedure(
        cls,
        proc: Procedure,
        sizes: Mapping[str, int],
        line_bytes: int = 128,
        dtype_override: str | None = None,
    ) -> "Layout":
        """Layout every declared array of ``proc`` at concrete ``sizes``.

        ``dtype_override`` forces a uniform element size (the paper's
        matmul experiment uses REAL*4 while the LU/QR experiments use
        DOUBLE PRECISION).
        """
        from repro.runtime.interpreter import Interpreter

        interp = Interpreter(dict(sizes))
        shapes: dict[str, tuple[int, ...]] = {}
        itemsizes: dict[str, int] = {}
        for decl in proc.arrays:
            shapes[decl.name] = tuple(int(interp.eval(d)) for d in decl.dims)
            if dtype_override is not None:
                itemsizes[decl.name] = ArrayDecl(decl.name, decl.dims, dtype_override).itemsize
            else:
                itemsizes[decl.name] = decl.itemsize
        return cls(shapes, itemsizes, line_bytes=line_bytes)

    def address(self, name: str, index: Sequence[int]) -> int:
        """Byte address of a 1-based element index."""
        strides = self._strides[name]
        if len(index) != len(strides):
            raise MachineError(f"array {name}: rank mismatch")
        addr = self.base_addr[name]
        for i, s in zip(index, strides):
            addr += (i - 1) * s
        return addr

    def affine(self, name: str) -> tuple[int, tuple[int, ...]]:
        """``(offset, strides)`` with ``address(name, index) == offset +
        sum(i * s for i, s in zip(index, strides))`` for 1-based ``index``
        (the ``- 1`` of every subscript is folded into ``offset``)."""
        strides = self._strides[name]
        return self.base_addr[name] - sum(strides), strides

    def footprint_bytes(self, name: str) -> int:
        shape = self.shapes[name]
        total = self.itemsize[name]
        for d in shape:
            total *= d
        return total
