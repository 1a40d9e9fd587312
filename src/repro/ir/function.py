"""Functions: ordered collections of basic blocks with an entry block.

A function owns its blocks and virtual-register namespace. Kernel entry
points are ordinary functions with ``is_kernel=True``; device functions are
called via ``call`` and return via ``ret``.
"""

from __future__ import annotations

import weakref

from repro.errors import IRError
from repro.ir.basic_block import BasicBlock
from repro.ir.instructions import Opcode, Reg


class Function:
    """A function: named blocks, parameters, and a register namespace."""

    def __init__(self, name, params=None, is_kernel=False):
        self.name = name
        self.params = list(params or [])
        self.is_kernel = is_kernel
        self.blocks = []          # ordered; blocks[0] is the entry
        self._blocks_by_name = {}
        self._reg_counter = 0
        self._block_counter = 0
        self.attrs = {}

    # ------------------------------------------------------------------
    # Blocks
    # ------------------------------------------------------------------
    @property
    def entry(self):
        if not self.blocks:
            raise IRError(f"function {self.name} has no blocks")
        return self.blocks[0]

    def new_block(self, hint="bb", attrs=None):
        """Create a fresh uniquely-named block and append it."""
        name = hint
        while name in self._blocks_by_name:
            self._block_counter += 1
            name = f"{hint}.{self._block_counter}"
        block = BasicBlock(name, function=self, attrs=attrs)
        self.blocks.append(block)
        self._blocks_by_name[name] = block
        return block

    def add_block(self, block):
        """Attach an externally constructed block."""
        if block.name in self._blocks_by_name:
            raise IRError(f"duplicate block name {block.name} in {self.name}")
        block.function = self
        self.blocks.append(block)
        self._blocks_by_name[block.name] = block
        return block

    def block(self, name):
        try:
            return self._blocks_by_name[name]
        except KeyError:
            raise IRError(f"no block named {name} in function {self.name}") from None

    def remove_block(self, name):
        block = self.block(name)
        self.blocks.remove(block)
        del self._blocks_by_name[name]
        return block

    def move_block_after(self, block, after):
        """Reorder ``block`` to sit immediately after ``after``."""
        self.blocks.remove(block)
        self.blocks.insert(self.blocks.index(after) + 1, block)

    # ------------------------------------------------------------------
    # Registers
    # ------------------------------------------------------------------
    def new_reg(self, hint="t"):
        """Allocate a fresh virtual register."""
        self._reg_counter += 1
        return Reg(f"{hint}.{self._reg_counter}")

    def all_registers(self):
        """Every register referenced in the function (defs, uses, params)."""
        regs = set(self.params)
        for block in self.blocks:
            for instr in block:
                regs.update(instr.defs())
                regs.update(instr.uses())
        return regs

    def reg_slots(self):
        """Decode-time register allocation: name -> dense slot index.

        Covers the parameters and every register defined or used anywhere
        in the function, in first-appearance order (params first), so a
        frame's register file can be a fixed-size list indexed by slot
        instead of a name-keyed dict. Built afresh on each call: the
        simulator asks once per (module, function) and keeps the map in
        the module's ``"launch_template"`` cache
        (:func:`repro.simt.warp.frame_templates`), which a structure
        change empties with the decode cache.
        """
        slots = {}
        for param in self.params:
            if param.name not in slots:
                slots[param.name] = len(slots)
        for block in self.blocks:
            for instr in block.instructions:
                dst = instr.dst
                if dst is not None and dst.name not in slots:
                    slots[dst.name] = len(slots)
                for operand in instr.uses():
                    if operand.name not in slots:
                        slots[operand.name] = len(slots)
        return slots

    # ------------------------------------------------------------------
    # CFG edges
    # ------------------------------------------------------------------
    def predecessors(self):
        """Map block name -> list of predecessor block names (in order)."""
        preds = {block.name: [] for block in self.blocks}
        for block in self.blocks:
            for succ in block.successor_names():
                if succ not in preds:
                    raise IRError(
                        f"block {block.name} branches to unknown block {succ}"
                    )
                preds[succ].append(block.name)
        return preds

    def successors(self):
        """Map block name -> list of successor block names."""
        return {block.name: block.successor_names() for block in self.blocks}

    def edges(self):
        """All CFG edges as (src_name, dst_name) pairs."""
        result = []
        for block in self.blocks:
            for succ in block.successor_names():
                result.append((block.name, succ))
        return result

    def exit_blocks(self):
        """Blocks terminated by ``ret`` or ``exit``."""
        exits = []
        for block in self.blocks:
            term = block.terminator
            if term is not None and term.opcode in (Opcode.RET, Opcode.EXIT):
                exits.append(block)
        return exits

    def blocks_with_label(self, label):
        return [block for block in self.blocks if block.attrs.get("label") == label]

    # ------------------------------------------------------------------
    # Edge splitting (needed for precise cancel placement)
    # ------------------------------------------------------------------
    def split_edge(self, src_name, dst_name, hint=None):
        """Insert a fresh block on the edge ``src -> dst`` and return it."""
        from repro.ir.instructions import BlockRef, Instruction

        src = self.block(src_name)
        dst = self.block(dst_name)
        term = src.terminator
        if term is None or dst_name not in term.block_targets():
            raise IRError(f"no edge {src_name} -> {dst_name}")
        mid = self.new_block(hint or f"{src_name}.to.{dst_name}")
        mid.append(Instruction(Opcode.BRA, operands=[BlockRef(dst.name)]))
        term.replace_block_target(dst_name, mid.name)
        self.move_block_after(mid, src)
        return mid

    # ------------------------------------------------------------------
    # Cloning and iteration
    # ------------------------------------------------------------------
    def clone(self, new_name=None):
        """Deep copy (shares immutable Reg/operand objects)."""
        clone = Function(new_name or self.name, list(self.params), self.is_kernel)
        clone._reg_counter = self._reg_counter
        clone._block_counter = self._block_counter
        clone.attrs = dict(self.attrs)
        for block in self.blocks:
            clone.add_block(block.copy_into(clone))
        return clone

    def instructions(self):
        """Iterate (block, index, instruction) over the whole function."""
        for block in self.blocks:
            for index, instr in enumerate(block.instructions):
                yield block, index, instr

    def __repr__(self):
        kind = "kernel" if self.is_kernel else "func"
        return f"<{kind} @{self.name} ({len(self.blocks)} blocks)>"


class Module:
    """A compilation unit: a set of functions, at most one per name."""

    def __init__(self, name="module"):
        self.name = name
        self.functions = {}

    def add(self, function):
        if function.name in self.functions:
            raise IRError(f"duplicate function @{function.name}")
        self.functions[function.name] = function
        return function

    def function(self, name):
        try:
            return self.functions[name]
        except KeyError:
            raise IRError(f"no function named @{name}") from None

    def kernels(self):
        return [fn for fn in self.functions.values() if fn.is_kernel]

    def clone(self):
        clone = Module(self.name)
        for fn in self.functions.values():
            clone.add(fn.clone())
        return clone

    def __iter__(self):
        return iter(self.functions.values())

    def __repr__(self):
        return f"<Module {self.name} ({len(self.functions)} functions)>"


def structure_token(module):
    """A cheap structural fingerprint of a module.

    :func:`module_cache` and the pass manager's analysis cache pair the
    module object with this token so rebuilding a function or adding or
    removing instructions invalidates stale entries. In-place operand
    mutation is deliberately not captured: passes run on clones, and
    hashing every operand would cost more than re-deriving the cache entry.
    """
    return tuple(
        (fn.name, tuple((blk.name, len(blk.instructions)) for blk in fn.blocks))
        for fn in module
    )


#: module -> (structure token, {layer: cache}); see module_cache.
_MODULE_CACHES = weakref.WeakKeyDictionary()


def module_cache(module, layer, build=dict):
    """The ``layer`` cache of ``module``: a dict (or dict subclass) made
    by ``build()`` on first use.

    Every engine layer that memoizes work per module keeps it here:
    compiled programs (``"compile"``), decoded programs (``"decode"``),
    each function's register slots, parameter slots and entry PC
    (``"launch_template"``), the launch memo's entry table
    (``"launch_memo"``), launch classifications (``"launch_class"``), CTA
    coupling (``"cta_coupled"``), program order (``"program_order"``) and
    the analyses its compiles share (``"analyses"``,
    :class:`~repro.core.passmgr.AnalysisManager`).

    The caches are keyed weakly by module, so they die with it, and all
    its layers are emptied together when its :func:`structure_token`
    changes. Lifetime rule: **no entry may reference its own module**,
    directly or through anything it holds; such an entry would keep the
    module, and so itself, alive forever. Entries may reference
    the module's functions, and a compiled program references its own
    (compiled) module, never the one it was compiled from.
    """
    token = structure_token(module)
    held = _MODULE_CACHES.get(module)
    if held is None or held[0] != token:
        held = _MODULE_CACHES[module] = (token, {})
    layers = held[1]
    cache = layers.get(layer)
    if cache is None:
        cache = layers[layer] = build()
    return cache


def clear_module_caches(layer=None):
    """Drop ``layer`` from every module's cache, or every layer when
    ``layer`` is None (tests and benchmarks; the per-process segment code
    memo has its own :func:`repro.simt.jit.clear_code_cache`)."""
    if layer is None:
        _MODULE_CACHES.clear()
        return
    for _token, layers in list(_MODULE_CACHES.values()):
        layers.pop(layer, None)
