"""The optional dIPC-aware compiler pass (§5.3.1, §6.2).

The paper implements a CLang source-to-source pass reading four kinds of
annotations — ``dom`` (assign code/data to domains), ``entry`` (export an
entry point), ``perm`` (direct cross-domain permissions inside a
process) and ``iso_caller``/``iso_callee`` (isolation properties) — and
emits caller/callee stubs plus extra binary sections for the loader.

Here the annotations are decorators on an :class:`AnnotatedModule`, and
``compile_module`` produces a :class:`BinaryImage` with the same logical
sections. Stubs generated this way are *co-optimized*: the compiler
knows register liveness at each call site, so register save/zero cost is
lower than the worst case the runtime-folded stubs must assume —
mirroring the paper's setjmp-vs-C++-try experiment (~2.5× cheaper state
preservation, §5.3.1).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Tuple

from repro.codoms.apl import Permission
from repro.core.objects import EntryDescriptor, Signature
from repro.core.policies import IsolationPolicy
from repro.errors import LoaderError

#: §5.3.1: compiler reconstruction beats setjmp-style saving by ~2.5x
STUB_COOPT_FACTOR = 2.5


@dataclass
class EntrySpec:
    """One ``entry``-annotated function."""

    name: str
    domain: str
    func: Callable
    signature: Signature
    iso_callee: IsolationPolicy


@dataclass
class ImportSpec:
    """One imported remote entry point (a dynamic symbol, §3.2)."""

    name: str
    path: str                      # named-socket path of the exporter
    signature: Signature
    iso_caller: IsolationPolicy


@dataclass
class PermSpec:
    """A ``perm`` annotation: direct grant between two local domains."""

    src: str
    dst: str
    perm: Permission


class AnnotatedModule:
    """Source-level view of one dIPC-enabled component."""

    def __init__(self, name: str):
        self.name = name
        self.domains: List[str] = []
        self.entries: Dict[str, EntrySpec] = {}
        self.imports: Dict[str, ImportSpec] = {}
        self.perms: List[PermSpec] = []

    # -- annotations -------------------------------------------------------------

    def domain(self, name: str) -> str:
        """Declare a domain ('dom' annotation). Returns its name."""
        if name not in self.domains:
            self.domains.append(name)
        return name

    def entry(self, domain: str, signature: Signature,
              iso_callee: Optional[IsolationPolicy] = None,
              name: Optional[str] = None):
        """Decorator: export a function as a public entry point."""
        self.domain(domain)

        def wrap(func: Callable) -> Callable:
            entry_name = name or func.__name__
            if entry_name in self.entries:
                raise LoaderError(f"duplicate entry '{entry_name}'")
            self.entries[entry_name] = EntrySpec(
                entry_name, domain, func, signature,
                iso_callee or IsolationPolicy())
            return func

        return wrap

    def import_entry(self, name: str, path: str, signature: Signature,
                     iso_caller: Optional[IsolationPolicy] = None
                     ) -> ImportSpec:
        """Declare a remote entry point used by this module."""
        if name in self.imports:
            raise LoaderError(f"duplicate import '{name}'")
        spec = ImportSpec(name, path, signature,
                          iso_caller or IsolationPolicy())
        self.imports[name] = spec
        return spec

    def perm(self, src: str, dst: str, perm: Permission) -> None:
        """Direct cross-domain permission inside this process."""
        self.domain(src)
        self.domain(dst)
        self.perms.append(PermSpec(src, dst, Permission(perm)))


@dataclass
class BinaryImage:
    """What the 'compiler' emits: the module plus the extra sections the
    loader consumes (§5.3.2), with stubs marked as generated."""

    module: AnnotatedModule
    export_path: Optional[str] = None
    #: stub co-optimization active (compiler knows register liveness)
    optimized_stubs: bool = True
    sections: Dict[str, object] = field(default_factory=dict)


def compile_module(module: AnnotatedModule, *,
                   export_path: Optional[str] = None,
                   optimized_stubs: bool = True) -> BinaryImage:
    """The source-to-source pass: validate annotations, emit sections."""
    for spec in module.entries.values():
        if spec.domain not in module.domains:
            raise LoaderError(f"entry '{spec.name}' in undeclared domain "
                              f"'{spec.domain}'")
    image = BinaryImage(module, export_path=export_path,
                        optimized_stubs=optimized_stubs)
    image.sections = {
        ".dipc.domains": list(module.domains),
        ".dipc.entries": [(e.name, e.domain) for e in
                          module.entries.values()],
        ".dipc.imports": [(i.name, i.path) for i in
                          module.imports.values()],
        ".dipc.perms": [(p.src, p.dst, p.perm.name) for p in module.perms],
    }
    return image


def caller_stub_charges(thread, policy: IsolationPolicy, *,
                        optimized: bool, before: bool):
    """Sub-generator: the compiler-generated caller stub's cost
    (isolate_call / deisolate_call + isolate_ret). With co-optimization
    the register work is ~2.5x cheaper (§5.3.1)."""
    costs = thread.kernel.costs
    factor = 1.0 / STUB_COOPT_FACTOR if optimized else 1.0
    if before:
        if policy.reg_integrity:
            yield from thread.compute(costs.STUB_REG_SAVE * factor)
        if policy.reg_confidentiality:
            yield from thread.compute(costs.STUB_REG_ZERO * factor * 5 / 8)
        if policy.stack_integrity:
            yield from thread.compute(costs.STUB_STACK_CAPS)
    else:
        if policy.reg_confidentiality:
            yield from thread.compute(costs.STUB_REG_ZERO * factor * 3 / 8)
        if policy.reg_integrity:
            yield from thread.compute(costs.STUB_REG_RESTORE * factor)
