"""Corpus-wide code model: type and unit index, packages, depth of inheritance,
excluded files, and the dependency graph and package coupling of one reference pass.

The merge is keyed by file path and fully order-independent: units are
sorted by path before indexing, and all serialized collections are ordered
by name, so identical input bytes always yield an identical model.
"""

import json
from dataclasses import dataclass, field

from .errors import ModelError
from .javaparse import CompilationUnit, TypeDecl


@dataclass
class CodeModel:
    units: list[CompilationUnit] = field(default_factory=list)
    packages: dict[str, set[str]] = field(default_factory=dict)  # package -> qualified type names
    type_index: dict[str, TypeDecl] = field(default_factory=dict)  # qualified name -> decl
    dependency_edges: set[tuple[str, str]] = field(default_factory=set)
    unresolved_names: set[str] = field(default_factory=set)
    unit_of_type: dict[str, CompilationUnit] = field(default_factory=dict)
    afferent: dict[str, set[str]] = field(default_factory=dict)  # package -> outside types using it
    efferent: dict[str, set[str]] = field(default_factory=dict)  # package -> its types using outside
    depth: dict[str, int] = field(default_factory=dict)  # qualified name -> depth of inheritance
    excluded: list[tuple[str, str]] = field(default_factory=list)  # (file path, reason), by path


def qualify(package_name: str, type_name: str) -> str:
    return f"{package_name}.{type_name}" if package_name else type_name


def resolve_name(model: CodeModel, unit: CompilationUnit, name: str) -> str | None:
    """Resolve a type name within the corpus. A simple name is looked up through
    the unit's imports, its package and the default package. A dotted name is
    itself when indexed; otherwise its qualifier is resolved by the same rule
    and the last part is looked up in that type's package (as for Outer.Inner)."""
    if "." in name:
        if name in model.type_index:
            return name
        qualifier, simple = name.rsplit(".", 1)
        owner = resolve_name(model, unit, qualifier)
        if owner is None:
            return None
        candidate = qualify(model.unit_of_type[owner].package_name, simple)
        return candidate if candidate in model.type_index else None
    for imp in unit.imports:
        if imp.endswith("." + name) and imp in model.type_index:
            return imp
    candidate = qualify(unit.package_name, name)
    if candidate in model.type_index:
        return candidate
    return name if name in model.type_index else None  # default package


def build_code_model(units: list[CompilationUnit]) -> CodeModel:
    """Merge parsed units into a corpus model with a type-dependency graph.

    Each file that declares a type declared elsewhere too, or holds a type
    whose extends chain reaches a cycle, is left out and listed in excluded.
    """
    seen_paths = set()
    for unit in units:
        if unit.file_path in seen_paths:
            raise ModelError(f"duplicate file path: {unit.file_path}")
        seen_paths.add(unit.file_path)

    units = sorted(units, key=lambda u: u.file_path)
    declared: dict[str, list[str]] = {}
    for unit in units:
        for decl in unit.types:
            declared.setdefault(qualify(unit.package_name, decl.name), []).append(unit.file_path)
    excluded = {path: f"duplicate type {qname} declared in {' and '.join(sorted(paths))}"
                for qname, paths in declared.items() if len(paths) > 1 for path in paths}
    while True:
        model = CodeModel(units=[u for u in units if u.file_path not in excluded])
        for unit in model.units:
            for decl in unit.types:
                qname = qualify(unit.package_name, decl.name)
                model.type_index[qname] = decl
                model.unit_of_type[qname] = unit
                model.packages.setdefault(unit.package_name, set()).add(qname)
        cycles = _inheritance_depths(model)
        if not cycles:
            break
        # A left-out file can change what an extends name elsewhere resolves to.
        excluded.update(cycles)
    model.excluded = sorted(excluded.items())

    for unit in model.units:
        for decl in unit.types:
            qname = qualify(unit.package_name, decl.name)
            for ref in sorted(decl.referenced_type_names):
                target = resolve_name(model, unit, ref)
                if target is None:
                    model.unresolved_names.add(ref)
                elif target != qname:
                    model.dependency_edges.add((qname, target))
                    target_package = model.unit_of_type[target].package_name
                    if target_package != unit.package_name:
                        model.afferent.setdefault(target_package, set()).add(qname)
                        model.efferent.setdefault(unit.package_name, set()).add(qname)
    return model


def _inheritance_depths(model: CodeModel) -> dict[str, str]:
    """Fill model.depth in one topological pass; an unresolved supertype counts
    one level. A type left without a depth is on a cycle or reaches one; the
    result maps its file to the reason given by its first such type."""
    supers: dict[str, list[str]] = {}
    users: dict[str, list[str]] = {}
    for qname, decl in model.type_index.items():
        resolved = (resolve_name(model, model.unit_of_type[qname], n) for n in decl.extends_names)
        supers[qname] = [t for t in resolved if t is not None]
        for target in supers[qname]:
            users.setdefault(target, []).append(qname)
    waiting = {qname: len(targets) for qname, targets in supers.items()}
    ready = [qname for qname, n in waiting.items() if not n]
    for qname in ready:  # grows while it is walked
        model.depth[qname] = max((1 + model.depth[t] for t in supers[qname]),
                                 default=1 if model.type_index[qname].extends_names else 0)
        for user in users.get(qname, ()):
            waiting[user] -= 1
            if not waiting[user]:
                ready.append(user)
    reasons: dict[str, str] = {}
    for qname, unit in model.unit_of_type.items():
        if qname not in model.depth and unit.file_path not in reasons:
            reasons[unit.file_path] = _cycle_reason(qname, supers, model.depth)
    return reasons


def _cycle_reason(qname: str, supers: dict[str, list[str]], depth: dict[str, int]) -> str:
    """The path from qname that always takes the first supertype without a depth."""
    path, on_path = [qname], {qname}
    while True:
        current = path[-1]
        target = next(t for t in supers[current] if t not in depth)
        if target == current:
            return f"inheritance cycle: {current} extends itself"
        if target in on_path:
            return "inheritance cycle: " + " -> ".join(path + [target])
        path.append(target)
        on_path.add(target)


def dump_model_json(model: CodeModel) -> str:
    """Debug dump with stable key ordering."""
    doc = {
        "packages": {
            pkg: sorted(types) for pkg, types in sorted(model.packages.items())
        },
        "dependency_edges": sorted(list(e) for e in model.dependency_edges),
        "unresolved_names": sorted(model.unresolved_names),
        "units": [
            {
                "file_path": u.file_path,
                "package": u.package_name,
                "imports": list(u.imports),
                "physical_lines": u.physical_lines,
                "code_lines": u.code_lines,
                "comments": u.comment_count,
                "types": [
                    {
                        "name": t.name,
                        "kind": t.kind,
                        "is_abstract": t.is_abstract,
                        "supertypes": list(t.supertype_names),
                        "fields": sorted(f.name for f in t.fields_),
                        "constructors": len(t.constructors),
                        "methods": sorted(m.name for m in t.methods),
                    }
                    for t in u.types
                ],
            }
            for u in model.units
        ],
    }
    return json.dumps(doc, indent=2, sort_keys=True)
