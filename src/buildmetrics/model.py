"""Corpus-wide code model: type and unit index, packages, dependency graph,
and per-package coupling sets, all built in one pass over the references.

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


def qualify(package_name: str, type_name: str) -> str:
    return f"{package_name}.{type_name}" if package_name else type_name


def resolve_name(model: CodeModel, unit: CompilationUnit, name: str) -> str | None:
    """Resolve a (possibly qualified) type name within the corpus."""
    if name in model.type_index and "." in name:
        return name
    simple = name.rsplit(".", 1)[-1]
    for imp in unit.imports:
        if imp.endswith("." + simple):
            if imp in model.type_index:
                return imp
    candidate = qualify(unit.package_name, simple)
    if candidate in model.type_index:
        return candidate
    if simple in model.type_index:  # default package
        return simple
    return None


def build_code_model(units: list[CompilationUnit]) -> CodeModel:
    """Merge parsed units into a corpus model with a type-dependency graph."""
    seen_paths = set()
    for unit in units:
        if unit.file_path in seen_paths:
            raise ModelError(f"duplicate file path: {unit.file_path}")
        seen_paths.add(unit.file_path)

    model = CodeModel(units=sorted(units, key=lambda u: u.file_path))

    for unit in model.units:
        for decl in unit.types:
            qname = qualify(unit.package_name, decl.name)
            if qname in model.type_index:
                other = model.unit_of_type[qname].file_path
                raise ModelError(
                    f"duplicate type {qname} declared in {other} and {unit.file_path}"
                )
            model.type_index[qname] = decl
            model.unit_of_type[qname] = unit
            model.packages.setdefault(unit.package_name, set()).add(qname)

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
                "comments": len(u.comments),
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
