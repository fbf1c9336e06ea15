"""Corpus-wide code model: type and unit index, packages, depth of inheritance,
excluded files, and the dependency graph and package coupling of one reference pass.

The merge is keyed by file path and fully order-independent: units are
sorted by path before indexing, so identical input bytes always yield an
identical model.
"""

from __future__ import annotations  # javaparse's types, named in annotations, stay unloaded: only extract parses

from .errors import BuildMetricsError


class CodeModel:
    __slots__ = ("units", "packages", "type_index", "dependency_edges", "unit_of_type", "afferent", "efferent",
                 "depth", "excluded", "imported")

    def __init__(self, units: list[CompilationUnit]):
        self.units = units
        self.packages: dict[str, set[str]] = {}  # package -> qualified type names
        self.type_index: dict[str, TypeDecl] = {}  # qualified name -> decl
        self.dependency_edges: set[tuple[str, str]] = set()
        self.unit_of_type: dict[str, CompilationUnit] = {}
        self.afferent: dict[str, set[str]] = {}  # package -> outside types using it
        self.efferent: dict[str, set[str]] = {}  # package -> its types using outside
        self.depth: dict[str, int] = {}  # qualified name -> depth of inheritance
        self.excluded: list[tuple[str, str]] = []  # (file path, reason), by path
        self.imported: dict[str, dict[str, str]] = {}  # path -> last part -> import


def qualify(package_name: str, type_name: str) -> str:
    return f"{package_name}.{type_name}" if package_name else type_name


def resolve_name(model: CodeModel, unit: CompilationUnit, name: str) -> str | None:
    """Resolve a type name within the corpus. A simple name is looked up through
    the unit's imports, its package and the default package. A dotted name is
    itself when indexed; otherwise its qualifier is resolved by the same rule
    and the last part is looked up in that type's package (as for Outer.Inner).
    So the qualifiers resolve from the first part on, one part at a time."""
    head, *rest = name.split(".")
    if (imported := model.imported.get(unit.file_path)) is None:  # the first indexed import of each last part
        imported = model.imported[unit.file_path] = {
            imp.rpartition(".")[2]: imp for imp in reversed(unit.imports) if "." in imp and imp in model.type_index}
    owner = imported.get(head)
    if owner is None:  # the unit's package, then the default package
        owner = next((q for q in (qualify(unit.package_name, head), head) if q in model.type_index), None)
    for part in rest:
        head = f"{head}.{part}"
        if head in model.type_index:
            owner = head
        elif owner is not None:
            candidate = qualify(model.unit_of_type[owner].package_name, part)
            owner = candidate if candidate in model.type_index else None
    return owner


def build_code_model(units: list[CompilationUnit]) -> CodeModel:
    """Merge parsed units into a corpus model with a type-dependency graph.

    Each file that declares a type declared elsewhere too, or holds a type
    whose extends chain reaches a cycle, is left out and listed in excluded.
    """
    seen_paths = set()
    for unit in units:
        if unit.file_path in seen_paths:
            raise BuildMetricsError(f"duplicate file path: {unit.file_path}")
        seen_paths.add(unit.file_path)

    units = sorted(units, key=lambda u: u.file_path)
    declared: dict[str, list[str]] = {}
    for unit in units:
        for decl in unit.types:
            declared.setdefault(qualify(unit.package_name, decl.name), []).append(unit.file_path)
    excluded = {path: f"duplicate type {qname} declared in {' and '.join(sorted(paths))}"
                for qname, paths in declared.items() if len(paths) > 1 for path in paths}
    while True:
        model = CodeModel([u for u in units if u.file_path not in excluded])
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
                if target is not None and target != qname:
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

