"""Synthetic corpus generators.

`generate_corpus` plants a comment/code-ratio rule; `coupled_corpus` builds
a small cross-package type graph for the code model and coupling metrics.


Each build owns one package with two classes: a filler class with a heavy
comment density, and a signal class whose comment/code ratio is drawn below
100 for successful builds and above 130 for failed ones. Under maximum
aggregation the build-level ratio (metric 9) therefore separates the classes
with a gap containing 115. Other size-driven metrics are decorrelated by
drawing method counts, field counts and parameter counts from ranges shared
by both classes.
"""

import json
import random
from pathlib import Path

GAP_LOW = 100
GAP_HIGH = 130


def _class_text(package: str, name: str, code_lines: int, comments: int,
                n_fields: int, n_methods: int, rng: random.Random) -> str:
    overhead = 3 + n_fields + 2 * n_methods  # package+header+close, fields, method frames
    statements = code_lines - overhead
    assert statements >= n_methods, "code_lines target too small"
    per_method = [1] * n_methods
    for _ in range(statements - n_methods):
        per_method[rng.randrange(n_methods)] += 1

    lines = [f"package {package};", f"public class {name} {{"]
    for f in range(n_fields):
        lines.append(f"    private int f{f};")
    remaining_comments = comments
    for m in range(n_methods):
        if remaining_comments > 0:
            lines.append(f"    // note {m}")
            remaining_comments -= 1
        params = ", ".join(f"int p{k}" for k in range(rng.randrange(0, 4)))
        lines.append(f"    public void run{m}({params}) {{")
        for s in range(per_method[m]):
            field = rng.randrange(n_fields)
            lines.append(f"        f{field} = f{field} + {s + 1};")
        lines.append("    }")
    for _ in range(remaining_comments):
        lines.append("    // trailing note")
    lines.append("}")
    return "\n".join(lines) + "\n"


def generate_corpus(root: Path, n_success: int, n_failed: int, seed: int = 7):
    """Write source files and manifests; returns (source_dir, manifest_dir)."""
    rng = random.Random(seed)
    src = root / "src"
    manifests = root / "manifests"
    src.mkdir(parents=True, exist_ok=True)
    manifests.mkdir(parents=True, exist_ok=True)
    labels = ["success"] * n_success + ["failed"] * n_failed
    for idx, label in enumerate(labels):
        package = f"b{idx:03d}"
        pkg_dir = src / package
        pkg_dir.mkdir(exist_ok=True)
        filler_code = rng.randrange(40, 81)
        filler = _class_text(
            package, "Filler", filler_code, comments=max(2, filler_code // 20),
            n_fields=rng.randrange(1, 7), n_methods=rng.randrange(4, 10), rng=rng,
        )
        if label == "success":
            signal_code = rng.randrange(60, GAP_LOW + 1)
            signal_comments = rng.randrange(1, 4)
        else:
            signal_code = rng.randrange(GAP_HIGH, 201)
            signal_comments = 1
        signal = _class_text(
            package, "Signal", signal_code, comments=signal_comments,
            n_fields=rng.randrange(1, 7), n_methods=rng.randrange(4, 10), rng=rng,
        )
        (pkg_dir / "Filler.java").write_text(filler)
        (pkg_dir / "Signal.java").write_text(signal)
        manifest = {
            "build_id": f"build-{idx:03d}",
            "kind": "continuous",
            "result": label,
            "files": [f"{package}/Filler.java", f"{package}/Signal.java"],
        }
        (manifests / f"build-{idx:03d}.json").write_text(json.dumps(manifest, indent=1))
    return src, manifests


def coupled_corpus(root: Path, n_packages: int, seed: int):
    """Write packages q00.. whose types import, extend and implement each other.

    Package p holds 2-4 types T<p>_<i>. In about a third of the packages T<p>_0
    is an interface that later classes may implement; a class usually extends
    the previous type of its package and sometimes a class of an earlier
    package. Every class imports one to three types from other packages and
    holds fields of them. A package with 4 types is a failed build.
    Returns (source_dir, manifest_dir).
    """
    rng = random.Random(seed)
    src, manifests = root / "src", root / "manifests"
    manifests.mkdir(parents=True, exist_ok=True)
    sizes = [rng.randrange(2, 5) for _ in range(n_packages)]
    interfaces = {p for p in range(n_packages) if rng.random() < 0.33}
    for p, size in enumerate(sizes):
        (src / f"q{p:02d}").mkdir(parents=True, exist_ok=True)
        files = []
        for i in range(size):
            name = f"T{p:02d}_{i}"
            files.append(f"q{p:02d}/{name}.java")
            lines = [f"package q{p:02d};"]
            if i == 0 and p in interfaces:
                lines += [f"public interface {name} {{", "    int op(int a);", "}"]
            else:
                others = rng.sample([q for q in range(n_packages) if q != p], rng.randrange(1, 4))
                deps = [f"q{q:02d}.T{q:02d}_{rng.randrange(sizes[q])}" for q in sorted(others)]
                lines += [f"import {d};" for d in deps]
                header = f"public class {name}"
                if i > 1 or (i == 1 and p not in interfaces):
                    header += f" extends T{p:02d}_{i - 1}"
                elif p > 0 and rng.random() < 0.5:
                    header += f" extends q{p - 1:02d}.T{p - 1:02d}_{sizes[p - 1] - 1}"
                if p in interfaces and i > 0 and rng.random() < 0.5:
                    header += f" implements T{p:02d}_0"
                lines.append(header + " {")
                lines.append("    private int count;")
                lines += [f"    private {d.rsplit('.', 1)[1]} dep{k};" for k, d in enumerate(deps)]
                for m in range(rng.randrange(1, 4)):
                    lines += [
                        "    // step " + str(m),
                        f"    public int op{m}(int a) {{",
                        f"        if (a > {rng.randrange(10)} && dep0 != null) {{",
                        f"            count += a * {rng.randrange(1, 9)};",
                        "        }",
                        "        return count;",
                        "    }",
                    ]
                lines.append("}")
            (src / files[-1]).write_text("\n".join(lines) + "\n")
        manifest = {
            "build_id": f"build-{p:02d}",
            "kind": "nightly",
            "result": "failed" if size == 4 else "success",
            "files": files,
        }
        (manifests / f"build-{p:02d}.json").write_text(json.dumps(manifest, indent=1))
    return src, manifests
