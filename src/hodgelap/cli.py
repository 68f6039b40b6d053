"""Command-line front end: complex I/O, spectra, constructions, verification.

Complex documents are JSON objects with a required ``facets`` list (integer
vertex lists), an optional ``weights`` map keyed by comma-joined ascending
vertex strings (it must cover every face of the complex), and an optional
``name``.  :func:`parse_document` builds a document's complex and custom
weights once, and every command reads those.  Data goes to stdout,
diagnostics to stderr.  Exit codes: 0 success, 1 failed verification, 2
malformed document or option (with a line/position diagnostic when the JSON
layer is at fault) or a lost corpus worker, 3 numeric failure.  Each code
has one path: ``verify`` exits 1 through click's context, and
:func:`cli_main` turns a :class:`NumericError` into 3 and any other library
or click error into 2.

Lines are written with ``print``: ``click.echo`` caches every stream it
meets, so each buffer that an in-process caller redirects to stays alive.
"""

from __future__ import annotations

import json
import math
import sys
from dataclasses import dataclass
from itertools import chain

import click

from .constructions import (FAMILIES, FamilySpec, cartesian_product, cone, duplicate_motif,
                            generate, join, wedge)
from .core import SimplicialComplex, from_facets
from .corpus import RANDOM_COUNT
from .errors import DocumentError, HodgelapError, NumericError
from .operators import WeightScheme, laplacian
from .spectra import DEFAULT_VALUE_TOL, betti, bounds_report, predicted_zero_multiplicity, spectrum
from .suites import _DOCUMENT_SUITES, SUITES, _entries

EXIT_OK = 0
EXIT_VERIFY_FAILED = 1
EXIT_BAD_DOCUMENT = 2
EXIT_NUMERIC = 3


def _sig12(x: float) -> float:
    return float(f"{float(x):.12g}")


def face_key(face) -> str:
    return ",".join(str(v) for v in face)


@dataclass(frozen=True)
class ComplexDocument:
    """A parsed complex document: its complex, custom weights and name.

    ``scheme`` is the custom :class:`WeightScheme` of the document's
    ``weights`` map, or None when it has none.  :func:`parse_document`
    builds both, once per document.
    """

    complex_: SimplicialComplex
    scheme: WeightScheme | None
    name: str | None

    def to_complex(self) -> SimplicialComplex:
        """The document's complex."""
        return self.complex_


def _custom_scheme(complex_: SimplicialComplex, weights: dict) -> WeightScheme:
    """Custom scheme from a document's weights, which must cover every face."""
    known = {face_key(f) for f in complex_.all_faces() if f}
    mapping = {}
    for key, value in weights.items():
        if key == "":
            face = ()
        else:
            if key not in known:
                raise DocumentError(f"weight key {key!r} is not a face of the complex")
            face = tuple(int(v) for v in key.split(","))
        # NaN fails every comparison; an integer too large for a float
        # fails the bound instead of overflowing in float().
        number = isinstance(value, (int, float)) and not isinstance(value, bool)
        if not (number and 0 < value <= sys.float_info.max):
            raise DocumentError(f"weight for {key!r} must be a finite positive number")
        mapping[face] = float(value)
    missing = known - {face_key(f) for f in mapping if f}
    if missing:
        raise DocumentError(
            f"weights must cover every face; missing {sorted(missing)[:5]}"
        )
    return WeightScheme.from_map(mapping)


def parse_document(text: str) -> ComplexDocument:
    try:
        raw = json.loads(text)
    except json.JSONDecodeError as exc:
        raise DocumentError(
            f"invalid JSON: {exc.msg}", line=exc.lineno, column=exc.colno
        ) from exc
    except (ValueError, RecursionError) as exc:
        # An integer longer than the interpreter converts, or nesting deeper
        # than its recursion limit.
        raise DocumentError(f"invalid JSON: {exc}") from exc
    if not isinstance(raw, dict):
        raise DocumentError("document must be a JSON object")
    facets = raw.get("facets")
    if not isinstance(facets, list) or not facets:
        raise DocumentError("document needs a non-empty 'facets' list")
    # JSON gives exact types, so one pass over the types decides; only a
    # failing document is walked to name its first bad facet.
    if set(map(type, facets)) != {list} or not set(map(type, chain.from_iterable(facets))) <= {int}:
        for f in facets:
            if not isinstance(f, list) or not all(type(v) is int for v in f):
                raise DocumentError(f"facet {f!r} must be a list of integers")
    weights = raw.get("weights")
    if weights is not None and not isinstance(weights, dict):
        raise DocumentError("'weights' must be an object")
    name = raw.get("name")
    if name is not None and not isinstance(name, str):
        raise DocumentError("'name' must be a string")
    try:
        complex_ = from_facets(facets)
    except HodgelapError as exc:
        raise DocumentError(str(exc)) from exc
    scheme = None if weights is None else _custom_scheme(complex_, weights)
    return ComplexDocument(complex_, scheme, name)


def document_dict(complex_: SimplicialComplex, name: str | None = None) -> dict:
    if complex_.dim < 0:
        # Its only facet is the empty face, and a document's facets must be
        # non-empty vertex lists, so no document describes it.
        raise DocumentError("the void complex (no vertices) has no document form")
    out: dict = {"facets": [list(f) for f in complex_.facets()]}
    if name:
        out["name"] = name
    return out


def _load(path: str) -> ComplexDocument:
    try:
        with click.open_file(path, "r") as handle:
            text = handle.read()
    except OSError as exc:
        raise DocumentError(f"cannot read {path}: {exc}") from exc
    except UnicodeDecodeError as exc:
        raise DocumentError(f"cannot read {path}: not UTF-8 text ({exc.reason})") from exc
    return parse_document(text)


def _emit(data: str, out: str | None):
    if out:
        try:
            with open(out, "w") as handle:
                handle.write(data + "\n")
        except OSError as exc:
            raise DocumentError(f"cannot write {out}: {exc}") from exc
    else:
        print(data)


def _scheme_for(doc: ComplexDocument, kind: str) -> WeightScheme:
    if kind != "custom":
        return WeightScheme(kind)
    if doc.scheme is None:
        raise DocumentError("scheme 'custom' needs a 'weights' map in the document")
    return doc.scheme


@click.group()
def main_group():
    """Spectra of weighted combinatorial Laplacians on simplicial complexes."""


@main_group.command("generate")
@click.argument("family", type=click.Choice(FAMILIES))
@click.option("--i", "i", type=int, default=None, help="order parameter (circuit, path, star)")
@click.option("--m", "m", type=int, default=None, help="length parameter (circuit, path, star)")
@click.option("--n", "n", type=int, default=None, help="vertex count (simplex)")
@click.option("-o", "--output", default=None, help="write the document here instead of stdout")
def cmd_generate(family, i, m, n, output):
    """Emit the complex document of a named family instance.

    --n applies to simplex only, --i and --m to circuit, path and star
    only; an option the family does not read is refused.
    """
    reads = {"simplex": ("--n",), "moebius-circuit": ()}.get(family, ("--i", "--m"))
    for option, value in (("--i", i), ("--m", m), ("--n", n)):
        if value is not None and option not in reads:
            raise DocumentError(f"{option} does not apply to {family}")
    spec = FamilySpec(family, n=n, i=i, m=m)
    complex_ = generate(spec)
    label = family if family in ("moebius-circuit",) else (
        f"simplex(n={n})" if family == "simplex" else f"{family}(i={i},m={m})"
    )
    _emit(json.dumps(document_dict(complex_, label), indent=2), output)


def _check_tolerance(ctx, param, value):
    if value is not None and not (math.isfinite(value) and value >= 0):
        raise click.BadParameter(f"must be a finite number >= 0, got {value}")
    return value


@main_group.command("spectrum")
@click.argument("file", type=str)
@click.option("--dim", "dim", type=int, required=True)
@click.option("--direction", type=click.Choice(["up", "down", "full"]), default="up")
@click.option("--scheme", type=click.Choice(["normalized", "combinatorial", "custom"]),
              default="normalized")
@click.option("--zero-tol", type=float, default=None, callback=_check_tolerance,
              help="override the zero threshold")
def cmd_spectrum(file, dim, direction, scheme, zero_tol):
    """Eigenvalues plus zero counts, Betti numbers and the bounds report."""
    doc = _load(file)
    complex_ = doc.to_complex()
    sch = _scheme_for(doc, scheme)
    spec = spectrum(laplacian(complex_, dim, direction, sch), zero_tol)
    profile = betti(complex_)
    rep = bounds_report(complex_, dim, sch)
    payload = {
        "name": doc.name,
        "dim": dim,
        "direction": direction,
        "scheme": scheme,
        "eigenvalues": [_sig12(v) for v in spec.values],
        "zero_tol": _sig12(spec.zero_tol),
        "zero_multiplicity": spec.zero_multiplicity,
        "predicted_zero_multiplicity": predicted_zero_multiplicity(
            complex_, dim, direction, profile
        ),
        "betti": {f"b~{j}": profile[j] for j in range(-1, profile.top_dim + 1)},
        "bounds": {
            "applicable": rep.applicable,
            "lambda_max": _sig12(rep.lambda_max) if rep.applicable else None,
            "upper_bound": _sig12(rep.upper_bound) if rep.applicable else None,
            "trace_lower": _sig12(rep.trace_lower) if rep.trace_lower is not None else None,
            "degree_lower": _sig12(rep.degree_lower) if rep.degree_lower is not None else None,
            "normalized_degree_lower": _sig12(rep.normalized_degree_lower)
            if rep.normalized_degree_lower is not None
            else None,
            "slack": rep.slack,
            "all_satisfied": rep.all_satisfied,
        },
    }
    print(json.dumps(payload, indent=2))


@main_group.command("betti")
@click.argument("file", type=str)
def cmd_betti(file):
    """Reduced Betti numbers (exact integer ranks)."""
    complex_ = _load(file).to_complex()
    profile = betti(complex_)
    print(json.dumps({f"b~{j}": profile[j] for j in range(-1, profile.top_dim + 1)}))


def _vertices(option: str, text: str) -> tuple[int, ...]:
    """The vertices of a comma-joined ``--face`` or ``--motif`` value."""
    try:
        return tuple(int(v) for v in text.split(","))
    except ValueError:
        raise DocumentError(f"{option} must be comma-joined integers, got {text!r}") from None


@main_group.command("construct")
@click.argument("operation", type=click.Choice(["wedge", "join", "cone", "duplicate", "product"]))
@click.argument("files", nargs=-1, type=str)
@click.option("--face", "faces", multiple=True,
              help="comma-joined vertices; give twice for the two wedge faces")
@click.option("--motif", default=None, help="comma-joined motif vertices (duplicate)")
@click.option("-o", "--output", default=None)
def cmd_construct(operation, files, faces, motif, output):
    """Build a wedge, join, cone, motif duplication, or graph product."""
    needed = {"wedge": 2, "join": 2, "cone": 1, "duplicate": 1, "product": 2}[operation]
    if len(files) != needed:
        raise DocumentError(f"{operation} needs exactly {needed} input document(s)")
    if faces and operation != "wedge":
        raise DocumentError(f"--face applies to wedge only, not to {operation}")
    if motif is not None and operation != "duplicate":
        raise DocumentError(f"--motif applies to duplicate only, not to {operation}")
    if operation == "wedge" and not 1 <= len(faces) <= 2:
        raise DocumentError(f"wedge needs --face once or twice, got {len(faces)}")
    complexes = [_load(f).to_complex() for f in files]
    if operation == "wedge":
        parsed = [_vertices("--face", f) for f in faces]
        result, _ = wedge(*complexes, parsed[0], parsed[-1])
    elif operation == "duplicate":
        if motif is None:
            raise DocumentError("duplicate needs --motif v1,v2,...")
        result, _ = duplicate_motif(complexes[0], _vertices("--motif", motif))
    else:
        build = {"join": join, "cone": cone, "product": cartesian_product}[operation]
        result, _ = build(*complexes)
    _emit(json.dumps(document_dict(result, operation), indent=2), output)


@main_group.command("verify")
@click.argument("files", nargs=-1, type=str)
@click.option("--suite", default="all",
              type=click.Choice(("all",) + SUITES), help="which suite to run")
@click.option("--seed", type=click.IntRange(min=0), default=0, help="seed for the random fixtures")
@click.option("--tol", type=float, default=DEFAULT_VALUE_TOL, callback=_check_tolerance,
              help="override the eigenvalue tolerance")
@click.option("--random-count", type=click.IntRange(min=0), default=RANDOM_COUNT,
              help="number of random fixtures")
def cmd_verify(files, suite, seed, tol, random_count):
    """Run theorem suites; one CheckReport JSON per line, exit 0 iff all pass.

    Each FILE is checked as ``user-<name>``, its ``name`` or else its file
    stem.  Two files of one name are refused, and so are files given to a
    suite that checks no documents (``families``, ``wedge``, ``join``,
    ``duplication``).
    """
    if files and suite not in ("all",) + _DOCUMENT_SUITES:
        raise DocumentError(f"--suite {suite} does not read documents")
    extra = {}
    for path in files:
        doc = _load(path)
        name = "user-" + (doc.name or path.rsplit("/", 1)[-1].removesuffix(".json"))
        if name in extra:
            raise DocumentError(f"{path}: an earlier document is also named {name!r}")
        extra[name] = doc.to_complex()
    # Each line was encoded by the process that checked its report.
    entries = _entries([suite], seed, extra, tol, random_count)
    failed = n_na = 0
    for _, line, report in entries:
        print(line)
        status = report.status
        failed += status == "fail"
        n_na += status == "not-applicable"
    print(f"verify: {len(entries)} checks, {failed} failed, {n_na} not applicable", file=sys.stderr)
    if failed:
        print(f"error: {failed} checks failed", file=sys.stderr)
        click.get_current_context().exit(EXIT_VERIFY_FAILED)


def cli_main(argv: list[str] | None = None) -> int:
    """Entry point returning the exit code (0/1/2/3 per the contract)."""
    try:
        # A command returns None, or click's context exit code.
        return main_group.main(args=argv, standalone_mode=False) or EXIT_OK
    except NumericError as exc:
        print(f"numeric error: {exc}", file=sys.stderr)
        return EXIT_NUMERIC
    except HodgelapError as exc:
        location = ""
        if isinstance(exc, DocumentError) and exc.line is not None:
            location = f" (line {exc.line}, column {exc.column})"
        print(f"error: {exc}{location}", file=sys.stderr)
        return EXIT_BAD_DOCUMENT
    except click.ClickException as exc:
        exc.show(sys.stderr)
        return EXIT_BAD_DOCUMENT
    except click.exceptions.Abort:
        return EXIT_BAD_DOCUMENT


def main():  # console-script shim
    sys.exit(cli_main(sys.argv[1:]))


if __name__ == "__main__":
    main()
