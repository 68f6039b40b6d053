"""Command-line front end: complex I/O, spectra, constructions, verification.

Complex documents are JSON objects with a required ``facets`` list (integer
vertex lists), an optional ``weights`` map keyed by comma-joined ascending
vertex strings (it must cover every face of the complex), and an optional
``name``.  Data goes to stdout, diagnostics to stderr.  Exit codes:
0 success, 1 failed verification, 2 malformed document (with a line/position
diagnostic when the JSON layer is at fault), 3 numeric failure.
"""

from __future__ import annotations

import json
import sys
from dataclasses import dataclass

import click

from .constructions import FamilySpec, cartesian_product, cone, duplicate_motif, generate, join, wedge
from .core import SimplicialComplex, from_facets
from .errors import DocumentError, HodgelapError, NumericError
from .operators import WeightScheme, laplacian
from .spectra import betti, bounds_report, predicted_zero_multiplicity, spectrum
from .suites import SUITES, run_suites

EXIT_OK = 0
EXIT_VERIFY_FAILED = 1
EXIT_BAD_DOCUMENT = 2
EXIT_NUMERIC = 3


def _sig12(x: float) -> float:
    return float(f"{float(x):.12g}")


def face_key(face) -> str:
    return ",".join(str(v) for v in face)


@dataclass
class ComplexDocument:
    """Parsed form of the JSON complex interchange format."""

    facets: list[list[int]]
    weights: dict[str, float] | None = None
    name: str | None = None

    def to_complex(self) -> SimplicialComplex:
        try:
            return from_facets(self.facets)
        except HodgelapError as exc:
            raise DocumentError(str(exc)) from exc

    def weight_scheme(self) -> WeightScheme | None:
        """Custom scheme from the document weights; validates coverage."""
        if self.weights is None:
            return None
        complex_ = self.to_complex()
        known = {face_key(f) for f in complex_.all_faces() if f}
        mapping = {}
        for key, value in self.weights.items():
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
    if not isinstance(raw, dict):
        raise DocumentError("document must be a JSON object")
    facets = raw.get("facets")
    if not isinstance(facets, list) or not facets:
        raise DocumentError("document needs a non-empty 'facets' list")
    for f in facets:
        if not isinstance(f, list) or not all(isinstance(v, int) and not isinstance(v, bool) for v in f):
            raise DocumentError(f"facet {f!r} must be a list of integers")
    weights = raw.get("weights")
    if weights is not None and not isinstance(weights, dict):
        raise DocumentError("'weights' must be an object")
    name = raw.get("name")
    if name is not None and not isinstance(name, str):
        raise DocumentError("'name' must be a string")
    doc = ComplexDocument(facets, weights, name)
    doc.to_complex()
    if weights is not None:
        doc.weight_scheme()
    return doc


def document_dict(complex_: SimplicialComplex, name: str | None = None,
                  weights: dict[str, float] | None = None) -> dict:
    if complex_.dim < 0:
        # Its only facet is the empty face, and a document's facets must be
        # non-empty vertex lists, so no document describes it.
        raise DocumentError("the void complex (no vertices) has no document form")
    out: dict = {"facets": [list(f) for f in complex_.facets()]}
    if name:
        out["name"] = name
    if weights:
        out["weights"] = weights
    return out


def serialize_complex(complex_: SimplicialComplex, name: str | None = None) -> str:
    return json.dumps(document_dict(complex_, name), indent=2)


def _load(path: str) -> ComplexDocument:
    try:
        with click.open_file(path, "r") as handle:
            text = handle.read()
    except OSError as exc:
        raise DocumentError(f"cannot read {path}: {exc}") from exc
    return parse_document(text)


def _emit(data: str, out: str | None):
    if out:
        try:
            with open(out, "w") as handle:
                handle.write(data + "\n")
        except OSError as exc:
            raise DocumentError(f"cannot write {out}: {exc}") from exc
    else:
        click.echo(data)


def _scheme_for(doc: ComplexDocument, kind: str) -> WeightScheme:
    if kind == "custom":
        scheme = doc.weight_scheme()
        if scheme is None:
            raise DocumentError("scheme 'custom' needs a 'weights' map in the document")
        return scheme
    return WeightScheme(kind)


@click.group()
def main_group():
    """Spectra of weighted combinatorial Laplacians on simplicial complexes."""


@main_group.command("generate")
@click.argument("family", type=click.Choice(["simplex", "circuit", "path", "star", "moebius-circuit"]))
@click.option("--i", "i", type=int, default=None, help="order parameter of the family")
@click.option("--m", "m", type=int, default=None, help="length parameter")
@click.option("--n", "n", type=int, default=None, help="vertex count (simplex)")
@click.option("-o", "--output", default=None, help="write the document here instead of stdout")
def cmd_generate(family, i, m, n, output):
    """Emit the complex document of a named family instance."""
    spec = FamilySpec(family, n=n, i=i, m=m)
    complex_ = generate(spec)
    label = family if family in ("moebius-circuit",) else (
        f"simplex(n={n})" if family == "simplex" else f"{family}(i={i},m={m})"
    )
    _emit(json.dumps(document_dict(complex_, label), indent=2), output)


@main_group.command("spectrum")
@click.argument("file", type=str)
@click.option("--dim", "dim", type=int, required=True)
@click.option("--direction", type=click.Choice(["up", "down", "full"]), default="up")
@click.option("--scheme", type=click.Choice(["normalized", "combinatorial", "custom"]),
              default="normalized")
@click.option("--zero-tol", type=float, default=None, help="override the zero threshold")
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
    click.echo(json.dumps(payload, indent=2))


@main_group.command("betti")
@click.argument("file", type=str)
def cmd_betti(file):
    """Reduced Betti numbers (exact integer ranks)."""
    complex_ = _load(file).to_complex()
    profile = betti(complex_)
    click.echo(json.dumps({f"b~{j}": profile[j] for j in range(-1, profile.top_dim + 1)}))


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
    complexes = [_load(f).to_complex() for f in files]
    if operation == "wedge":
        if not faces:
            raise DocumentError("wedge needs --face (once or twice)")
        parsed = [tuple(int(v) for v in f.split(",")) for f in faces]
        f1 = parsed[0]
        f2 = parsed[1] if len(parsed) > 1 else parsed[0]
        result, _ = wedge(complexes[0], complexes[1], f1, f2)
        label = "wedge"
    elif operation == "join":
        result, _ = join(complexes[0], complexes[1])
        label = "join"
    elif operation == "cone":
        result, _ = cone(complexes[0])
        label = "cone"
    elif operation == "duplicate":
        if motif is None:
            raise DocumentError("duplicate needs --motif v1,v2,...")
        verts = tuple(int(v) for v in motif.split(","))
        result, _ = duplicate_motif(complexes[0], verts)
        label = "duplicate"
    else:
        result, _ = cartesian_product(complexes[0], complexes[1])
        label = "product"
    _emit(json.dumps(document_dict(result, label), indent=2), output)


@main_group.command("verify")
@click.argument("files", nargs=-1, type=str)
@click.option("--suite", default="all",
              type=click.Choice(("all",) + SUITES), help="which suite to run")
@click.option("--seed", type=int, default=0, help="seed for the random fixtures")
@click.option("--tol", type=float, default=None, help="override the eigenvalue tolerance")
@click.option("--random-count", type=int, default=None, help="number of random fixtures")
def cmd_verify(files, suite, seed, tol, random_count):
    """Run theorem suites; one CheckReport JSON per line, exit 0 iff all pass."""
    extra = {}
    for path in files:
        doc = _load(path)
        stem = doc.name or path.rsplit("/", 1)[-1].removesuffix(".json")
        extra[f"user-{stem}"] = doc.to_complex()
    kwargs = {"seed": seed, "extra": extra or None}
    if tol is not None:
        kwargs["tol"] = tol
    if random_count is not None:
        kwargs["random_count"] = random_count
    reports = run_suites([suite], **kwargs)
    failed = 0
    for report in reports:
        click.echo(json.dumps(report.to_dict(), default=str))
        if report.status == "fail":
            failed += 1
    n_na = sum(1 for r in reports if r.status == "not-applicable")
    click.echo(
        f"verify: {len(reports)} checks, {failed} failed, {n_na} not applicable",
        err=True,
    )
    if failed:
        raise _VerifyFailed(failed)


class _VerifyFailed(Exception):
    def __init__(self, count):
        super().__init__(f"{count} checks failed")
        self.count = count


def cli_main(argv: list[str] | None = None) -> int:
    """Entry point returning the exit code (0/1/2/3 per the contract)."""
    try:
        main_group.main(args=argv, standalone_mode=False)
        return EXIT_OK
    except _VerifyFailed as exc:
        click.echo(f"error: {exc}", err=True)
        return EXIT_VERIFY_FAILED
    except DocumentError as exc:
        location = ""
        if exc.line is not None:
            location = f" (line {exc.line}, column {exc.column})"
        click.echo(f"error: {exc}{location}", err=True)
        return EXIT_BAD_DOCUMENT
    except NumericError as exc:
        click.echo(f"numeric error: {exc}", err=True)
        return EXIT_NUMERIC
    except HodgelapError as exc:
        click.echo(f"error: {exc}", err=True)
        return EXIT_BAD_DOCUMENT
    except click.ClickException as exc:
        exc.show()
        return EXIT_BAD_DOCUMENT
    except click.exceptions.Abort:
        return EXIT_BAD_DOCUMENT


def main():  # console-script shim
    sys.exit(cli_main(sys.argv[1:]))


if __name__ == "__main__":
    main()
