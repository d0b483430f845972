"""Cut-report data packages: serialization, hashing and validation.

A package directory holds `manifest.yaml`, the observer's perimeter of
validity `pov.json`, and CSV data files (node lists, base and value vectors,
share blocks), optionally `O_PP.csv` with its `proof_stability.txt` and
`clearing.json`.  Under schema `cbv-cut-report@1.1` the manifest names every
other file and pins its SHA-256, so each is tamper-evident byte by byte.

Two JSON documents accompany a valuation: the perimeter-of-validity (the full
observer configuration) and the cut summary (edge lists, totals and the
consolidated value).  Serialization is deterministic: fixed key order, UTF-8,
shortest round-trip decimal rendering for numbers.

The package's `pov.json`, read by `parse_pov` as `cbv compute --pov` reads
its file, is the only statement of the observer; the manifest repeats none
of it and keeps only `O_ref`, which the observer lacks.  A v1.0 package
listed and hashed neither `pov.json` nor `proof_stability.txt`: its observer
comes from an unlisted `pov.json` when one is present (rule D3 reports where
it disagrees with the manifest), else from the manifest's observer block,
which records no tolerances, basis, discount weights or perimeter nodes.

Cost.  Writing a matrix renders only its held entries with `repr` (every
other cell is the constant "0.0") and joins each row once.  Loading reads
each file once, hashes those bytes and parses the same bytes with numpy's C
parser, which gives what `float()` gives on every `repr`.  The cut summary
lists its edges from the nonzero boundary entries (`engine.cut_edges`).  So
each costs one pass over the text plus Python work per nonzero entry, not
per cell.
"""

from __future__ import annotations

import csv
import hashlib
import io
import json
import re
from collections import Counter
from dataclasses import dataclass, field
from json.encoder import encode_basestring_ascii
from pathlib import Path

import numpy as np
import yaml

from .control import ControlRuleSpec
from .engine import (
    CutStatistics,
    ValuationResult,
    _stability_gate,
    cut_edges,
    hedge_vector,
    spectral_radius_bound,
)
from .errors import (
    DimensionError,
    DomainError,
    EmissionError,
    IntegrityError,
    PackageError,
    StabilityError,
)
from .network import COLUMN_SUM_SLACK
from .observer import FxPppSpec, Observer, SdfSpec, Tolerances
from .validation import ValidationReport

MANIFEST_VERSION = "cbv-cut-report@1.1"
_V1_0 = "cbv-cut-report@1.0"
MANIFEST_NAME = "manifest.yaml"
POV_NAME = "pov.json"
STABILITY_NAME = "proof_stability.txt"
EDGE_TYPES = ("equity", "debt", "derivative", "cashflow")

_KNOWN_MANIFEST_KEYS = ("version", "perimeter", "clearing", "data_files", "hashes", "notes")
_ALWAYS_REQUIRED_FILES = ("nodes_P", "nodes_O", "b_P", "v_O", "O_PO", "O_OP")


def sha256_of_file(path) -> str:
    """`sha256:<hex>` of the bytes `path.read_bytes()` gives.

    `path` is a `Path`, or a `PackageFile` that `load_package` has read once,
    so the bytes it verifies are the bytes it parses.
    """
    return f"sha256:{hashlib.sha256(path.read_bytes()).hexdigest()}"


@dataclass(frozen=True)
class PackageFile:
    """A data file read into memory: its name and its bytes."""

    name: str
    data: bytes

    def read_bytes(self) -> bytes:
        return self.data


def _json_bytes(payload: dict) -> bytes:
    """json.dumps(payload, indent=2) plus a newline, as UTF-8 bytes."""
    return (_json_indented(payload, 0) + "\n").encode("utf-8")


def _json_lines(values) -> list[str]:
    """Each of a list of scalars as json.dumps renders it, from one call of
    its C encoder: a newline, which no rendered scalar holds, separates them."""
    return json.dumps(values, separators=("\n", ": "))[1:-1].split("\n")


def _json_indented(value, depth: int) -> str:
    """value as json.dumps(indent=2) renders it `depth` levels deep.

    `indent` selects json's pure-Python encoder, so the bulky parts go round
    it: an object with string keys is laid out here, one of scalars through
    the C encoder with the newline and indent as its item separator, and a
    list of cut edges with one string format per edge, whose fields come
    from `_json_lines`.  Anything else is the pure-Python encoder's output,
    indented to `depth`.
    """
    pad = "\n" + "  " * (depth + 1)
    if isinstance(value, dict) and value and all(type(k) is str for k in value):
        if any(isinstance(x, (dict, list, tuple)) for x in value.values()):
            body = ("," + pad).join(f"{encode_basestring_ascii(k)}: {_json_indented(x, depth + 1)}"
                                    for k, x in value.items())
        else:
            body = json.dumps(value, separators=("," + pad, ": "))[1:-1]
        return "{" + pad + body + pad[:-2] + "}"
    if isinstance(value, list) and value and all(type(e) is Edge for e in value):
        fields = [[getattr(e, name) for e in value] for name in ("from_id", "to_id", "type", "amount")]
        if not all(set(map(type, column)) <= {str, int, float} for column in fields):
            return _json_indented([{"from": e.from_id, "to": e.to_id, "type": e.type,
                                    "amount": e.amount} for e in value], depth)
        inner = pad + "  "
        body = ("," + pad).join(
            f'{{{inner}"from": {f},{inner}"to": {t},{inner}"type": {k},{inner}"amount": {a}{pad}}}'
            for f, t, k, a in zip(*map(_json_lines, fields)))
        return "[" + pad + body + pad[:-2] + "]"
    return json.dumps(value, indent=2).replace("\n", pad[:-2])


# ---------------------------------------------------------------------------
# CSV helpers (leading id column, deterministic float rendering)
# ---------------------------------------------------------------------------
#
# Readers take a `Path` or a `PackageFile`.  A vector file is a matrix file
# with one value column: an id header row, then one row per id.

# a row whose only cell is blank is still a row: numpy parses it as one
_ROW_TEXT = re.compile(r"[^\r\n]")


def _csv_row(cells) -> str:
    """`cells` as the line csv.writer renders, ending in a bare newline.

    Rendering under a CRLF terminator makes csv.writer quote a carriage
    return as well as a newline, so that the cell reads back.
    """
    buffer = io.StringIO()
    csv.writer(buffer, lineterminator="\r\n").writerow(cells)
    return buffer.getvalue()[:-2] + "\n"


def _csv_cell(text: str) -> str:
    """`text` as `_csv_row` renders it in a row of several cells."""
    return _csv_row([text, ""])[:-2]


def _csv_line(cells) -> str:
    # csv.writer quotes a row that is one empty cell, so that it is not blank
    return (",".join(cells) or '""') + "\n"


def matrix_csv_lines(row_ids, col_ids, matrix, id_header: str):
    """The lines of a matrix's CSV file, byte for byte what `_csv_row` writes.

    Only held entries (nonzero, -0.0 or NaN) are rendered with `repr`; every
    other cell is the constant "0.0", which is `repr(0.0)`.
    """
    matrix = np.asarray(matrix, dtype=float)
    if matrix.shape != (len(row_ids), len(col_ids)):
        raise DimensionError(
            f"matrix has shape {matrix.shape}, its ids give {(len(row_ids), len(col_ids))}"
        )
    yield _csv_line(map(_csv_cell, [id_header, *col_ids]))
    zeros = ["0.0"] * len(col_ids)
    for node, values in zip(row_ids, matrix):
        cells = [_csv_cell(node), *zeros]
        held = np.flatnonzero((values != 0.0) | np.signbit(values))
        for j, value in zip(held.tolist(), values[held].tolist()):
            cells[j + 1] = repr(value)
        yield _csv_line(cells)


def write_matrix_csv(path: Path, row_ids, col_ids, matrix, id_header: str):
    with open(path, "w", newline="", encoding="utf-8") as handle:
        handle.writelines(matrix_csv_lines(row_ids, col_ids, matrix, id_header))


def write_vector_csv(path: Path, ids, values, column: str):
    write_matrix_csv(path, ids, [column], np.asarray(values, dtype=float).reshape(-1, 1), "id")


def _text(path) -> str:
    try:
        return path.read_bytes().decode("utf-8")
    except UnicodeDecodeError as exc:
        raise PackageError(f"{path.name}: not UTF-8 text ({exc.reason})") from None


def _check_unique(name: str, ids) -> None:
    repeated = [node for node, count in Counter(ids).items() if count > 1]
    if repeated:
        raise PackageError(f"{name}: repeated ids {repeated}")


def read_matrix_csv(path) -> tuple[list[str], list[str], np.ndarray]:
    """(row ids, column ids, values) of a matrix file.

    Rows of the wrong width, cells that are not numbers and repeated ids
    are PackageErrors.
    """
    text = _text(path)
    handle = io.StringIO(text)
    try:
        header = next(csv.reader(handle), None)
    except csv.Error as exc:
        raise PackageError(f"{path.name}: {exc}") from None
    if not header:
        raise PackageError(f"{path.name}: no header row")
    row_ids: list[str] = []

    def row_id(cell: str) -> float:
        row_ids.append(cell)  # numpy hands over the id column as it parses the rows
        return 0.0

    data = np.zeros((0, len(header)))
    if _ROW_TEXT.search(text, handle.tell()):
        try:
            # encoding=None: numpy 1.x would otherwise hand the converter bytes
            data = np.loadtxt(handle, delimiter=",", quotechar='"', comments=None,
                              ndmin=2, converters={0: row_id}, encoding=None)
        except ValueError as exc:
            raise PackageError(f"{path.name}: {str(exc).split(';')[0]}") from None
    if data.shape[1] != len(header):
        raise PackageError(
            f"{path.name}: rows have {data.shape[1]} cells, the header has {len(header)}"
        )
    col_ids = header[1:]
    _check_unique(path.name, row_ids)
    _check_unique(path.name, col_ids)
    return row_ids, col_ids, data[:, 1:]


def read_vector_csv(path) -> dict[str, float]:
    ids, columns, data = read_matrix_csv(path)
    if len(columns) != 1:
        raise PackageError(f"{path.name}: expected a two-column id/value file")
    return dict(zip(ids, data[:, 0].tolist()))


def write_nodes_csv(path: Path, ids):
    with open(path, "w", newline="", encoding="utf-8") as handle:
        handle.write("id,type,label\n")
        for node in ids:
            handle.write(_csv_row([node, "entity", ""]))


def read_nodes_csv(path) -> list[str]:
    try:
        rows = list(csv.reader(io.StringIO(_text(path))))
    except csv.Error as exc:
        raise PackageError(f"{path.name}: {exc}") from None
    ids = [row[0] for row in rows[1:] if row]
    _check_unique(path.name, ids)
    return ids


def _reorder_matrix(row_ids, col_ids, data, want_rows, want_cols, name):
    if set(row_ids) != set(want_rows) or set(col_ids) != set(want_cols):
        raise PackageError(f"{name}: id headers do not match the node lists")
    row_at = {node: k for k, node in enumerate(row_ids)}
    col_at = {node: k for k, node in enumerate(col_ids)}
    return data[np.ix_([row_at[n] for n in want_rows], [col_at[n] for n in want_cols])]


# ---------------------------------------------------------------------------
# Manifest
# ---------------------------------------------------------------------------

@dataclass
class Manifest:
    """Typed view over the manifest mapping; unknown keys are preserved."""

    data: dict

    @property
    def version(self) -> str | None:
        return self.data.get("version")

    @property
    def observer_block(self) -> dict:
        return dict(self.data.get("observer") or {})

    @property
    def perimeter_block(self) -> dict:
        return dict(self.data.get("perimeter") or {})

    @property
    def clearing_block(self) -> dict:
        return dict(self.data.get("clearing") or {})

    @property
    def data_files(self) -> dict:
        return {k: v for k, v in (self.data.get("data_files") or {}).items() if v}

    @property
    def hashes(self) -> dict:
        return dict(self.data.get("hashes") or {})

    @property
    def notes(self) -> list:
        return list(self.data.get("notes") or [])

    @property
    def extra_keys(self) -> list[str]:
        v1_0 = ("observer", "regime") if self.version != MANIFEST_VERSION else ()
        return [k for k in self.data if k not in _KNOWN_MANIFEST_KEYS + v1_0]

    def to_yaml_bytes(self) -> bytes:
        return yaml.safe_dump(self.data, sort_keys=False).encode("utf-8")

    @classmethod
    def from_yaml_bytes(cls, blob: bytes) -> "Manifest":
        try:
            data = yaml.safe_load(blob)
        except yaml.YAMLError as exc:
            raise PackageError(f"manifest is not YAML: {exc}") from None
        if not isinstance(data, dict):
            raise PackageError("manifest must be a mapping")
        for key, kind in (("observer", dict), ("perimeter", dict), ("clearing", dict),
                          ("data_files", dict), ("hashes", dict), ("notes", list)):
            if data.get(key) is not None and not isinstance(data[key], kind):
                raise PackageError(f"manifest {key} must be a "
                                   f"{'list' if kind is list else 'mapping'}")
        return cls(data)


# ---------------------------------------------------------------------------
# Package write / load
# ---------------------------------------------------------------------------

@dataclass
class CutReportPackage:
    directory: Path
    manifest: Manifest
    p_ids: tuple[str, ...]
    o_ids: tuple[str, ...]
    b_p: np.ndarray
    v_o: np.ndarray
    o_po: np.ndarray
    o_op: np.ndarray
    o_pp: np.ndarray | None
    observer: Observer
    v_p: np.ndarray | None = None
    clearing_spec: dict | None = None
    pov: dict | None = None
    stability_evidence: str | None = None

    def _non_finite_cells(self):
        """(file, message, location) for each non-finite cell loaded, in the
        wording of rule D2."""
        loaded = (
            ("b_P", self.b_p, (self.p_ids,)),
            ("v_O", self.v_o, (self.o_ids,)),
            ("O_PO", self.o_po, (self.p_ids, self.o_ids)),
            ("O_OP", self.o_op, (self.o_ids, self.p_ids)),
            ("O_PP", self.o_pp, (self.p_ids, self.p_ids)),
            ("v_P", self.v_p, (self.p_ids,)),
        )
        for name, values, axes in loaded:
            if values is None:
                continue
            for flat in np.flatnonzero(~np.isfinite(values)):
                index = np.unravel_index(flat, values.shape)
                yield (self.manifest.data_files.get(name, name),
                       f"{name} entry is not finite: {float(values[index])!r}",
                       "->".join(str(ids[k]) for ids, k in zip(axes, index)))

    def cut_statistics(self) -> CutStatistics:
        """Boundary statistics for valuation.

        When the manifest declares clearing, the matrix files carry net
        post-clearing flows and are treated as priced amounts.  A non-finite
        cell, which rule D2 reports, is a PackageError here: no valuation is
        priced from it.
        """
        non_finite = next(self._non_finite_cells(), None)
        if non_finite is not None:
            file, message, location = non_finite
            raise PackageError(f"{file}: {message} at {location}")
        clearing = self.manifest.clearing_block
        if clearing.get("used"):
            return CutStatistics(
                p_ids=self.p_ids,
                o_ids=self.o_ids,
                b_p=self.b_p,
                v_o=self.v_o,
                x_po=self.o_po,
                x_op=self.o_op,
                clearing_tag=str(clearing.get("engine") or "clearing"),
            )
        return CutStatistics(
            p_ids=self.p_ids,
            o_ids=self.o_ids,
            b_p=self.b_p,
            v_o=self.v_o,
            v_p=self.v_p,
            o_po=self.o_po,
            o_op=self.o_op,
            o_pp=self.o_pp,
        )


def write_package(
    directory,
    stats: CutStatistics,
    observer: Observer,
    clearing_spec: dict | None = None,
    notes=(),
    o_ref: str | None = None,
) -> Manifest:
    """Write a complete package for share-form statistics, hashing each file.

    The observer is written as `pov.json` (`emit_pov`), so an observer the
    PoV cannot state is an EmissionError, and nothing is written.
    """
    if stats.o_po is None or stats.o_op is None or stats.v_o is None:
        raise PackageError("write_package needs share-form statistics")
    pov = emit_pov(observer)
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)

    files: dict[str, str] = {
        "nodes_P": "nodes_P.csv",
        "nodes_O": "nodes_O.csv",
        "b_P": "b_P.csv",
        "v_O": "v_O.csv",
        "O_PO": "O_PO.csv",
        "O_OP": "O_OP.csv",
    }
    write_nodes_csv(directory / files["nodes_P"], stats.p_ids)
    write_nodes_csv(directory / files["nodes_O"], stats.o_ids)
    write_vector_csv(directory / files["b_P"], stats.p_ids, stats.b_p, "b")
    write_vector_csv(directory / files["v_O"], stats.o_ids, stats.v_o, "v")
    if stats.v_p is not None:
        files["v_P"] = "v_P.csv"
        write_vector_csv(directory / files["v_P"], stats.p_ids, stats.v_p, "v")
    write_matrix_csv(directory / files["O_PO"], stats.p_ids, stats.o_ids, stats.o_po, "id_P")
    write_matrix_csv(directory / files["O_OP"], stats.o_ids, stats.p_ids, stats.o_op, "id_O")
    if stats.o_pp is not None:
        files["O_PP"] = "O_PP.csv"
        files["stability"] = STABILITY_NAME
        write_matrix_csv(directory / files["O_PP"], stats.p_ids, stats.p_ids, stats.o_pp, "id_P")
        bound = spectral_radius_bound(stats.o_pp)
        evidence = (
            "stability evidence for I - O_PP\n"
            f"norm_1 bound: {bound.norm_1!r}\n"
            f"norm_inf bound: {bound.norm_inf!r}\n"
            f"rho upper bound: {bound.rho_upper!r}\n"
            f"rho lower bound: {bound.rho_lower!r}\n"
            f"Collatz-Wielandt passes: {bound.passes}\n"
        )
        (directory / STABILITY_NAME).write_text(evidence, encoding="utf-8")
    if clearing_spec is not None:
        files["clearing_spec"] = "clearing.json"
        (directory / "clearing.json").write_bytes(_json_bytes(clearing_spec))
    files["pov"] = POV_NAME
    (directory / POV_NAME).write_bytes(pov)

    clearing_block = {
        "used": bool(stats.clearing_tag or (clearing_spec or {}).get("used")),
        "engine": stats.clearing_tag or (clearing_spec or {}).get("engine"),
        "params": (clearing_spec or {}).get("params", {}),
    }
    manifest_data = {
        "version": MANIFEST_VERSION,
        "perimeter": {"O_ref": o_ref or f"complement-of-{observer.perimeter_ref}"},
        "clearing": clearing_block,
        "data_files": dict(files),
        "hashes": {key: sha256_of_file(directory / name) for key, name in files.items()},
        "notes": list(notes),
    }
    manifest = Manifest(manifest_data)
    (directory / MANIFEST_NAME).write_bytes(manifest.to_yaml_bytes())
    return manifest


def _v1_0_pov(directory: Path, manifest: Manifest) -> tuple[dict, str]:
    """The observer of a v1.0 package as a PoV mapping, and the document it came from.

    v1.0 lists no observer: an unlisted pov.json states it when present, else
    the manifest's observer block, whose fields map onto the PoV's.
    """
    path = directory / POV_NAME
    if path.exists():
        return _json_object(path.read_bytes(), "PoV"), "PoV"
    declared, perimeter = manifest.observer_block, manifest.perimeter_block
    fx, ppp, sdf = (declared.get(key) or {} for key in ("fx", "ppp", "sdf"))
    if not all(isinstance(block, dict) for block in (fx, ppp, sdf)):
        raise PackageError("manifest observer fx, ppp and sdf must be mappings")
    observer = {
        "P_ref": perimeter.get("P_ref") or "P",
        "units": declared.get("currency") or "EUR",
        "date": fx.get("date") or "1970-01-01",
        "information_regime": manifest.data.get("regime", "A"),
        "control_rule": perimeter.get("control_rule"),
    }
    if fx or ppp.get("used"):
        observer["fx_ppp"] = {
            "scale": fx.get("scale", 1.0) or 1.0,
            "fx_source": fx.get("provider"),
            "ppp_source": ppp.get("source") if ppp.get("used") else None,
            "deflator": ppp.get("deflator"),
        }
    if sdf.get("used"):
        observer["sdf"] = {"measure": sdf.get("measure") or "risk_neutral",
                           "curve_source": sdf.get("spec")}
    return {"observer": observer}, "manifest"


def load_package(directory) -> CutReportPackage:
    """Load and hash-verify a package directory.

    Every listed file must exist, carry a manifest hash, and match it byte
    for byte; `pov.json` is required, and `O_PP.csv` when the observer's
    regime is B.  Each file is read once: the bytes hashed are the bytes
    parsed.  A v1.0 package is read as the module docstring describes.
    """
    directory = Path(directory)
    manifest_path = directory / MANIFEST_NAME
    if not manifest_path.exists():
        raise PackageError(f"{MANIFEST_NAME} not found in {directory}")
    manifest = Manifest.from_yaml_bytes(manifest_path.read_bytes())

    files = manifest.data_files
    current = manifest.version == MANIFEST_VERSION
    required = _ALWAYS_REQUIRED_FILES + (("pov",) if current else ())
    missing = [key for key in required if key not in files]
    if missing:
        raise PackageError(f"package lacks required data files: {missing}")
    hashes = manifest.hashes
    loaded: dict[str, PackageFile] = {}
    for key, name in files.items():
        path = directory / str(name)
        try:
            loaded[key] = PackageFile(path.name, path.read_bytes())
        except FileNotFoundError:
            raise PackageError(f"listed data file missing on disk: {name}") from None
        recorded = hashes.get(key)
        if not recorded:
            raise PackageError(f"no hash entry for data file {key} ({name})")
        actual = sha256_of_file(loaded[key])
        if actual != str(recorded):
            raise IntegrityError(
                f"hash mismatch for {name}: manifest {recorded}, actual {actual}",
                filename=str(name),
            )

    if current:
        pov, source = _json_object(loaded["pov"].data, "PoV"), "PoV"
        evidence = loaded.get("stability")
    else:  # v1.0 lists neither the observer nor the stability evidence
        pov, source = _v1_0_pov(directory, manifest)
        evidence = directory / STABILITY_NAME
        evidence = evidence if evidence.exists() else None
    observer = _checked_observer(pov, source)
    if observer.regime == "B" and "O_PP" not in files:
        raise PackageError("package lacks the data file O_PP that regime B requires")

    p_ids = sorted(read_nodes_csv(loaded["nodes_P"]))
    o_ids = sorted(read_nodes_csv(loaded["nodes_O"]))
    b_map = read_vector_csv(loaded["b_P"])
    v_map = read_vector_csv(loaded["v_O"])
    if set(b_map) != set(p_ids):
        raise PackageError("b_P.csv ids do not match nodes_P.csv")
    if set(v_map) != set(o_ids):
        raise PackageError("v_O.csv ids do not match nodes_O.csv")
    rows, cols, data = read_matrix_csv(loaded["O_PO"])
    o_po = _reorder_matrix(rows, cols, data, p_ids, o_ids, "O_PO.csv")
    rows, cols, data = read_matrix_csv(loaded["O_OP"])
    o_op = _reorder_matrix(rows, cols, data, o_ids, p_ids, "O_OP.csv")
    o_pp = None
    if "O_PP" in files:
        rows, cols, data = read_matrix_csv(loaded["O_PP"])
        o_pp = _reorder_matrix(rows, cols, data, p_ids, p_ids, "O_PP.csv")
    v_p = None
    if "v_P" in files:
        v_p_map = read_vector_csv(loaded["v_P"])
        if set(v_p_map) != set(p_ids):
            raise PackageError("v_P.csv ids do not match nodes_P.csv")
        v_p = np.array([v_p_map[n] for n in p_ids])

    clearing_spec = None
    if "clearing_spec" in files:
        clearing_spec = _json_object(loaded["clearing_spec"].data, "clearing.json")

    return CutReportPackage(
        directory=directory,
        manifest=manifest,
        p_ids=tuple(p_ids),
        o_ids=tuple(o_ids),
        b_p=np.array([b_map[n] for n in p_ids]),
        v_o=np.array([v_map[n] for n in o_ids]),
        o_po=o_po,
        o_op=o_op,
        o_pp=o_pp,
        observer=observer,
        v_p=v_p,
        clearing_spec=clearing_spec,
        pov=pov if source == "PoV" else None,
        stability_evidence=_text(evidence) if evidence is not None else None,
    )


# ---------------------------------------------------------------------------
# Package validation (rules D.2 - D.5 plus schema/hash findings)
# ---------------------------------------------------------------------------

def validate_package(pkg: CutReportPackage) -> ValidationReport:
    """Run the automatic validation rules over a loaded package."""
    report = ValidationReport()

    version = pkg.manifest.version
    if version == _V1_0:
        source = (f"an unlisted {POV_NAME}" if pkg.pov is not None else
                  "the manifest, which records no tolerances, basis, discount weights "
                  "or perimeter nodes")
        report.add("schema", "warning",
                   f"{_V1_0} package: no hash covers its observer, read from {source}",
                   location=MANIFEST_NAME)
    elif version != MANIFEST_VERSION:
        report.add("schema", "error",
                   f"manifest version {version!r}, expected {MANIFEST_VERSION!r}",
                   location=MANIFEST_NAME)
    for key in pkg.manifest.extra_keys:
        report.add("schema", "note", f"unknown manifest field {key!r} preserved",
                   location=MANIFEST_NAME)

    # D2: finite data, nonnegative share blocks; negative bases need a note
    for _, message, location in pkg._non_finite_cells():
        report.add("D2", "error", message, location=location)
    for name, block in (("O_PO", pkg.o_po), ("O_OP", pkg.o_op), ("O_PP", pkg.o_pp)):
        if block is not None and (block < 0).any():
            report.add("D2", "error", f"{name} has negative entries")
    if (pkg.b_p < 0).any() and not pkg.manifest.notes:
        report.add("D2", "warning", "negative bases present without a justifying note")
    col_sums = pkg.o_pp.sum(axis=0) + pkg.o_op.sum(axis=0) if pkg.o_pp is not None \
        else pkg.o_op.sum(axis=0)
    for j in np.nonzero(col_sums > 1.0 + COLUMN_SUM_SLACK)[0]:
        report.add("D2", "error",
                   f"ownership of {pkg.p_ids[j]!r} sums to {float(col_sums[j])!r} > 1")

    # D3: a single observer per period.  A v1.0 manifest repeats the observer
    # that an unlisted pov.json defines, and the two must agree
    if pkg.pov is not None and version != MANIFEST_VERSION:
        observer, declared = pkg.observer, pkg.manifest.observer_block
        pairs = (
            ("units", observer.units, declared.get("currency")),
            ("regime", observer.regime, pkg.manifest.data.get("regime", "A")),
            ("P_ref", observer.perimeter_ref, pkg.manifest.perimeter_block.get("P_ref")),
            ("fx scale", observer.fx_ppp.scale if observer.fx_ppp else 1.0,
             (declared.get("fx") or {}).get("scale")),
        )
        for name, pov_value, man_value in pairs:
            if man_value is not None and pov_value != man_value:
                report.add("D3", "error",
                           f"pov {name} {pov_value!r} disagrees with manifest {man_value!r}")

    # D4: regime B needs stability evidence alongside the internal block, and
    # the hashed block must pass the gate that regime B runs before its solve
    if pkg.o_pp is not None:
        if not pkg.stability_evidence:
            report.add("D4", "error",
                       "O_PP provided without stability evidence "
                       f"({STABILITY_NAME} missing)")
        try:
            _stability_gate(pkg.o_pp)
        except StabilityError as exc:
            report.add("D4", "error", f"O_PP fails the stability gate: {exc}")
    elif pkg.observer.regime == "B":
        report.add("D4", "error", "regime B without O_PP or an explanation")

    # D5: clearing declaration must match the files and flows
    clearing = pkg.manifest.clearing_block
    if clearing.get("used") and not clearing.get("engine"):
        report.add("D5", "error", "clearing used but no engine declared")
    if not clearing.get("used") and pkg.clearing_spec is not None:
        report.add("D5", "warning",
                   "clearing.json present but manifest declares pre-clearing flows")
    if clearing.get("used") and pkg.clearing_spec is None and "clearing_spec" not in pkg.manifest.data_files:
        report.add("D5", "warning", "clearing used but no engine specification file")
    return report


def validate_directory(directory) -> ValidationReport:
    """Load-and-validate; load failures become hash/schema findings."""
    try:
        pkg = load_package(directory)
    except IntegrityError as exc:
        report = ValidationReport()
        report.add("hash", "error", str(exc), location=exc.filename)
        return report
    except PackageError as exc:
        report = ValidationReport()
        report.add("schema", "error", str(exc))
        return report
    return validate_package(pkg)


# ---------------------------------------------------------------------------
# Cut summary document
# ---------------------------------------------------------------------------

@dataclass(frozen=True, init=False)
class Edge:
    from_id: str
    to_id: str
    type: str
    amount: float

    def __init__(self, from_id: str, to_id: str, type: str, amount: float):
        if type not in EDGE_TYPES:
            raise EmissionError(f"edge type {type!r} not in {EDGE_TYPES}")
        # one write of the instance dict: a cut summary builds thousands of
        # edges, and the frozen __init__ pays a guarded write per field
        object.__setattr__(self, "__dict__", {"from_id": from_id, "to_id": to_id,
                                              "type": type, "amount": amount})


@dataclass
class CutSummaryDoc:
    """Boundary edges, totals and the consolidated value, ready to serialize."""

    perimeter: str
    date: str
    currency: str
    edges_po: list[Edge]
    edges_op: list[Edge]
    v_p: dict[str, float]
    v_o: dict[str, float]
    t_out: float
    t_in: float
    consolidated_value: float
    hedge_vector_o: dict[str, float] | None = None
    missing_data: list[dict] = field(default_factory=list)
    extra: dict = field(default_factory=dict)

    def to_json_bytes(self) -> bytes:
        """The document as JSON; the edge lists stay `Edge` objects, which
        `_json_indented` formats without a dict per edge."""
        payload = {
            "perimeter": self.perimeter,
            "date": self.date,
            "currency": self.currency,
            "edges_PO": self.edges_po,
            "edges_OP": self.edges_op,
            "node_primitives": {"v_P": self.v_p, "v_O": self.v_o},
            "totals": {"T_out": self.t_out, "T_in": self.t_in},
            "consolidated_value": self.consolidated_value,
        }
        if self.hedge_vector_o is not None:
            payload["hedge_vector_O"] = self.hedge_vector_o
        payload["missing_data"] = self.missing_data
        payload.update(self.extra)
        return _json_bytes(payload)

    @classmethod
    def from_json_bytes(cls, blob: bytes) -> "CutSummaryDoc":
        data = json.loads(blob.decode("utf-8"))
        known = {
            "perimeter", "date", "currency", "edges_PO", "edges_OP",
            "node_primitives", "totals", "consolidated_value",
            "hedge_vector_O", "missing_data",
        }
        primitives = data.get("node_primitives") or {}
        return cls(
            perimeter=data["perimeter"],
            date=data["date"],
            currency=data["currency"],
            edges_po=[Edge(e["from"], e["to"], e["type"], float(e["amount"]))
                      for e in data.get("edges_PO", [])],
            edges_op=[Edge(e["from"], e["to"], e["type"], float(e["amount"]))
                      for e in data.get("edges_OP", [])],
            v_p={k: float(v) for k, v in (primitives.get("v_P") or {}).items()},
            v_o={k: float(v) for k, v in (primitives.get("v_O") or {}).items()},
            t_out=float(data["totals"]["T_out"]),
            t_in=float(data["totals"]["T_in"]),
            consolidated_value=float(data["consolidated_value"]),
            hedge_vector_o=({k: float(v) for k, v in data["hedge_vector_O"].items()}
                            if "hedge_vector_O" in data else None),
            missing_data=list(data.get("missing_data", [])),
            extra={k: v for k, v in data.items() if k not in known},
        )


def _edges(share_block, values, amounts, from_ids, to_ids, tau, edge_type):
    rows, cols, priced, _ = cut_edges(share_block, values, amounts, tau)
    return [Edge(from_ids[i], to_ids[j], edge_type, amount)
            for i, j, amount in zip(rows.tolist(), cols.tolist(), priced.tolist())]


def build_cut_summary(
    result: ValuationResult,
    stats: CutStatistics,
    observer: Observer,
    missing_data=(),
) -> CutSummaryDoc:
    """Assemble the cut summary for a completed valuation.

    The edges are those `cut_edges` keeps at the observer's rounding
    threshold, so the summary costs what the nonzero boundary entries cost.
    """
    tau = observer.tolerances.rounding_threshold
    flow_type = "debt" if stats.clearing_tag else "cashflow"
    v_p_used = result.v_p_used
    edges_po = _edges(stats.o_po, stats.v_o, stats.x_po, stats.p_ids, stats.o_ids, tau,
                      "equity" if stats.x_po is None else flow_type)
    edges_op = _edges(stats.o_op, v_p_used, stats.x_op, stats.o_ids, stats.p_ids, tau,
                      "equity" if stats.x_op is None else flow_type)
    v_p = dict(zip(stats.p_ids, v_p_used.tolist())) if v_p_used is not None else {}
    v_o = dict(zip(stats.o_ids, stats.v_o.tolist())) if stats.v_o is not None else {}
    return CutSummaryDoc(
        perimeter=observer.perimeter_ref,
        date=observer.date,
        currency=observer.units,
        edges_po=edges_po,
        edges_op=edges_op,
        v_p=v_p,
        v_o=v_o,
        t_out=result.t_out,
        t_in=result.t_in,
        consolidated_value=result.w,
        hedge_vector_o=hedge_vector(stats) if stats.o_po is not None else None,
        missing_data=list(missing_data),
    )


# ---------------------------------------------------------------------------
# Perimeter of validity
# ---------------------------------------------------------------------------

def build_pov(observer: Observer) -> dict:
    """Observer configuration as the PoV mapping, checking required fields."""
    missing = [name for name, value in (
        ("perimeter_ref", observer.perimeter_ref),
        ("basis", observer.basis),
        ("units", observer.units),
        ("date", observer.date),
        ("information_regime", observer.regime),
        ("control_rule", observer.control_rule),
    ) if not value]
    if missing:
        raise EmissionError(
            f"perimeter-of-validity lacks required fields: {missing}", fields=missing
        )
    rule = observer.control_rule
    obs_block: dict = {
        # the named nodes, empty included, or null when the observer names none
        "P": None if observer.perimeter_nodes is None else list(observer.perimeter_nodes),
        "P_ref": observer.perimeter_ref,
        "basis": observer.basis,
        "units": observer.units,
        "date": observer.date,
    }
    if observer.fx_ppp is not None:
        obs_block["fx_ppp"] = {
            "scale": observer.fx_ppp.scale,
            "fx_source": observer.fx_ppp.fx_source,
            "ppp_source": observer.fx_ppp.ppp_source,
            "deflator": observer.fx_ppp.deflator,
        }
    if observer.sdf is not None:
        obs_block["sdf"] = {
            "curve_source": observer.sdf.curve_source,
            "measure": observer.sdf.measure,
            "horizon": observer.sdf.horizon,
        }
        if observer.sdf.discount_weights is not None:
            obs_block["sdf"]["discount_weights"] = dict(observer.sdf.discount_weights)
        if observer.sdf.change_of_measure is not None:
            obs_block["sdf"]["change_of_measure"] = dict(observer.sdf.change_of_measure)
    obs_block["information_regime"] = observer.regime
    obs_block["control_rule"] = {"option": rule.option, "params": rule.params()}
    if rule.label:
        obs_block["control_rule"]["label"] = rule.label
    return {
        "observer": obs_block,
        "tolerances": {
            "rounding_threshold": observer.tolerances.rounding_threshold,
            "solver_eps": observer.tolerances.solver_eps,
            "max_iters": observer.tolerances.max_iters,
        },
        "notes": "",
    }


def emit_pov(observer: Observer) -> bytes:
    return _json_bytes(build_pov(observer))


def parse_pov(blob: bytes) -> tuple[Observer, dict]:
    """Rebuild an Observer from a PoV document; returns (observer, raw dict).

    A package's `pov.json` is read the same way.  Absent tolerances take the
    `Tolerances` defaults.  `P` lists the perimeter nodes, an empty list
    included; null or absent means the observer names none.  (Writers before
    this encoding wrote `[P_ref]` for none, which now reads as that one node;
    no valuation reads the nodes, so W does not move.)  Bytes that are not a
    JSON object, and fields that fail the observer's checks, are PackageErrors.
    """
    data = _json_object(blob, "PoV")
    return _checked_observer(data, "PoV"), data


def _json_object(blob: bytes, name: str) -> dict:
    """The JSON object `blob` holds; anything else is a PackageError naming `name`."""
    try:
        data = json.loads(blob.decode("utf-8"))
    except ValueError as exc:  # JSONDecodeError and UnicodeDecodeError
        raise PackageError(f"{name} is not a JSON document: {exc}") from None
    if not isinstance(data, dict):
        raise PackageError(f"{name} must be a JSON object")
    return data


def _checked_observer(data: dict, name: str) -> Observer:
    """The observer a PoV mapping states; a field that fails the observer's
    checks or has the wrong type is a PackageError naming `name`."""
    try:
        return _observer_from_pov(data)
    except (DomainError, TypeError, ValueError, AttributeError) as exc:
        raise PackageError(f"{name} field fails the observer's checks: {exc}") from None


def _observer_from_pov(data: dict) -> Observer:
    obs = data.get("observer") or {}
    # a rule block, or what `Observer` takes itself: a label, or none declared
    rule = obs.get("control_rule")
    if isinstance(rule, dict):
        params = rule.get("params") or {}
        rule = ControlRuleSpec(
            option=str(rule.get("option", "A")),
            tau=float(params.get("tau", 0.5)),
            alpha=float(params.get("alpha", 0.6)),
            normalize=bool(params.get("normalize", False)),
            reachability_depth=params.get("reachability_depth"),
            label=rule.get("label"),
        )
    tol, default = data.get("tolerances") or {}, Tolerances()
    fx_block = obs.get("fx_ppp")
    sdf_block = obs.get("sdf")
    nodes = obs.get("P")
    if nodes is not None:
        if not isinstance(nodes, list):
            raise TypeError(f"P must be a list of node ids or null, not {nodes!r}")
        nodes = tuple(str(n) for n in nodes)
    ref = str(obs.get("P_ref") or (nodes[0] if nodes and len(nodes) == 1 else "P"))
    return Observer(
        perimeter_ref=ref,
        basis=str(obs.get("basis", "fair_value")),
        units=str(obs.get("units", "EUR")),
        date=str(obs.get("date", "1970-01-01")),
        regime=str(obs.get("information_regime", "A")),
        control_rule=rule,
        tolerances=Tolerances(
            rounding_threshold=float(tol.get("rounding_threshold", default.rounding_threshold)),
            solver_eps=float(tol.get("solver_eps", default.solver_eps)),
            max_iters=tol.get("max_iters", default.max_iters),
        ),
        fx_ppp=(FxPppSpec(
            scale=float(fx_block.get("scale", 1.0)),
            fx_source=fx_block.get("fx_source"),
            ppp_source=fx_block.get("ppp_source"),
            deflator=fx_block.get("deflator"),
        ) if fx_block else None),
        sdf=(SdfSpec(
            measure=str(sdf_block.get("measure", "risk_neutral")),
            discount_weights=sdf_block.get("discount_weights"),
            change_of_measure=sdf_block.get("change_of_measure"),
            curve_source=sdf_block.get("curve_source"),
            horizon=sdf_block.get("horizon"),
        ) if sdf_block else None),
        perimeter_nodes=nodes,
    )


# ---------------------------------------------------------------------------
# Disclosure sheet
# ---------------------------------------------------------------------------

def _format_amount(value: float) -> str:
    # the size test first: int() of a NaN or an infinity raises
    if abs(value) < 1e15 and value == int(value):
        return f"{int(value):,}"
    return f"{value:,.4f}"


def render_disclosure_sheet(
    pkg: CutReportPackage,
    result: ValuationResult | None = None,
    fisher=None,
) -> str:
    """Fixed-order disclosure rows for a package and its computed outputs."""
    manifest = pkg.manifest
    observer = pkg.observer
    rule = observer.control_rule
    clearing = manifest.clearing_block

    def row(label: str, value: str) -> str:
        return f"{label:<22}| {value}"

    border = (
        f"b_P total {_format_amount(float(pkg.b_p.sum()))}; "
        f"v_O total {_format_amount(float(pkg.v_o.sum()))}; "
        f"edges P->O: {int(np.count_nonzero(pkg.o_po))}; "
        f"edges O->P: {int(np.count_nonzero(pkg.o_op))}"
    )
    if clearing.get("used"):
        clearing_text = (
            f"Applied: {clearing.get('engine')} (post-clearing flows)"
        )
    else:
        clearing_text = "Not applied (pre-clearing flows)"
    if result is not None:
        output = (
            f"W(P) = {_format_amount(result.w)} {observer.units}; "
            f"T_out {_format_amount(result.t_out)}; T_in {_format_amount(result.t_in)}"
        )
    else:
        output = "not computed"
    if fisher is not None and getattr(fisher, "g_f", None) is not None:
        indices = (
            f"IV_F {fisher.iv_f:.6f}; IP_F {fisher.ip_f:.6f}; G_F {fisher.g_f:.6f}"
        )
    else:
        indices = "n/a"
    rule_text = "undeclared"
    if rule is not None:
        rule_text = rule.label or f"option {rule.option}, params {rule.params()}"
    lines = [
        f"Cut-Report (v{str(manifest.version).rpartition('@')[2]}) - Disclosure sheet",
        "-" * 72,
        row("Perimeter", f"{observer.perimeter_ref} ({', '.join(pkg.p_ids)})"),
        row("Complement", f"{manifest.perimeter_block.get('O_ref')} "
                          f"({', '.join(pkg.o_ids)})"),
        row("Control rule", rule_text),
        row("Regime", observer.regime),
        row("Observer", f"currency {observer.units}; date {observer.date}; "
                        f"basis {observer.basis}; scale {observer.pricing_scale!r}"),
        row("Border statistics", border),
        row("Clearing", clearing_text),
        row("Output", output),
        row("Fisher indices", indices),
        row("Sources & versions", f"manifest {manifest.version}; "
                                  f"{len(manifest.hashes)} hashed files; "
                                  f"{len(manifest.notes)} notes"),
    ]
    return "\n".join(lines) + "\n"
