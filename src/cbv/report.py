"""Cut-report data packages: serialization, hashing and validation.

A package directory holds `manifest.yaml`, the observer's perimeter of
validity `pov.json`, and CSV data files (node lists, base and value vectors,
share blocks), optionally `O_PP.csv` with its `proof_stability.txt` and
`clearing.json`.  Under schema `cbv-cut-report@1.2` the manifest names every
other file and pins its SHA-256, so each is tamper-evident byte by byte.  A
vector file is an `id` column and one value column; a share block's file
(`O_PO.csv`, `O_OP.csv`, `O_PP.csv`) is an edge file, the header
`from,to,share` and one line per held entry of the stored form that
`network` states, in row-major order, its ids quoted as
csv.writer quotes them and its value written with `repr`.  A repeated pair,
an unknown id or a pair outside its block is a PackageError.  One table,
`_DATA_FILES`, lists the statistics' arrays a package holds, each with its
manifest key, in the manifest's order; writing, loading, rule D2 and
`CutReportPackage.cut_statistics` read it, and the axes of each, which also
tell a vector from a block, come from `engine._FIELDS`.

Two JSON documents accompany a valuation: the perimeter-of-validity (the full
observer configuration) and the cut summary (edge lists, totals and the
consolidated value).  Serialization is deterministic: fixed key order, UTF-8,
shortest round-trip decimal rendering for numbers.

The package's `pov.json`, read by `parse_pov` as `cbv compute --pov` reads
its file, is the only statement of the observer; the manifest repeats none
of it and keeps only `O_ref`, which the observer lacks.  The observer's
dataclasses (`Observer`, `Tolerances`, `FxPppSpec`, `SdfSpec`,
`ControlRuleSpec`) declare its fields once: the PoV writes them, and a field
a PoV leaves out takes the dataclass default.  Older packages are read, not
written.  A 1.1 package is a 1.2 package whose share blocks are dense
matrix files, every cell written.  A v1.0 package also
listed and hashed neither `pov.json` nor `proof_stability.txt`: its observer
comes from an unlisted `pov.json` when one is present (rule D3 reports where
it disagrees with the manifest), else from the manifest's observer block,
which records no tolerances, basis, discount weights or perimeter nodes.

Cost.  Writing and loading a share block are O(nnz): the writer renders the
held edges that `CutStatistics` stores, never a dense block, each id rendered
once per package (`_write_rows` writes every data file), and the loader
parses each edge file straight into held edges (`CutReportPackage` stores
them as `CutStatistics` does), ordered by row-major position so that they
are, bit for bit and in order, what the scan of the dense block gives.  Rule
D2, rule D4's gate, `cut_statistics` and the disclosure sheet read those held
edges, so no command builds a dense block.  A 1.1 or v1.0 block is parsed
dense with numpy's C parser and scanned into held edges once.  Loading reads
each file once and checks every hash before it parses any file, so the bytes
hashed are the bytes parsed.  A cut summary renders one valuation result:
it lists the edges the result priced, whose sums are its T_out and T_in, so
its edges add up, in listed order, to the totals it reports, and it prices
nothing again.
"""

from __future__ import annotations

import csv
import hashlib
import io
import json
import re
from collections import Counter
from dataclasses import asdict, dataclass, field, fields
from itertools import repeat
from json.encoder import encode_basestring_ascii
from pathlib import Path

import numpy as np
import yaml

from .engine import (
    _FIELDS,
    CutStatistics,
    ValuationResult,
    _stability_gate,
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
from .network import COLUMN_SUM_SLACK, _BlockField, _HeldBlocks, _HeldEdges
from .observer import _RULE_LABEL_RE, ControlRuleSpec, FxPppSpec, Observer, SdfSpec, Tolerances
from .validation import ValidationReport

MANIFEST_VERSION = "cbv-cut-report@1.2"
_V1_1 = "cbv-cut-report@1.1"
_V1_0 = "cbv-cut-report@1.0"
MANIFEST_NAME = "manifest.yaml"
POV_NAME = "pov.json"
STABILITY_NAME = "proof_stability.txt"
EDGE_TYPES = ("equity", "debt", "derivative", "cashflow")

_KNOWN_MANIFEST_KEYS = ("version", "perimeter", "clearing", "data_files", "hashes", "notes")
_ALWAYS_REQUIRED_FILES = ("nodes_P", "nodes_O", "b_P", "v_O", "O_PO", "O_OP")
# The CutStatistics arrays a package holds, in the order the manifest lists
# them: (manifest key, field).  The file is `<key>.csv`; its axes come from
# the field's entry in `engine._FIELDS`.  A vector's file has an `id` column
# and one value column named by the field's first letter; a block's is an
# edge file (`EDGE_HEADER`).
_DATA_FILES = (
    ("b_P", "b_p"),
    ("v_O", "v_o"),
    ("O_PO", "o_po"),
    ("O_OP", "o_op"),
    ("v_P", "v_p"),
    ("O_PP", "o_pp"),
)
EDGE_HEADER = "from,to,share"


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
# with one value column: an id header row, then one row per id.  A share
# block's file is an edge file (`_write_rows`, `_read_edges`); a dense
# matrix file is a 1.1 or v1.0 block, or the share matrix of `cbv control`.

# a row whose only cell is blank is still a row: numpy parses it as one
_ROW_TEXT = re.compile(r"[^\r\n]")


def _csv_cell(text: str) -> str:
    """`text` as csv.writer renders it in a row of several cells, under a CRLF
    terminator, which makes it quote a carriage return as well as a newline,
    so that the cell reads back."""
    buffer = io.StringIO()
    csv.writer(buffer, lineterminator="\r\n").writerow([text, ""])
    return buffer.getvalue()[:-3]


def _csv_line(cells) -> str:
    # csv.writer quotes a row that is one empty cell, so that it is not blank
    return (",".join(cells) or '""') + "\n"


def matrix_csv_lines(row_ids, col_ids, matrix, id_header: str):
    """The lines of a matrix's CSV file, its cells as `_csv_cell` renders them.

    Only held entries (`_HeldEdges.of_bits`) are rendered with `repr`; every
    other cell is the constant "0.0", which is `repr(0.0)`.
    """
    matrix = np.asarray(matrix, dtype=float)
    if matrix.shape != (len(row_ids), len(col_ids)):
        raise DimensionError(
            f"matrix has shape {matrix.shape}, its ids give {(len(row_ids), len(col_ids))}"
        )
    yield _csv_line(map(_csv_cell, [id_header, *col_ids]))
    zeros = ["0.0"] * len(col_ids)
    held = _HeldEdges.of_bits(matrix)
    ends = np.searchsorted(held.rows, np.arange(1, len(row_ids) + 1)).tolist()
    for node, start, end in zip(row_ids, [0, *ends], ends):
        cells = [_csv_cell(node), *zeros]
        for j, value in zip(held.cols[start:end].tolist(), held.vals[start:end].tolist()):
            cells[j + 1] = repr(value)
        yield _csv_line(cells)


def write_matrix_csv(path: Path, row_ids, col_ids, matrix, id_header: str):
    with open(path, "w", newline="", encoding="utf-8") as handle:
        handle.writelines(matrix_csv_lines(row_ids, col_ids, matrix, id_header))


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


def _write_rows(path: Path, header: str, *columns):
    """Write a node list, vector or edge file: `header`, then one line per
    row of `columns`, iterables of cells already rendered (ids by
    `_csv_cell`, values by `repr`, so every float reads back bit for bit)."""
    with open(path, "w", newline="", encoding="utf-8") as handle:
        handle.write(header + "\n")
        handle.writelines(",".join(row) + "\n" for row in zip(*columns))


def _read_edges(file, axes: tuple[str, str], at: dict) -> _HeldEdges:
    """The held edges of a block's edge file, in row-major order.

    `axes` names the node lists that index the block's rows and columns, keys
    of `at`, which maps each list's ids to their places in it.  The edges
    are sorted into the stored form (`_HeldEdges.from_entries`), so a block
    reads as the scan of its dense form would give it.  A row that is not
    from,to,share, a share that `float` cannot read, an unknown id, a pair
    outside the block and a repeated pair, the first to repeat in file
    order, are PackageErrors.
    """
    try:
        lines = list(csv.reader(io.StringIO(_text(file))))
    except csv.Error as exc:
        raise PackageError(f"{file.name}: {exc}") from None
    if not lines or ",".join(lines[0]) != EDGE_HEADER:
        raise PackageError(f"{file.name}: the header is not {EDGE_HEADER}")
    body = lines[1:]
    for number, line in enumerate(body, start=2):  # the header is row 1
        if len(line) != 3:
            raise PackageError(f"{file.name}: row {number} has {len(line)} cells, "
                               f"expected 3 ({EDGE_HEADER})")
    columns = tuple(zip(*body)) or ((), (), ())
    index = []
    for side, column, cells in zip(axes, ("from", "to"), columns):
        try:
            index.append(np.fromiter(map(at[side].__getitem__, cells), dtype=np.intp,
                                     count=len(cells)))
        except KeyError as exc:
            node = exc.args[0]
            other = "o_ids" if side == "p_ids" else "p_ids"
            what = (f"names a node of {other[0].upper()}, outside the block" if node in at[other]
                    else "is an unknown id")
            raise PackageError(f"{file.name}: {node!r} in the {column} column {what}") from None
    try:
        vals = np.fromiter(map(float, columns[2]), dtype=float, count=len(body))
    except ValueError as exc:
        raise PackageError(f"{file.name}: a share is not a number ({exc})") from None
    held, k = _HeldEdges.from_entries((len(at[axes[0]]), len(at[axes[1]])), *index, vals)
    if k is not None:
        raise PackageError(f"{file.name}: repeated pair ({columns[0][k]!r}, {columns[1][k]!r})")
    return held


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
        v1_0 = ("observer", "regime") if self.version == _V1_0 else ()
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

@dataclass(frozen=True)
class CutReportPackage(_HeldBlocks):
    """A loaded package.

    Its share blocks are stored as held edges (`held`), which validation and
    `cut_statistics` read; reading `o_po` and the other blocks gives a
    read-only dense array, built on the first read.
    """

    directory: Path
    manifest: Manifest
    p_ids: tuple[str, ...]
    o_ids: tuple[str, ...]
    b_p: np.ndarray
    v_o: np.ndarray
    o_po: np.ndarray = _BlockField(optional=False)
    o_op: np.ndarray = _BlockField(optional=False)
    o_pp: np.ndarray | None = _BlockField(optional=False)
    observer: Observer
    v_p: np.ndarray | None = None
    clearing_spec: dict | None = None
    pov: dict | None = None
    stability_evidence: str | None = None

    def _non_finite_cells(self):
        """(file, message, location) for each non-finite cell loaded, in row-major
        order and the wording of rule D2."""
        for key, name in _DATA_FILES:
            stored = self.held(name)
            if stored is None:
                continue
            axes = [getattr(self, ids) for ids in _FIELDS[name][:2] if ids]
            if isinstance(stored, _HeldEdges):
                bad = np.flatnonzero(~np.isfinite(stored.vals))
                values, index = stored.vals[bad], (stored.rows[bad], stored.cols[bad])
            else:
                bad = np.flatnonzero(~np.isfinite(stored))
                values, index = stored[bad], (bad,)
            for value, *at in zip(values.tolist(), *(k.tolist() for k in index)):
                yield (self.manifest.data_files.get(key, key),
                       f"{key} entry is not finite: {value!r}",
                       "->".join(str(ids[k]) for ids, k in zip(axes, at)))

    def cut_statistics(self) -> CutStatistics:
        """Boundary statistics for valuation, which share the package's held
        edges.

        When the manifest declares clearing, the block files carry net
        post-clearing flows and are treated as priced amounts.  A non-finite
        cell, which rule D2 reports, is a PackageError here: no valuation is
        priced from it.
        """
        non_finite = next(self._non_finite_cells(), None)
        if non_finite is not None:
            file, message, location = non_finite
            raise PackageError(f"{file}: {message} at {location}")
        held = self.held
        clearing = self.manifest.clearing_block
        if clearing.get("used"):
            return CutStatistics(self.p_ids, self.o_ids, self.b_p, self.v_o,
                                 x_po=held("o_po"), x_op=held("o_op"),
                                 clearing_tag=str(clearing.get("engine") or "clearing"))
        return CutStatistics(self.p_ids, self.o_ids,
                             **{name: held(name) for _, name in _DATA_FILES})


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
    PoV cannot state is an EmissionError, and nothing is written.  The
    package holds share blocks, so a clearing declaration, under which
    `cut_statistics` reads them as priced amounts, is a PackageError, and
    nothing is written either.
    """
    if stats.held("o_po") is None or stats.held("o_op") is None or stats.v_o is None:
        raise PackageError("write_package needs share-form statistics")
    if stats.clearing_tag or (clearing_spec or {}).get("used"):
        raise PackageError("write_package writes share blocks, which a clearing "
                           "declaration would have read as priced amounts")
    pov = emit_pov(observer)
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)

    cells = {ids: [_csv_cell(node) for node in getattr(stats, ids)] for ids in ("p_ids", "o_ids")}
    files = {"nodes_P": "nodes_P.csv", "nodes_O": "nodes_O.csv"}
    for key, ids in (("nodes_P", "p_ids"), ("nodes_O", "o_ids")):
        _write_rows(directory / files[key], "id,type,label", cells[ids], repeat("entity"),
                    repeat(""))
    for key, name in _DATA_FILES:
        stored = stats.held(name)
        if stored is None:
            continue
        rows, cols, _ = _FIELDS[name]
        files[key] = f"{key}.csv"
        if cols:
            _write_rows(directory / files[key], EDGE_HEADER,
                        map(cells[rows].__getitem__, stored.rows.tolist()),
                        map(cells[cols].__getitem__, stored.cols.tolist()),
                        map(repr, stored.vals.tolist()))
        else:
            _write_rows(directory / files[key], f"id,{name[0]}", cells[rows],
                        map(repr, stored.tolist()))
    if stats.held("o_pp") is not None:
        files["stability"] = STABILITY_NAME
        bound = spectral_radius_bound(stats.held("o_pp"))
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

    manifest_data = {
        "version": MANIFEST_VERSION,
        "perimeter": {"O_ref": o_ref or f"complement-of-{observer.perimeter_ref}"},
        "clearing": {"used": False, "engine": (clearing_spec or {}).get("engine"),
                     "params": (clearing_spec or {}).get("params", {})},
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
    # a v1.0 field left empty, like one left out, takes the observer's default
    observer = _given(P_ref=perimeter.get("P_ref"), units=declared.get("currency"),
                      date=fx.get("date"))
    observer["control_rule"] = perimeter.get("control_rule")
    if "regime" in manifest.data:
        observer["information_regime"] = manifest.data["regime"]
    if fx or ppp.get("used"):
        observer["fx_ppp"] = {
            "fx_source": fx.get("provider"),
            "ppp_source": ppp.get("source") if ppp.get("used") else None,
            "deflator": ppp.get("deflator"),
            **_given(scale=fx.get("scale")),
        }
    if sdf.get("used"):
        observer["sdf"] = {"curve_source": sdf.get("spec"), **_given(measure=sdf.get("measure"))}
    return {"observer": observer}, "manifest"


def _given(**values) -> dict:
    """The `values` that are set: not null, "", 0 or false."""
    return {key: value for key, value in values.items() if value}


def load_package(directory) -> CutReportPackage:
    """Load and hash-verify a package directory.

    Every listed file must exist, carry a manifest hash, and match it byte
    for byte; `pov.json` is required, and `O_PP.csv` when the observer's
    regime is B.  Each file is read once, and every hash is checked before
    any file is parsed: the bytes hashed are the bytes parsed.  A 1.2
    package's blocks are read from their edge files; a 1.1 or v1.0 package's
    from dense files, as the module docstring describes.  Any other manifest
    version, or none, is a PackageError.
    """
    directory = Path(directory)
    manifest_path = directory / MANIFEST_NAME
    if not manifest_path.exists():
        raise PackageError(f"{MANIFEST_NAME} not found in {directory}")
    manifest = Manifest.from_yaml_bytes(manifest_path.read_bytes())
    if manifest.version not in (MANIFEST_VERSION, _V1_1, _V1_0):
        raise PackageError(f"manifest version {manifest.version!r}, expected "
                           f"{MANIFEST_VERSION!r}, {_V1_1!r} or {_V1_0!r}")

    files = manifest.data_files
    current = manifest.version != _V1_0
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

    ids = {"p_ids": sorted(read_nodes_csv(loaded["nodes_P"])),
           "o_ids": sorted(read_nodes_csv(loaded["nodes_O"]))}
    at = {side: {node: k for k, node in enumerate(nodes)} for side, nodes in ids.items()}
    edge_files = manifest.version == MANIFEST_VERSION
    arrays = dict.fromkeys(name for _, name in _DATA_FILES)
    for key, name in _DATA_FILES:
        if key not in files:
            continue
        rows, cols, _ = _FIELDS[name]
        if cols and edge_files:
            arrays[name] = _read_edges(loaded[key], (rows, cols), at)
            continue
        row_ids, col_ids, data = read_matrix_csv(loaded[key])
        if cols is None and len(col_ids) != 1:
            raise PackageError(f"{loaded[key].name}: expected a two-column id/value file")
        values = _reorder_matrix(row_ids, col_ids, data, ids[rows],
                                 ids[cols] if cols else col_ids, loaded[key].name)
        arrays[name] = values if cols else values.reshape(-1)

    clearing_spec = None
    if "clearing_spec" in files:
        clearing_spec = _json_object(loaded["clearing_spec"].data, "clearing.json")

    return CutReportPackage(
        directory=directory,
        manifest=manifest,
        p_ids=tuple(ids["p_ids"]),
        o_ids=tuple(ids["o_ids"]),
        observer=observer,
        clearing_spec=clearing_spec,
        pov=pov if source == "PoV" else None,
        stability_evidence=_text(evidence) if evidence is not None else None,
        **arrays,
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
        # a v1.0 label's number is a percent, so "option-A@0.5" is tau = 0.005
        label = getattr(pkg.observer.control_rule, "label", None) or ""
        match = _RULE_LABEL_RE.search(label)
        if match and "%" not in match.group(0) and float(match.group(1)) <= 1.0:
            report.add("schema", "warning",
                       f"control rule label {label!r} reads its number as a percent "
                       f"(tau = {pkg.observer.control_rule.tau!r}); a share of at most 1 "
                       "may have been meant",
                       location=POV_NAME if pkg.pov is not None else MANIFEST_NAME)
    for key in pkg.manifest.extra_keys:
        report.add("schema", "note", f"unknown manifest field {key!r} preserved",
                   location=MANIFEST_NAME)

    # D2: finite data, nonnegative share blocks; negative bases need a note.
    # Under a clearing declaration O_PO and O_OP hold net flows, not shares
    for _, message, location in pkg._non_finite_cells():
        report.add("D2", "error", message, location=location)
    amounts = ("o_po", "o_op") if pkg.manifest.clearing_block.get("used") else ()
    shares = {name: (key, pkg.held(name)) for key, name in _DATA_FILES
              if not _FIELDS[name][2] and name not in amounts and pkg.held(name) is not None}
    for key, block in shares.values():
        if (block.vals < 0).any():
            report.add("D2", "error", f"{key} has negative entries")
    if (pkg.b_p < 0).any() and not pkg.manifest.notes:
        report.add("D2", "warning", "negative bases present without a justifying note")
    col_sums = sum((shares[name][1].col_sums() for name in ("o_pp", "o_op") if name in shares),
                   np.zeros(len(pkg.p_ids)))
    for j in np.nonzero(col_sums > 1.0 + COLUMN_SUM_SLACK)[0]:
        report.add("D2", "error",
                   f"ownership of {pkg.p_ids[j]!r} sums to {float(col_sums[j])!r} > 1")

    # D3: a single observer per period.  A v1.0 manifest repeats the observer
    # that an unlisted pov.json defines, and the two must agree
    if pkg.pov is not None and version == _V1_0:
        observer, declared = pkg.observer, pkg.manifest.observer_block
        pairs = (
            ("units", observer.units, declared.get("currency")),
            ("regime", observer.regime, pkg.manifest.data.get("regime", Observer.regime)),
            ("P_ref", observer.perimeter_ref, pkg.manifest.perimeter_block.get("P_ref")),
            ("fx scale", observer.fx_ppp.scale if observer.fx_ppp else FxPppSpec.scale,
             (declared.get("fx") or {}).get("scale")),
        )
        for name, pov_value, man_value in pairs:
            if man_value is not None and pov_value != man_value:
                report.add("D3", "error",
                           f"pov {name} {pov_value!r} disagrees with manifest {man_value!r}")

    # D4: regime B needs stability evidence alongside the internal block, and
    # the hashed block must pass the gate that regime B runs before its solve
    if pkg.held("o_pp") is not None:
        if not pkg.stability_evidence:
            report.add("D4", "error",
                       "O_PP provided without stability evidence "
                       f"({STABILITY_NAME} missing)")
        try:
            _stability_gate(pkg.held("o_pp").edges())
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
        """The document `blob` holds; anything else is a PackageError."""
        data = _json_object(blob, "cut summary")
        known = {
            "perimeter", "date", "currency", "edges_PO", "edges_OP",
            "node_primitives", "totals", "consolidated_value",
            "hedge_vector_O", "missing_data",
        }
        try:  # absent keys, values of the wrong type or an unknown edge type
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
        except (KeyError, TypeError, ValueError, AttributeError, EmissionError) as exc:
            raise PackageError(f"not a cut summary: {exc!r}") from None


def _edges(edges, from_ids, to_ids, edge_type):
    rows, cols, amounts = edges
    return [Edge(from_ids[i], to_ids[j], edge_type, amount)
            for i, j, amount in zip(rows.tolist(), cols.tolist(), amounts.tolist())]


def build_cut_summary(result: ValuationResult, observer: Observer,
                      missing_data=()) -> CutSummaryDoc:
    """The cut summary of a completed valuation, under `observer`'s labels.

    It lists the edges the result priced and the statistics it priced them
    from, so its edges add up, in listed order, to T_out and T_in at
    whatever threshold the result was priced; it prices nothing itself.
    """
    stats = result.stats
    flow_type = "debt" if stats.clearing_tag else "cashflow"
    held = stats.held
    edges_po = _edges(result.edges_out, stats.p_ids, stats.o_ids,
                      "equity" if held("x_po") is None else flow_type)
    edges_op = _edges(result.edges_in, stats.o_ids, stats.p_ids,
                      "equity" if held("x_op") is None else flow_type)
    v_p = dict(zip(stats.p_ids, stats.v_p.tolist())) if stats.v_p is not None else {}
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
        hedge_vector_o=hedge_vector(stats) if held("o_po") is not None else None,
        missing_data=list(missing_data),
    )


# ---------------------------------------------------------------------------
# Perimeter of validity
# ---------------------------------------------------------------------------

# The observer's scalar fields as a PoV states them: (PoV key, `Observer`
# field, cast of a stated value).  The writer puts information_regime after
# the fx_ppp and sdf blocks.
_POV_SCALARS = (("basis", "basis", str), ("units", "units", str), ("date", "date", str),
                ("information_regime", "regime", str))
# The sdf block's keys in written order; the two weight maps, last, are
# written only when set
_SDF_KEYS = ("curve_source", "measure", "horizon", "discount_weights", "change_of_measure")
# The cast of a stated value in a spec block, by key; other keys are taken as written
_SPEC_CASTS = {**dict.fromkeys(("tau", "alpha", "scale", "rounding_threshold", "solver_eps"),
                               float),
               "option": str, "measure": str, "normalize": bool}
_RULE_KEYS = ("option", "label")  # a control rule's other fields sit under "params"


def build_pov(observer: Observer) -> dict:
    """Observer configuration as the PoV mapping, checking required fields.

    `Observer` itself requires a basis, units, date and regime; a perimeter
    reference and a control rule are required here.
    """
    missing = [name for name in ("perimeter_ref", "control_rule") if not getattr(observer, name)]
    if missing:
        raise EmissionError(
            f"perimeter-of-validity lacks required fields: {missing}", fields=missing
        )
    rule = observer.control_rule
    obs_block: dict = {
        # the named nodes, empty included, or null when the observer names none
        "P": None if observer.perimeter_nodes is None else list(observer.perimeter_nodes),
        "P_ref": observer.perimeter_ref,
        **{key: getattr(observer, name) for key, name, _ in _POV_SCALARS},
    }
    if observer.fx_ppp is not None:
        obs_block["fx_ppp"] = asdict(observer.fx_ppp)
    if observer.sdf is not None:
        sdf = asdict(observer.sdf)
        obs_block["sdf"] = {key: sdf[key] for k, key in enumerate(_SDF_KEYS)
                            if k < 3 or sdf[key] is not None}
    obs_block["information_regime"] = obs_block.pop("information_regime")  # after the blocks
    obs_block["control_rule"] = {"option": rule.option, "params": rule.params()}
    if rule.label:
        obs_block["control_rule"]["label"] = rule.label
    return {"observer": obs_block, "tolerances": asdict(observer.tolerances), "notes": ""}


def emit_pov(observer: Observer) -> bytes:
    return _json_bytes(build_pov(observer))


def parse_pov(blob: bytes) -> tuple[Observer, dict]:
    """Rebuild an Observer from a PoV document; returns (observer, raw dict).

    A package's `pov.json` is read the same way.  A field the document
    leaves out takes its dataclass default.  `P` lists the perimeter nodes,
    an empty list included; null or absent means the observer names none.
    (Writers before this encoding wrote `[P_ref]` for none, which now reads
    as that one node; no valuation reads the nodes, so W does not move.)
    Bytes that are not a JSON object, and fields that fail the observer's
    checks, are PackageErrors.
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


def _stated(block: dict, names) -> dict:
    """The keys of `block` among `names`, each value cast as `_SPEC_CASTS` says."""
    return {key: _SPEC_CASTS[key](value) if key in _SPEC_CASTS else value
            for key, value in block.items() if key in names}


def _spec(cls, block: dict):
    """`cls` from the fields `block` states; the dataclass defaults fill in the rest."""
    return cls(**_stated(block, [f.name for f in fields(cls)]))


def _observer_from_pov(data: dict) -> Observer:
    """The observer `data` states; each field it leaves out takes the default
    its dataclass declares."""
    obs = data.get("observer") or {}
    # a rule block, or what `Observer` takes itself: a label, or none declared
    rule = obs.get("control_rule")
    if isinstance(rule, dict):
        params = [f.name for f in fields(ControlRuleSpec) if f.name not in _RULE_KEYS]
        rule = ControlRuleSpec(**_stated(rule, _RULE_KEYS),
                               **_stated(rule.get("params") or {}, params))
    fx_block, sdf_block = obs.get("fx_ppp"), obs.get("sdf")
    nodes = obs.get("P")
    if nodes is not None:
        if not isinstance(nodes, list):
            raise TypeError(f"P must be a list of node ids or null, not {nodes!r}")
        nodes = tuple(str(n) for n in nodes)
    ref = str(obs.get("P_ref") or (nodes[0] if nodes and len(nodes) == 1 else "P"))
    return Observer(
        perimeter_ref=ref,
        control_rule=rule,
        tolerances=_spec(Tolerances, data.get("tolerances") or {}),
        fx_ppp=_spec(FxPppSpec, fx_block) if fx_block else None,
        sdf=_spec(SdfSpec, sdf_block) if sdf_block else None,
        perimeter_nodes=nodes,
        **{name: cast(obs[key]) for key, name, cast in _POV_SCALARS if key in obs},
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
        f"edges P->O: {int(np.count_nonzero(pkg.held('o_po').vals))}; "
        f"edges O->P: {int(np.count_nonzero(pkg.held('o_op').vals))}"
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
