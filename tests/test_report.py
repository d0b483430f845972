import csv
import io
import json
import math
import shutil
from dataclasses import replace

import numpy as np
import pytest
import yaml
from hypothesis import example, given, settings, strategies as st

import cbv
import cbv.report
from cbv.errors import DomainError, EmissionError, IntegrityError, PackageError
from cbv.report import (
    MANIFEST_VERSION,
    STABILITY_NAME,
    Edge,
    Manifest,
    read_matrix_csv,
    write_matrix_csv,
)

from conftest import (
    P_IDS,
    V1_0_PACKAGE,
    V1_0_W,
    example_stats,
    reference_build_pov,
    reference_observer_from_pov,
    rehash,
    renault_stats,
    v1_0_package,
)


# ---------------------------------------------------------------------------
# Oracles: the package writer, reader and cut-summary edge loops before they
# were vectorized, one Python step per cell.
# ---------------------------------------------------------------------------

def reference_write_rows(path, rows):
    # csv.writer under a "\r\n" terminator quotes a carriage return as well
    # as a newline, so that the cell reads back; each row then ends in "\n"
    with open(path, "w", newline="", encoding="utf-8") as handle:
        for row in rows:
            buffer = io.StringIO()
            csv.writer(buffer, lineterminator="\r\n").writerow(row)
            handle.write(buffer.getvalue()[:-2] + "\n")


def reference_write_matrix_csv(path, row_ids, col_ids, matrix, id_header):
    matrix = np.asarray(matrix, dtype=float)
    reference_write_rows(path, [[id_header, *col_ids], *(
        [node, *(repr(float(v)) for v in matrix[k])] for k, node in enumerate(row_ids))])


def reference_write_vector_csv(path, ids, values, column):
    reference_write_rows(path, [["id", column], *(
        [node, repr(float(value))] for node, value in zip(ids, values))])


def reference_write_nodes_csv(path, ids):
    reference_write_rows(path, [["id", "type", "label"], *([node, "entity", ""] for node in ids)])


def reference_write_edges(path, row_ids, col_ids, block):
    """A block's edge file: every entry whose bits are not +0.0, row by row."""
    block = np.asarray(block, dtype=float)
    reference_write_rows(path, [["from", "to", "share"], *(
        [row_ids[i], col_ids[j], repr(float(block[i, j]))]
        for i in range(block.shape[0]) for j in range(block.shape[1])
        if np.float64(block[i, j]).view(np.uint64) != 0)])


def reference_read_matrix_csv(path):
    with open(path, newline="", encoding="utf-8") as handle:
        rows = list(csv.reader(handle))
    col_ids = rows[0][1:]
    row_ids = [row[0] for row in rows[1:]]
    data = np.zeros((len(row_ids), len(col_ids)))
    for i, row in enumerate(rows[1:]):
        data[i] = [float(v) for v in row[1:]]
    return row_ids, col_ids, data


def reference_share_edges(share_block, values, from_ids, to_ids, tau, edge_type):
    edges = []
    for i, from_id in enumerate(from_ids):
        for j, to_id in enumerate(to_ids):
            if share_block[i, j] == 0.0:
                continue
            amount = float(share_block[i, j] * values[j])
            if tau > 0.0 and abs(amount) < tau:
                continue
            edges.append(Edge(from_id, to_id, edge_type, amount))
    return edges


def reference_amount_edges(amounts, from_ids, to_ids, tau, edge_type):
    edges = []
    for i, from_id in enumerate(from_ids):
        for j, to_id in enumerate(to_ids):
            amount = float(amounts[i, j])
            if amount == 0.0 or (tau > 0.0 and abs(amount) < tau):
                continue
            edges.append(Edge(from_id, to_id, edge_type, amount))
    return edges


def same_bits(a, b) -> bool:
    """Equal arrays, bit for bit, except that any NaN equals any NaN."""
    a, b = np.asarray(a, dtype=float), np.asarray(b, dtype=float)
    if a.shape != b.shape or not np.array_equal(np.isnan(a), np.isnan(b)):
        return False
    keep = ~np.isnan(a)
    return np.array_equal(a[keep].view(np.uint64), b[keep].view(np.uint64))


def same_edges(got, want) -> bool:
    return ([(e.from_id, e.to_id, e.type) for e in got]
            == [(e.from_id, e.to_id, e.type) for e in want]
            and same_bits([e.amount for e in got], [e.amount for e in want]))


def reference_v1_0_observer(manifest: dict) -> cbv.Observer:
    """The observer the v1.0 reader built from a v1.0 manifest, field by field."""
    obs_block = manifest.get("observer") or {}
    per_block = manifest.get("perimeter") or {}
    fx_block = obs_block.get("fx") or {}
    ppp_block = obs_block.get("ppp") or {}
    sdf_block = obs_block.get("sdf") or {}
    fx_ppp = None
    if fx_block or ppp_block.get("used"):
        fx_ppp = cbv.FxPppSpec(
            scale=float(fx_block.get("scale", 1.0) or 1.0),
            fx_source=fx_block.get("provider"),
            ppp_source=ppp_block.get("source") if ppp_block.get("used") else None,
            deflator=ppp_block.get("deflator"),
        )
    sdf = None
    if sdf_block.get("used"):
        sdf = cbv.SdfSpec(measure=str(sdf_block.get("measure") or "risk_neutral"),
                          curve_source=sdf_block.get("spec"))
    return cbv.Observer(
        perimeter_ref=str(per_block.get("P_ref") or "P"),
        units=str(obs_block.get("currency") or "EUR"),
        date=str(fx_block.get("date") or "1970-01-01"),
        regime=str(manifest.get("regime", "A")),
        control_rule=per_block.get("control_rule"),
        fx_ppp=fx_ppp,
        sdf=sdf,
    )


SPECIAL_IDS = ("a,b", 'q"x', "", " lead", "multi\nline", "cr\rid", "#hash")
SPECIAL_VALUES = (-0.0, 5e-324, 2.225073858507201e-308, 1e16, 1e-300, 0.1,
                  float("nan"), float("inf"), float("-inf"), 1.7976931348623157e308)

node_ids = st.one_of(
    st.sampled_from(SPECIAL_IDS),
    st.text(st.characters(blacklist_categories=("Cs",), blacklist_characters="\x00"),
            max_size=5),
)
cells = st.one_of(st.just(0.0), st.sampled_from(SPECIAL_VALUES), st.floats(width=64))
# a base is finite: CutStatistics refuses any other
finite_cells = st.one_of(st.just(0.0), st.sampled_from(list(filter(math.isfinite, SPECIAL_VALUES))),
                         st.floats(width=64, allow_nan=False, allow_infinity=False))


@st.composite
def matrices(draw, ids=st.lists(node_ids, max_size=5)):
    row_ids, col_ids = draw(ids), draw(ids)
    values = draw(st.lists(cells, min_size=len(row_ids) * len(col_ids),
                           max_size=len(row_ids) * len(col_ids)))
    return row_ids, col_ids, np.array(values, dtype=float).reshape(len(row_ids), len(col_ids))


@pytest.fixture(scope="module")
def scratch(tmp_path_factory):
    return tmp_path_factory.mktemp("csv")


def demo_observer(regime="B", **kwargs) -> cbv.Observer:
    return cbv.Observer(
        perimeter_ref="P-DEMO",
        basis="fair_value",
        units="EUR",
        date="2025-06-30",
        regime=regime,
        control_rule=cbv.ControlRuleSpec(option="A", tau=0.5),
        **kwargs,
    )


# Packages written by the cbv-cut-report@1.1 and @1.2 writers from
# example_stats() under GOLDEN_OBSERVER, with GOLDEN_CLEARING as clearing.json
# and the note "demo data"; each prices W at GOLDEN_W.  The 1.1 package holds
# dense share blocks and pins what old packages load to; the 1.2 package holds
# edge files and pins the bytes written today, so any change to a written
# byte, the manifest's key order included, shows against it.
GOLDEN_PACKAGE = V1_0_PACKAGE.with_name("package_v1_1")
GOLDEN_PACKAGE_V1_2 = V1_0_PACKAGE.with_name("package_v1_2")
GOLDEN_OBSERVER = replace(demo_observer("A"), fx_ppp=cbv.FxPppSpec(
    scale=1.07, fx_source="ECB", deflator="HICP"))
GOLDEN_CLEARING = {"engine": "eisenberg-noe", "params": {"selection": "greatest"}}
GOLDEN_W = 90.47920000000002

# A pov.json written by the PoV writer that stated each field by hand, for
# SDF_OBSERVER: every part of the observer set, the SDF block in full.
SDF_POV = V1_0_PACKAGE.with_name("pov_sdf.json")
SDF_OBSERVER = cbv.Observer(
    perimeter_ref="P-SDF", basis="realizable", units="USD", date="2025-12-31", regime="B",
    control_rule=cbv.ControlRuleSpec(option="C", alpha=0.6, label="look-through"),
    tolerances=cbv.Tolerances(rounding_threshold=1e-6, solver_eps=1e-12, max_iters=500),
    fx_ppp=cbv.FxPppSpec(scale=1.07, fx_source="ECB", ppp_source="OECD", deflator="HICP"),
    sdf=cbv.SdfSpec(measure="physical", discount_weights={"up": 0.48, "down": 0.47},
                    change_of_measure={"up": 1.1, "down": 0.9}, curve_source="ECB-AAA",
                    horizon="1Y"),
    perimeter_nodes=("A", "B", "C"),
)


@pytest.fixture
def package_dir(tmp_path):
    stats = example_stats(with_v_p=False)
    cbv.write_package(tmp_path / "pkg", stats, demo_observer(), notes=["demo data"])
    return tmp_path / "pkg"


class TestPackageRoundTrip:
    def test_v1_0_package_reads_as_it_did(self):
        # the v1.0 manifest held the rule as the label "option-A@0.5" (read
        # back as tau 0.5 %) and an FX block of scale 1.0
        pkg = cbv.load_package(V1_0_PACKAGE)
        assert pkg.observer == replace(
            demo_observer(), fx_ppp=cbv.FxPppSpec(),
            control_rule=cbv.ControlRuleSpec(option="A", tau=0.005, label="option-A@0.5"))
        assert pkg.pov is None and pkg.stability_evidence.startswith("stability evidence")
        assert cbv.evaluate_for_observer(pkg.cut_statistics(), pkg.observer).w == V1_0_W
        sheet = cbv.render_disclosure_sheet(pkg)
        assert sheet.startswith("Cut-Report (v1.0) - Disclosure sheet")

    def test_emit_then_load(self, package_dir):
        pkg = cbv.load_package(package_dir)
        stats = example_stats(with_v_p=False)
        assert pkg.p_ids == stats.p_ids
        assert pkg.o_ids == stats.o_ids
        np.testing.assert_array_equal(pkg.b_p, stats.b_p)
        np.testing.assert_array_equal(pkg.v_o, stats.v_o)
        np.testing.assert_array_equal(pkg.o_po, stats.o_po)
        np.testing.assert_array_equal(pkg.o_op, stats.o_op)
        np.testing.assert_array_equal(pkg.o_pp, stats.o_pp)
        assert pkg.manifest.version == MANIFEST_VERSION
        assert pkg.observer.units == "EUR"
        assert pkg.observer.regime == "B"

    def test_written_files_are_deterministic(self, tmp_path):
        stats = example_stats(with_v_p=False)
        one, two = tmp_path / "one", tmp_path / "two"
        cbv.write_package(one, stats, demo_observer())
        cbv.write_package(two, stats, demo_observer())
        for name in sorted(p.name for p in one.iterdir()):
            assert (one / name).read_bytes() == (two / name).read_bytes()

    def test_golden_package_is_written_byte_for_byte(self, tmp_path):
        cbv.write_package(tmp_path / "pkg", example_stats(), GOLDEN_OBSERVER,
                          clearing_spec=GOLDEN_CLEARING, notes=["demo data"])
        names = sorted(p.name for p in GOLDEN_PACKAGE_V1_2.iterdir())
        assert sorted(p.name for p in (tmp_path / "pkg").iterdir()) == names
        for name in names:
            assert ((tmp_path / "pkg" / name).read_bytes()
                    == (GOLDEN_PACKAGE_V1_2 / name).read_bytes()), name

    def test_golden_package_loads_bit_exact(self):
        pkg = cbv.load_package(GOLDEN_PACKAGE)
        stats = example_stats()
        assert (pkg.p_ids, pkg.o_ids) == (stats.p_ids, stats.o_ids)
        for name in ("b_p", "v_o", "v_p", "o_po", "o_op", "o_pp"):
            assert same_bits(getattr(pkg, name), getattr(stats, name)), name
        assert pkg.observer == GOLDEN_OBSERVER and pkg.clearing_spec == GOLDEN_CLEARING
        assert cbv.evaluate_for_observer(pkg.cut_statistics(), pkg.observer).w == GOLDEN_W

    def test_golden_packages_1_1_and_1_2_load_alike(self):
        # the dense blocks of 1.1 and the edge files of 1.2 load to the same
        # held edges, bit for bit and in the same order, and to the same W
        old, new = cbv.load_package(GOLDEN_PACKAGE), cbv.load_package(GOLDEN_PACKAGE_V1_2)
        assert (old.manifest.version, new.manifest.version) == ("cbv-cut-report@1.1",
                                                                MANIFEST_VERSION)
        for name in ("o_po", "o_op", "o_pp"):
            a, b = old.held(name), new.held(name)
            assert a.shape == b.shape, name
            for part in ("rows", "cols", "vals"):
                got, want = getattr(b, part), getattr(a, part)
                assert got.dtype == want.dtype and got.tobytes() == want.tobytes(), (name, part)
            assert same_bits(getattr(old, name), getattr(new, name)), name
        for name in ("b_p", "v_o", "v_p"):
            assert same_bits(getattr(old, name), getattr(new, name)), name
        for pkg in (old, new):
            assert cbv.evaluate_for_observer(pkg.cut_statistics(), pkg.observer).w == GOLDEN_W

    @pytest.mark.parametrize("tag, spec", [
        (None, {"used": True, "engine": "seniority"}),
        ("seniority", None),
    ])
    def test_clearing_declared_over_share_blocks_writes_nothing(self, tmp_path, tag, spec):
        # the declaration made cut_statistics read the share files as priced
        # amounts: W moved and validate reported no findings
        stats = example_stats(with_v_p=False).replace(clearing_tag=tag)
        with pytest.raises(PackageError, match="priced amounts"):
            cbv.write_package(tmp_path / "pkg", stats, demo_observer(), clearing_spec=spec)
        assert not (tmp_path / "pkg").exists()

    def test_post_clearing_package_prices_its_files_as_amounts(self, package_dir):
        # a package whose manifest declares clearing, written by hand: its
        # O_PO and O_OP files hold net flows, priced as they stand
        stats = example_stats(with_v_p=False)
        x_po, x_op = [[3.0, 1.6], [1.8, 0.0], [0.0, 3.2]], [[6.0, 3.0, 0.0], [0.0, 6.4, 9.6]]
        reference_write_edges(package_dir / "O_PO.csv", stats.p_ids, stats.o_ids, x_po)
        reference_write_edges(package_dir / "O_OP.csv", stats.o_ids, stats.p_ids, x_op)
        manifest = Manifest.from_yaml_bytes((package_dir / "manifest.yaml").read_bytes())
        manifest.data["clearing"] = {"used": True, "engine": "seniority", "params": {}}
        (package_dir / "manifest.yaml").write_bytes(manifest.to_yaml_bytes())
        for name in ("O_PO.csv", "O_OP.csv"):
            rehash(package_dir, name)
        cleared = cbv.load_package(package_dir).cut_statistics()
        assert cleared.clearing_tag == "seniority"
        assert cleared.o_po is None and cleared.o_op is None
        assert same_bits(cleared.x_po, np.array(x_po)) and same_bits(cleared.x_op, np.array(x_op))
        assert cbv.evaluate_regime_a(cleared).w == pytest.approx(90.0 + 9.6 - 25.0, rel=1e-12)

    def test_single_byte_corruption_detected(self, package_dir):
        target = package_dir / "O_PO.csv"
        blob = bytearray(target.read_bytes())
        blob[len(blob) // 2] ^= 0x01
        target.write_bytes(bytes(blob))
        with pytest.raises(IntegrityError) as err:
            cbv.load_package(package_dir)
        assert err.value.filename == "O_PO.csv"

    def test_regime_b_requires_internal_block(self, package_dir):
        manifest = Manifest.from_yaml_bytes(
            (package_dir / "manifest.yaml").read_bytes()
        )
        del manifest.data["data_files"]["O_PP"]
        del manifest.data["hashes"]["O_PP"]
        (package_dir / "manifest.yaml").write_bytes(manifest.to_yaml_bytes())
        with pytest.raises(PackageError) as err:
            cbv.load_package(package_dir)
        assert "O_PP" in str(err.value)

    def test_regime_a_loads_without_internal_block(self, tmp_path):
        cbv.write_package(tmp_path / "rno", renault_stats(), demo_observer(
            regime="A"
        ))
        manifest = Manifest.from_yaml_bytes(
            (tmp_path / "rno" / "manifest.yaml").read_bytes()
        )
        # single-node perimeter: drop the trivial internal block entirely
        del manifest.data["data_files"]["O_PP"]
        del manifest.data["hashes"]["O_PP"]
        (tmp_path / "rno" / "manifest.yaml").write_bytes(manifest.to_yaml_bytes())
        pkg = cbv.load_package(tmp_path / "rno")
        assert pkg.o_pp is None
        result = cbv.evaluate_for_observer(pkg.cut_statistics(), pkg.observer)
        assert result.w == pytest.approx(7.701e9, abs=1e-4)

    def test_missing_manifest(self, tmp_path):
        with pytest.raises(PackageError):
            cbv.load_package(tmp_path)

    def test_missing_hash_entry(self, package_dir):
        manifest = Manifest.from_yaml_bytes(
            (package_dir / "manifest.yaml").read_bytes()
        )
        del manifest.data["hashes"]["b_P"]
        (package_dir / "manifest.yaml").write_bytes(manifest.to_yaml_bytes())
        with pytest.raises(PackageError):
            cbv.load_package(package_dir)


class TestValidatePackage:
    def test_clean_package(self, package_dir):
        assert cbv.validate_package(cbv.load_package(package_dir)).ok

    def test_negative_share_flagged(self, package_dir):
        pkg = cbv.load_package(package_dir)
        o_op = np.array(pkg.o_op)
        o_op[0, 0] = -0.1
        report = cbv.validate_package(pkg.replace(o_op=o_op))
        assert any(f.rule == "D2" and f.severity == "error" for f in report.findings)

    def test_post_clearing_amount_blocks_skip_the_share_rules(self, package_dir):
        # under a clearing declaration O_PO and O_OP hold net flows, which may
        # be negative and sum past 1; O_PP keeps the share rules
        stats = example_stats(with_v_p=False)
        x_po, x_op = [[3.0, -1.6], [1.8, 0.0], [0.0, 3.2]], [[6.0, 3.0, 0.0], [0.0, 6.4, 9.6]]
        reference_write_edges(package_dir / "O_PO.csv", stats.p_ids, stats.o_ids, x_po)
        reference_write_edges(package_dir / "O_OP.csv", stats.o_ids, stats.p_ids, x_op)
        manifest = Manifest.from_yaml_bytes((package_dir / "manifest.yaml").read_bytes())
        manifest.data["clearing"] = {"used": True, "engine": "seniority", "params": {}}
        (package_dir / "manifest.yaml").write_bytes(manifest.to_yaml_bytes())
        for name in ("O_PO.csv", "O_OP.csv"):
            rehash(package_dir, name)
        pkg = cbv.load_package(package_dir)
        assert not [f for f in cbv.validate_package(pkg).findings if f.rule == "D2"]
        o_pp = np.array(pkg.o_pp)
        o_pp[1, 0] = -0.05
        pkg = pkg.replace(o_pp=o_pp)
        assert [f.message for f in cbv.validate_package(pkg).findings if f.rule == "D2"] == [
            "O_PP has negative entries"]

    def test_negative_base_needs_note(self, tmp_path):
        stats = example_stats(with_v_p=False)
        shifted = cbv.CutStatistics(
            p_ids=stats.p_ids, o_ids=stats.o_ids,
            b_p=np.array([-5.0, 35.0, 30.0]), v_o=stats.v_o,
            o_po=stats.o_po, o_op=stats.o_op, o_pp=stats.o_pp,
        )
        bare = tmp_path / "bare"
        cbv.write_package(bare, shifted, demo_observer())
        report = cbv.validate_package(cbv.load_package(bare))
        assert any(f.rule == "D2" and f.severity == "warning" for f in report.findings)
        noted = tmp_path / "noted"
        cbv.write_package(noted, shifted, demo_observer(),
                          notes=["negative base: pension deficit"])
        assert cbv.validate_package(cbv.load_package(noted)).ok

    def test_missing_stability_evidence_is_d4(self, package_dir, tmp_path):
        # a package that lists no evidence, and a v1.0 one without the file
        manifest = Manifest.from_yaml_bytes((package_dir / "manifest.yaml").read_bytes())
        del manifest.data["data_files"]["stability"]
        (package_dir / "manifest.yaml").write_bytes(manifest.to_yaml_bytes())
        (v1_0_package(tmp_path) / STABILITY_NAME).unlink()
        for directory in (package_dir, tmp_path / "v1_0"):
            report = cbv.validate_directory(directory)
            assert any(f.rule == "D4" for f in report.findings)

    # D3 compares the observer a v1.0 package's unlisted pov.json defines with
    # the one its manifest repeats: P_ref "P-DEMO", EUR, regime B, FX scale 1.0

    def test_pov_disagreement_is_d3(self, tmp_path):
        pov = cbv.build_pov(demo_observer())
        pov["observer"]["units"] = "USD"
        (v1_0_package(tmp_path) / "pov.json").write_text(json.dumps(pov))
        report = cbv.validate_directory(tmp_path / "v1_0")
        assert any(f.rule == "D3" for f in report.findings)

    @pytest.mark.parametrize("edit", [
        {"perimeter_ref": "P-OTHER"},
        {"fx_ppp": cbv.FxPppSpec(scale=1.07)},
    ])
    def test_pov_that_overrides_the_manifest_is_d3(self, tmp_path, edit):
        pov = cbv.emit_pov(replace(demo_observer(), **edit))
        (v1_0_package(tmp_path) / "pov.json").write_bytes(pov)
        findings = cbv.validate_directory(tmp_path / "v1_0").findings
        assert [f.rule for f in findings if f.severity == "error"] == ["D3"]

    def test_pov_that_agrees_with_the_manifest_is_clean(self, tmp_path):
        # clean but for the warning that no hash covers the observer
        (v1_0_package(tmp_path) / "pov.json").write_bytes(cbv.emit_pov(demo_observer()))
        findings = cbv.validate_directory(tmp_path / "v1_0").findings
        assert [(f.rule, f.severity) for f in findings] == [("schema", "warning")]
        assert "unlisted pov.json" in findings[0].message

    @pytest.mark.parametrize("label, warned", [
        ("option-A@0.5", True),
        ("option-A@1", True),
        ("option-A@0.5%", False),
        ("IFRS10-control@50", False),
        ("option-A", False),
    ])
    def test_v1_0_label_read_as_a_percent_is_a_schema_warning(self, tmp_path, label, warned):
        package = v1_0_package(tmp_path)
        manifest = Manifest.from_yaml_bytes((package / "manifest.yaml").read_bytes())
        manifest.data["perimeter"]["control_rule"] = label
        (package / "manifest.yaml").write_bytes(manifest.to_yaml_bytes())
        pkg = cbv.load_package(package)
        findings = [f for f in cbv.validate_package(pkg).findings if "as a percent" in f.message]
        assert [(f.rule, f.severity) for f in findings] == [("schema", "warning")] * warned
        # the warning changes nothing that is read or priced
        assert pkg.observer.control_rule == cbv.observer.parse_control_label(label)
        assert cbv.evaluate_for_observer(pkg.cut_statistics(), pkg.observer).w == V1_0_W

    def test_current_package_label_is_not_warned(self, tmp_path):
        observer = replace(demo_observer(), control_rule="option-A@0.5")
        cbv.write_package(tmp_path / "pkg", example_stats(with_v_p=False), observer)
        assert cbv.validate_directory(tmp_path / "pkg").ok

    def test_current_package_has_no_d3(self, package_dir):
        # a 1.1 manifest repeats no observer; an observer block added to it is
        # an unknown field, and the listed pov.json alone defines the observer
        manifest = Manifest.from_yaml_bytes((package_dir / "manifest.yaml").read_bytes())
        manifest.data["observer"] = {"currency": "USD"}
        (package_dir / "manifest.yaml").write_bytes(manifest.to_yaml_bytes())
        findings = cbv.validate_directory(package_dir).findings
        assert [(f.rule, f.severity) for f in findings] == [("schema", "note")]
        assert cbv.load_package(package_dir).observer == demo_observer()

    def test_unexpected_clearing_file_is_d5(self, package_dir):
        (package_dir / "clearing.json").write_text("{}")
        manifest = Manifest.from_yaml_bytes(
            (package_dir / "manifest.yaml").read_bytes()
        )
        manifest.data["data_files"]["clearing_spec"] = "clearing.json"
        (package_dir / "manifest.yaml").write_bytes(manifest.to_yaml_bytes())
        rehash(package_dir, "clearing.json")
        report = cbv.validate_directory(package_dir)
        assert any(f.rule == "D5" for f in report.findings)

    def test_unknown_manifest_key_noted(self, package_dir):
        manifest = Manifest.from_yaml_bytes(
            (package_dir / "manifest.yaml").read_bytes()
        )
        manifest.data["x_custom"] = {"anything": 1}
        (package_dir / "manifest.yaml").write_bytes(manifest.to_yaml_bytes())
        report = cbv.validate_directory(package_dir)
        notes = [f for f in report.findings if f.severity == "note"]
        assert any("x_custom" in f.message for f in notes)
        # unknown keys survive a reload round-trip
        pkg = cbv.load_package(package_dir)
        assert pkg.manifest.data["x_custom"] == {"anything": 1}

    def test_corruption_reported_as_hash_finding(self, package_dir):
        target = package_dir / "b_P.csv"
        blob = bytearray(target.read_bytes())
        blob[-2] ^= 0x01
        target.write_bytes(bytes(blob))
        report = cbv.validate_directory(package_dir)
        assert report.has_errors
        assert report.findings[0].rule == "hash"
        assert report.findings[0].location == "b_P.csv"


class TestCutSummary:
    def test_worked_example_totals(self, stats_a):
        result = cbv.evaluate_regime_a(stats_a)
        doc = cbv.CutSummaryDoc.from_json_bytes(
            cbv.build_cut_summary(result, demo_observer(regime="A")).to_json_bytes()
        )
        assert doc.t_out == pytest.approx(9.6, abs=1e-12)
        assert doc.t_in == pytest.approx(15.04, abs=1e-12)
        assert doc.consolidated_value == pytest.approx(84.56, abs=1e-12)
        t_out = sum(e.amount for e in doc.edges_po)
        t_in = sum(e.amount for e in doc.edges_op)
        assert t_out == pytest.approx(doc.t_out, abs=1e-9)
        assert t_in == pytest.approx(doc.t_in, abs=1e-9)
        assert doc.hedge_vector_o == {"X": pytest.approx(0.08), "Y": pytest.approx(0.06)}

    def test_schema_fixture_bytes_roundtrip(self):
        doc = cbv.CutSummaryDoc(
            perimeter="P_name_or_id",
            date="2025-06-30",
            currency="EUR",
            edges_po=[Edge("a", "o1", "equity", 123.45)],
            edges_op=[Edge("o1", "b", "debt", 67.89)],
            v_p={"a": 100.0, "b": 50.0},
            v_o={"o1": 0.0},
            t_out=123.45,
            t_in=67.89,
            consolidated_value=55.56,
            hedge_vector_o={"o1": -67.89},
            missing_data=[{"field": "edges_PO[1].amount",
                           "imputation": "median_industry"}],
        )
        blob = doc.to_json_bytes()
        payload = json.loads(blob)
        assert payload["totals"] == {"T_out": 123.45, "T_in": 67.89}
        assert payload["consolidated_value"] == 55.56
        assert list(payload)[:3] == ["perimeter", "date", "currency"]
        again = cbv.CutSummaryDoc.from_json_bytes(blob)
        assert again.to_json_bytes() == blob

    @pytest.mark.parametrize("blob", [
        b"{}",
        b"[1]",
        b"not json",
        b'{"perimeter": "P", "date": "d", "currency": "EUR", "consolidated_value": 1.0, '
        b'"totals": {"T_out": "x", "T_in": 0.0}}',
    ], ids=["no keys", "not an object", "not JSON", "T_out not a number"])
    def test_what_is_not_a_cut_summary_is_a_package_error(self, blob):
        with pytest.raises(PackageError, match="cut summary"):
            cbv.CutSummaryDoc.from_json_bytes(blob)

    @settings(max_examples=200, deadline=None)
    @given(st.data())
    def test_bytes_are_jsons_indent_2_output(self, data):
        # the per-edge formatting against json.dumps(indent=2) of the payload
        ids = st.text(max_size=6) | st.sampled_from(['"', "\\", "a\rb", "\u00e9\u6f22", "\ud83d\ude00"])
        amounts = st.floats(allow_nan=True, allow_infinity=True) | st.integers(-3, 3)

        def edges():
            return st.lists(st.builds(Edge, ids, ids, st.sampled_from(cbv.report.EDGE_TYPES), amounts),
                            max_size=4)

        values = st.dictionaries(ids, st.floats(allow_nan=True, allow_infinity=True), max_size=3)
        doc = cbv.CutSummaryDoc(
            perimeter=data.draw(ids), date="2025-06-30", currency=data.draw(ids),
            edges_po=data.draw(edges()), edges_op=data.draw(edges()),
            v_p=data.draw(values), v_o=data.draw(values), t_out=data.draw(amounts),
            t_in=1.5, consolidated_value=float("nan"),
            hedge_vector_o=data.draw(st.none() | values),
            missing_data=[{"field": data.draw(ids)}],
            extra=data.draw(st.just({}) | st.fixed_dictionaries({"note": ids})),
        )

        def as_dicts(edges):
            return [{"from": e.from_id, "to": e.to_id, "type": e.type, "amount": e.amount}
                    for e in edges]

        payload = {
            "perimeter": doc.perimeter, "date": doc.date, "currency": doc.currency,
            "edges_PO": as_dicts(doc.edges_po), "edges_OP": as_dicts(doc.edges_op),
            "node_primitives": {"v_P": doc.v_p, "v_O": doc.v_o},
            "totals": {"T_out": doc.t_out, "T_in": doc.t_in},
            "consolidated_value": doc.consolidated_value,
        }
        if doc.hedge_vector_o is not None:
            payload["hedge_vector_O"] = doc.hedge_vector_o
        payload["missing_data"] = doc.missing_data
        payload.update(doc.extra)
        assert doc.to_json_bytes() == (json.dumps(payload, indent=2) + "\n").encode("utf-8")

    @settings(max_examples=300, deadline=None)
    @given(st.recursive(
        st.none() | st.booleans() | st.integers() | st.text(max_size=4)
        | st.floats(allow_nan=True, allow_infinity=True),
        lambda children: st.lists(children, max_size=3) | st.tuples(children)
        | st.dictionaries(st.text(max_size=4) | st.integers(-2, 2), children, max_size=3),
        max_leaves=12))
    def test_every_json_file_is_jsons_indent_2_output(self, payload):
        # pov.json, clearing.json and the cut summary share one writer
        document = {"payload": payload, "edges": [Edge("a", "b", "equity", 1.0)]}
        want = json.dumps({"payload": payload, "edges": [
            {"from": "a", "to": "b", "type": "equity", "amount": 1.0}]}, indent=2)
        assert cbv.report._json_bytes(document) == (want + "\n").encode("utf-8")

    @pytest.mark.parametrize("amount", [np.float64(1.25), True, None, [1.0]])
    def test_edge_field_that_is_not_a_plain_scalar(self, amount):
        # such an edge list leaves the per-edge format for the generic writer
        edges = [Edge("a", "b", "equity", 2.5), Edge("a", "c", "debt", amount)]
        want = json.dumps({"edges": [
            {"from": "a", "to": "b", "type": "equity", "amount": 2.5},
            {"from": "a", "to": "c", "type": "debt", "amount": amount}]}, indent=2)
        assert cbv.report._json_bytes({"edges": edges}) == (want + "\n").encode("utf-8")

    def test_amount_form_summary_types(self):
        stats = cbv.CutStatistics.from_amounts(
            ("p",), ("o",), b_p=[0.0], x_po=[[123.45]], x_op=[[67.89]],
            clearing_tag="seniority",
        )
        result = cbv.evaluate_regime_a(stats)
        assert result.w == pytest.approx(55.56, abs=1e-9)
        doc = cbv.CutSummaryDoc.from_json_bytes(
            cbv.build_cut_summary(result, demo_observer(regime="A")).to_json_bytes()
        )
        assert doc.edges_po[0].type == "debt"
        assert doc.consolidated_value == pytest.approx(55.56, abs=1e-9)

    def test_empty_cut(self):
        stats = cbv.CutStatistics(p_ids=("a", "b"), o_ids=(), b_p=[3.0, 4.0])
        result = cbv.evaluate_regime_a(stats)
        doc = cbv.CutSummaryDoc.from_json_bytes(
            cbv.build_cut_summary(result, demo_observer(regime="A")).to_json_bytes()
        )
        assert doc.t_out == 0.0
        assert doc.t_in == 0.0
        assert doc.consolidated_value == 7.0
        assert doc.edges_po == [] and doc.edges_op == []

    def test_extra_fields_preserved(self):
        blob = cbv.CutSummaryDoc(
            perimeter="P", date="2025-01-01", currency="EUR",
            edges_po=[], edges_op=[], v_p={}, v_o={},
            t_out=0.0, t_in=0.0, consolidated_value=0.0,
            extra={"x_vendor": "custom"},
        ).to_json_bytes()
        doc = cbv.CutSummaryDoc.from_json_bytes(blob)
        assert doc.extra == {"x_vendor": "custom"}
        assert doc.to_json_bytes() == blob


class TestPov:
    def test_minimal_observer_gets_template_defaults(self):
        blob = cbv.emit_pov(demo_observer())
        payload = json.loads(blob)
        assert payload["tolerances"] == {
            "rounding_threshold": 1e-8, "solver_eps": 1e-10, "max_iters": 10000,
        }
        assert payload["observer"]["information_regime"] == "B"

    def test_missing_control_rule_is_emission_error(self):
        observer = cbv.Observer(perimeter_ref="P", regime="A", date="2025-01-01")
        with pytest.raises(EmissionError) as err:
            cbv.emit_pov(observer)
        assert "control_rule" in err.value.fields

    def test_option_c_params_serialized(self):
        observer = cbv.Observer(
            perimeter_ref="P-PYR", basis="fair_value", units="EUR",
            date="2025-06-30", regime="B",
            control_rule=cbv.ControlRuleSpec(option="C", alpha=0.6),
        )
        payload = json.loads(cbv.emit_pov(observer))
        rule = payload["observer"]["control_rule"]
        assert rule["option"] == "C"
        assert rule["params"]["alpha"] == 0.6

    def test_roundtrip(self):
        observer = demo_observer(
            fx_ppp=cbv.FxPppSpec(scale=1.1, fx_source="ECB"),
            sdf=cbv.SdfSpec(measure="physical",
                            discount_weights={"base": 0.95},
                            change_of_measure={"base": 1.02}),
        )
        rebuilt, raw = cbv.parse_pov(cbv.emit_pov(observer))
        assert rebuilt == observer
        assert raw["observer"]["units"] == "EUR"

    @pytest.mark.parametrize("rule, expected", [
        (None, None),  # undeclared, which emit_pov refuses in turn
        ("IFRS10-control@50", cbv.ControlRuleSpec(tau=0.5, label="IFRS10-control@50")),
        ("x@250", cbv.ControlRuleSpec(tau=0.5, label="x@250")),  # past 100%: tau 0.5
    ])
    def test_control_rule_as_a_label_or_absent(self, rule, expected):
        # what a v1.0 manifest held: a label, or no rule
        pov = cbv.build_pov(demo_observer())
        pov["observer"]["control_rule"] = rule
        observer, _ = cbv.parse_pov(json.dumps(pov).encode("utf-8"))
        assert observer.control_rule == expected

    def test_deterministic_bytes(self):
        assert cbv.emit_pov(demo_observer()) == cbv.emit_pov(demo_observer())

    @pytest.mark.parametrize("spec", [
        lambda x: cbv.FxPppSpec(scale=x),
        lambda x: cbv.SdfSpec(discount_weights={"s": x}),
        lambda x: cbv.SdfSpec(change_of_measure={"s": x}),
    ], ids=["fx_ppp scale", "discount_weights", "change_of_measure"])
    @pytest.mark.parametrize("value", [float("inf"), float("nan"), -float("inf")])
    def test_non_finite_pricing_scale_is_refused(self, spec, value):
        # each would reach pricing_scale and price W = nan
        with pytest.raises(DomainError, match="must be finite"):
            spec(value)

    def test_sdf_pov_is_written_byte_for_byte(self):
        # the golden package states no SDF block; this file pins one, with
        # weights, a change of measure, a horizon and a curve source
        blob = SDF_POV.read_bytes()
        assert cbv.emit_pov(SDF_OBSERVER) == blob
        assert cbv.parse_pov(blob)[0] == SDF_OBSERVER

    @pytest.mark.parametrize("ref, rule", [("", cbv.ControlRuleSpec()), ("P", None), ("", None)])
    def test_required_fields_are_those_the_reference_names(self, ref, rule):
        observer = cbv.Observer(perimeter_ref=ref, control_rule=rule)
        with pytest.raises(EmissionError) as want:
            reference_build_pov(observer)
        with pytest.raises(EmissionError) as got:
            cbv.build_pov(observer)
        assert (str(got.value), got.value.fields) == (str(want.value), want.value.fields)


class TestDisclosureSheet:
    def test_renault_sheet(self, tmp_path):
        observer = cbv.Observer(
            perimeter_ref="P-REN-2025Q3", basis="fair_value", units="EUR",
            date="2025-08-20", regime="A",
            control_rule=cbv.ControlRuleSpec(label="IFRS10-control@50"),
        )
        cbv.write_package(tmp_path / "rno", renault_stats(), observer,
                          o_ref="O-NSN-2025Q3")
        pkg = cbv.load_package(tmp_path / "rno")
        result = cbv.evaluate_for_observer(pkg.cut_statistics(), pkg.observer)
        sheet = cbv.render_disclosure_sheet(pkg, result)
        assert "7,701,000,000" in sheet
        assert "Not applied (pre-clearing flows)" in sheet
        assert sheet.startswith("Cut-Report (v1.2) - Disclosure sheet")
        assert "Perimeter             | P-REN-2025Q3 (RENAULT)" in sheet
        assert sheet.index("Perimeter") < sheet.index("Complement") \
            < sheet.index("Control rule") < sheet.index("Regime") \
            < sheet.index("Observer") < sheet.index("Border statistics") \
            < sheet.index("Clearing") < sheet.index("Output") \
            < sheet.index("Sources & versions")

    def test_fisher_row_populated(self, package_dir):
        pkg = cbv.load_package(package_dir)
        result = cbv.evaluate_for_observer(pkg.cut_statistics(), pkg.observer)
        indices = cbv.fisher_combine(cbv.FisherIndices(1.1, 1.0, 1.1, 1.0))
        sheet = cbv.render_disclosure_sheet(pkg, result, fisher=indices)
        assert "G_F" in sheet

    def test_post_clearing_row(self, package_dir):
        manifest = Manifest.from_yaml_bytes((package_dir / "manifest.yaml").read_bytes())
        manifest.data["clearing"] = {"used": True, "engine": "seniority", "params": {}}
        (package_dir / "manifest.yaml").write_bytes(manifest.to_yaml_bytes())
        sheet = cbv.render_disclosure_sheet(cbv.load_package(package_dir))
        assert "\nClearing              | Applied: seniority (post-clearing flows)\n" in sheet

    def test_manifest_yaml_structure(self, package_dir):
        data = yaml.safe_load((package_dir / "manifest.yaml").read_text())
        assert data["version"] == MANIFEST_VERSION
        # the observer lives in the listed pov.json alone
        assert list(data) == ["version", "perimeter", "clearing", "data_files", "hashes",
                              "notes"]
        assert data["perimeter"] == {"O_ref": "complement-of-P-DEMO"}
        assert data["data_files"] == {
            "nodes_P": "nodes_P.csv", "nodes_O": "nodes_O.csv", "b_P": "b_P.csv",
            "v_O": "v_O.csv", "O_PO": "O_PO.csv", "O_OP": "O_OP.csv", "O_PP": "O_PP.csv",
            "stability": STABILITY_NAME, "pov": "pov.json"}
        assert set(data["hashes"]) == set(data["data_files"])
        assert all(str(h).startswith("sha256:") for h in data["hashes"].values())
        assert sorted(p.name for p in package_dir.iterdir()) == sorted(
            ["manifest.yaml", *data["data_files"].values()])


class TestCsvFiles:
    @settings(max_examples=200, deadline=None)
    @given(matrix=matrices(), header=node_ids)
    def test_writer_is_byte_identical_to_the_cell_loop(self, scratch, matrix, header):
        row_ids, col_ids, values = matrix
        write_matrix_csv(scratch / "new.csv", row_ids, col_ids, values, header)
        reference_write_matrix_csv(scratch / "old.csv", row_ids, col_ids, values, header)
        assert (scratch / "new.csv").read_bytes() == (scratch / "old.csv").read_bytes()

    @settings(max_examples=200, deadline=None)
    @given(matrix=matrices(st.lists(node_ids, max_size=5, unique=True)))
    def test_read_of_write_is_bit_exact(self, scratch, matrix):
        row_ids, col_ids, values = matrix
        path = scratch / "m.csv"
        write_matrix_csv(path, row_ids, col_ids, values, "id")
        got_rows, got_cols, got = read_matrix_csv(path)
        assert (got_rows, got_cols) == (row_ids, col_ids)
        assert same_bits(got, values)
        assert same_bits(got, reference_read_matrix_csv(path)[2])

    def test_vector_round_trip(self, scratch):
        values = [0.1, -0.0, 5e-324, float("nan")]
        write_matrix_csv(scratch / "v.csv", ["a,b", 'q"x', "c", ""], ["v"],
                         np.reshape(values, (-1, 1)), "id")
        ids, columns, got = read_matrix_csv(scratch / "v.csv")
        assert (ids, columns) == (["a,b", 'q"x', "c", ""], ["v"])
        assert same_bits(got, np.reshape(values, (-1, 1)))

    def test_blank_id_of_a_zero_column_row_reads_back(self, scratch):
        write_matrix_csv(scratch / "z.csv", [" "], [], np.zeros((1, 0)), "id")
        assert read_matrix_csv(scratch / "z.csv")[0] == [" "]

    @pytest.mark.parametrize("text", [
        "id,x,y\na,0.1,0.2\nb,0.3\n",   # a short row
        "id,x,y\na,0.1,0.2,0.3\n",      # every row too wide
        "id,x\na,abc\n",                # not a number
    ])
    def test_malformed_matrix_is_package_error(self, scratch, text):
        (scratch / "bad.csv").write_text(text, encoding="utf-8")
        with pytest.raises(PackageError):
            read_matrix_csv(scratch / "bad.csv")

    def test_a_refusal_names_the_first_of_many_repeated_ids(self, scratch):
        rows = "".join(f"r{k},1.0\n" for k in range(10)) * 2
        (scratch / "b_P.csv").write_text("id,b\n" + rows, encoding="utf-8")
        with pytest.raises(PackageError) as err:
            read_matrix_csv(scratch / "b_P.csv")
        assert str(err.value) == "b_P.csv: repeated ids ['r0', 'r1', 'r2', 'r3', 'r4', ...] (10 ids)"

    def test_empty_blocks_round_trip(self, tmp_path):
        for p_ids, o_ids in (((), ("x", "y")), (("a", "b"), ())):
            stats = cbv.CutStatistics(
                p_ids=p_ids, o_ids=o_ids, b_p=np.ones(len(p_ids)), v_o=np.ones(len(o_ids)),
                o_po=np.zeros((len(p_ids), len(o_ids))),
                o_op=np.zeros((len(o_ids), len(p_ids))),
                o_pp=np.zeros((len(p_ids), len(p_ids))),
            )
            target = tmp_path / f"p{len(p_ids)}o{len(o_ids)}"
            cbv.write_package(target, stats, demo_observer())
            pkg = cbv.load_package(target)
            assert (pkg.p_ids, pkg.o_ids) == (p_ids, o_ids)
            assert pkg.o_po.shape == stats.o_po.shape and pkg.o_op.shape == stats.o_op.shape


weights = st.dictionaries(st.sampled_from(["base", "up", "down"]), st.floats(0.01, 2.0),
                          min_size=1)
sources = st.one_of(st.none(), st.sampled_from(["ECB", "OECD", "CPI"]))


@st.composite
def observers(draw):
    """Observers with every part drawn: basis, FX, SDF, tolerances, nodes, rule."""
    rule = cbv.ControlRuleSpec(
        option=draw(st.sampled_from(["A", "B", "B_prime", "C"])),
        tau=draw(st.floats(0.01, 1.0)), alpha=draw(st.floats(0.01, 0.99)),
        normalize=draw(st.booleans()),
        reachability_depth=draw(st.one_of(st.none(), st.integers(1, 5))),
        label=draw(st.one_of(st.none(), st.sampled_from(["IFRS10-control@50", "look-through"]))),
    )
    ref = draw(st.sampled_from(["P-DEMO", "P-X", *P_IDS]))
    return cbv.Observer(
        perimeter_ref=ref,
        basis=draw(st.sampled_from(["fair_value", "historical_cost", "realizable"])),
        units=draw(st.sampled_from(["EUR", "USD", "JPY"])),
        date=draw(st.dates()).isoformat(),
        regime=draw(st.sampled_from(["A", "B"])),
        control_rule=rule,
        tolerances=cbv.Tolerances(
            rounding_threshold=draw(st.floats(0.0, 1e-3)),
            solver_eps=draw(st.floats(1e-14, 1e-6)),
            max_iters=draw(st.integers(1, 100000)),
        ),
        fx_ppp=draw(st.one_of(st.none(), st.builds(
            cbv.FxPppSpec, scale=st.floats(0.01, 100.0), fx_source=sources,
            ppp_source=sources, deflator=sources))),
        sdf=draw(st.one_of(st.none(), st.builds(
            cbv.SdfSpec, measure=st.sampled_from(["risk_neutral", "physical"]),
            discount_weights=st.one_of(st.none(), weights),
            change_of_measure=st.one_of(st.none(), weights),
            curve_source=sources, horizon=st.one_of(st.none(), st.just("1Y"))))),
        # none, the empty tuple, the ref alone, or any other list of ids
        perimeter_nodes=draw(st.one_of(
            st.none(), st.just(()), st.just((ref,)),
            st.lists(st.sampled_from(sorted({ref, *P_IDS})), unique=True).map(tuple))),
    )


# what a PoV key may hold in place of a valid value: null, "", a numeric
# string or a value of the wrong type
NOT_VALID = [None, "", "0.5", "1e-9", "3", [1], {"k": 1}, True, 7, -2.5, "text"]


@st.composite
def pov_documents(draw):
    """The PoV of a drawn observer, each key of each block, nested ones too,
    kept, left out or replaced by one of NOT_VALID."""
    def edit(block: dict) -> dict:
        out = {}
        for key, value in block.items():
            choice = draw(st.sampled_from(["keep"] * 6 + ["drop", "replace"]))
            if choice == "replace":
                out[key] = draw(st.sampled_from(NOT_VALID))
            elif choice == "keep":
                out[key] = edit(value) if isinstance(value, dict) else value
        return out

    return edit(reference_build_pov(draw(observers())))


def reference_parse(blob: bytes):
    """The reference reader's observer, or PackageError where parse_pov raises one."""
    try:
        return reference_observer_from_pov(json.loads(blob))
    except (DomainError, TypeError, ValueError, AttributeError):
        return PackageError


def library_parse(blob: bytes):
    try:
        return cbv.parse_pov(blob)[0]
    except PackageError:
        return PackageError


optional_text = st.one_of(st.none(), st.sampled_from(["", "ECB", "OECD", "curve-A"]))


@st.composite
def v1_0_manifest_observers(draw):
    """The observer fields of a v1.0 manifest: its observer block, P_ref,
    control-rule label and regime, each present or not."""
    block = draw(st.fixed_dictionaries({}, optional={
        "currency": st.sampled_from([None, "", "EUR", "USD"]),
        "fx": st.fixed_dictionaries({}, optional={
            "provider": optional_text, "date": st.sampled_from([None, "2024-12-31"]),
            "scale": st.sampled_from([None, 0, 1.0, 1.07]), "method": st.just("close")}),
        "ppp": st.fixed_dictionaries({}, optional={
            "used": st.booleans(), "source": optional_text, "deflator": optional_text}),
        "sdf": st.fixed_dictionaries({}, optional={
            "used": st.booleans(), "measure": st.sampled_from([None, "", "physical"]),
            "spec": optional_text}),
    }))
    perimeter = draw(st.fixed_dictionaries({"O_ref": st.just("complement")}, optional={
        "P_ref": st.sampled_from([None, "", "P-DEMO"]),
        "control_rule": st.sampled_from([None, "IFRS10-control@50", "option-C@0.6"]),
    }))
    fields = {"observer": block, "perimeter": perimeter}
    if draw(st.booleans()):
        fields["regime"] = draw(st.sampled_from(["A", "B"]))
    return fields


@st.composite
def packages(draw):
    ids = draw(st.lists(node_ids, max_size=7, unique=True))
    split = draw(st.integers(0, len(ids)))
    p_ids, o_ids = tuple(ids[:split]), tuple(ids[split:])
    n_p, n_o = len(p_ids), len(o_ids)

    def block(*shape, of=cells):
        size = int(np.prod(shape))
        return np.array(draw(st.lists(of, min_size=size, max_size=size)),
                        dtype=float).reshape(shape)

    return cbv.CutStatistics(
        p_ids=p_ids, o_ids=o_ids, b_p=block(n_p, of=finite_cells), v_o=block(n_o),
        v_p=block(n_p) if draw(st.booleans()) else None,
        o_po=block(n_p, n_o), o_op=block(n_o, n_p), o_pp=block(n_p, n_p),
    )


class TestPackageFiles:
    @settings(max_examples=60, deadline=None)
    @given(stats=packages())
    def test_load_of_write_is_bit_exact(self, scratch, stats):
        target = scratch / "pkg"
        for old in target.glob("*"):
            old.unlink()
        # drawn blocks hold NaN, inf and overflow-sized entries, and so does
        # the arithmetic of the stability evidence that write_package computes
        with np.errstate(all="ignore"):
            cbv.write_package(target, stats, demo_observer())
        pkg = cbv.load_package(target)
        p_order = sorted(range(len(stats.p_ids)), key=lambda k: stats.p_ids[k])
        o_order = sorted(range(len(stats.o_ids)), key=lambda k: stats.o_ids[k])
        assert pkg.p_ids == tuple(stats.p_ids[k] for k in p_order)
        assert pkg.o_ids == tuple(stats.o_ids[k] for k in o_order)
        assert same_bits(pkg.b_p, stats.b_p[p_order])
        assert same_bits(pkg.v_o, stats.v_o[o_order])
        assert same_bits(pkg.o_po, stats.o_po[np.ix_(p_order, o_order)])
        assert same_bits(pkg.o_op, stats.o_op[np.ix_(o_order, p_order)])
        assert same_bits(pkg.o_pp, stats.o_pp[np.ix_(p_order, p_order)])
        if stats.v_p is None:
            assert pkg.v_p is None
        else:
            assert same_bits(pkg.v_p, stats.v_p[p_order])

    @settings(max_examples=100, deadline=None)
    @given(stats=packages())
    def test_files_are_byte_identical_to_the_row_loops(self, scratch, stats):
        # every node list, vector and edge file of a package, under ids that
        # need quoting, is the file the row-by-row writers give
        target = scratch / "rows"
        for old in target.glob("*"):
            old.unlink()
        with np.errstate(all="ignore"):
            cbv.write_package(target, stats, demo_observer())
        want = scratch / "want.csv"
        for key, ids in (("nodes_P", stats.p_ids), ("nodes_O", stats.o_ids)):
            reference_write_nodes_csv(want, ids)
            assert (target / f"{key}.csv").read_bytes() == want.read_bytes(), key
        for key, name in cbv.report._DATA_FILES:
            rows, cols, _ = cbv.engine._FIELDS[name]
            block = getattr(stats, name)
            if block is None:
                continue
            if cols:
                reference_write_edges(want, getattr(stats, rows), getattr(stats, cols), block)
            else:
                reference_write_vector_csv(want, getattr(stats, rows), block, name[0])
            assert (target / f"{key}.csv").read_bytes() == want.read_bytes(), key

    @settings(max_examples=80, deadline=None)
    @given(data=st.data())
    def test_edge_files_load_the_held_edges_written(self, scratch, data):
        # sparse blocks of -0.0, NaN, +-inf and subnormals with rows and
        # columns all zero, under ids that need quoting; the ids come in
        # canonical order, so the loaded statistics are the written ones
        ids = sorted(data.draw(st.lists(st.one_of(
            st.sampled_from(SPECIAL_IDS + ("crlf\r\nid", "  two", '""', "a,\"b\"\r")),
            node_ids), max_size=8, unique=True), label="ids"))
        split = data.draw(st.integers(0, len(ids)), label="split")
        p_ids, o_ids = tuple(ids[:split]), tuple(ids[split:])
        entry = st.one_of(st.just(0.0), st.just(0.0), st.sampled_from(
            (-0.0, 5e-324, -2.5e-310, float("nan"), float("inf"), float("-inf"), 0.25)))

        def block(label, *shape):
            size = int(np.prod(shape))
            values = np.array(data.draw(st.lists(entry, min_size=size, max_size=size),
                                        label=label), dtype=float).reshape(shape)
            for axis, length in enumerate(shape):  # rows, then columns, all zero
                zero = data.draw(st.sets(st.integers(0, max(length - 1, 0)), max_size=length),
                                 label=f"{label} zero axis {axis}")
                values[(slice(None),) * axis + (sorted(zero),)] = 0.0
            return values

        n_p, n_o = len(p_ids), len(o_ids)
        stats = cbv.CutStatistics(
            p_ids=p_ids, o_ids=o_ids, b_p=np.arange(n_p, dtype=float), v_o=np.ones(n_o),
            v_p=np.full(n_p, 2.0), o_po=block("o_po", n_p, n_o), o_op=block("o_op", n_o, n_p),
            o_pp=block("o_pp", n_p, n_p))
        target = scratch / "edges"
        for old in target.glob("*"):
            old.unlink()
        with np.errstate(all="ignore"):
            cbv.write_package(target, stats, demo_observer("A"))
        pkg = cbv.load_package(target)
        assert (pkg.p_ids, pkg.o_ids) == (p_ids, o_ids)
        for name in ("o_po", "o_op", "o_pp"):
            got, want = pkg.held(name), stats.held(name)
            assert got.shape == want.shape, name
            for part in ("rows", "cols", "vals"):
                assert getattr(got, part).tobytes() == getattr(want, part).tobytes(), (name, part)
            assert same_bits(getattr(pkg, name), getattr(stats, name)), name
        if all(np.isfinite(stats.held(name).vals).all() for name in ("o_po", "o_op", "o_pp")):
            w = cbv.evaluate_for_observer(pkg.cut_statistics(), pkg.observer).w
            assert same_bits(w, cbv.evaluate_for_observer(stats, demo_observer("A")).w)
        else:
            with pytest.raises(PackageError, match="not finite"):
                pkg.cut_statistics()

    @settings(max_examples=60, deadline=None)
    @given(observer=observers())
    def test_observer_round_trip(self, scratch, observer):
        stats = example_stats(with_v_p=False)
        cbv.write_package(scratch / "observed", stats, observer)
        pkg = cbv.load_package(scratch / "observed")
        assert pkg.observer == observer
        w = cbv.evaluate_for_observer(pkg.cut_statistics(), pkg.observer).w
        assert w == cbv.evaluate_for_observer(stats, observer).w

    @settings(max_examples=100, deadline=None)
    @given(observer=observers())
    def test_pov_bytes_are_the_reference_writers(self, observer):
        want = json.dumps(reference_build_pov(observer), indent=2) + "\n"
        assert cbv.emit_pov(observer) == want.encode("utf-8")

    @settings(max_examples=300, deadline=None)
    @given(document=pov_documents())
    @example(document={"observer": {"P_ref": None, "P": ["X"]}})
    @example(document={"observer": {"P_ref": "", "P": ["X"], "fx_ppp": ["scale"]}})
    @example(document={  # each key whose value the reader casts, stated so that the cast counts
        "observer": {"fx_ppp": {"scale": "2"}, "sdf": {"measure": 7}, "control_rule": {
            "option": "C", "params": {"tau": "0.5", "alpha": "0.6", "normalize": "false"}}},
        "tolerances": {"rounding_threshold": "1e-9", "solver_eps": "1e-9"}})
    def test_pov_reads_as_the_reference_reader(self, document):
        blob = json.dumps(document).encode("utf-8")
        assert library_parse(blob) == reference_parse(blob)

    @pytest.mark.parametrize("nodes", [None, (), ("P-DEMO",), ("A", "P-DEMO")])
    def test_perimeter_nodes_survive_the_pov(self, nodes):
        observer = replace(demo_observer(), perimeter_nodes=nodes)
        assert cbv.parse_pov(cbv.emit_pov(observer))[0] == observer

    def test_earlier_pov_perimeter_encoding_loads_at_the_same_w(self, package_dir):
        # writers before the null encoding stated "no nodes named" as [P_ref]
        pov = json.loads((package_dir / "pov.json").read_bytes())
        assert pov["observer"]["P"] is None
        w = cbv.evaluate_for_observer(*self._valued(package_dir)).w
        pov["observer"]["P"] = [pov["observer"]["P_ref"]]
        (package_dir / "pov.json").write_text(json.dumps(pov))
        rehash(package_dir, "pov.json")
        stats, observer = self._valued(package_dir)
        assert observer.perimeter_nodes == (pov["observer"]["P_ref"],)
        assert cbv.evaluate_for_observer(stats, observer).w == w
        assert cbv.validate_directory(package_dir).ok

    @staticmethod
    def _valued(package_dir):
        pkg = cbv.load_package(package_dir)
        return pkg.cut_statistics(), pkg.observer

    def test_perimeter_nodes_that_are_not_a_list_are_a_package_error(self):
        pov = cbv.build_pov(demo_observer())
        pov["observer"]["P"] = "AB"
        with pytest.raises(PackageError, match="P must be a list"):
            cbv.parse_pov(json.dumps(pov).encode())

    @settings(max_examples=60, deadline=None)
    @given(fields=v1_0_manifest_observers())
    def test_v1_0_manifest_observer_reads_as_it_did(self, scratch, fields):
        target = scratch / "v1_0"
        if not target.exists():
            shutil.copytree(V1_0_PACKAGE, target)
        manifest = Manifest.from_yaml_bytes((V1_0_PACKAGE / "manifest.yaml").read_bytes())
        del manifest.data["regime"]
        manifest.data.update(fields)
        (target / "manifest.yaml").write_bytes(manifest.to_yaml_bytes())
        assert cbv.load_package(target).observer == reference_v1_0_observer(manifest.data)

    def test_observer_without_a_control_rule_writes_nothing(self, tmp_path):
        with pytest.raises(EmissionError):
            cbv.write_package(tmp_path / "pkg", example_stats(),
                              cbv.Observer(perimeter_ref="P-DEMO"))
        assert not (tmp_path / "pkg").exists()

    @pytest.mark.parametrize("name", ["pov.json", STABILITY_NAME])
    def test_edited_pov_or_evidence_is_a_hash_finding(self, package_dir, name):
        target = package_dir / name
        target.write_bytes(target.read_bytes().replace(b"0.", b"0.0", 1))
        findings = cbv.validate_directory(package_dir).findings
        assert [(f.rule, f.location) for f in findings] == [("hash", name)]

    @pytest.mark.parametrize("swap_first", [True, False])
    def test_bytes_parsed_are_the_bytes_hashed(self, package_dir, monkeypatch, swap_first):
        # O_PO.csv changes on disk once it has been read, just before or just
        # after its hash is checked: the package holds the bytes first read
        real = cbv.report.sha256_of_file
        swapped = (package_dir / "O_PO.csv").read_bytes().replace(b"0.05", b"0.07")

        def hash_and_swap(path):
            if path.name == "O_PO.csv" and swap_first:
                (package_dir / "O_PO.csv").write_bytes(swapped)
            digest = real(path)
            if path.name == "O_PO.csv":
                (package_dir / "O_PO.csv").write_bytes(swapped)
            return digest

        monkeypatch.setattr(cbv.report, "sha256_of_file", hash_and_swap)
        pkg = cbv.load_package(package_dir)
        np.testing.assert_array_equal(pkg.o_po, example_stats().o_po)

    def test_load_does_not_rely_on_the_numpy_2_text_encoding(self, package_dir, monkeypatch):
        # numpy 1.x np.loadtxt defaults to encoding="bytes" and then hands
        # converters bytes; ids must come out as str under either default
        real = np.loadtxt

        def loadtxt_numpy_1(*args, **kwargs):
            kwargs.setdefault("encoding", "bytes")
            return real(*args, **kwargs)

        monkeypatch.setattr(np, "loadtxt", loadtxt_numpy_1)
        pkg = cbv.load_package(package_dir)
        stats = example_stats(with_v_p=False)
        assert pkg.p_ids == stats.p_ids and pkg.o_ids == stats.o_ids
        np.testing.assert_array_equal(pkg.o_po, stats.o_po)
        assert not cbv.validate_package(pkg).has_errors

    @pytest.mark.parametrize("dense, name, edit", [
        # a 1.1 dense block with a repeated row id, or a repeated column id in its header
        (True, "O_PO.csv", lambda text: text + "A,0.9,0.0\n"),
        (True, "O_PO.csv", lambda text: "\n".join(
            line + (",X" if k == 0 else ",0.9") for k, line in enumerate(text.splitlines())
        ) + "\n"),
        # a 1.2 edge file that gives a pair twice, with another share or the same line
        (False, "O_PO.csv", lambda text: text + "A,X,0.9\n"),
        (False, "O_PO.csv", lambda text: text + text.splitlines()[-1] + "\n"),
        (False, "nodes_P.csv", lambda text: text + "A,entity,\n"),
        (False, "b_P.csv", lambda text: text + "A,5.0\n"),
        (False, "v_O.csv", lambda text: text + "X,1.0\n"),
    ])
    def test_repeated_id_is_package_error(self, package_dir, tmp_path, dense, name, edit):
        if dense:
            package_dir = tmp_path / "v1_1"
            shutil.copytree(GOLDEN_PACKAGE, package_dir)
        target = package_dir / name
        target.write_text(edit(target.read_text(encoding="utf-8")), encoding="utf-8")
        rehash(package_dir, name)
        with pytest.raises(PackageError, match="repeated"):
            cbv.load_package(package_dir)
        report = cbv.validate_directory(package_dir)
        assert report.has_errors and report.findings[0].rule == "schema"

    @pytest.mark.parametrize("name, edit, message", [
        # a vector file holds one value column, so the id sets alone cannot judge it
        ("b_P.csv", lambda text: text.replace("\n", ",1.0\n"), "two-column"),
        ("v_O.csv", lambda text: "".join(line.split(",")[0] + "\n"
                                         for line in text.splitlines()), "two-column"),
        ("b_P.csv", lambda text: text.replace("A,", "Q,"), "id headers do not match"),
    ])
    def test_vector_file_of_another_shape_is_package_error(self, package_dir, name, edit,
                                                           message):
        target = package_dir / name
        target.write_text(edit(target.read_text(encoding="utf-8")), encoding="utf-8")
        rehash(package_dir, name)
        with pytest.raises(PackageError, match=f"{name}: .*{message}"):
            cbv.load_package(package_dir)

    @pytest.mark.parametrize("name, edit", [
        ("nodes_P.csv", lambda text: text + "Z\rZ,entity,\n"),
        ("O_PO.csv", lambda text: text.replace("X", "X\rX", 1)),
    ])
    def test_unquoted_carriage_return_is_package_error(self, package_dir, name, edit):
        # as a package written before carriage returns were quoted
        target = package_dir / name
        target.write_bytes(edit(target.read_text(encoding="utf-8")).encode("utf-8"))
        rehash(package_dir, name)
        with pytest.raises(PackageError, match=name):
            cbv.load_package(package_dir)
        report = cbv.validate_directory(package_dir)
        assert report.has_errors and report.findings[0].rule == "schema"


class TestNonFiniteData:
    @pytest.mark.parametrize("field, index, where", [
        ("o_po", (0, 1), "A->Y"),
        ("b_p", (1,), "B"),
        ("v_o", (0,), "X"),
        ("v_p", (2,), "C"),
        ("o_op", (1, 2), "Y->C"),
        ("o_pp", (1, 0), "B->A"),
    ])
    @pytest.mark.parametrize("value", [float("nan"), float("inf")])
    def test_each_non_finite_entry_is_a_d2_error(self, tmp_path, field, index, where, value):
        # the entry is written as 0.4375 and edited in its file, since
        # CutStatistics refuses a non-finite base
        stats = example_stats()
        arrays = {name: np.array(getattr(stats, name))
                  for name in ("b_p", "v_o", "v_p", "o_po", "o_op", "o_pp")}
        arrays[field][index] = 0.4375
        cbv.write_package(tmp_path / "pkg", cbv.CutStatistics(
            p_ids=stats.p_ids, o_ids=stats.o_ids, **arrays), demo_observer())
        file = tmp_path / "pkg" / f"{dict(map(reversed, cbv.report._DATA_FILES))[field]}.csv"
        file.write_text(file.read_text(encoding="utf-8").replace("0.4375", repr(value)),
                        encoding="utf-8")
        rehash(tmp_path / "pkg", file.name)
        report = cbv.validate_directory(tmp_path / "pkg")
        finite = [f for f in report.findings if "not finite" in f.message]
        assert [(f.rule, f.severity, f.location) for f in finite] == [("D2", "error", where)]
        assert repr(value) in finite[0].message

    def test_findings_print_plain_floats(self, tmp_path):
        stats = example_stats(with_v_p=False)
        o_op = np.array(stats.o_op)
        o_op[:, 0] = 0.7
        cbv.write_package(tmp_path / "pkg", cbv.CutStatistics(
            p_ids=stats.p_ids, o_ids=stats.o_ids, b_p=stats.b_p, v_o=stats.v_o,
            o_po=stats.o_po, o_op=o_op, o_pp=stats.o_pp), demo_observer())
        messages = [f.message for f in cbv.validate_directory(tmp_path / "pkg").findings]
        assert messages == ["ownership of 'A' sums to 1.45 > 1"]  # 0.05 inside, 1.4 outside


@st.composite
def cuts(draw):
    """Statistics in share or amount form with NaN/inf values, and a threshold."""
    n_p, n_o = draw(st.integers(0, 4)), draw(st.integers(0, 4))
    p_ids = tuple(f"p{k}" for k in range(n_p))
    o_ids = tuple(f"o{k}" for k in range(n_o))
    sparse = st.one_of(st.just(0.0), st.just(0.0), st.sampled_from(SPECIAL_VALUES),
                       st.floats(-1e3, 1e3), st.floats(0.0, 1e-7))

    def block(*shape):
        size = int(np.prod(shape))
        return np.array(draw(st.lists(sparse, min_size=size, max_size=size)),
                        dtype=float).reshape(shape)

    tau = draw(st.sampled_from([0.0, 1e-8, 1e-3, 0.5]))
    if draw(st.booleans()):
        stats = cbv.CutStatistics.from_amounts(
            p_ids, o_ids, b_p=np.ones(n_p), x_po=block(n_p, n_o), x_op=block(n_o, n_p),
            clearing_tag=draw(st.sampled_from([None, "seniority"])))
    else:
        stats = cbv.CutStatistics(p_ids=p_ids, o_ids=o_ids, b_p=np.ones(n_p),
                                  v_o=block(n_o), v_p=block(n_p),
                                  o_po=block(n_p, n_o), o_op=block(n_o, n_p))
    return stats, tau


class TestCutEdges:
    @settings(max_examples=200, deadline=None)
    @given(cut=cuts())
    # NaN and inf entries, and products and sums that overflow, price as IEEE says
    @np.errstate(all="ignore")
    def test_summary_edges_match_the_cell_loops(self, cut):
        stats, tau = cut
        observer = demo_observer(regime="A", tolerances=cbv.Tolerances(rounding_threshold=tau))
        result = cbv.evaluate_regime_a(stats, rounding_threshold=tau)
        doc = cbv.build_cut_summary(result, observer)
        if stats.x_po is not None:
            kind = "debt" if stats.clearing_tag else "cashflow"
            want_po = reference_amount_edges(stats.x_po, stats.p_ids, stats.o_ids, tau, kind)
            want_op = reference_amount_edges(stats.x_op, stats.o_ids, stats.p_ids, tau, kind)
        else:
            want_po = reference_share_edges(stats.o_po, stats.v_o, stats.p_ids, stats.o_ids,
                                            tau, "equity")
            want_op = reference_share_edges(stats.o_op, stats.v_p, stats.o_ids, stats.p_ids,
                                            tau, "equity")
        assert same_edges(doc.edges_po, want_po)
        assert same_edges(doc.edges_op, want_op)
        if tau > 0.0:
            # W is priced over the same edges, summed in the same order
            assert same_bits(result.t_out, np.array([e.amount for e in want_po]).sum())
            assert same_bits(result.t_in, np.array([e.amount for e in want_op]).sum())
