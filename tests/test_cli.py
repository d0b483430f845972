import argparse
import json
import re
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

import cbv
from cbv.cli import EXIT_COMPUTE, EXIT_FINDINGS, EXIT_OK, EXIT_USAGE, build_parser, main
from cbv.engine import SOLVER_METHODS
from cbv.report import write_matrix_csv

from conftest import (
    V1_0_W,
    example_stats,
    rehash,
    sparse_ownership,
    two_cycle_chain_stats,
    v1_0_package,
)

DATA = Path(__file__).with_name("data")
# `cbv compute --format json` on the golden 1.2 package: the flags, the pinned
# cut summary, and the payload printed before the output path
GOLDEN_COMPUTE = [
    ([], "cut_summary_v1_2.json",
     {"consolidated_value": 90.47920000000002, "base_total": 96.30000000000001,
      "T_out": 10.272000000000002, "T_in": 16.0928}),
    (["--regime", "B"], "cut_summary_v1_2_regime_B.json",
     {"consolidated_value": 92.57752404040406, "base_total": 96.30000000000001,
      "T_out": 10.272000000000002, "T_in": 13.994475959595961}),
]

# a PoV cut off mid-document, and one whose units fail the observer's check
BAD_POVS = [b'{"observer": ', b'{"observer": {"units": "euro"}}']

# manifest fields of the wrong type, or that fail the observer's checks; a
# v1.0 manifest held the observer, so those fields are set on the v1.0 package
V1_0_OBSERVER_FIELDS = ("observer", "perimeter.control_rule", "regime")
BAD_MANIFESTS = [
    ("observer.fx.scale", "abc"),
    ("observer.fx", [1, 2]),
    ("observer.fx.scale", -1),
    ("observer.currency", "eur"),
    ("observer", [1, 2]),
    ("perimeter.control_rule", 7),
    ("clearing", [1]),
    ("data_files", ["a"]),
    ("hashes", 5),
    ("notes", "a note"),
    ("regime", "C"),
    ("version", "cbv-cut-report@2.0"),
]


@pytest.fixture(autouse=True)
def in_tmp_path(tmp_path, monkeypatch):
    """Run each command from the test's own directory, where `cbv compute`
    without -o writes its cut summary."""
    monkeypatch.chdir(tmp_path)


def package_files(pkg) -> dict:
    return {path.relative_to(pkg): path.read_bytes() for path in pkg.rglob("*")}


def build_package(tmp_path, name="pkg", kappa=None, b_scale=1.0, regime="B",
                  tolerances=None):
    stats = example_stats(with_v_p=(regime == "A"))
    if b_scale != 1.0:
        stats = cbv.CutStatistics(
            p_ids=stats.p_ids, o_ids=stats.o_ids, b_p=stats.b_p * b_scale,
            v_o=stats.v_o, v_p=stats.v_p,
            o_po=stats.o_po, o_op=stats.o_op, o_pp=stats.o_pp,
        )
    observer = cbv.Observer(
        perimeter_ref="P-DEMO", basis="fair_value", units="EUR",
        date="2025-06-30", regime=regime,
        control_rule=cbv.ControlRuleSpec(option="A", tau=0.5),
        fx_ppp=cbv.FxPppSpec(scale=kappa) if kappa else None,
        tolerances=tolerances or cbv.Tolerances(),
    )
    target = tmp_path / name
    cbv.write_package(target, stats, observer)
    return target


def write_nan_cell(pkg, name):
    """Put NaN in the value cell of the first data line of a package file (a
    vector's value, an edge file's share) and re-hash it."""
    target = pkg / name
    lines = target.read_text(encoding="utf-8").splitlines()
    lines[1] = ",".join([*lines[1].split(",")[:-1], "nan"])
    target.write_text("\n".join(lines) + "\n", encoding="utf-8")
    rehash(pkg, name)


class TestValidateCommand:
    def test_clean_package(self, tmp_path, capsys):
        pkg = build_package(tmp_path)
        assert main(["validate", str(pkg)]) == EXIT_OK
        assert "no findings" in capsys.readouterr().out

    def test_corrupted_package_prints_hash_finding(self, tmp_path, capsys):
        pkg = build_package(tmp_path)
        target = pkg / "v_O.csv"
        blob = bytearray(target.read_bytes())
        blob[-2] ^= 0x01
        target.write_bytes(bytes(blob))
        assert main(["validate", str(pkg)]) == EXIT_FINDINGS
        out = capsys.readouterr().out
        assert "hash" in out and "v_O.csv" in out

    @pytest.mark.parametrize("name", ["O_PO.csv", "b_P.csv"])
    def test_non_finite_entry_is_a_finding(self, tmp_path, capsys, name):
        pkg = build_package(tmp_path)
        write_nan_cell(pkg, name)
        assert main(["validate", str(pkg)]) == EXIT_FINDINGS
        assert "D2" in capsys.readouterr().out

    @pytest.mark.parametrize("pov", BAD_POVS)
    def test_malformed_pov_is_a_schema_finding(self, tmp_path, capsys, pov):
        pkg = build_package(tmp_path)
        (pkg / "pov.json").write_bytes(pov)
        rehash(pkg, "pov.json")
        assert main(["validate", str(pkg)]) == EXIT_FINDINGS
        out = capsys.readouterr().out
        assert "schema" in out and "PoV" in out and "Traceback" not in out

    @pytest.mark.parametrize("blob", [b'{"nodes": ', b"[1, 2]", b"\xff"])
    def test_malformed_clearing_json_is_a_schema_finding(self, tmp_path, capsys, blob):
        pkg = build_package(tmp_path)
        (pkg / "clearing.json").write_bytes(blob)
        manifest = cbv.Manifest.from_yaml_bytes((pkg / "manifest.yaml").read_bytes())
        manifest.data["data_files"]["clearing_spec"] = "clearing.json"
        (pkg / "manifest.yaml").write_bytes(manifest.to_yaml_bytes())
        rehash(pkg, "clearing.json")
        assert main(["validate", str(pkg)]) == EXIT_FINDINGS
        assert capsys.readouterr().out.startswith("ERROR schema: clearing.json")
        assert main(["compute", "--package", str(pkg)]) == EXIT_COMPUTE
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("error [PackageError]: clearing.json")

    def test_edited_pov_is_a_hash_finding(self, tmp_path, capsys):
        # a listed pov.json whose discount weight is changed from 0.95 to 0.5:
        # the package no longer prices at the W it was written for
        stats = example_stats(with_v_p=False)
        observer = cbv.Observer(perimeter_ref="P-DEMO", regime="B",
                                control_rule=cbv.ControlRuleSpec(),
                                sdf=cbv.SdfSpec(discount_weights={"s": 0.95}))
        pkg = tmp_path / "pkg"
        cbv.write_package(pkg, stats, observer)
        assert main(["compute", "--package", str(pkg), "--format", "json"]) == EXIT_OK
        w = json.loads(capsys.readouterr().out)["consolidated_value"]
        assert w == cbv.evaluate_for_observer(stats, observer).w
        assert round(w, 3) == 82.195
        pov = pkg / "pov.json"
        pov.write_bytes(pov.read_bytes().replace(b'"s": 0.95', b'"s": 0.5'))
        assert main(["validate", str(pkg)]) == EXIT_FINDINGS
        assert capsys.readouterr().out.startswith("ERROR hash: hash mismatch for pov.json")
        assert main(["compute", "--package", str(pkg)]) == EXIT_COMPUTE
        assert capsys.readouterr().err.startswith("error [IntegrityError]: hash mismatch")

    def test_v1_0_package_adds_two_warnings(self, tmp_path, capsys):
        # the v1.0 writer's package had no findings; read today it carries two
        # warnings, that no hash covers its observer and that its label's
        # number reads as a percent, and prices as it did
        pkg = v1_0_package(tmp_path)
        assert main(["validate", str(pkg), "--format", "json"]) == EXIT_OK
        findings = json.loads(capsys.readouterr().out)
        assert [(f["rule"], f["severity"]) for f in findings] == [("schema", "warning")] * 2
        assert "no hash covers" in findings[0]["message"]
        assert "'option-A@0.5' reads its number as a percent" in findings[1]["message"]
        assert main(["compute", "--package", str(pkg), "--format", "json"]) == EXIT_OK
        assert json.loads(capsys.readouterr().out)["consolidated_value"] == V1_0_W

    def test_json_format(self, tmp_path, capsys):
        pkg = build_package(tmp_path)
        assert main(["validate", str(pkg), "--format", "json"]) == EXIT_OK
        assert json.loads(capsys.readouterr().out) == []

    def test_block_the_gate_refuses_is_a_d4_finding(self, tmp_path, capsys):
        # rho(O_PP) = 1: validate runs the gate that compute runs
        observer = cbv.Observer(perimeter_ref="P-CYCLE", regime="B",
                                control_rule=cbv.ControlRuleSpec())
        cbv.write_package(tmp_path / "cycle", two_cycle_chain_stats(), observer)
        assert main(["validate", str(tmp_path / "cycle")]) == EXIT_FINDINGS
        out = capsys.readouterr().out
        assert out.startswith("ERROR D4: O_PP fails the stability gate: no certified bound")
        assert main(["compute", "--package", str(tmp_path / "cycle")]) == EXIT_COMPUTE


class TestMalformedManifest:
    @pytest.mark.parametrize("field,value", BAD_MANIFESTS,
                             ids=[f"{field}={value}" for field, value in BAD_MANIFESTS])
    def test_schema_finding_and_compute_error(self, tmp_path, capsys, field, value):
        pkg = (v1_0_package(tmp_path) if field.startswith(V1_0_OBSERVER_FIELDS)
               else build_package(tmp_path))
        manifest = cbv.Manifest.from_yaml_bytes((pkg / "manifest.yaml").read_bytes())
        *parents, key = field.split(".")
        block = manifest.data
        for name in parents:
            block = block[name]
        block[key] = value
        (pkg / "manifest.yaml").write_bytes(manifest.to_yaml_bytes())
        assert main(["validate", str(pkg)]) == EXIT_FINDINGS
        assert capsys.readouterr().out.startswith("ERROR schema: manifest")
        assert main(["compute", "--package", str(pkg)]) == EXIT_COMPUTE
        assert main(["report", "--package", str(pkg)]) == EXIT_COMPUTE
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 2
        assert all(line.startswith("error [PackageError]: manifest") for line in err)

    def test_manifest_that_is_not_yaml(self, tmp_path, capsys):
        pkg = build_package(tmp_path)
        (pkg / "manifest.yaml").write_text("version: [\n", encoding="utf-8")
        assert main(["validate", str(pkg)]) == EXIT_FINDINGS
        assert capsys.readouterr().out.startswith("ERROR schema: manifest is not YAML")
        assert main(["compute", "--package", str(pkg)]) == EXIT_COMPUTE


class TestComputeCommand:
    @pytest.mark.parametrize("name,cell", [
        ("b_P.csv", "b_P entry is not finite: nan at A"),
        ("v_O.csv", "v_O entry is not finite: nan at X"),
        ("O_PO.csv", "O_PO entry is not finite: nan at A->X"),
        ("O_OP.csv", "O_OP entry is not finite: nan at X->A"),
    ])
    def test_non_finite_cell_is_compute_error(self, tmp_path, capsys, name, cell):
        # the cell D2 reports is refused, not priced into W = nan
        good = build_package(tmp_path, "good")
        pkg = build_package(tmp_path, "bad")
        write_nan_cell(pkg, name)
        for argv in (["compute", "--package", str(pkg)], ["report", "--package", str(pkg)],
                     ["fisher", "--prev", str(good), "--curr", str(pkg)]):
            assert main(argv) == EXIT_COMPUTE
            assert f"error [PackageError]: {name}: {cell}" in capsys.readouterr().err
        assert not Path("cut_summary.json").exists()
        assert main(["report", "--package", str(pkg), "--no-compute"]) == EXIT_OK

    def test_writes_cut_summary_with_library_numbers(self, tmp_path, capsys):
        pkg = build_package(tmp_path)
        summary = tmp_path / "summary.json"
        assert main(["compute", "--package", str(pkg), "--format", "json",
                     "-o", str(summary)]) == EXIT_OK
        payload = json.loads(capsys.readouterr().out)
        expected = cbv.evaluate_regime_b(example_stats(with_v_p=False)).w
        assert payload["consolidated_value"] == expected
        doc = cbv.CutSummaryDoc.from_json_bytes(summary.read_bytes())
        assert doc.consolidated_value == expected

    @pytest.mark.parametrize("flags,golden,payload", GOLDEN_COMPUTE)
    def test_golden_package_summary_and_payload_are_pinned(self, tmp_path, capsys, flags,
                                                           golden, payload):
        # the FX-scaled regime-A summary, and the regime-B one, byte for byte
        summary = tmp_path / "summary.json"
        assert main(["compute", "--package", str(DATA / "package_v1_2"), "--format", "json",
                     "-o", str(summary), *flags]) == EXIT_OK
        assert summary.read_bytes() == (DATA / golden).read_bytes()
        printed = json.dumps({**payload, "output": str(summary)}, indent=2) + "\n"
        assert capsys.readouterr().out == printed

    def test_idempotent_output_bytes(self, tmp_path):
        pkg = build_package(tmp_path)
        summary = tmp_path / "summary.json"
        assert main(["compute", "--package", str(pkg), "-o", str(summary)]) == EXIT_OK
        first = summary.read_bytes()
        assert main(["compute", "--package", str(pkg), "-o", str(summary)]) == EXIT_OK
        assert summary.read_bytes() == first

    def test_default_output_leaves_the_package_as_audited(self, tmp_path, capsys):
        # without -o the cut summary goes to the working directory: the
        # package keeps the files, and the bytes, its manifest hashed
        pkg = build_package(tmp_path)
        before = package_files(pkg)
        assert main(["compute", "--package", str(pkg), "--format", "json"]) == EXIT_OK
        payload = json.loads(capsys.readouterr().out)
        assert package_files(pkg) == before
        assert payload["output"] == "cut_summary.json"
        doc = cbv.CutSummaryDoc.from_json_bytes((tmp_path / "cut_summary.json").read_bytes())
        assert doc.consolidated_value == payload["consolidated_value"]

    def test_pov_override(self, tmp_path, capsys):
        pkg = build_package(tmp_path)
        observer = cbv.Observer(
            perimeter_ref="P-DEMO", basis="fair_value", units="EUR",
            date="2025-06-30", regime="B",
            control_rule=cbv.ControlRuleSpec(),
            fx_ppp=cbv.FxPppSpec(scale=2.0),
        )
        pov_path = tmp_path / "pov.json"
        pov_path.write_bytes(cbv.emit_pov(observer))
        assert main(["compute", "--package", str(pkg), "--pov", str(pov_path),
                     "--format", "json"]) == EXIT_OK
        payload = json.loads(capsys.readouterr().out)
        base = cbv.evaluate_regime_b(example_stats(with_v_p=False)).w
        assert payload["consolidated_value"] == pytest.approx(2.0 * base, rel=1e-12)

    def test_fx_scaled_cut_summary_and_band_are_priced(self, tmp_path, capsys):
        pkg = build_package(tmp_path, kappa=1.07)
        summary = tmp_path / "summary.json"
        assert main(["compute", "--package", str(pkg), "--format", "json",
                     "--band-noise", "0.01", "--band-draws", "20",
                     "--band-seed", "7", "-o", str(summary)]) == EXIT_OK
        payload = json.loads(capsys.readouterr().out)
        doc = cbv.CutSummaryDoc.from_json_bytes(summary.read_bytes())
        edges_out = sum(e.amount for e in doc.edges_po)
        edges_in = sum(e.amount for e in doc.edges_op)
        assert edges_out == pytest.approx(payload["T_out"], rel=1e-9)
        assert edges_in == pytest.approx(payload["T_in"], rel=1e-9)
        assert doc.v_o["X"] == pytest.approx(1.07 * 60.0, rel=1e-12)
        w, band = payload["consolidated_value"], payload["band"]
        assert band["low"] <= w * (1 + 1e-9) and w * (1 - 1e-9) <= band["high"]
        assert band["high"] - band["low"] < 0.05 * w

    def test_declared_tolerances_are_used(self, tmp_path, capsys):
        pkg = build_package(tmp_path)
        observer = cbv.load_package(pkg).observer
        pov_path = tmp_path / "pov.json"
        pov_path.write_bytes(cbv.emit_pov(cbv.Observer(
            perimeter_ref=observer.perimeter_ref, units=observer.units,
            date=observer.date, regime="B", control_rule=observer.control_rule,
            tolerances=cbv.Tolerances(max_iters=2),
        )))
        argv = ["compute", "--package", str(pkg), "--pov", str(pov_path),
                "--method", "neumann"]
        assert main(argv) == EXIT_COMPUTE
        assert "ConvergenceError" in capsys.readouterr().err
        # a flag given on the command line still wins over the declaration
        assert main(argv + ["--max-iters", "10000"]) == EXIT_OK

    def test_package_pov_and_pov_flag_build_one_observer(self, tmp_path, capsys):
        # the package's pov.json declares every part of the observer: the
        # package and --pov read it alike, so they run the same valuation
        stats = example_stats(with_v_p=False)
        observer = cbv.Observer(
            perimeter_ref="P-DEMO", basis="historical_cost", units="EUR",
            date="2025-06-30", regime="B",
            control_rule=cbv.ControlRuleSpec(option="A", tau=0.5, label="IFRS10-control@50"),
            tolerances=cbv.Tolerances(rounding_threshold=1e-6, solver_eps=1e-12,
                                      max_iters=500),
            fx_ppp=cbv.FxPppSpec(scale=1.07, fx_source="ECB"),
            sdf=cbv.SdfSpec(discount_weights={"base": 0.95}),
            perimeter_nodes=stats.p_ids,
        )
        pkg = tmp_path / "pkg"
        cbv.write_package(pkg, stats, observer)
        parsed, _ = cbv.parse_pov((pkg / "pov.json").read_bytes())
        assert cbv.load_package(pkg).observer == parsed == observer

        expected = cbv.evaluate_for_observer(stats, observer).w
        runs = []
        summary = tmp_path / "summary.json"
        for extra in ([], ["--pov", str(pkg / "pov.json")]):
            argv = ["compute", "--package", str(pkg), "--format", "json", "-o", str(summary),
                    *extra]
            assert main(argv) == EXIT_OK
            payload = json.loads(capsys.readouterr().out)
            runs.append((payload["consolidated_value"], summary.read_bytes()))
        assert runs[0] == runs[1]
        assert runs[0][0] == expected

    def test_singular_internal_block_is_compute_error(self, tmp_path, capsys):
        observer = cbv.Observer(perimeter_ref="P-CYCLE", regime="B",
                                control_rule=cbv.ControlRuleSpec())
        cbv.write_package(tmp_path / "cycle", two_cycle_chain_stats(), observer)
        assert main(["compute", "--package", str(tmp_path / "cycle")]) == EXIT_COMPUTE
        assert "StabilityError" in capsys.readouterr().err

    @pytest.mark.parametrize("method", SOLVER_METHODS)
    def test_uncertified_block_is_compute_error(self, tmp_path, capsys, method):
        # rho(O_PP) = 1.001: I - O_PP is invertible, but v_P = (I - O_PP)^-1 b_P
        # is no valuation; the gate refuses it before the solve, whatever the
        # method
        observer = cbv.Observer(perimeter_ref="P-CYCLE", regime="B",
                                control_rule=cbv.ControlRuleSpec())
        cbv.write_package(tmp_path / "cycle", two_cycle_chain_stats(cycle=1.001), observer)
        code = main(["compute", "--package", str(tmp_path / "cycle"), "--method", method])
        assert code == EXIT_COMPUTE
        err = capsys.readouterr().err
        assert "StabilityError" in err and "no certified bound" in err
        assert not Path("cut_summary.json").exists()

    @pytest.mark.parametrize("pov", BAD_POVS)
    def test_malformed_pov_is_compute_error(self, tmp_path, capsys, pov):
        pkg = build_package(tmp_path)
        (tmp_path / "bad_pov.json").write_bytes(pov)
        assert main(["compute", "--package", str(pkg),
                     "--pov", str(tmp_path / "bad_pov.json")]) == EXIT_COMPUTE
        (pkg / "pov.json").write_bytes(pov)
        rehash(pkg, "pov.json")
        assert main(["compute", "--package", str(pkg)]) == EXIT_COMPUTE
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 2
        assert all(line.startswith("error [PackageError]: PoV") for line in err)

    def test_missing_package_is_compute_error(self, tmp_path, capsys):
        assert main(["compute", "--package", str(tmp_path / "ghost")]) == EXIT_COMPUTE

    def test_directory_given_as_pov_is_compute_error(self, tmp_path, capsys):
        pkg = build_package(tmp_path)
        assert main(["compute", "--package", str(pkg), "--pov", str(tmp_path)]) == EXIT_COMPUTE
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("error [IsADirectoryError]")

    @pytest.mark.parametrize("eps", ["inf", "nan"])
    def test_non_finite_eps_is_compute_error(self, tmp_path, capsys, eps):
        # with eps = inf the Neumann loop stopped after one sweep, off by 0.14
        pkg = build_package(tmp_path)
        assert main(["compute", "--package", str(pkg), "--eps", eps,
                     "--method", "neumann"]) == EXIT_COMPUTE
        err = capsys.readouterr().err.splitlines()
        assert err == [f"error [DomainError]: eps must be finite and > 0, got {float(eps)!r}"]
        assert not Path("cut_summary.json").exists()

    @pytest.mark.parametrize("block, field", [("fx_ppp", "scale"), ("sdf", "discount_weights"),
                                              ("sdf", "change_of_measure")])
    @pytest.mark.parametrize("value", [float("inf"), float("nan")])
    def test_non_finite_pricing_scale_in_pov_is_compute_error(self, tmp_path, capsys, block,
                                                              field, value):
        # an fx_ppp scale of Infinity exited 0, printed W(P) = nan and wrote a
        # cut summary holding NaN and Infinity, which is not JSON
        pkg = build_package(tmp_path)
        pov = cbv.build_pov(cbv.load_package(pkg).observer)
        pov["observer"][block] = {field: value if field == "scale" else {"s": value}}
        pov_path = tmp_path / "pov.json"
        pov_path.write_text(json.dumps(pov), encoding="utf-8")
        assert main(["compute", "--package", str(pkg), "--pov", str(pov_path)]) == EXIT_COMPUTE
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith(
            "error [PackageError]: PoV field fails the observer's checks"), err
        assert "must be finite" in err[0]
        assert not Path("cut_summary.json").exists()

    @pytest.mark.parametrize("flag", ["--damping", "--regularization"])
    @pytest.mark.parametrize("command", ["compute", "fisher", "report"])
    def test_operator_changing_flags_are_unknown(self, tmp_path, capsys, flag, command):
        # regime B solves (I - O_PP) v_P = rhs and nothing else: a flag that
        # scaled O_PP is a usage error, and nothing is written
        pkg = str(build_package(tmp_path))
        packages = ["--prev", pkg, "--curr", pkg] if command == "fisher" else ["--package", pkg]
        assert main([command, *packages, flag, "0.5"]) == EXIT_USAGE
        assert "unrecognized arguments" in capsys.readouterr().err
        assert not Path("cut_summary.json").exists()

    def test_regime_a_package_with_observed_values(self, tmp_path, capsys):
        # the worked example with observed internal values carried in the
        # package: the cut summary lands on 84.56
        pkg = build_package(tmp_path, regime="A")
        pov_path = tmp_path / "pov.json"
        pov_path.write_bytes(cbv.emit_pov(cbv.load_package(pkg).observer))
        assert main(["compute", "--package", str(pkg), "--pov", str(pov_path),
                     "--format", "json"]) == EXIT_OK
        payload = json.loads(capsys.readouterr().out)
        assert payload["consolidated_value"] == pytest.approx(84.56, abs=1e-10)
        assert payload["T_out"] == pytest.approx(9.6, abs=1e-12)
        assert payload["T_in"] == pytest.approx(15.04, abs=1e-12)


    def test_regime_flag_prices_as_an_observer_of_that_regime(self, tmp_path, capsys):
        # a regime-A package holds v_P and O_PP, so it prices in either regime
        pkg = build_package(tmp_path, regime="A")
        loaded = cbv.load_package(pkg)
        for regime in ("A", "B"):
            assert main(["compute", "--package", str(pkg), "--regime", regime,
                         "--format", "json"]) == EXIT_OK
            w = json.loads(capsys.readouterr().out)["consolidated_value"]
            observer = replace(loaded.observer, regime=regime)
            assert w == cbv.evaluate_for_observer(loaded.cut_statistics(), observer).w
        assert w != pytest.approx(84.56, abs=1e-6)


    def test_package_from_a_generated_network_prices_the_in_process_w(self, tmp_path, capsys):
        # the held edges partition takes from the network and those stored
        # from the package's dense CSV blocks give W to the last bit
        network, b, v = sparse_ownership(1000, seed=11)
        perimeter = cbv.Perimeter(network.nodes[::2])
        stats = cbv.CutStatistics.from_network(network, perimeter, b,
                                               {node: v[node] for node in network.nodes[1::2]})
        observer = cbv.Observer(perimeter_ref="P-GENERATED", regime="B",
                                control_rule=cbv.ControlRuleSpec())
        cbv.write_package(tmp_path / "generated", stats, observer)
        assert main(["validate", str(tmp_path / "generated")]) == EXIT_OK
        capsys.readouterr()
        assert main(["compute", "--package", str(tmp_path / "generated"),
                     "--format", "json"]) == EXIT_OK
        w = json.loads(capsys.readouterr().out)["consolidated_value"]
        assert repr(w) == repr(cbv.evaluate_for_observer(stats, observer).w)


class TestBandFlags:
    def test_table_format_prints_the_band_line(self, tmp_path, capsys):
        pkg = build_package(tmp_path)
        argv = ["compute", "--package", str(pkg), "--band-noise", "0.01",
                "--band-draws", "5", "--band-seed", "7"]
        assert main([*argv, "--format", "json"]) == EXIT_OK
        band = json.loads(capsys.readouterr().out)["band"]
        assert main(argv) == EXIT_OK
        assert (f"band = [{band['low']!r}, {band['high']!r}] "
                f"({band['evaluated']} evaluated, {band['excluded']} excluded)"
                in capsys.readouterr().out.splitlines())

    def test_band_requires_seed(self, tmp_path, capsys):
        pkg = build_package(tmp_path)
        assert main(["compute", "--package", str(pkg),
                     "--band-noise", "0.01", "--band-draws", "10"]) == EXIT_USAGE
        assert "--band-seed" in capsys.readouterr().err

    def test_band_with_seed_is_deterministic(self, tmp_path, capsys):
        pkg = build_package(tmp_path)
        argv = ["compute", "--package", str(pkg), "--band-noise", "0.01",
                "--band-draws", "20", "--band-seed", "7", "--format", "json"]
        assert main(argv) == EXIT_OK
        first = json.loads(capsys.readouterr().out)["band"]
        assert main(argv) == EXIT_OK
        second = json.loads(capsys.readouterr().out)["band"]
        assert first == second


    def test_seed_that_cannot_seed_is_compute_error(self, tmp_path, capsys):
        # numpy's ValueError left a traceback and exit status 1
        pkg = build_package(tmp_path)
        assert main(["compute", "--package", str(pkg), "--band-noise", "0.01",
                     "--band-draws", "3", "--band-seed", "-1"]) == EXIT_COMPUTE
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("error [DomainError]: seed=-1")


class TestFisherCommand:
    def test_two_periods(self, tmp_path, capsys):
        prev = build_package(tmp_path, "prev")
        curr = build_package(tmp_path, "curr", b_scale=1.1)
        assert main(["fisher", "--prev", str(prev), "--curr", str(curr)]) == EXIT_OK
        payload = json.loads(capsys.readouterr().out)
        assert payload["indices"]["IP_F"] == 1.0
        assert payload["indices"]["G_F"] == pytest.approx(
            payload["W"]["curr_curr_obs"] / payload["W"]["prev_prev_obs"], rel=1e-12
        )

    def test_output_file_in_table_format(self, tmp_path, capsys):
        prev = build_package(tmp_path, "prev")
        curr = build_package(tmp_path, "curr", b_scale=1.1)
        argv = ["fisher", "--prev", str(prev), "--curr", str(curr)]
        assert main(argv) == EXIT_OK
        printed = capsys.readouterr().out
        out = tmp_path / "indices.json"
        assert main([*argv, "-o", str(out)]) == EXIT_OK
        g_f = json.loads(printed)["indices"]["G_F"]
        assert capsys.readouterr().out.splitlines() == [
            f"G_F = {g_f!r}", f"index block written to {out}"]
        assert out.read_text(encoding="utf-8") == printed

    def test_each_cell_uses_its_observers_tolerances(self, tmp_path, capsys):
        # only the previous period declares a 2-iteration cap, which the
        # Neumann solve cannot meet in the two cells priced under it
        prev = build_package(tmp_path, "prev", tolerances=cbv.Tolerances(max_iters=2))
        curr = build_package(tmp_path, "curr", b_scale=1.1)
        argv = ["fisher", "--prev", str(prev), "--curr", str(curr), "--method", "neumann"]
        assert main(argv) == EXIT_COMPUTE
        assert "ConvergenceError" in capsys.readouterr().err
        # a flag given on the command line still applies to all four cells
        assert main(argv + ["--max-iters", "10000"]) == EXIT_OK


CLEARING_SPEC = {
    "nodes": ["n1", "n2"],
    "engine": "seniority-clearing",
    "selection": "greatest",
    "classes": [{"liabilities": {"n1": {"n2": 100}}, "default_cost": 0.0}],
    "resources": {"n1": 60, "n2": 0},
    "perimeter": ["n1"],
}


class TestClearingCommand:
    def test_spec_file_run(self, tmp_path, capsys):
        path = tmp_path / "clearing.json"
        path.write_text(json.dumps(CLEARING_SPEC))
        assert main(["clearing", "--spec", str(path)]) == EXIT_OK
        payload = json.loads(capsys.readouterr().out)
        assert payload["payout_ratios"]["class_1"]["n1"] == 0.6
        assert payload["net_flows"]["X_PO"]["n1"]["n2"] == 60.0

    def test_output_file_holds_what_stdout_prints(self, tmp_path, capsys):
        path, out = tmp_path / "clearing.json", tmp_path / "outcome.json"
        path.write_text(json.dumps(CLEARING_SPEC))
        assert main(["clearing", "--spec", str(path)]) == EXIT_OK
        printed = capsys.readouterr().out
        assert main(["clearing", "--spec", str(path), "-o", str(out)]) == EXIT_OK
        assert capsys.readouterr().out == f"clearing outcome written to {out}\n"
        assert out.read_text(encoding="utf-8") == printed

    def test_format_flag_is_a_usage_error(self, tmp_path):
        # the clearing command prints JSON only; it takes no --format
        path = tmp_path / "clearing.json"
        path.write_text(json.dumps(CLEARING_SPEC))
        assert main(["clearing", "--spec", str(path), "--format", "table"]) == EXIT_USAGE

    @pytest.mark.parametrize("spec, error", [
        (json.dumps(CLEARING_SPEC)[:40], "DomainError"),
        (json.dumps({**CLEARING_SPEC, "classes": [{"liabilities": {"n1": {"n3": 1}}}]}),
         "MembershipError"),
        (json.dumps({**CLEARING_SPEC, "resources": {"n1": 60}}), "MembershipError"),
        (json.dumps({**CLEARING_SPEC, "nodes": ["n1", "n2", "n1"]}), "MembershipError"),
        (json.dumps({k: v for k, v in CLEARING_SPEC.items() if k != "classes"}), "DomainError"),
        (json.dumps({**CLEARING_SPEC, "resources": {"n1": "much", "n2": 0}}), "DomainError"),
        (json.dumps({**CLEARING_SPEC, "params": {"eps": float("inf")}}), "DomainError"),
        (json.dumps({**CLEARING_SPEC, "params": {"eps": float("nan")}}), "DomainError"),
        (json.dumps({**CLEARING_SPEC, "params": {"eps": 0}}), "DomainError"),
        (json.dumps({**CLEARING_SPEC, "params": {"max_iters": 2.5}}), "DomainError"),
    ], ids=["truncated", "unknown-payee", "no-resource", "repeated-id", "no-classes",
            "non-number", "eps-inf", "eps-nan", "eps-zero", "iters-float"])
    def test_malformed_spec_is_compute_error(self, tmp_path, capsys, spec, error):
        path = tmp_path / "clearing.json"
        path.write_text(spec)
        assert main(["clearing", "--spec", str(path)]) == EXIT_COMPUTE
        err = capsys.readouterr().err
        assert err.startswith(f"error [{error}]") and err.count("\n") == 1


class TestControlCommand:
    def test_option_a_matrix(self, tmp_path, capsys):
        shares_path = tmp_path / "shares.csv"
        ids = ["a", "b", "c", "x"]
        shares = [[0.0] * 4 for _ in range(4)]
        shares[0][3], shares[1][3], shares[2][3] = 0.6, 0.3, 0.1
        write_matrix_csv(shares_path, ids, ids, shares, "id")
        assert main(["control", "--shares", str(shares_path),
                     "--option", "A", "--tau", "0.5"]) == EXIT_OK
        out = capsys.readouterr().out.splitlines()
        assert out[0] == "id,a,b,c,x"
        assert out[1].startswith("a,") and out[1].endswith("1.0")

    @pytest.mark.parametrize("ids", [["a", "b", "c", "x"], ["a,b", 'q"x', "c", "x"]])
    def test_stdout_is_the_written_file(self, tmp_path, capsys, ids):
        shares_path, out_path = tmp_path / "shares.csv", tmp_path / "omega.csv"
        shares = np.zeros((4, 4))
        shares[:3, 3] = 0.6, 0.3, 0.1
        write_matrix_csv(shares_path, ids, ids, shares, "id")
        args = ["control", "--shares", str(shares_path), "--option", "B"]
        assert main([*args, "-o", str(out_path)]) == EXIT_OK
        capsys.readouterr()
        assert main(args) == EXIT_OK
        stdout = capsys.readouterr().out
        assert stdout == out_path.read_text(encoding="utf-8")
        if ids[0] == "a":  # plain ids print as they always have
            omega = cbv.herfindahl_control(shares, "B").omega
            assert stdout == "\n".join(
                [",".join(["id", *ids])]
                + [",".join([node, *map(repr, omega[k].tolist())]) for k, node in enumerate(ids)]
            ) + "\n"

    def test_mismatched_row_and_column_ids_are_compute_error(self, tmp_path, capsys):
        shares_path = tmp_path / "shares.csv"
        write_matrix_csv(shares_path, ["a", "b"], ["b", "a"], np.zeros((2, 2)), "id")
        assert main(["control", "--shares", str(shares_path)]) == EXIT_COMPUTE
        assert capsys.readouterr().err.splitlines() == [
            "error [CbvError]: share matrix must carry identical row and column ids"]

    @pytest.mark.parametrize("option", ["A", "B", "C"])
    def test_non_finite_share_is_compute_error(self, tmp_path, capsys, option):
        shares_path = tmp_path / "shares.csv"
        ids = ["a", "b"]
        write_matrix_csv(shares_path, ids, ids, [[0.0, float("nan")], [0.0, 0.0]], "id")
        assert main(["control", "--shares", str(shares_path),
                     "--option", option]) == EXIT_COMPUTE
        assert "DomainError" in capsys.readouterr().err


class TestPwaCommand:
    def test_reference_line(self, capsys):
        assert main(["pwa", "--eps", "0.01", "--gamma", "1"]) == EXIT_OK
        assert capsys.readouterr().out.strip() == "Δ_max=0.2828, N=4"

    def test_json_format_matches_library(self, capsys):
        assert main(["pwa", "--eps", "0.005", "--gamma", "2",
                     "--format", "json"]) == EXIT_OK
        payload = json.loads(capsys.readouterr().out)
        result = cbv.delta_max(0.005, 2.0)
        assert payload["delta_max"] == result.delta_max
        assert payload["segments"] == result.segments


    @pytest.mark.parametrize("eps,gamma", [
        ("nan", "1"), ("1", "nan"), ("inf", "1"), ("1", "inf"), ("1e-300", "1e300"),
    ])
    def test_non_finite_or_degenerate_input_is_compute_error(self, capsys, eps, gamma):
        # these exited 1 with a ValueError or ZeroDivisionError traceback, or
        # (an infinite eps) exited 0 with N=0
        assert main(["pwa", "--eps", eps, "--gamma", gamma]) == EXIT_COMPUTE
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("error [DomainError]: ")


class TestReportCommand:
    def test_sheet_rendered(self, tmp_path, capsys):
        pkg = build_package(tmp_path)
        assert main(["report", "--package", str(pkg)]) == EXIT_OK
        out = capsys.readouterr().out
        assert "Disclosure sheet" in out
        assert "W(P)" in out


# every file a regime-B package holds, and the ways a file is corrupted: each
# corruption maps the file's bytes to what is written in their place
PACKAGE_FILES = ("manifest.yaml", "pov.json", "proof_stability.txt", "nodes_P.csv",
                 "nodes_O.csv", "b_P.csv", "v_O.csv", "O_PO.csv", "O_OP.csv", "O_PP.csv")
CORRUPTIONS = {
    "emptied": lambda blob: b"",
    "truncated": lambda blob: blob[: len(blob) // 2],
    "binary": lambda blob: bytes(range(256)),
    "wrong-type-json": lambda blob: b'[1, "two", null]',
    "nan-cells": lambda blob: re.sub(rb"\d+\.\d+(e[-+]?\d+)?|\d+e[-+]?\d+", b"NaN", blob),
}
SWEEP = [(name, corruption, rehashed) for name in PACKAGE_FILES for corruption in CORRUPTIONS
         for rehashed in (False, True) if not (rehashed and name == "manifest.yaml")]
# faults of an edge file that still parses as CSV: (fault, edit of the
# text, start of the refusal after the file name)
EDGE_FAULTS = [
    ("repeated-pair", lambda text: text + "A,X,0.01\n", "repeated pair ('A', 'X')"),
    ("unknown-id", lambda text: text.replace("A,X,", "A,Z,", 1),
     "'Z' in the to column is an unknown id"),
    ("p-id-in-to-column", lambda text: text.replace("A,X,", "A,B,", 1),
     "'B' in the to column names a node of P, outside the block"),
    ("missing-share", lambda text: text.replace("A,X,0.05", "A,X", 1), "row 2 has 2 cells"),
    ("not-a-number", lambda text: text.replace("A,X,0.05", "A,X,abc", 1),
     "a share is not a number"),
]


class TestCorruptionSweep:
    @pytest.mark.parametrize("name,corruption,rehashed", SWEEP)
    def test_no_command_raises_and_only_validate_exits_1(self, tmp_path, capsys, name,
                                                         corruption, rehashed):
        # the manifest is either left as it was, so the corruption is a hash
        # mismatch, or re-hashed, so the corrupted bytes reach the parsers
        good = build_package(tmp_path, "good")
        pkg = build_package(tmp_path, "bad")
        target = pkg / name
        blob = target.read_bytes()
        corrupted = CORRUPTIONS[corruption](blob)
        target.write_bytes(corrupted)
        if rehashed:
            rehash(pkg, name)
        summary = str(tmp_path / "summary.json")
        validate = main(["validate", str(pkg)])
        others = [
            main(["compute", "--package", str(pkg), "-o", summary]),
            main(["report", "--package", str(pkg)]),
            main(["fisher", "--prev", str(good), "--curr", str(pkg)]),
            main(["fisher", "--prev", str(pkg), "--curr", str(good)]),
        ]
        assert validate in (EXIT_OK, EXIT_FINDINGS)
        if corrupted != blob and not rehashed:
            assert validate == EXIT_FINDINGS
        assert set(others) <= {EXIT_OK, EXIT_COMPUTE}

    @pytest.mark.parametrize("fault, edit, message", EDGE_FAULTS,
                             ids=[fault for fault, *_ in EDGE_FAULTS])
    def test_edge_file_fault_is_a_schema_finding(self, tmp_path, capsys, fault, edit, message):
        # O_PO.csv holds A,X,0.05 A,Y,0.02 B,X,0.03 C,Y,0.04; each fault is
        # re-hashed, so it reaches the edge-file reader
        pkg = build_package(tmp_path)
        target = pkg / "O_PO.csv"
        target.write_text(edit(target.read_text(encoding="utf-8")), encoding="utf-8")
        rehash(pkg, "O_PO.csv")
        assert main(["validate", str(pkg)]) == EXIT_FINDINGS
        out = capsys.readouterr().out
        assert out.startswith(f"ERROR schema: O_PO.csv: {message}"), out
        assert main(["compute", "--package", str(pkg)]) == EXIT_COMPUTE
        err = capsys.readouterr().err
        assert err.startswith(f"error [PackageError]: O_PO.csv: {message}")
        assert "Traceback" not in err

    def test_edge_file_names_its_first_repeat_as_from_edges_does(self, tmp_path):
        # two pairs given twice, (C, Y) repeating first in file order: the
        # refusal names it, not (A, X), the later copy of the lowest repeated
        # position, and from_edges names the same pair for the same triples
        pkg = build_package(tmp_path)
        target = pkg / "O_PO.csv"
        text = target.read_text(encoding="utf-8") + "C,Y,0.01\nA,X,0.01\n"
        target.write_text(text, encoding="utf-8")
        rehash(pkg, "O_PO.csv")
        triples = [line.split(",") for line in text.splitlines()[1:]]
        assert [pair for *pair, _ in triples] == [["A", "X"], ["A", "Y"], ["B", "X"],
                                                  ["C", "Y"], ["C", "Y"], ["A", "X"]]
        with pytest.raises(cbv.DomainError, match=r"^edge \('C', 'Y'\) is given twice$"):
            cbv.OwnershipNetwork.from_edges(["A", "B", "C", "X", "Y"], triples)
        with pytest.raises(cbv.PackageError, match=r"^O_PO.csv: repeated pair \('C', 'Y'\)$"):
            cbv.load_package(pkg)


class TestUsageErrors:
    def test_missing_required_flag(self, capsys):
        assert main(["compute"]) == EXIT_USAGE

    def test_unknown_command(self, capsys):
        assert main(["frobnicate"]) == EXIT_USAGE

    def test_bad_flag_value(self, capsys):
        assert main(["pwa", "--eps", "abc", "--gamma", "1"]) == EXIT_USAGE


class TestReadmeSynopsis:
    def test_every_flag_of_every_command_is_in_the_synopsis(self):
        # each command's lines of the README's "Command line" block name every
        # option string its parser takes (argparse's own --help aside)
        readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
        block = readme.split("## Command line", 1)[1].split("```")[1]
        listed: dict[str, set[str]] = {}
        command = None
        for line in block.splitlines():
            if line.startswith("cbv "):
                command = line.split()[1]
            if command:
                listed.setdefault(command, set()).update(
                    re.findall(r"(?<![\w-])--?[A-Za-z][\w-]*", line))
        commands = next(action.choices for action in build_parser()._actions
                        if isinstance(action, argparse._SubParsersAction))
        for name, parser in commands.items():
            flags = {flag for action in parser._actions
                     if not isinstance(action, argparse._HelpAction)
                     for flag in action.option_strings}
            assert flags <= listed.get(name, set()), (name, sorted(flags - listed.get(name, set())))


class TestUnexpectedErrors:
    def test_any_exception_is_one_line_and_exit_2(self, monkeypatch, capsys):
        # exit 1 means findings, so a fault in a command never leaves as a
        # traceback
        def fault(args):
            raise RuntimeError("no such luck")

        monkeypatch.setitem(cbv.cli._COMMANDS, "pwa", fault)
        assert main(["pwa", "--eps", "0.01", "--gamma", "1"]) == EXIT_COMPUTE
        captured = capsys.readouterr()
        assert captured.err.splitlines() == ["error [RuntimeError]: no such luck"]
        assert captured.out == ""
