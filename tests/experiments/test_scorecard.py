"""The quality scorecard, its gate rule and the ``repro scorecard`` command."""

import json
from pathlib import Path

import pytest

from repro import cli
from repro.experiments import method_factories
from repro.experiments import scorecard as sc

REPO = Path(__file__).resolve().parents[2]
GATE = {"median_wastage_ratio": 1.02, "median_failures_ratio": 1.05, "workflow_quantile": 0.75}
WORKFLOWS = ("eager", "methylseq", "chipseq", "rnaseq", "mag", "iwd")
#: Per-workflow wastage bases; seed s adds 10 * s, so every workflow's
#: median over seeds 0-4 is base + 20, its upper quartile base + 30, and
#: the median total over the six workflows 880 + 120 = 1000 GBh.
BASES = (100, 120, 140, 160, 180, 180)


def make_card(wastage_shift=(0,) * 6, failures_shift=0, ttfs=(1.0, 0.5)):
    """A synthetic five-seed scorecard of Sizey's rows.

    ``wastage_shift[i]`` is added to workflow ``i`` in every seed;
    ``failures_shift`` to the first workflow's failures.  The parent's
    median total failures is 1000.
    """
    cells = []
    for ttf in ttfs:
        for seed in range(5):
            for i, wf in enumerate(WORKFLOWS):
                cells.append(
                    {
                        "method": "Sizey",
                        "ttf": ttf,
                        "seed": seed,
                        "workflow": wf,
                        "wastage_gbh": float(BASES[i] + 10 * seed + wastage_shift[i]),
                        "failures": (150 if i < 4 else 200) + seed + (failures_shift if i == 0 else 0) - 2,
                        "runtime_h": 1.0,
                    }
                )
    spec = {
        "scale": 1.0,
        "seeds": list(range(5)),
        "time_to_failure": list(ttfs),
        "methods": ["Sizey"],
        "gate": GATE,
    }
    return {"format": "repro-scorecard", "version": 1, "spec": spec, "workers": 1,
            "cells": cells, "sizey_wall_s": []}


def failed_checks(parent, change):
    return [(c.ttf, c.name) for c in sc.compare(parent, change) if not c.passed]


class TestGateRule:
    def test_passes_at_exactly_two_percent_wastage_and_five_percent_failures(self):
        # +20 GBh spread over the workflows keeps each within its q3.
        change = make_card(wastage_shift=(4, 4, 3, 3, 3, 3), failures_shift=50)
        checks = sc.compare(make_card(), change)
        assert all(c.passed for c in checks)
        assert len(checks) == 2 * (2 + len(WORKFLOWS))
        wastage, failures = checks[:2]
        assert (wastage.value, wastage.parent, wastage.limit) == (1020.0, 1000.0, 1020.0)
        assert (failures.value, failures.parent, failures.limit) == (1050.0, 1000.0, 1050.0)

    def test_fails_at_two_point_one_percent_wastage(self):
        change = make_card(wastage_shift=(4, 4, 4, 3, 3, 3))
        assert failed_checks(make_card(), change) == [
            (1.0, "median total wastage GBh"),
            (0.5, "median total wastage GBh"),
        ]

    def test_fails_at_five_point_one_percent_failures(self):
        change = make_card(failures_shift=51)
        assert failed_checks(make_card(), change) == [
            (1.0, "median total failures"),
            (0.5, "median total failures"),
        ]

    def test_fails_when_one_workflow_median_exceeds_the_parent_q3(self):
        # Totals are unchanged; chipseq's median moves from base + 20 to
        # base + 31, one past the parent's upper quartile.
        change = make_card(wastage_shift=(0, 0, 11, -11, 0, 0))
        assert failed_checks(make_card(), change) == [
            (1.0, "chipseq median wastage GBh"),
            (0.5, "chipseq median wastage GBh"),
        ]
        at_q3 = make_card(wastage_shift=(0, 0, 10, -10, 0, 0))
        assert failed_checks(make_card(), at_q3) == []

    def test_uses_the_parents_gate_numbers(self):
        loose = make_card(wastage_shift=(4, 4, 4, 3, 3, 3))
        loose["spec"]["gate"] = dict(GATE, median_wastage_ratio=1.5)
        assert failed_checks(make_card(), loose)

    def test_rejects_unpaired_seeds(self):
        change = make_card()
        change["cells"] = [c for c in change["cells"] if c["seed"] != 4]
        with pytest.raises(ValueError, match="pairs seeds"):
            sc.compare(make_card(), change)

    def test_quality_json_declares_the_documented_rule(self):
        spec = sc.load_spec(REPO / "QUALITY.json")
        assert spec["gate"] == GATE
        assert spec["seeds"] == [0, 1, 2, 3, 4]
        assert spec["scale"] == 1.0
        assert spec["time_to_failure"] == [1.0, 0.5]
        assert spec["methods"] == list(method_factories())


@pytest.fixture(scope="module")
def smoke(tmp_path_factory):
    """A real scorecard: Sizey and Workflow-Presets, seed 0, scale 0.05."""
    root = tmp_path_factory.mktemp("scorecard")
    spec = {
        "scale": 0.05,
        "seeds": [0],
        "time_to_failure": [1.0],
        "methods": ["Sizey", "Workflow-Presets"],
        "gate": GATE,
    }
    (root / "spec.json").write_text(json.dumps(spec))
    out = root / "card.json"
    assert cli.main(["scorecard", "--spec", str(root / "spec.json"), "--out", str(out)]) == 0
    return out


class TestSmokeRun:
    def test_records_every_cell_and_sizeys_wall_time(self, smoke):
        card = sc.load_scorecard(smoke)
        assert len(card["cells"]) == 2 * len(WORKFLOWS)
        assert {(c["method"], c["workflow"]) for c in card["cells"]} == {
            (m, wf) for m in ("Sizey", "Workflow-Presets") for wf in WORKFLOWS
        }
        assert all(c["wastage_gbh"] > 0 and c["runtime_h"] > 0 for c in card["cells"])
        presets = sum(c["wastage_gbh"] for c in card["cells"] if c["method"] == "Workflow-Presets")
        sizey = sum(c["wastage_gbh"] for c in card["cells"] if c["method"] == "Sizey")
        assert sizey < presets
        [wall] = card["sizey_wall_s"]
        assert (wall["ttf"], wall["seed"]) == (1.0, 0) and wall["seconds"] > 0

    def test_prints_the_paper_next_to_the_medians(self, smoke, capsys):
        assert cli.main(["scorecard", "--compare", str(smoke), str(smoke)]) == 0
        out = capsys.readouterr().out
        assert "paper Fig. 8a GBh" in out and "1,684.2" in out
        assert "Sizey vs best baseline (Workflow-Presets)" in out
        assert "paper: 64.6% vs Witt-LR" in out
        assert "verdict: PASS (8/8 checks hold)" in out


class TestCommand:
    @pytest.fixture
    def cards(self, tmp_path):
        paths = {}
        for name, card in (
            ("parent", make_card()),
            ("good", make_card(wastage_shift=(4, 4, 3, 3, 3, 3), failures_shift=50)),
            ("bad", make_card(failures_shift=51)),
        ):
            paths[name] = tmp_path / f"{name}.json"
            sc.save_scorecard(card, paths[name])
        return {k: str(v) for k, v in paths.items()}

    def test_exit_status_follows_the_verdict(self, cards, capsys):
        assert cli.main(["scorecard", "--compare", cards["parent"], cards["good"]]) == 0
        assert "verdict: PASS" in capsys.readouterr().out
        assert cli.main(["scorecard", "--compare", cards["parent"], cards["bad"]]) == 1
        out = capsys.readouterr().out
        assert "FAIL  ttf=1.0  median total failures: 1,051.0 (parent 1,000.0, +5.1%)" in out
        assert "verdict: FAIL (14/16 checks hold)" in out

    def test_usage_errors(self, cards, capsys):
        assert cli.main(["scorecard"]) == 2
        assert cli.main(["scorecard", "--out", "x.json", "--compare", cards["parent"], cards["good"]]) == 2
        assert cli.main(["scorecard", "--compare", cards["parent"], str(Path(cards["parent"]).parent / "missing.json")]) == 2
        assert "error" in capsys.readouterr().err
