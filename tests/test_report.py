import json
import math
from importlib import resources

import pytest

from dfsbell.report import (Check, Report, Section, approx_check, bound_check,
                            render_text, to_dict, to_json)

jsonschema = pytest.importorskip("jsonschema")


def _sample_report(passed=True):
    checks = (
        approx_check("a", 1.0 + 1e-12, 1.0, 1e-9, description="d",
                     source="closed form"),
        bound_check("b", 0.5, 1.0, description="d", source="sampled estimate"),
        Check(name="c", passed=passed, source="exact rational arithmetic",
              detail="line one\nline two"),
    )
    return Report(title="t", seed=3, config={"k": 1},
                  sections=(Section("sec", checks),))


def test_check_helpers():
    src = "closed form"
    assert approx_check("x", 1.0, 1.0, 0.0, source=src).passed
    assert not approx_check("x", 1.1, 1.0, 1e-3, source=src).passed
    assert bound_check("x", 0.9, 1.0, source=src).passed
    assert not bound_check("x", 1.1, 1.0, source=src).passed
    assert bound_check("x", 0.9, 1.0, source=src,
                       detail="at draw 3").detail == "at draw 3"
    # a helper-built check cannot leave its source out
    with pytest.raises(TypeError):
        approx_check("x", 1.0, 1.0, 0.0)
    with pytest.raises(TypeError):
        bound_check("x", 0.9, 1.0)


def test_report_aggregation():
    good = _sample_report(True)
    assert good.passed and good.n_checks() == 3 and good.n_passed() == 3
    bad = _sample_report(False)
    assert not bad.passed
    assert not bad.sections[0].passed
    assert bad.n_passed() == 2


def test_json_round_trip_and_determinism():
    rep = _sample_report()
    text1, text2 = to_json(rep), to_json(rep)
    assert text1 == text2
    payload = json.loads(text1)
    assert payload["passed"] is True
    assert payload["sections"][0]["checks"][2]["detail"] == "line one\nline two"


def test_json_rejects_non_finite_values():
    rep = Report(title="t", seed=0, config={},
                 sections=(Section("s", (Check("c", True, value=math.nan),)),))
    with pytest.raises(ValueError):
        to_json(rep)


def test_schema_validates_serialized_reports():
    # the schema ships as package data
    schema = json.loads(
        resources.files("dfsbell").joinpath("report_schema.json").read_text())
    jsonschema.validate(to_dict(_sample_report()), schema)
    jsonschema.validate(to_dict(_sample_report(False)), schema)
    with pytest.raises(jsonschema.ValidationError):
        jsonschema.validate({"title": "t"}, schema)
    # source is one of the four labels the README defines
    unlabelled = to_dict(_sample_report())
    unlabelled["sections"][0]["checks"][0]["source"] = "s"
    with pytest.raises(jsonschema.ValidationError):
        jsonschema.validate(unlabelled, schema)


def test_render_text_contents():
    out = render_text(_sample_report(False))
    assert "[FAIL] sec" in out
    assert "[PASS] a" in out
    assert "[FAIL] c" in out
    assert "line two" in out
    assert out.strip().endswith("overall: FAIL (2/3 checks)")
