"""The mutation record codec: constructors, decode, and the ServingState."""

import json
import math

import pytest

from repro.core.online import ActiveTransferView
from repro.serve import mutation
from repro.serve.mutation import ServingState, decode

VIEW = ActiveTransferView(src="A", dst="B", rate=1e8, started_at=0.0,
                          expected_end=50.0)


class TestRoundTrip:
    @pytest.mark.parametrize("record", [
        mutation.add(1, VIEW),
        mutation.progress(1, rate=2e8),
        mutation.progress(1, expected_end=90.0),
        mutation.progress(1, rate=math.nan, expected_end=math.inf),
        mutation.complete(1),
        mutation.drift("A", "B", "edge", 1.1e8, 1e8),
    ], ids=["add", "progress-rate", "progress-end", "progress-nonfinite",
            "complete", "drift"])
    def test_record_survives_strict_json_and_decodes_to_itself(self, record):
        wire = json.loads(json.dumps(record, allow_nan=False))
        assert decode(wire).record == record

    def test_add_decodes_to_the_view(self):
        assert decode(mutation.add(3, VIEW)).args == (3, VIEW)

    def test_tier_enum_becomes_its_value(self):
        from repro.serve.fallback import ModelTier

        assert mutation.drift("A", "B", ModelTier.EDGE, 1.0, 1.0)[3] == "edge"


class TestDecodeRejects:
    @pytest.mark.parametrize("record", [
        {"op": "add"},
        "add",
        None,
        [],
    ], ids=["dict", "string", "none", "empty"])
    def test_non_list(self, record):
        with pytest.raises(ValueError, match="non-empty list"):
            decode(record)

    def test_unknown_op(self):
        with pytest.raises(ValueError, match="unknown mutation op"):
            decode(["upsert", 1])

    @pytest.mark.parametrize("record", [
        ["add", 1],
        ["progress", 1, 2.0],
        ["complete", 1, 2],
        ["drift", "A", "B", "edge", 1.0],
    ])
    def test_wrong_arity(self, record):
        with pytest.raises(ValueError, match="fields"):
            decode(record)

    @pytest.mark.parametrize("missing", ["src", "rate"])
    def test_view_missing_field(self, missing):
        fields = mutation.add(1, VIEW)[2]
        del fields[missing]
        with pytest.raises(ValueError, match=missing):
            decode(["add", 1, fields])

    def test_view_that_does_not_construct(self):
        fields = dict(mutation.add(1, VIEW)[2], rate=-1.0)
        with pytest.raises(ValueError, match="add view rejected"):
            decode(["add", 1, fields])

    @pytest.mark.parametrize("record", [
        ["complete", "7"],
        ["complete", 1.5],
        ["progress", 1, "fast", None],
        ["progress", 1, None, None],
        ["drift", "A", "B", "edge", 1.0, 0.0],
        ["drift", "A", 2, "edge", 1.0, 1.0],
    ], ids=["tid-str", "tid-float", "rate-str", "progress-empty",
            "drift-zero-realized", "drift-dst-int"])
    def test_bad_fields(self, record):
        with pytest.raises(ValueError):
            decode(record)


class TestServingState:
    def test_apply_changes_the_triple(self):
        state = ServingState()
        state.apply(mutation.add(1, VIEW))
        state.apply(mutation.progress(1, rate=3e8))
        state.apply(mutation.drift("A", "B", "edge", 1.1e8, 1e8))
        assert state.active.get(1).rate == 3e8
        assert state.drift.observations == 1
        state.apply(mutation.complete(1))
        assert len(state.active) == 0

    def test_lenient_drops_what_strict_refuses(self):
        lenient, strict = ServingState(), ServingState(lenient=False)
        for state in (lenient, strict):
            state.apply(mutation.add(1, VIEW))
        lenient.apply(mutation.progress(1, rate=math.nan))
        lenient.apply(mutation.complete(2))
        with pytest.raises(ValueError):
            strict.apply(mutation.progress(1, rate=math.nan))
        with pytest.raises(KeyError):
            strict.apply(mutation.complete(2))
        assert lenient.state_fingerprint() == strict.state_fingerprint()
