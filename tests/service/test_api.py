"""The wire schema: typed round-trips, strict versioning, typed rejects.

Everything that crosses the service boundary goes through
``repro.service.api`` — these tests pin the two properties the module
exists for: (a) every request/response dataclass survives a wire
round-trip unchanged, and (b) anything the schema does not recognise
(wrong ``schema_version``, unknown op, unknown payload field) is
rejected with a *typed* :class:`ServiceError`, never silently dropped
or re-raised as a bare ``KeyError``.
"""

import json

import pytest

from repro.service.api import (
    SCHEMA_VERSION,
    Ack,
    AllocationRequest,
    AllocationResult,
    BudgetAllocation,
    BudgetUpdateRequest,
    FleetHandle,
    FleetSpec,
    JobAdmitRequest,
    JobDepartRequest,
    JobStateResult,
    REQUEST_TYPES,
    RESULT_TYPES,
    SchemeInfo,
    SchemesResult,
    ServiceError,
    SweepRequest,
    SweepResult,
    SweepRun,
    TelemetryRequest,
    TelemetrySample,
    decode_reply,
    decode_request,
    encode_reply,
    encode_request,
)


def roundtrip(value):
    """to_wire -> JSON -> from_wire, as the socket would carry it."""
    wire = json.loads(json.dumps(value.to_wire()))
    return type(value).from_wire(wire)


SAMPLES = [
    Ack(message="hello"),
    FleetSpec(system="ha8k", n_modules=128, seed=7, fleet_id="f0"),
    FleetSpec(
        system="mixed",
        device_counts=(("cpu-a", 8), ("gpu-b", 8)),
        fleet_id="hx",
    ),
    FleetHandle(
        fleet_id="f0", system="ha8k", n_modules=128, seed=7, shm_name="psm_x"
    ),
    AllocationRequest(
        fleet_id="f0", app="bt", scheme="vafsor", budgets_w=(1e4, 2e4)
    ),
    BudgetAllocation(
        budget_w=1e4,
        feasible=True,
        alpha=0.5,
        raw_alpha=0.5,
        constrained=True,
        freq_ghz=2.2,
        total_allocated_w=9e3,
        floor_w=5e3,
    ),
    AllocationResult(
        fleet_id="f0",
        app="bt",
        scheme="vafsor",
        n_modules=128,
        allocations=(BudgetAllocation(budget_w=1e4, feasible=False),),
    ),
    SweepRequest(
        fleet_id="f0",
        apps=("bt", "sp"),
        schemes=("naive", "vafsor"),
        budgets_w=(1e4,),
        n_iters=5,
        noisy=False,
    ),
    SweepResult(
        fleet_id="f0",
        runs=(
            SweepRun(
                app="bt",
                scheme="naive",
                budget_w=1e4,
                digest="abc123",
                feasible=True,
                makespan_s=1.5,
                total_power_w=9.9e3,
                within_budget=True,
                vf=1.1,
                vt=1.2,
            ),
        ),
    ),
    JobAdmitRequest(fleet_id="f0", job_id="j1", n_modules=16),
    JobDepartRequest(fleet_id="f0", job_id="j1"),
    BudgetUpdateRequest(fleet_id="f0", budget_w=5e4, app="bt", scheme="naive"),
    JobStateResult(
        fleet_id="f0",
        jobs=("j1", "j2"),
        active_modules=48,
        budget_w=5e4,
        feasible=True,
        alpha=0.7,
        freq_ghz=2.4,
        floor_w=2e4,
    ),
    SchemesResult(
        schemes=(
            SchemeInfo(
                name="naive",
                label="Naive",
                pmt_kind="naive",
                actuation="pc",
                variation_aware=False,
                app_dependent=False,
            ),
        )
    ),
    TelemetryRequest(samples=3, interval_s=0.5),
    TelemetrySample(
        uptime_s=1.0,
        inflight=2,
        fleets=1,
        jobs=3,
        served=(("allocate", 10),),
        rejected=(("sweep", 1),),
        counters=(("service.allocate", 10.0),),
    ),
]


class TestRoundTrips:
    @pytest.mark.parametrize("value", SAMPLES, ids=lambda v: type(v).__name__)
    def test_wire_roundtrip_is_identity(self, value):
        assert roundtrip(value) == value

    def test_every_op_has_request_and_result_types(self):
        assert set(REQUEST_TYPES) == set(RESULT_TYPES)

    def test_request_envelope_roundtrip(self):
        req = JobAdmitRequest(fleet_id="f0", job_id="j1", n_modules=4)
        op, decoded = decode_request(encode_request("admit", req))
        assert op == "admit"
        assert decoded == req

    def test_reply_envelope_roundtrip(self):
        sample = JobStateResult(
            fleet_id="f0",
            jobs=(),
            active_modules=0,
            budget_w=1e3,
            feasible=True,
        )
        assert decode_reply(encode_reply("admit", sample)) == sample

    def test_error_reply_raises_typed(self):
        err = ServiceError("overloaded", "busy", retryable=True)
        with pytest.raises(ServiceError) as exc:
            decode_reply(encode_reply("allocate", error=err))
        assert exc.value.code == "overloaded"
        assert exc.value.retryable
        assert exc.value.message == "busy"


class TestStrictValidation:
    def envelope(self, **overrides):
        body = {
            "schema_version": SCHEMA_VERSION,
            "op": "ping",
            "payload": {},
        }
        body.update(overrides)
        return json.dumps(body)

    def test_unknown_version_rejected(self):
        with pytest.raises(ServiceError) as exc:
            decode_request(self.envelope(schema_version=SCHEMA_VERSION + 1))
        assert exc.value.code == "unknown-version"
        assert not exc.value.retryable

    def test_missing_version_rejected(self):
        line = json.dumps({"op": "ping", "payload": {}})
        with pytest.raises(ServiceError) as exc:
            decode_request(line)
        assert exc.value.code == "unknown-version"

    def test_unknown_op_rejected(self):
        with pytest.raises(ServiceError) as exc:
            decode_request(self.envelope(op="self-destruct"))
        assert exc.value.code == "unknown-op"

    def test_unknown_envelope_field_rejected(self):
        with pytest.raises(ServiceError) as exc:
            decode_request(self.envelope(debug=True))
        assert exc.value.code == "unknown-field"

    def test_unknown_payload_field_rejected(self):
        line = self.envelope(
            op="admit",
            payload={
                "fleet_id": "f0",
                "job_id": "j1",
                "n_modules": 4,
                "priority": 9,  # not in the v1 schema
            },
        )
        with pytest.raises(ServiceError) as exc:
            decode_request(line)
        assert exc.value.code == "unknown-field"
        assert "priority" in exc.value.message

    def test_missing_required_field_rejected(self):
        line = self.envelope(op="admit", payload={"fleet_id": "f0"})
        with pytest.raises(ServiceError) as exc:
            decode_request(line)
        assert exc.value.code == "bad-request"

    def test_garbage_line_rejected(self):
        for line in (b"not json at all\n", b"[" * 100_000):
            with pytest.raises(ServiceError) as exc:
                decode_request(line)
            assert exc.value.code == "bad-request"

    @pytest.mark.parametrize(
        "op,payload",
        [
            ("open-fleet", {"n_modules": "abc"}),
            ("admit", {"fleet_id": "f0", "job_id": "j1", "n_modules": None}),
            ("telemetry", {"samples": "x"}),
            ("sweep", {"fleet_id": "f0", "budgets_w": [1e4], "n_iters": "x"}),
            ("allocate", {"fleet_id": "f0", "budgets_w": [1e4], "test_module": "x"}),
            ("allocate", {"fleet_id": "f0", "budgets_w": [1e4], "noisy": "false"}),
            ("sweep", {"fleet_id": "f0", "budgets_w": [1e4], "noisy": "false"}),
            ("allocate", {"fleet_id": "f0", "budgets_w": [float("nan")]}),
            ("sweep", {"fleet_id": "f0", "budgets_w": [float("inf")]}),
        ],
    )
    def test_malformed_payload_is_typed(self, op, payload):
        with pytest.raises(ServiceError) as exc:
            decode_request(self.envelope(op=op, payload=payload))
        assert exc.value.code == "bad-request"

    def test_malformed_reply_is_internal(self):
        line = json.dumps({
            "schema_version": SCHEMA_VERSION, "op": "open-fleet", "ok": True,
            "result": {"fleet_id": "f", "system": "ha8k", "n_modules": "abc",
                       "seed": 1},
        })
        with pytest.raises(ServiceError) as exc:
            decode_reply(line)
        assert exc.value.code == "internal"

    def test_non_object_rejected(self):
        with pytest.raises(ServiceError) as exc:
            decode_request(b"[1, 2, 3]\n")
        assert exc.value.code == "bad-request"


class TestBuilder:
    """AllocationRequest.build is the one validation path shared by the
    CLI, the wire, and the experiments."""

    def test_normalises_names_via_registries(self):
        req = AllocationRequest.build(
            fleet_id="f0", app="BT", scheme="VaFsOr", budgets_w=[1e4]
        )
        assert req.app == "bt"
        assert req.scheme == "vafsor"
        assert req.budgets_w == (1e4,)

    def test_unknown_scheme_is_typed(self):
        with pytest.raises(ServiceError) as exc:
            AllocationRequest.build(
                fleet_id="f0", scheme="does-not-exist", budgets_w=[1e4]
            )
        assert exc.value.code == "unknown-scheme"
        assert not exc.value.retryable

    def test_unknown_app_is_typed(self):
        with pytest.raises(ServiceError) as exc:
            AllocationRequest.build(
                fleet_id="f0", app="does-not-exist", budgets_w=[1e4]
            )
        assert exc.value.code == "unknown-app"

    def test_empty_budgets_rejected(self):
        with pytest.raises(ServiceError) as exc:
            AllocationRequest.build(fleet_id="f0", budgets_w=[])
        assert exc.value.code == "bad-request"

    def test_non_numeric_budgets_rejected(self):
        with pytest.raises(ServiceError) as exc:
            AllocationRequest.build(fleet_id="f0", budgets_w=["cheap"])
        assert exc.value.code == "bad-request"

    def test_sweep_validates_every_name(self):
        with pytest.raises(ServiceError) as exc:
            SweepRequest(
                fleet_id="f0", schemes=("naive", "nope"), budgets_w=(1e4,)
            )
        assert exc.value.code == "unknown-scheme"


class TestFleetSpec:
    def test_parse_shorthand(self):
        spec = FleetSpec.parse("ha8k:1920")
        assert (spec.system, spec.n_modules, spec.seed) == ("ha8k", 1920, 2015)
        spec = FleetSpec.parse("ha8k:64:7", fleet_id="f9")
        assert (spec.n_modules, spec.seed, spec.fleet_id) == (64, 7, "f9")

    @pytest.mark.parametrize("text", ["ha8k", "ha8k:x", "a:1:2:3", ":"])
    def test_parse_rejects_malformed(self, text):
        with pytest.raises(ServiceError) as exc:
            FleetSpec.parse(text)
        assert exc.value.code == "bad-request"

    def test_device_counts_drive_n_modules(self):
        spec = FleetSpec(device_counts=(("cpu-a", 8), ("gpu-b", 24)))
        assert spec.n_modules == 32
        assert spec.is_hetero

    def test_disagreeing_totals_rejected(self):
        with pytest.raises(ServiceError):
            FleetSpec(n_modules=10, device_counts=(("cpu-a", 8),))

    def test_empty_fleet_rejected(self):
        with pytest.raises(ServiceError):
            FleetSpec(system="ha8k")


class TestTelemetryRequest:
    def test_sample_bounds(self):
        with pytest.raises(ServiceError):
            TelemetryRequest(samples=0)
        with pytest.raises(ServiceError):
            TelemetryRequest(samples=10_001)
        with pytest.raises(ServiceError):
            TelemetryRequest(interval_s=-1.0)


class TestServiceError:
    def test_wire_roundtrip(self):
        err = ServiceError("draining", "going down", retryable=True)
        back = ServiceError.from_wire(json.loads(json.dumps(err.to_wire())))
        assert (back.code, back.message, back.retryable) == (
            "draining",
            "going down",
            True,
        )

    def test_is_a_repro_error(self):
        from repro.errors import ReproError

        assert isinstance(ServiceError("internal", "x"), ReproError)
