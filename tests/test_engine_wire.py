"""Property tests for the service's versioned wire format.

The contract: any picklable job/result payload survives
serialize→deserialize bit-exactly — jobs through the submission
envelope, results through the job-results envelope clients download —
and malformed or version-mismatched envelopes are rejected with a clear
:class:`RemoteError`, never decoded into garbage.
"""

from __future__ import annotations

import json
import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.engine.batch import Job, job
from repro.engine.remote.wire import (
    PROTOCOL_VERSION,
    WireJob,
    WireResult,
    decode_job_results,
    decode_result_entries,
    decode_submit,
    encode_job_results,
    encode_result_entries,
    encode_submit,
)
from repro.errors import RemoteError

# Arbitrary picklable, equality-comparable payload data.  NaN is excluded
# because x != x would break the equality-based round-trip assertion (the
# wire itself carries NaN fine — pickle is exact).
_scalars = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(),
    st.floats(allow_nan=False),
    st.text(max_size=20),
    st.binary(max_size=20),
)
_payloads = st.recursive(
    _scalars,
    lambda children: st.one_of(
        st.lists(children, max_size=4),
        st.tuples(children, children),
        st.dictionaries(st.text(max_size=8), children, max_size=4),
        st.frozensets(st.integers(), max_size=4),
    ),
    max_leaves=16,
)

_labels = st.text(max_size=30)
_keys = st.one_of(st.none(), st.text(min_size=1, max_size=64))


def _job_of(args, kwargs, label) -> Job:
    return job(max, *args, label=label, **kwargs)


def _submit_round_trip(items):
    """Jobs through a submission envelope and back."""
    decoded, _label, _meta = decode_submit(encode_submit(items))
    return decoded


def _results_envelope(results):
    """One job's results as the coordinator serves them for download."""
    unit = {
        "unit": 0,
        "indices": list(range(len(results))),
        "results": encode_result_entries(results),
    }
    return encode_job_results("j1", complete=True, units=[unit])


def _results_round_trip(results):
    """Results through a job-results envelope and back."""
    _complete, _cancelled, [(_indices, decoded)] = decode_job_results(
        _results_envelope(results)
    )
    return decoded


class TestJobRoundTrip:
    @given(
        args=st.lists(_payloads, max_size=3),
        kwargs=st.dictionaries(
            st.from_regex(r"[a-z][a-z0-9_]{0,8}", fullmatch=True),
            _payloads,
            max_size=3,
        ),
        label=_labels,
        cache_key=_keys,
    )
    @settings(max_examples=60, deadline=None)
    def test_arbitrary_job_arguments_survive(
        self, args, kwargs, label, cache_key
    ):
        item = WireJob(job=_job_of(args, kwargs, label), cache_key=cache_key)
        [decoded] = _submit_round_trip([item])
        assert decoded.job == item.job
        assert decoded.job.args == tuple(args)
        assert dict(decoded.job.kwargs) == kwargs
        assert decoded.cache_key == cache_key

    def test_batch_order_is_preserved(self):
        items = [
            WireJob(job(max, i, i + 1, label=f"j{i}")) for i in range(7)
        ]
        decoded = _submit_round_trip(items)
        assert [d.job.label for d in decoded] == [f"j{i}" for i in range(7)]

    def test_function_identity_survives(self):
        [decoded] = _submit_round_trip([WireJob(job(max, 3, 5))])
        assert decoded.job.run() == 5


class TestResultRoundTrip:
    @given(value=_payloads, cached=st.booleans())
    @settings(max_examples=60, deadline=None)
    def test_arbitrary_values_survive(self, value, cached):
        [decoded] = _results_round_trip(
            [WireResult(ok=True, value=value, cached=cached)]
        )
        assert decoded.ok
        assert decoded.value == value
        assert decoded.cached == cached

    def test_special_floats_survive_exactly(self):
        values = [math.inf, -math.inf, 1e-323, -0.0]
        decoded = _results_round_trip(
            [WireResult(ok=True, value=v) for v in values]
        )
        assert [d.value for d in decoded] == values
        # pickle round-trips NaN too; assert via isnan, not equality.
        [nan] = _results_round_trip([WireResult(ok=True, value=math.nan)])
        assert math.isnan(nan.value)

    @given(message=st.text(max_size=40))
    @settings(max_examples=30, deadline=None)
    def test_exceptions_survive_with_type_and_message(self, message):
        [decoded] = _results_round_trip(
            [WireResult(ok=False, error=ValueError(message))]
        )
        assert not decoded.ok
        assert isinstance(decoded.error, ValueError)
        assert str(decoded.error) == message

    def test_unpicklable_exception_degrades_to_remote_error(self):
        class Local(Exception):
            """Defined in a function scope: unpicklable by design."""

        [decoded] = _results_round_trip(
            [WireResult(ok=False, error=Local("boom"))]
        )
        assert not decoded.ok
        assert isinstance(decoded.error, RemoteError)
        assert "Local" in str(decoded.error)
        assert "boom" in str(decoded.error)

    def test_expected_count_mismatch_rejected(self):
        entries = encode_result_entries([WireResult(ok=True, value=1)])
        with pytest.raises(RemoteError, match="1 results for 2 jobs"):
            decode_result_entries(entries, expected=2)


class TestEnvelopeValidation:
    @given(version=st.one_of(st.integers(), st.text(max_size=8), st.none()))
    @settings(max_examples=40, deadline=None)
    def test_unknown_protocol_versions_rejected(self, version):
        document = json.loads(encode_submit([WireJob(job(max, 1, 2))]))
        document["protocol"] = version
        data = json.dumps(document).encode()
        if version == PROTOCOL_VERSION:
            assert decode_submit(data)
            return
        with pytest.raises(RemoteError) as excinfo:
            decode_submit(data)
        # The error must name both versions so mixed fleets are debuggable.
        assert str(PROTOCOL_VERSION) in str(excinfo.value)
        assert repr(version) in str(excinfo.value)

    def test_wrong_kind_rejected(self):
        data = _results_envelope([WireResult(ok=True, value=1)])
        with pytest.raises(RemoteError, match="job-submit"):
            decode_submit(data)

    @pytest.mark.parametrize(
        "payload",
        [
            b"",
            b"not json at all",
            b"[1, 2, 3]",
            b'{"protocol": 2}',
            b'{"protocol": 2, "kind": "job-submit", "jobs": "nope"}',
            b'{"protocol": 2, "kind": "job-submit", "jobs": [{"payload": "!bad!"}]}',
        ],
    )
    def test_malformed_envelopes_rejected(self, payload):
        with pytest.raises(RemoteError):
            decode_submit(payload)

    def test_tampered_payload_rejected_not_misdecoded(self):
        document = json.loads(encode_submit([WireJob(job(max, 1, 2))]))
        document["jobs"][0]["payload"] = "AAAA"
        with pytest.raises(RemoteError):
            decode_submit(json.dumps(document).encode())

    def test_non_job_payload_rejected(self):
        document = json.loads(encode_submit([WireJob(job(max, 1, 2))]))
        import base64
        import pickle

        document["jobs"][0]["payload"] = base64.b64encode(
            pickle.dumps("not a job")
        ).decode()
        with pytest.raises(RemoteError, match="not a Job"):
            decode_submit(json.dumps(document).encode())


class TestServiceEnvelopes:
    """The version-2 analysis-service envelopes round-trip losslessly."""

    def test_submit_round_trip(self):
        from repro.engine.remote.wire import decode_submit, encode_submit

        items = [
            WireJob(job(max, 1, 2), cache_key="abc"),
            WireJob(job(max, 3, 4)),
        ]
        data = encode_submit(
            items, label="demo", meta={"jobset": "figure4", "argv": ["-x"]}
        )
        decoded, label, meta = decode_submit(data)
        assert label == "demo"
        assert meta == {"jobset": "figure4", "argv": ["-x"]}
        assert [w.cache_key for w in decoded] == ["abc", None]
        assert [w.job.run() for w in decoded] == [2, 4]

    def test_lease_round_trip_and_sentinels(self):
        from repro.engine.remote.wire import (
            decode_lease,
            encode_job_entries,
            encode_lease,
        )

        assert decode_lease(encode_lease(None)) is None
        # An empty answer to a waiting lease carries its marker; to an
        # older worker, which only reads "empty", it is a plain one.
        waited = encode_lease(None, waited=True)
        assert decode_lease(waited) == {"waited": True}
        assert json.loads(waited)["empty"] is True
        again = decode_lease(encode_lease({"unregistered": True}))
        assert again == {"unregistered": True}
        grant = {
            "job_id": "j1",
            "unit": 3,
            "fence": 7,
            "lease_seconds": 5.0,
            "jobs": encode_job_entries([WireJob(job(max, 4, 5))]),
        }
        decoded = decode_lease(encode_lease(grant))
        assert (decoded["job_id"], decoded["unit"], decoded["fence"]) == (
            "j1", 3, 7,
        )
        assert [w.job.run() for w in decoded["jobs"]] == [5]

    def test_lease_grant_needs_integer_fence(self):
        from repro.engine.remote.wire import decode_lease, encode_lease

        grant = {"job_id": "j1", "unit": 0, "fence": "7", "jobs": []}
        with pytest.raises(RemoteError, match="integer unit and fence"):
            decode_lease(encode_lease(grant))

    def test_unit_result_round_trip_keeps_entries_encoded(self):
        from repro.engine.remote.wire import (
            decode_result_entries,
            decode_unit_result,
            encode_unit_result,
        )

        data = encode_unit_result(
            worker_id="w-1",
            job_id="j1",
            unit=2,
            fence=4,
            results=[WireResult(ok=True, value={"x": 1}, cached=True)],
        )
        document = decode_unit_result(data)
        assert (document["worker_id"], document["job_id"]) == ("w-1", "j1")
        assert (document["unit"], document["fence"]) == (2, 4)
        # Entries arrive still encoded (the coordinator stores verbatim)…
        assert isinstance(document["results"][0]["payload"], str)
        # …and decode to the original values on demand.
        [result] = decode_result_entries(document["results"], expected=1)
        assert result.value == {"x": 1} and result.cached

    def test_job_results_round_trip(self):
        from repro.engine.remote.wire import (
            decode_job_results,
            encode_job_results,
            encode_result_entries,
        )

        units = [
            {
                "unit": 0,
                "indices": [0, 2],
                "results": encode_result_entries(
                    [WireResult(ok=True, value=1), WireResult(ok=True, value=3)]
                ),
            },
            {
                "unit": 1,
                "indices": [1],
                "results": encode_result_entries(
                    [WireResult(ok=False, error=ValueError("bad"))]
                ),
            },
        ]
        complete, cancelled, decoded = decode_job_results(
            encode_job_results("j1", complete=True, units=units)
        )
        assert complete
        assert not cancelled
        assert decoded[0][0] == [0, 2]
        assert [r.value for r in decoded[0][1]] == [1, 3]
        assert decoded[1][0] == [1]
        assert isinstance(decoded[1][1][0].error, ValueError)

    def test_job_results_index_result_count_mismatch_rejected(self):
        from repro.engine.remote.wire import (
            decode_job_results,
            encode_job_results,
            encode_result_entries,
        )

        units = [
            {
                "unit": 0,
                "indices": [0, 1],
                "results": encode_result_entries([WireResult(ok=True, value=1)]),
            }
        ]
        with pytest.raises(RemoteError, match="1 results for 2"):
            decode_job_results(
                encode_job_results("j1", complete=False, units=units)
            )

    def test_cancel_envelope_round_trips(self):
        # Both protocol sides of CANCEL_KIND: the client encodes the
        # body, the coordinator's cancel handler version-checks it.
        from repro.engine.remote.wire import decode_document, encode_document
        from repro.service.coordinator import CANCEL_KIND

        body = encode_document(CANCEL_KIND, {"job_id": "j1"})
        document = decode_document(body, CANCEL_KIND)
        assert document["job_id"] == "j1"
        with pytest.raises(RemoteError):
            decode_document(body, "some-other-kind")

    def test_completion_ack_round_trips(self):
        # UNIT_ACCEPTED_KIND: the coordinator encodes the fence verdict,
        # the pull worker decodes it to learn whether its result landed.
        from repro.engine.remote.wire import decode_document, encode_document
        from repro.service.coordinator import UNIT_ACCEPTED_KIND

        for accepted in (True, False):
            ack = encode_document(UNIT_ACCEPTED_KIND, {"accepted": accepted})
            assert (
                decode_document(ack, UNIT_ACCEPTED_KIND)["accepted"]
                is accepted
            )
