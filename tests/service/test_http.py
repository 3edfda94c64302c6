"""The HTTP/JSON API: routes, wire error taxonomy, keep-alive."""

from __future__ import annotations

import json
import urllib.error
import urllib.request
from http.client import HTTPConnection
from urllib.parse import urlsplit

import pytest

from repro.obs import MetricsRegistry, use_metrics

from _helpers import broken_job, tiny_job


def get(url: str):
    try:
        with urllib.request.urlopen(url) as resp:
            return resp.status, json.load(resp)
    except urllib.error.HTTPError as exc:
        return exc.code, json.load(exc)


def post(url: str, payload):
    body = json.dumps(payload).encode()
    req = urllib.request.Request(
        url, data=body, headers={"Content-Type": "application/json"})
    try:
        with urllib.request.urlopen(req) as resp:
            return resp.status, json.load(resp)
    except urllib.error.HTTPError as exc:
        return exc.code, json.load(exc)


class TestRoutes:
    def test_healthz(self, live_server):
        _, base = live_server
        status, payload = get(f"{base}/healthz")
        assert status == 200
        assert payload["ok"] is True
        assert "code_version" in payload["version"]

    def test_stats(self, live_server):
        _, base = live_server
        status, payload = get(f"{base}/stats")
        assert status == 200
        assert {"queue_depth", "workers", "counters",
                "resilience"} <= set(payload)

    def test_submit_single_job_and_fetch_result(self, live_server):
        service, base = live_server
        job = tiny_job(0)
        status, payload = post(f"{base}/jobs", job.to_dict())
        assert status == 200
        assert payload["count"] == 1
        job_id = payload["jobs"][0]["id"]
        assert job_id == job.content_hash()
        service.wait(job_id, timeout=60)
        status, result = get(f"{base}/jobs/{job_id}/result")
        assert status == 200
        assert result["id"] == job_id
        assert result["source"] == "simulated"
        assert result["result"]["breakdown"]["busy"] > 0

    def test_memo_hit_reports_retimed(self, live_server):
        service, base = live_server
        first = tiny_job(0)
        post(f"{base}/jobs", first.to_dict())
        service.wait(first.content_hash(), timeout=60)
        with use_metrics(MetricsRegistry()):
            status, payload = post(f"{base}/jobs", tiny_job(1).to_dict())
            _, stats = get(f"{base}/stats")
        assert status == 200
        (entry,) = payload["jobs"]
        assert entry["status"] == "done"
        assert entry["source"] == "retimed"
        _, result = get(f"{base}/jobs/{entry['id']}/result")
        assert result["source"] == "retimed"
        assert stats["counters"]["retimed"] == 1
        assert stats["metrics"]["counters"]["service.retimed"] == 1

    def test_submit_batch(self, live_server):
        service, base = live_server
        jobs = [tiny_job(i) for i in range(3)]
        status, payload = post(
            f"{base}/jobs", {"jobs": [j.to_dict() for j in jobs]})
        assert status == 200
        assert payload["count"] == 3
        assert [j["id"] for j in payload["jobs"]] == [
            j.content_hash() for j in jobs]

    def test_status_polling_shape(self, live_server):
        service, base = live_server
        job = tiny_job(1)
        post(f"{base}/jobs", job.to_dict())
        status, payload = get(f"{base}/jobs/{job.content_hash()}")
        assert status == 200
        assert payload["status"] in ("queued", "running", "done")
        assert payload["label"] == job.label


class TestErrorTaxonomy:
    def test_unknown_job_is_404(self, live_server):
        _, base = live_server
        status, payload = get(f"{base}/jobs/{'0' * 64}")
        assert status == 404
        assert payload["error"]["type"] == "UnknownJob"

    def test_unknown_path_is_404(self, live_server):
        _, base = live_server
        assert get(f"{base}/nope")[0] == 404
        assert post(f"{base}/nope", {})[0] == 404

    def test_malformed_spec_is_400(self, live_server):
        _, base = live_server
        status, payload = post(f"{base}/jobs", {"trace": {}})
        assert status == 400
        assert payload["error"]["type"] == "ConfigError"

    def test_invalid_geometry_is_400(self, live_server):
        _, base = live_server
        spec = tiny_job(0).to_dict()
        spec["machine"]["l2_size"] = 12345  # not a valid capacity
        status, payload = post(f"{base}/jobs", spec)
        assert status == 400
        assert payload["error"]["type"] == "ConfigError"

    def test_non_json_body_is_400(self, live_server):
        _, base = live_server
        req = urllib.request.Request(
            f"{base}/jobs", data=b"not json at all",
            headers={"Content-Type": "application/json"})
        with pytest.raises(urllib.error.HTTPError) as err:
            urllib.request.urlopen(req)
        assert err.value.code == 400

    def test_bad_batch_rejected_before_any_acceptance(self, live_server):
        service, base = live_server
        good, bad = tiny_job(2).to_dict(), {"trace": {}}
        status, _ = post(f"{base}/jobs", {"jobs": [good, bad]})
        assert status == 400
        assert service.get(tiny_job(2).content_hash()) is None

    def test_unfinished_result_is_409(self, make_service, live_server):
        service, base = live_server
        job = tiny_job(3)
        post(f"{base}/jobs", job.to_dict())
        # Immediately after submit the job may be queued or running;
        # either way the result endpoint must refuse with 409 until
        # it is finished (poll briefly in case it already completed).
        status, payload = get(f"{base}/jobs/{job.content_hash()}/result")
        if status == 409:
            assert payload["error"]["type"] == "NotFinished"
        else:
            assert status == 200  # raced to completion: also legal

    def test_failed_job_result_is_410(self, live_server):
        service, base = live_server
        job = broken_job()
        post(f"{base}/jobs", job.to_dict())
        service.wait(job.content_hash(), timeout=60)
        status, payload = get(f"{base}/jobs/{job.content_hash()}/result")
        assert status == 410
        assert payload["error"]["type"] == "JobFailed"


class TestScenarioSubmission:
    """Server-side ``{"scenario": name}`` expansion: a submission names
    a registered scenario and the service expands it to the ladder's
    content-addressed jobs."""

    def test_scenario_expands_to_the_ladder(self, live_server):
        from repro.scenario import get_scenario

        service, base = live_server
        status, payload = post(
            f"{base}/jobs", {"scenario": "tpcb-uni", "scale": 256,
                             "txns": 10})
        assert status == 200
        assert payload["count"] == 3
        # The server-side expansion hashes exactly as a client-side one
        # would: job identity is process-independent.
        expected = get_scenario("tpcb-uni").jobs(scale=256, txns=10)
        assert [j["id"] for j in payload["jobs"]] == [
            j.content_hash() for j in expected]
        service.wait(expected[0].content_hash(), timeout=60)
        status, result = get(
            f"{base}/jobs/{expected[0].content_hash()}/result")
        assert status == 200
        assert result["result"]["breakdown"]["busy"] > 0

    def test_resubmission_hits_the_same_ids(self, live_server):
        _, base = live_server
        spec = {"scenario": "read-heavy-uni", "scale": 256, "txns": 8}
        _, first = post(f"{base}/jobs", spec)
        _, second = post(f"{base}/jobs", spec)
        assert [j["id"] for j in first["jobs"]] == [
            j["id"] for j in second["jobs"]]

    def test_batch_mixes_scenarios_and_plain_jobs(self, live_server):
        _, base = live_server
        status, payload = post(f"{base}/jobs", {"jobs": [
            tiny_job(7).to_dict(),
            {"scenario": "tpcb-uni", "scale": 256, "txns": 10},
        ]})
        assert status == 200
        assert payload["count"] == 4
        assert payload["jobs"][0]["id"] == tiny_job(7).content_hash()

    def test_unknown_scenario_is_400_listing_the_menu(self, live_server):
        _, base = live_server
        status, payload = post(f"{base}/jobs", {"scenario": "no-such"})
        assert status == 400
        assert payload["error"]["type"] == "ConfigError"
        assert "tpcb-uni" in payload["error"]["message"]

    def test_bad_scenario_in_batch_accepts_nothing(self, live_server):
        service, base = live_server
        status, _ = post(f"{base}/jobs", {"jobs": [
            tiny_job(8).to_dict(),
            {"scenario": "no-such"},
        ]})
        assert status == 400
        assert service.get(tiny_job(8).content_hash()) is None

    def test_malformed_scenario_sizes_are_400(self, live_server):
        _, base = live_server
        status, payload = post(
            f"{base}/jobs", {"scenario": "tpcb-uni", "txns": "lots"})
        assert status == 400
        assert payload["error"]["type"] == "ConfigError"


class TestTransport:
    def test_keep_alive_serves_many_requests_per_connection(
            self, live_server):
        _, base = live_server
        parts = urlsplit(base)
        conn = HTTPConnection(parts.hostname, parts.port, timeout=10)
        try:
            for _ in range(5):
                conn.request("GET", "/healthz")
                resp = conn.getresponse()
                assert resp.status == 200
                resp.read()
        finally:
            conn.close()

    def test_draining_service_refuses_submissions_with_503(
            self, live_server):
        service, base = live_server
        service.close()
        status, payload = post(f"{base}/jobs", tiny_job(9).to_dict())
        assert status == 503
        assert payload["error"]["type"] == "ServiceUnavailableError"
