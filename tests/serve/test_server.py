"""End-to-end server contract over real sockets.

One module-scoped server (port 0, so parallel test workers never
collide) backs the read-only endpoint tests; tests that need fresh
tenant state start their own short-lived server or use unique tenant
names.
"""

import http.client
import json

import pytest

from repro.serve.client import ServeError, SizingClient
from repro.serve.server import ServerThread


@pytest.fixture(scope="module")
def server():
    with ServerThread(base_seed=0) as srv:
        yield srv


@pytest.fixture()
def client(server):
    with SizingClient(server.host, server.port) as c:
        yield c


def _task(x=1024.0, **overrides):
    task = {"task_type": "align", "input_size_mb": x}
    task.update(overrides)
    return task


def _observation(x, slope=4.0, **overrides):
    obs = {
        "task_type": "align",
        "input_size_mb": float(x),
        "peak_memory_mb": slope * float(x) + 512.0,
        "runtime_hours": 0.1,
    }
    obs.update(overrides)
    return obs


class TestEndpoints:
    def test_healthz(self, client):
        payload = client.healthz()
        assert payload["status"] == "ok"
        assert payload["uptime_s"] >= 0.0

    def test_unknown_tenant_auto_creates(self, client):
        response = client.predict("fresh-tenant", [_task()])
        assert response["results"][0]["source"] == "preset"
        assert response["results"][0]["estimate_mb"] == 4096.0
        assert "fresh-tenant" in client.metrics()["registry"]["tenants"]

    def test_observe_feedback_changes_predictions_for_that_tenant_only(
        self, client
    ):
        before_a = client.predict("iso-a", [_task()])["results"][0]
        before_b = client.predict("iso-b", [_task()])["results"][0]
        client.observe(
            "iso-a", [_observation(x) for x in (200, 500, 900, 1400, 1900)]
        )
        after_a = client.predict("iso-a", [_task()])["results"][0]
        after_b = client.predict("iso-b", [_task()])["results"][0]
        # The observed tenant switched to its trained models...
        assert after_a["source"] == "model"
        assert after_a["estimate_mb"] != before_a["estimate_mb"]
        # ...while the untouched tenant's answer did not move at all.
        assert after_b == before_b

    def test_metrics_counts_requests(self, client):
        before = client.metrics()["server"]["requests"]
        client.healthz()
        client.predict("counter", [_task()])
        after = client.metrics()["server"]["requests"]
        assert after["healthz"] == before.get("healthz", 0) + 1
        assert after["predict"] == before.get("predict", 0) + 1

    def test_tenant_metrics_include_accuracy_and_wastage(self, client):
        client.observe(
            "metered",
            [
                _observation(x, allocated_mb=4.0 * x + 1024.0)
                for x in (300, 600, 900)
            ],
        )
        m = client.metrics()["registry"]["tenants"]["metered"]
        assert m["n_observations"] == 3
        assert m["wastage"]["total_gbh"] > 0.0
        assert m["model_accuracy"]  # one pool, scored per model class


class TestErrorContract:
    def test_malformed_json_is_typed_400(self, server):
        conn = http.client.HTTPConnection(server.host, server.port)
        conn.request(
            "POST",
            "/predict",
            body=b"{not json",
            headers={"Content-Type": "application/json"},
        )
        response = conn.getresponse()
        payload = json.loads(response.read())
        conn.close()
        assert response.status == 400
        assert payload["error"]["field"] == "body"

    def test_field_error_carries_field_path(self, client):
        with pytest.raises(ServeError) as exc:
            client.predict("alice", [{"task_type": "align"}])
        assert exc.value.status == 400
        assert exc.value.field == "tasks[0].input_size_mb"

    def test_unknown_path_404(self, client):
        with pytest.raises(ServeError) as exc:
            client._request("GET", "/nope")
        assert exc.value.status == 404

    def test_wrong_method_405(self, client):
        with pytest.raises(ServeError) as exc:
            client._request("GET", "/predict")
        assert exc.value.status == 405

    def test_inconsistent_observation_is_typed_400(self, client):
        with pytest.raises(ServeError) as exc:
            client.observe(
                "alice",
                [_observation(100.0, success=True, allocated_mb=1.0)],
            )
        assert exc.value.status == 400
        assert exc.value.field == "observations[0].allocated_mb"

    @pytest.mark.parametrize(
        "bad_peak", [float("nan"), 1e308], ids=["nan", "1e308"]
    )
    def test_nan_peak_is_typed_400_and_pool_stays_trainable(
        self, server, client, bad_peak
    ):
        # json.loads reads the bare NaN token that json.dumps writes; a
        # huge finite peak would overflow the tenant's models instead.
        tenant = f"bad-peak-{bad_peak}"
        bad = _observation(300.0, peak_memory_mb=bad_peak)
        body = json.dumps({"tenant": tenant, "observations": [bad]})
        conn = http.client.HTTPConnection(server.host, server.port)
        conn.request("POST", "/observe", body=body.encode())
        response = conn.getresponse()
        payload = json.loads(response.read())
        conn.close()
        assert response.status == 400
        assert payload["error"]["field"] == "observations[0].peak_memory_mb"

        valid = [_observation(x) for x in (200, 500, 900, 1400, 1900)]
        assert client.observe(tenant, valid)["n_observed"] == len(valid)
        session = server.server.registry.peek(tenant)
        (pool,) = session.predictor.pools.values()
        assert pool.n_observations == len(valid)
        assert pool._history.y.tolist() == [o["peak_memory_mb"] for o in valid]
        assert session.n_observations == len(valid)


class TestDeterminismAcrossRestarts:
    HISTORY = [(x, 4.0 * x + 512.0) for x in (150, 400, 800, 1200, 1700)]

    def _run_once(self) -> float:
        with ServerThread(base_seed=42) as srv, SizingClient(
            srv.host, srv.port
        ) as client:
            client.observe(
                "alice",
                [
                    {
                        "task_type": "align",
                        "input_size_mb": float(x),
                        "peak_memory_mb": peak,
                        "runtime_hours": 0.1,
                    }
                    for x, peak in self.HISTORY
                ],
            )
            return client.predict("alice", [_task()])["results"][0][
                "estimate_mb"
            ]

    def test_restart_reproduces_estimates(self):
        assert self._run_once() == self._run_once()


class TestEviction:
    def test_capacity_is_enforced_over_http(self):
        with ServerThread(max_tenants=2) as srv, SizingClient(
            srv.host, srv.port
        ) as client:
            for name in ("t0", "t1", "t2"):
                client.predict(name, [_task()])
            registry = client.metrics()["registry"]
            assert registry["n_tenants"] == 2
            assert registry["evictions"] == 1
            assert set(registry["tenants"]) == {"t1", "t2"}
