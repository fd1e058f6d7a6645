import json
import math
import sys
import threading
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer

import pytest
import requests

from distilrank.errors import BudgetError, TransportError
from distilrank.llm import LlmClient, LlmConfig, RetryPolicy, estimate_cost

FAST_RETRY = RetryPolicy(max_attempts=5, backoff_base=0.001, backoff_factor=1.0)


class TestSettings:
    """Teacher settings under which every request would fail, or the spend cap
    and prices would be meaningless."""

    @pytest.mark.parametrize("kwargs, message", [
        ({"max_attempts": 0}, "max_attempts must be >= 1, got 0"),
        ({"max_attempts": -1}, "max_attempts must be >= 1, got -1"),
        ({"backoff_base": -1.0}, "backoff_base must be finite and >= 0, got -1.0"),
        ({"backoff_base": float("inf")}, "backoff_base must be finite and >= 0, got inf"),
        ({"backoff_factor": -0.5}, "backoff_factor must be finite and >= 0, got -0.5"),
        ({"backoff_factor": float("nan")}, "backoff_factor must be finite and >= 0, got nan"),
    ])
    def test_retry_policy_rejects(self, kwargs, message):
        with pytest.raises(ValueError, match=message):
            RetryPolicy(**kwargs)

    def test_retry_policy_boundaries_accepted(self):
        assert RetryPolicy(max_attempts=1, backoff_base=0.0, backoff_factor=0.0).max_attempts == 1

    @pytest.mark.parametrize("timeout", [0.0, -1.0, float("inf"), float("nan")])
    def test_timeout_must_be_finite_and_positive(self, timeout):
        with pytest.raises(ValueError, match="timeout_s must be finite and > 0"):
            LlmConfig(endpoint="http://127.0.0.1:1/unused", timeout_s=timeout)

    @pytest.mark.parametrize("kwargs, message", [
        ({"budget_usd": float("nan")}, r"budget must be >= 0 \(inf for no cap\), got nan"),
        ({"budget_usd": -1.0}, r"budget must be >= 0 \(inf for no cap\), got -1.0"),
        ({"prompt_price_per_1k": float("nan")}, "prompt_price_per_1k must be finite and >= 0"),
        ({"prompt_price_per_1k": float("inf")}, "prompt_price_per_1k must be finite and >= 0"),
        ({"prompt_price_per_1k": -0.1}, "prompt_price_per_1k must be finite and >= 0"),
        ({"completion_price_per_1k": float("nan")},
         "completion_price_per_1k must be finite and >= 0"),
        ({"completion_price_per_1k": float("-inf")},
         "completion_price_per_1k must be finite and >= 0"),
        ({"temperature": float("nan")}, "temperature must be finite and >= 0, got nan"),
        ({"temperature": float("inf")}, "temperature must be finite and >= 0, got inf"),
        ({"temperature": -0.5}, "temperature must be finite and >= 0, got -0.5"),
    ])
    def test_spend_and_sampling_settings_rejected(self, kwargs, message):
        with pytest.raises(ValueError, match=message):
            LlmConfig(endpoint="http://127.0.0.1:1/unused", **kwargs)

    def test_spend_and_sampling_boundaries_accepted(self):
        config = LlmConfig(endpoint="http://127.0.0.1:1/unused", budget_usd=0.0, temperature=0.0,
                           prompt_price_per_1k=0.0, completion_price_per_1k=0.0)
        assert config.budget_usd == 0.0
        assert LlmConfig(endpoint="http://127.0.0.1:1/unused").budget_usd == math.inf


class _Script:
    """Serves a scripted sequence of (status, text) responses and records requests."""

    def __init__(self, responses):
        self.responses = list(responses)
        self.requests = []


class _Handler(BaseHTTPRequestHandler):
    script: _Script = None

    def do_POST(self):
        length = int(self.headers.get("Content-Length", 0))
        body = json.loads(self.rfile.read(length))
        self.script.requests.append({"body": body, "auth": self.headers.get("Authorization")})
        status, text = (
            self.script.responses.pop(0) if self.script.responses else (200, "fallback")
        )
        payload = json.dumps(
            {"choices": [{"message": {"role": "assistant", "content": text}}]}
        ).encode()
        self.send_response(status)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(payload)))
        self.end_headers()
        self.wfile.write(payload)

    def log_message(self, *args):
        pass


@pytest.fixture
def server():
    script = _Script([])
    handler = type("Handler", (_Handler,), {"script": script})
    httpd = ThreadingHTTPServer(("127.0.0.1", 0), handler)
    thread = threading.Thread(target=httpd.serve_forever, daemon=True)
    thread.start()
    yield script, f"http://127.0.0.1:{httpd.server_port}/v1/chat/completions"
    httpd.shutdown()
    httpd.server_close()


MESSAGES = [{"role": "user", "content": "rank these passages"}]


class TestEstimateCost:
    def test_empty_messages(self):
        assert estimate_cost([], 0.003, 0.004) == 0.0

    def test_prompt_only_fixture(self):
        # 4000 chars -> 1000 tokens -> $0.003 at $0.003/1K
        messages = [{"role": "user", "content": "x" * 4000}]
        assert estimate_cost(messages, 0.003, 0.0) == pytest.approx(0.003)

    def test_completion_entries(self):
        # 30 entries * 6 chars = 180 chars -> 45 tokens
        cost = estimate_cost([], 0.0, 0.004, completion_entries=30)
        assert cost == pytest.approx(45 / 1000 * 0.004)

    def test_full_scale_order_of_magnitude(self):
        # 20,000 calls of 30 passages (~120 words ~ 750 chars each) should land
        # in the low hundreds of dollars at 2023 prices, not cents or thousands
        per_call = estimate_cost(
            [{"role": "user", "content": "x" * (30 * 750)}], 0.003, 0.004, completion_entries=30
        )
        total = 20_000 * per_call
        assert 100 <= total <= 700


class TestCall:
    def config(self, url, **kwargs):
        kwargs.setdefault("retry", FAST_RETRY)
        return LlmConfig(endpoint=url, **kwargs)

    def test_returns_first_choice_content(self, server):
        script, url = server
        script.responses[:] = [(200, "[2] > [1]")]
        client = LlmClient(self.config(url))
        assert client.call(MESSAGES) == "[2] > [1]"
        assert script.requests[0]["body"]["model"] == "gpt-3.5-turbo-16k-0613"
        assert script.requests[0]["body"]["temperature"] == 0.0

    def test_retries_on_429_then_succeeds(self, server):
        script, url = server
        script.responses[:] = [(429, ""), (429, ""), (200, "ok")]
        client = LlmClient(self.config(url))
        assert client.call(MESSAGES) == "ok"
        assert len(script.requests) == 3
        assert [a["status"] for a in client.attempts] == [429, 429, 200]

    def test_budget_zero_sends_nothing(self, server):
        script, url = server
        client = LlmClient(self.config(url, budget_usd=0.0))
        with pytest.raises(BudgetError):
            client.call(MESSAGES)
        assert script.requests == []

    def test_budget_accumulates_across_calls(self, server):
        script, url = server
        script.responses[:] = [(200, "a"), (200, "b")]
        # budget covers roughly one call of this size, not two
        one_call = estimate_cost(MESSAGES, 0.003, 0.004)
        client = LlmClient(self.config(url, budget_usd=one_call * 1.5))
        client.call(MESSAGES)
        with pytest.raises(BudgetError):
            client.call(MESSAGES)
        assert len(script.requests) == 1

    def test_retries_exhausted(self, server):
        script, url = server
        script.responses[:] = [(503, "")] * 5
        client = LlmClient(self.config(url))
        with pytest.raises(TransportError, match="5 attempts"):
            client.call(MESSAGES)
        assert len(script.requests) == 5

    def test_non_retryable_status_fails_fast(self, server):
        script, url = server
        script.responses[:] = [(401, "")]
        client = LlmClient(self.config(url))
        with pytest.raises(TransportError, match="401"):
            client.call(MESSAGES)
        assert len(script.requests) == 1

    def test_bearer_token_from_env(self, server, monkeypatch):
        script, url = server
        script.responses[:] = [(200, "ok")]
        monkeypatch.setenv("DISTILRANK_API_KEY", "secret-key")
        LlmClient(self.config(url)).call(MESSAGES)
        assert script.requests[0]["auth"] == "Bearer secret-key"

    def test_no_token_no_header(self, server, monkeypatch):
        script, url = server
        script.responses[:] = [(200, "ok")]
        monkeypatch.delenv("DISTILRANK_API_KEY", raising=False)
        LlmClient(self.config(url)).call(MESSAGES)
        assert script.requests[0]["auth"] is None

    def test_attempt_log_file(self, server, tmp_path):
        script, url = server
        script.responses[:] = [(429, ""), (200, "ok")]
        log_path = tmp_path / "llm.log"
        LlmClient(self.config(url), log_path=str(log_path)).call(MESSAGES)
        lines = [json.loads(l) for l in log_path.read_text().splitlines()]
        assert [l["status"] for l in lines] == [429, 200]

    def test_unreachable_endpoint(self):
        client = LlmClient(
            LlmConfig(endpoint="http://127.0.0.1:9/nothing", retry=FAST_RETRY, timeout_s=0.2)
        )
        with pytest.raises(TransportError):
            client.call(MESSAGES)


class _FakeResponse:
    status_code = 200

    def __init__(self, text):
        self._text = text

    def json(self):
        return {"choices": [{"message": {"role": "assistant", "content": self._text}}]}


def test_concurrent_calls_cannot_overspend_budget(monkeypatch):
    # every POST stays in flight until all four callers have checked the budget
    posts = []
    all_checked = threading.Event()

    def slow_post(url, json, headers, timeout):
        posts.append(json)
        all_checked.wait(timeout=5.0)
        return _FakeResponse("ok")

    monkeypatch.setattr("distilrank.llm.requests.post", slow_post)
    one_call = estimate_cost(MESSAGES, 0.003, 0.004)
    client = LlmClient(LlmConfig(endpoint="http://mock.invalid/v1", budget_usd=one_call * 1.5,
                                 retry=FAST_RETRY))
    start = threading.Barrier(4)
    outcomes = []
    outcomes_lock = threading.Lock()

    def caller():
        start.wait(timeout=5.0)
        try:
            client.call(MESSAGES)
            result = "sent"
        except BudgetError:
            result = "refused"
        with outcomes_lock:
            outcomes.append(result)
            if len(outcomes) == 3:
                all_checked.set()

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=caller) for _ in range(4)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=10.0)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    assert len(posts) == 1
    assert sorted(outcomes) == ["refused", "refused", "refused", "sent"]
    assert 0.0 < client.spent_usd <= client.config.budget_usd


def test_failed_call_releases_its_reservation(monkeypatch):
    def refused_post(url, json, headers, timeout):
        raise requests.ConnectionError("connection refused")

    monkeypatch.setattr("distilrank.llm.requests.post", refused_post)
    client = LlmClient(LlmConfig(endpoint="http://mock.invalid/v1", retry=FAST_RETRY,
                                 budget_usd=estimate_cost(MESSAGES, 0.003, 0.004) * 1.5))
    with pytest.raises(TransportError):
        client.call(MESSAGES)
    assert client.spent_usd == 0.0
    monkeypatch.setattr("distilrank.llm.requests.post", lambda *a, **k: _FakeResponse("ok"))
    assert client.call(MESSAGES) == "ok"


class _Unparsable(_FakeResponse):
    def json(self):
        raise ValueError("Expecting value: line 1 column 1 (char 0)")


@pytest.mark.parametrize("reply", [_Unparsable(""), _FakeResponse(None), _FakeResponse(["a"])],
                         ids=["unparsable", "null-content", "list-content"])
def test_malformed_200_keeps_its_reservation_as_its_charge(monkeypatch, reply):
    monkeypatch.setattr("distilrank.llm.requests.post", lambda *a, **k: reply)
    one_call = estimate_cost(MESSAGES, 0.003, 0.004)
    client = LlmClient(LlmConfig(endpoint="http://mock.invalid/v1", budget_usd=one_call * 1.5,
                                 retry=FAST_RETRY))
    with pytest.raises(TransportError, match="malformed completion response"):
        client.call(MESSAGES)
    assert client.spent_usd == one_call
    with pytest.raises(BudgetError):
        client.call(MESSAGES)


def test_budget_error_prints_every_amount_to_four_decimals(monkeypatch):
    # a cap below one cent must not read as $0.00
    monkeypatch.setattr("distilrank.llm.requests.post", lambda *a, **k: _FakeResponse("ok"))
    messages = [{"role": "user", "content": "x" * 4000}]  # 1000 tokens: $0.0030 at $0.003/1K
    client = LlmClient(LlmConfig(endpoint="http://mock.invalid/v1", budget_usd=0.004,
                                 retry=FAST_RETRY))
    client.call(messages)  # charged $0.003004: the prompt plus a one-token reply
    with pytest.raises(BudgetError) as exc:
        client.call(messages)
    assert str(exc.value) == ("estimated call cost $0.0030 would exceed the $0.0040 budget "
                              "(spent or reserved $0.0030)")
