"""Docs/code consistency: the documentation is executable.

docs/observability.md promises that every event type the code can emit
is documented there.  These tests enforce the promise in both
directions, check that each documented section lists every required
field, run the doctests embedded in the ``repro.observe`` modules, and
keep the README docs index pointing at pages that exist.

docs/serving.md goes further: it is a normative API reference whose
paired ``request``/``response`` blocks and ``python`` blocks are parsed
out of the page and executed, in document order, against live
in-process servers (:class:`TestServingDoc`).  A documented status code
or body field that the server does not produce fails the suite.
"""

import doctest
import http.client
import json
import re
from pathlib import Path

import pytest

import repro.observe.bus
import repro.observe.events
import repro.observe.export
import repro.observe.metrics
import repro.observe.reconstruct
import repro.observe.sinks
from repro.observe import EVENT_TYPES

REPO = Path(__file__).resolve().parent.parent
DOC = REPO / "docs" / "observability.md"

OBSERVE_MODULES = [
    repro.observe.events,
    repro.observe.metrics,
    repro.observe.sinks,
    repro.observe.bus,
    repro.observe.export,
    repro.observe.reconstruct,
]


def documented_event_sections() -> dict[str, str]:
    """Map event-type name -> its section body, from the schema doc."""
    text = DOC.read_text(encoding="utf-8")
    stream = text.split("## The event stream", 1)[1].split(
        "## Metrics registry", 1)[0]
    sections: dict[str, str] = {}
    parts = re.split(r"^### `(\w+)`$", stream, flags=re.MULTILINE)
    for name, body in zip(parts[1::2], parts[2::2]):
        sections[name] = body
    return sections


class TestEventSchemaDoc:
    def test_every_emitted_type_is_documented(self):
        missing = set(EVENT_TYPES) - set(documented_event_sections())
        assert not missing, (
            f"event types missing from docs/observability.md: {missing}"
        )

    def test_every_documented_type_exists_in_code(self):
        stale = set(documented_event_sections()) - set(EVENT_TYPES)
        assert not stale, (
            f"docs/observability.md documents unknown event types: {stale}"
        )

    def test_required_fields_listed_per_section(self):
        sections = documented_event_sections()
        for type_name, required in EVENT_TYPES.items():
            body = sections[type_name]
            for field in required:
                assert f"`{field}`" in body, (
                    f"docs section for {type_name!r} does not list the "
                    f"required field {field!r}"
                )


@pytest.mark.parametrize(
    "module", OBSERVE_MODULES, ids=lambda m: m.__name__
)
def test_observe_doctests(module):
    results = doctest.testmod(
        module,
        optionflags=doctest.NORMALIZE_WHITESPACE | doctest.ELLIPSIS,
    )
    assert results.attempted > 0, f"{module.__name__} has no doctests"
    assert results.failed == 0


class TestMetricsDoc:
    def test_every_emitted_metric_name_is_documented(self):
        """Every metric name the source emits must appear in the
        docs/observability.md metrics table."""
        doc = DOC.read_text(encoding="utf-8")
        src = REPO / "src" / "repro"
        emitted = set()
        # The instrumented namespaces; bare names in doctest examples
        # are illustrative and deliberately unprefixed.
        pattern = re.compile(
            r"(?:counter|gauge|histogram)\(\s*[\"']"
            r"((?:repro|machine)_[\w]+)[\"']"
        )
        for path in src.rglob("*.py"):
            emitted |= set(pattern.findall(path.read_text(encoding="utf-8")))
        missing = {
            name for name in emitted if f"`{name}`" not in doc
        }
        assert not missing, (
            f"metrics emitted but not documented in observability.md: "
            f"{sorted(missing)}"
        )

    def test_every_documented_metric_name_is_in_source(self):
        """The reverse: every metric a registry table of
        docs/observability.md names must appear in the source, so a
        deleted metric cannot stay documented."""
        doc = DOC.read_text(encoding="utf-8")
        documented = re.findall(
            r"^\| `((?:repro|machine)_\w+)` \| "
            r"(?:counter|gauge|histogram) \|",
            doc, flags=re.MULTILINE,
        )
        assert documented, "no metric rows found in observability.md"
        src = "\n".join(
            path.read_text(encoding="utf-8")
            for path in (REPO / "src" / "repro").rglob("*.py")
        )
        stale = [
            name for name in documented
            if not re.search(rf"\b{name}\b", src)
        ]
        assert not stale, (
            f"observability.md documents metrics no source emits: {stale}"
        )


class TestPerformanceDoc:
    DOC = REPO / "docs" / "performance.md"

    def test_documents_every_backend(self):
        from repro.accel import BACKENDS

        text = self.DOC.read_text(encoding="utf-8")
        for backend in BACKENDS:
            assert f"`{backend}`" in text, (
                f"docs/performance.md does not document backend "
                f"{backend!r}"
            )

    def test_documents_backend_and_warm_metrics(self):
        text = self.DOC.read_text(encoding="utf-8")
        for name in (
            "repro_backend_tasks_total",
            "repro_warm_start_rows_reused_total",
        ):
            assert name in text


# --------------------------------------------------------------------
# docs/serving.md: execute the documented API examples
# --------------------------------------------------------------------

SERVING = REPO / "docs" / "serving.md"

_BLOCK_RE = re.compile(r"```(request|response|python)\n(.*?)```", re.DOTALL)

#: Every error-envelope code the server can emit (docs must list all).
SERVE_ERROR_CODES = (
    "bad_request", "warm_unavailable", "not_found", "method_not_allowed",
    "conflict", "gone", "too_large", "quota_exceeded", "queue_full",
    "timeout", "internal", "deadline_exceeded", "draining",
)

#: Every route the server exposes (docs must show each one).
SERVE_ROUTES = (
    "GET /v1/healthz", "GET /v1/metrics", "POST /v1/jobs",
    "GET /v1/jobs/{id}", "GET /v1/jobs/{id}/result",
    "GET /v1/jobs/{id}/events", "DELETE /v1/jobs/{id}",
)


def serving_blocks() -> list[tuple[str, str]]:
    """The page's fenced example blocks, in document order."""
    text = SERVING.read_text(encoding="utf-8")
    return _BLOCK_RE.findall(text)


def _parse_request(body: str) -> tuple[str, str, dict, str]:
    """Split a ``request`` block into method, path, headers, payload."""
    lines = body.splitlines()
    method, _, path = lines[0].partition(" ")
    headers: dict[str, str] = {}
    i = 1
    while i < len(lines) and lines[i].strip():
        name, _, value = lines[i].partition(":")
        headers[name.strip()] = value.strip()
        i += 1
    payload = "\n".join(lines[i + 1:]).strip()
    return method, path, headers, payload


def _parse_response(body: str):
    """Split a ``response`` block into status and body pattern."""
    lines = body.splitlines()
    status = int(lines[0].strip())
    rest = "\n".join(lines[1:]).strip()
    return status, json.loads(rest) if rest else None


def _subset_match(pattern, actual, bindings: dict, where: str) -> None:
    """Assert ``actual`` matches the documented ``pattern``.

    ``"..."`` matches anything; ``"{name}"`` matches any value and
    binds it; dicts match as subsets; lists match elementwise.
    """
    if isinstance(pattern, str):
        if pattern == "...":
            return
        m = re.fullmatch(r"\{(\w+)\}", pattern)
        if m:
            bindings[m.group(1)] = actual
            return
        assert pattern == actual, f"{where}: {actual!r} != {pattern!r}"
    elif isinstance(pattern, dict):
        assert isinstance(actual, dict), (
            f"{where}: expected an object, got {actual!r}"
        )
        for key, sub in pattern.items():
            assert key in actual, f"{where}: response lacks key {key!r}"
            _subset_match(sub, actual[key], bindings, f"{where}.{key}")
    elif isinstance(pattern, list):
        assert isinstance(actual, list) and len(actual) == len(pattern), (
            f"{where}: expected a list of {len(pattern)}, got {actual!r}"
        )
        for i, (sub, item) in enumerate(zip(pattern, actual)):
            _subset_match(sub, item, bindings, f"{where}[{i}]")
    else:
        assert pattern == actual, f"{where}: {actual!r} != {pattern!r}"


def _substitute(path: str, bindings: dict) -> str:
    """Replace ``{name}`` placeholders in a request path."""
    def repl(m: re.Match) -> str:
        name = m.group(1)
        assert name in bindings, (
            f"request path {path!r} uses {{{name}}} before any response "
            f"captured it"
        )
        return str(bindings[name])

    return re.sub(r"\{(\w+)\}", repl, path)


def _http(base_url: str, method: str, path: str, headers: dict,
          payload: str) -> tuple[int, bytes]:
    """One request against a live server; returns (status, body)."""
    host, port = base_url.removeprefix("http://").rsplit(":", 1)
    conn = http.client.HTTPConnection(host, int(port), timeout=60)
    try:
        conn.request(method, path,
                     body=payload.encode("utf-8") if payload else None,
                     headers=headers)
        resp = conn.getresponse()
        return resp.status, resp.read()
    finally:
        conn.close()


@pytest.fixture(scope="module")
def serving_servers():
    """The two live servers serving.md's examples are written against."""
    from repro.serve import ServeConfig, serve_in_thread

    main_cfg = ServeConfig(port=0, workers=1)
    drain_cfg = ServeConfig(port=0, workers=0, max_queue=3,
                            max_active_per_tenant=2)
    with serve_in_thread(main_cfg) as main:
        with serve_in_thread(drain_cfg) as drain:
            yield main.base_url, drain.base_url


class TestServingDoc:
    def test_documented_examples_execute(self, serving_servers):
        """Run every example block of serving.md, in document order."""
        base, drain = serving_servers
        bindings: dict = {}
        blocks = serving_blocks()
        assert blocks, "docs/serving.md has no example blocks"
        pending = None  # the request awaiting its response block
        for kind, body in blocks:
            if kind == "python":
                code = compile(body, str(SERVING), "exec")
                exec(code, {"BASE": base, "DRAIN": drain})  # noqa: S102
                continue
            if kind == "request":
                assert pending is None, (
                    "two consecutive request blocks in serving.md"
                )
                pending = _parse_request(body)
                continue
            assert pending is not None, (
                "response block without a preceding request in serving.md"
            )
            method, path, headers, payload = pending
            pending = None
            target = drain if headers.pop("Host", None) == "drain" else base
            status, raw = _http(target, method,
                                _substitute(path, bindings), headers,
                                payload)
            want_status, pattern = _parse_response(body)
            label = f"{method} {path}"
            assert status == want_status, (
                f"{label}: documented status {want_status}, got {status}: "
                f"{raw[:400]!r}"
            )
            if pattern is not None:
                _subset_match(pattern, json.loads(raw), bindings, label)
        assert pending is None, "trailing request block without a response"

    def test_every_route_documented(self):
        text = SERVING.read_text(encoding="utf-8")
        for route in SERVE_ROUTES:
            assert f"`{route}`" in text, (
                f"docs/serving.md does not document the route {route!r}"
            )

    def test_every_error_code_documented(self):
        text = SERVING.read_text(encoding="utf-8")
        for code in SERVE_ERROR_CODES:
            assert f"`{code}`" in text, (
                f"docs/serving.md does not document error code {code!r}"
            )

    def test_frame_types_documented(self):
        """The NDJSON frame table must cover every frame the job store
        can record."""
        text = SERVING.read_text(encoding="utf-8")
        for frame_type in ("state", "iteration", "checkpoint", "retry"):
            assert f"`{frame_type}`" in text


# --------------------------------------------------------------------
# docs/incremental.md: execute the documented realignment walkthrough
# --------------------------------------------------------------------

INCREMENTAL = REPO / "docs" / "incremental.md"


class TestIncrementalDoc:
    def test_python_blocks_execute_in_order(self):
        """Run every ``python`` block of incremental.md in one shared
        namespace, in document order — the page is a living example."""
        text = INCREMENTAL.read_text(encoding="utf-8")
        blocks = [body for kind, body in _BLOCK_RE.findall(text)
                  if kind == "python"]
        assert blocks, "docs/incremental.md has no python blocks"
        namespace: dict = {}
        for i, body in enumerate(blocks):
            code = compile(body, f"{INCREMENTAL} (block {i})", "exec")
            exec(code, namespace)  # noqa: S102

    def test_knobs_table_matches_bpconfig(self):
        """Every knob the doc teaches must exist on BPConfig (and every
        warm-only BPConfig field must be taught)."""
        from repro.core.bp import BPConfig

        text = INCREMENTAL.read_text(encoding="utf-8")
        cfg = BPConfig()
        for name in ("active_tol", "active_max_frac", "round_every"):
            assert hasattr(cfg, name)
            assert f"`{name}`" in text, (
                f"docs/incremental.md does not document BPConfig.{name}"
            )

    def test_cli_flags_match_doc(self):
        """The realign flags the doc teaches must exist on the parser."""
        from repro.cli import build_parser

        args = build_parser().parse_args(
            ["realign", "dir", "--delta", "d.json", "--state", "s.npz",
             "--save-state", "s2.npz", "--output", "pairs.tsv"]
        )
        assert args.delta == "d.json"
        assert args.state == "s.npz"
        assert args.save_state == "s2.npz"


class TestDocsIndex:
    def test_readme_links_every_docs_page(self):
        readme = (REPO / "README.md").read_text(encoding="utf-8")
        for page in sorted((REPO / "docs").glob("*.md")):
            assert f"docs/{page.name}" in readme, (
                f"README.md docs index does not link docs/{page.name}"
            )

    def test_linked_docs_pages_exist(self):
        readme = (REPO / "README.md").read_text(encoding="utf-8")
        for rel in re.findall(r"\((docs/[\w\-]+\.md)\)", readme):
            assert (REPO / rel).is_file(), f"README links missing page {rel}"


class TestVersion:
    def test_metadata_files_match_package_version(self):
        """pyproject.toml and CITATION.cff state ``repro.__version__``
        (read with a regex: tomllib needs Python 3.11)."""
        import repro

        pyproject = (REPO / "pyproject.toml").read_text(encoding="utf-8")
        citation = (REPO / "CITATION.cff").read_text(encoding="utf-8")
        project = pyproject.split("[project]", 1)[1].split("\n[", 1)[0]
        [toml_version] = re.findall(
            r'^version\s*=\s*"([^"]+)"', project, flags=re.MULTILINE)
        [cff_version] = re.findall(
            r"^version:\s*\"?([^\"\s]+)\"?\s*$", citation,
            flags=re.MULTILINE)
        assert toml_version == repro.__version__
        assert cff_version == repro.__version__
