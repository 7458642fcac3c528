"""The wire decoder under hostile input: a 400, never a 500.

``problem_from_wire`` turns the ``problem`` member of a job submission
into a :class:`~repro.core.problem.NetworkAlignmentProblem`.  Whatever
JSON a client sends, it must either build a problem or raise
:class:`~repro.errors.ValidationError`, which the server answers with a
400 ``bad_request`` envelope.  Any other exception escapes as a 500.

* a Hypothesis test puts arbitrary JSON values — null, bools, huge and
  negative ints, floats including NaN and ±inf, strings, lists and
  objects — into each slot of a small valid wire problem; whatever it
  accepts, the per-row decoder it replaced
  (:func:`tests.oracles.problem_from_wire_loops`) builds with the same
  ``problem_digest``;
* the same equality on problems shaped like the ``serve_mix``
  benchmark's (power-law n=2000 and a 1% perturbation of it);
* a live-server test posts the bodies that used to answer 500 (or were
  admitted and then failed in the solver) and expects 400 envelopes;
* the same Hypothesis values go into each slot of a small valid edit
  script for :meth:`~repro.incremental.ProblemDelta.from_dict` (what
  ``realign --delta`` reads): it builds a delta or raises
  ``ValidationError``, whatever it accepts the per-row decoder that
  :meth:`~repro.incremental.ProblemDelta.build` once was
  (:func:`tests.oracles.delta_build_loops`) builds the same, and
  applying it raises nothing else; ``build`` itself decodes through
  ``from_dict`` and refuses the same hostile scripts.

Huge ints here lie outside ``[0, 3037000499]``, the range ``n`` may
take.  A vertex count inside it but far above the body's size still
allocates O(n) memory before any check; bounding that is a separate
change (ROADMAP.md, "Results that prove themselves"), so such counts
are not drawn.
"""

import copy
import http.client
import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro
from repro.core.problem import NetworkAlignmentProblem
from repro.errors import ValidationError
from repro.generators.perturb import edit_script
from repro.incremental import ProblemDelta
from repro.serve import (
    ServeConfig,
    problem_digest,
    problem_from_wire,
    problem_to_wire,
    serve_in_thread,
)
from tests.oracles import delta_build_loops, problem_from_wire_loops

BASE = {
    "a": {"n": 3, "edges": [[0, 1], [1, 2]]},
    "b": {"n": 3, "edges": [[0, 1], [1, 2], [0, 2]]},
    "l": {"edges": [[0, 0, 1.0], [1, 1, 0.5], [2, 2, 2.0], [0, 1, 0.25]]},
    "alpha": 1.0,
    "beta": 2.0,
    "name": "fuzz",
}

#: Paths into BASE: ``n``, an edge row, a row element, a weight,
#: ``alpha``, ``beta`` and whole members.
SLOTS = [
    ("a", "n"), ("b", "n"),
    ("a", "edges", 1), ("l", "edges", 2),
    ("a", "edges", 0, 0), ("b", "edges", 2, 1), ("l", "edges", 1, 0),
    ("l", "edges", 3, 1),
    ("l", "edges", 0, 2), ("l", "edges", 3, 2),
    ("alpha",), ("beta",),
    ("a",), ("b",), ("l",), ("a", "edges"), ("l", "edges"), ("name",),
]

HUGE_INTS = [2**63 - 1, 2**63, 2**64, 10**30, 10**400,
             -1, -(2**63), -(2**63) - 1, -(10**30)]

scalars = (
    st.none()
    | st.booleans()
    | st.integers(-4, 4)
    | st.sampled_from(HUGE_INTS)
    | st.floats(allow_nan=True, allow_infinity=True)
    | st.sampled_from([0.5, 1.0, 2.0, -0.0, 1e300])
    | st.text(max_size=4)
)
json_values = st.recursive(
    scalars,
    lambda children: (st.lists(children, max_size=4)
                      | st.dictionaries(st.text(max_size=3), children,
                                        max_size=3)),
    max_leaves=10,
)


def _put(doc, path, value):
    target = doc
    for key in path[:-1]:
        target = target[key]
    target[path[-1]] = value


@settings(max_examples=400, deadline=None)
@given(edits=st.lists(st.tuples(st.sampled_from(SLOTS), json_values),
                      min_size=1, max_size=2))
def test_decoder_builds_a_problem_or_raises_validation_error(edits):
    doc = copy.deepcopy(BASE)
    for path, value in edits:
        try:
            _put(doc, path, value)
        except (TypeError, KeyError, IndexError):
            pass  # an earlier edit replaced this slot's parent
    try:
        problem = problem_from_wire(doc)
    except ValidationError:
        return
    assert isinstance(problem, NetworkAlignmentProblem)
    digest = problem_digest(problem)
    assert problem_digest(problem_from_wire_loops(doc)) == digest
    # What decodes re-encodes to the same content address.
    assert problem_digest(problem_from_wire(problem_to_wire(problem))) \
        == digest


@pytest.mark.parametrize("seed", [11, 12])
def test_serve_mix_shaped_problems_decode_as_before(seed):
    base = repro.powerlaw_alignment_instance(
        n=2000, expected_degree=6.0, p_perturb=8.0 / 2000, seed=seed).problem
    edited = base.apply_delta(edit_script(
        base, l_edge_rate=0.01, weight_rate=0.01, seed=seed))[0]
    for problem in (base, edited):
        doc = json.loads(json.dumps(problem_to_wire(problem)))
        assert problem_digest(problem_from_wire(doc)) == \
            problem_digest(problem_from_wire_loops(doc)) == \
            problem_digest(problem)


def test_integral_float_ids_are_still_vertex_ids():
    doc = copy.deepcopy(BASE)
    doc["a"]["edges"] = [[0.0, 1.0], [1, 2.0]]
    doc["l"]["edges"][0][:2] = [0.0, 0.0]
    assert problem_digest(problem_from_wire(doc)) == \
        problem_digest(problem_from_wire(BASE))


#: Bodies that answered 500 ``internal`` (escaping TypeError, ValueError
#: or OverflowError), were admitted and then failed in the solver
#: (non-finite α/β), or were coerced to another vertex (0.7, "1").
HOSTILE = {
    "null id": ("a", "edges", [[None, 1]]),
    "string id": ("a", "edges", [["x", 1]]),
    "nested id": ("l", "edges", [[[0], 0, 1.0]]),
    "string weight": ("l", "edges", [[0, 0, "x"]]),
    "null weight": ("l", "edges", [[0, 0, None]]),
    "string alpha": (None, "alpha", "x"),
    "huge id": ("a", "edges", [[10**30, 1]]),
    "nan alpha": (None, "alpha", float("nan")),
    "infinite beta": (None, "beta", float("inf")),
    "fractional id": ("a", "edges", [[0.7, 2]]),
    "numeric-string id": ("a", "edges", [["1", 2]]),
}


def _post(base_url, body):
    """POST one job body; returns (status, decoded JSON)."""
    host, port = base_url.removeprefix("http://").rsplit(":", 1)
    conn = http.client.HTTPConnection(host, int(port), timeout=60)
    try:
        conn.request("POST", "/v1/jobs?wait=1", body=body)
        resp = conn.getresponse()
        return resp.status, json.loads(resp.read())
    finally:
        conn.close()


@pytest.fixture(scope="module")
def server():
    with serve_in_thread(ServeConfig(port=0, workers=1)) as srv:
        yield srv


@pytest.mark.parametrize("case", sorted(HOSTILE))
def test_hostile_body_answers_400(server, case):
    member, key, value = HOSTILE[case]
    problem = copy.deepcopy(BASE)
    (problem if member is None else problem[member])[key] = value
    # json.dumps writes NaN/Infinity literals, which json.loads accepts.
    body = json.dumps({"method": "bp", "config": {"n_iter": 2},
                       "problem": problem}).encode()
    status, doc = _post(server.base_url, body)
    assert status == 400, doc
    assert doc["api_version"] == "v1"
    assert doc["error"]["code"] == "bad_request"
    assert doc["error"]["message"].startswith("problem.")


#: A valid edit script against BASE.
DELTA = {
    "l_add": [[1, 0, 0.75]], "l_drop": [[2, 2]], "l_reweight": [[0, 0, 3.0]],
    "a_add": [[0, 2]], "a_drop": [[0, 1]], "b_add": [], "b_drop": [[0, 2]],
}

#: Paths into DELTA: whole fields, a row, an id and a weight.
DELTA_SLOTS = [
    ("l_add",), ("l_drop",), ("b_add",),
    ("l_add", 0), ("a_drop", 0), ("b_drop", 0),
    ("l_add", 0, 0), ("l_add", 0, 1), ("l_drop", 0, 1), ("a_add", 0, 0),
    ("l_add", 0, 2), ("l_reweight", 0, 2),
]


@settings(max_examples=400, deadline=None)
@given(edits=st.lists(st.tuples(st.sampled_from(DELTA_SLOTS), json_values),
                      min_size=1, max_size=2))
def test_delta_decoder_builds_a_delta_or_raises_validation_error(edits):
    doc = copy.deepcopy(DELTA)
    for path, value in edits:
        try:
            _put(doc, path, value)
        except (TypeError, KeyError, IndexError):
            pass  # an earlier edit replaced this slot's parent
    try:
        delta = ProblemDelta.from_dict(doc)
    except ValidationError:
        return
    assert delta.to_dict() == delta_build_loops(**doc).to_dict()
    try:
        problem_from_wire(BASE).apply_delta(delta)
    except ValidationError:
        pass


#: Edit scripts ``from_dict`` and ``build`` once truncated (1.5 → 1,
#: 0.7 → 0) or let escape as ValueError, TypeError or OverflowError.
HOSTILE_DELTAS = {
    "fractional id": {"l_add": [[1.5, 2, 3.0]]},
    "fractional drop": {"l_drop": [[0.7, 1]]},
    "string id": {"a_add": [["x", 2]]},
    "non-list member": {"b_drop": [3]},
    "non-list field": {"l_reweight": 7},
    "id past int64": {"a_drop": [[2**63, 1]]},
}


@pytest.mark.parametrize("case", sorted(HOSTILE_DELTAS))
def test_hostile_delta_raises_validation_error(case):
    doc = HOSTILE_DELTAS[case]
    [field] = doc
    with pytest.raises(ValidationError, match=field):
        ProblemDelta.from_dict(doc)
    with pytest.raises(ValidationError, match=field):
        ProblemDelta.build(**doc)
