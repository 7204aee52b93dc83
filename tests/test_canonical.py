"""Canonical trace bytes, and every way of building an operation.

Each operation is built exactly once — by a factory, the record reader,
the simulator, or :class:`TraceBuilder` — and the canonical JSONL is
written without ``json.dumps``.  These properties pin both against the
obvious reference: every construction path yields equal, equally hashed,
immutable values; ``to_jsonl`` is byte-identical to ``json.dumps`` of
:func:`operation_to_record` per line; and malformed records fail (strict)
or are skipped (lenient) exactly as before.
"""

import hashlib
import json
import os
import tempfile
import warnings

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.apps.paper_traces import figure4_trace
from repro.core import operations as opcodes
from repro.core.operations import OpKind, Operation
from repro.core.trace import (
    ExecutionTrace,
    TraceBuilder,
    TraceFormatError,
    operation_from_record,
    operation_to_record,
)
from tests.test_property import run_random_app

SUPPRESS = [HealthCheck.too_slow, HealthCheck.data_too_large]

#: Characters JSON must escape or that ``ensure_ascii`` rewrites: quotes,
#: backslashes, control characters, a lone surrogate, BMP and astral
#: non-ASCII.
_TRICKY = '"\\/\b\f\n\r\t\x00\x1f\x7fé  \ud800\U0001f600漢'

names = st.text(
    alphabet=st.one_of(st.characters(), st.sampled_from(_TRICKY)),
    min_size=1,
    max_size=10,
)
optional_names = st.one_of(st.none(), names)


def reference_jsonl(ops) -> str:
    return (
        "\n".join(json.dumps(operation_to_record(op), sort_keys=True) for op in ops)
        + "\n"
    )


@st.composite
def op_specs(draw):
    """``(factory, args, kwargs)`` triples of a valid trace that uses every
    op-code, with drawn names, delays, front posts, events, and sources."""
    main, worker = draw(st.lists(names, min_size=2, max_size=2, unique=True))
    lock = draw(names)
    locations = draw(st.lists(names, min_size=1, max_size=3, unique=True))
    posts = draw(
        st.lists(
            st.tuples(
                st.one_of(st.none(), st.integers(min_value=0, max_value=10**6)),
                st.booleans(),
                optional_names,
            ),
            min_size=1,
            max_size=4,
        )
    )
    tasks = draw(st.lists(names, min_size=len(posts), max_size=len(posts), unique=True))

    def src():
        return {"source": draw(names)} if draw(st.booleans()) else {}

    specs = [
        ("threadinit", (main,), src()),
        ("attachq", (main,), {}),
        ("looponq", (main,), {}),
        ("fork", (main, worker), src()),
        ("threadinit", (worker,), {}),
        ("acquire", (worker, lock), {}),
        ("write", (worker, locations[0]), src()),
        ("release", (worker, lock), {}),
        ("threadexit", (worker,), {}),
    ]
    for task, (delay, at_front, event) in zip(tasks, posts):
        specs.append(("enable", (main, task), {}))
        fields = {"delay": delay, "event": event, **src()}
        if at_front:
            fields["at_front"] = True
        specs.append(("post", (main, task, main), fields))
    for k, task in enumerate(tasks):
        specs.append(("begin", (main, task), {}))
        specs.append(("read", (main, locations[k % len(locations)]), src()))
        specs.append(("write", (main, locations[(k + 1) % len(locations)]), {}))
        specs.append(("end", (main, task), {}))
    specs.append(("join", (main, worker), {}))
    specs.append(("threadexit", (main,), {}))
    return specs


def build(specs, **extra):
    return [getattr(opcodes, name)(*args, **dict(kw, **extra)) for name, args, kw in specs]


def assert_same_values(expected, actual):
    assert actual == expected
    assert [hash(op) for op in actual] == [hash(op) for op in expected]
    assert all(type(op) is Operation for op in actual)


def assert_immutable(op):
    with pytest.raises(AttributeError):
        op.thread = "other"
    with pytest.raises(AttributeError):
        op.index = 99
    assert not hasattr(op, "__dict__")
    assert not hasattr(op, "metadata")


@given(specs=op_specs())
@settings(max_examples=60, deadline=None, suppress_health_check=SUPPRESS)
def test_every_construction_path_agrees(specs):
    factory = [op.with_index(i) for i, op in enumerate(build(specs))]
    trace = ExecutionTrace(build(specs), name="prop")
    assert {op.kind for op in trace} == set(OpKind)

    builder = TraceBuilder("prop")
    builder.extend(build(specs))
    records = [
        operation_from_record(operation_to_record(op), i) for i, op in enumerate(factory)
    ]
    indexed = [
        getattr(opcodes, name)(*args, index=i, **kw)
        for i, (name, args, kw) in enumerate(specs)
    ]
    text = trace.to_jsonl()
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "t.jsonl")
        with open(path, "w", encoding="utf-8") as handle:
            handle.write(text)
        loaded = ExecutionTrace.load(path)

    for ops in (
        trace.ops,
        builder.build().ops,
        records,
        indexed,
        ExecutionTrace.from_jsonl(text).ops,
        loaded.ops,
    ):
        assert_same_values(factory, ops)
        for op in ops[:3]:
            assert_immutable(op)


@given(specs=op_specs())
@settings(max_examples=80, deadline=None, suppress_health_check=SUPPRESS)
def test_canonical_bytes_match_the_reference(specs):
    trace = ExecutionTrace(build(specs))
    reference = reference_jsonl(trace.ops)
    assert trace.to_jsonl() == reference
    assert trace.canonical_digest() == hashlib.sha256(reference.encode("utf-8")).hexdigest()
    # The reader's output serializes back to the same bytes (a fixpoint).
    assert ExecutionTrace.from_jsonl(reference).to_jsonl() == reference


@given(
    value=st.one_of(
        st.floats(allow_nan=True, allow_infinity=True),
        st.booleans(),
        st.integers(min_value=-(10**30), max_value=10**30),
        st.dictionaries(names, st.one_of(st.integers(), names), max_size=3),
        st.lists(st.one_of(st.integers(), names, st.none()), max_size=3),
    )
)
@settings(max_examples=60, deadline=None)
def test_canonical_bytes_for_non_string_payloads(value):
    # Records are untyped JSON: events and sources may be any value, and
    # a post delay any non-negative number.
    ops = [Operation(OpKind.THREAD_INIT, "t", event=value, source=value)]
    if isinstance(value, (int, float)) and not value < 0 and value == value:
        ops.append(Operation(OpKind.POST, "t", task="p", target="t", delay=value))
    trace = ExecutionTrace(ops)
    assert trace.to_jsonl() == reference_jsonl(ops)


def test_simulator_builds_each_operation_once_at_its_position():
    for seed in range(12):
        env = run_random_app(seed)
        assert [op.index for op in env.ops] == list(range(len(env.ops)))
        trace = env.build_trace()
        if not env.cancelled_tasks:
            # Nothing to re-position: the trace holds the simulator's ops.
            assert all(a is b for a, b in zip(trace.ops, env.ops))
        text = trace.to_jsonl()
        assert text == reference_jsonl(trace.ops)
        restored = ExecutionTrace.from_jsonl(text)
        assert_same_values(trace.ops, restored.ops)
        rebuilt = [Operation(*op) for op in trace.ops]
        assert_same_values(trace.ops, rebuilt)


def test_reader_builds_each_operation_at_its_final_position(monkeypatch, tmp_path):
    # Comment and blank lines shift line numbers away from op positions.
    text = "# header\n\n" + figure4_trace().to_jsonl().replace("\n", "\n\n", 3)
    path = tmp_path / "f4.jsonl"
    path.write_text(text)
    copies = []
    original = Operation.with_index

    def counting(op, index):
        moved = original(op, index)
        if moved is not op:
            copies.append(index)
        return moved

    monkeypatch.setattr(Operation, "with_index", counting)
    assert len(ExecutionTrace.from_jsonl(text)) == len(ExecutionTrace.load(path)) > 0
    assert copies == []  # nothing was re-positioned after parsing


def test_canonical_digest_is_pinned():
    # Store paths, cache keys and history-gate keys are canonical
    # digests: the bytes of a fixed trace must never move.
    assert figure4_trace().canonical_digest() == (
        "07f0e425637e951aaf62e0f84d1ab0947e7aa058f840e946ad3a3e95f3e0c72d"
    )


def test_loaded_names_are_interned():
    text = (
        '{"kind": "threadinit", "thread": "main"}\n'
        '{"kind": "write", "location": "Obj@1.f", "thread": "main"}\n'
        '{"kind": "read", "location": "Obj@1.f", "thread": "main"}\n'
    )
    ops = ExecutionTrace.from_jsonl(text).ops
    assert ops[0].thread is ops[1].thread is ops[2].thread
    assert ops[1].location is ops[2].location


#: Malformed records and the reason each one reports.
MALFORMED = [
    ('{"kind": "read", "thread": "t"', "invalid JSON (Expecting ',' delimiter)"),
    ('{"kind": "read", "thread": "t", "location": "x"} x', "invalid JSON (Extra data)"),
    ("nul", "invalid JSON (Expecting value)"),
    ("[1, 2]", "record is not a JSON object: [1, 2]"),
    ('{"thread": "t"}', "record is missing the 'kind' field"),
    ('{"kind": "nope", "thread": "t"}', "unknown op kind 'nope'"),
    ('{"kind": ["read"], "thread": "t"}', "unknown op kind ['read']"),
    ('{"kind": "read"}', "record is missing the 'thread' field"),
    (
        '{"kind": "read", "thread": "t"}',
        "malformed operation (read requires a memory location)",
    ),
    (
        '{"kind": "write", "thread": "", "location": "x"}',
        "malformed operation (operation write has no thread)",
    ),
    (
        '{"kind": "fork", "thread": "t"}',
        "malformed operation (fork requires a target thread)",
    ),
    (
        '{"kind": "acquire", "thread": "t"}',
        "malformed operation (acquire requires a lock)",
    ),
    ('{"kind": "end", "thread": "t"}', "malformed operation (end requires a task)"),
    (
        '{"kind": "read", "thread": "t", "location": "x", "delay": 3}',
        "malformed operation (delay is only meaningful on post)",
    ),
    (
        '{"kind": "post", "thread": "t", "task": "p", "target": "u", "delay": -1}',
        "malformed operation (negative post delay)",
    ),
    (
        '{"kind": "begin", "thread": "t", "task": "p", "at_front": true}',
        "malformed operation (at_front is only meaningful on post)",
    ),
    (
        '{"kind": "read", "thread": "t", "location": "x", "bogus": 1}',
        "bad operation field: ",
    ),
    (
        '{"kind": "post", "thread": "t", "task": "p", "target": "u", "delay": "x"}',
        "bad operation field: ",
    ),
]


@given(
    specs=op_specs(),
    insertions=st.lists(
        st.tuples(
            st.integers(min_value=0, max_value=10**6),
            st.one_of(
                st.sampled_from(range(len(MALFORMED))),
                st.sampled_from(["", "   ", "# a comment"]),
            ),
        ),
        min_size=1,
        max_size=6,
    ),
)
@settings(max_examples=80, deadline=None, suppress_health_check=SUPPRESS)
def test_malformed_records_fail_strict_and_skip_lenient(specs, insertions):
    valid = ExecutionTrace(build(specs))
    # (line, reason it must report) — reason None for lines that parse.
    entries = [(line, None) for line in valid.to_jsonl().splitlines()]
    for position, what in insertions:
        if isinstance(what, int):
            line, reason = MALFORMED[what]
            # Surrounding whitespace is not significant.
            entry = (" %s " % line, reason)
        else:
            entry = (what, None)
        entries.insert(position % (len(entries) + 1), entry)
    text = "\n".join(line for line, _ in entries) + "\n"
    bad = [
        (number, reason)
        for number, (_, reason) in enumerate(entries, start=1)
        if reason is not None
    ]

    if bad:
        with pytest.raises(TraceFormatError) as info:
            ExecutionTrace.from_jsonl(text)
        first_line, first_reason = bad[0]
        assert info.value.line_number == first_line
        assert info.value.reason.startswith(first_reason)

    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        lenient = ExecutionTrace.from_jsonl(text, strict=False)
    assert len(caught) == len(bad)
    assert_same_values(valid.ops, lenient.ops)
    assert lenient.to_jsonl() == valid.to_jsonl()
