"""The service's wire solve path and the bytes it stores.

``PlacementService.solve_wire`` answers a parsed ``/v1/solve`` body: it
keys the instance from the body's columns, answers a cache hit without
building the instance, and writes the cached placement's memoized
canonical JSON.  These tests pin what that path must keep:

* a body the decoder rejects is rejected with the same status and error
  object, even when its well-formed twin is cached;
* hits, lean hits and misses decode to the in-process answer, and count
  in the service stats as in-process calls do;
* a placement is encoded at most once, and the ``CachePut`` WAL payload
  and the snapshot file keep the bytes the per-call encoders wrote.
"""

from __future__ import annotations

import copy
import json
import os
import struct
import threading
import urllib.error
import urllib.request
from dataclasses import dataclass
from typing import Callable, Optional

import pytest

from repro import Policy, ProblemInstance
from repro.core.tree import Tree
from repro.instances import instance_to_dict, isp_mesh
from repro.instances import io as wire_io
from repro.instances.io import canonical_json
from repro.service import (
    PlacementService,
    SolveRequest,
    WireFormatError,
    make_server,
)
from repro.service import schema as schema_module
from repro.storage import CachePut, StateStore, encode_record
from repro.storage.snapshot import list_snapshots
from repro.storage.wal import WriteAheadLog

#: A 32-node mesh: small enough to solve in milliseconds.
MESH = isp_mesh(20, capacity=150, seed=3)
#: Its tree with W below the largest demand: infeasible under Single.
SHORT = ProblemInstance(MESH.tree, 100)

TIMING = ("service_ms", "solve_ms")


def body_of(instance: ProblemInstance, **fields) -> dict:
    """A ``/v1/solve`` body for ``instance``, JSON round-tripped."""
    wire = json.loads(json.dumps(SolveRequest(instance=instance).to_wire()))
    wire.update(fields)
    return wire


def untimed(response: dict) -> dict:
    """``response`` without the wall-clock fields."""
    out = copy.deepcopy(response)
    for key in TIMING:
        out["diagnostics"].pop(key, None)
    return out


# -- malformed twins --------------------------------------------------------
def _edit(**changes) -> Callable[[dict], None]:
    def edit(instance: dict) -> None:
        instance.update(changes)

    return edit


def _set_request(node: Callable[[dict], int], value: object) -> Callable[[dict], None]:
    def edit(instance: dict) -> None:
        instance["requests"][node(instance)] = value

    return edit


def _first_client(instance: dict) -> int:
    return next(v for v, r in enumerate(instance["requests"]) if r > 0)


def _close_a_cycle(instance: dict) -> None:
    # Node 1's first child becomes its parent: 1 -> c -> 1 is cut off
    # from the root.
    parents = instance["parents"]
    parents[1] = parents.index(1)


#: A last delta whose first packed byte is ``b"r"``: with one delta
#: fewer and one request more, a body packs to the same bytes.
COLLIDING_DELTA = struct.unpack("<d", b"r" + struct.pack("<d", 1.0)[1:])[0]


def _shift_a_delta_into_requests(instance: dict) -> None:
    last = struct.pack("<d", instance["deltas"].pop())
    assert last[:1] == b"r"
    instance["requests"].insert(0, int.from_bytes(last[1:] + b"r", "little", signed=True))


def _with_last_delta(instance: dict) -> None:
    instance["deltas"][-1] = COLLIDING_DELTA


@dataclass(frozen=True)
class Twin:
    """A malformed body next to its well-formed, cached twin."""

    id: str
    #: Edits the malformed body's instance dict in place.
    break_it: Callable[[dict], None]
    #: Part of the decoder's error message.
    message: str
    #: Edits both bodies first, so the twin keys like the malformed one.
    shared: Optional[Callable[[dict], None]] = None


TWINS = [
    Twin("instance-schema-2", _edit(schema=2), "unsupported schema version 2"),
    Twin("string-dmax", _edit(dmax="5"), "TypeError", shared=_edit(dmax=5)),
    Twin(
        "unequal-columns",
        _shift_a_delta_into_requests,
        "must have the same length",
        shared=_with_last_delta,
    ),
    Twin("policy-upper-case", _edit(policy="SINGLE"), "'SINGLE' is not a valid Policy"),
    Twin("negative-request", _set_request(_first_client, -3), "negative requests -3"),
    Twin("internal-requests", _set_request(lambda _i: 0, 5), "internal node 0 carries 5"),
    Twin("parent-cycle", _close_a_cycle, "contains a cycle"),
    Twin("capacity-0", _edit(capacity=0), "capacity must be positive"),
]


@dataclass(frozen=True)
class Variant:
    """A body the decoder accepts although its columns differ from the
    encoder's output."""

    id: str
    change: Callable[[dict], None]


VARIANTS = [
    Variant(
        "float-request",
        lambda i: i["requests"].__setitem__(
            _first_client(i), float(i["requests"][_first_client(i)])
        ),
    ),
    Variant("string-capacity", lambda i: i.update(capacity=str(i["capacity"]))),
]


def twin_bodies(case: Twin) -> tuple:
    good = body_of(MESH)
    if case.shared is not None:
        case.shared(good["instance"])
    bad = copy.deepcopy(good)
    case.break_it(bad["instance"])
    return good, bad


def _keys(instance: dict) -> bool:
    """Whether the wire path can key ``instance`` from its columns."""
    try:
        wire_io.instance_fingerprint_from_dict(instance)
    except (KeyError, TypeError, ValueError, OverflowError):
        return False
    return True


def _decoder_error(body: dict) -> str:
    with pytest.raises(WireFormatError) as excinfo:
        SolveRequest.from_wire(body)
    return str(excinfo.value)


# -- the daemon -------------------------------------------------------------
@pytest.fixture
def daemon():
    server = make_server("127.0.0.1", 0, cache_size=64)
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    host, port = server.server_address[:2]
    try:
        yield server, f"http://{host}:{port}/v1/solve"
    finally:
        server.shutdown()
        server.server_close()
        server.service.close()
        thread.join(timeout=5)


def post(url: str, body: dict) -> tuple:
    request = urllib.request.Request(
        url,
        data=json.dumps(body).encode("utf-8"),
        headers={"Content-Type": "application/json"},
    )
    try:
        with urllib.request.urlopen(request, timeout=30) as resp:
            return resp.status, json.loads(resp.read())
    except urllib.error.HTTPError as exc:
        return exc.code, json.loads(exc.read())


class TestMalformedTwins:
    @pytest.mark.parametrize("case", TWINS, ids=lambda c: c.id)
    def test_rejected_as_the_decoder_rejects_it(self, daemon, case):
        _server, url = daemon
        good, bad = twin_bodies(case)
        for _ in range(2):
            status, answer = post(url, good)
            assert status == 200 and answer["status"] in ("ok", "infeasible")
        assert answer["diagnostics"]["cache_hit"]

        message = _decoder_error(bad)
        assert case.message in message
        status, answer = post(url, bad)
        assert status == 400
        assert answer == {
            "schema": 1,
            "error": {"code": "bad_request", "message": message},
        }

    @pytest.mark.parametrize("variant", VARIANTS, ids=lambda v: v.id)
    def test_accepted_variants_still_hit(self, daemon, variant):
        _server, url = daemon
        good = body_of(MESH)
        status, first = post(url, good)
        assert status == 200
        odd = copy.deepcopy(good)
        variant.change(odd["instance"])
        assert SolveRequest.from_wire(odd).instance == MESH
        status, answer = post(url, odd)
        assert status == 200 and answer["diagnostics"]["cache_hit"]
        assert answer["placement"] == first["placement"]


class TestHitPath:
    def test_a_hit_builds_no_tree(self, daemon, monkeypatch):
        _server, url = daemon
        body = body_of(MESH)
        assert post(url, body)[0] == 200
        built = []
        init = Tree.__init__

        def counting(self, *args, **kwargs):
            built.append(1)
            init(self, *args, **kwargs)

        monkeypatch.setattr(Tree, "__init__", counting)
        for lean in (False, True):
            status, answer = post(url, dict(body, include_assignments=not lean))
            assert status == 200 and answer["diagnostics"]["cache_hit"]
            assert (answer["placement"] is None) == lean
        assert built == []

    def test_a_nan_request_id_is_echoed_as_json_dumps_wrote_it(self):
        # json.loads accepts NaN; the body writes it back as json.dumps does.
        service = PlacementService()
        body = body_of(MESH, request_id=float("nan"))
        for hit in (False, True):
            status, out = service.solve_wire(copy.deepcopy(body))
            assert status == 200 and b'"request_id":NaN' in out
            assert json.loads(out)["diagnostics"]["cache_hit"] == hit

    def test_hit_lean_hit_and_miss_decode_to_the_in_process_answer(self, daemon):
        _server, url = daemon
        reference = PlacementService(cache_size=64)
        variants = [
            isp_mesh(40, capacity=150, seed=seed, policy=policy, dmax=dmax)
            for seed, policy, dmax in (
                (1, Policy.SINGLE, None),
                (2, Policy.MULTIPLE, None),
                (3, Policy.SINGLE, 8.0),
            )
        ]
        variants.append(ProblemInstance(variants[-1].tree, 100, 3.0))
        statuses = set()
        for k, instance in enumerate(variants):
            for step, include in enumerate((True, True, False)):
                request = SolveRequest(
                    instance=instance,
                    include_assignments=include,
                    request_id=f"v{k}-{step}",
                )
                want = reference.solve(request).to_wire()
                status, got = post(url, json.loads(json.dumps(request.to_wire())))
                assert status == 200
                assert untimed(got) == untimed(json.loads(json.dumps(want)))
                assert got["diagnostics"]["cache_hit"] == (step > 0)
                statuses.add(got["status"])
        assert statuses == {"ok", "infeasible"}

    def test_stats_match_the_same_calls_in_process(self, daemon):
        server, url = daemon
        reference = PlacementService(cache_size=64)
        other = isp_mesh(24, capacity=150, seed=5)
        requests = [
            SolveRequest(instance=MESH),
            SolveRequest(instance=MESH),
            SolveRequest(instance=MESH, include_assignments=False),
            SolveRequest(instance=MESH, solver="single-gen"),
            SolveRequest(instance=MESH, solver="no-such-solver"),
            SolveRequest(instance=other, tenant="t1"),
            SolveRequest(instance=other, tenant="t1"),
            SolveRequest(instance=MESH.with_policy(Policy.MULTIPLE), budget=50),
        ]
        for request in requests:
            want = reference.solve(request)
            status, _answer = post(url, request.to_wire())
            assert status == (400 if want.error and want.error.code == "unknown_solver" else 200)
        # A body the decoder rejects is no request in-process; through
        # the daemon it touches no stats either, even when its columns
        # key and it reaches a cache lookup.
        keyed = 0
        for case in TWINS:
            _good, bad = twin_bodies(case)
            keyed += _keys(bad["instance"])
            assert post(url, bad)[0] == 400
        assert keyed >= 5
        live, ref = server.service.stats(), reference.stats()
        assert live.requests == ref.requests == len(requests)
        assert live.by_status == ref.by_status
        assert (live.cache.hits, live.cache.misses) == (ref.cache.hits, ref.cache.misses)
        assert len(server.service._latencies_ms) == len(reference._latencies_ms)


# -- encode once ----------------------------------------------------------
@pytest.fixture
def encodes(monkeypatch):
    """Counts every walk of a placement's assignments into a dict."""
    calls = []
    encode = wire_io.placement_to_dict

    def counting(placement):
        calls.append(placement)
        return encode(placement)

    monkeypatch.setattr(wire_io, "placement_to_dict", counting)
    monkeypatch.setattr(schema_module, "placement_to_dict", counting)
    return calls


class TestEncodeOnce:
    def test_a_non_durable_solve_encodes_nothing(self, encodes):
        service = PlacementService()
        for _ in range(2):
            for include in (True, False):
                response = service.solve(
                    SolveRequest(instance=MESH, include_assignments=include)
                )
                assert response.ok
        assert service.stats().cache.hits == 3
        assert encodes == []

    def test_a_wire_miss_and_its_hits_encode_the_placement_once(self, tmp_path, encodes):
        with PlacementService(store=StateStore(str(tmp_path))) as service:
            body = body_of(MESH)
            for _ in range(3):
                assert service.solve_wire(copy.deepcopy(body))[0] == 200
        assert len(encodes) == 1

    def test_snapshots_encode_only_entries_never_encoded(self, tmp_path, encodes):
        data_dir = str(tmp_path)
        instances = [isp_mesh(20 + k, capacity=150, seed=k) for k in range(4)]
        with PlacementService(store=StateStore(data_dir, snapshot_interval=0)) as live:
            for instance in instances[:3]:
                assert live.solve(SolveRequest(instance=instance)).ok
            assert len(encodes) == 3  # one per CachePut
            encodes.clear()
            live.persist_now()
            live.persist_now()
            assert encodes == []
            # Logged after the snapshot, so recovered from their records.
            assert live.solve(SolveRequest(instance=instances[3])).ok
            assert live.solve(SolveRequest(instance=SHORT)).status == "infeasible"
        encodes.clear()
        with PlacementService(store=StateStore(data_dir, snapshot_interval=0)) as restarted:
            assert restarted.stats().durability.records_replayed == 2
            # Recovered entries keep the text their snapshot or record
            # holds: a hit and the next snapshot walk no placement, and
            # the snapshot is the per-call encoders' bytes.
            assert restarted.solve_wire(body_of(instances[0]))[0] == 200
            seq = restarted.persist_now()
            assert encodes == []
            want = json.dumps(
                {"schema": 1, "seq": seq, "state": _state_dict_per_call(restarted)},
                sort_keys=True,
                separators=(",", ":"),
            ).encode("utf-8")
        [(_seq, path)] = list_snapshots(data_dir)
        with open(path, "rb") as fh:
            assert fh.read() == want


# -- byte formats -------------------------------------------------------
def _responses() -> dict:
    """An ok, an infeasible and a lean (placement-free) response."""
    service = PlacementService()
    ok = service.solve(SolveRequest(instance=MESH, request_id="r-ok"))
    infeasible = service.solve(SolveRequest(instance=SHORT))
    assert (ok.status, infeasible.status) == ("ok", "infeasible")
    lean = service.solve(SolveRequest(instance=MESH, include_assignments=False))
    return {"ok": ok, "infeasible": infeasible, "lean": lean}


def _state_dict_per_call(service: PlacementService) -> dict:
    """The snapshot state as built by calling ``to_wire()`` per entry."""
    sessions = {}
    for sid, engine in service._sessions.items():
        instance, solver, failed = engine.checkpoint()
        sessions[sid] = {
            "instance": instance_to_dict(instance),
            "solver": solver,
            "failed": sorted(failed),
        }
    return {
        "schema": 1,
        "sessions": sessions,
        "cache": [
            {"key": key, "response": resp.to_wire()}
            for key, resp in service._cache.entries()
        ],
    }


class TestByteFormats:
    @pytest.mark.parametrize("kind", ["ok", "infeasible", "lean"])
    def test_cache_put_payload_is_the_canonical_record(self, kind):
        response = _responses()[kind]
        spliced = CachePut(key="k", instance_fp="f", response=response.to_spliced_wire())
        per_call = {
            "kind": "cache-put",
            "key": "k",
            "instance_fp": "f",
            "response": response.to_wire(),
        }
        assert encode_record(spliced) == canonical_json(per_call).encode("utf-8")

    def test_http_body_is_canonical_json_of_to_wire(self):
        for response in _responses().values():
            assert response.encode() == canonical_json(response.to_wire()).encode()

    def test_snapshot_file_is_the_per_call_encoding(self, tmp_path):
        data_dir = str(tmp_path)
        with PlacementService(store=StateStore(data_dir, snapshot_interval=0)) as service:
            for seed in (1, 2):
                service.solve(SolveRequest(instance=isp_mesh(20, capacity=150, seed=seed)))
            service.solve(SolveRequest(instance=SHORT))
            service.start_dynamic(isp_mesh(21, capacity=150, seed=9))
            seq = service.persist_now()
            want = json.dumps(
                {"schema": 1, "seq": seq, "state": _state_dict_per_call(service)},
                sort_keys=True,
                separators=(",", ":"),
            ).encode("utf-8")
        [(snap_seq, path)] = list_snapshots(data_dir)
        assert snap_seq == seq
        with open(path, "rb") as fh:
            assert fh.read() == want

    def test_recovers_a_data_dir_written_by_per_call_encoders(self, tmp_path):
        # A WAL whose CachePut carries a plain response dict, then a
        # snapshot written with json.dumps: the layout the service read
        # and wrote before cached placements kept their bytes.
        source = PlacementService()
        instances = [isp_mesh(20, capacity=150, seed=seed) for seed in (1, 2, 3)]
        answers = [source.solve(SolveRequest(instance=i)) for i in instances]
        records = [
            {
                "kind": "cache-put",
                "key": answer.diagnostics.fingerprint,
                "instance_fp": "",
                "response": answer.to_wire(),
            }
            for answer in answers
        ]
        data_dir = str(tmp_path)
        entry = {k: v for k, v in records[0].items() if k != "kind"}
        snapshot = {"schema": 1, "sessions": {}, "cache": [entry]}
        with open(os.path.join(data_dir, f"snapshot-{1:016d}.json"), "w") as fh:
            json.dump({"schema": 1, "seq": 1, "state": snapshot}, fh,
                      sort_keys=True, separators=(",", ":"))
        wal = WriteAheadLog(os.path.join(data_dir, StateStore.WAL_FILENAME))
        for seq, record in enumerate(records[1:], start=2):
            wal.append(seq, canonical_json(record).encode("utf-8"))
        wal.close()

        with PlacementService(store=StateStore(data_dir)) as service:
            assert service.stats().durability.records_replayed == 2
            for instance, answer in zip(instances, answers):
                status, out = service.solve_wire(body_of(instance))
                got = json.loads(out)
                assert status == 200 and got["diagnostics"]["cache_hit"]
                assert untimed(got) == untimed(json.loads(json.dumps(dict(
                    answer.to_wire(),
                    diagnostics=dict(answer.diagnostics.to_wire(), cache_hit=True),
                ))))
