"""Trace-driven replay: traces, tenants, runner, report, CLI knobs."""

from __future__ import annotations

import json

import numpy as np
import pytest

from repro.analysis import render_replay_table, replay_report
from repro.cli import main
from repro.core.policies import Policy
from repro.dynamic import (
    CapacityEvent,
    DemandEvent,
    FailureEvent,
    apply_event,
    apply_events_batch,
    random_event_trace,
)
from repro.core.errors import InvalidInstanceError
from repro.instances import (
    build_isp_mesh,
    dump_instance,
    isp_mesh,
    make_instance,
    random_tree,
)
from repro.replay import (
    TRACES,
    make_trace,
    run_replay,
    tenant_instance,
    tenant_instances,
    trace_names,
)
from repro.scenarios import sampled_violations
from repro.service import PlacementService, SolveRequest
from repro.service.fingerprint import combine_fingerprint, request_fingerprint


@pytest.fixture
def small_mesh():
    return isp_mesh(60, capacity=300, dmax=None, seed=5)


class TestTraces:
    @pytest.mark.parametrize("name", sorted(TRACES))
    def test_each_trace_deterministic_per_seed(self, name):
        a = make_trace(name, n_clients=40, horizon=12, seed=7)
        b = make_trace(name, n_clients=40, horizon=12, seed=7)
        assert np.array_equal(a.modulation, b.modulation)
        c = make_trace(name, n_clients=40, horizon=12, seed=8)
        if name != "stationary":
            assert not np.array_equal(a.modulation, c.modulation)

    @pytest.mark.parametrize("name", sorted(TRACES))
    def test_modulation_nonnegative(self, name):
        t = make_trace(name, n_clients=50, horizon=30, seed=3)
        assert t.modulation.shape == (30, 50)
        assert (t.modulation >= 0).all()

    def test_composition_multiplies(self):
        d = make_trace("diurnal", n_clients=20, horizon=8, seed=1)
        s = make_trace("stationary", n_clients=20, horizon=8, seed=1)
        ds = make_trace("diurnal+stationary", n_clients=20, horizon=8, seed=1)
        # stationary is all-ones, so composing it on the right changes
        # nothing; diurnal is component 0 in both specs (same rng seq).
        assert np.array_equal(ds.modulation, d.modulation * s.modulation)

    def test_unknown_and_malformed_specs(self):
        with pytest.raises(ValueError, match="unknown trace"):
            make_trace("nope", n_clients=5, horizon=5)
        with pytest.raises(ValueError, match="malformed|unknown"):
            make_trace("diurnal++flash", n_clients=5, horizon=5)
        with pytest.raises(ValueError):
            make_trace("diurnal", n_clients=0, horizon=5)
        with pytest.raises(ValueError):
            make_trace("diurnal", n_clients=5, horizon=0)

    def test_bad_component_params(self):
        for params in (
            {"diurnal": {"amplitude": 2.0}},
            {"flash": {"hot_fraction": 0.0}},
            {"flash": {"magnitude": 0.5}},
            {"zipf": {"exponent": -1.0}},
        ):
            name = next(iter(params))
            with pytest.raises(ValueError):
                make_trace(name, n_clients=10, horizon=5, params=params)

    def test_levels_capped_at_capacity(self):
        t = make_trace("flash", n_clients=30, horizon=10, seed=2)
        base = np.full(30, 90, dtype=np.int64)
        levels = t.levels(base, capacity=100)
        assert levels.min() >= 0
        assert levels.max() <= 100

    def test_trace_names_sorted(self):
        assert trace_names() == sorted(TRACES)


class TestMeshGenerator:
    def test_deterministic_per_seed(self):
        g1, d1 = build_isp_mesh(40, 9)
        g2, d2 = build_isp_mesh(40, 9)
        assert d1 == d2
        assert g1.n == g2.n == 40
        inst1 = isp_mesh(40, capacity=200, seed=9)
        inst2 = isp_mesh(40, capacity=200, seed=9)
        assert inst1 == inst2

    def test_seed_changes_instance(self):
        assert isp_mesh(40, capacity=200, seed=1) != isp_mesh(
            40, capacity=200, seed=2
        )

    def test_registered_in_generators(self):
        inst = make_instance(
            {"kind": "isp_mesh", "n_pops": 30, "capacity": 150, "seed": 4}
        )
        assert len(inst.tree) > 30  # client stubs added
        assert inst.policy is Policy.SINGLE

    def test_validation(self):
        with pytest.raises(ValueError):
            build_isp_mesh(2, 0)
        with pytest.raises(ValueError):
            isp_mesh(30, capacity=0)
        with pytest.raises(ValueError):
            # demand range must fit under W
            isp_mesh(30, capacity=100, demand_range=(20, 120))


class TestBatchedEvents:
    @pytest.mark.parametrize("seed", range(3))
    def test_parity_with_sequential_fold(self, seed):
        inst = random_tree(
            8, 24, capacity=40, policy=Policy.MULTIPLE, seed=seed
        )
        for batch in random_event_trace(
            inst, steps=4, events_per_step=10, seed=seed,
            p_fail=0.2, p_capacity=0.1,
        ):
            seq_inst, seq_failed = inst, set()
            for e in batch:
                seq_inst, nf = apply_event(seq_inst, e)
                if nf is not None:
                    seq_failed.add(nf)
            bat_inst, bat_failed = apply_events_batch(inst, batch)
            assert seq_inst == bat_inst
            assert seq_failed == set(bat_failed)

    def test_rejects_whole_batch(self, small_mesh):
        client = next(iter(small_mesh.tree.clients))
        batch = [DemandEvent(client, 5), DemandEvent(client, -1)]
        with pytest.raises(InvalidInstanceError):
            apply_events_batch(small_mesh, batch)
        batch = [CapacityEvent(0)]
        with pytest.raises(InvalidInstanceError):
            apply_events_batch(small_mesh, batch)
        with pytest.raises(InvalidInstanceError):
            apply_events_batch(small_mesh, [FailureEvent(10**6)])

    def test_last_demand_wins(self, small_mesh):
        client = next(iter(small_mesh.tree.clients))
        out, _ = apply_events_batch(
            small_mesh, [DemandEvent(client, 3), DemandEvent(client, 9)]
        )
        assert out.tree.requests(client) == 9

    def test_noop_batch_returns_same_instance(self, small_mesh):
        out, failed = apply_events_batch(small_mesh, [])
        assert out is small_mesh
        assert failed == frozenset()


class TestTenants:
    def test_tenant_zero_is_base(self, small_mesh):
        assert tenant_instance(small_mesh, 0) is small_mesh

    def test_deterministic_and_distinct(self, small_mesh):
        a = tenant_instance(small_mesh, 2, seed=4)
        b = tenant_instance(small_mesh, 2, seed=4)
        assert a == b
        c = tenant_instance(small_mesh, 3, seed=4)
        assert a != c

    def test_levels_capped(self, small_mesh):
        for inst in tenant_instances(small_mesh, 4, seed=1):
            tree = inst.tree
            assert all(
                tree.requests(c) <= inst.capacity for c in tree.clients
            )

    def test_validation(self, small_mesh):
        with pytest.raises(ValueError):
            tenant_instance(small_mesh, -1)
        with pytest.raises(ValueError):
            tenant_instances(small_mesh, 0)


class TestTenantCacheIsolation:
    def test_tenant_partitions_fingerprint(self, small_mesh):
        base = request_fingerprint(small_mesh)
        assert request_fingerprint(small_mesh, tenant="a") != base
        assert request_fingerprint(small_mesh, tenant="a") != request_fingerprint(
            small_mesh, tenant="b"
        )
        # tenant=None keys exactly as before the field existed
        assert combine_fingerprint("fp", "s", 1, None) == combine_fingerprint(
            "fp", "s", 1
        )

    def test_cache_never_crosses_tenants(self, small_mesh):
        with PlacementService(cache_size=32) as svc:
            a1 = svc.solve_instance(small_mesh, tenant="tenant-a")
            a2 = svc.solve_instance(small_mesh, tenant="tenant-a")
            b1 = svc.solve_instance(small_mesh, tenant="tenant-b")
            assert not a1.diagnostics.cache_hit
            assert a2.diagnostics.cache_hit  # same tenant: hit
            assert not b1.diagnostics.cache_hit  # other tenant: never
            assert a1.n_replicas == b1.n_replicas

    def test_wire_roundtrip_and_compat(self, small_mesh):
        req = SolveRequest(instance=small_mesh, tenant="t-1")
        back = SolveRequest.from_wire(req.to_wire())
        assert back.tenant == "t-1"
        # Pre-tenant envelopes (no field at all) still decode.
        wire = SolveRequest(instance=small_mesh).to_wire()
        assert "tenant" not in wire
        assert SolveRequest.from_wire(wire).tenant is None
        wire["tenant"] = 7
        from repro.service.schema import WireFormatError

        with pytest.raises(WireFormatError):
            SolveRequest.from_wire(wire)


class TestSampledInvariants:
    def test_clean_placement_passes(self, small_mesh):
        from repro.algorithms import single_gen

        placement = single_gen(small_mesh)
        assert sampled_violations(small_mesh, placement, seed=1) == []

    def test_detects_overload_and_foreign_server(self, small_mesh):
        from repro.core.placement import Placement

        clients = list(small_mesh.tree.clients)
        c = clients[0]
        bad = Placement(
            replicas={0},
            assignments={(c, 0): small_mesh.capacity + 5},
        )
        out = sampled_violations(small_mesh, bad, seed=0, max_clients=4)
        kinds = {v.invariant for v in out}
        assert "capacity" in kinds
        # sampled or not, the overfull client is globally visible via
        # loads; completeness for unsampled clients may be missed — the
        # documented trade-off.

    def test_sampling_is_deterministic(self, small_mesh):
        from repro.algorithms import single_gen

        placement = single_gen(small_mesh)
        a = sampled_violations(small_mesh, placement, seed=3, max_clients=8)
        b = sampled_violations(small_mesh, placement, seed=3, max_clients=8)
        assert a == b

    def test_bad_max_clients(self, small_mesh):
        from repro.algorithms import single_gen

        with pytest.raises(ValueError):
            sampled_violations(
                small_mesh, single_gen(small_mesh), max_clients=0
            )


class TestSampledAuditKeys:
    """The sampled audit checks every assignment key, sampled or not."""

    @pytest.mark.parametrize("max_clients", [1, 4, 10**6])
    def test_bogus_client_keys_reported(self, max_clients):
        from repro.algorithms import single_nod
        from repro.core.placement import Placement

        inst = isp_mesh(40, capacity=300, seed=3)
        good = single_nod(inst)
        root = inst.tree.root
        extra = {(1, root): 1, (10**6, root): 1}
        assert not inst.tree.is_leaf(1)
        bad = Placement(good.replicas, {**good.assignments, **extra})
        out = sampled_violations(inst, bad, seed=0, max_clients=max_clients)
        details = [v.detail for v in out if v.invariant == "completeness"]
        assert "assignment client 1 is not a leaf client" in details
        assert f"assignment client {10**6} is not a leaf client" in details


class TestRunReplay:
    def test_engine_mode_deterministic_fingerprint(self, small_mesh):
        a = run_replay(small_mesh, "diurnal+flash", horizon=10, seed=2,
                       check_every=3, sample=32)
        b = run_replay(small_mesh, "diurnal+flash", horizon=10, seed=2,
                       check_every=3, sample=32)
        assert a.fingerprint() == b.fingerprint()
        assert len(a.rows) == 10
        assert a.violations == []
        assert a.mode == "engine"

    def test_seed_changes_fingerprint(self, small_mesh):
        a = run_replay(small_mesh, "diurnal", horizon=8, seed=1, sample=32)
        b = run_replay(small_mesh, "diurnal", horizon=8, seed=2, sample=32)
        assert a.fingerprint() != b.fingerprint()

    def test_trace_changes_fingerprint(self, small_mesh):
        a = run_replay(small_mesh, "diurnal", horizon=8, seed=1, sample=32)
        b = run_replay(small_mesh, "zipf", horizon=8, seed=1, sample=32)
        assert a.fingerprint() != b.fingerprint()

    def test_stationary_trace_has_no_changes(self, small_mesh):
        res = run_replay(small_mesh, "stationary", horizon=6, seed=0,
                         sample=32)
        assert all(r.n_changes == 0 for r in res.rows)
        assert all(r.mode == "steady" for r in res.rows)
        costs = {r.cost for r in res.rows}
        assert len(costs) == 1

    def test_service_mode_multi_tenant(self, small_mesh):
        res = run_replay(small_mesh, "diurnal", horizon=26, seed=3,
                         tenants=2, check_every=13, sample=32)
        assert res.mode == "service"
        assert len(res.rows) == 26 * 2
        assert res.violations == []
        # diurnal has period 24: ticks 24-25 revisit ticks 0-1 levels,
        # so each tenant takes 2 cache hits at the tail.
        assert res.cache_hits == 4

    def test_validation_errors(self, small_mesh):
        with pytest.raises(ValueError):
            run_replay(small_mesh, "bogus", horizon=5)
        with pytest.raises(ValueError):
            run_replay(small_mesh, "diurnal", horizon=0)
        with pytest.raises(ValueError):
            run_replay(small_mesh, "diurnal", horizon=5, rate_scale=0.0)
        with pytest.raises(ValueError):
            run_replay(small_mesh, "diurnal", horizon=5, tenants=0)
        with pytest.raises(ValueError):
            run_replay(small_mesh, "diurnal", horizon=5, check_every=-1)
        with pytest.raises(ValueError):
            run_replay(small_mesh, "diurnal", horizon=5, sample=0)

    def test_report_shape(self, small_mesh):
        res = run_replay(small_mesh, "diurnal+flash", horizon=8, seed=5,
                         sample=32)
        rep = replay_report(res)
        assert rep["schema"] == 1
        assert rep["run"]["fingerprint"] == res.fingerprint()
        assert rep["summary"]["ticks"] == 8
        assert rep["summary"]["invariant_violations"] == 0
        assert len(rep["series"]) == 8
        json.dumps(rep)  # must be JSON-able
        table = render_replay_table(res, limit=4)
        assert "more ticks" in table
        assert table.count("\n") == 5  # header + 4 rows + truncation


class TestReplayCli:
    @pytest.fixture
    def mesh_file(self, tmp_path):
        path = str(tmp_path / "mesh.json")
        dump_instance(isp_mesh(60, capacity=300, seed=5), path)
        return path

    def test_replay_smoke_and_json(self, mesh_file, tmp_path, capsys):
        out = str(tmp_path / "report.json")
        rc = main([
            "simulate", mesh_file, "--replay", "--quick", "--json", out,
        ])
        assert rc == 0
        with open(out, encoding="utf-8") as fh:
            rep = json.load(fh)
        assert rep["summary"]["invariant_violations"] == 0
        assert rep["run"]["trace"] == "diurnal+flash"
        assert capsys.readouterr().err.count("fingerprint") == 1

    def test_quick_check_every_zero_disables_audits(self, mesh_file, tmp_path):
        out = str(tmp_path / "report.json")
        rc = main([
            "simulate", mesh_file, "--replay", "--quick", "--seed", "1",
            "--check-every", "0", "--json", out,
        ])
        assert rc == 0
        with open(out, encoding="utf-8") as fh:
            summary = json.load(fh)["summary"]
        assert summary["invariant_checks"] == summary["parity_checks"] == 0

    def test_unknown_trace_rc2(self, mesh_file, capsys):
        rc = main(["simulate", mesh_file, "--replay", "--trace", "wat"])
        assert rc == 2
        err = capsys.readouterr().err
        assert err.startswith("repro: error:")
        assert "unknown trace" in err
        assert err.count("\n") == 1

    def test_replay_with_placement_rc2(self, mesh_file, capsys):
        rc = main(["simulate", mesh_file, mesh_file, "--replay"])
        assert rc == 2
        assert "drop the placement" in capsys.readouterr().err

    def test_replay_and_online_conflict(self, mesh_file, capsys):
        rc = main(["simulate", mesh_file, "--replay", "--online"])
        assert rc == 2
        assert "mutually exclusive" in capsys.readouterr().err

    @pytest.mark.parametrize("argv", [
        ["--tenants", "0"],
        ["--tenants", "-3"],
        ["--rate-scale", "0"],
        ["--rate-scale", "-1.5"],
        ["--rate-scale", "x"],
        ["--check-every", "-1"],
        ["--sample", "0"],
    ])
    def test_bad_knobs_rc2(self, mesh_file, argv, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["simulate", mesh_file, "--replay"] + argv)
        assert exc.value.code == 2
        assert "error" in capsys.readouterr().err

    def test_generate_mesh_kind(self, tmp_path, capsys):
        out = str(tmp_path / "m.json")
        rc = main([
            "generate", "--kind", "mesh", "--pops", "40",
            "--capacity", "200", "--seed", "2", "--out", out,
        ])
        assert rc == 0
        from repro.instances import load_instance

        inst = load_instance(out)
        assert inst == isp_mesh(40, capacity=200, seed=2)

    def test_generate_mesh_capacity_too_small_rc2(self, capsys):
        rc = main(["generate", "--kind", "mesh", "--capacity", "50"])
        assert rc == 2
        assert "exceeds capacity" in capsys.readouterr().err