"""Tests for ASCII rendering (repro.instances.ascii)."""

from __future__ import annotations

from repro.algorithms import single_gen
from repro.instances import render_placement_summary, render_tree
from tests.test_simulate import TestRouters, split_placement


class TestRenderTree:
    def test_all_nodes_present(self, paper_example):
        out = render_tree(paper_example)
        t = paper_example.tree
        for v in t.internal_nodes:
            assert f"n{v}" in out
        for c in t.clients:
            assert f"c{c} r={t.requests(c)}" in out

    def test_replica_tag(self, paper_example):
        p = single_gen(paper_example)
        out = render_tree(paper_example, p)
        assert "[R]" in out
        # Each replica appears tagged exactly once.
        assert out.count("[R]") == p.n_replicas

    def test_assignment_arrows(self, paper_example):
        p = single_gen(paper_example)
        out = render_tree(paper_example, p)
        assert "->" in out

    def test_line_count(self, paper_example):
        out = render_tree(paper_example)
        assert len(out.splitlines()) == len(paper_example.tree)

    def test_split_clients_list_servers_ascending(self):
        inst = TestRouters.INSTANCE
        t = inst.tree
        p = split_placement(inst)
        out = render_tree(inst, p)
        for c in t.clients:
            tag = " [R]" if c in p.replicas else ""
            served = ",".join(
                f"{s}(x{p.assignments[(c, s)]})" for s in p.servers_of(c)
            )
            assert f"c{c} r={t.requests(c)}{tag} -> {served} (" in out


class TestSummary:
    def test_summary_fields(self, paper_example):
        p = single_gen(paper_example)
        out = render_placement_summary(paper_example, p)
        assert f"replicas |R|   : {p.n_replicas}" in out
        assert "capacity W     : 8" in out
        assert "utilisation" in out
        for s in sorted(p.replicas):
            assert f"server {s:>4}" in out
