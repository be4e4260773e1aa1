"""Tests for cluster specs, heterogeneous pools, and placement policies."""

import random
from collections import Counter

import pytest

from repro.cluster.machine import (
    Machine,
    MachineConfig,
    parse_cluster_spec,
    parse_memory_mb,
)
from repro.cluster.manager import ResourceManager
from repro.cluster.policies import (
    BestFit,
    FirstFit,
    WorstFit,
    placement_names,
    register_placement,
    resolve_placement,
)


def make_nodes(*free_mbs, capacity=10_000.0):
    """Nodes with the given free memory (by pre-allocating the rest)."""
    nodes = []
    for i, free in enumerate(free_mbs):
        node = Machine(config=MachineConfig("t", capacity), node_id=i)
        used = capacity - free
        if used > 0:
            node.allocate(1000 + i, used)
        nodes.append(node)
    return nodes


class TestParseMemory:
    def test_gigabytes(self):
        assert parse_memory_mb("128g") == 128 * 1024
        assert parse_memory_mb("1.5G") == pytest.approx(1536.0)
        assert parse_memory_mb("2gb") == 2048.0

    def test_megabytes_and_bare(self):
        assert parse_memory_mb("512m") == 512.0
        assert parse_memory_mb("512MB") == 512.0
        assert parse_memory_mb("768") == 768.0

    def test_rejects_garbage(self):
        with pytest.raises(ValueError, match="cannot parse"):
            parse_memory_mb("lots")
        with pytest.raises(ValueError, match="positive"):
            parse_memory_mb("0g")
        with pytest.raises(ValueError, match="empty"):
            parse_memory_mb("  ")


class TestParseClusterSpec:
    def test_paper_default_shape(self):
        pools = parse_cluster_spec("128g:8")
        assert len(pools) == 1
        config, count = pools[0]
        assert config.memory_mb == 128 * 1024
        assert count == 8

    def test_heterogeneous_pools(self):
        pools = parse_cluster_spec("128g:4,256g:4")
        assert [(c.memory_mb, n) for c, n in pools] == [
            (128 * 1024, 4),
            (256 * 1024, 4),
        ]

    def test_count_defaults_to_one(self):
        pools = parse_cluster_spec("512g")
        assert pools[0][1] == 1

    def test_rejects_bad_specs(self):
        with pytest.raises(ValueError, match="count"):
            parse_cluster_spec("128g:0")
        with pytest.raises(ValueError, match="count"):
            parse_cluster_spec("128g:x")
        with pytest.raises(ValueError, match="empty"):
            parse_cluster_spec("128g:2,,64g:1")


class TestHeterogeneousManager:
    def test_from_spec_builds_pools_in_order(self):
        rm = ResourceManager.from_spec("128g:2,256g:2")
        assert [n.config.memory_mb for n in rm.nodes] == [
            128 * 1024, 128 * 1024, 256 * 1024, 256 * 1024
        ]
        assert [n.node_id for n in rm.nodes] == [0, 1, 2, 3]
        assert rm.is_heterogeneous

    def test_single_config_signature_still_works(self):
        rm = ResourceManager(n_nodes=3)
        assert len(rm.nodes) == 3
        assert not rm.is_heterogeneous
        assert rm.max_allocation_mb == 128 * 1024

    def test_max_allocation_is_largest_node(self):
        rm = ResourceManager.from_spec("64g:2,256g:1")
        assert rm.max_allocation_mb == 256 * 1024
        # Clamping caps at the largest node, not the first pool.
        assert rm.clamp_allocation(1e9) == 256 * 1024

    def test_node_capacities(self):
        rm = ResourceManager.from_spec("64g:1,128g:1")
        assert rm.node_capacities_mb() == {0: 64 * 1024, 1: 128 * 1024}

    def test_big_task_lands_on_big_node(self):
        rm = ResourceManager.from_spec("64g:2,256g:1")
        node = rm.try_place(100 * 1024)  # fits only the 256g node
        assert node.config.memory_mb == 256 * 1024

    def test_rejects_nonpositive_pool_count(self):
        with pytest.raises(ValueError, match="pool count"):
            ResourceManager(pools=[(MachineConfig("t", 1024.0), 0)])

    def test_try_place_on_hetero_cluster(self):
        rm = ResourceManager.from_spec("1g:1,4g:1")
        node = rm.try_place(2048.0)
        assert node.node_id == 1  # only the 4g node fits 2 GB
        node.allocate(rm.next_task_id(), 2048.0)
        assert rm.try_place(2049.0) is None  # 2 GB left on the 4g node


class TestPlacementPolicies:
    def test_first_fit_takes_lowest_id(self):
        nodes = make_nodes(5000.0, 9000.0, 2000.0)
        assert FirstFit().select(nodes, 1500.0).node_id == 0

    def test_best_fit_takes_tightest(self):
        nodes = make_nodes(5000.0, 9000.0, 2000.0)
        assert BestFit().select(nodes, 1500.0).node_id == 2

    def test_worst_fit_takes_roomiest(self):
        nodes = make_nodes(5000.0, 9000.0, 2000.0)
        assert WorstFit().select(nodes, 1500.0).node_id == 1

    def test_ties_break_by_node_id(self):
        nodes = make_nodes(4000.0, 4000.0)
        assert BestFit().select(nodes, 1000.0).node_id == 0
        assert WorstFit().select(nodes, 1000.0).node_id == 0

    def test_none_when_nothing_fits(self):
        nodes = make_nodes(500.0, 700.0)
        for policy in (FirstFit(), BestFit(), WorstFit()):
            assert policy.select(nodes, 1000.0) is None

    def test_registry_names(self):
        assert set(placement_names()) >= {
            "first-fit", "best-fit", "worst-fit"
        }

    def test_resolve_by_name_and_instance(self):
        assert isinstance(resolve_placement("best-fit"), BestFit)
        policy = WorstFit()
        assert resolve_placement(policy) is policy

    def test_resolve_rejects_unknown(self):
        with pytest.raises(ValueError, match="unknown placement"):
            resolve_placement("psychic-fit")
        with pytest.raises(TypeError, match="PlacementPolicy"):
            resolve_placement(42)

    def test_custom_policy_registration(self):
        class LastFit:
            name = "last-fit"

            def select(self, nodes, memory_mb):
                for node in reversed(nodes):
                    if node.can_fit(memory_mb):
                        return node
                return None

        register_placement("last-fit", LastFit)
        try:
            rm = ResourceManager(n_nodes=3, placement="last-fit")
            assert rm.try_place(1.0).node_id == 2
        finally:
            from repro.cluster import policies

            policies._REGISTRY.pop("last-fit", None)

    def test_manager_try_place_uses_policy(self):
        rm = ResourceManager.from_spec(
            "10g:1,20g:1", placement="worst-fit"
        )
        assert rm.try_place(1024.0).node_id == 1

    def test_try_place_hides_excluded_nodes(self):
        rm = ResourceManager(MachineConfig("t", 4096.0), n_nodes=2)
        rm.nodes[1].allocate(rm.next_task_id(), 3584.0)
        # Node 0 has room but is excluded; node 1 is full.
        assert rm.try_place(3072.0, exclude={0}) is None
        assert rm.try_place(3072.0, exclude={0, 1}) is None
        # Without the exclusion node 0 takes it.
        assert rm.try_place(3072.0) is rm.nodes[0]

    def test_full_cluster_places_nothing_whatever_the_exclude(self):
        rm = ResourceManager(MachineConfig("t", 4096.0), n_nodes=2)
        for node in rm.nodes:
            node.allocate(rm.next_task_id(), 3584.0)
        assert rm.try_place(1024.0) is None
        assert rm.try_place(1024.0, exclude={0}) is None
        assert rm.try_place(2048.0, exclude={0, 1}) is None

    @pytest.mark.parametrize(
        "exclude, visible",
        [
            (None, [0, 1, 2]),
            (set(), [0, 1, 2]),
            ({0}, [1, 2]),
            # The event kernel passes its drain map (node id -> open
            # drain windows) as the exclusion.
            ({1: 2}, [0, 2]),
            ({0, 1, 2}, []),
        ],
    )
    def test_try_place_asks_the_policy_once_with_the_visible_nodes(
        self, exclude, visible
    ):
        class Recording:
            name = "recording"

            def __init__(self):
                self.calls = []

            def select(self, nodes, memory_mb):
                self.calls.append(([n.node_id for n in nodes], memory_mb))
                return nodes[-1] if nodes else None

        policy = Recording()
        rm = ResourceManager(n_nodes=3, placement=policy)
        node = rm.try_place(512.0, exclude=exclude)
        assert policy.calls == [(visible, 512.0)]
        assert node is (rm.nodes[visible[-1]] if visible else None)

    @pytest.mark.parametrize("placement", ["first-fit", "best-fit", "worst-fit"])
    def test_try_place_matches_the_policy_over_the_visible_nodes(
        self, placement
    ):
        # A random walk of placements, releases and drains: every
        # answer is the policy's own choice among the nodes outside the
        # exclusion, whatever happened before.
        rng = random.Random(42)
        rm = ResourceManager.from_spec("4g:2,6g:1", placement=placement)
        policy = resolve_placement(placement)
        live = []
        drained = set()
        outcomes = Counter()
        for _ in range(600):
            action = rng.random()
            if action < 0.55:
                request = rng.uniform(0.1, 5.0) * 1024.0
                visible = [n for n in rm.nodes if n.node_id not in drained]
                expected = policy.select(visible, request)
                got = rm.try_place(request, exclude=drained)
                assert got is expected, (request, sorted(drained))
                outcomes[got is None, bool(drained)] += 1
                if got is not None:
                    task_id = rm.next_task_id()
                    got.allocate(task_id, request)
                    live.append((got, task_id))
            elif action < 0.8 and live:
                node, task_id = live.pop(rng.randrange(len(live)))
                node.release(task_id)
            elif action < 0.9:
                drained.add(rng.randrange(rm.n_nodes))
            elif drained:
                drained.remove(rng.choice(sorted(drained)))
        # The walk reached every case: placed and blocked, with and
        # without drained nodes.
        assert set(outcomes) == {
            (False, False), (False, True), (True, False), (True, True)
        }
