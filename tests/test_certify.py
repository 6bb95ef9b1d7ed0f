import numpy as np
import pytest

from oddcycle import (
    InputError,
    OddCycleCertificate,
    PeelComponent,
    PeelDecomposition,
    PeelParams,
    SelectorInstance,
    ShortCycle,
    ViolationKind,
    complete_graph,
    cycle_graph,
    odd_girth,
    peel,
    random_colouring,
    random_graph,
    select_complement,
    verify_mono_odd_cycle,
    verify_peel,
    verify_selector,
)
from oracles import pentagon_colouring


def _mask(ids):
    return sum(1 << v for v in ids)


class TestCycleVerifier:
    def test_pentagon_certificate_ok(self):
        c = pentagon_colouring()
        cert = OddCycleCertificate((0, 1, 2, 3, 4), colour=0)
        assert verify_mono_odd_cycle(c, cert) is None

    def test_even_length(self):
        c = pentagon_colouring()
        got = verify_mono_odd_cycle(c, OddCycleCertificate((0, 1, 2, 3)))
        assert got.kind is ViolationKind.PARITY

    def test_repeated_vertex(self):
        c = pentagon_colouring()
        got = verify_mono_odd_cycle(c, OddCycleCertificate((0, 1, 0)))
        assert got.kind is ViolationKind.DUPLICATE_VERTEX

    def test_colour_mismatch(self):
        c = pentagon_colouring()
        got = verify_mono_odd_cycle(c, OddCycleCertificate((0, 1, 2, 3, 4), colour=1))
        assert got.kind is ViolationKind.COLOUR_MISMATCH

    @pytest.mark.parametrize("colour", [128, 1000, -5, 2**70])
    def test_claimed_colour_past_the_table_width(self, colour):
        # the pentagon's table is int8: a claimed colour that int8 cannot
        # hold is a mismatch, not numpy's OverflowError
        c = pentagon_colouring()
        assert c.table.dtype == np.int8
        got = verify_mono_odd_cycle(c, OddCycleCertificate((0, 1, 2, 3, 4), colour=colour))
        assert got.kind is ViolationKind.COLOUR_MISMATCH

    def test_out_of_range(self):
        c = pentagon_colouring()
        got = verify_mono_odd_cycle(c, OddCycleCertificate((0, 1, 9)))
        assert got.kind is ViolationKind.ADJACENCY

    @pytest.mark.parametrize("verts", [(0.9, 1.2, 2.7), (True, 2, 0), (0, 1, 2.0), ("0", 1, 2),
                                       (np.float64(0), 1, 2)])
    def test_ids_that_are_not_integers(self, verts):
        # int() would truncate each of these to a triangle of K_3
        got = verify_mono_odd_cycle(random_colouring(3, 1, 0), OddCycleCertificate(verts, 0))
        assert got.kind is ViolationKind.ADJACENCY
        got = verify_mono_odd_cycle(complete_graph(3), OddCycleCertificate(verts))
        assert got.kind is ViolationKind.ADJACENCY

    def test_numpy_integer_ids(self):
        verts = tuple(np.arange(3))
        assert verify_mono_odd_cycle(random_colouring(3, 1, 0), OddCycleCertificate(verts, 0)) is None

    def test_graph_host_adjacency(self):
        g = cycle_graph(5)
        assert verify_mono_odd_cycle(g, OddCycleCertificate((0, 1, 2, 3, 4))) is None
        got = verify_mono_odd_cycle(g, OddCycleCertificate((0, 1, 3)))
        assert got.kind is ViolationKind.ADJACENCY

    def test_mutation_rejection(self):
        # flipping any single vertex or the colour of a valid certificate
        # must produce a violation
        c = pentagon_colouring()
        base = OddCycleCertificate((0, 1, 2, 3, 4), colour=0)
        assert verify_mono_odd_cycle(c, base) is None
        for pos in range(5):
            for repl in range(5):
                if repl == base.vertices[pos]:
                    continue
                verts = list(base.vertices)
                verts[pos] = repl
                assert verify_mono_odd_cycle(c, OddCycleCertificate(tuple(verts), 0)) is not None
        assert verify_mono_odd_cycle(c, base.with_colour(1)) is not None


class TestPeelVerifier:
    def test_valid_outcomes(self):
        g = cycle_graph(16)
        assert verify_peel(g, 4, peel(g, 4)) is None
        k4 = complete_graph(4)
        assert verify_peel(k4, 2, peel(k4, 2)) is None

    @pytest.mark.parametrize("k", [4.5, True, 4.0])
    def test_non_integer_k_rejected(self, k):
        # before either branch reads k: 2k+1 of a cycle, or k's removal bound
        even, odd = cycle_graph(16), cycle_graph(9)
        for g, outcome in ((even, peel(even, 4)), (odd, ShortCycle(odd_girth(odd)[1]))):
            with pytest.raises(InputError, match="radius budget k must be an integer"):
                verify_peel(g, k, outcome)
            assert verify_peel(g, np.int64(4), outcome) is None

    def test_short_cycle_too_long(self):
        g = cycle_graph(9)
        length, cert = odd_girth(g)
        got = verify_peel(g, 3, ShortCycle(cert))  # 9 > 2*3+1
        assert got.kind is ViolationKind.BOUND

    def test_planted_radius_violation(self):
        g = cycle_graph(6)
        comp = PeelComponent(
            ball=_mask(range(6)),
            side0=_mask([0, 2, 4]),
            side1=_mask([1, 3, 5]),
            center=0,
            radius=2,  # true eccentricity is 3
        )
        out = PeelDecomposition(removed_mask=0, components=(comp,))
        got = verify_peel(g, 4, out)
        assert got.kind is ViolationKind.RADIUS

    def test_cover_violation(self):
        g = cycle_graph(6)
        comp = PeelComponent(
            ball=_mask(range(5)),  # vertex 5 unaccounted for
            side0=_mask([0, 2, 4]),
            side1=_mask([1, 3]),
            center=2,
            radius=2,
        )
        out = PeelDecomposition(removed_mask=0, components=(comp,))
        assert verify_peel(g, 4, out).kind is ViolationKind.COVER

    def test_cross_component_edge(self):
        g = cycle_graph(6)
        half = lambda vs, evens, odds: PeelComponent(
            ball=_mask(vs), side0=_mask(evens), side1=_mask(odds), center=vs[0], radius=2
        )
        out = PeelDecomposition(
            removed_mask=0,
            components=(half([0, 1, 2], [0, 2], [1]), half([3, 4, 5], [3, 5], [4])),
        )
        assert verify_peel(g, 4, out).kind is ViolationKind.COVER

    def test_side_conflict(self):
        g = cycle_graph(4)
        comp = PeelComponent(
            ball=_mask(range(4)),
            side0=_mask([0, 1]),
            side1=_mask([2, 3]),
            center=0,
            radius=2,
        )
        out = PeelDecomposition(removed_mask=0, components=(comp,))
        assert verify_peel(g, 4, out).kind is ViolationKind.SIDE_CONFLICT

    def test_moved_vertex_is_judged_by_the_bound(self):
        # moving a boundary-adjacent vertex from its component into the
        # removed set keeps everything consistent iff the size bound holds
        g = cycle_graph(16)
        out = peel(g, 4)
        comp = max(out.components, key=lambda c: len(c.vertices))
        leaf = int(comp.vertices.max())  # outermost layer vertex, not the centre
        assert leaf != comp.center
        new_comps = []
        for c in out.components:
            if c is comp:
                keep = ~(1 << leaf)
                new_comps.append(
                    PeelComponent(
                        ball=c.ball & keep,
                        side0=c.side0 & keep,
                        side1=c.side1 & keep,
                        center=c.center,
                        radius=c.radius,
                    )
                )
            else:
                new_comps.append(c)
        moved = PeelDecomposition(
            removed_mask=out.removed_mask | 1 << leaf, components=tuple(new_comps)
        )
        verdict = verify_peel(g, 4, moved)
        bound = PeelParams(4).removed_bound(16)
        if len(moved.removed) <= bound:
            assert verdict is None
        else:
            assert verdict.kind is ViolationKind.BOUND

    def test_removed_bound_violation(self):
        g = complete_graph(40)  # peel with huge k removes little; fake more
        out = peel(cycle_graph(9), 4)
        fake = PeelDecomposition(
            removed_mask=_mask(range(9)), components=()
        )
        got = verify_peel(cycle_graph(9), 4, fake)
        assert got.kind is ViolationKind.BOUND


class TestSelectorVerifier:
    def test_empty_instance(self):
        inst = SelectorInstance(4, [])
        res = select_complement(inst)
        assert verify_selector(inst, res, 4) is None

    def test_bound_violation(self):
        inst = SelectorInstance(4, [({0}, {1})])
        res = select_complement(inst)
        got = verify_selector(inst, res, len(res.survivors) + 1)
        assert got.kind is ViolationKind.BOUND

    def test_side_conflict(self):
        from oddcycle import SelectorResult

        inst = SelectorInstance(4, [({0}, {1})])
        forged = SelectorResult(choices=(0,), chosen_union=np.array([], dtype=np.int64),
                                survivors=np.arange(4))
        got = verify_selector(inst, forged, 1)
        assert got.kind in (ViolationKind.COVER, ViolationKind.SIDE_CONFLICT)

    def test_union_mismatch(self):
        from oddcycle import SelectorResult

        inst = SelectorInstance(4, [({0}, {1})])
        forged = SelectorResult(choices=(0,), chosen_union=np.array([1]),
                                survivors=np.array([0, 2, 3]))
        assert verify_selector(inst, forged, 1).kind is ViolationKind.COVER

    @pytest.mark.parametrize("field,ids", [
        ("chosen_union", np.array([0.0])), ("chosen_union", np.array([0.5])),
        ("chosen_union", [False]), ("survivors", np.array([1.0, 2.0, 3.0])),
        ("survivors", np.array([1.2, 2.5, 3.9])), ("survivors", [True, 2, 3]),
    ])
    def test_ids_that_are_not_integers(self, field, ids):
        from oddcycle import SelectorResult

        # int() would make each of these the valid result below
        inst = SelectorInstance(4, [({0}, {1})])
        valid = {"chosen_union": np.array([0]), "survivors": np.array([1, 2, 3])}
        assert verify_selector(inst, SelectorResult((0,), **valid), 3) is None
        forged = SelectorResult((0,), **{**valid, field: ids})
        assert verify_selector(inst, forged, 3).kind is ViolationKind.COVER

    def test_flip_single_choice_detected(self):
        rng = np.random.default_rng(23)
        for _ in range(30):
            n = int(rng.integers(4, 16))
            pairs = []
            for _ in range(int(rng.integers(1, 5))):
                chosen = rng.choice(n, size=int(rng.integers(2, n)), replace=False)
                half = len(chosen) // 2
                pairs.append((chosen[:half], chosen[half:]))
            inst = SelectorInstance(n, pairs)
            res = select_complement(inst)
            assert verify_selector(inst, res, 0) is None
            from oddcycle import SelectorResult

            flip = int(rng.integers(inst.q))
            mutated = tuple(
                c if i != flip else 1 - c for i, c in enumerate(res.choices)
            )
            forged = SelectorResult(mutated, res.chosen_union, res.survivors)
            a, b = inst.pairs[flip]
            if len(a) != len(b) or set(map(int, a)) != set(map(int, b)):
                assert verify_selector(inst, forged, 0) is not None


class TestEndToEndSoundness:
    def test_all_producers_pass_verifiers(self):
        rng = np.random.default_rng(5)
        for _ in range(100):
            n = int(rng.integers(4, 36))
            k = int(rng.integers(1, 8))
            g = random_graph(n, float(rng.uniform(0.05, 0.5)), int(rng.integers(1 << 30)))
            assert verify_peel(g, k, peel(g, k)) is None
            got = odd_girth(g)
            if got is not None:
                assert verify_mono_odd_cycle(g, got[1]) is None
