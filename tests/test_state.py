import pytest

from lazysat.formula import Formula, lit_from_int
from lazysat.state import FALSE, INF, TRUE, UNDEF, TrailState
from lazysat.testkit import s1_replay


def lit(n):
    return lit_from_int(n)


def test_value_fresh_state():
    st = TrailState(4)
    assert st.value(lit(1)) == UNDEF
    assert st.lit_level(lit(1)) == INF


def test_value_on_replay_trail():
    out = s1_replay("lscb")
    st = out["rig"].state
    assert st.value(lit(-3)) == TRUE
    assert st.value(lit(3)) == FALSE


def test_enqueue_decision_levels():
    st = TrailState(4)
    st.enqueue_decision(lit(1))
    assert st.lit_level(lit(1)) == 1
    assert st.pos[1] == 0
    st.enqueue_decision(lit(2))
    assert st.lit_level(lit(2)) == 2
    assert len(st.decisions) == 2


def test_enqueue_decision_on_assigned_is_contract_violation():
    st = TrailState(2)
    st.enqueue_decision(lit(1))
    with pytest.raises(AssertionError):
        st.enqueue_decision(lit(-1))


def test_enqueue_implied_root_unit_level_zero():
    f = Formula(2)
    unit = f.add_clause([1])
    st = TrailState(2, checked=True)
    st.enqueue_implied(lit(1), unit, 0)
    assert st.lit_level(lit(1)) == 0
    assert st.reason[1] is unit


def test_enqueue_implied_checks_unit_reason():
    f = Formula(3)
    c = f.add_clause([1, 2, 3])
    st = TrailState(3, checked=True)
    with pytest.raises(AssertionError):
        st.enqueue_implied(lit(1), c, 0)  # rest of the clause is not falsified


def test_pop_next_moves_head():
    st = TrailState(3)
    st.enqueue_decision(lit(1))
    st.enqueue_decision(lit(2))
    assert st.trail[st.head] == lit(1)
    assert st.pop_next() == lit(1)
    assert st.head == 1
    assert st.pos[1] < st.head
    assert not st.pos[2] < st.head
    assert st.pop_next() == lit(2)
    assert st.head == len(st.trail)
    with pytest.raises(AssertionError):
        st.pop_next()


def test_trail_order_preserved_by_pops():
    st = TrailState(5)
    for n in (1, 2, 3, 4, 5):
        st.enqueue_decision(lit(n))
    before = list(st.trail)
    while st.head < len(st.trail):
        st.pop_next()
    assert st.trail == before


def test_set_lazy_fresh_literal_defaults():
    st = TrailState(3)
    st.enqueue_decision(lit(1))
    assert st.lazy(lit(1)) is None
    assert st.lazy_level(lit(1)) == INF


def test_set_lazy_records_and_improves():
    # One literal with two candidate MLIs: the lower residual level wins,
    # confirmed by recomputing the residual levels by scanning the clauses.
    f = Formula(4)
    m1 = f.add_clause([4, -2])
    m2 = f.add_clause([4, -1])
    st = TrailState(4, checked=True)
    st.enqueue_decision(lit(1))
    st.enqueue_decision(lit(2))
    st.enqueue_decision(lit(3))
    st.enqueue_decision(lit(4))
    st.set_lazy(lit(4), m1)
    assert st.lazy(lit(4)) is m1
    assert st.lazy_level(lit(4)) == st.residual_level(m1.lits, lit(4)) == 2
    st.set_lazy(lit(4), m2)
    assert st.lazy(lit(4)) is m2
    assert st.lazy_level(lit(4)) == st.residual_level(m2.lits, lit(4)) == 1
    # a worse candidate is a contract violation in checked mode
    with pytest.raises(AssertionError):
        st.set_lazy(lit(4), m1)


def test_set_lazy_requires_mli_shape():
    f = Formula(3)
    c = f.add_clause([3, -1])
    st = TrailState(3, checked=True)
    st.enqueue_decision(lit(3))
    with pytest.raises(AssertionError):
        st.set_lazy(lit(3), c)  # rest not falsified


def test_s1_replay_trail_values():
    out = s1_replay("lscb")
    st = out["rig"].state
    # at the second conflict the queue still holds the pending literals
    assert out["snap_second_conflict"]["head"] == 3
    assert st.trail_ints() != []


def test_implied_level_is_max_over_reason_rest():
    out = s1_replay("lscb")
    st = out["rig"].state
    for x in st.trail:
        reason = st.reason[x >> 1]
        if reason is None:
            continue
        rest = [y for y in reason.lits if y != x]
        want = max((st.level[y >> 1] for y in rest), default=0)
        assert st.level[x >> 1] == want


def test_trace_hook_emits_events():
    events = []
    st = TrailState(3, trace=events.append)
    f = Formula(3)
    c = f.add_clause([2, -1])
    st.enqueue_decision(lit(1))
    st.pop_next()
    st.enqueue_implied(lit(2), c, 1)
    kinds = [e["kind"] for e in events]
    assert kinds == ["decide", "pop", "imply"]
    assert events[0] == {"kind": "decide", "lit": 1, "level": 1}
    assert events[2]["clause"] == c.index
