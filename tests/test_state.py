import pytest

from lazysat.formula import Formula
from lazysat.state import FALSE, INF, TRUE, UNDEF, TrailState
from support import lit_from_int as lit
from support import enqueue_decision, s1_replay


def test_value_fresh_state():
    st = TrailState(4)
    assert st.val[lit(1)] == UNDEF
    assert st.level[lit(1) >> 1] == INF


def test_value_on_replay_trail():
    out = s1_replay("lscb")
    st = out["rig"].state
    assert st.val[lit(-3)] == TRUE
    assert st.val[lit(3)] == FALSE


def test_enqueue_implied_root_unit_level_zero():
    f = Formula(2)
    unit = f.add_clause([1])
    st = TrailState(2, checked=True)
    st.enqueue_implied(lit(1), unit, 0)
    assert st.level[lit(1) >> 1] == 0
    assert st.reason[1] is unit


def test_enqueue_implied_checks_unit_reason():
    f = Formula(3)
    c = f.add_clause([1, 2, 3])
    st = TrailState(3, checked=True)
    with pytest.raises(AssertionError):
        st.enqueue_implied(lit(1), c, 0)  # rest of the clause is not falsified


# Each case breaks the named assert and every one tested after it, so the
# message shows both that the assert fires and that it is tested first.
@pytest.mark.parametrize(
    "decided, clause, implied, lvl, message",
    [
        ([1], [2, 3], 1, 5, "implying an assigned variable"),
        ([], [2, 3], 1, 5, "reason does not contain the implied literal"),
        ([], [1, 2, 3], 1, 5, "reason not unit under the trail"),
        ([-2], [1, 2], 1, 0, "implied level mismatch"),
    ],
)
def test_enqueue_implied_checked_asserts(decided, clause, implied, lvl, message):
    f = Formula(3)
    reason = f.add_clause(clause)
    st = TrailState(3, checked=True)
    for n in decided:
        enqueue_decision(st, lit(n))
    with pytest.raises(AssertionError, match="^%s$" % message):
        st.enqueue_implied(lit(implied), reason, lvl)


# 1, 3 and 4 are decided at levels 1, 2 and 3; {3, -1} is a stored MLI of 3
# at level 1 when ``stored`` is set.
@pytest.mark.parametrize(
    "target, clause, lvl, stored, message",
    [
        (-3, [-1, 2], 7, False, "MLI target must be satisfied"),
        (3, [-1, 2], 7, False, "MLI clause must contain its literal"),
        (3, [3, 2], 7, False, "MLI rest must be falsified"),
        (3, [3, -1], 0, False, "MLI level mismatch"),
        (3, [3, -4], 3, False, "MLI must be strictly lower than the literal"),
        (3, [3, -1], 1, True, "MLI must improve the stored one"),
    ],
)
def test_set_lazy_checked_asserts(target, clause, lvl, stored, message):
    f = Formula(4)
    mli = f.add_clause(clause)
    st = TrailState(4, checked=True)
    for n in (1, 3, 4):
        enqueue_decision(st, lit(n))
    if stored:
        st.set_lazy(lit(3), f.add_clause([3, -1]), 1)
    with pytest.raises(AssertionError, match="^%s$" % message):
        st.set_lazy(lit(target), mli, lvl)


def test_set_lazy_fresh_literal_defaults():
    st = TrailState(3)
    enqueue_decision(st, lit(1))
    assert st.val[lit(1)] == TRUE
    assert st.lazy_cl[1] is None
    assert st.lazy_lvl[1] == INF


def test_set_lazy_records_and_improves():
    # One literal with two candidate MLIs: the lower residual level wins,
    # confirmed by recomputing the residual levels by scanning the clauses.
    f = Formula(4)
    m1 = f.add_clause([4, -2])
    m2 = f.add_clause([4, -1])
    st = TrailState(4, checked=True)
    enqueue_decision(st, lit(1))
    enqueue_decision(st, lit(2))
    enqueue_decision(st, lit(3))
    enqueue_decision(st, lit(4))
    st.set_lazy(lit(4), m1, 2)
    assert st.val[lit(4)] == TRUE
    assert st.lazy_cl[4] is m1
    assert st.lazy_lvl[4] == st.residual(m1.lits, lit(4))[0] == 2
    with pytest.raises(AssertionError):
        st.set_lazy(lit(4), m2, 0)  # not m2's residual level
    st.set_lazy(lit(4), m2, 1)
    assert st.lazy_cl[4] is m2
    assert st.lazy_lvl[4] == st.residual(m2.lits, lit(4))[0] == 1
    # a worse candidate is a contract violation in checked mode
    with pytest.raises(AssertionError):
        st.set_lazy(lit(4), m1, 2)


def test_set_lazy_requires_mli_shape():
    f = Formula(3)
    c = f.add_clause([3, -1])
    st = TrailState(3, checked=True)
    enqueue_decision(st, lit(3))
    with pytest.raises(AssertionError):
        st.set_lazy(lit(3), c, st.residual(c.lits, lit(3))[0])  # rest not falsified


def test_s1_replay_trail_values():
    out = s1_replay("lscb")
    st = out["rig"].state
    # at the second conflict the queue still holds the pending literals
    assert out["snap_second_conflict"]["head"] == 3
    assert st.trail != []


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
    enqueue_decision(st, lit(1))
    st.enqueue_implied(lit(2), c, 1)
    kinds = [e["kind"] for e in events]
    assert kinds == ["decide", "imply"]
    assert events[0] == {"kind": "decide", "lit": 1, "level": 1}
    assert events[1]["clause"] == c.index
