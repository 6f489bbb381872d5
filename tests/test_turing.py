import random

import pytest
from hypothesis import given, settings, strategies as st

from satkit import turing
from satkit.turing import (
    BLANK,
    Configuration,
    MachineSpec,
    format_machine,
    initial_configuration,
    parse_machine,
    run_dtm,
    run_ntm,
    step,
)
from support import (
    bfs_ntm_accepts,
    branching_acceptor,
    build_equality_checker,
    machine_inputs,
    one_step_acceptor,
    run_dtm_reference,
    run_ntm_reference,
    tableau_battery,
)


def test_machine_validation():
    with pytest.raises(ValueError, match="differ"):
        MachineSpec({"q", "h"}, {"1"}, {"1", BLANK}, {}, "q", "h", "h")
    with pytest.raises(ValueError, match="blank"):
        MachineSpec({"q", "a", "r"}, {BLANK}, {BLANK}, {}, "q", "a", "r")
    with pytest.raises(ValueError, match="halting"):
        MachineSpec(
            {"q", "a", "r"}, {"1"}, {"1", BLANK},
            {("a", "1"): [("q", "1", "R")]}, "q", "a", "r",
        )
    with pytest.raises(ValueError, match=r"^transition \('q', '1'\) has an empty option set$"):
        MachineSpec({"q", "a", "r"}, {"1"}, {"1", BLANK}, {("q", "1"): []}, "q", "a", "r")


def test_step_follows_listed_transition():
    m = build_equality_checker()
    c = initial_configuration(m, "101#101")
    nxt = step(m, c)
    assert nxt.state == "F1"
    assert nxt.tape[0] == "x"
    assert nxt.head == 1


def test_step_reject_row():
    m = build_equality_checker()
    c = Configuration(("0",), 0, "C1")
    assert step(m, c).state == "reject"


def test_step_left_at_edge_stays():
    m = MachineSpec(
        {"q0", "q1", "acc", "rej"}, {"1"}, {"1", BLANK},
        {("q0", "1"): [("q1", "1", "L")]}, "q0", "acc", "rej",
    )
    c = Configuration(("1",), 0, "q0")
    nxt = step(m, c)
    assert nxt.head == 0 and nxt.state == "q1"


def test_step_missing_delta_implicitly_rejects():
    m = one_step_acceptor()
    weird = Configuration(("1",), 0, "q0")
    # remove coverage by reading an unlisted pair through a fresh machine
    m2 = MachineSpec(m.states, m.input_alphabet, m.tape_alphabet, {}, "q0", "acc", "rej")
    out = step(m2, weird)
    assert out.state == "rej"
    assert out.tape[0] == "1"
    assert out.head == 1


def test_step_rejects_bad_choice_and_halted():
    m = one_step_acceptor()
    c = initial_configuration(m, "1")
    with pytest.raises(ValueError, match="choice"):
        step(m, c, 5)
    halted = Configuration(("1",), 0, "acc")
    with pytest.raises(ValueError, match="halting"):
        step(m, halted)


def test_choice_order_is_canonical():
    m = branching_acceptor()
    # options sorted by (state, written, direction): acc before q0
    assert m.options("q0", "1") == (("acc", "1", "R"), ("q0", "1", "R"))


def test_equality_checker_examples():
    m = build_equality_checker()
    assert run_dtm(m, "101#101", 1000).verdict == "accept"
    assert run_dtm(m, "101#100", 1000).verdict == "reject"
    assert run_dtm(m, "101101", 1000).verdict == "reject"
    assert run_dtm(m, "#", 1000).verdict == "accept"
    assert run_dtm(m, "0#0", 1000).verdict == "accept"
    assert run_dtm(m, "0#1", 1000).verdict == "reject"


def test_run_dtm_guards():
    m = build_equality_checker()
    with pytest.raises(ValueError, match="input symbols"):
        run_dtm(m, "10x", 100)
    with pytest.raises(ValueError, match="deterministic"):
        run_dtm(branching_acceptor(), "1", 100)


def test_run_dtm_step_limit():
    m = build_equality_checker()
    out = run_dtm(m, "101#101", 3)
    assert out.verdict == "step_limit_exceeded"
    assert out.steps_used == 3


def test_run_dtm_trace():
    m = build_equality_checker()
    out = run_dtm(m, "#", 100, collect_trace=True)
    assert out.trace[0].render() == "[A] #"
    assert [c.state for c in out.trace] == ["A", "C#", "accept"]
    assert out.final.state == "accept"


def test_run_ntm_matches_dtm_on_deterministic_machines():
    m = build_equality_checker()
    for w in ["", "#", "1#1", "0#1", "10#10"]:
        d = run_dtm(m, w, 200)
        n, choices = run_ntm(m, w, d.steps_used + 2)
        assert n.verdict == d.verdict
        assert n.steps_used == d.steps_used
        if n.verdict == "accept":
            assert choices == (1,) * d.steps_used


def test_run_ntm_branching_example():
    out, choices = run_ntm(branching_acceptor(), "1", 3)
    assert out.verdict == "accept"
    assert choices == (1,)
    assert out.steps_used == 1


def test_run_ntm_loop_hits_depth_limit():
    m = MachineSpec(
        {"q0", "acc", "rej"}, {"1"}, {"1", BLANK},
        {("q0", "1"): [("q0", "1", "R")], ("q0", BLANK): [("q0", BLANK, "R")]},
        "q0", "acc", "rej",
    )
    out, choices = run_ntm(m, "1", 4)
    assert out.verdict == "step_limit_exceeded"
    assert choices is None


def test_run_ntm_agrees_with_bfs_oracle():
    rng = random.Random(14)
    for m in tableau_battery():
        for w in ["", "1" * 2] if "1" in m.input_alphabet else ["", "a", "aa"]:
            for depth in (2, 4, 6):
                got, _ = run_ntm(m, w, depth)
                assert (got.verdict == "accept") == bfs_ntm_accepts(m, w, depth), (
                    m.q0, w, depth,
                )


@st.composite
def ntm_machines(draw, deterministic=False):
    names = ["s0", "s1", "s2", "s3"][: draw(st.integers(2, 4))]
    q_accept, q_reject = draw(st.permutations(names))[:2]
    inputs = draw(st.sampled_from([{"1"}, {"0", "1"}]))
    tape = sorted(inputs | {BLANK})
    option = st.tuples(st.sampled_from(names), st.sampled_from(tape), st.sampled_from("LR"))
    delta = {}
    for q in names:
        if q in (q_accept, q_reject):
            continue
        for a in tape:
            options = draw(st.lists(option, max_size=1 if deterministic else 3))
            if options:
                delta[(q, a)] = options
    # the start state is sometimes halting
    q0 = draw(st.sampled_from(names))
    return MachineSpec(set(names), inputs, set(tape), delta, q0, q_accept, q_reject)


def _same_run(m, w, depth):
    got, choices = run_ntm(m, w, depth)
    want, want_choices = run_ntm_reference(m, w, depth)
    assert (got, choices) == (want, want_choices), (w, depth)
    assert got.final == want.final


@settings(max_examples=200, deadline=None, derandomize=True)
@given(ntm_machines(), st.data())
def test_run_ntm_matches_replay_on_random_machines(m, data):
    w = data.draw(st.text(alphabet=sorted(m.input_alphabet), max_size=3))
    _same_run(m, w, data.draw(st.integers(0, 5)))


@settings(max_examples=200, deadline=None, derandomize=True)
@given(ntm_machines(deterministic=True), st.data())
def test_run_dtm_matches_the_step_by_step_reference(m, data):
    w = data.draw(st.text(alphabet=sorted(m.input_alphabet), max_size=4))
    for limit in range(31):
        for traced in (False, True):
            got = run_dtm(m, w, limit, traced)
            want = run_dtm_reference(m, w, limit, traced)
            # RunOutcome's == leaves the trace out, so compare it too.
            assert (got, got.final, got.trace) == (want, want.final, want.trace), (w, limit)


def test_run_ntm_matches_replay_on_battery():
    for m in tableau_battery():
        for w in machine_inputs(m, 2):
            for depth in range(7):
                _same_run(m, w, depth)


def test_run_ntm_deep_deterministic_run():
    # 1,250 steps: deeper than the interpreter's recursion limit
    m = build_equality_checker()
    w = "10" * 12 + "#" + "10" * 12
    d = run_dtm(m, w, 1500)
    got, choices = run_ntm(m, w, 1500)
    assert d.verdict == "accept" and d.steps_used > 1000
    assert got == d and got.final == d.final
    assert choices == (1,) * d.steps_used


def test_run_dtm_refuses_a_negative_step_limit():
    with pytest.raises(ValueError, match="^step_limit must be non-negative, got -3$"):
        run_dtm(build_equality_checker(), "1#1", -3)


def test_run_ntm_refuses_a_negative_depth_limit():
    with pytest.raises(ValueError, match="^depth_limit must be non-negative, got -1$"):
        run_ntm(branching_acceptor(), "1", -1)


@pytest.fixture
def configurations_built(monkeypatch):
    """A list that grows by one for each Configuration built."""
    built = []
    init = turing.Configuration.__init__

    def counting(self, *args, **kwargs):
        built.append(args)
        init(self, *args, **kwargs)

    monkeypatch.setattr(turing.Configuration, "__init__", counting)
    return built


LONG_EQUALITY = "10" * 12 + "#" + "10" * 12  # accepts after 1,250 steps


@pytest.mark.parametrize("limit", [0, 1, 50])
def test_untraced_run_dtm_builds_two_configurations(configurations_built, limit):
    out = run_dtm(build_equality_checker(), LONG_EQUALITY, limit)
    assert out.steps_used == limit
    assert len(configurations_built) == 2


@pytest.mark.parametrize("limit", [0, 1, 50])
def test_traced_run_dtm_builds_a_configuration_per_step(configurations_built, limit):
    out = run_dtm(build_equality_checker(), LONG_EQUALITY, limit, collect_trace=True)
    assert len(out.trace) == limit + 1
    assert len(configurations_built) <= out.steps_used + 2


@pytest.mark.parametrize("machine, word, depth", [
    (branching_acceptor(), "1", 3),
    (branching_acceptor(), "11", 0),
    (one_step_acceptor(), "", 4),
    (build_equality_checker(), "10#10", 60),
])
def test_run_ntm_builds_at_most_two_configurations(configurations_built, machine, word, depth):
    run_ntm(machine, word, depth)
    assert len(configurations_built) <= 2


@pytest.fixture
def transitions_applied(monkeypatch):
    """A list that grows by one for each transition option applied."""
    applied = []
    apply = turing._apply

    def counting(tape, head, option):
        applied.append(option)
        return apply(tape, head, option)

    monkeypatch.setattr(turing, "_apply", counting)
    return applied


def test_deep_deterministic_run_ntm_applies_each_step_once(transitions_applied):
    got, choices = run_ntm(build_equality_checker(), LONG_EQUALITY, 1500)
    assert got.verdict == "accept"
    assert len(transitions_applied) == got.steps_used == 1250
    assert choices == (1,) * 1250


def _forced_then(k, then):
    """From the empty input, k single-option steps right over blanks, then
    ``then``: a halting state, or ``m``, which may keep walking right or
    step back to ``n``, which accepts on the 1 written there."""
    chain = [f"p{i}" for i in range(k)] + [then]
    delta = {(q, BLANK): [(r, "1", "R")] for q, r in zip(chain, chain[1:])}
    delta[("m", BLANK)] = [("m", "1", "R"), ("n", BLANK, "L")]
    delta[("n", "1")] = [("acc", "1", "R")]
    states = {*chain, "m", "n", "acc", "rej"}
    return MachineSpec(states, {"1"}, {"1", BLANK}, delta, chain[0], "acc", "rej")


@pytest.mark.parametrize("then, depth, verdict", [
    ("m", 4, "step_limit_exceeded"),  # the limit falls inside the prefix
    ("m", 5, "step_limit_exceeded"),  # ... on the branching state
    ("m", 6, "step_limit_exceeded"),  # ... one step below it
    ("m", 7, "accept"),  # the second choice at the branch accepts a step later
    ("acc", 8, "accept"),  # the prefix accepts before the limit
    ("rej", 8, "reject"),  # the prefix rejects before the limit
])
def test_run_ntm_after_a_forced_prefix_matches_replay(then, depth, verdict):
    m = _forced_then(5, then)
    _same_run(m, "", depth)
    assert run_ntm(m, "", depth)[0].verdict == verdict


def test_machine_file_round_trip():
    for m in tableau_battery() + [build_equality_checker()]:
        assert parse_machine(format_machine(m)) == m


def test_machine_file_nondeterministic_lines():
    text = (
        "states: q0 acc rej\n"
        "input: 1\n"
        "tape: 1 _\n"
        "start: q0\naccept: acc\nreject: rej\n"
        "delta: q0 1 -> acc 1 R\n"
        "delta: q0 1 -> q0 1 R\n"
        "delta: q0 _ -> rej _ R\n"
    )
    assert parse_machine(text) == branching_acceptor()


def test_machine_file_errors():
    with pytest.raises(ValueError, match="missing 'states'"):
        parse_machine("input: 1\ntape: 1 _\nstart: q\naccept: a\nreject: r\n")
    with pytest.raises(ValueError, match="line 2"):
        parse_machine("states: q a r\ndelta: q 1 -> a 1\n")
    with pytest.raises(ValueError, match="duplicate"):
        parse_machine("states: q\nstates: q\n")
    with pytest.raises(ValueError, match="unknown directive"):
        parse_machine("wat: 1\n")


@pytest.mark.parametrize("head", [-1, 4])
def test_configuration_refuses_a_head_off_the_tape(head):
    with pytest.raises(ValueError, match="^head must sit on the tape or one cell past it$"):
        Configuration(("1", "0", "1"), head, "q")


def test_configuration_render():
    c = Configuration(("1", "0", "1"), 1, "B")
    assert c.render() == "1 [B] 0 1"
    assert Configuration((BLANK,), 0, "A").render() == "[A] _"


def test_configuration_canonicalizes_trailing_blanks():
    a = Configuration(("1", BLANK, BLANK), 0, "q")
    b = Configuration(("1",), 0, "q")
    assert a == b
    c = Configuration(("1", BLANK), 1, "q")
    assert c.tape == ("1", BLANK)


NO_TRANSITIONS = (
    "states: q0 acc rej\ninput: 1\ntape: 1 _\nstart: q0\naccept: acc\nreject: rej\n"
)


@pytest.mark.parametrize("ch", ["\u2028", "\u2029", "\x85", "\x0b", "\x0c", "\x1c", "\x1d", "\x1e"])
def test_machine_comment_cannot_hold_a_transition(ch):
    m = parse_machine(NO_TRANSITIONS + f"# todo{ch}delta: q0 1 -> acc 1 R\n")
    assert m.delta == {}
    assert run_dtm(m, "1", 5).verdict == "reject"


@settings(max_examples=200, deadline=None, derandomize=True)
@given(ntm_machines(), st.data())
def test_inserted_machine_comment_changes_nothing(m, data):
    lines = format_machine(m).split("\n")
    at = data.draw(st.integers(0, len(lines) - 1))
    note = data.draw(st.text(st.characters(blacklist_characters="\n\r")))
    lines.insert(at, "#" + note)
    for end in ("\n", "\r\n", "\r"):
        assert parse_machine(end.join(lines)) == m


def test_configuration_adds_the_blank_past_the_tape():
    m = build_equality_checker()
    assert initial_configuration(m, "") == Configuration((BLANK,), 0, "A")
    out = run_dtm(m, "", 5, collect_trace=True)
    assert [c.render() for c in out.trace] == ["[A] _", "_ [reject] _"]
    assert step(m, initial_configuration(m, "#")).tape == ("#", BLANK)
