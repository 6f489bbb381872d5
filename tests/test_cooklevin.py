import hashlib
import itertools
import math

import pytest
from hypothesis import given, settings, strategies as st

from satkit.cooklevin import (
    BOUNDARY,
    WindowTemplate,
    blocked_patterns,
    decode_tableau,
    encode,
    legal_windows,
    state_symbol as Q,
    tape_symbol as G,
)
from satkit.errors import BudgetExceededError
from satkit.oracle import brute_force_sat
from satkit.turing import BLANK, MachineSpec, build_equality_checker, run_dtm
from support import (
    blocked_patterns_reference,
    machine_inputs,
    one_step_acceptor,
    paper_walker_wrapped,
    row_successors,
    tableau_battery,
)


def test_legal_windows_walker_examples():
    lw = legal_windows(paper_walker_wrapped())
    # state reads b in q1, writes a, moves right
    assert WindowTemplate((G("b"), Q("q1"), G("b")), (G("b"), G("a"), Q("q2"))) in lw
    # content cannot change without a visible head
    assert WindowTemplate((G("b"), G("a"), G("b")), (G("b"), G("b"), G("b"))) not in lw
    # two head cells can never appear
    assert WindowTemplate((G("b"), G("a"), G("b")), (Q("q1"), G("a"), Q("q2"))) not in lw


def test_legal_windows_headless_identity():
    for m in (one_step_acceptor(), paper_walker_wrapped()):
        lw = legal_windows(m)
        sym = sorted(m.tape_alphabet)[0]
        w = (G(sym), G(sym), G(sym))
        assert WindowTemplate(w, w) in lw


def test_legal_windows_hidden_head_drift():
    # walker: (q3, b) may write a moving left, so a head just left of the
    # window can flip its first cell
    lw = legal_windows(paper_walker_wrapped())
    assert WindowTemplate((G("b"), G("a"), G("a")), (G("a"), G("a"), G("a"))) in lw


def test_legal_windows_no_boundary_mid_window():
    for w in legal_windows(one_step_acceptor()):
        assert w.top[1] != BOUNDARY
        assert w.bottom[1] != BOUNDARY


def test_encode_variable_count_exact():
    m = one_step_acceptor()
    for p in (4, 5, 6):
        f, spec = encode(m, "1", p)
        symbols = len(m.states) + len(m.tape_alphabet) + 1
        assert f.num_vars == p * p * symbols
        assert spec.num_vars == f.num_vars


def test_encode_clause_count_formula():
    m = one_step_acceptor()
    p = 4
    f, spec = encode(m, "1", p, windows="full")
    msz = spec.num_symbols
    legal = len(legal_windows(m))
    expected = (
        p * p * (1 + math.comb(msz, 2))  # per-cell exactly-one
        + p  # pinned initial row
        + 1  # acceptance disjunction
        + (p - 1) * (p - 2) * (msz**6 - legal)
    )
    assert len(f.clauses) == expected


def test_encode_guards():
    m = one_step_acceptor()
    with pytest.raises(ValueError, match="too small"):
        encode(m, "11", 4)
    with pytest.raises(ValueError, match="alphabet"):
        encode(m, "2", 5)


def test_encode_refuses_oversized_machines():
    with pytest.raises(BudgetExceededError, match="encoding"):
        encode(build_equality_checker(), "1#1", 9, windows="full")
    # the guard is adjustable for callers who know what they are doing
    m = one_step_acceptor()
    with pytest.raises(BudgetExceededError):
        encode(m, "1", 4, max_clauses=1000, windows="full")


def test_encode_compact_clause_count_and_guard():
    m = one_step_acceptor()
    p = 4
    f, spec = encode(m, "1", p)
    msz = spec.num_symbols
    legal = {w.top + w.bottom for w in legal_windows(m)}
    patterns = blocked_patterns(legal, [spec.symbols] * 6)
    emitted = (
        p * p * (1 + math.comb(msz, 2))  # per-cell exactly-one
        + p  # pinned initial row
        + 1  # acceptance disjunction
        + (p - 1) * (p - 2) * len(patterns)
    )
    assert len(f.clauses) == emitted
    assert f.num_vars == p * p * msz
    # the guard counts exactly the clauses that are emitted
    assert encode(m, "1", p, max_clauses=emitted)[0] == f
    with pytest.raises(BudgetExceededError, match="encoding"):
        encode(m, "1", p, max_clauses=emitted - 1)
    with pytest.raises(BudgetExceededError):
        encode(m, "1", p, max_clauses=1000)
    # a huge tableau is refused before any clause is built
    with pytest.raises(BudgetExceededError):
        encode(m, "1", 10**6)


def test_encode_rejects_unknown_windows_mode():
    with pytest.raises(ValueError, match="windows"):
        encode(one_step_acceptor(), "1", 4, windows="fast")


def _universe(m):
    return (
        [Q(s) for s in sorted(m.states)] + [G(s) for s in sorted(m.tape_alphabet)] + [BOUNDARY]
    )


@pytest.mark.parametrize(
    "machine", [one_step_acceptor, paper_walker_wrapped, build_equality_checker]
)
def test_blocked_patterns_block_exactly_the_illegal_windows(machine):
    m = machine()
    universe = _universe(m)
    legal = {w.top + w.bottom for w in legal_windows(m)}
    patterns = blocked_patterns(legal, [universe] * 6)
    blocked = set(patterns)
    assert len(blocked) == len(patterns)

    def subsets(cells):
        return [sub for k in range(len(cells) + 1) for sub in itertools.combinations(cells, k)]

    occurring = {
        cells: {tuple(w[c] for c in cells) for w in legal} for cells in subsets(range(6))
    }

    # no legal window matches any pattern
    for w in legal:
        for cells in subsets(range(6)):
            assert (cells, tuple(w[c] for c in cells)) not in blocked

    # every proper sub-pattern of a pattern occurs in some legal window
    for cells, vals in patterns:
        assert 1 <= len(cells) <= 6
        assert vals not in occurring[cells]
        for keep in subsets(range(len(cells)))[:-1]:
            sub = tuple(cells[i] for i in keep)
            assert tuple(vals[i] for i in keep) in occurring[sub]

    # every illegal window contains a pattern: grow all windows cell by cell
    # and cut a branch as soon as its newest cell completes a pattern; each
    # window that survives all six cells must be legal
    prefixes = [()]
    for last in range(6):
        earlier = subsets(range(last))
        prefixes = [
            prefix + (v,)
            for prefix in prefixes
            for v in universe
            if not any(
                (cells + (last,), tuple(prefix[c] for c in cells) + (v,)) in blocked
                for cells in earlier
            )
        ]
    assert set(prefixes) == legal


@st.composite
def window_sets(draw):
    """Legal-window sets over six cell domains, ints or tagged symbols.

    Domains come in shuffled order, so list order and sorted order differ.
    """
    if draw(st.booleans()):
        domains = [
            draw(st.permutations(range(10 * c, 10 * c + draw(st.integers(1, 3)))))
            for c in range(6)
        ]
    else:
        universe = [Q("s0"), Q("s1"), G("0"), G("1"), G(BLANK), BOUNDARY]
        domains = [
            draw(st.permutations(universe))[: draw(st.integers(1, 4))] for _ in range(6)
        ]
    window = st.tuples(*(st.sampled_from(d) for d in domains))
    return set(draw(st.lists(window, max_size=40))), domains


@settings(max_examples=300, deadline=None, derandomize=True)
@given(window_sets())
def test_blocked_patterns_match_reference(case):
    legal, domains = case
    assert blocked_patterns(legal, domains) == blocked_patterns_reference(legal, domains)


@pytest.mark.parametrize("machine", [one_step_acceptor, paper_walker_wrapped])
def test_blocked_patterns_match_reference_on_machines(machine):
    m = machine()
    legal = {w.top + w.bottom for w in legal_windows(m)}
    universe = _universe(m)
    for domains in ([universe] * 6, [universe[::-1]] * 6):
        assert blocked_patterns(legal, domains) == blocked_patterns_reference(legal, domains)


@pytest.mark.parametrize(
    "machine, word, p, digest",
    [
        (paper_walker_wrapped, "a", 5, "e8c405db0bd7c82c1a909b8e3e77c4343ca124dd"),
        (build_equality_checker, "1#1", 9, "895b780b58fcf8cd9fc58d3b59d87b6812ba6443"),
    ],
)
def test_encode_clauses_are_pinned(machine, word, p, digest):
    # sha1 of the clause tuple of the grow-by-every-value search: the join
    # must emit the same clauses in the same order
    f, _ = encode(machine(), word, p)
    assert hashlib.sha1(repr(f.clauses).encode()).hexdigest() == digest


def test_compact_matches_full_on_battery():
    # every battery combo whose paper-literal encoding stays under ~1M clauses
    checked = 0
    for m in tableau_battery():
        universe = len(m.states) + len(m.tape_alphabet) + 1
        for w in machine_inputs(m, 2):
            for p in (len(w) + 3, len(w) + 4):
                if (p - 1) * (p - 2) * universe**6 > 1_000_000:
                    continue
                full, _ = encode(m, w, p, windows="full")
                compact, _ = encode(m, w, p)
                assert compact.num_vars == full.num_vars
                assert len(compact.clauses) < len(full.clauses)
                expected = brute_force_sat(full, max_vars=full.num_vars)
                assert brute_force_sat(compact, max_vars=compact.num_vars) == expected, (m, w, p)
                checked += 1
    assert checked >= 20


@st.composite
def tiny_machines(draw):
    names = ["s0", "s1", "s2"][: draw(st.integers(2, 3))]
    q_accept, q_reject = draw(st.permutations(names))[:2]
    inputs = draw(st.sampled_from([{"1"}, {"0", "1"}]))
    tape = sorted(inputs | {BLANK})
    option = st.tuples(st.sampled_from(names), st.sampled_from(tape), st.sampled_from("LR"))
    delta = {}
    for q in names:
        if q in (q_accept, q_reject):
            continue
        for a in tape:
            options = draw(st.lists(option, max_size=2))
            if options:
                delta[(q, a)] = options
    q0 = draw(st.sampled_from(names))
    return MachineSpec(set(names), inputs, set(tape), delta, q0, q_accept, q_reject)


@settings(max_examples=15, deadline=None, derandomize=True)
@given(tiny_machines(), st.data())
def test_compact_matches_full_on_random_machines(m, data):
    p = data.draw(st.integers(3, 4))
    w = data.draw(st.text(alphabet=sorted(m.input_alphabet), max_size=p - 3))
    full, _ = encode(m, w, p, windows="full")
    compact, _ = encode(m, w, p)
    expected = brute_force_sat(full, max_vars=full.num_vars)
    assert brute_force_sat(compact, max_vars=compact.num_vars) == expected


@pytest.mark.parametrize("word", ["1#1", "1#0", "#", "0#0"])
def test_equality_checker_encodes_and_matches_run_dtm(word):
    m = build_equality_checker()
    p = 9
    f, spec = encode(m, word, p)
    r = brute_force_sat(f, max_vars=f.num_vars)
    accepts = run_dtm(m, word, p - 1).verdict == "accept"
    assert r.satisfiable == accepts
    if not accepts:
        return
    rows = decode_tableau(spec, r.witness)
    assert rows[0] == ["#", m.q0, *word] + [BLANK] * (p - 3 - len(word)) + ["#"]
    assert any(m.q_accept in row for row in rows)
    for a, b in zip(rows, rows[1:]):
        assert b in row_successors(m, a)


def test_one_step_acceptor_sat_and_decode():
    m = one_step_acceptor()
    f, spec = encode(m, "1", 5)
    r = brute_force_sat(f, max_vars=f.num_vars)
    assert r.satisfiable
    rows = decode_tableau(spec, r.witness)
    assert rows[0] == ["#", "q0", "1", BLANK, "#"]
    assert any("acc" in row for row in rows)
    # every later row legally follows from its predecessor (or repeats)
    for a, b in zip(rows, rows[1:]):
        assert b in row_successors(m, a)


def test_one_step_rejector_unsat():
    m = one_step_acceptor()
    f, _ = encode(m, "", 4)  # empty input hits the blank-reject rule
    assert not brute_force_sat(f, max_vars=f.num_vars).satisfiable


def test_binary_one_step_machine_both_verdicts():
    m = MachineSpec(
        states={"q0", "acc", "rej"},
        input_alphabet={"0", "1"},
        tape_alphabet={"0", "1", BLANK},
        delta={
            ("q0", "1"): [("acc", "1", "R")],
            ("q0", "0"): [("rej", "0", "R")],
            ("q0", BLANK): [("rej", BLANK, "R")],
        },
        q0="q0",
        q_accept="acc",
        q_reject="rej",
    )
    sat_formula, _ = encode(m, "1", 5)
    assert brute_force_sat(sat_formula, max_vars=sat_formula.num_vars).satisfiable
    unsat_formula, _ = encode(m, "0", 5)
    assert not brute_force_sat(unsat_formula, max_vars=unsat_formula.num_vars).satisfiable


def test_decode_rejects_ambiguous_cells():
    m = one_step_acceptor()
    f, spec = encode(m, "1", 4)
    r = brute_force_sat(f, max_vars=f.num_vars)
    broken = dict(r.witness)
    # assert a second symbol in cell (1, 1)
    other = spec.var(1, 1, Q("q0"))
    broken[other] = True
    with pytest.raises(ValueError, match="asserted"):
        decode_tableau(spec, broken)


def test_immediate_accept_when_start_state_accepts():
    m = MachineSpec({"h", "r"}, {"1"}, {"1", BLANK}, {}, "h", "h", "r")
    f, spec = encode(m, "", 3)
    r = brute_force_sat(f, max_vars=f.num_vars)
    assert r.satisfiable
    assert decode_tableau(spec, r.witness)[0] == ["#", "h", "#"]


def test_every_real_transition_window_is_legal():
    # enumerate all well-formed rows of width 6 for small machines, rewrite
    # them through the direct row semantics, and check that every extracted
    # 2x3 window is in the generated legal set
    for m in (one_step_acceptor(), paper_walker_wrapped()):
        lw = legal_windows(m)
        symbols = sorted(m.tape_alphabet)
        inner_len = 4
        import itertools

        for sp in range(inner_len):
            for state in sorted(m.states):
                for fill in itertools.product(symbols, repeat=inner_len - 1):
                    inner = list(fill[:sp]) + [state] + list(fill[sp:])
                    row = ["#"] + inner + ["#"]
                    for nxt in row_successors(m, row):
                        for c in range(len(row) - 2):
                            window = WindowTemplate(
                                tuple(_tag(m, s) for s in row[c : c + 3]),
                                tuple(_tag(m, s) for s in nxt[c : c + 3]),
                            )
                            assert window in lw, (row, nxt, c)


def _tag(m, label):
    if label == "#":
        return BOUNDARY
    if label in m.states:
        return Q(label)
    return G(label)


def test_spec_symbol_index():
    m = one_step_acceptor()
    _, spec = encode(m, "1", 4)
    for var in range(1, spec.num_vars + 1):
        row, col, sym = spec.cell_of(var)
        assert spec.var(row, col, sym) == var
    assert [spec.sym_index(s) for s in spec.symbols] == list(range(spec.num_symbols))
    with pytest.raises(ValueError, match="universe"):
        spec.var(1, 1, G("z"))


def test_var_map_entries():
    m = one_step_acceptor()
    _, spec = encode(m, "1", 4)
    entries = spec.var_map_entries()
    assert len(entries) == spec.num_vars
    assert entries[0]["var"] == 1
    kinds = {e["kind"] for e in entries}
    assert kinds == {"state", "symbol", "boundary"}
    back = {(e["row"], e["col"], e["label"], e["kind"]) for e in entries}
    assert (1, 1, "q0", "state") in back
