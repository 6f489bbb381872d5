import hashlib
import itertools
import math
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from satkit import cooklevin
from satkit.cooklevin import (
    BOUNDARY,
    WindowTemplate,
    blocked_patterns,
    decode_tableau,
    encode,
    legal_windows,
    render_symbol,
    state_symbol as Q,
    tape_symbol as G,
)
from satkit.errors import BudgetExceededError
from satkit.oracle import brute_force_sat
from satkit.turing import (
    BLANK,
    MachineSpec,
    format_machine,
    parse_machine,
    run_dtm,
)
from support import (
    DEMO,
    TABLEAU_BATTERY,
    blocked_patterns_reference,
    branching_acceptor,
    build_equality_checker,
    edge_bouncer,
    encode_full_reference,
    legal_windows_reference,
    machine_inputs,
    one_step_acceptor,
    paper_walker_wrapped,
    prefix_11_acceptor,
    right_drifter,
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
    # the paper-literal count, on the reference encoding
    m = one_step_acceptor()
    p = 4
    f = encode_full_reference(m, "1", p)
    msz = len(m.states) + len(m.tape_alphabet) + 1
    assert f.num_vars == p * p * msz
    legal = len(legal_windows(m))
    expected = (
        p * p * (1 + math.comb(msz, 2))  # per-cell exactly-one
        + p  # pinned initial row
        + 1  # acceptance disjunction
        + (p - 1) * (p - 2) * (msz**6 - legal)
    )
    assert len(f.clauses) == expected


@pytest.mark.parametrize(
    "word, p, row",
    [
        ("", 3, "# q0 #"),  # p-2 cells drop the blank of the empty input's configuration
        ("", 4, "# q0 _ #"),
        ("11", 5, "# q0 1 1 #"),  # the input fills the row: no padding
    ],
)
def test_row_one_is_the_start_configuration(word, p, row):
    f, spec = encode(one_step_acceptor(), word, p)
    # the row-1 pins are the only positive unit clauses
    pinned = {}
    for clause in f.clauses:
        if len(clause) == 1 and clause[0] > 0:
            r, col, sym = spec.cell_of(clause[0])
            pinned[r, col] = render_symbol(sym)
    assert pinned == {(1, col): s for col, s in enumerate(row.split(), start=1)}


def test_encode_guards():
    m = one_step_acceptor()
    with pytest.raises(ValueError, match="too small"):
        encode(m, "11", 4)
    with pytest.raises(ValueError, match="alphabet"):
        encode(m, "2", 5)


def test_encode_compact_clause_count_and_guard(monkeypatch):
    m = one_step_acceptor()
    p = 4
    f, spec = encode(m, "1", p)
    msz = spec.num_symbols
    legal = {w.top + w.bottom for w in legal_windows(m)}
    patterns = cooklevin._window_constraints(m)[1]
    assert len(patterns) < len(blocked_patterns(legal, [spec.symbols] * 6))
    emitted = (
        p * p * (1 + math.comb(msz, 2))  # per-cell exactly-one
        + p  # pinned initial row
        + 1  # acceptance disjunction
        + (p - 1) * (p - 2) * len(patterns)
    )
    assert len(f.clauses) == emitted
    assert f.num_vars == p * p * msz
    # the guard counts exactly the clauses that are emitted
    monkeypatch.setattr(cooklevin, "MAX_CLAUSES", emitted)
    assert encode(m, "1", p)[0] == f
    monkeypatch.setattr(cooklevin, "MAX_CLAUSES", emitted - 1)
    with pytest.raises(BudgetExceededError, match="encoding"):
        encode(m, "1", p)
    monkeypatch.setattr(cooklevin, "MAX_CLAUSES", 900)
    with pytest.raises(BudgetExceededError):
        encode(m, "1", p)
    monkeypatch.undo()
    # a huge tableau is refused before any clause is built
    with pytest.raises(BudgetExceededError):
        encode(m, "1", 10**6)


def _universe(m):
    return (
        [Q(s) for s in sorted(m.states)] + [G(s) for s in sorted(m.tape_alphabet)] + [BOUNDARY]
    )


def _subsets(cells):
    return [sub for k in range(len(cells) + 1) for sub in itertools.combinations(cells, k)]


def _unblocked_windows(blocked, universe):
    """Every window over ``universe`` that matches no pattern of ``blocked``:
    grow windows cell by cell and cut a branch as soon as its newest cell
    completes a pattern. Reads the patterns only, not how they were made."""
    prefixes = [()]
    for last in range(6):
        earlier = _subsets(range(last))
        prefixes = [
            prefix + (v,)
            for prefix in prefixes
            for v in universe
            if not any(
                (cells + (last,), tuple(prefix[c] for c in cells) + (v,)) in blocked
                for cells in earlier
            )
        ]
    return set(prefixes)


def _check_blocked_patterns_lemma(m):
    """The compact encoding's lemma at the window level: the minimal blocked
    patterns of ``m``, and the irredundant subset of them that encode
    emits, cut exactly its illegal windows."""
    universe = _universe(m)
    legal = {w.top + w.bottom for w in legal_windows(m)}
    patterns = blocked_patterns(legal, [universe] * 6)
    blocked = set(patterns)
    assert len(blocked) == len(patterns)

    occurring = {
        cells: {tuple(w[c] for c in cells) for w in legal} for cells in _subsets(range(6))
    }

    # no legal window matches any pattern
    for w in legal:
        for cells in _subsets(range(6)):
            assert (cells, tuple(w[c] for c in cells)) not in blocked

    # every proper sub-pattern of a pattern occurs in some legal window
    for cells, vals in patterns:
        assert 1 <= len(cells) <= 6
        assert vals not in occurring[cells]
        for keep in _subsets(range(len(cells)))[:-1]:
            sub = tuple(cells[i] for i in keep)
            assert tuple(vals[i] for i in keep) in occurring[sub]

    # every illegal window contains a pattern: the windows no pattern cuts
    # are exactly the legal ones
    assert _unblocked_windows(blocked, universe) == legal

    # The patterns encode emits are window offsets: cell c holding universe
    # symbol s is c * msz + s. They are a subsequence of the primes over
    # those offsets, keep every one-cell prime, and, read back as (cells,
    # symbols), still cut exactly the illegal windows.
    msz = len(universe)
    emitted = cooklevin._window_constraints(m)[1]
    offsets = {tuple(c * msz + universe.index(s) for c, s in enumerate(w)) for w in legal}
    domains = [range(c * msz, (c + 1) * msz) for c in range(6)]
    primes = [vals for _, vals in blocked_patterns(offsets, domains)]
    rest = iter(primes)
    assert all(pattern in rest for pattern in emitted)
    assert {vals for vals in primes if len(vals) == 1} <= set(emitted)
    cut = {
        (tuple(o // msz for o in vals), tuple(universe[o % msz] for o in vals))
        for vals in emitted
    }
    assert _unblocked_windows(cut, universe) == legal

    # Mutations the check must catch. A one-cell pattern is the only pattern
    # that matches a legal window with that one cell changed to its value
    # (any other would contain it, or match the legal window), so dropping
    # it lets illegal windows through, and each of them has its value.
    (cell,), (value,) = dropped = min(p for p in patterns if len(p[0]) == 1)
    loose = _unblocked_windows(blocked - {dropped}, universe)
    assert loose > legal
    assert all(w[cell] == value for w in loose - legal)
    # a pattern that a legal window matches cuts that window
    kept = min(legal)
    assert _unblocked_windows(blocked | {(tuple(range(6)), kept)}, universe) == legal - {kept}


LEMMA_MACHINES = (*TABLEAU_BATTERY, build_equality_checker)
SATBENCH_MACHINES = Path(__file__).resolve().parents[1] / "satbench" / "machines"


@pytest.mark.parametrize("machine", LEMMA_MACHINES)
def test_blocked_patterns_block_exactly_the_illegal_windows(machine):
    _check_blocked_patterns_lemma(machine())


def test_satbench_machines_are_lemma_checked():
    # the benchmark's and the README's machine files are machines the lemma
    # check above covers
    checked = [build() for build in LEMMA_MACHINES]
    paths = sorted(SATBENCH_MACHINES.glob("*.tm")) + sorted(DEMO.glob("*.tm"))
    assert paths
    for path in paths:
        assert parse_machine(path.read_text()) in checked, f"{path.parent.name}/{path.name}"


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
    "machine, primes, kept",
    [
        (one_step_acceptor, 160, 112),
        (right_drifter, 199, 117),
        (branching_acceptor, 210, 150),
        (prefix_11_acceptor, 273, 187),
        (edge_bouncer, 307, 199),
        (paper_walker_wrapped, 861, 499),
        (build_equality_checker, 4465, 2278),
    ],
)
def test_irredundant_pattern_counts_are_pinned(machine, primes, kept):
    m = machine()
    legal = {w.top + w.bottom for w in legal_windows(m)}
    assert len(blocked_patterns(legal, [_universe(m)] * 6)) == primes
    assert len(cooklevin._window_constraints(m)[1]) == kept


def _all_primes(patterns, msz):
    # stands in for cooklevin._irredundant: encode then emits every prime
    return tuple(patterns)


@pytest.mark.parametrize(
    "machine, word, p, all_primes, digest",
    [
        (
            paper_walker_wrapped, "a", 5,
            "e8c405db0bd7c82c1a909b8e3e77c4343ca124dd",
            "86f41b6e9e3f09e5b61105e2ccd4fb777b286336",
        ),
        (
            build_equality_checker, "1#1", 9,
            "895b780b58fcf8cd9fc58d3b59d87b6812ba6443",
            "3589a19a9a9b7815ad11f7a6e108c7194c84ccbb",
        ),
    ],
)
def test_encode_clauses_are_pinned(machine, word, p, all_primes, digest, fresh_memo, monkeypatch):
    # sha1 of the clause tuple: as encode emits it (the irredundant subset of
    # the primes), and with every prime emitted, which is the list encode gave
    # before the irredundant cover, byte for byte
    def sha1():
        f, _ = encode(machine(), word, p)
        return hashlib.sha1(repr(f.clauses).encode()).hexdigest()

    assert sha1() == digest
    fresh_memo.clear()
    monkeypatch.setattr(cooklevin, "_irredundant", _all_primes)
    assert sha1() == all_primes


def test_irredundant_cover_keeps_oracle_results_on_battery(fresh_memo, monkeypatch):
    # the reduced and the all-primes encodings have the same models, so the
    # oracle gives the same verdict and the same first witness on each
    combos = [
        (m, w, p)
        for m in tableau_battery()
        for w in machine_inputs(m, 2)
        for p in (len(w) + 3, len(w) + 4)
    ]
    reduced = [encode(*combo)[0] for combo in combos]
    fresh_memo.clear()
    monkeypatch.setattr(cooklevin, "_irredundant", _all_primes)
    for combo, f in zip(combos, reduced):
        primes = encode(*combo)[0]
        assert len(f.clauses) < len(primes.clauses)
        expected = brute_force_sat(primes, max_vars=primes.num_vars)
        assert brute_force_sat(f, max_vars=f.num_vars) == expected, combo


@pytest.mark.parametrize(
    "machine, word, p, num_vars, num_clauses, digest",
    [
        (one_step_acceptor, "1", 4, 96, 279_621, "0bba9f5b5760e89585451244104ba54ee26b2172"),
        (branching_acceptor, "1", 4, 96, 279_549, "3f87905072679e8593044a172113f5e3216a5478"),
        (prefix_11_acceptor, "", 3, 63, 235_248, "5c78c1adfd7bd4054c1065b387ca84a0a8abb73e"),
        (edge_bouncer, "1", 4, 112, 705_423, "1e5310c476d2211f96bb964f800dcf994bcf3031"),
    ],
)
def test_full_reference_clauses_are_pinned(machine, word, p, num_vars, num_clauses, digest):
    # sha1 of the clause tuple: the paper-literal encoding as the library
    # emitted it when it still offered one, byte for byte
    f = encode_full_reference(machine(), word, p)
    assert (f.num_vars, len(f.clauses)) == (num_vars, num_clauses)
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
                full = encode_full_reference(m, w, p)
                compact, _ = encode(m, w, p)
                assert compact.num_vars == full.num_vars
                assert len(compact.clauses) < len(full.clauses)
                expected = brute_force_sat(full, max_vars=full.num_vars)
                assert brute_force_sat(compact, max_vars=compact.num_vars) == expected, (m, w, p)
                checked += 1
    assert checked >= 20



def _ends_with_highest_variable(f):
    return all(max(map(abs, clause)) == abs(clause[-1]) for clause in f.clauses)


def test_every_clause_ends_with_its_highest_variable():
    # oracle._walk files a clause under its last literal and refiles the ones
    # that reach above it; encodings that keep this property never refile,
    # which is most of the tableau oracle's speed.
    full_checked = 0
    for m in tableau_battery():
        universe = len(m.states) + len(m.tape_alphabet) + 1
        for w in machine_inputs(m, 2):
            for p in (len(w) + 3, len(w) + 4):
                assert _ends_with_highest_variable(encode(m, w, p)[0]), (m, w, p)
                if (p - 1) * (p - 2) * universe**6 <= 100_000:
                    assert _ends_with_highest_variable(encode_full_reference(m, w, p))
                    full_checked += 1
    assert full_checked >= 3
    assert _ends_with_highest_variable(encode(build_equality_checker(), "1#1", 9)[0])

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
    full = encode_full_reference(m, w, p)
    compact, _ = encode(m, w, p)
    expected = brute_force_sat(full, max_vars=full.num_vars)
    assert brute_force_sat(compact, max_vars=compact.num_vars) == expected


@settings(max_examples=50, deadline=None, derandomize=True)
@given(tiny_machines())
def test_blocked_patterns_block_exactly_the_illegal_windows_on_random_machines(m):
    _check_blocked_patterns_lemma(m)


def _check_pattern_runs(m):
    # encode groups the compact patterns into runs of one width and picks each
    # run's literals with one itemgetter, which returns a tuple only when it
    # is given two or more offsets
    patterns = cooklevin._window_constraints(m)[1]
    for width, run in itertools.groupby(patterns, key=len):
        assert len(list(run)) * width >= 2, width
    # the one-cell run always keeps the boundary in a row's middle cell
    symbols = cooklevin._tableau_symbols(m)
    boundary = symbols.index(BOUNDARY)
    for cell in (1, 4):
        assert (cell * len(symbols) + boundary,) in patterns


@pytest.mark.parametrize("machine", [*tableau_battery(), build_equality_checker()])
def test_every_pattern_run_has_two_offsets(machine):
    _check_pattern_runs(machine)


@settings(max_examples=50, deadline=None, derandomize=True)
@given(tiny_machines())
def test_every_pattern_run_has_two_offsets_on_random_machines(m):
    _check_pattern_runs(m)


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
    for row, col in ((0, 1), (1, 0), (5, 1), (1, 5)):
        with pytest.raises(ValueError, match=rf"^cell \({row}, {col}\) outside the 4x4 tableau$"):
            spec.var(row, col, G("1"))


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


class _WindowCache:
    """The window cache as a sized container: ``len`` counts its machines."""

    def __len__(self):
        return cooklevin._window_constraints.cache_info().currsize

    def clear(self):
        cooklevin._window_constraints.cache_clear()


@pytest.fixture
def fresh_memo():
    # cleared after the test too, so no entry built under a patched
    # _irredundant outlives it
    memo = _WindowCache()
    memo.clear()
    yield memo
    memo.clear()


def test_equal_machines_share_window_constraints(fresh_memo):
    walker = paper_walker_wrapped()
    text = format_machine(walker)
    first, second = parse_machine(text), parse_machine(text)
    reordered = MachineSpec(
        walker.states,
        walker.input_alphabet,
        walker.tape_alphabet,
        dict(reversed(list(walker.delta.items()))),
        walker.q0,
        walker.q_accept,
        walker.q_reject,
    )
    miss, _ = encode(first, "a", 5)
    for m in (second, reordered):
        assert encode(m, "a", 5)[0].clauses == miss.clauses
    assert len(fresh_memo) == 1


def test_window_memo_tells_machines_apart(fresh_memo):
    def variant(move="R", q_accept="acc"):
        delta = {("q0", "1"): [("acc", "1", move)], ("q0", BLANK): [("rej", BLANK, "R")]}
        return MachineSpec(
            {"q0", "acc", "rej", "x"}, {"1"}, {"1", BLANK}, delta, "q0", q_accept, "rej"
        )

    # one transition differs, or only the accept state does
    machines = [variant(), variant(move="L"), variant(q_accept="x")]
    entries = [cooklevin._window_constraints(m) for m in machines]
    assert len(fresh_memo) == 3
    patterns = [pats for _, pats in entries]
    assert len(set(patterns)) == 3
    # each entry is what an empty memo computes for that machine alone
    for m, entry in zip(machines, entries):
        fresh_memo.clear()
        assert cooklevin._window_constraints(m) == entry


def test_window_memo_stays_bounded(fresh_memo):
    size = cooklevin._window_constraints.cache_parameters()["maxsize"]

    def machine(extra):
        states = {"q0", "acc", "rej", f"s{extra}"}
        return MachineSpec(states, {"1"}, {"1", BLANK}, {}, "q0", "acc", "rej")

    for extra in range(size + 3):
        if extra == size:
            # looked up again, the first machine is now the most recently used
            cooklevin._window_constraints(machine(0))
        cooklevin._window_constraints(machine(extra))
    assert len(fresh_memo) == size
    hits = cooklevin._window_constraints.cache_info().hits
    cooklevin._window_constraints(machine(0))
    assert cooklevin._window_constraints.cache_info().hits == hits + 1


def test_budget_guard_same_on_memo_hit_and_miss(fresh_memo, monkeypatch):
    m = one_step_acceptor()
    emitted = len(encode(m, "1", 4)[0].clauses)
    fresh_memo.clear()
    messages = []
    monkeypatch.setattr(cooklevin, "MAX_CLAUSES", emitted - 1)
    for _ in ("miss", "hit"):
        with pytest.raises(BudgetExceededError) as err:
            encode(m, "1", 4)
        messages.append(str(err.value))
    monkeypatch.undo()
    assert messages[0] == messages[1]
    assert len(fresh_memo) == 1


def test_compact_budget_refuses_before_computing_patterns(fresh_memo, monkeypatch):
    m = one_step_acceptor()
    p = 4
    msz = len(m.states) + len(m.tape_alphabet) + 1
    fixed = p * p * (1 + math.comb(msz, 2)) + p + 1  # clauses that need no pattern
    monkeypatch.setattr(cooklevin, "MAX_CLAUSES", fixed - 1)
    with pytest.raises(BudgetExceededError) as err:
        encode(m, "1", p)
    assert str(err.value) == (
        f"at least {fixed:,} clauses exceed the encoding budget of {fixed - 1:,}; "
        "shrink the machine or p"
    )
    monkeypatch.undo()
    with pytest.raises(BudgetExceededError, match="^at least"):
        encode(m, "1", 10**6)
    assert not fresh_memo
    # at the pattern-free count itself the patterns are computed and counted
    monkeypatch.setattr(cooklevin, "MAX_CLAUSES", fixed)
    with pytest.raises(BudgetExceededError, match=r"^[\d,]+ clauses exceed"):
        encode(m, "1", p)
    assert len(fresh_memo) == 1


def test_battery_encodings_same_on_memo_miss_and_hit(fresh_memo):
    # every combo's encoding on an empty memo and again on a warm one
    for m in tableau_battery():
        for w in machine_inputs(m, 2):
            for p in (len(w) + 3, len(w) + 4):
                fresh_memo.clear()
                compact = encode(m, w, p)[0].clauses
                assert encode(m, w, p)[0].clauses == compact


@pytest.mark.parametrize("machine", [*tableau_battery(), build_equality_checker()])
def test_legal_windows_match_uncached_reference(machine, fresh_memo):
    expected = legal_windows_reference(machine)
    for _ in ("miss", "hit"):
        got = legal_windows(machine)
        assert type(got) is set
        assert got == expected


@settings(max_examples=100, deadline=None, derandomize=True)
@given(tiny_machines())
def test_legal_windows_match_uncached_reference_on_random_machines(m):
    cooklevin._window_constraints.cache_clear()
    expected = legal_windows_reference(m)
    assert legal_windows(m) == expected
    assert legal_windows(m) == expected


@st.composite
def wide_machines(draw):
    """Machines beyond tiny_machines: 2-5 states, up to six tape symbols that
    may include "#", and 0-3 options per pair."""
    names = [f"s{i}" for i in range(draw(st.integers(2, 5)))]
    q_accept, q_reject = draw(st.permutations(names))[:2]
    extra = draw(st.permutations(["0", "1", "#", "x", "y"]))[: draw(st.integers(1, 5))]
    tape = sorted({BLANK, *extra})
    inputs = set(draw(st.lists(st.sampled_from(extra), min_size=1, max_size=3)))
    option = st.tuples(st.sampled_from(names), st.sampled_from(tape), st.sampled_from("LR"))
    delta = {}
    for q in names:
        if q in (q_accept, q_reject):
            continue
        for a in tape:
            options = draw(st.lists(option, max_size=3))
            if options:
                delta[(q, a)] = options
    q0 = draw(st.sampled_from(names))
    return MachineSpec(set(names), inputs, set(tape), delta, q0, q_accept, q_reject)


@settings(max_examples=200, deadline=None, derandomize=True)
@given(wide_machines())
def test_legal_windows_match_reference_on_wide_machines(m):
    # the generator alone: through the memo, each of these machines would
    # also pay for its blocked patterns, several times the windows' cost
    assert cooklevin._legal_windows(m) == legal_windows_reference(m)


def test_mutating_legal_windows_leaves_the_memo_alone(fresh_memo):
    m = one_step_acceptor()
    compact = encode(m, "1", 4)[0].clauses
    expected = legal_windows_reference(m)
    got = legal_windows(m)
    assert got is not legal_windows(m)
    got.pop()
    got.add(WindowTemplate((BOUNDARY,) * 3, (BOUNDARY,) * 3))
    legal_windows(m).clear()
    assert legal_windows(m) == expected
    assert encode(m, "1", 4)[0].clauses == compact


def test_legal_windows_fills_the_memo_encode_reads(fresh_memo):
    m = one_step_acceptor()
    legal_windows(m)
    assert len(fresh_memo) == 1
    entry = cooklevin._window_constraints(m)
    encode(m, "1", 4)
    assert len(fresh_memo) == 1
    assert cooklevin._window_constraints(m) is entry
