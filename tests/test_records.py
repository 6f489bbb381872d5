"""The value classes behave as frozen records.

Each of the fourteen classes below is built by position and by keyword, and
must give the same ``repr``, ``==``, ``hash``, immutability, pickle and
deepcopy behaviour whatever implements it. A class holding a dict is not
hashable, and ``hash`` on it raises ``TypeError``, except ``MachineSpec``,
which hashes its transitions as a frozenset of items.
"""

import copy
import pickle

import pytest

from satkit.cooklevin import TableauSpec
from satkit.formula import CnfFormula, DnfFormula
from satkit.graph import Digraph, Graph
from satkit.oracle import SatResult
from satkit.reductions import CliqueInstance, ColoringInstance, HamCycleInstance
from satkit.threecnf import ThreeCnfResult
from satkit.tractable import UpResult
from satkit.turing import Configuration, MachineSpec, RunOutcome

F = CnfFormula(2, [(1, -2)])
F_REPR = "CnfFormula(num_vars=2, clauses=((1, -2),))"
TRIANGLE = Graph("abc", [("a", "b"), ("b", "c"), ("a", "c")])
ARC = Digraph("ab", [("a", "b")])
ARC_REPR = "Digraph(vertices=('a', 'b'), edges=frozenset({('a', 'b')}))"
CONF = Configuration(("1", "0"), 1, "q")
CONF_REPR = "Configuration(tape=('1', '0'), head=1, state='q')"
M = MachineSpec({"q", "a", "r"}, {"1"}, {"1", "_"}, {("q", "1"): [("a", "1", "R")]},
                "q", "a", "r")
M_REPR = (
    "MachineSpec(states=frozenset({'a', 'q', 'r'}), input_alphabet=frozenset({'1'}), "
    "tape_alphabet=frozenset({'1', '_'}), delta={('q', '1'): (('a', '1', 'R'),)}, "
    "q0='q', q_accept='a', q_reject='r')"
)
SYMBOLS = (("#",), ("q", "q"), ("g", "1"))
SPEC_REPR = f"TableauSpec(p=3, symbols={SYMBOLS!r})"

CLIQUE_ARGS = dict(graph=Graph("a"), k=1, vertex_index={"a": (1, 0, 1)},
                   clause_slots=(("a", "a", "a"),), formula=CnfFormula(1, [(1,)]),
                   padded=((1, 1, 1),))
HAM_ARGS = dict(graph=ARC, subpath_index={(1, 1): "a"}, clause_vertices={1: "b"}, source="a",
                target="b", strict=False, formula=CnfFormula(1, [(1,)]), padded=((1, 1, 1),))
COLOR_ARGS = dict(graph=TRIANGLE, special=("a", "b", "c"), literal_vertices={1: "a"},
                  gadget_vertices={0: ("b",)}, formula=CnfFormula(1, [(1,)]), padded=((1, 1, 1),))

# (class, field names, positional args, args of a different instance, repr, hashable)
CASES = [
    (CnfFormula, "num_vars clauses", (2, ((1, -2),)), (3, ((1, -2),)), F_REPR, True),
    (DnfFormula, "num_vars terms", (2, ((1,), (-2,))), (2, ((1,),)),
     "DnfFormula(num_vars=2, terms=((1,), (-2,)))", True),
    (Graph, "vertices edges", (("a", "b"), frozenset({("a", "b")})), (("a", "b"), ()),
     "Graph(vertices=('a', 'b'), edges=frozenset({('a', 'b')}))", True),
    (Digraph, "vertices edges", (("a", "b"), ARC.edges), (("a", "b"), {("b", "a")}),
     ARC_REPR, True),
    (SatResult, "satisfiable witness", (False, None), (True, {}),
     "SatResult(satisfiable=False, witness=None)", True),
    (ThreeCnfResult, "formula fresh_vars original_num_vars", (F, ((),), 2), (F, ((),), 1),
     f"ThreeCnfResult(formula={F_REPR}, fresh_vars=((),), original_num_vars=2)", True),
    (UpResult, "reduced forced", (CnfFormula(1), {1: True}), (CnfFormula(1), {1: False}),
     "UpResult(reduced=CnfFormula(num_vars=1, clauses=()), forced={1: True})", False),
    (CliqueInstance, " ".join(CLIQUE_ARGS), tuple(CLIQUE_ARGS.values()),
     (*tuple(CLIQUE_ARGS.values())[:-1], ((1, 1, -1),)),
     "CliqueInstance(graph=Graph(vertices=('a',), edges=frozenset()), k=1, "
     "vertex_index={'a': (1, 0, 1)}, clause_slots=(('a', 'a', 'a'),), "
     "formula=CnfFormula(num_vars=1, clauses=((1,),)), padded=((1, 1, 1),))", False),
    (HamCycleInstance, " ".join(HAM_ARGS), tuple(HAM_ARGS.values()),
     (*tuple(HAM_ARGS.values())[:5], True, *tuple(HAM_ARGS.values())[6:]),
     f"HamCycleInstance(graph={ARC_REPR}, subpath_index={{(1, 1): 'a'}}, "
     "clause_vertices={1: 'b'}, source='a', target='b', strict=False, "
     "formula=CnfFormula(num_vars=1, clauses=((1,),)), padded=((1, 1, 1),))", False),
    (ColoringInstance, " ".join(COLOR_ARGS), tuple(COLOR_ARGS.values()),
     (Graph("abc"), *tuple(COLOR_ARGS.values())[1:]),
     "ColoringInstance(graph=Graph(vertices=('a', 'b', 'c'), "
     "edges=frozenset({('a', 'b'), ('a', 'c'), ('b', 'c')})), special=('a', 'b', 'c'), "
     "literal_vertices={1: 'a'}, gadget_vertices={0: ('b',)}, "
     "formula=CnfFormula(num_vars=1, clauses=((1,),)), padded=((1, 1, 1),))", False),
    (MachineSpec, "states input_alphabet tape_alphabet delta q0 q_accept q_reject",
     (M.states, M.input_alphabet, M.tape_alphabet, M.delta, "q", "a", "r"),
     (M.states, M.input_alphabet, M.tape_alphabet, {}, "q", "a", "r"), M_REPR, True),
    (Configuration, "tape head state", (("1", "0"), 1, "q"), (("1", "0"), 0, "q"), CONF_REPR,
     True),
    (RunOutcome, "verdict steps_used final", ("accept", 3, CONF), ("accept", 4, CONF),
     f"RunOutcome(verdict='accept', steps_used=3, final={CONF_REPR}, trace=None)", True),
    (TableauSpec, "p symbols", (3, SYMBOLS), (4, SYMBOLS), SPEC_REPR, True),
]
IDS = [case[0].__name__ for case in CASES]
PARAMS = "cls, names, args, other, text, hashable"


@pytest.mark.parametrize(PARAMS, CASES, ids=IDS)
def test_construction_repr_and_equality(cls, names, args, other, text, hashable):
    a, b, c = cls(*args), cls(*args), cls(*other)
    assert repr(a) == text
    assert a == b and not a != b
    assert a != c and not a == c and c != a
    assert a != args and a != object() and a is not None
    if hashable:
        assert hash(a) == hash(b)
    else:
        with pytest.raises(TypeError):
            hash(a)


@pytest.mark.parametrize(PARAMS, CASES, ids=IDS)
def test_keyword_construction(cls, names, args, other, text, hashable):
    kwargs = dict(zip(names.split(), args))
    obj = cls(**kwargs)
    assert obj == cls(*args) and repr(obj) == text
    assert [getattr(obj, name) for name in kwargs] == list(args)
    rest = list(kwargs)[1:]
    assert cls(args[0], **{name: kwargs[name] for name in rest}) == obj


@pytest.mark.parametrize(PARAMS, CASES, ids=IDS)
def test_assignment_and_deletion_raise(cls, names, args, other, text, hashable):
    obj = cls(*args)
    for name, value in zip(names.split(), other):
        with pytest.raises(AttributeError):
            setattr(obj, name, value)
        with pytest.raises(AttributeError):
            delattr(obj, name)
    with pytest.raises(AttributeError):
        obj.not_a_field = 1
    assert repr(obj) == text and obj == cls(*args)


@pytest.mark.parametrize(PARAMS, CASES, ids=IDS)
def test_pickle_and_deepcopy_round_trips(cls, names, args, other, text, hashable):
    obj = cls(*args)
    for back in (pickle.loads(pickle.dumps(obj)), copy.deepcopy(obj), copy.copy(obj)):
        assert type(back) is cls and back == obj
        assert [getattr(back, name) for name in names.split()] == list(args)


def test_graph_and_digraph_with_the_same_fields_differ():
    g, d = Graph("ab", [("a", "b")]), Digraph("ab", [("a", "b")])
    assert (g.vertices, g.edges) == (d.vertices, d.edges)
    assert g != d and d != g and not g == d


def test_run_outcome_trace_defaults_to_none_and_is_not_compared():
    plain = RunOutcome("accept", 3, CONF)
    traced = RunOutcome("accept", 3, CONF, (CONF,))
    assert plain.trace is None
    assert RunOutcome(verdict="accept", steps_used=3, final=CONF, trace=(CONF,)) == traced
    assert plain == traced and hash(plain) == hash(traced)
    assert repr(traced) == (
        f"RunOutcome(verdict='accept', steps_used=3, final={CONF_REPR}, trace=({CONF_REPR},))"
    )
    assert pickle.loads(pickle.dumps(traced)).trace == (CONF,)


def test_sat_result_keeps_its_consistency_assertion():
    for args in [(True, None), (False, {1: True})]:
        with pytest.raises(AssertionError):
            SatResult(*args)


@pytest.mark.parametrize("cls, args", [(case[0], case[2]) for case in CASES], ids=IDS)
def test_wrong_arity_raises_type_error(cls, args):
    with pytest.raises(TypeError):
        cls(*args, None, None)
    with pytest.raises(TypeError):
        cls(*args[1:], no_such_field=1)
