"""A derivation oracle for the front end's arity reading.

Snippets are generated from a small grammar of Java argument lists, and
each derivation knows how many arguments every list it writes holds, so
the expected answer comes from the derivation, not from a second
implementation. Every call and constructed class the grammar writes gets a
name of its own (`m7`, `C8`), so each argument list can be found again in
the tokens and its arity checked; the outer `Foo.bar(...)` is checked
through `extract_constraints`, as the `MemberCall` the solver sees.

Comparisons have lowercase operands only, and no comparison follows an
`instanceof`: `f(Alpha < b, Cee > d)` also reads as a generic declared
type to the element rules, which this oracle does not cover.
"""

import random

from fqninfer.constraint import MemberCall, _parse_args, extract_constraints
from fqninfer.snippet import ApiElement, identify_api_elements, tokenize

_ATOMS = (
    "a", "b", "x.y", "this.z", "1", "2.5f", "0x1F", "null", "true",
    '"s, t"', '"a(b"', "','", "'('", "'<'",
)
_TYPE_ARGUMENTS = ("<A, B>", "<K, V>", "<A>", "<Map<K, V>, List<? extends T>>", "<int[], b>")
_NESTING = 3  # how deep expressions nest


class _Derivation:
    """One generated snippet: its text and the arity of every argument list
    in it, keyed by the unique name before the list."""

    def __init__(self, rng):
        self.rng = rng
        self.arities = {}

    def _name(self, prefix, arity):
        name = f"{prefix}{len(self.arities)}"
        self.arities[name] = arity
        return name

    def arguments(self, depth):
        """(text, count) of an argument list."""
        count = self.rng.choice((0, 1, 1, 2, 2, 3, 4))
        sep = self.rng.choice((", ", ",\n", " , ", ", /* , */ "))
        return sep.join(self.expression(depth + 1) for _ in range(count)), count

    def operand(self, depth):
        """An expression that may stand beside '<' or '>'."""
        if depth < _NESTING and self.rng.random() < 0.3:
            return self.call(depth)
        return self.rng.choice(("a", "b", "c", "x.y", "1", "n.length"))

    def call(self, depth):
        args, count = self.arguments(depth)
        form = self.rng.choice(("{m}", "x.{m}", "x.{t}{m}", "Collections.{t}{m}",
                                "this.{t}{m}", "a.b().{m}"))
        m = self._name("m", count)
        return form.format(m=m, t=self.rng.choice(_TYPE_ARGUMENTS)) + f"({args})"

    def construction(self, depth):
        args, count = self.arguments(depth)
        form = self.rng.choice(("new {c}", "new {c}<B, C>", "new a.{c}<C<D, E>>",
                                "new {c}<>", "new a.b.{c}<? super K, V>"))
        return form.format(c=self._name("C", count)) + f"({args})"

    def expression(self, depth):
        rng = self.rng
        if depth >= _NESTING:
            return rng.choice(_ATOMS)
        form = rng.randrange(13)
        if form == 0:
            return rng.choice(_ATOMS)
        if form == 1:
            return self.call(depth)
        if form == 2:
            return self.construction(depth)
        if form == 3:  # a method reference
            return rng.choice(("Baz::", "x::", "java.util.Baz::")) + rng.choice(
                _TYPE_ARGUMENTS + ("",)) + "m"
        if form == 4:
            return rng.choice(("a", "x.y")) + " instanceof " + rng.choice(
                ("Map", "java.util.Map", "Map<K, V>", "java.util.Map<K, V>",
                 "Map<?, ?>", "List<int[]>"))
        if form == 5:  # a generic cast
            t = rng.choice(("Map<K, V>", "List<String>", "a.B<C, D<E, F>>", "Foo"))
            return f"({t}) {self.expression(depth + 1)}"
        if form == 6:  # an array initializer
            items = ", ".join(self.expression(depth + 1) for _ in range(rng.randint(0, 3)))
            return rng.choice(("new int[] ", "new String[][] ", "new A<B, C>[] ")) + (
                "{" + items + "}")
        if form == 7:  # a lambda block
            params = rng.choice(("()", "(p)", "(p, q)", "(A<B, C> p, int q)"))
            body = rng.choice(("return {};", "{};", "int i = 1, j = 2;", ""))
            if "{}" in body:
                body = body.format(
                    self.expression(depth + 1) if body[0] == "r" else self.call(depth + 1))
            return f"{params} -> {{ {body} }}"
        if form == 8:  # a lambda expression
            return rng.choice(("p", "(p, q)")) + " -> " + self.expression(depth + 1)
        if form == 9:  # a ternary
            return (f"{self.expression(depth + 1)} ? {self.expression(depth + 1)}"
                    f" : {self.expression(depth + 1)}")
        if form == 10:  # a comparison
            op = rng.choice(("<", ">", "<=", ">="))
            return f"{self.operand(depth)} {op} {self.operand(depth)}"
        if form == 11:  # a parenthesised expression
            return f"({self.expression(depth + 1)})"
        return f"{self.expression(depth + 1)} + {self.expression(depth + 1)}"


def _derive(rng):
    """(text, arity of the outer call, arities of the inner lists)."""
    derivation = _Derivation(rng)
    args, count = derivation.arguments(0)
    return f"Foo.bar({args});\n", count, derivation.arities


def test_arity_is_the_derivations_count():
    rng = random.Random(9061)
    lists = 0
    features = (".<", "::<", "instanceof", ">) ", "?", " < ", " > ", "->", "{", "new ")
    seen = dict.fromkeys(features, 0)
    for case in range(3000):
        text, count, arities = _derive(rng)
        sn = tokenize(text)
        structure = sn.structure
        elements = identify_api_elements(sn)
        foo = ApiElement("Foo", 1, 1, 0)
        assert foo in elements, (case, text)
        calls = [c for c in extract_constraints(sn, elements)[0]
                 if isinstance(c, MemberCall) and c.subject == foo]
        assert calls == [MemberCall(foo, (("bar", count),), True)], (case, text)
        lexemes = structure.lexemes
        for name, arity in arities.items():
            j = lexemes.index(name)
            i_open = structure.type_arguments.get(j + 1, j + 1) if name[0] == "C" else j + 1
            parsed = _parse_args(structure, i_open)
            assert parsed is not None and parsed[0] == arity, (case, text, name)
        lists += 1 + len(arities)
        for feature in seen:
            seen[feature] += feature in text
    # every construct of the grammar must be common in the derivations
    assert lists >= 5000 and min(seen.values()) >= 150, (lists, seen)
