"""Tiny expression grammar shared by all text formats in the package.

Accepted input: integers, identifiers (``t``, ``x_1_2``, ``y_3``, ``g``, ...),
the operators ``+ - * / ^`` (also ``**``), and parentheses.  ``parse`` returns
a plain AST made of tuples; each consumer evaluates the AST in its own
algebra, which keeps parsing logic in one place.

AST nodes:
    ("int", n)          ("var", name)
    ("add", a, b)       ("sub", a, b)       ("neg", a)
    ("mul", a, b)       ("div", a, b)       ("pow", a, k)   with k an int
"""

import re

from .errors import DgalError


class ParseError(DgalError):
    pass


_TOKEN = re.compile(r"\s*(?:(\d+)|([A-Za-z][A-Za-z0-9_]*)|(\*\*|[-+*/^(),]))")


def tokenize(text):
    pos, out = 0, []
    while pos < len(text):
        m = _TOKEN.match(text, pos)
        if not m or m.end() == pos and not text[pos:].strip():
            break
        if not m:
            raise ParseError("bad character at position %d in %r" % (pos, text))
        num, ident, op = m.groups()
        if num is not None:
            out.append(("int", int(num)))
        elif ident is not None:
            out.append(("var", ident))
        else:
            out.append(("op", "^" if op == "**" else op))
        pos = m.end()
    if text[pos:].strip():
        raise ParseError("bad character at position %d in %r" % (pos, text))
    out.append(("end", None))
    return out


class _Parser:
    def __init__(self, tokens):
        self.toks = tokens
        self.i = 0

    def peek(self):
        return self.toks[self.i]

    def next(self):
        tok = self.toks[self.i]
        self.i += 1
        return tok

    def expect_op(self, op):
        kind, val = self.next()
        if kind != "op" or val != op:
            raise ParseError("expected %r, got %r" % (op, val))

    def parse_expr(self):
        node = self.parse_term()
        while True:
            kind, val = self.peek()
            if kind == "op" and val in "+-":
                self.next()
                rhs = self.parse_term()
                node = ("add" if val == "+" else "sub", node, rhs)
            else:
                return node

    def parse_term(self):
        node = self.parse_factor()
        while True:
            kind, val = self.peek()
            if kind == "op" and val in "*/":
                self.next()
                rhs = self.parse_factor()
                node = ("mul" if val == "*" else "div", node, rhs)
            elif kind in ("int", "var") or (kind == "op" and val == "("):
                # implicit multiplication is not part of the grammar
                raise ParseError("missing operator before %r" % (val,))
            else:
                return node

    def parse_factor(self):
        kind, val = self.peek()
        if kind == "op" and val == "-":
            self.next()
            return ("neg", self.parse_factor())
        if kind == "op" and val == "+":
            self.next()
            return self.parse_factor()
        return self.parse_power()

    def parse_power(self):
        base = self.parse_atom()
        kind, val = self.peek()
        if kind == "op" and val == "^":
            self.next()
            exp = self.parse_exponent()
            return ("pow", base, exp)
        return base

    def parse_exponent(self):
        neg = False
        kind, val = self.peek()
        if kind == "op" and val == "-":
            self.next()
            neg = True
        kind, val = self.next()
        if kind != "int":
            raise ParseError("exponent must be an integer, got %r" % (val,))
        return -val if neg else val

    def parse_atom(self):
        kind, val = self.next()
        if kind == "int":
            return ("int", val)
        if kind == "var":
            return ("var", val)
        if kind == "op" and val == "(":
            node = self.parse_expr()
            self.expect_op(")")
            return node
        raise ParseError("unexpected token %r" % (val,))


def parse(text):
    """Parse ``text`` into an AST; raises ParseError on malformed input."""
    parser = _Parser(tokenize(text))
    node = parser.parse_expr()
    kind, val = parser.next()
    if kind != "end":
        raise ParseError("trailing input starting at %r" % (val,))
    return node


def evaluate(node, atoms, *, from_int, add, sub, neg, mul, div, power):
    """Evaluate an AST in a caller-supplied algebra.

    ``atoms`` maps variable names to algebra elements; the remaining
    keyword arguments are the algebra operations.  ``power`` receives an
    integer exponent which may be negative.
    """
    kind = node[0]
    if kind == "int":
        return from_int(node[1])
    if kind == "var":
        name = node[1]
        if name not in atoms:
            raise ParseError("unknown variable %r" % name)
        return atoms[name]
    if kind == "neg":
        return neg(evaluate(node[1], atoms, from_int=from_int, add=add, sub=sub,
                            neg=neg, mul=mul, div=div, power=power))
    if kind == "pow":
        base = evaluate(node[1], atoms, from_int=from_int, add=add, sub=sub,
                        neg=neg, mul=mul, div=div, power=power)
        return power(base, node[2])
    a = evaluate(node[1], atoms, from_int=from_int, add=add, sub=sub,
                 neg=neg, mul=mul, div=div, power=power)
    b = evaluate(node[2], atoms, from_int=from_int, add=add, sub=sub,
                 neg=neg, mul=mul, div=div, power=power)
    if kind == "add":
        return add(a, b)
    if kind == "sub":
        return sub(a, b)
    if kind == "mul":
        return mul(a, b)
    if kind == "div":
        return div(a, b)
    raise ParseError("bad AST node %r" % (kind,))
