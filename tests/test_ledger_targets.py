"""The ledger's wrap targets exist where it looks for them.

``benchmarks/ledger/tracing.py`` attributes host time by replacing
named methods on their classes, read with ``vars(owner)``: a method a
refactor moves into a base class, or renames, would be missed there and
the benchmark would break without any tier-1 test failing.
"""

from benchmarks.ledger.tracing import _targets


def test_every_wrapped_method_is_defined_in_its_owners_body():
    methods, _ = _targets()
    missing = [
        f"{owner.__name__}.{name}"
        for _, owner, names in methods
        for name in names
        if not callable(vars(owner).get(name))
    ]
    assert missing == []
