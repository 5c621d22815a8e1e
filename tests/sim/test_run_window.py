"""Tie-breaks between events that fall due at the same instant."""

from repro.sim.engine import Engine


def test_unkeyed_ties_keep_posting_order():
    engine = Engine()
    fired = []
    for name in "abc":
        engine.post(5.0, lambda n=name: fired.append(n))
    engine.run()
    assert fired == list("abc")
