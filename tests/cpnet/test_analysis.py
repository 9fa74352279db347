"""Unit tests for the authoring audit."""


from repro.cpnet import CPNet, figure2_network
from repro.cpnet.analysis import audit_network
from repro.document import build_sample_medical_record


def chain_net() -> CPNet:
    net = CPNet("chain")
    net.add_variable("a", ("a1", "a2"))
    net.add_rule("a", {}, ("a1", "a2"))
    net.add_variable("b", ("b1", "b2"), parents=("a",))
    return net


class TestBlockingFindings:
    def test_hole_detected(self):
        net = chain_net()
        net.add_rule("b", {"a": "a1"}, ("b1", "b2"))  # a=a2 unanswered
        report = audit_network(net)
        holes = report.by_kind("hole")
        assert len(holes) == 1 and holes[0].variable == "b"
        assert not report.ok

    def test_ambiguity_detected(self):
        net = CPNet()
        net.add_variable("p", ("p1", "p2"))
        net.add_rule("p", {}, ("p1", "p2"))
        net.add_variable("q", ("q1", "q2"))
        net.add_rule("q", {}, ("q1", "q2"))
        net.add_variable("v", ("v1", "v2"), parents=("p", "q"))
        net.add_rule("v", {"p": "p1"}, ("v1", "v2"))
        net.add_rule("v", {"q": "q1"}, ("v2", "v1"))
        report = audit_network(net)
        assert report.by_kind("ambiguity")
        # The hole findings are also present (p2/q2 combination unanswered).
        assert not report.ok


class TestAdvisoryFindings:
    def test_unreachable_rule(self):
        net = chain_net()
        net.add_rule("b", {"a": "a1"}, ("b1", "b2"))
        net.add_rule("b", {"a": "a2"}, ("b2", "b1"))
        net.add_rule("b", {}, ("b1", "b2"))  # catch-all shadowed everywhere
        report = audit_network(net)
        unreachable = report.by_kind("unreachable-rule")
        assert len(unreachable) == 1
        assert "shadowed" in unreachable[0].detail
        assert report.ok  # advisory only

    def test_never_default_value(self):
        net = CPNet()
        net.add_variable("x", ("show", "shrink", "hide"))
        net.add_rule("x", {}, ("show", "shrink", "hide"))
        report = audit_network(net)
        kinds = {f.detail.split("'")[1] for f in report.by_kind("never-default")}
        assert kinds == {"shrink", "hide"}

    def test_isolated_variable(self):
        net = CPNet()
        net.add_variable("lonely", ("a", "b"))
        net.add_rule("lonely", {}, ("a", "b"))
        report = audit_network(net)
        assert report.by_kind("isolated")

    def test_large_space_skipped(self):
        net = CPNet()
        for index in range(14):
            net.add_variable(f"p{index}", ("x", "y"))
            net.add_rule(f"p{index}", {}, ("x", "y"))
        net.add_variable("big", ("a", "b"), parents=tuple(f"p{i}" for i in range(14)))
        net.add_rule("big", {}, ("a", "b"))
        report = audit_network(net)
        assert "big" in report.skipped_variables


class TestRealNetworks:
    def test_figure2_is_clean(self):
        report = audit_network(figure2_network())
        assert report.ok
        assert not report.by_kind("unreachable-rule")
        # The roots' dispreferred values are correctly flagged as
        # never-default (their single unconditional row decides alone);
        # the conditioned variables each top both values somewhere.
        flagged = {f.variable for f in report.by_kind("never-default")}
        assert flagged == {"c1", "c2"}

    def test_sample_record_audit(self):
        report = audit_network(build_sample_medical_record().network)
        assert report.ok
        assert report.checked_assignments > 0

    def test_summary_renders(self):
        net = chain_net()
        net.add_rule("b", {"a": "a1"}, ("b1", "b2"))
        text = audit_network(net).summary()
        assert "hole" in text and "chain" in text
