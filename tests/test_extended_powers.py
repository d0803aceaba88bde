import pytest

from entriv.core_algebra import homology
from entriv.extended_powers import (DLClass, StuntedModel, bockstein_pairing_consistent,
                                    dl_basis, family_degree_counts, full_finite_basis,
                                    moore_complex, moore_identification,
                                    p2_cell_class_agreement, p2_stunted_model, pushout_rank_check,
                                    transfer_cofiber_check, verify_ses)


class TestDLBasis:
    def test_worked_example_p3_n2(self):
        basis = dl_basis(3, 2, "einf", (-6, 4))
        got = {(c.label(), c.degree) for c in basis.classes}
        assert got == {("Q^-1", -4), ("bQ^0", -1), ("Q^0", 0), ("bQ^1", 3), ("Q^1", 4)}

    def test_low_range_p3_n2(self):
        basis = full_finite_basis(3, 2, "en-1")
        assert [(c.label(), c.degree) for c in basis.classes] == [("Q^-1", -4)]
        # cross-check: the free arity module on a (-2)-sphere is a (-6)-sphere,
        # shifted by 2, so exactly one class in degree -4

    def test_truncated_p3_n2(self):
        basis = full_finite_basis(3, 2, "en+1")
        got = {(c.label(), c.degree) for c in basis.classes}
        assert got == {("Q^-1", -4), ("bQ^0", -1), ("Q^0", 0)}

    def test_two_cell_family(self):
        basis = full_finite_basis(5, 1, "e2")
        assert {(c.kind, c.s, c.degree) for c in basis.classes} == {("Q", 0, 0), ("bQ", 0, -1)}

    def test_one_cell_family(self):
        basis = full_finite_basis(7, 1, "e1")
        assert [(c.kind, c.s, c.degree) for c in basis.classes] == [("Q", 0, 0)]

    def test_rejects_composite_prime(self):
        for q in (1, 4, 9):
            with pytest.raises(ValueError):
                dl_basis(q, 3, "einf", (-5, 5))

    def test_rejects_unknown_family(self):
        with pytest.raises(ValueError):
            dl_basis(3, 2, "e17", (-5, 5))

    @pytest.mark.parametrize("p", (2, 3, 5, 7))
    def test_counts_match_the_admissibility_inequalities(self, p):
        """The interval counts against the raw inequalities, class by class."""
        span = 2 * (p - 1)
        for n in range(1, 9):
            for family in ("einf", "en+1", "en-1", "e2", "e1"):
                for window in ((-40, 40), (-3, 1), (0, 5), (-50, -20), (7, 7)):
                    want = {}
                    for s in range(-60, 60):
                        for kind, degree in (("Q", span * s), ("bQ", span * s - 1)):
                            m = 1 if family == "e2" else n
                            ok = 2 * s >= -m if kind == "Q" else 2 * s > -m
                            ok = ok and {"einf": True, "en+1": s <= 0, "en-1": s <= -1,
                                         "e2": s <= 0, "e1": kind == "Q" and s == 0}[family]
                            if ok and window[0] <= degree <= window[1]:
                                want[degree] = want.get(degree, 0) + 1
                    assert family_degree_counts(p, n, family, window) == want
                    basis = dl_basis(p, n, family, window)
                    assert basis.degrees() == want
                    assert [c.degree for c in basis.classes] == sorted(want)

    def test_degree_formula(self):
        for p in (2, 3, 5):
            for s in range(-3, 4):
                assert DLClass("Q", s, p).degree == 2 * s * (p - 1)
                assert DLClass("bQ", s, p).degree == 2 * s * (p - 1) - 1


class TestP2Models:
    def test_spec_examples(self):
        assert p2_stunted_model(3, "en+1").cells((-10, 10)) == [-3, -2, -1, 0]
        assert p2_stunted_model(3, "en-1").cells((-10, 10)) == [-3, -2]
        assert p2_stunted_model(7, "e2").cells((-10, 10)) == [-1, 0]

    def test_rejects_bad_family(self):
        with pytest.raises(ValueError):
            p2_stunted_model(3, "e1x")

    def test_empty_low_family_at_one(self):
        model = p2_stunted_model(1, "en-1")
        assert model.label() == "RP[-1..-2]" and model.cells((-12, 12)) == []
        with pytest.raises(ValueError):
            StuntedModel(0, -2)

    def test_cell_class_agreement(self):
        for n in range(1, 9):
            for family in ("einf", "en+1", "en-1", "e2", "e1"):
                assert p2_cell_class_agreement(n, family, (-12, 12))
        assert [c.degree for c in dl_basis(2, 4, "en-1", (-12, 12)).classes] == [-4, -3, -2]

    def test_classes_are_labelled_by_cell(self):
        basis = dl_basis(2, 3, "einf", (-5, 2))
        assert [(c.kind, c.s, c.label()) for c in basis.classes] == [
            ("bQ", -1, "cell_-3"), ("Q", -1, "cell_-2"), ("bQ", 0, "cell_-1"),
            ("Q", 0, "cell_0"), ("bQ", 1, "cell_1"), ("Q", 1, "cell_2")]


class TestSes:
    def test_p3_n2_first_table(self):
        report = verify_ses(3, 2, "first")
        assert report.passed
        table = {d: (a, b, c) for d, a, b, c in report.table}
        assert table[-4] == (1, 1, 0)
        assert table[-1] == (0, 1, 1)
        assert table[0] == (0, 1, 1)

    def test_p2_n3_first_cells(self):
        report = verify_ses(2, 3, "first")
        assert report.passed
        table = {d: (a, b, c) for d, a, b, c in report.table}
        assert table[-3] == (1, 1, 0) and table[-2] == (1, 1, 0)
        assert table[-1] == (0, 1, 1) and table[0] == (0, 1, 1)

    def test_p5_n1_second_empty_kernel(self):
        report = verify_ses(5, 1, "second", window=(-20, 20))
        assert report.passed
        assert all(a == 0 for _, a, _, _ in report.table)

    @pytest.mark.parametrize("p", (2, 3, 5, 7))
    @pytest.mark.parametrize("n", range(1, 9))
    @pytest.mark.parametrize("which", ("first", "second"))
    def test_grid(self, p, n, which):
        assert verify_ses(p, n, which).passed

    def test_rejects_bad_which(self):
        with pytest.raises(ValueError):
            verify_ses(3, 2, "third")


class TestPushout:
    def test_p3_n2(self):
        report = pushout_rank_check(3, 2, (-10, 0))
        assert report.passed
        assert report.kernel_truncated == (-4,)

    def test_p2_n4(self):
        report = pushout_rank_check(2, 4)
        assert report.passed
        assert report.kernel_truncated == (-4, -3, -2)

    @pytest.mark.parametrize("p", (2, 3))
    def test_window_cutting_the_low_range_keeps_the_whole_kernel(self, p):
        report = pushout_rank_check(p, 4, (-1, 1))
        assert report.passed
        assert report.kernel_truncated == pushout_rank_check(p, 4).kernel_truncated

    def test_n1_kernels_empty(self):
        for p in (2, 3, 5):
            report = pushout_rank_check(p, 1)
            assert report.passed
            assert report.kernel_truncated == () == report.kernel_wide


class TestMooreAndTransfer:
    @pytest.mark.parametrize("p", (2, 3, 5))
    def test_moore(self, p):
        report = moore_identification(p)
        assert report.passed
        assert sorted(d for _, d in report.basis) == [-1, 0]
        assert dict(report.top_cell_map)[report.basis[1][0]] == "1"
        assert dict(report.top_cell_map)[report.basis[0][0]] == "0"

    def test_moore_homology_oracle(self):
        for p in (2, 3, 5):
            h = homology(moore_complex(p), f"F{p}")
            assert h.component(-1) == (1, ()) and h.component(0) == (1, ())
            hz = homology(moore_complex(p), "Z")
            assert hz.component(-1) == (0, (p,)) and hz.component(0) == (0, ())

    @pytest.mark.parametrize("p,window", [(3, (-2, 10)), (2, (-2, 10)), (5, (-2, 40))])
    def test_transfer(self, p, window):
        report = transfer_cofiber_check(p, window)
        assert report.passed
        assert len(report.difference) == 1 and report.difference[0][1] == -1


class TestInvariants:
    def test_bockstein_pairing(self):
        for p in (2, 3, 5, 7):
            for n in range(1, 9):
                for family in ("einf", "en+1", "en-1", "e2", "e1"):
                    assert bockstein_pairing_consistent(p, n, family)

    def test_euler_characteristic_of_square(self):
        for p in (2, 3, 5, 7):
            for n in range(1, 9):
                window = (-40, 40)
                corners = [family_degree_counts(p, n, "en+1", window),
                           family_degree_counts(p, n, "einf", window),
                           family_degree_counts(p, 1, "e2", window),
                           family_degree_counts(p, 1, "einf", window)]
                for d in range(window[0], window[1] + 1):
                    assert (corners[0].get(d, 0) - corners[1].get(d, 0)
                            - corners[2].get(d, 0) + corners[3].get(d, 0)) == 0
