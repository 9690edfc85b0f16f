"""The library's input checks, each called directly: every one answers with
its structured error code, and each early return for an empty or lower-
dimensional operand answers exactly."""

from __future__ import annotations

import pytest

from aptkit import barcodes, cutoff, geometry, modules, polyhedra, rational, toric
from aptkit.barcodes import bar, barcode
from aptkit.errors import AptError, EmptyInput
from aptkit.geometry import Cone, validate_fan
from aptkit.k0 import K0Class
from aptkit.modules import HALFLINE, PresentationND
from aptkit.polyhedra import OpenPolyhedron
from aptkit.rational import INF

LINE, PLANE = Cone(1, [(1,)]), Cone(2, [(1, 0), (0, 1)])
R1, R2 = OpenPolyhedron(1, []), OpenPolyhedron(2, [])
RAY = Cone(2, [(1, 0)])
HALF = Cone(2, [(1, 0), (-1, 0), (0, 1)])  # a cone with a line has a thin dual and no chart

CHECKS = {
    "intersect-dims": (lambda: geometry.intersect(LINE, PLANE), "bad-input"),
    "separating-vector-dims": (lambda: geometry.separating_vector(LINE, PLANE), "bad-input"),
    "constraint-dims": (lambda: OpenPolyhedron(2, [((1,), 1)]), "bad-input"),
    "minkowski-sum-dims": (lambda: polyhedra.minkowski_sum(R1, R2), "bad-input"),
    "minkowski-relint-dims": (lambda: cutoff.minkowski_with_cone(R1, PLANE), "bad-input"),
    "gamma-open-dims": (lambda: cutoff.is_gamma_open(R1, PLANE), "bad-input"),
    "basis-witness-dims": (lambda: cutoff.gamma_basis_witness(R2, (0,), PLANE), "bad-input"),
    "indicator-convolve-dims": (lambda: cutoff.indicator_convolve(R1, R2), "bad-input"),
    "dot-dims": (lambda: rational.dot((1,), (1, 2)), "bad-input"),
    "generator-dims": (lambda: PresentationND(HALFLINE, [(0, 0)]), "bad-input"),
    "module-eval-dims": (lambda: modules.eval_at(PresentationND(HALFLINE, [(0,)]), (0, 0)), "bad-input"),
    "fan-of-no-cone": (lambda: validate_fan([]), "bad-input"),
    "fan-of-mixed-dims": (lambda: validate_fan([Cone(1, []), Cone(2, [])]), "bad-input"),
    "fan-ids-of-wrong-length": (lambda: validate_fan([Cone(1, [])], ["a", "b"]), "bad-input"),
    "fan-ids-repeated": (lambda: validate_fan([Cone(1, []), LINE], ["a", "a"]), "bad-input"),
    "fan-cone-repeated": (lambda: validate_fan([Cone(1, []), Cone(1, [])], ["a", "b"]), "bad-input"),
    "barcode-eval-at-inf": (lambda: barcodes.eval_at(barcode(bar(0, 1)), "inf"), "bad-input"),
    "negative-torsion-scale": (lambda: barcodes.is_c_torsion(barcode(bar(0, 1)), -1), "bad-input"),
    "k0-at-inf": (lambda: K0Class([(INF, 1)]), "bad-input"),
    "unknown-field": (lambda: modules.parse_field("x"), "bad-input"),
    "grading-cone-not-full": (lambda: PresentationND(RAY, []), "bad-input"),
    "grading-tag": (lambda: toric.chart_of_cone(LINE, grading=0), "bad-input"),
    "chart-of-float-grading": (lambda: toric.Chart(PLANE, 0.5), "bad-input"),
    "chart-of-thin-dual": (lambda: toric.Chart(HALF), "improper-cone"),
    "field-of-non-ascii-digits": (lambda: modules.parse_field("f\u00b2"), "bad-input"),
    "field-of-too-many-digits": (lambda: modules.parse_field("f" + "7" * 5000), "bad-input"),
}


@pytest.mark.parametrize("call, code", CHECKS.values(), ids=CHECKS)
def test_input_checks_answer_with_their_error_code(call, code):
    with pytest.raises(AptError) as caught:
        call()
    assert caught.value.code == code


def test_early_returns_on_empty_and_thin_operands():
    empty = OpenPolyhedron.empty(2)
    assert OpenPolyhedron.cone_interior(RAY).is_empty
    assert empty.translate((1, 2)) is empty
    assert cutoff.is_gamma_open(empty, PLANE)
    with pytest.raises(EmptyInput):
        cutoff.minkowski_with_cone(empty, PLANE)
    # rays alone: no full-dimensional cone, so not complete
    assert not validate_fan([Cone(2, []), RAY], ["0", "r"]).is_complete()
