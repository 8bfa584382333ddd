import numpy as np
import pytest

from ncshilov import conesolver, matcore
from ncshilov.errors import RankAmbiguous, UnitNotInAlgebra, ZeroSpace
from ncshilov.selftest import loose_instance
from ncshilov.stargen import (
    cone_spans,
    generate_star_algebra,
    generate_tro,
    tro_equals_algebra,
    unit_projection,
    validate_space,
)


def _unit(i, j, n):
    m = np.zeros((n, n), dtype=complex)
    m[i, j] = 1.0
    return m


def test_validate_space_single_projection():
    x = validate_space([_unit(0, 0, 2)])
    assert x.dim == 1
    assert not x.adjoints_added


def test_validate_space_adds_adjoints():
    x = validate_space([_unit(0, 1, 2)])
    assert x.dim == 2
    assert x.adjoints_added
    assert x.contains(_unit(1, 0, 2))


def test_validate_space_generic_psd_independent():
    rng = np.random.default_rng(5)
    x = validate_space([matcore.random_psd(rng, 5) for _ in range(3)])
    assert x.dim == 3


def test_validate_space_zero_rejected():
    with pytest.raises(ZeroSpace):
        validate_space([np.zeros((2, 2))])


def test_selfadjointness_of_validated_basis():
    rng = np.random.default_rng(8)
    x = validate_space([matcore.random_complex(rng, (3, 3))])
    for b in x.basis:
        assert matcore.span_residual(x.basis, b.conj().T) <= 1e-9


def test_generate_star_algebra_diagonal():
    alg = generate_star_algebra(validate_space([_unit(0, 0, 2), _unit(1, 1, 2)]))
    assert alg.dim == 2
    assert np.allclose(alg.unit, np.eye(2))


def test_generate_star_algebra_generic_psd_is_full():
    rng = np.random.default_rng(1)
    x = validate_space([matcore.random_psd(rng, 5) for _ in range(3)])
    alg = generate_star_algebra(x)
    assert alg.dim == 25
    assert np.allclose(alg.unit, np.eye(5), atol=1e-9)


def test_generate_star_algebra_scalars():
    alg = generate_star_algebra(validate_space([np.eye(2, dtype=complex)]))
    assert alg.dim == 1


def test_closure_idempotence():
    rng = np.random.default_rng(9)
    x = validate_space([matcore.random_psd(rng, 4) for _ in range(2)])
    alg = generate_star_algebra(x)
    again = generate_star_algebra(alg.basis)
    assert again.dim == alg.dim
    for b in again.basis:
        assert matcore.span_residual(alg.basis, b) <= 1e-8


def test_generate_tro_selfadjoint_unitary():
    u = np.diag([1.0, -1.0]).astype(complex)
    tro = generate_tro(validate_space([u]))
    assert tro.shape[0] == 1


def test_generate_tro_partial_isometry_pair():
    tro = generate_tro(validate_space([_unit(0, 1, 2)]))
    assert tro.shape[0] == 2
    # all odd products land back in the span
    for a in tro:
        for b in tro:
            for c in tro:
                assert matcore.span_residual(tro, a @ b.conj().T @ c) <= 1e-8


def test_generate_tro_generic_psd_equals_algebra():
    rng = np.random.default_rng(2)
    x = validate_space([matcore.random_psd(rng, 5) for _ in range(3)])
    assert generate_tro(x).shape[0] == 25
    assert tro_equals_algebra(x)


def test_tro_not_equal_algebra_offdiagonal():
    assert not tro_equals_algebra(validate_space([_unit(0, 1, 2)]))


def test_tro_equals_algebra_full_matrix():
    x = validate_space([_unit(i, j, 2) for i in range(2) for j in range(2)])
    assert tro_equals_algebra(x)


def test_theorem_b_on_random_spanning_instances():
    rng = np.random.default_rng(3)
    for _ in range(12):
        n = int(rng.integers(3, 9))
        k = int(rng.integers(2, 7))
        x = validate_space([matcore.random_psd(rng, n) for _ in range(k)])
        assert tro_equals_algebra(x)


def test_unit_projection_examples():
    e = unit_projection(np.stack([_unit(0, 0, 2)]))
    assert np.allclose(e, _unit(0, 0, 2))
    full = np.stack([_unit(i, j, 2) for i in range(2) for j in range(2)])
    assert np.allclose(unit_projection(full), np.eye(2))
    third = np.stack([np.diag([1.0, 1.0, 0.0]).astype(complex) / np.sqrt(2)])
    assert np.allclose(unit_projection(third), np.diag([1.0, 1.0, 0.0]))


def test_unit_projection_acts_as_unit():
    rng = np.random.default_rng(4)
    alg = generate_star_algebra(validate_space([matcore.random_psd(rng, 4)
                                                for _ in range(2)]))
    e = alg.unit
    for b in alg.basis:
        assert matcore.op_norm(e @ b - b) + matcore.op_norm(b @ e - b) <= 1e-8


def test_unit_projection_rejects_non_closed_span():
    # span{E12, E21} is not an algebra: its range projection is I, which is
    # not in the span
    bad = np.stack([_unit(0, 1, 2), _unit(1, 0, 2)])
    with pytest.raises(UnitNotInAlgebra):
        unit_projection(bad)


def test_cone_spans_diagonal():
    r = cone_spans(validate_space([_unit(0, 0, 2), _unit(1, 1, 2)]))
    assert r.spans
    for g in r.positive_basis:
        assert matcore.psd_check(matcore.hermitize(g), tol=1e-7).positive


def test_cone_spans_offdiagonal_fails():
    r = cone_spans(validate_space([_unit(0, 1, 2) + _unit(1, 0, 2)]))
    assert not r.spans
    assert r.span_dim == 0


def test_cone_spans_without_positive_elements_is_conclusive():
    # a diag(1, -2, .5) + b diag(0, 1, -3) >= 0 forces a = b = 0, yet the
    # trace-one probe programs are affinely consistent: their infeasibility
    # must come back as an answer, not as a marginal solve.  span{diag(1, -1)}
    # has no trace-one element at all, so its probe programs are
    # inconsistent, which is an answer too
    for gens in ([np.diag([1.0, -2.0, 0.5]), np.diag([0.0, 1.0, -3.0])],
                 [np.diag([1.0, -1.0])]):
        r = cone_spans(validate_space([g.astype(complex) for g in gens]))
        assert not r.spans
        assert r.span_dim == 0
        assert not r.inconclusive


def test_cone_spans_wedge_example():
    g1 = np.diag([1, 0, 0.75]).astype(complex)
    g2 = np.diag([0, 1, -0.75]).astype(complex)
    r = cone_spans(validate_space([g1, g2]))
    assert r.spans
    assert r.span_dim == 2


def test_cone_spans_decides_criterion_8_instance_5():
    # the sixth space of acceptance criterion 8, rebuilt in its draw order;
    # its cone spans, and a probe that ends near the cone's boundary must
    # still count
    r = cone_spans(_criterion_8_instance_5())
    assert r.spans
    assert not r.inconclusive


def _criterion_8_instance_5():
    rng = np.random.default_rng(808)
    for i in range(6):
        if i % 3 == 0:
            gens = loose_instance(rng, a=int(rng.integers(2, 4)), b=1)
        elif i % 3 == 1:
            n = int(rng.integers(2, 5))
            gens = [matcore.random_psd(rng, n) for _ in range(3)]
        else:
            n = int(rng.integers(2, 4))
            gens = [matcore.random_psd(rng, n) for _ in range(2)]
    return validate_space(gens)


def _check_separator(x, r, tol=1e-7):
    # W, re-checked from the space alone: PSD, trace one, and the bound
    # y0 + rho on lambda_min of every trace-one positive element is <= tol
    w = r.certificate
    assert not r.spans and not r.inconclusive
    assert np.abs(w - w.conj().T).max() <= 1e-12
    assert np.linalg.eigvalsh(w)[0] >= -1e-9
    assert abs(np.trace(w) - 1.0) <= 1e-9
    hb = x.hermitian_basis()
    t = np.trace(hb, axis1=1, axis2=2).real
    wc = np.einsum("tab,ab->t", hb.conj(), w).real
    y0 = wc @ t / (t @ t)
    bound = y0 + np.linalg.norm(wc - y0 * t)
    assert bound <= tol
    assert bound == pytest.approx(r.margin_bound, abs=1e-12)


def _non_spanning_spaces():
    # positives exist, but none is definite on the joint range: the cone
    # spans one dimension of two; and span{diag(1, 1e-9), sigma_x}, whose
    # best trace-one positive has lambda_min 1e-9, below the default tol
    sigma_x = _unit(0, 1, 2) + _unit(1, 0, 2)
    return [validate_space([_unit(0, 0, 2), sigma_x]),
            validate_space([np.diag([1.0, 0, 0]).astype(complex),
                            np.diag([0, 1.0, -1.0]).astype(complex)]),
            validate_space([np.diag([1.0, 1e-9]).astype(complex), sigma_x])]


def test_cone_spans_returns_d_positives_from_one_solve(monkeypatch):
    # one margin solve decides every instance: an order unit (a positive
    # element definite on the joint range) gives the whole positive
    # spanning set, and a separator W decides the rest
    rng = np.random.default_rng(12)
    spaces = [validate_space([_unit(0, 0, 2), _unit(1, 1, 2)]),
              validate_space([np.diag([1, 0, 0.75]).astype(complex),
                              np.diag([0, 1, -0.75]).astype(complex)]),
              # joint range a proper subspace of C^3
              validate_space([_unit(0, 0, 3), _unit(0, 1, 3) + _unit(1, 0, 3),
                              _unit(1, 1, 3)]),
              _criterion_8_instance_5()]
    spaces += [validate_space(loose_instance(rng, a=3, b=2)) for _ in range(3)]
    spaces += [validate_space([matcore.random_psd(rng, 4) for _ in range(3)])]
    # spans, but no trace-one positive element has lambda_min above about
    # delta: the positives built on the order unit are close to parallel
    sigma_x = _unit(0, 1, 2) + _unit(1, 0, 2)
    thin = [validate_space([np.diag([1.0, delta]).astype(complex), sigma_x])
            for delta in (1e-3, 1e-4, 1e-5)]
    calls = []
    real = conesolver.solve_dual_margin
    monkeypatch.setattr(conesolver, "solve_dual_margin",
                        lambda *a, **k: calls.append(1) or real(*a, **k))
    for i, x in enumerate(spaces + thin):
        calls.clear()
        r = cone_spans(x)
        assert len(calls) == 1
        assert r.spans and r.span_dim == x.dim and not r.inconclusive
        assert r.positive_basis.shape[0] == x.dim
        for g in r.positive_basis:
            assert np.abs(g - g.conj().T).max() <= 1e-12
            assert np.linalg.eigvalsh(g)[0] >= -1e-9
            assert abs(np.trace(g) - 1.0) <= 1e-9
            assert x.contains(g)
        # the positives' coordinates over the Hermitian basis have full rank
        hb = x.hermitian_basis()
        coords = np.einsum("tab,sab->st", hb.conj(), r.positive_basis).real
        assert np.linalg.matrix_rank(coords) == x.dim
        if i < len(spaces):
            assert matcore.orthonormalize_real(r.positive_basis).shape[0] == x.dim
    for x in _non_spanning_spaces():
        calls.clear()
        r = cone_spans(x)
        assert len(calls) == 1
        _check_separator(x, r)


def test_cone_spans_without_an_order_unit_is_certified_not_spanning():
    # no positive element is definite on the joint range by more than tol:
    # a conclusive answer, with a separator W; span{E11, sigma_x} has
    # W = E22, and span{diag(1, 1e-9), sigma_x} spans only at a smaller tol
    # (a verdict at tolerance, as with cc_test)
    spaces = _non_spanning_spaces()
    for x in spaces:
        r = cone_spans(x)
        _check_separator(x, r)
        assert r.span_dim is None
    assert np.abs(cone_spans(spaces[0]).certificate - _unit(1, 1, 2)).max() <= 1e-6
    assert cone_spans(spaces[2], tol=1e-10).spans


def test_rank_ambiguous_closure():
    g = np.diag([1.0, 0.0]).astype(complex)
    h = np.diag([0.0, 1.0]).astype(complex)
    with pytest.raises(RankAmbiguous):
        validate_space([g, g + 1e-8 * h])
