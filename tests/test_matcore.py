import numpy as np
import pytest

from ncshilov import matcore
from ncshilov.errors import NonFinite, RankAmbiguous, ShapeMismatch
from ncshilov.matcore import (
    amplify,
    herm_eig,
    hermitize,
    hs_inner,
    null_space,
    op_norm,
    op_norms,
    orthonormalize,
    orthonormalize_real,
    psd_check,
)


def test_herm_eig_diagonal():
    w, u = herm_eig(np.diag([3.0, 1.0]))
    assert np.allclose(w, [3.0, 1.0])


def test_herm_eig_pauli():
    w, _ = herm_eig(np.array([[0, 1], [1, 0]], dtype=complex))
    assert np.allclose(w, [1.0, -1.0])


def test_herm_eig_reconstruction_random():
    rng = np.random.default_rng(0)
    m = matcore.random_hermitian(rng, 8)
    w, u = herm_eig(m)
    rec = (u * w) @ u.conj().T
    scale = max(1.0, op_norm(m))
    assert op_norm(rec - m) <= 1e-10 * scale
    assert op_norm(u.conj().T @ u - np.eye(8)) <= 1e-10
    assert np.all(np.diff(w) <= 1e-12)


def test_herm_eig_rejects_nonfinite():
    with pytest.raises(NonFinite):
        herm_eig(np.array([[np.nan, 0], [0, 1.0]]))


def test_op_norm_examples():
    assert op_norm(np.array([[0, 2], [0, 0.0]])) == pytest.approx(2.0)
    assert op_norm(np.eye(5)) == pytest.approx(1.0)


def _power_iteration_norm(m, iters=2000):
    # independent oracle: power iteration on m* m
    rng = np.random.default_rng(123)
    v = rng.standard_normal(m.shape[1]) + 1j * rng.standard_normal(m.shape[1])
    v /= np.linalg.norm(v)
    g = m.conj().T @ m
    for _ in range(iters):
        v = g @ v
        v /= np.linalg.norm(v)
    return float(np.sqrt(np.real(v.conj() @ g @ v)))


def test_op_norm_against_power_iteration():
    rng = np.random.default_rng(7)
    m = matcore.random_complex(rng, (6, 9))
    assert op_norm(m) == pytest.approx(_power_iteration_norm(m), abs=1e-8)


def test_op_norm_matches_top_eig_of_gram():
    rng = np.random.default_rng(3)
    m = matcore.random_complex(rng, (5, 5))
    w, _ = herm_eig(m.conj().T @ m)
    assert op_norm(m) == pytest.approx(np.sqrt(w[0]), abs=1e-10)


def test_psd_check_examples():
    assert psd_check(np.diag([1.0, 0.0]), tol=1e-9).positive
    res = psd_check(np.diag([1.0, -1.0]))
    assert not res.positive
    assert res.witness_value < 0
    assert abs(abs(res.witness[1]) - 1.0) < 1e-9


def test_psd_check_gram_is_positive():
    rng = np.random.default_rng(11)
    b = matcore.random_complex(rng, (4, 4))
    assert psd_check(b.conj().T @ b, tol=1e-9).positive


def test_hs_inner_examples():
    assert hs_inner(np.eye(2), np.eye(2)) == pytest.approx(2.0)
    e11 = np.diag([1.0, 0.0])
    e22 = np.diag([0.0, 1.0])
    assert hs_inner(e11, e22) == pytest.approx(0.0)


def test_hs_inner_against_naive_loop():
    rng = np.random.default_rng(5)
    a = matcore.random_complex(rng, (3, 4))
    b = matcore.random_complex(rng, (3, 4))
    naive = sum(np.conj(b[i, j]) * a[i, j] for i in range(3) for j in range(4))
    assert hs_inner(a, b) == pytest.approx(naive, abs=1e-12)


def test_amplify_level_one_and_direct_sum():
    rng = np.random.default_rng(2)
    x = matcore.random_hermitian(rng, 3)
    basis = np.stack([x])
    c = np.zeros((1, 1, 1), dtype=complex)
    c[0, 0, 0] = 1.0
    assert np.allclose(amplify(c, basis), x)
    c2 = np.zeros((2, 2, 1), dtype=complex)
    c2[0, 0, 0] = c2[1, 1, 0] = 1.0
    big = amplify(c2, basis)
    assert op_norm(big) == pytest.approx(op_norm(x), abs=1e-12)


def test_amplify_dominates_entries():
    rng = np.random.default_rng(4)
    basis = np.stack([matcore.random_complex(rng, (3, 3)) for _ in range(2)])
    c = matcore.random_complex(rng, (2, 2, 2))
    big = amplify(c, basis)
    for i in range(2):
        for j in range(2):
            entry = np.einsum("t,tab->ab", c[i, j], basis)
            assert op_norm(entry) <= op_norm(big) + 1e-9


def test_amplify_shape_errors():
    with pytest.raises(ShapeMismatch):
        amplify(np.zeros((2, 2, 3)), np.zeros((2, 4, 4)))
    with pytest.raises(ShapeMismatch):
        amplify(np.zeros((1, 2, 2, 3, 1)), np.zeros((3, 4, 4)))


def test_amplify_stack_equals_elements_assembled_alone():
    rng = np.random.default_rng(43)
    basis = matcore.random_complex(rng, (3, 4, 4))
    stack = matcore.random_complex(rng, (7, 2, 2, 3))
    big = amplify(stack, basis)
    assert big.shape == (7, 8, 8)
    for s, c in enumerate(stack):
        alone = np.einsum("ijt,tab->iajb", c, basis).reshape(8, 8)
        assert np.array_equal(big[s], alone)
        assert np.array_equal(amplify(c, basis), alone)


def test_eigenvalue_sum_equals_trace():
    rng = np.random.default_rng(9)
    for n in (2, 5, 8):
        m = matcore.random_hermitian(rng, n)
        w, _ = herm_eig(m)
        assert abs(w.sum() - np.trace(m).real) <= 1e-9 * n


def test_op_norm_unitary_invariance_and_submultiplicativity():
    rng = np.random.default_rng(13)
    for _ in range(5):
        m = matcore.random_complex(rng, (4, 4))
        g1 = matcore.random_complex(rng, (4, 4))
        g2 = matcore.random_complex(rng, (4, 4))
        u, _ = np.linalg.qr(g1)
        v, _ = np.linalg.qr(g2)
        assert op_norm(u @ m @ v) == pytest.approx(op_norm(m), abs=1e-9)
        assert op_norm(m @ g1) <= op_norm(m) * op_norm(g1) + 1e-9


def test_involution_identity_on_selfadjoint_space():
    # norm of [x_ji*] equals norm of [x_ij] for spaces closed under adjoints
    rng = np.random.default_rng(17)
    from ncshilov.stargen import validate_space
    x = validate_space([matcore.random_hermitian(rng, 4) for _ in range(3)])
    for k in (1, 2):
        c = matcore.random_complex(rng, (k, k, x.dim))
        y = amplify(c, x.basis)
        n = x.ambient_dim
        star = np.zeros_like(y)
        for i in range(k):
            for j in range(k):
                blk = y[j * n : (j + 1) * n, i * n : (i + 1) * n]
                star[i * n : (i + 1) * n, j * n : (j + 1) * n] = blk.conj().T
        assert op_norm(star) == pytest.approx(op_norm(y), abs=1e-9)


def test_hermitize_rejects_asymmetric():
    with pytest.raises(ShapeMismatch):
        hermitize(np.array([[0.0, 1.0], [0.0, 0.0]]))


def test_hermitize_stack_checks_each_matrix_against_its_own_scale():
    # a deviation of 1e-9 is within 1e-12 of a matrix of scale 1e4, but not
    # of the unit-scale matrix beside it
    big = np.array([[1e4, 1e-9], [0.0, 1.0]], dtype=complex)
    assert np.array_equal(hermitize(np.stack([big, np.eye(2)]))[0], hermitize(big))
    with pytest.raises(ShapeMismatch):
        hermitize(np.stack([big, np.array([[1.0, 1e-9], [0.0, 1.0]])]))


def test_op_norms_equal_the_norms_taken_one_at_a_time():
    rng = np.random.default_rng(41)
    stack = matcore.random_complex(rng, (3, 5, 4, 6))
    norms = op_norms(stack)
    assert norms.shape == (3, 5)
    for idx in np.ndindex(3, 5):
        assert norms[idx] == float(np.linalg.norm(stack[idx], 2))


def test_op_norms_rejects_nan_and_takes_empty_stacks():
    stack = np.zeros((3, 2, 2), dtype=complex)
    stack[1, 0, 1] = np.nan
    with pytest.raises(NonFinite):
        op_norms(stack)
    with pytest.raises(NonFinite):
        op_norm(stack[1])
    assert op_norms(np.zeros((0, 3, 3))).shape == (0,)
    assert np.array_equal(op_norms(np.zeros((2, 0, 3))), [0.0, 0.0])
    assert op_norm(np.zeros((0, 0))) == 0.0


def test_orthonormalize_rank_band():
    g = np.diag([1.0, 0.0]).astype(complex)
    h = np.diag([0.0, 1.0]).astype(complex)
    with pytest.raises(RankAmbiguous):
        orthonormalize(np.stack([g, g + 1e-8 * h]))


def test_orthonormalize_real_rank_band():
    # the second element is real-independent of the first only at 1e-8
    g = np.diag([1.0, 0.0]).astype(complex)
    h = np.diag([0.0, 1j])
    with pytest.raises(RankAmbiguous):
        orthonormalize_real(np.stack([g, g + 1e-8 * h]))
    assert orthonormalize_real(np.stack([g, 1j * g])).shape == (2, 2, 2)


def test_orthonormalize_preserves_nonconjugate_spans():
    # spans that are not closed under entrywise conjugation must survive
    rng = np.random.default_rng(21)
    stack = np.stack([matcore.random_complex(rng, (3, 3)) for _ in range(2)])
    on = orthonormalize(stack)
    for m in stack:
        assert matcore.span_residual(on, m) < 1e-10


@pytest.mark.parametrize("rows,cols,rank", [(3, 7, 3), (6, 5, 2), (4, 4, 0), (5, 9, 5)])
def test_null_space_is_an_orthonormal_kernel(rows, cols, rank):
    rng = np.random.default_rng(rows * 100 + cols)
    a = matcore.random_complex(rng, (rows, rank)) @ matcore.random_complex(rng, (rank, cols))
    n = null_space(a)
    assert n.shape == (cols - rank, cols)
    assert np.allclose(n @ n.conj().T, np.eye(cols - rank), atol=1e-12)
    assert np.abs(a @ n.T).max(initial=0.0) <= 1e-10 * max(np.linalg.norm(a, 2), 1.0)


def test_null_space_of_no_rows_is_the_whole_space():
    assert np.array_equal(null_space(np.zeros((0, 4))), np.eye(4))


def test_null_space_rows_are_conjugated():
    # a = [1, i]: its kernel is spanned by (-i, 1)/sqrt 2; the unconjugated
    # SVD row is (i, 1)/sqrt 2 up to a phase, and |a @ row| = sqrt 2
    a = np.array([[1.0, 1j]])
    n = null_space(a)
    assert n.shape == (1, 2)
    assert abs(a @ n[0]) <= 1e-15
    assert abs(a @ n[0].conj()) > 1.0


def test_null_space_floor_makes_the_cut_absolute():
    rng = np.random.default_rng(7)
    a = matcore.random_complex(rng, (2, 5))
    tiny = 1e-11 * a / np.linalg.norm(a, 2)

    def kernel_projector(n):  # the kernel vectors are the rows of n
        return n.T @ n.conj()

    # relative to an O(1) scale the tiny matrix is zero: the kernel is everything
    full = null_space(tiny, floor=1.0)
    assert full.shape == (5, 5)
    assert np.allclose(kernel_projector(full), np.eye(5), atol=1e-12)
    # without the floor the cut is relative: the kernel of the rescaled copy
    rel = null_space(tiny)
    assert rel.shape == (3, 5)
    assert np.allclose(kernel_projector(rel), kernel_projector(null_space(a)), atol=1e-10)


@pytest.mark.parametrize("k, n", [(1, 1), (1, 4), (2, 3), (3, 8), (4, 6)])
def test_kron_eye_equals_kron_with_the_identity(k, n):
    rng = np.random.default_rng(10 * k + n)
    for a in (matcore.random_complex(rng, (k, k)), rng.standard_normal((k, k))):
        lifted = matcore.kron_eye(a, n)
        assert lifted.dtype == np.kron(a, np.eye(n)).dtype
        assert np.array_equal(lifted, np.kron(a, np.eye(n)))


@pytest.mark.parametrize("m", [1, 2, 5, 12, 24])
def test_certified_above_proves_what_eigvalsh_computes(m):
    # Gram stacks against ceilings placed at, just above and well above
    # the largest eigenvalue eigvalsh computes: a certified ceiling is never
    # reached by that eigenvalue, one at or below it is never certified,
    # and one a millionth above it always is
    rng = np.random.default_rng(m)
    y = matcore.random_complex(rng, (40, 2 * m, m))
    g = y.conj().swapaxes(-2, -1) @ y
    top = np.linalg.eigvalsh(g)[..., -1]
    for rel in (-1e-12, 0.0, 1e-15, 1e-12, 1e-9, 1e-6):
        ceiling = top * (1.0 + rel)
        certified = matcore.certified_above(-g, -ceiling)
        if certified:
            assert (np.linalg.eigvalsh(g)[..., -1] < ceiling).all()
        if rel <= 0.0:
            assert not certified
        if rel >= 1e-6:
            assert certified
    # and floors below the smallest eigenvalue of a positive definite stack
    bottom = np.linalg.eigvalsh(g)[..., 0]
    assert matcore.certified_above(g, 0.5 * bottom)
    assert not matcore.certified_above(g, bottom)


def test_certified_above_refuses_what_it_cannot_prove():
    assert matcore.certified_above(np.eye(3), 0.0)
    assert not matcore.certified_above(-np.eye(3), 0.0)
    assert not matcore.certified_above(np.diag([1.0, 1e-17, 1.0]), 0.0)
    assert matcore.certified_above(np.stack([2 * np.eye(2), 3 * np.eye(2)]), np.array([1.9, 2.9]))
    assert not matcore.certified_above(np.stack([2 * np.eye(2), 3 * np.eye(2)]), [1.9, 3.0])
    # a NaN entry is never certified, and an empty stack has no eigenvalue
    assert not matcore.certified_above(np.array([[1.0, np.nan], [np.nan, 1.0]]), 0.0)
    assert matcore.certified_above(np.zeros((5, 0, 0)), 1.0)
