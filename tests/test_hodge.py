"""Tests for Hodge-frame block matrices, horizontal elements, and charts."""

from itertools import combinations

import numpy as np
import pytest

from ivhs.errors import PreconditionError
from ivhs.fields import QQ, FieldSpec, default_prime_field
from ivhs.hodge import (
    BlockMatrix,
    ChartData,
    HodgeShape,
    HorizontalElement,
    IntegralElementCandidate,
    build_transpose_element,
    check_integral,
    commutator,
    in_chart,
    lie_algebra_residual,
    polarization_matrix,
    project,
    theta,
    theta_inverse,
)
from ivhs.linalg import Matrix, Subspace, random_matrix, standard_complement

F = default_prime_field()
P = F.modulus


def rect_shape(weight, dims):
    return HodgeShape(weight, tuple(dims))


def random_block_matrix(shape, field, rng):
    blocks = {}
    n = shape.weight
    for i in range(n + 1):
        for j in range(n + 1):
            blocks[(i, j)] = random_matrix(field, shape.h(i), shape.h(j), rng)
    return BlockMatrix(shape, field, blocks)


def random_isometry_member(shape, field, rng):
    """Random solution of the isometry relations via the pair partition:
    free block when (i, j) precedes its partner (n-j, n-i), forced partner
    -(-1)^(j-i) t(A^i_j), (anti)symmetrized on the diagonal i + j = n."""
    n = shape.weight
    blocks = {}
    for i in range(n + 1):
        for j in range(n + 1):
            partner = (n - j, n - i)
            if (i, j) == partner:
                r = random_matrix(field, shape.h(i), shape.h(j), rng)
                if n % 2 == 1:
                    blocks[(i, j)] = r + r.transpose()
                else:
                    blocks[(i, j)] = r - r.transpose()
            elif (i, j) < partner:
                blocks[(i, j)] = random_matrix(field, shape.h(i), shape.h(j), rng)
    for (i, j) in list(blocks):
        partner = (n - j, n - i)
        if (i, j) < partner:
            sign = -1 if (j - i) % 2 == 0 else 1
            blocks[partner] = blocks[(i, j)].transpose().scale(sign)
    return BlockMatrix(shape, field, blocks)


def random_horizontal(shape, field, rng):
    free = []
    for j in range(shape.free_slot_count):
        m = random_matrix(field, *shape.slot_shape(j), rng)
        # middle slot of an odd-weight frame must be symmetric
        if shape.weight % 2 == 1 and j == shape.free_slot_count - 1:
            m = m + m.transpose()
        free.append(m)
    return HorizontalElement(shape, field, free)


def zero_horizontal(shape, field):
    return HorizontalElement(
        shape, field, [Matrix.zeros(field, *shape.slot_shape(j)) for j in range(shape.free_slot_count)]
    )


def free_row(e):
    """The free slots 0..r of an element, flattened row-major and concatenated."""
    return [x for m in e.free for x in m.flatten()]


class TestHodgeShape:
    def test_validation(self):
        with pytest.raises(PreconditionError):
            HodgeShape(3, (1, 2, 1))
        with pytest.raises(PreconditionError):
            HodgeShape(0, (1,))
        with pytest.raises(PreconditionError):
            HodgeShape(2, (1, -1, 1))

    def test_free_slot_count(self):
        assert rect_shape(2, (1, 2, 1)).free_slot_count == 1
        assert rect_shape(3, (1, 2, 2, 1)).free_slot_count == 2
        assert rect_shape(4, (1, 2, 3, 2, 1)).free_slot_count == 2
        assert rect_shape(5, (1, 2, 3, 3, 2, 1)).free_slot_count == 3

    def test_slot_shape_and_symmetry(self):
        s = rect_shape(3, (2, 5, 5, 2))
        assert s.slot_shape(0) == (5, 2)
        assert s.slot_shape(1) == (5, 5)
        assert s.slot_shape(2) == (2, 5)
        assert s.is_symmetric
        assert not rect_shape(2, (1, 2, 3)).is_symmetric


class TestBlockMatrix:
    def test_zero_blocks_dropped(self):
        s = rect_shape(2, (1, 1, 1))
        x = BlockMatrix(s, F, {(0, 0): Matrix.zeros(F, 1, 1), (1, 0): Matrix.from_rows(F, [[3]])})
        assert set(x.blocks) == {(1, 0)}
        assert x.block(0, 0).is_zero()

    def test_shape_validation(self):
        s = rect_shape(2, (1, 2, 1))
        with pytest.raises(PreconditionError):
            BlockMatrix(s, F, {(0, 1): Matrix.from_rows(F, [[1]])})
        with pytest.raises(PreconditionError):
            BlockMatrix(s, F, {(3, 0): Matrix.from_rows(F, [[1]])})

    def test_arithmetic_matches_dense(self):
        rng = np.random.default_rng(7)
        s = rect_shape(2, (2, 3, 2))
        for _ in range(10):
            x = random_block_matrix(s, F, rng)
            y = random_block_matrix(s, F, rng)
            xd = dense(x)
            yd = dense(y)
            assert dense(x + y) == xd + yd
            assert dense(x - y) == xd - yd
            assert dense(x @ y) == xd @ yd
            assert dense(x.transpose()) == xd.transpose()
            assert dense(x.scale(5)) == xd.scale(5)

    def test_block_degrees(self):
        s = rect_shape(3, (1, 1, 1, 1))
        one = Matrix.from_rows(F, [[1]])
        x = BlockMatrix(s, F, {(1, 0): one, (3, 2): one, (0, 2): one, (1, 1): Matrix.zeros(F, 1, 1)})
        assert set(x.blocks) == {(1, 0), (3, 2), (0, 2)}
        assert {i - j for (i, j) in x.blocks} == {1, -2}


def dense(x: BlockMatrix) -> Matrix:
    """Flatten a block matrix to an ordinary matrix, for oracle checks."""
    s = x.shape
    rows = [Matrix.hstack([x.block(i, j) for j in range(s.weight + 1)]) for i in range(s.weight + 1)]
    return Matrix.vstack(rows)


class TestPolarization:
    def test_weight_three_signs(self):
        s = rect_shape(3, (1, 2, 2, 1))
        sigma = polarization_matrix(s, F)
        # block (i, n-i) carries (-1)^(n-i): -1, +1, -1, +1 for i = 0..3
        assert sigma.block(0, 3) == Matrix.identity(F, 1).scale(-1)
        assert sigma.block(1, 2) == Matrix.identity(F, 2)
        assert sigma.block(2, 1) == Matrix.identity(F, 2).scale(-1)
        assert sigma.block(3, 0) == Matrix.identity(F, 1)

    def test_weight_two_signs(self):
        s = rect_shape(2, (1, 3, 1))
        sigma = polarization_matrix(s, F)
        assert sigma.block(0, 2) == Matrix.identity(F, 1)
        assert sigma.block(1, 1) == Matrix.identity(F, 3).scale(-1)
        assert sigma.block(2, 0) == Matrix.identity(F, 1)

    @pytest.mark.parametrize("weight,dims", [(2, (1, 2, 1)), (3, (2, 3, 3, 2)), (4, (1, 2, 2, 2, 1)), (5, (1, 1, 2, 2, 1, 1))])
    def test_square_is_plus_minus_identity(self, weight, dims):
        s = rect_shape(weight, dims)
        sigma = polarization_matrix(s, F)
        sq = dense(sigma @ sigma)
        total = sum(dims)
        want = Matrix.identity(F, total).scale(1 if weight % 2 == 0 else -1)
        assert sq == want

    def test_rejects_asymmetric_shape(self):
        with pytest.raises(PreconditionError):
            polarization_matrix(rect_shape(2, (1, 2, 3)), F)


class TestLieAlgebraResidual:
    def test_constructed_member_passes(self):
        rng = np.random.default_rng(11)
        for weight, dims in [(2, (2, 3, 2)), (3, (2, 3, 3, 2)), (4, (1, 2, 3, 2, 1))]:
            s = rect_shape(weight, dims)
            x = random_isometry_member(s, F, rng)
            assert lie_algebra_residual(x) == []

    def test_broken_block_is_flagged(self):
        rng = np.random.default_rng(13)
        s = rect_shape(3, (2, 3, 3, 2))
        x = random_isometry_member(s, F, rng)
        # (2, 1) is its own partner at weight 3: the relation there is
        # symmetry, so the bump must have an antisymmetric part
        bump = Matrix.zeros(F, 3, 3).to_rows()
        bump[0][1] = 1
        broken = x + BlockMatrix(s, F, {(2, 1): Matrix.from_rows(F, bump)})
        bad = lie_algebra_residual(broken)
        positions = {pos for pos, _ in bad}
        assert positions == {(2, 1)}
        # an off-partner bump is reported at both coupled positions
        bump2 = Matrix.zeros(F, 3, 2).to_rows()
        bump2[0][0] = 1
        broken2 = x + BlockMatrix(s, F, {(1, 0): Matrix.from_rows(F, bump2)})
        positions2 = {pos for pos, _ in lie_algebra_residual(broken2)}
        assert positions2 == {(1, 0), (3, 2)}

    def test_matches_matrix_equation(self):
        # residual empty  <=>  tX S + S X == 0, on random and constructed input
        rng = np.random.default_rng(17)
        s = rect_shape(3, (2, 2, 2, 2))
        sigma = polarization_matrix(s, F)
        agree = 0
        members = 0
        for t in range(200):
            if t % 3 == 0:
                x = random_isometry_member(s, F, rng)
            else:
                x = random_block_matrix(s, F, rng)
            residual_empty = lie_algebra_residual(x) == []
            eq = x.transpose() @ sigma + sigma @ x
            assert residual_empty == eq.is_zero()
            agree += 1
            members += residual_empty
        assert agree == 200
        assert members >= 60  # every third draw is a constructed member

    def test_rejects_asymmetric_shape(self):
        s = rect_shape(2, (1, 2, 3))
        x = BlockMatrix(s, F, {})
        with pytest.raises(PreconditionError):
            lie_algebra_residual(x)


class TestHorizontalElement:
    def test_weight_three_relations(self):
        s = rect_shape(3, (2, 3, 3, 2))
        rng = np.random.default_rng(19)
        b = random_matrix(F, 3, 2, rng)
        c = random_matrix(F, 3, 3, rng)
        c = c + c.transpose()
        e = HorizontalElement(s, F, [b, c])
        assert e.free == (b, c)
        assert e.slot(1) == c
        assert e.slot(2) == b.transpose()
        asym = random_matrix(F, 3, 3, rng)
        if asym == asym.transpose():  # vanishing chance, keep the test honest
            asym = asym + Matrix.from_rows(F, [[1 if (i, j) == (0, 1) else 0 for j in range(3)] for i in range(3)])
        with pytest.raises(PreconditionError, match="middle slot must be symmetric"):
            HorizontalElement(s, F, [b, asym])
        with pytest.raises(PreconditionError, match="out of range"):
            e.slot(3)

    def test_construction_compares_only_the_middle_slot(self, monkeypatch):
        # The forced transposes are made when read, so building a weight-3
        # element compares one pair of matrices: the middle slot with its
        # transpose.
        s = rect_shape(3, (2, 3, 3, 2))
        rng = np.random.default_rng(21)
        b = random_matrix(F, 3, 2, rng)
        c = random_matrix(F, 3, 3, rng)
        c = c + c.transpose()
        calls = []
        eq = Matrix.__eq__

        def counted(self, other):
            calls.append(self.shape)
            return eq(self, other)

        monkeypatch.setattr(Matrix, "__eq__", counted)
        HorizontalElement(s, F, [b, c])
        assert calls == [(3, 3)]

    def test_asymmetric_shape_refused(self):
        s = rect_shape(2, (1, 2, 3))
        with pytest.raises(PreconditionError, match="h_q == h_"):
            HorizontalElement(s, F, [Matrix.zeros(F, 2, 1)])

    def test_complete_horizontal_even_weight(self):
        # Even weight: the free slots 0 and 1 determine slots 2 and 3.
        s = rect_shape(4, (1, 2, 3, 2, 1))
        rng = np.random.default_rng(23)
        b = random_matrix(F, 2, 1, rng)
        c = random_matrix(F, 3, 2, rng)
        e = HorizontalElement(s, F, [b, c])
        assert e.slot(0) == b
        assert e.slot(1) == c
        assert e.slot(2) == c.transpose()
        assert e.slot(3) == b.transpose()

    def test_complete_horizontal_wrong_count(self):
        # Slots 0..r and nothing else: too few or a full slot list is refused.
        s = rect_shape(3, (1, 2, 2, 1))
        with pytest.raises(PreconditionError, match="need 2 free slots"):
            HorizontalElement(s, F, [Matrix.zeros(F, 2, 1)])
        with pytest.raises(PreconditionError, match="need 2 free slots"):
            HorizontalElement(s, F, [Matrix.zeros(F, 2, 1), Matrix.zeros(F, 2, 2), Matrix.zeros(F, 1, 2)])

    def test_every_element_is_an_isometry(self):
        rng = np.random.default_rng(29)
        for weight, dims in [(2, (2, 3, 2)), (3, (2, 3, 3, 2)), (4, (2, 3, 4, 3, 2)), (5, (1, 2, 3, 3, 2, 1))]:
            s = rect_shape(weight, dims)
            for _ in range(5):
                e = random_horizontal(s, F, rng)
                x = e.as_block_matrix()
                assert set(x.blocks) <= {(j + 1, j) for j in range(weight)}
                assert lie_algebra_residual(x) == []


class TestCommutators:
    def test_antisymmetry_and_self(self):
        rng = np.random.default_rng(31)
        s = rect_shape(3, (2, 2, 2, 2))
        x = random_block_matrix(s, F, rng)
        y = random_block_matrix(s, F, rng)
        assert commutator(x, y) == -commutator(y, x)
        assert commutator(x, x).is_zero()

    def test_transpose_lifts_commute_high_weight(self):
        rng = np.random.default_rng(37)
        for weight in (3, 4, 5, 6):
            dims = tuple([2] + [3] * (weight - 1) + [2])
            s = rect_shape(weight, dims)
            cand = build_transpose_element(
                [random_matrix(F, 3, 2, rng) for _ in range(3)], s, F
            )
            assert cand.verified
            assert check_integral(cand).ok

    def test_weight_two_slot_collision(self):
        # at weight 2 a slot-0 block meets a slot-1 block in the product:
        # the same interaction the transpose lift avoids from weight 3 on
        s = rect_shape(2, (1, 1, 1))
        one = Matrix.from_rows(F, [[1]])
        a = BlockMatrix(s, F, {(1, 0): one})
        b = BlockMatrix(s, F, {(2, 1): one})
        c = commutator(a, b)
        assert c.block(2, 0) == one.scale(-1)
        with pytest.raises(PreconditionError):
            build_transpose_element([Matrix.from_rows(F, [[1]])], s, F)

    def test_horizontal_commutator_detects_failure(self):
        s = rect_shape(3, (2, 3, 3, 2))
        rng = np.random.default_rng(41)
        e1 = random_horizontal(s, F, rng)
        e2 = random_horizontal(s, F, rng)
        c = commutator(e1.as_block_matrix(), e2.as_block_matrix())
        manual = e1.as_block_matrix() @ e2.as_block_matrix() - e2.as_block_matrix() @ e1.as_block_matrix()
        assert c == manual


def sparse_horizontal(shape, field, rng, density=0.3):
    """A horizontal element with 0/1 free slots (the odd-weight middle slot
    symmetrized): sparse enough that pairs often commute, over any field."""
    free = []
    for j in range(shape.free_slot_count):
        h_to, h_from = shape.slot_shape(j)
        m = Matrix.from_rows(field, (rng.random((h_to, h_from)) < density).astype(int).tolist(), cols=h_from)
        if shape.weight % 2 == 1 and j == shape.free_slot_count - 1:
            m = m + m.transpose()
        free.append(m)
    return HorizontalElement(shape, field, free)


def symmetric_shape(weight, rng):
    """A weight-``weight`` shape with h_q == h_(n-q), each in 1..3."""
    low = [int(h) for h in rng.integers(1, 4, size=weight // 2 + 1)]
    return HodgeShape(weight, tuple(low + low[: (weight + 1) // 2][::-1]))


class TestIntegrality:
    def test_check_and_verify(self):
        s = rect_shape(3, (2, 3, 3, 2))
        rng = np.random.default_rng(43)
        e1 = random_horizontal(s, F, rng)
        e2 = random_horizontal(s, F, rng)
        cand = IntegralElementCandidate(s, F, (e1, e2))
        report = check_integral(cand)
        assert report.failing_pairs == ((0, 1),)
        assert cand.verified == report.ok
        assert cand.integrality == report

    @pytest.mark.parametrize(
        "field",
        [FieldSpec.prime(10007), FieldSpec.prime(2147483629), QQ],
        ids=["p10007", "p2147483629", "QQ"],
    )
    def test_slot_identity_matches_block_commutator(self, field):
        # check_integral compares X_(j+1) Y_j with Y_(j+1) X_j for j < n // 2
        # only; the full block commutator is the reference.
        rng = np.random.default_rng(53)
        commutes = {weight: set() for weight in range(1, 7)}
        for weight in range(1, 7):
            for trial in range(16):
                s = symmetric_shape(weight, rng)
                basis = tuple(sparse_horizontal(s, field, rng) for _ in range(2 + trial % 2))
                blocks = [e.as_block_matrix() for e in basis]
                want = tuple(
                    (a, b)
                    for a, b in combinations(range(len(basis)), 2)
                    if not commutator(blocks[a], blocks[b]).is_zero()
                )
                cand = IntegralElementCandidate(s, field, basis)
                assert check_integral(cand).failing_pairs == want
                assert cand.verified == (want == ())
                commutes[weight] |= {pair not in want for pair in combinations(range(len(basis)), 2)}
        assert commutes[1] == {True}  # no degree-2 block exists at weight 1
        assert all(commutes[weight] == {True, False} for weight in range(2, 7))

    def test_transpose_lift_round_trip(self):
        s = rect_shape(3, (2, 4, 4, 2))
        rng = np.random.default_rng(47)
        rows = [random_matrix(F, 4, 2, rng).flatten() for _ in range(3)]
        e0 = Subspace.from_rows(F, rows, ambient_dimension=8)
        cand = build_transpose_element(e0, s, F)
        assert cand.k == e0.dim
        assert project(cand, 0) == e0
        assert project(cand, 1).dim == 0
        assert project(cand, 2) == Subspace.from_rows(
            F, [e.slot(2).flatten() for e in cand.basis], ambient_dimension=8
        )

    def test_project_range(self):
        s = rect_shape(3, (1, 2, 2, 1))
        cand = IntegralElementCandidate(s, F, (zero_horizontal(s, F),))
        with pytest.raises(PreconditionError):
            project(cand, 3)


class TestChart:
    def setup_method(self):
        self.shape = rect_shape(3, (2, 3, 3, 2))
        self.rng = np.random.default_rng(53)
        rows = [random_matrix(F, 3, 2, self.rng).flatten() for _ in range(2)]
        self.e0 = Subspace.from_rows(F, rows, ambient_dimension=6)
        assert self.e0.dim == 2
        self.chart = ChartData(self.shape, self.e0)
        self.w = self.chart.w

    def test_chart_is_derived_from_its_base(self):
        assert self.chart.field == F
        assert self.w == standard_complement(self.e0)
        assert self.chart.w is self.w  # computed once
        with pytest.raises(PreconditionError, match="wrong Hom space"):
            ChartData(rect_shape(3, (2, 4, 4, 2)), self.e0)

    def test_in_chart(self):
        cand = build_transpose_element(self.e0, self.shape, F)
        assert in_chart(cand, self.chart)
        # a candidate whose slot-0 span degenerates is outside every chart
        e = cand.basis[0]
        degenerate = IntegralElementCandidate(self.shape, F, (e, e))
        assert not in_chart(degenerate, self.chart)
        # a candidate meeting W nontrivially is outside this chart
        wrow = self.w.basis.row(0)
        wmat = Matrix.from_rows(F, [wrow[i * 2 : (i + 1) * 2] for i in range(3)], cols=2)
        other = build_transpose_element([wmat], self.shape, F)
        assert not in_chart(other, self.chart)
        # a candidate on another frame is refused, not ranked
        wide = build_transpose_element([random_matrix(F, 3, 3, self.rng)], rect_shape(3, (3, 3, 3, 3)), F)
        with pytest.raises(PreconditionError, match="different frame"):
            in_chart(wide, self.chart)

    @pytest.mark.parametrize("p", [10007, 2147483629])  # float64 and int64 elimination
    def test_theta_inverse_of_theta_is_identity(self, p):
        fld = FieldSpec.prime(p)
        rng = np.random.default_rng(53)
        rows = [random_matrix(fld, 3, 2, rng).flatten() for _ in range(2)]
        bases = [
            Subspace.from_rows(fld, rows, ambient_dimension=6),
            # pivots not 0..k-1
            Subspace.from_rows(fld, [[0, 0] + r[2:] for r in rows], ambient_dimension=6),
            # the whole slot-0 Hom space: W = 0
            Subspace.from_rows(fld, Matrix.identity(fld, 6)),
        ]
        assert bases[1].basis.col_select([0, 1]).is_zero() and bases[2].dim == 6
        for e0 in bases:
            chart = ChartData(self.shape, e0)
            k = chart.k
            for trial in range(25):
                rng = np.random.default_rng((61, trial))
                w_part = random_matrix(fld, k, chart.w.dim, rng)
                part1 = random_matrix(fld, k, 9, rng)
                # slot-1 blocks of a horizontal element must be symmetric at odd
                # weight only in the middle slot; weight 3 slot 1 is the middle
                sym_rows = []
                for a in range(k):
                    m = Matrix.from_rows(fld, [part1.row(a)[i * 3 : (i + 1) * 3] for i in range(3)], cols=3)
                    m = m + m.transpose()
                    sym_rows.append(m.flatten())
                part1 = Matrix.from_rows(fld, sym_rows, cols=9)
                cand = theta(chart, w_part, [part1])
                coords = theta_inverse(cand, chart)
                assert coords.w_part == w_part
                assert coords.parts[0] == part1

    def test_coordinates_are_basis_independent(self):
        # chart coordinates depend on the plane, not the spanning basis:
        # remixing the basis by any invertible matrix leaves them fixed
        for trial in range(25):
            rng = np.random.default_rng((67, trial))
            mix = random_matrix(F, 2, 2, rng)
            if mix.rank() != 2:
                continue
            w_part = random_matrix(F, 2, self.w.dim, rng)
            sym_rows = []
            for a in range(2):
                m = random_matrix(F, 3, 3, rng)
                m = m + m.transpose()
                sym_rows.append(m.flatten())
            part1 = Matrix.from_rows(F, sym_rows, cols=9)
            cand = theta(self.chart, w_part, [part1])
            mixed_rows = mix @ Matrix.from_rows(F, [free_row(e) for e in cand.basis], cols=6 + 9)
            elements = []
            for a in range(2):
                flat = mixed_rows.row(a)
                alpha = Matrix.from_rows(F, [flat[i * 2 : (i + 1) * 2] for i in range(3)], cols=2)
                mid = Matrix.from_rows(F, [flat[6 + i * 3 : 6 + (i + 1) * 3] for i in range(3)], cols=3)
                elements.append(HorizontalElement(self.shape, F, [alpha, mid]))
            mixed = IntegralElementCandidate(self.shape, F, tuple(elements))
            coords = theta_inverse(mixed, self.chart)
            assert coords.w_part == w_part
            assert coords.parts[0] == part1
            back = theta(self.chart, coords.w_part, list(coords.parts))
            span = Subspace.from_rows(F, [free_row(e) for e in mixed.basis], ambient_dimension=15)
            span_back = Subspace.from_rows(F, [free_row(e) for e in back.basis], ambient_dimension=15)
            assert span == span_back

    def test_transpose_lift_has_zero_coordinates(self):
        cand = build_transpose_element(self.e0, self.shape, F)
        coords = theta_inverse(cand, self.chart)
        assert coords.w_part.is_zero()
        assert all(p.is_zero() for p in coords.parts)
        assert coords.is_zero()
        maps = coords.part_maps(1)
        assert all(m.is_zero() for m in maps)

    def test_theta_inverse_rejects_outside_chart(self):
        wrow = self.w.basis.row(0)
        wmat = Matrix.from_rows(F, [wrow[i * 2 : (i + 1) * 2] for i in range(3)], cols=2)
        other = build_transpose_element([wmat, self.e0.basis.row(0)], self.shape, F)
        with pytest.raises(PreconditionError):
            theta_inverse(other, self.chart)
