"""Tests for hypersurface profiles, inequalities, monotonicity, geometric
frames, and the verify_theorem pipeline."""

from dataclasses import replace
from fractions import Fraction
from itertools import combinations
from math import comb

import numpy as np
import pytest

from ivhs.errors import PreconditionError, SingularInputError
from ivhs.fields import QQ, FieldSpec, default_prime_field
from ivhs.hodge import lie_algebra_residual, project
from ivhs.jacobian import JacobianContext
from ivhs.linalg import QuotientMap
from ivhs.polyring import HomogeneousPoly, parse_poly
from ivhs.symmetrizers import fiber_forward_check
from ivhs import theorem
from ivhs.theorem import (
    base_case_terms,
    canonical_symmetrizer_check,
    fixture_id,
    geometric_frame_candidate,
    hypersurface_hodge_shape,
    inequality_check,
    monotonicity_check,
    monotonicity_row,
    profile,
    ring_frame_candidate,
    verify_theorem,
)

F = default_prime_field()


def variables(num_vars):
    return [
        HomogeneousPoly.from_terms(
            F, num_vars, {tuple(1 if j == i else 0 for j in range(num_vars)): 1}
        )
        for i in range(num_vars)
    ]


class TestProfile:
    def test_reference_values(self):
        p = profile(3, 6)
        assert (p.h_n0, p.h_n1_1, p.dim_e) == (5, 255, 185)
        assert (p.p, p.three_p) == (51, 153)

    def test_matches_jacobian_ranks(self):
        for n, d in [(3, 6), (4, 7)]:
            ctx = JacobianContext.fermat(n, d)
            p = profile(n, d)
            assert ctx.piece(d - n - 2).dim == p.h_n0
            assert ctx.piece(2 * d - n - 2).dim == p.h_n1_1
            assert ctx.piece(d).dim == p.dim_e

    def test_threshold_definition(self):
        p = profile(3, 6)
        assert p.p == (p.h_n1_1 - 1) // p.h_n0 + 1

    def test_degenerate_h0(self):
        p = profile(3, 4)  # d < n+2: no holomorphic top forms
        assert p.h_n0 == 0
        assert p.p == 0

    def test_validation(self):
        with pytest.raises(PreconditionError):
            profile(0, 6)
        with pytest.raises(PreconditionError):
            profile(3, 1)

    def test_as_dict(self):
        d = profile(3, 6).as_dict()
        assert d["dim_E"] == 185 and d["three_p"] == 153


class TestInequality:
    def test_reference_instance(self):
        # 185 >= 153 and 185 >= 3*(255/5) + 6 = 159
        assert inequality_check(3, 6)

    def test_sample_grid(self):
        for n in (3, 5, 8):
            for d in (n + 3, n + 9, n + 20):
                assert inequality_check(n, d), (n, d)

    def test_out_of_range(self):
        with pytest.raises(PreconditionError):
            inequality_check(2, 6)
        with pytest.raises(PreconditionError):
            inequality_check(3, 5)


class TestBaseCase:
    def test_reference_values(self):
        a3, b3 = base_case_terms(3)
        assert a3 == Fraction(12)
        assert b3 == Fraction(20)

    def test_signs(self):
        # A_n has the sign of n^2 - 7; B_n >= 6 always
        a2, b2 = base_case_terms(2)
        assert a2 < 0
        assert b2 >= 6
        for n in range(3, 11):
            a, b = base_case_terms(n)
            assert a > 0
            assert b >= 6

    def test_identity_with_profile(self):
        # at d = n+3 the difference dim_E - 3 h^{n-1,1}/h^{n,0} is A_n + B_n
        for n in range(3, 11):
            a, b = base_case_terms(n)
            p = profile(n, n + 3)
            diff = Fraction(p.dim_e) - 3 * Fraction(p.h_n1_1, p.h_n0)
            assert diff == a + b, n

    def test_validation(self):
        with pytest.raises(PreconditionError):
            base_case_terms(0)


class TestMonotonicity:
    def test_reference_row(self):
        row = monotonicity_row(3, 6)
        assert row.alpha_d == 110
        assert row.beta_d == 20
        assert row.s_d == 6 * 20 * 90

    def test_long_range(self):
        rows, ok = monotonicity_check(3, 6, 26)
        assert ok
        assert len(rows) == 21
        ratios = [r.r for r in rows]
        assert all(x > y for x, y in zip(ratios, ratios[1:]))
        assert all(r.s_d > 0 for r in rows)

    def test_high_dimension(self):
        rows, ok = monotonicity_check(8, 11, 31)
        assert ok
        assert all(r.s_d >= 0 for r in rows)

    def test_row_dict(self):
        d = monotonicity_row(3, 6).as_dict()
        assert d["s_d"] == 10800
        assert Fraction(d["r_num"], d["r_den"]) == Fraction(255, 5)

    def test_validation(self):
        with pytest.raises(PreconditionError):
            monotonicity_check(2, 6, 8)
        with pytest.raises(PreconditionError):
            monotonicity_check(3, 5, 8)
        with pytest.raises(PreconditionError):
            monotonicity_check(3, 8, 6)


class TestFixtureId:
    def test_fermat_recognized(self):
        assert fixture_id(JacobianContext.fermat(3, 6)) == "fermat(3,6)"

    def test_general_poly_digested(self):
        f = parse_poly("x0^6 + x1^6 + x2^6 + x3^6 + x4^6 + x0*x1*x2*x3*x4*x0", F)
        ident = fixture_id(JacobianContext(f))
        assert ident.startswith("poly(")
        assert ident == fixture_id(JacobianContext(f))


class TestRingFrames:
    def test_cubic_window(self):
        ctx = JacobianContext.fermat(3, 3)
        gens = variables(ctx.num_vars)[:3]
        cand = ring_frame_candidate(ctx, 1, 3, gens, spacing=1)
        assert cand.verified
        assert cand.shape.hodge_numbers == (5, 10, 10, 5)
        for e in cand.basis:
            assert lie_algebra_residual(e.as_block_matrix()) == []
        result = fiber_forward_check(cand)
        assert result.holds and result.pairs_checked == 3

    def test_quintic_geometric_window(self):
        ctx = JacobianContext.fermat(3, 5)
        shape = hypersurface_hodge_shape(ctx)
        assert shape.hodge_numbers == (1, 101, 101, 1)
        mons = ctx.piece(5).standard_monomials[:3]
        mults = [HomogeneousPoly.from_terms(F, ctx.num_vars, {m: 1}) for m in mons]
        cand = geometric_frame_candidate(ctx, mults)
        assert cand.verified
        assert cand.shape == shape
        assert project(cand, 0).dim == 3

    def test_preconditions(self):
        ctx = JacobianContext.fermat(3, 3)
        gens = variables(ctx.num_vars)[:1]
        with pytest.raises(PreconditionError):
            ring_frame_candidate(ctx, 1, 2, gens)  # even weight
        with pytest.raises(PreconditionError):
            ring_frame_candidate(ctx, 0, 3, gens)  # not socle-centered
        with pytest.raises(PreconditionError):
            ring_frame_candidate(ctx, 1, 3, [], spacing=1)
        with pytest.raises(PreconditionError):
            ring_frame_candidate(ctx, 1, 3, [multiply_sample(ctx)], spacing=1)

    def test_geometric_needs_window(self):
        ctx = JacobianContext.fermat(3, 3)  # d = n: window would start below 0
        with pytest.raises(PreconditionError):
            geometric_frame_candidate(ctx, variables(ctx.num_vars)[:1])


def multiply_sample(ctx):
    """A degree-2 element, the wrong degree for spacing-1 frames."""
    v = variables(ctx.num_vars)
    from ivhs.polyring import multiply

    return multiply(v[0], v[1])


@pytest.fixture(scope="module")
def fermat36_report():
    return verify_theorem(JacobianContext.fermat(3, 6), seed=0, pair_sample=60)


class TestVerifyTheorem:
    def test_fermat_sextic_witnessed(self, fermat36_report):
        rep = fermat36_report
        assert rep.verdict == "NonGenericityWitnessed"
        assert rep.fixture == "fermat(3,6)"
        assert rep.dims == {"h_n0": 5, "h_n1_1": 255, "dim_E": 185}
        assert rep.dims_match
        assert rep.p0_injective and rep.p1_injective
        assert rep.canonical_symmetrizer_nonzero
        assert rep.symmetrizer_pairs_checked == 60
        assert rep.inequality_holds is True
        assert rep.socle_mode == "full"

    def test_deterministic(self, fermat36_report):
        again = verify_theorem(JacobianContext.fermat(3, 6), seed=0, pair_sample=60)
        assert again == fermat36_report

    def test_gorenstein_duality_fixture(self):
        ctx = JacobianContext.fermat(3, 6)
        assert ctx.piece(7).dim == 255
        assert ctx.piece(13).dim == 255
        assert ctx.piece(20).dim == 1

    def test_report_only_below_range(self):
        rep = verify_theorem(JacobianContext.fermat(3, 5))
        assert not rep.in_theorem_range
        assert rep.inequality_holds is None
        assert rep.verdict == "Inconclusive"
        assert rep.p0_injective and rep.p1_injective
        assert rep.canonical_symmetrizer_nonzero
        assert any("report-only" in note for note in rep.notes)

    def test_singular_fixture_rejected(self):
        f = parse_poly("x0^6", F, num_vars=5)
        with pytest.raises(SingularInputError):
            verify_theorem(JacobianContext(f), socle_mode="full")
        with pytest.raises(SingularInputError):
            verify_theorem(JacobianContext(f), socle_mode="cheap")

    def test_bad_socle_mode(self):
        with pytest.raises(PreconditionError):
            verify_theorem(JacobianContext.fermat(3, 5), socle_mode="maybe")

    def test_full_pair_coverage_on_small_fixture(self):
        # fewer total pairs than the sample size: every pair is checked
        rep = verify_theorem(JacobianContext.fermat(3, 5), pair_sample=10**9)
        k = 101
        assert rep.symmetrizer_pairs_checked == k * (k - 1) // 2

    def test_canonical_check_without_pairs(self):
        result = canonical_symmetrizer_check(JacobianContext.fermat(3, 5), pair_sample=0)
        assert (result.nonzero, result.symmetric, result.pairs_checked) == (True, True, 0)

    def test_canonical_check_counts_pairs_before_the_first_failure(self, monkeypatch):
        # One scatter per side; the second side gets one extra unit term in
        # the block of the third sampled pair (dim R^0 = 1 column per pair).
        ctx = JacobianContext.fermat(3, 5)
        top = ctx.piece(10)
        unit = top.ambient.index(top.standard_monomials[0])
        real = QuotientMap.scatter
        widths = []

        def corrupt_third_pair(self, width, cols, targets, coeffs):
            widths.append(width)
            if len(widths) == 2:
                cols, targets, coeffs = np.r_[cols, unit], np.r_[targets, 2], np.r_[coeffs, 1]
            return real(self, width, cols, targets, coeffs)

        monkeypatch.setattr(QuotientMap, "scatter", corrupt_third_pair)
        result = canonical_symmetrizer_check(ctx, pair_sample=10)
        assert (result.nonzero, result.symmetric, result.pairs_checked) == (True, False, 2)
        assert widths == [10, 10]

    def test_canonical_check_computes_both_sides(self, monkeypatch):
        # On fermat(3,5) alpha(g) is the unit vector of g in R^5 = R^d.
        # Doubling it for the first pair's x alone makes the sides differ on
        # that pair, whose product is not in the ideal.  Computing one side
        # twice, or inferring one from the other, would not see it.
        x = theorem._sample_pairs(101, 10, 0)[0, 0]
        real = QuotientMap.entries

        def double_alpha_of_x(self, cols):
            rows, pos, vals = real(self, cols)
            return rows, pos, np.where(rows == x, 2 * vals, vals)

        monkeypatch.setattr(QuotientMap, "entries", double_alpha_of_x)
        result = canonical_symmetrizer_check(JacobianContext.fermat(3, 5), pair_sample=10)
        assert (result.nonzero, result.symmetric, result.pairs_checked) == (True, False, 0)

    def test_dimension_mismatch_is_inconclusive(self, monkeypatch):
        # dim E one above the true 185 still satisfies the inequality, so
        # only the mismatch can keep the verdict from being witnessed.
        real = theorem.profile
        monkeypatch.setattr(theorem, "profile", lambda n, d: replace(real(n, d), dim_e=real(n, d).dim_e + 1))
        rep = verify_theorem(JacobianContext.fermat(3, 6), seed=0, pair_sample=60)
        assert not rep.dims_match
        assert rep.p0_injective and rep.p1_injective
        assert rep.canonical_symmetrizer_nonzero
        assert rep.inequality_holds is True
        assert rep.verdict == "Inconclusive"
        assert "graded dimensions disagree with the closed forms" in rep.notes

    @pytest.mark.slow
    @pytest.mark.parametrize("n, d", [(3, 7), (3, 8), (4, 7)])
    def test_fermat_beyond_the_sextic_witnessed(self, n, d):
        # The stacked action of R^d on R^{2d-5} is 1030225 x 470 at (3, 8),
        # over the default budget; the one-multiplier certificate is not.
        # At (4, 7) the canonical check gathers from R^15, of dimension 4332
        # in an ambient space of 15504 monomials.
        rep = verify_theorem(JacobianContext.fermat(n, d), socle_mode="full")
        assert rep.socle_mode == "full"
        assert rep.dims_match
        assert rep.p0_injective and rep.p1_injective
        assert rep.canonical_symmetrizer_nonzero
        assert rep.verdict == "NonGenericityWitnessed"

    @pytest.mark.slow
    def test_random_smooth_sextic_witnessed(self):
        # non-monomial ideal: dense elimination path + probe fallback
        f = parse_poly(
            "x0^6 + x1^6 + x2^6 + x3^6 + x4^6"
            " + x0*x1*x2*x3*x4*x0 + 2*x0*x1*x2*x3*x4*x1 + 3*x0*x1*x2*x3*x4*x2",
            F,
        )
        rep = verify_theorem(JacobianContext(f), seed=1, pair_sample=50)
        assert rep.fixture.startswith("poly(")
        assert rep.socle_mode == "cheap"
        assert rep.dims_match
        assert rep.verdict == "NonGenericityWitnessed"

    @pytest.mark.slow
    def test_sextic_geometric_frame(self):
        ctx = JacobianContext.fermat(3, 6)
        mons = ctx.piece(6).standard_monomials[:4]
        mults = [HomogeneousPoly.from_terms(F, ctx.num_vars, {m: 1}) for m in mons]
        cand = geometric_frame_candidate(ctx, mults)
        assert cand.verified
        assert cand.shape.hodge_numbers == (5, 255, 255, 5)
        for e in cand.basis:
            assert lie_algebra_residual(e.as_block_matrix()) == []
        result = fiber_forward_check(cand)
        assert result.holds and result.pairs_checked == 6


# ---------------------------------------------------------------------------
# the batched canonical symmetrizer check against explicit products
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("k", [0, 1, 2, 3, 7, 20, 185])
@pytest.mark.parametrize("seed", [0, 1, 5, 913, 2**31 - 1])
def test_sample_pairs_are_the_combination_ranks_drawn(k, seed):
    ranked = list(combinations(range(k), 2))
    for count in (0, 1, 10, 60):
        if len(ranked) <= count:
            want = ranked
        else:
            picks = np.random.default_rng((seed, 0xCA)).choice(len(ranked), size=count, replace=False)
            want = sorted(ranked[t] for t in picks)
        got = theorem._sample_pairs(k, count, seed)
        assert got.shape == (len(want), 2)
        assert [tuple(p) for p in got.tolist()] == want, (k, seed, count)


def _reference_maps(ctx):
    """q(g) and alpha(g) as class matrices, for g the e-th standard
    monomial of R^d."""
    n, d = ctx.n, ctx.d
    a, b = d - (n + 2), 2 * d - (n + 2)
    mid, top = ctx.piece(b), ctx.piece(b + d)
    g = ctx.piece(d).standard_monomials
    src = ctx.piece(a).standard_monomials if a >= 0 else ()
    q = lambda e: top.classes(top.ambient.sum_index(mid.standard_monomials, [g[e]]).ravel())
    alpha = lambda e: mid.classes(mid.ambient.sum_index(src, [g[e]]).ravel())
    return q, alpha


def _cross_check(ctx, pairs):
    """Every pair block of the batched sides equals the product of the class
    matrices, and the nonzero flag is q(g) != 0 over the elements of the
    pairs.  Returns the number of runs."""
    q, alpha = _reference_maps(ctx)
    nonzero, runs = theorem._canonical_sides(ctx, pairs)
    done = n_runs = 0
    for count, lhs, rhs in runs:
        n_runs += 1
        for i, (x, y) in enumerate(pairs[done : done + count].tolist()):
            ref_l, ref_r = q(y) @ alpha(x), q(x) @ alpha(y)
            block = range(i * ref_l.cols, (i + 1) * ref_l.cols)
            assert lhs.col_select(block) == ref_l and rhs.col_select(block) == ref_r, (x, y)
        assert lhs.cols == rhs.cols == count * ref_l.cols
        done += count
    assert done == len(pairs)
    assert nonzero == all(not q(e).is_zero() for e in set(pairs.ravel().tolist()))
    return n_runs


DENSE_QUARTIC = "x0^4+x1^4+x2^4+x3^4+3*x0^2*x1*x3+x1*x2^3+5*x0*x1*x2*x3"
CANONICAL_FIXTURES = {
    "fermat(3,5)": lambda fld: JacobianContext.fermat(3, 5, field=fld),
    "fermat(3,6)": lambda fld: JacobianContext.fermat(3, 6, field=fld),
    "quartic-surface": lambda fld: JacobianContext(parse_poly(DENSE_QUARTIC, fld)),
    "quintic-threefold": lambda fld: JacobianContext(
        parse_poly("x0^5+x1^5+x2^5+x3^5+x4^5+2*x0*x1*x2*x3*x4+3*x0^3*x1*x2", fld)
    ),
    # d < n + 2: alpha maps from a negative degree and is empty.
    "fermat(3,4)": lambda fld: JacobianContext.fermat(3, 4, field=fld),
    "cubic-surface": lambda fld: JacobianContext(parse_poly("x0^3+x1^3+x2^3+x3^3+x0*x1*x2", fld)),
}
PRIMES = [
    pytest.param(FieldSpec.prime(10007), id="p10007"),
    pytest.param(FieldSpec.prime(2147483629), id="p2147483629"),
]


@pytest.mark.parametrize("field", PRIMES)
@pytest.mark.parametrize("name", list(CANONICAL_FIXTURES))
def test_canonical_sides_match_explicit_products(name, field):
    ctx = CANONICAL_FIXTURES[name](field)
    k = ctx.piece(ctx.d).dim
    pairs = theorem._sample_pairs(k, 20, 3)
    runs = _cross_check(ctx, pairs)
    if name == "quartic-surface":
        # q(g) is 1 x 19: one scatter per side for every sample.
        assert runs == 1
    result = canonical_symmetrizer_check(ctx, seed=3, pair_sample=20)
    assert (result.symmetric, result.pairs_checked) == (True, len(pairs))


@pytest.mark.parametrize("name", ["fermat(3,5)", "cubic-surface"])
def test_canonical_sides_match_explicit_products_over_q(name):
    ctx = CANONICAL_FIXTURES[name](QQ)
    pairs = theorem._sample_pairs(ctx.piece(ctx.d).dim, 12, 4)
    assert _cross_check(ctx, pairs) == 1
    assert canonical_symmetrizer_check(ctx, seed=4, pair_sample=12).pairs_checked == len(pairs)


def test_canonical_sides_in_bounded_runs(monkeypatch):
    # A bound below one pair's block: one pair per run, same blocks and report.
    ctx = CANONICAL_FIXTURES["fermat(3,6)"](F)
    want = canonical_symmetrizer_check(ctx, seed=2, pair_sample=7)
    monkeypatch.setattr(theorem, "_SIDE_ENTRIES", 1)
    assert _cross_check(ctx, theorem._sample_pairs(ctx.piece(6).dim, 7, 2)) == 7
    assert canonical_symmetrizer_check(ctx, seed=2, pair_sample=7) == want


@pytest.mark.parametrize(
    "ctx, pair_sample, want",
    [
        # k = 1: dim R^3 = 1 for the Fermat cubic curve, no pair to check.
        (JacobianContext.fermat(1, 3), 60, (1, False, 0)),
        (JacobianContext.fermat(3, 5), 0, (101, True, 0)),
        # Full coverage: fewer pairs than the sample.
        (JacobianContext(parse_poly(DENSE_QUARTIC, F)), 10**9, (19, True, comb(19, 2))),
    ],
    ids=["k=1", "pair_sample=0", "full-coverage"],
)
def test_canonical_check_edges(ctx, pair_sample, want):
    result = canonical_symmetrizer_check(ctx, pair_sample=pair_sample)
    k, nonzero, checked = want
    assert ctx.piece(ctx.d).dim == k
    assert (result.nonzero, result.symmetric, result.pairs_checked) == (nonzero, True, checked)
    if checked:
        _cross_check(ctx, theorem._sample_pairs(k, pair_sample, 0))
